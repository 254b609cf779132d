"""Structured errors raised by the optimizer kernels, the oracle, and the bench harness.

Bad input has one family: ``ValueError``.  The kernels, the oracle and the
problem constructors raise it for a value outside its domain, and
``ConfigError``, a ``ValueError``, is what the run-config, noise and record
readers raise.  So ``except ValueError`` catches every one of them, and
``as_int`` raises it for a size or seed that is not an integer or is a
``bool``; ``as_float`` raises a ``ConfigError`` for a float value that is no
real number or too large for a float.
``OptimizerError`` is the other family: a step that cannot be taken
(``DimensionMismatch``) or whose result is not finite (``NonFiniteValue``).
"""

import numbers
import operator


def as_int(name: str, value) -> int:
    """``value`` as an ``int`` by ``operator.index``; a float or other non-integer
    raises ``ValueError`` naming ``name`` instead of being truncated, and so does
    ``True`` or ``False``, which Python counts as integers but a config does not."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def as_float(name: str, value, domain: str = "be a finite number") -> float:
    """``value`` as a ``float``.  A ``str``, ``None``, ``bool`` or other value that
    is no real number raises ``ConfigError`` (a ``ValueError``) naming ``name``
    instead of being read by ``float`` or raising ``TypeError``, and so does an
    int too large for a float instead of raising ``OverflowError``; the message
    is ``{name} must {domain}, got {value!r}``, the value cut to 80 characters."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ConfigError(f"{name} must {domain}, got {value!r:.80}")


class OptimizerError(Exception):
    """Base class for structured kernel and oracle failures."""


class DimensionMismatch(OptimizerError):
    """A vector had the wrong length for the state it was paired with."""

    def __init__(self, what: str, expected: int, got: int):
        self.what = what
        self.expected = expected
        self.got = got
        super().__init__(f"{what}: expected length {expected}, got {got}")


class NonFiniteValue(OptimizerError):
    """A NaN or infinity showed up in a gradient, intermediate, or parameter.

    ``stage`` names the update stage that produced the value (``gradient``,
    ``m``, ``second_moment``, ``m_bar``, ``m_hat``, ``s_hat``,
    ``delta_theta``, ``theta_after``), ``index`` the offending element and
    ``step`` the 1-based step counter at the time of the failure.
    """

    def __init__(self, stage: str, index: int | None = None, step: int | None = None):
        self.stage = stage
        self.index = index
        self.step = step
        where = f" at step {step}" if step is not None else ""
        elem = f", element {index}" if index is not None else ""
        super().__init__(f"non-finite value in {stage}{where}{elem}")


class ConfigError(ValueError):
    """A run configuration or record is malformed or references unknown identifiers."""
