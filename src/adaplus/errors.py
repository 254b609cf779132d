"""Structured errors raised by the optimizer kernels, the oracle, and the bench harness.

Bad input has one family: ``ValueError``.  The kernels, the oracle and the
problem constructors raise it for a value outside its domain, and
``ConfigError``, a ``ValueError``, is what the run-config, noise and record
readers raise.  So ``except ValueError`` catches every one of them.

A number given in code is read by one of two readers, each with its field's
domain: ``as_int`` for sizes, counts and seeds, and ``as_float`` for the
rest.  Both raise ``ConfigError`` for a value of the wrong type or outside
the domain, naming the field: ``{name} must {domain}, got {value}``.
``as_float``'s default domain is "finite".  ``as_rate`` reads a step's
learning rate, as the kernels and the oracle both take it.
``OptimizerError`` is the other family: a step that cannot be taken
(``DimensionMismatch``) or whose result is not finite (``NonFiniteValue``).
"""

import math
import numbers
import operator


def as_int(name: str, value, domain: str = "be an integer", ok=None) -> int:
    """``value`` as an ``int`` by ``operator.index``, if ``ok`` (when given) accepts it.

    A float or other non-integer raises ``ConfigError`` (a ``ValueError``)
    reading ``{name} must be an integer, got {value!r}`` instead of being
    truncated, and so does ``True`` or ``False``, which Python counts as
    integers but a config does not.  An integer that ``ok`` refuses raises
    ``{name} must {domain}, got {value}``.
    """
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    held = operator.index(value)
    if ok is None or ok(held):
        return held
    raise ConfigError(f"{name} must {domain}, got {held}")


def as_float(name: str, value, domain: str = "be a finite number", ok=math.isfinite) -> float:
    """``value`` as a ``float``, if ``ok`` (when not ``None``) accepts that float.

    A ``str``, ``None``, ``bool`` or other value that is no real number, an
    int too large for a float, and a float that ``ok`` refuses all raise
    ``ConfigError`` (a ``ValueError``) naming ``name``, instead of being read
    by ``float`` or raising ``TypeError`` or ``OverflowError``.  The message
    is ``{name} must {domain}, got {value!r}``, the value as given, cut to 80
    characters.
    """
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            held = float(value)
        except OverflowError:
            pass
        else:
            if ok is None or ok(held):
                return held
    raise ConfigError(f"{name} must {domain}, got {value!r:.80}")


def as_rate(name: str, value) -> float:
    """A step's learning rate: ``value`` itself when it is a Python ``float``
    in ``(0, inf)``, the rate every caller passes; any other value is read by
    ``as_float`` in the domain "be a positive finite real"."""
    if type(value) is float and 0.0 < value < math.inf:
        return value
    return as_float(name, value, "be a positive finite real", positive)


def positive(x) -> bool:
    """The domain of a size, a count, a rate or a step: ``0 < x < inf``."""
    return 0 < x < math.inf


def non_negative(x) -> bool:
    """The domain of a seed, ``eps``, a weight decay or a noise scale: ``0 <= x < inf``."""
    return 0 <= x < math.inf


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
