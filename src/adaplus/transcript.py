"""Per-step transcripts of optimizer intermediates.

A transcript records every quantity an update rule computes on the way from
``theta_{t-1}`` to ``theta_t``, one value per parameter element.  Both the
vectorized kernels and the scalar oracle emit the same record type so that
trajectories can be diffed field by field.  Both build a step's fields as
the rows of one ``(9, dim)`` float64 block, in the field order of
``StepTranscript``.

``scaled_deviation`` compares two trajectories in one pass: each side
becomes one ``(steps, 9, dim)`` array, the per-field scales come from one
maximum over it, and the scaled differences are formed once over the whole
array, in place in those two arrays.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteValue


class StepTranscript(NamedTuple):
    """All intermediates of one optimizer step, per parameter element.

    Field semantics follow the adaptive-family update: ``m`` is the gradient
    EMA after the step, ``second_moment`` the belief/variance EMA, ``m_bar``
    the (possibly Nesterov-readjusted) numerator before bias correction,
    ``m_hat``/``s_hat`` the bias-corrected numerator and denominator, and
    ``delta_theta`` the adaptive update actually added to the (already
    decayed) parameter.  ``decay_applied`` is the amount subtracted by
    decoupled weight decay, zero when the kernel has no decay.

    For the momentum kernel ``m`` holds the velocity, ``m_bar``/``m_hat``
    hold the applied update direction, and the second-moment fields are zero.
    """

    t: int
    g: np.ndarray
    m: np.ndarray
    second_moment: np.ndarray
    m_bar: np.ndarray
    m_hat: np.ndarray
    s_hat: np.ndarray
    decay_applied: np.ndarray
    delta_theta: np.ndarray
    theta_after: np.ndarray

    @property
    def dim(self) -> int:
        return self.theta_after.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepTranscript):
            return NotImplemented
        # each side's nine fields compared as one (9, dim) array
        return self.t == other.t and np.array_equal(self[1:], other[1:])

    def __ne__(self, other) -> bool:
        # a tuple's own ``!=`` would compare the arrays elementwise
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def first_non_finite(self) -> NonFiniteValue | None:
        """The error naming the earliest stage in ``FIELD_ORDER`` that holds a
        non-finite value, and its first such element; ``None`` if there is none."""
        for name in FIELD_ORDER:
            bad = np.flatnonzero(~np.isfinite(getattr(self, name)))
            if bad.size:
                return NonFiniteValue(name, index=int(bad[0]), step=self.t)
        return None


# Every per-element field, in constructor order, including the decay amount;
# ``transcript[1:]`` holds them.
ALL_FIELDS = StepTranscript._fields[1:]

# Pipeline order of the computed fields, in which the earliest stage that
# holds a non-finite value is reported.
FIELD_ORDER = tuple(f for f in ALL_FIELDS if f != "decay_applied")


def scaled_deviation(got, want) -> float:
    """Worst per-element deviation between two transcript sequences.

    Measured as ``|a - b| / (|b| + S)`` where ``S`` is the largest magnitude
    the field reaches over the reference trajectory.  For elements of
    ordinary size this is the relative error up to a factor of two; elements
    passing through zero are measured against the field's working scale,
    which is the finest comparison float64 arithmetic supports there.  A
    field whose reference is zero throughout has no scale: any difference
    in it counts as ``inf``.  Returns ``inf`` on mismatched lengths, steps,
    or shapes, when either side holds a NaN or an infinity, and when a
    difference and its denominator both overflow: none of these may read as
    agreement.  Two empty sequences agree (``0.0``).
    """
    got, want = list(got), list(want)
    if len(got) != len(want):
        return math.inf
    if any(a.t != b.t or a.dim != b.dim for a, b in zip(got, want)):
        return math.inf
    if not got:
        return 0.0
    # (steps, 9, dim) per side; every later array is formed in place in one
    # of these two
    x = np.array([tr[1:] for tr in got], dtype=np.float64)
    y = np.array([tr[1:] for tr in want], dtype=np.float64)
    # a NaN or an infinity on either side, like a difference and a
    # denominator that both overflow, leaves a NaN or an inf in the maximum
    # below (a NaN scale is not zero), so no separate scan is needed
    with np.errstate(over="ignore", invalid="ignore"):
        diff = np.abs(np.subtract(x, y, out=x), out=x)
        size = np.abs(y, out=y)
        # over the steps, then over the elements: much faster than one call over both axes
        scale = size.max(axis=0).max(axis=1)
        zero = scale == 0.0
        if zero.any():
            if diff[:, zero].any():
                return math.inf
            # those fields agree exactly; any positive scale measures them as 0
            scale[zero] = 1.0
        worst = np.divide(diff, np.add(size, scale[:, None], out=size), out=diff).max()
    return math.inf if math.isnan(worst) else float(worst)
