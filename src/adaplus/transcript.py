"""Transcripts and trajectories of optimizer intermediates.

A transcript records every quantity an update rule computes on the way from
``theta_{t-1}`` to ``theta_t``, one value per parameter element: the nine
fields of ``StepTranscript``, in ``ALL_FIELDS`` order.  A public kernel step
returns one when asked.  It holds one C-contiguous ``(9, dim)`` float64
block, ``tr.block``, and nothing else: ``ALL_FIELDS`` is the one source of
its row order, and each field name reads its row as a view of the block
(``tr.m`` is ``tr.block[1]``).  It carries no step number: a transcript is
of the step that left its state at ``state.t``, as a trajectory's step is
its position, and ``StepTranscript(trajectory[t - 1])`` names the rows of
step ``t``.  Two transcripts are compared through their blocks with
``np.array_equal``, as trajectories are.

A trajectory is one C-contiguous ``(steps, 9, dim)`` float64 array:
``trajectory[t - 1]`` holds step ``t``'s nine fields as rows, in
``ALL_FIELDS`` order, so a step's number is its position.
``kernels.drive_stream`` and ``oracle.replay`` both return one, and every
reader takes it as it is: two trajectories are equal when
``np.array_equal`` says so, ``first_non_finite`` names the first failing
step's earliest stage in one scan, and ``scaled_deviation`` compares two of
them in one pass, forming the scaled differences once over the whole array.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteValue


# Every per-element field, in the order of its row in a step's block
ALL_FIELDS = ("g", "m", "second_moment", "m_bar", "m_hat", "s_hat", "decay_applied", "delta_theta", "theta_after")


class StepTranscript(NamedTuple):
    """All intermediates of one optimizer step, per parameter element.

    ``block`` is the step's C-contiguous ``(9, dim)`` float64 array, and
    each name in ``ALL_FIELDS`` reads its row as a view, made when it is
    read; a name cannot be assigned.

    Field semantics follow the adaptive-family update: ``m`` is the gradient
    EMA after the step, ``second_moment`` the belief/variance EMA, ``m_bar``
    the (possibly Nesterov-readjusted) numerator before bias correction,
    ``m_hat``/``s_hat`` the bias-corrected numerator and denominator, and
    ``delta_theta`` the adaptive update actually added to the (already
    decayed) parameter.  ``decay_applied`` is the amount subtracted by
    decoupled weight decay, zero when the kernel has no decay.

    For the momentum kernel ``m`` holds the velocity, ``m_bar``/``m_hat``
    hold the applied update direction, and the second-moment fields are zero.

    Compare two transcripts through their blocks with ``np.array_equal``: a
    tuple's own ``==`` would compare the arrays elementwise.
    """

    block: np.ndarray


# each name in ALL_FIELDS is a read-only property returning its row of the block
for _row, _field in enumerate(ALL_FIELDS):
    setattr(StepTranscript, _field, property(lambda tr, row=_row: tr.block[row]))

# Pipeline order of the computed fields, in which the earliest stage that
# holds a non-finite value is reported, and their rows in a step's block.
FIELD_ORDER = tuple(f for f in ALL_FIELDS if f != "decay_applied")
_STAGE_ROWS = [ALL_FIELDS.index(f) for f in FIELD_ORDER]


def first_non_finite(trajectory) -> NonFiniteValue | None:
    """The error naming the first step of ``trajectory`` that holds a
    non-finite stage, its earliest stage in ``FIELD_ORDER`` and that stage's
    first such element; ``None`` if there is none.

    ``trajectory[t - 1]`` is step ``t``.  ``decay_applied`` is no stage of
    its own and is not scanned.
    """
    # argwhere lists (step, stage, element) in C order: its first row is the
    # answer.  The stage rows are picked from the boolean mask, which is an
    # eighth of the size of the values
    bad = np.argwhere(~np.isfinite(trajectory)[:, _STAGE_ROWS])
    if not bad.size:
        return None
    step, stage, index = bad[0].tolist()
    return NonFiniteValue(FIELD_ORDER[stage], index=index, step=step + 1)


def scaled_deviation(got, want) -> float:
    """Worst per-element deviation between two trajectories.

    Measured as ``|a - b| / (|b| + S)`` where ``S`` is the largest magnitude
    the field reaches over the reference trajectory ``want``.  For elements
    of ordinary size this is the relative error up to a factor of two;
    elements passing through zero are measured against the field's working
    scale, which is the finest comparison float64 arithmetic supports there.
    A field whose reference is zero throughout has no scale: any difference
    in it counts as ``inf``.  Returns ``inf`` on mismatched shapes (steps or
    dim), when either side holds a NaN or an infinity, and when a difference
    and its denominator both overflow: none of these may read as agreement.
    Both trajectories must hold at least one step.  Neither input is written.
    """
    if got.shape != want.shape:
        return math.inf
    # a NaN or an infinity on either side, like a difference and a
    # denominator that both overflow, leaves a NaN or an inf in the maximum
    # below (a NaN scale is not zero), so no separate scan is needed
    with np.errstate(over="ignore", invalid="ignore"):
        # every later array is formed in place in one of these two
        diff = np.subtract(got, want)
        np.abs(diff, out=diff)
        size = np.abs(want)
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
