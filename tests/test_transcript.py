"""Tests for ``scaled_deviation``, the one-pass measure, against a per-field reference loop, for
``first_non_finite`` over a trajectory, and for the transcript type."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adaplus.errors import NonFiniteValue
from adaplus.transcript import ALL_FIELDS, FIELD_ORDER, StepTranscript, first_non_finite, scaled_deviation


def reference_deviation(got, want):
    """The deviation rule written out field by field, one ``(steps, dim)`` array per field."""
    if got.shape != want.shape:
        return math.inf
    worst = 0.0
    for field in range(len(ALL_FIELDS)):
        x = got[:, field]
        y = want[:, field]
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            return math.inf
        scale = float(np.abs(y).max())
        with np.errstate(over="ignore", invalid="ignore"):
            diff = np.abs(x - y)
            if scale == 0.0:
                if diff.any():
                    return math.inf
                continue
            ratio = float((diff / (np.abs(y) + scale)).max())
        if math.isnan(ratio):
            return math.inf
        worst = max(worst, ratio)
    return worst


@st.composite
def transcript_pairs(draw):
    steps = draw(st.integers(1, 5))
    dim = draw(st.integers(1, 4))
    moderate = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    anything = st.floats(allow_nan=False, allow_infinity=False)
    want = draw(arrays(np.float64, (steps, 9, dim), elements=st.one_of(moderate, anything)))
    rel = draw(arrays(np.float64, (steps, 9, dim), elements=st.sampled_from([0.0, 1e-16, -1e-13, 1e-9, 0.5, -2.0])))
    with np.errstate(over="ignore"):
        got = want * (1.0 + rel)
    # fields whose reference is zero throughout, matched or not by the other side
    for field in range(9):
        kind = draw(st.sampled_from(["keep", "zero", "zero-reference"]))
        if kind != "keep":
            want[:, field] = 0.0
        if kind == "zero":
            got[:, field] = 0.0
    return got, want


class TestScaledDeviation:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pair=transcript_pairs())
    def test_matches_the_per_field_reference(self, pair):
        got, want = pair
        assert scaled_deviation(got, want) == reference_deviation(got, want)
        assert scaled_deviation(want, got) == reference_deviation(want, got)

    def test_identical_transcripts_agree(self):
        values = np.random.default_rng(0).standard_normal((4, 9, 3))
        values[:, 6] = 0.0  # a zero-scale field that both sides share
        assert scaled_deviation(values, values.copy()) == 0.0

    def test_zero_scale_field_with_a_difference_is_infinite(self):
        want = np.random.default_rng(1).standard_normal((3, 9, 2))
        want[:, 2] = 0.0
        got = want.copy()
        got[1, 2, 0] = 1e-300
        assert scaled_deviation(got, want) == math.inf

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_on_either_side_is_infinite(self, bad):
        finite = np.random.default_rng(2).standard_normal((3, 9, 4))
        broken = finite.copy()
        broken[2, ALL_FIELDS.index("theta_after"), 1] = bad
        assert scaled_deviation(broken, finite) == math.inf
        assert scaled_deviation(finite, broken) == math.inf

    def test_overflowing_difference_over_overflowing_denominator_is_infinite(self):
        # |x - y| and |y| + scale both overflow: inf / inf is NaN, not agreement
        want = np.ones((2, 9, 2))
        want[1, 4, 0] = 1.5e308
        got = want.copy()
        got[1, 4, 0] = -1.5e308
        assert scaled_deviation(got, want) == math.inf

    def test_mismatched_length_is_infinite(self):
        values = np.random.default_rng(3).standard_normal((3, 9, 2))
        assert scaled_deviation(values, values[:2]) == math.inf

    def test_mismatched_dim_is_infinite(self):
        values = np.random.default_rng(5).standard_normal((3, 9, 3))
        assert scaled_deviation(values, values[:, :, :2]) == math.inf

    def test_inputs_are_not_written(self):
        rng = np.random.default_rng(6)
        got, want = rng.standard_normal((2, 3, 9, 2))
        kept = got.tobytes(), want.tobytes()
        scaled_deviation(got, want)
        assert (got.tobytes(), want.tobytes()) == kept


class TestFirstNonFinite:
    """The first step holding a non-finite stage, then its earliest stage in FIELD_ORDER, then its lowest element."""

    def test_finite_trajectory_has_none(self):
        assert first_non_finite(np.ones((3, 9, 2))) is None

    def test_earliest_step_wins_over_an_earlier_stage_and_element(self):
        values = np.ones((3, 9, 4))
        values[2, ALL_FIELDS.index("g"), 0] = np.nan
        values[1, ALL_FIELDS.index("theta_after"), 3] = np.inf
        error = first_non_finite(values)
        assert (error.stage, error.step, error.index) == ("theta_after", 2, 3)

    @pytest.mark.parametrize("earlier, later", zip(FIELD_ORDER, FIELD_ORDER[1:]))
    def test_earliest_stage_of_the_step_wins_over_a_lower_element(self, earlier, later):
        values = np.ones((2, 9, 4))
        values[1, ALL_FIELDS.index(later), 0] = -np.inf
        values[1, ALL_FIELDS.index(earlier), 2] = np.nan
        values[1, ALL_FIELDS.index(earlier), 3] = np.inf
        error = first_non_finite(values)
        assert isinstance(error, NonFiniteValue)
        assert (error.stage, error.step, error.index) == (earlier, 2, 2)

    def test_decay_applied_is_no_stage(self):
        values = np.ones((2, 9, 2))
        values[0, ALL_FIELDS.index("decay_applied"), 0] = np.inf
        assert first_non_finite(values) is None
        values[1, ALL_FIELDS.index("s_hat"), 1] = np.nan
        error = first_non_finite(values)
        assert (error.stage, error.step, error.index) == ("s_hat", 2, 1)


class TestStepTranscript:
    """A transcript holds one block and names its nine rows, in ``ALL_FIELDS`` order; it holds nothing else."""

    def test_fields_cannot_be_assigned(self):
        tr = StepTranscript(np.ones((9, 2)))
        assert tr._fields == ("block",) and len(ALL_FIELDS) == 9
        for field in ALL_FIELDS:
            with pytest.raises(AttributeError):
                setattr(tr, field, np.zeros(2))

    def test_names_the_rows_of_a_trajectory_row(self):
        # a transcript made from step t's row of a trajectory reads that step's fields, as views of it
        trajectory = np.arange(3 * 9 * 4, dtype=np.float64).reshape(3, 9, 4)
        for t in (1, 2, 3):
            step = trajectory[t - 1]
            tr = StepTranscript(step)
            assert tr.block is step
            for row, field in enumerate(ALL_FIELDS):
                # the same memory, shape and strides: the field is that row
                assert getattr(tr, field).__array_interface__ == step[row].__array_interface__, field

    def test_defines_no_equality_of_its_own(self):
        # a tuple's == compares the arrays elementwise, so transcripts are compared through their blocks
        assert StepTranscript.__eq__ is tuple.__eq__ and StepTranscript.__ne__ is tuple.__ne__
