"""Tests for ``scaled_deviation``, the one-pass measure, against a per-field reference loop, and for transcript equality."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adaplus.transcript import ALL_FIELDS, StepTranscript, scaled_deviation


def transcripts(values, first_t=1):
    """One transcript per leading row of a ``(steps, 9, dim)`` array, fields in ALL_FIELDS order."""
    return [StepTranscript(first_t + i, **dict(zip(ALL_FIELDS, step))) for i, step in enumerate(values)]


def reference_deviation(got, want):
    """The deviation rule written out field by field, one stacked array per field."""
    if len(got) != len(want) or any(a.t != b.t or a.dim != b.dim for a, b in zip(got, want)):
        return math.inf
    worst = 0.0
    for field in ALL_FIELDS:
        x = np.array([getattr(tr, field) for tr in got])
        y = np.array([getattr(tr, field) for tr in want])
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
    return transcripts(got), transcripts(want)


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
        assert scaled_deviation(transcripts(values), transcripts(values.copy())) == 0.0

    def test_zero_scale_field_with_a_difference_is_infinite(self):
        want = np.random.default_rng(1).standard_normal((3, 9, 2))
        want[:, 2] = 0.0
        got = want.copy()
        got[1, 2, 0] = 1e-300
        assert scaled_deviation(transcripts(got), transcripts(want)) == math.inf

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_on_either_side_is_infinite(self, bad):
        finite = np.random.default_rng(2).standard_normal((3, 9, 4))
        broken = finite.copy()
        broken[2, ALL_FIELDS.index("theta_after"), 1] = bad
        assert scaled_deviation(transcripts(broken), transcripts(finite)) == math.inf
        assert scaled_deviation(transcripts(finite), transcripts(broken)) == math.inf

    def test_overflowing_difference_over_overflowing_denominator_is_infinite(self):
        # |x - y| and |y| + scale both overflow: inf / inf is NaN, not agreement
        want = np.ones((2, 9, 2))
        want[1, 4, 0] = 1.5e308
        got = want.copy()
        got[1, 4, 0] = -1.5e308
        assert scaled_deviation(transcripts(got), transcripts(want)) == math.inf

    def test_mismatched_length_is_infinite(self):
        values = np.random.default_rng(3).standard_normal((3, 9, 2))
        assert scaled_deviation(transcripts(values), transcripts(values[:2])) == math.inf

    def test_mismatched_step_is_infinite(self):
        values = np.random.default_rng(4).standard_normal((3, 9, 2))
        assert scaled_deviation(transcripts(values), transcripts(values, first_t=2)) == math.inf

    def test_mismatched_dim_is_infinite(self):
        values = np.random.default_rng(5).standard_normal((3, 9, 3))
        assert scaled_deviation(transcripts(values), transcripts(values[:, :, :2])) == math.inf

    def test_empty_sequences_agree(self):
        assert scaled_deviation([], []) == 0.0


class TestEquality:
    """Two transcripts are equal when ``t`` and every field are, element by element as ``==`` reads floats."""

    values = np.random.default_rng(3).standard_normal((9, 3))

    def test_identical_fields_and_step_are_equal(self):
        assert transcripts([self.values])[0] == transcripts([self.values.copy()])[0]

    def test_other_step_is_unequal(self):
        assert transcripts([self.values])[0] != transcripts([self.values], first_t=2)[0]

    @pytest.mark.parametrize("field", range(9))
    def test_one_ulp_in_any_field_is_unequal(self, field):
        other = self.values.copy()
        other[field, 1] = np.nextafter(other[field, 1], np.inf)
        assert transcripts([self.values])[0] != transcripts([other])[0]

    def test_signed_zeros_are_equal(self):
        a, b = transcripts([np.zeros((9, 2))])[0], transcripts([-np.zeros((9, 2))])[0]
        assert a == b

    def test_nan_is_unequal_to_itself(self):
        values = np.ones((9, 2))
        values[4, 0] = np.nan
        a = transcripts([values])[0]
        assert a != a

    def test_not_equal_operator_reads_equality(self):
        a = transcripts([self.values])[0]
        assert not (a != transcripts([self.values.copy()])[0])
        assert a != transcripts([self.values + 1.0])[0]

    def test_fields_cannot_be_assigned(self):
        tr = transcripts([self.values])[0]
        with pytest.raises(AttributeError):
            tr.t = 2
        with pytest.raises(AttributeError):
            tr.theta_after = np.zeros(3)

    def test_other_dim_is_unequal(self):
        a, b = transcripts([np.ones((9, 2))])[0], transcripts([np.ones((9, 3))])[0]
        assert a != b
        assert a != "not a transcript"
