"""Tests for the shared converters of ``adaplus.errors``."""

import re
from fractions import Fraction

import numpy as np
import pytest

from adaplus.errors import ConfigError, as_float


class TestAsFloat:
    @pytest.mark.parametrize(
        "value, held",
        [(2, 2.0), (-0.5, -0.5), (np.float32(0.25), 0.25), (np.int64(3), 3.0), (Fraction(1, 4), 0.25)],
        ids=["int", "float", "numpy-float", "numpy-int", "fraction"],
    )
    def test_real_numbers_are_held_as_floats(self, value, held):
        got = as_float("x", value)
        assert got == held and type(got) is float

    def test_non_finite_floats_pass_to_the_callers_domain_check(self):
        assert as_float("x", float("inf")) == float("inf")
        assert np.isnan(as_float("x", np.nan))

    @pytest.mark.parametrize(
        "value", ["0.5", None, True, np.True_, 1j, [0.5], np.array([0.5])],
        ids=["str", "None", "bool", "numpy-bool", "complex", "list", "array"],
    )
    def test_a_value_that_is_no_real_number_is_refused_by_name(self, value):
        # float('0.5') reads the string, float(True) gives 1.0; the others
        # raised TypeError, which no ValueError boundary catches
        with pytest.raises(ConfigError, match=f"^lr must be a finite number, got {re.escape(repr(value)[:80])}$"):
            as_float("lr", value)

    def test_an_int_too_large_for_a_float_is_refused_by_name(self):
        # float() raises OverflowError; the value is cut to 80 characters
        with pytest.raises(ValueError, match=f"^eps must be non-negative and finite, got 1{'0' * 79}$"):
            as_float("eps", 10**400, "be non-negative and finite")
