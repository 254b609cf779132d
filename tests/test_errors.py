"""Tests for the shared converters of ``adaplus.errors``."""

import re
from fractions import Fraction

import numpy as np
import pytest

from adaplus.errors import ConfigError, as_float, as_int, non_negative, positive


class TestAsFloat:
    @pytest.mark.parametrize(
        "value, held",
        [(2, 2.0), (-0.5, -0.5), (np.float32(0.25), 0.25), (np.int64(3), 3.0), (Fraction(1, 4), 0.25)],
        ids=["int", "float", "numpy-float", "numpy-int", "fraction"],
    )
    def test_real_numbers_are_held_as_floats(self, value, held):
        got = as_float("x", value)
        assert got == held and type(got) is float

    @pytest.mark.parametrize("value", [float("inf"), -float("inf"), np.nan], ids=["inf", "-inf", "nan"])
    def test_a_non_finite_float_is_refused_by_name_unless_ok_is_none(self, value):
        # the default domain is "finite", as the default message says
        with pytest.raises(ConfigError, match=f"^x must be a finite number, got {re.escape(repr(value))}$"):
            as_float("x", value)
        held = as_float("x", value, ok=None)
        assert held == value or (np.isnan(held) and np.isnan(value))

    @pytest.mark.parametrize(
        "value", [0, -1, Fraction(-1, 2), float("inf"), np.nan], ids=["0", "-1", "fraction", "inf", "nan"]
    )
    def test_a_value_outside_the_domain_is_refused_as_given(self, value):
        # -1 is shown as given, not as the float -1.0
        with pytest.raises(ConfigError, match=f"^lr must be positive and finite, got {re.escape(repr(value))}$"):
            as_float("lr", value, "be positive and finite", positive)

    def test_a_long_value_is_cut_to_80_characters(self):
        with pytest.raises(ConfigError, match=f"^x must be a finite number, got '{'a' * 79}$"):
            as_float("x", "a" * 100)

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


class TestAsInt:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)], ids=["int", "numpy-int64", "numpy-uint8"])
    def test_integers_are_held_as_ints(self, value):
        got = as_int("dim", value)
        assert got == 3 and type(got) is int

    @pytest.mark.parametrize(
        "value", [2.5, 2.0, "2", None, True, np.True_],
        ids=["float", "integral-float", "str", "None", "bool", "numpy-bool"],
    )
    def test_a_value_that_is_no_integer_is_refused_by_name(self, value):
        # the domain is not the reason: the value is no integer at all
        with pytest.raises(ConfigError, match=f"^dim must be an integer, got {re.escape(repr(value))}$"):
            as_int("dim", value, "be positive", positive)

    @pytest.mark.parametrize("value, shown", [(0, "0"), (np.int64(-2), "-2")], ids=["int", "numpy-int64"])
    def test_an_integer_outside_the_domain_is_refused_by_name(self, value, shown):
        with pytest.raises(ConfigError, match=f"^dim must be positive, got {shown}$"):
            as_int("dim", value, "be positive", positive)

    def test_the_domain_predicates_hold_at_their_bounds(self):
        assert positive(1) and positive(5e-324) and not positive(0) and not positive(float("inf"))
        assert non_negative(0) and non_negative(10**400) and not non_negative(-1) and not non_negative(np.nan)
