"""Unit tests for the optimizer kernels."""

import itertools
import re
import tracemalloc
import warnings
from dataclasses import asdict, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_reads import HP_FIELDS, HYPER_PARAMS, reads
from trajectories import by_step

from adaplus import kernels
from adaplus.errors import DimensionMismatch, NonFiniteValue
from adaplus.kernels import (
    CHUNK,
    KERNEL_IDS,
    KERNEL_STEPS,
    REDUCTIONS,
    SCALAR_MAX,
    HyperParams,
    OptimizerState,
    ParamVector,
    adabelief_step,
    adam_step,
    adamw_step,
    adaplus_step,
    drive_stream,
    nadam_step,
    normal_form,
    read_stream,
    sgdm_step,
)
from adaplus.transcript import ALL_FIELDS


def fresh(theta):
    params = ParamVector(theta)
    return OptimizerState(params.dim), params


def random_stream(rng, dim, steps, lr=1e-3):
    stream = [rng.standard_normal(dim) for _ in range(steps)]
    theta0 = rng.standard_normal(dim)
    return stream, theta0, [lr] * steps


class TestHyperParams:
    def test_defaults_are_the_fields_a_step_reads(self):
        # the rate and its schedule are the run's (``RunConfig``), not the step's
        assert asdict(HyperParams()) == {
            "beta1": 0.9,
            "beta2": 0.999,
            "eps": 1e-8,
            "weight_decay": 1e-2,
            "use_nesterov": True,
            "use_belief": True,
            "decoupled_decay": False,
        }

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta1": 1.0},
            {"beta1": -0.1},
            {"beta2": 1.0},
            {"eps": -1e-8},
            {"weight_decay": -0.1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            HyperParams(**kwargs)

    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda: HyperParams(eps=np.nan), "eps"),
            (lambda: HyperParams(weight_decay=np.inf), "weight_decay"),
            # 'no' and 1 are truthy and would switch the part on; a config writes them 'true'
            (lambda: HyperParams(use_nesterov="no"), "use_nesterov"),
            (lambda: HyperParams(use_belief=1), "use_belief"),
            (lambda: HyperParams(decoupled_decay=None), "decoupled_decay"),
        ],
        ids=[
            "eps-nan", "weight_decay-inf", "use_nesterov-no", "use_belief-1", "decoupled_decay-None",
        ],
    )
    def test_rejects_out_of_domain_values_by_name(self, make, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            make()

    @pytest.mark.parametrize(
        "field, domain",
        [
            ("beta1", "lie in [0, 1)"),
            ("beta2", "lie in [0, 1)"),
            ("eps", "be non-negative and finite"),
            ("weight_decay", "be non-negative and finite"),
        ],
    )
    def test_float_field_refuses_an_int_too_large_for_a_float(self, field, domain):
        # a step computes with the float, which float() cannot make: refused
        # here by name, with the value cut to 80 characters
        with pytest.raises(ValueError, match=rf"^{field} must {re.escape(domain)}, got 1{'0' * 79}$"):
            HyperParams(**{field: 10**400})

    @pytest.mark.parametrize(
        "field, domain",
        [
            ("beta1", "lie in [0, 1)"),
            ("beta2", "lie in [0, 1)"),
            ("eps", "be non-negative and finite"),
            ("weight_decay", "be non-negative and finite"),
        ],
    )
    @pytest.mark.parametrize("value", ["0.5", None, True], ids=["str", "None", "bool"])
    def test_float_field_refuses_a_value_that_is_no_real_number(self, field, domain, value):
        # float('0.5') would be held as 0.5 and float(True) as 1.0; float(None)
        # raised TypeError, which cli.main's ValueError boundary does not catch
        with pytest.raises(ValueError, match=rf"^{field} must {re.escape(domain)}, got {re.escape(repr(value))}$"):
            HyperParams(**{field: value})

    def test_float_fields_are_held_as_floats(self):
        hp = HyperParams(beta1=np.float64(0.5), beta2=0, eps=0, weight_decay=np.float32(0.25))
        values = [hp.beta1, hp.beta2, hp.eps, hp.weight_decay]
        assert values == [0.5, 0.0, 0.0, 0.25] and all(type(v) is float for v in values)

    @pytest.mark.parametrize("field", ["use_nesterov", "use_belief", "decoupled_decay"])
    def test_bool_field_holds_a_numpy_bool_as_a_bool(self, field):
        for value in (False, True):
            assert getattr(HyperParams(**{field: np.bool_(value)}), field) is value

    def test_degenerate_betas_allowed(self):
        hp = HyperParams(beta1=0.0, beta2=0.0)
        state, params = fresh([0.0])
        tr = adaplus_step(state, params, [2.0], hp, 1e-3, transcript=True)
        # beta1 = 0: m = g, mbar = g, bias correction 1 - 0^1 = 1
        np.testing.assert_array_equal(tr.m, [2.0])
        np.testing.assert_array_equal(tr.m_hat, [2.0])


class TestStateAndParams:
    def test_fresh_state_is_zeroed(self):
        state = OptimizerState(3)
        assert state.t == 0
        np.testing.assert_array_equal(state.m, np.zeros(3))
        np.testing.assert_array_equal(state.second_moment, np.zeros(3))

    def test_state_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            OptimizerState(0)

    @pytest.mark.parametrize("dim", [2.5, 2.0, "2"])
    def test_state_rejects_a_dim_that_is_not_an_integer(self, dim):
        # int() would truncate 2.5 to 2
        with pytest.raises(ValueError, match=rf"^dim must be an integer, got {re.escape(repr(dim))}$"):
            OptimizerState(dim)

    def test_param_vector_rejects_non_finite(self):
        with pytest.raises(NonFiniteValue) as exc:
            ParamVector([1.0, np.nan, 2.0])
        assert exc.value.index == 1

    def test_param_vector_values_is_read_only(self):
        params = ParamVector([1.0, 2.0])
        held = params.values
        with pytest.raises(AttributeError):
            params.values = [3.0, 4.0]
        assert params.values is held and held.tolist() == [1.0, 2.0]

    def test_param_vector_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            ParamVector([[1.0, 2.0]])
        with pytest.raises(ValueError):
            ParamVector([])

    def test_t_increments_once_per_step(self):
        state, params = fresh([0.5, -0.5])
        for expected_t in (1, 2, 3):
            adaplus_step(state, params, [0.1, 0.2], HyperParams(), 1e-3, transcript=True)
            assert state.t == expected_t


def state_buffers(state):
    """The seven buffers an ``OptimizerState`` allocates, in the order of its block."""
    return state.m, state.second_moment, state._next_m, state._next_s, state._theta, state._tmp, state._s_hat


class TestStateLayout:
    @pytest.mark.parametrize("kernel", KERNEL_IDS)
    @pytest.mark.parametrize("dim", [1, SCALAR_MAX, SCALAR_MAX + 1, CHUNK, CHUNK + 1, 2**18])
    def test_buffers_are_zeroed_apart_and_start_on_cache_lines(self, dim, kernel):
        state, params = fresh(np.linspace(-1.0, 1.0, dim))
        buffers = state_buffers(state)
        assert [b.shape for b in buffers] == [(dim,)] * 5 + [(min(dim, CHUNK),)] * 2
        for buffer in buffers:
            assert buffer.dtype == np.float64 and buffer.flags.c_contiguous and buffer.flags.writeable
            assert not buffer.any()
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(buffers, 2))

        def assert_on_cache_lines():
            # a ufunc operand off a 64-byte boundary splits every vector load and store
            assert [b.ctypes.data % 64 for b in state_buffers(state)] == [0] * 7

        step = KERNEL_STEPS[kernel]
        assert_on_cache_lines()
        for _ in range(2):
            step(state, params, np.ones(dim), HyperParams(), 1e-3)
        assert_on_cache_lines()
        g = np.ones(dim)
        g[-1] = np.nan
        with pytest.raises(NonFiniteValue):
            step(state, params, g, HyperParams(), 1e-3)
        assert state.t == 2
        assert_on_cache_lines()

    @pytest.mark.parametrize("dim, error", [(2**40, MemoryError), (2**61, ValueError)])
    def test_a_state_too_large_raises_numpys_error(self, dim, error):
        # numpy's own refusals, as for one vector of that length: the state
        # of dim 2**40 needs more memory than the host has, and that of dim
        # 2**61 more bytes than an index can reach; neither touches memory
        with pytest.raises(error):
            OptimizerState(dim)


class TestAdaPlusStep:
    def test_zero_gradient_zero_decay_freezes_theta(self):
        state, params = fresh([1.0])
        hp = HyperParams(weight_decay=0.0)
        tr = adaplus_step(state, params, [0.0], hp, 1e-3, transcript=True)
        # m = 0, so the numerator vanishes and only eps enters the belief EMA
        np.testing.assert_array_equal(tr.m, [0.0])
        np.testing.assert_array_equal(tr.second_moment, [1e-8])
        np.testing.assert_array_equal(tr.delta_theta, [0.0])
        np.testing.assert_array_equal(params.values, [1.0])

    def test_decay_only_path(self):
        state, params = fresh([1.0])
        tr = adaplus_step(state, params, [0.0], HyperParams(weight_decay=1e-2), 1e-3, transcript=True)
        # theta * (1 - lr * wd) = 1 * (1 - 1e-5)
        np.testing.assert_array_equal(params.values, [0.99999])
        np.testing.assert_allclose(tr.decay_applied, [1e-5], rtol=1e-15)

    def test_first_step_worked_example(self):
        state, params = fresh([0.0])
        tr = adaplus_step(state, params, [1.0], HyperParams(weight_decay=0.0), 1e-3, transcript=True)
        np.testing.assert_allclose(tr.m, [0.1], rtol=1e-12)
        np.testing.assert_allclose(tr.second_moment, [8.1001e-4], rtol=1e-12)
        np.testing.assert_allclose(tr.m_bar, [0.19], rtol=1e-12)
        np.testing.assert_allclose(tr.m_hat, [1.9], rtol=1e-12)
        np.testing.assert_allclose(tr.s_hat, [0.81001], rtol=1e-12)
        # frozen from a 50-digit decimal recomputation of the recurrences
        np.testing.assert_allclose(tr.delta_theta, [-0.0021110980562252034], rtol=1e-12)

    def test_constant_gradient_mhat_closed_form(self):
        # m_t = (1 - b1^t) g makes mhat_t = g (1 - b1^(t+1)) / (1 - b1^t)
        state, params = fresh([0.0])
        hp = HyperParams(weight_decay=0.0)
        b1 = hp.beta1
        for t in range(1, 1001):
            tr = adaplus_step(state, params, [1.0], hp, 1e-3, transcript=True)
            expected = (1.0 - b1 ** (t + 1)) / (1.0 - b1**t)
            np.testing.assert_allclose(tr.m_hat, [expected], rtol=1e-12)

    def test_dimension_mismatch_rejected(self):
        state, params = fresh([1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            adaplus_step(state, params, [1.0, 2.0, 3.0], HyperParams(), 1e-3)

    def test_state_of_another_dim_rejected(self):
        _, params = fresh([1.0, 2.0])
        with pytest.raises(DimensionMismatch, match="state: expected length 2, got 3"):
            adaplus_step(OptimizerState(3), params, [1.0, 2.0], HyperParams(), 1e-3)

    def test_non_finite_gradient_names_index(self):
        state, params = fresh([1.0, 2.0, 3.0])
        with pytest.raises(NonFiniteValue) as exc:
            adaplus_step(state, params, [1.0, np.inf, 3.0], HyperParams(), 1e-3)
        assert exc.value.stage == "gradient"
        assert exc.value.index == 1

    def test_non_finite_result_rejected_and_state_untouched(self):
        state, params = fresh([1.0])
        hp = HyperParams(weight_decay=0.0, eps=0.0)
        with pytest.raises(NonFiniteValue) as exc:
            # zero gradient with eps = 0 makes the update 0/0
            adaplus_step(state, params, [0.0], hp, 1e-3)
        assert exc.value.stage in ("delta_theta", "theta_after")
        assert state.t == 0
        np.testing.assert_array_equal(state.m, [0.0])
        np.testing.assert_array_equal(params.values, [1.0])

    def test_rejects_bad_lr(self):
        state, params = fresh([1.0])
        with pytest.raises(ValueError):
            adaplus_step(state, params, [1.0], HyperParams(), 0.0)

    @pytest.mark.parametrize(
        "lr_t", ["0.1", None, 10**400, True, np.True_, 1j, np.nan, np.inf, -1e-3, np.float64(0.0)],
        ids=["str", "None", "int-beyond-float", "bool", "numpy-bool", "complex", "nan", "inf", "negative", "numpy-zero"],
    )
    def test_rate_outside_its_domain_is_refused_by_name_and_nothing_moves(self, lr_t):
        # '0.1' and None raised TypeError, 10**400 OverflowError, and True stepped at rate 1.0
        state, params = fresh([1.0, -2.0])
        message = rf"^lr_t must be a positive finite real, got {re.escape(repr(lr_t)[:80])}$"
        with pytest.raises(ValueError, match=message):
            adaplus_step(state, params, [0.5, 0.25], HyperParams(), lr_t)
        assert state.t == 0
        np.testing.assert_array_equal(state.m, [0.0, 0.0])
        np.testing.assert_array_equal(state.second_moment, [0.0, 0.0])
        np.testing.assert_array_equal(params.values, [1.0, -2.0])

    @pytest.mark.parametrize("lr_t", [np.float64(0.5), np.float32(0.5), 1, Fraction(1, 2)],
                             ids=["numpy-float64", "numpy-float32", "int", "fraction"])
    def test_rate_of_another_real_type_steps_as_its_float(self, lr_t):
        want = adaplus_step(*fresh([1.0, -2.0]), [0.5, 0.25], HyperParams(), float(lr_t), transcript=True)
        got = adaplus_step(*fresh([1.0, -2.0]), [0.5, 0.25], HyperParams(), lr_t, transcript=True)
        assert np.array_equal(got, want)


class TestAdamStep:
    def test_zero_gradient_freezes_theta(self):
        state, params = fresh([5.0])
        tr = adam_step(state, params, [0.0], HyperParams(), 1e-3, transcript=True)
        np.testing.assert_array_equal(params.values, [5.0])
        np.testing.assert_array_equal(tr.delta_theta, [0.0])

    def test_first_step_unit_gradient(self):
        state, params = fresh([0.0])
        tr = adam_step(state, params, [1.0], HyperParams(), 1e-3, transcript=True)
        # mhat = vhat = 1 after bias correction, so the step magnitude is ~lr
        np.testing.assert_allclose(tr.m_hat, [1.0], rtol=1e-12)
        np.testing.assert_allclose(tr.s_hat, [1.0], rtol=1e-12)
        np.testing.assert_allclose(tr.delta_theta, [-0.00099999999000000006], rtol=1e-12)

    def test_second_moment_has_no_eps(self):
        state, params = fresh([0.0])
        tr = adam_step(state, params, [1.0], HyperParams(), 1e-3, transcript=True)
        np.testing.assert_allclose(tr.second_moment, [1e-3], rtol=1e-12)


class TestAdamWStep:
    def test_decay_only(self):
        state, params = fresh([1.0])
        adamw_step(state, params, [0.0], HyperParams(weight_decay=1e-2), 1e-3)
        np.testing.assert_array_equal(params.values, [0.99999])

    def test_zero_theta_makes_decay_a_noop(self):
        sa, pa = fresh([0.0])
        sw, pw = fresh([0.0])
        tr_adam = adam_step(sa, pa, [1.0], HyperParams(), 1e-3, transcript=True)
        tr_adamw = adamw_step(sw, pw, [1.0], HyperParams(weight_decay=1e-2), 1e-3, transcript=True)
        np.testing.assert_array_equal(tr_adam.delta_theta, tr_adamw.delta_theta)
        np.testing.assert_array_equal(pa.values, pw.values)


class TestNadamStep:
    def test_zero_gradient_freezes_theta(self):
        state, params = fresh([2.0])
        nadam_step(state, params, [0.0], HyperParams(), 1e-3)
        np.testing.assert_array_equal(params.values, [2.0])

    def test_first_step_readjusted_numerator(self):
        state, params = fresh([0.0])
        tr = nadam_step(state, params, [1.0], HyperParams(), 1e-3, transcript=True)
        np.testing.assert_allclose(tr.m_bar, [0.19], rtol=1e-12)
        np.testing.assert_allclose(tr.m_hat, [1.9], rtol=1e-12)
        np.testing.assert_allclose(tr.s_hat, [1.0], rtol=1e-12)
        np.testing.assert_allclose(tr.delta_theta, [-0.0018999999810000001], rtol=1e-12)


class TestAdaBeliefStep:
    def test_zero_gradient_freezes_theta(self):
        state, params = fresh([-3.0])
        adabelief_step(state, params, [0.0], HyperParams(), 1e-3)
        np.testing.assert_array_equal(params.values, [-3.0])

    def test_first_step_belief_denominator(self):
        state, params = fresh([0.0])
        tr = adabelief_step(state, params, [1.0], HyperParams(), 1e-3, transcript=True)
        np.testing.assert_allclose(tr.m_hat, [1.0], rtol=1e-12)
        np.testing.assert_allclose(tr.s_hat, [0.81001], rtol=1e-12)
        np.testing.assert_allclose(tr.delta_theta, [-0.0011111042401185281], rtol=1e-12)

    def test_no_decay_by_default(self):
        state, params = fresh([1.0])
        tr = adabelief_step(state, params, [0.0], HyperParams(weight_decay=1e-2), 1e-3, transcript=True)
        np.testing.assert_array_equal(params.values, [1.0])
        np.testing.assert_array_equal(tr.decay_applied, [0.0])

    def test_decay_when_decoupled_decay_enabled(self):
        state, params = fresh([1.0])
        hp = HyperParams(weight_decay=1e-2, decoupled_decay=True)
        adabelief_step(state, params, [0.0], hp, 1e-3)
        np.testing.assert_array_equal(params.values, [0.99999])


class TestSgdmStep:
    def test_zero_momentum_is_plain_sgd(self):
        state, params = fresh([3.0])
        hp = HyperParams(beta1=0.0, use_nesterov=False)
        tr = sgdm_step(state, params, [6.0], hp, 0.1, transcript=True)
        np.testing.assert_allclose(tr.delta_theta, [-0.6], rtol=1e-15)
        np.testing.assert_allclose(params.values, [2.4], rtol=1e-15)

    def test_classical_velocity_closed_form(self):
        # m_{t+1} = mu m_t + 1 with m_0 = 0 gives m_t = (1 - mu^t) / (1 - mu)
        state, params = fresh([0.0])
        hp = HyperParams(beta1=0.9, use_nesterov=False)
        reference = 0.0
        for t in range(1, 101):
            tr = sgdm_step(state, params, [1.0], hp, 0.1, transcript=True)
            reference = 0.9 * reference + 1.0
            np.testing.assert_allclose(tr.m, [reference], rtol=1e-13)
            np.testing.assert_allclose(tr.m, [(1.0 - 0.9**t) / 0.1], rtol=1e-12)

    def test_nesterov_single_step_hand_computed(self):
        state, params = fresh([3.0])
        hp = HyperParams(beta1=0.9, use_nesterov=True)
        tr = sgdm_step(state, params, [6.0], hp, 0.1, transcript=True)
        # m = 0.9*0 + 0.1*6 = 0.6; delta = -(0.9*0.6 + 0.1*6) = -1.14
        np.testing.assert_allclose(tr.m, [0.6], rtol=1e-15)
        np.testing.assert_allclose(params.values, [1.86], rtol=1e-15)

    def test_nesterov_differs_from_classical(self):
        rng = np.random.default_rng(11)
        stream, theta0, lrs = random_stream(rng, 3, 20, lr=0.05)
        classical = drive_stream("sgdm", stream, theta0, HyperParams(use_nesterov=False), lrs)
        nesterov = drive_stream("sgdm", stream, theta0, HyperParams(use_nesterov=True), lrs)
        assert not np.allclose(by_step(classical)[-1].theta_after, by_step(nesterov)[-1].theta_after)

    def test_zero_gradient_freezes_theta(self):
        for use_nesterov in (False, True):
            state, params = fresh([1.5])
            sgdm_step(state, params, [0.0], HyperParams(use_nesterov=use_nesterov), 0.1)
            np.testing.assert_array_equal(params.values, [1.5])


class TestReductionLattice:
    """Each of ``REDUCTIONS`` must hold bit-for-bit on shared streams."""

    N_STREAMS = 20

    def assert_identical(self, left, right):
        # every field of every step; a step's number is its position
        np.testing.assert_array_equal(left, right, strict=True)

    def streams(self):
        rng = np.random.default_rng(2024)
        for _ in range(self.N_STREAMS):
            dim = int(rng.integers(1, 9))
            steps = int(rng.integers(10, 60))
            yield random_stream(rng, dim, steps)

    def drive(self, side, stream, theta0, lrs):
        kernel, overrides = side
        return drive_stream(kernel, stream, theta0, HyperParams(**overrides), lrs)

    @pytest.mark.parametrize("label, left, right", REDUCTIONS, ids=[label for label, _, _ in REDUCTIONS])
    def test_holds_bit_for_bit(self, label, left, right):
        for stream, theta0, lrs in self.streams():
            self.assert_identical(self.drive(left, stream, theta0, lrs), self.drive(right, stream, theta0, lrs))

    def test_wrong_pair_fails_the_comparison(self):
        # adaplus keeps its Nesterov numerator here, so it is not adabelief
        # on any stream: the comparison above must say so
        left, right = ("adaplus", {"weight_decay": 0.0}), ("adabelief", {})
        for stream, theta0, lrs in self.streams():
            with pytest.raises(AssertionError):
                self.assert_identical(self.drive(left, stream, theta0, lrs), self.drive(right, stream, theta0, lrs))


class TestDriveStream:
    @pytest.mark.parametrize(
        "kernel, lrs, message",
        [("lion", [1e-3], "unknown kernel id 'lion'"), ("adam", [1e-3, 1e-3], "lrs has length 2, stream has length 1")],
    )
    def test_rejects_unknown_kernel_and_mismatched_lengths(self, kernel, lrs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            drive_stream(kernel, [[1.0]], [0.0], HyperParams(), lrs)

    @pytest.mark.parametrize("stream", [[], np.empty((0, 1))], ids=["list", "array"])
    def test_rejects_an_empty_stream_as_replay_does(self, stream):
        # a trajectory has at least one step
        with pytest.raises(ValueError, match="^gradient stream must be non-empty$"):
            drive_stream("adam", stream, [0.0], HyperParams(), [])

    def test_read_stream_gives_one_array_the_parameters_and_float_rates(self):
        stream = [[1, 2], np.array([3.0, -4.0], dtype=np.float32)]
        grads, params, lrs = read_stream(stream, (0, 1), [np.float32(0.5), 2])
        assert grads.dtype == np.float64 and grads.shape == (2, 2) and grads.flags.c_contiguous
        np.testing.assert_array_equal(grads, [[1.0, 2.0], [3.0, -4.0]])
        assert isinstance(params, ParamVector) and params.values.tolist() == [0.0, 1.0]
        assert lrs == [0.5, 2.0] and all(type(lr) is float for lr in lrs)

    @pytest.mark.parametrize("kernel", KERNEL_IDS)
    def test_trajectory_holds_each_public_steps_rows(self, kernel):
        rng = np.random.default_rng(9)
        stream, theta0, lrs = random_stream(rng, 4, 12)
        trajectory = drive_stream(kernel, stream, theta0, HyperParams(), lrs)
        assert trajectory.shape == (12, 9, 4) and trajectory.dtype == np.float64
        assert trajectory.flags.c_contiguous
        state, params = fresh(theta0)
        for t, (g, lr) in enumerate(zip(stream, lrs), start=1):
            tr = KERNEL_STEPS[kernel](state, params, g, HyperParams(), lr, transcript=True)
            # step t's block, byte for byte
            assert trajectory[t - 1].tobytes() == tr.block.tobytes(), t

    @pytest.mark.parametrize("hp", [HyperParams(), HyperParams(use_nesterov=False, decoupled_decay=True)])
    @pytest.mark.parametrize("kernel", KERNEL_IDS)
    def test_transcript_fields_are_the_rows_of_one_block(self, kernel, hp):
        # drive_stream stacks each step's block; the last dim is above
        # SCALAR_MAX, where a lean step runs the sweep but a transcript step
        # still packs its Python floats into the block
        rng = np.random.default_rng(10)
        for dim in (1, 5, SCALAR_MAX + 1):
            stream, theta0, lrs = random_stream(rng, dim, 3)
            state, params = fresh(theta0)
            for g, lr in zip(stream, lrs):
                tr = KERNEL_STEPS[kernel](state, params, g, hp, lr, transcript=True)
                block = tr.block
                assert block.shape == (9, dim) and block.dtype == np.float64 and block.flags.c_contiguous
                # the block owns its data: it holds no view of the packed stages
                assert block.flags.owndata and block.base is None
                for row, field in enumerate(ALL_FIELDS):
                    # the same memory, shape and strides: the field is that row
                    assert getattr(tr, field).__array_interface__ == block[row].__array_interface__, field


class TestKernelProperties:
    def test_positive_gradients_never_increase_theta(self):
        # the numerator is a positive combination of positive terms
        rng = np.random.default_rng(5)
        for kernel in KERNEL_IDS:
            stream = [np.abs(rng.standard_normal(1)) + 1e-6 for _ in range(100)]
            transcripts = drive_stream(kernel, stream, [0.3], HyperParams(weight_decay=0.0), [1e-3] * 100)
            for tr in by_step(transcripts):
                assert tr.delta_theta[0] <= 0.0, kernel

    def test_decay_law_matches_geometric_shrinkage(self):
        state, params = fresh([1.7, -0.4])
        hp = HyperParams(weight_decay=1e-2)
        for _ in range(100):
            adaplus_step(state, params, [0.0, 0.0], hp, 1e-3)
        expected = np.array([1.7, -0.4]) * (1.0 - 1e-5) ** 100
        np.testing.assert_allclose(params.values, expected, rtol=1e-14)

    def test_belief_term_beats_variance_term_on_constant_stream(self):
        # constant stream: the residual g - m dies geometrically, so the
        # belief EMA sits far below the squared-gradient EMA while both
        # kernels share the same readjusted numerator
        stream = [np.array([3.0])] * 60
        lrs = [1e-3] * 60
        belief = by_step(drive_stream("adaplus", stream, [0.0], HyperParams(weight_decay=0.0), lrs))
        variance = by_step(drive_stream("nadam", stream, [0.0], HyperParams(), lrs))
        for t in range(10, 61):
            assert belief[t - 1].second_moment[0] < variance[t - 1].second_moment[0]
            assert abs(belief[t - 1].delta_theta[0]) > abs(variance[t - 1].delta_theta[0])

    def test_gradient_scale_invariance_with_zero_eps(self):
        rng = np.random.default_rng(17)
        stream, theta0, lrs = random_stream(rng, 6, 200)
        hp = HyperParams(eps=0.0, weight_decay=0.0)
        base = drive_stream("adaplus", stream, theta0, hp, lrs)
        for factor in (1e-3, 1e3):
            scaled = drive_stream("adaplus", [g * factor for g in stream], theta0, hp, lrs)
            for a, b in zip(by_step(base), by_step(scaled)):
                np.testing.assert_allclose(b.delta_theta, a.delta_theta, rtol=1e-10)

    def test_identical_inputs_give_bit_identical_trajectories(self):
        rng = np.random.default_rng(23)
        stream, theta0, lrs = random_stream(rng, 4, 50)
        for kernel in KERNEL_IDS:
            first = drive_stream(kernel, stream, theta0, HyperParams(), lrs)
            second = drive_stream(kernel, stream, theta0, HyperParams(), lrs)
            assert np.array_equal(first, second)

    def test_transcript_field_shapes_match_dim(self):
        rng = np.random.default_rng(31)
        stream, theta0, lrs = random_stream(rng, 7, 5)
        for kernel in KERNEL_IDS:
            for tr in by_step(drive_stream(kernel, stream, theta0, HyperParams(), lrs)):
                for field in ALL_FIELDS:
                    assert getattr(tr, field).shape == (7,)

    @pytest.mark.parametrize("row, field", enumerate(ALL_FIELDS))
    def test_each_field_is_its_row_of_one_block(self, row, field):
        # drive_stream stacks each transcript's block, so every field must be a view of that block's row
        rng = np.random.default_rng(32)
        for kernel in KERNEL_IDS:
            state, params = fresh(rng.standard_normal(5))
            tr = KERNEL_STEPS[kernel](state, params, rng.standard_normal(5), HyperParams(), 1e-3, transcript=True)
            block = tr.block
            assert block.shape == (9, 5) and getattr(tr, field).base is block, kernel
            assert getattr(tr, field).ctypes.data == block[row].ctypes.data, kernel


def snapshot(state, params):
    return (state.t, params.values.tobytes(), state.m.tobytes(), state.second_moment.tobytes())


def attempt(step, state, params, g, hp, lr, **kwargs):
    """Run one step; the raised ``NonFiniteValue`` as (stage, step, index), or None."""
    try:
        step(state, params, g, hp, lr, **kwargs)
    except NonFiniteValue as exc:
        return exc.stage, exc.step, exc.index
    return None


def error_of(step, state, params, g, hp, lr, **kwargs):
    """Run one step; the raised ``NonFiniteValue`` as (type, stage, step, index, message), or None."""
    try:
        step(state, params, g, hp, lr, **kwargs)
    except NonFiniteValue as exc:
        return type(exc), exc.stage, exc.step, exc.index, str(exc)
    return None


# signed zeros, subnormals and the ends of the range, then the non-finite values
EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300)
NON_FINITE = (np.nan, np.inf, -np.inf)
BETA = st.floats(0.0, 1.0 - 1e-12) | st.sampled_from([0.0, 1.0 - 1e-12])
RATE = st.floats(5e-324, 1e300) | st.sampled_from([1e-3, 1.0, 1e300])


def draw_start(data, max_dim):
    """A dim up to ``max_dim``, hyper-parameters at the ends of their domains and a start point."""
    dim = data.draw(st.integers(1, max_dim), label="dim")
    hp = HyperParams(beta1=data.draw(BETA, label="beta1"), beta2=data.draw(BETA, label="beta2"),
                     eps=data.draw(st.sampled_from([0.0, 1e-300, 1e-8]), label="eps"),
                     weight_decay=data.draw(st.sampled_from([0.0, 1e-2, 1e300]), label="weight_decay"),
                     **data.draw(st.sampled_from(TOGGLES), label="toggles"))
    return dim, hp, data.draw(vectors(dim, EDGES), label="theta0")


def vectors(dim, edges):
    """Ordinary floats at one scale, with up to two elements set to ``edges`` values."""
    def build(values, scale, placed):
        values = [v * scale for v in values]
        for index, value in placed:
            values[index] = value
        return values

    return st.builds(build, st.lists(st.floats(-10.0, 10.0), min_size=dim, max_size=dim),
                     st.sampled_from([1.0, 1e-300, 1e-150, 1e150, 1e300]),
                     st.lists(st.tuples(st.integers(0, dim - 1), st.sampled_from(edges)), max_size=2))


class TestLeanAndTranscriptPaths:
    """The default step and ``transcript=True`` run one core: same bits, same errors, atomic raises."""

    BETAS = ((0.0, 0.0), (0.9, 0.999), (1.0 - 1e-12, 1.0 - 1e-12), (0.0, 1.0 - 1e-12))
    GRAD_EXPONENTS = (-300, -150, 0, 150, 300)

    def cases(self, rng):
        for dim in (1, 2, 5, 17, 64):
            for beta1, beta2 in self.BETAS:
                for exponent in self.GRAD_EXPONENTS:
                    for eps in (1e-8, 0.0):
                        hp = HyperParams(beta1=beta1, beta2=beta2, eps=eps, decoupled_decay=True)
                        theta0 = rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3)
                        stream = []
                        for _ in range(6):
                            g = rng.standard_normal(dim) * 10.0**exponent
                            g[rng.random(dim) < 0.2] = 0.0
                            if rng.random() < 0.02:
                                g[rng.integers(dim)] = rng.choice([np.nan, np.inf, -np.inf])
                            stream.append(g)
                        lrs = [float(rng.choice([1e-3, 1.0, 1e10])) for _ in stream]
                        yield hp, theta0, stream, lrs

    @pytest.mark.parametrize("kernel", KERNEL_IDS)
    def test_paths_agree_bit_for_bit_and_raise_atomically(self, kernel):
        step = KERNEL_STEPS[kernel]
        rng = np.random.default_rng(KERNEL_IDS.index(kernel))
        finished = raised = 0
        for hp, theta0, stream, lrs in self.cases(rng):
            lean, full = fresh(theta0), fresh(theta0)
            for g, lr in zip(stream, lrs):
                before = snapshot(*lean)
                lean_error = attempt(step, *lean, g, hp, lr)
                full_error = attempt(step, *full, g, hp, lr, transcript=True)
                assert lean_error == full_error
                assert snapshot(*lean) == snapshot(*full)
                if lean_error is not None:
                    assert snapshot(*lean) == before
                    raised += 1
                    break
            else:
                finished += 1
        # the grid must reach both outcomes, or one half of the test is vacuous
        assert finished and raised, (finished, raised)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(kernel=st.sampled_from(KERNEL_IDS), data=st.data())
    def test_paths_agree_on_extreme_draws(self, kernel, data):
        # dims on both sides of SCALAR_MAX: the lean step and the step that
        # keeps its stages commit the same values and raise the same error,
        # both in Python floats up to SCALAR_MAX, and above it the ufunc sweep
        # against the transcript's Python floats
        step = KERNEL_STEPS[kernel]
        dim, hp, theta0 = draw_start(data, 2 * SCALAR_MAX)
        lean, full = fresh(theta0), fresh(theta0)
        for _ in range(data.draw(st.integers(1, 4), label="steps")):
            g = data.draw(vectors(dim, EDGES + NON_FINITE), label="g")
            lr = data.draw(RATE, label="lr")
            before = snapshot(*lean)
            lean_error = error_of(step, *lean, g, hp, lr)
            assert error_of(step, *full, g, hp, lr, transcript=True) == lean_error
            assert snapshot(*lean) == snapshot(*full)
            if lean_error is not None:
                assert snapshot(*lean) == before
                break

    def test_transcript_copies_the_committed_values(self):
        rng = np.random.default_rng(3)
        stream, theta0, lrs = random_stream(rng, 9, 20)
        for kernel in KERNEL_IDS:
            state, params = fresh(theta0)
            for g, lr in zip(stream, lrs):
                tr = KERNEL_STEPS[kernel](state, params, g, HyperParams(), lr, transcript=True)
                assert tr.theta_after.tobytes() == params.values.tobytes()
                assert tr.m.tobytes() == state.m.tobytes()
                if kernel != "sgdm":
                    assert tr.second_moment.tobytes() == state.second_moment.tobytes()

    @pytest.mark.parametrize("hp", [HyperParams(), HyperParams(use_nesterov=False, decoupled_decay=True)])
    def test_transcript_owns_every_field(self, hp):
        # the fields are the rows of one block per step: no later step, lean
        # or not, and no change to the caller's gradient touches them, whether
        # the lean steps run in Python floats (dim 6) or sweep the state's
        # buffers in ufuncs (above SCALAR_MAX)
        rng = np.random.default_rng(4)
        runs = [random_stream(rng, dim, 8) for dim in (6, SCALAR_MAX + 1)]
        for kernel, (stream, theta0, lrs) in itertools.product(KERNEL_IDS, runs):
            state, params = fresh(theta0)
            g = stream[0].copy()
            tr = KERNEL_STEPS[kernel](state, params, g, hp, lrs[0], transcript=True)
            kept = {field: getattr(tr, field).copy() for field in ALL_FIELDS}
            np.testing.assert_array_equal(tr.g, stream[0])
            g[:] = 7.0
            for i, (g_next, lr) in enumerate(zip(stream[1:], lrs[1:])):
                KERNEL_STEPS[kernel](state, params, g_next, hp, lr, transcript=bool(i % 2))
            for field in ALL_FIELDS:
                assert getattr(tr, field).tobytes() == kept[field].tobytes(), (kernel, field)

    def test_default_step_returns_none(self):
        for kernel in KERNEL_IDS:
            state, params = fresh([0.5, -0.5])
            assert KERNEL_STEPS[kernel](state, params, [0.1, 0.2], HyperParams(), 1e-3) is None
            assert state.t == 1


class TestHeldArrays:
    """Which arrays a caller may hold across a step: ``params.values`` yes, ``state.m`` no."""

    def test_params_values_is_updated_in_place(self):
        state, params = fresh([1.0, -2.0, 0.5])
        theta = params.values
        g = np.array([0.3, -0.1, 0.2])
        first = adaplus_step(state, params, g, HyperParams(), 1e-3, transcript=True)
        assert params.values is theta
        np.testing.assert_array_equal(theta, first.theta_after)
        # a transcript owns its arrays: later steps leave them alone
        kept = first.theta_after.copy()
        adaplus_step(state, params, g, HyperParams(), 1e-3)
        assert params.values is theta
        np.testing.assert_array_equal(first.theta_after, kept)
        assert not np.array_equal(theta, kept)
        # a failed step leaves the held array as it was
        held = theta.copy()
        with pytest.raises(NonFiniteValue):
            adaplus_step(state, params, [np.nan, 0.0, 0.0], HyperParams(), 1e-3)
        np.testing.assert_array_equal(theta, held)

    def test_state_moments_are_rebound_and_their_old_arrays_reused(self):
        state, params = fresh([1.0, -2.0, 0.5])
        g = np.array([0.3, -0.1, 0.2])
        adaplus_step(state, params, g, HyperParams(), 1e-3)
        held_m, held_s = state.m, state.second_moment
        values = held_m.copy(), held_s.copy()
        tr = adaplus_step(state, params, g, HyperParams(), 1e-3, transcript=True)
        # the step rebinds the moments; the state holds the committed values
        assert state.m is not held_m and state.second_moment is not held_s
        np.testing.assert_array_equal(state.m, tr.m)
        np.testing.assert_array_equal(state.second_moment, tr.second_moment)
        # the arrays held from before are the step's scratch from now on
        adaplus_step(state, params, g, HyperParams(), 1e-3)
        assert state.m is held_m and state.second_moment is held_s
        assert not np.array_equal(held_m, values[0])
        # a failed step rebinds nothing
        before = state.m, state.second_moment
        with pytest.raises(NonFiniteValue):
            adaplus_step(state, params, [np.inf, 0.0, 0.0], HyperParams(), 1e-3)
        assert state.m is before[0] and state.second_moment is before[1]

    def test_gradient_may_alias_params_values(self):
        # the core reads the gradient before anything is written back
        aliased, copied = fresh([0.7, -1.2]), fresh([0.7, -1.2])
        for _ in range(5):
            adaplus_step(*aliased, aliased[1].values, HyperParams(), 1e-2)
            adaplus_step(*copied, copied[1].values.copy(), HyperParams(), 1e-2)
        assert snapshot(*aliased) == snapshot(*copied)


BLOCK_DIMS = (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)


class TestOverflowingCheck:
    def test_finite_step_whose_check_product_overflows_commits(self):
        # theta * s (theta * theta for sgdm) overflows, in every block of a
        # blocked sweep, although every value is finite; the exact test must
        # let the step through
        for dim, kernel in itertools.product((2, *BLOCK_DIMS), KERNEL_IDS):
            state, params = fresh(np.resize([1e200, -1e200], dim))
            assert attempt(KERNEL_STEPS[kernel], state, params, np.full(dim, 1e150), HyperParams(), 1e-3) is None
            assert state.t == 1 and np.isfinite(params.values).all()


class TestSHatOverflow:
    """A step whose second moment is finite but whose ``s_hat`` is not is refused.

    The update over an infinite ``s_hat`` is -0, so the new parameter alone
    would let such a step commit with its parameter frozen."""

    @pytest.mark.parametrize("dim", (1, 2 * CHUNK + 3))
    @pytest.mark.parametrize("transcript", (False, True))
    @pytest.mark.parametrize("kernel", [k for k in KERNEL_IDS if k != "sgdm"])
    def test_step_is_refused_and_nothing_moves(self, kernel, transcript, dim):
        # at t = 1 the last element's second moment is about 3e305, and
        # s_hat, that over 1 - b2 = 1e-3, overflows
        state, params = fresh(np.ones(dim))
        g = np.full(dim, 0.1)
        g[-1] = 2e154
        before = snapshot(state, params)
        error = attempt(KERNEL_STEPS[kernel], state, params, g, HyperParams(), 1e-3, transcript=transcript)
        assert error == ("s_hat", 1, dim - 1)
        assert snapshot(state, params) == before


def overflowing_step(dim):
    """``(theta0, g)`` whose step with ``lr_t = 1`` overflows in its last element, for every kernel."""
    theta0, g = np.full(dim, 0.5), np.full(dim, 0.1)
    theta0[-1], g[-1] = 1.5e308, -1.5e308
    return theta0, g


class TestErrorState:
    """A step sets numpy's error state for its own call: the caller's state and
    warning filters neither change nor reach it."""

    @pytest.mark.parametrize("dim", (2, CHUNK + 1))
    @pytest.mark.parametrize("kernel", KERNEL_IDS)
    def test_overflow_raises_only_the_structured_error(self, kernel, dim):
        theta0, g = overflowing_step(dim)
        # numpy's warnings as errors, then numpy raising FloatingPointError
        for errors in ("warn", "raise"):
            state, params = fresh(theta0)
            before = snapshot(state, params)
            with warnings.catch_warnings(), np.errstate(all=errors):
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteValue):
                    KERNEL_STEPS[kernel](state, params, g, HyperParams(), 1.0)
            assert snapshot(state, params) == before

    @pytest.mark.parametrize("dim", (2, CHUNK + 1))
    def test_callers_error_state_is_kept(self, dim):
        theta0, g = overflowing_step(dim)
        with np.errstate(divide="raise", over="warn", under="print", invalid="call"):
            outer = np.geterr()
            for kernel in KERNEL_IDS:
                state, params = fresh(theta0)
                KERNEL_STEPS[kernel](state, params, np.full(dim, 0.1), HyperParams(), 1.0)
                assert np.geterr() == outer and state.t == 1
                with pytest.raises(NonFiniteValue):
                    KERNEL_STEPS[kernel](state, params, g, HyperParams(), 1.0)
                assert np.geterr() == outer and state.t == 1


# every combination of the switches a kernel reads, as hp keyword arguments
TOGGLES = [
    {"use_nesterov": nesterov, "use_belief": belief, "decoupled_decay": decay}
    for nesterov, belief, decay in itertools.product((True, False), repeat=3)
]


def with_other(hp, field, factor=0.5):
    """``hp`` with ``field`` moved: a toggle flipped, a float scaled by ``factor``."""
    value = getattr(hp, field)
    return replace(hp, **{field: not value if type(value) is bool else value * factor})


# a generic point: every float field positive and away from the others' scale,
# so that moving one read field by a factor moves some bit of the trajectory
GENERIC_HP = st.builds(
    HyperParams,
    beta1=st.floats(0.1, 0.99),
    beta2=st.floats(0.5, 0.9999),
    eps=st.floats(1e-6, 1e-2),
    weight_decay=st.floats(1e-2, 1.0),
    use_nesterov=st.booleans(),
    use_belief=st.booleans(),
    decoupled_decay=st.booleans(),
)


class TestNormalForm:
    """``normal_form`` holds exactly the fields a kernel does not read at their defaults."""

    @pytest.mark.parametrize("toggles", TOGGLES, ids=lambda t: "-".join(k for k, v in t.items() if v) or "none")
    @pytest.mark.parametrize("kernel", KERNEL_IDS)
    def test_keeps_the_fields_each_kernel_reads(self, kernel, toggles):
        # every float field off its default, so a kept one shows
        hp = HyperParams(beta1=0.5, beta2=0.6, eps=0.1, weight_decay=0.2, **toggles)
        kept = {field: getattr(hp if field in reads(kernel, hp) else HyperParams(), field) for field in HP_FIELDS}
        assert asdict(normal_form(kernel, hp)) == kept
        # a field is read exactly when moving it moves the normal form
        moved = {f for f in HP_FIELDS if normal_form(kernel, with_other(hp, f)) != normal_form(kernel, hp)}
        assert moved == reads(kernel, hp)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(kernel=st.sampled_from(KERNEL_IDS), hp=HYPER_PARAMS, seed=st.integers(0, 2**32 - 1))
    def test_steps_as_the_hyper_parameters_it_was_made_from(self, kernel, hp, seed):
        # equal trajectories, or one error where a step fails (eps = 0 can make a 0/0)
        stream, theta0, lrs = random_stream(np.random.default_rng(seed), 3, 5, lr=1e-2)

        def outcome(hp):
            try:
                return drive_stream(kernel, stream, theta0, hp, lrs).tobytes()
            except NonFiniteValue as exc:
                return str(exc)

        assert outcome(hp) == outcome(normal_form(kernel, hp))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        kernel=st.sampled_from(KERNEL_IDS),
        hp=GENERIC_HP,
        field=st.sampled_from(HP_FIELDS),
        factor=st.floats(0.5, 0.9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_merges_no_two_computations(self, kernel, hp, field, factor, seed):
        # from a generic point, moving one field moves the trajectory exactly
        # when it moves the normal form: a read field always does
        moved = with_other(hp, field, factor)
        stream, theta0, lrs = random_stream(np.random.default_rng(seed), 3, 5, lr=1e-2)
        same_steps = np.array_equal(
            drive_stream(kernel, stream, theta0, hp, lrs), drive_stream(kernel, stream, theta0, moved, lrs)
        )
        assert same_steps == (normal_form(kernel, moved) == normal_form(kernel, hp))
        assert same_steps == (field not in reads(kernel, hp))


def blocks(dim):
    return [slice(lo, lo + CHUNK) for lo in range(0, dim, CHUNK)]


class TestBlockedSweep:
    """Above ``CHUNK`` elements a step runs block by block, with the same bits and errors as whole."""

    @pytest.mark.parametrize("kernel", KERNEL_IDS)
    def test_blocks_match_each_block_stepped_alone(self, kernel):
        step = KERNEL_STEPS[kernel]
        rng = np.random.default_rng(KERNEL_IDS.index(kernel))
        for dim in BLOCK_DIMS:
            for hp_kwargs in TOGGLES:
                hp = HyperParams(**hp_kwargs)
                theta0 = rng.standard_normal(dim)
                # once per kernel, across one block boundary, a transcript
                # step too: its Python floats commit the blocks' bits
                runs = [fresh(theta0)]
                if dim == CHUNK + 1 and hp_kwargs is TOGGLES[0]:
                    runs.append(fresh(theta0))
                pieces = [fresh(theta0[b]) for b in blocks(dim)]
                for lr in (1e-3, 1e-1, 1e-2):
                    g = rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3)
                    for transcript, run in enumerate(runs):
                        step(*run, g, hp, lr, transcript=bool(transcript))
                    for piece, b in zip(pieces, blocks(dim)):
                        step(*piece, g[b], hp, lr)
                joined = (
                    pieces[0][0].t,
                    b"".join(p.values.tobytes() for _, p in pieces),
                    b"".join(s.m.tobytes() for s, _ in pieces),
                    b"".join(s.second_moment.tobytes() for s, _ in pieces),
                )
                for run in runs:
                    assert snapshot(*run) == joined

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(kernel=st.sampled_from(KERNEL_IDS), dim=st.sampled_from(BLOCK_DIMS), data=st.data())
    def test_non_finite_gradient_in_last_block(self, kernel, dim, data):
        step = KERNEL_STEPS[kernel]
        hp_kwargs = data.draw(st.sampled_from(TOGGLES), label="toggles")
        last = blocks(dim)[-1].start
        index = data.draw(st.integers(last, dim - 1), label="index")
        bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="bad")
        at_step = data.draw(st.integers(1, 3), label="at_step")
        rng = np.random.default_rng(index)
        state, params = fresh(rng.standard_normal(dim))
        for t in range(1, at_step + 1):
            g = rng.standard_normal(dim)
            if t == at_step:
                # an overflow in the first block does not take the blame from the gradient
                g[0] = 1e200
                g[index] = bad
            before = snapshot(state, params)
            error = attempt(step, state, params, g, HyperParams(**hp_kwargs), 1e-3)
        assert error == ("gradient", at_step, index)
        assert snapshot(state, params) == before

    @pytest.mark.parametrize("kernel", [k for k in KERNEL_IDS if k != "sgdm"])
    def test_zero_over_zero_in_last_block(self, kernel):
        # with eps = 0 a zero gradient element makes its update 0/0; the
        # error names the stage and the global index, as stepping that
        # block alone does with the local one.  The first block fails before
        # the sweep reaches the others, the last one after every other block
        # has passed its check.
        step = KERNEL_STEPS[kernel]
        rng = np.random.default_rng(5)
        for dim, hp_kwargs, which in itertools.product(BLOCK_DIMS, TOGGLES, (0, -1)):
            hp = HyperParams(eps=0.0, **hp_kwargs)
            block = blocks(dim)[which]
            index = int(rng.integers(block.start, min(block.stop, dim)))
            g = rng.standard_normal(dim)
            g[index] = 0.0
            theta0 = rng.standard_normal(dim)
            whole, alone = fresh(theta0), fresh(theta0[block])
            before = snapshot(*whole)
            error = attempt(step, *whole, g, hp, 1e-3)
            stage, t, local = attempt(step, *alone, g[block], hp, 1e-3)
            assert error == (stage, t, block.start + local) == ("delta_theta", 1, index)
            assert snapshot(*whole) == before

    @pytest.mark.parametrize("transcript", (False, True))
    @pytest.mark.parametrize("kernel", [k for k in KERNEL_IDS if k != "sgdm"])
    def test_earliest_stage_wins_across_blocks(self, kernel, transcript):
        # with eps = 0 a zero gradient element in block 0, or in block 1 after
        # block 0 has passed, makes its update 0/0, and a gradient of 1e200 in
        # the last block overflows its second moment: the earlier stage is
        # raised, at its global index, although the block holding it is
        # attributed after the other one, on a sweep resumed past both
        dim = 2 * CHUNK + 3
        for zero_block, hp_kwargs in itertools.product((0, 1), TOGGLES):
            rng = np.random.default_rng(6)
            state, params = fresh(rng.standard_normal(dim))
            g = rng.standard_normal(dim)
            g[zero_block * CHUNK + int(rng.integers(CHUNK))] = 0.0
            index = int(rng.integers(2 * CHUNK, dim))
            g[index] = 1e200
            before = snapshot(state, params)
            error = attempt(KERNEL_STEPS[kernel], state, params, g, HyperParams(eps=0.0, **hp_kwargs), 1e-3,
                            transcript=transcript)
            assert error == ("second_moment", 1, index), (zero_block, hp_kwargs)
            assert snapshot(state, params) == before

    @pytest.mark.parametrize("dim, transcript, calls", [(2**18, True, 0), (2**20, False, 2**20 // CHUNK + 16)])
    def test_failure_is_named_without_redoing_a_passed_block(self, monkeypatch, dim, transcript, calls):
        # a 0/0 (eps = 0) in the last element only.  A transcript step names
        # it from the transcript it holds, with no ufunc core.  The lean sweep
        # fails in its last block, and attribution resumes there in blocks of
        # 1024 elements: one core per CHUNK block, then the 16 of the last
        # one, none for a block that passed its check
        core, counted = kernels._core, []

        def counting(*args):
            counted.append(None)
            return core(*args)

        monkeypatch.setattr(kernels, "_core", counting)
        state, params = fresh(np.linspace(-1.0, 1.0, dim))
        g = np.full(dim, 0.5)
        g[-1] = 0.0
        before = snapshot(state, params)
        error = attempt(adaplus_step, state, params, g, HyperParams(eps=0.0), 1e-3, transcript=transcript)
        assert error == ("delta_theta", 1, dim - 1)
        assert len(counted) == calls
        assert snapshot(state, params) == before

    @pytest.mark.parametrize("dim, failing", [(2**18, "one"), (2**16, "all")])
    def test_failing_step_peaks_under_one_vector(self, dim, failing):
        # attribution transcribes only the blocks of 1024 elements that fail,
        # one at a time, so a failing step on a fresh state peaks under one
        # full-size vector whether one element fails or all of them.  A
        # transcript of one CHUNK of elements would be 2.25 vectors at dim
        # 2**18 and 9 at 2**16, where the all-failing case runs: tracemalloc
        # traces every float the transcription makes, and at 2**18 the case
        # took 5.7 s on a 2-core VM
        state, params = fresh(np.linspace(-1.0, 1.0, dim))
        g = np.full(dim, 0.5) if failing == "one" else np.zeros(dim)
        index = dim // 2 if failing == "one" else 0
        g[index] = 0.0
        hp = HyperParams(eps=0.0)
        tracemalloc.start()
        try:
            with pytest.raises(NonFiniteValue) as exc:
                adaplus_step(state, params, g, hp, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (exc.value.stage, exc.value.index) == ("delta_theta", index)
        assert peak < 8 * dim, peak / (8 * dim)


class TestAllocation:
    """The state allocates every buffer a step writes when it is made."""

    @pytest.mark.parametrize("dim", (1, SCALAR_MAX, CHUNK, CHUNK + 1, 2**18))
    @pytest.mark.parametrize("kernel", KERNEL_IDS)
    def test_committing_step_allocates_nothing(self, kernel, dim):
        rng = np.random.default_rng(dim)
        state, params = fresh(rng.standard_normal(dim))
        grads = [rng.standard_normal(dim) for _ in range(2)]
        hp = HyperParams()
        peaks = []
        tracemalloc.start()
        try:
            for g in grads:
                tracemalloc.reset_peak()
                KERNEL_STEPS[kernel](state, params, g, hp, 1e-3)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert state.t == 2
        # the first step included: a few small Python objects, no array
        assert max(peaks) < 16 * 1024, peaks


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_quick_start_runs_as_written(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start (library)"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert float(capsys.readouterr().out) < 1e-150
