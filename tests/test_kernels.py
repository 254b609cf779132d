"""Unit tests for the optimizer kernels and the learning-rate schedule."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaplus.errors import DimensionMismatch, NonFiniteValue
from adaplus.kernels import (
    CHUNK,
    KERNEL_IDS,
    KERNEL_STEPS,
    REDUCTIONS,
    HyperParams,
    LrSchedule,
    OptimizerState,
    ParamVector,
    adabelief_step,
    adam_step,
    adamw_step,
    adaplus_step,
    drive_stream,
    lr_at,
    nadam_step,
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
    def test_defaults(self):
        hp = HyperParams()
        assert hp.lr == 1e-3
        assert hp.beta1 == 0.9
        assert hp.beta2 == 0.999
        assert hp.eps == 1e-8
        assert hp.weight_decay == 1e-2
        assert hp.use_nesterov and hp.use_belief and not hp.decoupled_decay

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lr": 0.0},
            {"lr": -1e-3},
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

    def test_param_vector_rejects_non_finite(self):
        with pytest.raises(NonFiniteValue) as exc:
            ParamVector([1.0, np.nan, 2.0])
        assert exc.value.index == 1

    def test_param_vector_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            ParamVector([[1.0, 2.0]])
        with pytest.raises(ValueError):
            ParamVector([])

    def test_t_increments_once_per_step(self):
        state, params = fresh([0.5, -0.5])
        for expected_t in (1, 2, 3):
            tr = adaplus_step(state, params, [0.1, 0.2], HyperParams(), 1e-3, transcript=True)
            assert state.t == expected_t
            assert tr.t == expected_t


class TestLrSchedule:
    def test_no_milestone_passed(self):
        assert lr_at(LrSchedule(milestones=(150,)), 0.01, 0) == 0.01

    def test_decay_at_milestone(self):
        # drop by 0.1 exactly at the milestone epoch
        assert lr_at(LrSchedule(milestones=(150,)), 0.01, 150) == pytest.approx(0.001)

    def test_two_milestones_passed(self):
        assert lr_at(LrSchedule(milestones=(100, 145)), 1e-3, 146) == pytest.approx(1e-5)

    def test_factor_counts_passed_milestones(self):
        sched = LrSchedule(milestones=(2, 5, 9), decay_factor=0.5)
        for epoch in range(12):
            k = sum(1 for m in sched.milestones if m <= epoch)
            assert lr_at(sched, 1.0, epoch) == 0.5**k

    def test_rejects_unsorted_milestones(self):
        with pytest.raises(ValueError):
            LrSchedule(milestones=(5, 5))
        with pytest.raises(ValueError):
            LrSchedule(milestones=(7, 3))
        with pytest.raises(ValueError):
            LrSchedule(milestones=(0,))


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
        assert not np.allclose(classical[-1].theta_after, nesterov[-1].theta_after)

    def test_zero_gradient_freezes_theta(self):
        for use_nesterov in (False, True):
            state, params = fresh([1.5])
            sgdm_step(state, params, [0.0], HyperParams(use_nesterov=use_nesterov), 0.1)
            np.testing.assert_array_equal(params.values, [1.5])


class TestReductionLattice:
    """Each of ``REDUCTIONS`` must hold bit-for-bit on shared streams."""

    N_STREAMS = 20

    def assert_identical(self, left, right):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            assert a.t == b.t
            for field in ALL_FIELDS:
                np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

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


class TestKernelProperties:
    def test_positive_gradients_never_increase_theta(self):
        # the numerator is a positive combination of positive terms
        rng = np.random.default_rng(5)
        for kernel in KERNEL_IDS:
            stream = [np.abs(rng.standard_normal(1)) + 1e-6 for _ in range(100)]
            transcripts = drive_stream(kernel, stream, [0.3], HyperParams(weight_decay=0.0), [1e-3] * 100)
            for tr in transcripts:
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
        belief = drive_stream("adaplus", stream, [0.0], HyperParams(weight_decay=0.0), lrs)
        variance = drive_stream("nadam", stream, [0.0], HyperParams(), lrs)
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
            for a, b in zip(base, scaled):
                np.testing.assert_allclose(b.delta_theta, a.delta_theta, rtol=1e-10)

    def test_identical_inputs_give_bit_identical_trajectories(self):
        rng = np.random.default_rng(23)
        stream, theta0, lrs = random_stream(rng, 4, 50)
        for kernel in KERNEL_IDS:
            first = drive_stream(kernel, stream, theta0, HyperParams(), lrs)
            second = drive_stream(kernel, stream, theta0, HyperParams(), lrs)
            for a, b in zip(first, second):
                assert a == b

    def test_transcript_field_shapes_match_dim(self):
        rng = np.random.default_rng(31)
        stream, theta0, lrs = random_stream(rng, 7, 5)
        for kernel in KERNEL_IDS:
            for tr in drive_stream(kernel, stream, theta0, HyperParams(), lrs):
                for field in ALL_FIELDS:
                    assert getattr(tr, field).shape == (7,)


def snapshot(state, params):
    return (state.t, params.values.tobytes(), state.m.tobytes(), state.second_moment.tobytes())


def attempt(step, state, params, g, hp, lr, **kwargs):
    """Run one step; the raised ``NonFiniteValue`` as (stage, step, index), or None."""
    try:
        step(state, params, g, hp, lr, **kwargs)
    except NonFiniteValue as exc:
        return exc.stage, exc.step, exc.index
    return None


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

    def test_transcript_copies_the_committed_values(self):
        rng = np.random.default_rng(3)
        stream, theta0, lrs = random_stream(rng, 9, 20)
        for kernel in KERNEL_IDS:
            state, params = fresh(theta0)
            for g, lr in zip(stream, lrs):
                tr = KERNEL_STEPS[kernel](state, params, g, HyperParams(), lr, transcript=True)
                assert tr.t == state.t
                assert tr.theta_after.tobytes() == params.values.tobytes()
                assert tr.m.tobytes() == state.m.tobytes()
                if kernel != "sgdm":
                    assert tr.second_moment.tobytes() == state.second_moment.tobytes()

    @pytest.mark.parametrize("hp", [HyperParams(), HyperParams(use_nesterov=False, decoupled_decay=True)])
    def test_transcript_owns_every_field(self, hp):
        # the fields are computed in place in one block per step: no later
        # step, lean or not, and no change to the caller's gradient touches them
        rng = np.random.default_rng(4)
        stream, theta0, lrs = random_stream(rng, 6, 8)
        for kernel in KERNEL_IDS:
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
                whole, full = fresh(theta0), fresh(theta0)
                pieces = [fresh(theta0[b]) for b in blocks(dim)]
                for lr in (1e-3, 1e-1, 1e-2):
                    g = rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3)
                    step(*whole, g, hp, lr)
                    # a transcript runs the whole vector as one block
                    step(*full, g, hp, lr, transcript=True)
                    for piece, b in zip(pieces, blocks(dim)):
                        step(*piece, g[b], hp, lr)
                joined = (
                    pieces[0][0].t,
                    b"".join(p.values.tobytes() for _, p in pieces),
                    b"".join(s.m.tobytes() for s, _ in pieces),
                    b"".join(s.second_moment.tobytes() for s, _ in pieces),
                )
                assert snapshot(*whole) == joined
                assert snapshot(*full) == joined

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
