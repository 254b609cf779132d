"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Full-scale training benchmarks (image classifiers, language models, GANs)
are out of scope; this suite validates the kernels and harness through
differential, algebraic, and desk-scale properties instead.  Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import time

import numpy as np
from trajectories import by_step

from adaplus.bench import parse_config, record_to_csv, run
from adaplus.kernels import (
    KERNEL_IDS,
    KERNEL_STEPS,
    REDUCTIONS,
    HyperParams,
    OptimizerState,
    ParamVector,
    adaplus_step,
    drive_stream,
)
from adaplus.oracle import replay
from adaplus.problems import (
    GradientSource,
    NoiseSpec,
    check_gradient,
    large_grad_small_curvature,
    logistic_regression_synthetic,
    quadratic,
    rosenbrock,
)
from adaplus.transcript import scaled_deviation

DIFFERENTIAL_TOL = 1e-12
CLOSED_FORM_TOL = 1e-12
SCALE_INVARIANCE_TOL = 1e-10
DECAY_LAW_TOL = 1e-14
GRADIENT_CHECK_TOL = 1e-5
QUADRATIC_LOSS_TARGET = 1e-8
LOGISTIC_ACCURACY_TARGET = 0.99


def report(name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: PASS{suffix}")


class TestDifferentialSuite:
    def test_kernels_match_oracle_on_50_streams(self):
        """6 kernels x 50 seeded streams (dim <= 16, 200 steps) within 1e-12, under 10 s."""
        rng = np.random.default_rng(20250808)
        streams = []
        for _ in range(50):
            dim = int(rng.integers(1, 17))
            stream = [rng.standard_normal(dim) * rng.uniform(0.2, 2.0) for _ in range(200)]
            theta0 = rng.standard_normal(dim)
            lrs = list(rng.uniform(2e-4, 5e-3, size=200))
            streams.append((stream, theta0, lrs))

        hp = HyperParams()
        started = time.perf_counter()
        worst = 0.0
        for kernel in KERNEL_IDS:
            for stream, theta0, lrs in streams:
                got = drive_stream(kernel, stream, theta0, hp, lrs)
                want = replay(kernel, stream, theta0, hp, lrs)
                deviation = scaled_deviation(got, want)
                assert deviation <= DIFFERENTIAL_TOL, (kernel, deviation)
                worst = max(worst, deviation)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"differential suite took {elapsed:.1f}s"
        report("differential-suite", f"worst deviation {worst:.2e}, {elapsed:.1f}s")


class TestReductionSuite:
    def test_reductions_hold_exactly_on_20_streams(self):
        rng = np.random.default_rng(424242)
        checked = 0
        for _ in range(20):
            dim = int(rng.integers(1, 9))
            steps = int(rng.integers(20, 80))
            stream = [rng.standard_normal(dim) for _ in range(steps)]
            theta0 = rng.standard_normal(dim)
            lrs = list(rng.uniform(5e-4, 5e-3, size=steps))

            for _, *sides in REDUCTIONS:
                a_seq, b_seq = (drive_stream(k, stream, theta0, HyperParams(**hp), lrs) for k, hp in sides)
                # every field of every step; a step's number is its position
                np.testing.assert_array_equal(a_seq, b_seq, strict=True)
                checked += 1
        assert checked == 120
        report("reduction-suite", "6 equivalences x 20 streams, exact equality")


class TestClosedFormSuite:
    def test_constant_gradient_identities_to_t_1000(self):
        """EMA identities under a constant gradient, t = 1..1000.

        The identities are verified exactly in integer arithmetic over the
        full horizon (error 0 <= 1e-12), and the float64 kernel is checked
        against the closed forms directly wherever float64 can resolve them:
        m and the readjusted numerator everywhere, the residual g - m up to
        t = 50 beyond which the subtraction exhausts double precision.

        ``b1 = 0.9`` as the kernel computes with it is ``p / q`` with ``q`` a
        power of two, and each constant is ``c = C / d``; so ``m_t`` is an
        integer ``M`` over ``q^t * d``, and each identity between rationals
        becomes an equality between integers, with no gcd taken.
        """
        p, q = (0.9).as_integer_ratio()  # the exact binary value the kernel computes with
        k = q.bit_length() - 1
        assert q == 1 << k
        for c_float in (0.7, -1.3):
            C, d = c_float.as_integer_ratio()
            M = 0  # m_t = M / (Q * d)
            P = 1  # b1^t = P / Q
            for t in range(1, 1001):
                # Q = q^t is a power of two, so a product with it is a shift
                shift = k * t
                Q = 1 << shift
                # m = b1 * m + (1 - b1) * c, over the denominator q^t * d
                M = p * M + ((q - p) * C << (shift - k))
                P *= p
                assert M == (Q - P) * C  # m == (1 - b1^t) * c
                assert (C << shift) - M == P * C  # c - m == b1^t * c
                # m_bar = b1 * m + (1 - b1) * c, over q^(t+1) * d
                M_bar = p * M + ((q - p) * C << shift)
                assert M_bar == (q * Q - p * P) * C  # m_bar == (1 - b1^(t+1)) * c
                # m_bar / (1 - b1^t) == c * (1 - b1^(t+1)) / (1 - b1^t): each side
                # a numerator over a denominator, equal when both are equal and
                # the denominator is not zero
                m_hat = (M_bar << shift, q * d * (Q - P) << shift)
                closed = (C * (q * Q - p * P) << shift, d * q * (Q - P) << shift)
                assert m_hat[1] != 0 and m_hat == closed

        b1f = 0.9
        for c_float in (0.7, -1.3):
            state = OptimizerState(1)
            params = ParamVector([0.0])
            hp = HyperParams(weight_decay=0.0)
            steps = [adaplus_step(state, params, [c_float], hp, 1e-3, transcript=True) for _ in range(1000)]
            m = np.array([tr.m[0] for tr in steps])
            m_hat = np.array([tr.m_hat[0] for tr in steps])
            ts = range(1, 1001)
            np.testing.assert_allclose(m, [(1.0 - b1f**t) * c_float for t in ts], rtol=CLOSED_FORM_TOL)
            np.testing.assert_allclose(
                m_hat, [c_float * (1.0 - b1f ** (t + 1)) / (1.0 - b1f**t) for t in ts], rtol=CLOSED_FORM_TOL
            )
            np.testing.assert_allclose(
                c_float - m[:50], [b1f**t * c_float for t in range(1, 51)], rtol=CLOSED_FORM_TOL
            )
        report("closed-form-suite", "exact over t=1..1000; float64 kernel agrees where resolvable")


class TestStepsizeAdaptationProperty:
    def test_belief_kernel_outpaces_variance_kernel_on_ramp(self):
        """Large gradient, small curvature: the belief denominator stays small.

        The nesterov-numerator variance baseline is the no-decay kernel with
        the identical numerator, so the stepsize comparison isolates the
        denominator; the loss comparison uses the plain variance kernel.
        """
        started = time.perf_counter()
        problem = large_grad_small_curvature(10.0, 1e-3)
        hp = HyperParams(weight_decay=0.0)

        trajectories = {}
        for kernel in ("adaplus", "nadam", "adamw"):
            state = OptimizerState(1)
            params = ParamVector([0.0])
            step = KERNEL_STEPS[kernel]
            transcripts = []
            for _ in range(50):
                _, grad = problem.evaluate(params.values)
                transcripts.append(step(state, params, grad, hp, 1e-3, transcript=True))
            trajectories[kernel] = transcripts

        ap = trajectories["adaplus"]
        nd = trajectories["nadam"]
        aw = trajectories["adamw"]
        for t in range(10, 51):
            assert ap[t - 1].second_moment[0] < nd[t - 1].second_moment[0], t
            assert abs(ap[t - 1].delta_theta[0]) > abs(nd[t - 1].delta_theta[0]), t

        ap_loss, _ = problem.evaluate(ap[-1].theta_after)
        aw_loss, _ = problem.evaluate(aw[-1].theta_after)
        assert ap_loss < aw_loss
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"stepsize-adaptation property took {elapsed:.2f}s"
        report(
            "stepsize-adaptation",
            f"s_t < v_t and larger steps for t>=10; loss {ap_loss:.4f} < {aw_loss:.4f}, {elapsed:.2f}s",
        )


class TestScaleInvariance:
    def test_gradient_scaling_leaves_updates_unchanged(self):
        rng = np.random.default_rng(17)
        dim, steps = 8, 200
        stream = [rng.standard_normal(dim) for _ in range(steps)]
        theta0 = rng.standard_normal(dim)
        lrs = [1e-3] * steps
        hp = HyperParams(eps=0.0, weight_decay=0.0)
        base = drive_stream("adaplus", stream, theta0, hp, lrs)
        worst = 0.0
        for factor in (1e-3, 1e3):
            scaled = drive_stream("adaplus", [g * factor for g in stream], theta0, hp, lrs)
            for a, b in zip(by_step(scaled), by_step(base)):
                np.testing.assert_allclose(
                    a.delta_theta, b.delta_theta, rtol=SCALE_INVARIANCE_TOL, atol=0
                )
                rel = np.abs(a.delta_theta - b.delta_theta) / np.abs(b.delta_theta)
                worst = max(worst, float(rel.max()))
        report("scale-invariance", f"factors 1e-3 and 1e3, worst rel err {worst:.2e}")


class TestDecayLaw:
    def test_zero_gradient_decay_is_geometric(self):
        theta0 = np.array([1.7, -0.4, 0.925])
        state = OptimizerState(3)
        params = ParamVector(theta0)
        hp = HyperParams(weight_decay=1e-2)
        for _ in range(100):
            adaplus_step(state, params, np.zeros(3), hp, 1e-3)
        expected = theta0 * (1.0 - 1e-5) ** 100
        np.testing.assert_allclose(params.values, expected, rtol=DECAY_LAW_TOL)
        worst = float(np.max(np.abs(params.values / expected - 1.0)))
        report("decay-law", f"theta_100/theta_0 vs (1-1e-5)^100, worst rel err {worst:.2e}")


class TestGradientChecks:
    def test_every_problem_passes_finite_difference_check(self):
        problems = {
            "quadratic": quadratic(7, 50.0),
            "rosenbrock": rosenbrock(6),
            "large_grad_small_curvature": large_grad_small_curvature(10.0, 1e-3),
            "logistic_regression_synthetic": logistic_regression_synthetic(80, 5, 0.5, seed=3),
        }
        rng = np.random.default_rng(2718)
        worst = 0.0
        for name, problem in problems.items():
            for _ in range(20):
                theta = rng.standard_normal(problem.dim)
                err = check_gradient(problem, theta)
                assert err <= GRADIENT_CHECK_TOL, (name, err)
                worst = max(worst, err)
        report("gradient-checks", f"4 problems x 20 points, worst error {worst:.2e}")


class TestDeskScaleConvergence:
    QUAD_CONFIG = """
problem = quadratic
problem.dim = 10
problem.condition_number = 100
optimizer = adaplus
epochs = 10
steps_per_epoch = 500
seeds = 1
log_every = 500
"""

    def test_quadratic_and_logistic_convergence(self):
        started = time.perf_counter()

        record = run(parse_config(self.QUAD_CONFIG))
        assert not record.summary.aborted
        assert record.summary.final_loss < QUADRATIC_LOSS_TARGET

        problem = logistic_regression_synthetic(500, 20, 0.5, seed=77)

        def accuracy(theta):
            return float(np.mean((problem.features @ theta > 0) == (problem.labels > 0)))

        noise = NoiseSpec(kind="minibatch_subset", scale=0.1, seed=7)
        # no milestones: every epoch steps at the constant rate
        lr_t = 1e-2
        hit_epochs = {}
        for kernel in ("adaplus", "adamw", "adabelief"):
            hp = HyperParams()
            worst_hit = 0
            for seed in (1, 2, 3):
                rng = np.random.default_rng(seed)
                params = ParamVector(rng.standard_normal(problem.dim))
                state = OptimizerState(problem.dim)
                source = GradientSource(problem, noise, replica_seed=seed)
                step = KERNEL_STEPS[kernel]
                hit = None
                for epoch in range(50):
                    for _ in range(30):
                        step(state, params, source.gradient(params.values), hp, lr_t)
                    if hit is None and accuracy(params.values) >= LOGISTIC_ACCURACY_TARGET:
                        hit = epoch + 1
                assert hit is not None, (kernel, seed, accuracy(params.values))
                worst_hit = max(worst_hit, hit)
            hit_epochs[kernel] = worst_hit

        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"desk-scale suite took {elapsed:.1f}s"
        detail = ", ".join(f"{k} 99% by epoch {v}" for k, v in hit_epochs.items())
        report(
            "desk-scale-convergence",
            f"quadratic loss {record.summary.final_loss:.2e}; {detail}; {elapsed:.1f}s",
        )


class TestRunDeterminism:
    def test_identical_configs_emit_identical_csv(self):
        config_text = """
problem = quadratic
problem.dim = 3
problem.condition_number = 10
optimizer = adaplus
epochs = 2
steps_per_epoch = 50
seeds = 11,12
log_every = 10
milestones = 1
"""
        first = run(parse_config(config_text))
        second = run(parse_config(config_text))
        csv_a = record_to_csv(first)
        csv_b = record_to_csv(second)
        assert csv_a.encode("utf-8") == csv_b.encode("utf-8")
        assert first.config_hash == second.config_hash
        report("run-determinism", f"{len(csv_a.splitlines()) - 1} rows byte-identical")
