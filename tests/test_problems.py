"""Tests for the benchmark objectives, gradient checking, and noise wrappers."""

import re

import numpy as np
import pytest

from adaplus.errors import ConfigError
from adaplus.problems import (
    GradientSource,
    NoiseSpec,
    Problem,
    check_gradient,
    large_grad_small_curvature,
    logistic_regression_synthetic,
    quadratic,
    rosenbrock,
)


class TestQuadratic:
    def test_one_dimensional_identity(self):
        p = quadratic(1, 1.0)
        loss, grad = p.evaluate([2.0])
        assert loss == 2.0
        np.testing.assert_array_equal(grad, [2.0])
        # the optimum value is 0, at the origin
        loss, grad = p.evaluate([0.0])
        assert loss == 0.0 and not grad.any()

    def test_eigenvalue_endpoints(self):
        p = quadratic(2, 100.0)
        _, grad = p.evaluate([1.0, 1.0])
        np.testing.assert_allclose(grad, [1.0, 100.0], rtol=1e-12)

    def test_rejects_bad_condition_number(self):
        with pytest.raises(ValueError):
            quadratic(3, 0.5)

    def test_finite_difference_agreement(self):
        p = quadratic(5, 30.0)
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert check_gradient(p, rng.standard_normal(5)) <= 1e-6


class TestRosenbrock:
    def test_global_optimum_at_ones(self):
        p = rosenbrock(4)
        loss, grad = p.evaluate(np.ones(4))
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros(4))

    def test_hand_evaluated_origin(self):
        # f = (1-x)^2 + 100 (y - x^2)^2 -> f(0,0) = 1, grad = [-2, 0]
        p = rosenbrock(2)
        loss, grad = p.evaluate([0.0, 0.0])
        assert loss == 1.0
        np.testing.assert_array_equal(grad, [-2.0, 0.0])

    def test_rejects_odd_dim(self):
        with pytest.raises(ValueError):
            rosenbrock(3)

    def test_finite_difference_agreement(self):
        p = rosenbrock(6)
        rng = np.random.default_rng(2)
        for _ in range(20):
            assert check_gradient(p, rng.standard_normal(6)) <= 1e-5


class TestLargeGradSmallCurvature:
    def test_gradient_at_origin_is_g_mag(self):
        p = large_grad_small_curvature(10.0, 1e-3)
        loss, grad = p.evaluate([0.0])
        assert loss == 0.0
        np.testing.assert_array_equal(grad, [10.0])

    def test_known_optimum(self):
        p = large_grad_small_curvature(10.0, 1e-3)
        # minimum of gx + c x^2 / 2 at x = -g/c with value -g^2/(2c)
        loss, grad = p.evaluate([-10.0 / 1e-3])
        np.testing.assert_allclose(grad, [0.0], atol=1e-12)
        np.testing.assert_allclose(loss, -(10.0**2) / (2.0 * 1e-3), rtol=1e-12)

    @pytest.mark.parametrize("g_mag, curvature", [(0.0, 1e-3), (-1.0, 1e-3), (10.0, 0.0), (10.0, -1.0)])
    def test_rejects_non_positive_knobs(self, g_mag, curvature):
        with pytest.raises(ValueError):
            large_grad_small_curvature(g_mag, curvature)

    def test_finite_difference_agreement(self):
        p = large_grad_small_curvature(10.0, 1e-3)
        rng = np.random.default_rng(3)
        for _ in range(20):
            assert check_gradient(p, rng.standard_normal(1) * 5) <= 1e-5


class TestLogisticRegressionSynthetic:
    def test_zero_theta_gives_log_two(self):
        p = logistic_regression_synthetic(100, 5, 0.5, seed=7)
        loss, _ = p.evaluate(np.zeros(5))
        np.testing.assert_allclose(loss, np.log(2.0), rtol=1e-12)

    def test_dataset_is_pure_function_of_seed(self):
        a = logistic_regression_synthetic(50, 4, 0.3, seed=11)
        b = logistic_regression_synthetic(50, 4, 0.3, seed=11)
        c = logistic_regression_synthetic(50, 4, 0.3, seed=12)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert not np.array_equal(a.features, c.features)

    def test_full_gradient_is_mean_of_single_sample_gradients(self):
        p = logistic_regression_synthetic(30, 3, 0.5, seed=5)
        rng = np.random.default_rng(6)
        theta = rng.standard_normal(3)
        _, full = p.evaluate(theta)
        singles = np.array([p.minibatch_gradient(theta, [i]) for i in range(p.n_samples)])
        np.testing.assert_allclose(full, singles.mean(axis=0), rtol=1e-12, atol=1e-15)

    def test_every_row_as_a_minibatch_is_the_full_gradient_bit_for_bit(self):
        # one row-set function computes both, so their bytes agree, not only their values
        p = logistic_regression_synthetic(30, 3, 0.5, seed=5)
        rng = np.random.default_rng(15)
        for _ in range(20):
            theta = rng.standard_normal(3)
            assert p.minibatch_gradient(theta, np.arange(p.n_samples)).tobytes() == p.gradient(theta).tobytes()

    def test_separable_with_margin(self):
        p = logistic_regression_synthetic(200, 8, 0.5, seed=9)

        def accuracy(theta):
            return float(np.mean((p.features @ theta > 0) == (p.labels > 0)))

        # shifting each sample along the true direction guarantees the margin,
        # so perfect training accuracy is attainable
        assert accuracy(np.zeros(8)) <= 1.0
        rng = np.random.default_rng(10)
        theta = rng.standard_normal(8)
        assert 0.0 <= accuracy(theta) <= 1.0

    def test_each_sample_sits_margin_further_along_the_true_direction(self):
        # the generator's draws in its order: the true direction, then the
        # standard normal samples.  Each sample moves by margin along the
        # direction, to its own side, so |x . w*| >= margin
        n, dim, margin, seed = 200, 8, 0.5, 9
        rng = np.random.default_rng(seed)
        direction = rng.standard_normal(dim)
        direction /= np.linalg.norm(direction)
        raw = rng.standard_normal((n, dim))
        distance = np.abs(logistic_regression_synthetic(n, dim, margin, seed).features @ direction)
        assert (distance >= margin).all()
        np.testing.assert_allclose(distance, np.abs(raw @ direction) + margin, rtol=1e-12)

    def test_two_samples_are_enough(self):
        p = logistic_regression_synthetic(2, 3, 0.5, seed=1)
        assert p.n_samples == 2 and p.features.shape == (2, 3)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            logistic_regression_synthetic(1, 3, 0.5)
        with pytest.raises(ValueError):
            logistic_regression_synthetic(10, 3, 0.0)

    def test_rejects_negative_seed_naming_it(self):
        # numpy's generator would refuse it with a message naming no parameter
        with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
            logistic_regression_synthetic(10, 2, 1.0, seed=-1)

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError, match=r"^dim must be positive, got 0$"):
            logistic_regression_synthetic(10, 0, 0.5)

    def test_subset_gradient_checks_the_shape_of_theta(self):
        # numpy would raise a matmul or broadcast error naming no parameter
        p = logistic_regression_synthetic(10, 3, 0.5)
        with pytest.raises(ValueError, match=r"^theta must have shape \(3,\), got \(4,\)$"):
            p.minibatch_gradient(np.zeros(4), [0, 1])

    def test_finite_difference_agreement(self):
        p = logistic_regression_synthetic(60, 4, 0.5, seed=13)
        rng = np.random.default_rng(14)
        for _ in range(20):
            assert check_gradient(p, rng.standard_normal(4)) <= 1e-5


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: NoiseSpec("gaussian_additive", np.nan), "noise.scale"),
        (lambda: quadratic(3, np.nan), "condition_number"),
        (lambda: quadratic(3, np.inf), "condition_number"),
        (lambda: large_grad_small_curvature(np.nan, 1.0), "g_mag"),
        (lambda: large_grad_small_curvature(1.0, np.inf), "curvature"),
        (lambda: logistic_regression_synthetic(10, 2, np.inf), "margin"),
    ],
    ids=["noise.scale-nan", "condition_number-nan", "condition_number-inf", "g_mag-nan", "curvature-inf", "margin-inf"],
)
def test_non_finite_parameter_rejected_by_name(make, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        make()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: quadratic(10, "100"), "condition_number must be >= 1 and finite, got '100'"),
        (lambda: quadratic(10, 10**400), f"condition_number must be >= 1 and finite, got 1{'0' * 79}"),
        (lambda: large_grad_small_curvature(None, 1.0), "g_mag must be positive and finite, got None"),
        (lambda: large_grad_small_curvature(10.0, True), "curvature must be positive and finite, got True"),
        (lambda: logistic_regression_synthetic(10, 2, "1"), "margin must be positive and finite, got '1'"),
    ],
    ids=["condition_number-str", "condition_number-int-beyond-float", "g_mag-None", "curvature-bool", "margin-str"],
)
def test_float_parameter_that_is_no_real_number_rejected_by_name(make, message):
    # these raised TypeError (or, for the huge int, passed the domain check and
    # failed in numpy), which cli.main's ValueError boundary does not catch
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: quadratic(2.5), "dim must be an integer, got 2.5"),
        (lambda: rosenbrock(4.0), "dim must be an integer, got 4.0"),
        (lambda: logistic_regression_synthetic(10.5, 2, 1.0), "n_samples must be an integer, got 10.5"),
        (lambda: logistic_regression_synthetic(10, 2.0, 1.0), "dim must be an integer, got 2.0"),
        (lambda: logistic_regression_synthetic(10, 2, 1.0, seed=1.5), "seed must be an integer, got 1.5"),
        (lambda: Problem(2.5, lambda t: (0.0, t), lambda t: t), "dim must be an integer, got 2.5"),
    ],
    ids=["quadratic-dim", "rosenbrock-dim", "logistic-n_samples", "logistic-dim", "logistic-seed", "Problem-dim"],
)
def test_size_or_seed_that_is_not_an_integer_rejected_by_name(make, message):
    # numpy would raise a TypeError naming no parameter, or the size would
    # be truncated
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_numpy_integer_sizes_give_the_problem_of_python_ints():
    got, want = quadratic(np.int64(3)), quadratic(3)
    assert type(got.dim) is int and got.dim == want.dim
    assert got.gradient(np.ones(3)).tobytes() == want.gradient(np.ones(3)).tobytes()
    got = logistic_regression_synthetic(np.int32(10), np.int64(2), 1.0, seed=np.int64(4))
    want = logistic_regression_synthetic(10, 2, 1.0, seed=4)
    assert (type(got.dim), type(got.n_samples)) == (int, int)
    assert (got.dim, got.n_samples) == (want.dim, want.n_samples)
    assert got.features.tobytes() == want.features.tobytes() and got.labels.tobytes() == want.labels.tobytes()


class TestGradientOnly:
    PROBLEMS = (
        quadratic(7, 50.0),
        rosenbrock(6),
        large_grad_small_curvature(10.0, 1e-3),
        logistic_regression_synthetic(80, 5, 0.5, seed=3),
    )

    @pytest.mark.parametrize(
        "problem",
        PROBLEMS,
        ids=["quadratic", "rosenbrock", "large_grad_small_curvature", "logistic_regression_synthetic"],
    )
    def test_gradient_equals_evaluate_bit_for_bit(self, problem):
        rng = np.random.default_rng(41)
        for scale in (1e-3, 1.0, 1e3):
            for _ in range(5):
                theta = rng.standard_normal(problem.dim) * scale
                got = problem.gradient(theta)
                _, want = problem.evaluate(theta)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_gradient_checks_the_shape_of_theta(self):
        p = Problem(1, lambda th: (float(2.0 * th[0]), [2.0]), lambda th: [2.0])
        with pytest.raises(ValueError):
            p.gradient([0.5, 1.0])

    @pytest.mark.parametrize("noise", [None, NoiseSpec(kind="gaussian_additive", scale=0.5, seed=2)])
    def test_source_does_not_evaluate_the_loss(self, noise, monkeypatch):
        p = quadratic(4, 10.0)
        theta = np.linspace(-1.0, 1.0, 4)
        want = GradientSource(p, noise, replica_seed=3).gradient(theta)

        def no_loss(self, theta):
            raise AssertionError("training gradient evaluated the loss")

        monkeypatch.setattr(Problem, "evaluate", no_loss)
        got = GradientSource(p, noise, replica_seed=3).gradient(theta)
        assert got.tobytes() == want.tobytes()


class TestCheckGradient:
    def test_zero_vector_on_quadratic(self):
        p = quadratic(3, 10.0)
        assert check_gradient(p, np.zeros(3)) <= 1e-10

    def test_rosenbrock_at_optimum(self):
        p = rosenbrock(2)
        assert check_gradient(p, np.ones(2)) <= 1e-6

    def test_detects_wrong_gradient(self):
        from adaplus.problems import Problem

        broken = Problem(
            1, lambda th: (float(th[0] ** 2), np.array([3.0 * th[0]])), lambda th: np.array([3.0 * th[0]])
        )
        assert check_gradient(broken, np.array([1.0])) > 0.5

    @pytest.mark.parametrize(
        "h", [float("nan"), 0, -1e-6, float("inf"), "1e-6", None, True],
        ids=["nan", "zero", "negative", "inf", "str", "None", "bool"],
    )
    def test_step_outside_its_domain_is_refused_by_name(self, h):
        # nan read 0.0, 0 raised ZeroDivisionError and '1e-6' numpy's UFuncTypeError
        with pytest.raises(ValueError, match=f"^h must be positive and finite, got {re.escape(repr(h))}$"):
            check_gradient(quadratic(3), [1.0, 2.0, 3.0], h=h)

    @pytest.mark.parametrize("where", ["gradient", "loss"])
    def test_a_deviation_that_is_not_finite_reads_inf(self, where):
        # max(worst, nan) kept worst, so a NaN in a gradient read as agreement
        def loss_and_grad(theta):
            grad = np.array([2 * theta[0], np.nan if where == "gradient" else 2 * theta[1]])
            loss = float(theta @ theta) if where == "gradient" or theta[1] == 2.0 else np.nan
            return loss, grad

        broken = Problem(2, loss_and_grad, lambda theta: loss_and_grad(theta)[1])
        assert check_gradient(broken, [1.0, 2.0]) == np.inf


class TestNoiseSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            NoiseSpec(kind="salt_and_pepper")

    def test_rejects_bad_scale(self):
        with pytest.raises(ConfigError):
            NoiseSpec(kind="gaussian_additive", scale=-1.0)
        with pytest.raises(ConfigError):
            NoiseSpec(kind="minibatch_subset", scale=1.5)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigError, match="noise.seed must be non-negative"):
            NoiseSpec(kind="gaussian_additive", scale=0.1, seed=-1)

    def test_rejects_a_seed_that_is_not_an_integer(self):
        # GradientSource's generator would raise a TypeError naming no parameter
        with pytest.raises(ValueError, match=r"^noise\.seed must be an integer, got 1\.5$"):
            NoiseSpec("gaussian_additive", 0.1, seed=1.5)

    @pytest.mark.parametrize("scale", ["0.1", None, True], ids=["str", "None", "bool"])
    def test_rejects_a_scale_that_is_no_real_number(self, scale):
        # comparing '0.1' or None with 0.0 raised TypeError
        with pytest.raises(ConfigError, match=rf"^noise\.scale must be non-negative and finite, got {scale!r}$"):
            NoiseSpec(kind="gaussian_additive", scale=scale)

    def test_scale_is_held_as_a_float(self):
        for scale in (1, np.float32(0.5)):
            held = NoiseSpec(kind="gaussian_additive", scale=scale).scale
            assert held == scale and type(held) is float

    def test_zero_scale_is_inactive(self):
        assert not NoiseSpec(kind="gaussian_additive", scale=0.0).active
        assert NoiseSpec(kind="gaussian_additive", scale=0.1).active
        assert not NoiseSpec().active

    @pytest.mark.parametrize(
        "kind, scale, seed",
        [("gaussian_additive", 0.0, 5), ("minibatch_subset", 0, 3), ("none", 0.7, 9)],
        ids=["gaussian-scale-0", "minibatch-scale-0", "none-with-scale"],
    )
    def test_inactive_spec_is_held_as_the_default(self, kind, scale, seed):
        # the noiseless gradient has one spec, so one config text and one hash
        held = NoiseSpec(kind, scale, seed)
        assert held == NoiseSpec() and type(held.scale) is float

    @pytest.mark.parametrize("scale, seed, field", [(-1.0, 0, "noise.scale"), (0.0, -1, "noise.seed")])
    def test_inactive_spec_still_refuses_a_value_out_of_its_domain(self, scale, seed, field):
        with pytest.raises(ConfigError, match=f"^{re.escape(field)} must be non-negative"):
            NoiseSpec("none", scale, seed)


class TestGradientSource:
    def test_zero_scale_reproduces_noiseless_gradient_bit_exactly(self):
        p = quadratic(4, 10.0)
        rng = np.random.default_rng(20)
        theta = rng.standard_normal(4)
        clean = GradientSource(p).gradient(theta)
        noisy = GradientSource(p, NoiseSpec(kind="gaussian_additive", scale=0.0)).gradient(theta)
        _, expected = p.evaluate(theta)
        np.testing.assert_array_equal(clean, expected)
        np.testing.assert_array_equal(noisy, expected)

    def test_gaussian_noise_is_deterministic_per_seed(self):
        p = quadratic(3, 5.0)
        theta = np.ones(3)
        spec = NoiseSpec(kind="gaussian_additive", scale=0.5, seed=3)
        a = GradientSource(p, spec, replica_seed=1)
        b = GradientSource(p, spec, replica_seed=1)
        c = GradientSource(p, spec, replica_seed=2)
        for _ in range(5):
            ga, gb, gc = a.gradient(theta), b.gradient(theta), c.gradient(theta)
            np.testing.assert_array_equal(ga, gb)
            assert not np.array_equal(ga, gc)

    def test_minibatch_matches_manual_subset(self):
        p = logistic_regression_synthetic(40, 3, 0.5, seed=8)
        spec = NoiseSpec(kind="minibatch_subset", scale=0.25, seed=5)
        source = GradientSource(p, spec, replica_seed=9)
        theta = np.zeros(3)
        got = source.gradient(theta)
        mirror = np.random.default_rng([5, 9])
        indices = mirror.choice(40, size=10, replace=False)
        np.testing.assert_array_equal(got, p.minibatch_gradient(theta, indices))

    def test_minibatch_requires_finite_sample_problem(self):
        with pytest.raises(ConfigError):
            GradientSource(quadratic(2, 1.0), NoiseSpec(kind="minibatch_subset", scale=0.5))

    def test_minibatch_asks_for_the_finite_sum_capability_not_a_class(self):
        logistic = logistic_regression_synthetic(40, 3, 0.5, seed=8)
        spec = NoiseSpec(kind="minibatch_subset", scale=0.25, seed=5)

        def plain_problem(**capability):
            problem = Problem(3, logistic.evaluate, logistic.gradient)
            problem.__dict__.update(capability)
            return problem

        # a problem of another class with n_samples and minibatch_gradient draws the same batches
        finite_sum = plain_problem(n_samples=logistic.n_samples, minibatch_gradient=logistic.minibatch_gradient)
        got = GradientSource(finite_sum, spec, replica_seed=9).gradient(np.ones(3))
        assert got.tobytes() == GradientSource(logistic, spec, replica_seed=9).gradient(np.ones(3)).tobytes()
        # half the capability is refused with the message a quadratic gets
        for partial in (plain_problem(n_samples=40), plain_problem(minibatch_gradient=logistic.minibatch_gradient)):
            with pytest.raises(ConfigError, match=r"^minibatch_subset noise needs a finite-sample problem$"):
                GradientSource(partial, spec)
