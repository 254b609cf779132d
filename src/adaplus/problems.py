"""Desk-scale objectives with exact gradients, noise wrappers, and gradient checking.

Every problem is deterministic: the loss and gradient are pure functions of
``theta``, and any randomness (dataset generation, noise) is driven by
explicit seeds.  ``check_gradient`` compares analytic gradients against
central finite differences coordinate by coordinate.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, as_float, as_int, non_negative, positive

NOISE_KINDS = ("none", "gaussian_additive", "minibatch_subset")


@dataclass(frozen=True)
class NoiseSpec:
    """Stochastic-gradient wrapper description.

    ``scale`` is the additive noise standard deviation for
    ``gaussian_additive`` and the subset fraction of the dataset for
    ``minibatch_subset``.  ``scale == 0`` always means the noiseless
    gradient, whatever the kind, and such a spec is held as ``NoiseSpec()``.
    """

    kind: str = "none"
    scale: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"unknown noise kind {self.kind!r}; expected one of {NOISE_KINDS}")
        scale = as_float("noise.scale", self.scale, "be non-negative and finite", non_negative)
        object.__setattr__(self, "scale", scale)
        if self.kind == "minibatch_subset" and self.scale > 1:
            raise ConfigError(f"minibatch fraction must lie in [0, 1], got {self.scale}")
        # numpy's generators take no negative seed
        as_int("noise.seed", self.seed, "be non-negative", non_negative)
        # inactive noise is the noiseless gradient whatever its kind, scale
        # and seed, so after the checks above it is held as the default spec
        if not self.active:
            for field in fields(self):
                object.__setattr__(self, field.name, field.default)

    @property
    def active(self) -> bool:
        return self.kind != "none" and self.scale > 0


class Problem:
    """Objective with an exact gradient; immutable after construction.

    ``gradient_fn`` computes the gradient alone, for training steps that do
    not need the loss; it must return what ``loss_and_grad`` returns as its
    gradient, bit for bit.
    """

    def __init__(self, dim, loss_and_grad, gradient_fn):
        self.dim = as_int("dim", dim)
        self._loss_and_grad = loss_and_grad
        self._gradient = gradient_fn

    def _checked(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        if theta.ndim != 1 or theta.size != self.dim:
            raise ValueError(f"theta must have shape ({self.dim},), got {theta.shape}")
        return theta

    def evaluate(self, theta):
        """Return ``(loss, gradient)`` at ``theta``."""
        loss, grad = self._loss_and_grad(self._checked(theta))
        return float(loss), np.asarray(grad, dtype=np.float64)

    def gradient(self, theta):
        """Return the gradient at ``theta``, equal to ``evaluate(theta)[1]``, without the loss."""
        return np.asarray(self._gradient(self._checked(theta)), dtype=np.float64)


class LogisticProblem(Problem):
    """Binary logistic regression over a fixed synthetic dataset.

    Labels live in {-1, +1}; the loss is the mean of
    ``log(1 + exp(-y * x.theta))``.  A finite-sum problem: it has
    ``n_samples`` and ``minibatch_gradient``, and every gradient it gives,
    full-batch or over a sample subset, is the mean over a row set
    computed by one function, so ``gradient`` and ``evaluate`` agree bit
    for bit by construction.
    """

    def __init__(self, features, labels):
        self.features = features
        self.labels = labels
        self.n_samples = features.shape[0]
        super().__init__(features.shape[1], self._loss_and_grad_all, lambda theta: self._margins_grad(theta)[1])

    def _margins_grad(self, theta, rows=slice(None)):
        """``(margins, mean gradient)`` over the samples ``rows`` selects, every one by default."""
        features, labels = self.features[rows], self.labels[rows]
        margins = labels * (features @ theta)
        # sigmoid(-m), evaluated on the non-overflowing branch per sign
        sig = np.empty_like(margins)
        pos = margins >= 0
        e = np.exp(-margins[pos])
        sig[pos] = e / (1.0 + e)
        sig[~pos] = 1.0 / (1.0 + np.exp(margins[~pos]))
        grad = -(labels[:, None] * features * sig[:, None]).mean(axis=0)
        return margins, grad

    def _loss_and_grad_all(self, theta):
        margins, grad = self._margins_grad(theta)
        # log(1 + exp(-m)) via logaddexp for overflow safety
        return float(np.mean(np.logaddexp(0.0, -margins))), grad

    def minibatch_gradient(self, theta, indices):
        """Exact mean gradient over the sample subset ``indices``."""
        return self._margins_grad(self._checked(theta), np.asarray(indices, dtype=np.intp))[1]


def quadratic(dim: int, condition_number: float = 1.0) -> Problem:
    """Convex diagonal quadratic ``0.5 * theta.D.theta``.

    Eigenvalues of ``D`` are log-spaced over ``[1, condition_number]``;
    the optimum value is 0 at the origin.
    """
    dim = as_int("dim", dim, "be positive", positive)
    condition_number = as_float("condition_number", condition_number, "be >= 1 and finite",
                                lambda c: 1 <= c < math.inf)
    eigs = np.logspace(0.0, np.log10(condition_number), dim)

    def gradient(theta):
        return eigs * theta

    def loss_and_grad(theta):
        grad = gradient(theta)
        return 0.5 * float(theta @ grad), grad

    return Problem(dim, loss_and_grad, gradient)


def rosenbrock(dim: int) -> Problem:
    """Chained Rosenbrock over independent coordinate pairs; optimum 0 at all-ones."""
    dim = as_int("dim", dim, "be a positive even integer >= 2", lambda n: n >= 2 and n % 2 == 0)

    def gradient(theta):
        x = theta[0::2]
        gap = theta[1::2] - x * x
        grad = np.empty_like(theta)
        grad[0::2] = -2.0 * (1.0 - x) - 400.0 * x * gap
        grad[1::2] = 200.0 * gap
        return grad

    def loss_and_grad(theta):
        x = theta[0::2]
        gap = theta[1::2] - x * x
        return float(np.sum((1.0 - x) ** 2 + 100.0 * gap**2)), gradient(theta)

    return Problem(dim, loss_and_grad, gradient)


def large_grad_small_curvature(g_mag: float, curvature: float) -> Problem:
    """One-dimensional ramp with slight convexity: ``g_mag*x + 0.5*curvature*x^2``.

    Near the start the gradient magnitude is ``~g_mag`` while its change per
    step is ``~curvature * dx``: the regime where the squared-gradient EMA is
    large but the belief EMA stays small, so belief-style kernels take larger
    steps than variance-style ones.
    The minimum is ``-g_mag^2 / (2 * curvature)``, at ``x = -g_mag / curvature``.
    """
    g_mag = as_float("g_mag", g_mag, "be positive and finite", positive)
    curvature = as_float("curvature", curvature, "be positive and finite", positive)

    def gradient(theta):
        return np.array([g_mag + curvature * theta[0]])

    def loss_and_grad(theta):
        x = theta[0]
        return g_mag * x + 0.5 * curvature * x * x, gradient(theta)

    return Problem(1, loss_and_grad, gradient)


def logistic_regression_synthetic(n_samples: int, dim: int, margin: float, seed: int = 0) -> LogisticProblem:
    """Seeded linearly separable binary classification with a guaranteed margin.

    Samples are standard normal, then shifted by ``margin`` along the true
    separating direction on each point's own side, so every sample satisfies
    ``|x . w*| >= margin``.  Generation is a pure function of ``seed``.
    """
    n_samples = as_int("n_samples", n_samples, "be at least 2", lambda n: n >= 2)
    dim = as_int("dim", dim, "be positive", positive)
    margin = as_float("margin", margin, "be positive and finite", positive)
    # numpy's generators take no negative seed
    seed = as_int("seed", seed, "be non-negative", non_negative)

    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    features = rng.standard_normal((n_samples, dim))
    labels = np.where(features @ direction >= 0, 1.0, -1.0)
    features = features + margin * labels[:, None] * direction
    return LogisticProblem(features, labels)


# The problem table: name -> constructor.  A run config's ``problem.*`` keys
# are the constructor's parameters, in order, converted by their annotations
# and defaulting to their defaults; a value it rejects raises ``ValueError``.
PROBLEMS = {
    "quadratic": quadratic,
    "rosenbrock": rosenbrock,
    "large_grad_small_curvature": large_grad_small_curvature,
    "logistic_regression_synthetic": logistic_regression_synthetic,
}


def check_gradient(problem: Problem, theta, h: float = 1e-6) -> float:
    """Max absolute deviation of the analytic gradient from central differences.

    ``h`` must be positive and finite.  A deviation that is not finite, as
    from a NaN in the gradient or the loss, reads ``inf``: it may not read
    as agreement.
    """
    h = as_float("h", h, "be positive and finite", positive)
    theta = np.asarray(theta, dtype=np.float64)
    _, grad = problem.evaluate(theta)
    deviations = np.empty(problem.dim)
    for j in range(problem.dim):
        bumped = theta.copy()
        bumped[j] = theta[j] + h
        f_plus, _ = problem.evaluate(bumped)
        bumped[j] = theta[j] - h
        f_minus, _ = problem.evaluate(bumped)
        fd = (f_plus - f_minus) / (2.0 * h)
        deviations[j] = abs(fd - grad[j])
    worst = float(deviations.max(initial=0.0))
    return worst if math.isfinite(worst) else math.inf


class GradientSource:
    """Per-step training-gradient provider, optionally noisy.

    Draws are deterministic given the noise spec and ``replica_seed``.  With
    an inactive spec (kind ``none`` or ``scale == 0``) the source returns the
    noiseless gradient bit-exactly and never touches a generator.
    ``minibatch_subset`` noise asks the problem for the finite-sum
    capability, ``n_samples`` and ``minibatch_gradient(theta, indices)``,
    not for a class, and refuses a problem without it.
    """

    def __init__(self, problem: Problem, noise: NoiseSpec | None = None, replica_seed: int = 0):
        self.problem = problem
        self.noise = noise if noise is not None and noise.active else None
        if self.noise is not None:
            self._rng = np.random.default_rng([self.noise.seed, replica_seed])
            if self.noise.kind == "minibatch_subset":
                if not (hasattr(problem, "n_samples") and hasattr(problem, "minibatch_gradient")):
                    raise ConfigError("minibatch_subset noise needs a finite-sample problem")
                self._batch = max(1, round(self.noise.scale * problem.n_samples))

    def gradient(self, theta) -> np.ndarray:
        """Training gradient for one step; advances the noise stream when active."""
        if self.noise is None:
            return self.problem.gradient(theta)
        if self.noise.kind == "gaussian_additive":
            return self.problem.gradient(theta) + self.noise.scale * self._rng.standard_normal(self.problem.dim)
        indices = self._rng.choice(self.problem.n_samples, size=self._batch, replace=False)
        return self.problem.minibatch_gradient(theta, indices)
