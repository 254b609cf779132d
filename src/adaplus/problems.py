"""Desk-scale objectives with exact gradients, noise wrappers, and gradient checking.

Every problem is deterministic: the loss and gradient are pure functions of
``theta``, and any randomness (dataset generation, noise) is driven by
explicit seeds.  ``check_gradient`` compares analytic gradients against
central finite differences coordinate by coordinate.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, as_int

NOISE_KINDS = ("none", "gaussian_additive", "minibatch_subset")


@dataclass(frozen=True)
class NoiseSpec:
    """Stochastic-gradient wrapper description.

    ``scale`` is the additive noise standard deviation for
    ``gaussian_additive`` and the subset fraction of the dataset for
    ``minibatch_subset``.  ``scale == 0`` always means the noiseless
    gradient, whatever the kind.
    """

    kind: str = "none"
    scale: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"unknown noise kind {self.kind!r}; expected one of {NOISE_KINDS}")
        if not 0.0 <= self.scale < np.inf:
            raise ConfigError(f"noise.scale must be non-negative and finite, got {self.scale}")
        if self.kind == "minibatch_subset" and self.scale > 1:
            raise ConfigError(f"minibatch fraction must lie in [0, 1], got {self.scale}")
        # numpy's generators take no negative seed
        if as_int("noise.seed", self.seed) < 0:
            raise ConfigError(f"noise.seed must be non-negative, got {self.seed}")

    @property
    def active(self) -> bool:
        return self.kind != "none" and self.scale > 0


class Problem:
    """Objective with an exact gradient; immutable after construction.

    ``gradient_fn`` computes the gradient alone, for training steps that do
    not need the loss; it must return what ``loss_and_grad`` returns as its
    gradient, bit for bit.
    """

    def __init__(self, name, dim, loss_and_grad, gradient_fn, optimum_value=None):
        self.name = name
        self.dim = as_int("dim", dim)
        self._loss_and_grad = loss_and_grad
        self._gradient = gradient_fn
        self.optimum_value = optimum_value

    def _checked(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        if theta.ndim != 1 or theta.size != self.dim:
            raise ValueError(f"{self.name}: theta must have shape ({self.dim},), got {theta.shape}")
        return theta

    def evaluate(self, theta):
        """Return ``(loss, gradient)`` at ``theta``."""
        loss, grad = self._loss_and_grad(self._checked(theta))
        return float(loss), np.asarray(grad, dtype=np.float64)

    def gradient(self, theta):
        """Return the gradient at ``theta``, equal to ``evaluate(theta)[1]``, without the loss."""
        return np.asarray(self._gradient(self._checked(theta)), dtype=np.float64)

    def __repr__(self):
        return f"Problem({self.name!r}, dim={self.dim})"


class LogisticProblem(Problem):
    """Binary logistic regression over a fixed synthetic dataset.

    Labels live in {-1, +1}; the loss is the mean of
    ``log(1 + exp(-y * x.theta))``.  Supports subset gradients for
    minibatch noise and a training-accuracy readout.
    """

    def __init__(self, name, features, labels):
        self.features = features
        self.labels = labels
        self.n_samples = features.shape[0]
        super().__init__(name, features.shape[1], self._full_loss_and_grad, self._full_gradient)

    @staticmethod
    def _margins_grad_on(features, labels, theta):
        margins = labels * (features @ theta)
        # sigmoid(-m), evaluated on the non-overflowing branch per sign
        sig = np.empty_like(margins)
        pos = margins >= 0
        e = np.exp(-margins[pos])
        sig[pos] = e / (1.0 + e)
        sig[~pos] = 1.0 / (1.0 + np.exp(margins[~pos]))
        grad = -(labels[:, None] * features * sig[:, None]).mean(axis=0)
        return margins, grad

    def _full_gradient(self, theta):
        return self._margins_grad_on(self.features, self.labels, theta)[1]

    def _full_loss_and_grad(self, theta):
        margins, grad = self._margins_grad_on(self.features, self.labels, theta)
        # log(1 + exp(-m)) via logaddexp for overflow safety
        return float(np.mean(np.logaddexp(0.0, -margins))), grad

    def minibatch_gradient(self, theta, indices):
        """Exact mean gradient over the sample subset ``indices``."""
        theta = self._checked(theta)
        idx = np.asarray(indices, dtype=np.intp)
        _, grad = self._margins_grad_on(self.features[idx], self.labels[idx], theta)
        return grad

    def accuracy(self, theta) -> float:
        """Fraction of training samples classified on the correct side."""
        theta = self._checked(theta)
        return float(np.mean((self.features @ theta > 0) == (self.labels > 0)))


def quadratic(dim: int, condition_number: float = 1.0) -> Problem:
    """Convex diagonal quadratic ``0.5 * theta.D.theta``.

    Eigenvalues of ``D`` are log-spaced over ``[1, condition_number]``;
    the optimum value is 0 at the origin.
    """
    dim = as_int("dim", dim)
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if not 1.0 <= condition_number < np.inf:
        raise ValueError(f"condition_number must be >= 1 and finite, got {condition_number}")
    eigs = np.logspace(0.0, np.log10(condition_number), dim)

    def gradient(theta):
        return eigs * theta

    def loss_and_grad(theta):
        grad = gradient(theta)
        return 0.5 * float(theta @ grad), grad

    return Problem(
        f"quadratic(dim={dim},cond={condition_number:g})", dim, loss_and_grad, optimum_value=0.0, gradient_fn=gradient
    )


def rosenbrock(dim: int) -> Problem:
    """Chained Rosenbrock over independent coordinate pairs; optimum 0 at all-ones."""
    dim = as_int("dim", dim)
    if dim < 2 or dim % 2 != 0:
        raise ValueError(f"dim must be a positive even integer >= 2, got {dim}")

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

    return Problem(f"rosenbrock(dim={dim})", dim, loss_and_grad, optimum_value=0.0, gradient_fn=gradient)


def large_grad_small_curvature(g_mag: float, curvature: float) -> Problem:
    """One-dimensional ramp with slight convexity: ``g_mag*x + 0.5*curvature*x^2``.

    Near the start the gradient magnitude is ``~g_mag`` while its change per
    step is ``~curvature * dx``: the regime where the squared-gradient EMA is
    large but the belief EMA stays small, so belief-style kernels take larger
    steps than variance-style ones.
    """
    if not 0.0 < g_mag < np.inf:
        raise ValueError(f"g_mag must be positive and finite, got {g_mag}")
    if not 0.0 < curvature < np.inf:
        raise ValueError(f"curvature must be positive and finite, got {curvature}")

    def gradient(theta):
        return np.array([g_mag + curvature * theta[0]])

    def loss_and_grad(theta):
        x = theta[0]
        return g_mag * x + 0.5 * curvature * x * x, gradient(theta)

    optimum = -g_mag * g_mag / (2.0 * curvature)
    return Problem(
        f"large_grad_small_curvature(g_mag={g_mag:g},curvature={curvature:g})",
        1,
        loss_and_grad,
        optimum_value=optimum,
        gradient_fn=gradient,
    )


def logistic_regression_synthetic(n_samples: int, dim: int, margin: float, seed: int = 0) -> LogisticProblem:
    """Seeded linearly separable binary classification with a guaranteed margin.

    Samples are standard normal, then shifted by ``margin`` along the true
    separating direction on each point's own side, so every sample satisfies
    ``|x . w*| >= margin``.  Generation is a pure function of ``seed``.
    """
    n_samples, dim, seed = as_int("n_samples", n_samples), as_int("dim", dim), as_int("seed", seed)
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if not 0.0 < margin < np.inf:
        raise ValueError(f"margin must be positive and finite, got {margin}")
    # numpy's generators take no negative seed
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")

    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    features = rng.standard_normal((n_samples, dim))
    labels = np.where(features @ direction >= 0, 1.0, -1.0)
    features = features + margin * labels[:, None] * direction

    name = f"logistic_regression_synthetic(n={n_samples},dim={dim},margin={margin:g},seed={seed})"
    return LogisticProblem(name, features, labels)


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
    """Max absolute deviation of the analytic gradient from central differences."""
    theta = np.asarray(theta, dtype=np.float64)
    _, grad = problem.evaluate(theta)
    worst = 0.0
    for j in range(problem.dim):
        bumped = theta.copy()
        bumped[j] = theta[j] + h
        f_plus, _ = problem.evaluate(bumped)
        bumped[j] = theta[j] - h
        f_minus, _ = problem.evaluate(bumped)
        fd = (f_plus - f_minus) / (2.0 * h)
        worst = max(worst, abs(fd - grad[j]))
    return worst


class GradientSource:
    """Per-step training-gradient provider, optionally noisy.

    Draws are deterministic given the noise spec and ``replica_seed``.  With
    an inactive spec (kind ``none`` or ``scale == 0``) the source returns the
    noiseless gradient bit-exactly and never touches a generator.
    """

    def __init__(self, problem: Problem, noise: NoiseSpec | None = None, replica_seed: int = 0):
        self.problem = problem
        self.noise = noise if noise is not None and noise.active else None
        if self.noise is not None:
            self._rng = np.random.default_rng([self.noise.seed, replica_seed])
            if self.noise.kind == "minibatch_subset":
                if not isinstance(problem, LogisticProblem):
                    raise ConfigError(
                        f"minibatch_subset noise needs a finite-sample problem, got {problem.name}"
                    )
                self._batch = max(1, round(self.noise.scale * problem.n_samples))

    def gradient(self, theta) -> np.ndarray:
        """Training gradient for one step; advances the noise stream when active."""
        if self.noise is None:
            return self.problem.gradient(theta)
        if self.noise.kind == "gaussian_additive":
            return self.problem.gradient(theta) + self.noise.scale * self._rng.standard_normal(self.problem.dim)
        indices = self._rng.choice(self.problem.n_samples, size=self._batch, replace=False)
        return self.problem.minibatch_gradient(theta, indices)
