"""Scalar reference implementation for differential testing of the kernels.

``replay`` recomputes an entire optimizer trajectory one element at a time
with plain scalar loops in 80-bit extended precision, one statement per
update stage, no vectorization and no algebraic rearrangement.  The six
per-kernel replay functions deliberately repeat each other instead of
sharing a parameterized core: this module must stay an independent
restatement of the update rules, not a second client of
``adaplus.kernels``.  It takes from there only ``HyperParams`` and
``read_stream``, the reader of a run's arguments that ``drive_stream`` calls
too, so that both sides refuse the same input with the same error.  The
reader computes no update.

The gradient stream, found finite by the reader, is cast to extended
precision in one call, exactly.  Each element of a step extends the step's
flat row by its nine stages, in ``ALL_FIELDS`` order, and the rows are held
until the trajectory is cast: steps x dim x 9 scalars, with dim <=
``MAX_DIM``.  The whole trajectory is then rounded in a single call to one
``(steps, 9, dim)`` float64 array, the form ``kernels.drive_stream``
returns, which rounds each element exactly as converting it alone would.
The kernels are expected to reproduce every transcript field within 1e-12
(scaled relative deviation, see ``transcript.scaled_deviation``): their
transcripts come from the Python-float core, and above
``kernels.SCALAR_MAX`` the ufunc sweep's parameters and moments are held to
the same bound.  They may reassociate arithmetic, the oracle must not.

The bound's domain is betas of 0 and of 0.01 up to 1, which the tests
try on a grid and on drawn runs; the belief kernels also need a beta2
above 0.  Where ``t * (1 - b) < 1e-3`` both sides take the bias correction
``1 - b**t`` as ``-expm1(t * log1p(b - 1))``: there it is so small that
the rounding of ``b**t`` would be large against it.  The bound does not
hold where the belief residual ``g - m``, which is
``beta1 * (g - m_prev)``, is small against the rounding of ``m``: at a
beta1 in (0, 0.01), and at a beta2 of 0, where the denominator is this
step's residual alone.  With ``eps = 0``, on
streams of 12 steps and 64 elements, adabelief deviated by up to 2e-11
at a beta1 of 1e-5, 4e-9 at 1e-3 with a beta2 of 0, and 2e-12 at 0.9
with a beta2 of 0.
"""

import numpy as np

from .kernels import HyperParams, read_stream
from .transcript import first_non_finite

# Replay rejects larger vectors: the oracle is a correctness tool, not a
# production path.
MAX_DIM = 64

_LD = np.longdouble
_sqrt = np.sqrt


def _pack(steps):
    # steps[t - 1] is step t's flat row: each element's nine stages in turn,
    # in ALL_FIELDS order.  The trajectory is one extended-precision
    # (steps, dim * 9) block, read as (steps, dim, 9) and cast to
    # (steps, 9, dim) float64 in one call (each element rounds as it would
    # alone).  Values beyond float64 range cast to inf here; the first step
    # holding a non-finite stage is reported as a structured error
    trajectory = np.array(steps, dtype=_LD).reshape(len(steps), -1, 9).transpose(0, 2, 1).astype(np.float64, order="C")
    error = first_non_finite(trajectory)
    if error is not None:
        raise error
    return trajectory


def _replay_adaplus(stream, theta0, hp, lrs):
    one = _LD(1.0)
    b1, b2, eps, wd = _LD(hp.beta1), _LD(hp.beta2), _LD(hp.eps), _LD(hp.weight_decay)
    nb1 = one - b1
    nb2 = one - b2
    use_belief, use_nesterov = hp.use_belief, hp.use_nesterov
    dim = theta0.size
    theta = [_LD(x) for x in theta0]
    m = [_LD(0.0)] * dim
    s = [_LD(0.0)] * dim
    out = []
    for t, (g_vec, lr) in enumerate(zip(stream, lrs), start=1):
        lr = _LD(lr)
        lr_wd = lr * wd
        bc1 = -np.expm1(t * np.log1p(b1 - one)) if t * nb1 < 1e-3 else one - b1**t
        bc2 = -np.expm1(t * np.log1p(b2 - one)) if t * nb2 < 1e-3 else one - b2**t
        rows = []
        for i, g in enumerate(g_vec):
            decay = lr_wd * theta[i]
            theta_d = theta[i] - decay
            m_new = b1 * m[i] + nb1 * g
            if use_belief:
                residual = g - m_new
                s_new = b2 * s[i] + nb2 * residual * residual + eps
            else:
                s_new = b2 * s[i] + nb2 * g * g + eps
            if use_nesterov:
                m_bar = b1 * m_new + nb1 * g
            else:
                m_bar = m_new
            m_hat = m_bar / bc1
            s_hat = s_new / bc2
            delta = -(lr * m_hat) / (_sqrt(s_hat) + eps)
            theta_new = theta_d + delta
            m[i], s[i], theta[i] = m_new, s_new, theta_new
            rows.extend((g, m_new, s_new, m_bar, m_hat, s_hat, decay, delta, theta_new))
        out.append(rows)
    return out


def _replay_adam(stream, theta0, hp, lrs):
    one = _LD(1.0)
    b1, b2, eps = _LD(hp.beta1), _LD(hp.beta2), _LD(hp.eps)
    nb1 = one - b1
    nb2 = one - b2
    zero = _LD(0.0)
    dim = theta0.size
    theta = [_LD(x) for x in theta0]
    m = [zero] * dim
    v = [zero] * dim
    out = []
    for t, (g_vec, lr) in enumerate(zip(stream, lrs), start=1):
        lr = _LD(lr)
        bc1 = -np.expm1(t * np.log1p(b1 - one)) if t * nb1 < 1e-3 else one - b1**t
        bc2 = -np.expm1(t * np.log1p(b2 - one)) if t * nb2 < 1e-3 else one - b2**t
        rows = []
        for i, g in enumerate(g_vec):
            m_new = b1 * m[i] + nb1 * g
            v_new = b2 * v[i] + nb2 * g * g
            m_hat = m_new / bc1
            v_hat = v_new / bc2
            delta = -(lr * m_hat) / (_sqrt(v_hat) + eps)
            theta_new = theta[i] + delta
            m[i], v[i], theta[i] = m_new, v_new, theta_new
            rows.extend((g, m_new, v_new, m_new, m_hat, v_hat, zero, delta, theta_new))
        out.append(rows)
    return out


def _replay_adamw(stream, theta0, hp, lrs):
    one = _LD(1.0)
    b1, b2, eps, wd = _LD(hp.beta1), _LD(hp.beta2), _LD(hp.eps), _LD(hp.weight_decay)
    nb1 = one - b1
    nb2 = one - b2
    dim = theta0.size
    theta = [_LD(x) for x in theta0]
    m = [_LD(0.0)] * dim
    v = [_LD(0.0)] * dim
    out = []
    for t, (g_vec, lr) in enumerate(zip(stream, lrs), start=1):
        lr = _LD(lr)
        lr_wd = lr * wd
        bc1 = -np.expm1(t * np.log1p(b1 - one)) if t * nb1 < 1e-3 else one - b1**t
        bc2 = -np.expm1(t * np.log1p(b2 - one)) if t * nb2 < 1e-3 else one - b2**t
        rows = []
        for i, g in enumerate(g_vec):
            decay = lr_wd * theta[i]
            theta_d = theta[i] - decay
            m_new = b1 * m[i] + nb1 * g
            v_new = b2 * v[i] + nb2 * g * g
            m_hat = m_new / bc1
            v_hat = v_new / bc2
            delta = -(lr * m_hat) / (_sqrt(v_hat) + eps)
            theta_new = theta_d + delta
            m[i], v[i], theta[i] = m_new, v_new, theta_new
            rows.extend((g, m_new, v_new, m_new, m_hat, v_hat, decay, delta, theta_new))
        out.append(rows)
    return out


def _replay_nadam(stream, theta0, hp, lrs):
    one = _LD(1.0)
    b1, b2, eps = _LD(hp.beta1), _LD(hp.beta2), _LD(hp.eps)
    nb1 = one - b1
    nb2 = one - b2
    zero = _LD(0.0)
    use_nesterov = hp.use_nesterov
    dim = theta0.size
    theta = [_LD(x) for x in theta0]
    m = [zero] * dim
    v = [zero] * dim
    out = []
    for t, (g_vec, lr) in enumerate(zip(stream, lrs), start=1):
        lr = _LD(lr)
        bc1 = -np.expm1(t * np.log1p(b1 - one)) if t * nb1 < 1e-3 else one - b1**t
        bc2 = -np.expm1(t * np.log1p(b2 - one)) if t * nb2 < 1e-3 else one - b2**t
        rows = []
        for i, g in enumerate(g_vec):
            m_new = b1 * m[i] + nb1 * g
            v_new = b2 * v[i] + nb2 * g * g
            if use_nesterov:
                m_bar = b1 * m_new + nb1 * g
            else:
                m_bar = m_new
            m_hat = m_bar / bc1
            v_hat = v_new / bc2
            delta = -(lr * m_hat) / (_sqrt(v_hat) + eps)
            theta_new = theta[i] + delta
            m[i], v[i], theta[i] = m_new, v_new, theta_new
            rows.extend((g, m_new, v_new, m_bar, m_hat, v_hat, zero, delta, theta_new))
        out.append(rows)
    return out


def _replay_adabelief(stream, theta0, hp, lrs):
    one = _LD(1.0)
    b1, b2, eps, wd = _LD(hp.beta1), _LD(hp.beta2), _LD(hp.eps), _LD(hp.weight_decay)
    nb1 = one - b1
    nb2 = one - b2
    zero = _LD(0.0)
    decoupled = hp.decoupled_decay
    dim = theta0.size
    theta = [_LD(x) for x in theta0]
    m = [zero] * dim
    s = [zero] * dim
    out = []
    for t, (g_vec, lr) in enumerate(zip(stream, lrs), start=1):
        lr = _LD(lr)
        lr_wd = lr * wd
        bc1 = -np.expm1(t * np.log1p(b1 - one)) if t * nb1 < 1e-3 else one - b1**t
        bc2 = -np.expm1(t * np.log1p(b2 - one)) if t * nb2 < 1e-3 else one - b2**t
        rows = []
        for i, g in enumerate(g_vec):
            if decoupled:
                decay = lr_wd * theta[i]
                theta_d = theta[i] - decay
            else:
                decay = zero
                theta_d = theta[i]
            m_new = b1 * m[i] + nb1 * g
            residual = g - m_new
            s_new = b2 * s[i] + nb2 * residual * residual + eps
            m_hat = m_new / bc1
            s_hat = s_new / bc2
            delta = -(lr * m_hat) / (_sqrt(s_hat) + eps)
            theta_new = theta_d + delta
            m[i], s[i], theta[i] = m_new, s_new, theta_new
            rows.extend((g, m_new, s_new, m_new, m_hat, s_hat, decay, delta, theta_new))
        out.append(rows)
    return out


def _replay_sgdm(stream, theta0, hp, lrs):
    b1 = _LD(hp.beta1)
    zero = _LD(0.0)
    use_nesterov = hp.use_nesterov
    dim = theta0.size
    theta = [_LD(x) for x in theta0]
    m = [zero] * dim
    out = []
    for g_vec, lr in zip(stream, lrs):
        lr = _LD(lr)
        rows = []
        for i, g in enumerate(g_vec):
            if use_nesterov:
                m_new = b1 * m[i] + lr * g
                m_bar = b1 * m_new + lr * g
                delta = -m_bar
            else:
                m_new = b1 * m[i] + g
                m_bar = m_new
                delta = -(lr * m_bar)
            theta_new = theta[i] + delta
            m[i], theta[i] = m_new, theta_new
            rows.extend((g, m_new, zero, m_bar, m_bar, zero, zero, delta, theta_new))
        out.append(rows)
    return out


_REPLAYS = {
    "adaplus": _replay_adaplus,
    "adam": _replay_adam,
    "adamw": _replay_adamw,
    "nadam": _replay_nadam,
    "adabelief": _replay_adabelief,
    "sgdm": _replay_sgdm,
}


def replay(kernel_id: str, stream, theta0, hp: HyperParams, lrs) -> np.ndarray:
    """Recompute a full trajectory for ``kernel_id``: one ``(steps, 9, dim)``
    float64 array whose ``[t - 1]`` holds step ``t``'s nine fields as rows,
    in ``ALL_FIELDS`` order.

    ``stream`` is a non-empty sequence of gradient vectors, ``lrs`` the
    per-step positive learning rates (same length); the arguments are those
    of ``kernels.drive_stream``, read by the same ``kernels.read_stream``,
    and only a ``dim`` above ``MAX_DIM`` is refused here alone.  Pure:
    identical inputs produce a bit-identical trajectory.
    """
    if kernel_id not in _REPLAYS:
        raise ValueError(f"unknown kernel id {kernel_id!r}; expected one of {tuple(_REPLAYS)}")
    grads, params, lrs = read_stream(stream, theta0, lrs)
    if params.dim > MAX_DIM:
        raise ValueError(f"replay supports dim <= {MAX_DIM}, got {params.dim}")
    # a division by zero, an invalid operation or an overflow is raised as a
    # structured ``NonFiniteValue`` once the trajectory is packed; numpy's
    # own warnings would only come before it.  Past a failing step the replay
    # goes on in extended precision alone, and the error named is the first
    # failing step's.  The gradients are cast to extended precision in one
    # call, exactly
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _pack(_REPLAYS[kernel_id](grads.astype(_LD), params.values, hp, lrs))
