"""Scalar reference implementation for differential testing of the kernels.

``replay`` recomputes an entire optimizer trajectory one element at a time
with plain scalar loops in 80-bit extended precision, one statement per
update stage, no vectorization and no algebraic rearrangement.  The six
per-kernel replay functions deliberately repeat each other instead of
sharing a parameterized core: this module must stay an independent
restatement of the update rules, not a second client of
``adaplus.kernels``.

Transcripts are rounded to float64 on assembly: a step's nine columns form
one extended-precision block that is cast to float64 in a single call,
which rounds each element exactly as converting it alone would.  The
vectorized kernels are expected to reproduce every transcript field within
1e-12 (scaled relative deviation, see ``transcript.scaled_deviation``); they
may reassociate arithmetic, the oracle must not.  Inputs are validated with
one finiteness scan over the whole gradient stream and one over the rates;
only a failing scan is repeated step by step, to name the first bad step.
"""

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue
from .kernels import HyperParams
from .transcript import StepTranscript

# Replay rejects larger vectors: the oracle is a correctness tool, not a
# production path.
MAX_DIM = 64

_LD = np.longdouble
_sqrt = np.sqrt


def _validated(kernel_id, stream, theta0, lrs):
    if kernel_id not in _REPLAYS:
        raise ValueError(f"unknown kernel id {kernel_id!r}; expected one of {tuple(_REPLAYS)}")
    stream = [np.asarray(g, dtype=np.float64) for g in stream]
    if not stream:
        raise ValueError("gradient stream must be non-empty")
    theta0 = np.asarray(theta0, dtype=np.float64)
    dim = theta0.size
    if dim < 1 or theta0.ndim != 1:
        raise ValueError("theta0 must be a non-empty 1-D vector")
    if dim > MAX_DIM:
        raise ValueError(f"replay supports dim <= {MAX_DIM}, got {dim}")
    if len(lrs) != len(stream):
        raise ValueError(f"lrs has length {len(lrs)}, stream has length {len(stream)}")
    # one scan of the whole stream and one of the rates; only when either
    # fails are they scanned step by step, to name the first failure
    if not (all(g.shape == (dim,) for g in stream) and np.isfinite(stream).all()):
        for step, g in enumerate(stream, start=1):
            if g.ndim != 1 or g.size != dim:
                raise DimensionMismatch(f"gradient at step {step}", dim, g.size)
            bad = np.flatnonzero(~np.isfinite(g))
            if bad.size:
                raise NonFiniteValue("gradient", index=int(bad[0]), step=step)
    rates = np.asarray(lrs)
    # rates that numpy does not read as floats are judged one by one
    if not (rates.dtype.kind == "f" and np.isfinite(rates).all() and (rates > 0).all()):
        for step, lr in enumerate(lrs, start=1):
            if not (np.isfinite(lr) and lr > 0):
                raise ValueError(f"lr at step {step} must be a positive finite real, got {lr}")
    return stream, theta0, [float(lr) for lr in lrs]


def _pack(t, *columns):
    # the columns come in StepTranscript's field order; they become one
    # extended-precision block, cast to float64 in one call (each element
    # rounds as it would alone); values beyond float64 range cast to inf
    # here and are reported below as structured errors
    block = np.array(columns, dtype=_LD).astype(np.float64)
    transcript = StepTranscript(t, *block)
    if not np.isfinite(block).all():
        error = transcript.first_non_finite()
        if error is not None:  # decay_applied is not a stage of its own
            raise error
    return transcript


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
    t = 0
    for g_vec, lr in zip(stream, lrs):
        t = t + 1
        lr = _LD(lr)
        lr_wd = lr * wd
        bc1 = one - b1**t
        bc2 = one - b2**t
        rows = [[] for _ in range(9)]
        g_c, m_c, s_c, mbar_c, mhat_c, shat_c, dec_c, dth_c, th_c = rows
        for i in range(dim):
            g = _LD(g_vec[i])
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
            g_c.append(g)
            m_c.append(m_new)
            s_c.append(s_new)
            mbar_c.append(m_bar)
            mhat_c.append(m_hat)
            shat_c.append(s_hat)
            dec_c.append(decay)
            dth_c.append(delta)
            th_c.append(theta_new)
        out.append(_pack(t, *rows))
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
    t = 0
    for g_vec, lr in zip(stream, lrs):
        t = t + 1
        lr = _LD(lr)
        bc1 = one - b1**t
        bc2 = one - b2**t
        rows = [[] for _ in range(9)]
        g_c, m_c, v_c, mbar_c, mhat_c, vhat_c, dec_c, dth_c, th_c = rows
        for i in range(dim):
            g = _LD(g_vec[i])
            m_new = b1 * m[i] + nb1 * g
            v_new = b2 * v[i] + nb2 * g * g
            m_hat = m_new / bc1
            v_hat = v_new / bc2
            delta = -(lr * m_hat) / (_sqrt(v_hat) + eps)
            theta_new = theta[i] + delta
            m[i], v[i], theta[i] = m_new, v_new, theta_new
            g_c.append(g)
            m_c.append(m_new)
            v_c.append(v_new)
            mbar_c.append(m_new)
            mhat_c.append(m_hat)
            vhat_c.append(v_hat)
            dec_c.append(zero)
            dth_c.append(delta)
            th_c.append(theta_new)
        out.append(_pack(t, *rows))
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
    t = 0
    for g_vec, lr in zip(stream, lrs):
        t = t + 1
        lr = _LD(lr)
        lr_wd = lr * wd
        bc1 = one - b1**t
        bc2 = one - b2**t
        rows = [[] for _ in range(9)]
        g_c, m_c, v_c, mbar_c, mhat_c, vhat_c, dec_c, dth_c, th_c = rows
        for i in range(dim):
            g = _LD(g_vec[i])
            decay = lr_wd * theta[i]
            theta_d = theta[i] - decay
            m_new = b1 * m[i] + nb1 * g
            v_new = b2 * v[i] + nb2 * g * g
            m_hat = m_new / bc1
            v_hat = v_new / bc2
            delta = -(lr * m_hat) / (_sqrt(v_hat) + eps)
            theta_new = theta_d + delta
            m[i], v[i], theta[i] = m_new, v_new, theta_new
            g_c.append(g)
            m_c.append(m_new)
            v_c.append(v_new)
            mbar_c.append(m_new)
            mhat_c.append(m_hat)
            vhat_c.append(v_hat)
            dec_c.append(decay)
            dth_c.append(delta)
            th_c.append(theta_new)
        out.append(_pack(t, *rows))
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
    t = 0
    for g_vec, lr in zip(stream, lrs):
        t = t + 1
        lr = _LD(lr)
        bc1 = one - b1**t
        bc2 = one - b2**t
        rows = [[] for _ in range(9)]
        g_c, m_c, v_c, mbar_c, mhat_c, vhat_c, dec_c, dth_c, th_c = rows
        for i in range(dim):
            g = _LD(g_vec[i])
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
            g_c.append(g)
            m_c.append(m_new)
            v_c.append(v_new)
            mbar_c.append(m_bar)
            mhat_c.append(m_hat)
            vhat_c.append(v_hat)
            dec_c.append(zero)
            dth_c.append(delta)
            th_c.append(theta_new)
        out.append(_pack(t, *rows))
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
    t = 0
    for g_vec, lr in zip(stream, lrs):
        t = t + 1
        lr = _LD(lr)
        lr_wd = lr * wd
        bc1 = one - b1**t
        bc2 = one - b2**t
        rows = [[] for _ in range(9)]
        g_c, m_c, s_c, mbar_c, mhat_c, shat_c, dec_c, dth_c, th_c = rows
        for i in range(dim):
            g = _LD(g_vec[i])
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
            g_c.append(g)
            m_c.append(m_new)
            s_c.append(s_new)
            mbar_c.append(m_new)
            mhat_c.append(m_hat)
            shat_c.append(s_hat)
            dec_c.append(decay)
            dth_c.append(delta)
            th_c.append(theta_new)
        out.append(_pack(t, *rows))
    return out


def _replay_sgdm(stream, theta0, hp, lrs):
    b1 = _LD(hp.beta1)
    zero = _LD(0.0)
    use_nesterov = hp.use_nesterov
    dim = theta0.size
    theta = [_LD(x) for x in theta0]
    m = [zero] * dim
    out = []
    t = 0
    for g_vec, lr in zip(stream, lrs):
        t = t + 1
        lr = _LD(lr)
        rows = [[] for _ in range(9)]
        g_c, m_c, s_c, mbar_c, mhat_c, shat_c, dec_c, dth_c, th_c = rows
        for i in range(dim):
            g = _LD(g_vec[i])
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
            g_c.append(g)
            m_c.append(m_new)
            s_c.append(zero)
            mbar_c.append(m_bar)
            mhat_c.append(m_bar)
            shat_c.append(zero)
            dec_c.append(zero)
            dth_c.append(delta)
            th_c.append(theta_new)
        out.append(_pack(t, *rows))
    return out


_REPLAYS = {
    "adaplus": _replay_adaplus,
    "adam": _replay_adam,
    "adamw": _replay_adamw,
    "nadam": _replay_nadam,
    "adabelief": _replay_adabelief,
    "sgdm": _replay_sgdm,
}


def replay(kernel_id: str, stream, theta0, hp: HyperParams, lrs) -> list[StepTranscript]:
    """Recompute a full trajectory for ``kernel_id`` and return its transcripts.

    ``stream`` is a sequence of gradient vectors, ``lrs`` the per-step
    positive learning rates (same length).  Pure: identical inputs produce
    bit-identical transcripts.
    """
    stream, theta0, lrs = _validated(kernel_id, stream, theta0, lrs)
    # a division by zero, an invalid operation or an overflow is raised as a
    # structured ``NonFiniteValue`` once its stage is packed; numpy's own
    # warnings would only come before it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _REPLAYS[kernel_id](stream, theta0, hp, lrs)
