"""Stateful optimizer kernels operating on flat float64 parameter vectors.

Six update rules from one adaptive family:

- ``adaplus_step``: belief-style stepsize adjustment + Nesterov-readjusted
  numerator + decoupled weight decay, all in a single step.
- ``adam_step`` / ``adamw_step`` / ``nadam_step`` / ``adabelief_step``: the
  ancestor baselines, each differing from ``adaplus_step`` in exactly one or
  two of those ingredients.
- ``sgdm_step``: classical momentum, with an optional Nesterov form.

All six run through one core.  A step call validates its inputs once,
computes into scratch buffers owned by its ``OptimizerState``, checks that
the new parameters and second moment are finite, and only then commits and
increments ``t``.

At small dims a step's cost is the number of numpy calls, so the core keeps
each call cheap.  Every scalar operand (``b1``, ``1 - b1``, ``b2``,
``1 - b2``, the recursion ``eps``, ``eps``, ``1 - b1^t``, ``1 - b2^t``,
``lr_t`` and ``1 - lr_t * wd``) is written each step into a ten-element
float64 array owned by the state and passed to the ufuncs as a 0-d view,
which numpy takes faster than a Python float; each value is the same Python
expression as before, so no bit changes.  Every ufunc gets its output as a
positional argument, and the core's five ufuncs are module globals.  The
finiteness check is one dot product: an inf or NaN in the new parameters or
second moment (the parameters with themselves for ``sgdm``) makes
``new_theta . new_s`` non-finite, and only then, since finite terms can
overflow, are the two arrays scanned exactly.  The step sets numpy's error
state (all errors ignored) for its own call, as a decorator: numpy's
warnings and ``FloatingPointError`` would only duplicate the structured
``NonFiniteValue``, and the caller's error state is the same after the call.

Above ``CHUNK`` (16384) elements the same core runs over consecutive blocks
of that many elements, so its ~20 elementwise passes find their operands in
L2 instead of streaming whole vectors through memory, and the temporary
shrinks to one block.  One block of the eight vectors the core touches is
1 MiB, half of a 2 MiB per-core L2; on such a host a step at dim 2^20 costs
about the same with blocks of 16 Ki to 64 Ki elements, more with 256 Ki and
up (out of L2) and more with 8 Ki and down (per-call overhead).  Each
element sees the same operations in the same order, so the bits are those of
one whole-vector call.  The finiteness check is then one dot per block,
taken while the block's new parameters and second moment are still in cache
instead of reading both whole vectors again after the sweep; the first block
that fails it ends the sweep, and the error is attributed over the whole
vector.  The transcript path and the re-run that attributes a failure use
the same core over the whole vector as one block.  A call that raises leaves
``t``, the moments and the parameters untouched.  The commit copies the new
parameters into ``params.values`` in place, so that array keeps its identity
and a caller may hold it across steps.  The moments are not copied:
``state.m`` and ``state.second_moment`` are rebound to the buffers the step
computed into, and the arrays they named before become scratch for the next
step.  Read them from the state after each step instead of holding them.

Transcripts are opt-in.  By default a step returns ``None`` and allocates
nothing.  With ``transcript=True`` it returns a ``StepTranscript``, for
diffing trajectories against the independent scalar reference in
``adaplus.oracle``.  The core takes a destination for every quantity it
computes: the lean step lets them share its four scratch buffers, while a
transcript passes the rows of one ``(9, dim)`` block, so each field is
computed in place in its row and nothing is copied out; only the rows that
restate another row or a constant (``m_bar`` without Nesterov, the
momentum kernel's ``m_hat`` and zero second moment, ``decay_applied``) are
filled after the core, and the state commits copies of the new moments.  A
non-finite result is attributed to the earliest stage that produced it by
reading those rows, which the lean step first fills by running the core
once more into a block, from the untouched state.

One step of the full kernel, elementwise, with hyper-parameters
``(lr, b1, b2, eps, wd)`` and scheduled rate ``lr_t``::

    t     <- t + 1
    theta <- theta * (1 - lr_t * wd)                  # decoupled decay
    m     <- b1 * m + (1 - b1) * g
    s     <- b2 * s + (1 - b2) * (g - m)^2 + eps      # belief term
    mbar  <- b1 * m + (1 - b1) * g                    # Nesterov readjustment
    mhat  <- mbar / (1 - b1^t)                        # bias correction
    shat  <- s / (1 - b2^t)
    theta <- theta - lr_t * mhat / (sqrt(shat) + eps)

The baselines drop or swap individual lines: the classical numerator uses
``m`` instead of ``mbar``, the variance denominator uses the EMA of ``g^2``
without the in-recursion ``eps``, and kernels without decoupled decay skip
the first parameter line.  ``KERNEL_STEPS`` maps each kernel id to its step
function, and ``REDUCTIONS`` lists the settings under which one kernel
equals another bit for bit.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue
from .transcript import StepTranscript


@dataclass(frozen=True)
class HyperParams:
    """Hyper-parameters shared by all kernels.

    ``use_nesterov`` and ``use_belief`` toggle the numerator readjustment and
    the belief denominator in the kernels where those are configurable;
    ``decoupled_decay`` enables decay in the belief baseline, which runs
    without decay by default.  Weight decay in ``adaplus_step`` and
    ``adamw_step`` is structural and controlled by ``weight_decay`` alone.
    """

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-2
    use_nesterov: bool = True
    use_belief: bool = True
    decoupled_decay: bool = False

    def __post_init__(self):
        if not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError(f"beta1 must lie in [0, 1), got {self.beta1}")
        if not 0.0 <= self.beta2 < 1.0:
            raise ValueError(f"beta2 must lie in [0, 1), got {self.beta2}")
        if self.eps < 0:
            raise ValueError(f"eps must be non-negative, got {self.eps}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {self.weight_decay}")


class OptimizerState:
    """Mutable per-vector optimizer state: step counter and the two EMAs.

    ``second_moment`` holds the belief EMA or the squared-gradient EMA
    depending on the kernel driving the state.  States are independent; one
    state must only ever be fed to one kernel.  Each step rebinds ``m`` and
    ``second_moment`` to new arrays and reuses the previous ones as scratch.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim}")
        self.dim = int(dim)
        self.t = 0
        self.m = np.zeros(self.dim)
        self.second_moment = np.zeros(self.dim)
        self._scratch = None


class ParamVector:
    """Flat float64 parameter vector; non-finite writes are rejected."""

    __slots__ = ("_values",)

    def __init__(self, values):
        self._values = None
        self.values = values

    @property
    def values(self) -> np.ndarray:
        return self._values

    @values.setter
    def values(self, new):
        arr = np.array(new, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("parameter vector must be a non-empty 1-D array")
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise NonFiniteValue("parameter", index=int(bad[0]))
        self._values = arr

    @property
    def dim(self) -> int:
        return self._values.size


@dataclass(frozen=True)
class LrSchedule:
    """Step-decay schedule: multiply the rate by ``decay_factor`` at each milestone epoch."""

    milestones: tuple[int, ...] = ()
    decay_factor: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "milestones", tuple(int(m) for m in self.milestones))
        if any(m <= 0 for m in self.milestones):
            raise ValueError("milestones must be positive epoch indices")
        if any(b >= a for a, b in zip(self.milestones[1:], self.milestones)):
            raise ValueError("milestones must be strictly increasing")
        if not self.decay_factor > 0:
            raise ValueError(f"decay_factor must be positive, got {self.decay_factor}")


def lr_at(schedule: LrSchedule, base_lr: float, epoch: int) -> float:
    """Effective rate at ``epoch``: ``base_lr * decay_factor ** (#milestones <= epoch)``."""
    if epoch < 0:
        raise ValueError(f"epoch must be non-negative, got {epoch}")
    passed = sum(1 for m in schedule.milestones if m <= epoch)
    return base_lr * schedule.decay_factor**passed


class _Rule(NamedTuple):
    """Which ingredients one kernel step uses; ``momentum`` selects the ``sgdm`` update."""

    momentum: bool
    apply_decay: bool
    use_belief: bool
    recursion_eps: float
    use_nesterov: bool


# elements per block of the sweep over a long vector (module docstring)
CHUNK = 16384


def _scratch(state: OptimizerState) -> tuple:
    # made on a state's first step: buffers for the next m, second moment and
    # theta (m and the second moment trade places with the state's arrays at
    # a commit), one temporary of one block's length, and the array of the
    # ten step coefficients with a 0-d view of each.
    if state._scratch is None:
        coefficients = np.empty(10)
        views = tuple(coefficients[i, ...] for i in range(10))
        state._scratch = (*np.empty((3, state.dim)), np.empty(min(state.dim, CHUNK)), coefficients, views)
    return state._scratch


def _all_finite(new_theta: np.ndarray, new_s: np.ndarray | None) -> bool:
    # an inf or NaN in either operand makes the dot product non-finite; an
    # overflow among finite terms can too, and falls through to the exact test
    other = new_theta if new_s is None else new_s
    if math.isfinite(new_theta.dot(other)):
        return True
    return bool(np.isfinite(new_theta).all()) and (new_s is None or bool(np.isfinite(new_s).all()))


# the core's ufuncs, bound once: a module global is found faster than ``np.<name>``
_multiply, _add, _subtract, _divide, _sqrt = np.multiply, np.add, np.subtract, np.divide, np.sqrt


def _core(theta, g, m, s, out, k, rule):
    """Compute one step of ``theta, g, m, s`` into the ``out`` buffers; nothing else is written.

    ``out`` is ``(new_m, new_s, m_bar, m_hat, s_hat, step, new_theta)``, a
    destination for each quantity the core computes, ``step`` being the
    negated update ``-delta_theta``.  Destinations may share a buffer where
    a quantity is dead once the next one is formed: the lean step passes its
    four scratch buffers as ``(new_m, new_s, a, a, new_theta, a, new_theta)``,
    the transcript a row of its block for each.  ``step`` and ``new_theta``
    also serve as temporaries before they get their values.  The new second
    moment and ``m_hat`` are not written for momentum, nor ``m_bar`` where
    it equals ``new_m`` (no Nesterov readjustment).  ``k`` holds the step
    coefficients as 0-d arrays, in the order ``_step`` writes them.  Returns
    the buffer holding the negated update.  The ufunc sequence keeps the
    order of operations of the elementwise update rules in the module
    docstring.
    """
    new_m, new_s, m_bar, m_hat, s_hat, step, new_theta = out
    b1, c1, b2, c2, recursion_eps, eps, bc1, bc2, lr, decay = k
    if rule.momentum:
        if rule.use_nesterov:
            _multiply(g, lr, step)
            _multiply(m, b1, new_m)
            _add(new_m, step, new_m)  # m = mu * m + lr_t * g
            _multiply(new_m, b1, new_theta)  # new_theta is a temporary until the update
            _add(step, new_theta, m_bar)  # m_bar = mu * m + lr_t * g, the applied step
            step = m_bar
        else:
            _multiply(m, b1, new_m)
            _add(new_m, g, new_m)  # m = mu * m + g
            _multiply(new_m, lr, step)  # lr_t * m, the applied step
        _subtract(theta, step, new_theta)
        return step

    # sums and products are formed as ``x + y`` where the rule reads
    # ``y + x``: IEEE addition and multiplication commute exactly
    _multiply(g, c1, step)  # (1 - b1) * g, shared by m and m_bar
    _multiply(m, b1, new_m)
    _add(new_m, step, new_m)  # m = b1 * m + (1 - b1) * g
    if rule.use_nesterov:
        _multiply(new_m, b1, new_theta)  # new_theta is a temporary until the update
        _add(step, new_theta, m_bar)  # m_bar = b1 * m + (1 - b1) * g
    else:
        m_bar = new_m
    if rule.use_belief:
        _subtract(g, new_m, new_theta)  # residual r = g - m
        _multiply(new_theta, c2, new_s)
        _multiply(new_s, new_theta, new_s)  # ((1 - b2) * r) * r
    else:
        _multiply(g, c2, new_s)
        _multiply(new_s, g, new_s)  # ((1 - b2) * g) * g
    _multiply(s, b2, new_theta)
    _add(new_s, new_theta, new_s)  # s = b2 * s + the term above
    if rule.recursion_eps:
        _add(new_s, recursion_eps, new_s)
    _divide(m_bar, bc1, m_hat)
    _divide(new_s, bc2, s_hat)
    _multiply(m_hat, lr, step)
    _sqrt(s_hat, new_theta)
    _add(new_theta, eps, new_theta)
    _divide(step, new_theta, step)  # lr_t * m_hat / (sqrt(s_hat) + eps), the negated update
    if rule.apply_decay:
        _multiply(theta, decay, new_theta)
        _subtract(new_theta, step, new_theta)
    else:
        _subtract(theta, step, new_theta)
    return step


def _transcribe(theta, g, m, s, k, rule, decay_rate) -> tuple:
    """Run the core over the whole vector into the rows of one ``(9, dim)``
    block, fill the rows that restate another row or a constant, and return
    the rows in ``StepTranscript`` field order."""
    g_row, new_m, new_s, m_bar, m_hat, s_hat, decay, delta, new_theta = np.empty((9, g.size))
    # copies are slice assignments, which at small dims cost a third of np.copyto
    g_row[...] = g
    step = _core(theta, g, m, s, (new_m, new_s, m_bar, m_hat, s_hat, delta, new_theta), k, rule)
    np.negative(step, delta)
    if not rule.use_nesterov:
        m_bar[...] = new_m
    if rule.momentum:
        m_hat[...] = m_bar
        new_s.fill(0.0)
        s_hat.fill(0.0)
    if rule.apply_decay:
        np.multiply(theta, decay_rate, decay)
    else:
        decay.fill(0.0)
    return g_row, new_m, new_s, m_bar, m_hat, s_hat, decay, delta, new_theta


# The decorator costs less per call than a ``with np.errstate`` block.  Under
# numpy >= 2 it sets a context token for each call, so each thread keeps its
# own error state.  Under numpy 1.x the saved state lives on this one shared
# ``errstate`` instance, so there the kernels are only safe single-threaded.
@np.errstate(all="ignore")
def _step(state: OptimizerState, params: ParamVector, grads, hp: HyperParams, lr_t: float,
          rule: _Rule, transcript: bool) -> StepTranscript | None:
    """Validate once, run the core, check, then commit."""
    # a float64 gradient is read where it lies; a transcript copies it
    g = np.asarray(grads, dtype=np.float64)
    theta = params.values
    dim = theta.size
    if g.ndim != 1 or g.size != dim:
        raise DimensionMismatch("gradient", dim, g.size)
    if state.dim != dim:
        raise DimensionMismatch("state", dim, state.dim)
    if not (math.isfinite(lr_t) and lr_t > 0):
        raise ValueError(f"lr_t must be a positive finite real, got {lr_t}")
    t = state.t + 1

    new_m, new_s, new_theta, a, coefficients, k = _scratch(state)
    # each coefficient is computed in Python floats and stored exactly, so
    # the ufuncs see the operand values of the update rules
    b1, b2 = hp.beta1, hp.beta2
    coefficients[...] = (b1, 1.0 - b1, b2, 1.0 - b2, rule.recursion_eps, hp.eps, 1.0 - b1**t, 1.0 - b2**t,
                         lr_t, 1.0 - lr_t * hp.weight_decay)
    m, s = state.m, state.second_moment
    # the second moment that is checked and committed; momentum keeps none
    kept_s = None if rule.momentum else new_s
    # every non-finite value, the gradient's included, reaches the new
    # parameter or the second moment (an inf denominator turns the update
    # into -0, so the parameter alone can hide one), so the finiteness check
    # covers every stage
    rows = None
    if transcript:
        rows = _transcribe(theta, g, m, s, k, rule, lr_t * hp.weight_decay)
        # the rows are the caller's: the state commits copies of them
        new_m[...] = rows[1]
        new_s[...] = rows[2]
        new_theta = rows[8]
        finite = _all_finite(new_theta, kept_s)
    elif dim <= CHUNK:
        # no slicing: at small dims it would cost more than the arithmetic
        _core(theta, g, m, s, (new_m, new_s, a, a, new_theta, a, new_theta), k, rule)
        finite = _all_finite(new_theta, kept_s)
    else:
        for lo in range(0, dim, CHUNK):
            hi = min(lo + CHUNK, dim)
            bm, bs, bt, ba = new_m[lo:hi], new_s[lo:hi], new_theta[lo:hi], a[: hi - lo]
            _core(theta[lo:hi], g[lo:hi], m[lo:hi], s[lo:hi], (bm, bs, ba, ba, bt, ba, bt), k, rule)
            # checked while the block is still in cache; a failure ends the
            # sweep, and the error is found over the whole vector below
            finite = _all_finite(bt, None if kept_s is None else bs)
            if not finite:
                break
    if not finite:
        # the gradient is named first when it is the cause
        bad = np.flatnonzero(~np.isfinite(g))
        if bad.size:
            raise NonFiniteValue("gradient", index=int(bad[0]), step=t)
        if rows is None:
            rows = _transcribe(theta, g, m, s, k, rule, lr_t * hp.weight_decay)
        raise StepTranscript(t, *rows).first_non_finite()

    # the parameters are updated in place; the moments trade places with
    # their scratch buffers, which costs no copy
    theta[...] = new_theta
    scratch = state._scratch
    if kept_s is None:
        state._scratch = (m,) + scratch[1:]
        state.m = new_m
    else:
        state._scratch = (m, s) + scratch[2:]
        state.m, state.second_moment = new_m, new_s
    state.t = t
    return StepTranscript(t, *rows) if transcript else None


def adaplus_step(
    state: OptimizerState,
    params: ParamVector,
    grads,
    hp: HyperParams,
    lr_t: float,
    *,
    transcript: bool = False,
) -> StepTranscript | None:
    """Full kernel: decoupled decay, belief denominator, Nesterov numerator.

    ``hp.use_belief`` and ``hp.use_nesterov`` toggle the respective
    ingredients (see ``REDUCTIONS``).  The ``eps`` added inside the
    second-moment recursion stays with the variance denominator too, so
    this kernel equals ``adamw_step`` only at ``eps = 0``.  Returns the
    step's ``StepTranscript`` when ``transcript`` is set, else ``None``; the
    same holds for every ``*_step`` function.
    """
    rule = _Rule(False, True, hp.use_belief, hp.eps, hp.use_nesterov)
    return _step(state, params, grads, hp, lr_t, rule, transcript)


def adam_step(state, params, grads, hp: HyperParams, lr_t: float, *, transcript: bool = False):
    """Classical adaptive baseline: variance denominator, no decay."""
    return _step(state, params, grads, hp, lr_t, _Rule(False, False, False, 0.0, False), transcript)


def adamw_step(state, params, grads, hp: HyperParams, lr_t: float, *, transcript: bool = False):
    """Adam preceded by decoupled weight decay ``theta *= 1 - lr_t * weight_decay``."""
    return _step(state, params, grads, hp, lr_t, _Rule(False, True, False, 0.0, False), transcript)


def nadam_step(state, params, grads, hp: HyperParams, lr_t: float, *, transcript: bool = False):
    """Adam with the Nesterov-readjusted numerator (toggled by ``hp.use_nesterov``)."""
    rule = _Rule(False, False, False, 0.0, hp.use_nesterov)
    return _step(state, params, grads, hp, lr_t, rule, transcript)


def adabelief_step(state, params, grads, hp: HyperParams, lr_t: float, *, transcript: bool = False):
    """Belief denominator with the classical numerator; decay only if ``hp.decoupled_decay``."""
    rule = _Rule(False, hp.decoupled_decay, True, hp.eps, False)
    return _step(state, params, grads, hp, lr_t, rule, transcript)


def sgdm_step(state, params, grads, hp: HyperParams, lr_t: float, *, transcript: bool = False):
    """Momentum baseline; ``hp.beta1`` doubles as the momentum coefficient.

    Classical form::

        m <- mu * m + g
        theta <- theta - lr_t * m

    Nesterov form (``hp.use_nesterov``), with the rate folded into the
    velocity::

        m <- mu * m + lr_t * g
        theta <- theta - (mu * m + lr_t * g)

    No second moment, no bias correction, no decay; the transcript's
    second-moment fields are zero and ``m_bar``/``m_hat`` hold the applied
    update direction.
    """
    return _step(state, params, grads, hp, lr_t, _Rule(True, False, False, 0.0, hp.use_nesterov), transcript)


# The kernel table: kernel id -> public step function.
KERNEL_STEPS = {
    "adaplus": adaplus_step,
    "adam": adam_step,
    "adamw": adamw_step,
    "nadam": nadam_step,
    "adabelief": adabelief_step,
    "sgdm": sgdm_step,
}

KERNEL_IDS = tuple(KERNEL_STEPS)

# The exact reductions of the family, as ``(label, left, right)`` with each
# side a ``(kernel id, HyperParams overrides)`` pair: driven over the same
# stream, the two sides give equal transcripts, every field and ``t``.
REDUCTIONS = (
    ("adaplus(no nesterov, wd=0) == adabelief",
     ("adaplus", {"use_nesterov": False, "weight_decay": 0.0}), ("adabelief", {})),
    ("adaplus(no nesterov) == adabelief(decoupled decay)",
     ("adaplus", {"use_nesterov": False}), ("adabelief", {"decoupled_decay": True})),
    ("adaplus(variance, no nesterov, eps=0) == adamw(eps=0)",
     ("adaplus", {"use_belief": False, "use_nesterov": False, "eps": 0.0}), ("adamw", {"eps": 0.0})),
    ("adaplus(variance, wd=0, eps=0) == nadam(eps=0)",
     ("adaplus", {"use_belief": False, "weight_decay": 0.0, "eps": 0.0}), ("nadam", {"eps": 0.0})),
    ("adamw(wd=0) == adam", ("adamw", {"weight_decay": 0.0}), ("adam", {})),
    ("nadam(no nesterov) == adam", ("nadam", {"use_nesterov": False}), ("adam", {})),
)


def drive_stream(kernel_id: str, stream, theta0, hp: HyperParams, lrs) -> list[StepTranscript]:
    """Feed a whole gradient stream through a fresh state and collect transcripts.

    Convenience harness for differential testing against ``oracle.replay``,
    which takes the same arguments.
    """
    if kernel_id not in KERNEL_STEPS:
        raise ValueError(f"unknown kernel id {kernel_id!r}; expected one of {KERNEL_IDS}")
    if len(lrs) != len(stream):
        raise ValueError(f"lrs has length {len(lrs)}, stream has length {len(stream)}")
    params = ParamVector(theta0)
    state = OptimizerState(params.dim)
    step = KERNEL_STEPS[kernel_id]
    return [step(state, params, g, hp, lr, transcript=True) for g, lr in zip(stream, lrs)]
