"""Stateful optimizer kernels operating on flat float64 parameter vectors.

Six update rules from one adaptive family:

- ``adaplus_step``: belief-style stepsize adjustment + Nesterov-readjusted
  numerator + decoupled weight decay, all in a single step.
- ``adam_step`` / ``adamw_step`` / ``nadam_step`` / ``adabelief_step``: the
  ancestor baselines, each differing from ``adaplus_step`` in exactly one or
  two of those ingredients.
- ``sgdm_step``: classical momentum, with an optional Nesterov form.

All six run through one core.  A step call validates its inputs once,
computes into buffers that its ``OptimizerState`` allocated when it was
made, checks that the new parameters and ``s_hat`` are finite, and only
then commits and increments ``t``.  A committing step allocates nothing.

At small dims a step's cost is the number of numpy calls, so the core keeps
each call cheap.  Every scalar operand (``b1``, ``1 - b1``, ``b2``,
``1 - b2``, the recursion ``eps``, ``eps``, ``1 - b1^t``, ``1 - b2^t``,
``lr_t`` and ``1 - lr_t * wd``) is written each step into a ten-element
float64 array owned by the state and passed to the ufuncs as a 0-d view,
which numpy takes faster than a Python float.  Every ufunc gets its output
as a positional argument, and the core's five ufuncs are module globals.
The finiteness check is one dot product over the two stages that every
non-finite value reaches: an inf or NaN in the new parameters or in
``s_hat`` (the parameters with themselves for ``sgdm``) makes
``new_theta . s_hat`` non-finite, and only then, since finite terms can
overflow, are the two arrays scanned exactly.  ``s_hat`` is read rather
than the second moment because it can overflow alone (it is the second
moment divided by ``1 - b2^t`` <= 1), and then the update is -0 and the
parameter stays finite; a finite ``s_hat`` means a finite second moment.
The step sets numpy's error state (all errors ignored) for its own call, as
a decorator: numpy's warnings and ``FloatingPointError`` would only
duplicate the structured ``NonFiniteValue``, and the caller's error state
is the same after the call.

Above ``CHUNK`` (16384) elements the same core runs over consecutive blocks
of that many elements, so its ~20 elementwise passes find their operands in
L2 instead of streaming whole vectors through memory, and the temporary
shrinks to one block.  One block of the nine vectors the core touches is
1.1 MiB, about half of a 2 MiB per-core L2; on such a host a step at dim
2^20 costs about the same with blocks of 16 Ki to 64 Ki elements, more with
256 Ki and up (out of L2) and more with 8 Ki and down (per-call overhead).
Each element sees the same operations in the same order, so the bits are
those of one whole-vector call.  The finiteness check is then one dot per
block, taken while the block's new parameters and ``s_hat`` are still in
cache instead of reading the whole parameter vector again after the sweep;
the first block that fails it ends the sweep.  The transcript path runs the
core over the whole vector as one block.

Every failing step is attributed the same way.  The gradient is scanned
first; if it is finite, the step is transcribed again one block at a time,
from the untouched state, and the earliest stage in ``FIELD_ORDER`` that
holds a non-finite value is raised at its first element.  Elements are
independent, so this is the error ``transcript.first_non_finite`` gives over
the whole vector, and the attribution holds no more than one block's
transcript at a time.  A call that raises leaves ``t``, the moments and the
parameters untouched.  The commit copies the new parameters into
``params.values`` in place, so that array keeps its identity and a caller
may hold it across steps.  The moments are not copied: ``state.m`` and
``state.second_moment`` trade places with the state's buffers for the next
ones, so the arrays they named before are written by the next step.  Read
them from the state after each step instead of holding them.

Transcripts are opt-in.  By default a step returns ``None``.  With
``transcript=True`` it returns a ``StepTranscript``, for diffing
trajectories against the independent scalar reference in ``adaplus.oracle``.
A transcript is the named rows of one ``(9, dim)`` block and nothing else:
it carries no step number (its step is ``state.t`` after the call) and is
compared through its block with ``np.array_equal``, as trajectories are.
``drive_stream`` stacks the steps' blocks into one ``(steps, 9, dim)``
trajectory.  The core takes a destination for every quantity it computes: the
lean step lets them share the state's four buffers, while a transcript
passes its rows by field name, so each field is computed in
place in its row and nothing is copied out; only the rows that restate
another row or a constant (``m_bar`` without Nesterov, the momentum kernel's
``m_hat`` and zero second moment, ``decay_applied``) are filled after the
core, and the state commits copies of the new moments.

One step of the full kernel, elementwise, with hyper-parameters
``(b1, b2, eps, wd)`` and the step's rate ``lr_t``, which the caller's
schedule gives::

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

from .errors import DimensionMismatch, NonFiniteValue, as_float, as_int, as_rate, non_negative, positive
from .transcript import FIELD_ORDER, StepTranscript, first_non_finite


@dataclass(frozen=True)
class HyperParams:
    """Hyper-parameters shared by all kernels: what a step reads besides its rate ``lr_t``.

    ``use_nesterov`` and ``use_belief`` toggle the numerator readjustment and
    the belief denominator in the kernels where those are configurable;
    ``decoupled_decay`` enables decay in the belief baseline, which runs
    without decay by default.  Weight decay in ``adaplus_step`` and
    ``adamw_step`` is structural and controlled by ``weight_decay`` alone.
    """

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-2
    use_nesterov: bool = True
    use_belief: bool = True
    decoupled_decay: bool = False

    def __post_init__(self):
        # each float field is checked and held as the float a step computes
        # with, so an int too large for a float is refused here, not by a step
        beta, decay = ("lie in [0, 1)", lambda v: 0.0 <= v < 1.0), ("be non-negative and finite", non_negative)
        for field, (domain, ok) in zip(("beta1", "beta2", "eps", "weight_decay"), (beta, beta, decay, decay)):
            object.__setattr__(self, field, as_float(field, getattr(self, field), domain, ok))
        # a truthy string or int would switch a part on, but is no bool to a config
        for field in ("use_nesterov", "use_belief", "decoupled_decay"):
            value = getattr(self, field)
            if not isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{field} must be a bool, got {value!r:.80}")
            object.__setattr__(self, field, bool(value))


# elements per block of the sweep over a long vector (module docstring)
CHUNK = 16384


class OptimizerState:
    """Mutable per-vector optimizer state: step counter and the two EMAs.

    ``second_moment`` holds the belief EMA or the squared-gradient EMA
    depending on the kernel driving the state.  States are independent; one
    state must only ever be fed to one kernel.  Each step rebinds ``m`` and
    ``second_moment`` to new arrays and reuses the previous ones for the
    next step.  Every buffer a step writes is allocated here.
    """

    def __init__(self, dim: int):
        self.dim = as_int("dim", dim, "be positive", positive)
        self.t = 0
        self.m = np.zeros(self.dim)
        self.second_moment = np.zeros(self.dim)
        # the next m and second moment, which trade places with the two
        # above at a commit, the next theta, and one block's temporary and s_hat
        self._next_m, self._next_s, self._theta = np.empty((3, self.dim))
        self._tmp, self._s_hat = np.empty((2, min(self.dim, CHUNK)))
        # the ten step coefficients, and a 0-d view of each for the ufuncs
        self._coefficients = np.empty(10)
        self._k = tuple(self._coefficients[i, ...] for i in range(10))


class ParamVector:
    """Flat float64 parameter vector, copied and checked finite when it is made.

    ``values`` is read-only: steps update that array in place.
    """

    __slots__ = ("_values",)

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("parameter vector must be a non-empty 1-D array")
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise NonFiniteValue("parameter", index=int(bad[0]))
        self._values = arr

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def dim(self) -> int:
        return self._values.size


class _Rule(NamedTuple):
    """Which ingredients one kernel step uses; ``momentum`` selects the ``sgdm`` update."""

    momentum: bool
    apply_decay: bool
    use_belief: bool
    recursion_eps: float
    use_nesterov: bool


def _all_finite(new_theta: np.ndarray, s_hat: np.ndarray | None) -> bool:
    # an inf or NaN in either operand makes the dot product non-finite; an
    # overflow among finite terms can too, and falls through to the exact test
    other = new_theta if s_hat is None else s_hat
    if math.isfinite(new_theta.dot(other)):
        return True
    return bool(np.isfinite(new_theta).all()) and (s_hat is None or bool(np.isfinite(s_hat).all()))


# the core's ufuncs, bound once: a module global is found faster than ``np.<name>``
_multiply, _add, _subtract, _divide, _sqrt = np.multiply, np.add, np.subtract, np.divide, np.sqrt


def _core(theta, g, m, s, out, k, rule):
    """Compute one step of ``theta, g, m, s`` into the ``out`` buffers; nothing else is written.

    ``out`` is ``(new_m, new_s, m_bar, m_hat, s_hat, step, new_theta)``, a
    destination for each quantity the core computes, ``step`` being the
    negated update ``-delta_theta``.  Destinations may share a buffer where
    a quantity is dead once the next one is formed: the lean step passes the
    state's five buffers as ``(new_m, new_s, a, a, s_hat, a, new_theta)``,
    the transcript a row of its block for each.  ``s_hat`` outlives the core
    in both, for the finiteness check.  ``step`` and ``new_theta``
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


def _transcribe(theta, g, m, s, k, rule, decay_rate) -> StepTranscript:
    """One step over the elements given, as a transcript whose fields are
    the rows of one ``(9, n)`` block: the core computes into the rows, and
    the rows that restate another row or a constant are filled after it."""
    tr = StepTranscript._make(np.empty((9, g.size)))
    # copies are slice assignments, which at small dims cost a third of np.copyto
    tr.g[...] = g
    out = (tr.m, tr.second_moment, tr.m_bar, tr.m_hat, tr.s_hat, tr.delta_theta, tr.theta_after)
    np.negative(_core(theta, g, m, s, out, k, rule), tr.delta_theta)
    if not rule.use_nesterov:
        tr.m_bar[...] = tr.m
    if rule.momentum:
        tr.m_hat[...] = tr.m_bar
        tr.second_moment.fill(0.0)
        tr.s_hat.fill(0.0)
    if rule.apply_decay:
        np.multiply(theta, decay_rate, tr.decay_applied)
    else:
        tr.decay_applied.fill(0.0)
    return tr


def _attribute(t, theta, g, m, s, k, rule, decay_rate) -> NonFiniteValue:
    """The error ``first_non_finite`` gives for the whole step, found one
    block at a time: the earliest stage over all blocks, at its first
    element.  Only one block's transcript is alive at a time."""
    found = []
    for lo in range(0, g.size, CHUNK):
        block = slice(lo, lo + CHUNK)
        # the block's (9, n) transcript as a one-step trajectory; no name holds
        # it, so it is freed before the next block's is made
        error = first_non_finite(
            _transcribe(theta[block], g[block], m[block], s[block], k, rule, decay_rate).g.base[None])
        if error is not None:
            found.append((FIELD_ORDER.index(error.stage), lo + error.index))
    stage, index = min(found)
    return NonFiniteValue(FIELD_ORDER[stage], index=index, step=t)


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
    lr_t = as_rate("lr_t", lr_t)
    t = state.t + 1

    new_m, new_s, new_theta, a, sh, k = state._next_m, state._next_s, state._theta, state._tmp, state._s_hat, state._k
    # each coefficient is computed in Python floats and stored exactly, so
    # the ufuncs see the operand values of the update rules
    b1, b2, decay_rate = hp.beta1, hp.beta2, lr_t * hp.weight_decay
    # the bias correction 1 - b^t: where it is small, b^t's rounding is large
    # against it, so it is taken as -expm1(t log b), with b - 1 exact
    bc1 = -math.expm1(t * math.log1p(b1 - 1.0)) if t * (1.0 - b1) < 1e-3 else 1.0 - b1**t
    bc2 = -math.expm1(t * math.log1p(b2 - 1.0)) if t * (1.0 - b2) < 1e-3 else 1.0 - b2**t
    state._coefficients[...] = (b1, 1.0 - b1, b2, 1.0 - b2, rule.recursion_eps, hp.eps, bc1, bc2, lr_t,
                                1.0 - decay_rate)
    m, s = state.m, state.second_moment
    # every non-finite value, the gradient's included, reaches the new
    # parameter or s_hat (an inf s_hat turns the update into -0, so the
    # parameter alone can hide one), so the finiteness check, which reads
    # those two stages, covers every stage.  A finite s_hat means a finite
    # second moment, which is s_hat times 1 - b2^t <= 1.  Momentum keeps no
    # second moment, and its check reads the parameter alone
    adaptive = not rule.momentum
    tr = None
    if transcript:
        tr = _transcribe(theta, g, m, s, k, rule, decay_rate)
        # the fields are the caller's: the state commits copies of them
        new_m[...] = tr.m
        new_s[...] = tr.second_moment
        new_theta = tr.theta_after
        finite = _all_finite(new_theta, tr.s_hat if adaptive else None)
    elif dim <= CHUNK:
        # no slicing: at small dims it would cost more than the arithmetic
        _core(theta, g, m, s, (new_m, new_s, a, a, sh, a, new_theta), k, rule)
        finite = _all_finite(new_theta, sh if adaptive else None)
    else:
        for lo in range(0, dim, CHUNK):
            hi = min(lo + CHUNK, dim)
            bm, bs, bt, ba, bh = new_m[lo:hi], new_s[lo:hi], new_theta[lo:hi], a[: hi - lo], sh[: hi - lo]
            _core(theta[lo:hi], g[lo:hi], m[lo:hi], s[lo:hi], (bm, bs, ba, ba, bh, ba, bt), k, rule)
            # checked while the block is still in cache; a failure ends the sweep
            finite = _all_finite(bt, bh if adaptive else None)
            if not finite:
                break
    if not finite:
        # the gradient is named first when it is the cause
        bad = np.flatnonzero(~np.isfinite(g))
        if bad.size:
            raise NonFiniteValue("gradient", index=int(bad[0]), step=t)
        raise _attribute(t, theta, g, m, s, k, rule, decay_rate)

    # the parameters are updated in place; the moments trade places with the
    # state's buffers for the next ones, which costs no copy
    theta[...] = new_theta
    state.m, state._next_m = new_m, m
    if adaptive:
        state.second_moment, state._next_s = new_s, s
    state.t = t
    return tr


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
# stream, the two sides give equal trajectories, every field of every step.
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


def read_stream(stream, theta0, lrs) -> tuple[np.ndarray, ParamVector, list[float]]:
    """The one reader of a differential run's arguments, for ``drive_stream`` and ``oracle.replay``.

    Checked in this order, before any arithmetic: ``theta0``, as a
    ``ParamVector`` is made; an empty stream; ``lrs`` and ``stream`` of
    different lengths; the first bad gradient row in step order, a wrong
    length raising ``DimensionMismatch("gradient at step k", ...)`` and a
    non-finite element ``NonFiniteValue("gradient", index, step)``; then each
    rate, read as ``lr at step k`` by ``as_rate``.  Returns the gradients as
    one ``(steps, dim)`` float64 array, the parameters and the rates as floats.
    """
    params = ParamVector(theta0)
    if not len(stream):
        raise ValueError("gradient stream must be non-empty")
    if len(lrs) != len(stream):
        raise ValueError(f"lrs has length {len(lrs)}, stream has length {len(stream)}")
    dim = params.dim
    rows = [np.asarray(g, dtype=np.float64) for g in stream]
    # the rows before the first one of a wrong length, scanned in one call;
    # the first non-finite element among them, in step order, comes first
    n = next((k for k, g in enumerate(rows) if g.shape != (dim,)), len(rows))
    grads = np.array(rows[:n]).reshape(n, dim)
    bad = np.flatnonzero(~np.isfinite(grads))
    if bad.size:
        step, index = divmod(int(bad[0]), dim)
        raise NonFiniteValue("gradient", index=index, step=step + 1)
    if n < len(rows):
        raise DimensionMismatch(f"gradient at step {n + 1}", dim, rows[n].size)
    return grads, params, [as_rate(f"lr at step {k}", lr) for k, lr in enumerate(lrs, start=1)]


def drive_stream(kernel_id: str, stream, theta0, hp: HyperParams, lrs) -> np.ndarray:
    """Feed a whole gradient stream through a fresh state and return its trajectory.

    The trajectory is one ``(steps, 9, dim)`` float64 array whose ``[t - 1]``
    holds step ``t``'s transcript fields as rows, in ``ALL_FIELDS`` order.
    Harness for differential testing against ``oracle.replay``, which takes
    the same arguments, reads them with the same ``read_stream`` and returns
    the same form.
    """
    if kernel_id not in KERNEL_STEPS:
        raise ValueError(f"unknown kernel id {kernel_id!r}; expected one of {KERNEL_IDS}")
    grads, params, lrs = read_stream(stream, theta0, lrs)
    state = OptimizerState(params.dim)
    step = KERNEL_STEPS[kernel_id]
    # one public step per stream step; a transcript's fields are the rows of
    # one (9, dim) block, its ``g`` row's base, and the blocks are stacked once
    return np.stack([step(state, params, g, hp, lr, transcript=True).g.base for g, lr in zip(grads, lrs)])
