"""Stateful optimizer kernels operating on flat float64 parameter vectors.

Six update rules from one adaptive family:

- ``adaplus_step``: belief-style stepsize adjustment + Nesterov-readjusted
  numerator + decoupled weight decay, all in a single step.
- ``adam_step`` / ``adamw_step`` / ``nadam_step`` / ``adabelief_step``: the
  ancestor baselines, each differing from ``adaplus_step`` in exactly one or
  two of those ingredients.
- ``sgdm_step``: classical momentum, with an optional Nesterov form.

All six run through one update rule, written twice: ``_core`` in ufuncs
over arrays and ``_scalar_core`` in Python floats over lists.  A step call
validates its inputs once, computes into buffers that its ``OptimizerState``
allocated when it was made, checks that the new parameters and ``s_hat`` are
finite, and only then commits and increments ``t``.  A committing step
without a transcript allocates no array.

At small dims a step's cost is its calls, not its arithmetic: each of the
core's ~20 ufunc calls costs about 0.4 us whatever the length, while a
Python float operation costs about 20 ns.  So the size of the vector alone
picks the core of a lean step (``transcript=False``), and a transcript
always comes from Python floats:

- At ``dim <= SCALAR_MAX``, and at every dim with a transcript, a step runs
  ``_scalar_core`` over the values as Python floats, read with ``tolist()``
  and written back by slice assignment.  Each element sees ``_core``'s
  operations in ``_core``'s order on the same ten coefficients, and IEEE
  addition, subtraction, multiplication, division and square root are
  correctly rounded in Python as in numpy, so every value has the bits of
  the ufuncs'.  Where a ufunc gives a non-finite value Python may raise
  instead (``eps = 0`` over a zero ``s_hat`` divides by zero), and that
  counts as non-finite.  A transcript step also packs each element's nine
  stages as doubles as it goes, and they become its block.
- Above ``SCALAR_MAX`` a lean step runs the block sweep, ``_core`` over
  consecutive blocks of at most ``CHUNK`` (16384) elements (a shorter
  vector is one block), computing into the state's buffers.

A transcript is a tool for diffing against the oracle, whose runs keep to
dim <= ``oracle.MAX_DIM``, and the selftest's to dims 1-12.  At large dims
it costs what Python floats cost: about 0.43 us per element for
``adaplus_step`` at dims 16,385 and 32,771 (0.25 us for ``sgdm_step``),
0.6 s per step at dim 2^20, ten times what a whole-vector transcript in
ufuncs took, and a peak of about 270 bytes per element (the four inputs as
Python floats and the packed stages, then their block) against the block's
72.

In the ufuncs every scalar operand (``b1``, ``1 - b1``, ``b2``,
``1 - b2``, the recursion ``eps``, ``eps``, ``1 - b1^t``, ``1 - b2^t``,
``lr_t`` and ``1 - lr_t * wd``) is written each step into a ten-element
float64 array owned by the state and passed to the ufuncs as a 0-d view,
which numpy takes faster than a Python float.  Every ufunc gets its output
as a positional argument, and the core's five ufuncs are module globals.
The finiteness check reads the two stages that every non-finite value
reaches: an inf or NaN in the new parameters or in ``s_hat`` (the
parameters alone for ``sgdm``).  The scalar path tests each element; the
sweep takes one dot product per block, ``new_theta . s_hat`` (the parameters
with themselves for ``sgdm``), and only if it is non-finite, since finite
terms can overflow, scans the two arrays exactly.  ``s_hat`` is read rather
than the second moment because it can overflow alone (it is the second
moment divided by ``1 - b2^t`` <= 1), and then the update is -0 and the
parameter stays finite; a finite ``s_hat`` means a finite second moment.
The sweep sets numpy's error state (all errors ignored) for its own call,
as a decorator: numpy's warnings and ``FloatingPointError`` would only
duplicate the structured ``NonFiniteValue``, and the caller's error state is
the same after the call.  The scalar path calls no ufunc.

The blocks of the sweep keep the core's ~20 elementwise passes over
operands in L2 instead of streaming whole vectors through memory, and the
temporary shrinks to one block.  One block of the nine vectors the core
touches is 1.1 MiB, about half of a 2 MiB per-core L2; on such a host a step
at dim 2^20 costs about the same with blocks of 16 Ki to 64 Ki elements,
more with 256 Ki and up (out of L2) and more with 8 Ki and down (per-call
overhead).  Each element sees the same operations in the same order, so the
bits are those of one whole-vector call.  The finiteness check is then one
dot per block, taken while the block's new parameters and ``s_hat`` are
still in cache instead of reading the whole parameter vector again after the
sweep; the first block that fails it ends the sweep.

An ``OptimizerState`` holds its seven buffers as the rows of one
``np.zeros`` block, the first started on a 64-byte line and each padded to
whole lines, so every buffer starts on a cache line.  numpy aligns its
arrays to 16 bytes only: at dim 2^20 they sit 16, 32 or 48 bytes past a
line, as the heap's layout falls, and an AVX-512 ufunc then splits every
vector load and store across two lines.  On 16,384-element vectors in L2 a
three-operand add costs 9.1-9.9 us against 4.2 us aligned and a multiply by
a 0-d coefficient 4.1-4.3 against 3.7-4.5; divide and sqrt, bound by
compute, do not move, and 15 of the core's 19 passes are adds, subtracts
and multiplies.  One block, not a padded array per buffer: an array a line
longer than a vector no longer fits the 8 MiB heap chunk that a freed
vector leaves, and ``quad_d1m``'s peak RSS rose by 7.5% with those, against
1% with the block.  numpy's block, not an anonymous ``mmap``: numpy asks
the kernel to back large arrays with transparent huge pages, and a mapping
in 4 KiB pages made ``quad_d1m`` 7% slower (one advised for huge pages
did not).

A failing step names the error that one whole-vector transcript would.
The gradient is scanned first.  If it is finite, a transcript step raises
from the transcript it already holds: the earliest stage in ``FIELD_ORDER``
with a non-finite value, at its first element (``first_non_finite``).  A
lean step resumes the sweep at the block where it failed (element 0 after a
failure in Python floats), in blocks of 1024 elements, into the state's
buffers; only the blocks that fail the check are transcribed, in Python
floats, and the earliest stage over them is raised at its first element.
Every non-finite stage reaches one of the two checked ones and elements are
independent, so a block that passed holds none, and none is computed again.
At dim 2^20 a lean step whose last element fails makes 80 core calls, 64 for
the sweep and 16 for the attribution of its last block, and took 17-20 ms to
raise on a 2-core VM.  A call that raises leaves ``t``, the moments and the
parameters untouched.  The commit copies the new parameters into
``params.values`` in place, so that array keeps its identity and a caller
may hold it across steps.  The moments are not copied: ``state.m`` and
``state.second_moment`` trade places with the state's buffers for the next
ones, so the arrays they named before are written by the next step.  Read
them from the state after each step instead of holding them.

Transcripts are opt-in.  By default a step returns ``None``.  With
``transcript=True`` it returns a ``StepTranscript``, for diffing
trajectories against the independent scalar reference in ``adaplus.oracle``.
A transcript holds one C-contiguous ``(9, dim)`` float64 block,
``tr.block``, and nothing else; each of its nine names reads its row of the
block as a view.  It carries no step number (its step is ``state.t`` after
the call) and is compared through its block with ``np.array_equal``, as
trajectories are.  ``drive_stream`` stacks the steps' blocks into one
``(steps, 9, dim)`` trajectory.  ``_scalar_core`` is their one producer: it
keeps the nine stages of each element in turn, with the values the ufuncs
give them, and the state commits copies of the new moments from the block's
rows.

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
the first parameter line.  ``_RULES`` maps each kernel id to the rule it
steps by, a function of its hyper-parameters; it is the one place that says
which lines a kernel runs, and so which ``HyperParams`` fields it reads
(``normal_form``).  ``KERNEL_STEPS`` maps each kernel id to its step
function, and ``REDUCTIONS`` lists the settings under which one kernel
equals another bit for bit.
"""

import math
import struct
from dataclasses import dataclass, replace
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
    Which fields each kernel reads follows from its rule in ``_RULES``;
    ``normal_form`` holds the others at their defaults.
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

# The largest dim a lean step takes in Python floats (module docstring): the
# smaller of the dims where the Python path stops being the faster one for a
# lean ``adaplus_step`` and ``sgdm_step``.  Per-call medians over dims 1-64
# (2-core VM, Python 3.11, numpy 2.4), Python floats against the block sweep:
# adaplus 8.0 vs 13.1 us at dim 10, 12.2 vs 13.0 at 18, 13.4 vs 13.1 at 21,
# 33.6 vs 13.3 at 64; sgdm 5.8 vs 8.5 us at dim 10, 8.4 vs 8.6 at 18, 8.8 vs
# 8.3 at 20, 21.3 vs 8.6 at 64.  A transcript step runs in Python floats at
# every dim.
SCALAR_MAX = 18


class OptimizerState:
    """Mutable per-vector optimizer state: step counter and the two EMAs.

    ``second_moment`` holds the belief EMA or the squared-gradient EMA
    depending on the kernel driving the state.  States are independent; one
    state must only ever be fed to one kernel.  Each step rebinds ``m`` and
    ``second_moment`` to new arrays and reuses the previous ones for the
    next step.  Every buffer a step writes is allocated here, as a row of
    one ``np.zeros`` block, and starts on a 64-byte line (module docstring).
    """

    def __init__(self, dim: int):
        self.dim = as_int("dim", dim, "be positive", positive)
        self.t = 0
        # one zeroed block of seven rows, each padded to whole 64-byte lines
        # (w and v elements): m, the second moment, the next m and second
        # moment, which trade places with the two before at a commit, and the
        # next theta; then one sweep block's temporary and s_hat
        n, c = self.dim, min(self.dim, CHUNK)
        w, v = -(-n // 8) * 8, -(-c // 8) * 8
        # 8 elements more, so that a line starts among the first 8 wherever numpy put the block
        block = np.zeros(5 * w + 2 * v + 8)
        block = block[(-block.ctypes.data % 64) // 8:]
        self.m, self.second_moment, self._next_m, self._next_s, self._theta = (block[i * w:i * w + n] for i in range(5))
        self._tmp, self._s_hat = block[5 * w:5 * w + c], block[5 * w + v:5 * w + v + c]
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


# The rule each kernel steps by, from its hyper-parameters: the one source of
# which lines a kernel runs, and so of which fields it reads (``normal_form``)
_RULES = {
    "adaplus": lambda hp: _Rule(False, True, hp.use_belief, hp.eps, hp.use_nesterov),
    "adam": lambda hp: _Rule(False, False, False, 0.0, False),
    "adamw": lambda hp: _Rule(False, True, False, 0.0, False),
    "nadam": lambda hp: _Rule(False, False, False, 0.0, hp.use_nesterov),
    "adabelief": lambda hp: _Rule(False, hp.decoupled_decay, True, hp.eps, False),
    "sgdm": lambda hp: _Rule(True, False, False, 0.0, hp.use_nesterov),
}


def normal_form(kernel_id: str, hp: HyperParams) -> HyperParams:
    """``hp`` with every field that kernel ``kernel_id`` does not read at its ``HyperParams()`` default.

    The reads are probed from the kernel's rule: ``beta1`` always, ``beta2``
    and ``eps`` unless the rule is momentum, ``weight_decay`` where the rule
    applies decay, and a toggle where flipping it changes the rule.  So two
    ``HyperParams`` with one normal form step alike on every stream.  Values
    that only cancel (``weight_decay = 0`` with decay applied) are kept.
    """
    rule_of = _RULES[kernel_id]
    rule = rule_of(hp)
    reads = {"beta1"} if rule.momentum else {"beta1", "beta2", "eps"}
    if rule.apply_decay:
        reads.add("weight_decay")
    reads |= {f for f in ("use_nesterov", "use_belief", "decoupled_decay")
              if rule_of(replace(hp, **{f: not getattr(hp, f)})) != rule}
    return HyperParams(**{f: getattr(hp, f) for f in reads})


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

    ``out`` is ``(new_m, new_s, a, s_hat, new_theta)``: the state's buffers,
    or a block of each.  ``a`` holds each quantity that is dead once the next
    one is formed, ``m_bar``, ``m_hat`` and the negated update
    ``-delta_theta`` in turn, and ``new_theta`` also serves as a temporary
    before it gets its value.  ``s_hat`` outlives the core, for the
    finiteness check.  The new second moment and ``s_hat`` are not written
    for momentum.  ``k`` holds the step coefficients as 0-d arrays, in the
    order ``_step`` writes them.  The ufunc sequence keeps the order of
    operations of the elementwise update rules in the module docstring.
    """
    new_m, new_s, a, s_hat, new_theta = out
    b1, c1, b2, c2, recursion_eps, eps, bc1, bc2, lr, decay = k
    if rule.momentum:
        if rule.use_nesterov:
            _multiply(g, lr, a)
            _multiply(m, b1, new_m)
            _add(new_m, a, new_m)  # m = mu * m + lr_t * g
            _multiply(new_m, b1, new_theta)  # new_theta is a temporary until the update
            _add(a, new_theta, a)  # m_bar = mu * m + lr_t * g, the applied step
        else:
            _multiply(m, b1, new_m)
            _add(new_m, g, new_m)  # m = mu * m + g
            _multiply(new_m, lr, a)  # lr_t * m, the applied step
        _subtract(theta, a, new_theta)
        return

    # sums and products are formed as ``x + y`` where the rule reads
    # ``y + x``: IEEE addition and multiplication commute exactly
    _multiply(g, c1, a)  # (1 - b1) * g, shared by m and m_bar
    _multiply(m, b1, new_m)
    _add(new_m, a, new_m)  # m = b1 * m + (1 - b1) * g
    if rule.use_nesterov:
        _multiply(new_m, b1, new_theta)  # new_theta is a temporary until the update
        _add(a, new_theta, a)  # m_bar = b1 * m + (1 - b1) * g
        m_bar = a
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
    _divide(m_bar, bc1, a)  # m_hat
    _divide(new_s, bc2, s_hat)
    _multiply(a, lr, a)
    _sqrt(s_hat, new_theta)
    _add(new_theta, eps, new_theta)
    _divide(a, new_theta, a)  # lr_t * m_hat / (sqrt(s_hat) + eps), the negated update
    if rule.apply_decay:
        _multiply(theta, decay, new_theta)
        _subtract(new_theta, a, new_theta)
    else:
        _subtract(theta, a, new_theta)


# bound once, as the core's ufuncs are
_isfinite, _sqrt_float, _pack_stages, _NAN = math.isfinite, math.sqrt, struct.Struct("9d").pack_into, math.nan


def _scalar_core(theta, g, m, s, k, rule, decay_rate=None):
    """``_core`` over lists of Python floats, with the finiteness check.

    ``k`` holds the coefficients as floats, in ``_core``'s order, and each
    element sees ``_core``'s operations in its order.  IEEE addition,
    subtraction, multiplication, division and square root are correctly
    rounded, so every value has the bits of the ufuncs'.  Python raises
    where a ufunc gives a non-finite value: a division by zero (``eps = 0``
    over a zero ``s_hat``) or the square root of a negative ``s_hat``, which
    only a second moment written by hand holds.  There the update is taken
    as NaN, non-finite as the ufuncs' inf or NaN is; a step that holds it
    fails, so its value is never returned to a caller.  Momentum keeps no
    second moment: its ``new_s`` and ``s_hat`` are 0.

    Without ``decay_rate`` this is the lean step: the lists ``(new_theta,
    new_m, new_s)``, or None where a new parameter or ``s_hat`` is not
    finite.  With it, the transcript step: ``(transcript, finite)``, where
    the transcript holds every element's nine stages in ``ALL_FIELDS``
    order, finite or not, as the rows of one ``(9, n)`` block, and
    ``finite`` says whether every new parameter and ``s_hat`` is.
    """
    b1, c1, b2, c2, recursion_eps, eps, bc1, bc2, lr, decay = k
    momentum, apply_decay, use_belief, _, use_nesterov = rule
    new_theta, new_m, new_s = [], [], []
    # a transcript packs each element's stages as doubles into ``stages`` at ``offset``
    stages, offset = None if decay_rate is None else bytearray(72 * len(g)), 0
    finite = True
    for th, gi, mi, si in zip(theta, g, m, s):
        if momentum:
            step = gi * lr if use_nesterov else gi
            mi = mi * b1 + step  # m = mu * m + lr_t * g, or mu * m + g
            m_bar = step + mi * b1 if use_nesterov else mi
            step = m_bar if use_nesterov else mi * lr  # the applied step
            m_hat, si, s_hat = m_bar, 0.0, 0.0
        else:
            step = gi * c1
            mi = mi * b1 + step
            m_bar = step + mi * b1 if use_nesterov else mi
            r = gi - mi if use_belief else gi
            si = r * c2 * r + si * b2
            if recursion_eps:
                si = si + recursion_eps
            # 1 - b^t > 0, so only the last division and the root can raise
            s_hat = si / bc2
            m_hat = m_bar / bc1
            try:
                step = m_hat * lr / (_sqrt_float(s_hat) + eps)
            except (ZeroDivisionError, ValueError):
                step = _NAN
        new = (th * decay if apply_decay else th) - step
        if not (_isfinite(new) and _isfinite(s_hat)):
            if stages is None:
                return None
            finite = False
        if stages is not None:
            _pack_stages(stages, offset, gi, mi, si, m_bar, m_hat, s_hat, th * decay_rate if apply_decay else 0.0,
                         -step, new)
            offset += 72
        else:
            new_theta.append(new)
            new_m.append(mi)
            new_s.append(si)
    if stages is None:
        return new_theta, new_m, new_s
    # the element-major stages, read as (9, n) with row i at byte 8 i and one
    # element every 9 doubles, copied once into a block that owns its rows
    return StepTranscript(np.ndarray((9, len(g)), buffer=stages, strides=(8, 72)).copy()), finite


# The sweep, the one numpy path, sets numpy's error state (all errors ignored)
# for its own call, as a decorator, cheaper per call than ``with np.errstate``;
# the scalar path runs no ufunc and needs none.  Under numpy >= 2 the
# decorator sets a context token for each call, so each thread keeps its own
# error state.  Under numpy 1.x the saved state lives on the one shared
# ``errstate`` instance, so there the kernels are only safe single-threaded.
@np.errstate(all="ignore")
def _sweep(state, theta, g, m, s, rule, start=0, size=CHUNK) -> int:
    """The lean step in ufuncs, in blocks of ``size`` elements from element
    ``start`` into the state's buffers, from the coefficients ``_step``
    wrote: the start of the first block whose new parameters or ``s_hat``
    are not all finite, which ends the sweep, or ``theta.size``.  Attribution
    resumes it from there."""
    new_m, new_s, new_theta, a, sh, k = state._next_m, state._next_s, state._theta, state._tmp, state._s_hat, state._k
    adaptive = not rule.momentum
    # a vector of at most ``size`` elements is one block
    for lo in range(start, theta.size, size):
        hi = min(lo + size, theta.size)
        bt, bh = new_theta[lo:hi], sh[: hi - lo]
        _core(theta[lo:hi], g[lo:hi], m[lo:hi], s[lo:hi], (new_m[lo:hi], new_s[lo:hi], a[: hi - lo], bh, bt), k, rule)
        # checked while the block is still in cache
        if not _all_finite(bt, bh if adaptive else None):
            return lo
    return theta.size


def _attribute(state, t, theta, g, m, s, coefficients, rule, decay_rate, start) -> NonFiniteValue:
    """The error ``first_non_finite`` gives for the whole step's transcript.

    Every block before ``start``, where the failing step's sweep stopped
    (element 0 after a failure in Python floats), passed its check.  From
    there the sweep resumes in blocks of 1024 elements into the state's
    buffers, which nothing has committed; each block it returns is
    transcribed in Python floats, and the earliest stage over those
    transcripts is raised at its first element.  Every non-finite stage
    reaches one of the two checked ones (``_step``) and elements are
    independent, so a block that passes holds none.  A transcript of 1024
    elements holds at most 0.3 MB (the inputs as Python floats and the
    packed stages), where one of ``CHUNK`` elements would hold 4.5 MB.
    """
    found = []
    lo = _sweep(state, theta, g, m, s, rule, start, 1024)
    while lo < theta.size:
        hi = lo + 1024
        tr, _ = _scalar_core(theta[lo:hi].tolist(), g[lo:hi].tolist(), m[lo:hi].tolist(), s[lo:hi].tolist(),
                             coefficients, rule, decay_rate)
        # the block's (9, n) transcript as a one-step trajectory
        error = first_non_finite(tr.block[None])
        found.append((FIELD_ORDER.index(error.stage), lo + error.index))
        lo = _sweep(state, theta, g, m, s, rule, hi, 1024)
    stage, index = min(found)
    return NonFiniteValue(FIELD_ORDER[stage], index=index, step=t)


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

    # each coefficient is computed in Python floats, which the scalar path
    # reads and the ufuncs read stored exactly, so every path sees the
    # operand values of the update rules
    b1, b2, decay_rate = hp.beta1, hp.beta2, lr_t * hp.weight_decay
    # the bias correction 1 - b^t: where it is small, b^t's rounding is large
    # against it, so it is taken as -expm1(t log b), with b - 1 exact
    bc1 = -math.expm1(t * math.log1p(b1 - 1.0)) if t * (1.0 - b1) < 1e-3 else 1.0 - b1**t
    bc2 = -math.expm1(t * math.log1p(b2 - 1.0)) if t * (1.0 - b2) < 1e-3 else 1.0 - b2**t
    coefficients = (b1, 1.0 - b1, b2, 1.0 - b2, rule.recursion_eps, hp.eps, bc1, bc2, lr_t, 1.0 - decay_rate)
    m, s = state.m, state.second_moment
    # where a failing lean step's attribution starts: the sweep's failing block
    failed = 0
    if transcript:
        tr, finite = _scalar_core(theta.tolist(), g.tolist(), m.tolist(), s.tolist(), coefficients, rule, decay_rate)
        stepped = tr.theta_after, tr.m, tr.second_moment
    elif dim > SCALAR_MAX:
        state._coefficients[...] = coefficients
        # the sweep computes into the state's buffers
        failed = _sweep(state, theta, g, m, s, rule)
        tr, stepped, finite = None, None, failed == dim
    else:
        tr, stepped = None, _scalar_core(theta.tolist(), g.tolist(), m.tolist(), s.tolist(), coefficients, rule)
        finite = stepped is not None
    # every non-finite value, the gradient's included, reaches the new
    # parameter or s_hat (an inf s_hat turns the update into -0, so the
    # parameter alone can hide one), so the finiteness check, which reads
    # those two stages, covers every stage.  A finite s_hat means a finite
    # second moment, which is s_hat times 1 - b2^t <= 1.  Momentum keeps no
    # second moment, and its check reads the parameter alone
    if not finite:
        # the gradient is named first when it is the cause
        bad = np.flatnonzero(~np.isfinite(g))
        if bad.size:
            raise NonFiniteValue("gradient", index=int(bad[0]), step=t)
        if tr is None:
            state._coefficients[...] = coefficients
            raise _attribute(state, t, theta, g, m, s, coefficients, rule, decay_rate, failed)
        # a transcript step names its failure from the transcript it holds
        error = first_non_finite(tr.block[None])
        raise NonFiniteValue(error.stage, index=error.index, step=t)

    if stepped is None:
        new_theta = state._theta
    else:
        # momentum's new second moment is all zeros, written to a buffer it never commits
        new_theta, state._next_m[...], state._next_s[...] = stepped
    # the parameters are updated in place; the moments trade places with the
    # state's buffers for the next ones, which costs no copy
    theta[...] = new_theta
    state.m, state._next_m = state._next_m, m
    if not rule.momentum:
        state.second_moment, state._next_s = state._next_s, s
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
    return _step(state, params, grads, hp, lr_t, _RULES["adaplus"](hp), transcript)


def adam_step(state, params, grads, hp: HyperParams, lr_t: float, *, transcript: bool = False):
    """Classical adaptive baseline: variance denominator, no decay."""
    return _step(state, params, grads, hp, lr_t, _RULES["adam"](hp), transcript)


def adamw_step(state, params, grads, hp: HyperParams, lr_t: float, *, transcript: bool = False):
    """Adam preceded by decoupled weight decay ``theta *= 1 - lr_t * weight_decay``."""
    return _step(state, params, grads, hp, lr_t, _RULES["adamw"](hp), transcript)


def nadam_step(state, params, grads, hp: HyperParams, lr_t: float, *, transcript: bool = False):
    """Adam with the Nesterov-readjusted numerator (toggled by ``hp.use_nesterov``)."""
    return _step(state, params, grads, hp, lr_t, _RULES["nadam"](hp), transcript)


def adabelief_step(state, params, grads, hp: HyperParams, lr_t: float, *, transcript: bool = False):
    """Belief denominator with the classical numerator; decay only if ``hp.decoupled_decay``."""
    return _step(state, params, grads, hp, lr_t, _RULES["adabelief"](hp), transcript)


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
    return _step(state, params, grads, hp, lr_t, _RULES["sgdm"](hp), transcript)


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
    rate, by ``as_rate``, the first one it refuses named ``lr at step k``.
    Returns the gradients as one ``(steps, dim)`` float64 array, the
    parameters and the rates as floats.
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
    try:
        return grads, params, [as_rate("lr", lr) for lr in lrs]
    except ValueError:
        # only a refused rate pays for its step's name: read again under it,
        # the first refused one raises the error that names its step
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
    # one public step per stream step; each transcript's (9, dim) block is
    # stacked once
    return np.stack([step(state, params, g, hp, lr, transcript=True).block for g, lr in zip(grads, lrs)])
