"""Per-layer tracing from outside the package: wrap its public entry points, time every call.

``install(tracer)`` replaces each traced function with a timing wrapper
everywhere the package refers to it: module attributes (so ``cli``'s
``from .oracle import replay`` is covered as well as ``oracle.replay``),
module-level dicts such as ``KERNEL_STEPS``, and the two traced methods.
The returned callable puts the originals back.

A span is one call: its name, its parent span's name, its duration and its
self time (duration minus the time its child spans cover).  Spans are folded
into per-name totals as they close, so memory stays flat over long runs;
per-call durations are kept only for the kernel and gradient spans, whose
percentiles are reported.

This module imports nothing at import time beyond the standard library, so
it does not disturb the set-up time the benchmark measures.
"""

import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# name, unit, better: the per-layer metrics of a traced run (BENCHMARK.json "per_layer")
PER_LAYER = (
    ("kernels.calls", "count", "lower"),
    ("kernels.busy_s", "s", "lower"),
    ("kernels.step_us_p50", "us", "lower"),
    ("kernels.step_us_p99", "us", "lower"),
    ("kernels.ns_per_elem", "ns", "lower"),
    ("kernels.bytes_per_step", "B", "lower"),
    ("kernels.floor_ns_per_elem", "ns", "lower"),
    ("problems.grad_calls", "count", "lower"),
    ("problems.grad_busy_s", "s", "lower"),
    ("problems.grad_us_p50", "us", "lower"),
    ("problems.eval_calls", "count", "lower"),
    ("problems.eval_busy_s", "s", "lower"),
    ("problems.build_s", "s", "lower"),
    ("bench.parse_s", "s", "lower"),
    ("bench.run_self_s", "s", "lower"),
    ("bench.log_rows", "count", "lower"),
    ("bench.emit_s", "s", "lower"),
    ("bench.emit_bytes", "B", "lower"),
    ("bench.load_s", "s", "lower"),
    ("bench.compare_s", "s", "lower"),
    ("oracle.replay_calls", "count", "lower"),
    ("oracle.replay_s", "s", "lower"),
    ("oracle.elem_steps_per_s", "1/s", "higher"),
    ("kernels.drive_stream_s", "s", "lower"),
    ("transcript.deviation_s", "s", "lower"),
    ("cli.selftest_self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

ROOT = "cli.main"
KERNEL = "kernels.step"
GRAD = "problems.grad"
EVAL = "problems.eval"

# float64 vectors of length dim a step must read or write at minimum: the
# adaptive kernels read theta, g, m, s and write theta, m, s; momentum has
# no second moment.  Transcript arrays are not counted.
_ADAPTIVE_ARRAYS = 7
_MOMENTUM_ARRAYS = 5


def _size(array) -> int:
    size = getattr(array, "size", None)
    return int(size) if size is not None else len(array)


class Tracer:
    """Span recorder; per-name totals for the operation in progress."""

    def __init__(self):
        self._stack = []
        self.reset()

    def reset(self):
        # (name, parent) -> [calls, busy seconds, self seconds]
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(float)
        self.durations = defaultdict(list)

    def span(self, name, fn, after=None, keep_durations=False):
        """Wrap ``fn`` so that each call records a span; ``after(args, kwargs, result)`` adds counters."""
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                total = self.totals[name, parent[0] if parent else None]
                total[0] += 1
                total[1] += elapsed
                total[2] += elapsed - frame[1]
                if parent:
                    parent[1] += elapsed
                if keep_durations:
                    self.durations[name].append(elapsed)
            if after is not None:
                for key, value in after(args, kwargs, result).items():
                    self.counters[key] += value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def calls(self, name, parent=any) -> int:
        return sum(v[0] for (n, p), v in self.totals.items() if n == name and (parent is any or p == parent))

    def busy(self, name) -> float:
        return sum(v[1] for (n, _), v in self.totals.items() if n == name)

    def self_time(self, name) -> float:
        return sum(v[2] for (n, _), v in self.totals.items() if n == name)

    def outside(self, name, parent):
        """Calls and busy time of ``name`` spans whose parent is not ``parent``."""
        calls = busy = 0
        for (n, p), v in self.totals.items():
            if n == name and p != parent:
                calls += v[0]
                busy += v[1]
        return calls, busy


def _kernel_counters(arrays):
    def after(args, kwargs, result):
        n = _size(args[2] if len(args) > 2 else kwargs["grads"])
        return {"kernel_elems": n, "kernel_bytes": arrays * 8 * n}
    return after


def _run_counters(args, kwargs, result):
    return {"log_rows": len(result.rows)}


def _emit_counters(args, kwargs, result):
    path = args[2] if len(args) > 2 else kwargs["path"]
    return {"emit_bytes": os.path.getsize(path)}


def _stream_counters(args, kwargs, result):
    return {"stream_steps": len(args[1])}


def _replay_counters(args, kwargs, result):
    return {"elem_steps": len(args[1]) * _size(args[2])}


def install(tracer: Tracer):
    """Wrap the package's public entry points for ``tracer``; returns the undo callable."""
    from adaplus import bench, kernels, oracle, problems, transcript

    wrappers = {}  # id of an original -> its wrapper; the originals stay alive, so ids are unique

    def add(fn, name, **options):
        wrappers[id(fn)] = tracer.span(name, fn, **options)

    add(bench.load_config, "bench.parse")
    add(bench.build_problem, "problems.build")
    add(bench.run, "bench.run", after=_run_counters)
    add(bench.emit, "bench.emit", after=_emit_counters)
    add(bench.load_record, "bench.load")
    add(bench.compare, "bench.compare")
    add(kernels.drive_stream, "kernels.drive_stream", after=_stream_counters)
    add(oracle.replay, "oracle.replay", after=_replay_counters)
    add(transcript.scaled_deviation, "transcript.deviation")
    for attr, value in vars(kernels).items():
        if attr.endswith("_step") and not attr.startswith("_") and callable(value):
            arrays = _MOMENTUM_ARRAYS if attr == "sgdm_step" else _ADAPTIVE_ARRAYS
            add(value, KERNEL, after=_kernel_counters(arrays), keep_durations=True)

    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "adaplus" or mod_name.startswith("adaplus.")):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])
                undo.append((setattr, module, attr, value))
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in wrappers:
                        value[key] = wrappers[id(item)]
                        undo.append((dict.__setitem__, value, key, item))

    for cls, attr, name in ((problems.GradientSource, "gradient", GRAD), (problems.Problem, "evaluate", EVAL)):
        original = vars(cls)[attr]
        setattr(cls, attr, tracer.span(name, original, keep_durations=(name == GRAD)))
        undo.append((setattr, cls, attr, original))

    def uninstall():
        for setter, target, key, value in reversed(undo):
            setter(target, key, value)

    return uninstall


def operation_values(tracer: Tracer, workload_kind: str) -> dict:
    """Per-layer values of one traced operation, keyed by metric name."""
    eval_calls, eval_busy = tracer.outside(EVAL, GRAD)
    kernel_calls, kernel_busy = tracer.calls(KERNEL), tracer.busy(KERNEL)
    elems, replay_busy = tracer.counters["kernel_elems"], tracer.busy("oracle.replay")
    return {
        "kernels.calls": kernel_calls,
        "kernels.busy_s": kernel_busy,
        "kernels.ns_per_elem": kernel_busy / elems * 1e9 if elems else 0.0,
        "kernels.bytes_per_step": tracer.counters["kernel_bytes"] / kernel_calls if kernel_calls else 0.0,
        "problems.grad_calls": tracer.calls(GRAD),
        "problems.grad_busy_s": tracer.busy(GRAD),
        "problems.eval_calls": eval_calls,
        "problems.eval_busy_s": eval_busy,
        "problems.build_s": tracer.busy("problems.build"),
        "bench.parse_s": tracer.busy("bench.parse"),
        "bench.run_self_s": tracer.self_time("bench.run"),
        "bench.log_rows": int(tracer.counters["log_rows"]),
        "bench.emit_s": tracer.busy("bench.emit"),
        "bench.emit_bytes": int(tracer.counters["emit_bytes"]),
        "bench.load_s": tracer.busy("bench.load"),
        "bench.compare_s": tracer.busy("bench.compare"),
        "oracle.replay_calls": tracer.calls("oracle.replay"),
        "oracle.replay_s": replay_busy,
        "oracle.elem_steps_per_s": tracer.counters["elem_steps"] / replay_busy if replay_busy else 0.0,
        "kernels.drive_stream_s": tracer.busy("kernels.drive_stream"),
        "transcript.deviation_s": tracer.busy("transcript.deviation"),
        "cli.selftest_self_s": tracer.self_time(ROOT) if workload_kind == "selftest" else 0.0,
    }


def validity_errors(tracer: Tracer, spec: dict) -> list[str]:
    """Span counts that differ from what the workload implies.

    A refactor that routes calls around a wrapped entry point shows up here
    as a count mismatch instead of as a silently smaller layer time.
    """
    errors = []

    def expect(what, got, want):
        if got != want:
            errors.append(f"trace: {what} = {got}, workload implies {want}")

    eval_calls, _ = tracer.outside(EVAL, GRAD)
    log_rows = int(tracer.counters["log_rows"])
    expect("problems.eval_calls", eval_calls, log_rows)
    if spec["kind"] == "selftest":
        expect("kernels.calls inside drive_stream", tracer.calls(KERNEL, "kernels.drive_stream"),
               int(tracer.counters["stream_steps"]))
        expect("transcript.deviation calls", tracer.calls("transcript.deviation"), tracer.calls("oracle.replay"))
        expect("problems.grad_calls", tracer.calls(GRAD), 0)
        if tracer.calls("oracle.replay") == 0:
            errors.append("trace: no oracle.replay call seen")
    else:
        expect("kernels.calls", tracer.calls(KERNEL), spec["steps"])
        expect("problems.grad_calls", tracer.calls(GRAD), spec["steps"])
        expect("bench.log_rows", log_rows, spec["log_rows"])
        expect("bench.run calls", tracer.calls("bench.run"), spec["runs"])
        expect("bench.parse calls", tracer.calls("bench.parse"), spec["runs"])
    return errors


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(per_op: list[dict], durations: dict, untraced_s: list[float], traced_s: list[float],
                  floor_ns: float) -> dict:
    """Per-layer metric values of a traced run.

    Each value is the median over the traced operations of that operation's
    value, counts excepted: every operation does the same work, so the first
    one's counts are reported (``validity_errors`` checks the main ones
    against the workload).  The call-time percentiles
    pool every call of every traced operation (``durations``, seconds per
    span name).
    """
    values = {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
    values.update({name: per_op[0][name] for name, unit, _ in PER_LAYER if unit == "count"})
    kernel_us = [d * 1e6 for d in durations.get(KERNEL, ())]
    grad_us = [d * 1e6 for d in durations.get(GRAD, ())]
    values.update({
        "kernels.step_us_p50": percentile(kernel_us, 50) if kernel_us else 0.0,
        "kernels.step_us_p99": percentile(kernel_us, 99) if kernel_us else 0.0,
        "kernels.floor_ns_per_elem": floor_ns,
        "problems.grad_us_p50": percentile(grad_us, 50) if grad_us else 0.0,
        "trace.overhead_frac": min(traced_s) / min(untraced_s) - 1.0,
    })
    return {name: values[name] for name, _, _ in PER_LAYER}


def floor_ns_per_elem(dim: int = 1 << 20, reps: int = 15) -> float:
    """Median ns/element of a bare in-place numpy AdaPlus update at ``dim``.

    Preallocated buffers and ``out=`` ufuncs only: the cost of the
    arithmetic with no validation, copies or transcript.  It is the floor
    ``kernels.ns_per_elem`` is read against.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    theta, g = rng.standard_normal(dim), rng.standard_normal(dim)
    m, s = np.zeros(dim), np.zeros(dim)
    a, b = np.empty(dim), np.empty(dim)
    b1, b2, eps, lr, wd = 0.9, 0.999, 1e-8, 1e-3, 1e-2
    samples = []
    for t in range(1, reps + 1):
        start = perf_counter()
        theta *= 1.0 - lr * wd
        m *= b1
        np.multiply(g, 1.0 - b1, out=a)
        m += a
        np.subtract(g, m, out=b)
        np.multiply(b, b, out=b)
        b *= 1.0 - b2
        s *= b2
        s += b
        s += eps
        np.multiply(m, b1, out=b)
        b += a
        b *= lr / (1.0 - b1**t)
        np.multiply(s, 1.0 / (1.0 - b2**t), out=a)
        np.sqrt(a, out=a)
        a += eps
        b /= a
        theta -= b
        samples.append(perf_counter() - start)
    return statistics.median(samples) / dim * 1e9
