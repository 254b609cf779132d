"""Machine-speed calibration: fixed programs timed next to each operation.

The benchmark's reference machine is a 2-core VM on a shared host.  A
neighbour's load there slows every program in the guest, in CPU time as
much as in wall time, by up to 2x for minutes at a time, so two sets of
runs of the same code can differ by more than any useful bound.  The
benchmark therefore times, right before and right after each operation, a
fixed calibration program that does the same kind of work as the operation,
and reports the operation's time as a multiple of the calibration's,
converted back to seconds at the reference machine's speed:

    reported = wall time of the operation / wall time of the calibration x REFERENCE_S

The calibration programs use only Python and numpy, never the package under
test, so a change to the program moves the reported time by exactly as much
as it moves the wall time; only the machine's speed of the moment cancels.

The calibrations run in a separate process, ``python3 calibrate.py
<recipe>...``, so their buffers do not count in the worker's peak memory.
It warms up the recipes it is given and prints ``ready``; then the worker
writes one recipe name per line and it answers each with that recipe's wall
seconds.
"""

import sys
from time import perf_counter

np = None  # numpy, imported by serve(): run.py imports this module only for REFERENCE_S

_LARGE = 1 << 20
_ROWS, _COLS = 4000, 64

# a module of 200 small functions: compiling and running it stands in for imports
_SOURCE = "\n".join(
    f"def f{i}(x, y={i}):\n    z = [x, y, {{'k': x * y}}]\n    return z[2]['k'] + len(z)\n" for i in range(200)
) + "\nTOTAL = sum(f(1) for f in (" + ", ".join(f"f{i}" for i in range(200)) + "))\n"


def _interpreter(reps: int) -> float:
    """Scalar float arithmetic, branches and calls in pure Python, like the oracle and the CLI."""
    total = 0.0
    for i in range(reps):
        x = i * 1e-6
        total = total * 0.999 + (x * x if i & 1 else -x) + abs(x - 0.5)
    return total


def _compile(reps: int) -> float:
    """Compile and run a generated module: parsing, code objects, dicts, as an import does."""
    total = 0
    for _ in range(reps):
        namespace = {}
        exec(compile(_SOURCE, "<calibration>", "exec"), namespace)
        total += namespace["TOTAL"]
    return float(total)


def _update(dim: int, reps: int) -> float:
    """An AdaPlus-style update of dim-``dim`` vectors in numpy, with fresh temporaries and finiteness checks.

    At dim 10 its cost is per-call overhead; at dim 2^20 (8 MiB vectors) it is
    memory traffic and the allocation of the temporaries.
    """
    b1, b2, eps, lr, wd = 0.9, 0.999, 1e-8, 1e-3, 1e-2
    theta, m, s = np.linspace(-1.0, 1.0, dim), np.zeros(dim), np.zeros(dim)
    for t in range(1, reps + 1):
        g = 0.5 * theta + 0.25
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("calibration gradient is not finite")
        theta = theta * (1.0 - lr * wd)
        m = b1 * m + (1.0 - b1) * g
        r = g - m
        s = b2 * s + (1.0 - b2) * r * r + eps
        m_hat = (b1 * m + (1.0 - b1) * g) / (1.0 - b1**t)
        delta = -(lr * m_hat) / (np.sqrt(s / (1.0 - b2**t)) + eps)
        theta = theta + delta
        if not (np.all(np.isfinite(delta)) and np.all(np.isfinite(theta))):
            raise FloatingPointError("calibration update is not finite")
        m, s = m.copy(), s.copy()
        float(np.dot(theta, theta))
    return float(theta[0])


def _dense(reps: int, state={}) -> float:
    """Logistic losses and gradients on a 4000 x 64 design, full and on 400-row minibatches.

    The gradient is a mean over a broadcast (rows x features) temporary, so
    each full pass allocates and streams through 2 MiB arrays.
    """
    if not state:
        rng = np.random.default_rng(0)
        state["x"] = rng.standard_normal((_ROWS, _COLS))
        state["y"] = np.where(rng.standard_normal(_ROWS) > 0, 1.0, -1.0)
        state["rng"] = rng
    x, y, rng = state["x"], state["y"], state["rng"]
    w = np.zeros(_COLS)
    loss = 0.0
    for _ in range(reps):
        for rows in (slice(None), rng.choice(_ROWS, size=_ROWS // 10, replace=False)):
            xs, ys = x[rows], y[rows]
            margins = ys * (xs @ w)
            loss = float(np.mean(np.logaddexp(0.0, -margins)))
            grad = -(ys[:, None] * xs * (1.0 / (1.0 + np.exp(margins)))[:, None]).mean(axis=0)
        w = w - 0.01 * grad
    return loss


# recipe name -> parts, each a program and its arguments.  Each recipe
# mirrors the work of one workload and takes a third to a half of one
# operation.
# The mix was chosen by timing the operations and each program alternately
# on the reference machine under a neighbour's load and keeping the mix
# whose time tracked the operation's most closely.
RECIPES = {
    "quad_d10_replicas": ((_update, 10, 8000), (_compile, 24), (_interpreter, 1_650_000)),
    "quad_d1m": ((_update, _LARGE, 12),),
    "logistic_study": ((_dense, 110), (_update, 10, 2400)),
    "selftest_oracle": ((_interpreter, 450_000), (_compile, 7), (_update, 10, 2200)),
    "setup": ((_compile, 2), (_interpreter, 150_000)),
}

# seconds each recipe takes on the reference machine (2-core Xeon KVM guest,
# numpy 2.4.6, Python 3.11.7): the best of 15 runs
REFERENCE_S = {
    "quad_d10_replicas": 0.558,
    "quad_d1m": 0.387,
    "logistic_study": 0.443,
    "selftest_oracle": 0.155,
    "setup": 0.0333,
}


def run(recipe: str) -> float:
    """Wall seconds of one run of ``recipe``."""
    start = perf_counter()
    for program, *args in RECIPES[recipe]:
        program(*args)
    return perf_counter() - start


def serve(recipes) -> int:
    global np
    import numpy as np

    for name in recipes:  # warm-up: allocate buffers, fault pages in
        run(name)
    print("ready", flush=True)
    for line in sys.stdin:
        print(run(line.strip()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(serve(sys.argv[1:]))
