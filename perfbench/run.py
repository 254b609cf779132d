"""adaplus benchmark: one workload, one seed, every output checked, metrics as JSON.

Run from the repository root:

    python3 perfbench/run.py --workload quad_d10_replicas --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed`` (``workloads.py``) and
written to a scratch directory under ``.perfbench_work/``.  The program is
the package in ``src/``, run in fresh worker processes (``worker.py``) with
``ADAPLUS_BENCH_PARALLEL`` cleared and BLAS pinned to one thread.

- ``--trace 0`` prints the end-to-end metrics: set-up time (median of
  several fresh processes spread over the run), operation time (median of
  the run), steps per second at that time and the worker's peak resident
  memory.  Both times are calibrated (``calibrate.py``): each is measured as
  a ratio to a fixed calibration program timed right around it and given in
  seconds at the reference machine's speed, so that the machine's speed of
  the moment cancels.  The summary lines also give the raw wall times.
- ``--trace 1`` prints the per-layer metrics from a run whose operations
  alternate between untraced and traced (``spans.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable summary and the provenance.  Exits 2 without a result when
the package source is missing, 1 when a worker process fails.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import calibrate
import spans
import workloads

HERE = Path(__file__).resolve().parent

# name, unit, better: the end-to-end metrics of an untraced run (BENCHMARK.json "end_to_end")
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("steps_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

PARALLEL_ENV = "ADAPLUS_BENCH_PARALLEL"
# One BLAS thread: at dim 2^20 OpenBLAS splits a dot product across threads,
# which changes its rounding, so the pinned CSV digests hold only for a fixed
# thread count; one thread is also the faster setting on a two-core machine.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

RUN_TIMEOUT_S = 170


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != PARALLEL_ENV}
    env.update(BLAS_THREADS)
    env["PYTHONPATH"] = str(root / "src")
    return env


def git_revision(root: Path):
    """HEAD's commit id read from ``.git``, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(package: Path) -> str:
    """SHA-256 over the package's source files, names and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(str(path.relative_to(package)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, worker_result: dict) -> dict:
    return {
        "git_revision": git_revision(root),
        "src_sha256": source_digest(root / "src" / "adaplus"),
        "python": platform.python_version(),
        "numpy": worker_result["numpy"],
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "env": {PARALLEL_ENV: None, **BLAS_THREADS},
    }


def _worker(args, root: Path, timeout: float) -> dict:
    """Run ``worker.py`` with ``args``; returns its JSON result, raises RuntimeError on failure."""
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=root, env=child_env(root), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"worker {args[0]} timed out after {timeout:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"worker {args[0]} exited {done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(lines[-1])


def end_to_end(workload: str, result) -> dict:
    """Times as the median ratio to the bracketing calibration, in seconds at the reference speed."""
    run_s = statistics.median(result["run_ratio"]) * calibrate.REFERENCE_S[workload]
    return {
        "setup_s": statistics.median(result["setup_ratio"]) * calibrate.REFERENCE_S["setup"],
        "run_s": run_s,
        "steps_per_s": result["steps"] / run_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def summary(args, result, metrics, units) -> list[str]:
    lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace}"]
    run_s = result["run_s"]
    for name, value in metrics.items():
        note = ""
        if name == "run_s" and not args.trace:
            note = (f"calibrated median of {len(run_s)} operations; wall median {statistics.median(run_s):.4f}, "
                    f"min {min(run_s):.4f}, max {max(run_s):.4f}")
        elif name == "setup_s":
            note = (f"calibrated median of {len(result['setup_s'])} fresh processes; "
                    f"wall median {statistics.median(result['setup_s']):.4f}")
        elif name == "steps_per_s":
            note = f"{result['steps']} steps per operation"
        elif name == "kernels.bytes_per_step":
            note = "computed from array sizes, not measured"
        elif name == "kernels.floor_ns_per_elem":
            note = "bare in-place numpy update, dim 2^20 (8 MiB per vector)"
        lines.append(f"  {name:<28} {value:>14.6g} {units[name]:<6} {note}")
    rate = result["failed"] / result["attempted"]
    counts = f"{result['failed']} failed / {result['attempted']} attempted"
    lines.append(f"  {'error_rate':<28} {rate:>14.6g} {'ratio':<6} {counts}")
    for error in result["errors"]:
        lines.append(f"  error: {error.strip()}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "adaplus" / "__init__.py").is_file():
        print(f"error: no package source at {root / 'src' / 'adaplus'}; run from the repository root",
              file=sys.stderr)
        return 2

    spec = workloads.generate(args.workload, args.seed)
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        (work / "out").mkdir(parents=True)
        (work / "spec.json").write_text(json.dumps(spec, indent=1))
        for name, text in spec["configs"].items():
            (work / f"{name}.cfg").write_text(text)

        result = _worker(
            ["measure", "--work", str(work), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            root, RUN_TIMEOUT_S,
        )
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".perfbench_work").rmdir()
        except OSError:
            pass

    package = Path(result["package"]).resolve()
    if package != (root / "src" / "adaplus").resolve():
        result["errors"].append(f"worker imported the package from {package}, not from src/")
    if args.trace:
        metrics = result["layers"]
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
    else:
        metrics = end_to_end(args.workload, result)
        units = {name: unit for name, unit, _ in END_TO_END}
    # errors include every wrong span count of a traced run
    correct = result["failed"] == 0 and not result["errors"]

    for line in summary(args, result, metrics, units):
        print(line)
    print("provenance " + json.dumps(provenance(root, result), sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
