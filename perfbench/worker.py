"""Fresh-process side of the benchmark: set up, run operations in a closed loop, check every output.

Started by ``run.py`` with the package's ``src`` on ``PYTHONPATH``, the
generated spec and config files in a work directory, BLAS pinned to one
thread and ``ADAPLUS_BENCH_PARALLEL`` cleared.  Two modes:

- ``setup``: time the import, config parse and problem build, print it, exit.
- ``measure``: set up, run one warm-up operation (it records the reference
  output the logistic study is held to), then run operations back to back
  for ``--seconds`` and print a JSON result as the last line.  With
  ``--trace 0`` each operation is bracketed by runs of the workload's
  calibration recipe (``calibrate.py``, in a process of its own), and
  ``setup`` processes, each bracketed by the set-up recipe, are started
  between operations, spread over the run, one at a time; their time is not
  counted in ``--seconds``.
  With ``--trace 1`` the operations alternate between untraced and traced,
  so the per-layer numbers and the tracing overhead come from the same run.

Nothing from numpy or the package is imported before the set-up clock starts.
"""

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

# fresh set-up processes per untraced run.  A neighbour's load on a shared
# machine comes in bursts of seconds; spreading the probes over the run keeps
# one burst from setting the median.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

# the one field of an emitted JSON record that is not a function of the config
_WALL_TIME = re.compile(rb'"wall_time_s": [^,\n]+')
_PASS = re.compile(r"^selftest \w+\[.+\]: PASS( |$)")


def set_up(spec: dict, work: Path):
    """Import, parse every config and build the problem once; returns (seconds, cli module)."""
    start = time.perf_counter()
    from adaplus import bench, cli

    configs = [bench.load_config(work / f"{name}.cfg") for name in spec["configs"]]
    built = {}
    for config in configs:
        if config.problem_id() not in built:
            built[config.problem_id()] = bench.build_problem(config)
    return time.perf_counter() - start, cli


def csv_digests(data: bytes) -> tuple[str, dict]:
    """SHA-256 of a run CSV's header and of each replica's block of rows, blocks in file order."""
    lines = data.split(b"\n")
    blocks = {}
    for line in lines[1:-1]:
        blocks.setdefault(int(line.split(b",", 1)[0]), []).append(line)
    # an unterminated last row is left out of its block, so its digest fails
    digests = {seed: hashlib.sha256(b"\n".join(rows) + b"\n").hexdigest() for seed, rows in blocks.items()}
    return hashlib.sha256(lines[0]).hexdigest(), digests


def _call(cli, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class RunOperation:
    """``adaplus-bench run`` on one quadratic config; CSV blocks checked against the pins."""

    def __init__(self, spec, work, cli, pins):
        self.cli, self.spec = cli, spec
        (self.name,) = spec["configs"]
        self.config = str(work / f"{self.name}.cfg")
        self.out = work / "out"
        self.pins = pins[spec["workload"]]

    def __call__(self):
        return _call(self.cli, ["run", "--config", self.config, "--out", str(self.out)])[0]

    def check(self, code, reference) -> list[str]:
        if code != 0:
            return [f"run exited {code}"]
        header, blocks = csv_digests((self.out / f"{self.name}.csv").read_bytes())
        if header != self.pins["header"]:
            return ["CSV header differs from the pinned output"]
        errors = []
        if list(blocks) != self.spec["seeds"]:
            errors.append(f"CSV replica blocks {list(blocks)} != seeds {self.spec['seeds']}")
        for seed, digest in blocks.items():
            if digest != self.pins["replicas"].get(str(seed)):
                errors.append(f"CSV rows of replica {seed} differ from the pinned output")
        return errors

    def reference(self, code):
        return None


class StudyOperation:
    """Every optimizer on one logistic problem, emitted as JSON, then ``compare`` over the records."""

    def __init__(self, spec, work, cli, pins):
        self.cli, self.spec = cli, spec
        self.configs = {opt: str(work / f"{opt}.cfg") for opt in spec["configs"]}
        self.out = work / "out"
        self.table = work / "table.txt"

    def __call__(self):
        codes = [
            _call(self.cli, ["run", "--config", path, "--out", str(self.out), "--format", "json"])[0]
            for path in self.configs.values()
        ]
        records = [str(self.out / f"{opt}.json") for opt in self.configs]
        codes.append(_call(self.cli, ["compare", "--inputs", *records, "--out", str(self.table)])[0])
        return codes

    def check(self, codes, reference) -> list[str]:
        errors = [f"command {i} exited {code}" for i, code in enumerate(codes) if code != 0]
        aborted = [opt for opt in self.configs if (self.out / f"{opt}.aborted.json").exists()]
        if aborted:
            errors.append(f"aborted records reached compare: {aborted}")
        per_run = self.spec["log_rows"] // self.spec["runs"]
        for opt in self.configs:
            path = self.out / f"{opt}.json"
            doc = json.loads(path.read_bytes()) if path.exists() else None
            if doc is None or doc["summary"]["aborted"] or len(doc["rows"]) != per_run:
                errors.append(f"{opt}: record missing, aborted or not {per_run} rows")
        table = self.table.read_text() if self.table.exists() else ""
        labels = [line.split()[0] for line in table.splitlines()[2:]]
        if sorted(labels) != sorted(self.configs):
            errors.append(f"comparison table rows {labels} != optimizers {sorted(self.configs)}")
        if not errors and reference is not None and self.reference(codes) != reference:
            errors.append("records or comparison table differ from the reference recorded at start")
        return errors

    def reference(self, codes):
        """Bytes of every record, wall time masked, and of the table."""
        records = [_WALL_TIME.sub(b"", (self.out / f"{opt}.json").read_bytes()) for opt in self.configs]
        return records, self.table.read_bytes()


class SelftestOperation:
    """``adaplus-bench selftest``: exit 0, every check line PASS, summary OK."""

    def __init__(self, spec, work, cli, pins):
        self.cli = cli
        self.text = ""

    def __call__(self):
        code, self.text = _call(self.cli, ["selftest"])
        return code

    def check(self, code, reference) -> list[str]:
        lines = self.text.splitlines()
        errors = [] if code == 0 else [f"selftest exited {code}"]
        if not lines or lines[-1] != "selftest: OK":
            errors.append("selftest summary is not OK")
        failing = [line for line in lines[:-1] if not _PASS.search(line)]
        if failing or len(lines) < 2:
            errors.append(f"selftest lines not PASS: {failing or lines}")
        return errors

    def reference(self, code):
        return None


OPERATIONS = {"run": RunOperation, "study": StudyOperation, "selftest": SelftestOperation}


def _attempt(call, operation, reference, errors):
    """Run ``call`` and check its result; returns (seconds, result, ok) and appends to ``errors``."""
    start = time.perf_counter()
    elapsed = result = None
    try:
        result = call()
        elapsed = time.perf_counter() - start
        problems = operation.check(result, reference)
    except Exception:
        problems = [traceback.format_exc()]
    if elapsed is None:
        elapsed = time.perf_counter() - start
    errors.extend(problems)
    return elapsed, result, not problems


def _probe(work: Path) -> float:
    """Set-up seconds of one fresh ``setup`` process, which runs alone."""
    done = subprocess.run(
        [sys.executable, __file__, "setup", "--work", str(work)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"setup process exited {done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _calibrated_probe(calibrator, work: Path) -> tuple[float, float]:
    """One set-up probe: its seconds and their ratio to the set-up recipe's time around it."""
    before = calibrator.time("setup")
    seconds = _probe(work)
    after = calibrator.time("setup")
    return seconds, seconds / ((before + after) / 2)


class Calibrator:
    """The calibration process (``calibrate.py <recipes>``): ``time(recipe)`` runs a recipe there, returns its seconds."""

    def __init__(self, *recipes):
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).parent / "calibrate.py"), *recipes],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self.process.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("calibration process did not start")

    def time(self, recipe: str) -> float:
        self.process.stdin.write(recipe + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration process exited {self.process.poll()}")
        return float(line)

    def close(self):
        try:
            self.process.stdin.close()
            self.process.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()


def _traced(tracer, operation, reference, errors):
    tracer.reset()
    uninstall = spans.install(tracer)
    try:
        return _attempt(tracer.span(spans.ROOT, operation), operation, reference, errors)
    finally:
        uninstall()


def measure(spec: dict, work: Path, seconds: float, traced: bool) -> dict:
    _, cli = set_up(spec, work)
    pins = json.loads((Path(__file__).parent / "pins.json").read_text())
    operation = OPERATIONS[spec["kind"]](spec, work, cli, pins)
    errors: list[str] = []

    # warm-up, traced: it counts the selftest's steps, records the reference
    # output and checks the span counts once
    tracer = spans.Tracer()
    _, result, ok = _traced(tracer, operation, None, errors)
    attempted, failed = 1, int(not ok)
    reference = operation.reference(result) if ok else None
    steps = spec["steps"] if spec["steps"] is not None else int(tracer.counters["stream_steps"])
    if not steps:
        errors.append("could not count the optimizer steps of one operation")
    validity = spans.validity_errors(tracer, spec) if traced else []

    untraced_s, traced_s, per_op, durations = [], [], [], {}
    run_ratio, probes = [], []  # probes: (set-up seconds, ratio to the set-up recipe)
    recipe = spec["workload"]
    calibrator = None if traced else Calibrator(recipe, "setup")
    try:
        before = calibrator.time(recipe) if calibrator else None
        start = time.perf_counter()
        deadline = start + seconds
        probe_at = [] if traced else [start + seconds * (i + 0.5) / SETUP_PROBES for i in range(SETUP_PROBES)]
        while time.perf_counter() < deadline or len(untraced_s) < 3:
            elapsed, _, ok = _attempt(operation, operation, reference, errors)
            attempted, failed = attempted + 1, failed + (not ok)
            untraced_s.append(elapsed)
            if calibrator:
                after = calibrator.time(recipe)
                run_ratio.append(elapsed / ((before + after) / 2))
                before = after
            if probe_at and time.perf_counter() >= probe_at[0]:
                paused = time.perf_counter()
                probes.append(_calibrated_probe(calibrator, work))
                pause = time.perf_counter() - paused
                deadline += pause
                probe_at = [t + pause for t in probe_at[1:]]
            if traced:
                elapsed, _, ok = _traced(tracer, operation, reference, errors)
                attempted, failed = attempted + 1, failed + (not ok)
                traced_s.append(elapsed)
                per_op.append(spans.operation_values(tracer, spec["kind"]))
                validity += spans.validity_errors(tracer, spec)
                for name, values in tracer.durations.items():
                    durations.setdefault(name, []).extend(values)

        for _ in probe_at:
            probes.append(_calibrated_probe(calibrator, work))
    finally:
        if calibrator:
            calibrator.close()

    import numpy

    out = {
        "setup_s": [probe[0] for probe in probes],
        "setup_ratio": [probe[1] for probe in probes],
        "run_s": untraced_s,
        "run_ratio": run_ratio,
        "steps": steps,
        "attempted": attempted,
        "failed": failed,
        "errors": list(dict.fromkeys(errors))[:20] + sorted(set(validity)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
        "package": str(Path(sys.modules["adaplus"].__file__).parent),
    }
    if traced:
        out["layers"] = spans.layer_metrics(per_op, durations, untraced_s, traced_s, spans.floor_ns_per_elem())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((args.work / "spec.json").read_text())
    if args.mode == "setup":
        result = {"setup_s": set_up(spec, args.work)[0]}
    else:
        result = measure(spec, args.work, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
