"""Command-line benchmark harness.

Subcommands:

- ``run --config <file> --out <dir> [--format csv|json]``: execute one run
  config and write the record.
- ``compare --inputs <json files...> [--out <file>]``: align records for one
  problem into a comparison table.
- ``selftest``: drive every kernel against the scalar oracle and check each
  reduction of ``kernels.REDUCTIONS``.  Its transcripts, like every
  transcript, come from the Python-float core, so it checks that core; the
  test suite checks the ufunc core against the oracle too, through the lean
  step's parameters and moments above ``kernels.SCALAR_MAX``.

Exit codes: 0 success; 1 for a failed selftest and, in ``main`` alone, for
any ``ValueError``, ``OSError`` or ``MemoryError`` (one ``error:`` line; a
problem too large to allocate is bad input); 2 a numerical abort.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import bench
from .kernels import KERNEL_IDS, REDUCTIONS, HyperParams, drive_stream
from .oracle import replay
from .transcript import scaled_deviation


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # numerical aborts here, so usage problems report as config errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="adaplus-bench",
        description="Deterministic optimizer benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a run config")
    p_run.add_argument("--config", required=True, help="flat key=value run config file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")

    p_cmp = sub.add_parser("compare", help="tabulate emitted JSON records")
    p_cmp.add_argument("--inputs", required=True, nargs="+", help="record JSON files")
    p_cmp.add_argument("--out", help="write the table here as well")

    sub.add_parser("selftest", help="run the oracle differential suite")
    return parser


def _cmd_run(args) -> int:
    config = bench.load_config(args.config)
    record = bench.run(config)
    out_dir = Path(args.out)
    stem = Path(args.config).stem
    out_dir.mkdir(parents=True, exist_ok=True)
    if record.summary.aborted:
        path = out_dir / f"{stem}.aborted.json"
        bench.emit(record, "json", path)
        print(f"error: run aborted ({record.summary.abort_reason})", file=sys.stderr)
        print(f"partial record flagged in {path}", file=sys.stderr)
        return 2
    path = out_dir / f"{stem}.{args.format}"
    bench.emit(record, args.format, path)
    print(f"wrote {path}")
    print(f"config {record.config_hash[:12]}  problem {record.problem_id}  optimizer {record.optimizer_id}")
    seeds, finals, _ = bench.seed_losses(record.rows)
    for seed, loss in zip(seeds, finals):
        print(f"  seed {seed}: final loss {loss:.6e}")
    return 0


def _cmd_compare(args) -> int:
    records = [bench.load_record(p) for p in args.inputs]
    table = bench.compare(records)
    text = table.render()
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


def _selftest_streams(rng):
    for _ in range(8):
        dim = int(rng.integers(1, 13))
        steps = int(rng.integers(40, 120))
        stream = [rng.standard_normal(dim) * rng.uniform(0.1, 3.0) for _ in range(steps)]
        theta0 = rng.standard_normal(dim)
        lrs = [1e-3] * steps
        yield stream, theta0, lrs


def _cmd_selftest(args) -> int:
    failures = 0
    rng = np.random.default_rng(20240901)
    hp = HyperParams()
    for kernel in KERNEL_IDS:
        worst = 0.0
        for stream, theta0, lrs in _selftest_streams(rng):
            got = drive_stream(kernel, stream, theta0, hp, lrs)
            want = replay(kernel, stream, theta0, hp, lrs)
            worst = max(worst, scaled_deviation(got, want))
        ok = worst <= 1e-12
        failures += 0 if ok else 1
        print(f"selftest differential[{kernel}]: {'PASS' if ok else 'FAIL'} (worst deviation {worst:.2e})")

    rng = np.random.default_rng(7)
    stream = [rng.standard_normal(4) for _ in range(60)]
    theta0 = rng.standard_normal(4)
    lrs = [1e-3] * 60
    for label, *sides in REDUCTIONS:
        left, right = (drive_stream(k, stream, theta0, HyperParams(**overrides), lrs) for k, overrides in sides)
        # every field of every step equal, as ``==`` reads floats
        ok = np.array_equal(left, right)
        print(f"selftest reduction[{label}]: {'PASS' if ok else 'FAIL'}")
        failures += 0 if ok else 1

    print("selftest:", "OK" if failures == 0 else f"{failures} FAILURES")
    return 0 if failures == 0 else 1


_COMMANDS = {"run": _cmd_run, "compare": _cmd_compare, "selftest": _cmd_selftest}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
