"""Write ``pins.json``: the expected CSV output of the quadratic workloads, as SHA-256 digests.

For each quadratic workload, run one config holding every replica seed of
its pool and record the digest of the CSV header and of each replica's
block of rows.  A replica's rows depend only on its own seed and the config,
so the digests check any seed subset a benchmark run draws.  The arithmetic
is IEEE-exact elementwise math and dot products; with BLAS on one thread the
digests do not depend on the machine's core count.

Run from the repository root, on the commit whose output is the reference:

    python3 perfbench/pin.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import run
import workloads
from worker import csv_digests


def main() -> int:
    root = Path.cwd()
    os.environ.update(run.BLAS_THREADS)  # before numpy is first imported
    os.environ.pop(run.PARALLEL_ENV, None)
    sys.path.insert(0, str(root / "src"))
    from adaplus import cli

    pins = {"pinned_at": run.git_revision(root), "src_sha256": run.source_digest(root / "src" / "adaplus")}
    with tempfile.TemporaryDirectory(dir=root) as scratch:
        for workload in workloads.QUAD_SHAPES:
            config = Path(scratch) / f"{workload}.cfg"
            config.write_text(workloads.quad_config(workload, workloads.replica_pool(workload)))
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", "--config", str(config), "--out", scratch])
            if code != 0:
                print(f"error: {workload} pool run exited {code}", file=sys.stderr)
                return 1
            header, blocks = csv_digests((Path(scratch) / f"{workload}.csv").read_bytes())
            pins[workload] = {"header": header, "replicas": {str(seed): d for seed, d in blocks.items()}}
            print(f"{workload}: {len(blocks)} replica blocks pinned")
    (Path(__file__).parent / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
