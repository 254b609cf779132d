"""Tests of the benchmark itself: deterministic inputs, declared metrics, failure without the package.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(tmp_root: Path, workload: str, trace: int, seconds: str = "0.5"):
    return subprocess.run(
        [sys.executable, str(tmp_root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
        cwd=tmp_root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    for seed in (0, 1, 12345):
        assert workloads.generate(workload, seed) == workloads.generate(workload, seed)
        json.dumps(workloads.generate(workload, seed))


@pytest.mark.parametrize("workload", ("quad_d10_replicas", "logistic_study"))
def test_generator_varies_inputs_with_the_seed(workload):
    specs = [workloads.generate(workload, seed) for seed in range(5)]
    assert len({json.dumps(spec["configs"], sort_keys=True) for spec in specs}) == 5


def test_every_drawable_quadratic_replica_is_pinned():
    pins = json.loads((BENCH / "pins.json").read_text())
    for workload in workloads.QUAD_SHAPES:
        pool = {str(seed) for seed in workloads.replica_pool(workload)}
        assert set(pins[workload]["replicas"]) == pool
        for seed in range(20):
            spec = workloads.generate(workload, seed)
            assert {str(s) for s in spec["seeds"]} <= pool


def test_declared_workloads_and_metrics_match_the_code():
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == [
        w for w in workloads.WORKLOADS if w not in workloads.UNDECLARED
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == list(spans.PER_LAYER)


@pytest.mark.parametrize("trace", (0, 1))
def test_printed_metrics_match_benchmark_json(trace):
    done = _bench(ROOT, "selftest_oracle", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "quad_d10_replicas", 0)
    assert done.returncode != 0
    assert done.stdout == ""


def test_uninstall_restores_every_traced_entry_point():
    sys.path.insert(0, str(ROOT / "src"))
    from adaplus import bench, cli, kernels, problems

    before = (dict(kernels.KERNEL_STEPS), cli.replay, cli.drive_stream, bench.run,
              problems.GradientSource.gradient, problems.Problem.evaluate)
    uninstall = spans.install(spans.Tracer())
    assert kernels.KERNEL_STEPS["adaplus"] is not before[0]["adaplus"]
    assert cli.replay is not before[1]
    uninstall()
    after = (dict(kernels.KERNEL_STEPS), cli.replay, cli.drive_stream, bench.run,
             problems.GradientSource.gradient, problems.Problem.evaluate)
    assert after == before


def test_traced_counts_catch_a_bypassed_kernel():
    sys.path.insert(0, str(ROOT / "src"))
    from adaplus import HyperParams, kernels

    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        kernels.drive_stream("adam", [[1.0, 2.0]] * 3, [0.0, 0.0], HyperParams(), [1e-3] * 3)
    finally:
        uninstall()
    assert tracer.calls(spans.KERNEL, "kernels.drive_stream") == tracer.counters["stream_steps"] == 3

    spec = workloads.generate("quad_d10_replicas", 0)
    errors = spans.validity_errors(tracer, spec)
    assert any("kernels.calls" in e for e in errors)


def test_every_workload_and_the_set_up_have_a_calibration():
    assert set(calibrate.RECIPES) == set(workloads.WORKLOADS) | {"setup"}
    assert set(calibrate.REFERENCE_S) == set(calibrate.RECIPES)
    assert all(seconds > 0 for seconds in calibrate.REFERENCE_S.values())


def test_calibration_process_times_a_recipe_and_exits():
    calibrator = worker.Calibrator("setup")
    try:
        assert calibrator.time("setup") > 0
    finally:
        calibrator.close()
    assert calibrator.process.returncode == 0
