"""The benchmark's own tests: a tiny pass of every workload, traced and untraced.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
import inputs  # noqa: E402
import run_bench  # noqa: E402

MANIFEST = run_bench.load_manifest()
SECONDS = 0.5


def tiny_run(workload: str, trace: bool, seed: int = 0) -> dict:
    deadline = run_bench.time.monotonic() + run_bench.RUN_DEADLINE_S
    return run_bench.run_workload(workload, seed, SECONDS, trace, "tiny", MANIFEST, deadline)


@pytest.fixture(scope="module", params=inputs.WORKLOADS)
def untraced(request):
    return tiny_run(request.param, trace=False)


@pytest.fixture(scope="module", params=inputs.WORKLOADS)
def traced(request):
    return tiny_run(request.param, trace=True)


def assert_declared(record: dict, declared: list[dict]) -> None:
    for metric in declared:
        name = metric["name"]
        assert name in record["metrics"], name
        assert record["units"][name] == metric["unit"], name
        assert isinstance(record["metrics"][name], float), name


def test_end_to_end_metrics_and_checks(untraced):
    assert_declared(untraced, MANIFEST["end_to_end"])
    assert untraced["metrics"]["output_ok"] == 1.0, untraced["check"]["problems"]
    assert untraced["metrics"]["fail_frac"] == 0.0
    assert untraced["check"]["reference"] == "matched"
    assert untraced["correct"] and untraced["failed"] == 0
    assert all(v > 0 for k, v in untraced["metrics"].items()
               if k in {m["name"] for m in MANIFEST["end_to_end"]})


def test_per_layer_metrics_and_tracer_checks(traced):
    assert_declared(traced, MANIFEST["per_layer"])
    assert traced["metrics"]["output_ok"] == 1.0, traced["check"]["problems"]
    assert traced["trace_checks"]["restored"] is True
    assert traced["trace_checks"]["self_sum_ok"] is True
    assert traced["trace_checks"]["unlayered"] == []
    assert traced["metrics"]["simulation.steps"] > 0
    for name, (_, workloads) in run_bench.EXTRA_METRICS.items():
        if traced["workload"] in workloads:
            assert name in traced["metrics"] and name in traced["units"], name


def test_held_out_seed_passes_the_invariants():
    record = tiny_run("capture_paths", trace=False, seed=987)
    assert record["check"]["reference"] == "absent"
    assert record["correct"], record["check"]["problems"]


def test_tracer_restores_every_wrapped_name():
    sys.path.insert(0, str(ROOT / "src"))
    import tracer
    import vfpath.cli
    import vfpath.paths
    import vfpath.simulation

    before = (vfpath.simulation.step_vehicle, vfpath.cli.run_trial,
              vfpath.paths.ReferencePath.__dict__["closest_parameter"])
    spans = tracer.install()
    assert vfpath.simulation.step_vehicle is not before[0]
    config = vfpath.simulation.benchmark_scenario(max_time=0.5)
    vfpath.simulation.run_trial(config)
    spans.restore()
    assert spans.restored()
    after = (vfpath.simulation.step_vehicle, vfpath.cli.run_trial,
             vfpath.paths.ReferencePath.__dict__["closest_parameter"])
    assert all(a is b for a, b in zip(before, after))
    spans.analyze()
    assert len(spans.trial_spans) == 1
    assert (spans.trial_of >= 0).all()  # every span lies inside the trial


def test_reference_comparison_catches_changed_outputs(untraced):
    reference = check.load_reference()
    spec = untraced["inputs"]
    entry = reference["runs"][check.reference_key(spec["workload"], "tiny", spec["seed"])]
    changed = copy.deepcopy(entry)
    changed["rows"][0][check.KEYS[spec["workload"]] + 2] *= 1.01  # d_rms of the first trial
    assert check.compare_reference(spec["workload"], entry, entry) == []
    assert check.compare_reference(spec["workload"], changed, entry)


def test_command_prints_result_line_last():
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run_bench.py"), "--workload", "trial_sinusoid",
         "--seed", "1", "--seconds", str(SECONDS), "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in MANIFEST["end_to_end"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "capture_paths", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
