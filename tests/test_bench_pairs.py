import importlib.util
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    if not TOOL.is_file():
        pytest.skip("tools/bench_pairs.py is absent")
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = ["trial_sinusoid", "campaign_mc", "capture_paths"]


def test_parse_pairs_reads_each_workload(bench_pairs):
    pairs = bench_pairs.parse_pairs(["capture_paths=10", "campaign_mc=1"], WORKLOADS)
    assert pairs == {"capture_paths": 10, "campaign_mc": 1}


@pytest.mark.parametrize(
    "item, message",
    [
        ("capture_path=3", "unknown workload"),
        ("capture_paths", "at least 1"),
        ("capture_paths=x", "at least 1"),
        ("capture_paths=0", "at least 1"),
        ("capture_paths=-2", "at least 1"),
    ],
)
def test_bad_pairs_are_a_usage_error(bench_pairs, capsys, item, message):
    with pytest.raises(ValueError, match=message):
        bench_pairs.parse_pairs([item], WORKLOADS)
    argv = ["--parent", "HEAD", "--change", "HEAD", "--seed", "1",
            "--pairs", item, "--out", "unused.json"]
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "parent, change, better, met",
    [
        # Wins 10/10 and the medians are 2.0 apart against a parent IQR of 0.5.
        ([10.0, 10.5] * 5, [8.0, 8.5] * 5, "lower", True),
        # Same gap, but the change wins only 8 of 10 pairs.
        ([10.0, 10.5] * 5, [8.0, 8.5] * 4 + [11.0, 11.0], "lower", False),
        # Wins every pair by less than the parent's IQR.
        ([10.0, 12.0] * 5, [9.9, 11.9] * 5, "lower", False),
        # A higher-is-better metric that rises by more than the IQR.
        ([10.0, 10.5] * 5, [12.0, 12.5] * 5, "higher", True),
        # The same values read as a lower-is-better metric: a loss.
        ([10.0, 10.5] * 5, [12.0, 12.5] * 5, "lower", False),
    ],
)
def test_claim_rule(bench_pairs, parent, change, better, met):
    out = bench_pairs.summarize(parent, change, better)
    assert out["pairs"] == 10
    assert out["claim_rule_met"] is met


def fake_clone(commit, dest):
    dest.mkdir()
    manifest = (TOOL.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8")
    (dest / "BENCHMARK.json").write_text(manifest, encoding="utf-8")


@pytest.mark.parametrize("stop", [SystemExit("run failed"), KeyboardInterrupt()])
def test_failed_run_removes_the_clones(bench_pairs, monkeypatch, tmp_path, stop):
    clones = []

    def recording_clone(commit, dest):
        fake_clone(commit, dest)
        clones.append(dest)

    def failing_run(*args):
        raise stop

    monkeypatch.setattr(bench_pairs, "git", lambda repo, *args: "0" * 40)
    monkeypatch.setattr(bench_pairs, "clone_at", recording_clone)
    monkeypatch.setattr(bench_pairs, "run_bench", failing_run)
    argv = ["--parent", "HEAD", "--change", "HEAD", "--seed", "1",
            "--pairs", "capture_paths=1", "--out", str(tmp_path / "out.json")]
    with pytest.raises(type(stop)):
        bench_pairs.main(argv)
    assert len(clones) == 2
    assert not clones[0].parent.exists()


@pytest.mark.parametrize(
    "claim, message",
    [
        ("trial_sinusoid:peak_rss", "'peak_rss' is not an end-to-end metric"),
        ("trial_sinusoid", "'' is not an end-to-end metric"),
        ("campaign_mc:peak_rss_mb", "workload 'campaign_mc' has no --pairs"),
        ("trial_sinusoids:wall_s", "workload 'trial_sinusoids' has no --pairs"),
    ],
    ids=["metric-typo", "no-metric", "workload-unmeasured", "workload-typo"],
)
def test_bad_claim_is_a_usage_error_before_any_clone(
    bench_pairs, monkeypatch, capsys, tmp_path, claim, message
):
    def no_clone(commit, dest):
        raise AssertionError("cloned before the claim was checked")

    monkeypatch.setattr(bench_pairs, "git", lambda repo, *args: "0" * 40)
    monkeypatch.setattr(bench_pairs, "clone_at", no_clone)
    argv = ["--parent", "HEAD", "--change", "HEAD", "--seed", "1",
            "--pairs", "trial_sinusoid=1", "--claim", claim, "--out", str(tmp_path / "o.json")]
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_claimed_pair_records_its_rule_and_change(bench_pairs, monkeypatch, tmp_path):
    runs = []

    def fake_run(clone, workload, seed, trace):
        # The change's peak_rss_mb is 10 % lower on trial_sinusoid only.
        runs.append(None)
        value = 40.0 + 0.01 * len(runs)
        if clone.name == "change" and workload == "trial_sinusoid":
            value *= 0.9
        metrics = {m: {"value": value} for m in ("wall_s", "sim_steps_per_s", "trial_ms_p50",
                                                  "trial_ms_p90", "setup_s", "peak_rss_mb")}
        return {"reference": "matched", "result": {"correct": True, "metrics": metrics},
                "environment": {"git_commit": "0" * 40}}

    monkeypatch.setattr(bench_pairs, "git", lambda repo, *args: "0" * 40)
    monkeypatch.setattr(bench_pairs, "clone_at", fake_clone)
    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    out = tmp_path / "out.json"
    argv = ["--parent", "HEAD", "--change", "HEAD", "--seed", "1",
            "--pairs", "trial_sinusoid=10", "--pairs", "capture_paths=1",
            "--claim", "trial_sinusoid:peak_rss_mb", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    summary = doc["workloads"]["trial_sinusoid"]["metrics"]["peak_rss_mb"]
    assert summary["claim_rule_met"] is True
    assert doc["claimed"] == {
        "workload": "trial_sinusoid",
        "metric": "peak_rss_mb",
        "claim_rule_met": True,
        "rel_change": summary["rel_change"],
    }
    assert summary["rel_change"] == pytest.approx(-0.1, abs=1e-3)


# Run in a child process, so that a SIGTERM with no handler ends only it.
SIGTERM_CHILD = """
import importlib.util, os, signal, sys

spec = importlib.util.spec_from_file_location("bench_pairs", sys.argv[1])
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
manifest = (bench_pairs.ROOT / "BENCHMARK.json").read_text(encoding="utf-8")


def fake_clone(commit, dest):
    dest.mkdir()
    (dest / "BENCHMARK.json").write_text(manifest, encoding="utf-8")


def terminated_run(*args):
    os.kill(os.getpid(), signal.SIGTERM)
    raise AssertionError("SIGTERM did not stop the run")


bench_pairs.git = lambda repo, *args: "0" * 40
bench_pairs.clone_at = fake_clone
bench_pairs.run_bench = terminated_run
bench_pairs.main(["--parent", "HEAD", "--change", "HEAD", "--seed", "1",
                  "--pairs", "capture_paths=1", "--out", sys.argv[2]])
"""


def test_sigterm_removes_the_clones(tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-c", SIGTERM_CHILD, str(TOOL), str(tmp_path / "out.json")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert list(tmp_path.glob("bench_pairs-*")) == []
    assert proc.returncode == 128 + signal.SIGTERM, proc.stderr
