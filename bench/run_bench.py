"""vfpath benchmark: three workloads, end-to-end metrics, per-layer metrics.

Run from the root of a checkout (see bench/README.md):

    python3 bench/run_bench.py --workload trial_sinusoid --seed 0 --seconds 30 --trace 0
    python3 bench/run_bench.py                  # every workload, default seed

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Every metric is also printed above it by name with its unit,
and a full run record goes to ``.bench_results/``.

This process only orchestrates and uses the standard library.  The program is
imported from ``src/`` by fresh measuring processes (``measure.py``): one per
set-up probe and one for the timed passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
import inputs  # noqa: E402

RESULTS_DIR = ROOT / ".bench_results"
# Fresh-interpreter set-up probes per run, before and after the timed passes
# so that the median covers the host's state over the whole run.
SETUP_PROBES_BEFORE = 3
SETUP_PROBES_AFTER = 4
# Timings are reported in seconds on a host where measure.calibrate() takes
# this long (about its time on the machine the benchmark was built on).
CALIBRATION_REF_S = 0.005
# A run must end well inside 180 s whatever --seconds asks for.
RUN_DEADLINE_S = 170.0

# Metrics printed but not listed in BENCHMARK.json, with their units and the
# workloads they are printed for: the two check results (every workload) and
# per-layer numbers that only some workloads exercise, which would read a
# constant 0 elsewhere.
_CLI = ("trial_sinusoid", "campaign_mc")
EXTRA_METRICS = {
    "fail_frac": ("frac", inputs.WORKLOADS),
    "output_ok": ("bool", inputs.WORKLOADS),
    "paths.closest_parameter.sinusoid.us": ("us", _CLI),
    "paths.share.sinusoid": ("frac", _CLI),
    **{f"paths.closest_parameter.{kind}.us": ("us", ("capture_paths",))
       for kind in ("polyline", "line", "circle")},
    **{f"paths.share.{kind}": ("frac", ("capture_paths",))
       for kind in ("polyline", "line", "circle")},
    **{f"baselines.{name}.us": ("us", _CLI) for name in ("basic_vf_command", "plos_command")},
    **{f"baselines.{name}.us": ("us", ("trial_sinusoid",))
       for name in ("nlgl_command", "nlgl_virtual_target")},
    "baselines.nlgl_feasible_frac": ("frac", ("trial_sinusoid",)),
    **{f"simulation.converged_frac.{law}": ("frac", _CLI) for law in ("basic_vf", "plos")},
    "simulation.converged_frac.nlgl": ("frac", ("trial_sinusoid",)),
    "simulation.monte_carlo.parallel_eff": ("frac", ("campaign_mc",)),
    "cli.write_trajectory_csv.us_per_row": ("us", ("trial_sinusoid",)),
    "cli.write_summary_csv.ms": ("ms", ("campaign_mc",)),
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


def load_manifest() -> dict:
    manifest = ROOT / "BENCHMARK.json"
    if not manifest.is_file():
        raise BenchError(f"{manifest} not found; run from the root of a vfpath checkout")
    return json.loads(manifest.read_text(encoding="utf-8"))


def check_checkout() -> None:
    if not (ROOT / "src" / "vfpath" / "__init__.py").is_file():
        raise BenchError(f"no vfpath sources under {ROOT / 'src'}; nothing to benchmark")


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(args: list[str], deadline: float) -> dict:
    """Run measure.py in a fresh interpreter and parse its last output line.

    The child gets its own process group so that, on timeout, the pool
    workers it started are killed with it; every process is waited for.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a measuring process")
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "measure.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"measuring process {args[0]} overran its {timeout:.0f} s") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"measuring process {args[0]} failed ({proc.returncode}):\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, linear between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(report: dict, setups: list[dict]) -> dict[str, float]:
    """End-to-end metrics from the untraced passes and the set-up probes.

    Every pass issues the same requests on the same inputs.  Each time is
    divided by the host-speed calibration taken around it and multiplied by
    CALIBRATION_REF_S, then the median over passes (or probes) is taken: see
    README.md for why raw host seconds are not steady enough here.  A pass's
    time is the sum of its requests' times plus its time outside requests.
    """
    passes = [p for p in report["passes"] if not p["error"]]
    scale = [CALIBRATION_REF_S / p["calibration"] for p in passes]
    requests = [
        statistics.median(lat * k for lat, k in zip(samples, scale))
        for samples in zip(*(p["latencies"] for p in passes))
    ]
    outside = statistics.median(
        (p["wall"] - sum(p["latencies"])) * k for p, k in zip(passes, scale)
    )
    wall = sum(requests) + outside
    return {
        "wall_s": wall,
        "sim_steps_per_s": passes[0]["steps"] / wall,
        "trial_ms_p50": 1e3 * percentile(requests, 50),
        "trial_ms_p90": 1e3 * percentile(requests, 90),
        "setup_s": statistics.median(
            probe["setup_s"] * CALIBRATION_REF_S / probe["calibration"] for probe in setups
        ),
        "peak_rss_mb": report["maxrss_kb"] / 1024.0,
    }


def host_seconds(report: dict, setups: list[dict]) -> dict[str, float]:
    """The same passes and probes in raw host seconds (medians), for the record."""
    passes = [p for p in report["passes"] if not p["error"]]
    return {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "setup_s": statistics.median(probe["setup_s"] for probe in setups) if setups else None,
        "calibration_s": statistics.median(p["calibration"] for p in passes),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str,
                 manifest: dict, deadline: float) -> dict:
    RESULTS_DIR.mkdir(exist_ok=True)
    work_dir = RESULTS_DIR / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        spec = inputs.generate(workload, seed, size, work_dir)
        spec["work_dir"] = str(work_dir)
        spec_file = work_dir / "spec.json"
        spec_file.write_text(json.dumps(spec), encoding="utf-8")
        probes = 0 if trace else SETUP_PROBES_BEFORE
        setups = [run_child(["setup", str(spec_file)], deadline) for _ in range(probes)]
        report = run_child(["measure", str(spec_file), repr(seconds), "1" if trace else "0"],
                           deadline)
        probes = 0 if trace else SETUP_PROBES_AFTER
        setups += [run_child(["setup", str(spec_file)], deadline) for _ in range(probes)]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    all_passes = (report["passes"] + report.get("parallel_passes", [])
                  + report.get("traced_passes", []))
    errors = [p["error"] for p in all_passes if p["error"]]
    outputs = report["outputs"]
    if outputs is None:
        raise BenchError(f"{workload}: every pass raised: {errors}")
    # A pass that raised counts all its trials as attempted and failed.
    per_pass = len(outputs["rows"])
    per_pass_failed = check.failed_trials(workload, outputs)
    attempted = per_pass * len(all_passes)
    failed = sum(per_pass if p["error"] else per_pass_failed for p in all_passes)
    result = check.check(workload, spec, outputs, check.load_reference())
    if not report["passes_identical"]:
        result["problems"].append("passes of the same inputs produced different outputs")
    checks_ok = not errors and result["ok"] and report["passes_identical"]
    if trace:
        summary = report["trace"]
        checks_ok = checks_ok and report["restored"] and summary["self_sum_ok"] and not summary["unlayered"]
        metrics = summary["metrics"]
        declared = manifest["per_layer"]
    else:
        metrics = end_to_end(report, setups)
        declared = manifest["end_to_end"]
    metrics["fail_frac"] = failed / attempted
    metrics["output_ok"] = 1.0 if checks_ok else 0.0
    units = {name: unit for name, (unit, _) in EXTRA_METRICS.items()}
    units.update({m["name"]: m["unit"] for m in declared})
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "correct": checks_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "check": result,
        "pass_errors": errors,
        "metrics": metrics,
        "units": {name: units[name] for name in metrics if name in units},
        "declared": [m["name"] for m in declared],
        "setup_probes": setups,
        "host_seconds": host_seconds(report, setups),
        "passes": {k: report.get(k) for k in ("passes", "parallel_passes", "traced_passes")
                   if k in report},
        "trace_checks": {
            "restored": report.get("restored"),
            **{k: v for k, v in report.get("trace", {}).items() if k != "metrics"},
        } if trace else None,
        "environment": {
            "nproc": report["affinity"],
            "cpu_count": report["cpu_count"],
            "pool_workers": report["pool_workers"],
            "python": report["python"],
            "numpy": report["numpy"],
            "vfpath": report["vfpath"],
            "platform": report["platform"],
            "machine": platform.machine(),
            "git_commit": git_commit(),
        },
        "inputs": {k: v for k, v in spec.items() if k != "work_dir"},
    }


def shown(record: dict, name: str) -> bool:
    if name in record["declared"]:
        return True
    _, workloads = EXTRA_METRICS.get(name, (None, ()))
    return record["workload"] in workloads and (record["trace"] or name in ("fail_frac", "output_ok"))


def print_record(record: dict) -> None:
    workload, metrics = record["workload"], record["metrics"]
    n_passes = len(record["passes"]["passes"])
    kind = "per-layer (traced)" if record["trace"] else "end-to-end"
    print(f"== {workload}  seed={record['seed']}  {kind}  {n_passes} untraced passes  "
          f"{record['attempted']} trials  reference={record['check']['reference']}")
    for name, value in metrics.items():
        if shown(record, name):
            print(f"  {name:<40} {value:>14.6g} {record['units'][name]}")
    if not record["trace"]:
        requests = len(record["passes"]["passes"][0]["latencies"])
        print(f"  {'latency samples (requests per pass)':<40} {requests:>14d} count")
    for problem in record["check"]["problems"] + record["pass_errors"]:
        print(f"  PROBLEM: {problem}")


def result_line(record: dict) -> dict:
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name], "unit": record["units"][name]}
            for name in record["declared"]
        },
    }


def record_reference(workloads: list[str], seeds: list[int], size: str) -> None:
    """Run one pass per (workload, seed) and store its outputs as the reference."""
    reference = check.load_reference()
    reference["tolerance"] = check.TOLERANCE
    reference["recorded_at_commit"] = git_commit()
    for workload in workloads:
        for seed in seeds:
            work_dir = RESULTS_DIR / f"work-ref-{workload}-{seed}"
            shutil.rmtree(work_dir, ignore_errors=True)
            RESULTS_DIR.mkdir(exist_ok=True)
            try:
                spec = inputs.generate(workload, seed, size, work_dir)
                spec["work_dir"] = str(work_dir)
                (work_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
                report = run_child(["measure", str(work_dir / "spec.json"), "0", "0"],
                                   time.monotonic() + RUN_DEADLINE_S)
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            problems = check.invariants(workload, spec, report["outputs"])
            if problems:
                raise BenchError(f"{workload} seed {seed}: {problems}")
            key = check.reference_key(workload, size, seed)
            reference["runs"][key] = check.reference_entry(workload, report["outputs"])
            print(f"recorded {key}", flush=True)
    check.write_reference(reference)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer metrics from a traced run")
    parser.add_argument("--size", choices=tuple(inputs.SIZES), default="full",
                        help="work per pass; 'tiny' exists for the benchmark's own tests")
    parser.add_argument("--record-reference", metavar="SEEDS", default=None,
                        help="record reference outputs for seeds like 0-23 (seed code only)")
    args = parser.parse_args(argv)
    try:
        check_checkout()
        manifest = load_manifest()
        workloads = list(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
        if args.record_reference:
            record_reference(workloads, parse_seeds(args.record_reference), args.size)
            return 0
        seconds = manifest["run_seconds"] if args.seconds is None else args.seconds
        records = []
        for workload in workloads:
            deadline = time.monotonic() + RUN_DEADLINE_S
            record = run_workload(workload, args.seed, seconds, bool(args.trace), args.size,
                                  manifest, deadline)
            name = f"{workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
            (RESULTS_DIR / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
            print_record(record)
            print(f"  run record: {(RESULTS_DIR / name).relative_to(ROOT)}")
            records.append(record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(records) == 1:
        print(json.dumps(result_line(records[0])), flush=True)
    else:
        lines = [result_line(r) for r in records]
        print(json.dumps({
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {f"{r['workload']}.{name}": value
                        for r, line in zip(records, lines)
                        for name, value in line["metrics"].items()},
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
