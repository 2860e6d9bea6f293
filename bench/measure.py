"""Measuring process for one workload: set-up probe or timed passes.

Run by ``run_bench.py`` in a fresh interpreter, never by hand:

    python3 bench/measure.py setup   SPEC.json
    python3 bench/measure.py measure SPEC.json SECONDS TRACE

``setup`` times, from before ``import vfpath``, everything the workload does
before its first trial (import, config parsing, building scenarios and
paths, the first projection on each path) and prints the seconds together
with a host-speed calibration taken right after.

``measure`` runs untraced passes of the workload, back to back, for SECONDS
(at least one pass).  With TRACE = 1 it splits the time between untraced
passes and passes with the span tracer installed.  It prints one JSON object
with the pass timings, the outputs of the first pass and the trace summary.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Import vfpath from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import vfpath

    found = Path(vfpath.__file__).resolve().parent
    if found != (SRC / "vfpath").resolve():
        raise SystemExit(f"vfpath imported from {found}, not from {SRC}")
    return vfpath


# Host-speed calibration: a fixed pure-Python loop, timed three times (the
# median is kept) before and after every pass and after every set-up probe.
CALIBRATION_LOOPS = 100_000


def calibrate() -> float:
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(CALIBRATION_LOOPS):
            x += i % 7
        samples.append(time.perf_counter() - t0)
    return sorted(samples)[1]


def _fmt(value: float) -> str:
    # Same formatting as the CLI's CSV writers, so every workload's outputs
    # are compared at the same precision.
    return f"{value:.9g}"


def _num(text: str):
    value = float(text)
    return None if math.isnan(value) else value


def _metric_fields(fields: list[str]) -> list:
    """converged, t_conv, d_rms, chi_dot_rms, chi_dot_max, chatter, failure."""
    return [fields[0] == "true"] + [_num(v) for v in fields[1:6]] + [fields[6]]


def _csv_rows(path: Path, columns: int) -> list[list[str]]:
    """Data rows of a CLI metrics CSV; the last column (failure reason) may hold commas."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",", columns - 1) for line in lines[1:]]


class TrialSinusoid:
    """``vfpath compare`` once per law on the benchmark sinusoid, full run length."""

    def __init__(self, spec: dict):
        self.spec = spec

    def setup(self):
        from vfpath.config import build_scenario, load_settings
        from vfpath.simulation import initial_state

        settings = load_settings(self.spec["config"])
        for law in self.spec["laws"]:
            config = build_scenario(settings, law)
            start = initial_state(config)
            config.path.closest_parameter((start.x, start.y))

    def run_pass(self, out_dir: Path, serial: bool = False) -> dict:
        from vfpath import cli

        latencies, codes = [], []
        for law in self.spec["laws"]:
            argv = ["compare", "--config", self.spec["config"], "--law", law,
                    "--seed", str(self.spec["seed"]), "--out", str(out_dir / law)]
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                codes.append(cli.main(argv))
                latencies.append(time.perf_counter() - t0)
        rows = []
        for law in self.spec["laws"]:
            (fields,) = [r[1:] for r in _csv_rows(out_dir / law / "comparison.csv", 8)]
            traj_lines = (out_dir / law / f"trajectory_{law}.csv").read_text().count("\n")
            rows.append([law] + _metric_fields(fields) + [traj_lines - 1])
        return {
            "wall": sum(latencies),
            "latencies": latencies,
            "trials": len(rows),
            "steps": sum(row[-1] for row in rows),
            "outputs": {"exit_codes": codes, "rows": rows},
        }


class CampaignMC:
    """``vfpath montecarlo --per-trial`` campaigns on the default process pool."""

    def __init__(self, spec: dict):
        self.spec = spec

    def setup(self):
        from vfpath.config import build_scenario, load_settings
        from vfpath.simulation import initial_state

        config = build_scenario(load_settings(self.spec["config"]), self.spec["laws"][0])
        start = initial_state(config)
        config.path.closest_parameter((start.x, start.y))

    @property
    def _stop_rule(self) -> tuple[int, int, float]:
        """Dwell steps, full-run steps and dt, read once before any tracing."""
        if not hasattr(self, "_rule"):
            from vfpath.config import build_scenario, load_settings

            config = build_scenario(load_settings(self.spec["config"]), "switched")
            self._rule = (
                int(round(config.dwell / config.dt)),
                int(round(config.max_time / config.dt)) + 1,
                config.dt,
            )
        return self._rule

    def run_pass(self, out_dir: Path, serial: bool = False) -> dict:
        from vfpath import cli

        need, full, dt = self._stop_rule
        latencies, codes = [], []
        for call, master_seed in enumerate(self.spec["master_seeds"]):
            argv = ["montecarlo", "--config", self.spec["config"],
                    "--law", ",".join(self.spec["laws"]),
                    "--trials", str(self.spec["trials"]), "--seed", str(master_seed),
                    "--out", str(out_dir / str(call)), "--per-trial"]
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                codes.append(cli.main(argv + (["--serial"] if serial else [])))
                latencies.append(time.perf_counter() - t0)
        rows, summaries, digests = [], [], []
        steps = 0
        for call in range(len(self.spec["master_seeds"])):
            for law, trial, *fields in _csv_rows(out_dir / str(call) / "montecarlo_trials.csv", 9):
                row = [call, law, int(trial)] + _metric_fields(fields)
                rows.append(row)
                # Recorded steps follow from the stopping rule: capture index
                # plus the dwell window, the full run, or one step for a
                # look-ahead failure at the start (a later one counts as one).
                if row[3]:
                    steps += int(round(row[4] / dt)) + need + 1
                else:
                    steps += 1 if row[9] else full
            text = (out_dir / str(call) / "montecarlo_summary.csv").read_text(encoding="utf-8")
            summaries.append([line.split(",") for line in text.splitlines()[1:]])
            digests.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
        return {
            "wall": sum(latencies),
            "latencies": latencies,
            "trials": len(rows),
            "steps": steps,
            "outputs": {
                "exit_codes": codes,
                "rows": rows,
                "summaries": summaries,
                "summary_sha256": digests,
            },
        }


class CapturePaths:
    """Switched-law capture through ``run_trial`` on a line, a circle and a polyline."""

    def __init__(self, spec: dict):
        self.spec = spec

    def _scenarios(self) -> dict:
        from vfpath.config import build_scenario, load_settings

        return {
            kind: build_scenario(load_settings(ini), "switched")
            for kind, ini in self.spec["configs"].items()
        }

    def setup(self):
        from vfpath.simulation import initial_state

        for config in self._scenarios().values():
            start = initial_state(config)
            config.path.closest_parameter((start.x, start.y))

    def run_pass(self, out_dir: Path, serial: bool = False) -> dict:
        from dataclasses import replace

        import numpy
        import vfpath.simulation as simulation
        from vfpath.vehicle import WindModel

        t0 = time.perf_counter()
        scenarios = self._scenarios()
        latencies, results = [], []
        for index, draw in enumerate(self.spec["draws"]):
            wind = WindModel(draw["w_x"], draw["w_y"])
            for kind, base in scenarios.items():
                config = replace(base, d0=draw["d0"], chi0=draw["chi0"], wind=wind)
                t1 = time.perf_counter()
                traj, metrics = simulation.run_trial(config, seed=index)
                latencies.append(time.perf_counter() - t1)
                results.append((kind, index, config.path, traj, metrics))
        wall = time.perf_counter() - t0
        rows = []
        for kind, index, path, traj, m in results:
            fields = ["true" if m.converged else "false"] + [
                _fmt(v) for v in (m.t_conv, m.d_rms, m.chi_dot_rms, m.chi_dot_max,
                                  m.chattering_index)
            ] + [m.failure_reason or ""]
            # Arc length from the vertex nearest the final position to the
            # nearer end of the polyline (None for the circle and the line).
            # Computed here rather than with the program's projection.
            margin = None
            if kind == "polyline":
                gaps = numpy.hypot(*numpy.diff(path.points, axis=0).T)
                arc = numpy.concatenate(([0.0], numpy.cumsum(gaps)))
                nearest = int(numpy.argmin(numpy.hypot(
                    path.points[:, 0] - traj.x[-1], path.points[:, 1] - traj.y[-1])))
                margin = float(min(arc[nearest], arc[-1] - arc[nearest]))
            rows.append([kind, index] + _metric_fields(fields) + [len(traj), margin])
        return {
            "wall": wall,
            "latencies": latencies,
            "trials": len(rows),
            "steps": sum(row[9] for row in rows),
            "outputs": {"rows": rows},
        }


WORKLOADS = {
    "trial_sinusoid": TrialSinusoid,
    "campaign_mc": CampaignMC,
    "capture_paths": CapturePaths,
}


def _digest(outputs: dict) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode("utf-8")).hexdigest()


class Runner:
    """Runs passes of one workload and keeps what the parent needs."""

    def __init__(self, workload, work_dir: Path):
        self.workload = workload
        self.work_dir = work_dir
        self.outputs = None
        self.digests: set[str] = set()
        self.count = 0

    def run(self, serial: bool = False) -> dict:
        out_dir = self.work_dir / f"out-{self.count}"
        self.count += 1
        out_dir.mkdir(parents=True)
        before = calibrate()
        try:
            result = self.workload.run_pass(out_dir, serial=serial)
            result["calibration"] = 0.5 * (before + calibrate())
        except Exception as exc:  # the program raised: report it, do not crash
            return {"wall": math.nan, "latencies": [], "trials": 0, "steps": 0,
                    "error": f"{type(exc).__name__}: {exc}"}
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        outputs = result.pop("outputs")
        if self.outputs is None:
            self.outputs = outputs
        self.digests.add(_digest(outputs))
        result["error"] = None
        return result


# Traced passes kept per run: enough for per-layer means, few enough that the
# span table (a few hundred thousand spans per pass) stays small.
MAX_TRACED_PASSES = 2


def run_for(runner: Runner, seconds: float, serial: bool = False,
            max_passes: int | None = None) -> list[dict]:
    """At least one pass, then more until another would overrun ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(runner.run(serial=serial))
        elapsed = time.perf_counter() - start
        if (passes[-1]["error"] or len(passes) == max_passes
                or elapsed + elapsed / len(passes) > seconds):
            return passes


def measure(spec: dict, seconds: float, trace: bool) -> dict:
    vfpath = import_program()
    import numpy

    work_dir = Path(spec["work_dir"])
    workload = WORKLOADS[spec["workload"]](spec)
    runner = Runner(workload, work_dir)
    campaign = spec["workload"] == "campaign_mc"
    report = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "vfpath": vfpath.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        # monte_carlo sizes its pool with os.cpu_count() when not told.
        "pool_workers": (os.cpu_count() or 1) if campaign else 0,
    }
    # The campaign's timed passes run with --serial: with the process pool,
    # run-to-run spread on a shared 2-core host exceeded any usable bound.
    if not trace:
        report["passes"] = run_for(runner, seconds, serial=campaign)
    else:
        import tracer as tracer_module

        # Untraced passes first (for the overhead ratio and, on the campaign,
        # the pool's parallel efficiency), then the traced passes.  Traced
        # campaigns run serially: spans cannot come back from pool workers.
        share = 0.25 if campaign else 0.4
        report["passes"] = run_for(runner, share * seconds, serial=campaign)
        if campaign:
            report["parallel_passes"] = run_for(runner, share * seconds)
        tracer = tracer_module.install()
        try:
            report["traced_passes"] = run_for(runner, 0.5 * seconds, serial=campaign,
                                              max_passes=MAX_TRACED_PASSES)
        finally:
            tracer.restore()
        report["restored"] = tracer.restored()
        report["trace"] = tracer_module.summarize(tracer, report)
        trace_file = work_dir.parent / f"spans-{spec['workload']}.bin"
        tracer.write(trace_file)
        report["trace_file"] = str(trace_file.relative_to(ROOT))
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["outputs"] = runner.outputs
    report["passes_identical"] = len(runner.digests) <= 1
    return report


def main(argv: list[str]) -> int:
    mode, spec_file = argv[0], argv[1]
    spec = json.loads(Path(spec_file).read_text(encoding="utf-8"))
    if mode == "setup":
        t0 = time.perf_counter()
        import_program()
        WORKLOADS[spec["workload"]](spec).setup()
        setup_s = time.perf_counter() - t0
        print(json.dumps({"setup_s": setup_s, "calibration": calibrate()}))
        return 0
    if mode == "measure":
        report = measure(spec, float(argv[2]), argv[3] == "1")
        print(json.dumps(report))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
