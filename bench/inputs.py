"""Workload inputs generated from a workload seed (standard library only).

Everything a workload feeds the program is derived here from ``(workload,
seed, size)`` with :class:`random.Random` seeded by a string, which gives the
same numbers on every Python version.  The generated files (scenario INI
files and the polyline CSV) go into the run's work directory; the returned
spec is the only thing the measuring process reads.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

WORKLOADS = ("trial_sinusoid", "campaign_mc", "capture_paths")
LAWS = ("switched", "basic_vf", "plos", "nlgl")

# Work per pass.  "full" is what the benchmark measures; "tiny" only exists so
# the benchmark's own tests can run every workload in a few seconds.
SIZES = {
    "full": {
        # Simulated seconds per law: about 18 s to capture, the rest tracking.
        "trial_sinusoid": {"max_time": 60.0},
        # Campaigns per pass and random trials per law in each.
        "campaign_mc": {"campaigns": 8, "trials": 2},
        # Draws of (d0, chi0, wind); each is flown on every capture path.
        "capture_paths": {"draws": 12},
    },
    "tiny": {
        "trial_sinusoid": {"max_time": 2.0},
        "campaign_mc": {"campaigns": 2, "trials": 1},
        "capture_paths": {"draws": 1},
    },
}

# Capture-path geometry.  The polyline is long enough that a trial starting
# POLYLINE_S0 along it is captured long before either end (the simulator does
# not flag a trial that runs off the end of a finite path).
POLYLINE_VERTICES = 300
POLYLINE_SEGMENT = 20.0
POLYLINE_S0 = 1500.0
CIRCLE_RADIUS = 300.0

# Randomized initial conditions and wind, the same ranges the simulator's
# Monte Carlo harness draws from.
D0_RANGE = (100.0, 200.0)
CHI0_RANGE = (-math.pi, math.pi)
WIND_SPEED_RANGE = (2.0, 3.0)
WIND_DIR_RANGE = (-2.5, -2.0)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"vfpath-bench:{workload}:{seed}")


def _write_ini(path: Path, sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
                  for key, value in keys.items()]
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")
    return str(path)


def _latin_hypercube(rng: random.Random, n: int, ranges) -> list[tuple[float, ...]]:
    """n draws with every range split into n strata, each stratum used once.

    Stratifying keeps the total work of a pass nearly the same from seed to
    seed, so ``wall_s`` measures the program rather than the luck of the draw.
    """
    columns = []
    for lo, hi in ranges:
        strata = list(range(n))
        rng.shuffle(strata)
        columns.append([lo + (hi - lo) * (k + rng.random()) / n for k in strata])
    return list(zip(*columns))


def _polyline(rng: random.Random) -> list[tuple[float, float]]:
    """Gently meandering polyline: heading is a mean-reverting random walk."""
    x, y, heading = 0.0, 0.0, 0.0
    points = [(x, y)]
    for _ in range(POLYLINE_VERTICES - 1):
        heading = 0.9 * heading + rng.uniform(-0.1, 0.1)
        x += POLYLINE_SEGMENT * math.cos(heading)
        y += POLYLINE_SEGMENT * math.sin(heading)
        points.append((x, y))
    return points


def generate(workload: str, seed: int, size: str, work_dir: Path) -> dict:
    """Write the workload's input files into ``work_dir`` and return its spec."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    params = SIZES[size][workload]
    rng = _rng(workload, seed)
    work_dir.mkdir(parents=True, exist_ok=True)
    spec: dict = {"workload": workload, "seed": seed, "size": size}

    if workload == "trial_sinusoid":
        # The paper's benchmark sinusoid and start pose, jittered slightly so
        # every seed keeps the CASE1 -> CASE2 -> CASE3 sequence.
        sim = {
            "max_time": params["max_time"],
            "stop_when_converged": "false",
            "d0": rng.uniform(190.0, 210.0),
            "chi0": rng.uniform(1.7, 1.9),
            "s0": rng.uniform(0.0, 50.0),
            "nlgl_d0": rng.uniform(75.0, 85.0),
        }
        spec["config"] = _write_ini(work_dir / "scenario.ini", {"sim": sim})
        spec["laws"] = list(LAWS)
        spec["steps_per_law"] = int(round(params["max_time"] / 0.01)) + 1
    elif workload == "campaign_mc":
        spec["config"] = _write_ini(work_dir / "scenario.ini", {"path": {"kind": "sinusoid"}})
        spec["trials"] = params["trials"]
        # Master seeds of the pass's campaigns; disjoint between workload seeds.
        n = params["campaigns"]
        spec["master_seeds"] = [n * seed + k for k in range(n)]
        # nlgl is left out: whether a draw starts inside its look-ahead L1 (about
        # one in ten) sets its cost, which made the work of a pass vary by 8%
        # from seed to seed.  Criterion 8 compares only these three laws.
        spec["laws"] = ["switched", "basic_vf", "plos"]
    else:
        polyline_csv = work_dir / "polyline.csv"
        polyline_csv.write_text(
            "x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in _polyline(rng)),
            encoding="utf-8",
        )
        # Criterion-7-style capture: stop once |d| < 1 m, course not checked.
        sim = {
            "d_threshold": 1.0,
            "align_threshold": 3.15,
            "dwell": 0.0,
            "max_time": 300.0,
            "stop_when_converged": "true",
        }
        paths = {
            "line": {"kind": "line"},
            "circle": {"kind": "circle", "radius": CIRCLE_RADIUS},
            "polyline": {"kind": "polyline", "file": str(polyline_csv)},
        }
        spec["configs"] = {}
        for kind, path_keys in paths.items():
            kind_sim = dict(sim, s0=POLYLINE_S0) if kind == "polyline" else sim
            spec["configs"][kind] = _write_ini(
                work_dir / f"{kind}.ini", {"path": path_keys, "sim": kind_sim}
            )
        draws = _latin_hypercube(
            rng, params["draws"], (D0_RANGE, CHI0_RANGE, WIND_SPEED_RANGE, WIND_DIR_RANGE)
        )
        spec["draws"] = [
            {"d0": d0, "chi0": chi0, "w_x": w * math.cos(a), "w_y": w * math.sin(a)}
            for d0, chi0, w, a in draws
        ]
    return spec
