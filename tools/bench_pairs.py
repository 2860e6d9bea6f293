"""Alternating parent/change pairs of bench/run_bench.py, written as one BENCH_N.json.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --seed 7 \\
        --pairs trial_sinusoid=10 --pairs campaign_mc=6 --pairs capture_paths=3 \\
        --claim trial_sinusoid:trial_ms_p90 --traced --out BENCH_19.json

Each side runs from its own ``git clone`` of this repository checked out at
its commit, so every run record names the commit it measured; uncommitted work
must be committed first (a local commit is enough).  Pair i of a workload
runs the parent first when i is even and the change first when it is odd.
For every end-to-end metric of BENCHMARK.json the file lists both sides' runs,
their medians and quartiles, the pairs the change wins, the median's
relative change and ``claim_rule_met``: whether the change wins at least 9
of every 10 pairs and its median beats the parent's by more than the
parent's interquartile range; ``--claim`` copies the claimed metric's
``claim_rule_met`` and relative change under ``claimed``.  Every run takes
the run length of BENCHMARK.json.
``--traced`` adds one ``--trace 1`` pair per workload.  The
file is rewritten after every run, so an interrupted session keeps what it
measured.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=repo, check=True, capture_output=True, text=True
    ).stdout.strip()


def clone_at(commit: str, dest: Path) -> None:
    """A fresh clone of this repository at ``commit`` in ``dest``."""
    subprocess.run(["git", "clone", "--quiet", str(ROOT), str(dest)], check=True)
    git(dest, "checkout", "--quiet", "--detach", commit)


def run_bench(clone: Path, workload: str, seed: int, trace: bool) -> dict:
    """One bench/run_bench.py run in ``clone``: its result line, the reference
    check and the environment from its run record."""
    cmd = [sys.executable, "bench/run_bench.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=clone, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"{' '.join(cmd)} failed in {clone} ({proc.returncode}):\n{proc.stderr}")
    name = f"{workload}-seed{seed}-trace{int(trace)}-full.json"
    record = json.loads((clone / ".bench_results" / name).read_text(encoding="utf-8"))
    return {
        "reference": record["check"]["reference"],
        "result": json.loads(proc.stdout.strip().splitlines()[-1]),
        "environment": record["environment"],
    }


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Both sides' values, medians and quartiles, the pairs the change wins
    and the relative change of the median."""
    out = {"parent": parent, "change": change}
    for side, values in (("parent", parent), ("change", change)):
        q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                     if len(values) > 1 else values * 3)
        out[f"{side}_median"] = statistics.median(values)
        out[f"{side}_q1"], out[f"{side}_q3"] = q1, q3
    wins = [c < p if better == "lower" else c > p for p, c in zip(parent, change)]
    out["change_wins"] = sum(wins)
    out["pairs"] = len(wins)
    out["rel_change"] = out["change_median"] / out["parent_median"] - 1.0
    gain = out["change_median"] - out["parent_median"]
    if better == "lower":
        gain = -gain
    out["claim_rule_met"] = (
        10 * out["change_wins"] >= 9 * out["pairs"]
        and gain > out["parent_q3"] - out["parent_q1"]
    )
    return out


def parse_pairs(items: list[str], workloads: list[str]) -> dict[str, int]:
    """``WORKLOAD=N`` items as a dict; ValueError unless each names one of
    ``workloads`` and a count of at least 1."""
    pairs = {}
    for item in items:
        workload, _, count = item.partition("=")
        if workload not in workloads:
            raise ValueError(
                f"unknown workload {workload!r} in --pairs {item}"
                f" (choose from {', '.join(workloads)})"
            )
        try:
            n = int(count)
        except ValueError:
            n = 0
        if n < 1:
            raise ValueError(f"--pairs {item}: the count must be an integer of at least 1")
        pairs[workload] = n
    return pairs


def parse_claim(claim: str, pairs: dict[str, int], metrics: list[str]) -> tuple[str, str]:
    """``WORKLOAD:METRIC`` as a pair; ValueError unless the workload has
    ``pairs`` and the metric is one of ``metrics``."""
    workload, _, metric = claim.partition(":")
    if workload not in pairs:
        raise ValueError(
            f"--claim {claim}: workload {workload!r} has no --pairs"
            f" (measured: {', '.join(pairs)})"
        )
    if metric not in metrics:
        raise ValueError(
            f"--claim {claim}: {metric!r} is not an end-to-end metric of BENCHMARK.json"
            f" (choose from {', '.join(metrics)})"
        )
    return workload, metric


def exit_on_signal(signum: int, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent commit (any git revision)")
    parser.add_argument("--change", required=True, help="change commit (any git revision)")
    parser.add_argument("--seed", type=int, required=True, help="workload seed of every run")
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N",
                        help="alternating pairs for a workload; repeat per workload")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC", default=None,
                        help="the claimed end-to-end metric of a workload with --pairs,"
                             " recorded in the file with its claim rule")
    parser.add_argument("--traced", action="store_true",
                        help="also one --trace 1 pair per workload")
    parser.add_argument("--note", default="", help="text appended to the description")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_N.json to write")
    args = parser.parse_args(argv)

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        pairs = parse_pairs(args.pairs, [w["name"] for w in manifest["workloads"]])
        claim = None
        if args.claim is not None:
            claim = parse_claim(args.claim, pairs, [m["name"] for m in manifest["end_to_end"]])
    except ValueError as exc:
        parser.error(str(exc))
    commits = {"parent": git(ROOT, "rev-parse", args.parent),
               "change": git(ROOT, "rev-parse", args.change)}
    # Python runs no finally on SIGTERM, so it is raised as SystemExit: a
    # failed run (run_bench's SystemExit), Ctrl-C or SIGTERM still removes
    # both clones.
    previous = signal.signal(signal.SIGTERM, exit_on_signal)
    work = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        measure(args, pairs, claim, commits, work)
    finally:
        signal.signal(signal.SIGTERM, previous)
        shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def measure(args: argparse.Namespace, pairs: dict[str, int], claim: tuple[str, str] | None,
            commits: dict[str, str], work: Path) -> None:
    """Clone both commits into ``work`` and run the pairs, rewriting
    ``args.out`` after every run; the claimed (workload, metric), if any,
    is recorded with its ``claim_rule_met`` and ``rel_change``."""
    clones = {side: work / side for side in SIDES}
    for side in SIDES:
        clone_at(commits[side], clones[side])
    manifest = json.loads((clones["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in manifest["end_to_end"]}

    counts = "; ".join(f"{w}: {n} pairs" for w, n in pairs.items())
    description = (
        f"Alternating parent/change runs of python3 bench/run_bench.py --workload W"
        f" --seed {args.seed} (end to end, run length {manifest['run_seconds']} s);"
        f" even-numbered pairs (0, 2, ...) run the parent first. {counts}."
        + (" traced: one --trace 1 pair per workload." if args.traced else "")
        + " Each side ran from a git clone checked out at its commit."
        " 'reference' is the run's check against bench/reference.json."
        + (f" {args.note}" if args.note else "")
    )
    doc: dict = {
        "description": description,
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "claimed": None,
        "workloads": {},
    }
    if claim is not None:
        doc["claimed"] = {"workload": claim[0], "metric": claim[1]}
    environments: dict = {}

    def save() -> None:
        for side in SIDES:
            if side in environments:
                doc[f"environment_{side}"] = environments[side]
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    def run(side: str, workload: str, trace: bool) -> dict:
        print(f"{workload} {side} trace={int(trace)}", file=sys.stderr, flush=True)
        out = run_bench(clones[side], workload, args.seed, trace)
        environments[side] = out.pop("environment")
        if out["reference"] != "matched" or not out["result"]["correct"]:
            print(f"  warning: reference {out['reference']}, correct"
                  f" {out['result']['correct']}", file=sys.stderr)
        return out

    for workload, n in pairs.items():
        records = []
        entry = {"pairs": n, "metrics": {}, "records": records}
        doc["workloads"][workload] = entry
        for i in range(n):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                records.append({"pair": i, "side": side, **run(side, workload, False)})
                values = {
                    s: [r["result"]["metrics"] for r in records if r["side"] == s]
                    for s in SIDES
                }
                done = min(len(values["parent"]), len(values["change"]))
                if done:
                    entry["metrics"] = {
                        name: summarize(
                            [m[name]["value"] for m in values["parent"][:done]],
                            [m[name]["value"] for m in values["change"][:done]],
                            direction,
                        )
                        for name, direction in better.items()
                    }
                    if claim is not None and claim[0] == workload:
                        claimed = entry["metrics"][claim[1]]
                        doc["claimed"]["claim_rule_met"] = claimed["claim_rule_met"]
                        doc["claimed"]["rel_change"] = claimed["rel_change"]
                save()
    if args.traced:
        doc["traced"] = {}
        for workload in pairs:
            doc["traced"][workload] = {}
            for side in SIDES:
                out = run(side, workload, True)
                doc["traced"][workload][side] = {
                    **out, "git_commit": environments[side]["git_commit"]
                }
                save()


if __name__ == "__main__":
    sys.exit(main())
