"""Output check for one workload run (standard library only).

Two layers of checks, both feeding ``output_ok``:

* Invariants that hold on every seed: finite metrics, ``t_conv`` present
  exactly when a trial converged, failure reasons only from the designed
  NLGL look-ahead failure, exit codes that agree with the rows, full-length
  trajectories on ``trial_sinusoid``, a campaign summary that agrees with its
  own per-trial rows, capture of every ``capture_paths`` trial with the
  polyline end never reached.
* Comparison with the reference outputs recorded from the seed code in
  ``reference.json`` for the seeds listed there: converged flags, failure
  reasons and the criterion-8 orderings must match exactly; per-trial floats
  and step counts must lie within ``TOLERANCE``, which leaves room for a
  batched kernel whose arithmetic differs in order.  The campaign summary's
  SHA-256 is compared and reported, but a different digest alone does not
  fail the check, for the same reason.

``fail_frac`` counts trials that raised or that returned a non-finite metric
without naming a failure reason; designed look-ahead failures do not count.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

METRICS = ("t_conv", "d_rms", "chi_dot_rms", "chi_dot_max", "chattering_index")
# |value - reference| <= abs + rel * |reference| for each per-trial float.
TOLERANCE = {
    "rel": 1e-3,
    "abs": {"t_conv": 0.05, "d_rms": 1e-3, "chi_dot_rms": 1e-4, "chi_dot_max": 1e-4,
            "chattering_index": 1.0},
    "steps": 5,
}
DESIGNED_FAILURE = "look-ahead infeasible:"
# Path-end margin (m) a polyline capture trial must keep from either end.
POLYLINE_END_MARGIN = 100.0

# Row layouts produced by measure.py: leading key fields, then converged,
# the five metrics and the failure reason, then trailing fields.  The keys
# are (law), (campaign, law, trial) and (path kind, draw).
KEYS = {"trial_sinusoid": 1, "campaign_mc": 3, "capture_paths": 2}
LAW_KEY = {"trial_sinusoid": 0, "campaign_mc": 1}  # capture_paths flies "switched"


def _split(workload: str, row: list) -> tuple[tuple, bool, list, str, list]:
    k = KEYS[workload]
    return tuple(row[:k]), row[k], row[k + 1:k + 6], row[k + 6], row[k + 7:]


def _bad_trial(workload: str, row: list) -> bool:
    """Non-finite metric without a failure reason (NaN t_conv is 'not converged')."""
    _, converged, values, failure, _ = _split(workload, row)
    if failure:
        return False
    finite = all(v is not None and math.isfinite(v) for v in values[1:])
    return not finite or (converged and values[0] is None)


def failed_trials(workload: str, outputs: dict) -> int:
    return sum(_bad_trial(workload, row) for row in outputs["rows"])


def _box(values: list[float]) -> list[float]:
    """count, min, q1, median, q3, max, mean with numpy's linear percentiles."""
    if not values:
        return [0] + [math.nan] * 6
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [len(values), min(values), q1, med, q3, max(values), statistics.fmean(values)]


def _close(a, b, rel: float, abs_tol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= abs_tol + rel * abs(b)


def orderings(summary: list[list[str]]) -> dict[str, bool]:
    """Criterion 8: median t_conv switched <= basic_vf, median max|chi_dot| switched <= plos."""
    median = {(r[0], r[1]): float(r[5]) for r in summary if r[1] in METRICS}
    return {
        "t_conv": median[("switched", "t_conv")] <= median[("basic_vf", "t_conv")],
        "chi_dot_max": median[("switched", "chi_dot_max")] <= median[("plos", "chi_dot_max")],
    }


def invariants(workload: str, spec: dict, outputs: dict) -> list[str]:
    problems = []
    rows = outputs["rows"]
    for row in rows:
        key, converged, values, failure, _ = _split(workload, row)
        if _bad_trial(workload, row):
            problems.append(f"{key}: non-finite metric without a failure reason")
        if (values[0] is not None) != bool(converged):
            problems.append(f"{key}: t_conv present={values[0] is not None} but converged={converged}")
        law = key[LAW_KEY[workload]] if workload in LAW_KEY else "switched"
        if failure and not (failure.startswith(DESIGNED_FAILURE) and law == "nlgl"):
            problems.append(f"{key}: unexpected failure {failure!r}")

    if workload == "trial_sinusoid":
        if [r[0] for r in rows] != spec["laws"]:
            problems.append("compare rows do not follow the selected laws")
        for row, code in zip(rows, outputs["exit_codes"]):
            key, converged, _, failure, (steps,) = _split(workload, row)
            if code != (0 if converged and not failure else 1):
                problems.append(f"{key}: exit code {code} disagrees with the row")
            if not failure and steps != spec["steps_per_law"]:
                problems.append(f"{key}: {steps} trajectory rows, expected {spec['steps_per_law']}")
    elif workload == "campaign_mc":
        if any(outputs["exit_codes"]):
            problems.append(f"montecarlo exit codes {outputs['exit_codes']}")
        calls = range(len(spec["master_seeds"]))
        expected = [(c, law, i) for c in calls for law in spec["laws"] for i in range(spec["trials"])]
        if [tuple(r[:3]) for r in rows] != expected:
            problems.append("per-trial rows do not cover every (campaign, law, trial)")
        for call, summary in zip(calls, outputs["summaries"]):
            problems += _summary_problems(spec, [r[1:] for r in rows if r[0] == call], summary)
    else:
        expected = [(kind, i) for i in range(len(spec["draws"])) for kind in spec["configs"]]
        if [tuple(r[:2]) for r in rows] != expected:
            problems.append("capture rows do not cover every (draw, path)")
        for row in rows:
            key, converged, _, _, (steps, margin) = _split(workload, row)
            if not converged:
                problems.append(f"{key}: not captured within max_time")
            if margin is not None and margin < POLYLINE_END_MARGIN:
                problems.append(f"{key}: ended {margin:.0f} m from the polyline end")
    return problems


def _summary_problems(spec: dict, rows: list[list], summary_rows: list[list[str]]) -> list[str]:
    """A campaign's summary CSV must agree with its per-trial CSV."""
    problems = []
    by_law = {law: [r for r in rows if r[0] == law] for law in spec["laws"]}
    summary = {(r[0], r[1]): r for r in summary_rows}
    for law, rows in by_law.items():
        for i, metric in enumerate(METRICS):
            values = [r[3 + i] for r in rows if r[2] or metric != "t_conv"]
            got = summary.get((law, metric))
            if got is None:
                problems.append(f"summary lacks {law} {metric}")
                continue
            want = _box([v for v in values if v is not None])
            have = [int(got[2])] + [float(v) for v in got[3:]]
            if have[0] != want[0] or not all(
                _close(h, w, 1e-6, 1e-9) for h, w in zip(have[1:], want[1:])
            ):
                problems.append(f"summary {law} {metric} {have} disagrees with trials {want}")
        converged = summary.get((law, "converged_fraction"))
        if converged is None or not _close(
            float(converged[-1]), sum(r[2] for r in rows) / len(rows), 1e-8, 0.0
        ):
            problems.append(f"summary {law} converged_fraction disagrees with trials")
    return problems


def compare_reference(workload: str, entry: dict, reference: dict) -> list[str]:
    """Differences between a run's reference entry and the recorded one."""
    problems = []
    rows, ref_rows = entry["rows"], reference["rows"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    for row, ref in zip(rows, ref_rows):
        key, converged, values, failure, extra = _split(workload, row)
        ref_key, ref_converged, ref_values, ref_failure, ref_extra = _split(workload, ref)
        if key != ref_key:
            problems.append(f"row {key} where the reference has {ref_key}")
            continue
        if converged != ref_converged or failure != ref_failure:
            problems.append(
                f"{key}: converged={converged} failure={failure!r}, reference "
                f"converged={ref_converged} failure={ref_failure!r}"
            )
        for name, value, ref_value in zip(METRICS, values, ref_values):
            if not _close(value, ref_value, TOLERANCE["rel"], TOLERANCE["abs"][name]):
                problems.append(f"{key}: {name}={value} reference {ref_value}")
        if workload != "campaign_mc" and abs(extra[0] - ref_extra[0]) > TOLERANCE["steps"]:
            problems.append(f"{key}: {extra[0]} steps, reference {ref_extra[0]}")
    if workload == "campaign_mc" and entry["orderings"] != reference["orderings"]:
        problems.append(
            f"criterion-8 orderings {entry['orderings']}, reference {reference['orderings']}"
        )
    return problems


def reference_key(workload: str, size: str, seed: int) -> str:
    return f"{workload}/{size}/{seed}"


def load_reference() -> dict:
    if not REFERENCE_FILE.exists():
        return {"runs": {}}
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def write_reference(reference: dict) -> None:
    """One line per recorded run, so that a diff shows which runs changed."""
    head = {k: v for k, v in reference.items() if k != "runs"}
    lines = [json.dumps(head)[:-1] + ', "runs": {']
    runs = sorted(reference["runs"].items())
    lines += [f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
              + ("," if i < len(runs) - 1 else "") for i, (k, v) in enumerate(runs)]
    lines.append("}}")
    REFERENCE_FILE.write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_entry(workload: str, outputs: dict) -> dict:
    """The part of a run's outputs that the reference keeps."""

    def short(v):
        return float(f"{v:.7g}") if isinstance(v, float) else v

    entry = {"rows": [[short(v) for v in row] for row in outputs["rows"]]}
    if workload == "campaign_mc":
        entry["orderings"] = [orderings(summary) for summary in outputs["summaries"]]
        entry["summary_sha256"] = outputs["summary_sha256"]
    return entry


def check(workload: str, spec: dict, outputs: dict, reference: dict) -> dict:
    """Run every check; ``ok`` is what ``output_ok`` reports."""
    problems = invariants(workload, spec, outputs)
    ref = reference["runs"].get(reference_key(workload, spec["size"], spec["seed"]))
    result = {"reference": "absent" if ref is None else "matched"}
    if ref is not None:
        ref_problems = compare_reference(workload, reference_entry(workload, outputs), ref)
        if ref_problems:
            result["reference"] = "differs"
        problems += ref_problems
        if workload == "campaign_mc":
            result["summary_sha256_match"] = outputs["summary_sha256"] == ref["summary_sha256"]
    result["problems"] = problems
    result["ok"] = not problems
    return result
