"""Span tracer installed from outside the program, for the traced passes only.

:func:`install` replaces the module attributes and path-class methods that
the simulator and the CLI call with timing wrappers and returns a
:class:`Tracer`; :meth:`Tracer.restore` puts every original object back and
:meth:`Tracer.restored` checks that it did.  The untraced passes never import
this module.

A wrapper only reads the clock around the call and appends the span's name
id, start and end (``perf_counter_ns``) to compact arrays, so spans are
recorded in the order they close.  :meth:`Tracer.analyze` rebuilds from that
order each span's parent and the trial it belongs to (its enclosing
``run_trial`` span), and its self time: the duration minus the part of it
that child spans cover.  :meth:`Tracer.write` dumps the span table.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

import vfpath.baselines
import vfpath.cli
import vfpath.config
import vfpath.paths
import vfpath.simulation

LAYERS = ("paths", "guidance", "baselines", "vehicle", "simulation", "cli", "config")

# (module, attribute, span name).  Each attribute is wrapped in the namespace
# its caller looks it up in: run_trial reads its helpers from
# vfpath.simulation, nlgl_command reads nlgl_virtual_target from
# vfpath.baselines, and the CLI imported the other names into vfpath.cli.
MODULE_TARGETS = (
    (vfpath.simulation, "step_vehicle", "vehicle.step_vehicle"),
    (vfpath.simulation, "ground_speed", "vehicle.ground_speed"),
    (vfpath.simulation, "commanded_course", "guidance.commanded_course"),
    (vfpath.simulation, "basic_vf_command", "baselines.basic_vf_command"),
    (vfpath.simulation, "plos_command", "baselines.plos_command"),
    (vfpath.simulation, "nlgl_command", "baselines.nlgl_command"),
    (vfpath.baselines, "nlgl_virtual_target", "baselines.nlgl_virtual_target"),
    (vfpath.simulation, "compute_metrics", "simulation.compute_metrics"),
    (vfpath.simulation, "run_trial", "simulation.run_trial"),
    (vfpath.cli, "run_trial", "simulation.run_trial"),
    (vfpath.cli, "monte_carlo", "simulation.monte_carlo"),
    (vfpath.cli, "write_trajectory_csv", "cli.write_trajectory_csv"),
    (vfpath.cli, "write_metrics_csv", "cli.write_metrics_csv"),
    (vfpath.cli, "write_summary_csv", "cli.write_summary_csv"),
    (vfpath.cli, "write_per_trial_csv", "cli.write_per_trial_csv"),
    (vfpath.cli, "load_settings", "config.load_settings"),
    (vfpath.cli, "build_scenario", "config.build_scenario"),
    (vfpath.config, "load_settings", "config.load_settings"),
    (vfpath.config, "build_scenario", "config.build_scenario"),
)

PATH_KINDS = {
    vfpath.paths.LinePath: "line",
    vfpath.paths.CirclePath: "circle",
    vfpath.paths.SinusoidPath: "sinusoid",
    vfpath.paths.PolylinePath: "polyline",
}
PATH_CLASSES = (vfpath.paths.ReferencePath, *PATH_KINDS)
PATH_METHODS = ("closest_parameter", "frame_at", "tangent_angle")
TRIAL_SPAN = "simulation.run_trial"
PROJECTION_SPAN = "paths.closest_parameter"
TRAJECTORY_SPAN = "cli.write_trajectory_csv"

# The self times of the spans inside the trials must add up to the trials'
# traced duration within this share; a larger gap means spans overlapped
# without nesting, i.e. the tracer itself is broken.
SELF_SUM_TOLERANCE = 1e-6


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.errors: dict[str, int] = defaultdict(int)
        # One entry per finished run_trial, in the order their spans close.
        self.trial_info: list[dict] = []
        # Index of the first closest_parameter span on each path object; the
        # path is kept so its id cannot be reused by a later path.
        self.first_projection: list[int] = []
        self._projected: dict[int, object] = {}
        self.trajectory_rows = 0
        self._originals: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        name_id = self._intern(name)
        clock = time.perf_counter_ns
        ids, starts, ends = self.name_id.append, self.start.append, self.end.append
        errors = self.errors

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                t1 = clock()
                ids(name_id)
                starts(t0)
                ends(t1)

        traced.__wrapped__ = fn
        return traced

    def wrap_trial(self, fn):
        traced_call = self.wrap(TRIAL_SPAN, fn)
        info = self.trial_info

        def traced(config, seed=0):
            traj, metrics = traced_call(config, seed)
            # References only; the phase channel is counted in summarize().
            info.append({
                "law": config.law,
                "kind": PATH_KINDS.get(type(config.path), "other"),
                "phase": traj.phase,
                "converged": metrics.converged,
            })
            return traj, metrics

        traced.__wrapped__ = fn
        return traced

    def wrap_trajectory_writer(self, fn):
        traced_call = self.wrap(TRAJECTORY_SPAN, fn)
        tracer = self

        def traced(traj, out_file):
            traced_call(traj, out_file)
            tracer.trajectory_rows += len(traj)

        traced.__wrapped__ = fn
        return traced

    def wrap_path_method(self, method: str, fn):
        """Wrapper for a path method; the span name carries the path kind."""
        name_ids = {cls: self._intern(f"paths.{method}.{kind}") for cls, kind in PATH_KINDS.items()}
        clock = time.perf_counter_ns
        ids, starts, ends = self.name_id.append, self.start.append, self.end.append
        first_projection, projected = self.first_projection, self._projected
        tracer = self
        check_first = method == "closest_parameter"

        def traced(path, *args, **kwargs):
            t0 = clock()
            try:
                return fn(path, *args, **kwargs)
            finally:
                t1 = clock()
                cls = type(path)
                ids(name_ids[cls] if cls in name_ids else tracer._intern(f"paths.{method}.other"))
                starts(t0)
                ends(t1)
                if check_first and id(path) not in projected:
                    projected[id(path)] = path
                    first_projection.append(len(tracer.start) - 1)

        traced.__wrapped__ = fn
        return traced

    # -- install / restore -------------------------------------------------

    def install(self) -> None:
        special = {TRIAL_SPAN: self.wrap_trial, TRAJECTORY_SPAN: self.wrap_trajectory_writer}
        for module, attr, name in MODULE_TARGETS:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            wrapper = special[name](original) if name in special else self.wrap(name, original)
            setattr(module, attr, wrapper)
        for cls in PATH_CLASSES:
            for method in PATH_METHODS:
                if method in cls.__dict__:
                    original = cls.__dict__[method]
                    self._originals.append((cls, method, original))
                    setattr(cls, method, self.wrap_path_method(method, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every wrapped attribute is the original object again."""
        for owner, attr, original in self._originals:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                return False
        return bool(self._originals)

    # -- analysis ----------------------------------------------------------

    def analyze(self) -> None:
        """Rebuild parents, trials and self times from the close-ordered spans.

        A span closes after all its descendants, so walking the spans in
        record order, the still-unparented spans that started no earlier
        than the current one are its direct children.
        """
        n = len(self.start)
        start, end, ids = self.start, self.end, self.name_id
        parent = array("q", bytes(8 * n))  # parent index + 1; 0 = none
        covered = array("q", bytes(8 * n))
        pending: list[int] = []
        for i in range(n):
            s_i, e_i = start[i], end[i]
            while pending and start[pending[-1]] >= s_i:
                j = pending.pop()
                parent[j] = i + 1
                covered[i] += max(0, min(end[j], e_i) - start[j])
            pending.append(i)
        trial_id = self._intern(TRIAL_SPAN)
        trial_of = array("q", bytes(8 * n))  # enclosing run_trial index + 1
        for i in range(n - 1, -1, -1):
            if ids[i] == trial_id:
                trial_of[i] = i + 1
            elif parent[i]:
                trial_of[i] = trial_of[parent[i] - 1]
        self.parent = np.frombuffer(parent, dtype=np.int64) - 1
        self.trial_of = np.frombuffer(trial_of, dtype=np.int64) - 1
        self.ids_np = np.frombuffer(ids, dtype=np.uint16)
        self.duration = np.frombuffer(end, dtype=np.int64) - np.frombuffer(start, dtype=np.int64)
        self.self_ns = self.duration - np.frombuffer(covered, dtype=np.int64)
        self.trial_spans = np.nonzero(self.ids_np == trial_id)[0]

    def write(self, out_file: Path) -> None:
        """Dump the span table: a JSON header line, then the raw columns."""
        columns = {
            "name_id": self.ids_np,
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": self.parent,
            "trial_span": self.trial_of,
        }
        header = {
            "names": self.names,
            "spans": len(self.start),
            "columns": [[k, str(v.dtype)] for k, v in columns.items()],
        }
        with open(out_file, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode("utf-8"))
            for column in columns.values():
                fh.write(column.tobytes())


def install() -> Tracer:
    tracer = Tracer()
    tracer.install()
    return tracer


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def summarize(tracer: Tracer, report: dict) -> dict:
    """Per-layer metrics of the traced passes plus the tracer's own checks.

    Counts are per traced pass.  ``us``/``ms`` are mean self time per call.
    ``<layer>.share`` is the layer's self time over the traced passes' wall
    time; ``paths.share.<kind>`` is paths self time over the time of the
    trials flown on that path kind.
    """
    tracer.analyze()
    traced = report["traced_passes"]
    n_pass = len(traced)
    pass_ns = sum(p["wall"] for p in traced) * 1e9
    n_names = len(tracer.names)
    calls_by_id = np.bincount(tracer.ids_np, minlength=n_names)
    self_by_id = np.bincount(tracer.ids_np, weights=tracer.self_ns, minlength=n_names)
    calls = {name: int(calls_by_id[i]) for i, name in enumerate(tracer.names)}
    self_ns = {name: float(self_by_id[i]) for i, name in enumerate(tracer.names)}

    def names(prefix: str) -> list[str]:
        return [n for n in tracer.names if n == prefix or n.startswith(prefix + ".")]

    def total(prefix: str) -> float:
        return sum(self_ns[n] for n in names(prefix))

    def count(prefix: str) -> int:
        return sum(calls[n] for n in names(prefix))

    def mean_us(prefix: str) -> float:
        n = count(prefix)
        return total(prefix) / n / 1e3 if n else 0.0

    trials = tracer.trial_info
    for t in trials:
        phase = np.asarray(t["phase"])
        t["steps"] = len(phase)
        t["phase_steps"] = {f"case{k}": int(np.count_nonzero(phase == k)) for k in (1, 2, 3)}
        t["phase_switches"] = int(np.count_nonzero(np.diff(phase) != 0))
    steps = sum(t["steps"] for t in trials)

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.share"] = total(layer) / pass_ns

    m["paths.closest_parameter.calls"] = count(PROJECTION_SPAN) / n_pass
    m["paths.closest_parameter.us"] = mean_us(PROJECTION_SPAN)
    # Spans inside trials, grouped by the path kind the trial flew.
    kinds = ("sinusoid", "polyline", "line", "circle")
    kind_of_span = np.full(len(tracer.self_ns), -1)
    kind_of_span[tracer.trial_spans] = [
        kinds.index(t["kind"]) if t["kind"] in kinds else -1 for t in trials
    ]
    in_trial = tracer.trial_of >= 0
    span_kind = np.where(in_trial, kind_of_span[tracer.trial_of], -1)
    paths_ids = [i for i, n in enumerate(tracer.names) if layer_of(n) == "paths"]
    is_paths = np.isin(tracer.ids_np, paths_ids)
    trial_kind = kind_of_span[tracer.trial_spans]
    for k, kind in enumerate(kinds):
        m[f"paths.closest_parameter.{kind}.us"] = mean_us(f"{PROJECTION_SPAN}.{kind}")
        kind_ns = tracer.duration[tracer.trial_spans][trial_kind == k].sum()
        paths_ns = tracer.self_ns[is_paths & (span_kind == k)].sum()
        m[f"paths.share.{kind}"] = float(paths_ns / kind_ns) if kind_ns else 0.0
    m["paths.frame_at.us"] = mean_us("paths.frame_at")
    m["paths.tangent_angle.us"] = mean_us("paths.tangent_angle")
    firsts = tracer.duration[tracer.first_projection]
    m["paths.first_projection_ms"] = float(firsts.mean()) / 1e6 if firsts.size else 0.0

    m["guidance.commanded_course.calls"] = count("guidance.commanded_course") / n_pass
    m["guidance.commanded_course.us"] = mean_us("guidance.commanded_course")
    switched = [t for t in trials if t["law"] == "switched"]
    for case in ("case1", "case2", "case3"):
        m[f"guidance.phase_steps.{case}"] = sum(t["phase_steps"][case] for t in switched) / n_pass
    m["guidance.phase_switches"] = sum(t["phase_switches"] for t in switched) / n_pass

    for name in ("basic_vf_command", "plos_command", "nlgl_command", "nlgl_virtual_target"):
        m[f"baselines.{name}.us"] = mean_us(f"baselines.{name}")
    target = "baselines.nlgl_virtual_target"
    m["baselines.nlgl_virtual_target.share"] = total(target) / pass_ns
    m["baselines.nlgl_feasible_frac"] = (
        1.0 - tracer.errors[target] / calls[target] if calls.get(target) else 0.0
    )

    m["vehicle.step_vehicle.calls"] = count("vehicle.step_vehicle") / n_pass
    m["vehicle.step_vehicle.us"] = mean_us("vehicle.step_vehicle")
    m["vehicle.ground_speed.us"] = mean_us("vehicle.ground_speed")

    m["simulation.steps"] = steps / n_pass
    m["simulation.run_trial.calls"] = count(TRIAL_SPAN) / n_pass
    m["simulation.run_trial.self_us_per_step"] = total(TRIAL_SPAN) / steps / 1e3 if steps else 0.0
    m["simulation.compute_metrics.us"] = mean_us("simulation.compute_metrics")
    m["simulation.compute_metrics.share"] = total("simulation.compute_metrics") / pass_ns
    for law in ("switched", "basic_vf", "plos", "nlgl"):
        runs = [t["converged"] for t in trials if t["law"] == law]
        m[f"simulation.converged_frac.{law}"] = sum(runs) / len(runs) if runs else 0.0

    rows = tracer.trajectory_rows
    m["cli.write_trajectory_csv.us_per_row"] = total(TRAJECTORY_SPAN) / rows / 1e3 if rows else 0.0
    m["cli.write_summary_csv.ms"] = mean_us("cli.write_summary_csv") / 1e3
    loads = calls.get("config.load_settings", 0)
    m["config.load_ms"] = total("config") / loads / 1e6 if loads else 0.0

    # Traced and untraced passes run in the same mode (serial on the campaign).
    untraced_wall = _median([p["wall"] for p in report["passes"]])
    m["trace.overhead_frac"] = _median([p["wall"] for p in traced]) / untraced_wall - 1.0
    m["simulation.monte_carlo.parallel_eff"] = 0.0
    if "parallel_passes" in report:
        parallel_wall = _median([p["wall"] for p in report["parallel_passes"]])
        m["simulation.monte_carlo.parallel_eff"] = untraced_wall / (
            report["pool_workers"] * parallel_wall
        )

    trial_ns = float(tracer.duration[tracer.trial_spans].sum())
    self_sum = float(tracer.self_ns[in_trial].sum())
    self_sum_err = abs(self_sum - trial_ns) / trial_ns if trial_ns else 1.0
    return {
        "metrics": m,
        "spans": len(tracer.start),
        "traced_trial_s": trial_ns / 1e9,
        "self_sum_err": self_sum_err,
        "self_sum_ok": self_sum_err <= SELF_SUM_TOLERANCE,
        "unlayered": [n for n in tracer.names if layer_of(n) not in LAYERS],
    }
