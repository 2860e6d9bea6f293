"""Closed-loop trial simulation, metrics, and the Monte Carlo benchmark harness.

A trial steps path frame -> guidance command -> vehicle integration on a
uniform grid, records every channel, and scores the run with reaching time,
RMS cross-track error, RMS/max turn rate and a chattering index.  The Monte
Carlo harness runs seeded batches of trials for each guidance law over
randomized initial conditions and wind, and reduces the per-trial metrics to
box-plot statistics.  Everything is deterministic given (config, seed).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .angles import wrap_angle, wrap_angle_array
from .baselines import (
    BaselineParams,
    LookaheadInfeasibleError,
    basic_vf_command,
    nlgl_command,
    plos_command,
)
from .guidance import Command, GuidanceParams, commanded_course
from .paths import PathDomainError, PathFrame, ReferencePath, SinusoidPath, path_course_rate
from .vehicle import (
    AirspeedSpec,
    VehicleState,
    WindModel,
    check_wind_speed,
    ground_speed,
    step_vehicle,
)

# Benchmark scenario constants: a 300 m amplitude sinusoid whose spatial
# period makes the peak path course rate 0.1 rad/s at 15 m/s (the peak
# curvature of y = A sin(2 pi x / L) is A (2 pi / L)^2).
SCENARIO_AMPLITUDE = 300.0
SCENARIO_SPEED = 15.0
SCENARIO_PATH_RATE = 0.1
SCENARIO_PERIOD = 2.0 * math.pi * math.sqrt(
    SCENARIO_SPEED * SCENARIO_AMPLITUDE / SCENARIO_PATH_RATE
)

# Randomized-trial distributions: offset magnitude (m), wind speed (m/s) and
# wind direction (rad) ranges.
MC_D0_RANGE = (100.0, 200.0)
MC_WIND_SPEED_RANGE = (2.0, 3.0)
MC_WIND_DIR_RANGE = (-2.5, -2.0)

# Length (s) of the windows the chattering index counts turn-rate sign
# changes in; the time step must be shorter.
CHATTER_WINDOW = 1.0
# Turn rates (rad/s) below this count as zero in the chattering index, so
# rounding noise around a zero rate is no sign change.
CHATTER_RATE_FLOOR = 1e-9

# A trial whose closest parameter ends within this distance (m) of a finite
# path's end, off the path, has flown off that end.
PATH_END_TOL = 1e-6


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to run one closed-loop trial."""

    path: ReferencePath
    law: str = "switched"
    guidance: GuidanceParams = field(default_factory=GuidanceParams)
    baselines: BaselineParams = field(default_factory=BaselineParams)
    airspeed: AirspeedSpec = field(default_factory=lambda: AirspeedSpec(SCENARIO_SPEED))
    wind: Optional[WindModel] = field(default_factory=WindModel)  # None = sampled
    d0: float = 200.0
    s0: float = 0.0
    chi0: float = 1.8
    x_init: Optional[float] = None
    y_init: Optional[float] = None
    dt: float = 0.01
    max_time: float = 300.0
    d_threshold: float = 15.0
    align_threshold: float = 0.2
    dwell: float = 5.0
    stop_when_converged: bool = True
    nlgl_d0: float = 80.0
    kappa_max: float = 0.7 / 15.0

    def __post_init__(self):
        if self.law not in GUIDANCE_LAWS:
            raise ValueError(f"unknown guidance law {self.law!r}")
        for name in (
            "d0", "s0", "chi0", "x_init", "y_init", "dt", "max_time", "dwell", "nlgl_d0"
        ):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.dt <= 0.0 or self.max_time <= 0.0:
            raise ValueError("dt and max_time must be positive")
        if self.dt >= CHATTER_WINDOW:
            raise ValueError(f"dt must be below the {CHATTER_WINDOW} s chatter window")
        if not (self.d_threshold > 0.0 and self.align_threshold > 0.0):
            raise ValueError("convergence thresholds must be positive")
        if self.dwell < 0.0:
            raise ValueError("dwell must be non-negative")
        if not self.kappa_max > 0.0:
            raise ValueError(
                f"kappa_max must be positive (inf for unbounded), got {self.kappa_max}"
            )
        check_wind_speed(self.max_wind_speed, self.airspeed.v_a)
        if (self.x_init is None) != (self.y_init is None):
            raise ValueError("x_init and y_init give an explicit start: set both or neither")
        if self.x_init is None:
            try:
                px, py = self.path.point(self.s0)
            except PathDomainError as exc:
                raise ValueError(f"s0: {exc}") from None
            # The start lies |d0| from point(s0), so this bounds it without
            # the tangent: building a scenario runs no traced path method.
            reach = abs(self.d0)
            if not (math.isfinite(abs(px) + reach) and math.isfinite(abs(py) + reach)):
                raise ValueError(f"the start, {reach} m from ({px}, {py}), is not finite")

    @property
    def max_wind_speed(self) -> float:
        """Speed of the fixed wind, or of the strongest wind a sampled one
        (``wind`` None) can draw: the top of the sampling range."""
        return MC_WIND_SPEED_RANGE[1] if self.wind is None else self.wind.speed


# Guidance steps (config, state, frame, v_g, prev Command or None) -> Command.
# They look the law functions up in this module on each call, so a wrapper set
# on ``vfpath.simulation`` sees every call.
def _switched_step(config, state, frame, v_g, prev) -> Command:
    prev_phase = None if prev is None else prev.phase
    return commanded_course(state, frame, config.guidance, prev_phase, v_g)


def _basic_vf_step(config, state, frame, v_g, prev) -> Command:
    chi_c = basic_vf_command(frame, config.baselines)
    return Command(chi_c, chi_c)


def _plos_step(config, state, frame, v_g, prev) -> Command:
    chi_c = plos_command(state, frame, config.baselines)
    return Command(chi_c, chi_c)


def _nlgl_step(config, state, frame, v_g, prev) -> Command:
    try:
        chi_c = nlgl_command(
            state, frame, config.path, config.baselines, v_g, config.guidance.alpha
        )
    except LookaheadInfeasibleError as exc:
        return Command(state.chi, state.chi, failure=f"look-ahead infeasible: {exc}")
    return Command(chi_c, chi_c)


LAWS = {
    "switched": _switched_step,
    "basic_vf": _basic_vf_step,
    "plos": _plos_step,
    "nlgl": _nlgl_step,
}
GUIDANCE_LAWS = tuple(LAWS)


def comparison_scenario(config: ScenarioConfig) -> ScenarioConfig:
    """``config`` as ``vfpath compare`` flies it: nlgl starts ``nlgl_d0``
    off the path, inside its feasible look-ahead band, and every other law
    at ``d0``."""
    if config.law == "nlgl":
        return replace(config, d0=config.nlgl_d0)
    return config


def benchmark_scenario(law: str = "switched", **overrides) -> ScenarioConfig:
    """Benchmark sinusoid scenario with all default parameters.

    Vehicle starts 200 m off the path at its start with course 1.8 rad, which
    puts the switched law in its far-offset adverse-course phase (CASE1).
    No wind.
    """
    path = overrides.pop(
        "path", SinusoidPath(SCENARIO_AMPLITUDE, SCENARIO_PERIOD)
    )
    return ScenarioConfig(path=path, law=law, **overrides)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled closed-loop history of one trial."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    chi: np.ndarray
    chi_c: np.ndarray
    chi_d: np.ndarray
    chi_dot: np.ndarray
    d: np.ndarray
    phase: np.ndarray
    chi_p: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class TrialMetrics:
    converged: bool
    t_conv: float  # nan when not converged
    d_rms: float
    chi_dot_rms: float
    chi_dot_max: float
    chattering_index: float
    failure_reason: Optional[str] = None


def initial_state(config: ScenarioConfig) -> VehicleState:
    """Vehicle start pose: explicit (x, y) or a perpendicular offset d0 at s0."""
    if config.x_init is not None:
        return VehicleState(config.x_init, config.y_init, wrap_angle(config.chi0))
    px, py = config.path.point(config.s0)
    chi_p = config.path.tangent_angle(config.s0)
    nx, ny = -math.sin(chi_p), math.cos(chi_p)
    return VehicleState(
        px + config.d0 * nx, py + config.d0 * ny, wrap_angle(config.chi0)
    )


def sample_wind(rng: np.random.Generator) -> WindModel:
    """Draw a wind vector from the benchmark distribution."""
    speed = rng.uniform(*MC_WIND_SPEED_RANGE)
    direction = rng.uniform(*MC_WIND_DIR_RANGE)
    return WindModel(speed * math.cos(direction), speed * math.sin(direction))


def run_trial(config: ScenarioConfig, seed: int = 0) -> tuple[Trajectory, TrialMetrics]:
    """Simulate one closed-loop trial and score it.

    Each step evaluates the path frame, calls the law's step in ``LAWS``
    with the previous ``Command``, records all channels, then integrates the
    vehicle one step.  When ``stop_when_converged`` is set the trial ends as
    soon as the convergence condition has held for a full dwell window (the
    recorded trajectory always contains that window); otherwise it runs to
    ``max_time``.  A step whose
    ``Command`` names a failure (nlgl's infeasible look-ahead) is recorded and
    stops the trial, marked non-converged with that reason, and so does ending
    off a finite path's end (closest point at ``s_min`` or ``s_max``, |d|
    above ``d_threshold``).  A state that turns non-finite also stops the
    trial with a named reason; the trajectory ends at the last finite state.
    """
    wind = config.wind
    if wind is None:
        wind = sample_wind(np.random.default_rng(np.random.SeedSequence(seed)))

    path = config.path
    law_step = LAWS[config.law]
    spec = config.airspeed
    alpha = config.guidance.alpha
    dt = config.dt
    d_thr = config.d_threshold
    align_thr = config.align_threshold
    need = int(round(config.dwell / dt))
    n_max = int(round(config.max_time / dt))
    stop_early = config.stop_when_converged

    state = initial_state(config)
    prev_frame: Optional[PathFrame] = None
    cmd: Optional[Command] = None
    streak = 0
    conv_idx = -1
    failure: Optional[str] = None
    # One (t, x, y, chi, chi_c, chi_d, chi_dot, d, phase, chi_p) row per step.
    rows: list[tuple] = []

    for k in range(n_max + 1):
        x, y, chi = state
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(chi)):
            failure = f"non-finite state at t = {k * dt:g} s: x = {x}, y = {y}, chi = {chi}"
            break
        p = (x, y)
        if prev_frame is None:
            s_star = path.closest_parameter(p)
        else:
            s_star = path.closest_parameter(p, near=prev_frame.s_star)
        frame = path.frame_at(s_star, p)
        frame.chi_p_dot = path_course_rate(frame, prev_frame, dt)
        prev_frame = frame
        v_g = ground_speed(spec, wind, chi)

        cmd = law_step(config, state, frame, v_g, cmd)
        # turn_rate(cmd.chi_c, chi, alpha); GuidanceParams proved alpha > 0.
        chi_dot = alpha * wrap_angle(cmd.chi_c - chi)
        rows.append((
            k * dt, x, y, chi, cmd.chi_c, cmd.chi_d, chi_dot, frame.d, cmd.phase, frame.chi_p,
        ))
        if cmd.failure is not None:
            failure = cmd.failure
            break

        if abs(frame.d) <= d_thr and abs(wrap_angle(chi - frame.chi_p)) <= align_thr:
            streak += 1
        else:
            streak = 0
        if conv_idx < 0 and streak >= need + 1:
            conv_idx = k - need
        if stop_early and conv_idx >= 0:
            break
        if k == n_max:
            break

        # v_g and chi_dot are the first RK4 stage at this state.
        state = step_vehicle(state, cmd.chi_c, spec, wind, alpha, dt, v_g, chi_dot)

    at_end = min(abs(frame.s_star - path.s_min), abs(frame.s_star - path.s_max))
    if failure is None and not path.periodic and at_end <= PATH_END_TOL and abs(frame.d) > d_thr:
        failure = (
            f"path end: the closest point is the path's end at s = {frame.s_star:g},"
            f" {abs(frame.d):.1f} m away"
        )

    *channels, phase, chi_p = zip(*rows)
    traj = Trajectory(
        *map(np.asarray, channels), np.asarray(phase, dtype=np.int8), np.asarray(chi_p)
    )
    metrics = compute_metrics(traj, config, failure_reason=failure)
    return traj, metrics


def compute_metrics(
    traj: Trajectory,
    config: ScenarioConfig,
    failure_reason: Optional[str] = None,
) -> TrialMetrics:
    """Score a trajectory.

    The reaching time is the start of the first window of length ``dwell``
    during which both |d| <= d_threshold and |wrap(chi - chi_p)| <=
    align_threshold hold at every sample; a trajectory that never sustains
    the condition for a full window is non-converged (t_conv = nan).  RMS and
    max statistics run over the full recorded trajectory.
    """
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    dt = config.dt
    need = int(round(config.dwell / dt))
    ok = (np.abs(traj.d) <= config.d_threshold) & (
        np.abs(wrap_angle_array(traj.chi - traj.chi_p)) <= config.align_threshold
    )
    t_conv = math.nan
    converged = False
    n = len(ok)
    if n > need and failure_reason is None:
        window = np.cumsum(ok)
        window_sum = window[need:].astype(np.int64)
        window_sum[1:] -= window[: n - need - 1]
        hits = np.nonzero(window_sum == need + 1)[0]
        if hits.size:
            converged = True
            t_conv = float(traj.t[hits[0]])
    d_rms = float(np.sqrt(np.mean(traj.d**2)))
    chi_dot_rms = float(np.sqrt(np.mean(traj.chi_dot**2)))
    chi_dot_max = float(np.max(np.abs(traj.chi_dot)))
    chatter = chattering_index(traj) if len(traj) > 2 else 0.0
    return TrialMetrics(
        converged=converged,
        t_conv=t_conv,
        d_rms=d_rms,
        chi_dot_rms=chi_dot_rms,
        chi_dot_max=chi_dot_max,
        chattering_index=chatter,
        failure_reason=failure_reason,
    )


def chattering_index(traj: Trajectory, window: float = CHATTER_WINDOW) -> float:
    """Worst-case turn-rate sign-change rate (changes per second).

    Counts strict sign changes of chi_dot (rates below
    ``CHATTER_RATE_FLOOR`` count as zero) inside windows of the given length
    centered on each phase transition and returns the maximum count divided
    by the window length.  A trajectory with no phase transitions (baseline
    laws, or no switching) is scanned with a sliding window over its whole
    length instead.
    """
    n = len(traj)
    if n < 2:
        return 0.0
    dt = float(traj.t[1] - traj.t[0])
    if window <= dt:
        raise ValueError("window must exceed the sample interval")
    rate = np.where(np.abs(traj.chi_dot) < CHATTER_RATE_FLOOR, 0.0, traj.chi_dot)
    changes = (rate[:-1] * rate[1:] < 0.0).astype(np.int64)
    half = int(round(0.5 * window / dt))
    transitions = np.nonzero(np.diff(traj.phase) != 0)[0] + 1
    if transitions.size:
        best = 0
        for idx in transitions:
            lo = max(int(idx) - half, 0)
            hi = min(int(idx) + half, n - 1)
            best = max(best, int(np.sum(changes[lo:hi])))
        return best / window
    span = min(2 * half, n - 1)
    csum = np.concatenate(([0], np.cumsum(changes)))
    window_counts = csum[span:] - csum[: len(csum) - span]
    return float(np.max(window_counts)) / window


@dataclass(frozen=True)
class BoxStats:
    """Box-plot summary of one metric over a batch of trials."""

    count: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "BoxStats":
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            nan = math.nan
            return cls(0, nan, nan, nan, nan, nan, nan)
        q1, med, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
        return cls(
            count=int(arr.size),
            minimum=float(arr.min()),
            q1=float(q1),
            median=float(med),
            q3=float(q3),
            maximum=float(arr.max()),
            mean=float(arr.mean()),
        )


@dataclass(frozen=True)
class MonteCarloSummary:
    laws: tuple[str, ...]
    n_trials: int
    master_seed: int
    trials: dict[str, list[TrialMetrics]]
    stats: dict[tuple[str, str], BoxStats]
    n_converged: dict[str, int]


def _mc_draw(seed_seq: np.random.SeedSequence) -> tuple[float, float, WindModel]:
    """Initial offset, course and wind for one randomized trial."""
    rng = np.random.default_rng(seed_seq)
    d0 = rng.uniform(*MC_D0_RANGE)
    chi0 = rng.uniform(-math.pi, math.pi)
    wind = sample_wind(rng)
    return d0, chi0, wind


def _mc_job(
    base_config: ScenarioConfig, job: tuple[str, int, float, float, WindModel]
) -> TrialMetrics:
    law, index, d0, chi0, wind = job
    config = replace(base_config, law=law, d0=d0, chi0=chi0, wind=wind)
    _, metrics = run_trial(config, seed=index)
    return metrics


def monte_carlo(
    base_config: ScenarioConfig,
    n_trials: int,
    master_seed: int,
    laws: Sequence[str] = GUIDANCE_LAWS,
    parallel: bool = True,
    max_workers: Optional[int] = None,
) -> MonteCarloSummary:
    """Randomized benchmark of the guidance laws on a common trial set.

    Per-trial seeds are spawned deterministically from the master seed; trial
    ``i`` draws its initial offset, initial course and wind once and every law
    is run on that same draw, so the laws are compared on paired conditions.
    Results come back in job order (law, then trial index), making the
    summary independent of worker scheduling.  Non-converged trials are
    excluded from the t_conv statistics and reported through ``n_converged``.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    for i, law in enumerate(laws):
        if law in laws[:i]:
            raise ValueError(f"guidance law {law!r} is selected twice")
        # Every trial draws its wind: check the law's name and the top of the
        # sampled range against the airspeed before any trial runs.
        replace(base_config, law=law, wind=None)

    children = np.random.SeedSequence(master_seed).spawn(n_trials)
    draws = [_mc_draw(child) for child in children]
    jobs = [
        (law, i, d0, chi0, wind)
        for law in laws
        for i, (d0, chi0, wind) in enumerate(draws)
    ]

    run_job = partial(_mc_job, base_config)
    workers = max_workers or os.cpu_count() or 1
    if parallel and workers > 1 and n_trials * len(laws) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(jobs) // (workers * 8))
            outcomes = list(pool.map(run_job, jobs, chunksize=chunk))
    else:
        outcomes = list(map(run_job, jobs))
    # Both maps return results in job order: law-major, then trial index.
    trials = {
        law: outcomes[k * n_trials : (k + 1) * n_trials] for k, law in enumerate(laws)
    }
    stats: dict[tuple[str, str], BoxStats] = {}
    n_converged: dict[str, int] = {}
    for law in laws:
        batch = trials[law]
        n_converged[law] = sum(1 for m in batch if m.converged)
        stats[(law, "t_conv")] = BoxStats.from_values(
            [m.t_conv for m in batch if m.converged]
        )
        for name in ("d_rms", "chi_dot_rms", "chi_dot_max", "chattering_index"):
            stats[(law, name)] = BoxStats.from_values(
                [getattr(m, name) for m in batch]
            )
    return MonteCarloSummary(
        laws=tuple(laws),
        n_trials=n_trials,
        master_seed=master_seed,
        trials=trials,
        stats=stats,
        n_converged=n_converged,
    )
