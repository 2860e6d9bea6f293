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
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .angles import TAU, check_finite, check_positive, wrap_angle, wrap_angle_array
from .baselines import (
    BaselineParams,
    LookaheadInfeasibleError,
    basic_vf_command,
    nlgl_command,
    plos_command,
)
from .guidance import GuidanceParams, commanded_course
from .paths import PathDomainError, ReferencePath, SinusoidPath
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

# Steps a trial records as Python floats before run_trial turns them into
# one float64 block and splits it into channel pieces, and trajectory rows
# write_trajectory_csv formats per write: a step's floats live for at most
# one block.
BLOCK_STEPS = 1024

# Most steps (max_time / dt) a trial may plan.  run_trial keeps eight floats
# and an int8 phase a step, 65 B as channels and about 106 B at its peak
# (compute_metrics' temporaries beside the channels; recording alone, the
# pieces and the channels joined from them, about 78 B; tracemalloc over a
# 20,001-step trial), so a full-length trial stays near 0.11 GB; writing
# its trajectory CSV adds one block of rows.  That is 33 times the default
# 300 s at dt = 0.01 s.
MAX_STEPS = 1_000_000

# Most trials a campaign may run.  Before its first trial monte_carlo
# spawns one SeedSequence per trial (about 0.45 kB and 7 us each), draws
# the trial's start and wind (0.3 kB, 17 us) and builds a job per law (0.3
# kB for four laws), so a full campaign holds about 0.1 GB and spends about
# 3 s before it runs a trial (tracemalloc and perf_counter, 100,000 trials).
MAX_TRIALS = 100_000


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
    kappa_max: float = 0.7 / SCENARIO_SPEED

    def __post_init__(self):
        check_laws((self.law,))
        names = ("d0", "s0", "chi0", "x_init", "y_init", "dwell", "nlgl_d0")
        check_finite(
            **{name: getattr(self, name) for name in names if getattr(self, name) is not None}
        )
        names = ("dt", "max_time", "d_threshold", "align_threshold")
        check_positive(**{name: getattr(self, name) for name in names})
        if self.dt >= CHATTER_WINDOW:
            raise ValueError(
                f"dt must be below the {CHATTER_WINDOW} s chatter window, got {self.dt!r}"
            )
        if self.dwell < 0.0:
            raise ValueError(f"dwell must be non-negative, got {self.dwell!r}")
        if not math.isfinite(max(self.max_time, self.dwell) / self.dt):
            raise ValueError(
                f"dt = {self.dt!r} is too small: max_time / dt or dwell / dt is not finite"
            )
        if self.max_time / self.dt > MAX_STEPS:
            raise ValueError(
                f"max_time / dt = {self.max_time / self.dt:.3g} steps exceeds"
                f" MAX_STEPS = {MAX_STEPS} (max_time = {self.max_time!r}, dt = {self.dt!r})"
            )
        if not self.kappa_max > 0.0:
            raise ValueError(
                f"kappa_max must be positive (inf for unbounded), got {self.kappa_max}"
            )
        check_wind_speed(self.max_wind_speed, self.airspeed.v_a)
        if (self.x_init is None) != (self.y_init is None):
            raise ValueError("x_init and y_init give an explicit start: set both or neither")
        path = self.path
        if self.x_init is None:
            try:
                px, py = path.point(self.s0)
            except PathDomainError as exc:
                raise ValueError(f"s0: {exc}") from None
            # The start lies |d0| from point(s0), so this bounds it without
            # the tangent: building a scenario runs no traced path method.
            offset = abs(self.d0)
            if not (math.isfinite(abs(px) + offset) and math.isfinite(abs(py) + offset)):
                raise ValueError(f"the start, {offset} m from ({px}, {py}), is not finite")
            # vfpath compare starts nlgl nlgl_d0 off the path instead.
            starts = {"d0": (self.d0, offset), "nlgl_d0": (self.nlgl_d0, abs(self.nlgl_d0))}
        else:
            # The start is at most this far from the path point at s0, clamped
            # into the domain.
            px, py = path.point(min(max(self.s0, path.s_min), path.s_max))
            offset = abs(self.x_init - px) + abs(self.y_init - py)
            starts = {"(x_init, y_init)": ((self.x_init, self.y_init), offset)}
        # Nothing a trial computes may overflow: the vehicle squares the
        # airspeed, compute_metrics sums the squared turn rate (at most
        # alpha * pi) over every recorded step, and the switched law cubes
        # the cross-track distance, which stays within the start's offset
        # plus the reach (airspeed + max wind) * max_time.
        v_a = self.airspeed.v_a
        turn_max = self.guidance.alpha * math.pi
        reach = (v_a + self.max_wind_speed) * self.max_time
        if not math.isfinite(v_a * v_a):
            raise ValueError(f"airspeed = {v_a!r} is too large: its square overflows")
        if not math.isfinite(turn_max * turn_max * (self.max_time / self.dt + 1.0)):
            raise ValueError(
                f"alpha = {self.guidance.alpha!r} is too large: the sum of the squared"
                " turn rates over the trial overflows"
            )
        for name, (value, offset) in starts.items():
            far = offset + reach
            if not math.isfinite(far * far * far):
                raise ValueError(
                    f"{name} = {value!r} starts {offset!r} m off the path; with the reach"
                    f" {reach!r} m ((airspeed + max wind) * max_time) the cube of that"
                    " distance overflows"
                )

    @property
    def max_wind_speed(self) -> float:
        """Speed of the fixed wind, or of the strongest wind a sampled one
        (``wind`` None) can draw: the top of the sampling range."""
        return MC_WIND_SPEED_RANGE[1] if self.wind is None else self.wind.speed


# Guidance steps (config, x, y, chi, frame, chi_p_dot, v_g, prev) -> (chi_c,
# chi_d, phase, failure, lookahead): ``frame`` is frame_at's plain tuple and
# ``prev`` the law's previous step tuple or None (README, "Guidance laws share
# one interface").  They look the law functions up in this module on each
# call, so a wrapper set on ``vfpath.simulation`` sees every call.
def _switched_step(config, x, y, chi, frame, chi_p_dot, v_g, prev):
    return commanded_course(
        chi, frame, chi_p_dot, config.guidance, None if prev is None else prev[2], v_g
    )


def _basic_vf_step(config, x, y, chi, frame, chi_p_dot, v_g, prev):
    chi_c = basic_vf_command(frame, config.baselines)
    return chi_c, chi_c, 0, None, ()


def _plos_step(config, x, y, chi, frame, chi_p_dot, v_g, prev):
    chi_c = plos_command(x, y, chi, frame, config.baselines)
    return chi_c, chi_c, 0, None, ()


def _nlgl_step(config, x, y, chi, frame, chi_p_dot, v_g, prev):
    try:
        return nlgl_command(
            x, y, chi, frame, config.path, config.baselines, v_g, config.guidance.alpha, prev
        )
    except LookaheadInfeasibleError as exc:
        return chi, chi, 0, f"look-ahead infeasible: {exc}", ()


LAWS = {
    "switched": _switched_step,
    "basic_vf": _basic_vf_step,
    "plos": _plos_step,
    "nlgl": _nlgl_step,
}
GUIDANCE_LAWS = tuple(LAWS)


def check_laws(laws: Sequence[str]) -> None:
    """Raise ValueError unless ``laws`` names at least one law of ``LAWS``,
    none of them twice."""
    if not laws:
        raise ValueError("at least one guidance law must be selected")
    for i, law in enumerate(laws):
        if law not in LAWS:
            raise ValueError(
                f"unknown guidance law {law!r} (choose from {', '.join(GUIDANCE_LAWS)})"
            )
        if law in laws[:i]:
            raise ValueError(f"guidance law {law!r} is selected twice")


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
    if "path" not in overrides:
        overrides["path"] = SinusoidPath(SCENARIO_AMPLITUDE, SCENARIO_PERIOD)
    return ScenarioConfig(law=law, **overrides)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled closed-loop history of one trial: sample k is at
    time ``k * dt``, and each channel is its own array."""

    dt: float
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
        return len(self.x)

    @property
    def t(self) -> np.ndarray:
        """Sample times, built on each read: ``np.arange(n) * dt``."""
        return np.arange(len(self.x)) * self.dt


@dataclass(frozen=True)
class TrialMetrics:
    t_conv: float  # nan when not converged
    d_rms: float
    chi_dot_rms: float
    chi_dot_max: float
    chattering_index: float
    failure_reason: Optional[str] = None

    @property
    def converged(self) -> bool:
        """True exactly when the trial has a reaching time ``t_conv``."""
        return not math.isnan(self.t_conv)


# The scored TrialMetrics fields, in the order every output lists them.
METRICS = ("t_conv", "d_rms", "chi_dot_rms", "chi_dot_max", "chattering_index")


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


# The dtypes of the channels run_trial records, in the order of a step's
# floats and of the Trajectory fields after dt.
CHANNEL_DTYPES = (np.float64,) * 7 + (np.int8, np.float64)


def _store_block(rows: list[float], pieces: list[list[np.ndarray]]) -> None:
    """Append each channel of the flat step floats ``rows`` to its list in
    ``pieces`` as its own array and clear ``rows``.  Channel i is every
    ninth float from i; astype copies it out of the block, so no piece is a
    view of it, and casts phase's floats to int8."""
    block = np.array(rows, dtype=float)
    rows.clear()
    for i, (channel, dtype) in enumerate(zip(pieces, CHANNEL_DTYPES)):
        channel.append(block[i::9].astype(dtype))


def run_trial(config: ScenarioConfig, seed: int = 0) -> tuple[Trajectory, TrialMetrics]:
    """Simulate one closed-loop trial and score it.

    Each step evaluates the path frame tuple and course rate, calls the
    law's step in ``LAWS`` with them, the pose as three floats and the law's
    previous step tuple, records all channels, then integrates the vehicle
    one step.  When ``stop_when_converged`` is set the trial ends as soon as
    the convergence condition has held for a full dwell window (the recorded
    trajectory always contains that window); otherwise it runs to
    ``max_time``.  A step whose tuple names a failure (nlgl's infeasible
    look-ahead) is recorded and stops the trial, marked non-converged with
    that reason, and so does ending off a finite path's end (closest point
    at ``s_min`` or ``s_max``, |d| above ``d_threshold``).  A state that
    turns non-finite also stops the trial with a named reason; the
    trajectory ends at the last finite state.
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
    remainder = math.remainder

    x, y, chi = initial_state(config)
    frame: Optional[tuple] = None  # (s_star, px, py, chi_p, d)
    near: Optional[float] = None  # the closest parameter predicted for this step
    cmd: Optional[tuple] = None  # the law's previous step tuple
    streak = 0
    failure: Optional[str] = None
    # (x, y, chi, chi_c, chi_d, chi_dot, d, phase, chi_p) per step, appended
    # to one flat list of floats, so no object of a step outlives it; every
    # BLOCK_STEPS steps _store_block splits the list into one piece per
    # channel and clears it (t is k * dt, Trajectory.t to the bit).
    rows: list[float] = []
    record = rows.extend
    pieces: list[list[np.ndarray]] = [[] for _ in CHANNEL_DTYPES]
    block_len = 9 * BLOCK_STEPS

    for k in range(n_max + 1):
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(chi)):
            failure = f"non-finite state: at t = {k * dt:g} s; x = {x}; y = {y}; chi = {chi}"
            break
        p = (x, y)
        prev_frame = frame
        frame = path.frame_at(path.closest_parameter(p, near=near), p)
        s_star, _, _, chi_p, d = frame
        # The first frame stands in as its own predecessor: its path course
        # rate is 0 and the next hint is its own s*.
        last = prev_frame or frame
        chi_p_dot = remainder(chi_p - last[3], TAU) / dt
        # The next step's hint: s* extrapolated linearly from the last two.
        near = 2.0 * s_star - last[0]
        v_g = ground_speed(spec, wind, chi)

        cmd = law_step(config, x, y, chi, frame, chi_p_dot, v_g, cmd)
        chi_c, chi_d, phase, failure, _ = cmd
        # turn_rate(chi_c, chi, alpha); GuidanceParams proved alpha > 0.
        chi_dot = alpha * remainder(chi_c - chi, TAU)
        record((x, y, chi, chi_c, chi_d, chi_dot, d, phase, chi_p))
        if len(rows) == block_len:
            _store_block(rows, pieces)
        if failure is not None:
            break

        # compute_metrics scores convergence; the streak only decides the stop.
        if stop_early:
            if abs(d) <= d_thr and abs(remainder(chi - chi_p, TAU)) <= align_thr:
                streak += 1
                if streak > need:
                    break
            else:
                streak = 0
        if k == n_max:
            break

        # v_g and chi_dot are the first RK4 stage at this state.
        x, y, chi = step_vehicle((x, y, chi), chi_c, spec, wind, alpha, dt, v_g, chi_dot)

    at_end = min(abs(s_star - path.s_min), abs(s_star - path.s_max))
    if failure is None and not path.periodic and at_end <= PATH_END_TOL and abs(d) > d_thr:
        failure = (
            f"path end: the closest point is the path's end at s = {s_star:g};"
            f" {abs(d):g} m away"
        )

    _store_block(rows, pieces)
    # One channel at a time, its pieces dropped before the next is joined,
    # so the trial never holds all its pieces beside all its channels.
    channels = []
    for channel in pieces:
        channels.append(np.concatenate(channel))
        channel.clear()
    traj = Trajectory(dt, *channels)
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
    the condition for a full window is non-converged (t_conv = nan).  The
    window and t_conv are both counted in the trajectory's own sample
    interval ``traj.dt``.  RMS and max statistics run over the full recorded
    trajectory.
    """
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    need = int(round(config.dwell / traj.dt))
    ok = (np.abs(traj.d) <= config.d_threshold) & (
        np.abs(wrap_angle_array(traj.chi - traj.chi_p)) <= config.align_threshold
    )
    t_conv = math.nan
    n = len(ok)
    if n > need and failure_reason is None:
        # Samples of ok in [i, j): count[j] - count[i].
        count = np.concatenate(([0], np.cumsum(ok)))
        hits = np.nonzero(count[need + 1 :] - count[: n - need] == need + 1)[0]
        if hits.size:
            t_conv = float(hits[0] * traj.dt)
    return TrialMetrics(
        t_conv=t_conv,
        d_rms=float(np.sqrt(np.mean(traj.d**2))),
        chi_dot_rms=float(np.sqrt(np.mean(traj.chi_dot**2))),
        chi_dot_max=float(np.max(np.abs(traj.chi_dot))),
        chattering_index=chattering_index(traj),
        failure_reason=failure_reason,
    )


def chattering_index(traj: Trajectory) -> float:
    """Worst-case turn-rate sign-change rate (changes per second).

    Counts strict sign changes of chi_dot (rates below ``CHATTER_RATE_FLOOR``
    count as zero) in ``CHATTER_WINDOW``-long windows centered on each phase
    transition and returns the maximum count divided by the window length.  A
    trajectory with no phase transitions (baseline laws, or no switching) is
    scanned with a sliding window over its whole length instead.  One sample
    scores 0; more must be spaced closer than the window.
    """
    n = len(traj)
    if n < 2:
        return 0.0
    dt = traj.dt
    if CHATTER_WINDOW <= dt:
        raise ValueError("the chatter window must exceed the sample interval")
    rate = np.where(np.abs(traj.chi_dot) < CHATTER_RATE_FLOOR, 0.0, traj.chi_dot)
    # Sign changes between samples lo and hi: count[hi] - count[lo].
    count = np.concatenate(([0], np.cumsum(rate[:-1] * rate[1:] < 0.0)))
    half = int(round(0.5 * CHATTER_WINDOW / dt))
    transitions = np.nonzero(np.diff(traj.phase) != 0)[0] + 1
    if transitions.size:
        lo = np.maximum(transitions - half, 0)
        hi = np.minimum(transitions + half, n - 1)
    else:
        span = min(2 * half, n - 1)
        lo = np.arange(n - span)
        hi = lo + span
    return float(np.max(count[hi] - count[lo])) / CHATTER_WINDOW


def _quantile(ordered: list[float], q: float) -> float:
    """Quantile ``q`` of the sorted, non-empty ``ordered`` by numpy's default
    ``linear`` rule, equal to ``np.percentile`` to the bit on finite values:
    the virtual index ``q * (n - 1)`` lies between neighbours lo <= hi at
    fraction t, and the result is ``lo + (hi - lo) * t``, or ``hi - (hi - lo)
    * (1 - t)`` when t >= 0.5.  ``np.percentile`` itself calls ``np.unique``,
    which imports ``numpy.ma``: 2 MB in every campaign process."""
    pos = q * (len(ordered) - 1)
    i = int(pos)
    t = pos - i
    lo = ordered[i]
    hi = ordered[min(i + 1, len(ordered) - 1)]
    if t >= 0.5:
        return hi - (hi - lo) * (1.0 - t)
    return lo + (hi - lo) * t


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
        ordered = sorted(arr.tolist())
        return cls(
            count=int(arr.size),
            minimum=float(arr.min()),
            q1=_quantile(ordered, 0.25),
            median=_quantile(ordered, 0.5),
            q3=_quantile(ordered, 0.75),
            maximum=float(arr.max()),
            mean=float(arr.mean()),
        )


@dataclass(frozen=True)
class MonteCarloSummary:
    """Per-trial metrics by law, in trial order, and their box-plot statistics
    by (law, name in ``METRICS``); the t_conv ones count converged trials."""

    laws: tuple[str, ...]
    n_trials: int
    trials: dict[str, list[TrialMetrics]]
    stats: dict[tuple[str, str], BoxStats]

    @property
    def n_converged(self) -> dict[str, int]:
        """Converged trials by law: the count of the t_conv statistics."""
        return {law: self.stats[(law, "t_conv")].count for law in self.laws}


def _mc_draw(seed_seq: np.random.SeedSequence) -> tuple[float, float, WindModel]:
    """Initial offset, course and wind for one randomized trial."""
    rng = np.random.default_rng(seed_seq)
    d0 = rng.uniform(*MC_D0_RANGE)
    chi0 = rng.uniform(-math.pi, math.pi)
    wind = sample_wind(rng)
    return d0, chi0, wind


def _mc_job(
    base_config: ScenarioConfig, job: tuple[str, float, float, WindModel]
) -> TrialMetrics:
    law, d0, chi0, wind = job
    # The job's wind is drawn, so run_trial needs no seed.
    _, metrics = run_trial(replace(base_config, law=law, d0=d0, chi0=chi0, wind=wind))
    return metrics


def monte_carlo(
    base_config: ScenarioConfig,
    n_trials: int,
    master_seed: int,
    laws: Sequence[str] = GUIDANCE_LAWS,
    workers: Optional[int] = None,
) -> MonteCarloSummary:
    """Randomized benchmark of the guidance laws on a common trial set.

    Per-trial seeds are spawned deterministically from the master seed; trial
    ``i`` draws its initial offset, initial course and wind once and every law
    is run on that same draw, so the laws are compared on paired conditions.
    ``workers`` processes, at most one per job, run the trials (None:
    ``os.cpu_count()``; 1: this process; a count below 1 raises ValueError
    before any trial runs, and so does ``n_trials`` outside 1 to
    ``MAX_TRIALS``, before any seed is spawned).
    Results come back in job order (law, then trial index), so the summary
    does not depend on the worker count.  Non-converged trials are excluded
    from the t_conv statistics and counted by ``n_converged``.
    """
    if not 1 <= n_trials <= MAX_TRIALS:
        raise ValueError(
            f"n_trials must be between 1 and MAX_TRIALS = {MAX_TRIALS}, got {n_trials}"
        )
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1 (or None for every core), got {workers}")
    check_laws(laws)
    # Every trial draws its wind: check the top of the sampled range against
    # the airspeed before any trial runs.
    replace(base_config, wind=None)

    children = np.random.SeedSequence(master_seed).spawn(n_trials)
    draws = [_mc_draw(child) for child in children]
    jobs = [(law, *draw) for law in laws for draw in draws]

    run_job = partial(_mc_job, base_config)
    if workers is None:
        workers = os.cpu_count() or 1
    # A fork-started pool starts all its processes with the first job.
    workers = min(workers, len(jobs))
    if workers > 1:
        # Imported here: multiprocessing costs every process that starts no pool.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(jobs) // (workers * 8))
            outcomes = list(pool.map(run_job, jobs, chunksize=chunk))
    else:
        outcomes = list(map(run_job, jobs))
    # Both maps return results in job order: law-major, then trial index.
    trials = {
        law: outcomes[k * n_trials : (k + 1) * n_trials] for k, law in enumerate(laws)
    }
    stats = {
        (law, name): BoxStats.from_values(
            [getattr(m, name) for m in trials[law] if m.converged or name != "t_conv"]
        )
        for law in laws
        for name in METRICS
    }
    return MonteCarloSummary(laws=tuple(laws), n_trials=n_trials, trials=trials, stats=stats)
