import concurrent.futures
import gc
import importlib.util
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vfpath import simulation
from vfpath.angles import wrap_angle, wrap_angle_array
from vfpath.baselines import (
    basic_vf_command, nlgl_command, nlgl_virtual_target, plos_command,
)
from vfpath.guidance import GuidanceParams, commanded_course
from vfpath.paths import CirclePath, LinePath, PolylinePath, ReferencePath, SinusoidPath
from vfpath.simulation import (
    GUIDANCE_LAWS,
    BoxStats,
    ScenarioConfig,
    Trajectory,
    TrialMetrics,
    benchmark_scenario,
    chattering_index,
    check_laws,
    compute_metrics,
    initial_state,
    monte_carlo,
    run_trial,
)
from vfpath.vehicle import (
    AirspeedSpec, VehicleState, WindModel, ground_speed, step_vehicle, turn_rate,
)


def synthetic_trajectory(dt, d, chi_dot=None, chi=None, chi_p=None, phase=None):
    n = len(d)
    zeros = np.zeros(n)
    return Trajectory(
        dt=dt,
        x=zeros,
        y=zeros,
        chi=zeros if chi is None else np.asarray(chi, dtype=float),
        chi_c=zeros,
        chi_d=zeros,
        chi_dot=zeros if chi_dot is None else np.asarray(chi_dot, dtype=float),
        d=np.asarray(d, dtype=float),
        phase=np.zeros(n, dtype=np.int8) if phase is None else np.asarray(phase, dtype=np.int8),
        chi_p=zeros if chi_p is None else np.asarray(chi_p, dtype=float),
    )


def line_config(**overrides):
    defaults = dict(
        path=LinePath(0, 0, 0),
        law="switched",
        wind=WindModel(0, 0),
        d0=0.0,
        chi0=0.0,
        max_time=10.0,
        stop_when_converged=False,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


LAW_FUNCTIONS = ("commanded_course", "basic_vf_command", "plos_command", "nlgl_command")
VEHICLE_FUNCTIONS = ("ground_speed", "step_vehicle")
# A master seed whose 3-trial campaign draws one nlgl start inside L1
# (d0 = 105.6 m) that flies to convergence.
NLGL_FLIES_SEED = 3


class TestRunTrial:
    def test_on_path_equilibrium(self):
        traj, metrics = run_trial(line_config())
        assert np.max(np.abs(traj.d)) < 1e-9
        assert np.max(np.abs(traj.chi_dot)) < 1e-9
        assert metrics.converged
        assert metrics.t_conv == 0.0
        assert metrics.d_rms == pytest.approx(0.0, abs=1e-9)

    def test_determinism(self):
        cfg = benchmark_scenario(max_time=20.0, stop_when_converged=False)
        t1, m1 = run_trial(cfg, seed=5)
        t2, m2 = run_trial(cfg, seed=5)
        assert np.array_equal(t1.x, t2.x)
        assert np.array_equal(t1.chi, t2.chi)
        assert m1 == m2

    def test_sampled_wind_reproducible(self):
        cfg = line_config(wind=None, d0=50.0, chi0=1.0, max_time=5.0)
        t1, _ = run_trial(cfg, seed=9)
        t2, _ = run_trial(cfg, seed=9)
        t3, _ = run_trial(cfg, seed=10)
        assert np.array_equal(t1.x, t2.x)
        assert not np.array_equal(t1.x, t3.x)

    def test_initial_offset_placement(self):
        cfg = benchmark_scenario()
        state = initial_state(cfg)
        frame = cfg.path.closest_point((state.x, state.y))
        assert frame.d == pytest.approx(cfg.d0, abs=1e-6)

    def test_explicit_initial_position(self):
        cfg = line_config(x_init=3.0, y_init=-4.0, chi0=0.2, max_time=0.1)
        traj, _ = run_trial(cfg)
        assert traj.x[0] == 3.0 and traj.y[0] == -4.0

    def test_early_stop_contains_dwell_window(self):
        cfg = benchmark_scenario()
        traj, metrics = run_trial(cfg)
        assert metrics.converged
        assert traj.t[-1] == pytest.approx(metrics.t_conv + cfg.dwell, abs=cfg.dt)

    def test_nlgl_infeasible_marks_failure(self):
        cfg = line_config(law="nlgl", d0=150.0, chi0=0.0)
        traj, metrics = run_trial(cfg)
        assert not metrics.converged
        assert "look-ahead infeasible" in metrics.failure_reason
        assert len(traj) == 1

    def test_converged_follows_from_t_conv(self):
        # converged is no stored field: it reads t_conv, so the two agree on
        # a converged trial, a non-converged one and a failed one.
        assert "converged" not in TrialMetrics.__dataclass_fields__
        assert len(TrialMetrics.__dataclass_fields__) == 6
        assert isinstance(TrialMetrics.converged, property)
        configs = [
            benchmark_scenario(),
            line_config(d0=200.0, chi0=1.0, max_time=2.0),
            line_config(law="nlgl", d0=150.0, chi0=0.0),
        ]
        seen = []
        for cfg in configs:
            _, metrics = run_trial(cfg)
            assert metrics.converged == (not math.isnan(metrics.t_conv))
            seen.append((metrics.converged, metrics.failure_reason is None))
        assert seen == [(True, True), (False, True), (False, False)]

    def test_flying_off_path_end_marks_failure(self):
        cfg = benchmark_scenario(
            path=LinePath(0, 0, 0, s_max=500.0), stop_when_converged=False, max_time=300.0
        )
        traj, metrics = run_trial(cfg)
        assert abs(traj.d[-1]) > 1000.0
        assert not metrics.converged
        assert metrics.failure_reason.startswith("path end")

    @pytest.mark.parametrize("law", ["switched", "basic_vf", "plos"])
    def test_path_end_reason_states_a_far_distance_briefly(self, law):
        # 1e102 m off the sinusoid, whose closest point is then its start.
        _, metrics = run_trial(benchmark_scenario(law, d0=1e102, max_time=3.0))
        assert metrics.failure_reason.startswith("path end")
        assert metrics.failure_reason.endswith("; 1e+102 m away")

    @pytest.mark.parametrize("kind", ["look-ahead infeasible", "non-finite state", "path end"])
    def test_failure_reason_reads_kind_colon_detail(self, kind, monkeypatch):
        # The text before the first colon is the failure kind alone.
        if kind == "look-ahead infeasible":
            config = benchmark_scenario("nlgl", max_time=5.0)  # d0 = 200 m > L1
        elif kind == "non-finite state":
            monkeypatch.setattr(
                simulation, "step_vehicle", lambda state, *args: (state[0], math.nan, state[2])
            )
            config = benchmark_scenario(max_time=5.0)
        else:
            config = benchmark_scenario(path=LinePath(0, 0, 0, s_max=50.0), max_time=60.0)
        _, metrics = run_trial(config)
        assert metrics.failure_reason.split(":", 1)[0] == kind

    def test_ending_within_threshold_of_path_end_is_not_a_failure(self):
        # Tracking the line 5 m past its end: |d| stays below d_threshold.
        cfg = line_config(path=LinePath(0, 0, 0, s_max=100.0), max_time=7.0)
        traj, metrics = run_trial(cfg)
        assert traj.x[-1] > 100.0
        assert metrics.failure_reason is None

    def test_non_finite_state_stops_with_a_named_failure(self, monkeypatch):
        real_step = simulation.step_vehicle
        steps = []

        def step_then_nan(state, *args):
            steps.append(state)
            if len(steps) > 50:
                return (math.nan, state[1], state[2])
            return real_step(state, *args)

        monkeypatch.setattr(simulation, "step_vehicle", step_then_nan)
        traj, metrics = run_trial(benchmark_scenario(max_time=5.0))
        assert metrics.failure_reason.startswith("non-finite state")
        assert not metrics.converged
        for name in ("d_rms", "chi_dot_rms", "chi_dot_max", "chattering_index"):
            assert math.isfinite(getattr(metrics, name))
        assert len(traj) == 51

    @pytest.mark.parametrize(
        "law, d0, name",
        [
            ("switched", 50.0, "commanded_course"),
            ("basic_vf", 50.0, "basic_vf_command"),
            ("plos", 50.0, "plos_command"),
            ("nlgl", 50.0, "nlgl_command"),
            ("nlgl", 150.0, "nlgl_command"),  # infeasible: one step, one raise
        ],
    )
    def test_one_law_call_per_recorded_step(self, monkeypatch, law, d0, name):
        # bench/tracer.py times the laws and the vehicle by wrapping these
        # names in vfpath.simulation, so run_trial must call them there: the
        # law and ground_speed once a recorded step, step_vehicle once an
        # integrated one (every recorded step but the last).
        counted_names = LAW_FUNCTIONS + VEHICLE_FUNCTIONS
        calls = dict.fromkeys(counted_names, 0)
        for fn_name in counted_names:

            def counted(*args, _real=getattr(simulation, fn_name), _name=fn_name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(simulation, fn_name, counted)
        traj, _ = run_trial(line_config(law=law, d0=d0, chi0=0.5, max_time=2.0))
        assert calls == {
            **dict.fromkeys(LAW_FUNCTIONS, 0),
            name: len(traj),
            "ground_speed": len(traj),
            "step_vehicle": len(traj) - 1,
        }

    def test_course_error_on_the_threshold_scores_as_the_trial_stopped(self):
        # The course error starts at align_threshold exactly; the trial stops
        # after the dwell, so its metrics must call it converged.
        traj, metrics = run_trial(
            line_config(law="basic_vf", chi0=0.2, max_time=40.0, stop_when_converged=True)
        )
        assert len(traj) == 501
        assert metrics.converged and metrics.t_conv == 0.0

    @pytest.mark.parametrize("law", GUIDANCE_LAWS)
    @pytest.mark.parametrize("kind", ["line", "circle", "sinusoid", "polyline"])
    def test_windy_step_matches_public_vehicle_functions(self, kind, law):
        # run_trial hands its v_g and recorded chi_dot to step_vehicle as the
        # first RK4 stage; the results must be the public functions' to the bit.
        paths = {
            "line": LinePath(0, 0, 0.3),
            "circle": CirclePath(0, 0, 300.0),
            "sinusoid": SinusoidPath(simulation.SCENARIO_AMPLITUDE, simulation.SCENARIO_PERIOD),
            "polyline": PolylinePath(
                [(20.0 * i, 40.0 * math.sin(0.05 * i)) for i in range(60)]
            ),
        }
        cfg = line_config(
            path=paths[kind], law=law, d0=40.0, s0=300.0, chi0=-0.3,
            wind=WindModel(2.0, -1.5), max_time=8.0,
        )
        traj, metrics = run_trial(cfg)
        assert metrics.failure_reason is None
        assert len(traj) == 801
        spec, wind, alpha, dt = cfg.airspeed, cfg.wind, cfg.guidance.alpha, cfg.dt
        for k in range(len(traj)):
            chi_c, chi = float(traj.chi_c[k]), float(traj.chi[k])
            assert traj.chi_dot[k] == turn_rate(chi_c, chi, alpha)
            if k + 1 < len(traj):
                state = VehicleState(float(traj.x[k]), float(traj.y[k]), chi)
                stage = (ground_speed(spec, wind, chi), turn_rate(chi_c, chi, alpha))
                step = step_vehicle(state, chi_c, spec, wind, alpha, dt, *stage)
                assert step == (traj.x[k + 1], traj.y[k + 1], traj.chi[k + 1])

    @pytest.mark.parametrize("law", GUIDANCE_LAWS)
    @pytest.mark.parametrize("kind", ["line", "circle"])
    def test_windy_commands_match_public_law_functions(self, kind, law):
        # The line and circle project in closed form and ignore the hint, so
        # closest_point gives each recorded step's frame.  Rebuilt from the
        # public law function, its own previous tuple (the switched law's
        # phase, nlgl's look-ahead pair) and the recorded pose, every command
        # must be the trajectory's to the bit.
        path = LinePath(0, 0, 0.3) if kind == "line" else CirclePath(0, 0, 300.0)
        cfg = line_config(
            path=path, law=law, d0=40.0, s0=300.0, chi0=-0.3,
            wind=WindModel(2.0, -1.5), max_time=8.0,
        )
        traj, metrics = run_trial(cfg)
        assert metrics.failure_reason is None
        assert len(traj) == 801
        spec, wind, alpha, dt = cfg.airspeed, cfg.wind, cfg.guidance.alpha, cfg.dt
        prev = None
        phases = set()
        for k in range(len(traj)):
            x, y, chi = float(traj.x[k]), float(traj.y[k]), float(traj.chi[k])
            frame = path.closest_point((x, y))
            chi_p_dot = wrap_angle(frame.chi_p - float(traj.chi_p[k - 1])) / dt if k else 0.0
            v_g = ground_speed(spec, wind, chi)
            if law == "switched":
                out = commanded_course(
                    chi, frame, chi_p_dot, cfg.guidance, None if prev is None else prev[2], v_g
                )
            elif law == "nlgl":
                out = nlgl_command(x, y, chi, frame, path, cfg.baselines, v_g, alpha, prev)
                s_t = nlgl_virtual_target(path, frame, (x, y), cfg.baselines.nlgl_l1)[0]
                assert out[4] == (s_t if prev is None else prev[4][1], s_t)
            else:
                chi_c = (
                    basic_vf_command(frame, cfg.baselines)
                    if law == "basic_vf"
                    else plos_command(x, y, chi, frame, cfg.baselines)
                )
                out = (chi_c, chi_c, 0, None, ())
            assert out[:3] == (traj.chi_c[k], traj.chi_d[k], traj.phase[k])
            assert out[3] is None
            phases.add(out[2])
            prev = out
        if law == "switched":
            assert len(phases) > 1

    def test_recorded_turn_rate_wraps_minus_pi_as_turn_rate(self, monkeypatch):
        # A command exactly pi behind the course: chi_c - chi is -pi, which
        # the wrap keeps at -pi (remainder's tie goes to the even quotient
        # 0), so the recorded rate is -alpha*pi.
        def half_turn(chi, frame, chi_p_dot, params, prev_phase, v_g):
            return chi - math.pi, 0.0, 3, None, ()

        monkeypatch.setattr(simulation, "commanded_course", half_turn)
        cfg = line_config(chi0=0.5 * math.pi, max_time=0.05)
        traj, _ = run_trial(cfg)
        alpha = cfg.guidance.alpha
        assert traj.chi_dot[0] == -alpha * math.pi
        for k in range(len(traj)):
            chi_c, chi = float(traj.chi_c[k]), float(traj.chi[k])
            assert traj.chi_dot[k] == turn_rate(chi_c, chi, alpha)

    @pytest.mark.parametrize("law", GUIDANCE_LAWS)
    def test_first_step_frame_is_closest_point(self, law, monkeypatch):
        # Step 0 projects with no hint through the loop's one call: its frame
        # is closest_point's of the start to the bit, with path course rate
        # 0.0, and it stands in as its own predecessor, so the second step's
        # hint is its s*.
        hints = []

        class RecordingSinusoid(SinusoidPath):
            def closest_parameter(self, p, near=None):
                hints.append(near)
                return super().closest_parameter(p, near)

        frames = []
        real = simulation.LAWS[law]

        def recording(config, x, y, chi, frame, chi_p_dot, v_g, prev):
            frames.append((*frame, chi_p_dot))
            return real(config, x, y, chi, frame, chi_p_dot, v_g, prev)

        monkeypatch.setitem(simulation.LAWS, law, recording)
        path = RecordingSinusoid(simulation.SCENARIO_AMPLITUDE, simulation.SCENARIO_PERIOD)
        cfg = benchmark_scenario(law, path=path, d0=80.0 if law == "nlgl" else 200.0,
                                 max_time=0.05)
        run_trial(cfg)
        state = initial_state(cfg)
        fresh = SinusoidPath(simulation.SCENARIO_AMPLITUDE, simulation.SCENARIO_PERIOD)
        expected = fresh.closest_point((state.x, state.y))
        assert frames[0] == (*expected, 0.0)
        assert math.copysign(1.0, frames[0][5]) == 1.0
        assert hints[:3] == [None, frames[0][0], 2.0 * frames[1][0] - frames[0][0]]

    @pytest.mark.parametrize("law", GUIDANCE_LAWS)
    def test_trial_step_builds_no_path_frame(self, law, monkeypatch):
        # frame_at returns a plain tuple that the step unpacks; only
        # closest_point names its fields.  With PathFrame raising, a trial
        # of each law still runs on every path kind.
        class NoFrame:
            def __init__(self, *fields):
                raise AssertionError("a PathFrame was built")

        monkeypatch.setattr("vfpath.paths.PathFrame", NoFrame)
        kinds = [
            LinePath(0, 0, 0.3),
            CirclePath(0, 0, 300.0),
            SinusoidPath(simulation.SCENARIO_AMPLITUDE, simulation.SCENARIO_PERIOD),
            PolylinePath([(0.0, 0.0), (400.0, 0.0), (700.0, 300.0)]),
        ]
        for path in kinds:
            with pytest.raises(AssertionError, match="PathFrame"):
                path.closest_point((10.0, 20.0))
            cfg = line_config(path=path, law=law, d0=40.0, s0=100.0, max_time=1.0)
            traj, metrics = run_trial(cfg)
            assert metrics.failure_reason is None
            assert len(traj) == 101

    def test_switched_step_gets_previous_phase(self, monkeypatch):
        real = simulation.commanded_course
        seen = []

        def recording(chi, frame, chi_p_dot, params, prev_phase, v_g):
            out = real(chi, frame, chi_p_dot, params, prev_phase, v_g)
            seen.append((prev_phase, out[2]))
            return out

        monkeypatch.setattr(simulation, "commanded_course", recording)
        run_trial(benchmark_scenario(max_time=25.0, stop_when_converged=False))
        assert seen[0][0] is None
        assert [prev for prev, _ in seen[1:]] == [out for _, out in seen[:-1]]
        assert {out for _, out in seen} == {1, 2, 3}

    def test_per_step_displacement_is_ground_speed(self):
        cfg = line_config(max_time=2.0)
        traj, _ = run_trial(cfg)
        steps = np.hypot(np.diff(traj.x), np.diff(traj.y))
        assert np.allclose(steps, 15.0 * cfg.dt, atol=1e-9)

    def test_channels_are_separate_arrays(self):
        # A channel that were a view of one shared table would keep the whole
        # table alive in every kept Trajectory.
        config = line_config(max_time=2.0)
        traj, _ = run_trial(config)
        fields = Trajectory.__dataclass_fields__
        assert "t" not in fields and fields["dt"].type == "float"
        assert type(traj.dt) is float and traj.dt == config.dt
        for name in fields:
            if name == "dt":
                continue
            channel = getattr(traj, name)
            assert channel.base is None and channel.flags.c_contiguous, name
            assert channel.dtype == (np.int8 if name == "phase" else np.float64), name
        assert traj.t.tolist() == [k * config.dt for k in range(len(traj))]

    def test_loop_leaves_nothing_for_the_garbage_collector(self):
        # Each step's objects die within the step, so a 6,001-step trial
        # triggers next to no collection (a kept row tuple per step made 17).
        config = benchmark_scenario("switched", stop_when_converged=False, max_time=60.0)
        run_trial(config)
        gc.collect()
        enabled, thresholds = gc.isenabled(), gc.get_threshold()
        collections = []

        def count(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        gc.enable()
        gc.set_threshold(700, 10, 10)
        gc.callbacks.append(count)
        try:
            run_trial(config)
        finally:
            gc.callbacks.remove(count)
            gc.set_threshold(*thresholds)
            if not enabled:
                gc.disable()
        assert len(collections) <= 2, collections

    @pytest.mark.parametrize(
        "steps",
        [1, simulation.BLOCK_STEPS - 1, simulation.BLOCK_STEPS, simulation.BLOCK_STEPS + 1,
         2 * simulation.BLOCK_STEPS + 3],
    )
    def test_blocks_record_what_one_list_records(self, steps, monkeypatch):
        config = line_config(d0=40.0, chi0=1.0, max_time=(steps - 0.9) * 0.01)
        self.assert_blocks_record_what_one_list_records(config, steps, monkeypatch)

    def test_blocks_record_a_converged_stop(self, monkeypatch):
        config = benchmark_scenario()
        steps = len(run_trial(config)[0])
        assert steps > 2 * simulation.BLOCK_STEPS
        metrics = self.assert_blocks_record_what_one_list_records(config, steps, monkeypatch)
        assert metrics.converged

    def test_blocks_record_a_failure_stop(self, monkeypatch):
        # The vehicle state turns NaN after BLOCK_STEPS + 4 steps.
        steps = simulation.BLOCK_STEPS + 4
        calls = []
        real_step = simulation.step_vehicle

        def step_to_nan(state, *args):
            calls.append(None)
            if len(calls) == steps:
                return (math.nan, state[1], state[2])
            return real_step(state, *args)

        monkeypatch.setattr(simulation, "step_vehicle", step_to_nan)
        config = line_config(d0=40.0, chi0=1.0, max_time=30.0)
        metrics = self.assert_blocks_record_what_one_list_records(
            config, steps, monkeypatch, reset=calls.clear
        )
        assert metrics.failure_reason.startswith("non-finite state")

    @staticmethod
    def assert_blocks_record_what_one_list_records(config, steps, monkeypatch, reset=None):
        traj, metrics = run_trial(config)
        assert len(traj) == steps
        # Blocks longer than the trial: every step stays in the one list.
        monkeypatch.setattr(simulation, "BLOCK_STEPS", 10 * steps)
        if reset is not None:
            reset()
        whole, whole_metrics = run_trial(config)
        assert repr(metrics) == repr(whole_metrics)
        assert traj.dt == whole.dt
        for name in Trajectory.__dataclass_fields__:
            if name == "dt":
                continue
            got, want = getattr(traj, name), getattr(whole, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        return metrics

    def test_recording_memory_is_bounded_by_the_arrays(self):
        # A step's nine channels take 65 B as arrays (eight float64 and an
        # int8 phase), and compute_metrics' temporaries about 41 B beside
        # them; holding every float64 block beside the channels peaked near
        # 145 B a step, and one flat list of Python floats held to the end
        # near 410 B.
        config = line_config(d0=40.0, chi0=1.0, max_time=200.0)
        run_trial(config)
        tracemalloc.start()
        try:
            traj, _ = run_trial(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj) == 20_001
        assert peak / len(traj) < 125.0, peak / len(traj)

    def test_dt_refinement_stability(self):
        coarse = benchmark_scenario()
        fine = benchmark_scenario(dt=0.005)
        _, m1 = run_trial(coarse)
        _, m2 = run_trial(fine)
        assert m1.t_conv == pytest.approx(m2.t_conv, rel=0.02)
        assert m1.d_rms == pytest.approx(m2.d_rms, rel=0.01)


class TestComputeMetrics:
    def test_exponential_decay_reaching_time(self):
        dt = 0.001
        t = np.arange(0.0, 8.0, dt)
        d = 10.0 * np.exp(-t)
        traj = synthetic_trajectory(dt, d)
        cfg = line_config(d_threshold=1.0, align_threshold=0.2, dwell=5.0, dt=dt)
        metrics = compute_metrics(traj, cfg)
        assert metrics.converged
        assert metrics.t_conv == pytest.approx(math.log(10.0), abs=2 * dt)

    def test_dwell_requires_full_window(self):
        dt = 0.01
        t = np.arange(0.0, 3.0, dt)
        d = np.where((t > 1.0) & (t < 1.5), 0.0, 50.0)  # only a 0.5 s dip
        traj = synthetic_trajectory(dt, d)
        cfg = line_config(d_threshold=1.0, dwell=1.0, dt=dt)
        metrics = compute_metrics(traj, cfg)
        assert not metrics.converged
        assert math.isnan(metrics.t_conv)

    def test_alignment_required(self):
        dt = 0.01
        t = np.arange(0.0, 10.0, dt)
        d = np.zeros_like(t)
        chi = np.full_like(t, 0.5)  # misaligned by 0.5 rad
        traj = synthetic_trajectory(dt, d, chi=chi)
        cfg = line_config(d_threshold=1.0, align_threshold=0.2, dwell=1.0, dt=dt)
        assert not compute_metrics(traj, cfg).converged

    def test_constant_turn_rate_statistics(self):
        dt = 0.01
        t = np.arange(0.0, 2.0, dt)
        traj = synthetic_trajectory(dt, np.zeros_like(t), chi_dot=np.full_like(t, -0.3))
        cfg = line_config(dt=dt)
        metrics = compute_metrics(traj, cfg)
        assert metrics.chi_dot_rms == pytest.approx(0.3, abs=1e-12)
        assert metrics.chi_dot_max == pytest.approx(0.3, abs=1e-12)

    def test_window_and_t_conv_use_the_trajectory_interval(self):
        # 50 converged samples 0.1 s apart hold a 1 s dwell from t = 0,
        # whatever dt the config names.
        traj = synthetic_trajectory(0.1, np.zeros(50))
        for dt in (0.1, 0.01):
            assert compute_metrics(traj, line_config(dt=dt, dwell=1.0)).t_conv == 0.0

    def test_rms_relation(self):
        cfg = benchmark_scenario(max_time=30.0, stop_when_converged=False)
        _, metrics = run_trial(cfg)
        assert metrics.chi_dot_rms <= metrics.chi_dot_max
        assert metrics.d_rms >= 0.0
        assert metrics.t_conv <= cfg.max_time


class TestChatteringIndex:
    def test_constant_sign_is_zero(self):
        dt = 0.01
        t = np.arange(0.0, 3.0, dt)
        traj = synthetic_trajectory(dt, np.zeros_like(t), chi_dot=np.ones_like(t))
        assert chattering_index(traj) == 0.0

    def test_rounding_noise_is_no_sign_change(self):
        # An on-path start can record a turn rate of rounding size before the
        # real one; rotating the scenario flips that rate's sign.
        dt = 0.01
        t = np.arange(0.0, 3.0, dt)
        for first in (-2.2e-14, 2.2e-14):
            chi_dot = np.concatenate(([first], np.full(len(t) - 1, 0.0125)))
            traj = synthetic_trajectory(dt, np.zeros_like(t), chi_dot=chi_dot)
            assert chattering_index(traj) == 0.0

    def test_alternating_sign_counts_per_window(self):
        dt = 0.01
        t = np.arange(0.0, 3.0, dt)
        chi_dot = np.where(np.arange(len(t)) % 2 == 0, 1.0, -1.0)
        traj = synthetic_trajectory(dt, np.zeros_like(t), chi_dot=chi_dot)
        assert chattering_index(traj) == pytest.approx(100.0, abs=2.0)

    def test_windows_centered_on_transitions(self):
        dt = 0.01
        t = np.arange(0.0, 4.0, dt)
        n = len(t)
        phase = np.ones(n, dtype=np.int8)
        phase[n // 2 :] = 2
        chi_dot = np.ones(n)
        # sign flips far from the transition are not counted
        chi_dot[20:30] = np.where(np.arange(10) % 2 == 0, 1.0, -1.0)
        traj = synthetic_trajectory(dt, np.zeros(n), chi_dot=chi_dot, phase=phase)
        assert chattering_index(traj) == 0.0

    def test_window_must_exceed_dt(self):
        dt = 1.0
        t = np.arange(0.0, 3.0, dt)
        traj = synthetic_trajectory(dt, np.zeros_like(t))
        with pytest.raises(ValueError):
            chattering_index(traj)

    @staticmethod
    def chattering_by_loop(traj):
        """The chattering index as a loop over the transitions and a slice
        sum per window, as it was written before one running count."""
        n = len(traj)
        if n < 2:
            return 0.0
        dt = float(traj.t[1] - traj.t[0])
        rate = np.where(np.abs(traj.chi_dot) < 1e-9, 0.0, traj.chi_dot)
        changes = (rate[:-1] * rate[1:] < 0.0).astype(np.int64)
        half = int(round(0.5 * 1.0 / dt))
        transitions = np.nonzero(np.diff(traj.phase) != 0)[0] + 1
        if transitions.size:
            best = 0
            for idx in transitions:
                lo = max(int(idx) - half, 0)
                hi = min(int(idx) + half, n - 1)
                best = max(best, int(np.sum(changes[lo:hi])))
            return best / 1.0
        span = min(2 * half, n - 1)
        csum = np.concatenate(([0], np.cumsum(changes)))
        window_counts = csum[span:] - csum[: len(csum) - span]
        return float(np.max(window_counts)) / 1.0

    @staticmethod
    def t_conv_by_cumsum(traj, cfg):
        """The reaching time from one cumsum with its first window handled
        apart, as it was written before one running count."""
        need = int(round(cfg.dwell / cfg.dt))
        ok = (np.abs(traj.d) <= cfg.d_threshold) & (
            np.abs(wrap_angle_array(traj.chi - traj.chi_p)) <= cfg.align_threshold
        )
        n = len(ok)
        if n > need:
            window = np.cumsum(ok)
            window_sum = window[need:].astype(np.int64)
            window_sum[1:] -= window[: n - need - 1]
            hits = np.nonzero(window_sum == need + 1)[0]
            if hits.size:
                return float(traj.t[hits[0]])
        return math.nan

    @pytest.mark.parametrize("n", [2, 3, 7, 99, 100, 101, 102, 250])
    @pytest.mark.parametrize("where", ["none", "first", "last", "both", "random"])
    def test_window_counts_match_loop_formulas(self, n, where):
        # dt = 0.01 s: half = 50 samples, so n <= 2 half covers a window
        # longer than the trajectory; the dwell of need = 7 samples puts n = 7
        # and n = 8 at its edge.
        rng = np.random.default_rng(n)
        dt = 0.01
        t = np.arange(n) * dt
        phase = np.zeros(n, dtype=np.int8)
        if where in ("first", "both"):
            phase[1:] = 1
        if where in ("last", "both"):
            phase[n - 1] = 2
        if where == "random":
            phase = rng.integers(1, 4, size=n).astype(np.int8)
        for trial in range(20):
            chi_dot = rng.choice([-1.0, 0.0, 1e-12, 1.0], size=n)
            d = np.where(rng.random(n) < 0.9, 0.0, 50.0)
            traj = synthetic_trajectory(dt, d, chi_dot=chi_dot, phase=phase)
            assert chattering_index(traj) == self.chattering_by_loop(traj)
            for need in (7, n - 1, n, n + 1):
                cfg = line_config(d_threshold=1.0, dwell=need * dt, dt=dt)
                expected = self.t_conv_by_cumsum(traj, cfg)
                metrics = compute_metrics(traj, cfg)
                assert metrics.converged == (not math.isnan(expected))
                t_conv = metrics.t_conv
                assert t_conv == expected or (math.isnan(t_conv) and math.isnan(expected))

    def test_compute_metrics_scores_two_samples_alike(self):
        # One turn-rate sign change between two samples: 1 per 1 s window.
        traj = synthetic_trajectory(0.01, np.zeros(2), chi_dot=[0.5, -0.5])
        metrics = compute_metrics(traj, line_config())
        assert metrics.chattering_index == chattering_index(traj) == 1.0


class TestBoxStats:
    def test_quartiles_equal_numpy_percentile_to_the_bit(self):
        rng = np.random.default_rng(2024)
        samples = [[3.5], [2.0, -1.0], [4.0, 4.0, 4.0], [1.0, 2.0, 2.0, 2.0, 7.0]]
        for n in range(1, 41):
            samples.append(rng.normal(10.0, 5.0, size=n).tolist())
            samples.append(rng.integers(0, 4, size=n).astype(float).tolist())  # ties
        for values in samples:
            stats = BoxStats.from_values(values)
            quartiles = np.percentile(np.asarray(values), [25.0, 50.0, 75.0]).tolist()
            assert [stats.q1, stats.median, stats.q3] == quartiles, values


class TestMonteCarlo:
    def test_single_trial_summary_matches_trial(self):
        base = benchmark_scenario()
        summary = monte_carlo(base, n_trials=1, master_seed=7, laws=("switched",), workers=1)
        m = summary.trials["switched"][0]
        s = summary.stats[("switched", "d_rms")]
        assert s.count == 1
        assert s.minimum == s.maximum == s.mean == pytest.approx(m.d_rms)
        if m.converged:
            assert summary.stats[("switched", "t_conv")].median == pytest.approx(m.t_conv)

    def test_same_seed_identical(self):
        base = benchmark_scenario()
        s1 = monte_carlo(base, 3, 99, laws=("switched", "nlgl"), workers=1)
        s2 = monte_carlo(base, 3, 99, laws=("switched", "nlgl"), workers=1)
        assert s1.stats == s2.stats
        assert s1.n_converged == s2.n_converged

    def test_parallel_matches_serial(self):
        base = benchmark_scenario()
        s1 = monte_carlo(base, 4, 123, laws=("switched",), workers=1)
        s2 = monte_carlo(base, 4, 123, laws=("switched",), workers=2)
        assert s1.stats == s2.stats

    def test_worker_counts_return_equal_trials(self):
        # Trial by trial, not only the statistics; nlgl's failed trials carry
        # a NaN t_conv, which repr compares exactly.  At master seed 5 every
        # nlgl trial stops at step one (|d0| > L1); at NLGL_FLIES_SEED one
        # flies to convergence, so its look-ahead runs in a worker too.
        base = benchmark_scenario()
        laws = ("switched", "nlgl")
        for master_seed in (5, NLGL_FLIES_SEED):
            s1 = monte_carlo(base, 3, master_seed, laws=laws, workers=1)
            s2 = monte_carlo(base, 3, master_seed, laws=laws, workers=2)
            for law in laws:
                assert len(s1.trials[law]) == 3
                assert list(map(repr, s1.trials[law])) == list(map(repr, s2.trials[law]))
            flew = [m.failure_reason is None for m in s1.trials["nlgl"]]
            assert any(flew) == (master_seed == NLGL_FLIES_SEED)

    def test_nlgl_failures_counted_and_excluded(self):
        base = benchmark_scenario()
        summary = monte_carlo(base, 6, 11, laws=("nlgl",), workers=1)
        n_conv = summary.n_converged["nlgl"]
        assert n_conv < 6  # offsets 100..200 m mostly exceed L1 = 110 m
        assert summary.stats[("nlgl", "t_conv")].count == n_conv

    def test_validation(self):
        base = benchmark_scenario()
        with pytest.raises(ValueError):
            monte_carlo(base, 0, 1)
        with pytest.raises(ValueError):
            monte_carlo(base, 1, 1, laws=("bogus",))
        with pytest.raises(ValueError, match="'plos' is selected twice"):
            monte_carlo(base, 1, 1, laws=("plos", "switched", "plos"), workers=1)

    def test_pool_has_no_more_workers_than_jobs(self, monkeypatch):
        # A fork-started pool starts max_workers processes with its first
        # job.  The stand-in records the size and maps in this process.
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        base = benchmark_scenario()
        laws = ("switched", "plos")
        pooled = monte_carlo(base, 1, 3, laws=laws, workers=64)
        assert sizes == [2]
        serial = monte_carlo(base, 1, 3, laws=laws, workers=1)
        assert sizes == [2]
        assert pooled.stats == serial.stats
        for law in laws:
            assert list(map(repr, pooled.trials[law])) == list(map(repr, serial.trials[law]))

    @pytest.mark.parametrize("workers", [0, -1, -2])
    def test_worker_count_below_one_rejected_before_trials(self, monkeypatch, workers):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial started before the worker count was checked")

        monkeypatch.setattr(simulation, "_mc_job", no_trials)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_trials)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            monte_carlo(benchmark_scenario(), 2, 0, workers=workers)

    @pytest.mark.parametrize("n_trials", [0, simulation.MAX_TRIALS + 1])
    def test_trial_count_out_of_range_rejected_before_spawning(self, monkeypatch, n_trials):
        class NoSpawn(np.random.SeedSequence):
            def spawn(self, n_children):
                raise AssertionError("a seed was spawned before the trial count was checked")

        monkeypatch.setattr(np.random, "SeedSequence", NoSpawn)
        with pytest.raises(ValueError, match="n_trials"):
            monte_carlo(benchmark_scenario(), n_trials, 0)

    @pytest.mark.parametrize("parallel", [False, True])
    def test_sampled_wind_above_airspeed_rejected_before_trials(self, monkeypatch, parallel):
        # The default wind is calm, so the base scenario itself is valid; every
        # campaign trial draws a wind of up to 3 m/s, above this airspeed.
        base = benchmark_scenario(airspeed=AirspeedSpec(2.5))

        def no_trials(*args, **kwargs):
            raise AssertionError("a trial started before the scenario was checked")

        monkeypatch.setattr(simulation, "_mc_job", no_trials)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_trials)
        with pytest.raises(ValueError, match="must be below the airspeed"):
            monte_carlo(base, 2, 0, workers=2 if parallel else 1)


class TestCheckLaws:
    def test_accepts_distinct_known_laws(self):
        check_laws(GUIDANCE_LAWS)
        check_laws(["plos"])

    def test_rejects_empty_selection(self):
        with pytest.raises(ValueError, match="at least one guidance law"):
            check_laws(())

    def test_rejects_unknown_law_listing_the_choices(self):
        with pytest.raises(ValueError) as info:
            check_laws(["switched", "wizardry"])
        message = str(info.value)
        assert "unknown guidance law 'wizardry'" in message
        assert all(law in message for law in GUIDANCE_LAWS)

    def test_rejects_repeated_law(self):
        with pytest.raises(ValueError, match="'plos' is selected twice"):
            check_laws(["plos", "switched", "plos"])

    def test_scenario_config_uses_it(self):
        with pytest.raises(ValueError, match="choose from switched"):
            line_config(law="wizardry")


def metric_values(metrics):
    names = ("t_conv", "d_rms", "chi_dot_rms", "chi_dot_max", "chattering_index")
    return [getattr(metrics, name) for name in names]


# Start offsets (m), courses (rad) and winds (m/s) within the nlgl look-ahead.
INVARIANCE_STARTS = [(60.0, 0.4, (1.0, 2.0)), (-60.0, 1.0, (2.0, 0.5)), (25.0, -2.0, (0.0, -1.5))]


class TestInvariance:
    """The laws see the path only through its frame, so a mirrored or rigidly
    moved scenario flies the mirrored or moved trial."""

    @pytest.mark.parametrize("law", GUIDANCE_LAWS)
    def test_mirror_flips_d_and_keeps_metrics(self, law):
        for d0, chi0, (w_x, w_y) in INVARIANCE_STARTS:
            base = line_config(
                law=law, d0=d0, chi0=chi0, wind=WindModel(w_x, w_y),
                max_time=40.0, stop_when_converged=True,
            )
            mirror = replace(base, d0=-d0, chi0=-chi0, wind=WindModel(w_x, -w_y))
            traj, metrics = run_trial(base)
            traj_m, metrics_m = run_trial(mirror)
            assert metrics.converged
            assert np.array_equal(traj_m.d, -traj.d)
            assert metrics_m == metrics

    @pytest.mark.parametrize("law", GUIDANCE_LAWS)
    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(
        d0=st.floats(-60.0, 60.0),
        chi0=st.floats(-1.2, 1.2),
        w_x=st.floats(-2.0, 2.0),
        w_y=st.floats(-2.0, 2.0),
    )
    def test_mirror_flips_d_and_keeps_metrics_drawn(self, law, d0, chi0, w_x, w_y):
        # Drawn starts within nlgl's look-ahead, heading within 1.2 rad of the
        # path, so nlgl's loop back to the path stays inside L1.
        base = line_config(
            law=law, d0=d0, chi0=chi0, wind=WindModel(w_x, w_y),
            max_time=40.0, stop_when_converged=True,
        )
        mirror = replace(base, d0=-d0, chi0=-chi0, wind=WindModel(w_x, -w_y))
        traj, metrics = run_trial(base)
        traj_m, metrics_m = run_trial(mirror)
        assert metrics.converged
        assert np.array_equal(traj_m.d, -traj.d)
        assert metrics_m == metrics

    @staticmethod
    def assert_rigid_motion_keeps_metrics(
        law, kind, theta, t_x, t_y, d0, chi0, w_x, w_y, abs_tol=1e-12
    ):
        """Rotate by ``theta`` and translate by (t_x, t_y) a trial that starts
        ``d0`` off the line or the 300 m circle at course ``chi0``."""
        c, s = math.cos(theta), math.sin(theta)
        if kind == "line":
            path, moved_path = LinePath(0, 0, 0), LinePath(t_x, t_y, theta)
            x0, y0 = 0.0, d0
        else:
            path, moved_path = CirclePath(0, 0, 300.0), CirclePath(t_x, t_y, 300.0)
            x0, y0 = 300.0 + d0, 0.0
        base = line_config(
            path=path, law=law, x_init=x0, y_init=y0, chi0=chi0,
            wind=WindModel(w_x, w_y), max_time=40.0, stop_when_converged=True,
        )
        wind = WindModel(c * w_x - s * w_y, s * w_x + c * w_y)
        motion = replace(
            base, path=moved_path, chi0=chi0 + theta, wind=wind,
            x_init=c * x0 - s * y0 + t_x, y_init=s * x0 + c * y0 + t_y,
        )
        traj, metrics = run_trial(base)
        traj_r, metrics_r = run_trial(motion)
        assert metrics.converged and metrics_r.converged
        assert len(traj_r) == len(traj)
        expected = pytest.approx(metric_values(metrics), rel=1e-9, abs=abs_tol)
        assert metric_values(metrics_r) == expected

    @pytest.mark.parametrize("law", GUIDANCE_LAWS)
    @pytest.mark.parametrize("kind", ["line", "circle"])
    def test_rigid_motion_keeps_metrics(self, law, kind):
        for d0, chi0, (w_x, w_y) in INVARIANCE_STARTS:
            self.assert_rigid_motion_keeps_metrics(law, kind, 2.3, 250.0, -120.0, d0, chi0, w_x, w_y)

    @pytest.mark.parametrize("law", GUIDANCE_LAWS)
    @pytest.mark.parametrize("kind", ["line", "circle"])
    @settings(derandomize=True, max_examples=5, deadline=None)
    @given(
        theta=st.floats(-math.pi, math.pi),
        t_x=st.floats(-1000.0, 1000.0),
        t_y=st.floats(-1000.0, 1000.0),
        d0=st.floats(-60.0, 60.0),
        chi_offset=st.floats(-1.2, 1.2),
        w_x=st.floats(-2.0, 2.0),
        w_y=st.floats(-2.0, 2.0),
    )
    def test_rigid_motion_keeps_metrics_drawn(
        self, law, kind, theta, t_x, t_y, d0, chi_offset, w_x, w_y
    ):
        # Drawn starts within nlgl's look-ahead, heading within 1.2 rad of the
        # path tangent (0 on the line, pi/2 where the circle starts).  Moved
        # coordinates reach 1.4 km, where one rounding is about 1e-13 m, and
        # an on-path start has metrics made of that noise: 1e-9 absolute.
        chi0 = chi_offset + (0.0 if kind == "line" else 0.5 * math.pi)
        self.assert_rigid_motion_keeps_metrics(
            law, kind, theta, t_x, t_y, d0, chi0, w_x, w_y, abs_tol=1e-9
        )


class TestScenarioConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            line_config(dt=-0.01)
        with pytest.raises(ValueError):
            line_config(law="magic")
        with pytest.raises(ValueError):
            line_config(d_threshold=0.0)
        with pytest.raises(ValueError, match="s0"):
            line_config(path=LinePath(0, 0, 0, s_min=0.0, s_max=100.0), s0=150.0)
        with pytest.raises(ValueError, match="x_init"):
            line_config(x_init=500.0)
        with pytest.raises(ValueError, match="y_init"):
            line_config(y_init=500.0)
        with pytest.raises(ValueError, match="start"):
            line_config(path=LinePath(1e308, 0, 0, s_min=-1e308, s_max=1e308), s0=1e308)

    def test_benchmark_scenario_builds_its_sinusoid_only_without_a_path(self, monkeypatch):
        def no_sinusoid(*args):
            raise AssertionError("benchmark_scenario built its default sinusoid")

        monkeypatch.setattr(simulation, "SinusoidPath", no_sinusoid)
        path = LinePath()
        assert benchmark_scenario("plos", path=path).path is path

    def test_guidance_params_threaded_through(self):
        cfg = line_config(guidance=GuidanceParams(eta=1.0))
        assert cfg.guidance.eta == 1.0
        cfg2 = replace(cfg, law="plos")
        assert cfg2.law == "plos"


def test_names_the_bench_tracer_wraps_exist():
    # bench/tracer.py times the layers by wrapping these names; one deleted
    # or moved would break only the traced benchmark runs, not these tests.
    tracer_file = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    if not tracer_file.is_file():
        pytest.skip("bench/tracer.py is absent")
    spec = importlib.util.spec_from_file_location("bench_tracer", tracer_file)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr, _ in tracer.MODULE_TARGETS:
        assert hasattr(module, attr), f"{module.__name__}.{attr}"
    for method in tracer.PATH_METHODS:
        assert method in ReferencePath.__dict__, method
