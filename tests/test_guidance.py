import math

import numpy as np
import pytest

from numeric_oracles import peak_field_rate_numeric
from vfpath.angles import wrap_angle
from vfpath.guidance import (
    GuidanceParams,
    GuidancePhase,
    case1_convergence_time,
    commanded_course,
    sat,
    validate_curvature_constraint,
)
from vfpath.paths import LinePath, PathFrame
from vfpath.simulation import ScenarioConfig, run_trial
from vfpath.vehicle import VehicleState, WindModel

P = GuidanceParams()  # defaults: chi_inf=pi/2, k1=0.01, d_s=10, eta=pi/4, n=3, m=5


def step(d, chi, chi_p=0.0, prev_phase=None, params=P):
    """One switched-law step at cross-track error d and course chi."""
    frame = PathFrame(0.0, 0.0, 0.0, chi_p, d)
    return commanded_course(chi, frame, 0.0, params, prev_phase, 15.0)


def field(d, chi_p=0.0, params=P):
    """The distance-only field chi_d(d): the desired course of a step whose
    course is within pi/4 of it, so never CASE1."""
    return step(d, chi_p - math.copysign(math.pi / 4.0, d), chi_p, params=params)[1]


def reduced_reaching_oracle(chi0: float, params: GuidanceParams, threshold: float) -> float:
    """Integrate the reduced course-error dynamics to the threshold crossing.

    Small-step RK4 on x_dot = -eta * x**(n/m); independent of the closed-loop
    simulator.
    """
    exp = params.n / params.m
    x, t, dt = abs(chi0), 0.0, 1e-4

    def f(v):
        return -params.eta * max(v, 0.0) ** exp

    while x > threshold:
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        x += dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        if t > 100.0:
            raise RuntimeError("oracle did not converge")
    return t


class TestParams:
    def test_k3_tied_to_k1_and_ds(self):
        assert P.k3 == pytest.approx(1e-4, rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=2, m=5),
            dict(n=3, m=9),  # not co-prime
            dict(n=5, m=3),
            dict(n=3, m=6),
            dict(chi_inf=0.0),
            dict(chi_inf=2.0),
            dict(k1=-0.01),
            dict(eta=0.0),
            dict(sigma=-1.0),
            dict(epsilon=0.0),
            dict(delta_hys=-0.1),
            dict(reaching="bang"),
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GuidanceParams(**kwargs)


class TestSat:
    def test_values(self):
        assert sat(0.5) == 0.5
        assert sat(-3.0) == -1.0
        assert sat(1.0) == 1.0
        assert sat(-1.0) == -1.0


class TestDesiredCourseDistanceOnly:
    def test_on_path_gives_tangent(self):
        assert field(0.0, 0.4) == pytest.approx(0.4)

    def test_far_field_asymptote(self):
        chi_d = field(1e9)
        assert chi_d == pytest.approx(-math.pi / 2.0, abs=1e-6)

    def test_branch_continuity_at_switch(self):
        # both branches evaluate to chi_p - atan(0.1) at d = d_s
        lo = field(P.d_s - 1e-9)
        hi = field(P.d_s + 1e-9)
        assert abs(lo - hi) < 1e-6
        assert lo == pytest.approx(-math.atan(0.1), abs=1e-9)

    def test_odd_symmetry(self):
        for d in (3.0, 10.0, 50.0, 400.0):
            plus = field(d)
            minus = field(-d)
            assert plus == pytest.approx(-minus, abs=1e-12)

    def test_switch_distance_takes_the_cubic_branch(self):
        # At |d| = d_s exactly the field, the gain and the phase all come
        # from the cubic branch; here the linear branch differs in the last bit.
        p = GuidanceParams(k1=0.013, d_s=13.0)
        out = step(13.0, -0.5, params=p)
        scale = p.chi_inf * (2.0 / math.pi)
        cubic = wrap_angle(0.0 - scale * math.atan(p.k3 * 13.0**3))
        linear = wrap_angle(0.0 - scale * math.atan(p.k1 * 13.0))
        assert cubic != linear
        assert out[1] == cubic
        assert out[2] is GuidancePhase.CASE2


class TestClassifyPhase:
    def test_far_and_misaligned_is_case1(self):
        chi_d = field(200.0)
        assert step(200.0, chi_d + 3.0, prev_phase=GuidancePhase.CASE2)[2] is GuidancePhase.CASE1

    def test_inside_switch_distance_is_case3(self):
        assert step(5.0, 2.0)[2] is GuidancePhase.CASE3

    def test_hysteresis_exit_before_pi_over_two(self):
        # error pi/2 + 0.04 with margin 0.05: CASE1 exits to CASE2
        chi = field(200.0) + math.pi / 2.0 + 0.04
        phase = step(200.0, chi, prev_phase=GuidancePhase.CASE1)[2]
        assert phase is GuidancePhase.CASE2
        # and the very next step does not re-enter CASE1
        again = step(200.0, chi, prev_phase=phase)[2]
        assert again is GuidancePhase.CASE2

    def test_first_step_has_no_margin(self):
        chi = field(200.0) + math.pi / 2.0 + 0.01
        assert step(200.0, chi)[2] is GuidancePhase.CASE1


class TestDesiredCourse:
    def test_case1_offset(self):
        chi = 2.5  # far off the field direction
        chi_d, phase = step(200.0, chi)[1:3]
        assert phase is GuidancePhase.CASE1
        expected = -math.atan(800.0) + math.pi / 2.0
        assert chi_d == pytest.approx(expected, abs=1e-12)
        assert chi_d == pytest.approx(0.00125, abs=1e-5)
        # Mirrored across the path: the offset turns the other way.
        chi_d, phase = step(-200.0, -chi)[1:3]
        assert phase is GuidancePhase.CASE1
        assert chi_d == pytest.approx(-expected, abs=1e-12)

    def test_case3_on_path(self):
        chi_d, phase = step(0.0, 0.0)[1:3]
        assert phase is GuidancePhase.CASE3
        assert chi_d == 0.0

    def test_case2_odd_symmetry(self):
        plus, ph_p = step(200.0, -1.5)[1:3]
        minus, ph_m = step(-200.0, 1.5)[1:3]
        assert ph_p is GuidancePhase.CASE2 and ph_m is GuidancePhase.CASE2
        assert plus == pytest.approx(-math.atan(800.0), abs=1e-12)
        assert minus == pytest.approx(-plus, abs=1e-12)


class TestCommandedCourse:
    def test_on_path_equilibrium(self):
        line = LinePath(0, 0, 0)
        frame = line.closest_point((5.0, 0.0))
        state = VehicleState(5.0, 0.0, 0.0)
        out = commanded_course(state.chi, frame, 0.0, P, None, 15.0)
        assert out[2] is GuidancePhase.CASE3
        assert wrap_angle(state.chi - out[1]) == 0.0
        assert out[0] == pytest.approx(0.0, abs=1e-15)

    def test_case1_command_formula(self):
        line = LinePath(0, 0, 0)
        frame = line.closest_point((0.0, 200.0))  # d = +200
        chi = 2.5
        state = VehicleState(0.0, 200.0, chi)
        v_g = 15.0
        out = commanded_course(state.chi, frame, 0.0, P, None, v_g)
        assert out[2] is GuidancePhase.CASE1
        d = 200.0
        k3 = P.k3
        gain = 3.0 * k3 * d * d / (1.0 + (k3 * d**3) ** 2)
        chi_tilde = wrap_angle(chi - out[1])
        expected = chi + (
            0.0
            - gain * v_g * math.sin(chi - 0.0)
            - 1.0 * P.eta * abs(chi_tilde) ** 0.6
        ) / P.alpha
        assert out[0] == pytest.approx(wrap_angle(expected), abs=1e-12)

    def test_case3_boundary_layer_term(self):
        # chi_tilde = eps/2 inside the boundary layer: reaching term is
        # -(beta/alpha) * 1/2 with beta = sigma / (1 + eps/2)
        line = LinePath(0, 0, 0)
        frame = line.closest_point((5.0, 0.0))  # d = 0
        chi = P.epsilon / 2.0
        state = VehicleState(5.0, 0.0, chi)
        out = commanded_course(state.chi, frame, 0.0, P, GuidancePhase.CASE3, 15.0)
        assert out[2] is GuidancePhase.CASE3
        beta = P.sigma / (1.0 + P.epsilon / 2.0)
        ff = -P.k1 / (1.0 + 0.0) * 15.0 * math.sin(chi)
        expected = chi + (ff - beta * 0.5) / P.alpha
        assert out[0] == pytest.approx(expected, abs=1e-12)

    def test_rejects_bad_ground_speed(self):
        line = LinePath(0, 0, 0)
        frame = line.closest_point((0.0, 5.0))
        with pytest.raises(ValueError):
            commanded_course(0, frame, 0.0, P, None, 0.0)


class TestConvergenceTime:
    def test_zero_input(self):
        assert case1_convergence_time(0.0, P) == 0.0

    def test_unit_error(self):
        assert case1_convergence_time(1.0, P) == pytest.approx(10.0 / math.pi, rel=1e-12)

    def test_quarter_error_matches_ode_oracle(self):
        t_formula = case1_convergence_time(0.25, P)
        assert t_formula == pytest.approx((10.0 / math.pi) * 0.25**0.4, rel=1e-12)
        # the reduced dynamics reach a tiny threshold just before t_formula
        t_oracle = reduced_reaching_oracle(0.25, P, 1e-8)
        assert t_oracle < t_formula
        assert t_formula - t_oracle < 0.05 * t_formula


class TestCurvatureConstraint:
    def test_branch_peaks_match_numeric_maximization(self):
        report = validate_curvature_constraint(P, 0.1 / 15.0, 0.7 / 15.0)
        num_k1 = peak_field_rate_numeric(P, 15.0, "k1")
        num_k3 = peak_field_rate_numeric(P, 15.0, "k3")
        assert report.k1_curvature * 15.0 == pytest.approx(num_k1, abs=1e-9)
        assert report.k3_curvature * 15.0 == pytest.approx(num_k3, abs=1e-9)

    @pytest.mark.parametrize("chi_inf", [0.2, 0.7, 1.2, 1.55, math.pi / 2.0])
    def test_closed_forms_bound_the_peaks(self, chi_inf):
        # Exact at chi_inf = pi/2, upper bounds below it.
        p = GuidanceParams(chi_inf=chi_inf)
        report = validate_curvature_constraint(p, 0.1 / 15.0, 0.7 / 15.0)
        assert report.exact == (chi_inf == math.pi / 2.0)
        for branch, curvature in (("k1", report.k1_curvature), ("k3", report.k3_curvature)):
            rate = curvature * 15.0
            numeric = peak_field_rate_numeric(p, 15.0, branch)
            assert numeric <= rate * (1.0 + 1e-12)
            if report.exact:
                assert numeric == pytest.approx(rate, abs=1e-9)

    def test_default_parameters_feasible(self):
        report = validate_curvature_constraint(P, 0.1 / 15.0, 0.7 / 15.0)
        assert report.k1_curvature == pytest.approx(2.0 * 0.01 / (3.0 * math.sqrt(3.0)), rel=1e-12)
        expected_k3 = (2.0 ** (4.0 / 3.0) * 5.0 ** (5.0 / 6.0) / 9.0) * 1e-4 ** (1.0 / 3.0)
        assert report.k3_curvature == pytest.approx(expected_k3, rel=1e-12)
        assert report.lhs == pytest.approx(expected_k3 - 0.1 / 15.0, rel=1e-9)
        assert report.passed
        assert report.margin > 0.0

    def test_aggressive_near_gain_fails(self):
        p = GuidanceParams(k1=0.2, d_s=10.0)
        report = validate_curvature_constraint(p, 0.1 / 15.0, 0.7 / 15.0)
        assert report.k1_curvature == pytest.approx(2.0 * 0.2 / (3.0 * math.sqrt(3.0)), rel=1e-12)
        assert not report.passed

    def test_path_sharper_than_vehicle_fails(self):
        # A 10 m circle at 15 m/s: the path's curvature 0.1 1/m is above
        # kappa_max, though the left side alone is negative.
        kappa_max = 0.7 / 15.0
        report = validate_curvature_constraint(P, 1.5 / 15.0, kappa_max)
        assert report.lhs < kappa_max
        assert not report.path_fits
        assert not report.passed
        # A path exactly as sharp as the limit still fits.
        edge = validate_curvature_constraint(P, kappa_max, kappa_max)
        assert edge.path_fits and edge.passed

    def test_input_validation(self):
        with pytest.raises(ValueError):
            validate_curvature_constraint(P, -0.1 / 15.0, 0.05)
        with pytest.raises(ValueError):
            validate_curvature_constraint(P, 0.1 / 15.0, 0.0)
        # zero path curvature (straight line) is legitimate
        assert validate_curvature_constraint(P, 0.0, 0.05).lhs > 0.0


class TestFieldProperties:
    def test_random_parameter_sweep(self):
        rng = np.random.default_rng(123)
        n = 10_000
        k1 = 10.0 ** rng.uniform(-4.0, 0.0, n)
        d_s = 10.0 ** rng.uniform(-1.0, 3.0, n)
        chi_inf = rng.uniform(0.05, math.pi / 2.0, n)
        k3 = k1 / d_s**2
        scale = chi_inf * (2.0 / math.pi)

        # continuity at the branch switch
        lo = scale * np.arctan(k1 * (d_s - 1e-9))
        hi = scale * np.arctan(k3 * (d_s + 1e-9) ** 3)
        assert np.max(np.abs(lo - hi)) < 1e-6

        # range bound on both branches: strictly inside (0, chi_inf) for
        # d > 0 up to float rounding (atan of a huge argument rounds to pi/2)
        d = 10.0 ** rng.uniform(-2.0, 6.0, n)
        inner = np.where(d > d_s, k3 * d**3, k1 * d)
        offset = scale * np.arctan(inner)
        assert np.all(offset <= chi_inf * (1.0 + 1e-15))
        assert np.all(offset > 0.0)

    def test_case1_closed_loop_matches_analytic_profile(self):
        # reduced dynamics: chi_err(t) = (1 - eta (m-n)/m t)^(m/(m-n)) from 1
        params = GuidanceParams(delta_hys=1e-12)
        chi0 = -math.atan(800.0) + math.pi / 2.0 + 1.0
        config = ScenarioConfig(
            path=LinePath(0, 0, 0),
            law="switched",
            guidance=params,
            wind=WindModel(0, 0),
            d0=200.0,
            chi0=chi0,
            dt=0.01,
            max_time=4.0,
            stop_when_converged=False,
        )
        traj, _ = run_trial(config)
        chi_tilde = np.abs(
            (traj.chi - traj.chi_d + math.pi) % (2.0 * math.pi) - math.pi
        )
        t_s = 10.0 / math.pi
        rate = params.eta * (params.m - params.n) / params.m
        analytic = np.maximum(1.0 - rate * traj.t, 0.0) ** (
            params.m / (params.m - params.n)
        )
        mask = (traj.t <= 0.99 * t_s) & (traj.phase == 1)
        assert np.max(np.abs(chi_tilde[mask] - analytic[mask])) < 0.01

    def test_turn_rate_stays_within_feasible_envelope(self):
        # for gains passing the curvature check, the closed-loop turn rate
        # after the initial course transient respects kappa_max*V_g plus the
        # path course rate, with 10% slack
        from vfpath.simulation import benchmark_scenario

        config = benchmark_scenario()
        v_g = config.airspeed.v_a
        kappa_max = 0.7 / v_g
        report = validate_curvature_constraint(config.guidance, 0.1 / v_g, kappa_max)
        assert report.passed
        traj, _ = run_trial(config, seed=0)
        settle = case1_convergence_time(
            abs(traj.chi[0] - traj.chi_d[0]), config.guidance
        )
        after = traj.t > settle
        peak = np.max(np.abs(traj.chi_dot[after]))
        assert peak <= 1.1 * (kappa_max * v_g + 0.1)

    def test_case2_sign_mode_monotone_decrease(self):
        # pure switching term: |chi_tilde| must not increase while in CASE2
        params = GuidanceParams(reaching="sign")
        path = LinePath(0, 0, 0)
        config = ScenarioConfig(
            path=path,
            law="switched",
            guidance=params,
            wind=WindModel(0, 0),
            d0=200.0,
            chi0=-1.4,  # within pi/2 of the field, CASE2 from the start
            dt=0.001,
            max_time=20.0,
            stop_when_converged=False,
        )
        traj, _ = run_trial(config)
        case2 = traj.phase == 2
        chi_tilde = np.abs(
            (traj.chi - traj.chi_d + math.pi) % (2.0 * math.pi) - math.pi
        )
        active = case2 & (chi_tilde > 1e-3)  # above the discrete switching band
        idx = np.nonzero(active)[0]
        runs = np.split(idx, np.nonzero(np.diff(idx) > 1)[0] + 1)
        for run in runs:
            if len(run) > 1:
                assert np.all(np.diff(chi_tilde[run]) <= 1e-9)
