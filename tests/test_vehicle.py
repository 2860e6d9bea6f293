import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vfpath.angles import TAU, wrap_angle_array
from vfpath.vehicle import (
    AirspeedSpec,
    VehicleState,
    WindInfeasibleError,
    WindModel,
    ground_speed,
    step_vehicle,
    turn_rate,
)


def step(state, chi_c, spec, wind, alpha, dt):
    """``step_vehicle`` given its first stage at the state's course, as
    ``run_trial`` gives it."""
    chi = state[2]
    stage = (ground_speed(spec, wind, chi), turn_rate(chi_c, chi, alpha))
    return step_vehicle(state, chi_c, spec, wind, alpha, dt, *stage)


def crab_oracle(v_a: float, wind: WindModel, chi: float) -> float:
    """Solve the air-velocity heading numerically so the ground track is chi."""
    psi = np.linspace(-math.pi, math.pi, 2_000_001)
    gx = v_a * np.cos(psi) + wind.w_x
    gy = v_a * np.sin(psi) + wind.w_y
    err = np.abs(wrap_angle_array(np.arctan2(gy, gx) - chi))
    candidates = np.hypot(gx, gy)
    # of the two headings whose ground track matches chi, the crab solution
    # keeps the ground speed positive and maximal
    near = err < err.min() + 1e-9
    return float(np.max(candidates[near]))


# Odd multiples of pi: fl(k pi) is an exact tie of remainder for small k,
# and k TAU +- pi is one or lies within a few ulps of one.
TIES = st.sampled_from([k * math.pi for k in (-5, -3, -1, 1, 3, 5)]) | st.builds(
    lambda k, sign: k * TAU + sign * math.pi,
    st.integers(-10**6, 10**6),
    st.sampled_from([1.0, -1.0]),
)


class TestWrapAngle:
    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.floats(-1e6, 1e6) | st.sampled_from([TAU, -TAU, -0.0]) | TIES))
    def test_array_matches_scalar_to_the_bit(self, angles):
        # run_trial's streak and compute_metrics must agree on an angle that
        # sits exactly on a threshold.
        wrapped = wrap_angle_array(angles)
        expected = np.array([math.remainder(a, TAU) for a in angles], dtype=float)
        assert wrapped.tobytes() == expected.tobytes()
        assert np.all((-math.pi <= wrapped) & (wrapped <= math.pi))


class TestGroundSpeed:
    def test_no_wind(self):
        spec = AirspeedSpec(15.0)
        for chi in (0.0, 1.0, -2.5):
            assert ground_speed(spec, WindModel(0, 0), chi) == pytest.approx(15.0)

    def test_tailwind_adds(self):
        assert ground_speed(AirspeedSpec(15.0), WindModel(2.0, 0.0), 0.0) == pytest.approx(17.0)

    def test_crosswind_crab(self):
        v = ground_speed(AirspeedSpec(15.0), WindModel(0.0, 3.0), 0.0)
        assert v == pytest.approx(math.sqrt(15.0**2 - 3.0**2), abs=1e-12)

    def test_matches_vector_construction_oracle(self):
        spec = AirspeedSpec(15.0)
        wind = WindModel(-2.1, 1.7)
        for chi in (0.0, 0.9, -2.2):
            v = ground_speed(spec, wind, chi)
            assert v == pytest.approx(crab_oracle(15.0, wind, chi), abs=1e-4)

    def test_excess_wind_rejected(self):
        with pytest.raises(WindInfeasibleError):
            ground_speed(AirspeedSpec(5.0), WindModel(4.0, 4.0), 0.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            AirspeedSpec(0.0)
        with pytest.raises(ValueError):
            WindModel(math.inf, 0.0)


class TestTurnRate:
    def test_zero_error(self):
        assert turn_rate(1.0, 1.0, 1.65) == 0.0

    def test_linear_map(self):
        # 0.4242 rad error at alpha = 1.65 commands ~0.7 rad/s
        assert turn_rate(0.4242, 0.0, 1.65) == pytest.approx(0.7, abs=1e-3)

    def test_wrap_across_pi(self):
        expected = 1.65 * (6.0 - 2.0 * math.pi)
        assert turn_rate(3.0, -3.0, 1.65) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-0.4673, abs=1e-4)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            turn_rate(1.0, 0.0, 0.0)


class TestStep:
    def test_straight_flight_euler(self):
        state = VehicleState(0.0, 0.0, 0.0)
        out = step(state, 0.0, AirspeedSpec(15.0), WindModel(0, 0), 1.65, 1.0)
        assert out == pytest.approx((15.0, 0.0, 0.0))

    def test_initial_turn_rate(self):
        # chi_c - chi = 1 rad commands alpha rad/s at the first instant
        state = VehicleState(0.0, 0.0, 0.0)
        dt = 1e-6
        out = step(state, 1.0, AirspeedSpec(15.0), WindModel(0, 0), 1.65, dt)
        assert out[2] / dt == pytest.approx(1.65, rel=1e-4)

    def test_first_order_response_matches_closed_form(self):
        # chi(t) = chi_c (1 - exp(-alpha t)) for constant command from zero
        spec, wind, alpha, dt = AirspeedSpec(15.0), WindModel(0, 0), 1.65, 0.01
        chi_c = math.pi / 2.0
        state = VehicleState(0.0, 0.0, 0.0)
        n = round(1.0 / dt)
        for _ in range(n):
            state = step(state, chi_c, spec, wind, alpha, dt)
        expected = chi_c * (1.0 - math.exp(-alpha * 1.0))
        assert state[2] == pytest.approx(expected, abs=1e-6)

    def test_time_constant_within_one_percent(self):
        spec, wind, alpha, dt = AirspeedSpec(15.0), WindModel(0, 0), 1.65, 0.001
        state = VehicleState(0.0, 0.0, 0.0)
        t, target = 0.0, 1.0 - math.exp(-1.0)
        while state[2] < target:
            state = step(state, 1.0, spec, wind, alpha, dt)
            t += dt
        assert t == pytest.approx(1.0 / alpha, rel=0.01)

    def test_speed_invariance_on_straight_flight(self):
        spec, wind = AirspeedSpec(15.0), WindModel(1.0, -2.0)
        chi = 0.7
        v_g = ground_speed(spec, wind, chi)
        state = VehicleState(0.0, 0.0, chi)
        out = step(state, chi, spec, wind, 1.65, 0.01)
        step_len = math.hypot(out[0] - state.x, out[1] - state.y)
        assert step_len == pytest.approx(v_g * 0.01, abs=1e-9)

    def test_determinism(self):
        spec, wind = AirspeedSpec(15.0), WindModel(1.2, -0.4)
        runs = []
        for _ in range(2):
            state = VehicleState(0.0, 0.0, 0.3)
            hist = []
            for k in range(500):
                state = step(state, math.sin(0.01 * k), spec, wind, 1.65, 0.01)
                hist.append(state)
            runs.append(hist)
        assert runs[0] == runs[1]

    def test_wrapped_output_and_validation(self):
        state = VehicleState(0.0, 0.0, 3.1)
        out = step(state, -3.1, AirspeedSpec(15.0), WindModel(0, 0), 5.0, 0.2)
        assert -math.pi < out[2] <= math.pi
        # A given first stage skips none of the checks.
        stage = (15.0, 0.0)
        with pytest.raises(ValueError):
            step_vehicle(state, 0.0, AirspeedSpec(15.0), WindModel(0, 0), 1.65, -0.1, *stage)
        with pytest.raises(WindInfeasibleError):
            step_vehicle(state, 0.0, AirspeedSpec(5.0), WindModel(4.0, 4.0), 1.65, 0.1, *stage)
        with pytest.raises(ValueError, match="alpha"):
            step_vehicle(state, 0.0, AirspeedSpec(15.0), WindModel(0, 0), 0.0, 0.1, *stage)
        with pytest.raises(ValueError, match="dt"):
            step_vehicle(state, 0.0, AirspeedSpec(15.0), WindModel(0, 0), 1.65, 0.0, *stage)
