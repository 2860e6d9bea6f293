"""Constant-airspeed planar vehicle with first-order course-tracking dynamics.

State is (x, y, chi) with

    x_dot = V_g cos(chi),  y_dot = V_g sin(chi),  chi_dot = alpha (chi_c - chi)

where chi is the ground-track course.  The airspeed magnitude and the wind
vector are constant; the ground speed V_g is re-solved from the crab-angle
geometry whenever chi changes, so the constant-airspeed constraint is honored
exactly under wind.  Classical RK4 is the one integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .angles import wrap_angle


class WindInfeasibleError(ValueError):
    """Wind speed at or above airspeed: the course cannot be held in all directions."""


@dataclass(frozen=True)
class VehicleState:
    x: float
    y: float
    chi: float


@dataclass(frozen=True)
class WindModel:
    """Constant wind vector (m/s), fixed over a trial."""

    w_x: float = 0.0
    w_y: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.w_x) and math.isfinite(self.w_y)):
            raise ValueError("wind components must be finite")

    @property
    def speed(self) -> float:
        return math.hypot(self.w_x, self.w_y)


@dataclass(frozen=True)
class AirspeedSpec:
    """Constant airspeed magnitude (m/s)."""

    v_a: float

    def __post_init__(self):
        if not (self.v_a > 0.0 and math.isfinite(self.v_a)):
            raise ValueError("airspeed must be positive and finite")


def _check_wind(spec: AirspeedSpec, wind: WindModel) -> None:
    if wind.speed >= spec.v_a:
        raise WindInfeasibleError(
            f"wind speed {wind.speed:.3f} m/s >= airspeed {spec.v_a:.3f} m/s"
        )


def _ground_speed(v_a: float, w_x: float, w_y: float, cos_c: float, sin_c: float) -> float:
    """V_g = sqrt(V_a^2 - W_perp^2) + W_along along the course (cos_c, sin_c)."""
    if w_x == 0.0 and w_y == 0.0:
        return v_a
    w_perp = -w_x * sin_c + w_y * cos_c
    return math.sqrt(v_a * v_a - w_perp * w_perp) + w_x * cos_c + w_y * sin_c


def ground_speed(spec: AirspeedSpec, wind: WindModel, chi: float) -> float:
    """Ground speed while holding course ``chi`` at constant airspeed under wind.

    The air-velocity heading is crabbed so the ground velocity points along
    chi: the crosswind component is cancelled by the airspeed and the rest of
    the airspeed plus the along-track wind make up the ground speed,

        V_g = sqrt(V_a^2 - W_perp^2) + W_along.
    """
    _check_wind(spec, wind)
    return _ground_speed(spec.v_a, wind.w_x, wind.w_y, math.cos(chi), math.sin(chi))


def turn_rate(chi_c: float, chi: float, alpha: float) -> float:
    """Course rate alpha * wrap(chi_c - chi) commanded by the course loop."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    return alpha * wrap_angle(chi_c - chi)


def step_vehicle(
    state: VehicleState,
    chi_c: float,
    spec: AirspeedSpec,
    wind: WindModel,
    alpha: float,
    dt: float,
) -> VehicleState:
    """Integrate the three-state dynamics one classical RK4 step with the
    command held fixed.

    Every stage takes its ground speed from the crab geometry of
    :func:`ground_speed` and its course rate from :func:`turn_rate`, so the
    course difference chi_c - chi is wrapped in each stage.  The returned
    course is wrapped to (-pi, pi].
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    _check_wind(spec, wind)
    v_a, w_x, w_y = spec.v_a, wind.w_x, wind.w_y

    def deriv(chi: float) -> tuple[float, float, float]:
        cos_c, sin_c = math.cos(chi), math.sin(chi)
        v_g = _ground_speed(v_a, w_x, w_y, cos_c, sin_c)
        return (v_g * cos_c, v_g * sin_c, turn_rate(chi_c, chi, alpha))

    x, y, chi = state.x, state.y, state.chi
    k1 = deriv(chi)
    k2 = deriv(chi + 0.5 * dt * k1[2])
    k3 = deriv(chi + 0.5 * dt * k2[2])
    k4 = deriv(chi + dt * k3[2])
    sixth = dt / 6.0
    return VehicleState(
        x + sixth * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
        y + sixth * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        wrap_angle(chi + sixth * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])),
    )
