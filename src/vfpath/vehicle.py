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
from dataclasses import dataclass, field
from typing import NamedTuple

from .angles import TAU, wrap_angle


class WindInfeasibleError(ValueError):
    """Wind speed at or above airspeed: the course cannot be held in all directions."""


def check_wind_speed(speed: float, v_a: float) -> None:
    """Reject a wind as fast as the airspeed or faster."""
    if speed >= v_a:
        raise WindInfeasibleError(
            f"wind speed {speed} m/s must be below the airspeed {v_a} m/s"
        )


class VehicleState(NamedTuple):
    x: float
    y: float
    chi: float


@dataclass(frozen=True)
class WindModel:
    """Constant wind vector (m/s), fixed over a trial; ``speed`` is its norm."""

    w_x: float = 0.0
    w_y: float = 0.0
    speed: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.w_x) and math.isfinite(self.w_y)):
            raise ValueError("wind components must be finite")
        object.__setattr__(self, "speed", math.hypot(self.w_x, self.w_y))


@dataclass(frozen=True)
class AirspeedSpec:
    """Constant airspeed magnitude (m/s)."""

    v_a: float

    def __post_init__(self):
        if not (self.v_a > 0.0 and math.isfinite(self.v_a)):
            raise ValueError("airspeed must be positive and finite")


def ground_speed(spec: AirspeedSpec, wind: WindModel, chi: float) -> float:
    """Ground speed while holding course ``chi`` at constant airspeed under wind.

    The air-velocity heading is crabbed so the ground velocity points along
    chi: the crosswind component is cancelled by the airspeed and the rest of
    the airspeed plus the along-track wind make up the ground speed,

        V_g = sqrt(V_a^2 - W_perp^2) + W_along.
    """
    v_a, w_x, w_y = spec.v_a, wind.w_x, wind.w_y
    if wind.speed >= v_a:
        check_wind_speed(wind.speed, v_a)
    if w_x == 0.0 and w_y == 0.0:
        return v_a
    cos_c, sin_c = math.cos(chi), math.sin(chi)
    w_perp = -w_x * sin_c + w_y * cos_c
    return math.sqrt(v_a * v_a - w_perp * w_perp) + w_x * cos_c + w_y * sin_c


def turn_rate(chi_c: float, chi: float, alpha: float) -> float:
    """Course rate alpha * wrap(chi_c - chi) commanded by the course loop."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    return alpha * wrap_angle(chi_c - chi)


def step_vehicle(
    state: tuple[float, float, float],
    chi_c: float,
    spec: AirspeedSpec,
    wind: WindModel,
    alpha: float,
    dt: float,
    v_g: float,
    chi_dot: float,
) -> tuple[float, float, float]:
    """Integrate the three-state dynamics one classical RK4 step with the
    command held fixed.

    ``state`` is any ``(x, y, chi)`` tuple, a :class:`VehicleState` or a
    plain one, and the next state comes back as a plain ``(x, y, chi)``
    tuple.

    Every stage takes its ground speed from the crab geometry of
    :func:`ground_speed` and its course rate from :func:`turn_rate`, so the
    course difference chi_c - chi is wrapped in each stage.  The caller
    passes the first stage, ``v_g = ground_speed(spec, wind, chi)`` and
    ``chi_dot = turn_rate(chi_c, chi, alpha)`` at the state's course; the
    other stages write both inline, each wrap as ``math.remainder(x,
    TAU)``.  The returned course is wrapped to [-pi, pi].
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    v_a, w_x, w_y = spec.v_a, wind.w_x, wind.w_y
    if wind.speed >= v_a:
        check_wind_speed(wind.speed, v_a)
    x, y, chi = state
    cos, sin, remainder = math.cos, math.sin, math.remainder
    half = 0.5 * dt
    chi2 = chi + half * chi_dot
    r2 = alpha * remainder(chi_c - chi2, TAU)
    chi3 = chi + half * r2
    r3 = alpha * remainder(chi_c - chi3, TAU)
    chi4 = chi + dt * r3
    r4 = alpha * remainder(chi_c - chi4, TAU)
    c1, s1 = cos(chi), sin(chi)
    c2, s2 = cos(chi2), sin(chi2)
    c3, s3 = cos(chi3), sin(chi3)
    c4, s4 = cos(chi4), sin(chi4)
    if w_x == 0.0 and w_y == 0.0:
        v2 = v3 = v4 = v_a
    else:
        v_a_sq = v_a * v_a
        w_perp = -w_x * s2 + w_y * c2
        v2 = math.sqrt(v_a_sq - w_perp * w_perp) + w_x * c2 + w_y * s2
        w_perp = -w_x * s3 + w_y * c3
        v3 = math.sqrt(v_a_sq - w_perp * w_perp) + w_x * c3 + w_y * s3
        w_perp = -w_x * s4 + w_y * c4
        v4 = math.sqrt(v_a_sq - w_perp * w_perp) + w_x * c4 + w_y * s4
    sixth = dt / 6.0
    chi_next = remainder(chi + sixth * (chi_dot + 2.0 * r2 + 2.0 * r3 + r4), TAU)
    return (
        x + sixth * (v_g * c1 + 2.0 * (v2 * c2) + 2.0 * (v3 * c3) + v4 * c4),
        y + sixth * (v_g * s1 + 2.0 * (v2 * s2) + 2.0 * (v3 * s3) + v4 * s4),
        chi_next,
    )
