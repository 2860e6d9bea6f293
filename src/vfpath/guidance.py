"""Switched vector-field guidance for general reference path following.

The desired course field blends two arctangent profiles of the cross-track
error d: a cubic-argument branch used far from the path (|d| > d_s) and a
linear-argument branch used near it (|d| <= d_s), with the branch gains tied
together (d_s = sqrt(k1/k3)) so the field is continuous at the switch.  When
the vehicle is far away AND pointed far off the field direction, the desired
course is additionally offset by rho*pi/2 so the commanded turn stays gentle;
that offset phase uses a fractional-power reaching term that drives the
course error to zero in finite time, after which a saturated sliding-mode
term takes over.

Phases:
    CASE1: |d| > d_s and |chi - chi_d(d)| > pi/2 (+ hysteresis on exit)
    CASE2: |d| >= d_s, course error within pi/2
    CASE3: |d| < d_s

The commanded course chi_c feeds the first-order course loop
chi_dot = alpha*(chi_c - chi); it packs the path-course-rate feedforward, the
field-rotation feedforward and the reaching term scaled by 1/alpha so the
closed loop realizes the intended course-error dynamics exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import NamedTuple, Optional

from .angles import wrap_angle
from .paths import PathFrame
from .vehicle import VehicleState

HALF_PI = 0.5 * math.pi


class GuidancePhase(IntEnum):
    CASE1 = 1
    CASE2 = 2
    CASE3 = 3


@dataclass(frozen=True)
class GuidanceParams:
    """Tunables of the switched guidance law.

    The near/far branch gains are kept consistent by construction: ``k1`` and
    the switching distance ``d_s`` are stored and the far-field gain
    ``k3 = k1 / d_s**2`` (1/m^3) is derived once, at construction, which is
    exactly the continuity condition d_s = sqrt(k1/k3).

    Attributes:
        chi_inf: asymptotic approach angle relative to the path tangent,
            in (0, pi/2].
        k1: near-field gain (1/m).
        d_s: switching distance between the branches (m).
        alpha: course-loop bandwidth of the vehicle (1/s).
        eta: gain of the fractional-power reaching term (CASE1).
        n, m: odd co-prime integers, 0 < n < m, the reaching-law exponent n/m.
        sigma: numerator of the sliding gain beta = sigma / (1 + |chi_err|).
        epsilon: boundary-layer half width of the saturated sliding term (rad).
        delta_hys: early-exit margin on the CASE1 predicate (rad).
        reaching: "sat" (default, boundary layer) or "sign" (pure switching).
    """

    chi_inf: float = HALF_PI
    k1: float = 0.01
    d_s: float = 10.0
    alpha: float = 1.65
    eta: float = math.pi / 4.0
    n: int = 3
    m: int = 5
    sigma: float = math.pi / 4.0
    epsilon: float = 0.05
    delta_hys: float = 0.05
    reaching: str = "sat"
    k3: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.chi_inf <= HALF_PI:
            raise ValueError("chi_inf must lie in (0, pi/2]")
        for name in ("k1", "d_s", "alpha", "eta", "sigma", "epsilon"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 <= self.delta_hys < math.inf:
            raise ValueError("delta_hys must be non-negative and finite")
        n, m = self.n, self.m
        if not (
            isinstance(n, int)
            and isinstance(m, int)
            and 0 < n < m
            and n % 2 == 1
            and m % 2 == 1
            and math.gcd(n, m) == 1
        ):
            raise ValueError("n, m must be odd co-prime integers with 0 < n < m")
        if self.reaching not in ("sat", "sign"):
            raise ValueError("reaching must be 'sat' or 'sign'")
        object.__setattr__(self, "k3", self.k1 / (self.d_s * self.d_s))

    @classmethod
    def from_branch_gains(cls, k1: float, k3: float, **kwargs) -> "GuidanceParams":
        """Build parameters from both branch gains (d_s = sqrt(k1/k3))."""
        if k1 <= 0.0 or k3 <= 0.0:
            raise ValueError("branch gains must be positive")
        return cls(k1=k1, d_s=math.sqrt(k1 / k3), **kwargs)


class Command(NamedTuple):
    """One guidance step: the commanded and desired course, the active phase
    (0 for a law without phases), and why the law could not command, if so."""

    chi_c: float
    chi_d: float
    phase: int = 0
    failure: Optional[str] = None


def sat(x: float) -> float:
    """Unit saturation: x inside [-1, 1], sign(x) outside."""
    if x > 1.0:
        return 1.0
    if x < -1.0:
        return -1.0
    return x


def desired_course_distance_only(d: float, chi_p: float, params: GuidanceParams) -> float:
    """Distance-switched desired course chi_d(d), wrapped to (-pi, pi].

    Cubic-argument branch for |d| > d_s, linear branch otherwise; both meet
    at |d| = d_s by the k3 = k1/d_s^2 construction.
    """
    if abs(d) > params.d_s:
        offset = math.atan(params.k3 * d**3)
    else:
        offset = math.atan(params.k1 * d)
    return wrap_angle(chi_p - params.chi_inf * (2.0 / math.pi) * offset)


def classify_phase(
    d: float,
    chi: float,
    chi_d_of_d: float,
    params: GuidanceParams,
    prev_phase: Optional[GuidancePhase],
) -> GuidancePhase:
    """Select the active phase from the switching predicates.

    CASE3 whenever |d| < d_s.  Otherwise CASE1 when the course error to the
    distance-only field exceeds pi/2 plus a hysteresis margin, CASE2 when it
    does not.  The margin applies whenever a previous phase exists: it makes
    CASE1 exit early (before the reaching term stalls at zero) and keeps the
    loop from re-entering CASE1 while the error sits inside the margin band.
    On the very first step there is no margin.
    """
    if abs(d) < params.d_s:
        return GuidancePhase.CASE3
    margin = 0.0 if prev_phase is None else params.delta_hys
    if abs(wrap_angle(chi - chi_d_of_d)) > HALF_PI + margin:
        return GuidancePhase.CASE1
    return GuidancePhase.CASE2


def desired_course(
    d: float,
    chi: float,
    chi_p: float,
    rho: int,
    params: GuidanceParams,
    prev_phase: Optional[GuidancePhase] = None,
) -> tuple[float, GuidancePhase]:
    """Full desired course chi_d(d, chi) and the active phase.

    CASE1 adds rho*pi/2 to the distance-only field so the commanded course
    never opposes the current one by more than pi/2.
    """
    chi_d_plain = desired_course_distance_only(d, chi_p, params)
    phase = classify_phase(d, chi, chi_d_plain, params, prev_phase)
    if phase is GuidancePhase.CASE1:
        return wrap_angle(chi_d_plain + rho * HALF_PI), phase
    return chi_d_plain, phase


def commanded_course(
    state: VehicleState,
    frame: PathFrame,
    params: GuidanceParams,
    prev_phase: Optional[GuidancePhase],
    v_g: float,
) -> Command:
    """Commanded course chi_c realizing the switched field through the course loop.

    All three phases share the structure

        chi_c = chi + (chi_p_dot + field_rate_feedforward + reaching) / alpha

    where the field feedforward cancels the rotation of chi_d(d) induced by
    the vehicle's own cross-track motion, and the reaching term is
    ``-rho * eta * |chi_err|**(n/m)`` in CASE1 and ``-beta * sat(chi_err/eps)``
    (or ``-beta * sign``) in CASE2/CASE3 with beta = sigma / (1 + |chi_err|).
    """
    if v_g <= 0.0:
        raise ValueError("v_g must be positive")
    d, chi, chi_p, rho = frame.d, state.chi, frame.chi_p, frame.rho
    chi_d, phase = desired_course(d, chi, chi_p, rho, params, prev_phase)
    chi_tilde = wrap_angle(chi - chi_d)
    sin_track = math.sin(wrap_angle(chi - chi_p))
    scale = params.chi_inf * (2.0 / math.pi)

    if phase is GuidancePhase.CASE3:
        k1d = params.k1 * d
        gain = params.k1 / (1.0 + k1d * k1d)
    else:
        k3d3 = params.k3 * d**3
        gain = 3.0 * params.k3 * d * d / (1.0 + k3d3 * k3d3)
    feedforward = frame.chi_p_dot - scale * gain * v_g * sin_track

    if phase is GuidancePhase.CASE1:
        reaching = -rho * params.eta * abs(chi_tilde) ** (params.n / params.m)
    else:
        beta = params.sigma / (1.0 + abs(chi_tilde))
        if params.reaching == "sat":
            reaching = -beta * sat(chi_tilde / params.epsilon)
        else:
            reaching = -beta * math.copysign(1.0, chi_tilde) if chi_tilde else 0.0

    chi_c = wrap_angle(chi + (feedforward + reaching) / params.alpha)
    return Command(chi_c, chi_d, phase)


def case1_convergence_time(chi_tilde0: float, params: GuidanceParams) -> float:
    """Finite settling time of the CASE1 reaching law from an initial course error.

    t_s = m / (eta * (m - n)) * |chi_err(0)|**((m - n)/m); zero input gives
    zero time.
    """
    mag = abs(chi_tilde0)
    if mag == 0.0:
        return 0.0
    n, m = params.n, params.m
    return (m / (params.eta * (m - n))) * mag ** ((m - n) / m)


@dataclass(frozen=True)
class CurvatureReport:
    """Result of the field-parameter curvature feasibility check.

    The peaks are the chi_inf = pi/2 closed forms.  ``exact`` is False below
    pi/2, where the rates and curvatures bound the field's peaks from above.
    """

    k1_peak_rate: float
    k3_peak_rate: float
    k1_peak_distance: float
    k3_peak_distance: float
    k1_curvature: float
    k3_curvature: float
    lhs: float
    kappa_max: float
    passed: bool
    exact: bool

    @property
    def margin(self) -> float:
        return self.kappa_max - self.lhs


def validate_curvature_constraint(
    params: GuidanceParams,
    v_g: float,
    chi_p_dot_max: float,
    kappa_max: float,
) -> CurvatureReport:
    """Check that the field gains respect the vehicle's curvature limit.

    On-field, the desired-course rate relative to the path course peaks at

        (2 / (3*sqrt(3))) * k1 * V_g            at |d| = 1 / (sqrt(2) k1)
        (2**(4/3) * 5**(5/6) / 9) * V_g * k3^(1/3)
                                                at |d| = 5^(1/6) / (2^(1/3) k3^(1/3))

    for the near and far branches respectively (chi_inf = pi/2).  Feasibility
    requires max(branch curvatures) - |chi_p_dot|_max / V_g <= kappa_max.

    Below pi/2 they bound the peaks from above: with s = 2*chi_inf/pi and
    theta the branch's arctangent, the rate carries s*sin(s*theta) in place
    of sin(theta), and s*sin(s*theta) <= sin(theta) for theta in [0, pi/2].
    """
    if v_g <= 0.0 or kappa_max <= 0.0:
        raise ValueError("v_g and kappa_max must be positive")
    if chi_p_dot_max < 0.0:
        raise ValueError("chi_p_dot_max must be non-negative")
    k1, k3 = params.k1, params.k3
    k1_curv = 2.0 * k1 / (3.0 * math.sqrt(3.0))
    k3_curv = (2.0 ** (4.0 / 3.0) * 5.0 ** (5.0 / 6.0) / 9.0) * k3 ** (1.0 / 3.0)
    lhs = max(k1_curv, k3_curv) - chi_p_dot_max / v_g
    return CurvatureReport(
        k1_peak_rate=k1_curv * v_g,
        k3_peak_rate=k3_curv * v_g,
        k1_peak_distance=1.0 / (math.sqrt(2.0) * k1),
        k3_peak_distance=5.0 ** (1.0 / 6.0) / (2.0 ** (1.0 / 3.0) * k3 ** (1.0 / 3.0)),
        k1_curvature=k1_curv,
        k3_curvature=k3_curv,
        lhs=lhs,
        kappa_max=kappa_max,
        passed=lhs <= kappa_max,
        exact=params.chi_inf == HALF_PI,
    )
