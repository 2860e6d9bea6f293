"""Switched vector-field guidance for general reference path following.

One predicate, |d| < d_s on the cross-track error d, picks the field's
branch: a linear-argument arctangent near the path (|d| < d_s) and a
cubic-argument one everywhere else (|d| >= d_s).  The branch gains are tied
together (d_s = sqrt(k1/k3)) so the field is continuous at the switch.  On
the cubic branch, when the vehicle is pointed far off the field direction,
the desired course is additionally offset by rho*pi/2 (rho = sign(d), the
side of the path), a quarter turn from the field's approach direction toward
the path's own direction; the offset does not bound the course error (see
:func:`commanded_course`).  That offset phase uses a fractional-power
reaching term that drives the course error to zero in finite time, after
which a saturated sliding-mode term takes over.

Phases:
    CASE3: |d| < d_s (linear branch)
    CASE1: |d| >= d_s and |chi - chi_d(d)| > pi/2 (+ hysteresis on exit)
    CASE2: |d| >= d_s, course error within that bound

The commanded course chi_c feeds the first-order course loop
chi_dot = alpha*(chi_c - chi); it packs the path-course-rate feedforward, the
field-rotation feedforward and the reaching term scaled by 1/alpha so the
closed loop realizes the intended course-error dynamics exactly.
:func:`commanded_course` is the one definition of the law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional

from .angles import HALF_PI, TAU, check_derived, check_positive


class GuidancePhase(IntEnum):
    CASE1 = 1
    CASE2 = 2
    CASE3 = 3


# The members as module globals: commanded_course reads these, since a read
# of an enum class attribute costs about 100 ns against about 8 ns for a
# global (README, "Per-step costs").
CASE1, CASE2, CASE3 = GuidancePhase


@dataclass(frozen=True)
class GuidanceParams:
    """Tunables of the switched guidance law.

    The near/far branch gains are kept consistent by construction: ``k1`` and
    the switching distance ``d_s`` are stored and the far-field gain
    ``k3 = k1 / d_s**2`` (1/m^3) is derived once, at construction, which is
    exactly the continuity condition d_s = sqrt(k1/k3).  The field's
    arctangent scale ``scale = chi_inf * (2 / pi)`` is derived beside it.
    Neither is a constructor argument or a config key.

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
    scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.chi_inf <= HALF_PI:
            raise ValueError(f"chi_inf must lie in (0, pi/2], got {self.chi_inf!r}")
        names = ("k1", "d_s", "alpha", "eta", "sigma", "epsilon")
        check_positive(**{name: getattr(self, name) for name in names})
        if not 0.0 <= self.delta_hys < math.inf:
            raise ValueError(f"delta_hys must be non-negative and finite, got {self.delta_hys!r}")
        n, m = self.n, self.m
        if not (
            isinstance(n, int)
            and isinstance(m, int)
            and 0 < n < m
            and n % 2 == 1
            and m % 2 == 1
            and math.gcd(n, m) == 1
        ):
            raise ValueError(
                f"n, m must be odd co-prime integers with 0 < n < m, got {n!r}, {m!r}"
            )
        if self.reaching not in ("sat", "sign"):
            raise ValueError(f"reaching must be 'sat' or 'sign', got {self.reaching!r}")
        d_s_sq = self.d_s * self.d_s
        k3 = self.k1 / d_s_sq if d_s_sq > 0.0 else math.inf
        check_derived("far-field gain k3 = k1 / d_s**2", k3, k1=self.k1, d_s=self.d_s)
        object.__setattr__(self, "k3", k3)
        object.__setattr__(self, "scale", self.chi_inf * (2.0 / math.pi))


def sat(x: float) -> float:
    """Unit saturation: x inside [-1, 1], sign(x) outside."""
    if x > 1.0:
        return 1.0
    if x < -1.0:
        return -1.0
    return x


def commanded_course(
    chi: float,
    frame: tuple,
    chi_p_dot: float,
    params: GuidanceParams,
    prev_phase: Optional[GuidancePhase],
    v_g: float,
) -> tuple[float, float, GuidancePhase, None, tuple]:
    """One step of the switched law from the vehicle's course ``chi``, the
    frame tuple of ``frame_at`` and the path course rate ``chi_p_dot``: chi_d,
    the phase and the command chi_c realizing the field through the loop.

    Returns the law step tuple ``(chi_c, chi_d, phase, None, ())``: the
    switched law never fails and keeps no look-ahead (README, "Guidance
    laws share one interface").

    The branch is chosen once, by ``|d| < d_s``.  Near the path (CASE3) the
    field is ``chi_d = chi_p - s * atan(k1 * d)`` with s = 2*chi_inf/pi
    (``params.scale``); otherwise it is
    ``chi_d = chi_p - s * atan(k3 * d**3)``, and the course
    error to that field picks the phase: CASE1 when it exceeds pi/2 plus a
    hysteresis margin, CASE2 when it does not.  The margin (``delta_hys``)
    applies whenever a previous phase exists: it makes CASE1 exit early
    (before the reaching term stalls at zero) and keeps the loop from
    re-entering CASE1 while the error sits inside the margin band.  On the
    very first step there is no margin.  CASE1 adds rho*pi/2 to the field,
    rho = sign(d) worked out in that branch alone.  The sign comes from the
    side of the path, not from the course error, so the offset bounds
    neither the course error nor the commanded turn: a vehicle flying
    against the path's direction is offset away from its own course, and
    CASE1 course errors near pi occur (up to 3.11 rad in the 200-trial windy
    campaign at seed 42).

    All three phases share the structure

        chi_c = chi + (chi_p_dot + field_rate_feedforward + reaching) / alpha

    where the field feedforward cancels the rotation of chi_d(d) induced by
    the vehicle's own cross-track motion (with the branch's own gain), and
    the reaching term is ``-rho * eta * |chi_err|**(n/m)`` in CASE1 and
    ``-beta * sat(chi_err/eps)`` (or ``-beta * sign``) in CASE2/CASE3 with
    beta = sigma / (1 + |chi_err|).
    """
    if v_g <= 0.0:
        raise ValueError(f"v_g must be positive, got {v_g!r}")
    _, _, _, chi_p, d = frame
    scale = params.scale
    remainder = math.remainder

    if abs(d) < params.d_s:
        k1d = params.k1 * d
        chi_d = remainder(chi_p - scale * math.atan(k1d), TAU)
        gain = params.k1 / (1.0 + k1d * k1d)
        phase = CASE3
        chi_tilde = remainder(chi - chi_d, TAU)
    else:
        k3d3 = params.k3 * d**3
        chi_d = remainder(chi_p - scale * math.atan(k3d3), TAU)
        gain = 3.0 * params.k3 * d * d / (1.0 + k3d3 * k3d3)
        margin = 0.0 if prev_phase is None else params.delta_hys
        chi_tilde = remainder(chi - chi_d, TAU)
        if abs(chi_tilde) > HALF_PI + margin:
            # |d| >= d_s > 0 here, so the side of the path is never in doubt.
            rho = 1 if d >= 0.0 else -1
            chi_d = remainder(chi_d + rho * HALF_PI, TAU)
            chi_tilde = remainder(chi - chi_d, TAU)
            phase = CASE1
        else:
            phase = CASE2

    track = remainder(chi - chi_p, TAU)
    feedforward = chi_p_dot - scale * gain * v_g * math.sin(track)

    if phase is CASE1:
        reaching = -rho * params.eta * abs(chi_tilde) ** (params.n / params.m)
    else:
        beta = params.sigma / (1.0 + abs(chi_tilde))
        if params.reaching == "sat":
            reaching = -beta * sat(chi_tilde / params.epsilon)
        else:
            reaching = -beta * math.copysign(1.0, chi_tilde) if chi_tilde else 0.0

    chi_c = remainder(chi + (feedforward + reaching) / params.alpha, TAU)
    return chi_c, chi_d, phase, None, ()


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
    """Result of the field-parameter curvature feasibility check, in 1/m.

    The peaks are the chi_inf = pi/2 closed forms.  ``exact`` is False below
    pi/2, where the curvatures bound the field's peaks from above.
    ``passed`` needs ``lhs <= kappa_max`` and ``path_fits``: the path's own
    peak curvature is at most ``kappa_max``.
    """

    k1_peak_distance: float
    k3_peak_distance: float
    k1_curvature: float
    k3_curvature: float
    lhs: float
    kappa_max: float
    path_curvature: float
    exact: bool

    @property
    def margin(self) -> float:
        return self.kappa_max - self.lhs

    @property
    def path_fits(self) -> bool:
        return self.path_curvature <= self.kappa_max

    @property
    def passed(self) -> bool:
        return self.path_fits and self.lhs <= self.kappa_max


def validate_curvature_constraint(
    params: GuidanceParams,
    path_curvature: float,
    kappa_max: float,
) -> CurvatureReport:
    """Check that the field gains respect the vehicle's curvature limit.

    On-field, the curvature of the desired course relative to the path's
    (its rate divided by V_g, which it does not depend on) peaks at

        (2 / (3*sqrt(3))) * k1                  at |d| = 1 / (sqrt(2) k1)
        (2**(4/3) * 5**(5/6) / 9) * k3^(1/3)    at |d| = 5^(1/6) / (2^(1/3) k3^(1/3))

    for the near and far branches respectively (chi_inf = pi/2).  Feasibility
    requires max(branch curvatures) - path_curvature <= kappa_max, and a path
    the vehicle can fly: path_curvature <= kappa_max, with path_curvature the
    path's peak curvature (``ReferencePath.peak_curvature``).

    Below pi/2 they bound the peaks from above: with s = 2*chi_inf/pi and
    theta the branch's arctangent, the rate carries s*sin(s*theta) in place
    of sin(theta), and s*sin(s*theta) <= sin(theta) for theta in [0, pi/2].
    """
    if kappa_max <= 0.0:
        raise ValueError(f"kappa_max must be positive, got {kappa_max!r}")
    if path_curvature < 0.0:
        raise ValueError(f"path_curvature must be non-negative, got {path_curvature!r}")
    k1, k3 = params.k1, params.k3
    k1_curv = 2.0 * k1 / (3.0 * math.sqrt(3.0))
    k3_curv = (2.0 ** (4.0 / 3.0) * 5.0 ** (5.0 / 6.0) / 9.0) * k3 ** (1.0 / 3.0)
    return CurvatureReport(
        k1_peak_distance=1.0 / (math.sqrt(2.0) * k1),
        k3_peak_distance=5.0 ** (1.0 / 6.0) / (2.0 ** (1.0 / 3.0) * k3 ** (1.0 / 3.0)),
        k1_curvature=k1_curv,
        k3_curvature=k3_curv,
        lhs=max(k1_curv, k3_curv) - path_curvature,
        kappa_max=kappa_max,
        path_curvature=path_curvature,
        exact=params.chi_inf == HALF_PI,
    )
