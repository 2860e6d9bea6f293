"""Comparison guidance laws: unswitched vector field, PLOS, and NLGL.

These are reimplementations of the standard published forms at the fidelity
needed for closed-loop benchmarking; the gain values carried by
:class:`BaselineParams` are the tuned defaults used throughout this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .angles import wrap_angle
from .paths import PathFrame, ReferencePath
from .vehicle import VehicleState

HALF_PI = 0.5 * math.pi

# Width (in the path parameter) at which the scan's look-ahead bisection stops.
NLGL_BISECT_TOL = 1e-4


class LookaheadInfeasibleError(RuntimeError):
    """The look-ahead circle does not intersect the path (|d| > L1)."""


@dataclass(frozen=True)
class BaselineParams:
    """Gains of the three baseline laws.

    vf_k / vf_beta: cross-track gain (1/m) and asymptotic approach angle
    (rad) of the unswitched vector field.
    plos_k1 / plos_k2: proportional course gain (dimensionless) and
    cross-track gain (1/m) of the pursuit-plus-LOS law; 1/plos_k2 is the
    along-track offset of the aim point.
    nlgl_l1: look-ahead distance (m) of the nonlinear lateral guidance law.
    """

    vf_k: float = 0.02
    vf_beta: float = HALF_PI
    plos_k1: float = 15.0
    plos_k2: float = 0.1
    nlgl_l1: float = 110.0

    def __post_init__(self):
        for name in ("vf_k", "vf_beta", "plos_k1", "plos_k2", "nlgl_l1"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


def basic_vf_command(frame: PathFrame, params: BaselineParams) -> float:
    """Unswitched vector-field command: chi_c = chi_p - beta*(2/pi)*atan(k*d).

    The desired field angle is commanded directly, so the course loop tracks
    it proportionally with no feedforward.
    """
    offset = params.vf_beta * (2.0 / math.pi) * math.atan(params.vf_k * frame.d)
    return wrap_angle(frame.chi_p - offset)


# Saturation of the PLOS proportional term (rad).  Strictly below pi: a
# course command exactly opposite the current course flips sign under
# wrapping and traps the vehicle chattering at the antipode.
PLOS_CLAMP = 2.5


def plos_command(
    state: VehicleState,
    frame: PathFrame,
    params: BaselineParams,
) -> float:
    """Pure-pursuit-plus-LOS command.

    Gain convention: the LOS reference aims at a point 1/plos_k2 ahead of the
    closest point along the tangent (equivalently chi_p - atan(k2*d) for a
    straight path), and plos_k1 multiplies the course error to that reference.
    The proportional term saturates at +-PLOS_CLAMP for large errors.
    """
    lookahead = 1.0 / params.plos_k2
    aim_x = frame.p_ref[0] + lookahead * math.cos(frame.chi_p)
    aim_y = frame.p_ref[1] + lookahead * math.sin(frame.chi_p)
    dx, dy = aim_x - state.x, aim_y - state.y
    if math.hypot(dx, dy) < 1e-9:
        return frame.chi_p  # degenerate: sitting exactly on the aim point
    chi_los = math.atan2(dy, dx)
    correction = params.plos_k1 * wrap_angle(chi_los - state.chi)
    correction = min(max(correction, -PLOS_CLAMP), PLOS_CLAMP)
    return wrap_angle(state.chi + correction)


def nlgl_virtual_target(
    path: ReferencePath,
    frame: PathFrame,
    p: tuple[float, float],
    l1: float,
) -> tuple[float, tuple[float, float]]:
    """Forward-most intersection of the look-ahead circle with the path.

    Takes the path's own exact answer (``lookahead_parameter``) when it has
    one: the sinusoid answers whenever |d| < L1 and px + L1 is inside its
    domain, from the convexity of the squared distance on (s*, px + L1] or
    a right-to-left walk of its convex and concave pieces (README,
    "Look-ahead target").  Otherwise, for the line, circle, polyline and any
    other path kind, a sinusoid whose px + L1 is past its end, or tangency,
    scans the parameter interval around the closest point for sign changes
    of ``distance - L1`` and bisects the forward-most one; a tangency (|d|
    within tolerance of L1) falls back to the closest point itself.

    Raises LookaheadInfeasibleError when |d| > L1.
    """
    dist_min = abs(frame.d)
    if dist_min > l1:
        raise LookaheadInfeasibleError(
            f"cross-track error {dist_min:.1f} m exceeds look-ahead {l1:.1f} m"
        )
    s_t = path.lookahead_parameter(frame, p[0], p[1], l1)
    if s_t is not None:
        return s_t, path.point(s_t)

    def g(s: float) -> float:
        x, y = path.point(s)
        return math.hypot(x - p[0], y - p[1]) - l1

    # Intersections lie within about half the circle circumference of arc
    # length from the closest point; scan a generous window.
    span = 2.5 * l1
    lo = frame.s_star - span
    hi = frame.s_star + span
    if not path.periodic:
        lo = max(lo, path.s_min)
        hi = min(hi, path.s_max)
    steps = 256
    grid = np.linspace(lo, hi, steps + 1)
    gx, gy = path.points_array(grid)
    gv = np.hypot(gx - p[0], gy - p[1]) - l1
    crossing: Optional[tuple[float, float]] = None
    signs = gv[:-1] * gv[1:]
    hits = np.nonzero(signs < 0.0)[0]
    zeros = np.nonzero(gv == 0.0)[0]
    if hits.size:
        i = int(hits[-1])  # forward-most crossing
        crossing = (float(grid[i]), float(grid[i + 1]))
    if zeros.size:
        z = float(grid[int(zeros[-1])])
        if crossing is None or z > crossing[1]:
            crossing = (z, z)
    if crossing is None:
        # Tangency: the circle grazes the path at the closest point.
        if abs(dist_min - l1) <= 1e-6 * max(l1, 1.0) + 1e-9:
            return frame.s_star, frame.p_ref
        raise LookaheadInfeasibleError(
            f"no look-ahead intersection found (|d| = {dist_min:.3f} m, L1 = {l1:.1f} m)"
        )
    a, b = crossing
    if a == b:
        return a, path.point(a)
    ga = g(a)
    while b - a > NLGL_BISECT_TOL:
        mid = 0.5 * (a + b)
        gm = g(mid)
        if ga * gm <= 0.0:
            b = mid
        else:
            a, ga = mid, gm
    s_t = 0.5 * (a + b)
    return s_t, path.point(s_t)


def nlgl_command(
    state: VehicleState,
    frame: PathFrame,
    path: ReferencePath,
    params: BaselineParams,
    v_g: float,
    alpha: float,
) -> float:
    """Nonlinear lateral guidance command toward a virtual target on the path.

    The lateral acceleration 2*V_g^2/L1 * sin(eta) toward the target at fixed
    distance L1 maps to a course rate 2*V_g/L1 * sin(eta), which the course
    loop realizes through chi_c = chi + rate/alpha.
    """
    if v_g <= 0.0 or alpha <= 0.0:
        raise ValueError("v_g and alpha must be positive")
    _, target = nlgl_virtual_target(path, frame, (state.x, state.y), params.nlgl_l1)
    dx, dy = target[0] - state.x, target[1] - state.y
    if math.hypot(dx, dy) < 1e-9:
        return frame.chi_p
    eta_angle = wrap_angle(math.atan2(dy, dx) - state.chi)
    rate = 2.0 * v_g / params.nlgl_l1 * math.sin(eta_angle)
    return wrap_angle(state.chi + rate / alpha)
