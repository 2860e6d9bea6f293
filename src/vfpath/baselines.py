"""Comparison guidance laws: unswitched vector field, PLOS, and NLGL.

These are reimplementations of the standard published forms at the fidelity
needed for closed-loop benchmarking; the gain values carried by
:class:`BaselineParams` are the tuned defaults used throughout this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .angles import wrap_angle
from .paths import PathFrame, ReferencePath
from .vehicle import VehicleState

HALF_PI = 0.5 * math.pi


class LookaheadInfeasibleError(RuntimeError):
    """The look-ahead circle does not meet the path: |d| > L1, or no point of
    the path lies at distance L1."""


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
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


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

    At tangency (|d| = L1) the target is the closest point itself;
    otherwise the path kind answers exactly through its own
    ``lookahead_parameter`` (README, "Look-ahead target").

    Raises LookaheadInfeasibleError when |d| > L1 or the circle meets the
    path nowhere.
    """
    dist_min = abs(frame.d)
    if dist_min > l1:
        raise LookaheadInfeasibleError(
            f"cross-track error {dist_min:.1f} m exceeds look-ahead {l1:.1f} m"
        )
    if dist_min == l1:
        return frame.s_star, frame.p_ref
    s_t = path.lookahead_parameter(frame, p[0], p[1], l1)
    if s_t is None:
        raise LookaheadInfeasibleError(
            f"no look-ahead intersection found (|d| = {dist_min:.3f} m, L1 = {l1:.1f} m)"
        )
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
