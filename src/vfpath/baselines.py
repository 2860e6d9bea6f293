"""Comparison guidance laws: unswitched vector field, PLOS, and NLGL.

These are reimplementations of the standard published forms at the fidelity
needed for closed-loop benchmarking; the gain values carried by
:class:`BaselineParams` are the tuned defaults used throughout this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .angles import HALF_PI, TAU
from .paths import ReferencePath


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


def basic_vf_command(frame: tuple, params: BaselineParams) -> float:
    """Unswitched vector-field command: chi_c = chi_p - beta*(2/pi)*atan(k*d).

    The desired field angle is commanded directly, so the course loop tracks
    it proportionally with no feedforward.
    """
    _, _, _, chi_p, d = frame
    offset = params.vf_beta * (2.0 / math.pi) * math.atan(params.vf_k * d)
    return math.remainder(chi_p - offset, TAU)


# Saturation of the PLOS proportional term (rad).  Strictly below pi: a
# course command exactly opposite the current course flips sign under
# wrapping and traps the vehicle chattering at the antipode.
PLOS_CLAMP = 2.5


def plos_command(
    x: float,
    y: float,
    chi: float,
    frame: tuple,
    params: BaselineParams,
) -> float:
    """Pure-pursuit-plus-LOS command from the vehicle pose ``(x, y, chi)``.

    Gain convention: the LOS reference aims at a point 1/plos_k2 ahead of the
    closest point along the tangent (equivalently chi_p - atan(k2*d) for a
    straight path), and plos_k1 multiplies the course error to that reference.
    The proportional term saturates at +-PLOS_CLAMP for large errors.
    """
    _, px, py, chi_p, _ = frame
    lookahead = 1.0 / params.plos_k2
    dx = px + lookahead * math.cos(chi_p) - x
    dy = py + lookahead * math.sin(chi_p) - y
    if math.hypot(dx, dy) < 1e-9:
        return chi_p  # degenerate: sitting exactly on the aim point
    chi_los = math.atan2(dy, dx)
    correction = params.plos_k1 * math.remainder(chi_los - chi, TAU)
    correction = min(max(correction, -PLOS_CLAMP), PLOS_CLAMP)
    return math.remainder(chi + correction, TAU)


def nlgl_virtual_target(
    path: ReferencePath,
    frame: tuple,
    p: tuple[float, float],
    l1: float,
    near: Optional[float] = None,
) -> tuple[float, tuple[float, float]]:
    """Forward-most intersection of the look-ahead circle with the path.

    At tangency (|d| = L1) the target is the closest point itself;
    otherwise the path kind answers exactly through its own
    ``lookahead_parameter``, which may start its search from ``near``, the
    predicted answer (README, "Look-ahead target").

    Raises LookaheadInfeasibleError when |d| > L1 or the circle meets the
    path nowhere.
    """
    s_star, px, py, _, d = frame
    dist_min = abs(d)
    if dist_min > l1:
        raise LookaheadInfeasibleError(
            f"cross-track error {dist_min:.1f} m exceeds look-ahead {l1:.1f} m"
        )
    if dist_min == l1:
        return s_star, (px, py)
    s_t = path.lookahead_parameter(s_star, p[0], p[1], l1, near)
    if s_t is None:
        raise LookaheadInfeasibleError(
            f"no look-ahead intersection found (|d| = {dist_min:.3f} m; L1 = {l1:.1f} m)"
        )
    return s_t, path.point(s_t)


def nlgl_command(
    x: float,
    y: float,
    chi: float,
    frame: tuple,
    path: ReferencePath,
    params: BaselineParams,
    v_g: float,
    alpha: float,
    prev: Optional[tuple] = None,
) -> tuple[float, float, int, None, tuple[float, ...]]:
    """Nonlinear lateral guidance command toward a virtual target on the path,
    from the vehicle pose ``(x, y, chi)``.

    The lateral acceleration 2*V_g^2/L1 * sin(eta) toward the target at fixed
    distance L1 maps to a course rate 2*V_g/L1 * sin(eta), which the course
    loop realizes through chi_c = chi + rate/alpha.  Returns the law step
    tuple ``(chi_c, chi_c, 0, None, lookahead)`` (README, "Guidance laws
    share one interface"), where ``lookahead`` holds the law's last two
    look-ahead parameters, newest last; the first step's target stands in
    as its own predecessor.  ``prev`` is the law's previous step tuple in
    the trial, or None: its look-ahead pair, extrapolated linearly,
    predicts this step's target parameter, which starts the path's search.
    """
    if v_g <= 0.0 or alpha <= 0.0:
        raise ValueError("v_g and alpha must be positive")
    near = None if prev is None else 2.0 * prev[4][1] - prev[4][0]
    s_t, target = nlgl_virtual_target(path, frame, (x, y), params.nlgl_l1, near)
    lookahead = (s_t if prev is None else prev[4][1], s_t)
    dx, dy = target[0] - x, target[1] - y
    if math.hypot(dx, dy) < 1e-9:
        return frame[3], frame[3], 0, None, lookahead
    eta_angle = math.remainder(math.atan2(dy, dx) - chi, TAU)
    rate = 2.0 * v_g / params.nlgl_l1 * math.sin(eta_angle)
    chi_c = math.remainder(chi + rate / alpha, TAU)
    return chi_c, chi_c, 0, None, lookahead
