"""Numeric oracles shared by the tests: independent checks of closed forms,
and the per-step code written through its helpers."""

import math
from typing import Optional, Sequence

import numpy as np

from vfpath.angles import wrap_angle
from vfpath.baselines import LookaheadInfeasibleError
from vfpath.guidance import HALF_PI, GuidanceParams, GuidancePhase, sat
from vfpath.paths import (
    CirclePath,
    LinePath,
    PolylinePath,
    ReferencePath,
    SinusoidPath,
)
from vfpath.vehicle import AirspeedSpec, WindModel, check_wind_speed

GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0

# Width (in the path parameter) at which the look-ahead scan's bisection stops.
NLGL_BISECT_TOL = 1e-4


def sample_points(path: ReferencePath, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points of ``path`` at the parameters ``s``, from each kind's defining
    geometry rather than its ``point``: closed forms for the line, circle
    and sinusoid, and linear interpolation over the cumulative arc length of
    the vertices for the polyline."""
    s = np.asarray(s, dtype=float)
    if isinstance(path, LinePath):
        return path.x0 + s * math.cos(path.heading), path.y0 + s * math.sin(path.heading)
    if isinstance(path, CirclePath):
        theta = s / path.radius
        return path.cx + path.radius * np.cos(theta), path.cy + path.radius * np.sin(theta)
    if isinstance(path, SinusoidPath):
        return s, path.amplitude * np.sin(2.0 * math.pi * s / path.period)
    if isinstance(path, PolylinePath):
        x, y = path.points[:, 0], path.points[:, 1]
        cum = np.concatenate(([0.0], np.cumsum(np.hypot(np.diff(x), np.diff(y)))))
        return np.interp(s, cum, x), np.interp(s, cum, y)
    raise TypeError(f"no sampling oracle for {type(path).__name__}")


def dense_closest_parameter(path: ReferencePath, p: Sequence[float], n: int) -> float:
    """Closest parameter to ``p`` from ``n`` uniform samples of the domain.

    The best sample's bracket is refined by bisection on the sign of the
    distance's derivative, the displacement from ``p`` along the tangent;
    the distance itself is too flat near its minimum to locate it to 1e-6.
    The result is exact whenever the samples find the right basin.
    """
    px, py = float(p[0]), float(p[1])
    s = np.linspace(path.s_min, path.s_max, n)
    x, y = sample_points(path, s)
    i = int(np.argmin((x - px) ** 2 + (y - py) ** 2))
    lo, hi = float(s[max(i - 1, 0)]), float(s[min(i + 1, n - 1)])

    def slope(v: float) -> float:
        (x_v, y_v), chi = path.point(v), path.tangent_angle(v)
        return (x_v - px) * math.cos(chi) + (y_v - py) * math.sin(chi)

    if slope(lo) >= 0.0:
        return lo
    if slope(hi) <= 0.0:
        return hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scan_lookahead_parameter(
    path: ReferencePath, s_star: float, p: Sequence[float], l1: float
) -> float:
    """Forward-most parameter at distance ``l1`` from ``p`` by a 257-point
    scan of the window [s* - 2.5 l1, s* + 2.5 l1] (within the domain unless
    the path is periodic) for sign changes of ``distance - l1``, and
    bisection of the forward-most one to ``NLGL_BISECT_TOL``; ``s_star`` is
    the closest parameter s* of ``p``.

    A tangency (|d|, the distance from p to point(s*), within tolerance of
    l1) with no sign change gives s*;
    LookaheadInfeasibleError when there is no crossing otherwise.  On a
    circle shorter than the window the forward-most crossing can be one a
    lap on.
    """
    def g(s: float) -> float:
        x, y = path.point(s)
        return math.hypot(x - p[0], y - p[1]) - l1

    x_star, y_star = path.point(s_star)
    dist_min = math.hypot(x_star - p[0], y_star - p[1])

    # Intersections lie within about half the circle circumference of arc
    # length from the closest point; scan a generous window.
    span = 2.5 * l1
    lo = s_star - span
    hi = s_star + span
    if not path.periodic:
        lo = max(lo, path.s_min)
        hi = min(hi, path.s_max)
    steps = 256
    grid = np.linspace(lo, hi, steps + 1)
    gx, gy = sample_points(path, grid)
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
            return s_star
        raise LookaheadInfeasibleError(
            f"no look-ahead intersection found (|d| = {dist_min:.3f} m; L1 = {l1:.1f} m)"
        )
    a, b = crossing
    if a == b:
        return a
    ga = g(a)
    while b - a > NLGL_BISECT_TOL:
        mid = 0.5 * (a + b)
        gm = g(mid)
        if ga * gm <= 0.0:
            b = mid
        else:
            a, ga = mid, gm
    return 0.5 * (a + b)


def dense_lookahead_parameter(
    path: ReferencePath, p: Sequence[float], l1: float, lo: float, hi: float, n: int
) -> Optional[float]:
    """Largest parameter in [lo, hi] at distance ``l1`` from ``p``, from ``n``
    uniform samples: the last sample pair across which ``distance - l1``
    changes side of zero (< 0 against >= 0), refined by bisection to the
    float spacing.  None when no pair does.  The result is exact whenever
    no two roots fall between adjacent samples.
    """
    s = np.linspace(lo, hi, n)
    x, y = sample_points(path, s)
    below = np.hypot(x - p[0], y - p[1]) < l1
    hits = np.nonzero(below[:-1] != below[1:])[0]
    if not hits.size:
        return None
    i = int(hits[-1])
    a, b = float(s[i]), float(s[i + 1])
    below_a = bool(below[i])
    while True:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            return mid
        x_m, y_m = path.point(mid)
        if (math.hypot(x_m - p[0], y_m - p[1]) < l1) == below_a:
            a = mid
        else:
            b = mid


def segment_scan_parameter(path: PolylinePath, p: Sequence[float]) -> float:
    """Closest parameter to ``p`` on a polyline by projecting onto every
    segment with numpy; ties go to the smallest parameter (first argmin)."""
    px, py = float(p[0]), float(p[1])
    a = path.points[:-1]
    seg = path.points[1:] - a
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    cum = np.concatenate(([0.0], np.cumsum(lengths)))
    t = ((px - a[:, 0]) * seg[:, 0] + (py - a[:, 1]) * seg[:, 1]) / (lengths**2)
    t = np.clip(t, 0.0, 1.0)
    qx = a[:, 0] + t * seg[:, 0]
    qy = a[:, 1] + t * seg[:, 1]
    d2 = (qx - px) ** 2 + (qy - py) ** 2
    i = int(np.argmin(d2))
    return float(cum[i] + t[i] * lengths[i])


def _golden_section(fun, lo: float, hi: float, tol: float) -> float:
    """Golden-section minimizer of a unimodal function on [lo, hi]."""
    a, b = lo, hi
    m1 = b - GOLDEN_RATIO * (b - a)
    m2 = a + GOLDEN_RATIO * (b - a)
    f1, f2 = fun(m1), fun(m2)
    while (b - a) > tol:
        if f1 < f2:
            b, m2, f2 = m2, m1, f1
            m1 = b - GOLDEN_RATIO * (b - a)
            f1 = fun(m1)
        else:
            a, m1, f1 = m1, m2, f2
            m2 = a + GOLDEN_RATIO * (b - a)
            f2 = fun(m2)
    return 0.5 * (a + b)


def peak_field_rate_numeric(
    params: GuidanceParams, v_g: float, branch: str, d_hi: Optional[float] = None
) -> float:
    """Numerically maximized on-field course rate |chi_d_dot - chi_p_dot|.

    Independent check of the closed forms in
    :func:`vfpath.guidance.validate_curvature_constraint`, which states each
    peak as a curvature: this rate divided by ``v_g``.  It evaluates the exact
    rate expression for a vehicle riding the field (chi = chi_d(d)) at the
    parameters' own ``chi_inf`` and maximizes it over d with a coarse scan
    plus golden-section refinement.  With scale = 2*chi_inf/pi and theta the
    branch's arctangent, the field turns at scale * dtheta/dd * d_dot and
    |d_dot| = V_g * sin(scale * theta).
    """
    scale = params.chi_inf * (2.0 / math.pi)
    if branch == "k1":
        k = params.k1

        def rate(d: float) -> float:
            u = k * d
            return scale * math.sin(scale * math.atan(u)) * k * v_g / (1.0 + u * u)

        d_peak_guess = 1.0 / k
    elif branch == "k3":
        k = params.k3

        def rate(d: float) -> float:
            u = k * d**3
            turn = 3.0 * k * d * d / (1.0 + u * u)
            return scale * math.sin(scale * math.atan(u)) * turn * v_g

        d_peak_guess = (1.0 / k) ** (1.0 / 3.0)
    else:
        raise ValueError("branch must be 'k1' or 'k3'")

    hi = d_hi if d_hi is not None else 10.0 * d_peak_guess
    best_d, best = 0.0, 0.0
    steps = 4096
    for i in range(1, steps + 1):
        d = hi * i / steps
        r = rate(d)
        if r > best:
            best_d, best = d, r
    lo = max(best_d - hi / steps, 0.0)
    d_star = _golden_section(lambda d: -rate(d), lo, best_d + hi / steps, 1e-10)
    return rate(d_star)


# Oracles for the per-step code, which calls math.remainder for each wrap to
# [-pi, pi] and writes each ground speed inline: the same arithmetic,
# operation for operation, through wrap_angle and a ground-speed helper.


def _helper_ground_speed(
    v_a: float, w_x: float, w_y: float, cos_c: float, sin_c: float
) -> float:
    """V_g = sqrt(V_a^2 - W_perp^2) + W_along along the course (cos_c, sin_c)."""
    if w_x == 0.0 and w_y == 0.0:
        return v_a
    w_perp = -w_x * sin_c + w_y * cos_c
    return math.sqrt(v_a * v_a - w_perp * w_perp) + w_x * cos_c + w_y * sin_c


def helper_ground_speed(spec: AirspeedSpec, wind: WindModel, chi: float) -> float:
    """``vfpath.vehicle.ground_speed`` through the helper."""
    check_wind_speed(wind.speed, spec.v_a)
    return _helper_ground_speed(spec.v_a, wind.w_x, wind.w_y, math.cos(chi), math.sin(chi))


def helper_step_vehicle(
    state: tuple[float, float, float],
    chi_c: float,
    spec: AirspeedSpec,
    wind: WindModel,
    alpha: float,
    dt: float,
    v_g: Optional[float] = None,
    chi_dot: Optional[float] = None,
) -> tuple[float, float, float]:
    """``vfpath.vehicle.step_vehicle`` with every stage through the helpers."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    v_a, w_x, w_y = spec.v_a, wind.w_x, wind.w_y
    check_wind_speed(wind.speed, v_a)
    x, y, chi = state
    cos, sin = math.cos, math.sin
    c1, s1 = cos(chi), sin(chi)
    if v_g is None:
        v_g = _helper_ground_speed(v_a, w_x, w_y, c1, s1)
        chi_dot = alpha * wrap_angle(chi_c - chi)
    half = 0.5 * dt
    chi2 = chi + half * chi_dot
    c2, s2 = cos(chi2), sin(chi2)
    v2 = _helper_ground_speed(v_a, w_x, w_y, c2, s2)
    r2 = alpha * wrap_angle(chi_c - chi2)
    chi3 = chi + half * r2
    c3, s3 = cos(chi3), sin(chi3)
    v3 = _helper_ground_speed(v_a, w_x, w_y, c3, s3)
    r3 = alpha * wrap_angle(chi_c - chi3)
    chi4 = chi + dt * r3
    c4, s4 = cos(chi4), sin(chi4)
    v4 = _helper_ground_speed(v_a, w_x, w_y, c4, s4)
    r4 = alpha * wrap_angle(chi_c - chi4)
    sixth = dt / 6.0
    return (
        x + sixth * (v_g * c1 + 2.0 * (v2 * c2) + 2.0 * (v3 * c3) + v4 * c4),
        y + sixth * (v_g * s1 + 2.0 * (v2 * s2) + 2.0 * (v3 * s3) + v4 * s4),
        wrap_angle(chi + sixth * (chi_dot + 2.0 * r2 + 2.0 * r3 + r4)),
    )


def helper_commanded_course(
    chi: float,
    frame: tuple,
    chi_p_dot: float,
    params: GuidanceParams,
    prev_phase: Optional[GuidancePhase],
    v_g: float,
) -> tuple:
    """``vfpath.guidance.commanded_course`` with every wrap through
    wrap_angle and the course error recomputed after the phase test."""
    if v_g <= 0.0:
        raise ValueError("v_g must be positive")
    _, _, _, chi_p, d, rho = frame
    scale = params.chi_inf * (2.0 / math.pi)

    if abs(d) < params.d_s:
        k1d = params.k1 * d
        chi_d = wrap_angle(chi_p - scale * math.atan(k1d))
        gain = params.k1 / (1.0 + k1d * k1d)
        phase = GuidancePhase.CASE3
    else:
        k3d3 = params.k3 * d**3
        chi_d = wrap_angle(chi_p - scale * math.atan(k3d3))
        gain = 3.0 * params.k3 * d * d / (1.0 + k3d3 * k3d3)
        margin = 0.0 if prev_phase is None else params.delta_hys
        if abs(wrap_angle(chi - chi_d)) > HALF_PI + margin:
            chi_d = wrap_angle(chi_d + rho * HALF_PI)
            phase = GuidancePhase.CASE1
        else:
            phase = GuidancePhase.CASE2

    chi_tilde = wrap_angle(chi - chi_d)
    sin_track = math.sin(wrap_angle(chi - chi_p))
    feedforward = chi_p_dot - scale * gain * v_g * sin_track

    if phase is GuidancePhase.CASE1:
        reaching = -rho * params.eta * abs(chi_tilde) ** (params.n / params.m)
    else:
        beta = params.sigma / (1.0 + abs(chi_tilde))
        if params.reaching == "sat":
            reaching = -beta * sat(chi_tilde / params.epsilon)
        else:
            reaching = -beta * math.copysign(1.0, chi_tilde) if chi_tilde else 0.0

    chi_c = wrap_angle(chi + (feedforward + reaching) / params.alpha)
    return chi_c, chi_d, phase, None, ()
