"""Numeric oracles shared by the tests: independent checks of closed forms."""

import math
from typing import Optional, Sequence

import numpy as np

from vfpath.baselines import LookaheadInfeasibleError
from vfpath.guidance import GuidanceParams
from vfpath.paths import PathFrame, PolylinePath, ReferencePath

GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0

# Width (in the path parameter) at which the look-ahead scan's bisection stops.
NLGL_BISECT_TOL = 1e-4


def dense_closest_parameter(path: ReferencePath, p: Sequence[float], n: int) -> float:
    """Closest parameter to ``p`` from ``n`` uniform samples of the domain.

    The best sample's bracket is refined by bisection on the sign of the
    distance's derivative, the displacement from ``p`` along the tangent;
    the distance itself is too flat near its minimum to locate it to 1e-6.
    The result is exact whenever the samples find the right basin.
    """
    px, py = float(p[0]), float(p[1])
    s = np.linspace(path.s_min, path.s_max, n)
    x, y = path.points_array(s)
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
    path: ReferencePath, frame: PathFrame, p: Sequence[float], l1: float
) -> float:
    """Forward-most parameter at distance ``l1`` from ``p`` by a 257-point
    scan of the window [s* - 2.5 l1, s* + 2.5 l1] (within the domain unless
    the path is periodic) for sign changes of ``distance - l1``, and
    bisection of the forward-most one to ``NLGL_BISECT_TOL``.

    A tangency (|d| within tolerance of l1) with no sign change gives s*;
    LookaheadInfeasibleError when there is no crossing otherwise.  On a
    circle shorter than the window the forward-most crossing can be one a
    lap on.
    """
    dist_min = abs(frame.d)

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
            return frame.s_star
        raise LookaheadInfeasibleError(
            f"no look-ahead intersection found (|d| = {dist_min:.3f} m, L1 = {l1:.1f} m)"
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
    x, y = path.points_array(s)
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
    :func:`vfpath.guidance.validate_curvature_constraint`: evaluates the exact
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
