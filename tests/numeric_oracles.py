"""Numeric oracles shared by the tests: independent checks of closed forms."""

import math
from typing import Optional, Sequence

import numpy as np

from vfpath.guidance import GuidanceParams
from vfpath.paths import PolylinePath, ReferencePath

GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0


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
