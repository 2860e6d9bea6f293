"""Planar reference paths and the moving path frame used by all guidance laws.

Every path kind exposes ``point(s)`` and ``tangent_angle(s)`` over a stated
parameter domain plus a closest-point search that fills a :class:`PathFrame`.

Sign convention: the cross-track error ``d`` is the component of the
displacement (vehicle minus closest point) along the path tangent rotated by
+90 degrees, i.e. ``d = cross(tangent, displacement)``.  With this choice the
kinematic identity ``d_dot = V_g * sin(chi - chi_p)`` holds along vehicle
trajectories and the side indicator is simply ``rho = sign(d)``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .angles import wrap_angle

# Coarse sampling used by the search-based closest-point routine and by the
# curvature scan.  2048 samples keeps adjacent coarse minima well separated
# for the sinusoid scenarios this library targets.
COARSE_SAMPLES = 2048
CURVATURE_SAMPLES = 8192

# Polyline neighbour list: the skin is the larger of these, and the 1 mm
# slack on the candidate radius covers the rounding of the distances.
POLYLINE_SKIN_MIN = 5.0
POLYLINE_SKIN_FRAC = 0.1
POLYLINE_SLACK = 1e-3


class PathDomainError(ValueError):
    """Raised when a path is evaluated outside its parameter domain."""


@dataclass
class PathFrame:
    """Closest-point frame of a vehicle position relative to a path.

    Attributes:
        s_star: path parameter of the closest point.
        p_ref: closest point on the path (m).
        chi_p: path tangent angle at the closest point, wrapped to (-pi, pi].
        d: signed cross-track error (m); |d| is the distance to p_ref.
        rho: side indicator, +1 on the positive-d side, -1 otherwise.
        chi_p_dot: path course rate (rad/s); 0 until filled by the caller.
    """

    s_star: float
    p_ref: tuple[float, float]
    chi_p: float
    d: float
    rho: int
    chi_p_dot: float = 0.0


class ReferencePath:
    """Base class for planar reference paths.

    Subclasses define ``s_min``/``s_max``, ``point`` and ``tangent_angle``;
    the generic closest-point search (coarse scan plus bisection
    refinement) lives here and is overridden where an analytic projection
    exists.
    """

    s_min: float
    s_max: float
    #: True when the parameter wraps around (closed curves).
    periodic: bool = False

    def point(self, s: float) -> tuple[float, float]:
        raise NotImplementedError

    def tangent_angle(self, s: float) -> float:
        raise NotImplementedError

    def points_array(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``point``; subclasses override with closed-form numpy."""
        xy = np.array([self.point(float(v)) for v in s], dtype=float)
        return xy[:, 0], xy[:, 1]

    def _clip_parameter(self, s: float) -> float:
        if self.periodic:
            span = self.s_max - self.s_min
            return self.s_min + (s - self.s_min) % span
        if s < self.s_min or s > self.s_max:
            raise PathDomainError(
                f"parameter {s!r} outside domain [{self.s_min}, {self.s_max}]"
            )
        return s

    # -- closest point -----------------------------------------------------

    def _coarse_grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached uniform parameter grid with precomputed path points."""
        cached = getattr(self, "_grid_cache", None)
        if cached is None:
            s = np.linspace(self.s_min, self.s_max, COARSE_SAMPLES)
            xy = np.array([self.point(v) for v in s], dtype=float)
            cached = (s, xy[:, 0].copy(), xy[:, 1].copy())
            self._grid_cache = cached
        return cached

    def closest_parameter(self, p: Sequence[float], near: Optional[float] = None) -> float:
        """Global minimizer of the distance from ``p`` to the path.

        Coarse uniform scan, then bisection of the best sample's bracket on
        the sign of the displacement from ``p`` along the tangent (the
        distance itself is too flat near its minimum to locate it finely).
        Ties are broken toward the smallest parameter (the coarse argmin
        picks the first of equal minima).  ``near``, the previous closest
        parameter when tracking, is a hint that path kinds may use; the scan
        ignores it.
        """
        px, py = _finite_position(p)
        s_grid, gx, gy = self._coarse_grid()
        i = int(np.argmin((gx - px) ** 2 + (gy - py) ** 2))
        lo = float(s_grid[max(i - 1, 0)])
        hi = float(s_grid[min(i + 1, len(s_grid) - 1)])

        def slope(s: float) -> float:
            (x, y), chi = self.point(s), self.tangent_angle(s)
            return (x - px) * math.cos(chi) + (y - py) * math.sin(chi)

        if slope(lo) >= 0.0:
            return lo
        if slope(hi) <= 0.0:
            return hi
        return _bisect_sign(slope, lo, hi)

    def lookahead_parameter(
        self, frame: PathFrame, px: float, py: float, l1: float
    ) -> Optional[float]:
        """Forward-most parameter whose point lies at distance ``l1`` from p.

        ``frame`` is the closest-point frame of p = (px, py).  None when the
        path kind cannot prove its answer forward-most; the caller then scans.
        """
        return None

    def closest_point(self, p: Sequence[float]) -> PathFrame:
        """Path frame at the point of the path closest to ``p``."""
        s_star = self.closest_parameter(p)
        return self.frame_at(s_star, (float(p[0]), float(p[1])))

    def frame_at(self, s_star: float, p: Sequence[float]) -> PathFrame:
        rx, ry = self.point(s_star)
        chi_p = self.tangent_angle(s_star)
        ux, uy = p[0] - rx, p[1] - ry
        cross = math.cos(chi_p) * uy - math.sin(chi_p) * ux
        dist = math.hypot(ux, uy)
        # |d| is the true Euclidean distance even when the minimizer sits on
        # a domain boundary and the displacement is not perpendicular.
        d = math.copysign(dist, cross) if cross != 0.0 else dist
        rho = 1 if d >= 0.0 else -1
        return PathFrame(
            s_star=s_star,
            p_ref=(rx, ry),
            chi_p=chi_p,
            d=d,
            rho=rho,
        )


def _finite_position(p: Sequence[float]) -> tuple[float, float]:
    """``p`` as two floats; ValueError unless both are finite."""
    px, py = float(p[0]), float(p[1])
    if not (math.isfinite(px) and math.isfinite(py)):
        raise ValueError("vehicle position must be finite")
    return px, py


def _bisect_sign(fun, lo: float, hi: float) -> float:
    """Root of ``fun`` in [lo, hi], where it goes from - to +, by bisection
    on its sign down to the float spacing."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if fun(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def _contains_angle(t_lo: float, t_hi: float, angle: float) -> bool:
    """True when [t_lo, t_hi] holds angle + 2 pi k for some integer k."""
    k = math.floor((t_hi - angle) / (2.0 * math.pi))
    return angle + 2.0 * math.pi * k >= t_lo


class LinePath(ReferencePath):
    """Straight line through (x0, y0) with a fixed heading (rad)."""

    def __init__(
        self,
        x0: float = 0.0,
        y0: float = 0.0,
        heading: float = 0.0,
        s_min: float = -1.0e6,
        s_max: float = 1.0e6,
    ):
        if s_max <= s_min:
            raise ValueError("s_max must exceed s_min")
        self.x0, self.y0 = float(x0), float(y0)
        self.heading = wrap_angle(heading)
        self.s_min, self.s_max = float(s_min), float(s_max)
        self._cos = math.cos(self.heading)
        self._sin = math.sin(self.heading)

    def point(self, s: float) -> tuple[float, float]:
        s = self._clip_parameter(s)
        return (self.x0 + s * self._cos, self.y0 + s * self._sin)

    def points_array(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = np.clip(s, self.s_min, self.s_max)
        return self.x0 + s * self._cos, self.y0 + s * self._sin

    def tangent_angle(self, s: float) -> float:
        self._clip_parameter(s)
        return self.heading

    def closest_parameter(self, p, near=None) -> float:
        px, py = _finite_position(p)
        s = (px - self.x0) * self._cos + (py - self.y0) * self._sin
        return min(max(s, self.s_min), self.s_max)


class CirclePath(ReferencePath):
    """Circle of given center and radius, traversed counter-clockwise.

    The parameter is arc length from the point at polar angle zero; it is
    periodic, so any real ``s`` is accepted and wrapped into [0, 2*pi*R).
    """

    periodic = True

    def __init__(self, cx: float = 0.0, cy: float = 0.0, radius: float = 100.0):
        if radius <= 0.0:
            raise ValueError("radius must be positive")
        self.cx, self.cy = float(cx), float(cy)
        self.radius = float(radius)
        self.s_min = 0.0
        self.s_max = 2.0 * math.pi * self.radius

    def point(self, s: float) -> tuple[float, float]:
        theta = self._clip_parameter(s) / self.radius
        return (
            self.cx + self.radius * math.cos(theta),
            self.cy + self.radius * math.sin(theta),
        )

    def points_array(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        theta = np.asarray(s, dtype=float) / self.radius
        return (
            self.cx + self.radius * np.cos(theta),
            self.cy + self.radius * np.sin(theta),
        )

    def tangent_angle(self, s: float) -> float:
        theta = self._clip_parameter(s) / self.radius
        return wrap_angle(theta + 0.5 * math.pi)

    def closest_parameter(self, p, near=None) -> float:
        px, py = _finite_position(p)
        ux, uy = px - self.cx, py - self.cy
        if ux == 0.0 and uy == 0.0:
            # Center is equidistant from the whole circle; smallest parameter.
            return 0.0
        theta = math.atan2(uy, ux) % (2.0 * math.pi)
        return theta * self.radius


class SinusoidPath(ReferencePath):
    """Sinusoid y = A * sin(2*pi*x / L) parameterized by x.

    The default domain spans half a period before the origin through six
    periods after it, wide enough that trajectories converging onto the curve
    never run off the end.
    """

    def __init__(
        self,
        amplitude: float,
        period: float,
        s_min: Optional[float] = None,
        s_max: Optional[float] = None,
    ):
        if amplitude <= 0.0 or period <= 0.0:
            raise ValueError("amplitude and period must be positive")
        self.amplitude = float(amplitude)
        self.period = float(period)
        self.omega = 2.0 * math.pi / self.period
        self.s_min = -0.5 * self.period if s_min is None else float(s_min)
        self.s_max = 6.0 * self.period if s_max is None else float(s_max)
        if self.s_max <= self.s_min:
            raise ValueError("s_max must exceed s_min")
        aw = self.amplitude * self.omega
        # Peak curvature A w^2 (one over the minimum radius of curvature) and
        # squared peak slope (Aw)^2.  With u = sin(ws), the squared distance q
        # to a point p has q''/2 = c + u (b - 2 (Aw)^2 u), b = A w^2 py and
        # c = 1 + (Aw)^2: a concave quadratic in u, whatever px.
        self._kappa_max = aw * self.omega
        self._slope_sq = aw**2
        # Certified radius of the warm start.  If some path point lies at
        # distance r from p, every s within r of px has |A sin(ws) - py| <=
        # (1 + 2Aw) r, so q'' >= 2 (1 - (1 + 2Aw) r Aw^2) there, positive for
        # r below this radius.
        self.r_cert = 1.0 / self._kappa_max / (1.0 + 2.0 * aw)

    def point(self, s: float) -> tuple[float, float]:
        s = self._clip_parameter(s)
        return (s, self.amplitude * math.sin(self.omega * s))

    def points_array(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = np.clip(s, self.s_min, self.s_max)
        return s, self.amplitude * np.sin(self.omega * s)

    def tangent_angle(self, s: float) -> float:
        s = self._clip_parameter(s)
        slope = self.amplitude * self.omega * math.cos(self.omega * s)
        return math.atan(slope)

    def _distance_sq(self, s: float, px: float, py: float) -> float:
        dy = self.amplitude * math.sin(self.omega * s) - py
        return (s - px) ** 2 + dy * dy

    def _newton(
        self,
        s: float,
        lo: float,
        hi: float,
        px: float,
        py: float,
        radius: Optional[float] = None,
    ) -> Optional[float]:
        """Newton iteration from ``s`` on the squared distance q(s) to p.

        With ``radius`` None it solves q'(s) = 0 (a stationary point, q'' as
        the derivative); otherwise q(s) = radius^2 (a point at that distance,
        q' as the derivative).  Returns the root, or None when the derivative
        is not positive at an iterate, an iterate leaves [lo, hi] (or is not
        finite), or the iteration does not converge within 12 steps.
        """
        a, w = self.amplitude, self.omega
        for _ in range(12):
            sin_ws = math.sin(w * s)
            cos_ws = math.cos(w * s)
            dy = a * sin_ws - py
            slope = a * w * cos_ws
            grad = (s - px) + dy * slope
            if radius is None:
                value = grad
                deriv = 1.0 + slope * slope - dy * a * w * w * sin_ws
            else:
                value = 0.5 * ((s - px) ** 2 + dy * dy - radius * radius)
                deriv = grad
            if deriv <= 0.0:
                return None
            step = value / deriv
            s_next = s - step
            if not lo <= s_next <= hi:
                return None
            s = s_next
            if abs(step) < 1e-10:
                return s
        return None

    def closest_parameter(self, p, near=None) -> float:
        """Global minimizer of the distance from ``p`` to the sinusoid.

        An exact search with no grid; ``near``, the previous closest
        parameter when tracking, starts Newton's method.  Ties go to the
        smallest parameter.  README, "Tracking projection", sketches why the
        result is the global minimizer.
        """
        px, py = _finite_position(p)
        s = None
        if near is not None and math.isfinite(near):
            s = self._newton(near, self.s_min, self.s_max, px, py)
        stationary = s is not None
        if not stationary:
            s = min(max(px, self.s_min), self.s_max)
        q = self._distance_sq(s, px, py)
        if stationary and q < self.r_cert * self.r_cert:
            return s
        # Any point closer than s lies in [lo, hi], as q(v) >= (v - px)^2.
        r = math.sqrt(q)
        lo, hi = max(px - r, self.s_min), min(px + r, self.s_max)
        # q strictly convex on [lo, hi]: the stationary s is its unique
        # minimizer there.
        if stationary and self._convex_on(lo, hi, py):
            return s
        return self._search_convex_pieces(px, py, lo, hi, s)

    def _convex_on(self, lo: float, hi: float, py: float) -> bool:
        """True when q is strictly convex on [lo, hi].

        The concave quadratic q''/2 in u = sin(ws) (see ``__init__``) is
        positive over the range of u on [lo, hi] when it is positive at the
        two ends of that range: sin at lo and hi, widened to 1 over a crest
        and to -1 over a trough.
        """
        w, aw_sq = self.omega, self._slope_sq
        b, c = self._kappa_max * py, 1.0 + aw_sq
        u_lo, u_hi = sorted((math.sin(w * lo), math.sin(w * hi)))
        if _contains_angle(w * lo, w * hi, 0.5 * math.pi):
            u_hi = 1.0  # a crest
        if _contains_angle(w * lo, w * hi, -0.5 * math.pi):
            u_lo = -1.0  # a trough
        return (
            c + u_lo * (b - 2.0 * aw_sq * u_lo) > 0.0
            and c + u_hi * (b - 2.0 * aw_sq * u_hi) > 0.0
        )

    def _convexity_cuts(self, lo: float, hi: float, py: float) -> list[float]:
        """lo, hi and, sorted between them, the points where q'' = 0.

        q'' vanishes where sin(ws) is a root of its quadratic in u (at most
        four cuts per period), so q is strictly convex or strictly concave
        on each piece between consecutive cuts.
        """
        w, aw_sq = self.omega, self._slope_sq
        b, c = self._kappa_max * py, 1.0 + aw_sq
        root = math.sqrt(b * b + 8.0 * aw_sq * c)
        cuts = [lo, hi]
        for u in ((b - root) / (4.0 * aw_sq), (b + root) / (4.0 * aw_sq)):
            if -1.0 < u < 1.0:
                phase = math.asin(u)
                for first in (phase, math.pi - phase):
                    k = math.ceil((w * lo - first) / (2.0 * math.pi))
                    cut = (first + 2.0 * math.pi * k) / w
                    while cut < hi:
                        if cut > lo:
                            cuts.append(cut)
                        k += 1
                        cut = (first + 2.0 * math.pi * k) / w
        cuts.sort()
        return cuts

    def _grad(self, s: float, px: float, py: float) -> float:
        """Half the derivative of the squared distance q at s."""
        a, w = self.amplitude, self.omega
        return (s - px) + (a * math.sin(w * s) - py) * a * w * math.cos(w * s)

    def _piece_minimizer(
        self, c0: float, c1: float, grad_lo: float, grad_hi: float, px: float, py: float
    ) -> float:
        """Stationary point of q on a convex piece [c0, c1] at whose ends q'
        goes from - (``grad_lo``) to + (``grad_hi``): Newton's method from
        where the chord of q' crosses zero, or bisection when Newton leaves
        the piece."""
        start = c0 - grad_lo * (c1 - c0) / (grad_hi - grad_lo)
        root = self._newton(start, c0, c1, px, py)
        if root is None:
            root = _bisect_sign(lambda v: self._grad(v, px, py), c0, c1)
        return root

    def _search_convex_pieces(
        self, px: float, py: float, lo: float, hi: float, s: float
    ) -> float:
        """Minimizer of q over the domain, given that no point outside
        [lo, hi] is closer than s.

        A cut is no local minimum of q (q'' changes sign there, so q' keeps
        its sign on both sides), a concave piece has its minimum at an end,
        and lo or hi is no closer than s unless it is a domain end.  The
        minimizer is therefore s, a domain end in [lo, hi], or the
        stationary point of a convex piece at whose ends q' goes from - to +.
        """
        cuts = self._convexity_cuts(lo, hi, py)
        candidates = [s] + [v for v in (self.s_min, self.s_max) if lo <= v <= hi]
        grad_lo = self._grad(lo, px, py)
        for c0, c1 in zip(cuts, cuts[1:]):
            grad_hi = self._grad(c1, px, py)
            # q' falls across a concave piece, so only a convex one passes.
            if grad_lo < 0.0 <= grad_hi:
                candidates.append(self._piece_minimizer(c0, c1, grad_lo, grad_hi, px, py))
            grad_lo = grad_hi
        return min((self._distance_sq(v, px, py), v) for v in candidates)[1]

    def lookahead_parameter(
        self, frame: PathFrame, px: float, py: float, l1: float
    ) -> Optional[float]:
        """Forward-most parameter whose point lies at distance ``l1`` from p.

        Every root of h = q - l1^2 lies in [px - l1, px + l1], as
        q(s) >= (s - px)^2, and h(s*) = d^2 - l1^2 < 0 <= h(px + l1), so the
        forward-most root lies in (s*, px + l1].  None when |d| >= l1 (the
        scan handles tangency) or px + l1 is past the end of the domain.
        README, "Look-ahead target", sketches the search.
        """
        lo, hi = frame.s_star, px + l1
        if hi > self.s_max or abs(frame.d) >= l1:
            return None
        # A strictly convex h below zero at lo crosses zero once in (lo, hi].
        if self._convex_on(lo, hi, py):
            return self._crossing(lo, hi, px, py, l1)
        return self._forward_crossing_in_pieces(lo, hi, px, py, l1)

    def _crossing(self, lo: float, hi: float, px: float, py: float, l1: float) -> float:
        """The one root of h = q - l1^2 in (lo, hi], where h(lo) < 0 <= h(hi):
        Newton's method from hi, or bisection on the sign of h when Newton
        leaves [lo, hi]."""
        s = self._newton(hi, lo, hi, px, py, radius=l1)
        if s is None:
            r_sq = l1 * l1
            s = _bisect_sign(lambda v: self._distance_sq(v, px, py) - r_sq, lo, hi)
        return s

    def _forward_crossing_in_pieces(
        self, lo: float, hi: float, px: float, py: float, l1: float
    ) -> float:
        """Forward-most root of h = q - l1^2 in (lo, hi], given h(lo) < 0 <=
        h(hi), by walking the convex and concave pieces of q from the right.

        On a piece whose right end has h >= 0, h changes sign once when its
        left end has h < 0 (h is convex or concave there); otherwise h dips
        below zero only on a convex piece whose stationary point does, and
        then crosses once between that point and the right end.  A piece
        with neither has h >= 0 throughout, and the walk moves left.
        """
        cuts = self._convexity_cuts(lo, hi, py)
        r_sq = l1 * l1
        grad_hi = self._grad(hi, px, py)
        # h(lo) < 0, so the walk ends at the first piece at the latest.
        for i in range(len(cuts) - 2, 0, -1):
            c0, c1 = cuts[i], cuts[i + 1]
            if self._distance_sq(c0, px, py) < r_sq:
                return self._crossing(c0, c1, px, py, l1)
            grad_lo = self._grad(c0, px, py)
            if grad_lo < 0.0 <= grad_hi:
                m = self._piece_minimizer(c0, c1, grad_lo, grad_hi, px, py)
                if self._distance_sq(m, px, py) < r_sq:
                    return self._crossing(m, c1, px, py, l1)
            grad_hi = grad_lo
        return self._crossing(lo, cuts[1], px, py, l1)


class PolylinePath(ReferencePath):
    """Piecewise-linear path through ordered 2-D points, parameterized by arc length.

    The projection keeps a neighbour list on the path object (L. Verlet,
    Phys. Rev. 159, 98, 1967).  A rebuild at a point p0 projects onto every
    segment, with best distance r0, and keeps the segments within
    r0 + 2 skin, skin = max(5 m, 0.1 r0).  For any p within skin of p0, every
    other segment is farther than r0 + skin and the best kept one is within
    r0 + skin, so the minimum over the kept segments is the global minimum.
    The list depends only on the geometry, so it serves every caller.
    """

    def __init__(self, points: Sequence[Sequence[float]]):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("polyline needs at least two (x, y) points")
        finite = np.isfinite(pts).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(f"polyline vertex {i} ({pts[i, 0]}, {pts[i, 1]}) is not finite")
        seg = np.diff(pts, axis=0)
        lengths = np.hypot(seg[:, 0], seg[:, 1])
        if np.any(lengths == 0.0):
            raise ValueError("polyline has repeated consecutive points")
        cum = np.concatenate(([0.0], np.cumsum(lengths)))
        self.points = pts
        self.s_min = 0.0
        self.s_max = float(cum[-1])
        self._seg = seg
        self._len_sq = lengths**2
        # Plain floats for the per-step arithmetic, which numpy would slow.
        self._cum = cum.tolist()
        self._headings = np.arctan2(seg[:, 1], seg[:, 0]).tolist()
        self._segments = list(
            zip(
                *(col.tolist() for col in (pts[:-1, 0], pts[:-1, 1], seg[:, 0], seg[:, 1])),
                self._len_sq.tolist(),
                self._cum[:-1],
                lengths.tolist(),
            )
        )
        # (x0, y0, skin^2, segments kept) of the last rebuild; the negative
        # skin^2 of the empty start makes the first call rebuild.
        self._neighbours: tuple = (0.0, 0.0, -1.0, [])

    def _segment_index(self, s: float) -> int:
        i = bisect_right(self._cum, s) - 1
        return min(max(i, 0), len(self._segments) - 1)

    def point(self, s: float) -> tuple[float, float]:
        s = self._clip_parameter(s)
        ax, ay, sx, sy, _, cum, length = self._segments[self._segment_index(s)]
        f = (s - cum) / length
        return (ax + f * sx, ay + f * sy)

    def tangent_angle(self, s: float) -> float:
        s = self._clip_parameter(s)
        return self._headings[self._segment_index(s)]

    def closest_parameter(self, p, near=None) -> float:
        """Global minimizer of the distance from ``p`` to the polyline.

        Exact per-segment projection over the neighbour list, rebuilt when
        ``p`` is farther than the skin from its centre.  The arithmetic is
        the full scan's, operation for operation, and the segments are
        visited in index order with a strict comparison, so the result is
        the full scan's to the bit and ties go to the smallest parameter.
        """
        px, py = _finite_position(p)
        x0, y0, skin_sq, kept = self._neighbours
        dx, dy = px - x0, py - y0
        if dx * dx + dy * dy > skin_sq:
            kept = self._rebuild_neighbours(px, py)
        best = math.inf
        for ax, ay, sx, sy, len_sq, cum, length in kept:
            t = ((px - ax) * sx + (py - ay) * sy) / len_sq
            if t < 0.0:
                t = 0.0
            elif t > 1.0:
                t = 1.0
            dx = ax + t * sx - px
            dy = ay + t * sy - py
            d2 = dx * dx + dy * dy
            if d2 < best:
                best, s_best = d2, cum + t * length
        return s_best

    def _rebuild_neighbours(self, px: float, py: float) -> list:
        """Project (px, py) onto every segment and keep, as the new list,
        those that can hold the closest point of any position within the
        skin."""
        a, seg = self.points[:-1], self._seg
        t = ((px - a[:, 0]) * seg[:, 0] + (py - a[:, 1]) * seg[:, 1]) / self._len_sq
        t = np.clip(t, 0.0, 1.0)
        qx = a[:, 0] + t * seg[:, 0]
        qy = a[:, 1] + t * seg[:, 1]
        d2 = (qx - px) ** 2 + (qy - py) ** 2
        r0 = math.sqrt(float(np.min(d2)))
        skin = max(POLYLINE_SKIN_MIN, POLYLINE_SKIN_FRAC * r0)
        reach = r0 + 2.0 * skin + POLYLINE_SLACK
        kept = [self._segments[i] for i in np.flatnonzero(d2 <= reach * reach).tolist()]
        self._neighbours = (px, py, skin * skin, kept)
        return kept


def load_polyline(path_file: str) -> PolylinePath:
    """Load a polyline from a two-column comma-separated text file.

    Columns are x, y in meters; a single header line is allowed and skipped
    when its first field does not parse as a number.
    """
    rows: list[tuple[float, float]] = []
    with open(path_file, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) < 2:
                raise ValueError(f"{path_file}:{lineno + 1}: expected two columns")
            try:
                rows.append((float(fields[0]), float(fields[1])))
            except ValueError:
                if lineno == 0:
                    continue  # header
                raise ValueError(
                    f"{path_file}:{lineno + 1}: could not parse {line!r}"
                ) from None
    return PolylinePath(rows)


def path_course_rate(
    frame_now: PathFrame, frame_prev: Optional[PathFrame], dt: float
) -> float:
    """Finite-difference path course rate between consecutive frames.

    Returns 0 on the first simulation step (``frame_prev`` is None).  The
    angle difference is wrapped before dividing so crossings of +-pi do not
    produce spurious rates.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if frame_prev is None:
        return 0.0
    return wrap_angle(frame_now.chi_p - frame_prev.chi_p) / dt


def max_path_course_rate(path: ReferencePath, v_g: float) -> float:
    """Upper estimate of |chi_p_dot| when the path is traversed at speed v_g.

    Path curvature is estimated by finite differences of the tangent angle on
    a uniform parameter grid of ``CURVATURE_SAMPLES`` points over the domain.
    """
    if v_g <= 0.0:
        raise ValueError("v_g must be positive")
    s = np.linspace(path.s_min, path.s_max, CURVATURE_SAMPLES)
    chi = np.array([path.tangent_angle(v) for v in s])
    xy = np.array([path.point(v) for v in s])
    arc = np.hypot(np.diff(xy[:, 0]), np.diff(xy[:, 1]))
    d_chi = np.abs(
        np.mod(np.diff(chi) + np.pi, 2.0 * np.pi) - np.pi
    )
    valid = arc > 0.0
    if not np.any(valid):
        return 0.0
    kappa_max = float(np.max(d_chi[valid] / arc[valid]))
    return v_g * kappa_max
