"""Planar reference paths and the moving path frame used by all guidance laws.

Every path kind states its curve once, as the point and tangent angle at a
parameter of a stated domain (``_pose``), which ``point(s)``,
``tangent_angle(s)`` and ``frame_at`` (the plain tuple ``(s_star, px, py,
chi_p, d)``; :class:`PathFrame` names its fields) read.  It answers two
queries exactly: the closest parameter to a point (``closest_parameter``, a
float) and the forward-most parameter at a given distance from it
(``lookahead_parameter``, the NLGL look-ahead target).  Each kind also
states its exact peak curvature (``peak_curvature``).

Sign convention: the cross-track error ``d`` is the component of the
displacement (vehicle minus closest point) along the path tangent rotated by
+90 degrees, i.e. ``d = cross(tangent, displacement)``.  With this choice the
kinematic identity ``d_dot = V_g * sin(chi - chi_p)`` holds along vehicle
trajectories, and the sign of ``d`` tells the side of the path.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .angles import TAU, check_derived, check_finite, check_positive, wrap_angle

# Polyline neighbour list and sinusoid basin: the skin is the larger of the
# first two, and the 1 mm slack on the reach covers the rounding of the
# distances.
SKIN_MIN = 5.0
SKIN_FRAC = 0.1
SLACK = 1e-3

# The error for a finite point whose squared distance to the path overflows.
_FAR_POINT = "point ({!r}, {!r}) is too far from the path: the square of its distance overflows"


def _skin_and_reach(r0: float, px: float, py: float) -> tuple[float, float]:
    """Skin max(SKIN_MIN, SKIN_FRAC r0) and reach r0 + 2 skin + SLACK of a
    neighbour list or basin rebuilt at p = (px, py), at distance r0 from
    the path.  ValueError when the square of the reach overflows: no
    squared distance within it may."""
    skin = max(SKIN_MIN, SKIN_FRAC * r0)
    reach = r0 + 2.0 * skin + SLACK
    if not reach * reach < math.inf:
        raise ValueError(_FAR_POINT.format(px, py))
    return skin, reach


class PathDomainError(ValueError):
    """Raised when a path is evaluated outside its parameter domain."""


class UnboundedCurvatureError(ValueError):
    """Raised when a path has a corner, so its curvature has no finite bound."""


class PathFrame(NamedTuple):
    """Named view of ``frame_at``'s plain frame tuple; only ``closest_point`` builds one.

    Attributes:
        s_star: path parameter of the closest point.
        px, py: closest point on the path (m).
        chi_p: path tangent angle at the closest point, wrapped to [-pi, pi].
        d: signed cross-track error (m); |d| is the distance to (px, py).
    """

    s_star: float
    px: float
    py: float
    chi_p: float
    d: float


class ReferencePath:
    """Base class for planar reference paths.

    A path kind defines ``s_min``/``s_max`` and states its curve once, in
    ``_pose``; ``point``, ``tangent_angle`` and ``frame_at`` read it after
    ``_clip_parameter``.  Each kind answers both geometric queries exactly
    (``closest_parameter`` and ``lookahead_parameter``) and states its exact
    ``peak_curvature``.  The base class has no answer of its own.
    """

    s_min: float
    s_max: float
    #: True when the parameter wraps around (closed curves).
    periodic: bool = False

    def _pose(self, s: float) -> tuple[float, float, float]:
        """(x, y, chi_p): the point and the tangent angle, wrapped to
        [-pi, pi], at a parameter ``s`` inside the domain (on a periodic
        path, inside the first lap)."""
        raise NotImplementedError

    def _clip_parameter(self, s: float) -> float:
        """``s`` wrapped into the first lap of a periodic path; on any
        other, ``s`` itself, or PathDomainError outside the domain."""
        if self.periodic:
            span = self.s_max - self.s_min
            return self.s_min + (s - self.s_min) % span
        if s < self.s_min or s > self.s_max:
            raise PathDomainError(f"parameter {s!r} outside domain [{self.s_min}, {self.s_max}]")
        return s

    def point(self, s: float) -> tuple[float, float]:
        x, y, _ = self._pose(self._clip_parameter(s))
        return (x, y)

    def tangent_angle(self, s: float) -> float:
        return self._pose(self._clip_parameter(s))[2]

    def closest_parameter(self, p: Sequence[float], near: Optional[float] = None) -> float:
        """Global minimizer of the distance from ``p`` to the path; ties go
        to the smallest parameter.  ``near``, the closest parameter predicted
        from the previous ones when tracking, is a hint that a path kind may
        use; it never changes which point is the answer.  ValueError unless
        ``p`` is finite, or when a kind's squared distance to it overflows."""
        raise NotImplementedError

    def lookahead_parameter(
        self, s_star: float, px: float, py: float, l1: float, near: Optional[float] = None
    ) -> Optional[float]:
        """Forward-most (largest) parameter whose point lies at distance
        ``l1`` from p = (px, py), or None when no such point exists.

        ``s_star`` is the closest parameter of p, with |d| < l1:
        ``nlgl_virtual_target`` handles tangency and |d| > l1 itself.
        ``near``, the answer predicted from the previous ones when tracking,
        is a hint that a path kind may use, as in ``closest_parameter``.
        """
        raise NotImplementedError

    def peak_curvature(self) -> float:
        """Largest curvature (1/m) of the path over its domain.
        UnboundedCurvatureError when the path has a corner."""
        raise NotImplementedError

    def closest_point(self, p: Sequence[float]) -> PathFrame:
        """Path frame at the point of the path closest to ``p``."""
        return PathFrame(*self.frame_at(self.closest_parameter(p), (float(p[0]), float(p[1]))))

    def frame_at(self, s_star: float, p: Sequence[float]) -> tuple:
        """Frame of ``p`` with its closest point at ``s_star``, a plain tuple (see PathFrame)."""
        rx, ry, chi_p = self._pose(self._clip_parameter(s_star))
        ux, uy = p[0] - rx, p[1] - ry
        cross = math.cos(chi_p) * uy - math.sin(chi_p) * ux
        dist = math.hypot(ux, uy)
        # |d| is the true Euclidean distance even when the minimizer sits on
        # a domain boundary and the displacement is not perpendicular.
        d = math.copysign(dist, cross) if cross != 0.0 else dist
        return s_star, rx, ry, chi_p, d


def _finite_domain(s_min: float, s_max: float) -> tuple[float, float]:
    """(s_min, s_max) as floats; ValueError unless both are finite and
    s_min < s_max."""
    s_min, s_max = float(s_min), float(s_max)
    if not -math.inf < s_min < s_max < math.inf:
        raise ValueError(
            f"s_min and s_max must be finite with s_min < s_max, got {s_min}, {s_max}"
        )
    return s_min, s_max


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
        check_finite(x0=x0, y0=y0, heading=heading)
        self.x0, self.y0 = float(x0), float(y0)
        self.heading = wrap_angle(heading)
        self.s_min, self.s_max = _finite_domain(s_min, s_max)
        self._cos = math.cos(self.heading)
        self._sin = math.sin(self.heading)

    def _pose(self, s):
        return self.x0 + s * self._cos, self.y0 + s * self._sin, self.heading

    def closest_parameter(self, p, near=None) -> float:
        px, py = float(p[0]), float(p[1])
        if not (math.isfinite(px) and math.isfinite(py)):
            raise ValueError(f"vehicle position must be finite, got ({px!r}, {py!r})")
        s = (px - self.x0) * self._cos + (py - self.y0) * self._sin
        return min(max(s, self.s_min), self.s_max)

    def lookahead_parameter(self, s_star, px, py, l1, near=None):
        """Largest root u +- sqrt(l1^2 - e^2) inside the domain, with u the
        along-track coordinate of p and e its offset from the unbounded line
        (the closest point clamps s* and d at a domain end).  It depends on e
        through e^2 alone, so mirrored points get the same answer."""
        dx, dy = px - self.x0, py - self.y0
        u = dx * self._cos + dy * self._sin
        e = dy * self._cos - dx * self._sin
        half = math.sqrt(max(l1 * l1 - e * e, 0.0))
        for s in (u + half, u - half):
            if self.s_min <= s <= self.s_max:
                return s
        return None

    def peak_curvature(self) -> float:
        return 0.0


class CirclePath(ReferencePath):
    """Circle of given center and radius, traversed counter-clockwise.

    The parameter is arc length from the point at polar angle zero; it is
    periodic, so any real ``s`` is accepted and wrapped into [0, 2*pi*R).
    """

    periodic = True

    def __init__(self, cx: float = 0.0, cy: float = 0.0, radius: float = 100.0):
        check_positive(radius=radius)
        check_finite(cx=cx, cy=cy)
        self.cx, self.cy = float(cx), float(cy)
        self.radius = float(radius)
        self.s_min = 0.0
        self.s_max = 2.0 * math.pi * self.radius

    def _pose(self, s):
        theta = s / self.radius
        return (
            self.cx + self.radius * math.cos(theta),
            self.cy + self.radius * math.sin(theta),
            math.remainder(theta + 0.5 * math.pi, TAU),
        )

    def closest_parameter(self, p, near=None) -> float:
        px, py = float(p[0]), float(p[1])
        if not (math.isfinite(px) and math.isfinite(py)):
            raise ValueError(f"vehicle position must be finite, got ({px!r}, {py!r})")
        ux, uy = px - self.cx, py - self.cy
        if ux == 0.0 and uy == 0.0:
            # Center is equidistant from the whole circle; smallest parameter.
            return 0.0
        theta = math.atan2(uy, ux) % (2.0 * math.pi)
        return theta * self.radius

    def lookahead_parameter(self, s_star, px, py, l1, near=None):
        """s* + R acos((R^2 + r^2 - l1^2) / (2 R r)), with r the distance of p
        from the centre: the crossing of the look-ahead circle within one lap
        ahead of s*.  On a small circle (circumference below 5 l1) a window
        of +-2.5 l1 around s* also holds crossings of the next lap; this
        answer stays within the lap.  None when the circles do not meet:
        r = 0, or the cosine outside [-1, 1] (as when r + R < l1)."""
        r = math.hypot(px - self.cx, py - self.cy)
        if r == 0.0:
            return None
        cos_angle = (self.radius**2 + r * r - l1 * l1) / (2.0 * self.radius * r)
        if not -1.0 <= cos_angle <= 1.0:
            return None
        return s_star + self.radius * math.acos(cos_angle)

    def peak_curvature(self) -> float:
        return 1.0 / self.radius


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
        check_positive(amplitude=amplitude, period=period)
        self.amplitude = float(amplitude)
        self.period = float(period)
        self.omega = 2.0 * math.pi / self.period
        self.s_min, self.s_max = _finite_domain(
            -0.5 * self.period if s_min is None else s_min,
            6.0 * self.period if s_max is None else s_max,
        )
        aw = self.amplitude * self.omega
        # Peak curvature A w^2 (one over the minimum radius of curvature) and
        # squared peak slope (Aw)^2.  With u = sin(ws), the squared distance q
        # to a point p has q''/2 = c + u (b - 2 (Aw)^2 u), b = A w^2 py and
        # c = 1 + (Aw)^2: a concave quadratic in u, whatever px.
        self._kappa_max = aw * self.omega
        given = {"amplitude": self.amplitude, "period": self.period}
        check_derived("peak curvature A w^2", self._kappa_max, **given)
        try:
            self._slope_sq = aw**2
        except OverflowError:
            self._slope_sq = math.inf
        check_derived("squared peak slope (A w)^2", self._slope_sq, **given)
        # Certified radius of the warm start.  If some path point lies at
        # distance r from p, every s within r of px has |A sin(ws) - py| <=
        # (1 + 2Aw) r, so q'' >= 2 (1 - (1 + 2Aw) r Aw^2) there, positive for
        # r below this radius.
        self.r_cert = 1.0 / self._kappa_max / (1.0 + 2.0 * aw)
        check_derived("certified radius 1 / (A w^2 (1 + 2 A w))", self.r_cert, **given)
        # (x0, y0, skin^2, a, b) of the last basin rebuild; the negative
        # skin^2 of the empty start makes the first tracked call rebuild.
        self._basin: tuple = (0.0, 0.0, -1.0, math.inf, -math.inf)

    def _pose(self, s):
        a, ws = self.amplitude, self.omega * s
        return s, a * math.sin(ws), math.atan(a * self.omega * math.cos(ws))

    def peak_curvature(self) -> float:
        """The curvature A w^2 |sin ws| / (1 + (Aw cos ws)^2)^(3/2) rises
        with |sin ws|: it peaks at A w^2 on a crest or trough (2 ws an odd
        multiple of pi) and, on a domain without one, at an end."""
        w = self.omega
        if _contains_angle(2.0 * w * self.s_min, 2.0 * w * self.s_max, math.pi):
            return self._kappa_max
        return max(
            self._kappa_max * abs(math.sin(w * s))
            / (1.0 + self._slope_sq * math.cos(w * s) ** 2) ** 1.5
            for s in (self.s_min, self.s_max)
        )

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
        sign: float = 1.0,
    ) -> Optional[float]:
        """Newton iteration from ``s`` on the squared distance q(s) to p.

        With ``radius`` None it solves q'(s) = 0 (a stationary point, q'' as
        the derivative); otherwise q(s) = radius^2 (a point at that distance,
        q' as the derivative).  Returns the root, or None when the derivative
        times ``sign`` is not positive at an iterate (so -1 seeks a maximum
        or a falling crossing), an iterate leaves [lo, hi] (or is not
        finite), or the iteration does not converge within 12 steps.
        ``_root`` bisects a bracketed root when it returns None; the
        unbracketed warm start of ``closest_parameter`` calls it directly.
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
            if deriv * sign <= 0.0:
                return None
            step = value / deriv
            s_next = s - step
            if not lo <= s_next <= hi:
                return None
            s = s_next
            if abs(step) < 1e-10:
                return s
        return None

    def _root(
        self,
        start: float,
        lo: float,
        hi: float,
        px: float,
        py: float,
        radius: Optional[float] = None,
        sign: float = 1.0,
    ) -> float:
        """The one root in [lo, hi] of g, with g = q'/2 when ``radius`` is
        None and g = q - radius^2 otherwise, where sign * g goes from below
        zero at lo to not below it at hi: ``_newton`` from ``start``, or,
        when that returns None, bisection on the sign of sign * g down to
        the float spacing."""
        s = self._newton(start, lo, hi, px, py, radius, sign)
        if s is not None:
            return s
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                return mid
            if radius is None:
                g = self._grad(mid, px, py)
            else:
                g = self._distance_sq(mid, px, py) - radius * radius
            if sign * g < 0.0:
                lo = mid
            else:
                hi = mid

    def closest_parameter(self, p, near=None) -> float:
        """Global minimizer of the distance from ``p`` to the sinusoid.

        An exact search with no grid; ``near``, the closest parameter
        predicted from the previous ones when tracking (``run_trial``
        extrapolates the last two linearly), starts Newton's method.  The
        stationary Newton point is the answer when it lies within
        ``r_cert`` of ``p``, or when ``p`` lies within the skin of the
        cached basin's centre and the point lies in the basin's piece [a, b]
        (see ``_rebuild_basin``).  Otherwise the piece search finds it, and
        a tracked call outside the skin then rebuilds the basin around
        ``p``.  The answer depends only on ``p`` and ``near``, not on the
        basin that earlier calls left.  Ties go to the smallest parameter.
        README, "Tracking projection", sketches why the result is the global
        minimizer.
        """
        px, py = float(p[0]), float(p[1])
        if not (math.isfinite(px) and math.isfinite(py)):
            raise ValueError(f"vehicle position must be finite, got ({px!r}, {py!r})")
        s = None
        tracked = near is not None and math.isfinite(near)
        if tracked:
            s = self._newton(near, self.s_min, self.s_max, px, py)
        stationary = s is not None
        if not stationary:
            s = min(max(px, self.s_min), self.s_max)
        try:
            q = self._distance_sq(s, px, py)
        except OverflowError:
            raise ValueError(_FAR_POINT.format(px, py)) from None
        if stationary and q < self.r_cert * self.r_cert:
            return s
        rebuild = False
        if tracked:
            x0, y0, skin_sq, a, b = self._basin
            dx, dy = px - x0, py - y0
            if dx * dx + dy * dy > skin_sq:
                rebuild = True
            elif stationary and a <= s <= b:
                return s
        # Any point closer than s lies in [lo, hi], as q(v) >= (v - px)^2.
        r = math.sqrt(q)
        _skin_and_reach(r, px, py)  # a rebuild's check, so the hint cannot matter
        lo, hi = max(px - r, self.s_min), min(px + r, self.s_max)
        s = self._search_convex_pieces(px, py, lo, hi, s, stationary)
        if rebuild:
            self._rebuild_basin(px, py, s)
        return s

    def _rebuild_basin(self, px: float, py: float, s0: float) -> None:
        """Cache a basin around p0 = (px, py), whose closest parameter is s0.

        With r0 the distance of s0 from p0, skin = max(SKIN_MIN,
        SKIN_FRAC r0) and reach = r0 + 2 skin + SLACK, the closest point of
        any p within the skin of p0 lies within r0 + 2 skin of p0: its
        parameter v has |v - px| < reach and q_p0(v) < reach^2.  The basin
        is the piece J = [a, b] around s0 between the nearest cuts of q'' for
        py - skin and py + skin, nudged inward.  It is certified when
        (A) q is strictly convex on J at both of those heights, so at every
        height between them (q''/2 is linear in py for fixed sin(ws)), and
        (B) every v in [px - reach, px + reach] of the domain outside J has
        q_p0(v) > reach^2: the ends and the local minima of q_p0 on the side
        intervals are checked.  Then the closest point of any p within the
        skin lies in J, where q_p has one stationary point.  A refused
        certificate caches an empty J, so the skin is not tried again.
        """
        r0 = math.sqrt(self._distance_sq(s0, px, py))
        skin, reach = _skin_and_reach(r0, px, py)
        reach_sq = reach * reach
        lo, hi = max(px - reach, self.s_min), min(px + reach, self.s_max)
        # Clear of the cuts, where q'' = 0 at one height.
        nudge = 1e-9 * self.period
        a, b = lo, hi
        for y in (py - skin, py + skin):
            for cut in self._convexity_cuts(lo, hi, y)[1:-1]:
                if cut <= s0:
                    a = max(a, min(cut + nudge, s0))
                else:
                    b = min(b, max(cut - nudge, s0))
        certified = (
            self._convex_on(a, b, py - skin)
            and self._convex_on(a, b, py + skin)
            and all(
                self._distance_sq(v, px, py) > reach_sq
                for c0, c1 in ((lo, a), (b, hi))
                if c0 < c1
                # The least of q_p0 over [c0, c1]: at c1, or found by the
                # piece search from c0.
                for v in (c1, self._search_convex_pieces(px, py, c0, c1, c0, False))
            )
        )
        if not certified:
            a, b = math.inf, -math.inf
        self._basin = (px, py, skin * skin, a, b)

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

    def _search_convex_pieces(
        self, px: float, py: float, lo: float, hi: float, s: float, stationary: bool
    ) -> float:
        """Minimizer of q over the domain, given that no point outside
        [lo, hi] is closer than s.

        A cut is no local minimum of q (q'' changes sign there, so q' keeps
        its sign on both sides), a concave piece has its minimum at an end,
        and lo or hi is no closer than s unless it is a domain end.  The
        minimizer is therefore s, a domain end in [lo, hi], or the
        stationary point of a convex piece at whose ends q' goes from - to +,
        found by ``_root`` from where the chord of q' across the piece
        crosses zero.  A ``stationary`` s is that point for its own piece,
        which is not searched again, so the answer does not depend on how s
        was found.
        """
        cuts = self._convexity_cuts(lo, hi, py)
        candidates = [s] + [v for v in (self.s_min, self.s_max) if lo <= v <= hi]
        grad_lo = self._grad(lo, px, py)
        for c0, c1 in zip(cuts, cuts[1:]):
            grad_hi = self._grad(c1, px, py)
            # q' falls across a concave piece, so only a convex one passes.
            if grad_lo < 0.0 <= grad_hi and not (stationary and c0 <= s <= c1):
                start = c0 - grad_lo * (c1 - c0) / (grad_hi - grad_lo)
                candidates.append(self._root(start, c0, c1, px, py))
            grad_lo = grad_hi
        return min((self._distance_sq(v, px, py), v) for v in candidates)[1]

    def lookahead_parameter(
        self, s_star: float, px: float, py: float, l1: float, near: Optional[float] = None
    ) -> Optional[float]:
        """Forward-most parameter whose point lies at distance ``l1`` from p.

        Every root of h = q - l1^2 lies in [px - l1, px + l1], as
        q(s) >= (s - px)^2, and h(s*) = d^2 - l1^2 < 0.  Let hi be px + l1,
        or s_max when that is past the end of the domain.  When h(hi) >= 0,
        as it always is at px + l1, the forward-most root lies in (s*, hi].
        Otherwise h < 0 at both s* and s_max, and the last root is a falling
        crossing in [max(px - l1, s_min), s_max], behind s* or ahead of it,
        or there is none.  When q is strictly convex on [s*, hi], Newton's
        method starts from ``near``, the answer predicted from the previous
        ones, if it lies in [s*, hi], and from hi when there is no such hint
        or Newton refuses it.  README, "Look-ahead target", sketches the
        search.
        """
        lo, hi = s_star, px + l1
        if hi > self.s_max:
            hi = self.s_max
            if self._distance_sq(hi, px, py) < l1 * l1:
                return self._forward_crossing_in_pieces(
                    max(px - l1, self.s_min), hi, px, py, l1, sign=-1.0
                )
        if not self._convex_on(lo, hi, py):
            return self._forward_crossing_in_pieces(lo, hi, px, py, l1)
        # A strictly convex h below zero at lo crosses zero once in (lo, hi],
        # and Newton's method converges only onto a root in [lo, hi].
        if near is not None and lo <= near <= hi:
            s = self._newton(near, lo, hi, px, py, l1)
            if s is not None:
                return s
        return self._root(hi, lo, hi, px, py, l1)

    def _forward_crossing_in_pieces(
        self, lo: float, hi: float, px: float, py: float, l1: float, sign: float = 1.0
    ) -> Optional[float]:
        """Forward-most root of h = q - l1^2 in [lo, hi], or None when there
        is none, by walking the convex and concave pieces of q from the right.

        ``sign`` is 1 when h(hi) >= 0 and -1 when h(hi) < 0; the caller
        knows which, where rounding could blur h(hi) = 0.  The root sought
        is where h last crosses into the side of zero that h(hi) is on:
        rising into h >= 0, or falling into h < 0.  On a piece whose right
        end is on that side, h crosses once when its left end is on the
        other side (h is convex or concave there).  Otherwise h reaches the
        other side only at an extremum inside the piece, the minimum of a
        convex piece when rising or the maximum of a concave one when
        falling, and then crosses once between that point and the right end.
        A piece with neither stays on hi's side throughout, and the walk
        moves left.  When h(lo) is on the other side, as h(s*) < 0 is for a
        rising crossing, the walk ends at the first piece at the latest.
        ``_root`` finds each crossing from the piece's right end and each
        extremum from where the chord of q' across the piece crosses zero.
        """
        cuts = self._convexity_cuts(lo, hi, py)
        r_sq = l1 * l1
        rising = sign > 0.0
        grad_hi = self._grad(hi, px, py)
        for i in range(len(cuts) - 2, -1, -1):
            c0, c1 = cuts[i], cuts[i + 1]
            if (self._distance_sq(c0, px, py) < r_sq) == rising:
                return self._root(c1, c0, c1, px, py, l1, sign)
            grad_lo = self._grad(c0, px, py)
            if sign * grad_lo < 0.0 <= sign * grad_hi:
                start = c0 - grad_lo * (c1 - c0) / (grad_hi - grad_lo)
                m = self._root(start, c0, c1, px, py, sign=sign)
                if (self._distance_sq(m, px, py) < r_sq) == rising:
                    return self._root(c1, m, c1, px, py, l1, sign)
            grad_hi = grad_lo
        return None


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
        # An overflow here is one of the lengths rejected below, not a warning.
        with np.errstate(over="ignore"):
            seg = np.diff(pts, axis=0)
            lengths = np.hypot(seg[:, 0], seg[:, 1])
            len_sq = lengths**2
        # The projection divides by the squared length: one that underflows
        # to 0 or overflows to inf gives a NaN or a constant parameter.  A
        # positive, finite square has a positive, finite length.
        ok = (0.0 < len_sq) & (len_sq < math.inf)
        if not ok.all():
            i = int(np.argmin(ok))
            (x0, y0), (x1, y1) = pts[i].tolist(), pts[i + 1].tolist()
            raise ValueError(
                f"polyline segment {i} from vertex {i} ({x0}, {y0}) to vertex {i + 1}"
                f" ({x1}, {y1}) has length {float(lengths[i])!r} and squared length"
                f" {float(len_sq[i])!r}: both must be positive and finite"
            )
        cum = np.concatenate(([0.0], np.cumsum(lengths)))
        self.points = pts
        self.s_min = 0.0
        self.s_max = float(cum[-1])
        self._seg = seg
        self._len_sq = len_sq
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

    def _pose(self, s):
        i = self._segment_index(s)
        ax, ay, sx, sy, _, cum, length = self._segments[i]
        f = (s - cum) / length
        return ax + f * sx, ay + f * sy, self._headings[i]

    def closest_parameter(self, p, near=None) -> float:
        """Global minimizer of the distance from ``p`` to the polyline.

        Exact per-segment projection over the neighbour list, rebuilt when
        ``p`` is farther than the skin from its centre.  The arithmetic is
        the full scan's, operation for operation, and the segments are
        visited in index order with a strict comparison, so the result is
        the full scan's to the bit and ties go to the smallest parameter.
        """
        px, py = float(p[0]), float(p[1])
        if not (math.isfinite(px) and math.isfinite(py)):
            raise ValueError(f"vehicle position must be finite, got ({px!r}, {py!r})")
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

    def lookahead_parameter(self, s_star, px, py, l1, near=None):
        """Largest root of |point(s) - p| = l1 in the window [s* - 2.5 l1,
        s* + 2.5 l1] of the domain, from the segment-circle quadratic on each
        segment that overlaps the window, the last segment first.  The
        window keeps the target on the stretch near s*: a polyline that
        comes back near p has roots far ahead in parameter."""
        span = 2.5 * l1
        lo = max(s_star - span, self.s_min)
        hi = min(s_star + span, self.s_max)
        r_sq = l1 * l1
        for i in range(self._segment_index(hi), self._segment_index(lo) - 1, -1):
            ax, ay, sx, sy, len_sq, cum, length = self._segments[i]
            wx, wy = ax - px, ay - py
            b = wx * sx + wy * sy
            disc = b * b - len_sq * (wx * wx + wy * wy - r_sq)
            if disc < 0.0:
                continue
            root = math.sqrt(disc)
            for t in ((root - b) / len_sq, (-root - b) / len_sq):
                s = cum + t * length
                if 0.0 <= t <= 1.0 and lo <= s <= hi:
                    return s
        return None

    def peak_curvature(self) -> float:
        """0 when every vertex is straight.  A vertex where the heading
        turns is a corner, with no finite curvature bound: the error names
        the sharpest."""
        headings = self._headings
        turns = [abs(wrap_angle(b - a)) for a, b in zip(headings, headings[1:])]
        sharpest = max(turns, default=0.0)
        if sharpest == 0.0:
            return 0.0
        i = turns.index(sharpest) + 1
        x, y = self.points[i]
        raise UnboundedCurvatureError(
            f"polyline vertex {i} ({x:g}, {y:g}) turns {sharpest:.5g} rad:"
            " a corner has no finite curvature bound"
        )

    def _rebuild_neighbours(self, px: float, py: float) -> list:
        """Project (px, py) onto every segment and keep, as the new list,
        those that can hold the closest point of any position within the
        skin."""
        a, seg = self.points[:-1], self._seg
        # _skin_and_reach rejects a point far enough to overflow here.
        with np.errstate(over="ignore", invalid="ignore"):
            t = ((px - a[:, 0]) * seg[:, 0] + (py - a[:, 1]) * seg[:, 1]) / self._len_sq
            t = np.clip(t, 0.0, 1.0)
            qx = a[:, 0] + t * seg[:, 0]
            qy = a[:, 1] + t * seg[:, 1]
            d2 = (qx - px) ** 2 + (qy - py) ** 2
        r0 = math.sqrt(float(np.min(d2)))
        skin, reach = _skin_and_reach(r0, px, py)
        kept = [self._segments[i] for i in np.flatnonzero(d2 <= reach * reach).tolist()]
        self._neighbours = (px, py, skin * skin, kept)
        return kept


def load_polyline(path_file: str) -> PolylinePath:
    """Load a polyline from a two-column comma-separated text file.

    Columns are x, y in meters.  Blank lines are skipped, and so is the first
    other line when it does not parse (a header); a later one raises.
    """
    rows: list[tuple[float, float]] = []
    header_allowed = True
    with open(path_file, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) < 2:
                raise ValueError(f"{path_file}:{lineno}: expected two columns")
            try:
                rows.append((float(fields[0]), float(fields[1])))
            except ValueError:
                if not header_allowed:
                    raise ValueError(f"{path_file}:{lineno}: could not parse {line!r}") from None
            header_allowed = False
    return PolylinePath(rows)
