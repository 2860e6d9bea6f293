import copy
import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from numeric_oracles import (
    dense_closest_parameter,
    dense_lookahead_parameter,
    sample_points,
    scan_lookahead_parameter,
    segment_scan_parameter,
)
from vfpath.baselines import LookaheadInfeasibleError, nlgl_virtual_target
from vfpath.paths import (
    CirclePath,
    LinePath,
    PathDomainError,
    PathFrame,
    PolylinePath,
    ReferencePath,
    SinusoidPath,
    UnboundedCurvatureError,
    load_polyline,
)
from vfpath import simulation
from vfpath.angles import wrap_angle
from vfpath.simulation import (
    GUIDANCE_LAWS,
    SCENARIO_AMPLITUDE,
    SCENARIO_PERIOD,
    ScenarioConfig,
    benchmark_scenario,
    run_trial,
)
from vfpath.vehicle import WindModel


def scenario_sinusoid():
    return SinusoidPath(SCENARIO_AMPLITUDE, SCENARIO_PERIOD)


class TestEvaluate:
    def test_line_point(self):
        line = LinePath(0.0, 0.0, 0.0)
        assert line.point(5.0) == pytest.approx((5.0, 0.0))

    def test_circle_point_at_zero(self):
        circle = CirclePath(0.0, 0.0, 100.0)
        assert circle.point(0.0) == pytest.approx((100.0, 0.0))

    def test_sinusoid_origin(self):
        path = SinusoidPath(300.0, 2.0 * math.pi)
        assert path.point(0.0) == pytest.approx((0.0, 0.0))

    def test_out_of_domain_raises(self):
        line = LinePath(0.0, 0.0, 0.0, s_min=-10.0, s_max=10.0)
        with pytest.raises(PathDomainError):
            line.point(11.0)
        path = scenario_sinusoid()
        with pytest.raises(PathDomainError):
            path.point(path.s_max + 1.0)

    def test_circle_parameter_is_periodic(self):
        circle = CirclePath(0.0, 0.0, 100.0)
        s_full = 2.0 * math.pi * 100.0
        assert circle.point(s_full + 3.0) == pytest.approx(circle.point(3.0))


# One path of each kind, for the frame_at checks.
FRAME_PATHS = {
    "line": LinePath(3.0, -2.0, 0.7, s_min=-500.0, s_max=800.0),
    "circle": CirclePath(10.0, -20.0, 300.0),
    "sinusoid": SinusoidPath(SCENARIO_AMPLITUDE, SCENARIO_PERIOD),
    "polyline": PolylinePath(
        [(0.0, 0.0), (100.0, 0.0), (150.0, 80.0), (120.0, 200.0), (-50.0, 260.0)]
    ),
}


def frame_parameters(path):
    """Both domain ends, every polyline vertex and, on the circle, 0 and the
    largest parameter below 2*pi*R, plus a lap on either side."""
    values = [path.s_min, path.s_max]
    if isinstance(path, PolylinePath):
        seg = np.diff(path.points, axis=0)
        values += np.cumsum(np.hypot(seg[:, 0], seg[:, 1])).tolist()
    if isinstance(path, CirclePath):
        values += [0.0, -0.0, math.nextafter(path.s_max, 0.0), -path.s_max, 3.0 * path.s_max]
    return values


def closed_form_tangent(path, s):
    """Tangent angle at ``s`` from each kind's defining geometry rather than
    its ``tangent_angle``; on the polyline, the heading of the segment that
    starts at a vertex, or of the last one at the end."""
    if isinstance(path, LinePath):
        return path.heading
    if isinstance(path, CirclePath):
        return s / path.radius + 0.5 * math.pi
    if isinstance(path, SinusoidPath):
        w = 2.0 * math.pi / path.period
        return math.atan(path.amplitude * w * math.cos(w * s))
    seg = np.diff(path.points, axis=0)
    cum = np.concatenate(([0.0], np.cumsum(np.hypot(seg[:, 0], seg[:, 1]))))
    i = min(int(np.searchsorted(cum, s, side="right")) - 1, len(seg) - 1)
    return math.atan2(seg[i, 1], seg[i, 0])


class TestFrameAt:
    """``frame_at`` equals, to the bit, the frame the test builds from
    ``point`` and ``tangent_angle``, and matches each kind's defining
    geometry to 1e-12 per unit of |s|."""

    @staticmethod
    def assert_frame(path, s, p):
        frame = path.frame_at(s, p)
        assert type(frame) is tuple
        rx, ry = path.point(s)
        chi_p = path.tangent_angle(s)
        ux, uy = p[0] - rx, p[1] - ry
        cross = math.cos(chi_p) * uy - math.sin(chi_p) * ux
        dist = math.hypot(ux, uy)
        d = math.copysign(dist, cross) if cross != 0.0 else dist
        composed = (s, rx, ry, chi_p, d)
        assert frame == composed
        # repr tells -0.0 from 0.0 and spells every float exactly.
        assert repr(frame) == repr(composed)
        # closest_point names the fields of frame_at's tuple at the closest
        # parameter.
        named = PathFrame(*path.frame_at(path.closest_parameter(p), p))
        assert repr(path.closest_point(p)) == repr(named)
        # The rounding of a phase such as w s grows with |s|.
        tol = 1e-12 * max(1.0, abs(s))
        x, y = sample_points(path, np.array([s]))
        _, fx, fy, frame_chi_p, _ = frame
        assert (fx, fy) == pytest.approx((x[0], y[0]), rel=0.0, abs=tol)
        assert abs(wrap_angle(frame_chi_p - closed_form_tangent(path, s))) <= tol

    @pytest.mark.parametrize("kind", FRAME_PATHS)
    def test_frame_is_a_plain_five_tuple(self, kind):
        # (s_star, px, py, chi_p, d): the side of the path is the sign of d,
        # so no slot repeats it.
        path = FRAME_PATHS[kind]
        for s in frame_parameters(path):
            frame = path.frame_at(s, (120.0, -35.0))
            assert type(frame) is tuple and len(frame) == 5
        assert PathFrame._fields == ("s_star", "px", "py", "chi_p", "d")

    @pytest.mark.parametrize("kind", FRAME_PATHS)
    def test_domain_ends_and_vertices(self, kind):
        path = FRAME_PATHS[kind]
        for s in frame_parameters(path):
            for p in ((0.0, 0.0), (120.0, -35.0), path.point(s)):
                self.assert_frame(path, s, p)

    @settings(deadline=None, max_examples=200)
    @given(
        kind=st.sampled_from(sorted(FRAME_PATHS)),
        fraction=st.floats(0.0, 1.0),
        p=st.tuples(st.floats(-2000.0, 2000.0), st.floats(-2000.0, 2000.0)),
    )
    def test_random_points(self, kind, fraction, p):
        path = FRAME_PATHS[kind]
        s = path.s_min + fraction * (path.s_max - path.s_min)
        self.assert_frame(path, min(s, path.s_max), p)

    @pytest.mark.parametrize("kind", ["line", "sinusoid", "polyline"])
    def test_outside_domain_raises_as_point(self, kind):
        path = FRAME_PATHS[kind]
        for s in (math.nextafter(path.s_min, -math.inf), math.nextafter(path.s_max, math.inf)):
            with pytest.raises(PathDomainError) as frame:
                path.frame_at(s, (0.0, 0.0))
            with pytest.raises(PathDomainError) as point:
                path.point(s)
            assert str(frame.value) == str(point.value)


class TestTangent:
    def test_line_tangent_constant(self):
        line = LinePath(0.0, 0.0, 0.3)
        for s in (-50.0, 0.0, 123.4):
            assert line.tangent_angle(s) == pytest.approx(0.3)

    def test_sinusoid_tangent_matches_finite_difference(self):
        # slope of y = 300 sin(x) at x = 0 is 300
        path = SinusoidPath(300.0, 2.0 * math.pi)
        assert path.tangent_angle(0.0) == pytest.approx(math.atan(300.0), abs=1e-12)
        h = 1e-6
        for s in (0.0, 0.5, 2.0):
            p0 = path.point(s - h)
            p1 = path.point(s + h)
            fd = math.atan2(p1[1] - p0[1], p1[0] - p0[0])
            assert path.tangent_angle(s) == pytest.approx(fd, abs=1e-6)

    def test_circle_tangent_perpendicular_to_radius(self):
        circle = CirclePath(0.0, 0.0, 100.0)
        assert circle.tangent_angle(0.0) == pytest.approx(math.pi / 2.0)

    def test_tangent_continuity_along_sinusoid(self):
        path = scenario_sinusoid()
        h = 0.5
        s = np.arange(path.s_min, path.s_max - h, 50 * h)
        for v in s:
            delta = abs(path.tangent_angle(v + h) - path.tangent_angle(v))
            assert delta < 0.01  # O(h) with max curvature ~ 6.7e-3 1/m


class TestClosestPoint:
    def test_line_perpendicular_foot(self):
        line = LinePath(0.0, 0.0, 0.0)
        frame = line.closest_point((3.0, 7.0))
        assert (frame.px, frame.py) == pytest.approx((3.0, 0.0))
        assert abs(frame.d) == pytest.approx(7.0)
        # positive d on the side of the tangent rotated +90 degrees, so that
        # d_dot = V_g sin(chi - chi_p) holds
        assert frame.d == pytest.approx(7.0)
        assert frame.d >= 0.0
        assert frame.s_star == pytest.approx(3.0)

    def test_side_indicator_flips_under_reflection(self):
        line = LinePath(2.0, -1.0, 0.7)
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = rng.uniform(-100.0, 100.0, size=2)
            f = line.closest_point(p)
            mirrored = 2.0 * np.asarray((f.px, f.py)) - p
            g = line.closest_point(mirrored)
            if abs(f.d) > 1e-9:
                assert (g.d >= 0.0) != (f.d >= 0.0)
                assert g.d == pytest.approx(-f.d, abs=1e-6)

    def test_circle_radial_projection(self):
        circle = CirclePath(0.0, 0.0, 100.0)
        frame = circle.closest_point((200.0, 0.0))
        assert (frame.px, frame.py) == pytest.approx((100.0, 0.0))
        assert abs(frame.d) == pytest.approx(100.0)

    def test_circle_center_tie_breaks_to_smallest_parameter(self):
        circle = CirclePath(0.0, 0.0, 100.0)
        frame = circle.closest_point((0.0, 0.0))
        assert frame.s_star == 0.0
        assert abs(frame.d) == pytest.approx(100.0)

    def test_sinusoid_matches_dense_sampling_oracle(self):
        path = scenario_sinusoid()
        for p in ((0.0, -200.0), (700.0, 400.0), (2000.0, -50.0)):
            frame = path.closest_point(p)
            s_oracle = dense_closest_parameter(path, p, 1_000_000)
            d_oracle = math.dist(path.point(s_oracle), p)
            assert abs(frame.d) == pytest.approx(d_oracle, abs=1e-3)

    def test_distance_is_global_minimum(self):
        rng = np.random.default_rng(11)
        for path in (scenario_sinusoid(), CirclePath(5.0, -3.0, 120.0)):
            for _ in range(5):
                p = rng.uniform(-400.0, 400.0, size=2)
                frame = path.closest_point(p)
                s_oracle = dense_closest_parameter(path, p, 10_000)
                assert math.dist(path.point(s_oracle), p) >= abs(frame.d) - 1e-9

    @settings(deadline=None, max_examples=300)
    @given(
        amplitude=st.floats(5.0, 1000.0),
        period=st.floats(50.0, 5000.0),
        x_frac=st.floats(0.0, 1.0),
        y_frac=st.floats(-1.0, 1.0),
        near_frac=st.none() | st.floats(0.0, 1.0),
    )
    def test_sinusoid_projection_is_global(
        self, amplitude, period, x_frac, y_frac, near_frac
    ):
        # Points up to 3 A off the axis and 0.2 periods past either domain end.
        path = SinusoidPath(amplitude, period)
        span = path.s_max - path.s_min
        px = path.s_min - 0.2 * period + x_frac * (span + 0.4 * period)
        p = (px, 3.0 * amplitude * y_frac)
        near = None if near_frac is None else path.s_min + near_frac * span

        def dist(s):
            return math.dist(path.point(s), p)

        d = dist(path.closest_parameter(p, near=near))
        d_oracle = dist(dense_closest_parameter(path, p, 400_000))
        assert d == pytest.approx(d_oracle, rel=1e-6, abs=1e-9)
        d_scan = dist(dense_closest_parameter(path, p, 2048))
        assert d <= d_scan + 1e-9 * max(1.0, d_scan)

    def test_perpendicularity_at_interior_minimum(self):
        path = scenario_sinusoid()
        frame = path.closest_point((500.0, 100.0))
        tx, ty = math.cos(frame.chi_p), math.sin(frame.chi_p)
        ux, uy = 500.0 - frame.px, 100.0 - frame.py
        dot = tx * ux + ty * uy
        assert abs(dot) < 1e-3 * max(1.0, abs(frame.d))

    def test_tracked_search_matches_untracked(self):
        path = scenario_sinusoid()
        rng = np.random.default_rng(3)
        p = np.array([100.0, 250.0])
        s_prev = path.closest_parameter(p)
        for _ in range(200):
            p = p + rng.uniform(-2.0, 2.0, size=2)
            untracked = path.closest_parameter(p)
            tracked = path.closest_parameter(p, near=s_prev)
            assert tracked == pytest.approx(untracked, abs=1e-9)
            s_prev = tracked

    def test_non_finite_position_rejected(self):
        with pytest.raises(ValueError):
            LinePath(0, 0, 0).closest_point((math.nan, 0.0))

    @pytest.mark.parametrize(
        "path",
        [
            LinePath(0.0, 0.0, 0.3),
            CirclePath(1.0, 2.0, 50.0),
            PolylinePath([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0)]),
            SinusoidPath(5.0, 273.0),
        ],
        ids=["line", "circle", "polyline", "sinusoid"],
    )
    @pytest.mark.parametrize("bad", [(math.nan, 0.0), (1.0, math.inf), (-math.inf, math.nan)])
    def test_projection_rejects_non_finite_position(self, path, bad):
        with pytest.raises(ValueError, match="finite"):
            path.closest_parameter(bad)

    @pytest.mark.parametrize("kind", sorted(FRAME_PATHS))
    @pytest.mark.parametrize("p", [(1e200, 0.0), (1e155, 1e155), (1.2e154, 0.0)])
    @pytest.mark.parametrize("near", [None, 0.0])
    def test_far_finite_position_gives_frame_or_value_error(self, kind, p, near):
        # The line and circle project a point this far in closed form; the
        # sinusoid and polyline square its distance, which overflows, and
        # say so, naming the point, with no numpy warning.
        path = copy.deepcopy(FRAME_PATHS[kind])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if kind in ("line", "circle"):
                d = path.frame_at(path.closest_parameter(p, near=near), p)[4]
                assert abs(d) == pytest.approx(math.hypot(*p), rel=1e-9)
            else:
                with pytest.raises(ValueError, match=re.escape(f"point ({p[0]!r}, {p[1]!r})")):
                    path.closest_parameter(p, near=near)

    def test_generic_refine_reaches_float_precision(self):
        # A refine on the distance's value cannot place s* this finely (it was
        # 1.4e-6 off here): the distance is too flat at its minimum.  The
        # oracle's refine on the tangent displacement places it from 2048
        # samples as well as from 400 000.
        path = SinusoidPath(5.0, 273.0)
        for s0 in (100.0, 500.0, 1000.0):
            x0, y0 = path.point(s0)
            chi = path.tangent_angle(s0)
            p = (x0 - 136.5 * math.sin(chi), y0 + 136.5 * math.cos(chi))
            oracle = dense_closest_parameter(path, p, 400_000)
            assert dense_closest_parameter(path, p, 2048) == pytest.approx(oracle, abs=1e-9)


class TestWarmStart:
    """Warm-started sinusoid projection against the global scan."""

    @staticmethod
    def offset_point(path, s0, offset):
        x0, y0 = path.point(s0)
        chi = path.tangent_angle(s0)
        return (x0 - offset * math.sin(chi), y0 + offset * math.cos(chi))

    def test_certified_radius_of_benchmark_path(self):
        # R_min = 150 m and A * omega = sqrt(2): r_cert = 150 / (1 + 2 sqrt(2)).
        path = scenario_sinusoid()
        assert path.r_cert == pytest.approx(150.0 / (1.0 + 2.0 * math.sqrt(2.0)))

    @settings(deadline=None)
    @given(
        amplitude=st.floats(5.0, 1000.0),
        period=st.floats(50.0, 5000.0),
        s_frac=st.floats(0.0, 1.0),
        offset_frac=st.floats(-0.99, 0.99),
        near_frac=st.floats(-0.1, 0.1),
    )
    def test_accepted_within_certified_radius(
        self, amplitude, period, s_frac, offset_frac, near_frac
    ):
        path = SinusoidPath(amplitude, period)
        # s0 at least a period from either end; offsets no larger than a
        # period so the point stays beside that stretch of the path.
        s0 = path.s_min + period + s_frac * (path.s_max - path.s_min - 2.0 * period)
        scale = min(path.r_cert, period)
        px, py = self.offset_point(path, s0, offset_frac * scale)
        near = s0 + near_frac * scale
        s_newton = path._newton(near, path.s_min, path.s_max, px, py)
        assert s_newton is not None
        assert path._distance_sq(s_newton, px, py) < path.r_cert**2
        warm = path.closest_parameter((px, py), near=near)
        full = dense_closest_parameter(path, (px, py), 400_000)
        assert warm == pytest.approx(full, abs=1e-6)

    @settings(deadline=None)
    @given(
        amplitude=st.floats(5.0, 1000.0),
        period=st.floats(50.0, 5000.0),
        s_frac=st.floats(0.0, 1.0),
        offset_frac=st.floats(1.0, 1.5),
        side=st.sampled_from((-1.0, 1.0)),
        near_offset=st.floats(-100.0, 100.0),
    )
    def test_never_farther_than_global_scan(
        self, amplitude, period, s_frac, offset_frac, side, near_offset
    ):
        path = SinusoidPath(amplitude, period)
        # s_frac = 1 can round one ulp past s_max.
        s0 = min(path.s_min + s_frac * (path.s_max - path.s_min), path.s_max)
        p = self.offset_point(path, s0, side * offset_frac * path.r_cert)

        def dist(s):
            x, y = path.point(s)
            return math.hypot(x - p[0], y - p[1])

        warm = dist(path.closest_parameter(p, near=s0 + near_offset))
        full = dist(dense_closest_parameter(path, p, 2048))
        assert warm <= full + 1e-9 * max(1.0, full)

    @pytest.mark.parametrize("law", GUIDANCE_LAWS)
    def test_tracking_matches_global_scan_along_trial(self, law):
        calls = []

        class RecordingSinusoid(SinusoidPath):
            def closest_parameter(self, p, near=None):
                self.searched = False
                basin = self._basin
                s_star = super().closest_parameter(p, near)
                calls.append((p, near, s_star, self.searched, basin))
                return s_star

            def _search_convex_pieces(self, *args):
                self.searched = True
                return super()._search_convex_pieces(*args)

            def _rebuild_basin(self, *args):
                # A rebuild searches the pieces beside the basin; that is no
                # branch of the projection.
                searched = self.searched
                super()._rebuild_basin(*args)
                self.searched = searched

        path = RecordingSinusoid(SCENARIO_AMPLITUDE, SCENARIO_PERIOD)
        # nlgl starts inside its look-ahead distance, as ``vfpath compare`` runs it.
        d0 = 80.0 if law == "nlgl" else 200.0
        traj, _ = run_trial(benchmark_scenario(law, path=path, d0=d0))
        tracked = [call for call in calls if call[1] is not None]
        assert len(tracked) == len(traj) - 1
        branches = Counter()
        for p, near, s_star, searched, (x0, y0, skin_sq, a, b) in tracked:
            full = dense_closest_parameter(path, p, 2048)
            assert s_star == pytest.approx(full, abs=1e-5)
            s_newton = path._newton(near, path.s_min, path.s_max, p[0], p[1])
            if searched:
                branches["convex pieces"] += 1
            elif path._distance_sq(s_newton, p[0], p[1]) < path.r_cert**2:
                branches["r_cert"] += 1
            else:
                assert (p[0] - x0) ** 2 + (p[1] - y0) ** 2 <= skin_sq and a <= s_newton <= b
                branches["basin"] += 1
        if law == "switched":
            # Every branch of the projection resolves some step of the capture.
            assert set(branches) == {"r_cert", "basin", "convex pieces"}

    @settings(deadline=None, max_examples=50)
    @given(
        amplitude=st.floats(5.0, 1000.0),
        period=st.floats(50.0, 5000.0),
        x_periods=st.floats(-0.5, 6.0),
        y_amplitudes=st.floats(-3.0, 3.0),
        steps=st.lists(
            st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)), min_size=1, max_size=40
        ),
    )
    # The second call rebuilds at (650, 140), 40 m above a crest, with a
    # 5 m skin; the third lies exactly one skin on and uses that basin.
    @example(
        amplitude=100.0, period=200.0, x_periods=3.25, y_amplitudes=1.4,
        steps=[(0.0, 0.0), (5.0, 0.0), (0.0, 0.1)],
    )
    def test_basin_never_changes_an_answer(
        self, amplitude, period, x_periods, y_amplitudes, steps
    ):
        # A tracked walk on one path object, whose basin follows the walk,
        # gives at every step the answer of a fresh path with no basin.
        path = SinusoidPath(amplitude, period)
        px, py = x_periods * period, y_amplitudes * amplitude

        def dist(s):
            x, y = path.point(s)
            return math.hypot(x - px, y - py)

        near = None
        for dx, dy in [(0.0, 0.0), *steps]:
            px, py = px + dx, py + dy
            s_star = path.closest_parameter((px, py), near)
            assert s_star == SinusoidPath(amplitude, period).closest_parameter((px, py), near)
            full = dist(dense_closest_parameter(path, (px, py), 2048))
            assert dist(s_star) <= full + 1e-9 * max(1.0, full)
            near = s_star

    def test_basin_reaches_each_branch(self):
        class RecordingSinusoid(SinusoidPath):
            def closest_parameter(self, p, near=None):
                self.events = []
                return super().closest_parameter(p, near)

            def _convex_on(self, lo, hi, py):
                convex = super()._convex_on(lo, hi, py)
                self.events.append(convex)
                return convex

            def _search_convex_pieces(self, *args):
                self.events.append("search")
                return super()._search_convex_pieces(*args)

            def _rebuild_basin(self, px, py, s0):
                n = len(self.events)
                super()._rebuild_basin(px, py, s0)
                # (A) is the rebuild's convexity tests; (B) runs after them.
                if self._basin[3] <= self._basin[4]:
                    self.events.append("rebuild")
                elif False in self.events[n:]:
                    self.events.append("refused (A)")
                else:
                    self.events.append("refused (B)")

        path = RecordingSinusoid(100.0, 1000.0)
        # Crest at (250, 100); its centre of curvature lies R = 253 m below.
        crest_x, crest_y, radius = 250.0, 100.0, 1.0 / path._kappa_max
        # (p, near or None for the previous answer, branch of the call)
        steps = [
            # 200 m above the crest, farther than r_cert (112 m): the first
            # tracked call certifies a basin, and the next reuses it.
            ((crest_x, crest_y + 200.0), crest_x, "rebuild"),
            ((crest_x + 1.0, crest_y + 201.0), None, "hit"),
            # Just above the centre of curvature: the crest is convex at this
            # height but not at the skin's lower edge, so (A) fails.
            ((crest_x, crest_y - radius + 7.0), crest_x, "refused (A)"),
            # Past the centre: the crest's flanks hold two minima within
            # reach of each other, so (B) fails.
            ((crest_x + 12.0, crest_y - radius - 50.0), crest_x, "refused (B)"),
            # Within that skin the nearer flank swaps sides.  Newton from the
            # previous answer stays on the far flank, a local minimum only,
            # and the empty basin sends the call to the piece search.
            ((crest_x - 5.0, crest_y - radius - 50.0), None, "search"),
        ]
        s_star = None
        for p, near, branch in steps:
            near = s_star if near is None else near
            s_star = path.closest_parameter(p, near)
            if branch == "hit":
                assert path.events == []
                assert path._distance_sq(s_star, *p) > path.r_cert**2
            else:
                assert path.events[-1] == branch
            assert s_star == SinusoidPath(100.0, 1000.0).closest_parameter(p, near)
            assert s_star == pytest.approx(dense_closest_parameter(path, p, 4096), abs=1e-6)


@st.composite
def polylines(draw):
    """Random polylines; either a random walk whose turns reach +-pi, or a
    hairpin whose two legs, far apart in parameter, run ``gap`` apart."""
    if draw(st.booleans()):
        heading = draw(st.floats(-math.pi, math.pi))
        pts = [(draw(st.floats(-1e4, 1e4)), draw(st.floats(-1e4, 1e4)))]
        for _ in range(draw(st.integers(1, 40))):
            heading += draw(st.floats(-math.pi, math.pi))
            length = draw(st.floats(0.5, 60.0))
            x, y = pts[-1]
            pts.append((x + length * math.cos(heading), y + length * math.sin(heading)))
        return pts
    n = draw(st.integers(1, 20))
    seg = draw(st.sampled_from((1.0, 7.5, 20.0)))
    gap = draw(st.sampled_from((0.25, 2.0, 10.0, 40.0)))
    out = [(seg * k, 0.0) for k in range(n + 1)]
    back = [(seg * k, gap) for k in range(n, -1, -1)]
    return out + back


@st.composite
def walks(draw):
    """(start parameter fraction, start offset, steps (length, heading)): steps
    from 0 to several skins, the skin being at least 5 m."""
    steps = st.tuples(
        st.one_of(st.just(0.0), st.floats(0.0, 5.0), st.floats(0.0, 60.0)),
        st.floats(-math.pi, math.pi),
    )
    return (
        draw(st.floats(0.0, 1.0)),
        (draw(st.floats(-150.0, 150.0)), draw(st.floats(-150.0, 150.0))),
        draw(st.lists(steps, min_size=1, max_size=40)),
    )


class TestPolyline:
    def test_validation(self):
        with pytest.raises(ValueError):
            PolylinePath([(0.0, 0.0)])
        with pytest.raises(ValueError):
            PolylinePath([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)])
        with pytest.raises(ValueError, match="vertex 1"):
            PolylinePath([(0.0, 0.0), (math.nan, 5.0), (1.0, 0.0)])
        with pytest.raises(ValueError, match="vertex 2"):
            PolylinePath([(0.0, 0.0), (1.0, 0.0), (1.0, math.inf)])
        # Segment i's squared length underflows to 0 or overflows, or its
        # length overflows; no numpy warning on the way.
        for i, points in [
            (0, [(0.0, 0.0), (1e-300, 0.0), (1.0, 0.0)]),
            (1, [(0.0, 0.0), (1.0, 0.0), (1.0, 1e-170)]),
            (0, [(0.0, 0.0), (1e200, 0.0)]),
            (0, [(-1e308, 0.0), (1e308, 0.0)]),
        ]:
            with pytest.raises(ValueError, match=f"segment {i} from vertex {i} .* to vertex {i + 1}"):
                PolylinePath(points)

    def test_point_and_tangent(self):
        poly = PolylinePath([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0)])
        assert poly.point(5.0) == pytest.approx((5.0, 0.0))
        assert poly.point(15.0) == pytest.approx((10.0, 5.0))
        assert poly.tangent_angle(5.0) == pytest.approx(0.0)
        assert poly.tangent_angle(15.0) == pytest.approx(math.pi / 2.0)

    def test_closest_point_exact_projection(self):
        poly = PolylinePath([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0)])
        frame = poly.closest_point((4.0, 3.0))
        assert (frame.px, frame.py) == pytest.approx((4.0, 0.0))
        assert abs(frame.d) == pytest.approx(3.0)
        # beyond the last vertex the endpoint is closest; |d| is Euclidean
        frame = poly.closest_point((13.0, 14.0))
        assert (frame.px, frame.py) == pytest.approx((10.0, 10.0))
        assert abs(frame.d) == pytest.approx(5.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        pts = np.cumsum(rng.uniform(-20.0, 20.0, size=(12, 2)), axis=0)
        poly = PolylinePath(pts)
        s_dense = np.linspace(poly.s_min, poly.s_max, 200_001)
        gx, gy = sample_points(poly, s_dense)
        for _ in range(20):
            p = rng.uniform(-80.0, 80.0, size=2)
            frame = poly.closest_point(p)
            d_oracle = np.min(np.hypot(gx - p[0], gy - p[1]))
            assert abs(frame.d) == pytest.approx(d_oracle, abs=1e-3)

    @staticmethod
    def hairpin(gap):
        """Out along y = 0 for 1000 m, a turn of ``gap`` m, back along y = gap."""
        pts = [(20.0 * k, 0.0) for k in range(51)]
        return PolylinePath(pts + [(20.0 * k, gap) for k in range(50, -1, -1)])

    def test_neighbour_list_used_past_skin_returns_wrong_segment(self):
        path = self.hairpin(221.0)
        # From (500, 100), r0 = 100 m and skin = 10 m: the list keeps what
        # lies within 120 m, the lower leg only (the upper is 121 m off).
        assert path.closest_parameter((500.0, 100.0)) == 500.0
        x0, y0, skin_sq, kept = path._neighbours
        assert (x0, y0, skin_sq) == (500.0, 100.0, 100.0)
        # 1.3 skins on, the upper leg is the nearer, 108 m against 113 m.
        p = (500.0, 113.0)
        assert path.closest_parameter(p) == segment_scan_parameter(path, p) == 1721.0
        # On the midline both legs tie; the smaller parameter wins.
        assert path.closest_parameter((500.0, 110.5)) == 500.0
        # The first list, kept past the skin, misses the upper leg.
        path._neighbours = (x0, y0, math.inf, kept)
        assert path.closest_parameter(p) == 500.0

    def test_neighbour_list_holds_at_the_skin(self):
        path = self.hairpin(218.0)
        # From (500, 100) the upper leg, 118 m off, is kept although the
        # lower leg, 100 m off, is the nearer.
        assert path.closest_parameter((500.0, 100.0)) == 500.0
        # Exactly one skin on, the list is reused, and the upper leg, now
        # 108 m off against 110 m, is the nearest.
        path._rebuild_neighbours = None
        assert path.closest_parameter((500.0, 110.0)) == 1718.0

    @settings(deadline=None, max_examples=150)
    @given(
        pts=polylines(),
        walks=st.lists(walks(), min_size=1, max_size=2),
    )
    def test_neighbour_list_matches_full_scan(self, pts, walks):
        # One or two callers stepping along their walks, interleaved on one
        # path object; every result must be the full scan's, bit for bit.
        path = PolylinePath(pts)
        starts = []
        for s_frac, offset, _ in walks:
            x, y = path.point(s_frac * path.s_max)
            starts.append([x + offset[0], y + offset[1]])
        for k in range(max(len(w[2]) for w in walks)):
            for p, (_, _, steps) in zip(starts, walks):
                if k < len(steps):
                    length, heading = steps[k]
                    p[0] += length * math.cos(heading)
                    p[1] += length * math.sin(heading)
                    assert path.closest_parameter(p) == segment_scan_parameter(path, p)

    def test_load_polyline(self, tmp_path):
        f = tmp_path / "path.csv"
        f.write_text("x,y\n0,0\n10,0\n10,10\n")
        poly = load_polyline(str(f))
        assert poly.s_max == pytest.approx(20.0)
        f2 = tmp_path / "noheader.csv"
        f2.write_text("0,0\n5,5\n")
        assert load_polyline(str(f2)).s_max == pytest.approx(math.hypot(5, 5))
        f3 = tmp_path / "bad.csv"
        f3.write_text("0,0\nnope,5\n")
        with pytest.raises(ValueError):
            load_polyline(str(f3))

    def test_load_polyline_header_after_blank_lines(self, tmp_path):
        f = tmp_path / "path.csv"
        f.write_text("\nx,y\n0,0\n100,0\n")
        assert load_polyline(str(f)).s_max == 100.0
        bad = tmp_path / "bad.csv"
        bad.write_text("\n\nx,y\n0,0\nnope,5\n")
        with pytest.raises(ValueError, match=r"bad\.csv:5: could not parse 'nope,5'"):
            load_polyline(str(bad))


# The default nlgl look-ahead distance (m).
L1 = 110.0


def lookahead(path, p, l1=L1):
    """Closest-point frame of p and the path's look-ahead answer for it."""
    frame = path.closest_point(p)
    return frame, path.lookahead_parameter(frame.s_star, p[0], p[1], l1)


def scan_or_none(path, frame, p, l1=L1):
    try:
        return scan_lookahead_parameter(path, frame.s_star, p, l1)
    except LookaheadInfeasibleError:
        return None


class TestLookahead:
    """Each path kind's exact look-ahead root against a dense sign-change
    oracle and the 257-point scan, with the cases where the scan differs."""

    @staticmethod
    def window(path, frame, l1=L1):
        """The scan's window [s* - 2.5 l1, s* + 2.5 l1] within the domain."""
        span = 2.5 * l1
        return max(frame.s_star - span, path.s_min), min(frame.s_star + span, path.s_max)

    @staticmethod
    def assert_matches_oracle(path, p, lo, hi, l1=L1):
        frame, s_t = lookahead(path, p, l1)
        oracle = dense_lookahead_parameter(path, p, l1, lo, hi, 20001)
        if oracle is None:
            assert s_t is None
        else:
            assert s_t == pytest.approx(oracle, abs=1e-6)
        return frame, s_t

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        heading=st.floats(-math.pi, math.pi),
        s_min=st.floats(-500.0, 0.0),
        length=st.floats(10.0, 1000.0),
        u_frac=st.floats(0.0, 1.0),
        e=st.floats(-109.0, 109.0),
    )
    def test_line_matches_oracle_and_scan(self, heading, s_min, length, u_frac, e):
        # Points up to L1 past either end of the domain.
        line = LinePath(3.0, -2.0, heading, s_min=s_min, s_max=s_min + length)
        u = s_min - L1 + u_frac * (length + 2.0 * L1)
        c, s = math.cos(line.heading), math.sin(line.heading)
        p = (3.0 + u * c - e * s, -2.0 + u * s + e * c)
        frame = line.closest_point(p)
        assume(abs(frame.d) < L1)
        _, s_t = self.assert_matches_oracle(line, p, *self.window(line, frame))
        s_scan = scan_or_none(line, frame, p)
        assert (s_t is None) == (s_scan is None)
        if s_t is not None:
            assert s_t == pytest.approx(s_scan, abs=1e-4)

    def test_line_past_either_end_takes_largest_root_in_domain(self):
        # The roots are u +- sqrt(L1^2 - e^2) with u unclamped; the clamped
        # s* + sqrt(L1^2 - d^2) would be 193.3 here, off the path.
        line = LinePath(0.0, 0.0, 0.0, s_min=0.0, s_max=100.0)
        p = (150.0, 30.0)
        frame, s_t = lookahead(line, p)
        assert frame.s_star == 100.0
        assert s_t == 150.0 - math.sqrt(L1**2 - 30.0**2)
        assert s_t == pytest.approx(44.17, abs=5e-3)
        assert s_t == pytest.approx(scan_lookahead_parameter(line, frame.s_star, p, L1), abs=1e-4)
        frame, s_t = lookahead(line, (-40.0, 20.0))
        assert frame.s_star == 0.0
        assert s_t == -40.0 + math.sqrt(L1**2 - 20.0**2)
        # A domain the look-ahead circle holds whole has no root.
        assert lookahead(LinePath(0.0, 0.0, 0.0, s_min=0.0, s_max=10.0), (5.0, 1.0))[1] is None

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        radius=st.floats(5.0 * L1 / (2.0 * math.pi), 1000.0),
        theta=st.floats(-math.pi, math.pi),
        r_frac=st.floats(0.0, 1.0),
    )
    def test_circle_matches_oracle_and_scan(self, radius, theta, r_frac):
        # One lap around s* holds both crossings; the largest is the hook's.
        # Near tangency the two merge and move as the square root of a
        # rounding, so the draws keep |d| 1 m below L1.
        circle = CirclePath(40.0, -70.0, radius)
        r = max(radius - L1, 0.0) + r_frac * (min(radius, L1) + L1)
        p = (40.0 + r * math.cos(theta), -70.0 + r * math.sin(theta))
        frame = circle.closest_point(p)
        assume(abs(frame.d) < L1 - 1.0)
        lap = circle.s_max
        _, s_t = self.assert_matches_oracle(
            circle, p, frame.s_star - 0.5 * lap, frame.s_star + 0.5 * lap
        )
        s_scan = scan_or_none(circle, frame, p)
        if s_scan is None:
            # The scan misses only what lies beyond its window.
            assert s_t is None or s_t - frame.s_star > 2.5 * L1
        else:
            assert s_t == pytest.approx(s_scan, abs=1e-4)

    def test_circle_answers_within_the_lap(self):
        # R = 70 m: the window, longer than the lap, also holds the backward
        # crossing one lap on, which the scan takes; the hook stays in the lap.
        circle = CirclePath(0.0, 0.0, 70.0)
        p = (45.0 * math.cos(1.0), 45.0 * math.sin(1.0))
        frame, s_t = lookahead(circle, p)
        arc = 70.0 * math.acos((70.0**2 + 45.0**2 - L1**2) / (2.0 * 70.0 * 45.0))
        lap = circle.s_max
        assert s_t == pytest.approx(frame.s_star + arc, abs=1e-9)
        oracle = dense_lookahead_parameter(
            circle, p, L1, frame.s_star - 0.5 * lap, frame.s_star + 0.5 * lap, 20001
        )
        assert s_t == pytest.approx(oracle, abs=1e-6)
        scan = scan_lookahead_parameter(circle, frame.s_star, p, L1)
        assert scan == pytest.approx(frame.s_star - arc + lap, abs=1e-4)
        # R = 100 m, 10.5 m from the centre: the crossing is 281 m of arc
        # ahead, beyond the window, and the scan finds none.
        circle = CirclePath(0.0, 0.0, 100.0)
        p = (10.5, 0.0)
        frame, s_t = lookahead(circle, p)
        arc = 100.0 * math.acos((100.0**2 + 10.5**2 - L1**2) / (2.0 * 100.0 * 10.5))
        assert s_t == pytest.approx(arc, abs=1e-9) and arc > 2.5 * L1
        with pytest.raises(LookaheadInfeasibleError):
            scan_lookahead_parameter(circle, frame.s_star, p, L1)

    @pytest.mark.parametrize("p", [(30.0, 0.0), (0.0, 0.0)], ids=["r_plus_R_below_L1", "centre"])
    def test_circle_inside_lookahead_is_infeasible(self, p):
        circle = CirclePath(0.0, 0.0, 50.0)
        frame, s_t = lookahead(circle, p)
        assert s_t is None
        with pytest.raises(LookaheadInfeasibleError, match="no look-ahead intersection found"):
            nlgl_virtual_target(circle, frame, p, L1)

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(
        pts=polylines(),
        s_frac=st.floats(0.0, 1.0),
        offset=st.tuples(st.floats(-150.0, 150.0), st.floats(-150.0, 150.0)),
    )
    def test_polyline_matches_oracle(self, pts, s_frac, offset):
        path = PolylinePath(pts)
        x, y = path.point(s_frac * path.s_max)
        p = (x + offset[0], y + offset[1])
        frame = path.closest_point(p)
        assume(abs(frame.d) < L1)
        self.assert_matches_oracle(path, p, *self.window(path, frame))

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        heading=st.floats(-math.pi, math.pi),
        legs=st.lists(
            st.tuples(st.floats(20.0, 200.0), st.floats(-0.5, 0.5)), min_size=1, max_size=20
        ),
        s_frac=st.floats(0.0, 1.0),
        offset=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
    )
    def test_gentle_polyline_matches_scan(self, heading, legs, s_frac, offset):
        # Turns of at most 0.5 rad keep roots apart beyond the scan's step.
        pts = [(0.0, 0.0)]
        for length, turn in legs:
            heading += turn
            x, y = pts[-1]
            pts.append((x + length * math.cos(heading), y + length * math.sin(heading)))
        path = PolylinePath(pts)
        x, y = path.point(s_frac * path.s_max)
        p = (x + offset[0], y + offset[1])
        frame, s_t = lookahead(path, p)
        assume(abs(frame.d) < L1)
        s_scan = scan_or_none(path, frame, p)
        assert (s_t is None) == (s_scan is None)
        if s_t is not None:
            assert s_t == pytest.approx(s_scan, abs=1e-4)

    def test_polyline_hairpin_and_ends(self):
        path = TestPolyline.hairpin(40.0)  # s_max = 2040
        half_chord = math.sqrt(L1**2 - 20.0**2)
        cases = [
            # Near the turn: the forward root is on the return leg.
            ((950.0, 20.0), 950.0, 1040.0 + 1000.0 - (950.0 - half_chord)),
            # Before the first vertex.
            ((-50.0, 20.0), 0.0, -50.0 + half_chord),
            # Past the last vertex: the largest root lies behind s*.
            ((-50.0, 60.0), 2040.0, 2040.0 - (-50.0 + half_chord)),
        ]
        for p, s_star, expected in cases:
            frame, s_t = lookahead(path, p)
            assert frame.s_star == s_star
            assert s_t == pytest.approx(expected, abs=1e-9)
            self.assert_matches_oracle(path, p, *self.window(path, frame))
            scan = scan_lookahead_parameter(path, frame.s_star, p, L1)
            assert s_t == pytest.approx(scan, abs=1e-4)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        amplitude=st.floats(5.0, 300.0),
        period=st.floats(50.0, 1000.0),
        l1=st.floats(10.0, 300.0),
        x_frac=st.floats(-0.99, 1.0),
        y_frac=st.floats(-2.0, 2.0),
    )
    def test_sinusoid_past_end_matches_oracle(self, amplitude, period, l1, x_frac, y_frac):
        # px + l1 past s_max; every root lies in [px - l1, px + l1].
        path = SinusoidPath(amplitude, period)
        p = (path.s_max + x_frac * l1, y_frac * amplitude)
        frame = path.closest_point(p)
        assume(abs(frame.d) < l1)
        self.assert_matches_oracle(path, p, max(p[0] - l1, path.s_min), path.s_max, l1)

    @pytest.mark.parametrize(
        "amplitude, period, l1, p, branch",
        [
            (300.0, SCENARIO_PERIOD, 110.0, (6.0 * SCENARIO_PERIOD + 50.0, 0.0), "behind"),
            (82.0, 333.0, 246.0, (1800.0, 33.0), "behind"),
            (250.0, 144.0, 140.0, (863.0, 120.0), "ahead"),
            (42.0, 72.0, 262.0, (198.0, 19.0), "none"),
        ],
    )
    def test_sinusoid_past_end_below_l1_at_s_max(self, amplitude, period, l1, p, branch):
        # h(s_max) < 0: the last root is a falling crossing behind s* or
        # ahead of it, or, when the circle holds the whole path, none.
        path = SinusoidPath(amplitude, period)
        assert path._distance_sq(path.s_max, *p) < l1 * l1
        frame, s_t = self.assert_matches_oracle(
            path, p, max(p[0] - l1, path.s_min), path.s_max, l1
        )
        if branch == "none":
            assert s_t is None
        else:
            assert (s_t < frame.s_star) == (branch == "behind")

    @pytest.mark.parametrize(
        "path, p",
        [
            (LinePath(0.0, 0.0, 0.0), (30.0, L1)),
            (LinePath(0.0, 0.0, 0.0, s_min=0.0, s_max=100.0), (166.0, 88.0)),
            (CirclePath(0.0, 0.0, 100.0), (210.0, 0.0)),
        ],
        ids=["line", "line_past_end", "circle"],
    )
    def test_tangency_returns_closest_point(self, path, p):
        frame = path.closest_point(p)
        assert abs(frame.d) == L1
        assert nlgl_virtual_target(path, frame, p, L1) == (frame.s_star, (frame.px, frame.py))

    def test_bare_path_kind_answers_neither_query(self):
        class Bare(ReferencePath):
            s_min, s_max = 0.0, 100.0

            def _pose(self, s):
                return (s, 0.0, 0.0)

        path = Bare()
        with pytest.raises(NotImplementedError):
            path.closest_parameter((50.0, 10.0))
        frame = path.frame_at(50.0, (50.0, 10.0))
        with pytest.raises(NotImplementedError):
            path.lookahead_parameter(50.0, 50.0, 10.0, L1)
        with pytest.raises(NotImplementedError):
            nlgl_virtual_target(path, frame, (50.0, 10.0), L1)
        with pytest.raises(NotImplementedError):
            path.peak_curvature()


def course_rate_frames(monkeypatch, path, s0, dt=0.01, max_time=2.0):
    """Run a switched-law trial from the path at s0, on course with its
    tangent, and return each step's (chi_p, chi_p_dot) as the law saw them."""
    seen = []
    law = simulation.commanded_course

    def recording(chi, frame, chi_p_dot, *args):
        seen.append((frame[3], chi_p_dot))
        return law(chi, frame, chi_p_dot, *args)

    monkeypatch.setattr(simulation, "commanded_course", recording)
    config = ScenarioConfig(
        path=path, wind=WindModel(0, 0), d0=0.0, s0=s0, chi0=path.tangent_angle(s0),
        dt=dt, max_time=max_time, stop_when_converged=False,
    )
    traj, _ = run_trial(config)
    assert len(seen) == len(traj)
    return seen


class TestCourseRate:
    """``run_trial`` fills each frame's path course rate by finite difference.

    The circle trial starts 0.15 rad before the top of an R = 100 m circle and
    runs 2 s at 15 m/s (0.3 rad), so its tangent crosses +-pi."""

    CIRCLE = CirclePath(0.0, 0.0, 100.0)
    S0 = 100.0 * (0.5 * math.pi - 0.15)

    def test_finite_difference(self, monkeypatch):
        seen = course_rate_frames(monkeypatch, self.CIRCLE, self.S0)
        for (chi_prev, _), (chi_p, rate) in zip(seen, seen[1:]):
            assert rate == wrap_angle(chi_p - chi_prev) / 0.01

    def test_wrap_across_pi(self, monkeypatch):
        seen = course_rate_frames(monkeypatch, self.CIRCLE, self.S0)
        chi_p = np.array([c for c, _ in seen])
        assert np.any(np.abs(np.diff(chi_p)) > math.pi)  # the tangent wraps
        rates = np.array([r for _, r in seen[1:]])
        assert np.allclose(rates, 15.0 / 100.0, rtol=0.01)

    def test_first_step_and_bad_dt(self, monkeypatch):
        seen = course_rate_frames(monkeypatch, self.CIRCLE, self.S0)
        assert seen[0][1] == 0.0
        with pytest.raises(ValueError):
            ScenarioConfig(path=self.CIRCLE, dt=0.0)

    def test_straight_line_rate_is_zero(self, monkeypatch):
        seen = course_rate_frames(monkeypatch, LinePath(0, 0, 0.4), 10.0)
        assert all(rate == 0.0 for _, rate in seen)

    def test_reversed_tangent_rate_wraps_minus_pi(self, monkeypatch):
        # The second leg doubles back over the first: at the vertex the
        # tangent turns from pi/2 to -pi/2, a change of exactly -pi, which
        # the wrap keeps at -pi (remainder's tie goes to the even quotient 0).
        dt = 0.01
        path = PolylinePath([(0.0, 0.0), (0.0, 100.0), (0.0, 0.0)])
        seen = course_rate_frames(monkeypatch, path, 90.0, dt=dt, max_time=1.0)
        assert (0.5 * math.pi, 0.0) in seen
        for (prev, _), (chi_p, rate) in zip(seen, seen[1:]):
            assert rate == wrap_angle(chi_p - prev) / dt
        assert (-0.5 * math.pi, -math.pi / dt) in seen

    def test_circle_traversal_rate_constant(self, monkeypatch):
        # On a circle ridden at V_g = 15 m/s the rate is V_g / R.
        seen = course_rate_frames(monkeypatch, self.CIRCLE, 0.0)
        rates = np.array([r for _, r in seen[1:]])
        assert np.allclose(rates, 15.0 / 100.0, rtol=0.01)


class TestMaxCourseRate:
    """The peak path course rate at 15 m/s, stated as the path's peak
    curvature: the rate divided by 15 m/s."""

    def test_line_zero(self):
        assert LinePath(0, 0, 0).peak_curvature() == 0.0

    def test_circle(self):
        kappa = CirclePath(0, 0, 100.0).peak_curvature()
        assert kappa == pytest.approx(0.15 / 15.0, rel=1e-12)

    def test_scenario_sinusoid_bound(self):
        kappa = scenario_sinusoid().peak_curvature()
        assert kappa == pytest.approx(0.1 / 15.0, rel=1e-12)

    def test_sinusoid_without_crest_peaks_at_an_end(self):
        # On [0, P/8], ws runs from 0 to pi/4, where (Aw)^2 cos^2 ws = 1 on
        # the benchmark sinusoid: A w^2 sin(pi/4) / 2^(3/2) = A w^2 / 4.
        path = SinusoidPath(SCENARIO_AMPLITUDE, SCENARIO_PERIOD, 0.0, SCENARIO_PERIOD / 8.0)
        assert path.peak_curvature() == pytest.approx(0.025 / 15.0, rel=1e-12)

    def test_collinear_polyline_zero(self):
        path = PolylinePath([(0.0, 0.0), (100.0, 50.0), (300.0, 150.0), (400.0, 200.0)])
        assert path.peak_curvature() == 0.0

    def test_polyline_corner_unbounded(self):
        path = PolylinePath([(0.0, 0.0), (100.0, 0.0), (200.0, 10.0), (200.0, 100.0)])
        with pytest.raises(UnboundedCurvatureError, match=r"vertex 2 \(200, 10\) turns 1\.4711"):
            path.peak_curvature()

    def test_polyline_tiny_corner_prints_its_turn(self):
        # A 1e-10 rad turn is a corner too, and its size is printed, not 0.
        path = PolylinePath([(0.0, 0.0), (1e-150, 0.0), (2e-150, 1e-160)])
        with pytest.raises(UnboundedCurvatureError, match=r"vertex 1 \(1e-150, 0\) turns 1e-10 rad"):
            path.peak_curvature()
