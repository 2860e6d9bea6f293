import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numeric_oracles import dense_closest_parameter, segment_scan_parameter
from vfpath.paths import (
    CirclePath,
    LinePath,
    PathDomainError,
    PolylinePath,
    ReferencePath,
    SinusoidPath,
    load_polyline,
    max_path_course_rate,
    path_course_rate,
)
from vfpath.simulation import (
    GUIDANCE_LAWS,
    SCENARIO_AMPLITUDE,
    SCENARIO_PERIOD,
    benchmark_scenario,
    run_trial,
)


def scenario_sinusoid():
    return SinusoidPath(SCENARIO_AMPLITUDE, SCENARIO_PERIOD)


def with_course_rate(frame, chi_p_dot):
    return dataclasses.replace(frame, chi_p_dot=chi_p_dot)


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
        assert frame.p_ref == pytest.approx((3.0, 0.0))
        assert abs(frame.d) == pytest.approx(7.0)
        # positive d on the side of the tangent rotated +90 degrees, so that
        # d_dot = V_g sin(chi - chi_p) holds
        assert frame.d == pytest.approx(7.0)
        assert frame.rho == 1
        assert frame.s_star == pytest.approx(3.0)

    def test_side_indicator_flips_under_reflection(self):
        line = LinePath(2.0, -1.0, 0.7)
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = rng.uniform(-100.0, 100.0, size=2)
            f = line.closest_point(p)
            mirrored = 2.0 * np.asarray(f.p_ref) - p
            g = line.closest_point(mirrored)
            if abs(f.d) > 1e-9:
                assert g.rho == -f.rho
                assert g.d == pytest.approx(-f.d, abs=1e-6)

    def test_circle_radial_projection(self):
        circle = CirclePath(0.0, 0.0, 100.0)
        frame = circle.closest_point((200.0, 0.0))
        assert frame.p_ref == pytest.approx((100.0, 0.0))
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
        d_scan = dist(ReferencePath.closest_parameter(path, p))
        assert d <= d_scan + 1e-9 * max(1.0, d_scan)

    def test_perpendicularity_at_interior_minimum(self):
        path = scenario_sinusoid()
        frame = path.closest_point((500.0, 100.0))
        tx, ty = math.cos(frame.chi_p), math.sin(frame.chi_p)
        ux, uy = 500.0 - frame.p_ref[0], 100.0 - frame.p_ref[1]
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

    def test_generic_refine_reaches_float_precision(self):
        # A refine on the distance's value cannot place s* this finely (it was
        # 1.4e-6 off here): the distance is too flat at its minimum.
        path = SinusoidPath(5.0, 273.0)
        for s0 in (100.0, 500.0, 1000.0):
            x0, y0 = path.point(s0)
            chi = path.tangent_angle(s0)
            p = (x0 - 136.5 * math.sin(chi), y0 + 136.5 * math.cos(chi))
            oracle = dense_closest_parameter(path, p, 400_000)
            assert ReferencePath.closest_parameter(path, p) == pytest.approx(oracle, abs=1e-9)


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
        full = dist(ReferencePath.closest_parameter(path, p))
        assert warm <= full + 1e-9 * max(1.0, full)

    @pytest.mark.parametrize("law", GUIDANCE_LAWS)
    def test_tracking_matches_global_scan_along_trial(self, law):
        calls = []

        class RecordingSinusoid(SinusoidPath):
            def closest_parameter(self, p, near=None):
                self.searched = False
                s_star = super().closest_parameter(p, near)
                calls.append((p, near, s_star, self.searched))
                return s_star

            def _search_convex_pieces(self, *args):
                self.searched = True
                return super()._search_convex_pieces(*args)

        path = RecordingSinusoid(SCENARIO_AMPLITUDE, SCENARIO_PERIOD)
        # nlgl starts inside its look-ahead distance, as ``vfpath compare`` runs it.
        d0 = 80.0 if law == "nlgl" else 200.0
        traj, _ = run_trial(benchmark_scenario(law, path=path, d0=d0))
        tracked = [call for call in calls if call[1] is not None]
        assert len(tracked) == len(traj) - 1
        branches = Counter()
        for p, near, s_star, searched in tracked:
            full = ReferencePath.closest_parameter(path, p)
            assert s_star == pytest.approx(full, abs=1e-5)
            s_newton = path._newton(near, path.s_min, path.s_max, p[0], p[1])
            if searched:
                branches["convex pieces"] += 1
            elif path._distance_sq(s_newton, p[0], p[1]) < path.r_cert**2:
                branches["r_cert"] += 1
            else:
                branches["convex interval"] += 1
        if law == "switched":
            # Every branch of the projection resolves some step of the capture.
            assert set(branches) == {"r_cert", "convex interval", "convex pieces"}


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

    def test_point_and_tangent(self):
        poly = PolylinePath([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0)])
        assert poly.point(5.0) == pytest.approx((5.0, 0.0))
        assert poly.point(15.0) == pytest.approx((10.0, 5.0))
        assert poly.tangent_angle(5.0) == pytest.approx(0.0)
        assert poly.tangent_angle(15.0) == pytest.approx(math.pi / 2.0)

    def test_closest_point_exact_projection(self):
        poly = PolylinePath([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0)])
        frame = poly.closest_point((4.0, 3.0))
        assert frame.p_ref == pytest.approx((4.0, 0.0))
        assert abs(frame.d) == pytest.approx(3.0)
        # beyond the last vertex the endpoint is closest; |d| is Euclidean
        frame = poly.closest_point((13.0, 14.0))
        assert frame.p_ref == pytest.approx((10.0, 10.0))
        assert abs(frame.d) == pytest.approx(5.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        pts = np.cumsum(rng.uniform(-20.0, 20.0, size=(12, 2)), axis=0)
        poly = PolylinePath(pts)
        s_dense = np.linspace(poly.s_min, poly.s_max, 200_001)
        gx, gy = poly.points_array(s_dense)
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


class TestCourseRate:
    def test_finite_difference(self):
        f_now = LinePath(0, 0, 0).closest_point((1.0, 1.0))
        frame_now = with_course_rate(f_now, 0.0)
        # synthetic frames with specified tangent angles
        a = frame_now
        import dataclasses

        f1 = dataclasses.replace(a, chi_p=0.10)
        f0 = dataclasses.replace(a, chi_p=0.09)
        assert path_course_rate(f1, f0, 0.01) == pytest.approx(1.0)

    def test_wrap_across_pi(self):
        import dataclasses

        base = LinePath(0, 0, 0).closest_point((1.0, 1.0))
        f1 = dataclasses.replace(base, chi_p=-3.13)
        f0 = dataclasses.replace(base, chi_p=3.13)
        expected = (2.0 * math.pi - 6.26) / 0.01
        assert path_course_rate(f1, f0, 0.01) == pytest.approx(expected, abs=1e-9)

    def test_first_step_and_bad_dt(self):
        frame = LinePath(0, 0, 0).closest_point((1.0, 1.0))
        assert path_course_rate(frame, None, 0.01) == 0.0
        with pytest.raises(ValueError):
            path_course_rate(frame, frame, 0.0)

    def test_straight_line_rate_is_zero(self):
        line = LinePath(0, 0, 0.4)
        f0 = line.closest_point((10.0, 3.0))
        f1 = line.closest_point((11.0, 2.0))
        assert path_course_rate(f1, f0, 0.01) == 0.0

    def test_circle_traversal_rate_constant(self):
        circle = CirclePath(0.0, 0.0, 100.0)
        v, dt = 15.0, 0.01
        rates = []
        prev = None
        for k in range(200):
            frame = circle.frame_at(v * k * dt, circle.point(v * k * dt))
            if prev is not None:
                rates.append(path_course_rate(frame, prev, dt))
            prev = frame
        rates = np.asarray(rates)
        assert np.allclose(rates, v / 100.0, rtol=0.01)


class TestMaxCourseRate:
    def test_line_zero(self):
        assert max_path_course_rate(LinePath(0, 0, 0), 15.0) == 0.0

    def test_circle(self):
        rate = max_path_course_rate(CirclePath(0, 0, 100.0), 15.0)
        assert rate == pytest.approx(0.15, rel=1e-6)

    def test_scenario_sinusoid_bound(self):
        rate = max_path_course_rate(scenario_sinusoid(), 15.0)
        assert rate == pytest.approx(0.1, rel=1e-3)

    def test_requires_positive_speed(self):
        with pytest.raises(ValueError):
            max_path_course_rate(LinePath(0, 0, 0), 0.0)
