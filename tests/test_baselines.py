import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numeric_oracles import scan_lookahead_parameter
from vfpath.baselines import (
    BaselineParams,
    LookaheadInfeasibleError,
    basic_vf_command,
    nlgl_command,
    nlgl_virtual_target,
    plos_command,
)
from vfpath.paths import CirclePath, LinePath, SinusoidPath
from vfpath.simulation import (
    SCENARIO_AMPLITUDE,
    SCENARIO_PERIOD,
    benchmark_scenario,
    run_trial,
)
from vfpath.vehicle import VehicleState

BP = BaselineParams()  # vf_k=0.02, vf_beta=pi/2, K1=15, K2=0.1, L1=110


class TestBasicVF:
    def test_on_path_aligned_equilibrium(self):
        line = LinePath(0, 0, 0)
        frame = line.closest_point((5.0, 0.0))
        cmd = basic_vf_command(frame, BP)
        assert cmd == pytest.approx(0.0, abs=1e-15)

    def test_far_field_limit(self):
        line = LinePath(0, 0, 0)
        frame = line.closest_point((0.0, 1e9))
        cmd = basic_vf_command(frame, BP)
        assert cmd == pytest.approx(-math.pi / 2.0, abs=1e-6)

    def test_quarter_pi_at_fifty_meters(self):
        line = LinePath(0, 0, 0)
        frame = line.closest_point((0.0, 50.0))
        cmd = basic_vf_command(frame, BP)
        assert cmd == pytest.approx(-math.pi / 4.0, abs=1e-12)


class TestPLOS:
    def test_on_path_aligned_equilibrium(self):
        line = LinePath(0, 0, 0)
        frame = line.closest_point((5.0, 0.0))
        cmd = plos_command(5.0, 0.0, 0.0, frame, BP)
        assert cmd == pytest.approx(0.0, abs=1e-15)

    def test_large_offset_points_back_at_path(self):
        line = LinePath(0, 0, 0)
        for d0 in (300.0, -300.0):
            frame = line.closest_point((0.0, d0))
            # course already at the LOS reference: command equals it
            chi_los = math.atan2(-d0, 1.0 / BP.plos_k2)
            cmd = plos_command(0.0, d0, chi_los, frame, BP)
            assert abs(abs(cmd) - math.pi / 2.0) < 0.12
            assert math.copysign(1.0, cmd) == -math.copysign(1.0, d0)

    def test_golden_regression(self):
        # frozen from the first implementation run; saturated and
        # proportional branches on a straight-line geometry
        line = LinePath(0, 0, 0)
        frame = line.closest_point((40.0, 150.0))
        cmd = plos_command(40.0, 150.0, 0.5, frame, BP)
        assert cmd == pytest.approx(-2.0, abs=1e-12)
        frame = line.closest_point((40.0, 5.0))
        cmd = plos_command(40.0, 5.0, -0.45, frame, BP)
        assert cmd == pytest.approx(-0.6547141350120913, abs=1e-12)


class TestNLGL:
    def test_on_path_aligned_equilibrium(self):
        line = LinePath(0, 0, 0)
        frame = line.closest_point((5.0, 0.0))
        cmd = nlgl_command(5.0, 0.0, 0.0, frame, line, BP, 15.0, 1.65)
        assert cmd[0] == cmd[1] == pytest.approx(0.0, abs=1e-9)

    def test_offset_equal_to_lookahead_targets_closest_point(self):
        line = LinePath(0, 0, 0)
        p = (30.0, BP.nlgl_l1)
        frame = line.closest_point(p)
        s_t, target = nlgl_virtual_target(line, frame, p, BP.nlgl_l1)
        assert target == pytest.approx((frame.px, frame.py), abs=1e-2)

    def test_beyond_lookahead_raises(self):
        line = LinePath(0, 0, 0)
        p = (0.0, BP.nlgl_l1 + 1.0)
        frame = line.closest_point(p)
        with pytest.raises(LookaheadInfeasibleError):
            nlgl_virtual_target(line, frame, p, BP.nlgl_l1)
        with pytest.raises(LookaheadInfeasibleError):
            nlgl_command(p[0], p[1], 0.0, frame, line, BP, 15.0, 1.65)

    def test_forward_most_intersection_chosen(self):
        # straight line, offset d < L1: intersections at s* +- sqrt(L1^2-d^2)
        line = LinePath(0, 0, 0)
        d = 60.0
        p = (100.0, d)
        frame = line.closest_point(p)
        s_t, target = nlgl_virtual_target(line, frame, p, BP.nlgl_l1)
        expected_s = 100.0 + math.sqrt(BP.nlgl_l1**2 - d**2)
        assert s_t == pytest.approx(expected_s, abs=1e-3)
        assert math.hypot(target[0] - p[0], target[1] - p[1]) == pytest.approx(
            BP.nlgl_l1, abs=1e-3
        )

    def test_intersection_invariant_random_geometry(self):
        rng = np.random.default_rng(17)
        paths = [
            LinePath(0, 0, 0.4),
            CirclePath(0, 0, 300.0),
            SinusoidPath(SCENARIO_AMPLITUDE, SCENARIO_PERIOD),
        ]
        for path in paths:
            for _ in range(20):
                s0 = rng.uniform(path.s_min + 300.0, path.s_max - 300.0) if not path.periodic else rng.uniform(0, path.s_max)
                base = path.point(s0)
                offset = rng.uniform(-100.0, 100.0)
                chi_p = path.tangent_angle(s0)
                p = (
                    base[0] - offset * math.sin(chi_p),
                    base[1] + offset * math.cos(chi_p),
                )
                frame = path.closest_point(p)
                if abs(frame.d) > BP.nlgl_l1:
                    continue
                s_t, target = nlgl_virtual_target(path, frame, p, BP.nlgl_l1)
                on_path = path.point(s_t)
                assert math.hypot(target[0] - on_path[0], target[1] - on_path[1]) < 1e-3
                assert math.hypot(target[0] - p[0], target[1] - p[1]) == pytest.approx(
                    BP.nlgl_l1, abs=1e-3
                )

    def test_command_maps_rate_through_course_loop(self):
        line = LinePath(0, 0, 0)
        p = (0.0, 60.0)
        frame = line.closest_point(p)
        state = VehicleState(p[0], p[1], -0.2)
        v_g, alpha = 15.0, 1.65
        cmd = nlgl_command(*state, frame, line, BP, v_g, alpha)[0]
        _, target = nlgl_virtual_target(line, frame, p, BP.nlgl_l1)
        eta = math.atan2(target[1] - p[1], target[0] - p[0]) - state.chi
        expected = state.chi + 2.0 * v_g / BP.nlgl_l1 * math.sin(eta) / alpha
        assert cmd == pytest.approx(expected, abs=1e-9)

    def test_first_target_stands_in_as_its_own_predecessor(self):
        # The first step's look-ahead pair is (s_t, s_t), so the second
        # step's hint, extrapolated from it, is the first target.
        hints = []

        class RecordingSinusoid(SinusoidPath):
            def lookahead_parameter(self, s_star, px, py, l1, near=None):
                hints.append(near)
                return super().lookahead_parameter(s_star, px, py, l1, near)

        path = RecordingSinusoid(SCENARIO_AMPLITUDE, SCENARIO_PERIOD)
        p0, p1 = (0.0, 60.0), (0.15, 60.1)
        frame0 = path.closest_point(p0)
        first = nlgl_command(*p0, 0.3, frame0, path, BP, 15.0, 1.65)
        s_first = nlgl_virtual_target(path, frame0, p0, BP.nlgl_l1)[0]
        assert first[4] == (s_first, s_first)
        second = nlgl_command(*p1, 0.3, path.closest_point(p1), path, BP, 15.0, 1.65, first)
        assert hints == [None, None, s_first]
        assert second[4][0] == s_first

    def test_validation(self):
        with pytest.raises(ValueError):
            BaselineParams(nlgl_l1=0.0)
        line = LinePath(0, 0, 0)
        with pytest.raises(ValueError):
            nlgl_command(0, 0, 0, line.closest_point((0, 0)), line, BP, 0.0, 1.65)


class TestLookaheadParameter:
    """The sinusoid's exact look-ahead root against dense sampling and the scan."""

    @staticmethod
    def h(path, s, p, l1):
        """Squared distance from p minus l1^2, and its derivative."""
        a, w = path.amplitude, path.omega
        s = np.asarray(s, dtype=float)
        dy = a * np.sin(w * s) - p[1]
        value = (s - p[0]) ** 2 + dy**2 - l1 * l1
        deriv = 2.0 * ((s - p[0]) + dy * a * w * np.cos(w * s))
        return value, deriv

    @staticmethod
    def offset_geometry(path_cls, amplitude, period, l1, s_frac, offset_frac):
        """A sinusoid whose domain reaches past px + l1, and a point offset
        from it by ``offset_frac * l1`` along the normal at ``s_frac``
        periods."""
        path = path_cls(amplitude, period, s_min=-period - 3 * l1, s_max=period + 3 * l1)
        x0, y0 = path.point(s_frac * period)
        chi = path.tangent_angle(s_frac * period)
        offset = offset_frac * l1
        return path, (x0 - offset * math.sin(chi), y0 + offset * math.cos(chi))

    def assert_forward_most_crossing(self, path, p, l1):
        frame = path.closest_point(p)
        assert abs(frame.d) < l1 and p[0] + l1 <= path.s_max
        s_t = path.lookahead_parameter(frame.s_star, p[0], p[1], l1)
        assert s_t is not None
        x, y = path.point(s_t)
        assert math.hypot(x - p[0], y - p[1]) == pytest.approx(l1, abs=1e-6)
        assert self.h(path, s_t, p, l1)[1] > 0.0
        # Roots lie in [px - l1, px + l1]; the grid skips a sliver at s_t,
        # where h is below its own rounding error.
        grid = np.linspace(s_t, p[0] + l1, 20001)[1:]
        grid = grid[grid > s_t + 1e-6]
        assert np.all(self.h(path, grid, p, l1)[0] > 0.0)
        return frame, s_t

    @settings(deadline=None, max_examples=300)
    @given(
        amplitude=st.floats(5.0, 1000.0),
        period=st.floats(50.0, 5000.0),
        l1=st.floats(10.0, 500.0),
        s_frac=st.floats(0.0, 1.0),
        offset_frac=st.floats(-0.99, 0.99),
    )
    def test_certified_root_is_forward_most_crossing(
        self, amplitude, period, l1, s_frac, offset_frac
    ):
        path, p = self.offset_geometry(SinusoidPath, amplitude, period, l1, s_frac, offset_frac)
        self.assert_forward_most_crossing(path, p, l1)

    def test_piece_search_reaches_each_branch(self):
        class RecordingSinusoid(SinusoidPath):
            walked = False

            def _forward_crossing_in_pieces(self, *args):
                self.walked = True
                return super()._forward_crossing_in_pieces(*args)

            def _root(self, start, lo, *args, **kwargs):
                # The walk's last bracketed search is its crossing.
                self.crossing_lo = lo
                return super()._root(start, lo, *args, **kwargs)

        rng = np.random.default_rng(1)
        branches = Counter()
        for _ in range(300):
            amplitude, period = rng.uniform(5.0, 1000.0), rng.uniform(50.0, 5000.0)
            l1, s_frac = rng.uniform(10.0, 500.0), rng.random()
            offset_frac = rng.uniform(-0.99, 0.99)
            path, p = self.offset_geometry(
                RecordingSinusoid, amplitude, period, l1, s_frac, offset_frac
            )
            frame, _ = self.assert_forward_most_crossing(path, p, l1)
            if not path.walked:
                branches["convex"] += 1
            elif path.crossing_lo == frame.s_star:
                branches["first piece"] += 1
            elif path.crossing_lo in path._convexity_cuts(frame.s_star, p[0] + l1, p[1]):
                branches["sign change at a cut"] += 1
            else:
                branches["dip at a stationary point"] += 1
        # The convex interval and every exit of the right-to-left piece walk
        # each answer some draw.
        assert set(branches) == {
            "convex", "first piece", "sign change at a cut", "dip at a stationary point"
        }

    def test_matches_scan_along_benchmark_trial(self):
        calls = []

        class RecordingSinusoid(SinusoidPath):
            def lookahead_parameter(self, s_star, px, py, l1, near=None):
                s_t = super().lookahead_parameter(s_star, px, py, l1, near)
                calls.append((s_star, (px, py), l1, s_t))
                return s_t

        path = RecordingSinusoid(SCENARIO_AMPLITUDE, SCENARIO_PERIOD)
        cfg = benchmark_scenario(
            "nlgl", path=path, d0=80.0, stop_when_converged=False, max_time=60.0
        )
        traj, metrics = run_trial(cfg)
        assert metrics.failure_reason is None
        assert len(calls) == len(traj) == 6001
        assert all(s_t is not None for *_, s_t in calls)
        for s_star, p, l1, s_t in calls:
            assert s_t == pytest.approx(scan_lookahead_parameter(path, s_star, p, l1), abs=1e-4)

    @staticmethod
    def benchmark_lookahead_calls(every=60):
        """Every ``every``-th (s_star, p, l1) of the 60 s benchmark nlgl trial."""
        calls = []

        class RecordingSinusoid(SinusoidPath):
            def lookahead_parameter(self, s_star, px, py, l1, near=None):
                calls.append((s_star, (px, py), l1))
                return super().lookahead_parameter(s_star, px, py, l1, near)

        path = RecordingSinusoid(SCENARIO_AMPLITUDE, SCENARIO_PERIOD)
        run_trial(
            benchmark_scenario(
                "nlgl", path=path, d0=80.0, stop_when_converged=False, max_time=60.0
            )
        )
        return calls[::every]

    @pytest.mark.parametrize(
        "hint", ["none", "nan", "answer", "inside", "at s*", "left of s*", "past hi"]
    )
    def test_hint_never_changes_an_answer(self, hint):
        # q, and so h = q - l1^2, is least at s*: a hint there gives Newton
        # no rising h, and one left of s* or past px + l1 lies outside the
        # bracket.  Every hint gives the unhinted answer, to rounding.
        path = SinusoidPath(SCENARIO_AMPLITUDE, SCENARIO_PERIOD)
        calls = self.benchmark_lookahead_calls()
        assert len(calls) > 50
        for s_star, p, l1 in calls:
            cold = SinusoidPath(SCENARIO_AMPLITUDE, SCENARIO_PERIOD).lookahead_parameter(
                s_star, p[0], p[1], l1
            )
            near = {
                "none": None,
                "nan": math.nan,
                "answer": cold,
                "inside": 0.5 * (s_star + cold),
                "at s*": s_star,
                "left of s*": s_star - 1.0,
                "past hi": p[0] + l1 + 1.0,
            }[hint]
            s_t = path.lookahead_parameter(s_star, p[0], p[1], l1, near)
            assert abs(s_t - cold) <= 1e-12
            assert s_t == pytest.approx(scan_lookahead_parameter(path, s_star, p, l1), abs=1e-4)

    def test_hint_reaches_each_branch(self):
        class RecordingSinusoid(SinusoidPath):
            def lookahead_parameter(self, s_star, px, py, l1, near=None):
                self.events = []
                return super().lookahead_parameter(s_star, px, py, l1, near)

            def _forward_crossing_in_pieces(self, *args, **kwargs):
                self.events.append("walk")
                return super()._forward_crossing_in_pieces(*args, **kwargs)

            def _root(self, *args, **kwargs):
                self.events.append("root")
                return super()._root(*args, **kwargs)

        path = RecordingSinusoid(100.0, 1000.0)
        l1 = 200.0
        # (p, hint, branch of the call)
        steps = [
            # No hint: Newton starts from px + l1.
            ((30.0, -60.0), None, "cold"),
            # A hint between s* and the root: Newton starts there.
            ((30.1, -59.9), "inside", "hinted"),
            # A hint at s*, where h is least: Newton refuses it.
            ((30.2, -59.8), "at s*", "refused hint"),
            # 180 m above y = 100 sin(2 pi x / 1000), over its descent to
            # the node at x = 500: q changes convexity at x = 674, inside
            # [s*, px + l1], so the walk answers.
            ((480.0, 220.0), "inside", "walk"),
        ]
        for p, hint, branch in steps:
            fresh = SinusoidPath(100.0, 1000.0)
            frame = fresh.closest_point(p)
            cold = fresh.lookahead_parameter(frame.s_star, p[0], p[1], l1)
            near = {None: None, "inside": 0.5 * (frame.s_star + cold), "at s*": frame.s_star}[hint]
            s_t = path.lookahead_parameter(frame.s_star, p[0], p[1], l1, near)
            events = {
                "cold": ["root"],
                "hinted": [],
                "refused hint": ["root"],
                "walk": ["walk"],
            }[branch]
            assert path.events[: len(events) or None] == events, branch
            assert abs(s_t - cold) <= 1e-12
            scan = scan_lookahead_parameter(path, frame.s_star, p, l1)
            assert s_t == pytest.approx(scan, abs=1e-4)

    def test_cached_state_changes_no_answer(self):
        # An nlgl trial on a path that has just flown another nlgl trial,
        # which left a projection basin on it, flies as on a fresh path: the
        # Newton starts come from the trial's own history, and the cached
        # basin only settles calls that its certificate proves.
        used = SinusoidPath(SCENARIO_AMPLITUDE, SCENARIO_PERIOD)
        run_trial(benchmark_scenario("nlgl", path=used, d0=-60.0, s0=400.0, max_time=30.0))
        assert used._basin[3] <= used._basin[4]
        runs = [
            run_trial(benchmark_scenario("nlgl", path=path, d0=80.0, max_time=60.0))
            for path in (SinusoidPath(SCENARIO_AMPLITUDE, SCENARIO_PERIOD), used)
        ]
        (fresh, fresh_metrics), (reused, reused_metrics) = runs
        assert len(fresh) > 1000
        for name in fresh.__dataclass_fields__:
            assert np.array_equal(getattr(fresh, name), getattr(reused, name)), name
        assert repr(fresh_metrics) == repr(reused_metrics)
