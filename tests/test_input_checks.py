"""Every constructor-time input check names its input and its value.

The finite, positive-and-finite and derived-constant rules are written once,
in ``vfpath.angles``; the one-off rules and the per-step guards write their
own tests and append the value to their messages.
"""

import math
import re

import pytest

from vfpath.angles import check_derived, check_finite, check_positive
from vfpath.baselines import BaselineParams, nlgl_command
from vfpath.guidance import GuidanceParams, commanded_course, validate_curvature_constraint
from vfpath.paths import CirclePath, LinePath, PolylinePath, SinusoidPath
from vfpath.simulation import ScenarioConfig
from vfpath.vehicle import AirspeedSpec, WindModel, step_vehicle, turn_rate


def _scenario(**kwargs):
    return ScenarioConfig(path=LinePath(), **kwargs)


def _sinusoid(amplitude=10.0, period=100.0):
    return SinusoidPath(amplitude, period)


def _airspeed(airspeed):
    return AirspeedSpec(airspeed)


def _wind(wind_x=0.0, wind_y=0.0):
    return WindModel(wind_x, wind_y)


# (constructor, the keyword it takes, the name its message gives).
FINITE_FIELDS = [
    (LinePath, "x0", "x0"),
    (LinePath, "y0", "y0"),
    (LinePath, "heading", "heading"),
    (CirclePath, "cx", "cx"),
    (CirclePath, "cy", "cy"),
    (_wind, "wind_x", "wind_x"),
    (_wind, "wind_y", "wind_y"),
    *[
        (_scenario, name, name)
        for name in ("d0", "s0", "chi0", "x_init", "y_init", "dwell", "nlgl_d0")
    ],
]
POSITIVE_FIELDS = [
    (CirclePath, "radius", "radius"),
    (_sinusoid, "amplitude", "amplitude"),
    (_sinusoid, "period", "period"),
    (_airspeed, "airspeed", "airspeed"),
    *[
        (GuidanceParams, name, name)
        for name in ("k1", "d_s", "alpha", "eta", "sigma", "epsilon")
    ],
    *[
        (BaselineParams, name, name)
        for name in ("vf_k", "vf_beta", "plos_k1", "plos_k2", "nlgl_l1")
    ],
    *[(_scenario, name, name) for name in ("dt", "max_time", "d_threshold", "align_threshold")],
]


def _site_id(site):
    build, keyword, _ = site
    owner = {
        _scenario: "ScenarioConfig",
        _sinusoid: "SinusoidPath",
        _airspeed: "AirspeedSpec",
        _wind: "WindModel",
    }.get(build, build.__name__)
    return f"{owner}.{keyword}"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("site", FINITE_FIELDS, ids=_site_id)
def test_finite_rule_names_the_field_and_value(site, value):
    build, keyword, name = site
    with pytest.raises(ValueError) as info:
        build(**{keyword: value})
    assert str(info.value) == f"{name} must be finite, got {value!r}"


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, 0.0])
@pytest.mark.parametrize("site", POSITIVE_FIELDS, ids=_site_id)
def test_positive_rule_names_the_field_and_value(site, value):
    build, keyword, name = site
    with pytest.raises(ValueError) as info:
        build(**{keyword: value})
    assert str(info.value) == f"{name} must be positive and finite, got {value!r}"


def test_shared_checks_report_the_first_bad_value():
    check_finite(a=1.0, b=-1e308)
    check_positive(a=1.0, b=1e-320)
    with pytest.raises(ValueError, match=r"^b must be finite, got inf$"):
        check_finite(a=1.0, b=math.inf, c=math.nan)
    with pytest.raises(ValueError, match=r"^b must be positive and finite, got -0\.0$"):
        check_positive(a=1.0, b=-0.0, c=math.nan)


def test_derived_check_names_its_inputs_and_value():
    check_derived("gain g", 1e-300, a=1.0, b=2.0)
    with pytest.raises(ValueError) as info:
        check_derived("gain g = a / b", 0.0, a=1e-300, b=1e300)
    assert str(info.value) == (
        "a = 1e-300 and b = 1e+300 give the gain g = a / b = 0.0,"
        " which must be positive and finite"
    )


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SinusoidPath(1e-300, 100.0), "amplitude = 1e-300 and period = 100.0 give"),
        (lambda: GuidanceParams(d_s=1e300), "k1 = 0.01 and d_s = 1e+300 give the far-field"),
    ],
)
def test_constructors_route_derived_constants_through_the_check(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GuidanceParams(chi_inf=2.0), "chi_inf must lie in (0, pi/2], got 2.0"),
        (
            lambda: GuidanceParams(delta_hys=-1.0),
            "delta_hys must be non-negative and finite, got -1.0",
        ),
        (
            lambda: GuidanceParams(n=3, m=9),
            "n, m must be odd co-prime integers with 0 < n < m, got 3, 9",
        ),
        (lambda: GuidanceParams(reaching="tanh"), "reaching must be 'sat' or 'sign', got 'tanh'"),
        (lambda: _scenario(dwell=-1.0), "dwell must be non-negative, got -1.0"),
        (lambda: _scenario(dt=1.5), "s chatter window, got 1.5"),
        (lambda: _scenario(kappa_max=-1.0), "kappa_max must be positive (inf for unbounded), got"),
        (
            lambda: validate_curvature_constraint(GuidanceParams(), 0.0, 0.0),
            "kappa_max must be positive, got 0.0",
        ),
        (
            lambda: validate_curvature_constraint(GuidanceParams(), -1.0, 0.1),
            "path_curvature must be non-negative, got -1.0",
        ),
    ],
)
def test_one_off_rules_append_the_value(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def _line_frame():
    path = LinePath()
    return path, path.frame_at(path.closest_parameter((0.0, 5.0)), (0.0, 5.0))


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: LinePath().closest_parameter((math.nan, 0.0)),
            "vehicle position must be finite, got (nan, 0.0)",
        ),
        (
            lambda: CirclePath().closest_parameter((0.0, math.inf)),
            "vehicle position must be finite, got (0.0, inf)",
        ),
        (
            lambda: SinusoidPath(10.0, 100.0).closest_parameter((math.nan, 1.0)),
            "vehicle position must be finite, got (nan, 1.0)",
        ),
        (
            lambda: PolylinePath([(0, 0), (1, 0)]).closest_parameter((2.0, -math.inf)),
            "vehicle position must be finite, got (2.0, -inf)",
        ),
        (lambda: turn_rate(0.0, 0.0, -2.0), "alpha must be positive, got -2.0"),
        (
            lambda: step_vehicle(
                (0.0, 0.0, 0.0), 0.0, AirspeedSpec(15.0), WindModel(), 1.0, -0.1, 15.0, 0.0
            ),
            "dt must be positive, got -0.1",
        ),
        (
            lambda: step_vehicle(
                (0.0, 0.0, 0.0), 0.0, AirspeedSpec(15.0), WindModel(), 0.0, 0.1, 15.0, 0.0
            ),
            "alpha must be positive, got 0.0",
        ),
        (
            lambda: commanded_course(0.0, _line_frame()[1], 0.0, GuidanceParams(), None, -3.0),
            "v_g must be positive, got -3.0",
        ),
        (
            lambda: nlgl_command(
                0.0, 5.0, 0.0, _line_frame()[1], _line_frame()[0], BaselineParams(), 0.0, 1.0
            ),
            "v_g must be positive, got 0.0",
        ),
        (
            lambda: nlgl_command(
                0.0, 5.0, 0.0, _line_frame()[1], _line_frame()[0], BaselineParams(), 15.0, -1.0
            ),
            "alpha must be positive, got -1.0",
        ),
    ],
)
def test_per_step_guards_append_the_value(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
