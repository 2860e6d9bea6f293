"""The per-step code calls ``math.remainder(x, TAU)`` for each wrap to
[-pi, pi] and writes each ground speed inline.  These properties hold it to
the bit to the oracles in ``numeric_oracles``, which do the same arithmetic
through ``wrap_angle`` and a ground-speed helper.  The examples put the
argument of each wrap whose sign reaches the output exactly on -pi or pi,
where the wrap keeps the sign of the even quotient.
Two wraps of the law have no such case: the course error of the phase test
and of CASE1 enters only through its magnitude (a CASE2 error is at most
about pi/2)."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from numeric_oracles import helper_commanded_course, helper_ground_speed, helper_step_vehicle
from vfpath.angles import PI, TAU
from vfpath.guidance import HALF_PI, GuidanceParams, GuidancePhase, commanded_course
from vfpath.paths import PathFrame
from vfpath.vehicle import AirspeedSpec, WindModel, ground_speed, step_vehicle

SPEC = AirspeedSpec(15.0)
# Angles and angle differences at which a wrap lands on -pi, pi or a signed zero.
ANGLES = st.sampled_from((0.0, -0.0, PI, -PI, HALF_PI, -HALF_PI, TAU, -TAU)) | st.floats(
    -4.0 * PI, 4.0 * PI
)
DIFFERENCES = st.sampled_from((PI, -PI, TAU, -TAU, -0.0)) | st.floats(-TAU, TAU)
# Calm air, a signed-zero calm, and winds below the 15 m/s airspeed.
WINDS = st.sampled_from(((0.0, 0.0), (-0.0, 0.0), (2.0, -1.5))) | st.tuples(
    st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)
)
# sigma / (1 + pi): the reaching term's beta at a course error of pi.
BETA_AT_PI = (math.pi / 4.0) / (1.0 + math.pi)


def bits(values) -> tuple:
    """``values`` with each float as its exact hex form, so -0.0 != 0.0."""
    return tuple(v.hex() if isinstance(v, float) else v for v in values)


@settings(deadline=None, max_examples=300)
@given(
    chi=ANGLES,
    delta=DIFFERENCES,
    chi_dot=st.none() | st.sampled_from((0.0, -0.0, PI, -PI)) | st.floats(-5.0, 5.0),
    wind=WINDS,
    alpha=st.sampled_from((1.0, 1.65, 2.0)) | st.floats(0.1, 10.0),
    dt=st.sampled_from((0.01, 1.0, 2.0)) | st.floats(1e-4, 2.0),
)
# The second, third and fourth stage's course differences are -pi, and so
# is the sum the returned course wraps.
@example(chi=HALF_PI, delta=-PI, chi_dot=0.0, wind=(0.0, 0.0), alpha=1.65, dt=0.01)
@example(chi=0.0, delta=-HALF_PI, chi_dot=-PI, wind=(2.0, -1.5), alpha=1.0, dt=2.0)
@example(chi=0.0, delta=0.0, chi_dot=PI, wind=(0.0, 0.0), alpha=2.0, dt=1.0)
@example(chi=-PI, delta=0.0, chi_dot=0.0, wind=(2.0, -1.5), alpha=1.65, dt=0.01)
@example(chi=HALF_PI, delta=-PI, chi_dot=None, wind=(2.0, -1.5), alpha=1.65, dt=0.01)
def test_step_vehicle_matches_helper_oracle(chi, delta, chi_dot, wind, alpha, dt):
    wind = WindModel(*wind)
    assert bits([ground_speed(SPEC, wind, chi)]) == bits([helper_ground_speed(SPEC, wind, chi)])
    state = (10.0, -5.0, chi)
    chi_c = chi + delta
    stage = () if chi_dot is None else (ground_speed(SPEC, wind, chi), chi_dot)
    new = step_vehicle(state, chi_c, SPEC, wind, alpha, dt, *stage)
    old = helper_step_vehicle(state, chi_c, SPEC, wind, alpha, dt, *stage)
    assert bits(new) == bits(old)


@settings(deadline=None, max_examples=400)
@given(
    chi=ANGLES,
    chi_p=ANGLES,
    d=st.sampled_from((0.0, -0.0, 10.0, -10.0, 1e100, -1e100)) | st.floats(-300.0, 300.0),
    chi_p_dot=st.sampled_from((0.0, -0.0)) | st.floats(-1.0, 1.0),
    v_g=st.sampled_from((15.0, 1000.0)) | st.floats(0.5, 2000.0),
    prev_phase=st.none() | st.sampled_from(GuidancePhase),
    reaching=st.sampled_from(("sat", "sign")),
    chi_inf=st.sampled_from((HALF_PI, 1.0)),
)
# CASE3 with chi_d on -pi; CASE3 with the course error and the commanded
# course on -pi; CASE3 with the path course error on -pi, where only the sign
# of its sine is left in chi_c; CASE2 with chi_d on -pi; CASE1 with the offset
# chi_d on -pi.  Each with and without a previous phase.
@example(chi=1.0, chi_p=-PI, d=0.0, chi_p_dot=0.0, v_g=15.0, prev_phase=None,
         reaching="sat", chi_inf=HALF_PI)
@example(chi=-PI, chi_p=0.0, d=0.0, chi_p_dot=0.0, v_g=15.0, prev_phase=GuidancePhase.CASE3,
         reaching="sign", chi_inf=HALF_PI)
@example(chi=-PI, chi_p=-PI, d=0.0, chi_p_dot=0.0, v_g=15.0, prev_phase=None,
         reaching="sat", chi_inf=HALF_PI)
@example(chi=0.0, chi_p=PI, d=0.0, chi_p_dot=BETA_AT_PI, v_g=1000.0,
         prev_phase=GuidancePhase.CASE3, reaching="sat", chi_inf=HALF_PI)
@example(chi=3.0, chi_p=-HALF_PI, d=1e100, chi_p_dot=0.0, v_g=15.0, prev_phase=None,
         reaching="sat", chi_inf=HALF_PI)
@example(chi=3.0, chi_p=-HALF_PI, d=1e100, chi_p_dot=0.0, v_g=15.0,
         prev_phase=GuidancePhase.CASE2, reaching="sat", chi_inf=HALF_PI)
@example(chi=HALF_PI, chi_p=-PI, d=-1e100, chi_p_dot=0.0, v_g=15.0, prev_phase=None,
         reaching="sat", chi_inf=HALF_PI)
@example(chi=HALF_PI, chi_p=-PI, d=-1e100, chi_p_dot=0.0, v_g=15.0,
         prev_phase=GuidancePhase.CASE1, reaching="sat", chi_inf=HALF_PI)
def test_commanded_course_matches_helper_oracle(
    chi, chi_p, d, chi_p_dot, v_g, prev_phase, reaching, chi_inf
):
    params = GuidanceParams(chi_inf=chi_inf, reaching=reaching)
    frame = PathFrame(0.0, 0.0, 0.0, chi_p, d, 1 if d >= 0.0 else -1)
    new = commanded_course(chi, frame, chi_p_dot, params, prev_phase, v_g)
    old = helper_commanded_course(chi, frame, chi_p_dot, params, prev_phase, v_g)
    assert bits(new) == bits(old)
