"""Helpers every layer shares: angle wrapping, and the input checks of every
constructor, so each rule is written once and each rejection reads ``<name>
must be ..., got <value>`` (the per-step guards stay inline, to save a call)."""

import math

import numpy as np

PI = math.pi
HALF_PI = 0.5 * math.pi
TAU = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Wrap a scalar angle to [-pi, pi], the interval of MATLAB's
    ``wrapToPi``: the IEEE remainder of ``angle`` by TAU.

    The result is exact.  At a tie, an odd multiple of pi, the quotient is
    the even integer, so pi and -3 pi wrap to pi, and -pi and 3 pi to -pi.
    Every consumer reads a wrapped angle through ``abs``, ``sin``, ``cos`` or
    another wrap, so either sign serves.  The per-step code calls
    ``math.remainder(x, TAU)`` directly to save the call.
    """
    return math.remainder(angle, TAU)


def wrap_angle_array(angles: np.ndarray) -> np.ndarray:
    """Wrap an array of angles to [-pi, pi], each to the bit as :func:`wrap_angle`.

    ``fmod`` is exact, and so is the one shift by TAU after it (the operands
    are within a factor of two), so both functions return the exact
    representative of the angle modulo TAU.  Where that is +-pi, the angle
    is a tie, and its sign follows the even quotient, as in ``remainder``:
    ``fmod`` truncated the quotient to trunc(angle / TAU), and the nearest
    integer on the other side is the even one when the truncated one is odd.
    At a tie the quotient is an integer plus one half, so the float division
    gives it exactly.
    """
    angles = np.asarray(angles, dtype=float)
    wrapped = np.fmod(angles, TAU)
    wrapped = np.where(wrapped > PI, wrapped - TAU, wrapped)
    wrapped = np.where(wrapped < -PI, wrapped + TAU, wrapped)
    odd = np.fmod(np.trunc(angles / TAU), 2.0) != 0.0
    return np.where((np.abs(wrapped) == PI) & odd, -wrapped, wrapped)


def check_finite(**values: float) -> None:
    """ValueError naming the first of ``values`` that is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def check_positive(**values: float) -> None:
    """ValueError naming the first of ``values`` outside (0, inf)."""
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def check_derived(name: str, value: float, **inputs: float) -> None:
    """ValueError naming ``inputs`` and ``value`` unless the constant ``name``
    they give is positive and finite: it can underflow or overflow where none
    of its inputs does."""
    if not 0.0 < value < math.inf:
        given = " and ".join(f"{key} = {arg!r}" for key, arg in inputs.items())
        raise ValueError(f"{given} give the {name} = {value!r}, which must be positive and finite")
