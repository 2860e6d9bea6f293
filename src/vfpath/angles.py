"""Angle wrapping helpers shared by the path, vehicle and guidance modules."""

import math

import numpy as np

PI = math.pi
TAU = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Wrap a scalar angle to the principal interval (-pi, pi].

    The reference definition.  The code that runs on every trial step (the
    vehicle step, the switched law, the circle's frame and the trial loop)
    writes these same two steps inline to save the call.
    """
    wrapped = math.remainder(angle, TAU)
    if wrapped <= -PI:
        wrapped += TAU
    return wrapped


def wrap_angle_array(angles: np.ndarray) -> np.ndarray:
    """Wrap an array of angles to (-pi, pi], each to the bit as :func:`wrap_angle`.

    ``fmod`` is exact, and so is the one shift by TAU after it (the operands
    are within a factor of two), so both functions return the exact
    representative of the angle modulo TAU.
    """
    wrapped = np.fmod(np.asarray(angles, dtype=float), TAU)
    wrapped = np.where(wrapped > math.pi, wrapped - TAU, wrapped)
    return np.where(wrapped <= -math.pi, wrapped + TAU, wrapped)
