"""Numeric oracles shared by the tests: independent checks of closed forms."""

from typing import Optional

from vfpath.guidance import GuidanceParams
from vfpath.paths import _golden_section


def peak_field_rate_numeric(
    params: GuidanceParams, v_g: float, branch: str, d_hi: Optional[float] = None
) -> float:
    """Numerically maximized on-field course rate |chi_d_dot - chi_p_dot|.

    Independent check of the closed forms in
    :func:`vfpath.guidance.validate_curvature_constraint`: evaluates the exact
    rate expression for a vehicle riding the field (chi = chi_d(d),
    chi_inf = pi/2) and maximizes it over d with a coarse scan plus
    golden-section refinement.
    """
    if branch == "k1":
        k = params.k1

        def rate(d: float) -> float:
            u = k * d
            return k * k * v_g * d / (1.0 + u * u) ** 1.5

        d_peak_guess = 1.0 / k
    elif branch == "k3":
        k = params.k3

        def rate(d: float) -> float:
            u = k * d**3
            return 3.0 * k * k * v_g * d**5 / (1.0 + u * u) ** 1.5

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
