"""Almost-balls, almost-spheres, and volume growth.

The geodesic ball B(R) about the origin is never meshed.  Every volume
statement goes through the almost-ball

    AB(R) = { (u, v) : Rtilde(u, v) <= R }

(the sublevel set of the distance surrogate from taubnut.family), whose
volume has an exact closed form in both bounded-fiber families, together
with the two-sided inclusion

    AB(R / (1 + eps)) subset B(R) subset AB(R (1 + eps)),

where eps = eps(R) is *measured*: the max of |Rtilde/R - 1| over an
eta-grid of exact geodesic endpoints at distance R.  The surrogate error
decays like log(R)/R, so the bracket tightens as R grows.

Volumes are totals over the torus fibers (a factor 4 pi^2) of the density
lam * x; the half-plane family has unbounded fibers and is rejected.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .family import BadParams, InstantonParams, finite_or_bad_params, uv_from_almost_polar
from .geodesics import distance, point_from_polar
from .metrics import TORUS_VOLUME, volume_density
from .numerics import (InsufficientSamples, QuadratureResult, TaubnutError, fit_power_law,
                       integrate_2d_region)


class SmallRadius(TaubnutError):
    """Radius below the regime where the measured bracket applies."""


# --------------------------------------------------------------------------
# almost-ball volumes
# --------------------------------------------------------------------------

@finite_or_bad_params
def almost_ball_volume(params: InstantonParams, R: float) -> float:
    """Exact volume of AB(R).

    Generalized family:
        (2 sqrt2 pi^2 / (M sqrt(1-k^2))) *
            (R^2 + (sqrt(1+k) + sqrt(1-k)) sqrt(sqrt2 M) R^3 / 3)
    Exceptional family:
        (pi^2 / 6)(R^4 + 2 R^3)

    The half-plane family has unbounded fibers (infinite volume per unit of
    the noncompact fiber coordinate) and is rejected rather than normalized.
    BadParams for R < 0, or a volume that is not finite.
    """
    if R < 0.0:
        raise BadParams(f"almost-ball radius must be >= 0, got {R}")
    return params.almost_ball_volume(R)


@finite_or_bad_params
def almost_ball_volume_quadrature(params: InstantonParams, R: float) -> QuadratureResult:
    """Independent route: adaptive quadrature of the volume density over the
    almost-ball region, the quadrant part under the boundary graph
    v = almost_ball_v_max(R, u), 0 <= u <= almost_ball_u_max(R).  Used to
    validate the closed forms.  BadParams for R <= 0, or a number that is
    not finite."""
    if R <= 0.0:
        raise BadParams(f"almost-ball radius must be positive, got {R}")
    return integrate_2d_region(
        lambda u, v: TORUS_VOLUME * volume_density(params, u, v),
        params.almost_ball_u_max(R), lambda u: params.almost_ball_v_max(R, u))


# --------------------------------------------------------------------------
# measured bracketing of true geodesic balls
# --------------------------------------------------------------------------

#: eta-grid used when measuring the surrogate error (13 rays in the closed
#: quadrant, step pi/24).
EPSILON_GRID = tuple(j * math.pi / 24.0 for j in range(13))


def measured_epsilon_bar(params: InstantonParams, R: float) -> float:
    """max over the standard eta-grid of |Rtilde/R - 1| at geodesic radius R.

    Endpoints come from the exact geodesic solver, so this measures the true
    discrepancy of the surrogate, not a modeled bound.
    """
    if R <= 0.0:
        raise BadParams(f"radius must be positive, got {R}")
    return max(0.0, *(abs(params.almost_distance(*point_from_polar(params, R, eta)) / R - 1.0)
                      for eta in EPSILON_GRID))


def ball_volume_bracket(params: InstantonParams, R: float) -> tuple[float, float]:
    """(lower, upper) bracket for Vol B(R) via almost-ball volumes.

    With eps = measured_epsilon_bar(R), every point of AB(R/(1+eps)) lies
    within distance R of the origin and every point of B(R) lies in
    AB(R(1+eps)); hence

        Vol AB(R/(1+eps)) <= Vol B(R) <= Vol AB(R(1+eps)).
    """
    if R < 10.0:
        raise SmallRadius(
            f"bracket requires R >= 10 (surrogate error is only controlled "
            f"in the large-radius regime), got {R}")
    eps = measured_epsilon_bar(params, R)
    return (almost_ball_volume(params, R / (1.0 + eps)),
            almost_ball_volume(params, R * (1.0 + eps)))


def volume_growth_exponent(params: InstantonParams, radii) -> float:
    """Power-law exponent fitted to almost-ball volumes over the radii.

    Cubic for the generalized family, quartic for the exceptional one (in
    the large-radius regime; the R^2 term dominates small radii).
    """
    radii = [float(R) for R in radii]
    if len(radii) < 4:
        raise InsufficientSamples(
            f"need at least 4 radii for a growth fit, got {len(radii)}")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise BadParams("radii must be strictly increasing")
    vols = [almost_ball_volume(params, R) for R in radii]
    return fit_power_law(radii, vols)


# --------------------------------------------------------------------------
# almost-sphere sandwich
# --------------------------------------------------------------------------

class SandwichSample(NamedTuple):
    """Measured gap Rtilde - R over one almost-sphere AS(Rtilde).

    gap_min/gap_max are extremes of the raw gap; c_min/c_max are the same,
    normalized by log(R).  Across spheres of different radii the normalized
    band should stay bounded (the surrogate differs from the distance by
    O(log R) additively)."""

    gap_min: float
    gap_max: float
    c_min: float
    c_max: float


def sphere_sandwich(params: InstantonParams, r_tilde: float, *, n: int) -> SandwichSample:
    """Sample AS(r_tilde) at n angles and measure Rtilde - distance.
    BadParams unless n is an int >= 2."""
    if r_tilde <= 0.0:
        raise BadParams(f"need a positive radius, got {r_tilde}")
    if not (isinstance(n, int) and n >= 2):
        raise BadParams(f"n must be an int >= 2, got {n!r}")
    gaps, cs = [], []
    for i in range(n):
        u, v = uv_from_almost_polar(params, r_tilde, 0.5 * math.pi * (i / (n - 1)))
        R = distance(params, u, v)
        gaps.append(r_tilde - R)
        cs.append(gaps[-1] / math.log(R))
    return SandwichSample(min(gaps), max(gaps), min(cs), max(cs))
