"""Blowdown limits and pointed limits of the instanton families.

Three degenerations are implemented, each as a pair (limit formulas,
residual table).  The limit formulas are closed-form; the residual table
evaluates the *actual* family metric at finite scaling parameter, applies
the scaling/recombination, and reports the entrywise distance to the limit.
A limit is only trusted when its residuals decay monotonically over decades
of the parameter, so every formula here is a measured limit, not an
assumption.

1. Large-mass limit of the generalized family at fixed blowdown chart
   (u, v):  u_orig = c u, v_orig = c v with c = (M / (2 sqrt2))^(1/4).
   The leaf factor obeys the exact identity

       lam_scaled = sqrt(2 sqrt2 / M) + P,   P = (1+k) u^2 + (1-k) v^2,

   so it converges to P at rate M^(-1/2); the residual tables take that
   leaf residual in closed form.  Collapsing the short torus
   direction gives the 3-dimensional cone-like limit ("conifold"); keeping
   both directions with an M-dependent recombination gives a 4-dimensional
   limit ("second blowdown") whose fiber determinant is exactly u^2 v^2.

2. Large-radius blowdown of the exceptional family: u_orig = M u,
   v_orig = M v, metric scaled by M^-4, second angle by M^-2.  The polytope
   factor converges to u^2 (du^2 + dv^2) at rate M^-2.

3. Unscaled pointed limit of the exceptional family along the v-axis,
   recentered at distance A: the limit is the half-plane family with the
   two momentum variables switched, and its fibers open up from tori to
   cylinders.

Conventions.  Arguments named u, v are always the blowdown-chart
coordinates; k, within the family's |k| < 1, is passed directly since the
limits forget M.  The collapsed angle in the conifold is theta =
((1+k)/2) theta^1 + ((1-k)/2) theta^2.  A 2x2 fiber is a pair of rows,
((g11, g12), (g21, g22)).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .family import (SQRT2, BadParams, Family, InstantonParams, check_chirality, finite_or_bad_params,
                     reals)
from .numerics import Jet, conformal_curvature, jets


class SingularAxis(BadParams):
    """Evaluation on the curvature-singular axis of a blowdown limit."""


def _max_distance(A, B) -> float:
    """Entrywise max |A_ij - B_ij| of two 2x2 fibers; NaN where a difference is."""
    d = [abs(a - b) for row_a, row_b in zip(A, B) for a, b in zip(row_a, row_b)]
    return math.nan if any(x != x for x in d) else max(d)


# --------------------------------------------------------------------------
# conifold (3-dimensional) limit
# --------------------------------------------------------------------------

#: The collapsed-circle coefficient of the measured limit is exactly twice
#: the dtheta^2 coefficient fiber_scalar of conifold_metric (the discrepancy
#: is a normalization of the collapsing angle, constant in k, measured at
#: rate M^(-1/2) over four decades).  Distances/curvatures below use the
#: conifold_metric normalization; only the residual table needs this factor.
CONIFOLD_FIBER_LIMIT_FACTOR = 2.0


class ConifoldCurvature(NamedTuple):
    """Curvature of the 3-metric: polytope sectional curvature, the Ricci
    block in (u, v, theta) coordinates, and the scalar curvature.

    Ricci of this 3-metric is *not* diagonal off the axes: it carries a
    (u,v) cross term.  All entries vanish identically at k = 0."""

    k_sigma: float
    ric_uu: float
    ric_uv: float
    ric_vv: float
    ric_theta: float
    scalar3: float


def _cone_factor(k, u, v):
    """P = (1+k) u^2 + (1-k) v^2, the leaf factor of the conifold limit, as
    (1+k) (u u) + (1-k) (v v).  Works for floats and Jets."""
    return (1.0 + k) * (u * u) + (1.0 - k) * (v * v)


@finite_or_bad_params
def conifold_metric(k: float, u: float, v: float) -> tuple[float, float]:
    """(conformal, fiber_scalar) of g3 = conformal (du^2 + dv^2) + fiber_scalar dtheta^2;
    unwrapped, it takes Jets (u, v), whose P it does not compare with 0."""
    check_chirality(k)
    P = _cone_factor(k, u, v)
    if type(P) is not Jet and P == 0.0:
        raise SingularAxis("the conifold metric degenerates at the origin")
    return P, u * u * v * v * (u * u + v * v) / P


@finite_or_bad_params
def conifold_limit_residual(k: float, u: float, v: float, M: float) -> tuple[float, float]:
    """(leaf residual, fiber residual) of the scaled generalized family at
    mass M against the conifold limit.

    The leaf residual lam_scaled - P is sqrt(2 sqrt2 / M) exactly (see the
    module docstring), and is taken in that form, which does not cancel.
    The fiber residual is the entrywise max distance of the unscaled torus
    matrix at (c u, c v), c = (M / (2 sqrt2))^(1/4), to the rank-one form
    S * w w^T, where w = ((1+k)/2, (1-k)/2) is the collapsed combination and
    S is the measured limit coefficient."""
    params = InstantonParams(Family.GENERALIZED_TN, M=M, k=k)
    c = (M / (2.0 * SQRT2)) ** 0.25
    e11, e12, e22 = params.fiber(c * u, c * v)
    fiber_scalar = conifold_metric(k, u, v)[1]
    w = ((1.0 + k) / 2.0, (1.0 - k) / 2.0)
    S = CONIFOLD_FIBER_LIMIT_FACTOR * fiber_scalar
    return math.sqrt(2.0 * SQRT2 / M), _max_distance(((e11, e12), (e12, e22)),
                                                     [[S * (a * b) for b in w] for a in w])


@finite_or_bad_params
def conifold_curvatures(k: float, u: float, v: float) -> ConifoldCurvature:
    """Closed-form curvature of the conifold 3-metric.

    K_sigma has the closed form 2k((1+k)u^2 - (1-k)v^2) / P^3, checked
    against conifold_polytope_curvature_fd.  The Ricci entries are the
    actual Ricci tensor of the 3-metric, obtained by brute-force symbolic
    computation and checked against conifold_ricci_fd; it is not diagonal
    off the axes, and a diagonal shortcut fails that check (see
    tests/test_blowdown.py)."""
    check_chirality(k)
    u2, v2 = (x * x for x in reals((u, v), "a point"))
    P = _cone_factor(k, u, v)
    Q = u2 + v2
    if P == 0.0 or Q == 0.0:
        raise SingularAxis("curvature blows up at the cone point")
    K = 2.0 * k * ((1.0 + k) * u2 - (1.0 - k) * v2) / P ** 3

    den = Q * Q * P * P
    ric_uu = 2.0 * k * (2.0 * k * u2 ** 3 + 3.0 * k * u2 * u2 * v2
                        - 3.0 * k * v2 ** 3 + 2.0 * u2 ** 3
                        + u2 * u2 * v2 + 2.0 * u2 * v2 * v2
                        + 3.0 * v2 ** 3) / den
    ric_uv = 2.0 * k * u * v * (3.0 * k * u2 * u2 + 4.0 * k * u2 * v2
                                + 3.0 * k * v2 * v2 + 3.0 * u2 * u2
                                - 3.0 * v2 * v2) / den
    ric_vv = -2.0 * k * (3.0 * k * u2 ** 3 - 3.0 * k * u2 * v2 * v2
                         - 2.0 * k * v2 ** 3 + 3.0 * u2 ** 3
                         + 2.0 * u2 * u2 * v2 + u2 * v2 * v2
                         + 2.0 * v2 ** 3) / den
    ric_theta = -6.0 * k * u2 * v2 * (k * u2 * u2 + k * v2 * v2
                                      + u2 * u2 - v2 * v2) / P ** 4
    scalar3 = -8.0 * k * (k * u2 * u2 - k * u2 * v2 + k * v2 * v2
                          + u2 * u2 - v2 * v2) / (Q * P ** 3)
    return ConifoldCurvature(K, ric_uu, ric_uv, ric_vv, ric_theta, scalar3)


@finite_or_bad_params
def conifold_ricci_fd(k: float, u: float, v: float) -> tuple[float, float, float, float]:
    """Ricci tensor of the conifold 3-metric, exact to rounding: entries (uu, uv, vv,
    theta), by block_curvature on the jets of conifold_metric.  BadParams where it
    raises IllConditioned (on the axes, for one) or u, v >= 0 fails; the k = 0 cone is flat."""
    InstantonParams(k=k).check_point(u, v)   # the quadrant: else the mirrored point's value
    from .curvature import block_curvature
    _, ric, (theta, _, _), _, _ = block_curvature(
        lambda a, b: conifold_metric.__wrapped__(k, a, b), u, v, k == 0.0)
    return (*ric, theta)


@finite_or_bad_params
def conifold_polytope_curvature_fd(k: float, u: float, v: float) -> float:
    """K of the polytope factor P (du^2 + dv^2) from the jet of conifold_metric; u, v >= 0."""
    InstantonParams(k=k).check_point(u, v)
    return conformal_curvature(lambda a, b: conifold_metric.__wrapped__(k, a, b)[0], u, v)


# --------------------------------------------------------------------------
# blowdown distance function
# --------------------------------------------------------------------------

def blowdown_distance(k: float, u: float, v: float) -> float:
    """S = (1/2) sqrt(1+k) u^2 + (1/2) sqrt(1-k) v^2: distance to the cone
    point of the blowdown; |grad S| = 1 for the polytope factor exactly; takes Jets (u, v)."""
    check_chirality(k)
    return 0.5 * math.sqrt(1.0 + k) * u * u + 0.5 * math.sqrt(1.0 - k) * v * v


@finite_or_bad_params
def blowdown_distance_gradient_deficit(k: float, u: float, v: float) -> float:
    """| |grad S|_{g_Sigma} - 1 | from the jet of S: 0 to rounding, as (1+k)u^2 + (1-k)v^2 = P."""
    s = blowdown_distance(k, *jets(u, v))
    return abs(math.sqrt((s.du * s.du + s.dv * s.dv) / _cone_factor(k, u, v)) - 1.0)


# --------------------------------------------------------------------------
# second (4-dimensional) generalized blowdown
# --------------------------------------------------------------------------

@finite_or_bad_params
def second_blowdown_metric(k: float, u: float, v: float):
    """(conformal, fiber, moments) of the limit 4-metric: conformal (du^2 + dv^2)
    plus the torus form with matrix fiber; det(fiber) = u^2 v^2 identically.
    moments are the commuting momentum functions of the limit torus action."""
    check_chirality(k)
    u2, v2 = u * u, v * v
    P = _cone_factor(k, u, v)
    if P == 0.0:
        raise SingularAxis("the limit degenerates at the cone point")
    Q = u2 + v2
    fiber = ((u2 * v2 * Q / P, -2.0 * k * u2 * v2 / P),
             (-2.0 * k * u2 * v2 / P, ((1.0 + k) ** 2 * u2 + (1.0 - k) ** 2 * v2) / P))
    moments = (0.5 * u2 * v2, -0.5 * (1.0 + k) * u2 + 0.5 * (1.0 - k) * v2)
    return P, fiber, moments


def second_blowdown_moment_residual(k: float, u: float, v: float) -> float:
    """Entrywise max of | fiber_ij - grad(phi_i).grad(phi_j) / conformal |.

    The momentum functions kept here carry the sign phi^2 =
    -(1+k)u^2/2 + (1-k)v^2/2; the opposite sign flips the fiber cross term
    and is incompatible with the limit matrix."""
    conformal, fiber, _ = second_blowdown_metric(k, u, v)
    dphi = ((u * v * v, u * u * v), (-(1.0 + k) * u, (1.0 - k) * v))
    return _max_distance(fiber, [[(p * r + q * s) / conformal for r, s in dphi] for p, q in dphi])


@finite_or_bad_params
def second_blowdown_limit_residual(k: float, u: float, v: float,
                                   M: float) -> tuple[float, float]:
    """(leaf, fiber) residuals of the generalized family at mass M against
    the 4-dimensional blowdown, after the M-dependent torus recombination

        T = [[sqrt2/(1+k), 0],
             [sqrt(2 sqrt2 M)(1-k)/2, -sqrt(2 sqrt2 M)(1+k)/2]].
    The leaf residual is sqrt(2 sqrt2 / M), as for the conifold.  The fiber
    residual is the entrywise max of D = T F T^T - fiber in its exact form,
    whose terms do not cancel as T F T^T's do: with P the conformal factor,
    W = (1+k)^2 u^2 + (1-k)^2 v^2, E = 2 + 2^(1/4) sqrt(M) P, D22 = -2W / (P E),
    D12 = v^2 |D22| / (1+k) and D11 =
    2v^2 [(1+k)u^2 ((1+k)u^2 - (3k-1)v^2) + 2^(3/4) P / sqrt M] / ((1+k)^2 P E)."""
    InstantonParams(Family.GENERALIZED_TN, M=M, k=k)   # BadParams off the family
    P, _, _ = second_blowdown_metric(k, u, v)
    a, u2, v2 = 1.0 + k, u * u, v * v
    PE = P * (2.0 + 2.0 ** 0.25 * math.sqrt(M) * P)
    d22 = 2.0 * (a * a * u2 + (1.0 - k) ** 2 * v2) / PE
    d11 = 2.0 * v2 * (a * u2 * (a * u2 - (3.0 * k - 1.0) * v2)
                      + 2.0 ** 0.75 * P / math.sqrt(M)) / (a * a * PE)
    return math.sqrt(2.0 * SQRT2 / M), max(abs(d11), v2 * d22 / a, d22)


@finite_or_bad_params
def blowdown_xy_from_uv(u: float, v: float) -> tuple[float, float]:
    """Polytope transition of the blowdown chart: (x, y) = (uv, (u^2-v^2)/2),
    the half-square map; dx^2 + dy^2 = (u^2+v^2)(du^2 + dv^2)."""
    return u * v, 0.5 * (u * u - v * v)


@finite_or_bad_params
def second_blowdown_conformal_xy(k: float, x: float, y: float) -> float:
    """Polytope conformal factor in the (x, y) chart: (k y + r) / r with
    r = sqrt(x^2 + y^2).  Consistency with the (u, v) chart:

        ((k y + r)/r) * (u^2 + v^2) = P    at (x, y) = (uv, (u^2-v^2)/2).
    """
    check_chirality(k)
    r = math.hypot(x, y)
    if r == 0.0:
        raise SingularAxis("the (x, y) form degenerates at the cone point")
    return (k * y + r) / r


# --------------------------------------------------------------------------
# exceptional blowdown
# --------------------------------------------------------------------------

@finite_or_bad_params
def exceptional_blowdown_metric(u: float, v: float):
    """(conformal, fiber) of the exceptional family's blowdown:

        g_Sigma = u^2 (du^2 + dv^2),
        fiber   = (1/2) [[v^2 (u^2 + v^2), v^2], [v^2, 1]].

    Singular along u = 0 (both topologically and in curvature)."""
    if u == 0.0:
        raise SingularAxis("the blowdown is singular along the u = 0 axis")
    u2, v2 = u * u, v * v
    return u2, ((0.5 * (v2 * (u2 + v2)), 0.5 * v2), (0.5 * v2, 0.5))


@finite_or_bad_params
def exceptional_blowdown_curvature(u: float) -> float:
    """Polytope sectional curvature of the exceptional blowdown: +u^(-4).

    The conformal oracle on g_Sigma = u^2 (du^2 + dv^2) gives
    K = -Lap(log u^2) / (2 u^2) = +1/u^4 > 0; the variant carrying the
    opposite sign fails the oracle (see exceptional_blowdown curvature
    tests).  Either way |K| blows up along the singular axis."""
    if u == 0.0:
        raise SingularAxis("curvature is singular along u = 0")
    return 1.0 / u ** 4


@finite_or_bad_params
def exceptional_blowdown_curvature_fd(u: float) -> float:
    """K of the polytope factor u^2 (du^2 + dv^2) from the jet of exceptional_blowdown_metric."""
    if not u > 0.0:
        raise (SingularAxis if u == 0.0 else BadParams)(f"u = {u} is off the blowdown's u > 0")
    return conformal_curvature(lambda a, b: exceptional_blowdown_metric.__wrapped__(a, b)[0], u, 0.0)


@finite_or_bad_params
def exceptional_blowdown_limit_residual(u: float, v: float,
                                        M: float) -> tuple[float, float]:
    """(leaf, fiber) residuals of the exceptional family at scale M against
    its blowdown.  Scaling: (u, v) -> (M u, M v), metric by M^-4, second
    angle by M^-2, so the fiber entries pick up (M^-4, M^-2, 1)."""
    params = InstantonParams(Family.EXCEPTIONAL_TN)
    conf, fib = exceptional_blowdown_metric(u, v)
    lam_scaled = params.conformal_factor(M * u, M * v) * M * M / M ** 4
    e11, e12, e22 = params.fiber(M * u, M * v)
    scaled = ((e11 / M ** 4, e12 / M ** 2), (e12 / M ** 2, e22))
    return abs(lam_scaled - conf), _max_distance(scaled, fib)


# --------------------------------------------------------------------------
# unscaled pointed limit along the exceptional v-axis
# --------------------------------------------------------------------------

class PointedLimitSample(NamedTuple):
    """One row of the pointed-limit residual table: the leaf factor at recentering
    parameter A, the limit fiber, and the recombined fiber's distance to it."""

    conformal: float
    limit_fiber: tuple
    residual: float


#: Topology of the fibration at finite A, and of the limit fibration (simply
#: connected total space): the long direction opens up.  Pointwise metric
#: data alone cannot see the difference; these tags record it.
FINITE_FIBER_TOPOLOGY = "torus"
LIMIT_FIBER_TOPOLOGY = "cylinder"


@finite_or_bad_params
def pointed_limit_fiber(u: float, v: float):
    """Closed-form limit fiber: (1/(1+u^2)) [[(1+u^2)^2 + 4u^2v^2, 2u^2v],
    [2u^2v, u^2]].  Equals the half-plane family fiber at (x, y) = (u, v)
    with the two torus indices swapped."""
    lam = 1.0 + u * u
    return (((lam * lam + 4.0 * u * u * v * v) / lam, 2.0 * u * u * v / lam),
            (2.0 * u * u * v / lam, u * u / lam))


@finite_or_bad_params
def pointed_limit_halfplane(A: float, u: float, v: float) -> PointedLimitSample:
    """Exceptional family recentered at (0, A), evaluated at shifted
    coordinates (u, v) (original v-coordinate A + v), with the Killing
    recombination T = [[sqrt2/A, -sqrt2 A], [0, sqrt2]]: G = T F T^T (1/(2A)
    in place of sqrt2/A makes G diverge like A^2).  residual -> 0 at rate
    O(1/A), and is 0 on the ray v = 0.  G - L cancels terms of size A^2, so
    it is taken in closed form, [[D11, D12], [D12, 0]] with lam = 1 + u^2,
    D11 = v [2A (lam^2 + 2 u^2 v^2) + v (lam^2 + u^2 v^2)] / (A^2 lam), D12 = u^2 v^2 / (A lam)."""
    if A <= 0.0:
        raise BadParams(f"recentering parameter must be positive, got {A}")
    params = InstantonParams(Family.EXCEPTIONAL_TN)
    if A + v <= 0.0:
        raise BadParams(f"shifted point leaves the quadrant: A + v = {A + v}")
    lam, uv2 = 1.0 + u * u, u * u * v * v
    d11 = v * (2.0 * A * (lam * lam + 2.0 * uv2) + v * (lam * lam + uv2)) / (A * A * lam)
    return PointedLimitSample(conformal=params.conformal_factor(u, A + v),
                              limit_fiber=pointed_limit_fiber(u, v),
                              residual=max(abs(d11), abs(uv2 / (A * lam))))


@finite_or_bad_params
def pointed_limit_moments_limit(u: float, v: float) -> tuple[float, float]:
    """Limit momentum functions: the half-plane pair with indices switched."""
    return v * (1.0 + u * u), 0.5 * u * u


@finite_or_bad_params
def halfplane_swap_residual(u: float, v: float) -> float:
    """Entrywise distance between the pointed-limit fiber at (u, v) and the
    half-plane family fiber at (x, y) = (u, v) with torus indices swapped.
    An algebraic identity, so this is roundoff-level."""
    h11, h12, h22 = InstantonParams(Family.EXCEPTIONAL_HALF_PLANE).fiber(u, v)
    return _max_distance(pointed_limit_fiber(u, v), ((h22, h12), (h12, h11)))
