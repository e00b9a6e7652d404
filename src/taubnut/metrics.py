"""Closed-form metric data for each family.

The four-metric is block diagonal over the leaf space,

    g4 = lam(u, v) (du^2 + dv^2)  +  Ginv_{ij} dtheta^i dtheta^j,

with lam the leaf conformal factor and Ginv the torus fiber matrix.  The
fiber determinant is x^2 where x is the axial half-plane coordinate; the
volume density below is the coefficient of du ^ dv ^ dtheta1 ^ dtheta2, i.e.
lam * x.  Each torus coordinate runs over a circle of circumference 2*pi, so
fiber integrals carry a factor (2 pi)^2.

All kernels accept :class:`taubnut.numerics.Dual` arguments, which gives
exact first derivatives for the curvature stencils.
"""

from __future__ import annotations

import math

import numpy as np

from .family import SQRT2, Family, InstantonParams, require

TORUS_VOLUME = 4.0 * math.pi ** 2  # integral of dtheta1 ^ dtheta2


def generalized_D(k, u, v):
    """D = 1 + (1+k) u^2 + (1-k) v^2, the quadratic form every generalized
    family kernel is built from.  Works for floats, Duals and arrays."""
    return 1.0 + (1.0 + k) * u * u + (1.0 - k) * v * v


def conformal_factor(params: InstantonParams, u, v):
    """Leaf conformal factor lam(u, v) (the coefficient of du^2 + dv^2)."""
    fam = params.family
    if fam is Family.GENERALIZED_TN:
        k, M = params.k, params.M
        D = generalized_D(k, u, v)
        return 2.0 * SQRT2 * D / M
    if fam in (Family.EXCEPTIONAL_TN, Family.EXCEPTIONAL_HALF_PLANE):
        return 1.0 + u * u
    return 1.0 + 0.0 * u  # flat


def fiber_matrix(params: InstantonParams, u, v):
    """Torus fiber matrix Ginv as a 2x2 array (entries share the argument
    type, so Dual input yields Dual entries)."""
    fam = params.family
    if fam is Family.GENERALIZED_TN:
        k, M = params.k, params.M
        D = generalized_D(k, u, v)
        pre = SQRT2 / (M * D)
        e11 = pre * v * v * ((1.0 + (1.0 + k) * u * u) ** 2 + (1.0 + k) ** 2 * u * u * v * v)
        e12 = pre * u * u * v * v * (2.0 + (1.0 - k * k) * (u * u + v * v))
        e22 = pre * u * u * ((1.0 + (1.0 - k) * v * v) ** 2 + (1.0 - k) ** 2 * u * u * v * v)
    elif fam is Family.EXCEPTIONAL_TN:
        lam = 1.0 + u * u
        e11 = 0.5 * v * v * (lam * lam + u * u * v * v) / lam
        e12 = 0.5 * u * u * v * v / lam
        e22 = 0.5 * u * u / lam
    elif fam is Family.EXCEPTIONAL_HALF_PLANE:
        x, y = u, v
        lam = 1.0 + x * x
        e11 = x * x / lam
        e12 = 2.0 * x * x * y / lam
        e22 = (lam * lam + 4.0 * x * x * y * y) / lam
    else:
        x = u
        e11 = x * x
        e12 = 0.0 * u
        e22 = 1.0 + 0.0 * u
    return np.array([[e11, e12], [e12, e22]])


def axial_coordinate(params: InstantonParams, u, v):
    """x = sqrt(det Ginv): distance to the degeneracy locus of the fibration."""
    fam = params.family
    if fam is Family.GENERALIZED_TN:
        return SQRT2 * u * v / params.M
    if fam is Family.EXCEPTIONAL_TN:
        return u * v / 2.0
    return u  # half-plane families: x itself


def volume_density(params: InstantonParams, u, v):
    """Riemannian volume density lam * x in the (u, v, theta1, theta2) chart."""
    return conformal_factor(params, u, v) * axial_coordinate(params, u, v)


def metric4(params: InstantonParams, u: float, v: float) -> np.ndarray:
    """Full 4x4 metric in the ordering (u, v, theta1, theta2)."""
    lam = conformal_factor(params, u, v)
    g = np.zeros((4, 4))
    g[0, 0] = g[1, 1] = lam
    g[2:, 2:] = fiber_matrix(params, u, v)
    return g


def collapsing_direction_norms(params: InstantonParams, u: float, v: float) -> tuple[float, float]:
    """Squared fiber norms of the collapsing torus direction and of a
    complementary one.

    For the generalized family the direction w = ((1 - k), -(1 + k)) in the
    torus lattice stays at bounded length along every ray to infinity (the
    geometry collapses to three dimensions), while the complement
    ((1 + k), (1 - k)) grows.  Returns (|w|^2, |w_perp|^2).
    """
    require(params, Family.GENERALIZED_TN, what="the collapsing direction")
    k = params.k
    G = fiber_matrix(params, u, v)
    w = np.array([1.0 - k, -(1.0 + k)])
    w_perp = np.array([1.0 + k, 1.0 - k])
    return float(w @ G @ w), float(w_perp @ G @ w_perp)
