"""Closed-form metric data, read from the family's formulas.

The four-metric is block diagonal over the leaf space,

    g4 = lam(u, v) (du^2 + dv^2)  +  Ginv_{ij} dtheta^i dtheta^j,

with lam the leaf conformal factor and Ginv the torus fiber matrix.  The
fiber determinant is x^2 where x is the axial half-plane coordinate; the
volume density below is the coefficient of du ^ dv ^ dtheta1 ^ dtheta2, i.e.
lam * x.  Each torus coordinate runs over a circle of circumference 2*pi, so
fiber integrals carry a factor (2 pi)^2.

The family kernels behind conformal_factor and fiber_matrix also take Jets
(:mod:`taubnut.numerics`), which the curvature oracles differentiate exactly.
"""

from __future__ import annotations

import math

from .family import InstantonParams, finite_or_bad_params

TORUS_VOLUME = 4.0 * math.pi ** 2  # integral of dtheta1 ^ dtheta2


def conformal_factor(params: InstantonParams, u, v):
    """Leaf conformal factor lam(u, v) (the coefficient of du^2 + dv^2)."""
    return params.conformal_factor(u, v)


def fiber_matrix(params: InstantonParams, u, v):
    """Torus fiber matrix Ginv as a 2x2 array."""
    import numpy as np
    e11, e12, e22 = params.fiber(u, v)
    return np.array([[e11, e12], [e12, e22]])


def axial_coordinate(params: InstantonParams, u, v):
    """x = sqrt(det Ginv): distance to the degeneracy locus of the fibration,
    the first coordinate of the half-plane chart."""
    return params.xy_from_uv(u, v)[0]


def volume_density(params: InstantonParams, u, v):
    """Riemannian volume density lam * x in the (u, v, theta1, theta2) chart."""
    return conformal_factor(params, u, v) * axial_coordinate(params, u, v)


@finite_or_bad_params
def collapsing_direction_norms(params: InstantonParams, u: float, v: float) -> tuple[float, float]:
    """(|w|^2, |w_perp|^2), the diagonal of GeneralizedTN.collapsing_fiber: the
    lattice direction w = (1 - k, -(1 + k)) stays at bounded length along every ray
    to infinity (the geometry collapses to three dimensions), while w_perp =
    (1 + k, 1 - k) grows.  BadParams where one is not finite."""
    ww, _, wp = params.collapsing_fiber(u, v)
    return ww, wp
