"""Closed-form metric data, read from the family's formulas.

The four-metric is block diagonal over the leaf space,

    g4 = lam(u, v) (du^2 + dv^2)  +  Ginv_{ij} dtheta^i dtheta^j,

with lam the leaf conformal factor and Ginv the torus fiber matrix.  The
fiber determinant is x^2 where x is the axial half-plane coordinate; the
volume density below is the coefficient of du ^ dv ^ dtheta1 ^ dtheta2, i.e.
lam * x.  Each torus coordinate runs over a circle of circumference 2*pi, so
fiber integrals carry a factor (2 pi)^2.

conformal_factor, fiber_matrix and metric4 accept complex (u, v), so that
:func:`taubnut.numerics.fd_curvature` differentiates metric4 by complex
steps (the contract is in :mod:`taubnut.numerics`).
"""

from __future__ import annotations

import math

import numpy as np

from .family import InstantonParams

TORUS_VOLUME = 4.0 * math.pi ** 2  # integral of dtheta1 ^ dtheta2


def conformal_factor(params: InstantonParams, u, v):
    """Leaf conformal factor lam(u, v) (the coefficient of du^2 + dv^2)."""
    return params.conformal_factor(u, v)


def fiber_matrix(params: InstantonParams, u, v):
    """Torus fiber matrix Ginv as a 2x2 array (complex for a complex point)."""
    e11, e12, e22 = params.fiber(u, v)
    return np.array([[e11, e12], [e12, e22]])


def axial_coordinate(params: InstantonParams, u, v):
    """x = sqrt(det Ginv): distance to the degeneracy locus of the fibration,
    the first coordinate of the half-plane chart."""
    return params.xy_from_uv(u, v)[0]


def volume_density(params: InstantonParams, u, v):
    """Riemannian volume density lam * x in the (u, v, theta1, theta2) chart."""
    return conformal_factor(params, u, v) * axial_coordinate(params, u, v)


def metric4(params: InstantonParams, u, v) -> np.ndarray:
    """Full 4x4 metric in the ordering (u, v, theta1, theta2).  Its dtype
    comes from every entry: lam may stay real while the fiber is complex."""
    lam = conformal_factor(params, u, v)
    e11, e12, e22 = params.fiber(u, v)
    return np.array([[lam, 0.0, 0.0, 0.0], [0.0, lam, 0.0, 0.0],
                     [0.0, 0.0, e11, e12], [0.0, 0.0, e12, e22]])


def collapsing_direction_norms(params: InstantonParams, u: float, v: float) -> tuple[float, float]:
    """Squared fiber norms of the collapsing torus direction and of a
    complementary one.

    For the generalized family the direction w = ((1 - k), -(1 + k)) in the
    torus lattice stays at bounded length along every ray to infinity (the
    geometry collapses to three dimensions), while the complement
    ((1 + k), (1 - k)) grows.  Returns (|w|^2, |w_perp|^2).
    """
    w, w_perp = (np.array(d) for d in params.collapsing_directions())
    G = fiber_matrix(params, u, v)
    return float(w @ G @ w), float(w_perp @ G @ w_perp)
