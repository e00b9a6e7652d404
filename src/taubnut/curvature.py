"""Curvature: the family-blind integrals and oracles around the curvature
closed forms -- the FD Gauss curvature oracle, the FD Jacobian of the Ricci
potentials, the L^2 Ricci energy by quadrature, a finite-difference
curvature oracle for the full 4-metric, and decay-rate fits along geodesics.

The closed forms are methods and attributes of the family's class in
:mod:`taubnut.family`, called on the parameters directly (``params.<name>``):

* ``polytope_curvature(u, v)`` is the genuine Gauss curvature of the leaf
  metric lambda (du^2 + dv^2), i.e. the value the conformal oracle
  K = -Laplacian(log lambda)/(2 lambda) (:func:`polytope_curvature_fd`)
  converges to.  For the generalized family this is
  (M/sqrt(2)) (-1 + k(1+k)u^2 - k(1-k)v^2) / D^3.  The same formula with
  prefactor M instead of M/sqrt(2) disagrees with the oracle (and with the
  k -> 1 degeneration onto the exceptional family) by exactly sqrt(2).

* ``ricci_potentials(u, v)`` is the invariant pair (R1, R2) whose exterior
  product is the Ricci pseudo-volume form; it accepts complex (u, v).
  ``ricci_density(u, v)`` is |det d(R1, R2)/d(u, v)| in closed form:
  8 k^2 u v / D^3 (GeneralizedTN), 2 u v / (1+u^2)^3 (ExceptionalTN),
  16 x / (1+x^2)^3 (ExceptionalHalfPlane; the Jacobian cross-check
  :func:`ricci_pseudo_jacobian_fd` pins the prefactor 16, not 8).

* ``ricci_norm(u, v)`` follows the convention in which the pseudo-volume
  identity
      d(R1) ^ d(R2) = |Ric|^2 * lambda x du dv
  holds exactly for the quadrant families.  The half-plane instanton's
  closed-form |Ric| = sqrt(8)/(1+x^2)^2 sits a factor sqrt(2) below that
  convention (its pseudo-volume density is 16x/(1+x^2)^3, not 8x); both the
  norm and the true Jacobian density are kept, and the factor-2 offset in
  the product identity is asserted, not hidden.

* ``l2_ricci_closed`` is the total L^2 Ricci energy without quadrature:
  4 pi^2 k^2/(1-k^2) for GeneralizedTN, 0 for Flat, math.inf for the
  exceptional families.  ``l2_riemann`` (GeneralizedTN only) is the total
  L^2 Riemann energy by the Gauss-Bonnet combination for scalar-flat
  4-manifolds of Euler characteristic 1:

      integral |Rm|^2 = 32 pi^2 + 4 * integral |Ric|^2
                      = 16 pi^2 (2 - k^2) / (1 - k^2).

* The FD oracle's Ricci tensor norm relates to ricci_norm by a frozen
  per-family calibration factor (``ricci_calibration`` of the family's
  class): 2 for the Taub-NUT-type families, sqrt(2) for the half-plane
  instanton.  It is frozen against symbolic Ricci norms of the three
  4-metrics (|Ric|^2_tensor = 8 M^2 k^2 / D^4, 16/(1+u^2)^4, 16/(1+x^2)^4).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .family import BadParams, InstantonParams
from .metrics import TORUS_VOLUME, conformal_factor, metric4
from .numerics import (IllConditioned, QuadratureResult, check_stencil,
                       fd_conformal_curvature, fd_curvature, fd_jacobian2,
                       fit_power_law, integrate_2d_improper, integrate_2d_region)


class EnergyReport(NamedTuple):
    closed_form: float           # math.inf when the integral diverges
    quadrature: QuadratureResult | None
    rel_error: float
    growth_samples: tuple[tuple[float, float], ...] = ()
    growth_exponent: float | None = None


class Curvature4Sample(NamedTuple):
    scalar: float
    ricci_norm: float
    rm_norm_sq: float


# --------------------------------------------------------------------------
# polytope (leaf) sectional curvature and Ricci data
# --------------------------------------------------------------------------

def polytope_curvature_fd(params: InstantonParams, u: float, v: float) -> float:
    """Conformal-metric Gauss curvature oracle K = -Lap(log lambda)/(2 lambda)
    at step 1e-3, O(step^2).  Needs 2*step of clearance from the chart
    boundary."""
    step = 1e-3
    check_stencil(u, v, 2 * step, params.bounds)
    return fd_conformal_curvature(lambda a, b: conformal_factor(params, a, b), u, v, step=step)


def ricci_pseudo_jacobian_fd(params: InstantonParams, u: float, v: float) -> float:
    """FD oracle for the pseudo-volume density: |det of the potential
    Jacobian| by central differences of step 1e-4."""
    jac = fd_jacobian2(params.ricci_potentials, u, v, step=1e-4)
    return abs(jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0])


# --------------------------------------------------------------------------
# L^2 energies
# --------------------------------------------------------------------------

def l2_ricci(params: InstantonParams) -> EnergyReport:
    """Total L^2 Ricci energy: the fiber volume 4 pi^2 times the integral of
    the pseudo-volume density over the polytope.

    GeneralizedTN (|k|<1): finite, closed form 4 pi^2 k^2/(1-k^2), verified
    by improper quadrature to 1e-9 relative.  The exceptional families
    diverge; the report then carries partial energies over the almost-balls
    (quadratic growth for ExceptionalTN) or strips of height (linear growth
    for the half-plane) of radius 25, 50, 100 and 200, with the fitted
    growth exponent.  Flat space and k = 0 carry no Ricci energy.
    """
    closed = params.l2_ricci_closed
    if closed == 0.0:
        return EnergyReport(0.0, None, 0.0)

    def f(u, v):
        return TORUS_VOLUME * params.ricci_density(u, v)

    if math.isfinite(closed):
        quad = integrate_2d_improper(f)
        return EnergyReport(closed, quad, abs(quad.value - closed) / closed)

    samples = []
    for R in (25.0, 50.0, 100.0, 200.0):
        u_max, v_max, weight = params.energy_region(R)
        samples.append((R, weight * integrate_2d_region(f, u_max, v_max).value))
    exponent = fit_power_law([R for R, _ in samples], [e for _, e in samples])
    return EnergyReport(math.inf, None, math.inf,
                        growth_samples=tuple(samples), growth_exponent=exponent)


# --------------------------------------------------------------------------
# FD curvature of the 4-metric
# --------------------------------------------------------------------------

def curvature4_fd(params: InstantonParams, u: float, v: float,
                  *, step: float = 1e-3) -> Curvature4Sample:
    """Scalar curvature, |Ric| and |Rm|^2 of the full 4-metric by finite
    differences (metric4's first derivatives by exact complex steps, central
    FD of the Christoffel symbols).  The reported ricci_norm is already
    divided by the family's frozen ``ricci_calibration`` factor, so it is
    directly comparable to the family's ricci_norm(u, v); errors are O(step^2).
    The stencil keeps 2*step clear of the chart domain's edges, where the
    fiber degenerates; BadParams unless step is finite and positive;
    IllConditioned where g or its derivatives are not finite on the
    stencil, g is singular there, or cond(g) > 1e12.
    """
    import numpy as np
    if not 0.0 < step < math.inf:
        raise BadParams(f"FD step {step} is not finite and positive")
    check_stencil(u, v, 2 * step, params.bounds)

    try:
        g, ginv, riem, ric = fd_curvature(lambda a, b: metric4(params, a, b), u, v, step=step)
        cond = np.linalg.cond(g)
    except np.linalg.LinAlgError:   # a singular metric on the stencil
        cond = math.inf
    if not cond <= 1e12:
        raise IllConditioned(f"cond(g) = {cond:.2e} at ({u}, {v})")
    scalar = float(np.einsum('ki,ki->', ginv, ric))
    ric_sq = float(np.einsum('ij,kl,ik,jl->', ric, ric, ginv, ginv))
    riem_low = np.einsum('lm,mkij->lkij', g, riem)
    # raise one index per pass and move it last: n^5 work, where one einsum over all 8 takes n^8
    riem_up = riem_low
    for _ in range(4):
        riem_up = (riem_up.reshape(4, -1).T @ ginv).reshape(riem_low.shape)
    return Curvature4Sample(scalar=scalar, rm_norm_sq=float(np.vdot(riem_low, riem_up)),
                            ricci_norm=math.sqrt(max(ric_sq, 0.0)) / params.ricci_calibration)


# --------------------------------------------------------------------------
# decay fits
# --------------------------------------------------------------------------

def decay_rate_along_geodesic(params: InstantonParams, eta: float,
                              quantity: str, R_samples) -> float:
    """Fitted power-law exponent of |quantity| vs R along the eta-geodesic.

    quantity: "K_sigma" | "Ric" | "Rm_fd".  Samples are taken with
    point_from_polar; Rm_fd nudges points off the chart domain's edges by a
    distance-proportional offset since the FD oracle cannot sit on an axis.
    """
    from .geodesics import point_from_polar
    if len(R_samples) < 4:
        raise BadParams("need at least 4 radii for a decay fit")
    (u_lo, _), (v_lo, _) = params.bounds
    vals = []
    for R in R_samples:
        u, v = point_from_polar(params, float(R), eta)
        if quantity == "K_sigma":
            q = abs(params.polytope_curvature(u, v))
        elif quantity == "Ric":
            q = params.ricci_norm(u, v)
        elif quantity == "Rm_fd":
            u, v = max(u, u_lo + 1e-2 * R), max(v, v_lo + 1e-2 * R)
            q = math.sqrt(curvature4_fd(params, u, v, step=min(1e-3 * R, 1e-2)).rm_norm_sq)
        else:
            raise BadParams(f"unknown quantity {quantity!r}")
        if q < 1e-300:
            raise BadParams(f"{quantity} vanishes along this geodesic; "
                            "no power law to fit")
        vals.append(q)
    return fit_power_law(list(R_samples), vals)
