"""Curvature: the family-blind integrals and oracles around the curvature
closed forms -- the oracles of the Gauss curvature and of the Ricci pseudo-
density and the curvature of the full 4-metric, all from jets at one point,
the L^2 Ricci energy by quadrature, and decay-rate fits along geodesics.

The closed forms are methods and attributes of the family's class in
:mod:`taubnut.family`, called on the parameters directly (``params.<name>``):

* ``polytope_curvature(u, v)`` is the genuine Gauss curvature of the leaf
  metric lambda (du^2 + dv^2), i.e. the value of the conformal oracle
  K = -Laplacian(log lambda)/(2 lambda) (:func:`polytope_curvature_fd`)
  to rounding.  For the generalized family this is
  (M/sqrt(2)) (-1 + k(1+k)u^2 - k(1-k)v^2) / D^3.  The same formula with
  prefactor M instead of M/sqrt(2) disagrees with the oracle (and with the
  k -> 1 degeneration onto the exceptional family) by exactly sqrt(2).

* ``ricci_potentials(u, v)`` is the invariant pair (R1, R2) whose exterior
  product is the Ricci pseudo-volume form; it accepts Jets (u, v).
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

* curvature4_fd's Ricci tensor norm relates to ricci_norm by a frozen
  per-family calibration factor (``ricci_calibration`` of the family's
  class): 2 for the Taub-NUT-type families, sqrt(2) for the half-plane
  instanton.  It is frozen against symbolic Ricci norms of the three
  4-metrics (|Ric|^2_tensor = 8 M^2 k^2 / D^4, 16/(1+u^2)^4, 16/(1+x^2)^4).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .family import BadParams, InstantonParams, finite_or_bad_params
from .metrics import TORUS_VOLUME, conformal_factor
from .numerics import (IllConditioned, Jet, QuadratureResult, conformal_curvature, fit_power_law,
                       integrate_2d_improper, integrate_2d_region, jets)


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

@finite_or_bad_params
def polytope_curvature_fd(params: InstantonParams, u: float, v: float) -> float:
    """Gauss curvature oracle K = -Lap(log lambda)/(2 lambda) from the jet of conformal_factor."""
    params.check_point(u, v)
    return conformal_curvature(lambda a, b: conformal_factor(params, a, b), u, v)


@finite_or_bad_params
def ricci_pseudo_jacobian_fd(params: InstantonParams, u: float, v: float) -> float:
    """Pseudo-volume density oracle |det d(R1, R2)/d(u, v)| from the jets of ricci_potentials."""
    params.check_point(u, v)
    r1, r2 = params.ricci_potentials(*jets(u, v))
    return abs(r1.du * r2.dv - r1.dv * r2.du)


# --------------------------------------------------------------------------
# L^2 energies
# --------------------------------------------------------------------------

def l2_ricci(params: InstantonParams) -> EnergyReport:
    """Total L^2 Ricci energy: the fiber volume 4 pi^2 times the integral of
    the pseudo-volume density over the polytope.

    GeneralizedTN (|k|<1): finite, closed form 4 pi^2 k^2/(1-k^2), verified
    by improper quadrature to 1e-9 relative in the axes x = a u, y = b v,
    where the family's D is isotropic.  The exceptional families
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

    if math.isfinite(closed):   # GeneralizedTN: in x = a u, y = b v, D = 1 + x^2 + y^2
        a, b = params.a, params.b
        quad = integrate_2d_improper(lambda x, y: f(x / a, y / b) / (a * b))
        return EnergyReport(closed, quad, abs(quad.value - closed) / closed)

    samples = []
    for R in (25.0, 50.0, 100.0, 200.0):
        u_max, v_max, weight = params.energy_region(R)
        samples.append((R, weight * integrate_2d_region(f, u_max, v_max).value))
    exponent = fit_power_law([R for R, _ in samples], [e for _, e in samples])
    return EnergyReport(math.inf, None, math.inf,
                        growth_samples=tuple(samples), growth_exponent=exponent)


# --------------------------------------------------------------------------
# curvature of the 4-metric
# --------------------------------------------------------------------------

def jet_curvature(metric, u: float, v: float, flat: bool):
    """Riemann and Ricci tensors, exact to rounding, of an n-metric of its first two
    coordinates: ``metric(a, b)``, the matrix as rows of Jets and numbers, called on the
    jets of u and v.  Returns (g, g^-1, riem, ric, |Rm|^2), riem[l, k, i, j] = R^l_kij =
    d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik and ric[k, i] = R^l_kli, for
    G^l_ij = g^lm (d_i g_mj + d_j g_mi - d_m g_ij) / 2 and d_p G = g^-1 (d_p G_low - d_p g G).
    IllConditioned where g or a derivative is not finite, g is singular, or the rounding
    bound eps |T| max_i g_ii g^ii, T the sum of the absolute values of R's terms, exceeds
    1e-6 |Rm|, as near an axis, where the chart's terms dwarf the curvature; a flat
    metric is zero to within the bound and exempt from it."""
    import numpy as np
    rows = metric(*jets(u, v))
    n, nn = len(rows), len(rows) ** 2
    G = np.array([(e.val, e.du, e.dv, e.duu, e.duv, e.dvv) if type(e) is Jet else (e, 0, 0, 0, 0, 0)
                  for row in rows for e in row]).T.reshape(6, n, n)   # g, d_u g, ..., d_vv g
    if not np.isfinite(G).all():
        raise IllConditioned(f"metric or a derivative not finite at ({u}, {v})")
    try:
        g, ginv = G[0], np.linalg.inv(G[0])
    except np.linalg.LinAlgError:
        raise IllConditioned(f"metric singular at ({u}, {v})") from None
    dg = np.zeros((3, n, n, n))   # d_m g_ij, d_m d_u g_ij and d_m d_v g_ij; zero for m >= 2
    dg[:, :2] = G[[1, 2, 3, 4, 4, 5]].reshape(3, 2, n, n)
    low = 0.5 * (dg.transpose(0, 2, 1, 3) + dg.transpose(0, 2, 3, 1) - dg)   # G_mij, d_p G_mij
    gam = ginv @ low[0].reshape(n, nn)
    dgam = np.zeros((n, n, nn))   # dgam[l, i] = d_i G^l, zero for i >= 2
    dgam[:, :2] = (ginv @ (low[1:].reshape(2, n, nn) - G[1:3] @ gam)).transpose(1, 0, 2)
    size = abs(gam)   # terms: d_i G^l_jk + G^l_im G^m_jk at [l, i, j, k], and its sizes
    terms = np.array([dgam.reshape(nn, nn) + gam.reshape(nn, n) @ gam, abs(dgam).reshape(nn, nn)
                      + size.reshape(nn, n) @ size]).transpose(1, 2, 0).reshape(n, n, n, n, 2)
    both = terms + terms.transpose(0, 2, 1, 3, 4) * np.array([-1.0, 1.0])   # R^l_kij and T
    full = both   # l lowered, i, j and k raised, one index a pass, moved last: n^5 work
    for mat in (g, ginv, ginv, ginv):
        full = full.reshape(n, -1).T @ mat
    rm_sq, t_sq = (full.reshape(2, -1) @ both.reshape(-1, 2)).diagonal()
    bound = math.ulp(1.0) * math.sqrt(t_sq) * float((g.diagonal() * ginv.diagonal()).max())
    if not (bound <= 1e-6 * math.sqrt(max(rm_sq, 0.0)) or flat and bound < math.inf):
        raise IllConditioned(f"rounding bound {bound:.2e} of |Rm|^2 = {rm_sq:.2e} at ({u}, {v})")
    riem = both[..., 0]   # R^l_kij at [l, i, j, k]; Ric_ki = R^l_kli its trace over l and i
    return g, ginv, riem.transpose(0, 3, 1, 2), riem.trace().T, float(rm_sq)


def _metric4(params: InstantonParams, u: float, v: float):
    """The 4-metric's rows on the jets (a, b): (u, v), then the basis curvature_fiber picks."""
    fiber = params.curvature_fiber(u, v)

    def metric(a, b):
        lam, (e11, e12, e22) = params.conformal_factor(a, b), fiber(a, b)
        return ((lam, 0, 0, 0), (0, lam, 0, 0), (0, 0, e11, e12), (0, 0, e12, e22))
    return metric


def curvature4_fd(params: InstantonParams, u: float, v: float) -> Curvature4Sample:
    """Scalar curvature, |Ric| and |Rm|^2 of the full 4-metric by jet_curvature, in the
    torus basis params.curvature_fiber(u, v) picks.  The ricci_norm is divided by the
    family's frozen ``ricci_calibration``, so it compares with the family's ricci_norm.
    BadParams off the chart domain; IllConditioned where g is singular (on an axis) or
    not finite, or where rounding would leave |Rm| fewer than six digits (near one)."""
    params.check_point(u, v)
    _, ginv, _, ric, rm_sq = jet_curvature(_metric4(params, u, v), u, v, params.flat)
    mixed = ginv @ ric   # scalar = tr(g^-1 Ric), |Ric|^2 = tr((g^-1 Ric)^2)
    return Curvature4Sample(scalar=float(mixed.trace()), rm_norm_sq=rm_sq, ricci_norm=math.sqrt(
        max(float((mixed * mixed.T).sum()), 0.0)) / params.ricci_calibration)


# --------------------------------------------------------------------------
# decay fits
# --------------------------------------------------------------------------

def decay_rate_along_geodesic(params: InstantonParams, eta: float,
                              quantity: str, R_samples) -> float:
    """Fitted power-law exponent of |quantity| vs R along the eta-geodesic, sampled by
    point_from_polar.  quantity: "K_sigma" | "Ric" | "Rm_fd" (|Rm| by curvature4_fd, which
    raises IllConditioned on an axis or where rounding leaves too few digits near one)."""
    from .geodesics import point_from_polar
    if len(R_samples) < 4:
        raise BadParams("need at least 4 radii for a decay fit")
    measure = {"K_sigma": lambda *uv: abs(params.polytope_curvature(*uv)), "Ric": params.ricci_norm,
               "Rm_fd": lambda *uv: math.sqrt(curvature4_fd(params, *uv).rm_norm_sq)}.get(quantity)
    if measure is None:
        raise BadParams(f"unknown quantity {quantity!r}")
    if params.flat:   # every curvature vanishes; |Rm|'s samples would be rounding
        raise BadParams(f"{quantity} vanishes on flat space; no power law to fit")
    vals = []
    for R in R_samples:
        q = measure(*point_from_polar(params, float(R), eta))
        if q < 1e-300:
            raise BadParams(f"{quantity} vanishes along this geodesic; no power law to fit")
        vals.append(q)
    return fit_power_law(list(R_samples), vals)
