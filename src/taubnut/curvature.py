"""Curvature: the family-blind integrals and oracles around the curvature
closed forms -- the oracles of the Gauss curvature, of the Ricci pseudo-density
and of the curvature of toric metrics (block_curvature), all from jets at one
point, the L^2 Ricci energy, and decay-rate fits along geodesics.

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
  exceptional families, with partial energies ``partial_ricci_energy(R)``.
  ``l2_riemann`` (GeneralizedTN only) is the total L^2 Riemann energy by the
  Gauss-Bonnet combination for scalar-flat 4-manifolds of Euler characteristic 1:

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

from .family import BadParams, InstantonParams, finite_or_bad_params, reals
from .metrics import TORUS_VOLUME, conformal_factor
from .numerics import (IllConditioned, Jet, QuadratureResult, conformal_curvature, fit_power_law,
                       integrate_2d_improper, jets)


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

    GeneralizedTN (|k|<1): finite, closed form 4 pi^2 k^2/(1-k^2), verified by improper
    quadrature to 1e-9 relative in the axes x = a u, y = b v, where the family's D is
    isotropic.  The exceptional families diverge; the report then carries the closed-form
    ``partial_ricci_energy(R)`` over the almost-balls (quadratic growth for ExceptionalTN) or
    the strips |y| <= R (linear for the half-plane) at R = 25, 50, 100 and 200, with the
    fitted growth exponent; their quadrature oracle is in the tests.  Flat space and k = 0
    carry no Ricci energy.
    """
    closed = params.l2_ricci_closed
    if closed == 0.0:
        return EnergyReport(0.0, None, 0.0)
    if math.isfinite(closed):   # GeneralizedTN: in x = a u, y = b v, D = 1 + x^2 + y^2
        a, b = params.a, params.b
        quad = integrate_2d_improper(
            lambda x, y: TORUS_VOLUME * params.ricci_density(x / a, y / b) / (a * b))
        return EnergyReport(closed, quad, abs(quad.value - closed) / closed)
    samples = tuple((R, params.partial_ricci_energy(R)) for R in (25.0, 50.0, 100.0, 200.0))
    return EnergyReport(math.inf, None, math.inf, growth_samples=samples,
                        growth_exponent=fit_power_law(*zip(*samples)))


# --------------------------------------------------------------------------
# curvature of the toric metrics
# --------------------------------------------------------------------------

def _sandwich(x, f, y):
    """x f y of symmetric 2 x 2 matrices, each (11, 12, 22), as (11, 12, 22, 21)."""
    (a, b, c), (p, q, r), (s, t, w) = x, f, y
    f11, f12, f21, f22 = p * s + q * t, p * t + q * w, q * s + r * t, q * t + r * w
    return a * f11 + b * f21, a * f12 + b * f22, b * f12 + c * f22, b * f11 + c * f21


def _dot(x, y):
    """tr(X Y) of symmetric 2 x 2 matrices, each given by its first entries (11, 12, 22)."""
    return x[0] * y[0] + 2.0 * x[1] * y[1] + x[2] * y[2]


def _blocks(s, parts, fi, det):
    """(|Rm|^2, R_uvuv, A_uu, A_vv, A_uv's symmetric part, R_1212), A_ab = (R_aibj)_ij, from the
    parts (value, d_u, d_v, d_uu, d_uv, d_vv) of lam and F's (11, 12, 22), fi = F^-1: values for
    s = -1; for s = 1, on the parts' absolute values and |F^-1| in products, each component's summed
    term sizes, as of R_aibj = -d_a d_b F_ij / 2 + (d_b F F^-1 d_a F)_ij / 4 + G^c_ab d_c F_ij / 2
    (G the base's symbols).  |Rm|^2 raises by 1/lam and F^-1: the A fill 4 of the 16 index
    patterns, R_abij 2 and, as A_uv's antisymmetric part R_uv12 / 2, 4 more; R_uvuv, R_1212 4 each."""
    (l, lu, lv, luu, _, lvv), *fiber = parts
    _, Fu, Fv, Fuu, Fuv, Fvv = zip(*fiber)
    h, fa = 0.5 / l, fi if s < 0.0 else [*map(abs, fi)]
    mu, mv, (k11, k12, k22, k21) = _sandwich(Fu, fa, Fu), _sandwich(Fv, fa, Fv), _sandwich(Fv, fa, Fu)
    A = [[0.5 * (s * a + h * (c * x + d * y)) + 0.25 * m for a, x, y, m in zip(H, Fu, Fv, M)]
         for H, c, d, M in ((Fuu, lu, s * lv, mu), (Fvv, s * lu, lv, mv),   # G^c_ab = h (c, d)
                            (Fuv, lv, lu, (k11, 0.5 * (k12 + k21), k22)))]
    base, beta = (lu * lu + lv * lv) * h + 0.5 * s * (luu + lvv), 0.25 * (k12 + s * k21)
    fib = 0.5 * h * (Fu[1] * Fu[1] + Fv[1] * Fv[1] + s * (Fu[0] * Fu[2] + Fv[0] * Fv[2]))
    sq = sum(w * _dot(_sandwich(fi, a, fi), a) for w, a in zip((1.0, 1.0, 2.0), A))   # tr((F^-1 A)^2)
    b2, f2, mixed = base / (l * l), fib / det, (sq + 3.0 * beta * beta / det) / (l * l)
    return 4.0 * (b2 * b2 + f2 * f2 + mixed), base, *A, fib


def block_curvature(metric, u: float, v: float, flat: bool):
    """(scalar, (Ric_uu, Ric_uv, Ric_vv), [Ric_11, Ric_12, Ric_22], |Ric|^2, |Rm|^2), exact to
    rounding, of g = lam (du^2 + dv^2) + F_ij dtheta^i dtheta^j, ``metric(a, b)`` = (lam, F11, F12,
    F22), or (lam, F11) for a circle fiber, as Jets or numbers on the jets of u and v.  O'Neill's
    A = 0: R_uvuv = K lam^2 (K the Gauss curvature), R_aibj as in _blocks, R_abij = R_aibj - R_ajbi,
    R_ijkl = sum_c (d_c F_jk d_c F_il - d_c F_jl d_c F_ik) / (4 lam); components with an odd number
    of fiber indices vanish (theta -> -theta).  IllConditioned where a part is not finite, lam or
    det F is not positive, or the rounding bound eps |T| max_i g_ii g^ii (T: term sizes contracted
    as |Rm|) exceeds 1e-6 |Rm|, as near an axis; a flat metric is exempt (zero to within it)."""
    entries = metric(*jets(u, v))
    parts = [(e.val, e.du, e.dv, e.duu, e.duv, e.dvv) if type(e) is Jet else (e,) + (0.0,) * 5
             for e in (*entries, *((0.0, 1.0) if len(entries) == 2 else ()))]   # a circle: F22 = 1
    l, p, q, r = (x[0] for x in parts)
    det = p * r - q * q
    if not (l > 0.0 and det > 0.0 and all(math.isfinite(x) for part in parts for x in part)):
        raise IllConditioned(f"metric singular, or it or a derivative not finite, at ({u}, {v})")
    fi = (r / det, -q / det, p / det)
    rm_sq, base, Auu, Avv, Auv, fib = _blocks(-1.0, parts, fi, det)
    bound = (math.ulp(1.0) * max(1.0, p * fi[0])
             * math.sqrt(_blocks(1.0, [[*map(abs, x)] for x in parts], fi, det)[0]))
    if not (bound <= 1e-6 * math.sqrt(max(rm_sq, 0.0)) < math.inf or flat and bound < math.inf):
        raise IllConditioned(f"rounding bound {bound:.2e} of |Rm|^2 = {rm_sq:.2e} at ({u}, {v})")
    uu, uv, vv = base / l + _dot(fi, Auu), _dot(fi, Auv), base / l + _dot(fi, Avv)
    ric = [(a + b) / l + fib / det * f for a, b, f in zip(Auu, Avv, (p, q, r))]
    return ((uu + vv) / l + _dot(fi, ric), (uu, uv, vv), ric,
            (uu * uu + 2.0 * uv * uv + vv * vv) / (l * l) + _dot(_sandwich(fi, ric, fi), ric), rm_sq)


def curvature4_fd(params: InstantonParams, u: float, v: float) -> Curvature4Sample:
    """Scalar curvature, |Ric| and |Rm|^2 of the full 4-metric by block_curvature, in the torus
    basis params.curvature_fiber(u, v) picks; ricci_norm is divided by the family's frozen
    ``ricci_calibration`` to compare with its ricci_norm.  BadParams off the chart domain;
    IllConditioned on an axis, where g is not finite, or where |Rm| would keep < 6 digits."""
    params.check_point(u, v)
    fiber = params.curvature_fiber(u, v)
    scalar, _, _, ric_sq, rm_sq = block_curvature(
        lambda a, b: (params.conformal_factor(a, b), *fiber(a, b)), u, v, params.flat)
    return Curvature4Sample(scalar, math.sqrt(max(ric_sq, 0.0)) / params.ricci_calibration, rm_sq)


# --------------------------------------------------------------------------
# decay fits
# --------------------------------------------------------------------------

def decay_rate_along_geodesic(params: InstantonParams, eta: float,
                              quantity: str, R_samples) -> float:
    """Fitted power-law exponent of |quantity| vs R along the eta-geodesic, sampled by
    point_from_polar.  quantity: "K_sigma" | "Ric" | "Rm_fd" (|Rm| by curvature4_fd, which
    raises IllConditioned on an axis or where rounding leaves too few digits near one)."""
    from .geodesics import point_from_polar
    radii = reals(R_samples, "the radii of a decay fit")
    if len(radii) < 4:
        raise BadParams("need at least 4 radii for a decay fit")
    measure = {"K_sigma": lambda *uv: abs(params.polytope_curvature(*uv)), "Ric": params.ricci_norm,
               "Rm_fd": lambda *uv: math.sqrt(curvature4_fd(params, *uv).rm_norm_sq)}.get(quantity)
    if measure is None:
        raise BadParams(f"unknown quantity {quantity!r}")
    if params.flat:   # every curvature vanishes; |Rm|'s samples would be rounding
        raise BadParams(f"{quantity} vanishes on flat space; no power law to fit")
    vals = []
    for R in radii:
        q = measure(*point_from_polar(params, R, eta))
        if q < 1e-300:
            raise BadParams(f"{quantity} vanishes along this geodesic; no power law to fit")
        vals.append(q)
    return fit_power_law(radii, vals)
