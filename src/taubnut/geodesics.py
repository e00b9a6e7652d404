"""Distance geometry: eikonal potentials, radial geodesics from the origin,
geodesic polar coordinates and their closed-form asymptotics.

The leaf metric admits a separated solution S_eta of the eikonal equation
|grad S| = 1 for every launch angle eta; its characteristic through the origin
is the radial geodesic with initial angle eta, so evaluating S_eta on its own
characteristic gives the genuine Riemannian distance.  Everything else here
(the transcendental radial parameter F, the polar chart, the distance
function) unwinds that one fact.  At the launch angle through a point,
S_eta is stationary in eta, so an error in the solved angle enters the
distance only to second order; every distance goes through that route.

The formulas (S_eta, the launch-angle residual, the radial relation in the
log radial parameter s = log F) are the family's, in :mod:`taubnut.family`;
the root solves, the ODE shoot and the FD oracles here work for every
family alike.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .family import BadParams, InstantonParams
from .metrics import conformal_factor
from .numerics import (NoBracket, check_stencil, fd_gradient, find_root_monotone,
                       find_roots_monotone, ode_solve)

ROOT_TOL = 1e-13   # absolute, of x = log tan(eta) and of s (times max(1, its bound))
X_LO, X_HI = -750.0, 40.0   # x = log tan(eta) past which eta rounds to 0 or to pi/2


@dataclass
class GeodesicRecord:
    eta: float
    R: float
    u: float
    v: float


@dataclass
class Trajectory:
    eta: float
    ts: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    distances: np.ndarray      # distance(u(t), v(t)) at each sample
    distance_residual: float   # max |distance(u(t), v(t)) - t|: unit-speed gate
    geodesic_residual: float   # max unparametrized-equation residual
    nfev: int


# --------------------------------------------------------------------------
# eikonal potentials
# --------------------------------------------------------------------------

def eikonal_S(params: InstantonParams, eta: float, u: float, v: float) -> float:
    """The separated eikonal solution S_eta with S_eta(origin) = 0.

    For the half-plane families the second coordinate may be negative and eta
    ranges over [-pi/2, pi/2]; the quadrant families take eta in [0, pi/2].
    """
    c, s = math.cos(eta), math.sin(eta)
    if abs(c) < 1e-300:
        c = 0.0
    if abs(s) < 1e-300:
        s = 0.0
    return params.geometry.eikonal_S(c, s, u, v)


def eikonal_residual(params: InstantonParams, eta: float, u: float, v: float) -> float:
    """|  |grad S_eta|^2 - 1 |  by central differences of step 1e-4; O(step^2)."""
    step = 1e-4
    check_stencil(u, v, step, params.geometry.bounds)
    su, sv = fd_gradient(lambda a, b: eikonal_S(params, eta, a, b), u, v, step=step)
    lam = conformal_factor(params, u, v)
    return abs((su * su + sv * sv) / lam - 1.0)


# --------------------------------------------------------------------------
# unparametrized geodesics and the launch-angle solve
# --------------------------------------------------------------------------

def solve_eta(params: InstantonParams, u: float, v: float) -> float:
    """Unique launch angle whose radial geodesic passes through (u, v).

    A point that is not finite or lies off the chart domain raises
    BadParams first.  Points on the axes return the endpoint angles 0 / pi/2
    directly.  Elsewhere Newton steps on the family's increasing residual h
    in x = log tan(eta), close to linear next to both axes, start at
    log(v / u) (the root at k = 0) inside the bracket [X_LO, X_HI].  x is
    found to ROOT_TOL, so eta to ROOT_TOL relatively next to the u axis.
    Half-plane families accept v < 0 and return eta < 0.
    """
    geo = params.geometry
    geo.check_point(u, v)
    eta = geo.exact_launch_angle(u, v)
    if eta is not None:
        return eta
    if v < 0.0:   # a half-plane domain: S_eta is even under (v, eta) -> -(v, eta)
        return -solve_eta(params, u, -v)
    if v == 0.0:
        return 0.0
    if u == 0.0:
        return math.pi / 2

    h = geo.launch_residual(u, v)
    x0 = min(max(math.log(v) - math.log(u), X_LO), X_HI)
    try:
        x = find_root_monotone(h, X_LO, X_HI, x0=x0, abs_tol=ROOT_TOL)
    except NoBracket:   # the root lies past an end, where eta rounds to 0 or pi/2
        return 0.0 if h(X_LO)[0] > 0.0 else math.pi / 2
    return math.atan(math.exp(x))


def unparam_residual(params: InstantonParams, eta: float, u: float, v: float) -> float:
    """Residual of the unparametrized geodesic equation in logarithmic form:
    asinh(U)/sqrt(1+k) - asinh(V)/sqrt(1-k) with U, V the eta-normalized
    coordinates.  Zero exactly on the eta-geodesic; at the axis angles it
    degenerates to the distance from the axis."""
    c, s = math.cos(eta), math.sin(eta)
    if s == 0.0 or eta == 0.0:
        return abs(v)
    if c == 0.0 or eta == math.pi / 2:
        return abs(u)
    return params.geometry.unparam_residual(c, s, u, v)


# --------------------------------------------------------------------------
# the radial parameter F
# --------------------------------------------------------------------------

def _within_float_range(fn):
    """fn(params, R, eta) for a finite R >= 0; BadParams otherwise or on overflow."""
    @functools.wraps(fn)
    def wrapped(params: InstantonParams, R: float, eta: float):
        if not 0.0 <= R < math.inf:
            raise BadParams(f"distance must be finite and >= 0, got R={R}")
        try:
            return fn(params, R, eta)
        except OverflowError:
            raise BadParams(f"R={R}, eta={eta}: F = e^s, A^2, the approximant of F or a "
                            f"term of its radial relation is beyond the float range") from None
    return wrapped


def radius_from_F(params: InstantonParams, eta: float, F: float) -> float:
    """The calibration map R(F, eta): evaluates the implicit distance relation
    at the given F, returning the distance it would correspond to.  Strictly
    increasing in F with value 0 at F = 1.  GeneralizedTN only."""
    if F < 1.0:
        raise BadParams(f"F must be >= 1, got {F}")
    return params.geometry.radius_of_s(eta, math.log(F))


@_within_float_range
def approx_F(params: InstantonParams, R: float, eta: float) -> tuple[float, str]:
    """Closed-form large-R approximant of F, with its branch id.

    Two power-law branches meet at an angle threshold; which branch applies
    depends on whether the u- or v-term of the implicit relation dominates.
    Exact for neither, but radius_from_F(approx_F) stays within roughly a
    factor of two of R uniformly in eta once R is large.  GeneralizedTN only.
    """
    if R == 0.0:
        raise BadParams("the approximant needs R > 0, got R=0")
    return params.geometry.approx_F(R, eta)


def _solve_radial(relation):
    """Root s >= 0 of a family's radial relation (f, bound): a safeguarded
    Halley iteration on [0, bound], started at the bound; one array solve
    for an array of bounds."""
    f, bound = relation
    # padded, relatively and by ~2000 subnormal ulps, so that rounding in f
    # cannot leave f(hi) < 0
    hi = bound * (1.0 + 1e-14) + 1e-320
    if type(hi) is np.ndarray:   # an element without a bracket is NaN, off the chart
        return find_roots_monotone(f, 0.0, hi, x0=bound, abs_tol=ROOT_TOL * np.maximum(1.0, hi))[0]
    return find_root_monotone(f, 0.0, hi, x0=bound, abs_tol=ROOT_TOL * max(1.0, hi))


@_within_float_range
def solve_F(params: InstantonParams, R: float, eta: float) -> float:
    """Unique F >= 1 with radius_from_F(F, eta) = R: F = e^s at the root s of
    the family's radial relation (log F for the generalized family, sigma for
    the exceptional ones)."""
    return math.exp(_solve_radial(params.geometry.radial_relation(R, eta)))


# --------------------------------------------------------------------------
# polar chart
# --------------------------------------------------------------------------

@_within_float_range
def point_from_polar(params: InstantonParams, R: float, eta: float) -> GeodesicRecord:
    """Point at distance R along the eta-geodesic, as a record (eta, R, u, v).

    (u, v) come straight from the root s of the radial relation (log F for
    the generalized family, sigma with u = cos(eta) sinh(sigma),
    v = sigma sin(eta) for the exceptional one), so a point stays finite
    where F = e^s itself would overflow.

    eta must lie in the family's ``eta_range``: [0, pi/2] on the quadrant,
    [-pi/2, pi/2] on the half-plane; BadParams otherwise.  A point with a
    term of its radial relation beyond the float range raises BadParams too.
    """
    geo = params.geometry
    lo, hi = geo.eta_range
    if not lo <= eta <= hi:
        raise BadParams(f"launch angle must lie in [{lo}, {hi}], got {eta}")
    u, v = geo.polar_point(R, eta, _solve_radial)
    geo.check_point(u, v)
    return GeodesicRecord(eta=eta, R=R, u=u, v=v)


def points_from_polar(params: InstantonParams, R, eta) -> tuple[np.ndarray, np.ndarray]:
    """point_from_polar on the arrays R and eta, broadcast together: arrays
    (u, v) from one array Halley solve with the scalar steps and stops.
    numpy's sinh, cos and arcsinh round differently from math's, so (u, v)
    can differ from point_from_polar's in the last digits.  BadParams for
    the whole call where point_from_polar raises it for some element."""
    geo = params.geometry
    R, eta = np.broadcast_arrays(np.asarray(R, dtype=float), np.asarray(eta, dtype=float))
    lo, hi = geo.eta_range
    bad_R, bad_eta = ~((0.0 <= R) & (R < math.inf)), ~((lo <= eta) & (eta <= hi))
    if bad_R.any():
        raise BadParams(f"distance must be finite and >= 0, got R={R[bad_R][0]}")
    if bad_eta.any():
        raise BadParams(f"launch angle must lie in [{lo}, {hi}], got {eta[bad_eta][0]}")
    try:
        with np.errstate(over="ignore"):   # products overflow to inf, as floats do
            u, v = geo.polar_point(R, eta, _solve_radial)
    except OverflowError:
        raise BadParams("a term of a radial relation is beyond the float range") from None
    (u_lo, u_hi), (v_lo, v_hi) = geo.bounds
    off = ~(np.isfinite(u) & np.isfinite(v) & (u_lo <= u) & (u <= u_hi) & (v_lo <= v) & (v <= v_hi))
    if off.any():
        geo.check_point(float(u[off][0]), float(v[off][0]))
    return u, v


def polar_from_point(params: InstantonParams, u: float, v: float) -> tuple[float, float]:
    """(R, eta) of a point: the launch-angle solve followed by S_eta.
    BadParams where R is beyond the float range."""
    eta = solve_eta(params, u, v)
    R = eikonal_S(params, eta, u, v)
    if not math.isfinite(R):   # a float product overflows to inf without raising
        raise BadParams(f"distance at (u, v) = ({u}, {v}) is beyond the float range")
    return R, eta


def distance(params: InstantonParams, u: float, v: float) -> float:
    """Riemannian distance from the origin: S_eta at the solved launch angle.

    S_eta is stationary in eta at that angle, so the angle tolerance enters
    the distance only to second order.
    """
    return polar_from_point(params, u, v)[0]


@_within_float_range
def polar_metric_coefficient(params: InstantonParams, R: float, eta: float) -> float:
    """Coefficient A(R, eta)^2 of d(eta)^2 in geodesic polar coordinates,

        g_leaf = dR^2 + A^2 d(eta)^2,

    i.e. the squared leaf-metric length of the angular coordinate vector
    d(u,v)/d(eta) at fixed R.  A ~ R near the origin, as polar regularity
    demands.  Cross-checked against finite differences of point_from_polar
    by polar_metric_coefficient_fd."""
    coefficient = params.geometry.polar_coefficient   # WrongFamily even at R = 0
    A2 = coefficient(eta, _solve_radial(params.geometry.radial_relation(R, eta)))
    if A2 == math.inf:   # a float product overflows to inf without raising
        raise OverflowError
    return A2


def polar_metric_coefficient_fd(params: InstantonParams, R: float, eta: float) -> float:
    """FD oracle for A^2: lambda * |d(u,v)/d(eta)|^2 at fixed R, central
    differences of step 1e-5, O(step^2)."""
    step = 1e-5
    p1 = point_from_polar(params, R, eta + step)
    p0 = point_from_polar(params, R, eta - step)
    du = (p1.u - p0.u) / (2 * step)
    dv = (p1.v - p0.v) / (2 * step)
    mid = point_from_polar(params, R, eta)
    return conformal_factor(params, mid.u, mid.v) * (du * du + dv * dv)


# --------------------------------------------------------------------------
# parametrized geodesics (ODE route)
# --------------------------------------------------------------------------

def geodesic_shoot(params: InstantonParams, eta: float, t_end: float,
                   *, n_samples: int = 64) -> Trajectory:
    """Integrate the unit-speed radial geodesic from the origin to t = t_end.

    Certification happens against closed forms, not against the integrator's
    own error estimate: at every sample the trajectory must satisfy the
    unparametrized geodesic equation, and the recomputed distance must equal
    the parameter t (this is what "unit speed" means once the curve is known
    to be the right one).  BadParams for eta outside ``eta_range`` or a
    t_end that is not finite and > 0.
    """
    lo, hi = params.geometry.eta_range
    if not lo <= eta <= hi:
        raise BadParams(f"launch angle must lie in [{lo}, {hi}], got {eta}")
    if not 0.0 < t_end < math.inf:
        raise BadParams(f"t_end must be finite and > 0, got {t_end}")
    sol = ode_solve(params.geometry.shoot_rhs(eta), (0.0, t_end), (0.0, 0.0),
                    t_eval=np.linspace(0.0, t_end, n_samples))
    us, vs = sol.ys[:, 0], sol.ys[:, 1]
    dists = np.array([distance(params, u, v) for u, v in zip(us, vs)])
    g_res = max(unparam_residual(params, eta, u, v) for u, v in zip(us, vs))
    return Trajectory(eta=eta, ts=sol.ts, us=us, vs=vs, distances=dists,
                      distance_residual=float(np.max(np.abs(dists - sol.ts))),
                      geodesic_residual=g_res, nfev=sol.nfev)
