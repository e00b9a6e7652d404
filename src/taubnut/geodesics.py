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
S_eta is 1-Lipschitz and vanishes at the origin, so S_eta <= distance, with
equality on the eta-geodesic: a shoot is certified by S_eta at its own eta.

The formulas (S_eta, the launch-angle residual, the radial relation in the
log radial parameter s = log F) are the family's, in :mod:`taubnut.family`;
the root solves, the ODE shoot and the FD oracles here work for every
family alike.  ``points_from_polar`` solves many points as one array solve.
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
    u: float
    v: float


@dataclass
class Trajectory:
    ts: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    distances: np.ndarray          # S_eta(us, vs): the distance at each sample on the eta-geodesic
    unparam_residuals: np.ndarray  # unparam_residual(eta, us, vs), at each sample
    nfev: int


# --------------------------------------------------------------------------
# eikonal potentials
# --------------------------------------------------------------------------

def eikonal_S(params: InstantonParams, eta: float, u, v):
    """The separated eikonal solution S_eta with S_eta(origin) = 0, at (u, v)
    or at arrays of them.

    For the half-plane families the second coordinate may be negative and eta
    ranges over [-pi/2, pi/2]; the quadrant families take eta in [0, pi/2].
    BadParams for eta outside the family's ``eta_range``.
    """
    params.check_eta(eta)
    c, s = math.cos(eta), math.sin(eta)   # |cos| >= 6e-17 on the eta range
    if abs(s) < 1e-300:
        s = 0.0
    return params.eikonal_S(c, s, u, v)


def eikonal_residual(params: InstantonParams, eta: float, u: float, v: float) -> float:
    """|  |grad S_eta|^2 - 1 |  by central differences of step 1e-4; O(step^2)."""
    step = 1e-4
    params.check_eta(eta)
    check_stencil(u, v, step, params.bounds)
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
    params.check_point(u, v)
    eta = params.exact_launch_angle(u, v)
    if eta is not None:
        return eta
    if v < 0.0:   # a half-plane domain: S_eta is even under (v, eta) -> -(v, eta)
        return -solve_eta(params, u, -v)
    if v == 0.0:
        return 0.0
    if u == 0.0:
        return math.pi / 2

    h = params.launch_residual(u, v)
    try:   # x0 = log(v / u), which the solve clamps into [X_LO, X_HI]
        x = find_root_monotone(h, X_LO, X_HI, x0=math.log(v) - math.log(u), abs_tol=ROOT_TOL)
    except NoBracket:   # the root lies past an end, where eta rounds to 0 or pi/2
        return 0.0 if h(X_LO)[0] > 0.0 else math.pi / 2
    return math.atan(math.exp(x))


def unparam_residual(params: InstantonParams, eta: float, u, v):
    """Residual of the unparametrized geodesic equation in logarithmic form:
    asinh(U)/sqrt(1+k) - asinh(V)/sqrt(1-k) with U, V the eta-normalized
    coordinates, at (u, v) or at arrays of them.  Zero exactly on the
    eta-geodesic; at the axis angles it is the distance from the axis.
    BadParams where the residual is beyond the float range."""
    params.check_eta(eta)
    if eta == 0.0:
        return abs(v)
    if abs(eta) == math.pi / 2:
        return abs(u)
    with np.errstate(over="ignore"):   # a ratio overflows to inf, as in float arithmetic
        r = params.unparam_residual(math.cos(eta), math.sin(eta), u, v)
    if not np.isfinite(r).all():
        raise BadParams(f"eta = {eta}: the unparametrized residual is beyond the float range")
    return r


# --------------------------------------------------------------------------
# the radial parameter F
# --------------------------------------------------------------------------

def _within_float_range(fn):
    """fn(params, R, eta) for a finite R >= 0 and eta in the family's
    ``eta_range``; BadParams otherwise or on overflow."""
    @functools.wraps(fn)
    def wrapped(params: InstantonParams, R: float, eta: float):
        if not 0.0 <= R < math.inf:
            raise BadParams(f"distance must be finite and >= 0, got R={R}")
        params.check_eta(eta)
        try:
            return fn(params, R, eta)
        except OverflowError:
            raise BadParams(f"R={R}, eta={eta}: F = e^s, A^2 or a term of its radial "
                            f"relation is beyond the float range") from None
    return wrapped


def _solve_radial(relation):
    """Root s >= 0 of a family's radial relation (f, bound): a safeguarded
    Halley iteration on [0, bound], started at the bound; one array solve
    for an array of bounds."""
    f, bound = relation
    # padded, relatively and by ~2000 subnormal ulps, so that rounding in f
    # cannot leave f(hi) < 0
    hi = bound * (1.0 + 1e-14) + 1e-320
    if type(hi) is np.ndarray:   # an element without a bracket is NaN, off the chart
        return find_roots_monotone(f, 0.0, hi, x0=bound, abs_tol=ROOT_TOL * np.maximum(1.0, hi))
    return find_root_monotone(f, 0.0, hi, x0=bound, abs_tol=ROOT_TOL * (hi if hi > 1.0 else 1.0))


@_within_float_range
def solve_F(params: InstantonParams, R: float, eta: float) -> float:
    """Unique F >= 1 at distance R along the eta-geodesic: F = e^s at the
    root s of the family's radial relation (log F for the generalized
    family, sigma for the exceptional ones)."""
    return math.exp(_solve_radial(params.radial_relation(R, eta)))


# --------------------------------------------------------------------------
# polar chart
# --------------------------------------------------------------------------

@_within_float_range
def point_from_polar(params: InstantonParams, R: float, eta: float) -> GeodesicRecord:
    """Point at distance R along the eta-geodesic, as a record (u, v).

    (u, v) come straight from the root s of the radial relation (log F for
    the generalized family, sigma with u = cos(eta) sinh(sigma),
    v = sigma sin(eta) for the exceptional one), so a point stays finite
    where F = e^s itself would overflow.

    eta must lie in the family's ``eta_range``: [0, pi/2] on the quadrant,
    [-pi/2, pi/2] on the half-plane; BadParams otherwise.  A point with a
    term of its radial relation beyond the float range raises BadParams too.
    """
    u, v = params.polar_point(R, eta, _solve_radial)
    params.check_point(u, v)
    return GeodesicRecord(u=u, v=v)


def points_from_polar(params: InstantonParams, R, eta) -> tuple[np.ndarray, np.ndarray]:
    """point_from_polar on the arrays R and eta, broadcast together: arrays
    (u, v) from one array Halley solve with the scalar steps and stops.
    numpy's sinh, cos and arcsinh round differently from math's, so (u, v)
    can differ from point_from_polar's in the last digits.  BadParams for
    the whole call where point_from_polar raises it for some element."""
    R, eta = np.broadcast_arrays(np.asarray(R, dtype=float), np.asarray(eta, dtype=float))
    bad_R = ~((0.0 <= R) & (R < math.inf))
    if bad_R.any():
        raise BadParams(f"distance must be finite and >= 0, got R={R[bad_R][0]}")
    lo, hi = params.eta_range
    params.check_eta(eta.min(initial=hi))   # min and max carry a NaN through
    params.check_eta(eta.max(initial=lo))
    try:
        with np.errstate(over="ignore"):   # products overflow to inf, as floats do
            u, v = params.polar_point(R, eta, _solve_radial)
    except OverflowError:
        raise BadParams("a term of a radial relation is beyond the float range") from None
    (u_lo, u_hi), (v_lo, v_hi) = params.bounds
    off = ~(np.isfinite(u) & np.isfinite(v) & (u_lo <= u) & (u <= u_hi) & (v_lo <= v) & (v <= v_hi))
    if off.any():
        params.check_point(float(u[off][0]), float(v[off][0]))
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
    coefficient = params.polar_coefficient   # WrongFamily even at R = 0
    A2 = coefficient(eta, _solve_radial(params.radial_relation(R, eta)))
    if A2 == math.inf:   # a float product overflows to inf without raising
        raise OverflowError
    return A2


def polar_metric_coefficient_fd(params: InstantonParams, R: float, eta: float) -> float:
    """FD oracle for A^2: lambda * |d(u,v)/d(eta)|^2 at fixed R, central
    differences of step 1e-5, O(step^2)."""
    params.check_eta(eta)
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
    """Integrate the unit-speed radial geodesic from the origin to t = t_end,
    sampled at n_samples equally spaced times ts from 0 to t_end.

    Certification happens against closed forms, not against the integrator's
    own error estimate: at every sample the trajectory must satisfy the
    unparametrized geodesic equation (``unparam_residuals``), and S_eta
    there, the distance on the eta-geodesic to second order in the sample's
    distance from it (``distances``), must equal the parameter t (this is
    what "unit speed" means once the curve is known to be the right one).
    BadParams for eta outside ``eta_range``, a t_end that is not finite and
    > 0, n_samples not an int >= 1, a shoot that stalls where its speed
    leaves the float range, or a sample whose S_eta or residual does.
    """
    params.check_eta(eta)
    if not 0.0 < t_end < math.inf:
        raise BadParams(f"t_end must be finite and > 0, got {t_end}")
    if not (isinstance(n_samples, int) and n_samples >= 1):
        raise BadParams(f"n_samples must be an int >= 1, got {n_samples!r}")
    ts = np.linspace(0.0, t_end, n_samples)
    rhs = params.shoot_rhs(eta)
    sol = ode_solve(rhs, (0.0, 0.0), ts)
    end = sol.ys[-1].tolist()
    if rhs(end) == (0.0, 0.0):   # a unit-speed geodesic never stops
        raise BadParams(f"eta = {eta}: the shoot stalled at {end}, beyond the float range")
    us, vs = sol.ys.T
    with np.errstate(over="ignore"):   # a product overflows to inf, as in float arithmetic
        dists = eikonal_S(params, eta, us, vs)
    if not np.isfinite(dists).all():
        raise BadParams(f"eta = {eta}: S_eta at a sample is beyond the float range")
    return Trajectory(ts=ts, us=us, vs=vs, distances=dists,
                      unparam_residuals=unparam_residual(params, eta, us, vs), nfev=sol.nfev)
