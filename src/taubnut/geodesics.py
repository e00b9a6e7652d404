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
family alike, on floats; ``points_from_polar``, the geodesic fan of ``contour``,
alone solves many points as one numpy array solve, in a seventh of a loop's time.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .family import (BadParams, Chart, InstantonParams, _is_array, _launch_cos_sin,
                     finite_or_bad_params, in_range, reals, uv_from_almost_polar)
from .metrics import conformal_factor
from .numerics import (NoBracket, fd_gradient, find_root_monotone, find_roots_monotone,
                       linspace, ode_solve)

ROOT_TOL = 1e-13   # absolute, of x = log tan(eta) and of s (times max(1, its bound))
X_LO, X_HI = -750.0, 40.0   # x = log tan(eta) past which eta rounds to 0 or to pi/2


class GeodesicRecord(NamedTuple):
    u: float
    v: float


class Trajectory(NamedTuple):
    ts: list[float]
    us: list[float]
    vs: list[float]
    distances: list[float]          # S_eta(u, v): the distance at each sample on the eta-geodesic
    unparam_residuals: list[float]  # the unparametrized geodesic residual at each sample
    nfev: int


# --------------------------------------------------------------------------
# eikonal potentials
# --------------------------------------------------------------------------

def eikonal_residual(params: InstantonParams, eta: float, u: float, v: float) -> float:
    """|  |grad S_eta|^2 - 1 |  by central differences of step 1e-4; O(step^2).
    BadParams where a corner of the stencil is off the chart domain."""
    step = 1e-4
    params.check_eta(eta)
    params.check_point(u - step, v - step)
    params.check_point(u + step, v + step)
    c, s = _launch_cos_sin(eta)
    su, sv = fd_gradient(lambda a, b: params.eikonal_S(c, s, a, b), u, v, step=step)
    lam = conformal_factor(params, u, v)
    return abs((su * su + sv * sv) / lam - 1.0)


def trace_level(params: InstantonParams, eta: float, level: float, cp, sp, r0) -> list[float]:
    """Radii r with S_eta(r cp, r sp) = level on the rays of the direction lists (cp, sp),
    one Newton solve on r per ray from its entry of r0 (an array solve is no faster: it
    evaluates every ray until the slowest stops).  NaN on a ray along which S_eta stays
    below the level up to r = 2^29 (it can vanish or go negative near an axis).  grad S_eta
    is lambda times the velocity of the unit-speed eta-geodesic, from shoot_rhs.  BadParams
    for eta outside the family's ``eta_range``, or a number that is not real."""
    params.check_eta(eta)
    (level,), cp, sp, r0 = (reals(xs, "a level and its rays") for xs in ((level,), cp, sp, r0))
    c, s = _launch_cos_sin(eta)
    velocity, S, lam, radii = params.shoot_rhs(c, s), params.eikonal_S, params.conformal_factor, []
    for p, q, start in zip(cp, sp, r0):
        def f(r):
            u, v = r * p, r * q
            du, dv = velocity((u, v))
            return S(c, s, u, v) - level, lam(u, v) * (p * du + q * dv), None
        try:
            radii.append(find_root_monotone(f, 0.0, 2.0 ** 29, x0=start, abs_tol=ROOT_TOL))
        except NoBracket:
            radii.append(math.nan)
    return radii


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


def _unparam_residuals(params, eta, c, s, us, vs) -> list[float]:
    """Residuals of the unparametrized geodesic equation at the points (us, vs),
    (c, s) = (cos eta, sin eta), in logarithmic form (asinh(U)/sqrt(1+k) -
    asinh(V)/sqrt(1-k) for the generalized family, U, V the eta-normalized
    coordinates): zero exactly on the eta-geodesic, and on an axis, s = 0 or
    c = 0, the distance from it.  BadParams past the float range."""
    if s == 0.0 or c == 0.0:   # the distance from the axis
        rs = list(map(abs, vs if s == 0.0 else us))
    else:
        rs = list(map(functools.partial(params.unparam_residual, c, s), us, vs))
    if not all(map(math.isfinite, rs)):   # a ratio overflows to inf without raising
        raise BadParams(f"eta = {eta}: the unparametrized residual is beyond the float range")
    return rs


# --------------------------------------------------------------------------
# the radial parameter F
# --------------------------------------------------------------------------

def _within_float_range(fn):
    """fn(params, R, eta) for a finite R >= 0 and eta in the family's
    ``eta_range``; BadParams otherwise or on overflow."""
    @functools.wraps(fn)
    def wrapped(params: InstantonParams, R: float, eta: float):
        if not (in_range(0.0, R, math.inf) and R < math.inf):
            raise BadParams(f"distance must be finite and >= 0, got R={R!r}")
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
    if _is_array(hi):   # an element without a bracket is NaN, off the chart
        return find_roots_monotone(f, 0.0, hi, x0=bound, abs_tol=ROOT_TOL * hi.clip(1.0))
    return find_root_monotone(f, 0.0, hi, x0=bound, abs_tol=ROOT_TOL * (hi if hi > 1.0 else 1.0))


_check_polar = _within_float_range(lambda params, R, eta: None)   # the check alone


@_within_float_range
def solve_F(params: InstantonParams, R: float, eta: float) -> float:
    """Unique F >= 1 at distance R along the eta-geodesic: F = e^s at the
    root s of the family's radial relation (log F for the generalized
    family, sigma for the exceptional ones)."""
    return math.exp(_solve_radial(params.radial_relation(R, *_launch_cos_sin(eta))))


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
    c, s = _launch_cos_sin(eta)
    u, v = params.polar_point(R, c, s, _solve_radial)
    params.check_point(u, v)
    return GeodesicRecord(u, v)


def points_from_polar(params: InstantonParams, R, eta) -> tuple[np.ndarray, np.ndarray]:
    """point_from_polar on the arrays R and eta, broadcast together: arrays
    (u, v) from one array Halley solve with the scalar steps and stops.
    numpy's sinh, cos and arcsinh round differently from math's, so (u, v)
    can differ from point_from_polar's in the last digits.  BadParams for
    the whole call where point_from_polar raises it for some element."""
    import numpy as np
    R, eta = np.broadcast_arrays(np.asarray(R, dtype=float), np.asarray(eta, dtype=float))
    lo, hi = params.eta_range
    _check_polar(params, R.min(initial=0.0), eta.min(initial=hi))   # min and max carry a NaN
    _check_polar(params, R.max(initial=0.0), eta.max(initial=lo))
    try:
        with np.errstate(over="ignore"):   # products overflow to inf, as floats do
            u, v = params.polar_point(R, *_launch_cos_sin(eta), _solve_radial)
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
    eta = solve_eta(params, u, v)   # in the eta range: no check of it is needed
    c, s = _launch_cos_sin(eta)   # unpacked: a starred call costs distance 2 %
    R = params.eikonal_S(c, s, u, v)
    if not math.isfinite(R):   # a float product overflows to inf without raising
        raise BadParams(f"distance at (u, v) = ({u}, {v}) is beyond the float range")
    return R, eta


def uv_from_chart(params: InstantonParams, chart: Chart, c1: float, c2: float) -> tuple[float, float]:
    """A point of any chart in (u, v); a polar one through point_from_polar."""
    if chart is Chart.UV:
        return c1, c2
    if chart is Chart.XY:
        return params.uv_from_xy(c1, c2)
    if chart is Chart.MOMENT:
        return params.uv_from_moment(c1, c2)
    if chart is Chart.ALMOST_POLAR:
        return uv_from_almost_polar(params, c1, c2)
    return tuple(point_from_polar(params, c1, c2))


def distance(params: InstantonParams, u: float, v: float) -> float:
    """Riemannian distance from the origin: S_eta at the solved launch angle."""
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
    c, s = _launch_cos_sin(eta)
    A2 = coefficient(c, s, _solve_radial(params.radial_relation(R, c, s)))
    if A2 == math.inf:   # a float product overflows to inf without raising
        raise OverflowError
    return A2


@finite_or_bad_params
def polar_metric_coefficient_fd(params: InstantonParams, R: float, eta: float) -> float:
    """FD oracle for A^2: lambda * |d(u,v)/d(eta)|^2 at fixed R, central
    differences of step 1e-5, O(step^2).  BadParams where it is not finite,
    or where the differences at step 2e-5, which track its error to about 3x,
    differ by over 1e-6 relatively: far out (u, v) outgrows d(u,v)/d(eta)."""
    params.check_eta(eta)
    mid = point_from_polar(params, R, eta)

    def coefficient(step):
        p1 = point_from_polar(params, R, eta + step)
        p0 = point_from_polar(params, R, eta - step)
        du = (p1.u - p0.u) / (2 * step)
        dv = (p1.v - p0.v) / (2 * step)
        return conformal_factor(params, mid.u, mid.v) * (du * du + dv * dv)
    A2 = coefficient(1e-5)
    if abs(coefficient(2e-5) - A2) > 1e-6 * A2:
        raise BadParams(f"R={R}, eta={eta}: the differences of (u, v) are lost to rounding")
    return A2


# --------------------------------------------------------------------------
# parametrized geodesics (ODE route)
# --------------------------------------------------------------------------

def geodesic_shoot(params: InstantonParams, eta: float, t_end: float,
                   *, n_samples: int = 64) -> Trajectory:
    """Integrate the unit-speed radial geodesic from the origin to t = t_end,
    sampled at n_samples equally spaced times ts from 0 to t_end (numpy's
    linspace: i * (t_end / (n_samples - 1)), then t_end), all lists of floats.

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
    if not (in_range(0.0, t_end, math.inf) and 0.0 < t_end < math.inf):
        raise BadParams(f"t_end must be finite and > 0, got {t_end!r}")
    if not (isinstance(n_samples, int) and n_samples >= 1):
        raise BadParams(f"n_samples must be an int >= 1, got {n_samples!r}")
    ts = linspace(0.0, t_end, n_samples)
    c, s = _launch_cos_sin(eta)
    rhs = params.shoot_rhs(c, s)
    sol = ode_solve(rhs, (0.0, 0.0), ts)
    if rhs(sol.ys[-1]) == (0.0, 0.0):   # a unit-speed geodesic never stops
        raise BadParams(f"eta = {eta}: the shoot stalled at {sol.ys[-1]}, beyond the float range")
    us, vs = map(list, zip(*sol.ys))
    dists = list(map(functools.partial(params.eikonal_S, c, s), us, vs))
    if not all(map(math.isfinite, dists)):   # a product overflows to inf without raising
        raise BadParams(f"eta = {eta}: S_eta at a sample is beyond the float range")
    return Trajectory(ts=ts, us=us, vs=vs, distances=dists, nfev=sol.nfev,
                      unparam_residuals=_unparam_residuals(params, eta, c, s, us, vs))
