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

Internally the generalized family is handled through the log-parameter
s = log F, where the radial geodesic is

    u = cos(eta) sinh(a s) / a,   v = sin(eta) sinh(b s) / b,
    a = sqrt(1 + k),  b = sqrt(1 - k),

and the implicit distance relation collapses to

    cos^2(eta)/(2a) [sinh(2as)/2 + as] + sin^2(eta)/(2b) [sinh(2bs)/2 + bs]
        = sqrt(M / (2 sqrt 2)) * R,

whose s-derivative is cos^2(eta) cosh^2(as) + sin^2(eta) cosh^2(bs) >= 1.
Newton iteration on s is therefore uniformly well conditioned in eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .family import SQRT2, BadParams, Family, InstantonParams, require
from .metrics import conformal_factor
from .numerics import BoundaryTooClose, find_root_monotone, ode_solve


@dataclass
class GeodesicRecord:
    eta: float
    R: float
    u: float
    v: float
    F: float
    eikonal_residual: float
    geodesic_residual: float


@dataclass
class PolarMetricSample:
    R: float
    eta: float
    A_squared: float


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


def _ab(params: InstantonParams) -> tuple[float, float]:
    return math.sqrt(1.0 + params.k), math.sqrt(1.0 - params.k)


def _mass_root(params: InstantonParams) -> float:
    """sqrt(M / (2 sqrt 2)): converts the reduced radial variable to R."""
    return math.sqrt(params.M / (2.0 * SQRT2))


def _leg(p: float, c: float) -> float:
    """(1/2)[p sqrt(c^2 + p^2) + c^2 asinh(p/c)] for p, c >= 0.

    This is the one-variable building block of S_eta, written so the c -> 0
    limit (value p^2/2) needs no special series: the asinh term carries the
    c^2 prefactor and vanishes with it.
    """
    if c == 0.0:
        return 0.5 * p * p
    return 0.5 * (p * math.hypot(c, p) + c * c * math.asinh(p / c))


def _logsinh(x: float) -> float:
    """log(sinh x) for x > 0 without overflow."""
    return x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0)


# --------------------------------------------------------------------------
# eikonal potentials
# --------------------------------------------------------------------------

def eikonal_S(params: InstantonParams, eta: float, u: float, v: float) -> float:
    """The separated eikonal solution S_eta with S_eta(origin) = 0.

    For the half-plane families the second coordinate may be negative and eta
    ranges over [-pi/2, pi/2]; the quadrant families take eta in [0, pi/2].
    """
    fam = params.family
    c, s = math.cos(eta), math.sin(eta)
    if abs(c) < 1e-300:
        c = 0.0
    if abs(s) < 1e-300:
        s = 0.0
    if fam is Family.GENERALIZED_TN:
        a, b = _ab(params)
        return (_leg(a * u, c) / a + _leg(b * v, s) / b) / _mass_root(params)
    if fam is Family.EXCEPTIONAL_TN:
        return _leg(u, c) + v * s
    if fam is Family.EXCEPTIONAL_HALF_PLANE:
        return _leg(u, abs(c)) + v * s
    return u * c + v * s  # flat


def eikonal_residual(params: InstantonParams, eta: float, u: float, v: float) -> float:
    """|  |grad S_eta|^2 - 1 |  by central differences of step 1e-4; O(step^2)."""
    step = 1e-4
    if u - step < 0.0:
        raise BoundaryTooClose(f"u={u} is within one step of the chart edge")
    if params.family is not Family.EXCEPTIONAL_HALF_PLANE and v - step < 0.0:
        raise BoundaryTooClose(f"v={v} is within one step of the chart edge")
    su = (eikonal_S(params, eta, u + step, v) - eikonal_S(params, eta, u - step, v)) / (2 * step)
    sv = (eikonal_S(params, eta, u, v + step) - eikonal_S(params, eta, u, v - step)) / (2 * step)
    lam = conformal_factor(params, u, v)
    return abs((su * su + sv * sv) / lam - 1.0)


# --------------------------------------------------------------------------
# unparametrized geodesics and the launch-angle solve
# --------------------------------------------------------------------------

def solve_eta(params: InstantonParams, u: float, v: float, *, tol: float = 1e-13) -> float:
    """Unique launch angle whose radial geodesic passes through (u, v).

    Points on the axes return the endpoint angles 0 / pi/2 directly.  The
    interior solve exploits that v(eta; u) is strictly increasing, bracketing
    on (0, pi/2) with a log-scaled residual so extreme aspect ratios stay in
    floating range.  Half-plane families accept v < 0 and return eta < 0.
    """
    if not (math.isfinite(u) and math.isfinite(v)):
        raise BadParams(f"({u}, {v}) is not a finite point")
    fam = params.family
    if fam is Family.FLAT:
        return math.atan2(v, u)
    if fam is Family.EXCEPTIONAL_HALF_PLANE and v < 0.0:
        return -solve_eta(params, u, -v, tol=tol)
    if v == 0.0:
        return 0.0
    if u == 0.0:
        return math.pi / 2
    if u < 0.0 or v < 0.0:
        raise BadParams(f"({u}, {v}) is outside the chart quadrant")

    if fam is Family.GENERALIZED_TN:
        a, b = _ab(params)
        q = b / a

        def h(eta: float) -> float:
            A = math.asinh(a * u / math.cos(eta))
            return math.log(math.sin(eta)) + _logsinh(q * A) - math.log(b * v)
    else:
        def h(eta: float) -> float:
            A = math.asinh(u / math.cos(eta))
            return math.log(math.sin(eta)) + math.log(A) - math.log(v)

    lo, hi = 1e-12, math.pi / 2 - 1e-12
    while h(hi) < 0.0:
        # v is astronomically larger than u; push the bracket into the corner
        hi = math.pi / 2 - (math.pi / 2 - hi) * 1e-6
        if math.pi / 2 - hi < 1e-200:
            return math.pi / 2
    while h(lo) > 0.0:
        lo *= 1e-6
        if lo < 1e-200:
            return 0.0
    return find_root_monotone(h, lo, hi, abs_tol=tol, rel_tol=tol)


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
    fam = params.family
    if fam is Family.GENERALIZED_TN:
        a, b = _ab(params)
        return abs(math.asinh(a * u / c) / a - math.asinh(b * v / s) / b)
    if fam in (Family.EXCEPTIONAL_TN, Family.EXCEPTIONAL_HALF_PLANE):
        return abs(math.asinh(u / c) - v / s)
    return abs(u * s - v * c)


# --------------------------------------------------------------------------
# the radial parameter F
# --------------------------------------------------------------------------

def radius_from_F(params: InstantonParams, eta: float, F: float) -> float:
    """The calibration map R(F, eta): evaluates the implicit distance relation
    at the given F, returning the distance it would correspond to.  Strictly
    increasing in F with value 0 at F = 1."""
    require(params, Family.GENERALIZED_TN, what="the radial parameter F")
    if F < 1.0:
        raise BadParams(f"F must be >= 1, got {F}")
    return _lhs_of_s(params, eta, math.log(F)) / _mass_root(params)


def _lhs_of_s(params: InstantonParams, eta: float, s: float) -> float:
    a, b = _ab(params)
    c2, s2 = math.cos(eta) ** 2, math.sin(eta) ** 2
    return (c2 / (2 * a) * (0.5 * math.sinh(2 * a * s) + a * s)
            + s2 / (2 * b) * (0.5 * math.sinh(2 * b * s) + b * s))


def _dlhs_ds(params: InstantonParams, eta: float, s: float) -> float:
    a, b = _ab(params)
    return (math.cos(eta) ** 2 * math.cosh(a * s) ** 2
            + math.sin(eta) ** 2 * math.cosh(b * s) ** 2)


def _d2lhs_ds2(params: InstantonParams, eta: float, s: float) -> float:
    a, b = _ab(params)
    return (math.cos(eta) ** 2 * a * math.sinh(2 * a * s)
            + math.sin(eta) ** 2 * b * math.sinh(2 * b * s))


def approx_F(params: InstantonParams, R: float, eta: float) -> tuple[float, str]:
    """Closed-form large-R approximant of F, with its branch id.

    Two power-law branches meet at an angle threshold; which branch applies
    depends on whether the u- or v-term of the implicit relation dominates.
    Exact for neither, but radius_from_F(approx_F) stays within roughly a
    factor of two of R uniformly in eta once R is large.
    """
    require(params, Family.GENERALIZED_TN, what="the radial parameter F")
    if R <= 0.0:
        raise BadParams(f"the approximant needs R > 0, got R={R}")
    a, b = _ab(params)
    rho = _mass_root(params) * R
    q = a / b
    num = rho ** (q - 1.0)
    threshold = math.asin(num / (num + 0.75 * 8.0 * a / (8.0 * b) ** q))
    if eta < threshold:
        return (8.0 * a * rho / math.cos(eta) ** 2) ** (1.0 / (2.0 * a)), "u-dominant"
    return (8.0 * b * rho / math.sin(eta) ** 2) ** (1.0 / (2.0 * b)), "v-dominant"


def solve_F(params: InstantonParams, R: float, eta: float, *, tol: float = 1e-13) -> float:
    """Unique F >= 1 with radius_from_F(F, eta) = R.

    Solved as a safeguarded Newton/Halley iteration in s = log F (see module
    docstring), warm-started from the closed-form approximant when R is large
    enough for it to apply.
    """
    require(params, Family.GENERALIZED_TN, what="the radial parameter F")
    if R < 0.0:
        raise BadParams(f"distance must be >= 0, got R={R}")
    if R == 0.0:
        return 1.0
    rho = _mass_root(params) * R

    def f(s):
        return _lhs_of_s(params, eta, s) - rho

    s0 = rho  # exact as R -> 0
    if rho > 1.0:
        s0 = math.log(approx_F(params, R, eta)[0])
    hi = max(2.0 * s0, 1.0)
    while f(hi) < 0.0:
        hi *= 2.0
    s = find_root_monotone(
        f, 0.0, hi,
        fprime=lambda s: _dlhs_ds(params, eta, s),
        fprime2=lambda s: _d2lhs_ds2(params, eta, s),
        x0=min(s0, 0.999 * hi),
        abs_tol=tol * max(1.0, abs(s0)), rel_tol=4e-16,
    )
    return math.exp(s)


# --------------------------------------------------------------------------
# polar chart
# --------------------------------------------------------------------------

def point_from_polar(params: InstantonParams, R: float, eta: float,
                     *, tol: float = 1e-13) -> GeodesicRecord:
    """Point at distance R along the eta-geodesic, as a full record.

    The F field is exp of the logarithmic radial parameter: log F = s for the
    generalized family; for the exceptional family it is the parameter sigma
    with u = cos(eta) sinh(sigma), v = sigma sin(eta).

    eta must lie in [0, pi/2] for the quadrant families and in
    [-pi/2, pi/2] for the half-plane family; BadParams otherwise.
    """
    fam = params.family
    if R < 0.0:
        raise BadParams(f"distance must be >= 0, got R={R}")
    lo = -math.pi / 2 if fam is Family.EXCEPTIONAL_HALF_PLANE else 0.0
    if fam is not Family.FLAT and not lo <= eta <= math.pi / 2:
        raise BadParams(f"launch angle must lie in [{lo}, {math.pi / 2}], got {eta}")
    c, s_ang = math.cos(eta), math.sin(eta)
    if fam is Family.GENERALIZED_TN:
        F = solve_F(params, R, eta, tol=tol)
        a, b = _ab(params)
        s = math.log(F)
        u = c * math.sinh(a * s) / a
        v = s_ang * math.sinh(b * s) / b
    elif fam is Family.EXCEPTIONAL_TN:
        if eta == math.pi / 2 or c < 1e-300:
            u, v, F = 0.0, R, math.exp(R)
        else:
            half = 0.5 * (1.0 + s_ang * s_ang)

            def g(sig):
                return 0.5 * c * c * math.sinh(sig) * math.cosh(sig) + half * sig - R

            hi = 1.0
            while g(hi) < 0.0:
                hi *= 2.0
            sigma = 0.0 if R == 0.0 else find_root_monotone(
                g, 0.0, hi,
                fprime=lambda x: c * c * math.cosh(x) ** 2 + half - 0.5 * c * c,
                abs_tol=tol, rel_tol=4e-16)
            u = c * math.sinh(sigma)
            v = s_ang * sigma
            F = math.exp(sigma)
    elif fam is Family.EXCEPTIONAL_HALF_PLANE:
        rec = point_from_polar(
            InstantonParams(Family.EXCEPTIONAL_TN), R, abs(eta), tol=tol)
        u, v, F = rec.u, math.copysign(rec.v, eta), rec.F
        # strip the torus-normalized residuals; recompute below for this family
    else:
        u, v, F = R * c, R * s_ang, math.exp(R)

    # Note: g(sigma) above is S_eta restricted to the geodesic; both residuals
    # are genuine re-checks through independent code paths.
    eik = abs(eikonal_S(params, eta, u, v) - R)
    geo = unparam_residual(params, eta, u, v)
    return GeodesicRecord(eta=eta, R=R, u=u, v=v, F=F,
                          eikonal_residual=eik, geodesic_residual=geo)


def polar_from_point(params: InstantonParams, u: float, v: float,
                     *, tol: float = 1e-13) -> tuple[float, float]:
    """(R, eta) of a point: the launch-angle solve followed by S_eta."""
    eta = solve_eta(params, u, v, tol=tol)
    return eikonal_S(params, eta, u, v), eta


def distance(params: InstantonParams, u: float, v: float, *, tol: float = 1e-13) -> float:
    """Riemannian distance from the origin: S_eta at the solved launch angle.

    S_eta is stationary in eta at that angle, so the angle tolerance enters
    the distance only to second order, also next to the axes where the
    angle itself is only known to ``tol`` absolutely.
    """
    return polar_from_point(params, u, v, tol=tol)[0]


def polar_metric_coefficient(params: InstantonParams, R: float,
                             eta: float) -> PolarMetricSample:
    """Coefficient A(R, eta)^2 of d(eta)^2 in geodesic polar coordinates,

        g_leaf = dR^2 + A^2 d(eta)^2,

    i.e. the squared leaf-metric length of the angular coordinate vector
    d(u,v)/d(eta) at fixed R.  A ~ R near the origin, as polar regularity
    demands.  Cross-checked against finite differences of point_from_polar
    by polar_metric_coefficient_fd."""
    require(params, Family.GENERALIZED_TN, what="the polar coefficient")
    if R == 0.0:
        return PolarMetricSample(R=0.0, eta=eta, A_squared=0.0)
    a, b = _ab(params)
    s = math.log(solve_F(params, R, eta))
    c2, s2 = math.cos(eta) ** 2, math.sin(eta) ** 2
    w = (s2 * math.sinh(a * s) * math.cosh(b * s) / a
         + c2 * math.cosh(a * s) * math.sinh(b * s) / b)
    return PolarMetricSample(R=R, eta=eta,
                             A_squared=2.0 * SQRT2 / params.M * w * w)


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

def _shoot_rhs(params: InstantonParams, eta: float):
    fam = params.family
    c, s = math.cos(eta), math.sin(eta)
    if fam is Family.GENERALIZED_TN:
        a, b = _ab(params)
        pre = _mass_root(params)

        def rhs(t, y):
            u, v = y
            P = math.hypot(c, a * u)
            Q = math.hypot(s, b * v)
            D = 1.0 + (a * u) ** 2 + (b * v) ** 2
            return np.array([pre * P / D, pre * Q / D])
        return rhs
    if fam in (Family.EXCEPTIONAL_TN, Family.EXCEPTIONAL_HALF_PLANE):
        def rhs(t, y):
            u, v = y
            lam = 1.0 + u * u
            return np.array([math.hypot(c, u) / lam, s / lam])
        return rhs

    def rhs(t, y):
        return np.array([c, s])
    return rhs


def geodesic_shoot(params: InstantonParams, eta: float, t_end: float,
                   *, n_samples: int = 64, tol: float = 1e-12) -> Trajectory:
    """Integrate the unit-speed radial geodesic from the origin to t = t_end.

    Certification happens against closed forms, not against the integrator's
    own error estimate: at every sample the trajectory must satisfy the
    unparametrized geodesic equation, and the recomputed distance must equal
    the parameter t (this is what "unit speed" means once the curve is known
    to be the right one).
    """
    sol = ode_solve(_shoot_rhs(params, eta), (0.0, t_end), (0.0, 0.0),
                    rel_tol=tol, abs_tol=tol,
                    t_eval=np.linspace(0.0, t_end, n_samples))
    us, vs = sol.ys[:, 0], sol.ys[:, 1]
    dists = np.array([distance(params, u, v) for u, v in zip(us, vs)])
    g_res = max(unparam_residual(params, eta, u, v) for u, v in zip(us, vs))
    return Trajectory(eta=eta, ts=sol.ts, us=us, vs=vs, distances=dists,
                      distance_residual=float(np.max(np.abs(dists - sol.ts))),
                      geodesic_residual=g_res, nfev=sol.nfev)
