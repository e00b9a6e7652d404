"""Instanton families: one geometry class per family, plus the charts.

Four families share one toric template: a half-plane (or quadrant) leaf
carrying a conformal metric lambda (du^2 + dv^2), plus a two-torus fiber.
Every formula that differs between families lives in that family's class
here, next to its parameter validation and its chart domain: ``bounds``,
the (u range, v range) pair :func:`taubnut.numerics.check_stencil` takes,
and ``eta_range``, the launch angles of the radial geodesics (the closed
quadrant with eta in [0, pi/2], or the half-plane u >= 0 with eta in
[-pi/2, pi/2]).  :class:`InstantonParams` builds the object once, as
``params.geometry``; the other modules hold the family-blind root solves,
quadratures, shoots and finite-difference oracles and read the formulas
from it, so adding a family or a domain rule touches one class.  Asking a
family for a quantity it lacks raises WrongFamily (Geometry.__getattr__).

Charts: ``xy`` -- half-plane coordinates (x, y), x > 0, with x^2 the fiber
determinant (the "axial distance"); ``uv`` -- the family's own chart, in
which the leaf metric has the simplest conformal factor (the ``xy`` chart
itself for the half-plane families); ``moment`` -- the two torus moment
maps; ``almostpolar`` -- (Rtilde, psi), the closed-form distance surrogate
used for volume growth and an angle along its level sets.  Geodesic polar
coordinates need a root solve and live in :mod:`taubnut.geodesics`.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .numerics import fd_gradient, fd_laplacian

SQRT2 = math.sqrt(2.0)
QUADRANT = ((0.0, math.inf), (0.0, math.inf))
HALF_PLANE = ((0.0, math.inf), (-math.inf, math.inf))


class BadParams(Exception):
    """Parameter combination outside the family's domain."""


class WrongFamily(AttributeError):
    """The requested quantity is not defined for this family (its geometry
    has no such attribute)."""


class Family(Enum):
    GENERALIZED_TN = "GeneralizedTN"
    EXCEPTIONAL_TN = "ExceptionalTN"
    EXCEPTIONAL_HALF_PLANE = "ExceptionalHalfPlane"
    FLAT = "Flat"


class Chart(Enum):
    XY = "xy"
    UV = "uv"
    MOMENT = "moment"
    POLAR = "polar"
    ALMOST_POLAR = "almostpolar"


def generalized_D(k, u, v):
    """D = 1 + (1+k) u^2 + (1-k) v^2, the quadratic form every generalized
    family kernel is built from.  Works for floats, complex numbers and
    arrays."""
    return 1.0 + (1.0 + k) * u * u + (1.0 - k) * v * v


def _sinh(x):
    """np.sinh, raising OverflowError where it overflows, as math.sinh does.
    The other float overflows that raise, of cosh and of a square, come in
    the radial relations only where a sinh they evaluate has overflowed."""
    y = np.sinh(x)
    if (np.isinf(y) & np.isfinite(x)).any():
        raise OverflowError("sinh beyond the float range")
    return y


class _FloatOps:
    """The elementary functions of the kernels that take floats or arrays,
    on floats: math's, so that a float stays a float with math's rounding.
    ratio(x, y) is x / y, or inf where y = 0."""

    cos, sin, sinh, cosh, asinh, hypot, copysign, min = (
        math.cos, math.sin, math.sinh, math.cosh, math.asinh, math.hypot, math.copysign, min)
    where = staticmethod(lambda cond, x, y: x if cond else y)
    ratio = staticmethod(lambda x, y: x / y if y else math.inf)


class _ArrayOps:
    """The same functions on numpy arrays."""

    cos, sin, cosh, asinh, hypot, copysign, where = (
        np.cos, np.sin, np.cosh, np.arcsinh, np.hypot, np.copysign, np.where)
    sinh = staticmethod(_sinh)
    min = staticmethod(lambda *xs: functools.reduce(np.minimum, xs))
    ratio = staticmethod(lambda x, y: np.divide(
        x, y, out=np.full(np.broadcast(x, y).shape, np.inf), where=y != 0.0))


def _ops(x):
    return _ArrayOps if type(x) is np.ndarray else _FloatOps


def _leg(p, c: float):
    """(1/2)[p sqrt(c^2 + p^2) + c^2 asinh(p/c)] for p, c >= 0, p a float
    or an array.

    This is the one-variable building block of S_eta, written so the c -> 0
    limit (value p^2/2) needs no special series: the asinh term carries the
    c^2 prefactor and vanishes with it.
    """
    if c == 0.0:
        return 0.5 * p * p
    xp = _ops(p)
    return 0.5 * (p * xp.hypot(c, p) + c * c * xp.asinh(p / c))


def _logsinh(x: float) -> float:
    """log(sinh x) for x >= 0, without overflow for large x and without
    exp(-2x) rounding to 1 for small x; -inf at 0, where x underflowed."""
    if x < 1.0:
        return math.log(math.sinh(x)) if x > 0.0 else -math.inf
    return x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0)


def _launch_residual(au, log_rhs, g, slope):
    """x -> (h, h', None) for h = log sin(eta) + g(A) - log_rhs, A = asinh(au / cos eta),
    in x = log tan(eta), where sin(eta) = t / sqrt(1 + t^2), t = e^x: h' is
    cos^2 + sin^2 slope(A), slope(A) = tanh(A) g'(A), taken as 1 for A < 1e-8."""
    def h(x):
        t = math.exp(x)
        t2 = t * t
        A = math.asinh(au * math.hypot(1.0, t))
        return (x - 0.5 * math.log1p(t2) + g(A) - log_rhs,
                (1.0 + t2 * (slope(A) if A > 1e-8 else 1.0)) / (1.0 + t2), None)
    return h


def _unsquare(x, y, c):
    """(u, v) with y + ix = (u + iv)^2 / (2c), the inverse of the quadrant
    families' squaring map."""
    r = math.hypot(x, y)
    return math.sqrt(c * (r + y)), math.sqrt(c * (r - y))


def _check_quadrant_moments(phi1, phi2):
    if phi1 < 0.0 or phi2 < 0.0:
        raise BadParams(f"({phi1}, {phi2}) outside the moment image (first quadrant)")


def _half_plane_x(phi1):
    if phi1 < 0.0:
        raise BadParams(f"phi1 = {phi1} outside the moment image")
    return math.sqrt(2.0 * phi1)


# --------------------------------------------------------------------------
# the geometries
# --------------------------------------------------------------------------
#
# Kernels take the family's (u, v) as floats.  conformal_factor, fiber,
# moment_map and ricci_potentials also take complex (u, v), under the
# complex-step contract of taubnut.numerics, and almost_ball_v_max takes
# arrays of u.  radial_relation, polar_point, eikonal_S and conformal_factor
# take arrays too (R and eta broadcast together; (u, v) with (c, s) floats),
# and so does the right-hand side shoot_rhs(eta) returns for an array eta:
# written once, they call math on floats and numpy on arrays through _ops.
# (c, s) is (cos eta, sin eta).
# launch_residual(u, v) = h, the launch-angle relation through (u, v),
# increasing in x = log tan(eta); radial_relation(R, eta) = (f, bound), S_eta
# along the eta-geodesic minus R in its log radial parameter s and a
# closed-form bound above its root; h and f are find_root_monotone residuals
# (find_roots_monotone ones on arrays), x -> (value, slope, curvature or
# None).  polar_point(R, eta, solve) = (u, v) at that root, found by solve.

class Geometry:
    """What all families share: the quadrant domain by default, the point
    check against it, and WrongFamily for a quantity a family lacks."""

    family: Family
    M = None
    k = None
    bounds = QUADRANT
    eta_range = (0.0, math.pi / 2)

    def __getattr__(self, name):
        # reached only when the family's class does not define ``name``
        raise WrongFamily(f"{name} is not defined for {self.family.value}")

    def check_point(self, u, v):
        """BadParams unless (u, v) is a finite point of the chart domain."""
        (u_lo, u_hi), (v_lo, v_hi) = self.bounds
        if not (math.isfinite(u) and math.isfinite(v)
                and u_lo <= u <= u_hi and v_lo <= v <= v_hi):
            raise BadParams(f"({u}, {v}) is not a finite point of the chart domain "
                            f"u in [{u_lo}, {u_hi}], v in [{v_lo}, {v_hi}]")

    def exact_launch_angle(self, u, v):
        """The launch angle through (u, v) in closed form, or None when it
        needs the root solve."""
        return None


class GeneralizedTN(Geometry):
    """Donaldson's twisted Taub-NUT: mass M > 0 (default sqrt 2) and
    chirality |k| < 1 (default 0); the limits k -> +-1 leave the family
    (their rescaled limits are the exceptional geometries).

    In the log radial parameter s = log F the radial geodesic is
    u = cos(eta) sinh(a s)/a, v = sin(eta) sinh(b s)/b with a = sqrt(1+k),
    b = sqrt(1-k), and S_eta along it is lhs(s) / sqrt(M / (2 sqrt 2)),

        lhs = cos^2(eta)/(2a) [sinh(2as)/2 + as] + sin^2(eta)/(2b) [sinh(2bs)/2 + bs],

    whose s-derivative cos^2(eta) cosh^2(as) + sin^2(eta) cosh^2(bs) >= 1
    keeps Newton on s uniformly well conditioned in eta.
    """

    family = Family.GENERALIZED_TN
    ricci_calibration = 2.0

    def __init__(self, M, k):
        mass = SQRT2 if M is None else float(M)
        chi = 0.0 if k is None else float(k)
        if not (mass > 0.0 and math.isfinite(mass)):
            raise BadParams(f"mass must be positive and finite, got M={M}")
        if not abs(chi) < 1.0:
            if abs(chi) == 1.0:
                raise BadParams(
                    "k = +-1 is not a GeneralizedTN member; the degeneration "
                    "is the ExceptionalTN geometry (after rescaling)")
            raise BadParams(f"chirality must satisfy |k| < 1, got k={k}")
        self.M, self.k = mass, chi
        self.a, self.b = math.sqrt(1.0 + chi), math.sqrt(1.0 - chi)
        # sqrt(M / (2 sqrt 2)) converts the reduced radial variable to R
        self.mass_root = math.sqrt(mass / (2.0 * SQRT2))
        self.l2_ricci_closed = 4.0 * math.pi ** 2 * chi * chi / (1.0 - chi * chi)
        # Gauss-Bonnet for scalar-flat 4-manifolds of Euler characteristic 1
        self.l2_riemann = 32.0 * math.pi ** 2 + 4.0 * self.l2_ricci_closed

    # charts: y + ix = (u + iv)^2 / (sqrt(2) M)
    def xy_from_uv(self, u, v):
        return SQRT2 * u * v / self.M, (u * u - v * v) / (SQRT2 * self.M)

    def uv_from_xy(self, x, y):
        return _unsquare(x, y, self.M / SQRT2)

    def moment_map(self, u, v):
        return (v * v * (1.0 + (1.0 + self.k) * u * u) / self.M,
                u * u * (1.0 + (1.0 - self.k) * v * v) / self.M)

    def uv_from_moment(self, phi1, phi2):
        # eliminating V = v^2 = M phi1 / (1 + (1+k) U) leaves the quadratic
        # (1+k) U^2 + B U - M phi2 = 0 in U = u^2; its positive root, taken
        # in the form that does not cancel, followed by V: accurate to the
        # map's own conditioning, about u^2 times the unit roundoff relatively
        _check_quadrant_moments(phi1, phi2)
        k, M = self.k, self.M
        B = 1.0 + M * ((1.0 - k) * phi1 - (1.0 + k) * phi2)
        root = math.hypot(B, 2.0 * math.sqrt((1.0 + k) * M * phi2))
        if B >= 0.0:
            uu = 2.0 * M * phi2 / (B + root)
        else:
            uu = (root - B) / (2.0 * (1.0 + k))
        return math.sqrt(uu), math.sqrt(M * phi1 / (1.0 + (1.0 + k) * uu))

    def almost_distance(self, u, v):
        # the distance surrogate Rtilde.  sqrt(1+-k), not (1+-k): Rtilde must
        # be constant on the almost-spheres (uv_from_almost_polar at fixed
        # Rtilde) and Rtilde / R -> 1 along every geodesic; squared
        # coefficients would leave the ratio at sqrt(1+-k) on the axes
        return (self.a * u * u + self.b * v * v) / math.sqrt(SQRT2 * self.M)

    def _almost_axes(self):
        scale = (SQRT2 * self.M) ** 0.25
        return scale / (1.0 + self.k) ** 0.25, scale / (1.0 - self.k) ** 0.25

    def almost_angle(self, rtilde, u, v):
        a0, b0 = self._almost_axes()
        return math.atan2(v / b0, u / a0)

    def uv_from_almost_polar(self, rtilde, psi):
        a0, b0 = self._almost_axes()
        s = math.sqrt(rtilde)
        return a0 * s * math.cos(psi), b0 * s * math.sin(psi)

    def conformal_factor(self, u, v):
        return 2.0 * SQRT2 * generalized_D(self.k, u, v) / self.M

    def fiber(self, u, v):
        k = self.k
        pre = SQRT2 / (self.M * generalized_D(k, u, v))
        # p * p, not p ** 2, so the complex-step real part is the float
        # value bit for bit (see taubnut.numerics)
        p, q = 1.0 + (1.0 + k) * u * u, 1.0 + (1.0 - k) * v * v
        return (pre * v * v * (p * p + (1.0 + k) ** 2 * u * u * v * v),
                pre * u * u * v * v * (2.0 + (1.0 - k * k) * (u * u + v * v)),
                pre * u * u * (q * q + (1.0 - k) ** 2 * u * u * v * v))

    def collapsing_directions(self):
        """The torus direction of bounded length and its complement."""
        return (1.0 - self.k, -(1.0 + self.k)), (1.0 + self.k, 1.0 - self.k)

    def eikonal_S(self, c, s, u, v):
        a, b = self.a, self.b
        return (_leg(a * u, c) / a + _leg(b * v, s) / b) / self.mass_root

    def launch_residual(self, u, v):
        # g(A) = log sinh(qA): min(1, q) <= h' <= max(1, q); h = x - log(v/u) at k = 0
        q = self.b / self.a
        return _launch_residual(self.a * u, math.log(self.b) + math.log(v),
                                lambda A: _logsinh(q * A),
                                lambda A: q * math.tanh(A) / math.tanh(q * A))

    def unparam_residual(self, c, s, u, v):
        return abs(math.asinh(self.a * u / c) / self.a - math.asinh(self.b * v / s) / self.b)

    def _relation(self, c2, s2, rho, xp):
        """s -> (lhs(s) - rho, its first and second s-derivatives), with the
        elementary functions xp."""
        a, b = self.a, self.b
        sinh, cosh = xp.sinh, xp.cosh

        def f(s):
            sa, sb = sinh(2 * a * s), sinh(2 * b * s)
            return (c2 / (2 * a) * (0.5 * sa + a * s) + s2 / (2 * b) * (0.5 * sb + b * s) - rho,
                    c2 * cosh(a * s) ** 2 + s2 * cosh(b * s) ** 2,
                    c2 * a * sa + s2 * b * sb)
        return f

    def radius_of_s(self, eta, s):
        f = self._relation(math.cos(eta) ** 2, math.sin(eta) ** 2, 0.0, _FloatOps)
        return f(s)[0] / self.mass_root

    def approx_F(self, R, eta):
        a, b = self.a, self.b
        rho = self.mass_root * R
        q = a / b
        # the branches meet at sin(eta) = n / (n + m) = 1 / (1 + e^L), n = rho^(q-1),
        # m = 6a / (8b)^q, L = log(m / n): in logs, since n leaves the float range as k -> 1
        L = math.log(0.75 * 8.0 * a) - q * math.log(8.0 * b) - (q - 1.0) * math.log(rho)
        t = math.exp(-abs(L))
        threshold = math.asin((t if L > 0.0 else 1.0) / (1.0 + t))
        c2, s2 = math.cos(eta) ** 2, math.sin(eta) ** 2
        if eta < threshold or s2 == 0.0:   # s2 = 0: the v-branch F is infinite
            F, branch = (8.0 * a * rho / c2) ** (1.0 / (2.0 * a)), "u-dominant"
        else:
            F, branch = (8.0 * b * rho / s2) ** (1.0 / (2.0 * b)), "v-dominant"
        if F == math.inf:   # 8 rho a / c2 or 8 rho b / s2 overflowed without raising
            raise OverflowError(f"the approximant of F at R={R}, eta={eta}")
        return F, branch

    def radial_relation(self, R, eta):
        a, b = self.a, self.b
        xp = _ops(eta)
        c2, s2 = xp.cos(eta) ** 2, xp.sin(eta) ** 2
        rho = self.mass_root * R
        # lhs(s) >= s, c2 / (4a) sinh(2as) and s2 / (4b) sinh(2bs): the root
        # lies below each bound, and no sinh up to it exceeds 4 a rho / c2
        return (self._relation(c2, s2, rho, xp),
                xp.min(rho, xp.asinh(4.0 * a * rho / c2) / (2.0 * a),
                       xp.asinh(xp.ratio(4.0 * b * rho, s2)) / (2.0 * b)))

    def polar_point(self, R, eta, solve):
        xp = _ops(eta)
        s = solve(self.radial_relation(R, eta))
        return (xp.cos(eta) * xp.sinh(self.a * s) / self.a,
                xp.sin(eta) * xp.sinh(self.b * s) / self.b)

    def polar_coefficient(self, eta, s):
        a, b = self.a, self.b
        c2, s2 = math.cos(eta) ** 2, math.sin(eta) ** 2
        w = (s2 * math.sinh(a * s) * math.cosh(b * s) / a
             + c2 * math.cosh(a * s) * math.sinh(b * s) / b)
        return 2.0 * SQRT2 / self.M * w * w

    def shoot_rhs(self, eta):
        c, s = math.cos(eta), math.sin(eta)
        a, b, pre = self.a, self.b, self.mass_root
        hypot = _ops(eta).hypot

        def rhs(t, y):
            u, v = y
            P = hypot(c, a * u)
            Q = hypot(s, b * v)
            D = 1.0 + (a * u) ** 2 + (b * v) ** 2
            return np.array([pre * P / D, pre * Q / D])
        return rhs

    def polytope_curvature(self, u, v):
        k = self.k
        return (self.M / SQRT2) * (-1.0 + k * (1.0 + k) * u * u
                                   - k * (1.0 - k) * v * v) / generalized_D(k, u, v) ** 3

    def polytope_curvature_overscaled(self, u, v):
        return SQRT2 * self.polytope_curvature(u, v)

    def polytope_curvature_polar_form(self, r, theta):
        k, M = self.k, self.M
        den = 1.0 + SQRT2 * M * r * (1.0 + k * math.sin(theta))
        return M * (-1.0 + SQRT2 * M * k * r * (k + math.sin(theta))) / den ** 3

    def ricci_potentials(self, u, v):
        k = self.k
        D = generalized_D(k, u, v)
        return ((1.0 + (1.0 + k) * (u * u + v * v)) / D / SQRT2,
                (1.0 + (1.0 - k) * (u * u + v * v)) / D / SQRT2)

    def ricci_density(self, u, v):
        return 8.0 * self.k * self.k * u * v / generalized_D(self.k, u, v) ** 3

    def ricci_norm(self, u, v):
        return SQRT2 * abs(self.k) * self.M / generalized_D(self.k, u, v) ** 2

    # almost-balls {Rtilde <= R}: the region under v_max(u), 0 <= u <= u_max
    def almost_ball_u_max(self, R):
        return math.sqrt(math.sqrt(SQRT2 * self.M) * R / self.a)

    def almost_ball_v_max(self, R, u):
        budget = math.sqrt(SQRT2 * self.M) * R - self.a * u * u
        return np.sqrt(np.maximum(budget, 0.0) / self.b)

    def almost_ball_volume(self, R):
        k, M = self.k, self.M
        pre = 2.0 * SQRT2 * math.pi ** 2 / (M * math.sqrt(1.0 - k * k))
        cubic = (self.a + self.b) * math.sqrt(SQRT2 * M) / 3.0
        return pre * (R * R + cubic * R ** 3)


class ExceptionalTN(Geometry):
    """The k = +1 exceptional instanton on the quadrant; no free parameters
    (k = -1 is its axis swap)."""

    family = Family.EXCEPTIONAL_TN
    k = 1.0
    ricci_calibration = 2.0
    l2_ricci_closed = math.inf

    def __init__(self, M, k):
        if M is not None:
            raise BadParams("ExceptionalTN has a fixed normalization; drop M")
        chi = 1.0 if k is None else float(k)
        if chi == -1.0:
            raise BadParams(
                "the k = -1 exceptional geometry is the axis swap u <-> v "
                "of the k = +1 one; use k = +1 and relabel")
        if chi != 1.0:
            raise BadParams(f"ExceptionalTN requires k = +1, got k={k}")

    # charts: y + ix = (u + iv)^2 / 4
    def xy_from_uv(self, u, v):
        return u * v / 2.0, (u * u - v * v) / 4.0

    def uv_from_xy(self, x, y):
        return _unsquare(x, y, 2.0)

    def moment_map(self, u, v):
        a = 2.0 * SQRT2
        return v * v * (1.0 + u * u) / a, u * u / a

    def uv_from_moment(self, phi1, phi2):
        _check_quadrant_moments(phi1, phi2)
        a = 2.0 * SQRT2
        u = math.sqrt(a * phi2)
        return u, math.sqrt(a * phi1 / (1.0 + u * u))

    # u = sqrt(2 Rtilde) cos(psi), v = Rtilde sin(psi)^2
    def almost_distance(self, u, v):
        return u * u / 2.0 + v

    def almost_angle(self, rtilde, u, v):
        return math.asin(min(1.0, math.sqrt(v / rtilde)))

    def uv_from_almost_polar(self, rtilde, psi):
        return math.sqrt(2.0 * rtilde) * math.cos(psi), rtilde * math.sin(psi) ** 2

    def conformal_factor(self, u, v):
        return 1.0 + u * u

    def fiber(self, u, v):
        lam = 1.0 + u * u
        return (0.5 * v * v * (lam * lam + u * u * v * v) / lam,
                0.5 * u * u * v * v / lam, 0.5 * u * u / lam)

    # distance: the radial geodesic is u = c sinh(sigma), v = s sigma
    def eikonal_S(self, c, s, u, v):
        return _leg(u, c) + v * s

    def launch_residual(self, u, v):
        # the q -> 0 limit of GeneralizedTN's, less log q: g(A) = log A
        return _launch_residual(u, math.log(v), math.log, lambda A: math.tanh(A) / A)

    def unparam_residual(self, c, s, u, v):
        return abs(math.asinh(u / c) - v / s)

    def radial_relation(self, R, eta):
        xp = _ops(eta)
        c, s = xp.cos(eta), xp.sin(eta)
        c2, half = c * c, 0.5 * (1.0 + s * s)
        sinh, cosh = xp.sinh, xp.cosh

        def f(sig):
            sh, ch = sinh(sig), cosh(sig)
            return (0.5 * c2 * sh * ch + half * sig - R, c2 * ch ** 2 + half - 0.5 * c2,
                    c2 * sinh(2.0 * sig))
        # both terms of the relation are >= 0: sigma <= R / half, and
        # c2 / 4 sinh(2 sigma) <= R
        return f, xp.min(R / half, 0.5 * xp.asinh(4.0 * R / c2))

    def polar_point(self, R, eta, solve):
        # on the v-axis the point is (0, R); the relation is solved there at
        # R = 0 (sigma = 0, u = 0), as at R itself its sinh overflows past
        # R of about 700
        xp = _ops(eta)
        axis = eta == math.pi / 2
        sigma = solve(self.radial_relation(xp.where(axis, 0.0, R), eta))
        return xp.cos(eta) * xp.sinh(sigma), xp.where(axis, R, xp.sin(eta) * sigma)

    def shoot_rhs(self, eta):
        c, s = math.cos(eta), math.sin(eta)
        hypot = _ops(eta).hypot

        def rhs(t, y):
            u, v = y
            lam = 1.0 + u * u
            return np.array([hypot(c, u) / lam, s / lam])
        return rhs

    def polytope_curvature(self, u, v):
        return -(1.0 - u * u) / (1.0 + u * u) ** 3

    def ricci_potentials(self, u, v):
        lam = 1.0 + u * u
        return (1.0 + u * u + v * v) / lam / SQRT2, (1.0 / SQRT2) / lam

    def ricci_density(self, u, v):
        return 2.0 * u * v / (1.0 + u * u) ** 3

    def ricci_norm(self, u, v):
        return 2.0 / (1.0 + u * u) ** 2

    def energy_region(self, R):
        # (u_max, v_max(u), weight) of the region whose Ricci energy is measured
        return self.almost_ball_u_max(R), lambda u: self.almost_ball_v_max(R, u), 1.0

    def almost_ball_u_max(self, R):
        return math.sqrt(2.0 * R)

    def almost_ball_v_max(self, R, u):
        return np.maximum(R - 0.5 * u * u, 0.0)

    def almost_ball_volume(self, R):
        return math.pi ** 2 / 6.0 * (R ** 4 + 2.0 * R ** 3)


class _HalfPlane(Geometry):
    """The half-plane families: no parameters, and (u, v) is the (x, y)
    chart itself."""

    bounds = HALF_PLANE
    eta_range = (-math.pi / 2, math.pi / 2)

    def __init__(self, M, k):
        if M is not None or k is not None:
            raise BadParams(f"{self.family.value} takes no parameters")

    def xy_from_uv(self, u, v):
        return u, v

    uv_from_xy = xy_from_uv


class ExceptionalHalfPlane(_HalfPlane):
    """The half-plane exceptional instanton.  It shares lambda = 1 + x^2,
    the Gauss curvature, the launch-angle and radial relations and the
    shoot right-hand side with ExceptionalTN."""

    family = Family.EXCEPTIONAL_HALF_PLANE
    ricci_calibration = SQRT2
    l2_ricci_closed = math.inf

    conformal_factor = ExceptionalTN.conformal_factor
    polytope_curvature = ExceptionalTN.polytope_curvature
    launch_residual = ExceptionalTN.launch_residual
    unparam_residual = ExceptionalTN.unparam_residual
    radial_relation = ExceptionalTN.radial_relation
    shoot_rhs = ExceptionalTN.shoot_rhs

    def moment_map(self, u, v):
        return u * u / 2.0, v * (1.0 + u * u)

    def uv_from_moment(self, phi1, phi2):
        x = _half_plane_x(phi1)
        return x, phi2 / (1.0 + x * x)

    def fiber(self, u, v):
        lam = 1.0 + u * u
        return (u * u / lam, 2.0 * u * u * v / lam,
                (lam * lam + 4.0 * u * u * v * v) / lam)

    def eikonal_S(self, c, s, u, v):
        return _leg(u, abs(c)) + v * s

    def polar_point(self, R, eta, solve):
        u, v = ExceptionalTN.polar_point(self, R, abs(eta), solve)
        return u, _ops(eta).copysign(v, eta)

    def ricci_potentials(self, u, v):
        lam = 1.0 + u * u
        return 2.0 / lam, 4.0 * v / lam

    def ricci_density(self, u, v):
        return 16.0 * u / (1.0 + u * u) ** 3

    def ricci_norm(self, u, v):
        return math.sqrt(8.0) / (1.0 + u * u) ** 2

    def energy_region(self, R):
        # the strip |y| <= R, twice its upper half (the density is y-independent)
        return 1e4, lambda u: R, 2.0


class Flat(_HalfPlane):
    """Flat R^2 x T^2, the sanity baseline: every curvature vanishes."""

    family = Family.FLAT
    ricci_calibration = 2.0
    l2_ricci_closed = 0.0

    def moment_map(self, u, v):
        return u * u / 2.0, v

    def uv_from_moment(self, phi1, phi2):
        return _half_plane_x(phi1), phi2

    def conformal_factor(self, u, v):
        return 1.0 + 0.0 * u

    def fiber(self, u, v):
        return u * u, 0.0 * u, 1.0 + 0.0 * u

    def eikonal_S(self, c, s, u, v):
        return u * c + v * s

    def exact_launch_angle(self, u, v):
        return math.atan2(v, u)

    def unparam_residual(self, c, s, u, v):
        return abs(u * s - v * c)

    def polar_point(self, R, eta, solve):
        xp = _ops(eta)
        return R * xp.cos(eta), R * xp.sin(eta)

    def shoot_rhs(self, eta):
        c, s = math.cos(eta), math.sin(eta)
        return lambda t, y: np.array([c, s])

    def ricci_potentials(self, u, v):
        return 1.0 / SQRT2, 1.0 / SQRT2

    def polytope_curvature(self, u, v):
        return 0.0

    ricci_density = ricci_norm = polytope_curvature   # every curvature vanishes


GEOMETRIES = {cls.family: cls for cls in
              (GeneralizedTN, ExceptionalTN, ExceptionalHalfPlane, Flat)}


@dataclass(frozen=True)
class InstantonParams:
    """Which instanton, and where in its parameter space: M and k for
    GENERALIZED_TN, nothing for the others (ExceptionalTN reports k = 1).
    ``geometry`` is the family's formula object, built and validated once."""

    family: Family = Family.GENERALIZED_TN
    M: float | None = None
    k: float | None = None
    geometry: Geometry = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        geo = GEOMETRIES[self.family](self.M, self.k)
        object.__setattr__(self, "geometry", geo)
        object.__setattr__(self, "M", geo.M)
        object.__setattr__(self, "k", geo.k)

    # -- serialization ----------------------------------------------------

    def as_dict(self) -> dict:
        """The family name, plus M and k for the generalized family (the
        only one with a mass)."""
        if self.M is None:
            return {"family": self.family.value}
        return {"family": self.family.value, "M": self.M, "k": self.k}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "InstantonParams":
        raw = json.loads(text)
        fam = Family(raw["family"])
        return cls(family=fam, M=raw.get("M"), k=raw.get("k"))


# --------------------------------------------------------------------------
# the moment PDE and the charts that need more than one family formula
# --------------------------------------------------------------------------

def moment_pde_residual(params: InstantonParams, x: float, y: float,
                        *, step: float) -> tuple[float, float]:
    """Residual of the axial harmonicity equation x * (Laplacian phi) = d(phi)/dx
    for both moment maps, evaluated in the (x, y) chart with O(step^2)
    central differences.  Both components -> 0 as step -> 0 at interior points."""
    if x <= 2.0 * step:
        raise BadParams(f"x = {x} too close to the axis for step {step}")

    geo = params.geometry

    def phis(xx: float, yy: float) -> np.ndarray:
        return np.array(geo.moment_map(*geo.uv_from_xy(xx, yy)))

    lap = fd_laplacian(phis, x, y, step=step)
    dx, _ = fd_gradient(phis, x, y, step=step)
    r1, r2 = x * lap - dx
    return float(r1), float(r2)


def almost_polar_from_uv(params: InstantonParams, u: float, v: float) -> tuple[float, float]:
    """(Rtilde, psi) with psi in [0, pi/2]: psi = 0 on the u-axis, pi/2 on the
    v-axis.  At the origin Rtilde = 0 and psi is fixed to 0 by convention."""
    rt = params.geometry.almost_distance(u, v)
    if rt == 0.0:
        return 0.0, 0.0
    return rt, params.geometry.almost_angle(rt, u, v)


def uv_from_almost_polar(params: InstantonParams, rtilde: float, psi: float) -> tuple[float, float]:
    if rtilde < 0.0:
        raise BadParams(f"Rtilde must be >= 0, got {rtilde}")
    return params.geometry.uv_from_almost_polar(rtilde, psi)


def uv_from_chart(params: InstantonParams, chart: Chart, c1: float, c2: float) -> tuple[float, float]:
    """Send a point of any closed-form chart to the family's (u, v) chart
    (the polar chart needs the root solves of :mod:`taubnut.geodesics`)."""
    if chart is Chart.UV:
        return c1, c2
    if chart is Chart.XY:
        return params.geometry.uv_from_xy(c1, c2)
    if chart is Chart.MOMENT:
        return params.geometry.uv_from_moment(c1, c2)
    if chart is Chart.ALMOST_POLAR:
        return uv_from_almost_polar(params, c1, c2)
    raise BadParams("geodesic polar transitions need a root solve; "
                    "use taubnut.geodesics.point_from_polar")


def chart_from_uv(params: InstantonParams, chart: Chart, u: float, v: float) -> tuple[float, float]:
    """Send a (u, v) point to any closed-form chart."""
    if chart is Chart.UV:
        return u, v
    if chart is Chart.XY:
        return params.geometry.xy_from_uv(u, v)
    if chart is Chart.MOMENT:
        return params.geometry.moment_map(u, v)
    if chart is Chart.ALMOST_POLAR:
        return almost_polar_from_uv(params, u, v)
    raise BadParams("geodesic polar transitions need a root solve; "
                    "use taubnut.geodesics.polar_from_point")
