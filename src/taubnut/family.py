"""Instanton families: one class per family, plus the charts.

Four families share one toric template: a half-plane (or quadrant) leaf
carrying a conformal metric lambda (du^2 + dv^2), plus a two-torus fiber.
Every formula that differs between families lives in that family's class
here, next to its parameter validation and its chart domain: ``bounds``,
the (u range, v range) pair :func:`taubnut.numerics.check_stencil` takes,
and ``eta_range``, the launch angles of the radial geodesics (the closed
quadrant with eta in [0, pi/2], or the half-plane u >= 0 with eta in
[-pi/2, pi/2]).  The classes derive from :class:`InstantonParams`, and
``InstantonParams(family, M, k)`` is an instance of the family's class, so
``params.<name>`` is the family's formula or constant.  The other modules
hold the family-blind root solves, quadratures, shoots and
finite-difference oracles and read the formulas from the parameters, so
adding a family or a domain rule touches one class.  Asking a family for a
quantity it lacks raises WrongFamily (InstantonParams.__getattr__).

Charts: ``xy`` -- half-plane coordinates (x, y), x > 0, with x^2 the fiber
determinant (the "axial distance"); ``uv`` -- the family's own chart, in
which the leaf metric has the simplest conformal factor (the ``xy`` chart
itself for the half-plane families); ``moment`` -- the two torus moment
maps; ``almostpolar`` -- (Rtilde, psi), the closed-form distance surrogate
used for volume growth and an angle along its level sets.  Geodesic polar
coordinates need a root solve and live in :mod:`taubnut.geodesics`.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import FrozenInstanceError, dataclass, is_dataclass
from enum import Enum

import numpy as np

from .numerics import fd_gradient, fd_laplacian

SQRT2 = math.sqrt(2.0)
QUADRANT = ((0.0, math.inf), (0.0, math.inf))
HALF_PLANE = ((0.0, math.inf), (-math.inf, math.inf))


class BadParams(Exception):
    """Parameter combination outside the family's domain."""


class WrongFamily(AttributeError):
    """The requested quantity is not defined for this family (its class has
    no such attribute)."""


def _finite(x) -> bool:
    """Whether every number of x -- a float, a complex number, an array, or
    a tuple or record of them -- is finite.  Strings are not numbers."""
    if isinstance(x, np.ndarray):
        return bool(np.isfinite(x).all())
    if isinstance(x, tuple) or is_dataclass(x):
        return all(map(_finite, vars(x).values() if is_dataclass(x) else x))
    return isinstance(x, str) or cmath.isfinite(x)


def finite_or_bad_params(fn):
    """fn, raising BadParams where an argument, or a number fn computes or
    returns, is not finite: a NaN or infinite argument, an overflow, or a
    power that underflows to a zero divisor.  fn's own errors come first."""
    @functools.wraps(fn)
    def wrapped(*args):
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                out = fn(*args)
        except ArithmeticError:   # OverflowError, ZeroDivisionError, FloatingPointError
            out = math.nan
        numbers = tuple(x for x in args if not isinstance(x, InstantonParams))
        if not (_finite(numbers) and _finite(out)):
            raise BadParams(f"{fn.__name__} at {list(numbers)}: a number is not finite "
                            f"or leaves the float range")
        return out
    return wrapped


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

    cos, sin, sinh, cosh, asinh, log, hypot, copysign, min = (
        math.cos, math.sin, math.sinh, math.cosh, math.asinh, math.log, math.hypot,
        math.copysign, min)
    where = staticmethod(lambda cond, x, y: x if cond else y)
    ratio = staticmethod(lambda x, y: x / y if y else math.inf)


class _ArrayOps:
    """The same functions on numpy arrays."""

    cos, sin, cosh, asinh, log, hypot, copysign, where = (
        np.cos, np.sin, np.cosh, np.arcsinh, np.log, np.hypot, np.copysign, np.where)
    sinh = staticmethod(_sinh)
    min = staticmethod(lambda *xs: functools.reduce(np.minimum, xs))
    ratio = staticmethod(lambda x, y: np.divide(
        x, y, out=np.full(np.broadcast(x, y).shape, np.inf), where=y != 0.0))


def _ops(x):
    return _ArrayOps if type(x) is np.ndarray else _FloatOps


def _axis_cos_sin(eta):
    """(cos eta, sin eta), with cos 0 on the axis |eta| = pi/2, not math.cos's 6e-17."""
    return 0.0 if abs(eta) == math.pi / 2 else math.cos(eta), math.sin(eta)


def _asinh_ratio(p, c: float):
    """asinh(p / c) for p >= 0 and c > 0, p a float or an array: log(2p) - log(c)
    where p / c overflows (asinh(x) rounds to log(2x) past x = 2^28)."""
    xp = _ops(p)
    y = xp.asinh(p / c)   # hypot(p, c) is p where y is inf, and > 0 where it is not used
    return xp.where(y == math.inf, xp.log(xp.hypot(p, c)) + (math.log(2.0) - math.log(c)), y)


def _leg(p, c: float):
    """(1/2)[p sqrt(c^2 + p^2) + c^2 asinh(p/c)] for p, c >= 0, p a float
    or an array.

    This is the one-variable building block of S_eta, written so the c -> 0
    limit (value p^2/2) needs no special series: the asinh term carries the
    c^2 prefactor and vanishes with it.  Each term is halved before its
    products, so p sqrt(c^2 + p^2) does not overflow where the leg is a float.
    p/c is capped at 1e308, past which the asinh term is below the last bit
    of the first, so an underflowed c^2 never meets an overflowed asinh.
    """
    if c == 0.0:
        return 0.5 * p * p
    xp = _ops(p)
    return 0.5 * p * xp.hypot(c, p) + 0.5 * c * c * xp.asinh(xp.min(p / c, 1e308))


def _logsinh(x: float) -> float:
    """log(sinh x) for x >= 0, without overflow for large x and without
    exp(-2x) rounding to 1 for small x; -inf at 0, where x underflowed."""
    if x < 1.0:
        return math.log(math.sinh(x)) if x > 0.0 else -math.inf
    return x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0)


def _launch_residual(au, log_rhs, g, slope):
    """x -> (h, h', None) for h = log sin(eta) + g(A) - log_rhs, A = asinh(au / cos eta),
    in x = log tan(eta), where sin(eta) = t / sqrt(1 + t^2), t = e^x: h' is
    cos^2 + sin^2 slope(A), slope(A) = tanh(A) g'(A), taken as 1 for A <= 1e-8."""
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
# the instanton and its families
# --------------------------------------------------------------------------
#
# Kernels take the family's (u, v) as floats.  conformal_factor, fiber,
# moment_map and ricci_potentials also take complex (u, v), under the
# complex-step contract of taubnut.numerics, and almost_ball_v_max takes
# arrays of u.  Written once, radial_relation and polar_point (R and eta
# broadcast together), and conformal_factor, eikonal_S and unparam_residual
# ((u, v), with (c, s) floats) also take arrays: they call math on floats
# and numpy on arrays through _ops.  (c, s) is (cos eta, sin eta).
# shoot_rhs(eta) = rhs, the velocity y = (u, v) -> (u', v') of the
# unit-speed eta-geodesic, a function of the state alone; built for an
# array eta, it takes and returns arrays.  Its squares are products, which
# overflow to inf where x ** 2 raises; the float rhs then divides by the
# square root of that sum twice.  launch_residual(u, v) = h, the
# launch-angle relation through (u, v), increasing in x = log tan(eta);
# radial_relation(R, eta) = (f, bound), S_eta along the eta-geodesic minus
# R in its log radial parameter s and a closed-form bound above its root;
# h and f are find_root_monotone residuals (f a find_roots_monotone one on
# arrays), x -> (value, slope, curvature or None).  polar_point(R, eta,
# solve) = (u, v) at that root, found by solve.

@dataclass(frozen=True)
class InstantonParams:
    """Which instanton, and where in its parameter space: M and k for
    GENERALIZED_TN, nothing for the others (ExceptionalTN reports k = 1).

    InstantonParams(family, M, k) is an instance of the family's class
    below, which validates the parameters and holds the family's formulas;
    equality and hashing go by (family, M, k).  What all families share is
    here: the quadrant domain by default, the point and launch-angle checks
    against it, and WrongFamily for a quantity a family lacks."""

    family: Family = Family.GENERALIZED_TN
    M: float | None = None
    k: float | None = None

    bounds = QUADRANT
    eta_range = (0.0, math.pi / 2)

    def __post_init__(self):
        object.__setattr__(self, "__class__", GEOMETRIES[self.family])
        self._check_params()

    def _set(self, **values):
        """Store validated parameters and derived constants on the frozen instance."""
        for name, value in values.items():
            object.__setattr__(self, name, value)

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

    def check_eta(self, eta):
        """BadParams unless the launch angle eta lies in eta_range (NaN does not)."""
        lo, hi = self.eta_range
        if not lo <= eta <= hi:
            raise BadParams(f"launch angle must lie in [{lo}, {hi}], got {eta}")

    def exact_launch_angle(self, u, v):
        """The launch angle through (u, v) in closed form, or None when it
        needs the root solve."""
        return None

    # -- serialization ----------------------------------------------------

    def as_dict(self) -> dict:
        """The family name, plus M and k for the generalized family (the
        only one with a mass)."""
        if self.M is None:
            return {"family": self.family.value}
        return {"family": self.family.value, "M": self.M, "k": self.k}


def _frozen(self, name, *value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


# dataclasses' frozen __setattr__ guards only the fields on a subclass
# instance; the derived constants of the family classes are frozen too
InstantonParams.__setattr__ = InstantonParams.__delattr__ = _frozen


class GeneralizedTN(InstantonParams):
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

    def _check_params(self):
        M, k = self.M, self.k
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
        l2_ricci = 4.0 * math.pi ** 2 * chi * chi / (1.0 - chi * chi)
        # sqrt(M / (2 sqrt 2)) converts the reduced radial variable to R;
        # l2_riemann is Gauss-Bonnet for scalar-flat 4-manifolds of Euler
        # characteristic 1
        mass_root = math.sqrt(mass / (2.0 * SQRT2))
        self._set(M=mass, k=chi, a=math.sqrt(1.0 + chi), b=math.sqrt(1.0 - chi),
                  mass_root=mass_root, l2_ricci_closed=l2_ricci,
                  l2_riemann=32.0 * math.pi ** 2 + 4.0 * l2_ricci,
                  leg_scale=math.ldexp(1.0, -((math.frexp(mass_root)[1] + 1) // 2)))

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
        # the legs are homogeneous of degree 2: scaled by r = leg_scale, a power of two
        # with 1/4 <= mass_root r^2 < 1, they give the same float and stay floats
        a, b, r = self.a, self.b, self.leg_scale
        return (_leg(a * (u * r), c * r) / a + _leg(b * (v * r), s * r) / b) / (self.mass_root * r * r)

    def launch_residual(self, u, v):
        # g(A) = log sinh(qA): min(1, q) <= h' <= max(1, q); h = x - log(v/u) at k = 0
        q = self.b / self.a
        return _launch_residual(self.a * u, math.log(self.b) + math.log(v),
                                lambda A: _logsinh(q * A),
                                lambda A: q * math.tanh(A) / math.tanh(q * A))

    def unparam_residual(self, c, s, u, v):
        return abs(_asinh_ratio(self.a * u, c) / self.a - _asinh_ratio(self.b * v, s) / self.b)

    def radial_relation(self, R, eta):
        a, b = self.a, self.b
        xp = _ops(eta)
        c2, s2 = xp.cos(eta) ** 2, xp.sin(eta) ** 2
        rho = self.mass_root * R
        sinh, cosh = xp.sinh, xp.cosh

        def f(s):   # lhs(s) - rho, and its first and second s-derivatives
            sa, sb = sinh(2 * a * s), sinh(2 * b * s)
            return (c2 / (2 * a) * (0.5 * sa + a * s) + s2 / (2 * b) * (0.5 * sb + b * s) - rho,
                    c2 * cosh(a * s) ** 2 + s2 * cosh(b * s) ** 2,
                    c2 * a * sa + s2 * b * sb)
        # lhs(s) >= s, c2 / (4a) sinh(2as) and s2 / (4b) sinh(2bs): the root
        # lies below each bound, and no sinh up to it exceeds 4 a rho / c2
        return f, xp.min(rho, xp.asinh(4.0 * a * rho / c2) / (2.0 * a),
                         xp.asinh(xp.ratio(4.0 * b * rho, s2)) / (2.0 * b))

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
        c, s = _axis_cos_sin(eta)
        a, b, pre = self.a, self.b, self.mass_root
        hypot = _ops(eta).hypot

        def rhs(y):
            au, bv = a * y[0], b * y[1]
            D = 1.0 + au * au + bv * bv
            if hypot is math.hypot and D == math.inf:   # a float D - 1 = w^2 past the range
                w = hypot(au, bv)
                return pre * (hypot(c, au) / w) / w, pre * (hypot(s, bv) / w) / w
            return pre * hypot(c, au) / D, pre * hypot(s, bv) / D
        return rhs

    def polytope_curvature(self, u, v):
        k = self.k
        return (self.M / SQRT2) * (-1.0 + k * (1.0 + k) * u * u
                                   - k * (1.0 - k) * v * v) / generalized_D(k, u, v) ** 3

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


class ExceptionalTN(InstantonParams):
    """The k = +1 exceptional instanton on the quadrant; no free parameters
    (k = -1 is its axis swap)."""

    family = Family.EXCEPTIONAL_TN
    ricci_calibration = 2.0
    l2_ricci_closed = math.inf

    def _check_params(self):
        if self.M is not None:
            raise BadParams("ExceptionalTN has a fixed normalization; drop M")
        chi = 1.0 if self.k is None else float(self.k)
        if chi == -1.0:
            raise BadParams(
                "the k = -1 exceptional geometry is the axis swap u <-> v "
                "of the k = +1 one; use k = +1 and relabel")
        if chi != 1.0:
            raise BadParams(f"ExceptionalTN requires k = +1, got k={self.k}")
        self._set(k=1.0)

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
        return abs(_asinh_ratio(u, c) - v / s)

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
        c, s = _axis_cos_sin(eta)
        hypot = _ops(eta).hypot

        def rhs(y):
            lam = 1.0 + y[0] * y[0]
            if hypot is math.hypot and lam == math.inf:   # a float lam - 1 = u^2 past the range
                return hypot(c, y[0]) / y[0] / y[0], s / y[0] / y[0]
            return hypot(c, y[0]) / lam, s / lam
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


class _HalfPlane(InstantonParams):
    """The half-plane families: no parameters, and (u, v) is the (x, y)
    chart itself."""

    bounds = HALF_PLANE
    eta_range = (-math.pi / 2, math.pi / 2)

    def _check_params(self):
        if self.M is not None or self.k is not None:
            raise BadParams(f"{self.family.value} takes no parameters")

    def xy_from_uv(self, u, v):
        return u, v

    uv_from_xy = xy_from_uv


class ExceptionalHalfPlane(_HalfPlane):
    """The half-plane exceptional instanton.  It shares lambda = 1 + x^2,
    the Gauss curvature, S_eta, the launch-angle and radial relations and
    the shoot right-hand side with ExceptionalTN."""

    family = Family.EXCEPTIONAL_HALF_PLANE
    ricci_calibration = SQRT2
    l2_ricci_closed = math.inf

    conformal_factor = ExceptionalTN.conformal_factor
    polytope_curvature = ExceptionalTN.polytope_curvature
    eikonal_S = ExceptionalTN.eikonal_S
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
        c, s = _axis_cos_sin(eta)
        return lambda y: (c, s)

    def ricci_potentials(self, u, v):
        return 1.0 / SQRT2, 1.0 / SQRT2

    def polytope_curvature(self, u, v):
        return 0.0

    ricci_density = ricci_norm = polytope_curvature   # every curvature vanishes


GEOMETRIES = {cls.family: cls for cls in
              (GeneralizedTN, ExceptionalTN, ExceptionalHalfPlane, Flat)}


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

    def phis(xx: float, yy: float) -> np.ndarray:
        return np.array(params.moment_map(*params.uv_from_xy(xx, yy)))

    lap = fd_laplacian(phis, x, y, step=step)
    dx, _ = fd_gradient(phis, x, y, step=step)
    r1, r2 = x * lap - dx
    return float(r1), float(r2)


def almost_polar_from_uv(params: InstantonParams, u: float, v: float) -> tuple[float, float]:
    """(Rtilde, psi) with psi in [0, pi/2]: psi = 0 on the u-axis, pi/2 on the
    v-axis.  At the origin Rtilde = 0 and psi is fixed to 0 by convention."""
    rt = params.almost_distance(u, v)
    if rt == 0.0:
        return 0.0, 0.0
    return rt, params.almost_angle(rt, u, v)


def uv_from_almost_polar(params: InstantonParams, rtilde: float, psi: float) -> tuple[float, float]:
    if not (0.0 <= rtilde < math.inf and math.isfinite(psi)):
        raise BadParams(f"need a finite Rtilde >= 0 and a finite psi, got ({rtilde}, {psi})")
    return params.uv_from_almost_polar(rtilde, psi)


def uv_from_chart(params: InstantonParams, chart: Chart, c1: float, c2: float) -> tuple[float, float]:
    """Send a point of any closed-form chart to the family's (u, v) chart
    (the polar chart needs the root solves of :mod:`taubnut.geodesics`)."""
    if chart is Chart.UV:
        return c1, c2
    if chart is Chart.XY:
        return params.uv_from_xy(c1, c2)
    if chart is Chart.MOMENT:
        return params.uv_from_moment(c1, c2)
    if chart is Chart.ALMOST_POLAR:
        return uv_from_almost_polar(params, c1, c2)
    raise BadParams("geodesic polar transitions need a root solve; "
                    "use taubnut.geodesics.point_from_polar")
