"""Instanton families: one class per family, plus the charts.

Four families share one toric template: a half-plane (or quadrant) leaf
carrying a conformal metric lambda (du^2 + dv^2), plus a two-torus fiber.
Every formula that differs between families lives in that family's class
here, next to its parameter validation and its chart domain: ``bounds``,
the (u range, v range) pair ``check_point`` holds a point to, and
``eta_range``, the launch angles of the radial geodesics (the closed
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
coordinates need a root solve and live in :mod:`taubnut.geodesics`, as does
``uv_from_chart``, which maps a point of any chart to (u, v).
"""

from __future__ import annotations

import collections
import functools
import math
import sys
from enum import Enum

from .numerics import BadParams, TaubnutError, fd_gradient, fd_laplacian

SQRT2, HALF_PI = math.sqrt(2.0), math.pi / 2
QUADRANT = ((0.0, math.inf), (0.0, math.inf))
HALF_PLANE = ((0.0, math.inf), (-math.inf, math.inf))


class WrongFamily(TaubnutError, AttributeError):
    """The requested quantity is not defined for this family (its class has
    no such attribute)."""


def _is_array(x) -> bool:
    """Whether x is a numpy array, 0-d ones included; where numpy is not loaded, it is not."""
    return type(x) is not float and type(x) is getattr(sys.modules.get("numpy"), "ndarray", None)


def _finite(x) -> bool:
    """Whether every number of x -- a float, or a tuple or record of them -- is finite."""
    if isinstance(x, tuple):
        return all(map(_finite, x))
    return math.isfinite(x)


def finite_or_bad_params(fn):
    """fn on its number arguments made floats by ``reals``, raising BadParams where one is not
    a real number or not finite, or where a number fn computes or returns is not finite (an
    overflow, or a power that underflows to a zero divisor).  fn's own errors come first."""
    @functools.wraps(fn)
    def wrapped(*args):
        head = args[:1] if args and isinstance(args[0], InstantonParams) else ()
        numbers = reals(args[len(head):], f"the arguments of {fn.__name__}")
        try:
            out = fn(*head, *numbers)
        except ArithmeticError:   # OverflowError, ZeroDivisionError
            out = math.nan
        if not (all(map(math.isfinite, numbers)) and _finite(out)):
            raise BadParams(f"{fn.__name__} at {numbers}: a number is not finite "
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
    family kernel is built from.  Works for floats, Jets and arrays."""
    return 1.0 + (1.0 + k) * u * u + (1.0 - k) * v * v


class _FloatOps:
    """The elementary functions of the kernels that take floats or arrays,
    on floats: math's, so that a float stays a float with math's rounding.
    ratio(x, y) is x / y, or inf where y = 0."""

    sinh, cosh, asinh, copysign, min, any = (
        math.sinh, math.cosh, math.asinh, math.copysign, min, bool)
    where = staticmethod(lambda cond, x, y: x if cond else y)
    ratio = staticmethod(lambda x, y: x / y if y else math.inf)


@functools.cache
def _array_ops():
    """The same functions on numpy arrays, made on first use.  sinh raises
    OverflowError where it overflows, as math.sinh does; the radial relations
    meet the other float overflows, of cosh and squares, only past one of sinh."""
    import numpy as np

    class _ArrayOps:
        cosh, asinh, copysign, where, any = np.cosh, np.arcsinh, np.copysign, np.where, np.any
        min = staticmethod(lambda *xs: functools.reduce(np.minimum, xs))
        ratio = staticmethod(lambda x, y: np.divide(
            x, y, out=np.full(np.broadcast(x, y).shape, np.inf), where=y != 0.0))

        @staticmethod
        def sinh(x):
            y = np.sinh(x)
            if (np.isinf(y) & np.isfinite(x)).any():
                raise OverflowError("sinh beyond the float range")
            return y
    return _ArrayOps


def _ops(x):
    return _FloatOps if type(x) is float or not _is_array(x) else _array_ops()


def _launch_cos_sin(eta):
    """(cos eta, sin eta) of a launch angle, floats or arrays, the one place an angle
    becomes a direction: cos 0 on the v-axis |eta| = pi/2, where math.cos gives 6e-17,
    and sin 0 on the u-axis |sin eta| < 1e-300, where v / sin overflows."""
    if type(eta) is float or not _is_array(eta):
        s = math.sin(eta)
        return 0.0 if abs(eta) == HALF_PI else math.cos(eta), s if abs(s) >= 1e-300 else 0.0
    np = sys.modules["numpy"]
    s = np.sin(eta)
    return np.where(abs(eta) == HALF_PI, 0.0, np.cos(eta)), np.where(abs(s) < 1e-300, 0.0, s)


def _asinh_ratio(p: float, c: float) -> float:
    """asinh(p / c) for p >= 0 and c > 0: log(2p) - log(c) where p / c
    overflows (asinh(x) rounds to log(2x) past x = 2^28)."""
    y = math.asinh(p / c)   # hypot(p, c) is p where y is inf
    return y if y != math.inf else math.log(math.hypot(p, c)) + (math.log(2.0) - math.log(c))


def _leg(p: float, c: float) -> float:
    """(1/2)[p sqrt(c^2 + p^2) + c^2 asinh(p/c)] for floats p, c >= 0.

    This is the one-variable building block of S_eta, written so the c -> 0
    limit (value p^2/2) needs no special series: the asinh term carries the
    c^2 prefactor and vanishes with it.  Each term is halved before its
    products, so p sqrt(c^2 + p^2) does not overflow where the leg is a float.
    p/c is capped at 1e308, past which the asinh term is below the last bit
    of the first, so an underflowed c^2 never meets an overflowed asinh.
    Where p/c is subnormal, and so keeps few bits, the asinh term is c p / 2.
    """
    if c == 0.0:
        return 0.5 * p * p
    x = 1e308 if p / c > 1e308 else p / c
    return 0.5 * p * math.hypot(c, p) + (0.5 * c * p if x < 2.0 ** -1022 else
                                         0.5 * c * c * math.asinh(x))


def _logsinh(x: float) -> float:
    """log(sinh x) for x >= 0, without overflow for large x and without
    exp(-2x) rounding to 1 for small x; -inf at 0, where x underflowed."""
    if x < 1.0:
        return math.log(math.sinh(x)) if x > 0.0 else -math.inf
    return x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0)


def _launch_residual(au, log_rhs, q):
    """x -> (h, h', None) for h = log sin(eta) + g(A) - log_rhs, A = asinh(au / cos eta),
    in x = log tan(eta), where sin(eta) = t / sqrt(1 + t^2), t = e^x: h' is
    cos^2 + sin^2 slope(A), slope(A) = tanh(A) g'(A), taken as 1 for A <= 1e-8.
    g(A) = log sinh(qA) for q > 0, and its q -> 0 limit less log q, log A, for q = 0."""
    def h(x):
        t = math.exp(x)
        t2 = t * t
        A = math.asinh(au * math.hypot(1.0, t))
        slope = ((q * math.tanh(A) / math.tanh(q * A) if q else math.tanh(A) / A)
                 if A > 1e-8 else 1.0)
        return (x - 0.5 * math.log1p(t2) + (_logsinh(q * A) if q else math.log(A)) - log_rhs,
                (1.0 + t2 * slope) / (1.0 + t2), None)
    return h


def _unsquare(x, y, c):
    """(u, v) with y + ix = (u + iv)^2 / (2c), the inverse of the quadrant
    families' squaring map; BadParams off the closed half-plane x >= 0."""
    if not (0.0 <= x < math.inf and -math.inf < y < math.inf):
        raise BadParams(f"({x}, {y}) is not a finite point of the xy chart domain x >= 0")
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
# collapsing_fiber, moment_map and ricci_potentials also take Jets (the jet
# contract of taubnut.numerics); ricci_density, almost_ball_v_max and the
# conformal_factor and xy_from_uv of volume_density also take the quadrature's
# numpy arrays.  A launch angle reaches a kernel as (c, s) = _launch_cos_sin(eta);
# radial_relation and polar_point take R, c and s as floats or, for the
# contour fan, as arrays broadcast together, through _ops (math on floats,
# numpy on arrays).  Every other kernel of a launch pair takes floats alone.
# shoot_rhs(c, s) = rhs, the velocity (u, v) -> (u', v') of the unit-speed
# geodesic; its squares overflow to inf where x ** 2 raises, and rhs then
# divides by the square root of their sum twice.  launch_residual(u, v) = h,
# the launch-angle relation through (u, v), increasing in x = log tan(eta);
# radial_relation(R, c, s) = (f, bound), S_eta along the geodesic minus R in
# its log radial parameter and a closed-form bound above the root; h and f
# are find_root_monotone residuals (f a find_roots_monotone one on arrays),
# x -> (value, slope, curvature or None).  polar_point(R, c, s, solve) =
# (u, v) at that root, found by solve; polar_coefficient(c, s, root) = A^2 there.

class InstantonParams(collections.namedtuple(
        "InstantonParams", "family M k", defaults=(Family.GENERALIZED_TN, None, None))):
    """Which instanton, and where in its parameter space: M and k for
    GENERALIZED_TN, nothing for the others (ExceptionalTN reports k = 1).

    InstantonParams(family, M, k) is an instance of the family's class
    below, whose _check_params(M, k) validates the parameters and returns
    them normalized with the family's derived constants, and which holds
    the family's formulas.  It is a named tuple (family, M, k): equality,
    hashing and repr go by those three, and no attribute can be set or
    deleted.  What all families share is here: the quadrant domain by
    default, the point and launch-angle checks against it, and WrongFamily
    for a quantity a family lacks."""

    bounds = QUADRANT
    eta_range = (0.0, HALF_PI)
    flat = False   # whether every curvature vanishes identically

    def __new__(cls, *args, **kwargs):
        family, M, k = super().__new__(cls, *args, **kwargs)   # the fields, defaults filled in
        try:   # a family that is not a Family member, or an M or k that float() refuses
            geometry = GEOMETRIES[family]
            M, k, derived = geometry._check_params(M, k)
        except (LookupError, TypeError, ValueError, OverflowError):
            raise BadParams(f"need a Family and real M and k, got {family!r}, {M!r}, {k!r}") from None
        params = super().__new__(geometry, family, M, k)
        params.__dict__.update(derived)
        return params

    @classmethod
    def _make(cls, fields):   # for _replace: through __new__, validated and with its constants
        return InstantonParams(*fields)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __getattr__(self, name):
        # reached only when the family's class does not define ``name``
        raise WrongFamily(f"{name} is not defined for {self.family.value}")

    def check_point(self, u, v):
        """BadParams unless (u, v) is a finite point of the chart domain."""
        (u_lo, u_hi), (v_lo, v_hi) = self.bounds
        if not (in_range(u_lo, u, u_hi) and in_range(v_lo, v, v_hi)
                and math.isfinite(u) and math.isfinite(v)):
            raise BadParams(f"({u!r}, {v!r}) is not a finite point of the chart domain "
                            f"u in [{u_lo}, {u_hi}], v in [{v_lo}, {v_hi}]")

    def check_eta(self, eta):
        """BadParams unless the launch angle eta is a number in eta_range (NaN is not)."""
        lo, hi = self.eta_range
        if not in_range(lo, eta, hi):
            raise BadParams(f"launch angle must lie in [{lo}, {hi}], got {eta!r}")

    def exact_launch_angle(self, u, v):
        """The launch angle through (u, v) in closed form, or None when it
        needs the root solve."""
        return None

    def curvature_fiber(self, u, v):
        """The fiber kernel curvature4_fd differentiates at (u, v)."""
        return self.fiber

    # -- serialization ----------------------------------------------------

    def as_dict(self) -> dict:
        """The family name, plus M and k for the generalized family (the
        only one with a mass)."""
        if self.M is None:
            return {"family": self.family.value}
        return {"family": self.family.value, "M": self.M, "k": self.k}


def in_range(lo, x, hi) -> bool:
    """lo <= x <= hi; False for NaN and for what is not a number (a str, a list)."""
    try:
        return lo <= x <= hi
    except TypeError:
        return False


def reals(xs, what) -> list[float]:
    """xs as floats, -0.0 kept; BadParams unless xs is an iterable of reals in the float range."""
    try:   # - 0.0 refuses a str or a list, float() a complex or a longer array
        return [float(x - 0.0) for x in xs]
    except (TypeError, OverflowError):
        raise BadParams(f"{what} must be real, got {xs!r}") from None


def check_chirality(k) -> float:
    """k as a float; BadParams unless k is a number and |k| < 1, GeneralizedTN's bound."""
    chi, = reals((k,), "the chirality")
    if not abs(chi) < 1.0:
        if abs(chi) == 1.0:
            raise BadParams("k = +-1 is not a GeneralizedTN member; the degeneration "
                            "is the ExceptionalTN geometry (after rescaling)")
        raise BadParams(f"chirality must satisfy |k| < 1, got k={k}")
    return chi


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

    @staticmethod
    def _check_params(M, k):
        mass = SQRT2 if M is None else float(M)
        # M / (2 sqrt 2) a normal float and sqrt 2 M a float: about 6.3e-308 <= M <= 1.27e308
        if not (mass / (2.0 * SQRT2) >= 2.0 ** -1022 and SQRT2 * mass < math.inf):
            raise BadParams(f"mass must lie in about [6.3e-308, 1.27e308], got M={M}")
        chi = check_chirality(0.0 if k is None else float(k))
        l2_ricci = 4.0 * math.pi ** 2 * chi * chi / (1.0 - chi * chi)
        # sqrt(M / (2 sqrt 2)) converts the reduced radial variable to R;
        # l2_riemann is Gauss-Bonnet for scalar-flat 4-manifolds of Euler
        # characteristic 1
        mass_root = math.sqrt(mass / (2.0 * SQRT2))
        return mass, chi, dict(a=math.sqrt(1.0 + chi), b=math.sqrt(1.0 - chi),
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
        # p * p, not p ** 2: a jet has no ** (see taubnut.numerics)
        p, q = 1.0 + (1.0 + k) * u * u, 1.0 + (1.0 - k) * v * v
        return (pre * v * v * (p * p + (1.0 + k) ** 2 * u * u * v * v),
                pre * u * u * v * v * (2.0 + (1.0 - k * k) * (u * u + v * v)),
                pre * u * u * (q * q + (1.0 - k) ** 2 * u * u * v * v))

    def collapsing_fiber(self, u, v):
        # T F T^T for T = (w, w_perp) = ((1-k, -(1+k)), (1+k, 1-k)), in forms that do not cancel
        k, u2, v2, pre = self.k, u * u, v * v, SQRT2 / (self.M * generalized_D(self.k, u, v))
        c, a2, b2, uv2 = 1.0 + k * k, (1.0 + k) ** 2, (1.0 - k) ** 2, u2 * v2
        return (pre * (a2 * u2 + b2 * v2), pre * (-4.0 * k * c * uv2 - (1.0 - k * k) * (u2 - v2)),
                pre * (4.0 * c * uv2 * (c * (u2 + v2) + 2.0) + b2 * u2 + a2 * v2))

    def curvature_fiber(self, u, v):
        # the basis less correlated here: theta1 and theta2 align far out, w and w_perp near an axis
        (a, b, c), (p, q, r) = self.fiber(u, v), self.collapsing_fiber(u, v)
        return self.fiber if b * b * p * r <= q * q * a * c else self.collapsing_fiber

    def eikonal_S(self, c, s, u, v):
        # the legs are homogeneous of degree 2: scaled by r = leg_scale, a power of two
        # with 1/4 <= mass_root r^2 < 1, they give the same float and stay floats
        a, b, r = self.a, self.b, self.leg_scale
        return (_leg(a * (u * r), c * r) / a + _leg(b * (v * r), s * r) / b) / (self.mass_root * r * r)

    def launch_residual(self, u, v):
        # g(A) = log sinh(qA): min(1, q) <= h' <= max(1, q); h = x - log(v/u) at k = 0
        return _launch_residual(self.a * u, math.log(self.b) + math.log(v), self.b / self.a)

    def unparam_residual(self, c, s, u, v):
        return abs(_asinh_ratio(self.a * u, c) / self.a - _asinh_ratio(self.b * v, s) / self.b)

    def radial_relation(self, R, c, s):
        a, b, xp = self.a, self.b, _ops(c)
        c2, s2 = c ** 2, s ** 2
        rho = self.mass_root * R
        if xp.any(rho == math.inf):   # an inf - inf in f would be NaN, not an overflow
            raise OverflowError("the reduced distance sqrt(M / (2 sqrt 2)) R overflows")
        sinh, cosh, a2, b2 = xp.sinh, xp.cosh, 2 * a, 2 * b
        c2_2a, s2_2b, c2a, s2b = c2 / a2, s2 / b2, c2 * a, s2 * b   # grouped as in f

        def f(s):   # lhs(s) - rho, and its first and second s-derivatives
            sa, sb = sinh(a2 * s), sinh(b2 * s)
            return (c2_2a * (0.5 * sa + a * s) + s2_2b * (0.5 * sb + b * s) - rho,
                    c2 * cosh(a * s) ** 2 + s2 * cosh(b * s) ** 2, c2a * sa + s2b * sb)
        # lhs(s) >= s, c2 / (4a) sinh(2as) and s2 / (4b) sinh(2bs): the root
        # lies below each bound, and no sinh up to it exceeds 4 a rho / c2
        return f, xp.min(rho, xp.asinh(xp.ratio(4.0 * a * rho, c2)) / (2.0 * a),
                         xp.asinh(xp.ratio(4.0 * b * rho, s2)) / (2.0 * b))

    def polar_point(self, R, c, s, solve):
        root, sinh = solve(self.radial_relation(R, c, s)), _ops(c).sinh
        return c * sinh(self.a * root) / self.a, s * sinh(self.b * root) / self.b

    def polar_coefficient(self, c, s, root):
        a, b, c2, s2 = self.a, self.b, c ** 2, s ** 2
        w = (s2 * math.sinh(a * root) * math.cosh(b * root) / a
             + c2 * math.cosh(a * root) * math.sinh(b * root) / b)
        return 2.0 * SQRT2 / self.M * w * w

    def shoot_rhs(self, c, s):
        a, b, pre, hypot = self.a, self.b, self.mass_root, math.hypot

        def rhs(y):
            au, bv = a * y[0], b * y[1]
            D = 1.0 + au * au + bv * bv
            if D == math.inf:   # D - 1 = w^2 past the float range
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
        import numpy as np
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

    @staticmethod
    def _check_params(M, k):
        if M is not None:
            raise BadParams("ExceptionalTN has a fixed normalization; drop M")
        chi = 1.0 if k is None else float(k)
        if chi == -1.0:
            raise BadParams(
                "the k = -1 exceptional geometry is the axis swap u <-> v "
                "of the k = +1 one; use k = +1 and relabel")
        if chi != 1.0:
            raise BadParams(f"ExceptionalTN requires k = +1, got k={k}")
        return None, 1.0, {}

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
        return _launch_residual(u, math.log(v), 0.0)

    def unparam_residual(self, c, s, u, v):
        return abs(_asinh_ratio(u, c) - v / s)

    def radial_relation(self, R, c, s):
        xp = _ops(c)
        c2, half = c * c, 0.5 * (1.0 + s * s)
        sinh, cosh, hc2 = xp.sinh, xp.cosh, 0.5 * c2

        def f(sig):
            sh, ch = sinh(sig), cosh(sig)
            return (hc2 * sh * ch + half * sig - R, c2 * ch ** 2 + half - hc2,
                    c2 * sinh(2.0 * sig))
        # both terms of the relation are >= 0: sigma <= R / half, and
        # c2 / 4 sinh(2 sigma) <= R
        return f, xp.min(R / half, 0.5 * xp.asinh(xp.ratio(4.0 * R, c2)))

    def polar_point(self, R, c, s, solve):
        # on the v-axis c = 0 the point is (0, R); the relation is solved there
        # at R = 0 (sigma = 0), as at R itself its sinh overflows past R ~ 700
        xp = _ops(c)
        axis = c == 0.0
        sigma = solve(self.radial_relation(xp.where(axis, 0.0, R), c, s))
        return c * xp.sinh(sigma), xp.where(axis, R, s * sigma)

    def shoot_rhs(self, c, s):
        hypot = math.hypot

        def rhs(y):
            lam = 1.0 + y[0] * y[0]
            if lam == math.inf:   # lam - 1 = u^2 past the float range
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
        import numpy as np
        return np.maximum(R - 0.5 * u * u, 0.0)

    def almost_ball_volume(self, R):
        return math.pi ** 2 / 6.0 * (R ** 4 + 2.0 * R ** 3)


class _HalfPlane(InstantonParams):
    """The half-plane families: no parameters, and (u, v) is the (x, y)
    chart itself."""

    bounds = HALF_PLANE
    eta_range = (-HALF_PI, HALF_PI)

    @classmethod
    def _check_params(cls, M, k):
        if M is not None or k is not None:
            raise BadParams(f"{cls.family.value} takes no parameters")
        return None, None, {}

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
        return (u * u / lam, 2.0 * u * u * v / lam, (lam * lam + 4.0 * u * u * v * v) / lam)

    def polar_point(self, R, c, s, solve):
        u, v = ExceptionalTN.polar_point(self, R, c, abs(s), solve)
        return u, _ops(c).copysign(v, s)

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
    flat = True

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

    def polar_point(self, R, c, s, solve):
        return R * c, R * s

    def shoot_rhs(self, c, s):
        return lambda y: (c, s)

    def ricci_potentials(self, u, v):
        return 1.0 / SQRT2 + 0.0 * u, 1.0 / SQRT2 + 0.0 * u

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
    if not (0.0 < step and 2.0 * step < x < math.inf and math.isfinite(y)):
        raise BadParams(f"need finite x, y and 0 < 2 step < x, got ({x}, {y}), step {step}")

    def residual(i):   # of the moment map phi_i
        def phi(xx: float, yy: float) -> float:
            return params.moment_map(*params.uv_from_xy(xx, yy))[i]
        return x * fd_laplacian(phi, x, y, step=step) - fd_gradient(phi, x, y, step=step)[0]
    return residual(0), residual(1)


def almost_polar_from_uv(params: InstantonParams, u: float, v: float) -> tuple[float, float]:
    """(Rtilde, psi), psi in [0, pi/2]: 0 on the u-axis, pi/2 on the v-axis, and 0 by
    convention at the origin, where Rtilde = 0.  BadParams off the chart domain."""
    params.check_point(u, v)
    rt = params.almost_distance(u, v)
    if rt == 0.0:
        return 0.0, 0.0
    return rt, params.almost_angle(rt, u, v)


def uv_from_almost_polar(params: InstantonParams, rtilde: float, psi: float) -> tuple[float, float]:
    if not (0.0 <= rtilde < math.inf and math.isfinite(psi)):
        raise BadParams(f"need a finite Rtilde >= 0 and a finite psi, got ({rtilde}, {psi})")
    return params.uv_from_almost_polar(rtilde, psi)

