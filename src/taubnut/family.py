"""Instanton families, their parameters and coordinate charts.

Four families share one toric template: a half-plane (or quadrant) factor
carrying a conformal metric, plus a two-torus fiber.  This module owns the
bookkeeping -- parameter validation, the charts, and the transition maps
between them:

* ``xy``    -- half-plane coordinates (x, y), x > 0; x^2 equals the fiber
  determinant, which makes x the natural "axial distance".
* ``uv``    -- quadrant coordinates (u, v) in which the leaf metric is
  conformally flat with the simplest conformal factor.  For the half-plane
  and flat families this chart coincides with ``xy``.
* ``moment``      -- the two torus moment maps (phi1, phi2).
* ``almostpolar`` -- (Rtilde, psi): Rtilde is the closed-form distance
  surrogate used for volume growth, psi an angle along its level sets.

Geodesic polar coordinates also exist but their transition needs a root
solve, so it lives in :mod:`taubnut.geodesics`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

from .numerics import dsqrt, fd_laplacian, fd_gradient

SQRT2 = math.sqrt(2.0)


class BadParams(Exception):
    """Parameter combination outside the family's domain."""


class WrongFamily(Exception):
    """The requested quantity is not defined for this family."""


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


@dataclass(frozen=True)
class ChartPoint:
    chart: Chart
    c1: float
    c2: float


@dataclass(frozen=True)
class InstantonParams:
    """Which instanton, and where in its parameter space.

    GENERALIZED_TN carries a mass M > 0 and a chirality parameter k with
    |k| < 1; the limits k -> +-1 leave the family (their rescaled limits are
    the exceptional geometries, which carry no free parameters at all).
    """

    family: Family = Family.GENERALIZED_TN
    M: float | None = None
    k: float | None = None

    def __post_init__(self):
        fam = self.family
        if fam is Family.GENERALIZED_TN:
            M = SQRT2 if self.M is None else float(self.M)
            k = 0.0 if self.k is None else float(self.k)
            if not (M > 0.0 and math.isfinite(M)):
                raise BadParams(f"mass must be positive and finite, got M={self.M}")
            if abs(k) >= 1.0:
                if abs(k) == 1.0:
                    raise BadParams(
                        "k = +-1 is not a GeneralizedTN member; the degeneration "
                        "is the ExceptionalTN geometry (after rescaling)"
                    )
                raise BadParams(f"chirality must satisfy |k| < 1, got k={self.k}")
            object.__setattr__(self, "M", M)
            object.__setattr__(self, "k", k)
        elif fam is Family.EXCEPTIONAL_TN:
            if self.M is not None:
                raise BadParams("ExceptionalTN has a fixed normalization; drop M")
            k = 1.0 if self.k is None else float(self.k)
            if k == -1.0:
                raise BadParams(
                    "the k = -1 exceptional geometry is the axis swap u <-> v "
                    "of the k = +1 one; use k = +1 and relabel"
                )
            if k != 1.0:
                raise BadParams(f"ExceptionalTN requires k = +1, got k={self.k}")
            object.__setattr__(self, "k", 1.0)
        else:
            if self.M is not None or self.k is not None:
                raise BadParams(f"{fam.value} takes no parameters")

    # -- serialization ----------------------------------------------------

    def as_dict(self) -> dict:
        """The family name, plus M and k for the generalized family."""
        out: dict = {"family": self.family.value}
        if self.family is Family.GENERALIZED_TN:
            out["M"] = self.M
            out["k"] = self.k
        return out

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "InstantonParams":
        raw = json.loads(text)
        fam = Family(raw["family"])
        return cls(family=fam, M=raw.get("M"), k=raw.get("k"))


def require(params: InstantonParams, *families: Family, what: str = "this quantity"):
    if params.family not in families:
        allowed = ", ".join(f.value for f in families)
        raise WrongFamily(f"{what} is defined for {allowed}, not {params.family.value}")


# --------------------------------------------------------------------------
# chart transitions
# --------------------------------------------------------------------------
#
# The quadrant families map to the half plane through y + ix = q(u + iv)^2
# for a constant q, i.e.
#     GENERALIZED_TN : x = sqrt(2) u v / M,  y = (u^2 - v^2) / (sqrt(2) M)
#     EXCEPTIONAL_TN : x = u v / 2,          y = (u^2 - v^2) / 4
# and the half-plane families use (u, v) = (x, y) verbatim.

def xy_from_uv(params: InstantonParams, u, v):
    fam = params.family
    if fam is Family.GENERALIZED_TN:
        return SQRT2 * u * v / params.M, (u * u - v * v) / (SQRT2 * params.M)
    if fam is Family.EXCEPTIONAL_TN:
        return u * v / 2.0, (u * u - v * v) / 4.0
    return u, v


def uv_from_xy(params: InstantonParams, x, y):
    fam = params.family
    if fam in (Family.EXCEPTIONAL_HALF_PLANE, Family.FLAT):
        return x, y
    r = dsqrt(x * x + y * y)
    if fam is Family.GENERALIZED_TN:
        c = params.M / SQRT2
    else:
        c = 2.0
    return dsqrt(c * (r + y)), dsqrt(c * (r - y))


# --------------------------------------------------------------------------
# moment maps
# --------------------------------------------------------------------------

def moment_map(params: InstantonParams, u, v):
    """Moment maps (phi1, phi2) of the two torus circles, as functions of the
    family's own (u, v) chart.  Accepts Dual arguments, so exact gradients are
    available through :func:`taubnut.numerics.dual_partials`."""
    fam = params.family
    if fam is Family.GENERALIZED_TN:
        k, M = params.k, params.M
        return (
            v * v * (1.0 + (1.0 + k) * u * u) / M,
            u * u * (1.0 + (1.0 - k) * v * v) / M,
        )
    if fam is Family.EXCEPTIONAL_TN:
        a = 2.0 * SQRT2
        return v * v * (1.0 + u * u) / a, u * u / a
    if fam is Family.EXCEPTIONAL_HALF_PLANE:
        x, y = u, v
        return x * x / 2.0, y * (1.0 + x * x)
    x, y = u, v
    return x * x / 2.0, y


def uv_from_moment(params: InstantonParams, phi1: float, phi2: float):
    """Invert the moment map on the open quadrant / half plane.

    All but the generalized family invert in closed form.  The generalized
    case interleaves the two explicit solve-for-one-variable formulas, which
    is a contraction on the quadrant; a few dozen sweeps reach roundoff.
    """
    fam = params.family
    if fam is Family.FLAT:
        if phi1 < 0.0:
            raise BadParams(f"phi1 = {phi1} outside the moment image")
        return math.sqrt(2.0 * phi1), phi2
    if fam is Family.EXCEPTIONAL_HALF_PLANE:
        if phi1 < 0.0:
            raise BadParams(f"phi1 = {phi1} outside the moment image")
        x = math.sqrt(2.0 * phi1)
        return x, phi2 / (1.0 + x * x)
    if phi1 < 0.0 or phi2 < 0.0:
        raise BadParams(f"({phi1}, {phi2}) outside the moment image (first quadrant)")
    if fam is Family.EXCEPTIONAL_TN:
        a = 2.0 * SQRT2
        u = math.sqrt(a * phi2)
        v = math.sqrt(a * phi1 / (1.0 + u * u))
        return u, v
    k, M = params.k, params.M
    uu, vv = M * phi2, M * phi1  # leading-order seed
    for _ in range(400):
        uu_next = M * phi2 / (1.0 + (1.0 - k) * vv)
        vv_next = M * phi1 / (1.0 + (1.0 + k) * uu_next)
        if abs(uu_next - uu) + abs(vv_next - vv) <= 1e-16 * (1.0 + uu + vv):
            uu, vv = uu_next, vv_next
            break
        uu, vv = uu_next, vv_next
    return math.sqrt(uu), math.sqrt(vv)


def moment_pde_residual(params: InstantonParams, x: float, y: float,
                        *, step: float = 1e-3) -> tuple[float, float]:
    """Residual of the axial harmonicity equation x * (Laplacian phi) = d(phi)/dx
    for both moment maps, evaluated in the (x, y) chart with O(step^2)
    central differences.  Both components -> 0 as step -> 0 at interior points."""
    if x <= 2.0 * step:
        raise BadParams(f"x = {x} too close to the axis for step {step}")

    def phi_pair(xx: float, yy: float) -> tuple[float, float]:
        u, v = uv_from_xy(params, xx, yy)
        return moment_map(params, u, v)

    bounds = ((0.0, math.inf), (-math.inf, math.inf))
    out = []
    for i in (0, 1):
        f = lambda xx, yy: phi_pair(xx, yy)[i]
        lap = fd_laplacian(f, x, y, step=step, bounds=bounds)
        dx, _ = fd_gradient(f, x, y, step=step, bounds=bounds)
        out.append(x * lap - dx)
    return out[0], out[1]


# --------------------------------------------------------------------------
# almost-polar chart
# --------------------------------------------------------------------------

def almost_distance(params: InstantonParams, u: float, v: float) -> float:
    """The closed-form distance surrogate Rtilde whose level sets are easy to
    integrate over.  Defined for the two Taub-NUT-like families.

    The coefficients sqrt(1+k), sqrt(1-k) are forced by requiring Rtilde to
    be constant on the almost-spheres (the loci swept by uv_from_almost_polar
    at fixed Rtilde) and by |Rtilde/R - 1| -> 0 along every geodesic; with
    squared coefficients the ratio would tend to sqrt(1+-k) on the axes.
    """
    require(params, Family.GENERALIZED_TN, Family.EXCEPTIONAL_TN,
            what="the distance surrogate")
    if params.family is Family.GENERALIZED_TN:
        k, M = params.k, params.M
        return ((math.sqrt(1.0 + k) * u * u + math.sqrt(1.0 - k) * v * v)
                / math.sqrt(SQRT2 * M))
    return u * u / 2.0 + v


def almost_polar_from_uv(params: InstantonParams, u: float, v: float) -> tuple[float, float]:
    """(Rtilde, psi) with psi in [0, pi/2]: psi = 0 on the u-axis, pi/2 on the
    v-axis.  At the origin Rtilde = 0 and psi is fixed to 0 by convention."""
    rt = almost_distance(params, u, v)
    if rt == 0.0:
        return 0.0, 0.0
    if params.family is Family.GENERALIZED_TN:
        a0, b0 = _gen_almost_axes(params)
        return rt, math.atan2(v / b0, u / a0)
    # exceptional: u = sqrt(2 Rtilde) cos(psi), v = Rtilde sin(psi)^2
    s = min(1.0, math.sqrt(v / rt))
    return rt, math.asin(s)


def uv_from_almost_polar(params: InstantonParams, rtilde: float, psi: float) -> tuple[float, float]:
    require(params, Family.GENERALIZED_TN, Family.EXCEPTIONAL_TN,
            what="the distance surrogate")
    if rtilde < 0.0:
        raise BadParams(f"Rtilde must be >= 0, got {rtilde}")
    if params.family is Family.GENERALIZED_TN:
        a0, b0 = _gen_almost_axes(params)
        s = math.sqrt(rtilde)
        return a0 * s * math.cos(psi), b0 * s * math.sin(psi)
    return math.sqrt(2.0 * rtilde) * math.cos(psi), rtilde * math.sin(psi) ** 2


def _gen_almost_axes(params: InstantonParams) -> tuple[float, float]:
    scale = (SQRT2 * params.M) ** 0.25
    return (scale / (1.0 + params.k) ** 0.25,
            scale / (1.0 - params.k) ** 0.25)


# --------------------------------------------------------------------------
# generic chart dispatch (polar handled in taubnut.geodesics)
# --------------------------------------------------------------------------

def uv_from_chart(params: InstantonParams, chart: Chart, c1: float, c2: float) -> tuple[float, float]:
    """Send a point of any closed-form chart to the family's (u, v) chart."""
    if chart is Chart.UV:
        return c1, c2
    if chart is Chart.XY:
        return uv_from_xy(params, c1, c2)
    if chart is Chart.MOMENT:
        return uv_from_moment(params, c1, c2)
    if chart is Chart.ALMOST_POLAR:
        return uv_from_almost_polar(params, c1, c2)
    raise ValueError("geodesic polar transitions need a root solve; "
                     "use taubnut.geodesics.point_from_polar")


def chart_from_uv(params: InstantonParams, chart: Chart, u: float, v: float) -> tuple[float, float]:
    """Send a (u, v) point to any closed-form chart."""
    if chart is Chart.UV:
        return u, v
    if chart is Chart.XY:
        return xy_from_uv(params, u, v)
    if chart is Chart.MOMENT:
        return moment_map(params, u, v)
    if chart is Chart.ALMOST_POLAR:
        return almost_polar_from_uv(params, u, v)
    raise ValueError("geodesic polar transitions need a root solve; "
                     "use taubnut.geodesics.polar_from_point")
