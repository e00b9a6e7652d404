"""Shared numerical machinery: root finding, quadrature, ODE driving, finite
differences and log-log fits.

Everything here is geometry-agnostic.  The rest of the package layers the
metric-specific formulas on top of these routines, so the tolerances and
failure modes of each helper are spelled out in its docstring.

scipy is imported inside the quadrature and ODE routines, on their first
call, not when this module loads: the closed-form charts, root solves and
finite differences need only numpy, so commands such as ``eval``,
``contour``, ``volume`` and ``blowdown`` start without paying for it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class NoBracket(Exception):
    """The supplied interval does not bracket a sign change."""


class MaxIterExceeded(Exception):
    """Iteration budget exhausted before reaching the requested tolerance."""


class SlowDecay(Exception):
    """Integrand decays too slowly (or not at all) for the truncation bound."""


class StepUnderflow(Exception):
    """The ODE integrator stalled; the step size collapsed before t_end."""


class BoundaryTooClose(Exception):
    """A finite-difference stencil would poke outside the declared domain."""


class InsufficientSamples(Exception):
    """Not enough (or degenerate) data points for the requested fit."""


# --------------------------------------------------------------------------
# root finding
# --------------------------------------------------------------------------

def find_root_monotone(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    fprime: Callable[[float], float] | None = None,
    fprime2: Callable[[float], float] | None = None,
    x0: float | None = None,
    abs_tol: float = 1e-13,
    rel_tol: float = 4e-16,
) -> float:
    """Solve f(x) = 0 on [lo, hi] where f changes sign exactly once.

    Newton (or Halley, when ``fprime2`` is supplied) steps are taken whenever
    they stay inside the current bracket; otherwise the step degenerates to
    bisection, so convergence is guaranteed for any continuous f with a sign
    change.  ``x0`` seeds the iteration (useful when an asymptotic
    approximation is available).

    Raises NoBracket if f(lo) and f(hi) have the same strict sign, and
    MaxIterExceeded if the bracket fails to shrink below
    ``abs_tol + rel_tol * |x|`` within 200 evaluations.
    """
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise NoBracket(f"f({lo}) = {flo} and f({hi}) = {fhi} have the same sign")

    a, b, fa = lo, hi, flo
    x = x0 if x0 is not None and lo < x0 < hi else 0.5 * (lo + hi)
    x_prev, f_prev = a, fa

    for _ in range(200):
        fx = f(x)
        if fx == 0.0:
            return x
        if math.copysign(1.0, fx) == math.copysign(1.0, fa):
            a, fa = x, fx
        else:
            b = x
        if b - a <= abs_tol + rel_tol * max(abs(a), abs(b)):
            return 0.5 * (a + b)

        step = None
        if fprime is not None:
            d = fprime(x)
            if d != 0.0 and math.isfinite(d):
                step = fx / d
                if fprime2 is not None:
                    d2 = fprime2(x)
                    denom = 1.0 - 0.5 * step * d2 / d
                    # Halley correction, only when it is well behaved.
                    if math.isfinite(denom) and abs(denom) > 0.25:
                        step = step / denom
        if step is None and f_prev != fx:
            step = fx * (x - x_prev) / (fx - f_prev)  # secant fallback

        x_prev, f_prev = x, fx
        if step is not None:
            cand = x - step
            if a < cand < b:
                x = cand
                continue
        x = 0.5 * (a + b)

    raise MaxIterExceeded(
        f"no convergence after 200 iterations; bracket [{a}, {b}]"
    )


# --------------------------------------------------------------------------
# quadrature
# --------------------------------------------------------------------------

@dataclass
class QuadratureResult:
    value: float
    error: float              # quadrature error estimate plus tail bound
    tail_bound: float         # analytic bound on the discarded tail
    truncation_radius: float  # integration was carried out on [0, T]^2
    evaluations: int


def integrate_2d_improper(
    f: Callable[[float, float], float],
    *,
    decay_exponent: float,
    abs_tol: float = 1e-10,
    rel_tol: float = 1e-8,
) -> QuadratureResult:
    """Integrate f over the open first quadrant when f decays like a power.

    ``decay_exponent`` is a promise that ``|f(u, v)| <= A * (1 + u^2 + v^2)^(-p)``
    far out, with p = decay_exponent > 1.  The amplitude A is measured on
    sampled arcs, which gives the analytic tail bound

        tail(T) <= A * (pi/4) * (1 + T^2)^(1 - p) / (p - 1)

    (integrate the envelope in polar coordinates over rho > T).  The
    truncation radius T is grown from 8 until the bound fits inside the
    requested tolerance, then scipy's adaptive quadrature handles [0, T]^2.

    Raises SlowDecay when p <= 1, when the sampled arcs show the integrand
    shrinking slower than promised, or when T would pass 1e7.
    """
    from scipy import integrate as _sciint

    p = float(decay_exponent)
    if p <= 1.0:
        raise SlowDecay(f"decay exponent {p} <= 1: the quadrant integral need not converge")

    nfev = 0

    def counted(v: float, u: float) -> float:  # dblquad passes (inner, outer)
        nonlocal nfev
        nfev += 1
        return f(u, v)

    def arc_amplitude(radius: float) -> float:
        angles = np.linspace(1e-3, math.pi / 2 - 1e-3, 33)
        amp = 0.0
        for t in angles:
            u, v = radius * math.cos(t), radius * math.sin(t)
            amp = max(amp, abs(f(u, v)) * (1.0 + u * u + v * v) ** p)
        return amp

    def tail_bound_at(radius: float) -> float:
        # Envelope amplitude measured on two arcs, with a decay sanity check.
        amp_1 = arc_amplitude(radius)
        amp_2 = arc_amplitude(2.0 * radius)
        pred = ((1.0 + 4.0 * radius ** 2) / (1.0 + radius ** 2)) ** (-p)
        raw_1 = amp_1 * (1.0 + radius ** 2) ** (-p)
        raw_2 = amp_2 * (1.0 + 4.0 * radius ** 2) ** (-p)
        # The promised envelope predicts the raw arc maximum to fall by
        # pred; allow a factor-4 slack before objecting.
        if raw_1 > 0.0 and raw_2 > 4.0 * pred * raw_1:
            raise SlowDecay(
                f"integrand fell only {raw_2 / raw_1:.3g}x between radii {radius} and "
                f"{2 * radius}; promised envelope predicts {pred:.3g}x"
            )
        return max(amp_1, amp_2) * (math.pi / 4.0) * (1.0 + radius ** 2) ** (1.0 - p) / (p - 1.0)

    def box(u0, u1, v0, v1, eab, erl):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", _sciint.IntegrationWarning)
            val, err = _sciint.dblquad(counted, u0, u1, v0, v1, epsabs=eab, epsrel=erl)
        return val, err

    T0 = 8.0
    rough, _ = box(0.0, T0, 0.0, T0, 1e-6, 1e-6)
    budget = abs_tol + rel_tol * (abs(rough) + tail_bound_at(T0))

    T = T0
    tail = tail_bound_at(T)
    while tail > 0.25 * budget:
        T *= 2.0
        if T > 1e7:
            raise SlowDecay(
                f"tail bound {tail:.3g} still exceeds budget {budget:.3g} at radius {T / 2:.3g}"
            )
        tail = tail_bound_at(T)

    # Accurate pass over [0, T]^2, split into dyadic L-shells so each call to
    # the adaptive routine works on a well-scaled box.
    edges = [0.0, min(T0, T)]
    while edges[-1] < T:
        edges.append(min(2.0 * edges[-1], T))
    n_pieces = 2 * len(edges) - 1
    eab = 0.5 * budget / n_pieces
    erl = 0.1 * rel_tol

    value, quad_err = box(0.0, edges[1], 0.0, edges[1], eab, erl)
    for lo, hi in zip(edges[1:], edges[2:]):
        v1, e1 = box(lo, hi, 0.0, hi, eab, erl)       # right slab
        v2, e2 = box(0.0, lo, lo, hi, eab, erl)       # top slab
        value += v1 + v2
        quad_err += e1 + e2

    return QuadratureResult(
        value=value,
        error=quad_err + tail,
        tail_bound=tail,
        truncation_radius=T,
        evaluations=nfev,
    )


def integrate_2d_region(
    f: Callable[[float, float], float],
    u_max: float,
    v_max_of_u: Callable[[float], float],
) -> QuadratureResult:
    """Integrate f over {0 < u < u_max, 0 < v < v_max_of_u(u)} by nested
    adaptive quadrature to 1e-11 absolute or 1e-10 relative.  Suited to the
    bounded sublevel-set regions used for volume comparisons; no tail
    estimate is involved."""
    from scipy import integrate as _sciint

    abs_tol, rel_tol = 1e-11, 1e-10
    nfev = 0

    def inner(u: float) -> float:
        nonlocal nfev
        top = v_max_of_u(u)
        if top <= 0.0:
            return 0.0
        val, _ = _sciint.quad(
            lambda v: f(u, v), 0.0, top, epsabs=abs_tol, epsrel=rel_tol, limit=200
        )
        nfev += 1
        return val

    value, err = _sciint.quad(inner, 0.0, u_max, epsabs=abs_tol, epsrel=rel_tol, limit=200)
    return QuadratureResult(value=value, error=err, tail_bound=0.0,
                            truncation_radius=u_max, evaluations=nfev)


# --------------------------------------------------------------------------
# ODE driving
# --------------------------------------------------------------------------

@dataclass
class OdeResult:
    ts: np.ndarray
    ys: np.ndarray   # shape (len(ts), dim)
    nfev: int


def ode_solve(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    t_span: tuple[float, float],
    y0: Sequence[float],
    *,
    rel_tol: float = 1e-12,
    abs_tol: float = 1e-12,
    t_eval: Sequence[float] | None = None,
) -> OdeResult:
    """High-order nonstiff integration (explicit Runge-Kutta 8(5,3)).

    Raises StepUnderflow if the integrator gives up before reaching t_end,
    which in this package invariably means the trajectory ran into a
    coordinate degeneracy rather than a genuinely stiff problem.
    """
    from scipy import integrate as _sciint

    sol = _sciint.solve_ivp(
        rhs,
        t_span,
        np.asarray(y0, dtype=float),
        method="DOP853",
        rtol=rel_tol,
        atol=abs_tol,
        t_eval=None if t_eval is None else np.asarray(t_eval, dtype=float),
    )
    if not sol.success:
        raise StepUnderflow(f"integrator stopped at t = {sol.t[-1]!r}: {sol.message}")
    return OdeResult(ts=sol.t, ys=sol.y.T, nfev=sol.nfev)


# --------------------------------------------------------------------------
# finite differences
# --------------------------------------------------------------------------

def check_stencil(x: float, y: float, step: float,
                   bounds: tuple[tuple[float, float], tuple[float, float]]) -> None:
    """BoundaryTooClose unless [x - step, x + step] x [y - step, y + step]
    lies strictly inside bounds = ((x_lo, x_hi), (y_lo, y_hi))."""
    (x_lo, x_hi), (y_lo, y_hi) = bounds
    if not (x_lo < x - step and x + step < x_hi and y_lo < y - step and y + step < y_hi):
        raise BoundaryTooClose(
            f"stencil of half-width {step} at ({x}, {y}) leaves the domain "
            f"x in ({x_lo}, {x_hi}), y in ({y_lo}, {y_hi})"
        )


def fd_laplacian(
    f: Callable[[float, float], float],
    x: float,
    y: float,
    *,
    step: float = 1e-4,
    bounds: tuple[tuple[float, float], tuple[float, float]] = (
        (0.0, math.inf), (0.0, math.inf)),
) -> float:
    """Five-point O(step^2) Laplacian of a scalar field.

    The default bounds guard the open first quadrant; pass looser bounds for
    fields defined on a half plane.  Raises BoundaryTooClose when the stencil
    would cross the declared domain edge.
    """
    check_stencil(x, y, step, bounds)
    h2 = step * step
    return (
        f(x + step, y) + f(x - step, y) + f(x, y + step) + f(x, y - step)
        - 4.0 * f(x, y)
    ) / h2


def fd_conformal_curvature(lam: Callable[[float, float], float], x: float, y: float,
                           *, step: float) -> float:
    """Gauss curvature K = -Lap(log lam)/(2 lam) of lam (dx^2 + dy^2) by the
    five-point Laplacian, O(step^2); callers keep the stencil where lam > 0."""
    lap = fd_laplacian(lambda a, b: math.log(lam(a, b)), x, y, step=step,
                       bounds=((-math.inf, math.inf), (-math.inf, math.inf)))
    return -lap / (2.0 * lam(x, y))


def fd_gradient(
    f: Callable[[float, float], float],
    x: float,
    y: float,
    *,
    step: float = 1e-6,
    bounds: tuple[tuple[float, float], tuple[float, float]] = (
        (0.0, math.inf), (0.0, math.inf)),
) -> tuple[float, float]:
    """Central-difference gradient, O(step^2)."""
    check_stencil(x, y, step, bounds)
    gx = (f(x + step, y) - f(x - step, y)) / (2.0 * step)
    gy = (f(x, y + step) - f(x, y - step)) / (2.0 * step)
    return gx, gy


def fd_jacobian2(
    fpair: Callable[[float, float], tuple[float, float]],
    x: float,
    y: float,
    *,
    step: float = 1e-6,
    bounds: tuple[tuple[float, float], tuple[float, float]] = (
        (0.0, math.inf), (0.0, math.inf)),
) -> np.ndarray:
    """2x2 Jacobian of a pair of scalar fields by central differences."""
    check_stencil(x, y, step, bounds)
    fxp = fpair(x + step, y)
    fxm = fpair(x - step, y)
    fyp = fpair(x, y + step)
    fym = fpair(x, y - step)
    return np.array([
        [(fxp[0] - fxm[0]) / (2 * step), (fyp[0] - fym[0]) / (2 * step)],
        [(fxp[1] - fxm[1]) / (2 * step), (fyp[1] - fym[1]) / (2 * step)],
    ])


def fd_curvature(
    metric_derivs: Callable[[float, float], tuple[np.ndarray, np.ndarray, np.ndarray]],
    u: float,
    v: float,
    *,
    step: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Riemann and Ricci tensors of an n-metric that depends on its first two
    coordinates (u, v) only, from ``metric_derivs(a, b) = (g, dg/du, dg/dv)``.

    The Christoffel symbols are differentiated by central differences:
    O(step^2) on top of the error of the metric derivatives.  Returns
    (g, g^-1, riem, ric) at (u, v), riem[l, k, i, j] = R^l_{kij}.
    """
    def christoffel(a, b):
        g, gu, gv = metric_derivs(a, b)
        ginv = np.linalg.inv(g)
        dg = np.zeros((len(g),) * 3)    # dg[m, i, j] = d_m g_ij; zero for m >= 2
        dg[0] = gu
        dg[1] = gv
        # Gamma^l_{ij} = (1/2) g^{lm} (d_i g_mj + d_j g_mi - d_m g_ij)
        term = np.einsum('imj->mij', dg) + np.einsum('jmi->mij', dg) - dg
        return 0.5 * np.einsum('lm,mij->lij', ginv, term), g, ginv

    gam0, g, ginv = christoffel(u, v)
    dgam = np.zeros((len(g),) * 4)      # dgam[m, l, i, j] = d_m Gamma^l_ij
    dgam[0] = (christoffel(u + step, v)[0] - christoffel(u - step, v)[0]) / (2 * step)
    dgam[1] = (christoffel(u, v + step)[0] - christoffel(u, v - step)[0]) / (2 * step)

    # R^l_{kij} = d_i Gamma^l_jk - d_j Gamma^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik
    riem = (np.einsum('iljk->lkij', dgam) - np.einsum('jlik->lkij', dgam)
            + np.einsum('lim,mjk->lkij', gam0, gam0)
            - np.einsum('ljm,mik->lkij', gam0, gam0))
    ric = np.einsum('lkli->ki', riem)
    return g, ginv, riem, ric


# --------------------------------------------------------------------------
# power-law fitting
# --------------------------------------------------------------------------

@dataclass
class PowerLawFit:
    exponent: float
    prefactor: float
    r_squared: float


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Least-squares fit of y = C * x^m through log-log linear regression.

    Requires at least three strictly positive samples with distinct x values;
    raises InsufficientSamples otherwise.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 3 or ys.size != xs.size:
        raise InsufficientSamples(f"need >= 3 paired samples, got {xs.size}")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise InsufficientSamples("power-law fit needs strictly positive data")
    lx, ly = np.log(xs), np.log(ys)
    if np.ptp(lx) == 0.0:
        raise InsufficientSamples("all x values coincide")
    (m, c), res = np.polyfit(lx, ly, 1, full=True)[:2]
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    ss_res = float(res[0]) if res.size else 0.0
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(exponent=float(m), prefactor=float(math.exp(c)), r_squared=r2)


# --------------------------------------------------------------------------
# forward-mode duals
# --------------------------------------------------------------------------

class Dual:
    """Minimal forward-mode dual number: value plus one directional derivative.

    The closed-form metric kernels in this package are built from +, -, *, /,
    powers and sqrt, so evaluating them on Dual inputs yields derivatives that
    are exact to roundoff -- no truncation error, no step-size tuning.  Used
    wherever an "analytic first derivative" is called for.
    """

    __slots__ = ("val", "dot")

    def __init__(self, val: float, dot: float = 0.0):
        self.val = float(val)
        self.dot = float(dot)

    def __add__(self, o):
        o = _as_dual(o)
        return Dual(self.val + o.val, self.dot + o.dot)

    __radd__ = __add__

    def __sub__(self, o):
        o = _as_dual(o)
        return Dual(self.val - o.val, self.dot - o.dot)

    def __rsub__(self, o):
        o = _as_dual(o)
        return Dual(o.val - self.val, o.dot - self.dot)

    def __mul__(self, o):
        o = _as_dual(o)
        return Dual(self.val * o.val, self.dot * o.val + self.val * o.dot)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = _as_dual(o)
        return Dual(self.val / o.val,
                    (self.dot * o.val - self.val * o.dot) / (o.val * o.val))

    def __rtruediv__(self, o):
        return _as_dual(o).__truediv__(self)

    def __pow__(self, n):
        if isinstance(n, Dual):
            raise TypeError("dual exponents are not needed here")
        return Dual(self.val ** n, n * self.val ** (n - 1) * self.dot)

    def __neg__(self):
        return Dual(-self.val, -self.dot)

    def sqrt(self):
        r = math.sqrt(self.val)
        return Dual(r, 0.5 * self.dot / r)

    def __repr__(self):
        return f"Dual({self.val!r}, {self.dot!r})"


def _as_dual(x) -> Dual:
    return x if isinstance(x, Dual) else Dual(float(x))


def dsqrt(x):
    """sqrt that works for floats and Duals alike."""
    return x.sqrt() if isinstance(x, Dual) else math.sqrt(x)


def dual_partials(fn: Callable[..., object], u: float, v: float) -> tuple[float, float, float]:
    """Evaluate fn(u, v) built from Dual-compatible arithmetic; return
    (value, d/du, d/dv) with derivatives exact to roundoff."""
    fu = fn(Dual(u, 1.0), Dual(v, 0.0))
    fv = fn(Dual(u, 0.0), Dual(v, 1.0))
    fu = _as_dual(fu)
    fv = _as_dual(fv)
    return fu.val, fu.dot, fv.dot
