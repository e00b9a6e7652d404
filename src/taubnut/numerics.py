"""Shared numerical machinery: root finding, quadrature, ODE driving, finite
differences, complex-step derivatives and log-log fits.

Everything here is geometry-agnostic.  The rest of the package layers the
metric-specific formulas on top of these routines, so the tolerances and
failure modes of each helper are spelled out in its docstring.  The root
solve takes one residual callable that returns the value with its
derivatives; the finite-difference stencils take no domain, which the
caller that knows it checks once with check_stencil.

Exact first derivatives come from complex steps (Squire & Trapp, SIAM
Review 40, 1998): for an analytic f, f(x + ih) = f(x) + i h f'(x) + O(h^2).
With h = COMPLEX_STEP = 2^-600, whose square underflows, Im f(x + ih) / h
is f'(x) to roundoff, with no truncation error and no cancellation, and
for f built from +, -, * and / the real part is f(x) bit for bit (float
``**`` calls pow() where complex ``**`` multiplies, so a kernel that
must match bit for bit writes p * p).  A kernel on this path takes
complex u, v without abs(), comparisons or math.* on them: abs() would
silently give a wrong derivative and the others raise TypeError.  numpy
ufuncs such as np.sin take complex arguments.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import dop853


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

def find_root_monotone(f: Callable[[float], tuple[float, float, float | None]],
                       lo: float, hi: float, *, x0: float, abs_tol: float) -> float:
    """Solve f = 0 on [lo, hi] for f <= 0 below its one root and >= 0 above.

    ``f(x)`` returns (value, slope, curvature or None): one call per iterate
    gives f, f' and, where the caller has it, f'', so the residual computes
    the terms they share once (Numerical Recipes' ``rtsafe`` hands f and f'
    back from one function).  Newton steps, or Halley steps where a
    curvature is given, from ``x0`` (clamped to [lo, hi]) are taken whenever
    they stay inside the current bracket and the step or |f| is at most half
    its size at the Newton step before the last (``rtsafe`` halves the step;
    |f| counts too where only the slope changes fast), and bisections
    otherwise, as at subnormal inputs, where a residual left a few bits can
    make equal steps.  f is evaluated at an end only when a bisection needs its sign.

    The solve stops at the first of: a zero of f; a Newton or Halley step no
    longer than abs_tol + 4e-16 |x| at the iterate x, whose result (kept in
    the bracket) is returned without evaluating f there (as ``rtsafe``
    does: a converged Newton iteration cannot shrink the far side of the
    bracket); a bracket [a, b] with b - a <= abs_tol + 4e-16 max(|a|, |b|).

    Raises NoBracket if f(lo) > 0 or f(hi) < 0, and MaxIterExceeded if no
    stop fires within 200 iterations.
    """
    a, b = lo, hi
    fa = fb = None   # f at a and b; None while that end is unevaluated
    dx1 = dx2 = f1 = f2 = math.inf   # |step| and |f| at the last two Newton steps
    x = lo if lo > x0 else x0   # min(max(x0, lo), hi), NaN alike, without two builtin calls
    x = hi if hi < x else x

    for _ in range(200):
        fx, d, d2 = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0 and x == lo) or (fx < 0.0 and x == hi):
            raise NoBracket(f"f({x}) = {fx}: f is not <= 0 at {lo} and >= 0 at {hi}")
        if fx < 0.0:
            a, fa = x, fx
        else:
            b, fb = x, fx

        step = None
        if d != 0.0 and math.isfinite(d):
            step = fx / d
            if d2 is not None:
                denom = 1.0 - 0.5 * step * d2 / d
                # Halley correction, only when it is well behaved.
                if math.isfinite(denom) and abs(denom) > 0.25:
                    step = step / denom
            size = abs(step)
            if size <= abs_tol + 4e-16 * abs(x):
                x = a if a > x - step else x - step   # min(max(x - step, a), b)
                return b if b < x else x

        if step is not None and a < x - step < b and (size <= 0.5 * dx2 or abs(fx) <= 0.5 * f2):
            x, dx1, dx2, f1, f2 = x - step, size, dx1, abs(fx), f1
        elif fa is None or fb is None:   # bisecting needs the sign at both ends
            x = lo if fa is None else hi
        elif b - a <= abs_tol + 4e-16 * max(abs(a), abs(b)):
            return 0.5 * (a + b)
        else:
            x = 0.5 * (a + b)

    raise MaxIterExceeded(f"no convergence after 200 iterations; bracket [{a}, {b}]")


def find_roots_monotone(f, lo, hi, *, x0, abs_tol) -> np.ndarray:
    """find_root_monotone on arrays: element i solves f = 0 on [lo[i], hi[i]]
    from x0[i] to abs_tol[i] by the same steps, stops and float arithmetic.
    ``f(x)`` maps the array of iterates to arrays (value, slope, curvature or
    None); a stopped element is evaluated again at its last iterate.

    Returns the roots; the root of an element for which the scalar solve
    raises NoBracket is NaN.  Raises MaxIterExceeded if an element has not
    stopped within 200 iterations.
    """
    shape = np.broadcast(lo, hi, x0, abs_tol).shape
    a, b = lo, hi
    has_a = has_b = np.zeros(shape, dtype=bool)   # f known at a, at b (see below)
    x = np.minimum(np.maximum(x0, lo), hi, out=np.empty(shape))
    roots, active, at_end = np.full(shape, np.nan), ~has_a, (x == lo) | (x == hi)
    dx1 = dx2 = f1 = f2 = np.full(shape, np.inf)

    for _ in range(200):
        fx, d, d2 = f(x)
        with np.errstate(all="ignore"):   # inf and nan pass as in float arithmetic
            neg = fx < 0.0
            a, b = np.where(neg, x, a), np.where(neg, b, x)
            step = np.where((d != 0.0) & np.isfinite(d), fx / d, np.nan)   # nan: no Newton step
            if d2 is not None:
                denom = 1.0 - 0.5 * step * d2 / d
                step = np.where(np.isfinite(denom) & (np.abs(denom) > 0.25), step / denom, step)
            size, f_size = np.abs(step), np.abs(fx)
            converged = size <= abs_tol + 4e-16 * np.abs(x)
            stepped = x - step
            inside = (a < stepped) & (stepped < b) & ((size <= 0.5 * dx2) | (f_size <= 0.5 * f2))
            dx1, dx2 = np.where(inside, size, dx1), np.where(inside, dx1, dx2)
            f1, f2 = np.where(inside, f_size, f1), np.where(inside, f1, f2)
            root = np.minimum(np.maximum(stepped, a), b)
            done = found = converged
            # most iterations step each active element inside its bracket or stop it on
            # its step (f = 0 steps by 0), none at an end, where alone f's sign can miss
            # the bracket; the others update has_a, has_b (a, b off lo, hi were known)
            if (active & (at_end | ~(inside | converged))).any():
                has_a, has_b = has_a | neg | (a != lo), has_b | ~neg | (b != hi)
                zero = fx == 0.0
                missed = ((fx > 0.0) & (x == lo)) | (neg & (x == hi))
                narrow = (~inside & has_a & has_b
                          & (b - a <= abs_tol + 4e-16 * np.maximum(np.abs(a), np.abs(b))))
                done = zero | missed | converged | narrow   # in the scalar solve's order of stops
                found = done & ~missed
                root = np.where(zero, x, np.where(converged, root, 0.5 * (a + b)))
                stepped = np.where(inside, stepped, np.where(
                    has_a & has_b, 0.5 * (a + b), np.where(has_a, hi, lo)))
                at_end = (stepped == lo) | (stepped == hi)
        roots = np.where(active & found, root, roots)
        active = active & ~done
        x = np.where(active, stepped, x)
        if not active.any():
            return roots

    raise MaxIterExceeded(f"no convergence after 200 iterations at {np.count_nonzero(active)} "
                          f"of {active.size} elements")


# --------------------------------------------------------------------------
# quadrature
# --------------------------------------------------------------------------
#
# Both integrators take f(u, v) on numpy arrays: they call it once per round
# on whole grids of nodes, and f must broadcast its two arguments and return
# an array of their broadcast shape (every density in the package does).

@dataclass
class QuadratureResult:
    value: float
    error: float              # quadrature error estimate plus tail bound
    tail_bound: float         # analytic bound on the discarded tail
    truncation_radius: float  # integration was carried out on [0, T]^2
    evaluations: int          # integrand points evaluated, arc probes included


GAUSS_ORDER = 10   # nodes per axis of the tensor rule on each box
MAX_BOXES = 1024   # open boxes per round; past it every box closes
_EPS = float(np.finfo(float).eps)
_gauss_rules: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1],
    cached per order; made on first use, so that commands which never
    integrate skip the 10 ms import of numpy.polynomial."""
    rule = _gauss_rules.get(n)
    if rule is None:
        rule = _gauss_rules[n] = np.polynomial.legendre.leggauss(n)
    return rule


def _tensor_rule(f, boxes: np.ndarray) -> np.ndarray:
    """The n x n tensor Gauss rule of f over each row (u0, u1, v0, v1)."""
    x, w = _gauss_legendre(GAUSS_ORDER)
    hu = 0.5 * (boxes[:, 1] - boxes[:, 0])
    hv = 0.5 * (boxes[:, 3] - boxes[:, 2])
    u = (0.5 * (boxes[:, 0] + boxes[:, 1]) + hu * x[:, None]).T
    v = (0.5 * (boxes[:, 2] + boxes[:, 3]) + hv * x[:, None]).T
    vals = np.broadcast_to(f(u[:, :, None], v[:, None, :]),
                           (len(boxes), GAUSS_ORDER, GAUSS_ORDER))
    return hu * hv * np.einsum("bij,i,j->b", vals, w, w)


def _adaptive_boxes(f, boxes, abs_tol: float, rel_tol: float = 0.0):
    """Integrate f over the union of boxes (u0, u1, v0, v1) by the adaptive
    tensor Gauss rule; returns (value, error, evaluations).

    Each round splits every open box into quarters: an n-point rule per axis
    against the composite 2n-point one.  The error of a box is
    |rule(box) - sum of rule(quarters)| plus 50 ulp of that sum for its
    roundoff: the error of the coarser rule, so it overstates that of the
    quarters' sum, which is what a closed box adds to the value.  A box
    closes once its error is within its share of the tolerance
    max(abs_tol, rel_tol * |value so far|): 1 / len(boxes) for each starting
    box, a quarter of its parent's share for a quarter.  A NaN closes its
    box too, so it shows in the value instead of splitting on.  Past
    MAX_BOXES open boxes (a singular integrand) every box closes, and an
    unresolved one adds its whole |value| to the error.
    """
    boxes = np.asarray(boxes, dtype=float)
    share = np.full(len(boxes), 1.0 / len(boxes))
    whole = _tensor_rule(f, boxes)
    evaluations = len(boxes) * GAUSS_ORDER ** 2
    value = error = 0.0
    while len(boxes):
        u0, u1, v0, v1 = boxes.T
        um, vm = 0.5 * (u0 + u1), 0.5 * (v0 + v1)
        quarters = np.stack([np.stack(q, axis=1) for q in (
            (u0, um, v0, vm), (um, u1, v0, vm), (u0, um, vm, v1), (um, u1, vm, v1))],
            axis=1).reshape(-1, 4)
        parts = _tensor_rule(f, quarters).reshape(-1, 4)
        evaluations += quarters.shape[0] * GAUSS_ORDER ** 2
        refined = parts.sum(axis=1)
        err = np.abs(refined - whole) + 50.0 * _EPS * np.abs(refined)
        tol = max(abs_tol, rel_tol * abs(value + refined.sum()))
        split = err > share * tol
        if 4 * np.count_nonzero(split) > MAX_BOXES:
            err[split] += np.abs(refined[split])   # unresolved: own up to all of it
            split[:] = False
        value += refined[~split].sum()
        error += err[~split].sum()
        boxes = quarters.reshape(-1, 4, 4)[split].reshape(-1, 4)
        whole = parts[split].ravel()
        share = np.repeat(share[split] / 4.0, 4)
    return float(value), float(error), evaluations


def integrate_2d_improper(f: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> QuadratureResult:
    """Integrate f over the open first quadrant to 1e-12 absolute plus 1e-9
    relative, on the promise that ``|f(u, v)| <= A * (1 + u^2 + v^2)^-2`` far
    out, as for every L2 curvature density of the package.

    The amplitude A is measured on sampled arcs, which gives the analytic
    tail bound

        tail(T) <= A * (pi/4) / (1 + T^2)

    (integrate the envelope in polar coordinates over rho > T).  The
    envelope may set in only far out, so the tail check starts at the first
    radius 8 * 2^j whose arcs decay as promised, and the truncation radius T
    is grown from there until the bound fits inside a quarter of the budget
    1e-12 + 1e-9 * |value|.  [0, T]^2 is cut into dyadic L-shells, [0, 8]^2
    and for each edge pair lo < hi the slabs [lo, hi] x [0, hi] and
    [0, lo] x [lo, hi], and the adaptive tensor Gauss-Legendre rule
    (GAUSS_ORDER^2 nodes per box) integrates them to a tenth of the budget,
    each piece its equal share.  ``error`` is the quadrature error estimate
    plus the tail bound.  f is called on arrays (see above).

    Raises SlowDecay when the sampled arcs show the integrand shrinking
    slower than promised at every radius up to 1e7 or at a radius past the
    first one where it did not, or when T would pass 1e7.
    """
    angles = np.linspace(1e-3, math.pi / 2 - 1e-3, 33)

    @functools.cache   # tail_bound_at(r) probes 2r, and so does tail_bound_at(2r)
    def arc_amplitude(radius: float) -> float:
        u, v = radius * np.cos(angles), radius * np.sin(angles)
        return float(np.max(np.abs(f(u, v)) * (1.0 + u * u + v * v) ** 2.0))

    def tail_bound_at(radius: float) -> float:
        # Envelope amplitude measured on two arcs, with a decay sanity check.
        amp_1 = arc_amplitude(radius)
        amp_2 = arc_amplitude(2.0 * radius)
        pred = ((1.0 + 4.0 * radius ** 2) / (1.0 + radius ** 2)) ** -2.0
        raw_1 = amp_1 * (1.0 + radius ** 2) ** -2.0
        raw_2 = amp_2 * (1.0 + 4.0 * radius ** 2) ** -2.0
        # The promised envelope predicts the raw arc maximum to fall by
        # pred; allow a factor-4 slack before objecting.
        if raw_1 > 0.0 and raw_2 > 4.0 * pred * raw_1:
            raise SlowDecay(
                f"integrand fell only {raw_2 / raw_1:.3g}x between radii {radius} and "
                f"{2 * radius}; promised envelope predicts {pred:.3g}x"
            )
        return max(amp_1, amp_2) * (math.pi / 4.0) / (1.0 + radius ** 2)

    T0 = 8.0
    rough, _, rough_evals = _adaptive_boxes(f, [(0.0, T0, 0.0, T0)], 1e-6, 1e-6)
    T = T0
    while True:
        try:
            budget = 1e-12 + 1e-9 * (abs(rough) + tail_bound_at(T))
            break
        except SlowDecay:
            if 2.0 * T > 1e7:
                raise
            T *= 2.0

    tail = tail_bound_at(T)
    while tail > 0.25 * budget:
        T *= 2.0
        if T > 1e7:
            raise SlowDecay(f"tail bound {tail:.3g} still exceeds budget {budget:.3g} "
                            f"at radius {T / 2:.3g}")
        tail = tail_bound_at(T)

    edges = [0.0, T0]
    while edges[-1] < T:
        edges.append(2.0 * edges[-1])
    pieces = [(0.0, T0, 0.0, T0)]
    for lo, hi in zip(edges[1:], edges[2:]):
        pieces += [(lo, hi, 0.0, hi), (0.0, lo, lo, hi)]   # right and top slabs
    # a tenth keeps the quadrature's part of the error below the tail's:
    # boxes closed near their share can all err with one sign
    value, quad_err, evals = _adaptive_boxes(f, pieces, 0.1 * budget)

    evals += rough_evals + arc_amplitude.cache_info().currsize * angles.size
    return QuadratureResult(value=value, error=quad_err + tail, tail_bound=tail,
                            truncation_radius=T, evaluations=evals)


def integrate_2d_region(f: Callable[[np.ndarray, np.ndarray], np.ndarray], u_max: float,
                        v_max_of_u: Callable[[np.ndarray], np.ndarray]) -> QuadratureResult:
    """Integrate f over {0 < u < u_max, 0 < v < v_max_of_u(u)} to 1e-11
    absolute or 1e-10 relative, whichever is looser; no tail is involved.

    The outer variable is u = u_max sin(t), t in [0, pi/2], which absorbs a
    square-root end of the region such as the almost-ball boundary
    v_max ~ sqrt(u_max - u); the inner one is v = v_max(u) w, w in [0, 1].
    The adaptive tensor Gauss-Legendre rule of integrate_2d_improper then
    integrates f(u, v) u_max cos(t) v_max(u) over the (t, w) rectangle:
    an outer Gauss rule in t over inner Gauss rules on [0, v_max(u)].
    f is called on arrays, and so is v_max_of_u: once per round, on the
    array of all outer nodes; a negative v_max counts as 0.
    """
    def mapped(t, w):
        u = u_max * np.sin(t)
        top = np.maximum(v_max_of_u(u), 0.0)
        return f(u, top * w) * (u_max * np.cos(t) * top)

    # start on the t-images of u = 0, ..., u_max/4, u_max/2, u_max with the
    # first cut at u <= 1: the densities vary on the unit scale in u, and
    # a single coarse box could miss them when u_max is far beyond it
    cuts = [1.0]
    while u_max * cuts[-1] > 1.0:
        cuts.append(0.5 * cuts[-1])
    ts = [0.0] + [math.asin(c) for c in reversed(cuts)]
    value, err, evals = _adaptive_boxes(
        mapped, [(t0, t1, 0.0, 1.0) for t0, t1 in zip(ts, ts[1:])], 1e-11, 1e-10)
    return QuadratureResult(value=value, error=err, tail_bound=0.0,
                            truncation_radius=u_max, evaluations=evals)


# --------------------------------------------------------------------------
# ODE driving
# --------------------------------------------------------------------------

ODE_TOL = 1e-12   # relative and absolute local error tolerance of each ode_solve step


@dataclass
class OdeResult:
    ys: np.ndarray   # shape (len(t_eval), 2)
    nfev: int


def ode_solve(rhs: Callable[[tuple[float, float]], tuple[float, float]],
              y0: Sequence[float], t_eval: Sequence[float]) -> OdeResult:
    """High-order nonstiff integration of the autonomous planar system
    y' = rhs(y), y = (u, v) a pair of floats, from y(t_eval[0]) = y0 forward
    to t_eval[-1]: the embedded Runge-Kutta 8(5,3) pair of Dormand and
    Prince (DOP853, :mod:`taubnut.dop853`), stepped in float arithmetic.

    Each step is accepted when the RMS norm of its error estimate, scaled
    by ODE_TOL (1 + max(|y|, |y_new|)), ODE_TOL = 1e-12, is below 1; the
    next step is h * min(10, 0.9 norm^(-1/8)), and a rejected one shrinks
    by at least 0.2.  The points of t_eval (increasing) come from the
    7th-order dense output of the step that covers them.  ``nfev`` counts
    every call of rhs: two to start (the first slope and the initial-step
    probe), N_STAGES per attempted step and three per dense-output step.

    Raises StepUnderflow when a sample leaves the float range, and when the
    step would fall below ten units in the last place of t before
    t_eval[-1], which in this package invariably means the trajectory ran
    into a coordinate degeneracy rather than a genuinely stiff problem.
    """
    pending = [float(t) for t in t_eval]
    t, t_end = pending[0], pending[-1]
    y = tuple(map(float, y0))
    if t == t_end:   # nothing to integrate
        return OdeResult(ys=np.tile(y, (len(pending), 1)), nfev=0)
    ys = []
    K = ([0.0] * dop853.N_STAGES_EXTENDED, [0.0] * dop853.N_STAGES_EXTENDED)
    f = rhs(y)
    h_abs = _initial_step(rhs, y, f, t_end - t)
    nfev = 2
    exponent = -1.0 / (dop853.ERROR_ORDER + 1)
    first = 0   # index in pending of the next sample time

    while t < t_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        K[0][0], K[1][0] = f
        while True:
            if h_abs < min_step:
                raise StepUnderflow(f"integrator stopped at t = {t!r}: step size "
                                    f"{h_abs!r} fell below the spacing of floats")
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            y_new = dop853.stages(rhs, y, h, K, 1, dop853.N_STAGES + 1)
            nfev += dop853.N_STAGES
            scale = tuple(ODE_TOL + max(abs(a), abs(b)) * ODE_TOL for a, b in zip(y, y_new))
            norm = dop853.error_norm(K, h, scale)
            if norm < 1.0:
                factor = 10.0 if norm == 0.0 else min(10.0, 0.9 * norm ** exponent)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * norm ** exponent)
            rejected = True

        last = bisect.bisect_right(pending, t_new, first)
        if last > first:
            ys += dop853.interpolant(rhs, h, y, y_new, K,
                                     [(s - t) / h for s in pending[first:last]])
            nfev += 3   # the dense output's three extra stages
            first = last
        t, y, f = t_new, y_new, (K[0][dop853.N_STAGES], K[1][dop853.N_STAGES])

    ys = np.array(ys)
    if not np.isfinite(ys).all():
        raise StepUnderflow(f"integrator left the float range before t = {t_end!r}")
    return OdeResult(ys=ys, nfev=nfev)


def _initial_step(rhs, y, f, span) -> float:
    """First step size from the size of y, y' and an estimate of y''
    (Hairer, Norsett & Wanner, Sec. II.4), one evaluation of rhs."""
    scale = [ODE_TOL + abs(c) * ODE_TOL for c in y]

    def rms(x):   # of the pair x / scale
        return math.hypot(x[0] / scale[0], x[1] / scale[1]) / math.sqrt(2.0)
    d0, d1 = rms(y), rms(f)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    f1 = rhs((y[0] + h0 * f[0], y[1] + h0 * f[1]))
    d2 = rms((f1[0] - f[0], f1[1] - f[1])) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1.0 / (dop853.ERROR_ORDER + 1)))
    return min(100.0 * h0, h1, span)


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


def fd_laplacian(f: Callable, x: float, y: float, *, step: float):
    """Five-point O(step^2) Laplacian of f, a scalar or a numpy array valued
    field; the caller keeps the stencil inside f's domain (check_stencil)."""
    return (f(x + step, y) + f(x - step, y) + f(x, y + step) + f(x, y - step)
            - 4.0 * f(x, y)) / (step * step)


def fd_conformal_curvature(lam: Callable[[float, float], float], x: float, y: float,
                           *, step: float) -> float:
    """Gauss curvature K = -Lap(log lam)/(2 lam) of lam (dx^2 + dy^2) by the
    five-point Laplacian, O(step^2); callers keep the stencil where lam > 0."""
    lap = fd_laplacian(lambda a, b: math.log(lam(a, b)), x, y, step=step)
    return -lap / (2.0 * lam(x, y))


def fd_gradient(f: Callable, x: float, y: float, *, step: float) -> tuple:
    """Central-difference gradient (df/dx, df/dy), O(step^2), of a scalar or
    a numpy array valued f."""
    gx = (f(x + step, y) - f(x - step, y)) / (2.0 * step)
    gy = (f(x, y + step) - f(x, y - step)) / (2.0 * step)
    return gx, gy


def fd_jacobian2(fpair: Callable[[float, float], tuple[float, float]],
                 x: float, y: float, *, step: float) -> np.ndarray:
    """2x2 Jacobian d(f1, f2)/d(x, y) of a pair of scalar fields by central
    differences, O(step^2)."""
    return np.column_stack(fd_gradient(lambda a, b: np.array(fpair(a, b)), x, y, step=step))


COMPLEX_STEP = 2.0 ** -600   # a power of two: Im / h is exact; h^2 underflows


def complex_partials(fn: Callable[[complex, complex], object], u: float, v: float):
    """(fn(u, v), d fn/du, d fn/dv) by complex steps, exact to roundoff; fn
    must follow the complex-step contract of the module docstring and may
    return a scalar or an array."""
    fu = fn(complex(u, COMPLEX_STEP), v)
    fv = fn(u, complex(v, COMPLEX_STEP))
    return np.real(fu), np.imag(fu) / COMPLEX_STEP, np.imag(fv) / COMPLEX_STEP


def fd_curvature(metric: Callable[[complex, complex], np.ndarray], u: float, v: float,
                 *, step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Riemann and Ricci tensors of an n-metric that depends on its first two
    coordinates (u, v) only; ``metric(a, b)`` returns the n x n matrix.

    The metric's first derivatives are complex steps (complex_partials), so
    metric must take complex a, b; they are exact to roundoff.  The
    Christoffel symbols are differentiated by central differences, O(step^2).
    Returns (g, g^-1, riem, ric) at (u, v), riem[l, k, i, j] = R^l_{kij}.
    """
    def christoffel(a, b):
        g, gu, gv = complex_partials(metric, a, b)
        ginv = np.linalg.inv(g)
        dg = np.zeros((len(g),) * 3)    # dg[m, i, j] = d_m g_ij; zero for m >= 2
        dg[0] = gu
        dg[1] = gv
        # Gamma^l_{ij} = (1/2) g^{lm} (d_i g_mj + d_j g_mi - d_m g_ij)
        term = np.einsum('imj->mij', dg) + np.einsum('jmi->mij', dg) - dg
        return 0.5 * np.einsum('lm,mij->lij', ginv, term), g, ginv

    gam0, g, ginv = christoffel(u, v)
    dgam = np.zeros((len(g),) * 4)      # dgam[m, l, i, j] = d_m Gamma^l_ij
    dgam[0], dgam[1] = fd_gradient(lambda a, b: christoffel(a, b)[0], u, v, step=step)

    # R^l_{kij} = d_i Gamma^l_jk - d_j Gamma^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik
    riem = (np.einsum('iljk->lkij', dgam) - np.einsum('jlik->lkij', dgam)
            + np.einsum('lim,mjk->lkij', gam0, gam0)
            - np.einsum('ljm,mik->lkij', gam0, gam0))
    ric = np.einsum('lkli->ki', riem)
    return g, ginv, riem, ric


# --------------------------------------------------------------------------
# power-law fitting
# --------------------------------------------------------------------------

def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Exponent m of the least-squares fit of y = C * x^m through log-log
    linear regression.

    Requires at least three strictly positive samples with distinct x values;
    raises InsufficientSamples otherwise.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.size < 3 or ys.size != xs.size:
        raise InsufficientSamples(f"need >= 3 paired samples, got {xs.size}")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise InsufficientSamples("power-law fit needs strictly positive data")
    lx = np.log(xs)
    if np.ptp(lx) == 0.0:
        raise InsufficientSamples("all x values coincide")
    return float(np.polyfit(lx, np.log(ys), 1)[0])
