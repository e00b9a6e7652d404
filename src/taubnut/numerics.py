"""Shared numerical machinery: root finding, quadrature, ODE driving, finite
differences, jets and log-log fits.

Everything here is geometry-agnostic.  The rest of the package layers the
metric-specific formulas on top of these routines, so the tolerances and
failure modes of each helper are spelled out in its docstring.  The root
solve takes one residual callable that returns the value with its
derivatives.  The finite-difference stencils, kept for kernels with asinh,
hypot or square roots, take no domain; their caller checks it.

Exact derivatives come from jets, which every curvature and Jacobian oracle
reads: a kernel called on jets(u, v) returns the Jet of its value, gradient
and Hessian in (u, v) to roundoff, its value the float kernel's bit for bit.
It may use +, -, * and / on jets and numbers, and no ``**`` (write p * p),
abs(), comparisons, math.* or numpy on a jet: they raise TypeError, and
``==`` compares identity.  Jets of mpmath numbers run a kernel at any precision.

Everything takes floats but the two array engines, which import numpy on first
use: the adaptive quadrature and ``find_roots_monotone``, the contour fan's solve.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
from typing import Callable, NamedTuple, Sequence


class TaubnutError(Exception):
    """An error of this package, the base of all its exceptions (defined in the
    module every other imports); the CLI reports one with exit code 2."""


class BadParams(TaubnutError):
    """An argument outside its domain: a family's parameters, a point, an angle, a flag."""


class NoBracket(TaubnutError):
    """The supplied interval does not bracket a sign change."""


class MaxIterExceeded(TaubnutError):
    """Iteration budget exhausted before reaching the requested tolerance."""


class SlowDecay(TaubnutError):
    """The integrand decays too slowly (or is not finite) for the improper quadrature."""


class StepUnderflow(TaubnutError):
    """The ODE integrator stalled; the step size collapsed before t_end."""


class IllConditioned(TaubnutError, ArithmeticError):
    """The metric is singular or not finite, or rounding leaves its curvature few digits."""


class InsufficientSamples(TaubnutError):
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
    import numpy as np
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

class QuadratureResult(NamedTuple):
    value: float
    error: float      # the adaptive rule's error estimate, roundoff included
    evaluations: int  # integrand points evaluated


GAUSS_ORDER = 10   # nodes per axis of the tensor rule on each box
MAX_BOXES = 1024   # open boxes per round; past it every box closes
_EPS = sys.float_info.epsilon


@functools.cache
def _gauss_legendre():
    """Nodes and weights of the GAUSS_ORDER-point Gauss-Legendre rule on
    [-1, 1], numpy's leggauss(10) without loading numpy.polynomial: it
    mirrors the negative nodes, written ascending, and their weights."""
    import numpy as np
    nodes = (-0.9739065285171717, -0.8650633666889845, -0.6794095682990244,
             -0.4333953941292472, -0.14887433898163122)
    weights = (0.06667134430868814, 0.1494513491505804, 0.219086362515982,
               0.2692667193099965, 0.2955242247147528)
    return (np.array([*nodes, *(-x for x in reversed(nodes))]),
            np.array(weights + weights[::-1]))


def _adaptive_boxes(f, boxes, abs_tol: float, rel_tol: float):
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
    import numpy as np
    x, w = _gauss_legendre()

    def tensor_rule(boxes):   # the n x n tensor Gauss rule of f over each row
        hu = 0.5 * (boxes[:, 1] - boxes[:, 0])
        hv = 0.5 * (boxes[:, 3] - boxes[:, 2])
        u = (0.5 * (boxes[:, 0] + boxes[:, 1]) + hu * x[:, None]).T
        v = (0.5 * (boxes[:, 2] + boxes[:, 3]) + hv * x[:, None]).T
        vals = np.broadcast_to(f(u[:, :, None], v[:, None, :]),
                               (len(boxes), GAUSS_ORDER, GAUSS_ORDER))
        return hu * hv * np.einsum("bij,i,j->b", vals, w, w)

    boxes = np.asarray(boxes, dtype=float)
    share = np.full(len(boxes), 1.0 / len(boxes))
    with np.errstate(all="ignore"):   # inf and nan pass into the value, as in floats
        whole = tensor_rule(boxes)
        evaluations = len(boxes) * GAUSS_ORDER ** 2
        value = error = 0.0
        while len(boxes):
            u0, u1, v0, v1 = boxes.T
            edges = np.stack((u0, 0.5 * (u0 + u1), u1, v0, 0.5 * (v0 + v1), v1), axis=1)
            # the quarters (u0, um, v0, vm), (um, u1, v0, vm), (u0, um, vm, v1), (um, u1, vm, v1)
            quarters = edges[:, [0, 1, 3, 4, 1, 2, 3, 4, 0, 1, 4, 5, 1, 2, 4, 5]].reshape(-1, 4)
            parts = tensor_rule(quarters).reshape(-1, 4)
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
    relative, for an f that decays like (1 + u^2 + v^2)^-2 or faster far out,
    as every L2 curvature density of the package does.

    u = r cos(phi), v = r sin(phi), r = s / (1 - s), of Jacobian r / (1 - s)^2,
    maps the box (s, phi) in [0, 1] x [0, pi/2] onto the whole quadrant
    (QUADPACK's QAGI substitution, Piessens et al., 1983, in polar form), and
    under the promised decay the mapped integrand stays bounded up to s = 1:
    the adaptive tensor Gauss-Legendre rule integrates it from the two boxes
    s <= 1/2 and s >= 1/2, and ``error`` is its estimate.  f is called on
    arrays (see above).  Raises SlowDecay where that estimate misses the
    tolerance or is NaN, as for (1 + r^2)^-1, whose mapped form grows like 1 / (1 - s).
    """
    import numpy as np

    def mapped(s, phi):
        r = s / (1.0 - s)
        return f(r * np.cos(phi), r * np.sin(phi)) * (r / ((1.0 - s) * (1.0 - s)))

    value, error, evals = _adaptive_boxes(
        mapped, [(0.0, 0.5, 0.0, math.pi / 2), (0.5, 1.0, 0.0, math.pi / 2)], 1e-12, 1e-9)
    tol = 1e-12 + 1e-9 * abs(value)
    if not error <= tol:   # a NaN error fails too
        raise SlowDecay(f"quadrature error {error:.3g} exceeds {tol:.3g}: the integrand "
                        f"decays slower than (1 + u^2 + v^2)^-2 or is not finite")
    return QuadratureResult(value=value, error=error, evaluations=evals)


def integrate_2d_region(f: Callable[[np.ndarray, np.ndarray], np.ndarray], u_max: float,
                        v_max_of_u: Callable[[np.ndarray], np.ndarray]) -> QuadratureResult:
    """Integrate f over {0 < u < u_max, 0 < v < v_max_of_u(u)} to 1e-11
    absolute or 1e-10 relative, whichever is looser.

    The outer variable is u = u_max sin(t), t in [0, pi/2], which absorbs a
    square-root end of the region such as the almost-ball boundary
    v_max ~ sqrt(u_max - u); the inner one is v = v_max(u) w, w in [0, 1].
    The adaptive tensor Gauss-Legendre rule of integrate_2d_improper then
    integrates f(u, v) u_max cos(t) v_max(u) over the (t, w) rectangle:
    an outer Gauss rule in t over inner Gauss rules on [0, v_max(u)].
    f is called on arrays, and so is v_max_of_u: once per round, on the
    array of all outer nodes; a negative v_max counts as 0.
    """
    import numpy as np

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
    return QuadratureResult(value=value, error=err, evaluations=evals)


# --------------------------------------------------------------------------
# ODE driving
# --------------------------------------------------------------------------

ODE_TOL = 1e-12   # relative and absolute local error tolerance of each ode_solve step


class OdeResult(NamedTuple):
    ys: list[tuple[float, float]]   # (u, v) at each time of t_eval
    nfev: int
    steps: int      # accepted steps
    rejected: int   # rejected step attempts


def ode_solve(rhs: Callable[[tuple[float, float]], tuple[float, float]],
              y0: Sequence[float], t_eval: Sequence[float]) -> OdeResult:
    """High-order nonstiff integration of the autonomous planar system
    y' = rhs(y), y = (u, v) a pair of floats, from y(t_eval[0]) = y0 forward
    to t_eval[-1]: the embedded Runge-Kutta 8(5,3) pair of Dormand and
    Prince (DOP853), stepped in float arithmetic by the straight-line
    kernels of :mod:`taubnut.dop853`.

    Each step is accepted when the RMS norm of its error estimate, scaled
    by ODE_TOL (1 + max(|y|, |y_new|)), ODE_TOL = 1e-12, is below 1; the
    next step is h * min(10, 0.9 norm^(-1/8)), and a rejected one shrinks
    by at least 0.2.  BadParams unless y0 is two numbers and t_eval is non-
    decreasing; its points come from the 7th-order dense output of their step.
    ``nfev`` counts every call of rhs: two to start (the first slope and the
    initial-step probe), N_STAGES per attempted step (``steps`` accepted,
    ``rejected`` not) and three per step that carries samples.

    ``ys`` is a list of (u, v) float pairs.  Raises StepUnderflow for an
    infinite span, when a sample leaves the float range, and when the step
    would fall below ten ulps of t (or is NaN) before t_eval[-1], which in
    this package invariably means the trajectory ran into a coordinate
    degeneracy, not a stiff problem.
    """
    from . import dop853
    pending = [float(t) for t in t_eval]
    if not pending or any(map(math.isnan, pending)) or pending != sorted(pending):
        raise BadParams("t_eval must be non-empty, non-decreasing and free of NaN")
    y = tuple(map(float, y0))
    if len(y) != 2:
        raise BadParams(f"y0 must be a pair (u, v), got {len(y)} numbers")
    t, t_end = pending[0], pending[-1]
    if t == t_end:   # nothing to integrate
        return OdeResult(ys=[y] * len(pending), nfev=0, steps=0, rejected=0)
    if math.isinf(t) or math.isinf(t_end):
        raise StepUnderflow(f"integrator cannot span the times from {t!r} to {t_end!r}")
    f = rhs(y)
    h_abs = _initial_step(rhs, y, f, t_end - t)
    (u, v), (fu, fv) = y, f
    exponent = -1.0 / (dop853.ERROR_ORDER + 1)
    ys, first = [], 0   # the samples, and the index in pending of the next one
    steps = rejected = dense_steps = 0
    step, dense = dop853.kernels()

    while t < t_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        earlier = rejected   # rejections before this step
        while True:
            if not h_abs >= min_step:   # also a NaN step, from a NaN first slope
                raise StepUnderflow(f"integrator stopped at t = {t!r}: step size "
                                    f"{h_abs!r} fell below the spacing of floats")
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            (u_new, v_new), errors, K = step(rhs, u, v, h, fu, fv)
            norm = dop853.error_norm(errors, h, (ODE_TOL + max(abs(u), abs(u_new)) * ODE_TOL,
                                                 ODE_TOL + max(abs(v), abs(v_new)) * ODE_TOL))
            if norm < 1.0:
                factor = 10.0 if norm == 0.0 else min(10.0, 0.9 * norm ** exponent)
                h_abs *= min(1.0, factor) if rejected > earlier else factor
                steps += 1
                break
            h_abs *= max(0.2, 0.9 * norm ** exponent)
            rejected += 1

        if pending[first] <= t_new:   # the step carries samples: its dense output
            last = bisect.bisect_right(pending, t_new, first)
            (a0, a1, a2, a3, a4, a5, a6), (b0, b1, b2, b3, b4, b5, b6) = dense(
                rhs, u, v, u_new, v_new, h, K)
            for s in pending[first:last]:
                x = (s - t) / h   # the step fraction: Horner in x and x1 = 1 - x
                x1 = 1.0 - x
                du = ((((((a0 * x + a1) * x1 + a2) * x + a3) * x1 + a4) * x + a5) * x1 + a6) * x
                dv = ((((((b0 * x + b1) * x1 + b2) * x + b3) * x1 + b4) * x + b5) * x1 + b6) * x
                ys.append((du + u, dv + v))
            dense_steps += 1
            first = last
        t, u, v, fu, fv = t_new, u_new, v_new, K[dop853.N_STAGES], K[-1]

    if not all(map(math.isfinite, itertools.chain.from_iterable(ys))):
        raise StepUnderflow(f"integrator left the float range before t = {t_end!r}")
    return OdeResult(ys=ys, nfev=2 + dop853.N_STAGES * (steps + rejected) + 3 * dense_steps,
                     steps=steps, rejected=rejected)


def _initial_step(rhs, y, f, span) -> float:
    """First step size from the size of y, y' and an estimate of y''
    (Hairer, Norsett & Wanner, Sec. II.4), one evaluation of rhs."""
    from . import dop853
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

def fd_laplacian(f: Callable, x: float, y: float, *, step: float):
    """Five-point O(step^2) Laplacian of f, a scalar or a numpy array valued
    field; the caller keeps the stencil inside f's domain."""
    return (f(x + step, y) + f(x - step, y) + f(x, y + step) + f(x, y - step)
            - 4.0 * f(x, y)) / (step * step)


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
    import numpy as np
    return np.column_stack(fd_gradient(lambda a, b: np.array(fpair(a, b)), x, y, step=step))


class Jet:
    """A value with its gradient and Hessian in (u, v), carried exactly through +, -, *
    and /: the hyper-dual numbers of Fike & Alonso (AIAA 2011-886) in two variables."""

    __slots__ = ("val", "du", "dv", "duu", "duv", "dvv")

    def __init__(self, val, du, dv, duu, duv, dvv):
        self.val, self.du, self.dv, self.duu, self.duv, self.dvv = val, du, dv, duu, duv, dvv

    def __add__(self, b):
        if type(b) is not Jet:
            return Jet(self.val + b, self.du, self.dv, self.duu, self.duv, self.dvv)
        return Jet(self.val + b.val, self.du + b.du, self.dv + b.dv,
                   self.duu + b.duu, self.duv + b.duv, self.dvv + b.dvv)

    def __mul__(self, b):
        if type(b) is Jet:
            a0, au, av, b0, bu, bv = self.val, self.du, self.dv, b.val, b.du, b.dv
            return Jet(a0 * b0, au * b0 + a0 * bu, av * b0 + a0 * bv,
                       self.duu * b0 + 2.0 * au * bu + a0 * b.duu,
                       self.duv * b0 + au * bv + av * bu + a0 * b.duv,
                       self.dvv * b0 + 2.0 * av * bv + a0 * b.dvv)
        return Jet(self.val * b, self.du * b, self.dv * b, self.duu * b, self.duv * b, self.dvv * b)

    def __truediv__(self, b):
        if type(b) is Jet:
            b0, bu, bv = b.val, b.du, b.dv   # q = a / b: q' = (a' - q b') / b, and so on
            q = self.val / b0
            qu, qv = (self.du - q * bu) / b0, (self.dv - q * bv) / b0
            return Jet(q, qu, qv, (self.duu - 2.0 * qu * bu - q * b.duu) / b0,
                       (self.duv - qu * bv - qv * bu - q * b.duv) / b0,
                       (self.dvv - 2.0 * qv * bv - q * b.dvv) / b0)
        return Jet(self.val / b, self.du / b, self.dv / b, self.duu / b, self.duv / b, self.dvv / b)

    __radd__, __rmul__ = __add__, __mul__
    __neg__ = lambda self: self * -1.0
    __sub__ = lambda self, b: self + -b
    __rsub__ = lambda self, b: -self + b
    __rtruediv__ = lambda self, a: Jet(a, 0.0, 0.0, 0.0, 0.0, 0.0) / self


def jets(u, v) -> tuple[Jet, Jet]:
    """The seed jets (Jet(u, 1, 0, 0, 0, 0), Jet(v, 0, 1, 0, 0, 0)) of the point (u, v)."""
    return Jet(u, 1.0, 0.0, 0.0, 0.0, 0.0), Jet(v, 0.0, 1.0, 0.0, 0.0, 0.0)


def conformal_curvature(lam: Callable[[Jet, Jet], Jet], x: float, y: float) -> float:
    """K = -(lam Lap lam - |grad lam|^2) / (2 lam^3) of lam (dx^2 + dy^2) at (x, y) from its Jet."""
    f = lam(*jets(x, y))
    return (f.du * f.du + f.dv * f.dv - f.val * (f.duu + f.dvv)) / (2.0 * f.val ** 3)


# --------------------------------------------------------------------------
# grids and power-law fitting
# --------------------------------------------------------------------------

def linspace(lo: float, hi: float, n: int) -> list[float]:
    """numpy's linspace(lo, hi, n) as floats, bit for bit: lo + i * step, step =
    (hi - lo) / (n - 1), or lo + i / (n - 1) * (hi - lo) where step underflows to 0."""
    step = (hi - lo) / max(n - 1, 1)
    return [lo] if n == 1 else [lo + (i * step if step else i / (n - 1) * (hi - lo))
                                for i in range(n - 1)] + [hi]


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Exponent m of the least-squares fit of y = C * x^m through log-log
    linear regression.

    Requires at least three strictly positive finite samples with distinct x values;
    raises InsufficientSamples otherwise.
    """
    if len(xs) < 3 or len(ys) != len(xs):
        raise InsufficientSamples(f"need >= 3 paired samples, got {len(xs)}")
    if not all(0.0 < x < math.inf for x in [*xs, *ys]):
        raise InsufficientSamples("power-law fit needs strictly positive finite data")
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    if max(lx) == min(lx):
        raise InsufficientSamples("all x values coincide")
    mx, my = math.fsum(lx) / len(lx), math.fsum(ly) / len(ly)
    return (math.fsum((x - mx) * (y - my) for x, y in zip(lx, ly))
            / math.fsum((x - mx) * (x - mx) for x in lx))
