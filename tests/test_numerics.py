import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taubnut import dop853
from taubnut.asymptotics import almost_ball_volume
from taubnut.family import Family, InstantonParams
from taubnut.metrics import TORUS_VOLUME, volume_density
from taubnut.numerics import (GAUSS_ORDER, BoundaryTooClose, InsufficientSamples,
                              NoBracket, SlowDecay, StepUnderflow, check_stencil,
                              complex_partials, fd_curvature, fd_gradient,
                              fd_jacobian2, fd_laplacian,
                              MaxIterExceeded, find_root_monotone,
                              find_roots_monotone, fit_power_law,
                              integrate_2d_improper, integrate_2d_region,
                              ode_solve)


# ---------------------------------------------------------------- rootfinding

def _newton(value, slope, curvature=None):
    """The residual find_root_monotone takes, from separate f, f' and f''."""
    return lambda x: (value(x), slope(x), None if curvature is None else curvature(x))


def test_root_cubic():
    r = find_root_monotone(_newton(lambda x: x ** 3 - 2.0, lambda x: 3.0 * x * x),
                           0.0, 4.0, x0=1.0, abs_tol=1e-13)
    assert abs(r - 2.0 ** (1.0 / 3.0)) < 1e-14


def test_root_uses_derivatives():
    # with slope and curvature supplied the solve should still land on the root
    r = find_root_monotone(
        _newton(lambda x: math.sinh(x) - 10.0, math.cosh, math.sinh), 0.0, 50.0,
        x0=3.0, abs_tol=1e-13)
    assert abs(math.sinh(r) - 10.0) < 1e-11


def test_root_no_bracket():
    with pytest.raises(NoBracket):
        find_root_monotone(_newton(lambda x: x + 1.0, lambda x: 1.0), 0.0, 1.0,
                           x0=0.0, abs_tol=1e-13)


def test_root_newton_stops_on_a_converged_step():
    # from a good start Newton never needs the signs at the bracket ends,
    # and once its step is within the tolerance it stops
    seen = []

    def f(x):
        seen.append(x)
        return math.sinh(x) - 10.0
    r = find_root_monotone(_newton(f, math.cosh), 0.0, 50.0, x0=3.0, abs_tol=1e-13)
    assert abs(math.sinh(r) - 10.0) < 1e-13
    assert 0.0 not in seen and 50.0 not in seen and len(seen) <= 5


@pytest.mark.parametrize("x0", [0.5, 1.0])
def test_root_no_bracket_found_by_newton(x0):
    # a Newton step leaving the bracket evaluates the end it needs
    with pytest.raises(NoBracket):
        find_root_monotone(_newton(lambda x: x + 1.0, lambda x: 1.0), 0.0, 1.0,
                           x0=x0, abs_tol=1e-13)


@given(st.floats(min_value=-30.0, max_value=30.0))
@settings(max_examples=40, deadline=None)
def test_root_affine(c):
    # f(x) = x - c on a generous bracket
    r = find_root_monotone(_newton(lambda x: x - c, lambda x: 1.0), -40.0, 40.0,
                           x0=0.0, abs_tol=1e-13)
    assert abs(r - c) < 1e-11 * max(1.0, abs(c))


# Residuals built from +, -, * and / round alike on floats and arrays, so
# the array solve must repeat the scalar one bit for bit, iterates included.
# Each row is (f, f', f'' or None, lo, hi, x0): Halley and Newton solves, a
# root at x0, roots past either end (NoBracket), a slope pointing away from
# the root (bisection), a bracket end evaluated only when it is needed, and
# two residuals on which Newton crawled for 200 iterations and now bisects:
# a plateau where its steps of 1e-6 do not shrink |f|, and a slope 1e5 times
# too steep, where each step shrinks |f| by a factor of only 1 - 1e-5.
ROOT_CASES = [
    (lambda x: x * x * x - 2.0, lambda x: 3.0 * x * x, lambda x: 6.0 * x, 0.0, 4.0, 1.0),
    (lambda x: x * x * x - 2.0, lambda x: 3.0 * x * x, None, 0.0, 4.0, 3.9),
    (lambda x: x - 0.25, lambda x: 1.0 + 0.0 * x, None, 0.0, 1.0, 0.25),
    (lambda x: x + 1.0, lambda x: 1.0 + 0.0 * x, None, 0.0, 1.0, 0.5),
    (lambda x: x - 2.0, lambda x: 1.0 + 0.0 * x, None, 0.0, 1.0, 0.0),
    (lambda x: x - 0.3, lambda x: -1.0 + 0.0 * x, None, 0.0, 1.0, 0.9),
    (lambda x: x * x - 1e-6, lambda x: 0.0 * x, None, 0.0, 3.0, 2.0),
    (lambda x: (x - 1.0) * (x - 1.0) * (x - 1.0), lambda x: 3.0 * (x - 1.0) * (x - 1.0),
     lambda x: 6.0 * (x - 1.0), -5.0, 7.0, 6.5),
    (lambda x: max(x - 1.0, -1e-6), lambda x: 1.0 + 0.0 * x, None, 0.0, 2.0, 0.25),
    (lambda x: 1e-5 * (x - 1.0), lambda x: 1.0 + 0.0 * x, None, 0.0, 2.0, 0.25),
]


def _columns(cases, i, x):
    return np.array([case[i](xj) for case, xj in zip(cases, x)])


def test_array_root_solve_repeats_the_scalar_solve_bit_for_bit():
    scalar, visits = [], []
    for f, d, d2, lo, hi, x0 in ROOT_CASES:
        seen = []

        def g(x, f=f, d=d, d2=d2, seen=seen):
            seen.append(x)
            return f(x), d(x), None if d2 is None else d2(x)
        try:
            scalar.append(find_root_monotone(g, lo, hi, x0=x0, abs_tol=1e-13))
        except NoBracket:
            scalar.append(None)
        visits.append(seen)

    iterates = []
    # a NaN curvature makes the Halley correction non-finite, so those
    # elements take Newton steps, as the scalar solve does without one
    curvatures = [(c[2] or (lambda x: math.nan),) for c in ROOT_CASES]

    def g(x):
        iterates.append(x.copy())
        return (_columns(ROOT_CASES, 0, x), _columns(ROOT_CASES, 1, x),
                _columns(curvatures, 0, x))
    lo, hi, x0 = (np.array([c[k] for c in ROOT_CASES]) for k in (3, 4, 5))
    roots = find_roots_monotone(g, lo, hi, x0=x0, abs_tol=np.full(len(ROOT_CASES), 1e-13))
    # a NaN root marks exactly the elements for which the scalar solve
    # raises NoBracket
    assert [None if math.isnan(r) else r for r in roots.tolist()] == scalar
    assert None in scalar
    for j, seen in enumerate(visits):
        # the same iterates, then the last one again while others go on
        assert [float(x[j]) for x in iterates[:len(seen)]] == seen
        assert all(x[j] == seen[-1] for x in iterates[len(seen):])


def test_array_root_solve_without_curvature_takes_newton_steps():
    def f(x):
        return x * x * x - 2.0, 3.0 * x * x, None
    want = find_root_monotone(f, 0.0, 4.0, x0=3.9, abs_tol=1e-13)
    roots = find_roots_monotone(f, 0.0, 4.0, x0=np.array([3.9, 3.9]), abs_tol=1e-13)
    assert roots.tolist() == [want, want]


def test_array_root_solve_runs_out_of_iterations():
    # the slope points away from the root, so every step bisects, and with
    # a negative tolerance no bracket is narrow enough to stop at, in the
    # scalar solve as in the array one
    with pytest.raises(MaxIterExceeded):
        find_root_monotone(lambda x: (x * x - 2.0, -1.0, None), 0.0, 2.0, x0=0.5, abs_tol=-1.0)
    with pytest.raises(MaxIterExceeded):
        find_roots_monotone(lambda x: (x * x - 2.0, -1.0 + 0.0 * x, None),
                            0.0, 2.0, x0=np.array([0.5, 1.5]), abs_tol=-1.0)


# ---------------------------------------------------------------- quadrature

def test_region_quadrature_polynomial():
    # int_0^1 int_0^{1-u} (u + v) dv du = 1/3
    got = integrate_2d_region(lambda u, v: u + v, 1.0, lambda u: 1.0 - u)
    assert abs(got.value - 1.0 / 3.0) < 1e-12


def test_region_owns_up_to_what_it_cannot_resolve():
    # the jump of an indicator along u + v = 1 splits boxes until past
    # MAX_BOXES every box closes; the error then covers the miss
    got = integrate_2d_region(lambda u, v: (u + v < 1.0) * 1.0, 2.0, lambda u: 2.0 + 0.0 * u)
    assert abs(got.value - 0.5) <= got.error < 0.01


def test_improper_gaussian():
    got = integrate_2d_improper(lambda u, v: np.exp(-u * u - v * v))
    assert abs(got.value - math.pi / 4.0) < 1e-8
    assert got.tail_bound >= 0.0


def test_improper_power_tail():
    # int over the quadrant of (1+u^2+v^2)^(-3) = pi/2 * int_0^inf r (1+r^2)^-3 dr
    #                                           = pi/8
    got = integrate_2d_improper(lambda u, v: (1.0 + u * u + v * v) ** -3.0)
    assert abs(got.value - math.pi / 8.0) < 1e-7


def test_improper_starts_the_tail_check_where_the_envelope_holds():
    # (1 + u^2 + v^2 / 1000)^-2 decays as promised along v only once
    # v^2 / 1000 ~ 1: its arcs at radii 8 and 16 fall 0.72x, not ~0.064x
    got = integrate_2d_improper(lambda u, v: (1.0 + u * u + 1e-3 * v * v) ** -2.0)
    exact = math.pi / 4.0 / math.sqrt(1e-3)
    assert abs(got.value - exact) <= 1e-9 * exact
    assert got.error >= abs(got.value - exact)


def test_improper_slower_decay_than_promised_raises():
    # (1 + u^2 + v^2)^-1 is not integrable over the quadrant: no radius
    # shows the promised rho^-4 envelope
    with pytest.raises(SlowDecay):
        integrate_2d_improper(lambda u, v: (1.0 + u * u + v * v) ** -1.0)
    # a constant never decays, at any radius up to the cap
    with pytest.raises(SlowDecay):
        integrate_2d_improper(lambda u, v: 1.0 + 0.0 * u)


class _Counted:
    """An integrand that counts the points it is evaluated at."""

    def __init__(self, f):
        self.f, self.points = f, 0

    def __call__(self, u, v):
        out = self.f(u, v)
        self.points += np.broadcast(u, v, out).size
        return out


def test_evaluations_count_every_integrand_point():
    f = _Counted(lambda u, v: (1.0 + u * u + v * v) ** -3.0)
    got = integrate_2d_improper(f)
    assert got.evaluations == f.points
    f = _Counted(lambda u, v: u + v)
    got = integrate_2d_region(f, 1.0, lambda u: 1.0 - u)
    assert got.evaluations == f.points


def test_improper_samples_each_arc_once():
    # the tail bound at r measures the arcs at r and 2r, and the one at 2r
    # those at 2r and 4r: each arc is evaluated once and counted once
    params, radii = InstantonParams(k=0.5), []

    def f(u, v):
        if np.ndim(u) == 1:   # an arc; the quadrature calls f on 3-d node grids
            radii.append(float(np.hypot(u[0], v[0])))
        return params.ricci_density(u, v)
    got = integrate_2d_improper(f)
    assert len(radii) == len(set(radii)) >= 3
    assert max(radii) == pytest.approx(2.0 * got.truncation_radius)


# ------------------------------------------------------- scipy as the oracle

GEN09 = InstantonParams(k=0.9)
EXC = InstantonParams(family=Family.EXCEPTIONAL_TN)

IMPROPER_CASES = {
    # name: (integrand, exact value)
    "gaussian": (lambda u, v: np.exp(-u * u - v * v), math.pi / 4.0),
    "power3": (lambda u, v: (1.0 + u * u + v * v) ** -3.0, math.pi / 8.0),
    "power2": (lambda u, v: (1.0 + u * u + v * v) ** -2.0, math.pi / 4.0),
    # the L^2 Ricci integrand at k = 0.9: its integral is k^2 / (1 - k^2)
    "ricci-k0.9": (lambda u, v: GEN09.ricci_density(u, v), 0.81 / 0.19),
}


@pytest.mark.parametrize("name", IMPROPER_CASES)
def test_improper_against_scipy_and_exact(name):
    integrate = pytest.importorskip("scipy.integrate")
    f, exact = IMPROPER_CASES[name]
    got = integrate_2d_improper(f)
    assert got.error >= abs(got.value - exact)
    assert abs(got.value - exact) <= 1e-9 * exact
    ref, _ = integrate.dblquad(lambda v, u: float(f(u, v)), 0.0, math.inf,
                               0.0, math.inf, epsabs=1e-12, epsrel=1e-9)
    assert got.value == pytest.approx(ref, rel=1e-7, abs=0)


def _almost_ball(params, R):
    # the volume density over AB(R), per unit torus volume
    return (lambda u, v: volume_density(params, u, v), params.almost_ball_u_max(R),
            lambda u: params.almost_ball_v_max(R, u),
            almost_ball_volume(params, R) / TORUS_VOLUME)


REGION_CASES = {
    # name: (integrand, u_max, v_max(u), exact value or None)
    "triangle": (lambda u, v: u + v, 1.0, lambda u: 1.0 - u, 1.0 / 3.0),
    "ab-gen-k0-R4": _almost_ball(InstantonParams(), 4.0),
    "ab-gen-k0.7-R7": _almost_ball(InstantonParams(k=0.7), 7.0),
    "ab-exc-R1": _almost_ball(EXC, 1.0),
    "ab-exc-R100": _almost_ball(EXC, 100.0),
    # the exceptional L^2 Ricci density over AB(25): no closed form
    "ricci-exc-R25": (lambda u, v: EXC.ricci_density(u, v),
                      math.sqrt(50.0), lambda u: np.maximum(25.0 - 0.5 * u * u, 0.0), None),
}


def test_region_calls_the_boundary_once_per_round_on_arrays():
    calls = []

    def v_max(u):
        calls.append(u)
        return np.maximum(1.0 - u, 0.0)

    got = integrate_2d_region(lambda u, v: u + v, 1.0, v_max)
    assert got.value == pytest.approx(1.0 / 3.0, rel=1e-14, abs=0)
    assert all(isinstance(u, np.ndarray) for u in calls)
    # each outer node is passed once, in one array per round: fewer calls
    # than boxes, where a call per node would make GAUSS_ORDER per box
    nodes = sum(u.size for u in calls)
    assert nodes * GAUSS_ORDER == got.evaluations
    assert len(calls) < nodes / GAUSS_ORDER


@pytest.mark.parametrize("name", REGION_CASES)
def test_region_against_scipy_and_exact(name):
    integrate = pytest.importorskip("scipy.integrate")
    f, u_max, v_max, exact = REGION_CASES[name]
    got = integrate_2d_region(f, u_max, v_max)
    ref, _ = integrate.quad(
        lambda u: integrate.quad(lambda v: float(f(u, v)), 0.0, v_max(u),
                                 epsabs=1e-13, epsrel=1e-13, limit=200)[0],
        0.0, u_max, epsabs=1e-13, epsrel=1e-13, limit=200)
    assert got.value == pytest.approx(ref, rel=1e-12, abs=0)
    if exact is not None:
        assert got.error >= abs(got.value - exact)
        assert got.value == pytest.approx(exact, rel=1e-14, abs=0)


# ------------------------------------------------------------------------ ode

def test_ode_harmonic_oscillator():
    sol = ode_solve(lambda y: (y[1], -y[0]), [1.0, 0.0], [0.0, 2.0 * math.pi])
    assert abs(sol.ys[-1][0] - 1.0) < 1e-9
    assert abs(sol.ys[-1][1]) < 1e-9


def _oscillator(y):
    return y[1], -y[0]


def test_ode_against_scipy():
    integrate = pytest.importorskip("scipy.integrate")
    t_eval = np.linspace(0.0, 10.0, 41)
    sol = ode_solve(_oscillator, [1.0, 0.0], t_eval)
    ref = integrate.solve_ivp(lambda t, y: _oscillator(y), (0.0, 10.0), [1.0, 0.0],
                              method="DOP853", rtol=1e-12, atol=1e-12, t_eval=t_eval)
    assert np.array_equal(t_eval, ref.t)
    assert np.abs(sol.ys - ref.y.T).max() < 1e-13
    assert abs(sol.nfev - ref.nfev) <= 0.05 * ref.nfev
    exact = np.stack([np.cos(t_eval), -np.sin(t_eval)], axis=1)
    assert np.abs(sol.ys - exact).max() < 1e-10


@pytest.mark.parametrize("params,eta", [
    (InstantonParams(k=0.5), 0.7), (InstantonParams(Family.EXCEPTIONAL_TN), 0.7),
    (InstantonParams(Family.EXCEPTIONAL_HALF_PLANE), -0.7), (InstantonParams(Family.FLAT), 0.7)])
def test_ode_geodesic_against_scipy(params, eta):
    integrate = pytest.importorskip("scipy.integrate")
    rhs = params.shoot_rhs(eta)
    t_eval = np.linspace(0.0, 20.0, 40)
    sol = ode_solve(rhs, [0.0, 0.0], t_eval)
    ref = integrate.solve_ivp(lambda t, y: rhs(y), (0.0, 20.0), [0.0, 0.0], method="DOP853",
                              rtol=1e-12, atol=1e-12, t_eval=t_eval)
    assert np.abs(sol.ys - ref.y.T).max() < 1e-12
    assert abs(sol.nfev - ref.nfev) <= 0.05 * ref.nfev


def test_nfev_counts_every_call(monkeypatch):
    # y' = -100 y, in both components, is stiff enough on [0, 1] for the
    # step controller to reject steps, and the 30 samples take dense outputs
    calls, norms = [], []
    error_norm = dop853.error_norm

    def recorded(*args):
        norms.append(error_norm(*args))
        return norms[-1]
    monkeypatch.setattr(dop853, "error_norm", recorded)

    def rhs(y):
        calls.append(y)
        return -100.0 * y[0], -100.0 * y[1]
    t_eval = np.linspace(0.0, 1.0, 30)
    sol = ode_solve(rhs, [1.0, 1.0], t_eval)
    assert max(norms) >= 1.0
    assert sol.nfev == len(calls)
    for column in sol.ys.T:
        assert np.abs(column - np.exp(-100.0 * t_eval)).max() < 1e-10


def test_ode_blowup_raises():
    with pytest.raises(StepUnderflow):
        ode_solve(lambda y: (y[0] * y[0], y[1] * y[1]), [1.0, 1.0], [0.0, 3.0])


def test_ode_sample_beyond_the_float_range_raises():
    # y = 1e300 t passes the float range at t = 1.8e8; once the state is
    # inf its error scale is inf too, so the step is accepted
    with pytest.raises(StepUnderflow, match="float range"):
        ode_solve(lambda y: (1e300, 1e300), [0.0, 0.0], [0.0, 1e10])


# ----------------------------------------------------------- finite difference

def test_fd_laplacian_quadratic():
    # the five-point stencil is exact on quadratics up to cancellation noise
    lap = fd_laplacian(lambda x, y: x * x + 3.0 * y * y, 1.0, 2.0, step=1e-2)
    assert abs(lap - 8.0) < 1e-10


def test_fd_gradient():
    gx, gy = fd_gradient(lambda x, y: math.sin(x) * y, 0.7, 1.3, step=1e-6)
    assert abs(gx - 1.3 * math.cos(0.7)) < 1e-9
    assert abs(gy - math.sin(0.7)) < 1e-9


def test_fd_boundary_guard():
    # the stencils take no domain: the caller that knows it checks it once
    with pytest.raises(BoundaryTooClose):
        check_stencil(1e-9, 1.0, 1e-3, ((0.0, math.inf), (0.0, math.inf)))


def test_fd_jacobian2():
    J = fd_jacobian2(lambda x, y: (x * y, x - y), 0.5, 0.25, step=1e-6)
    expect = np.array([[0.25, 0.5], [1.0, -1.0]])
    assert np.abs(np.asarray(J) - expect).max() < 1e-8


def _round_sphere(a, b):
    s = np.sin(a)
    return np.array([[1.0, 0.0], [0.0, s * s]])


@pytest.mark.parametrize("u", [0.4, 1.0, 2.5])
def test_fd_curvature_round_sphere_is_einstein(u):
    # the unit 2-sphere diag(1, sin^2 u) has Ric = g, with O(step^2) error
    errs = []
    for step in (2e-3, 1e-3):
        g, ginv, _, ric = fd_curvature(_round_sphere, u, 0.7, step=step)
        assert np.abs(g @ ginv - np.eye(2)).max() < 1e-15
        errs.append(np.abs(ric - g).max())
    assert errs[1] < 1e-4
    assert 3.5 < errs[0] / errs[1] < 4.5


# -------------------------------------------------------------------- fitting

def test_power_law_exact():
    xs = [1.0, 2.0, 4.0, 8.0]
    assert abs(fit_power_law(xs, [3.0 * x ** 2.5 for x in xs]) - 2.5) < 1e-12


def test_power_law_needs_samples():
    with pytest.raises(InsufficientSamples):
        fit_power_law([1.0, 2.0], [1.0, 4.0])
    with pytest.raises(InsufficientSamples):
        fit_power_law([1.0, 2.0, 3.0], [1.0, -4.0, 9.0])
    with pytest.raises(InsufficientSamples, match="coincide"):
        fit_power_law([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


# ------------------------------------------------------------ complex steps

def test_complex_partials_match_exact():
    def f(u, v):
        return u * u * v + v ** 3

    val, du, dv = complex_partials(f, 1.5, 0.5)
    assert abs(val - (1.5 ** 2 * 0.5 + 0.125)) < 1e-15
    assert abs(du - 2.0 * 1.5 * 0.5) < 1e-14
    assert abs(dv - (1.5 ** 2 + 3 * 0.25)) < 1e-14


@given(st.floats(min_value=0.1, max_value=4.0),
       st.floats(min_value=0.1, max_value=4.0))
@settings(max_examples=40, deadline=None)
def test_complex_partials_vs_gradient(u, v):
    def f(a, b):
        return a ** 2 / (1.0 + b) + b * a

    _, du, dv = complex_partials(f, u, v)
    gx, gy = fd_gradient(f, u, v, step=1e-6)
    assert abs(du - gx) < 1e-6 * max(1.0, abs(du))
    assert abs(dv - gy) < 1e-6 * max(1.0, abs(dv))
