import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taubnut import geodesics
from taubnut.curvature import polytope_curvature_fd
from taubnut.family import BadParams, Family, InstantonParams, WrongFamily
from taubnut.numerics import find_root_monotone
from taubnut.geodesics import (approx_F, distance, eikonal_S,
                               eikonal_residual, geodesic_shoot,
                               point_from_polar, points_from_polar, polar_from_point,
                               polar_metric_coefficient,
                               polar_metric_coefficient_fd, radius_from_F,
                               solve_eta, solve_F, unparam_residual)

GEN = InstantonParams()
GEN05 = InstantonParams(k=0.5)
GEN09 = InstantonParams(k=0.9)
EXC = InstantonParams(family=Family.EXCEPTIONAL_TN)
HP = InstantonParams(family=Family.EXCEPTIONAL_HALF_PLANE)
FLAT = InstantonParams(family=Family.FLAT)

ETAS = [0.1, 0.4, math.pi / 4, 1.1, 1.45]


# -------------------------------------------------------------------- eikonal

def test_eikonal_flat_is_linear():
    assert eikonal_S(FLAT, 0.3, 2.0, 5.0) == pytest.approx(
        2.0 * math.cos(0.3) + 5.0 * math.sin(0.3), abs=1e-15)


def test_eikonal_small_eta_frozen():
    # guards the log-sum-exp branch of the leg function near eta = 0
    got = eikonal_S(GEN, 1e-3, 1.0, 1.0)
    assert got == pytest.approx(2.3303371263029797, rel=1e-12, abs=0)
    # and continuity onto the axis value
    assert abs(got - eikonal_S(GEN, 0.0, 1.0, 1.0)) < 1e-5


def test_eikonal_residual_grid():
    # |grad S|^2 = lambda in every family: the defining property
    worst = 0.0
    for params in (GEN, GEN05, GEN09, EXC, HP, FLAT):
        for eta in ETAS:
            for u in np.linspace(0.2, 3.0, 8):
                for v in np.linspace(0.2, 3.0, 8):
                    if params.family is Family.EXCEPTIONAL_HALF_PLANE:
                        v -= 1.5
                    worst = max(worst, eikonal_residual(params, eta, u, v))
    assert worst < 1e-6


@given(st.floats(min_value=0.05, max_value=1.5),
       st.floats(min_value=0.1, max_value=5.0),
       st.floats(min_value=0.1, max_value=5.0))
@settings(max_examples=60, deadline=None)
def test_eikonal_residual_random(eta, u, v):
    assert eikonal_residual(GEN05, eta, u, v) < 1e-6


# ------------------------------------------------------------------ solve_eta

def test_solve_eta_recovers_launch_angle():
    for params in (GEN05, EXC):
        for eta in ETAS:
            rec = point_from_polar(params, 7.0, eta)
            assert solve_eta(params, rec.u, rec.v) == pytest.approx(
                eta, abs=1e-10)


@pytest.mark.parametrize("params", [GEN05, EXC], ids=["GEN05", "EXC"])
@pytest.mark.parametrize("v", [1e-8, 1e-10, 1e-14, 1e-210, 1e-300])
def test_solve_eta_is_relatively_accurate_next_to_the_u_axis(params, v):
    # 50-digit reference of the launch-angle relation through (1, v):
    # sin(eta) sinh((b/a) asinh(a u / cos eta)) = b v, with a = b = 1 and
    # sinh -> identity for the exceptional family
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    if params is EXC:
        def h(eta):
            return mp.sin(eta) * mp.asinh(1 / mp.cos(eta)) - v
    else:
        a, b = mp.sqrt(1 + mp.mpf(params.k)), mp.sqrt(1 - mp.mpf(params.k))
        def h(eta):
            return mp.sin(eta) * mp.sinh(b / a * mp.asinh(a / mp.cos(eta))) - b * v
    ref = mp.findroot(h, mp.mpf(v))
    got = solve_eta(params, 1.0, v)
    assert abs(got / float(ref) - 1.0) < 1e-12


@pytest.mark.parametrize("params,R,eta", [
    (InstantonParams(k=0.9999), 1000.0, 0.5),
    (EXC, 800.0, math.pi / 2),
    (FLAT, 800.0, 0.3),
    (FLAT, 1e100, 0.5),
])
def test_point_from_polar_past_exp_range_is_finite(params, R, eta):
    # F = e^s overflows past s = 709 here, although (u, v) are finite
    rec = point_from_polar(params, R, eta)
    params.geometry.check_point(rec.u, rec.v)   # finite and on the chart
    assert distance(params, rec.u, rec.v) == pytest.approx(R, rel=1e-15, abs=1e-8)


@pytest.mark.parametrize("params,R,eta", [
    (GEN05, 1e-320, 0.2), (InstantonParams(k=-0.999999), 1e-310, 0.5),
])
def test_point_from_polar_subnormal_radius(params, R, eta):
    # the root s = rho - O(rho^3) rounds to its bound rho, and the relation's
    # subnormal rounding can leave f(rho) < 0: the bracket is padded past it
    rec = point_from_polar(params, R, eta)
    params.geometry.check_point(rec.u, rec.v)
    eik = abs(eikonal_S(params, eta, rec.u, rec.v) - R)
    assert eik <= 1e-10 * R + 1e-322   # subnormal rounding


@pytest.mark.parametrize("R", [math.inf, math.nan])
def test_point_from_polar_non_finite_radius_is_bad_params(R):
    with pytest.raises(BadParams):
        point_from_polar(FLAT, R, 0.3)


@pytest.mark.parametrize("fn,value", [
    (solve_F, lambda F: F),
    (approx_F, lambda out: out[0]),
    (polar_metric_coefficient, lambda A2: A2),
], ids=["solve_F", "approx_F", "polar_metric_coefficient"])
def test_radial_functions_finite_as_k_nears_1(fn, value):
    # the approximant's branch threshold involves rho^(q-1), q = a/b, which
    # overflows as k -> 1
    assert math.isfinite(value(fn(InstantonParams(k=0.9999), 1000.0, 0.5)))


RADIAL_FNS = (solve_F, approx_F, polar_metric_coefficient)


@pytest.mark.parametrize("fn,params,R,eta", [
    # F = e^s (s = 1025), the approximant and A^2 all pass the float range
    *[(fn, InstantonParams(k=-0.9999), 1e10, 0.0) for fn in RADIAL_FNS],
    # the approximant's 8 a rho / cos(eta)^2 overflows to inf without raising
    *[(fn, GEN05, 1e300, math.pi / 2 - 1e-10) for fn in RADIAL_FNS],
    # s = 252 and F are finite; A^2 overflows to inf without raising
    (polar_metric_coefficient, GEN09, 1e300, 1.2),
])
def test_radial_overflow_raises_badparams(fn, params, R, eta):
    with pytest.raises(BadParams, match="float range"):
        fn(params, R, eta)


@pytest.mark.parametrize("R", [1e160, 1e200, 1e300])
def test_point_from_polar_beyond_sinh_range_is_finite(R):
    # the radial root s lies below asinh(4 a rho / cos(eta)^2) / (2a), where
    # no sinh of the relation leaves the float range, although sinh(2 a s)
    # at twice that s would
    rec = point_from_polar(GEN09, R, 1.2)
    GEN09.geometry.check_point(rec.u, rec.v)
    assert abs(distance(GEN09, rec.u, rec.v) / R - 1.0) <= 1e-8
    assert math.isfinite(solve_F(GEN09, R, 1.2))


@pytest.mark.parametrize("fn", [approx_F, solve_F, point_from_polar, polar_metric_coefficient])
@pytest.mark.parametrize("params", [GEN05, EXC, HP, FLAT], ids=["GEN05", "EXC", "HP", "FLAT"])
@pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf])
def test_non_finite_radius_is_bad_params(fn, params, R):
    # NaN passes a bare R < 0 check
    with pytest.raises(BadParams):
        fn(params, R, 0.5)


ARRAY_FAMILIES = [InstantonParams(k=k) for k in (-0.9, 0.0, 0.5, 0.9)] + [EXC, HP, FLAT]
ARRAY_IDS = ["GENm09", "GEN", "GEN05", "GEN09", "EXC", "HP", "FLAT"]


@pytest.mark.parametrize("params", ARRAY_FAMILIES, ids=ARRAY_IDS)
def test_points_from_polar_agrees_with_point_from_polar(params):
    # numpy's sinh, cos and arcsinh may round differently from math's in the
    # last place, so the array solve lands within an ulp or so of the scalar
    # root s ~ log of the point's size, not on it; an ulp of s is a relative
    # ulp * s in u and v, hence the log factor in the bound
    rng = random.Random(2024)
    lo, hi = params.geometry.eta_range
    Rs = [10.0 ** rng.uniform(-300.0, 300.0) for _ in range(400)]
    etas = [rng.choice((lo, hi, rng.uniform(lo, hi))) for _ in Rs]
    good, bad = [], []
    for R, eta in zip(Rs, etas):
        try:
            rec = point_from_polar(params, R, eta)
        except BadParams:
            bad.append((R, eta))
        else:
            good.append((R, eta, rec.u, rec.v))
    u, v = points_from_polar(params, [g[0] for g in good], [g[1] for g in good])
    for (R, eta, u0, v0), u1, v1 in zip(good, u.tolist(), v.tolist()):
        tol = 1e-15 * max(1.0, math.log1p(max(abs(u0), abs(v0))))
        assert abs(u1 - u0) <= tol * abs(u0) and abs(v1 - v0) <= tol * abs(v0), (R, eta)
    for R, eta in bad:
        with pytest.raises(BadParams):
            points_from_polar(params, np.array([R, 1.0]), np.array([eta, 0.5 * (lo + hi)]))
    assert len(good) > 300


@pytest.mark.parametrize("params", [GEN05, EXC, HP, FLAT], ids=["GEN05", "EXC", "HP", "FLAT"])
@pytest.mark.parametrize("R,eta", [(math.nan, 0.5), (math.inf, 0.5), (-1.0, 0.5),
                                   (1.0, 2.0), (1.0, -2.0), (1.0, math.nan)])
def test_points_from_polar_rejects_what_point_from_polar_rejects(params, R, eta):
    lo, hi = params.geometry.eta_range
    with pytest.raises(BadParams):
        point_from_polar(params, R, eta)
    with pytest.raises(BadParams):
        points_from_polar(params, np.array([1.0, R]), np.array([0.5 * (lo + hi), eta]))


@pytest.mark.parametrize("params", ARRAY_FAMILIES, ids=ARRAY_IDS)
def test_scalar_results_are_floats(params):
    # the kernels that take floats or arrays use math on floats: no 0-d arrays
    lo, hi = params.geometry.eta_range
    for eta in (lo, 0.7, hi):
        rec = point_from_polar(params, 3.0, eta)
        assert type(rec.u) is float and type(rec.v) is float
        assert type(distance(params, rec.u, rec.v)) is float
        assert type(eikonal_S(params, eta, rec.u, rec.v)) is float


NEAR_AXES = [(1.0, 1.0), (3.0, 1e-3),
             (1.0, 1e-10), (1.0, 1e-200),    # next to the u axis
             (1e-10, 1.0), (1e-14, 2.0)]     # next to the v axis


def _mp50(params):
    """A 50-digit mpmath context with a = sqrt(1+k), b = sqrt(1-k) and the
    mass root sqrt(M / (2 sqrt 2)) of a GeneralizedTN in it."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    a, b = mp.sqrt(1 + mp.mpf(params.k)), mp.sqrt(1 - mp.mpf(params.k))
    return mp, a, b, mp.sqrt(mp.mpf(params.geometry.M) / (2 * mp.sqrt(2)))


def _mp_tan_eta(mp, a, b, u, v):
    """tan(eta) at the root in x = log tan(eta) of the launch-angle relation
    sin(eta) sinh((b/a) asinh(a u / cos eta)) = b v."""
    def h(x):
        t = mp.exp(x)
        return (mp.log(t / mp.sqrt(1 + t * t))
                + mp.log(mp.sinh(b / a * mp.asinh(a * u * mp.sqrt(1 + t * t))))
                - mp.log(b * v))
    return mp.exp(mp.findroot(h, mp.log(mp.mpf(v) / u)))


def _mp_lhs(mp, a, b, c2, s2, s):
    """mass root * R at the log radial parameter s along the geodesic with
    cos^2(eta) = c2, sin^2(eta) = s2."""
    return (c2 / (2 * a) * (mp.sinh(2 * a * s) / 2 + a * s)
            + s2 / (2 * b) * (mp.sinh(2 * b * s) / 2 + b * s))


@pytest.mark.parametrize("k", [0.999999, -0.999999])
@pytest.mark.parametrize("u,v", NEAR_AXES)
def test_solve_eta_matches_mpmath_as_k_nears_pm1(k, u, v):
    params = InstantonParams(k=k)
    mp, a, b, _ = _mp50(params)
    ref = mp.atan(_mp_tan_eta(mp, a, b, u, v))
    got = solve_eta(params, u, v)
    assert abs(got / ref - 1) < 1e-12


@pytest.mark.parametrize("k", [0.999999, -0.999999])
@pytest.mark.parametrize("u,v", NEAR_AXES)
def test_distance_matches_mpmath_as_k_nears_pm1(k, u, v):
    # R along the radial geodesic through (u, v): s from u = cos(eta) sinh(a s) / a
    # at the 50-digit launch angle; measured errors are below 1.8e-16
    params = InstantonParams(k=k)
    mp, a, b, root = _mp50(params)
    t = _mp_tan_eta(mp, a, b, u, v)
    s = mp.asinh(a * u * mp.sqrt(1 + t * t)) / a
    ref = _mp_lhs(mp, a, b, 1 / (1 + t * t), t * t / (1 + t * t), s) / root
    assert abs(distance(params, u, v) / ref - 1) < 1e-15


@pytest.mark.parametrize("k", [0.999999, -0.999999])
@pytest.mark.parametrize("R", [1.0, 30.0])
@pytest.mark.parametrize("eta", [0.0, 1e-200, 1e-10,                 # next to the u axis
                                 0.7, math.pi / 2 - 1e-10, math.pi / 2])   # and the v axis
def test_solve_F_matches_mpmath_as_k_nears_pm1(k, R, eta):
    # F = e^s at the 50-digit root of lhs(s) = mass root * R, which lies below
    # asinh(4 a rho / c2) / (2a) and asinh(4 b rho / s2) / (2b); measured
    # errors are below 4e-15 (F reaches 1.6e9 at R = 30)
    params = InstantonParams(k=k)
    mp, a, b, root = _mp50(params)
    c2, s2, rho = mp.cos(mp.mpf(eta)) ** 2, mp.sin(mp.mpf(eta)) ** 2, root * R
    hi = min(mp.asinh(4 * a * rho / c2) / (2 * a) if c2 else rho,
             mp.asinh(4 * b * rho / s2) / (2 * b) if s2 else rho)
    s = mp.findroot(lambda s: _mp_lhs(mp, a, b, c2, s2, s) - rho, (0, hi), solver="anderson")
    assert abs(solve_F(params, R, eta) / mp.exp(s) - 1) < 1e-14


ROOT_GRID = [GEN, GEN05, GEN09, InstantonParams(k=-0.9), EXC, HP]


@pytest.mark.parametrize("params", ROOT_GRID, ids=["GEN", "GEN05", "GEN09", "GENm09", "EXC", "HP"])
def test_root_solves_take_few_evaluations(params, monkeypatch):
    # a seeded grid like the benchmark's: the launch-angle solve starts at
    # log(v / u) and the radial solve at its closed-form bound, and both stop
    # on a converged Newton/Halley step, so neither needs many evaluations
    counts = []

    def counting(f, lo, hi, **kw):
        counts.append(0)

        def g(x):
            counts[-1] += 1
            return f(x)
        return find_root_monotone(g, lo, hi, **kw)

    monkeypatch.setattr(geodesics, "find_root_monotone", counting)
    rng = random.Random(11)
    eta_lo = params.geometry.eta_range[0]
    for _ in range(200):
        r = 10.0 ** rng.uniform(-2.0, 2.0)
        phi = rng.uniform(max(eta_lo, -1.56), 1.56)
        distance(params, r * math.cos(phi), r * math.sin(phi))
    assert sum(counts) / len(counts) <= 6.0
    counts.clear()
    for _ in range(200):
        point_from_polar(params, 10.0 ** rng.uniform(-2.0, math.log10(700.0)),
                         rng.uniform(max(eta_lo, -1.56), 1.56))
    assert sum(counts) / len(counts) <= 6.0


@pytest.mark.parametrize("eta", [0.0, 1e-200])
def test_approx_F_next_to_the_u_axis_takes_the_u_branch(eta):
    # sin(eta)^2 is 0 there, and the v branch divides by it
    F, branch = approx_F(InstantonParams(k=0.9999), 1e-11, eta)
    assert branch == "u-dominant" and math.isfinite(F)


def test_solve_eta_axes():
    assert solve_eta(GEN05, 2.0, 0.0) == 0.0
    assert solve_eta(GEN05, 0.0, 2.0) == pytest.approx(math.pi / 2.0)


def test_solve_eta_monotone_in_v():
    etas = [solve_eta(GEN05, 1.0, v) for v in np.linspace(0.1, 8.0, 25)]
    assert all(b > a for a, b in zip(etas, etas[1:]))


@pytest.mark.parametrize("params", [GEN05, EXC, HP, FLAT])
@pytest.mark.parametrize("u,v", [(math.nan, 1.0), (1.0, math.nan),
                                 (math.inf, 1.0), (1.0, -math.inf)])
def test_non_finite_point_is_bad_params(params, u, v):
    # a NaN used to fall through to the bracket search (NoBracket)
    with pytest.raises(BadParams):
        solve_eta(params, u, v)
    with pytest.raises(BadParams):
        distance(params, u, v)


@pytest.mark.parametrize("params,u,v", [
    (GEN, -1.0, 0.0), (GEN05, 0.0, -2.0), (GEN05, -1.0, 2.0), (EXC, 0.0, -2.0),
    (EXC, -1.0, 0.0), (HP, -1.0, 0.0), (HP, -1.0, -2.0), (FLAT, -1.0, 0.0)])
def test_off_chart_point_is_bad_params(params, u, v):
    # the axis shortcuts used to answer before the domain check, with a
    # negative distance: distance(GEN, -1, 0) was -1.71
    with pytest.raises(BadParams):
        solve_eta(params, u, v)
    with pytest.raises(BadParams):
        distance(params, u, v)


def test_flat_chart_is_the_half_plane():
    assert eikonal_residual(FLAT, 0.3, 1.0, -1.0) < 1e-6
    assert polytope_curvature_fd(FLAT, 1.0, -1.0) == 0.0
    with pytest.raises(BadParams):
        point_from_polar(FLAT, 1.0, 3.0)
    rec = point_from_polar(FLAT, 2.0, -0.4)
    assert rec.v < 0.0
    assert polar_from_point(FLAT, rec.u, rec.v) == pytest.approx((2.0, -0.4), rel=1e-15, abs=0)


PROPERTY_PARAMS = ([InstantonParams(k=k) for k in (1 - 1e-6, -(1 - 1e-6), 0.5, -0.5, 0.0)]
                   + [InstantonParams(M=M, k=0.5) for M in (1e-8, 1e8)]
                   + [EXC, HP, FLAT])
COORDINATE = st.one_of(st.just(0.0), st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300),
                       st.sampled_from([math.nan, math.inf, -math.inf]))


@given(st.sampled_from(PROPERTY_PARAMS), COORDINATE, COORDINATE)
@example(GEN05, 1e-30, 1.0)      # exp(-2x) rounded to 1 in log(sinh x)
@example(GEN05, 1e-300, 1e-300)
@example(GEN, -1.0, 0.0)         # off the chart, on the v = 0 axis
@example(PROPERTY_PARAMS[0], 1e-300, 1.8e8)   # h' divides by tanh(qA)
@example(PROPERTY_PARAMS[1], 1e-300, 1.8e8)
@example(PROPERTY_PARAMS[0], 5e-324, 1.0)     # q A underflows to 0 in log sinh(qA)
@example(InstantonParams(k=0.999), 7.3e-47, 1.69e176)   # S_eta overflowed to inf
@settings(max_examples=500, deadline=None)
def test_distance_is_finite_and_nonnegative_or_bad_params(params, u, v):
    try:
        d = distance(params, u, v)
    except BadParams:
        return
    assert math.isfinite(d) and d >= 0.0


# ------------------------------------------------------------ polar round trip

@pytest.mark.parametrize("params", [GEN, GEN05, GEN09, EXC])
@pytest.mark.parametrize("R", [0.1, 1.0, 10.0, 100.0])
def test_polar_roundtrip(params, R):
    for eta in ETAS:
        rec = point_from_polar(params, R, eta)
        assert abs(eikonal_S(params, eta, rec.u, rec.v) - R) < 1e-8
        assert unparam_residual(params, eta, rec.u, rec.v) < 1e-8
        R2, eta2 = polar_from_point(params, rec.u, rec.v)
        assert abs(R2 - R) < 1e-8 * max(1.0, R)
        assert abs(eta2 - eta) < 1e-8


@pytest.mark.parametrize("params,lo", [(GEN05, 0.0), (EXC, 0.0),
                                       (HP, -math.pi / 2)])
def test_launch_angle_range(params, lo):
    # the endpoints are the axis geodesics; anything beyond is off the chart
    for eta in (lo, math.pi / 2):
        rec = point_from_polar(params, 3.0, eta)
        assert distance(params, rec.u, rec.v) == pytest.approx(3.0, rel=1e-10, abs=0)
    for eta in (lo - 0.3, math.pi / 2 + 1e-9, 2.0, math.nan):
        with pytest.raises(BadParams):
            point_from_polar(params, 3.0, eta)


def test_distance_closed_form_exceptional():
    # on the geodesic through (u, v) the closed form and the eikonal agree
    for eta in ETAS:
        rec = point_from_polar(EXC, 5.0, eta)
        via_S = eikonal_S(EXC, eta, rec.u, rec.v)
        assert distance(EXC, rec.u, rec.v) == pytest.approx(via_S, rel=1e-12, abs=0)


def test_distance_halfplane_symmetry():
    assert distance(HP, 1.0, -1.0) == pytest.approx(distance(HP, 1.0, 1.0),
                                                    rel=1e-12, abs=0)


def test_distance_frozen_values():
    assert distance(GEN05, 1.0, 1.0) == pytest.approx(2.53409186721,
                                                      rel=1e-12, abs=0)
    assert distance(HP, 1.0, 1.0) == pytest.approx(1.6143105692408874,
                                                   rel=1e-12, abs=0)


@given(st.floats(min_value=0.05, max_value=20.0),
       st.floats(min_value=0.02, max_value=1.55))
@settings(max_examples=60, deadline=None)
def test_roundtrip_random(R, eta):
    rec = point_from_polar(GEN09, R, eta)
    assert abs(distance(GEN09, rec.u, rec.v) - R) < 1e-8 * max(1.0, R)


# ----------------------------------------------------------- radial parameter

def test_solve_F_inverts_radius():
    for eta in ETAS:
        for R in (0.01, 1.0, 50.0, 2000.0):
            F = solve_F(GEN05, R, eta)
            assert radius_from_F(GEN05, eta, F) == pytest.approx(
                R, rel=1e-10, abs=0)


def test_solve_F_origin():
    assert solve_F(GEN05, 0.0, 0.7) == 1.0


def test_approx_F_tracks_true_F():
    # the approximant's implied radius stays within [0.999, 2.2] x R at
    # large R (band frozen from the eta-grid measurements)
    for R in (1e2, 1e3, 1e4):
        for j in range(7):
            eta = j * math.pi / 12.0
            eta = min(eta, math.pi / 2.0 - 1e-9)
            Fa, branch = approx_F(GEN05, R, eta)
            ratio = radius_from_F(GEN05, eta, Fa) / R
            assert 0.999 <= ratio <= 2.2, (R, eta, branch, ratio)


def test_approx_F_needs_positive_R():
    with pytest.raises(BadParams):
        approx_F(GEN05, 0.0, 0.3)


def test_surrogate_ratio_k0_near_branch_jump():
    # at k = 0 the two branches meet with a finite jump; the implied-radius
    # ratio peaks just under 49/16 there, which is why the uniform band on
    # the eta grid is set where it is
    R = 1e3
    ratios = [radius_from_F(GEN, eta, approx_F(GEN, R, eta)[0]) / R
              for eta in np.linspace(0.05, 1.5, 400)]
    assert 2.8 < max(ratios) < 3.2


# ----------------------------------------------------------- unparametrized eq

def test_unparam_residual_on_and_off_geodesic():
    rec = point_from_polar(GEN05, 3.0, 0.8)
    assert unparam_residual(GEN05, 0.8, rec.u, rec.v) < 1e-10
    assert unparam_residual(GEN05, 0.8, rec.u, rec.v + 0.5) > 1e-3


# -------------------------------------------------------------------- ODE leg

@pytest.mark.parametrize("params,eta", [(GEN05, 0.7), (GEN, 1.2), (EXC, 0.4)])
def test_geodesic_shoot(params, eta):
    traj = geodesic_shoot(params, eta, 5.0)
    assert traj.ts[0] == 0.0 and traj.ts[-1] == 5.0
    assert traj.us[0] == traj.vs[0] == 0.0
    assert traj.geodesic_residual < 1e-8
    assert traj.distance_residual < 1e-6


@pytest.mark.parametrize("params,eta,t_end", [
    (EXC, 5.0, 2.0), (GEN05, -0.3, 2.0), (HP, 2.0, 2.0),
    (GEN05, 0.5, math.inf), (GEN05, 0.5, math.nan), (GEN05, 0.5, 0.0), (GEN05, 0.5, -1.0),
])
def test_geodesic_shoot_rejects_bad_inputs(params, eta, t_end):
    # an angle off the chart's range used to shoot a curve that is no
    # radial geodesic; t_end = inf never finished
    with pytest.raises(BadParams):
        geodesic_shoot(params, eta, t_end)


def test_geodesic_shoot_matches_polar_endpoint():
    traj = geodesic_shoot(GEN05, 0.9, 4.0)
    rec = point_from_polar(GEN05, 4.0, 0.9)
    assert abs(traj.us[-1] - rec.u) < 1e-8
    assert abs(traj.vs[-1] - rec.v) < 1e-8


# ------------------------------------------------------------------ polar A^2

def test_polar_coefficient_vs_fd():
    for R in (0.5, 3.0, 20.0):
        for eta in (0.3, 0.8, 1.3):
            A2 = polar_metric_coefficient(GEN05, R, eta)
            fd = polar_metric_coefficient_fd(GEN05, R, eta)
            assert A2 == pytest.approx(fd, rel=1e-6, abs=0)


def test_polar_coefficient_regularity():
    # A ~ R at the origin
    for R in (1e-3, 1e-4):
        A2 = polar_metric_coefficient(GEN05, R, 0.6)
        assert math.sqrt(A2) == pytest.approx(R, rel=5e-3 * math.sqrt(R), abs=0)
    assert polar_metric_coefficient(GEN05, 0.0, 0.6) == 0.0


def test_polar_coefficient_needs_generalized():
    with pytest.raises(WrongFamily):
        polar_metric_coefficient(EXC, 1.0, 0.3)


@pytest.mark.parametrize("v", [1e-8, 1e-10, 1e-12, 1e-14, 1e-200])
@pytest.mark.parametrize("params, sign", [(EXC, 1.0), (HP, 1.0), (HP, -1.0)])
def test_distance_near_the_u_axis(params, sign, v):
    # the launch angle is only known to 1e-13 absolutely here, but S_eta is
    # stationary in eta, so the distance still lands on the axis value
    got = distance(params, 1.0, sign * v)
    assert math.isfinite(got)
    assert abs(got - distance(params, 1.0, 0.0)) <= 1e-12 + v
