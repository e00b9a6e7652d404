import hashlib
import math
import random
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taubnut import geodesics
from taubnut.curvature import polytope_curvature_fd
from taubnut.family import BadParams, Family, InstantonParams, WrongFamily, _launch_cos_sin
from taubnut.numerics import MaxIterExceeded, StepUnderflow, find_root_monotone, ode_solve
from taubnut.geodesics import (distance, eikonal_residual, geodesic_shoot,
                               point_from_polar, points_from_polar, polar_from_point,
                               polar_metric_coefficient,
                               polar_metric_coefficient_fd,
                               solve_eta, solve_F)

GEN = InstantonParams()
GEN05 = InstantonParams(k=0.5)
GEN09 = InstantonParams(k=0.9)
EXC = InstantonParams(family=Family.EXCEPTIONAL_TN)
HP = InstantonParams(family=Family.EXCEPTIONAL_HALF_PLANE)
FLAT = InstantonParams(family=Family.FLAT)


def eikonal_S(params, eta, u, v):
    """S_eta at (u, v): the family's kernel at eta's launch pair."""
    return params.eikonal_S(*_launch_cos_sin(eta), u, v)

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


@pytest.mark.parametrize("params,eta,u,v", [
    (GEN, 1e-299, 1.0, 1e10), (GEN05, 1e-160, 1.0, 1e150), (EXC, 0.7, 1.4e154, 229.0),
    (HP, -0.7, 1.4e154, -229.0), (GEN, 0.7, 1.2e154, 1e154),
    (InstantonParams(M=1e300), 0.7, 7.7e224, 6.5e224)])
def test_eikonal_S_where_a_product_of_its_legs_leaves_the_float_range(params, eta, u, v):
    # c^2 asinh(p / c) was 0 * inf = nan, or a subnormal c^2 times inf, where
    # p / c overflows; p sqrt(c^2 + p^2) overflowed past p = 1.34e154; at
    # M = 1e300 a generalized leg overflowed before S_eta divided it by 6e149
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 40
    c, s = mp.mpf(math.cos(eta)), mp.mpf(math.sin(eta))

    def leg(p, c):
        return (p * mp.sqrt(c * c + p * p) + c * c * mp.asinh(p / c)) / 2
    if params.family is Family.GENERALIZED_TN:
        a, b = mp.sqrt(1 + mp.mpf(params.k)), mp.sqrt(1 - mp.mpf(params.k))
        want = (leg(a * u, c) / a + leg(b * v, s) / b) / mp.sqrt(params.M / (2 * mp.sqrt(2)))
    else:
        want = leg(mp.mpf(u), c) + v * s
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = eikonal_S(params, eta, u, v)
    assert abs(got - want) <= 4e-16 * want


@pytest.mark.parametrize("params,eta,u,v", [
    (InstantonParams(M=1e-300, k=0.8238800895342211), 0.0, 5e-324, 0.0),
    (InstantonParams(M=1e-300), 0.7, 1e-320, 1e-321),
    (InstantonParams(M=1e-300, k=-0.5), 0.3, 3e-322, 2e-323),
    (InstantonParams(M=1e-300, k=0.5), 1.2, 1e-310, 7e-323)])
def test_eikonal_S_where_p_over_c_is_subnormal(params, eta, u, v):
    # c^2 asinh(p / c) kept only the few bits of a subnormal p / c, and S_eta
    # divides the legs by mass_root = 5.9e-151 here, so the lost bits showed:
    # at the first point S_eta was 7.23e-174, 13% below the true 8.31e-174
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 40
    c, s = mp.mpf(math.cos(eta)), mp.mpf(math.sin(eta))
    a, b = mp.sqrt(1 + mp.mpf(params.k)), mp.sqrt(1 - mp.mpf(params.k))

    def leg(p, c):
        return (p * mp.sqrt(c * c + p * p) + (c * c * mp.asinh(p / c) if c else 0)) / 2
    want = (leg(a * u, c) / a + leg(b * v, s) / b) / mp.sqrt(params.M / (2 * mp.sqrt(2)))
    got = eikonal_S(params, eta, u, v)
    assert abs(got - want) <= 4e-16 * want
    if eta == 0.0:   # on the u axis the distance is S_0
        assert abs(distance(params, u, v) - want) <= 4e-16 * want


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
    params.check_point(rec.u, rec.v)   # finite and on the chart
    assert distance(params, rec.u, rec.v) == pytest.approx(R, rel=1e-15, abs=1e-8)


@pytest.mark.parametrize("params,R,eta", [
    (GEN05, 1e-320, 0.2), (InstantonParams(k=-0.999999), 1e-310, 0.5),
])
def test_point_from_polar_subnormal_radius(params, R, eta):
    # the root s = rho - O(rho^3) rounds to its bound rho, and the relation's
    # subnormal rounding can leave f(rho) < 0: the bracket is padded past it
    rec = point_from_polar(params, R, eta)
    params.check_point(rec.u, rec.v)
    eik = abs(eikonal_S(params, eta, rec.u, rec.v) - R)
    assert eik <= 1e-10 * R + 1e-322   # subnormal rounding


@pytest.mark.parametrize("R", [math.inf, math.nan])
def test_point_from_polar_non_finite_radius_is_bad_params(R):
    with pytest.raises(BadParams):
        point_from_polar(FLAT, R, 0.3)


@pytest.mark.parametrize("fn,value", [
    (solve_F, lambda F: F),
    (polar_metric_coefficient, lambda A2: A2),
], ids=["solve_F", "polar_metric_coefficient"])
def test_radial_functions_finite_as_k_nears_1(fn, value):
    # a / b = sqrt((1+k) / (1-k)) is about 141 here
    assert math.isfinite(value(fn(InstantonParams(k=0.9999), 1000.0, 0.5)))


RADIAL_FNS = (solve_F, polar_metric_coefficient)


@pytest.mark.parametrize("fn,params,R,eta", [
    # F = e^s (s = 1025) and A^2 pass the float range
    *[(fn, InstantonParams(k=-0.9999), 1e10, 0.0) for fn in RADIAL_FNS],
    # next to the v axis at R = 1e300 a term of the radial relation overflows
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
    GEN09.check_point(rec.u, rec.v)
    assert abs(distance(GEN09, rec.u, rec.v) / R - 1.0) <= 1e-8
    assert math.isfinite(solve_F(GEN09, R, 1.2))


@pytest.mark.parametrize("fn", [solve_F, point_from_polar, polar_metric_coefficient])
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
    lo, hi = params.eta_range
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


def test_points_from_polar_rejects_a_point_it_solves_off_the_chart(monkeypatch):
    # no input is known to solve to a point off the chart; one that did (a
    # NaN from the family's polar_point here) is BadParams for the whole call
    polar_point = type(GEN05).polar_point

    def nan_at_2(self, R, c, s, solve):
        u, v = polar_point(self, R, c, s, solve)
        return u, np.where(R == 2.0, math.nan, v)
    monkeypatch.setattr(type(GEN05), "polar_point", nan_at_2)
    with pytest.raises(BadParams, match="not a finite point"):
        points_from_polar(GEN05, [1.0, 2.0, 3.0], 0.7)


@pytest.mark.parametrize("params", [GEN05, EXC, HP, FLAT], ids=["GEN05", "EXC", "HP", "FLAT"])
@pytest.mark.parametrize("R,eta", [(math.nan, 0.5), (math.inf, 0.5), (-1.0, 0.5),
                                   (1.0, 2.0), (1.0, -2.0), (1.0, math.nan)])
def test_points_from_polar_rejects_what_point_from_polar_rejects(params, R, eta):
    lo, hi = params.eta_range
    with pytest.raises(BadParams):
        point_from_polar(params, R, eta)
    with pytest.raises(BadParams):
        points_from_polar(params, np.array([1.0, R]), np.array([0.5 * (lo + hi), eta]))


def _distance_corpus(params, rng):
    """Seeded points from 1e-300 to 1e150 (v signed on the half-plane), the
    origin, both axes and points whose launch angle rounds to 0 or to pi/2
    (past the ends of the launch-angle bracket, where the solve has none)."""
    signed = params.bounds[1][0] < 0.0
    points = [(10.0 ** rng.uniform(-300.0, 150.0),
               10.0 ** rng.uniform(-300.0, 150.0) * (rng.choice((-1.0, 1.0)) if signed else 1.0))
              for _ in range(400)]
    points += [(0.0, 0.0), (2.0, 0.0), (0.0, 3.0), (1e-300, 0.0), (0.0, 1e150),
               (1e10, 5e-324), (1e150, 1e-300), (1e-300, 1.0), (1e-300, 1e100)]
    if signed:
        points += [(0.0, -3.0), (1e-300, -1.0), (1e10, -5e-324), (1.0, -1.0)]
    return points


@pytest.mark.parametrize("params", ARRAY_FAMILIES, ids=ARRAY_IDS)
def test_distance_rejects_off_domain_and_overflowing_points(params):
    bad = [(-1.0, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.7e308, 1.7e308)]
    if params.bounds[1][0] == 0.0:
        bad.append((1.0, -1.0))
    for u, v in bad:
        with pytest.raises(BadParams):
            distance(params, u, v)


def unparam_residual(params, eta, u, v, pair=None):
    """The shoot's unparametrized residual at the one point (u, v), at the
    library's (cos eta, sin eta) or at the given pair."""
    c, s = pair or _launch_cos_sin(eta)
    return geodesics._unparam_residuals(params, eta, c, s, [u], [v])[0]


def _unparam_terms(params, eta, u, v):
    """The two terms whose difference unparam_residual is, in floats."""
    c, s = _launch_cos_sin(eta)
    if s == 0.0:
        return 0.0, v
    if c == 0.0:
        return u, 0.0
    if params.family is Family.FLAT:
        return u * s, v * c
    def asinh_ratio(p, c):   # log(2p) - log(c) past the float range of p / c
        return math.asinh(p / c) if p / c < math.inf else math.log(2.0 * p) - math.log(c)
    if params.family is Family.GENERALIZED_TN:
        return asinh_ratio(params.a * u, c) / params.a, asinh_ratio(params.b * v, s) / params.b
    return asinh_ratio(u, c), v / s


@pytest.mark.parametrize("params", ARRAY_FAMILIES, ids=ARRAY_IDS)
def test_array_unparam_residual_agrees_with_the_scalar_one(params):
    # a residual is the difference of two terms, each within an ulp or so of
    # the terms taken here; the float below pi/2 takes a ratio of them past
    # the float range (1e-310 is the u-axis), and where a residual is past it
    # too the call raises BadParams
    rng = random.Random(23)
    lo, hi = params.eta_range
    points = _distance_corpus(params, rng) + [(1e300, 1e300)]
    for eta in (lo, 0.0, 1e-310, 1e-3, 0.7, hi - 1e-9, 1.5707963267948963, hi):
        good = 0
        for u, v in ((u, abs(v) if eta >= 0.0 else -abs(v)) for u, v in points):
            t0, t1 = _unparam_terms(params, eta, u, v)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if not math.isfinite(t0 - t1):
                    with pytest.raises(BadParams):
                        unparam_residual(params, eta, u, v)
                    continue
                r = unparam_residual(params, eta, u, v)
            assert abs(r - abs(t0 - t1)) <= 1e-15 * (abs(t0) + abs(t1)), (eta, u, v)
            good += 1
        assert good > 250


@pytest.mark.parametrize("params,eta,u,v", [
    (GEN05, 1.5707963267948963, 1e300, 1e300), (GEN05, 1e-310, 1.0, 1.0),
    (GEN, 1e-310, 1e300, 1e300), (GEN09, 1e-310, 3.0, 1e300),
    (EXC, 1.5707963267948963, 1e300, 2.0)])
def test_unparam_residual_past_the_float_range_of_a_ratio(params, eta, u, v):
    # a u / cos(eta) or b v / sin(eta) overflowed, and the residual was inf;
    # the pair is math's, as the library's takes 1e-310 as the u-axis
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 40
    pair = math.cos(eta), math.sin(eta)
    c, s = map(mp.mpf, pair)   # as the residual takes them
    if params.family is Family.GENERALIZED_TN:
        a, b = mp.mpf(params.a), mp.mpf(params.b)
        terms = mp.asinh(a * u / c) / a, mp.asinh(b * v / s) / b
    else:
        terms = mp.asinh(u / c), v / s
    want = abs(terms[0] - terms[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = unparam_residual(params, eta, u, v, pair)
        assert abs(got - want) <= 1e-15 * (abs(terms[0]) + abs(terms[1]))


@pytest.mark.parametrize("params,u,v", [(EXC, 1.0, 1.0), (HP, 1.0, -1.0), (EXC, 1e300, 1e300)])
def test_unparam_residual_beyond_the_float_range_raises(params, u, v):
    # the exceptional v / sin(eta) term itself is past the float range at
    # math's sine of eta = 1e-310 (the library's pair takes it as the u-axis)
    eta = math.copysign(1e-310, v)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParams, match="beyond the float range"):
            unparam_residual(params, eta, u, v, (math.cos(eta), math.sin(eta)))


@pytest.mark.parametrize("params", ARRAY_FAMILIES, ids=ARRAY_IDS)
def test_scalar_results_are_floats(params):
    # the kernels that take floats or arrays use math on floats: no 0-d arrays
    lo, hi = params.eta_range
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
    return mp, a, b, mp.sqrt(mp.mpf(params.M) / (2 * mp.sqrt(2)))


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
    # the float pi/2 is the v-axis, as the library's launch-angle pair takes it
    c2 = 0 if eta == math.pi / 2 else mp.cos(mp.mpf(eta)) ** 2
    s2, rho = mp.sin(mp.mpf(eta)) ** 2, root * R
    hi = min(mp.asinh(4 * a * rho / c2) / (2 * a) if c2 else rho,
             mp.asinh(4 * b * rho / s2) / (2 * b) if s2 else rho)
    s = mp.findroot(lambda s: _mp_lhs(mp, a, b, c2, s2, s) - rho, (0, hi), solver="anderson")
    assert abs(solve_F(params, R, eta) / mp.exp(s) - 1) < 1e-14


ROOT_GRID = [GEN, GEN05, GEN09, InstantonParams(k=-0.9), EXC, HP]


@pytest.mark.parametrize("params", ROOT_GRID, ids=["GEN", "GEN05", "GEN09", "GENm09", "EXC", "HP"])
def test_root_solves_take_few_evaluations(params, monkeypatch):
    # a seeded grid like the benchmark's: the launch-angle solve starts at
    # log(v / u) and the radial solve at its closed-form bound, and both stop
    # on a converged Newton/Halley step, so neither needs many evaluations:
    # of the launch-angle residual, then of the radial relation's f
    counts = []

    def counted(f):
        counts.append(0)

        def g(x):
            counts[-1] += 1
            return f(x)
        return g

    solve_radial = geodesics._solve_radial
    monkeypatch.setattr(geodesics, "find_root_monotone",
                        lambda f, lo, hi, **kw: find_root_monotone(counted(f), lo, hi, **kw))
    monkeypatch.setattr(geodesics, "_solve_radial",
                        lambda relation: solve_radial((counted(relation[0]), relation[1])))
    rng = random.Random(11)
    eta_lo = params.eta_range[0]
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


def test_radial_solve_on_arrays_repeats_the_float_solve_bit_for_bit():
    # a relation of +, -, * and / rounds alike on floats and arrays, so each
    # element of one array solve, frozen once it stops while the others go
    # on, lands on the bits of its own float solve
    rhos = [0.0, 1e-300, 0.5, 2.0, 1e3, 1e12]

    def cubic(rho):   # s^3 + s - rho: slope >= 1, convex on s >= 0, root <= rho
        return lambda s: (s * s * s + s - rho, 3.0 * s * s + 1.0, 6.0 * s)
    roots = geodesics._solve_radial((cubic(np.array(rhos)), np.array(rhos)))
    assert roots.tolist() == [geodesics._solve_radial((cubic(rho), rho)) for rho in rhos]


def test_radial_solve_runs_out_of_iterations():
    # a relation whose Halley steps never shrink (a constant value over a
    # constant slope) cannot converge: past 200 iterations the solve raises,
    # on floats and on arrays, where one such element is enough
    with pytest.raises(MaxIterExceeded):
        geodesics._solve_radial((lambda s: (1.0, 1.0, 0.0), 5.0))
    converges = np.array([False, True])

    def f(s):
        return np.where(converges, s, 1.0), 1.0 + 0.0 * s, 0.0 * s
    with pytest.raises(MaxIterExceeded):
        geodesics._solve_radial((f, np.array([5.0, 5.0])))


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


K05_CALLS = {   # a launch angle off the quadrant's [0, pi/2] at k = 0.5
    "solve_F": lambda eta: solve_F(GEN05, 3.0, eta),
    "polar_metric_coefficient": lambda eta: polar_metric_coefficient(GEN05, 3.0, eta),
    "point_from_polar": lambda eta: point_from_polar(GEN05, 3.0, eta),
    "trace_level": lambda eta: geodesics.trace_level(GEN05, eta, 1.0, [1.0], [1.0], [1.0]),
    "eikonal_residual": lambda eta: eikonal_residual(GEN05, eta, 1.0, 1.0),
    "geodesic_shoot": lambda eta: geodesic_shoot(GEN05, eta, 2.0),
    "points_from_polar": lambda eta: points_from_polar(GEN05, [1.0, 3.0], [0.5, eta]),
}


@pytest.mark.parametrize("eta", [5.0, -0.5, math.nan, math.inf])
@pytest.mark.parametrize("name", K05_CALLS)
def test_every_function_of_eta_checks_its_range(name, eta):
    # each returned a number at eta = 5 (solve_F 4.07, polar_metric_coefficient
    # 24.5, eikonal_residual 0.41) and NaN ran the root
    # solve out of iterations
    with pytest.raises(BadParams, match="launch angle"):
        K05_CALLS[name](eta)


def _shoot_residual(params, eta, u, v):
    return max(geodesic_shoot(params, eta, math.hypot(u, v), n_samples=2).unparam_residuals)


@pytest.mark.parametrize("fn", [eikonal_residual, _shoot_residual])
def test_eikonal_and_unparam_residual_check_eta_at_k0(fn):
    # at k = 0 the eikonal S_eta and the shoot returned 1.23 and 2.88
    with pytest.raises(BadParams, match="launch angle"):
        fn(GEN, 5.0, 1.0, 1.0)
    assert math.isfinite(fn(HP, -0.5, 1.0, -1.0))   # the half-plane's range


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


def _bits_of(fn, *args) -> str:
    """float.hex of each float fn returns, or the name of the error it raises."""
    try:
        out = fn(*args)
    except BadParams:
        return "BadParams"
    return " ".join(map(float.hex, out if isinstance(out, tuple) else (out,)))


def test_scalar_solves_keep_their_bits():
    # float.hex of distance, solve_eta and point_from_polar at seeded points of
    # the geodesic-grid benchmark's seven families, from subnormal radii to
    # 1e300, hashed: the literal is the digest of the formulas before their
    # scalar paths were streamlined, so a change that moves a last bit fails
    rng = random.Random(1602)
    digest = hashlib.sha256()
    for params in [InstantonParams(k=k) for k in (-0.9, 0.0, 0.5, 0.9)] + [EXC, HP, FLAT]:
        lo, hi = params.eta_range
        for scale in (1e-315, 1e-100, 1e-2, 1.0, 1e2, 1e100, 1e300):
            for _ in range(12):
                r, phi = scale * 10.0 ** rng.uniform(-1.0, 1.0), rng.uniform(lo, hi)
                u, v = r * math.cos(phi), r * math.sin(phi)
                for fn, args in ((distance, (u, v)), (solve_eta, (u, v)), (point_from_polar, (r, phi))):
                    digest.update(_bits_of(fn, params, *args).encode())
    assert digest.hexdigest() == "fbe06d5d76be57f29bdb78548048039fec186c747a25f41250b668f8fb2a1e7b"


@given(st.floats(min_value=0.05, max_value=20.0),
       st.floats(min_value=0.02, max_value=1.55))
@settings(max_examples=60, deadline=None)
def test_roundtrip_random(R, eta):
    rec = point_from_polar(GEN09, R, eta)
    assert abs(distance(GEN09, rec.u, rec.v) - R) < 1e-8 * max(1.0, R)


# ----------------------------------------------------------- radial parameter

def test_solve_F_inverts_radius():
    # the generalized family's radial relation at s = log F, written out:
    # R = [cos^2/(2a) (sinh(2as)/2 + as) + sin^2/(2b) (sinh(2bs)/2 + bs)] / sqrt(M / (2 sqrt2))
    a, b = math.sqrt(1.5), math.sqrt(0.5)
    for eta in ETAS:
        for R in (0.01, 1.0, 50.0, 2000.0):
            s = math.log(solve_F(GEN05, R, eta))
            lhs = (math.cos(eta) ** 2 / (2 * a) * (0.5 * math.sinh(2 * a * s) + a * s)
                   + math.sin(eta) ** 2 / (2 * b) * (0.5 * math.sinh(2 * b * s) + b * s))
            assert lhs / math.sqrt(GEN05.M / (2.0 * math.sqrt(2.0))) == pytest.approx(
                R, rel=1e-10, abs=0)


def test_solve_F_origin():
    assert solve_F(GEN05, 0.0, 0.7) == 1.0


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
    assert max(traj.unparam_residuals) < 1e-8
    assert max(abs(R - t) for R, t in zip(traj.distances, traj.ts)) < 1e-6


def _shoot_bits(*args, **kwargs) -> bytes:
    """The packed floats of every list geodesic_shoot returns and its nfev, or
    the name of the error it raises."""
    try:
        traj = geodesic_shoot(*args, **kwargs)
    except (BadParams, StepUnderflow) as exc:
        return type(exc).__name__.encode()
    floats = [*traj.ts, *traj.us, *traj.vs, *traj.distances, *traj.unparam_residuals]
    return struct.pack(f"<{len(floats)}dq", *floats, traj.nfev)


def test_shoot_keeps_its_bits():
    # geodesic_shoot at seeded shots of every family, generalized also at
    # M != sqrt(2), on both axes and near the u-axis, t_end from 1e-3 to 1e3
    # and 1e300, 1 to 200 samples, and ode_solve on the stiff system of
    # test_nfev_counts_every_call, hashed: the literal is the digest of the
    # shoot before its DOP853 stages moved into locals, so a change that
    # moves a last bit or an nfev fails
    rng = random.Random(3301)
    digest = hashlib.sha256()
    for params in (GEN05, InstantonParams(M=7.5, k=-0.9), InstantonParams(M=0.1), EXC, HP, FLAT):
        lo, hi = params.eta_range
        etas = [0.0, 1e-320, hi] + ([-0.7, -1e-320, lo] if lo < 0.0 else [])
        shots = [(eta, 10.0 ** rng.uniform(-3.0, 3.0))
                 for eta in etas + [rng.uniform(lo, hi) for _ in range(2)] for _ in range(2)]
        for eta, t_end in shots + [(rng.uniform(lo, hi), 1e300)]:
            digest.update(_shoot_bits(params, eta, t_end, n_samples=rng.choice((1, 2, 64, 200))))
    sol = ode_solve(lambda y: (-100.0 * y[0], -100.0 * y[1]), [1.0, 1.0], np.linspace(0.0, 1.0, 30))
    digest.update(struct.pack("<60dq", *(c for y in sol.ys for c in y), sol.nfev))
    assert digest.hexdigest() == "c298077208b066075b2c4887efc318142c5d42cd685cfcad6491dfbfe9451de4"


@pytest.mark.parametrize("t_end,n_samples", [
    (5.0, 1), (5.0, 2), (5.0, 64), (20.0, 40), (1.7e308, 3), (5e-324, 64), (1e-320, 200)])
def test_geodesic_shoot_samples_the_times_of_linspace(t_end, n_samples):
    # the times are numpy's linspace(0, t_end, n_samples) in floats, also
    # where t_end / (n_samples - 1) underflows to 0 and linspace divides first
    traj = geodesic_shoot(GEN05, 0.7, t_end, n_samples=n_samples)
    assert traj.ts == np.linspace(0.0, t_end, n_samples).tolist()
    assert all(type(x) is float for x in traj.ts + traj.us + traj.vs + traj.distances
               + traj.unparam_residuals)


@pytest.mark.parametrize("params", [GEN05, EXC, HP, FLAT], ids=["GEN05", "EXC", "HP", "FLAT"])
def test_shoot_certificate_sees_a_wrong_speed(params, monkeypatch):
    # negative control: a shoot 1e-6 too fast ends 1e-6 t_end past distance t_end
    shoot_rhs = type(params).shoot_rhs

    def fast(self, c, s):
        rhs = shoot_rhs(self, c, s)
        return lambda y: tuple((1.0 + 1e-6) * w for w in rhs(y))
    monkeypatch.setattr(type(params), "shoot_rhs", fast)
    traj = geodesic_shoot(params, 0.7, 5.0)
    assert max(abs(R - t) for R, t in zip(traj.distances, traj.ts)) >= 5e-7 * 5.0


@pytest.mark.parametrize("params", [GEN05, EXC, HP, FLAT], ids=["GEN05", "EXC", "HP", "FLAT"])
def test_shoot_certificate_sees_a_wrong_angle(params, monkeypatch):
    # negative control: a shoot integrated at eta + 1e-6 and certified at eta
    shoot_rhs = type(params).shoot_rhs
    monkeypatch.setattr(type(params), "shoot_rhs",
                        lambda self, c, s: shoot_rhs(self, math.cos(0.7 + 1e-6), math.sin(0.7 + 1e-6)))
    traj = geodesic_shoot(params, 0.7, 5.0)
    assert max(traj.unparam_residuals) > 1e-9


@pytest.mark.parametrize("t_end", [0.5, 5.0, 50.0])
@pytest.mark.parametrize("params,eta", [
    (params, eta) for params in (GEN05, EXC, HP, FLAT)
    for eta in (0.01, math.pi / 4, math.pi / 2 - 0.01)] + [(HP, -math.pi / 4)])
def test_shoot_ends_at_the_polar_point(params, eta, t_end):
    # the ODE route and the closed-form polar chart agree on where the
    # eta-geodesic is at distance t_end, near both axes and between them
    traj = geodesic_shoot(params, eta, t_end, n_samples=2)
    end = point_from_polar(params, t_end, eta)
    miss = math.hypot(traj.us[-1] - end.u, traj.vs[-1] - end.v)
    assert miss <= 1e-10 * math.hypot(end.u, end.v)


@pytest.mark.parametrize("R", [5.0, 1e10])
@pytest.mark.parametrize("params,eta", [
    (params, sign * (math.pi / 2)) for params in (GEN05, GEN09, EXC, HP, FLAT)
    for sign in ((1.0, -1.0) if params.eta_range[0] < 0.0 else (1.0,))],
    ids=["GEN05", "GEN09", "EXC", "HP", "HP-neg", "FLAT", "FLAT-neg"])
def test_the_float_pi_over_2_is_the_v_axis_on_both_routes(params, eta, R):
    # the polar chart took math.cos's 6e-17 at the float pi/2 and the shoot
    # cos 0: at k = 0.9 and R = 1e10 they ended at (76710.6, 138099.0) and
    # at (0, 211474.25).  Both now read one launch-angle pair
    end = point_from_polar(params, R, eta)
    traj = geodesic_shoot(params, eta, R, n_samples=2)
    assert end.u == 0.0 and traj.us[-1] == 0.0
    assert abs(traj.vs[-1] - end.v) <= 1e-12 * abs(end.v)


@pytest.mark.parametrize("params,eta,u,v", [
    (GEN, 0.7, 1.2e154, 1e154), (GEN05, 0.3, 3e307, 1e-3), (GEN, 1.2, 0.0, 1.5e154),
    (EXC, 0.7, 1.4e154, 229.0), (HP, -0.7, 1.4e154, -229.0), (EXC, 0.7, 1e307, 1.0)])
def test_shoot_rhs_past_the_square_of_the_float_range(params, eta, u, v):
    # 1 + u^2 in the right-hand side overflowed to inf before u did: the
    # velocity was 0 there, and the shoot stood still while t ran on
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 40
    c, s = mp.cos(eta), mp.sin(eta)
    if params.family is Family.GENERALIZED_TN:
        au, bv = mp.sqrt(1 + mp.mpf(params.k)) * u, mp.sqrt(1 - mp.mpf(params.k)) * v
        scale = mp.sqrt(params.M / (2 * mp.sqrt(2))) / (1 + au * au + bv * bv)
        want = (scale * mp.hypot(c, au), scale * mp.hypot(s, bv))
    else:
        want = (mp.hypot(c, u) / (1 + mp.mpf(u) ** 2), s / (1 + mp.mpf(u) ** 2))
    got = params.shoot_rhs(math.cos(eta), math.sin(eta))((u, v))
    for g, w in zip(got, want):
        assert abs(g - w) <= 4e-16 * abs(w) + 1e-323   # a velocity under the floats is 0


def test_a_reduced_distance_beyond_the_float_range_is_bad_params():
    # sqrt(M / (2 sqrt 2)) R overflowed to inf at M = 1e300, R = 1.7e308, and
    # the radial relation's inf - inf gave the float solve the point (inf, inf)
    # and the array solve an invalid-value warning (contour exited 1)
    params = InstantonParams(M=1e300)
    with pytest.raises(BadParams, match="radial relation"):
        solve_F(params, 1.7e308, 0.3)
    with pytest.raises(BadParams, match="radial relation"):
        points_from_polar(params, np.array([1.0, 1.7e308]), np.array([0.0, 0.3]))
    assert math.isfinite(point_from_polar(params, 1e150, 0.3).u)


@pytest.mark.parametrize("params,t_end", [
    (InstantonParams(), 1.7e308), (InstantonParams(k=0.5), 1e308),
    (InstantonParams(k=-0.5), 1e308)])
def test_geodesic_shoot_stalls_at_the_float_range(params, t_end, monkeypatch):
    # at M = 5e-324 the speed sqrt(M / (2 sqrt 2)) / D underflowed to 0 at the
    # origin, and the shoot stood still while t ran on.  Such a mass is now
    # BadParams and no valid shoot is known to stall, so the check is reached
    # by a right-hand side that returns zero velocity
    monkeypatch.setattr(type(params), "shoot_rhs", lambda self, c, s: lambda y: (0.0, 0.0))
    with pytest.raises(BadParams, match="stalled"):
        geodesic_shoot(params, 0.7, t_end, n_samples=2)


def test_geodesic_shoot_at_the_float_range():
    # the shoot to 1.7e308 stood still at u = 1.0e154, where the right-hand
    # side's 1 + (a u)^2 + (b v)^2 overflowed (above)
    traj = geodesic_shoot(GEN, 0.7, 1.7e308, n_samples=3)
    assert max(abs(R - t) for R, t in zip(traj.distances, traj.ts)) <= 1e-12 * 1.7e308
    assert max(traj.unparam_residuals) <= 1e-9


def test_geodesic_shoot_rejects_a_sample_whose_S_eta_is_not_a_float(monkeypatch):
    # no shoot is known to reach a sample whose S_eta leaves the float range
    # while the sample stays a float; one that did is BadParams
    monkeypatch.setattr(type(GEN05), "eikonal_S",
                        lambda self, c, s, u, v: np.where(u > 1.0, math.inf, u))
    with pytest.raises(BadParams, match="S_eta at a sample"):
        geodesic_shoot(GEN05, 0.7, 5.0)


@pytest.mark.parametrize("params,eta,t_end", [
    (EXC, 5.0, 2.0), (GEN05, -0.3, 2.0), (HP, 2.0, 2.0),
    (GEN05, 0.5, math.inf), (GEN05, 0.5, math.nan), (GEN05, 0.5, 0.0), (GEN05, 0.5, -1.0),
])
def test_geodesic_shoot_rejects_bad_inputs(params, eta, t_end):
    # an angle off the chart's range used to shoot a curve that is no
    # radial geodesic; t_end = inf never finished
    with pytest.raises(BadParams):
        geodesic_shoot(params, eta, t_end)


@pytest.mark.parametrize("n_samples", [0, -3, 1.5])
def test_geodesic_shoot_rejects_a_bad_sample_count(n_samples):
    # 0 leaked a ValueError from np.concatenate, -3 one from np.linspace and
    # 1.5 a TypeError
    with pytest.raises(BadParams, match="n_samples"):
        geodesic_shoot(GEN05, 0.5, 2.0, n_samples=n_samples)


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


def test_polar_coefficient_fd_beyond_the_float_range_is_bad_params():
    # the FD oracle returned inf where the closed form raises BadParams
    with pytest.raises(BadParams):
        polar_metric_coefficient(GEN05, 1e200, 0.7)
    with pytest.raises(BadParams):
        polar_metric_coefficient_fd(GEN05, 1e200, 0.7)


@pytest.mark.parametrize("R", [1e40, 1e100])
def test_polar_coefficient_fd_lost_to_rounding_is_bad_params(R):
    # u ~ 1e50 against du/deta ~ 2e29 at R = 1e100: the FD oracle returned
    # float noise (6.6e181 where A^2 = 4.6e158), 0.4 % off already at 1e40
    with pytest.raises(BadParams, match="lost to rounding"):
        polar_metric_coefficient_fd(GEN05, R, 0.7)


@pytest.mark.parametrize("R, bits", [
    (0.5, "0x1.1365bd8265555p-2"), (20.0, "0x1.4acd15effc6b4p+9"),
    (1e10, "0x1.61c9edbe94de2p+55"), (1e20, "0x1.d2579970e78f1p+107")])
def test_polar_coefficient_fd_keeps_its_step(R, bits):
    # where the differences hold, the oracle is the step-1e-5 value it always was
    assert polar_metric_coefficient_fd(GEN05, R, 0.7).hex() == bits


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
