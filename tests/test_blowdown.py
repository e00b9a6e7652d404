import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taubnut.blowdown import (CONIFOLD_FIBER_LIMIT_FACTOR, FINITE_FIBER_TOPOLOGY,
                              LIMIT_FIBER_TOPOLOGY, SingularAxis,
                              blowdown_distance,
                              blowdown_distance_gradient_deficit,
                              blowdown_xy_from_uv,
                              conifold_curvatures, conifold_limit_residual,
                              conifold_metric, conifold_polytope_curvature_fd,
                              conifold_ricci_fd, exceptional_blowdown_curvature,
                              exceptional_blowdown_curvature_fd,
                              exceptional_blowdown_limit_residual,
                              exceptional_blowdown_metric,
                              halfplane_swap_residual, pointed_limit_fiber,
                              pointed_limit_halfplane,
                              pointed_limit_moments_limit,
                              second_blowdown_conformal_xy,
                              second_blowdown_limit_residual,
                              second_blowdown_metric,
                              second_blowdown_moment_residual)
from taubnut.family import BadParams, InstantonParams

SQRT2 = math.sqrt(2.0)


# ------------------------------------------------------------------- conifold

def test_conifold_metric_forms():
    k, u, v = 0.5, 1.1, 0.7
    conformal, fiber_scalar = conifold_metric(k, u, v)
    P = (1.0 + k) * u * u + (1.0 - k) * v * v
    assert conformal == pytest.approx(P, rel=1e-15, abs=0)
    assert fiber_scalar == pytest.approx(
        u * u * v * v * (u * u + v * v) / P, rel=1e-15, abs=0)
    with pytest.raises(SingularAxis):
        conifold_metric(k, 0.0, 0.0)
    with pytest.raises(SingularAxis):
        conifold_curvatures(k, 0.0, 0.0)
    with pytest.raises(BadParams, match=r"\|k\| < 1"):
        conifold_metric(1.5, 1.0, 1.0)


#: every function of k, with the arguments after k
FUNCTIONS_OF_K = [(fn, (1.0, 1.0)) for fn in (
    conifold_metric, conifold_curvatures, conifold_ricci_fd, conifold_polytope_curvature_fd,
    blowdown_distance, blowdown_distance_gradient_deficit, second_blowdown_metric,
    second_blowdown_moment_residual, second_blowdown_conformal_xy)] + [
    (conifold_limit_residual, (1.0, 1.0, 1e3)), (second_blowdown_limit_residual, (1.0, 1.0, 1e3))]


@pytest.mark.parametrize("k", [-1.0, 1.0, 1.5, math.nan])
@pytest.mark.parametrize("fn,args", FUNCTIONS_OF_K, ids=[fn.__name__ for fn, _ in FUNCTIONS_OF_K])
def test_every_limit_of_k_has_the_family_bound(fn, args, k):
    # one bound, |k| < 1, with GeneralizedTN's message
    with pytest.raises(BadParams) as family:
        InstantonParams(k=k)
    with pytest.raises(BadParams) as limit:
        fn(k, *args)
    assert str(limit.value) == str(family.value)


@pytest.mark.parametrize("residual", [conifold_limit_residual, second_blowdown_limit_residual])
def test_conifold_leaf_residual_is_exact_mass_term(residual):
    # lam_scaled - P = sqrt(2 sqrt2 / M), exactly, independent of the point
    # (checked here in 300-bit arithmetic through the family's own conformal
    # factor at (c u, c v)); both tables return it to an ulp of its 300-bit
    # value.  Taken as that difference in floats, it was off by up to 1.6e-12
    from types import SimpleNamespace

    import mpmath
    from taubnut.family import GeneralizedTN
    with mpmath.workprec(300):
        r2 = mpmath.sqrt(2)
        for k in (0.0, 0.5, -0.9):
            mk = mpmath.mpf(k)
            for u, v in ((0.4, 1.3), (2.0, 0.1), (1.0, 1.0), (0.7, 1.3), (2.5, 0.2)):
                for M in (1e-3, 1.0, 1e2, 1e3, 1e4, 1e5, 1e6, 1e12):
                    exact = mpmath.sqrt(2 * r2 / M)
                    c = (M / (2 * r2)) ** mpmath.mpf(0.25)
                    lam = GeneralizedTN.conformal_factor(   # the float sqrt 2 scaled out
                        SimpleNamespace(k=mk, M=mpmath.mpf(M)), c * u, c * v) * r2 / SQRT2
                    P = (1 + mk) * u * u + (1 - mk) * v * v
                    assert abs((lam * c * c - P) / exact - 1) < mpmath.mpf(2) ** -250
                    leaf = residual(k, u, v, M)[0]
                    assert abs(leaf - exact) <= sys.float_info.epsilon * exact, (k, u, v, M)


def test_conifold_residuals_decay_with_rate():
    leafs, fibers = [], []
    for M in (1e2, 1e3, 1e4, 1e5):
        leaf, fib = conifold_limit_residual(0.5, 1.0, 0.8, M)
        leafs.append(leaf)
        fibers.append(fib)
    for seq in (leafs, fibers):
        assert all(b < a for a, b in zip(seq, seq[1:]))
    # leaf rate exactly M^(-1/2): ratio sqrt(10) per decade
    for a, b in zip(leafs, leafs[1:]):
        assert a / b == pytest.approx(math.sqrt(10.0), rel=1e-6, abs=0)


def test_conifold_fiber_limit_factor_is_two():
    # remeasure the collapsed-circle coefficient: the finite-M fiber norm in
    # the w-direction, divided by fiber_scalar, tends to 2, not 1
    k, u, v = 0.5, 1.0, 0.8
    w = np.array([(1.0 + k) / 2.0, (1.0 - k) / 2.0])
    from taubnut.family import Family, InstantonParams
    from taubnut.metrics import fiber_matrix
    for M in (1e6, 1e8):
        c = (M / (2.0 * SQRT2)) ** 0.25
        F = np.array(fiber_matrix(InstantonParams(M=M, k=k), c * u, c * v))
        coeff = float(w @ F @ w) / (w @ w) ** 2
        _, fiber_scalar = conifold_metric(k, u, v)
        ratio = coeff / fiber_scalar
        assert ratio == pytest.approx(2.0, abs=2e-3)
    assert CONIFOLD_FIBER_LIMIT_FACTOR == 2.0


def test_conifold_k_sigma():
    k, u, v = 0.5, 1.1, 0.7
    P = (1.0 + k) * u * u + (1.0 - k) * v * v
    expect = 2.0 * k * ((1.0 + k) * u * u - (1.0 - k) * v * v) / P ** 3
    got = conifold_curvatures(k, u, v).k_sigma
    assert got == pytest.approx(expect, rel=1e-14, abs=0)
    assert got == pytest.approx(conifold_polytope_curvature_fd(k, u, v),
                                rel=5e-16, abs=0)


def test_conifold_ricci_vs_fd():
    rng = np.random.default_rng(5)
    for _ in range(10):
        k = float(rng.uniform(-0.8, 0.8))
        u = float(rng.uniform(0.4, 2.0))
        v = float(rng.uniform(0.4, 2.0))
        c = conifold_curvatures(k, u, v)
        uu, uv, vv, th = conifold_ricci_fd(k, u, v)
        scale = max(1.0, abs(c.ric_uu), abs(c.ric_vv))
        assert abs(c.ric_uu - uu) < 2e-14 * scale
        assert abs(c.ric_uv - uv) < 2e-14 * scale
        assert abs(c.ric_vv - vv) < 2e-14 * scale
        assert abs(c.ric_theta - th) < 2e-14 * max(1.0, abs(c.ric_theta))


@pytest.mark.parametrize("t", [1e3, 1e10, 1e12, 1e20])
def test_conifold_ricci_theta_far_out(t):
    # on the diagonal the theta entry is -3 k^2 / 4 at every distance; the FD
    # oracle drifted with t and flipped its sign at 1e12
    assert conifold_ricci_fd(0.5, t, t)[3] == pytest.approx(-0.1875, rel=1e-13, abs=0)


def test_conifold_ricci_on_an_axis_is_bad_params():
    # the fiber u^2 v^2 (u^2 + v^2) / P vanishes there: the metric is singular;
    # off the quadrant the formula would give a mirrored point's curvature
    for u, v in ((0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (-1.0, 1.0), (1.0, -1e-9)):
        with pytest.raises(BadParams):
            conifold_ricci_fd(0.5, u, v)


@pytest.mark.parametrize("u,v", [(1e100, 1.0), (1.0, 1e100), (1e200, 1e200)])
def test_conifold_ricci_fd_beyond_the_float_range_is_bad_params(u, v):
    # it returned (nan, nan, nan, nan) without a warning: the metric overflows on the stencil
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParams, match="not finite"):
            conifold_ricci_fd(0.5, u, v)


def test_conifold_scalar_is_trace():
    k, u, v = 0.5, 1.1, 0.7
    c = conifold_curvatures(k, u, v)
    P = (1.0 + k) * u * u + (1.0 - k) * v * v
    W = u * u * v * v * (u * u + v * v) / P
    trace = (c.ric_uu + c.ric_vv) / P + c.ric_theta / W
    assert c.scalar3 == pytest.approx(trace, rel=1e-12, abs=0)


def test_conifold_everything_flat_at_k0():
    c = conifold_curvatures(0.0, 1.3, 0.4)
    for val in (c.k_sigma, c.ric_uu, c.ric_uv, c.ric_vv, c.ric_theta,
                c.scalar3):
        assert val == 0.0


def conifold_ricci_diagonal_variant(k, u, v):
    """A diagonal shortcut for the conifold Ricci: (uu, vv, theta) entries

        ( -4 sqrt2 k / (Q P^2),  +4 sqrt2 k / (Q P^2),  -2 k (u^2 - v^2) / P^3 )

    scaled by u v, Q = u^2 + v^2.  A negative control: it does not match the
    Ricci tensor of the conifold 3-metric (conifold_curvatures /
    conifold_ricci_fd), which is not even diagonal off the axes."""
    u2, v2 = u * u, v * v
    P = (1.0 + k) * u2 + (1.0 - k) * v2
    Q = u2 + v2
    return (-4.0 * SQRT2 * k * u * v / (Q * P * P),
            4.0 * SQRT2 * k * u * v / (Q * P * P),
            -2.0 * k * u * v * (u2 - v2) / P ** 3)


def test_conifold_diagonal_variant_is_not_the_ricci():
    # frozen counterexample at (k, u, v) = (0.5, 1.0, 0.6): the diagonal
    # shortcut and the true tensor disagree in every slot, and the true
    # tensor has a large cross term the shortcut cannot represent; the FD
    # oracle tells the two apart
    k, u, v = 0.5, 1.0, 0.6
    duu, dvv, dth = conifold_ricci_diagonal_variant(k, u, v)
    assert abs(duu - conifold_ricci_fd(k, u, v)[0]) > 1.0
    assert duu == pytest.approx(-0.44212, rel=1e-3, abs=0)
    assert dvv == pytest.approx(+0.44212, rel=1e-3, abs=0)
    assert dth == pytest.approx(-0.08098, rel=1e-3, abs=0)
    c = conifold_curvatures(k, u, v)
    assert c.ric_uu == pytest.approx(0.81014, rel=1e-3, abs=0)
    assert c.ric_vv == pytest.approx(-0.99646, rel=1e-3, abs=0)
    assert c.ric_theta == pytest.approx(-0.19458, rel=1e-3, abs=0)
    assert c.ric_uv == pytest.approx(0.57762, rel=1e-3, abs=0)
    assert abs(duu - c.ric_uu) > 1.0
    # the shortcut is antisymmetric under u <-> v on the diagonal u = v;
    # the true tensor is not
    t = 0.9
    c_diag = conifold_curvatures(k, t, t)
    assert abs(c_diag.ric_uu + c_diag.ric_vv) > 0.1
    duu, dvv, _ = conifold_ricci_diagonal_variant(k, t, t)
    assert duu == pytest.approx(-dvv, rel=1e-12, abs=0)


# ---------------------------------------------------- cone distance/geodesics

def test_blowdown_distance_gradient():
    for k in (0.0, 0.5, -0.7):
        for u, v in ((1.0, 1.0), (0.3, 2.0)):
            assert blowdown_distance_gradient_deficit(k, u, v) < 5e-16


def test_blowdown_distance_along_geodesic_monotone():
    # along the gradient curve (t^sqrt(1+k), t^sqrt(1-k)) of S through the
    # cone point
    k = 0.5
    ds = [blowdown_distance(k, t ** math.sqrt(1.0 + k), t ** math.sqrt(1.0 - k))
          for t in np.linspace(0.1, 2.0, 8)]
    assert all(b > a for a, b in zip(ds, ds[1:]))


# ------------------------------------------------------------ second blowdown

def test_second_blowdown_det_is_u2v2():
    for k in (0.0, 0.5, -0.8):
        for u, v in ((0.7, 1.9), (2.2, 0.3)):
            _, fiber, _ = second_blowdown_metric(k, u, v)
            det = float(np.linalg.det(fiber))
            assert det == pytest.approx(u * u * v * v, rel=1e-12, abs=0)


def test_second_blowdown_moment_oracle():
    # pins the sign phi^2 = -(1+k)u^2/2 + (1-k)v^2/2; the flipped sign
    # breaks the cross term by O(1)
    for k in (0.3, 0.5, -0.6):
        for u, v in ((0.7, 1.9), (1.0, 1.0)):
            assert second_blowdown_moment_residual(k, u, v) < 1e-12
    k, u, v = 0.5, 1.0, 1.0
    conformal, fiber, _ = second_blowdown_metric(k, u, v)
    flipped = np.array([[u * v * v, u * u * v],
                        [(1.0 + k) * u, -(1.0 - k) * v]])
    bad = flipped @ flipped.T / conformal
    assert np.abs(fiber - bad).max() > 0.5


def test_second_blowdown_residual_decay():
    fibers = []
    for M in (1e2, 1e3, 1e4, 1e5, 1e6):
        fibers.append(second_blowdown_limit_residual(0.3, 1.1, 0.7, M)[1])
    ratios = [a / b for a, b in zip(fibers, fibers[1:])]
    # rate M^(-1/2): per-decade ratio climbs monotonically to sqrt(10)
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(math.sqrt(10.0), rel=5e-3, abs=0)


def test_second_residuals_match_a_300_bit_oracle():
    # T F T^T - L in 300-bit arithmetic, through the generalized family's own
    # fiber formula at mass M and the second blowdown's own fiber L, at the
    # points of tests/same_bytes.py.  The float product T F T^T scales
    # entries of F by up to M before the subtraction: it was off by up to
    # 2.2e-8 relative
    from types import SimpleNamespace

    import mpmath
    from taubnut.family import GeneralizedTN
    with mpmath.workprec(300):
        r2 = mpmath.sqrt(2)
        for k in (0.0, 0.5, -0.9):
            mk = mpmath.mpf(k)
            for u, v in ((1.0, 1.0), (0.7, 1.3), (2.5, 0.2)):
                mu, mv = mpmath.mpf(u), mpmath.mpf(v)
                L = mpmath.matrix(second_blowdown_metric(mk, mu, mv)[1])
                for M in (1e2, 1e3, 1e4, 1e5, 1e6):
                    c = (M / (2 * r2)) ** mpmath.mpf(0.25)
                    # k and M as 300-bit numbers, and the float sqrt 2 of the
                    # fiber's prefactor scaled out
                    e11, e12, e22 = (e * r2 / SQRT2 for e in GeneralizedTN.fiber(
                        SimpleNamespace(k=mk, M=mpmath.mpf(M)), c * mu, c * mv))
                    root = mpmath.sqrt(2 * r2 * M)
                    T = mpmath.matrix([[r2 / (1 + mk), 0], [root * (1 - mk) / 2, -root * (1 + mk) / 2]])
                    D = T * mpmath.matrix([[e11, e12], [e12, e22]]) * T.T - L
                    exact = max(abs(D[i, j]) for i in range(2) for j in range(2))
                    got = second_blowdown_limit_residual(k, u, v, M)[1]
                    assert abs(got - exact) <= 1e-14 * exact, (k, u, v, M)


def test_second_blowdown_xy_chart():
    k, u, v = 0.5, 1.1, 0.7
    x, y = blowdown_xy_from_uv(u, v)
    assert (x, y) == (u * v, 0.5 * (u * u - v * v))
    P = (1.0 + k) * u * u + (1.0 - k) * v * v
    got = second_blowdown_conformal_xy(k, x, y) * (u * u + v * v)
    assert got == pytest.approx(P, rel=1e-13, abs=0)
    with pytest.raises(SingularAxis):
        second_blowdown_conformal_xy(k, 0.0, 0.0)


# -------------------------------------------------------- exceptional blowdown

def test_exceptional_blowdown_forms():
    u, v = 1.2, 0.5
    conf, fib = exceptional_blowdown_metric(u, v)
    assert conf == pytest.approx(u * u, rel=1e-15, abs=0)
    expect = 0.5 * np.array([[v * v * (u * u + v * v), v * v],
                             [v * v, 1.0]])
    assert np.abs(fib - expect).max() < 1e-15
    with pytest.raises(SingularAxis):
        exceptional_blowdown_metric(0.0, 1.0)


def test_exceptional_blowdown_curvature_sign():
    # the conformal oracle gives +1/u^4; a negative-sign variant is off by
    # a factor of -1 and fails by 2/u^4
    for u in (0.7, 1.0, 2.0):
        got = exceptional_blowdown_curvature(u)
        assert got == pytest.approx(1.0 / u ** 4, rel=1e-15, abs=0)
        fd = exceptional_blowdown_curvature_fd(u)
        assert fd == pytest.approx(got, rel=5e-16, abs=0)
        assert abs(-got - fd) > 1.9 * abs(got) * 0.99
    with pytest.raises(SingularAxis):
        exceptional_blowdown_curvature(0.0)


def test_exceptional_blowdown_residual_rate():
    # fiber residual decays exactly like M^(-2): factor 100 per decade
    fibers = []
    for M in (1e1, 1e2, 1e3):
        leaf, fib = exceptional_blowdown_limit_residual(1.0, 0.8, M)
        fibers.append(fib)
    for a, b in zip(fibers, fibers[1:]):
        assert a / b == pytest.approx(100.0, rel=0.02, abs=0)


def test_exceptional_blowdown_axis_constant():
    # at v = 0 the fiber residual is 1/(2 M^2) to leading order
    for M in (1e2, 1e3):
        leaf, fib = exceptional_blowdown_limit_residual(1.0, 0.0, M)
        assert fib == pytest.approx(0.5 / M ** 2, rel=1e-3, abs=0)


# ------------------------------------------------------------- pointed limit

def test_pointed_limit_residual_rate():
    rows = [pointed_limit_halfplane(A, 0.8, 0.5) for A in (1e1, 1e2, 1e3)]
    res = [r.residual for r in rows]
    assert all(b < a for a, b in zip(res, res[1:]))
    # O(1/A): one decade of A buys one decade of residual
    for a, b in zip(res, res[1:]):
        assert a / b == pytest.approx(10.0, rel=0.3, abs=0)
    assert FINITE_FIBER_TOPOLOGY == "torus"
    assert LIMIT_FIBER_TOPOLOGY == "cylinder"


def test_pointed_limit_exact_on_centering_ray():
    # v = 0: the recombined fiber equals the limit fiber for every A
    for A in (10.0, 100.0):
        for u in (0.0, 0.7, 2.0):
            s = pointed_limit_halfplane(A, u, 0.0)
            assert s.residual < 1e-10


def test_pointed_limit_off_ray_first_order():
    # at u = 0 the residual is exactly 2v/A + v^2/A^2
    A, v = 10.0, 0.5
    s = pointed_limit_halfplane(A, 0.0, v)
    assert s.residual == pytest.approx(2.0 * v / A + (v / A) ** 2, rel=1e-14, abs=0)


def test_pointed_residuals_match_a_300_bit_oracle():
    # T F(u, A + v) T^T - L in 300-bit arithmetic, through the exceptional
    # family's own fiber, with L the half-plane fiber with its indices
    # swapped, at the points of tests/same_bytes.py.  The float product
    # T F T^T lost up to 5 digits to cancellation: it gave 0.00060001589 for
    # 0.000600025 at (1, 1), A = 1e4
    import mpmath
    from taubnut.family import Family, InstantonParams
    exc, hp = InstantonParams(Family.EXCEPTIONAL_TN), InstantonParams(Family.EXCEPTIONAL_HALF_PLANE)
    with mpmath.workprec(300):
        r2 = mpmath.sqrt(2)
        for u, v in ((1.0, 1.0), (0.7, 1.3), (2.5, 0.2)):
            for A in (1e1, 1e2, 1e3, 1e4):
                mu, mv, mA = mpmath.mpf(u), mpmath.mpf(v), mpmath.mpf(A)
                e11, e12, e22 = exc.fiber(mu, mA + mv)
                T = mpmath.matrix([[r2 / mA, -r2 * mA], [0, r2]])
                G = T * mpmath.matrix([[e11, e12], [e12, e22]]) * T.T
                h11, h12, h22 = hp.fiber(mu, mv)
                D = G - mpmath.matrix([[h22, h12], [h12, h11]])
                exact = max(abs(D[i, j]) for i in range(2) for j in range(2))
                got = pointed_limit_halfplane(A, u, v).residual
                assert abs(got - exact) <= 1e-14 * exact, (u, v, A)


def test_pointed_limit_fiber_is_swapped_halfplane():
    for u, v in ((0.3, -1.0), (1.5, 0.8), (2.0, 0.0)):
        assert halfplane_swap_residual(u, v) < 1e-12


@pytest.mark.parametrize("u,v", [(1e300, 1.0), (1.0, 1e300)])
def test_halfplane_swap_residual_beyond_float_range_is_bad_params(u, v):
    # (1e300, 1) returned nan; (1, 1e300) warned inf - inf in numpy
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParams):
            halfplane_swap_residual(u, v)


def pointed_limit_divergent_transform(A):
    """The recombination with X1-coefficient 1/(2A) in place of sqrt2/A: a
    negative control, whose recombined fiber diverges as A grows."""
    return np.array([[0.5 / A, -SQRT2 * A], [0.0, SQRT2]])


def test_pointed_divergent_transform_diverges():
    # the 1/(2A) recombination blows up quadratically in A instead of
    # converging; pinning this stops it from creeping back in
    from taubnut.family import Family, InstantonParams
    from taubnut.metrics import fiber_matrix
    params = InstantonParams(family=Family.EXCEPTIONAL_TN)
    res = []
    for A in (10.0, 100.0):
        T = pointed_limit_divergent_transform(A)
        F = np.array(fiber_matrix(params, 0.8, A + 0.5), dtype=float)
        G = T @ F @ T.T
        res.append(float(np.abs(G - pointed_limit_fiber(0.8, 0.5)).max()))
    assert res[1] > 50.0 * res[0]
    assert res[0] > 1.0


def test_pointed_limit_validation():
    with pytest.raises(BadParams):
        pointed_limit_halfplane(-1.0, 0.5, 0.5)
    with pytest.raises(BadParams):
        pointed_limit_halfplane(2.0, 0.5, -3.0)


# ------------------------------------------------------- the float range

FLOAT_RANGE_CALLS = {   # the functions the blowdown command calls, at (x, 1)
    "conifold_metric": lambda x: conifold_metric(0.5, x, 1.0),
    "conifold_curvatures": lambda x: conifold_curvatures(0.5, x, 1.0),
    "conifold_limit_residual": lambda x: conifold_limit_residual(0.5, x, 1.0, 1e4),
    "second_blowdown_metric": lambda x: second_blowdown_metric(0.5, x, 1.0),
    "second_blowdown_limit_residual": lambda x: second_blowdown_limit_residual(0.5, x, 1.0, 1e4),
    "exceptional_blowdown_metric": lambda x: exceptional_blowdown_metric(x, 1.0),
    "exceptional_blowdown_curvature": exceptional_blowdown_curvature,
    "exceptional_blowdown_limit_residual":
        lambda x: exceptional_blowdown_limit_residual(x, 1.0, 1e2),
    "pointed_limit_halfplane": lambda x: pointed_limit_halfplane(1e2, x, 1.0),
    "pointed_limit_moments_limit": lambda x: pointed_limit_moments_limit(x, 1.0),
    "halfplane_swap_residual": lambda x: halfplane_swap_residual(x, 1.0),
}


@pytest.mark.parametrize("x", [math.nan, math.inf, 1e300])
@pytest.mark.parametrize("name", FLOAT_RANGE_CALLS)
def test_a_value_beyond_the_float_range_is_bad_params(name, x):
    # they returned nan or inf, or leaked OverflowError, ZeroDivisionError
    # or a numpy warning
    with pytest.raises(BadParams, match="not finite"):
        FLOAT_RANGE_CALLS[name](x)


SECOND_COORDINATE_CALLS = {   # the same functions at (1, x)
    "conifold_metric": lambda x: conifold_metric(0.5, 1.0, x),
    "conifold_curvatures": lambda x: conifold_curvatures(0.5, 1.0, x),
    "conifold_limit_residual": lambda x: conifold_limit_residual(0.5, 1.0, x, 1e4),
    "second_blowdown_metric": lambda x: second_blowdown_metric(0.5, 1.0, x),
    "second_blowdown_limit_residual": lambda x: second_blowdown_limit_residual(0.5, 1.0, x, 1e4),
    "exceptional_blowdown_metric": lambda x: exceptional_blowdown_metric(1.0, x),
    "exceptional_blowdown_limit_residual":
        lambda x: exceptional_blowdown_limit_residual(1.0, x, 1e2),
    "pointed_limit_halfplane": lambda x: pointed_limit_halfplane(1e2, 1.0, x),
    "pointed_limit_moments_limit": lambda x: pointed_limit_moments_limit(1.0, x),
    "halfplane_swap_residual": lambda x: halfplane_swap_residual(1.0, x),
}


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", SECOND_COORDINATE_CALLS)
def test_a_second_coordinate_beyond_the_float_range_is_bad_params(name, x):
    # a bare v < 0 or v > 0 test lets NaN through; -inf may fail the
    # function's own domain test first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParams):
            SECOND_COORDINATE_CALLS[name](x)


def test_numpy_arguments_are_bad_params_beyond_the_float_range():
    # the float checks hold for numpy scalars and arrays too, and numpy's
    # float errors become BadParams, not RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (np.float64(1e-300), np.asarray(1e-300)):
            with pytest.raises(BadParams):
                exceptional_blowdown_curvature(x)
        with pytest.raises(BadParams):
            pointed_limit_moments_limit(np.array([1.0, 1e200]), 1.0)
        with pytest.raises(BadParams):
            pointed_limit_moments_limit(np.array([1.0, np.nan]), 1.0)
        assert pointed_limit_moments_limit(np.array([0.0, 2.0]), 1.0)[1].tolist() == [0.0, 2.0]


def test_a_power_that_underflows_is_bad_params():
    # 1 / u ** 4 and 1 / P ** 3 divided by an underflowed zero
    with pytest.raises(BadParams):
        exceptional_blowdown_curvature(1e-300)
    with pytest.raises(BadParams):
        conifold_curvatures(0.5, 1e-107, 1e-176)
    assert exceptional_blowdown_curvature(1e-50) == pytest.approx(1e200, rel=1e-14, abs=0)
