import functools
import hashlib
import itertools
import math
import random
import re
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taubnut.blowdown import (SingularAxis, blowdown_distance_gradient_deficit, conifold_curvatures,
                              conifold_polytope_curvature_fd, conifold_ricci_fd,
                              exceptional_blowdown_curvature, exceptional_blowdown_curvature_fd)
from taubnut.checks import DECAY_CASES
from taubnut.curvature import (IllConditioned, block_curvature, curvature4_fd,
                               decay_rate_along_geodesic, l2_ricci,
                               polytope_curvature_fd, ricci_pseudo_jacobian_fd)
from taubnut.family import BadParams, Family, InstantonParams, WrongFamily
from taubnut.geodesics import point_from_polar
from taubnut.metrics import TORUS_VOLUME, conformal_factor, volume_density
from taubnut.numerics import Jet, fit_power_law, integrate_2d_region, jets

from dense_curvature import jet_curvature, metric4, rows as dense_rows

SQRT2 = math.sqrt(2.0)

GEN = InstantonParams()
GEN05 = InstantonParams(k=0.5)
GEN09 = InstantonParams(k=0.9)
EXC = InstantonParams(family=Family.EXCEPTIONAL_TN)
HP = InstantonParams(family=Family.EXCEPTIONAL_HALF_PLANE)
FLAT = InstantonParams(family=Family.FLAT)

INTERIOR = [(0.4, 0.9), (1.0, 1.0), (2.2, 0.5), (0.7, 2.8)]


# ----------------------------------------------------------- leaf curvature K

def test_k_sigma_standard_scale_origin():
    # sup |sec| = 1 at M = sqrt(2): K(0,0) = -1
    assert GEN.polytope_curvature(0.0, 0.0) == pytest.approx(-1.0, abs=1e-15)


def test_k_sigma_closed_form():
    k, M, u, v = 0.5, SQRT2, 1.2, 0.8
    D = 1.0 + (1.0 + k) * u * u + (1.0 - k) * v * v
    expect = (M / SQRT2) * (-1.0 + k * (1.0 + k) * u * u
                            - k * (1.0 - k) * v * v) / D ** 3
    assert GEN05.polytope_curvature(u, v) == pytest.approx(expect, rel=1e-14, abs=0)


def test_k_sigma_exceptional_closed_form():
    for u in (0.3, 1.0, 2.5):
        expect = -(1.0 - u * u) / (1.0 + u * u) ** 3
        assert EXC.polytope_curvature(u, 0.7) == pytest.approx(expect,
                                                                rel=1e-14, abs=0)
        assert HP.polytope_curvature(u, -0.3) == pytest.approx(expect,
                                                                rel=1e-14, abs=0)


@pytest.mark.parametrize("params", [GEN, GEN05, GEN09, EXC, HP])
def test_k_sigma_vs_conformal_oracle(params):
    # K = -Laplacian(log lambda) / (2 lambda), the defining identity, to rounding
    for u, v in INTERIOR:
        if params.family is Family.EXCEPTIONAL_HALF_PLANE:
            v -= 1.5
        got = params.polytope_curvature(u, v)
        fd = polytope_curvature_fd(params, u, v)
        assert abs(got - fd) <= 4e-16 * max(1.0, abs(got))


def test_flat_is_flat():
    for u, v in INTERIOR:
        assert FLAT.polytope_curvature(u, v) == 0.0
        assert FLAT.ricci_norm(u, v) == 0.0


# ------------------------------------------------------------ Ricci quantities

def test_ricci_potentials_halfplane():
    x, y = 0.8, -1.1
    r1, r2 = HP.ricci_potentials(x, y)
    assert r1 == pytest.approx(2.0 / (1.0 + x * x), rel=1e-14, abs=0)
    assert r2 == pytest.approx(4.0 * y / (1.0 + x * x), rel=1e-14, abs=0)


def test_pseudo_density_closed_forms():
    k, u, v = 0.5, 1.2, 0.8
    D = 1.0 + (1.0 + k) * u * u + (1.0 - k) * v * v
    assert GEN05.ricci_density(u, v) == pytest.approx(
        8.0 * k * k * u * v / D ** 3, rel=1e-14, abs=0)
    assert EXC.ricci_density(u, v) == pytest.approx(
        2.0 * u * v / (1.0 + u * u) ** 3, rel=1e-14, abs=0)
    x = 0.9
    assert HP.ricci_density(x, 0.0) == pytest.approx(
        16.0 * x / (1.0 + x * x) ** 3, rel=1e-14, abs=0)


def test_pseudo_density_vanishes_at_k0():
    for u, v in INTERIOR:
        assert GEN.ricci_density(u, v) == 0.0


@pytest.mark.parametrize("params", [GEN05, GEN09, EXC, HP])
def test_pseudo_density_vs_jacobian(params):
    # d(R1) ^ d(R2) from the jets of the potentials must reproduce the
    # closed-form density to rounding; this is what pins the half-plane
    # prefactor at 16, not 8
    for u, v in INTERIOR:
        if params.family is Family.EXCEPTIONAL_HALF_PLANE:
            v -= 1.5
        fd = ricci_pseudo_jacobian_fd(params, u, v)
        closed = params.ricci_density(u, v)
        assert abs(fd - closed) <= 1e-15 * max(1.0, abs(closed))


def test_halfplane_prefactor_refutes_8():
    x = 0.9
    fd = ricci_pseudo_jacobian_fd(HP, x, 0.3)
    assert abs(fd - 8.0 * x / (1.0 + x * x) ** 3) > 1e-2


def _rel(got, want):
    return abs(got - want) / abs(want)


def test_oracles_are_exact_where_the_stencils_were_not():
    # one jet evaluation against the closed forms, where the stencils were off
    # silently: K by 1.2e4 relatively at GeneralizedTN k = 0.5, (1e6, 3e5), the
    # conifold K with the wrong sign at (1e-5, 1e-5), the exceptional blowdown K
    # by 100 % at u = 1e3 and the pseudo-Jacobian by 6.6 at (1e5, 3e4); at
    # (1e-4, 0.5) the stencil raised BoundaryTooClose
    eps = sys.float_info.epsilon
    assert _rel(polytope_curvature_fd(GEN05, 1e6, 3e5),
                GEN05.polytope_curvature(1e6, 3e5)) <= 4e-16
    assert _rel(polytope_curvature_fd(GEN05, 1e-4, 0.5),
                GEN05.polytope_curvature(1e-4, 0.5)) <= 4e-16
    assert _rel(exceptional_blowdown_curvature_fd(1e3),
                exceptional_blowdown_curvature(1e3)) <= 4e-16
    for k in (0.5, -0.9):
        for u in [1e-5] + [10.0 ** e for e in range(11)]:
            v = u if u == 1e-5 else 0.7 * u
            assert _rel(conifold_polytope_curvature_fd(k, u, v),
                        conifold_curvatures(k, u, v).k_sigma) <= 8e-16, (k, u)
    # far out the pseudo-Jacobian loses digits, as its potentials tend to
    # constants (2.8e-7 at (1e5, 3e4)), within a few eps r^2 relatively; K is
    # within 2 eps of the size of its terms, which cancel near K's zeros and,
    # at k = 0, to 1 / r^2 of their size far out
    assert _rel(ricci_pseudo_jacobian_fd(GEN05, 1e5, 3e4),
                GEN05.ricci_density(1e5, 3e4)) <= eps * (1e5 ** 2 + 3e4 ** 2)
    rng = random.Random(32)
    for params in (GEN, GEN05, InstantonParams(k=-0.9), EXC, HP):
        for _ in range(200):
            u = 10.0 ** rng.uniform(-4.0, 6.0)
            v = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-5.0, 7.0)
            if params.bounds[1][0] == 0.0:
                v = abs(v)
            # K = (|grad lam|^2 - lam Lap lam) / (2 lam^3), and the size of its terms
            lam = conformal_factor(params, *jets(u, v))
            terms = lam.du * lam.du + lam.dv * lam.dv + abs(lam.val * (lam.duu + lam.dvv))
            assert abs(polytope_curvature_fd(params, u, v) - params.polytope_curvature(u, v)) \
                <= 2.0 * eps * terms / (2.0 * lam.val ** 3), (params, u, v)
            if params is not GEN:   # whose density is 0
                assert _rel(ricci_pseudo_jacobian_fd(params, u, v), params.ricci_density(u, v)) \
                    <= 4.0 * eps * (1.0 + u * u + v * v), (params, u, v)


@pytest.mark.parametrize("oracle,args,error", [
    (ricci_pseudo_jacobian_fd, (GEN05, -1.0, 1.0), BadParams),
    (ricci_pseudo_jacobian_fd, (GEN05, math.nan, 1.0), BadParams),
    (polytope_curvature_fd, (InstantonParams(M=1e300), 1e200, 1.0), BadParams),
    (conifold_polytope_curvature_fd, (0.5, -1.0, 1.0), BadParams),
    (blowdown_distance_gradient_deficit, (0.5, 1e200, 1e200), BadParams),
    (exceptional_blowdown_curvature_fd, (-1.0,), BadParams),
    (exceptional_blowdown_curvature_fd, (0.0,), SingularAxis)],
    ids=lambda x: getattr(x, "__name__", None))
def test_oracles_raise_off_their_domain(oracle, args, error):
    # each checks its domain, then refuses a number that is not finite: a
    # mirrored point would give another point's value, and 1e200 squared a NaN
    with pytest.raises(error):
        oracle(*args)


def test_ricci_norm_closed_forms():
    k, u, v = 0.5, 1.2, 0.8
    D = 1.0 + (1.0 + k) * u * u + (1.0 - k) * v * v
    assert GEN05.ricci_norm(u, v) == pytest.approx(
        SQRT2 * k * SQRT2 / D ** 2, rel=1e-14, abs=0)
    assert EXC.ricci_norm(u, v) == pytest.approx(2.0 / (1.0 + u * u) ** 2,
                                                  rel=1e-14, abs=0)
    assert HP.ricci_norm(u, v) == pytest.approx(
        math.sqrt(8.0) / (1.0 + u * u) ** 2, rel=1e-14, abs=0)


@pytest.mark.parametrize("params,factor", [(GEN05, 1.0), (EXC, 1.0),
                                           (HP, 2.0)])
def test_product_identity(params, factor):
    # pseudo-density = factor * |Ric|^2 * lambda * x, exactly; the factor 2
    # on the half plane is the honest mismatch between its norm convention
    # and its Jacobian density
    for u, v in INTERIOR:
        lhs = params.ricci_density(u, v)
        rhs = factor * params.ricci_norm(u, v) ** 2 \
            * volume_density(params, u, v)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=0)


# ------------------------------------------------------------------- energies

def test_l2_ricci_closed_vs_quadrature():
    for k in (0.3, 0.5, 0.9):
        rep = l2_ricci(InstantonParams(k=k))
        assert rep.closed_form == pytest.approx(
            4.0 * math.pi ** 2 * k * k / (1.0 - k * k), rel=1e-15, abs=0)
        assert rep.rel_error <= 1e-9


@pytest.mark.parametrize("k", [0.99, -0.99, 0.999])
def test_l2_ricci_near_the_chirality_limit(k):
    # D = 1 + (1+k)u^2 + (1-k)v^2 grows along one axis only once
    # (1-|k|) t^2 ~ 1, so the promised r^-4 decay of the density sets in
    # only far out, unless the quadrature works in the axes of D
    rep = l2_ricci(InstantonParams(k=k))
    assert rep.rel_error <= 1e-9


@pytest.mark.parametrize("k", [0.1, 0.5, -0.7, 0.9, 0.99, 0.9999, -0.9999])
def test_l2_ricci_on_the_compact_map(k):
    # in x = a u, y = b v the density is isotropic at every k, and the first
    # round of the compact map, two boxes and their eight quarters of
    # GAUSS_ORDER^2 nodes each, closes every box: a regression of the map
    # or of the scaling shows in the count
    rep = l2_ricci(InstantonParams(k=k))
    quad = rep.quadrature
    assert quad.error >= abs(quad.value - rep.closed_form)
    assert rep.rel_error <= 1e-12
    assert quad.evaluations == 1000


def test_l2_ricci_flat_and_k0():
    assert l2_ricci(FLAT).closed_form == 0.0
    assert l2_ricci(GEN).closed_form == 0.0


def test_l2_riemann_identity():
    for k in (0.0, 0.5, 0.9):
        p = InstantonParams(k=k)
        got = p.l2_riemann
        assert got == pytest.approx(
            16.0 * math.pi ** 2 * (2.0 - k * k) / (1.0 - k * k), rel=1e-15, abs=0)
        assert got - 4.0 * l2_ricci(p).closed_form == pytest.approx(
            32.0 * math.pi ** 2, rel=1e-15, abs=0)


def test_l2_riemann_needs_generalized():
    with pytest.raises(WrongFamily):
        EXC.l2_riemann


GROWTH_RADII = (25.0, 50.0, 100.0, 200.0)


def _within_ulps(got, exact, n):
    return abs(got - exact) <= n * math.ulp(float(exact))


def test_exceptional_energy_growth():
    # the almost-ball energies pi^2 (R (R - 1) + log(1 + 2R) / 2), each within
    # 2 ulp of 60 digits; the R (R - 1) term bends the fit off 2 by 0.0155
    rep = l2_ricci(EXC)
    assert rep.closed_form == math.inf and rep.quadrature is None
    assert [R for R, _ in rep.growth_samples] == list(GROWTH_RADII)
    with mpmath.workdps(60):
        exact = [mpmath.pi ** 2 * (R * (R - 1) + mpmath.log1p(2 * mpmath.mpf(R)) / 2)
                 for R in GROWTH_RADII]
        fit = fit_power_law(GROWTH_RADII, [float(e) for e in exact])
    for (R, val), e in zip(rep.growth_samples, exact):
        assert _within_ulps(val, e, 2), (R, val)
    assert rep.growth_exponent == pytest.approx(fit, abs=1e-14)
    assert rep.growth_exponent == pytest.approx(2.0, abs=0.05)


def test_halfplane_energy_growth_linear():
    rep = l2_ricci(HP)
    assert rep.growth_exponent == pytest.approx(1.0, abs=4 * sys.float_info.epsilon)
    # E(strip of half-height R) = 32 pi^2 R exactly
    assert [R for R, _ in rep.growth_samples] == list(GROWTH_RADII)
    with mpmath.workdps(30):
        for R, val in rep.growth_samples:
            assert _within_ulps(val, 32 * mpmath.pi ** 2 * R, 2), (R, val)


def _partial_energy_quadrature(params, R):
    """The exceptional partial Ricci energies by region quadrature: the
    almost-ball under v = R - u^2/2 up to u = sqrt(2R), and the strip of
    half-height R as twice its upper half (the density is y-independent),
    out to x = 1e4, past which the density's integral is 1e-16 of it."""
    def f(u, v):
        return TORUS_VOLUME * params.ricci_density(u, v)
    if params is EXC:
        return integrate_2d_region(f, math.sqrt(2.0 * R), lambda u: R - 0.5 * u * u).value
    return 2.0 * integrate_2d_region(f, 1e4, lambda u: R).value


@pytest.mark.parametrize("params", [EXC, HP], ids=["EXC", "HP"])
@pytest.mark.parametrize("R", [1.0, 25.0, 200.0, 1e4])
def test_partial_ricci_energy_against_quadrature(params, R):
    # the oracle of the closed forms: within 6e-16 relatively at these radii
    assert params.partial_ricci_energy(R) == pytest.approx(
        _partial_energy_quadrature(params, R), rel=1e-10, abs=0)


def test_partial_ricci_energy_derivation():
    # sympy integrates 4 pi^2 ricci_density over each region exactly; the
    # float one-liners sit within 2 ulp of the result
    sp = pytest.importorskip("sympy")
    u, v, R = sp.symbols("u v R", positive=True)

    def density(params):   # TORUS_VOLUME = 4 pi^2
        e = 4 * sp.pi ** 2 * params.ricci_density(u, v)
        return e.xreplace({x: sp.Rational(x) for x in e.atoms(sp.Float)})
    ball = sp.integrate(density(EXC), (v, 0, R - u ** 2 / 2), (u, 0, sp.sqrt(2 * R)))
    strip = 2 * sp.integrate(density(HP), (u, 0, sp.oo), (v, 0, R))
    assert sp.simplify(ball - sp.pi ** 2 * (R * (R - 1) + sp.log(1 + 2 * R) / 2)) == 0
    assert sp.simplify(strip - 32 * sp.pi ** 2 * R) == 0
    for r in (1, 25, 200, 10 ** 4):
        for params, e in ((EXC, ball), (HP, strip)):
            assert _within_ulps(params.partial_ricci_energy(float(r)), e.subs(R, r).evalf(30), 2)


# ------------------------------------------------------------------ 4-metric curvature

@pytest.mark.parametrize("params", [GEN, GEN05, EXC, HP])
def test_scalar_flat_and_ricci_calibrated(params):
    # exact to rounding: at most 9.4e-16 and 3.3e-16 here
    for u, v in ((0.8, 1.1), (1.5, 0.6)):
        if params.family is Family.EXCEPTIONAL_HALF_PLANE:
            v -= 1.5
        sample = curvature4_fd(params, u, v)
        assert abs(sample.scalar) < 1e-14
        closed = params.ricci_norm(u, v)
        assert abs(sample.ricci_norm - closed) < 2e-15 * max(1.0, closed)


def test_ill_conditioned_metric_raises():
    # 1e-7 off the axis the chart's Christoffel terms are 1e14 times |Rm|:
    # rounding would leave |Rm|^2 with an error of about 1e-2
    with pytest.raises(IllConditioned):
        curvature4_fd(GEN, 1e-7, 1.0)


@pytest.mark.parametrize("params,u,v", [
    (GEN05, 1e10, 1.0), (GEN05, 1e200, 1.0),
    (InstantonParams(M=1e-300), 1e5, 1e5), (GEN, 1e150, 1e150)])
def test_singular_or_overflowing_metric_is_ill_conditioned(params, u, v, capfd):
    # at 1e10 the jets are finite but rounding would leave |Rm|^2 off by half
    # (the stencil's inverse raised numpy's LinAlgError there); at 1e200, at
    # M = 1e-300 and at 1e150 the metric or its derivatives overflow, which
    # once printed a RuntimeWarning and a LAPACK message
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IllConditioned):
            curvature4_fd(params, u, v)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("u,v", [(-1.0, 1.0), (1.0, -1e-9), (math.nan, 1.0), (1.0, math.inf)])
def test_curvature_off_the_chart_is_bad_params(u, v):
    # the stencil's clearance used to refuse these; the kernels are even in u
    # and v, so a mirrored point would give the curvature of another point
    with pytest.raises(BadParams):
        curvature4_fd(GEN05, u, v)


def test_curvature_on_an_axis_is_ill_conditioned():
    # the fiber is singular on the axes, in either torus basis
    for params, u, v in ((GEN05, 0.0, 1.0), (GEN05, 1.0, 0.0), (EXC, 0.0, 2.0), (HP, 0.0, -1.0)):
        with pytest.raises(IllConditioned):
            curvature4_fd(params, u, v)


@pytest.mark.parametrize("metric", [
    lambda a, b: (0.0 * a, a, 0.0, b), lambda a, b: (-1.0 + 0.0 * a, a, 0.0, b),
    lambda a, b: (1.0 + 0.0 * a, a * a, a * b, b * b), lambda a, b: (1.0, a, 2.0 * a, b),
    lambda a, b: (Jet(1.0, 0.0, 0.0, 0.0, math.nan, 0.0), a, 0.0, b),
    lambda a, b: (1.0, a * 1e300 * 1e300, 0.0, b), lambda a, b: (1.0 + 0.0 * a, 0.0 * a)],
    ids=["lam-zero", "lam-negative", "det-zero", "det-negative", "nan-d_uv", "inf", "circle-zero"])
def test_block_curvature_of_a_singular_metric_is_ill_conditioned(metric):
    # lam or det F at or below 0 raised ZeroDivisionError or returned the
    # curvature of no metric; a part that is not finite, even the d_uv of lam
    # that no block reads, is refused too
    with pytest.raises(IllConditioned):
        block_curvature(metric, 1.0, 2.0, False)


def _bits(fn, *args) -> str:
    """float.hex of each float fn returns, or the name of the error it raises."""
    try:
        out = fn(*args)
    except (BadParams, IllConditioned) as exc:
        return type(exc).__name__
    return " ".join(map(float.hex, out))


def test_jet_curvature_keeps_its_bits():
    # float.hex of curvature4_fd for every family, GeneralizedTN at three
    # masses and four chiralities, and of conifold_ricci_fd, at seeded (u, v)
    # log-uniform in [10^-2.5, 10^3], hashed: the literal is the digest of the
    # block assembly (450 curvature4_fd samples, 19 of them IllConditioned,
    # and 150 conifold ones), so a change that moves a last bit fails
    rng = random.Random(30)
    digest = hashlib.sha256()

    def point():
        return 10.0 ** rng.uniform(-2.5, 3.0), 10.0 ** rng.uniform(-2.5, 3.0)
    families = [InstantonParams(M=M, k=k) for M in (SQRT2, 1e-3, 1e3)
                for k in (-0.9, 0.0, 0.5, 0.9)] + [EXC, HP, FLAT]
    for params in families:
        for _ in range(30):
            u, v = point()
            if params.bounds[1][0] < 0.0 and rng.random() < 0.5:
                v = -v   # a half-plane's lower half
            digest.update(_bits(curvature4_fd, params, u, v).encode())
    for k in (-0.9, -0.5, 0.0, 0.5, 0.9):
        for _ in range(30):
            digest.update(_bits(conifold_ricci_fd, k, *point()).encode())
    assert digest.hexdigest() == "455a670a64f025c2875ccefa5a56d32444b0bda219528cf0b4831a19d41b510a"


def test_k0_is_ricci_flat():
    for u, v in INTERIOR:
        assert curvature4_fd(GEN, u, v).ricci_norm < 1e-15


def test_calibration_table():
    assert GEN.ricci_calibration == 2.0
    assert HP.ricci_calibration == pytest.approx(SQRT2)


@pytest.mark.parametrize("params,exact", [(GEN, 32.0 / 243.0), (GEN05, 32.0 / 243.0),
                                          (EXC, 2.0)], ids=["GEN", "GEN05", "EXC"])
def test_rm_norm_sq_exact_at_1_1(params, exact):
    # closed values of |Rm|^2 at (u, v) = (1, 1) from a symbolic derivation of
    # the 4-metric of family.py; the jets are off by 4.4e-16, 4.4e-16 and 0
    assert curvature4_fd(params, 1.0, 1.0).rm_norm_sq == pytest.approx(exact, rel=1e-15, abs=0)


def _exact_ints(a):
    """The float array a as integers m with a = m * 2^-1074 exactly."""
    return np.array([int(Fraction(x) * 2 ** 1074) for x in a.ravel()],
                    dtype=object).reshape(a.shape)


def test_rm_norm_sq_is_the_full_contraction():
    # the plain six-operand einsum over the dense oracle's tensors, summed in
    # exact arithmetic, against the |Rm|^2 it returns, one index a pass, and
    # against the block assembly's
    rng = random.Random(13)
    for i in range(50):
        params = (GEN, GEN05, EXC, HP)[i % 4]
        u, v = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
        g, ginv, riem, _, rm_sq = jet_curvature(dense_rows(metric4(params, u, v)), u, v, False)
        low, up = _exact_ints(np.einsum('lm,mkij->lkij', g, riem)), _exact_ints(ginv)
        total = np.einsum('abcd,efgh,ae,bf,cg,dh->', low, low, up, up, up, up, optimize=True)
        exact = float(Fraction(int(total), 2 ** (6 * 1074)))
        assert abs(rm_sq / exact - 1.0) <= 1e-13
        assert abs(curvature4_fd(params, u, v).rm_norm_sq / exact - 1.0) <= 1e-13


def test_block_formulas_are_the_riemann_tensor():
    # sympy, for undefined functions lam, F11, F12, F22 of (u, v): the
    # Riemann tensor of the dense 4-metric lam (du^2 + dv^2) + F by its
    # definition (the convention of the dense oracle), against what _blocks
    # computes on the functions' derivatives and against the block formulas
    # of block_curvature's docstring; then the |Rm|^2 contraction of _blocks
    # against the index loops of _reference, at a seeded point in 60 digits
    sp = pytest.importorskip("sympy")
    from taubnut.curvature import _blocks
    u, v = sp.symbols("u v")
    lam, F11, F12, F22 = (sp.Function(name)(u, v) for name in ("lam", "F11", "F12", "F22"))
    g = sp.diag(lam, lam, sp.Matrix([[F11, F12], [F12, F22]]))
    det = F11 * F22 - F12 * F12
    ginv = sp.diag(1 / lam, 1 / lam, sp.Matrix([[F22, -F12], [-F12, F11]]) / det)
    N = range(4)

    def d(e, m):   # d_m e; nothing depends on the fiber's angles
        return sp.diff(e, (u, v)[m]) if m < 2 else 0
    gam = [[[sum(ginv[l, m] * (d(g[m, j], i) + d(g[m, i], j) - d(g[i, j], m)) for m in N) / 2
             for j in N] for i in N] for l in N]

    @functools.lru_cache(maxsize=None)
    def riemann(a, b, i, j):   # R_abij = g_am R^m_bij, R^m_bij = d_i G^m_jb - d_j G^m_ib + ...
        return sum(g[a, m] * (d(gam[m][j][b], i) - d(gam[m][i][b], j)
                              + sum(gam[m][i][k] * gam[k][j][b] for k in N)
                              - sum(gam[m][j][k] * gam[k][i][b] for k in N)) for m in N)

    def zero(e):
        e = e.xreplace({x: sp.Rational(x) for x in e.atoms(sp.Float)})   # _blocks' 0.5 and 0.25
        return sp.expand(sp.numer(sp.together(e))) == 0

    parts = [(f, *(f.diff(*x) for x in ((u,), (v,), (u, u), (u, v), (v, v))))
             for f in (lam, F11, F12, F22)]
    _, base, Auu, Avv, Auv, fiber = _blocks(-1, parts, (F22 / det, -F12 / det, F11 / det), det)
    assert zero(base - riemann(0, 1, 0, 1)) and zero(fiber - riemann(2, 3, 2, 3))
    for n, (i, j) in enumerate(((2, 2), (2, 3), (3, 3))):
        assert zero(Auu[n] - riemann(0, i, 0, j)) and zero(Avv[n] - riemann(1, i, 1, j))
        assert zero(2 * Auv[n] - riemann(0, i, 1, j) - riemann(0, j, 1, i))
    K = (lam.diff(u) ** 2 + lam.diff(v) ** 2 - lam * (lam.diff(u, u) + lam.diff(v, v))) / 2 / lam ** 3
    assert zero(riemann(0, 1, 0, 1) - K * lam ** 2)   # the Gauss curvature of lam (du^2 + dv^2)
    for a, b, i, j in itertools.product((0, 1), (0, 1), (2, 3), (2, 3)):
        assert zero(riemann(a, b, i, j) - riemann(a, i, b, j) + riemann(a, j, b, i))
    odd = [(a, b, c, i) for a, b, c in itertools.product((0, 1), repeat=3) for i in (2, 3)]
    odd += [(i, j, k, a) for i, j, k in itertools.product((2, 3), repeat=3) for a in (0, 1)]
    assert all(zero(riemann(*x)) for x in odd)   # with one or three fiber indices
    R_1212 = sum(F12.diff(x) ** 2 - F11.diff(x) * F22.diff(x) for x in (u, v)) / (4 * lam)
    assert zero(riemann(2, 3, 2, 3) - R_1212)

    rng = random.Random(32)
    point = {f.diff(*x) if x else f: mpmath.mpf(rng.uniform(-1.0, 1.0))
             for f in (lam, F11, F12, F22) for x in ((), (u,), (v,), (u, u), (u, v), (v, v))}
    point.update({lam: mpmath.mpf(2), F11: mpmath.mpf(3), F12: mpmath.mpf(0.5), F22: mpmath.mpf(1)})
    with mpmath.workdps(60):
        jet = [Jet(*(point[x] for x in part)) for part in parts]
        rows = dense_rows(lambda a, b: jet)(None, None)
        rm_sq = _reference(rows)[2]
        _, p, q, r = (x.val for x in jet)
        det = p * r - q * q
        values = [[point[x] for x in part] for part in parts]
        assert abs(_blocks(-1, values, (r / det, -q / det, p / det), det)[0] / rm_sq - 1) < 1e-50


def test_near_axis_curvature_is_exact():
    # the FD oracle returned scalar 33.7, |Ric| 17.06 and |Rm|^2 2,441 at
    # k = 0.5, (0.01, 1), and raised BoundaryTooClose at (1e-4, 0.3); the
    # literals are the 60-digit values of the same kernels (see the gate below)
    # within four times the rounding bound
    for params, u, v, rm_sq, rel in ((GEN, 0.01, 1.0, 1.499550078739501, 1e-11),
                                     (GEN, 1e-4, 0.3, 57.24166022948759, 3e-8),
                                     (GEN05, 0.01, 1.0, 14.73886153105199, 5e-12),
                                     (GEN05, 1e-4, 0.3, 83.78110279203263, 3e-8)):
        sample = curvature4_fd(params, u, v)
        scale = math.sqrt(rm_sq)
        assert abs(sample.scalar) <= rel * scale
        assert abs(sample.ricci_norm - params.ricci_norm(u, v)) <= rel * scale
        assert sample.rm_norm_sq == pytest.approx(rm_sq, rel=rel, abs=0)


@pytest.mark.parametrize("params,power,R,exact,rel", [
    (GEN, 3, 1e5, 3.4645515914956711, 2e-10), (GEN, 3, 1e6, 3.464155069822714, 2e-9),
    (GEN05, 2, 1e5, 1.8855991748863666, 1e-12), (GEN05, 2, 1e6, 1.8855821547811759, 1e-12)])
def test_far_out_curvature_is_exact(params, power, R, exact, rel):
    # R^p |Rm| along eta = 0.7 against the 60-digit value at the same point:
    # the FD oracle was off by 5e7 (k = 0) and 0.99 (k = 0.5) at R = 1e5, and
    # raised IllConditioned at 1e6 (k = 0); rel is four times the rounding bound
    u, v = point_from_polar(params, R, 0.7)
    value = R ** power * math.sqrt(curvature4_fd(params, u, v).rm_norm_sq)
    assert value == pytest.approx(exact, rel=rel, abs=0)


@pytest.mark.parametrize("R,returns", [(1e3, True), (1e4, True), (1e5, False)])
def test_next_to_the_axis_far_out_at_k0(R, returns):
    # along eta = 1e-3 at k = 0 the dense assembly raised IllConditioned at
    # R = 1e4 and 1e5; the block assembly keeps R = 1e4 within the bound of
    # the 60-digit gate, and still raises at 1e5, where the rounding scale of
    # this chart is 1e-5 |Rm|: the axis-adapted chart is left to do
    eps = sys.float_info.epsilon
    u, v = point_from_polar(GEN, R, 1e-3)
    with mpmath.workdps(60):
        scalar, ric_sq, rm_sq, scale = _reference(
            dense_rows(metric4(GEN, u, v))(*jets(mpmath.mpf(u), mpmath.mpf(v))))
        bound, rm = 4.0 * eps * scale, mpmath.sqrt(rm_sq)
        if not returns:
            assert eps * scale > 1e-6 * rm
            with pytest.raises(IllConditioned):
                curvature4_fd(GEN, u, v)
            return
        sample = curvature4_fd(GEN, u, v)
        assert abs(sample.scalar - scalar) <= bound
        assert abs(sample.ricci_norm * GEN.ricci_calibration - mpmath.sqrt(ric_sq)) <= bound
        assert abs(sample.rm_norm_sq - rm_sq) <= bound * (rm + eps * scale)
        assert abs(sample.rm_norm_sq / rm_sq - 1) <= 4e-6


def _reference(rows):
    """(scalar, |Ric|^2, |Rm|^2, rounding scale) of a metric of (u, v) given as
    rows of Jets of mpmath numbers and numbers, by index loops straight from
    the definitions, apart from the dense oracle's numpy assembly.  The scale is
    |T| max_i g_ii g^ii, T the sum of the absolute values of the terms of
    R^l_kij = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik, in the
    metric's norm: the rounding error of each invariant is of order eps times it."""
    zero, n = mpmath.mpf(0), len(rows)
    N = range(n)
    P = [[(e.val, e.du, e.dv, e.duu, e.duv, e.dvv) if isinstance(e, Jet) else (e,) + (0,) * 5
          for e in row] for row in rows]
    g = [[mpmath.mpf(P[i][j][0]) for j in N] for i in N]
    inverse = mpmath.matrix(g) ** -1
    ginv = [[inverse[i, j] for j in N] for i in N]

    def d(m, i, j):   # d_m g_ij
        return P[i][j][1 + m] if m < 2 else zero

    def d2(p, m, i, j):   # d_p d_m g_ij, p < 2
        return P[i][j][3 + p + m] if m < 2 else zero

    gam = [[[sum(ginv[l][m] * (d(i, m, j) + d(j, m, i) - d(m, i, j)) for m in N) / 2
             for j in N] for i in N] for l in N]
    dgam = [[[[sum(ginv[l][m] * ((d2(p, i, m, j) + d2(p, j, m, i) - d2(p, m, i, j)) / 2
                                - sum(d(p, m, q) * gam[q][i][j] for q in N)) for m in N)
               for j in N] for i in N] for l in N] for p in (0, 1)]
    riem, size = {}, {}
    for l, k, i, j in itertools.product(N, N, N, N):
        terms = [dgam[i][l][j][k] if i < 2 else zero, -dgam[j][l][i][k] if j < 2 else zero]
        terms += [gam[l][i][m] * gam[m][j][k] for m in N]
        terms += [-gam[l][j][m] * gam[m][i][k] for m in N]
        riem[l, k, i, j], size[l, k, i, j] = sum(terms), sum(map(abs, terms))
    ric = [[sum(riem[l, k, l, i] for l in N) for i in N] for k in N]
    nonzero = [[[(j, x) for j, x in enumerate(row) if x] for row in mat] for mat in (g, ginv)]

    def norm_sq(X):   # X_lkij X^lkij, lowering l and raising k, i, j
        return sum(a * b * c * e * x * X[l2, k2, i2, j2] for (l, k, i, j), x in X.items() if x
                   for l2, a in nonzero[0][l] for k2, b in nonzero[1][k]
                   for i2, c in nonzero[1][i] for j2, e in nonzero[1][j])
    return (sum(ginv[k][i] * ric[k][i] for k in N for i in N),
            sum(ginv[k][a] * ginv[i][b] * ric[k][i] * ric[a][b]
                for k, i, a, b in itertools.product(N, N, N, N)),
            norm_sq(riem), mpmath.sqrt(norm_sq(size)) * max(g[i][i] * ginv[i][i] for i in N))


def _gate_points():
    """Seeded points of every family: GeneralizedTN at k in {0, +-0.5, +-0.9}, on
    the geodesics of launch angle 1e-3 from either end of the eta range and at
    0.7 out to R = 1e8, at seeded (R, eta), and within 1e-4 of each axis."""
    rng = random.Random(31)
    families = [InstantonParams(k=k) for k in (0.0, 0.5, -0.5, 0.9, -0.9)] + [EXC, HP, FLAT]
    points = []
    for params in families:
        lo, hi = params.eta_range
        for eta, R in itertools.product((lo + 1e-3, 0.7, hi - 1e-3), (1.0, 1e8)):
            points.append((params, *point_from_polar(params, R, eta)))
        for _ in range(3):
            eta, R = rng.uniform(lo + 1e-3, hi - 1e-3), 10.0 ** rng.uniform(-2.0, 8.0)
            points.append((params, *point_from_polar(params, R, eta)))
        near, far = 10.0 ** rng.uniform(-6.0, -4.0), 10.0 ** rng.uniform(-1.0, 1.0)
        points += [(params, near, far), (params, far, near)]   # the u = 0 and the v = 0 axis
    return points


def test_jet_curvature_matches_60_digits():
    # the same kernels on jets of 60-digit numbers through the index loops of
    # _reference: each invariant within 4 eps times the rounding scale (the
    # worst seen is 2.1), and |Rm|^2 within 4e-6 (curvature4_fd raises where
    # the scale exceeds 1e-6 |Rm|: it never returns noise) but for flat space,
    # which is zero to within the scale.  Where it raises, the scale is
    # beyond 1e-7 |Rm|, in reach of its bound: as along eta = 1e-3 at R = 1e8
    eps = sys.float_info.epsilon
    raised = 0
    with mpmath.workdps(60):
        for params, u, v in _gate_points():
            rows = dense_rows(metric4(params, u, v))(*jets(mpmath.mpf(u), mpmath.mpf(v)))
            scalar, ric_sq, rm_sq, scale = _reference(rows)
            bound, rm = 4.0 * eps * scale, mpmath.sqrt(rm_sq)
            try:
                sample = curvature4_fd(params, u, v)
            except IllConditioned:
                raised += 1
                assert eps * scale > 1e-7 * rm, (params, u, v)
                continue
            where = (params, u, v)
            assert abs(sample.scalar - scalar) <= bound, where
            assert abs(sample.ricci_norm * params.ricci_calibration - mpmath.sqrt(ric_sq)) <= bound, where
            assert abs(sample.rm_norm_sq - rm_sq) <= bound * (rm + eps * scale), where
            assert params.family is Family.FLAT or abs(sample.rm_norm_sq / rm_sq - 1) <= 4e-6, where
    assert 0 < raised < 30


# ------------------------------------------------------------------ decay fits

@pytest.mark.parametrize("params,exponent", [(GEN, -3.0), (GEN05, -2.0),
                                             (InstantonParams(k=-0.5), -2.0)],
                         ids=["GEN", "GEN05", "GENm05"])
@pytest.mark.parametrize("eta", [0.2, 1.3])
def test_rm_fd_decay_rate(params, exponent, eta):
    # |Rm| falls like R^-3 on standard Taub-NUT and like R^-2 at k != 0;
    # the check curvature.decay-rates holds eta = 0.7
    rate = decay_rate_along_geodesic(params, eta, "Rm_fd", (60.0, 120.0, 240.0, 480.0))
    assert rate == pytest.approx(exponent, abs=0.05)


@pytest.mark.parametrize("params,quantity,radii,message", [
    (GEN, "K_sigma", (60.0, 120.0, 240.0), "at least 4 radii"),
    (GEN, "foo", (60.0, 120.0, 240.0, 480.0), "unknown quantity"),
    (FLAT, "K_sigma", (60.0, 120.0, 240.0, 480.0), "vanishes"),
    (GEN, "Ric", (60.0, 120.0, 240.0, 480.0), "vanishes"),
    (FLAT, "Rm_fd", (60.0, 120.0, 240.0, 480.0), "vanishes")])
def test_decay_rate_rejects_what_it_cannot_fit(params, quantity, radii, message):
    with pytest.raises(BadParams, match=message):
        decay_rate_along_geodesic(params, 0.7, quantity, radii)


DECAY_IDS = [f"{q}-{p.family.value}-k{p.k}-eta{eta:.4f}" for q, p, eta, _, _ in DECAY_CASES]


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["slower", "faster"])
@pytest.mark.parametrize("quantity,params,eta,exponent,tol", DECAY_CASES, ids=DECAY_IDS)
def test_decay_rates_check_holds_each_bound(quantity, params, eta, exponent, tol, sign,
                                            monkeypatch):
    # a fit off by twice its tolerance on either side, at one case only,
    # fails curvature.decay-rates and is named in its message
    from taubnut import curvature
    from taubnut.checks import CheckFailed, decay_rates

    def shifted(pp, e, q, radii):
        rate = decay_rate_along_geodesic(pp, e, q, radii)
        return rate + sign * 2.0 * tol if (q, pp, e) == (quantity, params, eta) else rate

    monkeypatch.setattr(curvature, "decay_rate_along_geodesic", shifted)
    name = f"{quantity} of {params.family.value} k={params.k} at eta={eta:.4f} "
    with pytest.raises(CheckFailed, match=re.escape(name)):
        decay_rates()
