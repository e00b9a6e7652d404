import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taubnut.curvature import (OriginSingularity,
                               curvature4_fd, decay_rate_along_geodesic,
                               l2_ricci, polytope_curvature_fd,
                               polytope_curvature_polar_form,
                               ricci_pseudo_jacobian_fd)
from taubnut.family import Family, InstantonParams, WrongFamily
from taubnut.metrics import metric4, volume_density
from taubnut.numerics import fd_curvature

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
    assert GEN.geometry.polytope_curvature(0.0, 0.0) == pytest.approx(-1.0, abs=1e-15)


def test_k_sigma_closed_form():
    k, M, u, v = 0.5, SQRT2, 1.2, 0.8
    D = 1.0 + (1.0 + k) * u * u + (1.0 - k) * v * v
    expect = (M / SQRT2) * (-1.0 + k * (1.0 + k) * u * u
                            - k * (1.0 - k) * v * v) / D ** 3
    assert GEN05.geometry.polytope_curvature(u, v) == pytest.approx(expect, rel=1e-14, abs=0)


def test_k_sigma_exceptional_closed_form():
    for u in (0.3, 1.0, 2.5):
        expect = -(1.0 - u * u) / (1.0 + u * u) ** 3
        assert EXC.geometry.polytope_curvature(u, 0.7) == pytest.approx(expect,
                                                                rel=1e-14, abs=0)
        assert HP.geometry.polytope_curvature(u, -0.3) == pytest.approx(expect,
                                                                rel=1e-14, abs=0)


@pytest.mark.parametrize("params", [GEN, GEN05, GEN09, EXC, HP])
def test_k_sigma_vs_conformal_oracle(params):
    # K = -Laplacian(log lambda) / (2 lambda), the defining identity
    for u, v in INTERIOR:
        if params.family is Family.EXCEPTIONAL_HALF_PLANE:
            v -= 1.5
        got = params.geometry.polytope_curvature(u, v)
        fd = polytope_curvature_fd(params, u, v)
        assert abs(got - fd) < 1e-4 * max(1.0, abs(got))


def test_overscaled_variant_differs_by_sqrt2():
    # the prefactor-M variant is exactly sqrt(2) times the true curvature;
    # keeping this pinned stops silent renormalization
    for u, v in INTERIOR:
        truth = GEN05.geometry.polytope_curvature(u, v)
        over = GEN05.geometry.polytope_curvature_overscaled(u, v)
        assert over == pytest.approx(SQRT2 * truth, rel=1e-14, abs=0)
        assert abs(over - polytope_curvature_fd(GEN05, u, v)) > 0.1 * abs(truth)


def test_polar_form_matches_overscaled_every_mass():
    # polar radius r = (u^2+v^2)/(sqrt2 M), angle theta = pi/2 - 2 eta
    for M in (0.7, SQRT2, 3.0):
        p = InstantonParams(M=M, k=0.4)
        for u, v in INTERIOR:
            r = (u * u + v * v) / (SQRT2 * M)
            theta = math.pi / 2.0 - 2.0 * math.atan2(v, u)
            got = polytope_curvature_polar_form(p, r, theta)
            over = p.geometry.polytope_curvature_overscaled(u, v)
            assert got == pytest.approx(over, rel=1e-12, abs=0)


def test_polar_form_origin_raises():
    with pytest.raises(OriginSingularity):
        polytope_curvature_polar_form(GEN05, 0.0, 0.3)


def test_flat_is_flat():
    for u, v in INTERIOR:
        assert FLAT.geometry.polytope_curvature(u, v) == 0.0
        assert FLAT.geometry.ricci_norm(u, v) == 0.0


# ------------------------------------------------------------ Ricci quantities

def test_ricci_potentials_halfplane():
    x, y = 0.8, -1.1
    r1, r2 = HP.geometry.ricci_potentials(x, y)
    assert r1 == pytest.approx(2.0 / (1.0 + x * x), rel=1e-14, abs=0)
    assert r2 == pytest.approx(4.0 * y / (1.0 + x * x), rel=1e-14, abs=0)


def test_pseudo_density_closed_forms():
    k, u, v = 0.5, 1.2, 0.8
    D = 1.0 + (1.0 + k) * u * u + (1.0 - k) * v * v
    assert GEN05.geometry.ricci_density(u, v) == pytest.approx(
        8.0 * k * k * u * v / D ** 3, rel=1e-14, abs=0)
    assert EXC.geometry.ricci_density(u, v) == pytest.approx(
        2.0 * u * v / (1.0 + u * u) ** 3, rel=1e-14, abs=0)
    x = 0.9
    assert HP.geometry.ricci_density(x, 0.0) == pytest.approx(
        16.0 * x / (1.0 + x * x) ** 3, rel=1e-14, abs=0)


def test_pseudo_density_vanishes_at_k0():
    for u, v in INTERIOR:
        assert GEN.geometry.ricci_density(u, v) == 0.0


@pytest.mark.parametrize("params", [GEN05, GEN09, EXC, HP])
def test_pseudo_density_vs_jacobian(params):
    # d(R1) ^ d(R2) computed by finite differences of the potentials must
    # reproduce the closed-form density; this is what pins the half-plane
    # prefactor at 16, not 8
    for u, v in INTERIOR:
        if params.family is Family.EXCEPTIONAL_HALF_PLANE:
            v -= 1.5
        fd = ricci_pseudo_jacobian_fd(params, u, v)
        closed = params.geometry.ricci_density(u, v)
        assert abs(fd - closed) < 1e-5 * max(1.0, abs(closed))


def test_halfplane_prefactor_refutes_8():
    x = 0.9
    fd = ricci_pseudo_jacobian_fd(HP, x, 0.3)
    assert abs(fd - 8.0 * x / (1.0 + x * x) ** 3) > 1e-2


def test_ricci_norm_closed_forms():
    k, u, v = 0.5, 1.2, 0.8
    D = 1.0 + (1.0 + k) * u * u + (1.0 - k) * v * v
    assert GEN05.geometry.ricci_norm(u, v) == pytest.approx(
        SQRT2 * k * SQRT2 / D ** 2, rel=1e-14, abs=0)
    assert EXC.geometry.ricci_norm(u, v) == pytest.approx(2.0 / (1.0 + u * u) ** 2,
                                                  rel=1e-14, abs=0)
    assert HP.geometry.ricci_norm(u, v) == pytest.approx(
        math.sqrt(8.0) / (1.0 + u * u) ** 2, rel=1e-14, abs=0)


@pytest.mark.parametrize("params,factor", [(GEN05, 1.0), (EXC, 1.0),
                                           (HP, 2.0)])
def test_product_identity(params, factor):
    # pseudo-density = factor * |Ric|^2 * lambda * x, exactly; the factor 2
    # on the half plane is the honest mismatch between its norm convention
    # and its Jacobian density
    for u, v in INTERIOR:
        lhs = params.geometry.ricci_density(u, v)
        rhs = factor * params.geometry.ricci_norm(u, v) ** 2 \
            * volume_density(params, u, v)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=0)


# ------------------------------------------------------------------- energies

def test_l2_ricci_closed_vs_quadrature():
    for k in (0.3, 0.5, 0.9):
        rep = l2_ricci(InstantonParams(k=k))
        assert rep.closed_form == pytest.approx(
            4.0 * math.pi ** 2 * k * k / (1.0 - k * k), rel=1e-15, abs=0)
        assert rep.rel_error < 1e-6


@pytest.mark.parametrize("k", [0.99, -0.99, 0.999])
def test_l2_ricci_near_the_chirality_limit(k):
    # D = 1 + (1+k)u^2 + (1-k)v^2 grows along one axis only once
    # (1-|k|) t^2 ~ 1, so the promised r^-4 decay of the density sets in
    # past the first arcs the quadrature checks it on (radii 8 and 16)
    rep = l2_ricci(InstantonParams(k=k))
    assert rep.rel_error <= 1e-9


def test_l2_ricci_flat_and_k0():
    assert l2_ricci(FLAT).closed_form == 0.0
    assert l2_ricci(GEN).closed_form == 0.0


def test_l2_riemann_identity():
    for k in (0.0, 0.5, 0.9):
        p = InstantonParams(k=k)
        got = p.geometry.l2_riemann
        assert got == pytest.approx(
            16.0 * math.pi ** 2 * (2.0 - k * k) / (1.0 - k * k), rel=1e-15, abs=0)
        assert got - 4.0 * l2_ricci(p).closed_form == pytest.approx(
            32.0 * math.pi ** 2, rel=1e-15, abs=0)


def test_l2_riemann_needs_generalized():
    with pytest.raises(WrongFamily):
        EXC.geometry.l2_riemann


def test_exceptional_energy_growth():
    rep = l2_ricci(EXC)
    assert rep.closed_form == math.inf
    assert rep.growth_exponent == pytest.approx(2.0, abs=0.05)


def test_halfplane_energy_growth_linear():
    rep = l2_ricci(HP)
    assert rep.growth_exponent == pytest.approx(1.0, abs=1e-3)
    # E(strip of half-height R) = 32 pi^2 R exactly
    for R, val in rep.growth_samples:
        assert val == pytest.approx(32.0 * math.pi ** 2 * R, rel=1e-6, abs=0)


# ------------------------------------------------------------------ 4-metric FD

@pytest.mark.parametrize("params", [GEN, GEN05, EXC, HP])
def test_scalar_flat_and_ricci_calibrated(params):
    for u, v in ((0.8, 1.1), (1.5, 0.6)):
        if params.family is Family.EXCEPTIONAL_HALF_PLANE:
            v -= 1.5
        sample = curvature4_fd(params, u, v)
        assert abs(sample.scalar) < 1e-3
        closed = params.geometry.ricci_norm(u, v)
        assert abs(sample.ricci_norm - closed) < 2e-4 * max(1.0, closed)


def test_k0_is_ricci_flat():
    for u, v in INTERIOR:
        assert curvature4_fd(GEN, u, v).ricci_norm < 1e-4


def test_calibration_table():
    assert GEN.geometry.ricci_calibration == 2.0
    assert HP.geometry.ricci_calibration == pytest.approx(SQRT2)


@pytest.mark.parametrize("params,exact", [(GEN, 32.0 / 243.0), (GEN05, 32.0 / 243.0),
                                          (EXC, 2.0)], ids=["GEN", "GEN05", "EXC"])
def test_rm_norm_sq_exact_at_1_1(params, exact):
    # closed values of |Rm|^2 at (u, v) = (1, 1) from a symbolic derivation of
    # the 4-metric of family.py; the FD errors are 1.3e-7, 5.8e-7 and 3.8e-7
    assert curvature4_fd(params, 1.0, 1.0).rm_norm_sq == pytest.approx(exact, rel=2e-6, abs=0)


def _exact_ints(a):
    """The float array a as integers m with a = m * 2^-1074 exactly."""
    return np.array([int(Fraction(x) * 2 ** 1074) for x in a.ravel()],
                    dtype=object).reshape(a.shape)


def test_rm_norm_sq_is_the_full_contraction():
    # the plain six-operand einsum over fd_curvature's output, summed in exact
    # arithmetic: in floats its one loop over 4^8 index tuples is itself off
    # by up to 2.1e-13 relative at these points (k = 0); the index-at-a-time
    # contraction by 4.1e-15
    rng = random.Random(13)
    for i in range(50):
        params = (GEN, GEN05, EXC, HP)[i % 4]
        u, v = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
        g, ginv, riem, _ = fd_curvature(lambda a, b: metric4(params, a, b), u, v, step=1e-3)
        low, up = _exact_ints(np.einsum('lm,mkij->lkij', g, riem)), _exact_ints(ginv)
        total = np.einsum('abcd,efgh,ae,bf,cg,dh->', low, low, up, up, up, up, optimize=True)
        exact = float(Fraction(int(total), 2 ** (6 * 1074)))
        assert abs(curvature4_fd(params, u, v).rm_norm_sq / exact - 1.0) <= 1e-13


# ------------------------------------------------------------------ decay fits

def test_decay_rates():
    radii = (60.0, 120.0, 240.0, 480.0)
    # k = 0: |K_sigma| ~ R^-3 along every geodesic
    for eta in (0.0, 0.7, math.pi / 2):
        rate = decay_rate_along_geodesic(GEN, eta, "K_sigma", radii)
        assert rate == pytest.approx(-3.0, abs=0.1)
    # k = 0.5 generic angle: ~ R^-2
    rate = decay_rate_along_geodesic(GEN05, 0.7, "K_sigma", radii)
    assert rate == pytest.approx(-2.0, abs=0.1)
    rate = decay_rate_along_geodesic(GEN05, 0.7, "Ric", radii)
    assert rate == pytest.approx(-2.0, abs=0.1)
    # the exceptional families have non-decaying directions
    rate = decay_rate_along_geodesic(EXC, math.pi / 2, "K_sigma", radii)
    assert abs(rate) < 0.05
    rate = decay_rate_along_geodesic(HP, math.pi / 2, "K_sigma", radii)
    assert abs(rate) < 0.05


@pytest.mark.parametrize("params,exponent", [(GEN, -3.0), (GEN05, -2.0),
                                             (InstantonParams(k=-0.5), -2.0)],
                         ids=["GEN", "GEN05", "GENm05"])
@pytest.mark.parametrize("eta", [0.2, 0.7, 1.3])
def test_rm_fd_decay_rate(params, exponent, eta):
    # |Rm| falls like R^-3 on standard Taub-NUT and like R^-2 at k != 0
    rate = decay_rate_along_geodesic(params, eta, "Rm_fd", (60.0, 120.0, 240.0, 480.0))
    assert rate == pytest.approx(exponent, abs=0.05)
