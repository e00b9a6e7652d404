import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taubnut.family import (GEOMETRIES, BadParams, Chart, Family, InstantonParams,
                            WrongFamily, almost_polar_from_uv, chart_from_uv,
                            moment_pde_residual, uv_from_almost_polar,
                            uv_from_chart)
from taubnut.numerics import COMPLEX_STEP

SQRT2 = math.sqrt(2.0)

GEN = InstantonParams()
GEN05 = InstantonParams(k=0.5)
EXC = InstantonParams(family=Family.EXCEPTIONAL_TN)
HP = InstantonParams(family=Family.EXCEPTIONAL_HALF_PLANE)
FLAT = InstantonParams(family=Family.FLAT)


# ------------------------------------------------------------------- params

def test_defaults():
    assert GEN.family is Family.GENERALIZED_TN
    assert abs(GEN.M - SQRT2) < 1e-15
    assert GEN.k == 0.0


def test_param_validation():
    with pytest.raises(BadParams):
        InstantonParams(M=-1.0)
    with pytest.raises(BadParams):
        InstantonParams(M=math.inf)
    with pytest.raises(BadParams):
        InstantonParams(k=1.0)
    with pytest.raises(BadParams):
        InstantonParams(k=-1.3)
    with pytest.raises(BadParams):
        InstantonParams(k=math.nan)
    with pytest.raises(BadParams):
        InstantonParams(family=Family.EXCEPTIONAL_TN, M=2.0)
    with pytest.raises(BadParams):
        InstantonParams(family=Family.EXCEPTIONAL_TN, k=0.5)
    with pytest.raises(BadParams):
        InstantonParams(family=Family.FLAT, k=0.1)


def test_k_sign_convention():
    # only k = +1 names the exceptional geometry; -1 is the axis swap
    with pytest.raises(BadParams):
        InstantonParams(family=Family.EXCEPTIONAL_TN, k=-1.0)
    p = InstantonParams(family=Family.EXCEPTIONAL_TN, k=1.0)
    assert p.k == 1.0


def test_json_roundtrip():
    for p in (GEN05, EXC, HP, FLAT):
        assert InstantonParams.from_json(p.to_json()) == p


def test_enum_values():
    assert Family.GENERALIZED_TN.value == "GeneralizedTN"
    assert Family.EXCEPTIONAL_HALF_PLANE.value == "ExceptionalHalfPlane"
    assert Chart.XY.value == "xy"
    assert Chart.ALMOST_POLAR.value == "almostpolar"


# -------------------------------------------------------------------- charts

def test_xy_quadratic_chart():
    x, y = GEN05.geometry.xy_from_uv(1.0, 2.0)
    assert abs(x - 2.0) < 1e-15          # x = u v
    assert abs(y - (1.0 - 4.0) / 2.0) < 1e-15   # y = (u^2 - v^2)/2


@given(st.floats(min_value=0.01, max_value=10.0),
       st.floats(min_value=0.01, max_value=10.0))
@settings(max_examples=60, deadline=None)
def test_xy_roundtrip(u, v):
    x, y = GEN05.geometry.xy_from_uv(u, v)
    u2, v2 = GEN05.geometry.uv_from_xy(x, y)
    assert abs(u2 - u) < 1e-12 * max(1.0, u)
    assert abs(v2 - v) < 1e-12 * max(1.0, v)


def test_halfplane_chart_is_identity():
    assert uv_from_chart(HP, Chart.XY, 0.3, -0.8) == (0.3, -0.8)


@given(st.floats(min_value=1e-3, max_value=100.0),
       st.floats(min_value=1e-3, max_value=100.0),
       st.floats(min_value=-0.99, max_value=0.99),
       st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=200, deadline=None)
def test_moment_roundtrip(u, v, k, log10_M):
    params = InstantonParams(M=10.0 ** log10_M, k=k)
    p1, p2 = params.geometry.moment_map(u, v)
    u2, v2 = params.geometry.uv_from_moment(p1, p2)
    assert abs(u2 / u - 1.0) < 1e-10
    assert abs(v2 / v - 1.0) < 1e-10


def test_moment_map_exceptional_closed_form():
    u, v = 1.3, 0.7
    p1, p2 = EXC.geometry.moment_map(u, v)
    assert abs(p1 - v * v * (1.0 + u * u) / (2.0 * SQRT2)) < 1e-15
    assert abs(p2 - u * u / (2.0 * SQRT2)) < 1e-15


def test_moment_map_halfplane_closed_form():
    x, y = 0.8, -1.1
    p1, p2 = HP.geometry.moment_map(x, y)
    assert abs(p1 - x * x / 2.0) < 1e-15
    assert abs(p2 - y * (1.0 + x * x)) < 1e-15


def test_chart_dispatch_roundtrip():
    for params, charts in ((GEN05, (Chart.XY, Chart.UV, Chart.MOMENT)),
                           (HP, (Chart.XY,))):
        for chart in charts:
            u0, v0 = 1.2, 0.6
            c1, c2 = chart_from_uv(params, chart, u0, v0)
            u1, v1 = uv_from_chart(params, chart, c1, c2)
            assert abs(u1 - u0) < 1e-10
            assert abs(v1 - v0) < 1e-10
    # the geodesic polar chart needs a root solve: taubnut.geodesics
    with pytest.raises(BadParams, match="root solve"):
        uv_from_chart(GEN05, Chart.POLAR, 3.0, 0.5)
    with pytest.raises(BadParams, match="root solve"):
        chart_from_uv(GEN05, Chart.POLAR, 1.2, 0.6)


# ------------------------------------------------------ complex-step contract

@pytest.mark.parametrize("params", [InstantonParams(family) for family in GEOMETRIES]
                         + [GEN05, InstantonParams(M=0.3, k=-0.9)],
                         ids=lambda p: f"{p.family.value}-M{p.M}-k{p.k}")
@pytest.mark.parametrize("kernel", ["conformal_factor", "fiber", "moment_map",
                                    "ricci_potentials"])
@pytest.mark.parametrize("u,v", [(0.7, 1.3), (1.6, 0.4), (23.0, 0.05)])
def test_kernels_take_complex_steps(params, kernel, u, v):
    # Re f(u + ih) is the float value bit for bit; Im f(u + ih) / h is the
    # derivative, checked against a central difference
    if params.geometry.bounds[1][0] < 0.0:   # a half plane: try v < 0
        v = -v
    fn = getattr(params.geometry, kernel)

    def parts(a, b):
        return np.atleast_1d(np.asarray(fn(a, b)))

    base = parts(u, v)
    d = 1e-6 * max(u, abs(v))
    for shifted in (lambda z: parts(u + z, v), lambda z: parts(u, v + z)):
        got = shifted(complex(0.0, COMPLEX_STEP))
        assert np.array_equal(got.real, base)
        fd = (shifted(d) - shifted(-d)) / (2.0 * d)
        assert np.allclose(got.imag / COMPLEX_STEP, fd, rtol=1e-6,
                           atol=1e-6 * np.abs(base).max())


# ------------------------------------------------------- root-solve residuals

RESIDUAL_PARAMS = [InstantonParams(k=k) for k in (-0.9, 0.0, 0.5, 0.9)] + [EXC, HP]


@pytest.mark.parametrize("params", RESIDUAL_PARAMS, ids=["GENm09", "GEN", "GEN05", "GEN09",
                                                         "EXC", "HP"])
def test_residual_derivatives_match_their_values(params):
    # a wrong slope or curvature would only slow the root solves down (the
    # bisection safeguard still converges), so check both against central
    # differences of the residual's own value on seeded points
    rng = random.Random(7)
    geo = params.geometry
    for _ in range(40):
        u, v = 10.0 ** rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-2.0, 2.0)
        h = geo.launch_residual(u, v)
        x, d = rng.uniform(-8.0, 8.0), 1e-5
        value, slope, curvature = h(x)
        assert curvature is None
        assert slope == pytest.approx((h(x + d)[0] - h(x - d)[0]) / (2.0 * d), rel=1e-6, abs=0)

        R, eta = 10.0 ** rng.uniform(-2.0, 2.0), rng.uniform(0.05, 1.5)
        f, bound = geo.radial_relation(R, eta)
        s, d = bound * rng.uniform(0.2, 1.0), 1e-4
        value, slope, curvature = f(s)
        up, down = f(s + d)[0], f(s - d)[0]
        assert slope == pytest.approx((up - down) / (2.0 * d), rel=1e-6, abs=0)
        assert curvature == pytest.approx((up - 2.0 * value + down) / (d * d),
                                          rel=1e-5, abs=1e-6 * (1.0 + R))


# ----------------------------------------------------------------- moment PDE

def test_moment_pde_residual_halves_quadratically():
    # O(step^2): quartering the step should shrink the residual ~16x; we
    # check the ratio per halving lands near 4
    for params in (GEN05, EXC):
        r1 = moment_pde_residual(params, 0.8, 0.4, step=1e-2)
        r2 = moment_pde_residual(params, 0.8, 0.4, step=5e-3)
        for a, b in zip(r1, r2):
            if abs(a) < 1e-13:      # component already at roundoff
                continue
            assert 3.0 < abs(a) / abs(b) < 5.3


def test_moment_pde_rejects_axis():
    with pytest.raises(BadParams):
        moment_pde_residual(GEN05, 1e-4, 0.5, step=1e-3)


# --------------------------------------------------------------- almost polar

def test_almost_distance_closed_forms():
    k = 0.5
    p = InstantonParams(k=k)
    u, v = 1.1, 0.4
    expect = (math.sqrt(1.0 + k) * u * u + math.sqrt(1.0 - k) * v * v) \
        / math.sqrt(SQRT2 * p.M)
    assert abs(p.geometry.almost_distance(u, v) - expect) < 1e-15
    assert abs(EXC.geometry.almost_distance(u, v) - (u * u / 2.0 + v)) < 1e-15


def test_almost_distance_wrong_family():
    with pytest.raises(WrongFamily):
        HP.geometry.almost_distance(1.0, 1.0)
    with pytest.raises(WrongFamily):
        FLAT.geometry.almost_distance(1.0, 1.0)


@given(st.floats(min_value=1e-3, max_value=100.0),
       st.floats(min_value=0.0, max_value=math.pi / 2.0))
@settings(max_examples=60, deadline=None)
def test_almost_polar_roundtrip(rt, psi):
    for params in (GEN05, EXC):
        u, v = uv_from_almost_polar(params, rt, psi)
        rt2, psi2 = almost_polar_from_uv(params, u, v)
        assert abs(rt2 - rt) < 1e-10 * max(1.0, rt)
        assert abs(psi2 - psi) < 1e-8


def test_almost_polar_origin_convention():
    assert almost_polar_from_uv(GEN05, 0.0, 0.0) == (0.0, 0.0)
    with pytest.raises(BadParams):
        uv_from_almost_polar(GEN05, -1.0, 0.3)
