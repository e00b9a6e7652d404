import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taubnut.family import BadParams, Family, InstantonParams, WrongFamily
from taubnut.geodesics import point_from_polar
from taubnut.metrics import (TORUS_VOLUME, axial_coordinate,
                             collapsing_direction_norms, conformal_factor,
                             fiber_matrix, volume_density)
from taubnut.numerics import jets

GEN = InstantonParams()
GEN05 = InstantonParams(k=0.5)
EXC = InstantonParams(family=Family.EXCEPTIONAL_TN)
HP = InstantonParams(family=Family.EXCEPTIONAL_HALF_PLANE)
FLAT = InstantonParams(family=Family.FLAT)

ALL = [GEN, GEN05, InstantonParams(k=-0.7), InstantonParams(M=3.0, k=0.2),
       EXC, HP, FLAT]


def test_torus_volume():
    assert abs(TORUS_VOLUME - 4.0 * math.pi ** 2) < 1e-15


def test_conformal_factor_spot_values():
    # lambda = 2 sqrt2 D / M; at the standard mass this is 2 D
    assert conformal_factor(GEN05, 1.0, 1.0) == pytest.approx(6.0, abs=1e-14)
    assert conformal_factor(GEN, 2.0, 3.0) == pytest.approx(28.0, abs=1e-13)
    # exceptional: lambda = 1 + u^2, independent of v
    assert conformal_factor(EXC, 1.0, 1.0) == pytest.approx(2.0, abs=1e-15)
    assert conformal_factor(EXC, 0.5, 2.0) == pytest.approx(1.25, abs=1e-15)
    # half-plane: lambda = 1 + x^2, independent of y
    assert conformal_factor(HP, 1.0, -5.0) == pytest.approx(2.0, abs=1e-15)
    assert conformal_factor(FLAT, 1.0, 1.0) == 1.0


def test_axial_coordinate_spot_values():
    assert axial_coordinate(GEN05, 1.0, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert axial_coordinate(EXC, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert axial_coordinate(EXC, 0.5, 2.0) == pytest.approx(0.5, abs=1e-15)
    assert axial_coordinate(FLAT, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_fiber_matrix_frozen():
    F = fiber_matrix(GEN05, 1.0, 1.0)
    expect = np.array([[17.0, 7.0], [7.0, 5.0]]) / 6.0
    assert np.abs(F - expect).max() < 1e-13
    F = fiber_matrix(EXC, 1.0, 1.0)
    assert np.abs(F - np.array([[1.25, 0.25], [0.25, 0.25]])).max() < 1e-15
    assert np.abs(fiber_matrix(FLAT, 1.0, 1.0) - np.eye(2)).max() < 1e-15


@given(st.floats(min_value=0.05, max_value=5.0),
       st.floats(min_value=0.05, max_value=5.0),
       st.sampled_from(range(len(ALL))))
@settings(max_examples=120, deadline=None)
def test_fiber_determinant_is_x_squared(u, v, idx):
    params = ALL[idx]
    if params.family is Family.EXCEPTIONAL_HALF_PLANE:
        v = v - 2.0          # y may be negative on the half plane
    x = axial_coordinate(params, u, v)
    det = np.linalg.det(fiber_matrix(params, u, v))
    assert abs(det - x * x) < 1e-10 * max(1.0, x * x)


@given(st.floats(min_value=0.1, max_value=4.0),
       st.floats(min_value=0.1, max_value=4.0))
@settings(max_examples=60, deadline=None)
def test_fiber_vs_moment_gradients(u, v):
    # G_ij = (grad phi_i . grad phi_j) / lambda, with exact derivatives
    for params in (GEN05, EXC):
        lam = conformal_factor(params, u, v)
        F = fiber_matrix(params, u, v)
        grads = []
        for phi in params.moment_map(*jets(u, v)):
            grads.append((phi.du, phi.dv))
        for i in (0, 1):
            for j in (0, 1):
                oracle = (grads[i][0] * grads[j][0]
                          + grads[i][1] * grads[j][1]) / lam
                assert abs(F[i, j] - oracle) < 1e-12 * max(1.0, abs(oracle))


def test_volume_density_is_lambda_x():
    for params in (GEN05, EXC, FLAT):
        for u, v in ((0.3, 1.7), (1.0, 1.0), (2.5, 0.2)):
            lam = conformal_factor(params, u, v)
            x = axial_coordinate(params, u, v)
            assert volume_density(params, u, v) == pytest.approx(lam * x,
                                                                 rel=1e-14, abs=0)


def _lattice_fiber(params, u, v):
    """T F T^T of the (theta1, theta2) fiber at (u, v) in 60-digit arithmetic,
    T = (w, w_perp) = ((1-k, -(1+k)), (1+k, 1-k))."""
    k = mpmath.mpf(params.k)
    with mpmath.workdps(60):
        e11, e12, e22 = params.fiber(mpmath.mpf(u), mpmath.mpf(v))
        F, T = mpmath.matrix([[e11, e12], [e12, e22]]), mpmath.matrix([[1 - k, -1 - k], [1 + k, 1 - k]])
        L = T * F * T.T
        return L[0, 0], L[0, 1], L[1, 1]


@pytest.mark.parametrize("k", [0.0, 0.5, -0.9])
def test_collapsing_fiber_is_the_lattice_change_of_basis(k):
    params = InstantonParams(k=k)
    for u, v in ((0.3, 1.7), (1.0, 1.0), (2.5, 0.2), (1e-3, 0.6)):
        got, want = params.collapsing_fiber(u, v), _lattice_fiber(params, u, v)
        scale = max(map(abs, want))
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-15 * scale


def test_curvature_fibers_positive_definite():
    for params in ALL:
        for u, y in ((1.3, 0.7), (1e-3, 0.7), (1.3, 1e-3), (1e4, 3e3)):
            if params.family is Family.EXCEPTIONAL_HALF_PLANE:
                y = -y
            e11, e12, e22 = params.curvature_fiber(u, y)(u, y)
            assert conformal_factor(params, u, y) > 0.0
            assert np.linalg.eigvalsh(np.array([[e11, e12], [e12, e22]])).min() > 0.0


# ------------------------------------------------------- collapsing direction

def test_collapsing_dichotomy():
    # along the diagonal ray the lattice direction (1-k, -(1+k)) keeps
    # bounded fiber length while the complement grows ~ linearly in distance
    bounded, growing = zip(*(collapsing_direction_norms(GEN05, t, t)
                             for t in (5.0, 10.0, 20.0, 40.0)))
    assert max(bounded) / min(bounded) < 1.3
    assert growing[-1] / growing[-2] == pytest.approx(16.0, rel=0.05, abs=0)


@pytest.mark.parametrize("k", [0.0, 0.5])
@pytest.mark.parametrize("R", [1e7, 1e9])
def test_collapsing_norms_far_out_match_60_digits(k, R):
    # from the (theta1, theta2) fiber |w|^2 read 1.0 at k = 0 and R = 1e7
    # (60 digits: 0.99999993) and 64.0 at 1e9 (0.99999999929): the entries
    # of size u^2 v^2 cancelled
    params = InstantonParams(k=k)
    u, v = point_from_polar(params, R, 0.7)
    bounded, growing = collapsing_direction_norms(params, u, v)
    want = _lattice_fiber(params, u, v)
    assert bounded == pytest.approx(float(want[0]), rel=1e-15, abs=0)
    assert growing == pytest.approx(float(want[2]), rel=1e-15, abs=0)


def test_collapsing_norms_beyond_the_float_range_are_bad_params():
    # the fiber products overflowed and returned (nan, inf)
    with pytest.raises(BadParams):
        collapsing_direction_norms(GEN05, 1e100, 1e100)


def test_collapsing_needs_generalized():
    with pytest.raises(WrongFamily):
        collapsing_direction_norms(HP, 1.0, 1.0)
