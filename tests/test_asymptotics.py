import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taubnut.asymptotics import (EPSILON_GRID, SmallRadius, almost_ball_volume,
                                 almost_ball_volume_quadrature,
                                 ball_volume_bracket, measured_epsilon_bar,
                                 sphere_sandwich, volume_growth_exponent)
from taubnut.family import (BadParams, Family, InstantonParams, WrongFamily)
from taubnut.numerics import InsufficientSamples

SQRT2 = math.sqrt(2.0)

GEN = InstantonParams()
GEN05 = InstantonParams(k=0.5)
GEN09 = InstantonParams(k=0.9)
EXC = InstantonParams(family=Family.EXCEPTIONAL_TN)
HP = InstantonParams(family=Family.EXCEPTIONAL_HALF_PLANE)


# ------------------------------------------------------------------ the region

def test_region_contains_and_boundary():
    u_max = GEN05.almost_ball_u_max(4.0)
    assert GEN05.almost_distance(0.0, 0.0) <= 4.0
    assert GEN05.almost_distance(u_max * 0.99, 0.0) <= 4.0
    assert not GEN05.almost_distance(u_max * 1.01, 0.0) <= 4.0
    # on the boundary curve v_max(u) the defining function is exactly R
    u = 0.5 * u_max
    v = GEN05.almost_ball_v_max(4.0, u)
    k = GEN05.k
    val = (math.sqrt(1.0 + k) * u * u + math.sqrt(1.0 - k) * v * v) \
        / math.sqrt(SQRT2 * GEN05.M)
    assert val == pytest.approx(4.0, rel=1e-12, abs=0)


# -------------------------------------------------------------- closed volumes

def test_almost_ball_volume_examples():
    # AB(1) for the exceptional family
    assert almost_ball_volume(EXC, 1.0) == pytest.approx(
        math.pi ** 2 / 2.0, rel=1e-15, abs=0)
    # AB(1) at the standard scale
    assert almost_ball_volume(GEN, 1.0) == pytest.approx(
        2.0 * math.pi ** 2 * (1.0 + 2.0 * SQRT2 / 3.0), rel=1e-15, abs=0)
    assert almost_ball_volume(GEN, 0.0) == 0.0


def test_almost_ball_volume_rejects():
    with pytest.raises(WrongFamily):
        almost_ball_volume(HP, 1.0)
    with pytest.raises(BadParams):
        almost_ball_volume(GEN, -1.0)


@pytest.mark.parametrize("params,R", [(GEN, 1e150), (GEN, 1e300), (EXC, 1e100),
                                      (GEN, math.inf), (EXC, math.nan)])
def test_almost_ball_volume_beyond_the_float_range_is_bad_params(params, R):
    # R ** 3 and R ** 4 leaked an OverflowError; NaN returned NaN
    with pytest.raises(BadParams):
        almost_ball_volume(params, R)


@pytest.mark.parametrize("params, R", [(GEN05, 1e150), (EXC, 1e300)])
def test_almost_ball_quadrature_beyond_the_float_range_is_bad_params(params, R):
    # the density overflowed: value inf, error nan and two RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParams):
            almost_ball_volume_quadrature(params, R)


def test_almost_ball_quadrature_rejects_nonpositive_radius():
    for R in (0.0, -1.0):
        with pytest.raises(BadParams):
            almost_ball_volume_quadrature(GEN, R)
        with pytest.raises(BadParams):
            measured_epsilon_bar(GEN, R)


@pytest.mark.parametrize("params", [GEN, GEN05, GEN09,
                                    InstantonParams(M=3.0, k=-0.4), EXC])
@pytest.mark.parametrize("R", [0.5, 1.0, 7.0])
def test_quadrature_confirms_closed_form(params, R):
    got = almost_ball_volume_quadrature(params, R)
    assert got.value == pytest.approx(almost_ball_volume(params, R),
                                      rel=1e-8, abs=0)


def test_scale_covariance():
    # Vol_M(AB(s / sqrt(M))) * M^2 is independent of M, exactly
    s = 3.0
    ref = almost_ball_volume(GEN05, s / SQRT2 ** 0.5) * SQRT2 ** 2
    for M in (0.3, 1.0, 5.0, 40.0):
        p = InstantonParams(M=M, k=0.5)
        got = almost_ball_volume(p, s / math.sqrt(M)) * M * M
        assert got == pytest.approx(ref, rel=1e-14, abs=0)


# ----------------------------------------------------------------- growth fits

def test_growth_exponents():
    radii = (50.0, 100.0, 200.0, 400.0)
    assert volume_growth_exponent(GEN, radii) == pytest.approx(3.0, abs=0.05)
    assert volume_growth_exponent(GEN09, radii) == pytest.approx(3.0,
                                                                 abs=0.05)
    assert volume_growth_exponent(EXC, radii) == pytest.approx(4.0, abs=0.05)


def test_growth_small_radii_sees_quadratic():
    # below the crossover the R^2 term of the generalized family dominates
    exp = volume_growth_exponent(GEN, (0.01, 0.02, 0.04, 0.08))
    assert exp == pytest.approx(2.0, abs=0.1)


def test_growth_exponent_validation():
    with pytest.raises(InsufficientSamples):
        volume_growth_exponent(GEN, (1.0, 2.0, 4.0))
    with pytest.raises(BadParams):
        volume_growth_exponent(GEN, (1.0, 2.0, 2.0, 4.0))


# ------------------------------------------------------------ measured epsilon

def test_epsilon_grid():
    assert len(EPSILON_GRID) == 13
    assert EPSILON_GRID[0] == 0.0
    assert EPSILON_GRID[-1] == pytest.approx(math.pi / 2.0)


def test_measured_epsilon_decays():
    # frozen from the measurement: eps(100) and eps(400), per family
    expect = {
        (GEN, 100.0): 2.5858e-2, (GEN, 400.0): 7.7049e-3,
        (GEN05, 100.0): 3.4793e-2, (GEN05, 400.0): 1.0460e-2,
        (EXC, 100.0): 1.9166e-2, (EXC, 400.0): 5.6660e-3,
    }
    for (params, R), val in expect.items():
        assert measured_epsilon_bar(params, R) == pytest.approx(val,
                                                                rel=1e-3, abs=0)
    for params in (GEN, GEN05, EXC):
        assert measured_epsilon_bar(params, 400.0) \
            < measured_epsilon_bar(params, 100.0)


def test_epsilon_log_over_r_stable():
    # |Rtilde/R - 1| <= C log(R)/R with C stable across a decade
    for params in (GEN, GEN05, EXC):
        cs = [measured_epsilon_bar(params, R) * R / math.log(R)
              for R in (50.0, 100.0, 200.0, 500.0)]
        assert max(cs) / min(cs) < 1.6
        assert max(cs) < 2.0


# -------------------------------------------------------------------- brackets

def test_bracket_contains_almost_ball_volume():
    for params in (GEN, GEN05, EXC):
        lo, hi = ball_volume_bracket(params, 100.0)
        assert lo < hi
        assert lo < almost_ball_volume(params, 100.0) < hi


def test_bracket_tightens():
    for params in (GEN05, EXC):
        lo1, hi1 = ball_volume_bracket(params, 100.0)
        lo2, hi2 = ball_volume_bracket(params, 400.0)
        assert (hi2 - lo2) / hi2 < (hi1 - lo1) / hi1


def test_bracket_small_radius_rejected():
    with pytest.raises(SmallRadius):
        ball_volume_bracket(GEN05, 9.9)


# -------------------------------------------------------------------- sandwich

def test_sphere_sandwich_bands():
    # the gap Rtilde - R normalized by log R stays in a bounded band that
    # does not widen with the radius
    for params, radii in ((GEN, (100.0, 1000.0)),
                          (GEN05, (100.0, 1000.0)),
                          (EXC, (100.0, 1000.0))):
        s1 = sphere_sandwich(params, radii[0], n=50)
        s2 = sphere_sandwich(params, radii[1], n=50)
        for s in (s1, s2):
            assert -2.0 < s.c_min <= s.c_max <= 0.5
        width1 = s1.c_max - s1.c_min
        width2 = s2.c_max - s2.c_min
        assert width2 <= width1 + 1e-6


def test_sphere_sandwich_gap_sign():
    # on the almost-sphere the surrogate sits at or below the distance:
    # gap = Rtilde - R <= 0, touching zero on an axis
    s = sphere_sandwich(EXC, 500.0, n=50)
    assert s.gap_max <= 1e-9
    assert s.gap_min > -0.5 * math.log(500.0)


# With the angle written as 0.5*pi*i/(n-1), the last angle of these sample
# counts rounded above pi/2 and the last point fell off the chart.
ROUNDING_SAMPLE_COUNTS = (14, 27, 48, 53, 84, 95, 100, 105, 167, 168, 178,
                          188, 189, 199, 209, 220)


@pytest.mark.parametrize("params", [GEN05, EXC], ids=["GEN05", "EXC"])
def test_sphere_sandwich_any_sample_count(params):
    for n in ROUNDING_SAMPLE_COUNTS:
        s = sphere_sandwich(params, 100.0, n=n)
        assert math.isfinite(s.gap_min) and s.gap_min <= s.gap_max
        assert -2.0 < s.c_min <= s.c_max <= 0.5


@pytest.mark.parametrize("n", [0, 1, 2.5])
def test_sphere_sandwich_rejects_a_bad_sample_count(n):
    # 0 leaked "min() arg is an empty sequence", 1 a ZeroDivisionError
    with pytest.raises(BadParams, match="n must be"):
        sphere_sandwich(GEN05, 100.0, n=n)


def test_sphere_sandwich_validation():
    with pytest.raises(BadParams):
        sphere_sandwich(GEN05, 0.0, n=50)
    with pytest.raises(WrongFamily):
        sphere_sandwich(HP, 10.0, n=50)
