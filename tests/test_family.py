import contextlib
import functools
import io
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taubnut import cli
from taubnut.blowdown import (blowdown_distance, conifold_curvatures, conifold_metric,
                              exceptional_blowdown_metric)
from taubnut.curvature import decay_rate_along_geodesic
from taubnut.family import (GEOMETRIES, BadParams, Chart, ExceptionalHalfPlane,
                            ExceptionalTN, Family, Flat, GeneralizedTN, InstantonParams,
                            WrongFamily, almost_polar_from_uv,
                            moment_pde_residual, uv_from_almost_polar)
from taubnut.geodesics import distance, geodesic_shoot, point_from_polar, uv_from_chart
from taubnut.blowdown import blowdown_xy_from_uv, pointed_limit_fiber, second_blowdown_conformal_xy
from taubnut.numerics import InsufficientSamples, Jet, fit_power_law, jets

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


@pytest.mark.parametrize("args,kwargs", [
    (("GeneralizedTN",), {}), ((5,), {}), (([1],), {}), ((), {"M": "a"}),
    ((Family.EXCEPTIONAL_TN,), {"k": "x"}), ((), {"k": [1]}), ((), {"M": 1 + 2j})],
    ids=["family-name", "family-int", "family-list", "M-str", "k-str", "k-list", "M-complex"])
def test_parameters_of_the_wrong_type_are_bad_params(args, kwargs):
    # a family that is not a Family member raised KeyError, and an M or k that
    # is not a real number ValueError or TypeError
    with pytest.raises(BadParams, match="need a Family and real M and k"):
        InstantonParams(*args, **kwargs)


@pytest.mark.parametrize("call", [
    lambda: conifold_metric("x", 1.0, 1.0), lambda: blowdown_distance([1], 1.0, 1.0),
    lambda: distance(GEN, "1", 1.0), lambda: point_from_polar(GEN, 1.0, "x"),
    lambda: point_from_polar(GEN, "x", 1.0), lambda: geodesic_shoot(GEN, "x", 1.0),
    lambda: decay_rate_along_geodesic(GEN, 0.7, "Rm_fd", ("a", "b", "c", "d")),
    lambda: decay_rate_along_geodesic(GEN, 0.7, "Rm_fd", None),
    lambda: conifold_curvatures(0.5, "x", 0.5)],
    ids=["chirality-str", "chirality-list", "point-str", "eta-str", "radius-str", "shoot-eta-str",
         "decay-radii-str", "decay-radii-none", "conifold-point-str"])
def test_arguments_of_the_wrong_type_are_bad_params(call):
    # the chirality's float() raised ValueError or TypeError, and the point,
    # angle and radius checks' comparisons TypeError; the decay fit's float()
    # of a radius raised ValueError and its len(None) TypeError, and the
    # conifold's u * u TypeError
    with pytest.raises(BadParams):
        call()


@pytest.mark.parametrize("M", [5e-324, 1e-323, 2e-323, 6.29e-308, 1.272e308, 1.7e308])
def test_a_mass_whose_derived_constants_leave_the_normal_floats_is_bad_params(M):
    # M / (2 sqrt 2) rounded to 0 at 5e-324 (a ZeroDivisionError in eval), to
    # one subnormal for 1e-323 ... 2e-323 (three masses, one mass_root), and
    # sqrt 2 M overflowed at 1.7e308 (eval printed almost_distance 0)
    with pytest.raises(BadParams, match="mass must lie"):
        InstantonParams(M=M)


def test_masses_at_the_ends_of_the_range_are_valid():
    for M in (6.3e-308, 1e-300, 1e300, 1.27e308):
        assert InstantonParams(M=M).M == M


def test_k_sign_convention():
    # only k = +1 names the exceptional geometry; -1 is the axis swap
    with pytest.raises(BadParams):
        InstantonParams(family=Family.EXCEPTIONAL_TN, k=-1.0)
    p = InstantonParams(family=Family.EXCEPTIONAL_TN, k=1.0)
    assert p.k == 1.0


def test_params_are_an_instance_of_the_family_class():
    assert type(InstantonParams(Family.FLAT)) is Flat
    for params, cls in ((GEN05, GeneralizedTN), (EXC, ExceptionalTN),
                        (HP, ExceptionalHalfPlane), (FLAT, Flat)):
        assert type(params) is cls and isinstance(params, InstantonParams)


def test_value_semantics_go_by_family_and_parameters():
    assert InstantonParams(k=0.5) == GEN05 and hash(InstantonParams(k=0.5)) == hash(GEN05)
    assert InstantonParams(M=SQRT2) == GEN and InstantonParams(M=2.0) != GEN
    assert HP != FLAT and GEN05 != InstantonParams(k=0.25)
    assert len({GEN, InstantonParams(), EXC, InstantonParams(Family.EXCEPTIONAL_TN, k=1.0)}) == 2
    for name in ("family", "M", "k", "mass_root", "l2_riemann", "new"):
        with pytest.raises(AttributeError):   # fields and derived constants alike
            setattr(GEN05, name, None)
        with pytest.raises(AttributeError):
            delattr(GEN05, name)
    assert (GEN05.family, GEN05.M, GEN05.k) == (Family.GENERALIZED_TN, SQRT2, 0.5)
    assert GEN05.mass_root == math.sqrt(SQRT2 / (2.0 * SQRT2))
    # a named tuple's _replace builds the copy through the same validation
    assert GEN05._replace(k=0.25) == InstantonParams(k=0.25) and GEN05._replace(k=0.25).b == math.sqrt(0.75)
    with pytest.raises(BadParams):
        EXC._replace(M=2.0)


def test_repr_names_the_family_class_and_the_three_fields():
    assert repr(GEN05) == ("GeneralizedTN(family=<Family.GENERALIZED_TN: 'GeneralizedTN'>, "
                           "M=1.4142135623730951, k=0.5)")
    assert repr(FLAT) == "Flat(family=<Family.FLAT: 'Flat'>, M=None, k=None)"


def test_exceptional_reports_k_one_and_no_mass():
    assert EXC.k == 1.0 and EXC.M is None
    assert (HP.M, HP.k) == (None, None)


def test_serialized_bytes():
    # the parameters the CLI reports echo
    assert GEN05.as_dict() == {"family": "GeneralizedTN", "M": SQRT2, "k": 0.5}
    for params in (EXC, HP, FLAT):
        assert params.as_dict() == {"family": params.family.value}


def test_a_missing_formula_raises_wrong_family():
    with pytest.raises(WrongFamily, match="l2_riemann is not defined for ExceptionalTN"):
        EXC.l2_riemann
    with pytest.raises(WrongFamily):
        FLAT.polar_coefficient(0.6, 0.8, 1.0)
    assert not hasattr(HP, "almost_distance")


def test_enum_values():
    assert Family.GENERALIZED_TN.value == "GeneralizedTN"
    assert Family.EXCEPTIONAL_HALF_PLANE.value == "ExceptionalHalfPlane"
    assert Chart.XY.value == "xy"
    assert Chart.ALMOST_POLAR.value == "almostpolar"


# -------------------------------------------------------------------- charts

def test_xy_quadratic_chart():
    x, y = GEN05.xy_from_uv(1.0, 2.0)
    assert abs(x - 2.0) < 1e-15          # x = u v
    assert abs(y - (1.0 - 4.0) / 2.0) < 1e-15   # y = (u^2 - v^2)/2


@given(st.floats(min_value=0.01, max_value=10.0),
       st.floats(min_value=0.01, max_value=10.0))
@settings(max_examples=60, deadline=None)
def test_xy_roundtrip(u, v):
    x, y = GEN05.xy_from_uv(u, v)
    u2, v2 = GEN05.uv_from_xy(x, y)
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
    p1, p2 = params.moment_map(u, v)
    u2, v2 = params.uv_from_moment(p1, p2)
    assert abs(u2 / u - 1.0) < 1e-10
    assert abs(v2 / v - 1.0) < 1e-10


def test_moment_map_exceptional_closed_form():
    u, v = 1.3, 0.7
    p1, p2 = EXC.moment_map(u, v)
    assert abs(p1 - v * v * (1.0 + u * u) / (2.0 * SQRT2)) < 1e-15
    assert abs(p2 - u * u / (2.0 * SQRT2)) < 1e-15


def test_moment_map_halfplane_closed_form():
    x, y = 0.8, -1.1
    p1, p2 = HP.moment_map(x, y)
    assert abs(p1 - x * x / 2.0) < 1e-15
    assert abs(p2 - y * (1.0 + x * x)) < 1e-15


def test_chart_dispatch_roundtrip():
    for params, charts in ((GEN05, (Chart.XY, Chart.UV, Chart.MOMENT)),
                           (HP, (Chart.XY,))):
        for chart in charts:
            u0, v0 = 1.2, 0.6
            to_chart = {Chart.XY: params.xy_from_uv, Chart.UV: lambda u, v: (u, v),
                        Chart.MOMENT: params.moment_map}[chart]
            u1, v1 = uv_from_chart(params, chart, *to_chart(u0, v0))
            assert abs(u1 - u0) < 1e-10
            assert abs(v1 - v0) < 1e-10
    # the polar chart: the dispatch, eval and point_from_polar give one (u, v)
    names = {family: name for name, family in cli.FAMILY_NAMES.items()}
    for params in [InstantonParams(family) for family in GEOMETRIES] + [GEN05]:
        for R, eta in ((3.0, 0.5), (0.7, params.eta_range[0])):
            rec = point_from_polar(params, R, eta)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["eval", "--family", names[params.family],
                                 *(["--k", str(params.k)] if params.k else []),
                                 "--chart", "polar", "--point", f"{R!r},{eta!r}"]) == 0
            point = json.loads(out.getvalue())["point"]
            assert uv_from_chart(params, Chart.POLAR, R, eta) == (rec.u, rec.v) \
                == (point["u"], point["v"])


# --------------------------------------------------------------- jet contract

def _numbers(out):
    """The numbers of a kernel's result, nested tuples flattened."""
    return [x for part in out for x in _numbers(part)] if isinstance(out, tuple) else [out]


def _jet_parts(out, name):
    """The part ``name`` of each Jet the kernel returned; a number is constant."""
    return np.array([getattr(x, name) if isinstance(x, Jet) else (x if name == "val" else 0.0)
                     for x in _numbers(out)])


#: the blowdown kernels that take Jets, as functions of (u, v)
BLOWDOWN_KERNELS = {"conifold_metric-k0.5": functools.partial(conifold_metric.__wrapped__, 0.5),
                    "conifold_metric-k-0.9": functools.partial(conifold_metric.__wrapped__, -0.9),
                    "exceptional_blowdown_metric": exceptional_blowdown_metric.__wrapped__,
                    "blowdown_distance": functools.partial(blowdown_distance, 0.5)}
JET_KERNELS = [(kernel, params) for kernel in ("conformal_factor", "fiber", "moment_map",
                                               "ricci_potentials", "curvature_fiber")
               for params in [InstantonParams(family) for family in GEOMETRIES]
               + [GEN05, InstantonParams(M=0.3, k=-0.9)]]
JET_KERNELS += [(name, None) for name in BLOWDOWN_KERNELS]


@pytest.mark.parametrize("kernel,params", JET_KERNELS, ids=[
    name if params is None else f"{name}-{params.family.value}-M{params.M}-k{params.k}"
    for name, params in JET_KERNELS])
@pytest.mark.parametrize("u,v", [(0.7, 1.3), (1.6, 0.4), (23.0, 0.05)])
def test_kernels_take_jets(kernel, params, u, v):
    # on the jets of (u, v) the value is the float kernel's bit for bit, the
    # gradient agrees with central differences of the float kernel, and the
    # Hessian with central differences of the gradient
    if params is None:
        fn = BLOWDOWN_KERNELS[kernel]
    else:
        if params.bounds[1][0] < 0.0:   # a half plane: try v < 0
            v = -v
        fn = getattr(params, kernel)
        if kernel == "curvature_fiber":
            fn = fn(u, v)   # the fiber, in the torus basis it picks at (u, v)

    def jet(a, b, name):
        return _jet_parts(fn(*jets(a, b)), name)

    base = np.array(_numbers(fn(u, v)))
    assert np.array_equal(jet(u, v, "val"), base)
    d = 1e-6 * max(u, abs(v))
    for name, shift, part in (("du", (d, 0.0), "val"), ("dv", (0.0, d), "val"),
                              ("duu", (d, 0.0), "du"), ("duv", (0.0, d), "du"),
                              ("dvv", (0.0, d), "dv")):
        ahead, behind = (jet(u + c * shift[0], v + c * shift[1], part) for c in (1.0, -1.0))
        fd = (ahead - behind) / (2.0 * d)
        # the atol of the gradient is 1e-6 |value|; a Hessian entry is of
        # size |value| / max(u, |v|)^2, or less, and its atol shrinks alike
        scale = np.abs(base).max() / (1.0 if part == "val" else max(u, abs(v)) ** 2)
        assert np.allclose(jet(u, v, name), fd, rtol=1e-6, atol=1e-6 * scale), name


# ------------------------------------------------------- root-solve residuals

RESIDUAL_PARAMS = [InstantonParams(k=k) for k in (-0.9, 0.0, 0.5, 0.9)] + [EXC, HP]


@pytest.mark.parametrize("params", RESIDUAL_PARAMS, ids=["GENm09", "GEN", "GEN05", "GEN09",
                                                         "EXC", "HP"])
def test_residual_derivatives_match_their_values(params):
    # a wrong slope or curvature would only slow the root solves down (the
    # bisection safeguard still converges), so check both against central
    # differences of the residual's own value on seeded points
    rng = random.Random(7)
    for _ in range(40):
        u, v = 10.0 ** rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-2.0, 2.0)
        h = params.launch_residual(u, v)
        x, d = rng.uniform(-8.0, 8.0), 1e-5
        value, slope, curvature = h(x)
        assert curvature is None
        assert slope == pytest.approx((h(x + d)[0] - h(x - d)[0]) / (2.0 * d), rel=1e-6, abs=0)

        R, eta = 10.0 ** rng.uniform(-2.0, 2.0), rng.uniform(0.05, 1.5)
        f, bound = params.radial_relation(R, math.cos(eta), math.sin(eta))
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


@pytest.mark.parametrize("params", [GEN05, EXC], ids=["GEN05", "EXC"])
@pytest.mark.parametrize("x,y", [(-1.0, 1.0), (-1e-300, 0.5), (math.nan, 1.0), (1.0, math.nan),
                                 (math.inf, 1.0), (1.0, -math.inf)])
def test_quadrant_xy_chart_is_bad_params_off_its_domain(params, x, y):
    # the squaring map's inverse took (-1, 1) to the (u, v) of (1, 1), and a
    # NaN or an infinite coordinate to a point that is not finite
    with pytest.raises(BadParams, match="xy chart domain"):
        uv_from_chart(params, Chart.XY, x, y)
    assert params.uv_from_xy(-0.0, 0.5) == params.uv_from_xy(0.0, 0.5)   # -0.0 is the axis


def test_eval_of_a_mirrored_xy_point_exits_2():
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["eval", "--chart", "xy", "--point=-1,1"]) == 2
    assert err.getvalue().startswith("error: (-1.0, 1.0) is not a finite point")


@pytest.mark.parametrize("call,error", [
    (lambda: fit_power_law([1.0, 2.0, math.inf], [1.0, 2.0, 3.0]), InsufficientSamples),
    (lambda: fit_power_law([1.0, 2.0, 3.0], [1.0, math.nan, 3.0]), InsufficientSamples),
    (lambda: moment_pde_residual(GEN05, 1.0, 0.5, step=0.0), BadParams),
    (lambda: moment_pde_residual(GEN05, math.nan, 0.5, step=1e-3), BadParams),
    (lambda: moment_pde_residual(GEN05, 1.0, 0.5, step=math.nan), BadParams),
    (lambda: second_blowdown_conformal_xy(0.5, math.nan, 1.0), BadParams),
    (lambda: second_blowdown_conformal_xy(0.5, 1.0, math.inf), BadParams),
    (lambda: blowdown_xy_from_uv(math.nan, 1.0), BadParams),
    (lambda: pointed_limit_fiber(math.nan, 1.0), BadParams),
    (lambda: almost_polar_from_uv(GEN05, -1.0, 1.0), BadParams),
    (lambda: almost_polar_from_uv(GEN05, math.nan, 1.0), BadParams)],
    ids=["fit-inf", "fit-nan", "pde-step-0", "pde-nan-x", "pde-nan-step", "conformal-xy-nan",
         "conformal-xy-inf", "blowdown-xy-nan", "pointed-fiber-nan", "almost-polar-off-chart",
         "almost-polar-nan"])
def test_public_helpers_refuse_non_finite_or_off_chart_input(call, error):
    # each leaked a bare exception (the fit's fsum, the stencil's division by
    # step) or returned NaN, or an angle psi > pi/2 for a point off the chart
    with pytest.raises(error):
        call()


# --------------------------------------------------------------- almost polar

def test_almost_distance_closed_forms():
    k = 0.5
    p = InstantonParams(k=k)
    u, v = 1.1, 0.4
    expect = (math.sqrt(1.0 + k) * u * u + math.sqrt(1.0 - k) * v * v) \
        / math.sqrt(SQRT2 * p.M)
    assert abs(p.almost_distance(u, v) - expect) < 1e-15
    assert abs(EXC.almost_distance(u, v) - (u * u / 2.0 + v)) < 1e-15


def test_almost_distance_wrong_family():
    with pytest.raises(WrongFamily):
        HP.almost_distance(1.0, 1.0)
    with pytest.raises(WrongFamily):
        FLAT.almost_distance(1.0, 1.0)


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
