"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Each test prints a single summary line (visible under pytest -s/-v) with the
measured margin, so a run of this module reads as a checklist."""

import math

import numpy as np
import pytest

from taubnut import asymptotics, blowdown, curvature, geodesics
from taubnut.family import Family, InstantonParams, moment_pde_residual
from taubnut.metrics import axial_coordinate, fiber_matrix

SQRT2 = math.sqrt(2.0)

GEN = InstantonParams()
GEN05 = InstantonParams(k=0.5)
GEN09 = InstantonParams(k=0.9)
EXC = InstantonParams(family=Family.EXCEPTIONAL_TN)
HP = InstantonParams(family=Family.EXCEPTIONAL_HALF_PLANE)


def test_1_l2_ricci_energy_closed_form():
    """4 pi^2 Int dR1 ^ dR2 = 4 pi^2 k^2/(1-k^2) to 1e-6 relative."""
    worst = 0.0
    for k in (0.3, 0.5, 1.0 / SQRT2, 0.9):
        rep = curvature.l2_ricci(InstantonParams(k=k))
        assert rep.rel_error <= 1e-6, (k, rep.rel_error)
        worst = max(worst, rep.rel_error)
    print(f"PASS 1: L2 Ricci quadrature vs closed form, worst rel {worst:.2e}")


def test_2_standard_taub_nut_is_ricci_flat():
    """k=0: pseudo-density == 0, FD Ricci norm <= 1e-4, Rm energy 32 pi^2."""
    worst = 0.0
    for u in np.linspace(0.3, 2.4, 5):
        for v in np.linspace(0.3, 2.4, 5):
            assert GEN.geometry.ricci_density(u, v) == 0.0
            worst = max(worst, curvature.curvature4_fd(GEN, u, v).ricci_norm)
    assert worst <= 1e-4, worst
    rm = GEN.geometry.l2_riemann
    assert rm == 32.0 * math.pi ** 2       # exact combination at k = 0
    print(f"PASS 2: k=0 FD |Ric| <= {worst:.2e}, Rm energy exactly 32 pi^2")


def test_3_volume_growth_and_quadrature():
    """Growth exponents 3.00/4.00 +- 0.05; AB quadrature to 1e-8 relative."""
    radii = (50.0, 100.0, 200.0, 400.0)
    for k in (0.0, 0.5, 0.9):
        exp = asymptotics.volume_growth_exponent(InstantonParams(k=k), radii)
        assert abs(exp - 3.0) <= 0.05, (k, exp)
    exp4 = asymptotics.volume_growth_exponent(EXC, radii)
    assert abs(exp4 - 4.0) <= 0.05, exp4

    worst = 0.0
    for params in (GEN, GEN05, GEN09, EXC):
        for R in (1.0, 5.0):
            closed = asymptotics.almost_ball_volume(params, R)
            got = asymptotics.almost_ball_volume_quadrature(params, R).value
            rel = abs(got - closed) / closed
            assert rel <= 1e-8, (params.family, R, rel)
            worst = max(worst, rel)
    assert asymptotics.almost_ball_volume(EXC, 1.0) == pytest.approx(
        math.pi ** 2 / 2.0, rel=1e-12, abs=0)
    assert asymptotics.almost_ball_volume(GEN, 1.0) == pytest.approx(
        2.0 * math.pi ** 2 * (1.0 + 2.0 * SQRT2 / 3.0), rel=1e-12, abs=0)
    print(f"PASS 3: growth 3/4 within 0.05, AB quadrature worst rel {worst:.2e}")


def test_4_curvature_decay_exponents():
    """K_Sigma decay -3 (k=0, every angle), -2 (k=0.5 generic), 0 (exc)."""
    radii = (60.0, 120.0, 240.0, 480.0)
    rates0 = [curvature.decay_rate_along_geodesic(GEN, eta, "K_sigma", radii)
              for eta in (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8,
                          math.pi / 2)]
    assert all(abs(r + 3.0) <= 0.1 for r in rates0), rates0
    rate_gen = curvature.decay_rate_along_geodesic(GEN05, 0.7, "K_sigma",
                                                   radii)
    assert abs(rate_gen + 2.0) <= 0.1, rate_gen
    rate_exc = curvature.decay_rate_along_geodesic(EXC, math.pi / 2,
                                                   "K_sigma", radii)
    assert abs(rate_exc) <= 0.05, rate_exc
    rate_hp = curvature.decay_rate_along_geodesic(HP, math.pi / 2, "K_sigma",
                                                  radii)
    assert abs(rate_hp) <= 0.05, rate_hp
    print(f"PASS 4: decay fits {min(rates0):.3f}..{max(rates0):.3f} (k=0), "
          f"{rate_gen:.3f} (k=0.5), {rate_exc:.2e}/{rate_hp:.2e} (exc/hp)")


def test_5_geodesic_round_trip_and_ode():
    """distance(point_from_polar(R, eta)) = R to 1e-8 relative; ODE legs
    satisfy the unparametrized equation to 1e-8 and unit speed to 1e-6."""
    worst = 0.0
    etas = [j * math.pi / 12.0 for j in range(7)]
    etas[-1] = min(etas[-1], math.pi / 2.0)
    for k in (0.0, 0.5, 0.9):
        params = InstantonParams(k=k)
        for R in (0.1, 1.0, 10.0, 100.0):
            for eta in etas:
                rec = geodesics.point_from_polar(params, R, eta)
                rel = abs(geodesics.distance(params, rec.u, rec.v) - R) / R
                assert rel <= 1e-8, (k, R, eta, rel)
                worst = max(worst, rel)
    g_worst = d_worst = 0.0
    for params in (GEN, GEN05, GEN09):
        for eta in (0.3, 0.9):
            traj = geodesics.geodesic_shoot(params, eta, 5.0)
            g_worst = max(g_worst, traj.geodesic_residual)
            d_worst = max(d_worst, traj.distance_residual)
    assert g_worst <= 1e-8, g_worst
    assert d_worst <= 1e-6, d_worst
    print(f"PASS 5: roundtrip worst rel {worst:.2e}; ODE unparam "
          f"{g_worst:.2e}, unit-speed {d_worst:.2e}")


def test_6_eikonal_property_all_families():
    """| |grad S_eta| - 1 | <= 1e-6 on interior grids, 5 angles, 5 families."""
    worst = 0.0
    fams = (GEN, GEN05, GEN09, EXC, HP,
            InstantonParams(family=Family.FLAT))
    for params in fams:
        for eta in (0.15, 0.5, 0.8, 1.1, 1.4):
            for u in np.linspace(0.25, 2.75, 6):
                for v in np.linspace(0.25, 2.75, 6):
                    if params.family is Family.EXCEPTIONAL_HALF_PLANE:
                        v -= 1.5
                    worst = max(worst,
                                geodesics.eikonal_residual(params, eta, u, v))
    assert worst <= 1e-6, worst
    print(f"PASS 6: eikonal residual worst {worst:.2e}")


def test_7_approximation_margins():
    """Approximant margins: implied radius within [0.999, 2.2] x R on the
    angle grid; surrogate error <= C log R / R with stable C; exceptional
    R/Rtilde within [1, 2.7]."""
    etas = [min(j * math.pi / 12.0, math.pi / 2.0 - 1e-9) for j in range(7)]
    lo = hi = 1.0
    for params in (GEN, GEN05, GEN09):
        for R in (1e2, 1e3, 1e4):
            for eta in etas:
                F, _ = geodesics.approx_F(params, R, eta)
                ratio = geodesics.radius_from_F(params, eta, F) / R
                assert 0.999 <= ratio <= 2.2, (params.k, R, eta, ratio)
                lo, hi = min(lo, ratio), max(hi, ratio)

    for params in (GEN, GEN05, EXC):
        cs = [asymptotics.measured_epsilon_bar(params, R) * R / math.log(R)
              for R in (100.0, 200.0, 400.0)]
        assert max(cs) / min(cs) < 1.5, cs

    worst = 1.0
    for rt in (1e2, 1e3):
        for i in range(25):
            psi = 0.5 * math.pi * i / 24.0
            from taubnut.family import uv_from_almost_polar
            u, v = uv_from_almost_polar(EXC, rt, psi)
            ratio = geodesics.distance(EXC, u, v) / rt
            assert 1.0 - 1e-9 <= ratio <= 2.7, (rt, psi, ratio)
            worst = max(worst, ratio)
    print(f"PASS 7: approximant radius ratio in [{lo:.4f}, {hi:.4f}], "
          f"surrogate C stable, exceptional R/Rtilde <= {worst:.4f}")


def test_8_oracle_equivalences():
    """Closed forms vs independent numerics: K_Sigma 1e-4, pseudo-density
    1e-5, det(fiber) = x^2 1e-10, moment PDE O(step^2)."""
    pts = [(0.4, 0.9), (1.0, 1.0), (2.2, 0.5)]
    k_worst = p_worst = d_worst = 0.0
    for params in (GEN, GEN05, GEN09, EXC, HP):
        for u, v in pts:
            if params.family is Family.EXCEPTIONAL_HALF_PLANE:
                v -= 1.3
            K = params.geometry.polytope_curvature(u, v)
            k_worst = max(k_worst, abs(K - curvature.polytope_curvature_fd(
                params, u, v)) / max(1.0, abs(K)))
            closed = params.geometry.ricci_density(u, v)
            p_worst = max(p_worst, abs(closed - curvature.ricci_pseudo_jacobian_fd(
                params, u, v)))
            x = axial_coordinate(params, u, v)
            det = float(np.linalg.det(np.array(fiber_matrix(params, u, v))))
            d_worst = max(d_worst, abs(det - x * x) / max(1e-300, x * x))
    assert k_worst <= 1e-4, k_worst
    assert p_worst <= 1e-5, p_worst
    assert d_worst <= 1e-10, d_worst
    for params in (GEN05, EXC):
        r1 = moment_pde_residual(params, 0.8, 0.4, step=1e-2)
        r2 = moment_pde_residual(params, 0.8, 0.4, step=5e-3)
        for a, b in zip(r1, r2):
            if abs(a) > 1e-13:
                assert 3.0 < abs(a) / abs(b) < 5.3, (a, b)
    print(f"PASS 8: K {k_worst:.2e}, pseudo {p_worst:.2e}, det {d_worst:.2e}, "
          f"moment PDE halves at O(step^2)")


def test_9_blowdown_verification():
    """Every limit metric is a measured limit: monotone residual decay over
    two decades; limit Ricci matches the FD oracle to 1e-4 (the diagonal
    shortcut does not, and is pinned as a non-match); pointed limit equals
    the half-plane formulas to 1e-12 under the index swap."""
    k, u, v = 0.5, 1.0, 0.8
    for fn, scales in (
            (lambda M: blowdown.conifold_limit_residual(k, u, v, M),
             (1e2, 1e3, 1e4)),
            (lambda M: blowdown.second_blowdown_limit_residual(k, u, v, M),
             (1e2, 1e3, 1e4)),
            (lambda M: blowdown.exceptional_blowdown_limit_residual(u, v, M),
             (1e1, 1e2, 1e3))):
        rows = [fn(s) for s in scales]
        for col in (0, 1):
            seq = [r[col] for r in rows]
            assert all(b < a for a, b in zip(seq, seq[1:])), seq
    res = [blowdown.pointed_limit_halfplane(A, u, v).residual
           for A in (1e1, 1e2, 1e3)]
    assert all(b < a for a, b in zip(res, res[1:])), res

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(8):
        kk = float(rng.uniform(-0.8, 0.8))
        uu = float(rng.uniform(0.4, 1.8))
        vv = float(rng.uniform(0.4, 1.8))
        c = blowdown.conifold_curvatures(kk, uu, vv)
        fd = blowdown.conifold_ricci_fd(kk, uu, vv)
        closed = (c.ric_uu, c.ric_uv, c.ric_vv, c.ric_theta)
        for a, b in zip(closed, fd):
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    assert worst <= 1e-4, worst
    # the diagonal shortcut is not that tensor: pinned counterexample
    duu, _, _ = blowdown.conifold_ricci_diagonal_variant(0.5, 1.0, 0.6)
    assert abs(duu - blowdown.conifold_curvatures(0.5, 1.0, 0.6).ric_uu) > 1.0

    swap_worst = 0.0
    for uu, vv in ((0.3, -1.0), (1.5, 0.8), (0.9, 0.0)):
        swap_worst = max(swap_worst, blowdown.halfplane_swap_residual(uu, vv))
        lim = blowdown.pointed_limit_moments_limit(uu, vv)
        hp = HP.geometry.moment_map(uu, vv)
        swap_worst = max(swap_worst, abs(lim[0] - hp[1]), abs(lim[1] - hp[0]))
    assert swap_worst <= 1e-12, swap_worst
    print(f"PASS 9: monotone blowdown residuals, limit Ricci vs FD "
          f"{worst:.2e}, half-plane swap {swap_worst:.2e}")
