"""The invariant checks run by ``taubnut verify`` and by the test suite.

A check takes no arguments, raises CheckFailed (through ``expect``) when a
bound does not hold and returns a one-line summary of its margin.
``@check("suite.name")`` adds it to CHECKS in file order; the suite is the
part of the id before the dot.  The bounds are explicit raises, not
``assert`` statements, so ``python -O`` runs them too.
"""

from __future__ import annotations

import math
from typing import Callable

from . import asymptotics, blowdown, curvature, family, geodesics, metrics
from .family import SQRT2, Family, InstantonParams
from .numerics import TaubnutError, jets

CHECKS: list[tuple[str, Callable[[], str]]] = []


class CheckFailed(TaubnutError):
    """A check's bound does not hold; the message says by how much."""


def expect(ok: bool, message: str) -> None:
    """Raise CheckFailed(message) unless ok."""
    if not ok:
        raise CheckFailed(message)


def check(ident: str):
    """Register the decorated function in CHECKS under ``ident``."""
    def register(fn):
        CHECKS.append((ident, fn))
        return fn
    return register


_GEN0 = InstantonParams(Family.GENERALIZED_TN, M=SQRT2, k=0.0)
_GEN05 = InstantonParams(Family.GENERALIZED_TN, M=SQRT2, k=0.5)
_GENM05 = InstantonParams(Family.GENERALIZED_TN, M=SQRT2, k=-0.5)
_EXC = InstantonParams(Family.EXCEPTIONAL_TN)
_HP = InstantonParams(Family.EXCEPTIONAL_HALF_PLANE)
_FLAT = InstantonParams(Family.FLAT)
_ALL_PARAMS = (_GEN0, _GEN05, _EXC, _HP, _FLAT)


@check("family.moment-pde-halving")
def pde_halving():
    pp = InstantonParams(Family.GENERALIZED_TN, k=0.4)
    r2 = family.moment_pde_residual(pp, 1.0, 0.5, step=2e-3)
    r1 = family.moment_pde_residual(pp, 1.0, 0.5, step=1e-3)
    for a, b in zip(r2, r1):
        ratio = abs(a) / max(abs(b), 1e-300)
        expect(3.0 < ratio < 5.3, f"halving ratio {ratio:.2f} not ~4")
    return f"O(step^2): ratios {abs(r2[0]/r1[0]):.2f}, {abs(r2[1]/r1[1]):.2f}"


@check("family.chart-roundtrip")
def chart_roundtrip():
    worst = 0.0
    for pp in _ALL_PARAMS:
        for (u, v) in [(0.7, 0.4), (1.3, 2.1)]:
            if pp.bounds[1][0] < 0.0:   # a half-plane: try v < 0
                v = v - 1.0
            uu, vv = pp.uv_from_xy(*pp.xy_from_uv(u, v))
            worst = max(worst, abs(uu - u) + abs(vv - v))
            uu, vv = pp.uv_from_moment(*pp.moment_map(u, v))
            worst = max(worst, abs(uu - u) + abs(vv - v))
    expect(worst < 1e-10, f"round-trip error {worst:.2e}")
    return f"max round-trip error {worst:.2e}"


@check("family.almost-polar-roundtrip")
def almost_polar_roundtrip():
    worst = 0.0
    for pp in [_GEN05, _EXC]:
        for rt in [0.5, 3.0, 50.0]:
            for psi in [0.2, 0.9, 1.4]:
                u, v = family.uv_from_almost_polar(pp, rt, psi)
                rt2, psi2 = family.almost_polar_from_uv(pp, u, v)
                worst = max(worst, abs(rt2 / rt - 1.0) + abs(psi2 - psi))
    expect(worst < 1e-10, f"almost-polar round-trip {worst:.2e}")
    return f"max round-trip error {worst:.2e}"


@check("metrics.det-fiber")
def det_fiber():
    import numpy as np
    worst = 0.0
    for pp in _ALL_PARAMS:
        for (u, v) in [(0.3, 0.8), (1.5, 1.1), (2.4, 0.2)]:
            F = metrics.fiber_matrix(pp, u, v)
            x = metrics.axial_coordinate(pp, u, v)
            worst = max(worst, abs(np.linalg.det(F) - x * x) / (x * x))
    expect(worst < 1e-10, f"det residual {worst:.2e}")
    return f"max |det G - x^2|/x^2 = {worst:.2e}"


@check("metrics.moment-oracle")
def moment_oracle():
    import numpy as np
    worst = 0.0
    for pp in _ALL_PARAMS:
        for (u, v) in [(0.7, 0.9), (1.6, 0.4)]:
            lam = metrics.conformal_factor(pp, u, v)
            F = metrics.fiber_matrix(pp, u, v)
            du, dv = np.array([(p.du, p.dv) for p in pp.moment_map(*jets(u, v))]).T
            oracle = (np.outer(du, du) + np.outer(dv, dv)) / lam
            worst = max(worst, float(np.abs(F - oracle).max()))
    expect(worst < 1e-12, f"moment oracle residual {worst:.2e}")
    return f"max |G_ij - grad phi_i . grad phi_j / lam| = {worst:.2e}"


@check("metrics.collapsing-dichotomy")
def collapsing_dichotomy():
    pp = _GEN05
    n_bounded, n_growing = zip(*(metrics.collapsing_direction_norms(pp, t, t)
                                 for t in (10.0, 20.0, 40.0)))
    expect(max(n_bounded) / min(n_bounded) < 1.2, "collapsing norm not bounded")
    growth = n_growing[2] / n_growing[1]
    # squared norm ~ t^4, i.e. the length of the complement grows
    # linearly in distance (R ~ t^2)
    expect(14.0 < growth < 18.0, f"complement norm growth {growth:.2f} not ~16")
    return (f"collapsed direction varies by {max(n_bounded)/min(n_bounded):.3f}, "
            f"complement squared norm grows x{growth:.2f} per doubling")


@check("geodesics.eikonal")
def eikonal():
    import numpy as np
    worst = 0.0
    for pp in _ALL_PARAMS:
        for eta in [0.3, 0.8, 1.2]:
            for u in np.linspace(0.3, 2.4, 6).tolist():
                for v in np.linspace(0.3, 2.4, 6).tolist():
                    worst = max(worst, geodesics.eikonal_residual(pp, eta, u, v))
    expect(worst < 1e-6, f"eikonal residual {worst:.2e}")
    return f"max | |grad S|^2 - 1 | = {worst:.2e}"


@check("geodesics.roundtrip")
def polar_roundtrip():
    worst = 0.0
    etas = [j * math.pi / 12 for j in range(7)]
    for pp in _ALL_PARAMS:
        for R in (0.1, 1.0, 10.0, 100.0):
            for eta in etas:
                u, v = geodesics.point_from_polar(pp, R, eta)
                worst = max(worst, abs(geodesics.distance(pp, u, v) / R - 1.0))
    expect(worst < 1e-8, f"round-trip {worst:.2e}")
    return f"max |distance/R - 1| = {worst:.2e}"


@check("geodesics.eta-recovery")
def eta_recovery():
    worst = 0.0
    for pp in _ALL_PARAMS:
        for R in (0.5, 20.0):
            for eta in (0.2, 0.7, 1.3):
                u, v = geodesics.point_from_polar(pp, R, eta)
                worst = max(worst, abs(geodesics.solve_eta(pp, u, v) - eta))
    expect(worst < 1e-10, f"eta recovery {worst:.2e}")
    return f"max |eta recovered - eta| = {worst:.2e}"


@check("geodesics.monotone-F")
def monotone_F():
    prev = 1.0
    for R in (0.1, 1.0, 10.0, 100.0, 1000.0):
        F = geodesics.solve_F(_GEN05, R, 0.6)
        expect(F > prev, f"F not increasing at R={R}")
        prev = F
    return "F strictly increasing along the ray"


@check("geodesics.lipschitz")
def lipschitz():
    traj = geodesics.geodesic_shoot(_GEN05, 0.7, 20.0, n_samples=40)
    samples = zip(traj.us[1:], traj.vs[1:])
    rs, ts = [geodesics.distance(_GEN05, u, v) for u, v in samples], traj.ts[1:]
    worst = max(abs((r2 - r1) / (t2 - t1))
                for r1, r2, t1, t2 in zip(rs, rs[1:], ts, ts[1:]))
    expect(worst <= 1.0 + 1e-6, f"distance slope {worst}")
    return f"max |d dist/dt| = {worst:.12f}"


@check("geodesics.polar-coefficient")
def polar_coefficient():
    worst = 0.0
    for pp in [_GEN0, _GEN05]:
        for R in (0.5, 5.0):
            for eta in (0.4, 1.1):
                a2 = geodesics.polar_metric_coefficient(pp, R, eta)
                fd = geodesics.polar_metric_coefficient_fd(pp, R, eta)
                worst = max(worst, abs(a2 / fd - 1.0))
    expect(worst < 1e-8, f"A^2 mismatch {worst:.2e}")
    return f"max closed-vs-FD rel error {worst:.2e}"


@check("curvature.gauss-fd")
def gauss_fd():
    worst = 0.0
    for pp in _ALL_PARAMS:
        for (u, v) in [(0.6, 0.9), (1.8, 1.2)]:
            K = pp.polytope_curvature(u, v)
            fd = curvature.polytope_curvature_fd(pp, u, v)
            worst = max(worst, abs(K - fd) / max(abs(K), 1e-3))
    expect(worst < 2e-15, f"Gauss FD {worst:.2e}")
    return f"max rel error {worst:.2e}"


@check("curvature.pseudo-jacobian")
def pseudo_jacobian():
    worst = 0.0
    for pp in [_GEN05, _EXC, _HP]:
        for (u, v) in [(0.5, 1.2), (1.4, 0.7)]:
            worst = max(worst, abs(
                pp.ricci_density(u, v)
                - curvature.ricci_pseudo_jacobian_fd(pp, u, v)))
    expect(worst < 1e-15, f"pseudo-density vs Jacobian {worst:.2e}")
    return f"max abs error {worst:.2e}"


@check("curvature.product-identity")
def product_identity():
    worst = 0.0
    for pp, fac in [(_GEN05, 1.0), (_EXC, 1.0), (_HP, 2.0)]:
        for (u, v) in [(0.5, 1.2), (1.4, 0.7)]:
            lhs = pp.ricci_density(u, v)
            rhs = fac * pp.ricci_norm(u, v) ** 2 \
                * metrics.volume_density(pp, u, v)
            worst = max(worst, abs(lhs - rhs))
    expect(worst < 1e-12, f"product identity {worst:.2e}")
    return f"max deviation {worst:.2e} (half-plane factor 2)"


@check("curvature.l2-ricci")
def l2_ricci_quadrature():
    rep = curvature.l2_ricci(_GEN05)
    miss = abs(rep.quadrature.value - rep.closed_form)
    expect(miss <= rep.quadrature.error, f"L2 Ricci miss {miss:.2e} over its error estimate")
    expect(rep.rel_error <= 1e-9, f"L2 Ricci rel error {rep.rel_error:.2e}")
    return f"k=0.5 quadrature matches closed form to {rep.rel_error:.2e}"


@check("curvature.energy-identity")
def energy_identity():
    for k in (0.3, 0.8):
        pp = InstantonParams(Family.GENERALIZED_TN, k=k)
        gap = pp.l2_riemann - 4.0 * pp.l2_ricci_closed
        expect(abs(gap - 32.0 * math.pi ** 2) < 1e-9, f"identity gap {gap}")
    return "l2_riemann - 4 l2_ricci = 32 pi^2 exactly"


@check("curvature.scalar-flat")
def scalar_flat():
    worst = 0.0
    for pp in _ALL_PARAMS:
        s = curvature.curvature4_fd(pp, 1.0, 1.0)
        worst = max(worst, abs(s.scalar))
    expect(worst < 1e-15, f"scalar curvature {worst:.2e}")
    return f"max |scal| = {worst:.2e} (FD)"


@check("curvature.norm-dichotomy")
def norm_dichotomy():
    e = _EXC.ricci_norm(0.05, 1.0)
    h = _HP.ricci_norm(0.05, 1.0)
    expect(abs(e - 2.0) < 0.02 and abs(h - math.sqrt(8.0)) < 0.03,
           f"axis norms {e:.4f}, {h:.4f}")
    return f"|Ric| -> 2 (exceptional) vs sqrt(8) (half-plane): {e:.4f}, {h:.4f}"


# (quantity, params, eta, exponent, tolerance): the fall-off along radial
# geodesics, |K_Sigma| and |Rm| ~ R^-3 on standard Taub-NUT (k = 0) at every
# angle, ~ R^-2 at k != 0, and no decay along the exceptional families' v-axis
DECAY_CASES = [("K_sigma", _GEN0, eta, -3.0, 0.1)
               for eta in (0.0, math.pi / 8, 0.7, math.pi / 4, 3 * math.pi / 8, math.pi / 2)]
DECAY_CASES += [(q, _GEN05, 0.7, -2.0, 0.1) for q in ("K_sigma", "Ric")]
DECAY_CASES += [("K_sigma", pp, math.pi / 2, 0.0, 0.05) for pp in (_EXC, _HP)]
DECAY_CASES += [("Rm_fd", pp, 0.7, rate, 0.05)
                for pp, rate in ((_GEN0, -3.0), (_GEN05, -2.0), (_GENM05, -2.0))]


@check("curvature.decay-rates")
def decay_rates():
    rates = []
    for quantity, pp, eta, expected, tol in DECAY_CASES:
        rate = curvature.decay_rate_along_geodesic(pp, eta, quantity, (60.0, 120.0, 240.0, 480.0))
        expect(abs(rate - expected) < tol,
               f"{quantity} of {pp.family.value} k={pp.k} at eta={eta:.4f} decays like "
               f"R^{rate:.3f}, not R^{expected:.0f} +- {tol}")
        rates.append(rate)
    k0, (k05, ric), exc, rm = rates[:6], rates[6:8], rates[8:10], rates[10:]
    return (f"k=0: K_sigma R^{min(k0):.3f}..R^{max(k0):.3f}, |Rm| R^{rm[0]:.3f}; "
            f"k=0.5: K_sigma R^{k05:.3f}, Ric R^{ric:.3f}, |Rm| R^{rm[1]:.3f} "
            f"(k=-0.5 R^{rm[2]:.3f}); exceptional R^{max(exc, key=abs):.3f}")


@check("asymptotics.ab-quadrature")
def ab_quadrature():
    worst = 0.0
    for pp in [_GEN0, _EXC]:
        for R in (1.0, 4.0):
            closed = asymptotics.almost_ball_volume(pp, R)
            quad = asymptotics.almost_ball_volume_quadrature(pp, R)
            worst = max(worst, abs(quad.value - closed) / closed)
    expect(worst < 1e-8, f"AB quadrature {worst:.2e}")
    return f"max rel error {worst:.2e}"


@check("asymptotics.growth-exponents")
def growth_exponents():
    g3 = asymptotics.volume_growth_exponent(_GEN05, (50, 100, 200, 400))
    g4 = asymptotics.volume_growth_exponent(_EXC, (50, 100, 200, 400))
    expect(abs(g3 - 3.0) < 0.05 and abs(g4 - 4.0) < 0.05, f"{g3:.3f}, {g4:.3f}")
    return f"exponents {g3:.3f} (cubic), {g4:.3f} (quartic)"


@check("asymptotics.bracket")
def bracket():
    for pp in [_GEN0, _EXC]:
        lo, hi = asymptotics.ball_volume_bracket(pp, 100.0)
        mid = asymptotics.almost_ball_volume(pp, 100.0)
        expect(lo <= mid <= hi, "bracket does not contain AB volume")
    try:
        asymptotics.ball_volume_bracket(_GEN0, 5.0)
        raise CheckFailed("SmallRadius not raised")
    except asymptotics.SmallRadius:
        pass
    return "AB(R) inside measured bracket; small radii rejected"


@check("asymptotics.scale-covariance")
def scale_covariance():
    s = 7.3
    vals = []
    for M in (SQRT2, 2.0 * SQRT2):
        pp = InstantonParams(Family.GENERALIZED_TN, M=M, k=0.5)
        vals.append(asymptotics.almost_ball_volume(pp, s / math.sqrt(M)) * M * M)
    rel = abs(vals[0] - vals[1]) / vals[0]
    expect(rel < 1e-12, f"covariance residual {rel:.2e}")
    return f"M^2-normalized volumes agree to {rel:.2e}"


@check("asymptotics.sandwich-stability")
def sandwich_stability():
    for pp in [_GEN05, _EXC]:
        s2 = asymptotics.sphere_sandwich(pp, 100.0, n=20)
        s3 = asymptotics.sphere_sandwich(pp, 1000.0, n=20)
        for s in (s2, s3):
            expect(abs(s.c_min) < 2.0 and abs(s.c_max) < 2.0, "band blew up")
        expect(abs(s3.c_min) <= abs(s2.c_min) + 0.1, "lower band growing")
    return "gap/log R bands stable across a decade"


def _monotone(table):
    return all(a >= b for a, b in zip(table, table[1:]))


@check("blowdown.conifold-residuals")
def conifold_residuals():
    leaf, fib = zip(*(blowdown.conifold_limit_residual(0.5, 1.0, 1.3, M)
                      for M in (1e2, 1e3, 1e4, 1e5)))
    expect(_monotone(leaf) and _monotone(fib), "residuals not monotone")
    return f"leaf {leaf[0]:.1e} -> {leaf[-1]:.1e}, fiber {fib[0]:.1e} -> {fib[-1]:.1e}"


@check("blowdown.second-residuals")
def second_residuals():
    fib = [blowdown.second_blowdown_limit_residual(0.5, 1.0, 1.3, M)[1]
           for M in (1e2, 1e3, 1e4, 1e5)]
    expect(_monotone(fib), "residuals not monotone")
    conformal, fiber, _ = blowdown.second_blowdown_metric(0.5, 1.1, 0.7)
    det_res = abs(fiber[0][0] * fiber[1][1] - fiber[0][1] * fiber[1][0] - 1.1 ** 2 * 0.7 ** 2)
    mom_res = blowdown.second_blowdown_moment_residual(0.5, 1.1, 0.7)
    x, y = blowdown.blowdown_xy_from_uv(1.1, 0.7)
    xy_res = abs(blowdown.second_blowdown_conformal_xy(0.5, x, y)
                 * (1.1 ** 2 + 0.7 ** 2) - conformal)
    expect(det_res < 1e-10 and mom_res < 1e-12 and xy_res < 1e-12,
           f"identities {det_res:.1e} {mom_res:.1e} {xy_res:.1e}")
    return f"fiber {fib[0]:.1e} -> {fib[-1]:.1e}; det/moment/chart identities hold"


@check("blowdown.exceptional-residuals")
def exceptional_residuals():
    fib = [blowdown.exceptional_blowdown_limit_residual(0.8, 1.1, M)[1] for M in (1e1, 1e2, 1e3)]
    expect(_monotone(fib), "residuals not monotone")
    kfd = blowdown.exceptional_blowdown_curvature_fd(1.3)
    kcl = blowdown.exceptional_blowdown_curvature(1.3)
    expect(abs(kfd - kcl) / abs(kcl) < 1e-15, f"K mismatch {kfd} vs {kcl}")
    return f"fiber {fib[0]:.1e} -> {fib[-1]:.1e}; K oracle ok (positive sign)"


@check("blowdown.pointed-residuals")
def pointed_residuals():
    res = [blowdown.pointed_limit_halfplane(A, 0.7, 1.3).residual
           for A in (1e1, 1e2, 1e3)]
    expect(_monotone(res), "residuals not monotone")
    ray = blowdown.pointed_limit_halfplane(100.0, 1.0, 0.0).residual
    expect(ray < 1e-10, f"ray residual {ray:.1e}")
    swap = max(blowdown.halfplane_swap_residual(u, v)
               for u in (0.3, 1.0, 2.2) for v in (-1.5, 0.4, 2.0))
    expect(swap < 1e-12, f"swap residual {swap:.1e}")
    return f"residuals {res[0]:.1e} -> {res[-1]:.1e}; exact on ray; swap {swap:.1e}"


@check("blowdown.conifold-ricci-fd")
def conifold_ricci_fd():
    import random
    rng = random.Random(5)
    worst = worst_k = 0.0
    for _ in range(10):
        k = rng.uniform(-0.9, 0.9)
        u, v = rng.uniform(0.3, 2.5), rng.uniform(0.3, 2.5)
        cc = blowdown.conifold_curvatures(k, u, v)
        fd = blowdown.conifold_ricci_fd(k, u, v)
        for a, b in zip(fd, (cc.ric_uu, cc.ric_uv, cc.ric_vv, cc.ric_theta)):
            worst = max(worst, abs(a - b) / max(abs(b), 1e-3))
        k_fd = blowdown.conifold_polytope_curvature_fd(k, u, v)
        worst_k = max(worst_k, abs(k_fd - cc.k_sigma) / max(abs(cc.k_sigma), 1e-3))
    expect(worst < 1e-13, f"Ric3 FD {worst:.2e}")
    expect(worst_k < 2e-14, f"K_sigma FD {worst_k:.2e}")
    return f"FD matches closed Ric3 to {worst:.2e}, K_sigma to {worst_k:.2e}"


@check("blowdown.distance-eikonal")
def distance_eikonal():
    worst = 0.0
    for k in (-0.6, 0.0, 0.5):
        for (u, v) in [(0.5, 1.2), (1.7, 0.8)]:
            worst = max(worst, blowdown.blowdown_distance_gradient_deficit(k, u, v))
    expect(worst < 5e-16, f"|grad S| deficit {worst:.2e}")
    return f"max | |grad S| - 1 | = {worst:.2e}"
