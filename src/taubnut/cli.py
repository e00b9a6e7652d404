"""Command-line surface tying the library together.

Subcommands:

* ``eval``      pointwise quantities at a chart point, as JSON
* ``geodesic``  a radial geodesic trajectory with residual columns, as CSV
* ``contour``   level sets of the distance function plus a radial-geodesic
                fan, as CSV or a thin SVG rendering
* ``energy``    L^2 curvature energy report
* ``volume``    almost-ball volumes, measured ball brackets, growth fit
* ``blowdown``  residual tables for the collapsed limits
* ``verify``    run the library invariant suite; nonzero exit on failure

Output is deterministic: floats are printed with 17 significant digits,
CSV has a fixed header and column order, JSON keys are sorted, and reports
echo the parameters and library version.  Exit codes: 0 success, 1
verification failure, 2 bad arguments.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from . import asymptotics, blowdown, curvature, family, geodesics, metrics
from .family import BadParams, Chart, Family, InstantonParams, WrongFamily
from .numerics import find_root_monotone

SQRT2 = math.sqrt(2.0)

FAMILY_NAMES = {
    "generalized": Family.GENERALIZED_TN,
    "exceptional": Family.EXCEPTIONAL_TN,
    "halfplane": Family.EXCEPTIONAL_HALF_PLANE,
    "flat": Family.FLAT,
}


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _dump_json(obj) -> str:
    """Minimal JSON writer with canonical float formatting and sorted keys
    (the stdlib encoder prints shortest-roundtrip floats, which is also
    deterministic, but pinning 17 significant digits keeps golden files
    independent of repr subtleties)."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v):
            return '"nan"'
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        return _fmt(v)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        inner = ", ".join(
            _dump_json(str(k)) + ": " + _dump_json(obj[k]) for k in sorted(obj))
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_dump_json(x) for x in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell)
                              for cell in row))
    return "\n".join(lines) + "\n"


def _thread_count() -> int:
    raw = os.environ.get("INSTANTON_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise UsageError(f"INSTANTON_THREADS must be an integer, got {raw!r}")
    if n < 1:
        raise UsageError(f"INSTANTON_THREADS must be >= 1, got {n}")
    return n


# --------------------------------------------------------------------------
# argument plumbing
# --------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=sorted(FAMILY_NAMES), default="generalized")
    p.add_argument("--M", type=float, default=None,
                   help="mass parameter of the generalized family "
                        "(default sqrt(2), the standard scale)")
    p.add_argument("--k", type=float, default=None,
                   help="twisting parameter, |k| < 1 (default 0)")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out", default="-", help="output path, '-' for stdout")


def _params(args) -> InstantonParams:
    fam = FAMILY_NAMES[args.family]
    try:
        # the library rejects stray parameters (e.g. --M for a family with a
        # fixed normalization) rather than silently dropping them
        return InstantonParams(fam, M=args.M, k=args.k)
    except BadParams as exc:
        raise UsageError(str(exc))


def _parse_point(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"--point expects 'c1,c2', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"--point expects two floats, got {text!r}")


def _params_echo(params: InstantonParams) -> dict:
    echo = {"family": params.family.value}
    if params.family is Family.GENERALIZED_TN:
        echo["M"] = params.M
        echo["k"] = params.k
    return echo


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------

def _cmd_eval(args) -> int:
    params = _params(args)
    c1, c2 = _parse_point(args.point)
    try:
        chart = Chart(args.chart)
        if chart is Chart.POLAR:
            rec = geodesics.point_from_polar(params, c1, c2, tol=args.tol)
            u, v = rec.u, rec.v
        else:
            u, v = family.uv_from_chart(params, chart, c1, c2)
    except (BadParams, WrongFamily, ValueError) as exc:
        raise UsageError(str(exc))

    fiber = np.array(metrics.fiber_matrix(params, u, v), dtype=float)
    pots = curvature.ricci_potentials(params, u, v)
    q = {
        "conformal_factor": metrics.conformal_factor(params, u, v),
        "axial_coordinate": metrics.axial_coordinate(params, u, v),
        "volume_density": metrics.volume_density(params, u, v),
        "fiber_11": fiber[0, 0],
        "fiber_12": fiber[0, 1],
        "fiber_22": fiber[1, 1],
        "fiber_det": float(np.linalg.det(fiber)),
        "moment_1": family.moment_map(params, u, v)[0],
        "moment_2": family.moment_map(params, u, v)[1],
        "k_sigma": curvature.polytope_curvature(params, u, v),
        "ricci_potential_1": pots.r1,
        "ricci_potential_2": pots.r2,
        "ricci_norm": curvature.ricci_norm(params, u, v),
        "ricci_pseudo_density": curvature.ricci_pseudo_volume_density(params, u, v),
        "distance": geodesics.distance(params, u, v, tol=args.tol),
        "launch_angle": geodesics.solve_eta(params, u, v, tol=args.tol),
    }
    try:
        q["almost_distance"] = family.almost_distance(params, u, v)
    except WrongFamily:
        pass
    doc = {
        "version": __version__,
        "params": _params_echo(params),
        "point": {"chart": chart.value, "c1": c1, "c2": c2, "u": u, "v": v},
        "quantities": q,
    }
    _write_out(_dump_json(doc), args.out)
    return 0


# --------------------------------------------------------------------------
# geodesic
# --------------------------------------------------------------------------

def _cmd_geodesic(args) -> int:
    params = _params(args)
    if args.R <= 0.0:
        raise UsageError(f"--R must be positive, got {args.R}")
    traj = geodesics.geodesic_shoot(params, args.eta, args.R,
                                    n_samples=args.samples, tol=args.tol)
    rows = []
    for t, u, v in zip(traj.ts, traj.us, traj.vs):
        R = geodesics.distance(params, u, v, tol=args.tol)
        rows.append([t, u, v, R, abs(R - t),
                     geodesics.unparam_residual(params, args.eta, u, v)])
    _write_out(_csv(["t", "u", "v", "R", "distance_residual",
                     "unparam_residual"], rows), args.out)
    return 0


# --------------------------------------------------------------------------
# contour
# --------------------------------------------------------------------------

def _trace_level(params, eta, level, phis, tol):
    """Points (u, v) = r (cos phi, sin phi) with S_eta = level along each ray."""
    pts = []
    for phi in phis:
        if level == 0.0:
            pts.append((phi, 0.0, 0.0))
            continue
        cp, sp = math.cos(phi), math.sin(phi)

        def f(r):
            return geodesics.eikonal_S(params, eta, r * cp, r * sp) - level

        hi = 1.0
        while f(hi) < 0.0:
            hi *= 2.0
            if hi > 1e9:
                break
        else:
            r = find_root_monotone(f, 0.0, hi, abs_tol=tol)
            pts.append((phi, r * cp, r * sp))
        # rays along which S_eta stays below the level (it can vanish or go
        # negative near an axis) simply do not contribute a point
    return pts


def _cmd_contour(args) -> int:
    params = _params(args)
    if args.levels < 2:
        raise UsageError(f"--levels must be >= 2, got {args.levels}")
    half_plane = params.family is Family.EXCEPTIONAL_HALF_PLANE
    phi_lo = -0.5 * math.pi if half_plane else 0.0
    phis = np.linspace(phi_lo, 0.5 * math.pi, args.phi_samples)

    rows = []
    levels = [args.R * i / (args.levels - 1) for i in range(args.levels)]
    for i, level in enumerate(levels):
        pts = _trace_level(params, args.eta, level, ([0.0] if level == 0.0 else phis),
                           args.tol)
        for phi, u, v in pts:
            rows.append([f"level-{i}", "level", phi, u, v, level])

    fan = [j * math.pi / 12.0 for j in range(7)]
    if half_plane:
        fan = sorted(set(fan) | {-e for e in fan})
    for j, eta_ray in enumerate(fan):
        for t in np.linspace(0.0, args.R, args.phi_samples):
            if t == 0.0:
                u = v = 0.0
            else:
                rec = geodesics.point_from_polar(params, t, eta_ray, tol=args.tol)
                u, v = rec.u, rec.v
            rows.append([f"geodesic-{j}", "geodesic", t, u, v, eta_ray])

    if args.format == "svg":
        _write_out(_render_svg(rows), args.out)
    else:
        _write_out(_csv(["curve", "kind", "param", "u", "v", "value"], rows),
                   args.out)
    return 0


def _render_svg(rows) -> str:
    """Thin rendering of the contour rows: one polyline per curve."""
    pad, size = 10.0, 640.0
    us = [r[3] for r in rows]
    vs = [r[4] for r in rows]
    u_lo, u_hi = min(us), max(us)
    v_lo, v_hi = min(vs), max(vs)
    du = (u_hi - u_lo) or 1.0
    dv = (v_hi - v_lo) or 1.0

    def sx(u):
        return pad + (u - u_lo) / du * (size - 2 * pad)

    def sy(v):
        return size - pad - (v - v_lo) / dv * (size - 2 * pad)

    curves: dict[str, list] = {}
    kinds: dict[str, str] = {}
    for name, kind, _, u, v, _ in rows:
        curves.setdefault(name, []).append((sx(u), sy(v)))
        kinds[name] = kind
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:g}" '
             f'height="{size:g}" viewBox="0 0 {size:g} {size:g}">']
    for name in curves:
        color = "#1f6fb2" if kinds[name] == "level" else "#b23a1f"
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in curves[name])
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1" points="{pts}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --------------------------------------------------------------------------
# energy / volume
# --------------------------------------------------------------------------

def _cmd_energy(args) -> int:
    params = _params(args)
    rep = curvature.l2_ricci(params)
    doc = {
        "version": __version__,
        "params": _params_echo(params),
        "l2_ricci_closed": rep.closed_form,
        "l2_ricci_quadrature": None if rep.quadrature is None else rep.quadrature.value,
        "rel_error": rep.rel_error,
        "growth_exponent": rep.growth_exponent,
        "growth_samples": [list(s) for s in rep.growth_samples],
    }
    if params.family is Family.GENERALIZED_TN:
        doc["l2_riemann"] = curvature.l2_riemann(params)
    if args.format == "csv":
        rows = [["l2_ricci_closed", doc["l2_ricci_closed"]],
                ["l2_ricci_quadrature",
                 "" if doc["l2_ricci_quadrature"] is None else doc["l2_ricci_quadrature"]],
                ["rel_error", doc["rel_error"]]]
        if doc["growth_exponent"] is not None:
            rows.append(["growth_exponent", doc["growth_exponent"]])
        for R, val in doc["growth_samples"]:
            rows.append([f"partial_energy_R={_fmt(R)}", val])
        if "l2_riemann" in doc:
            rows.append(["l2_riemann", doc["l2_riemann"]])
        _write_out(_csv(["quantity", "value"], rows), args.out)
    else:
        _write_out(_dump_json(doc), args.out)
    return 0


def _cmd_volume(args) -> int:
    params = _params(args)
    try:
        radii = [float(x) for x in args.R.split(",")]
    except ValueError:
        raise UsageError(f"--R expects comma-separated radii, got {args.R!r}")
    if not radii or any(r <= 0 for r in radii):
        raise UsageError("--R radii must be positive")
    try:
        rows = []
        brackets = []
        for R in radii:
            vol = asymptotics.almost_ball_volume(params, R)
            try:
                lo, hi = asymptotics.ball_volume_bracket(params, R, tol=args.tol)
                rows.append([R, vol, lo, hi])
                brackets.append([lo, hi])
            except asymptotics.SmallRadius:
                rows.append([R, vol, "", ""])
                brackets.append(None)
        exponent = (asymptotics.volume_growth_exponent(params, radii)
                    if len(radii) >= 4 else None)
    except WrongFamily as exc:
        raise UsageError(str(exc))
    if args.format == "json":
        doc = {
            "version": __version__,
            "params": _params_echo(params),
            "radii": radii,
            "volumes": [r[1] for r in rows],
            "brackets": brackets,
            "growth_exponent": exponent,
        }
        _write_out(_dump_json(doc), args.out)
    else:
        _write_out(_csv(["R", "vol", "bracket_lo", "bracket_hi"], rows), args.out)
    return 0


# --------------------------------------------------------------------------
# blowdown
# --------------------------------------------------------------------------

def _cmd_blowdown(args) -> int:
    u, v = _parse_point(args.point)
    k = 0.0 if args.k is None else args.k
    rows = []
    summary = {"version": __version__, "construction": args.construction,
               "k": k, "point": [u, v]}
    try:
        if args.construction == "conifold":
            for M in [1e2, 1e3, 1e4, 1e5, 1e6]:
                leaf, fib = blowdown.conifold_limit_residual(k, u, v, M)
                rows.append([M, leaf, fib])
            m = blowdown.conifold_metric(k, u, v)
            c = blowdown.conifold_curvatures(k, u, v)
            summary.update(conformal=m.conformal, fiber_scalar=m.fiber_scalar,
                           k_sigma=c.k_sigma, scalar3=c.scalar3)
        elif args.construction == "second":
            for M in [1e2, 1e3, 1e4, 1e5, 1e6]:
                leaf, fib = blowdown.second_blowdown_limit_residual(k, u, v, M)
                rows.append([M, leaf, fib])
            m = blowdown.second_blowdown_metric(k, u, v)
            summary.update(conformal=m.conformal,
                           fiber=[list(r) for r in m.fiber],
                           fiber_det=float(np.linalg.det(m.fiber)),
                           moments=list(m.moments))
        elif args.construction == "exceptional":
            for M in [1e1, 1e2, 1e3, 1e4]:
                leaf, fib = blowdown.exceptional_blowdown_limit_residual(u, v, M)
                rows.append([M, leaf, fib])
            conf, fib = blowdown.exceptional_blowdown_metric(u, v)
            summary.update(conformal=conf, fiber=[list(r) for r in fib],
                           k_sigma=blowdown.exceptional_blowdown_curvature(u))
        else:   # pointed
            for A in [1e1, 1e2, 1e3, 1e4]:
                s = blowdown.pointed_limit_halfplane(A, u, v)
                rows.append([A, 0.0, s.residual])
            s = blowdown.pointed_limit_halfplane(1e4, u, v)
            summary.update(conformal=s.conformal,
                           limit_fiber=[list(r) for r in s.limit_fiber],
                           fiber_topology_finite=s.fiber_topology,
                           fiber_topology_limit=blowdown.LIMIT_FIBER_TOPOLOGY,
                           moments=list(blowdown.pointed_limit_moments_limit(u, v)))
    except (BadParams, blowdown.SingularAxis) as exc:
        raise UsageError(str(exc))
    monotone = all(rows[i][2] >= rows[i + 1][2] for i in range(len(rows) - 1))
    summary["residuals_monotone"] = monotone
    summary["residual_table"] = [[r[0], r[1], r[2]] for r in rows]

    if args.format == "json":
        _write_out(_dump_json(summary), args.out)
    else:
        _write_out(_csv(["parameter", "leaf_residual", "fiber_residual"], rows),
                   args.out)
    return 0


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _suite_family() -> list[tuple[str, callable]]:
    def pde_halving():
        pp = InstantonParams(Family.GENERALIZED_TN, k=0.4)
        r2 = family.moment_pde_residual(pp, 1.0, 0.5, step=2e-3)
        r1 = family.moment_pde_residual(pp, 1.0, 0.5, step=1e-3)
        for a, b in zip(r2, r1):
            ratio = abs(a) / max(abs(b), 1e-300)
            assert 3.0 < ratio < 5.3, f"halving ratio {ratio:.2f} not ~4"
        return f"O(step^2): ratios {abs(r2[0]/r1[0]):.2f}, {abs(r2[1]/r1[1]):.2f}"

    def chart_roundtrip():
        worst = 0.0
        for pp in _ALL_PARAMS:
            for (u, v) in [(0.7, 0.4), (1.3, 2.1)]:
                if pp.family is Family.EXCEPTIONAL_HALF_PLANE:
                    v = v - 1.0
                x, y = family.xy_from_uv(pp, u, v)
                uu, vv = family.uv_from_xy(pp, x, y)
                worst = max(worst, abs(uu - u) + abs(vv - v))
                p1, p2 = family.moment_map(pp, u, v)
                uu, vv = family.uv_from_moment(pp, p1, p2)
                worst = max(worst, abs(uu - u) + abs(vv - v))
        assert worst < 1e-10, f"round-trip error {worst:.2e}"
        return f"max round-trip error {worst:.2e}"

    def almost_polar_roundtrip():
        worst = 0.0
        for pp in [_GEN05, _EXC]:
            for rt in [0.5, 3.0, 50.0]:
                for psi in [0.2, 0.9, 1.4]:
                    u, v = family.uv_from_almost_polar(pp, rt, psi)
                    rt2, psi2 = family.almost_polar_from_uv(pp, u, v)
                    worst = max(worst, abs(rt2 / rt - 1.0) + abs(psi2 - psi))
        assert worst < 1e-10, f"almost-polar round-trip {worst:.2e}"
        return f"max round-trip error {worst:.2e}"

    return [("family.moment-pde-halving", pde_halving),
            ("family.chart-roundtrip", chart_roundtrip),
            ("family.almost-polar-roundtrip", almost_polar_roundtrip)]


def _suite_metrics() -> list[tuple[str, callable]]:
    def det_fiber():
        worst = 0.0
        for pp in _ALL_PARAMS:
            for (u, v) in [(0.3, 0.8), (1.5, 1.1), (2.4, 0.2)]:
                F = np.array(metrics.fiber_matrix(pp, u, v), dtype=float)
                x = metrics.axial_coordinate(pp, u, v)
                worst = max(worst, abs(np.linalg.det(F) - x * x) / (x * x))
        assert worst < 1e-10, f"det residual {worst:.2e}"
        return f"max |det G - x^2|/x^2 = {worst:.2e}"

    def moment_oracle():
        from .numerics import dual_partials
        worst = 0.0
        for pp in _ALL_PARAMS:
            for (u, v) in [(0.7, 0.9), (1.6, 0.4)]:
                lam = metrics.conformal_factor(pp, u, v)
                F = np.array(metrics.fiber_matrix(pp, u, v), dtype=float)
                grads = []
                for i in (0, 1):
                    _, du, dv = dual_partials(
                        lambda a, b, i=i: family.moment_map(pp, a, b)[i], u, v)
                    grads.append((du, dv))
                for i in (0, 1):
                    for j in (0, 1):
                        oracle = (grads[i][0] * grads[j][0]
                                  + grads[i][1] * grads[j][1]) / lam
                        worst = max(worst, abs(F[i, j] - oracle))
        assert worst < 1e-12, f"moment oracle residual {worst:.2e}"
        return f"max |G_ij - grad phi_i . grad phi_j / lam| = {worst:.2e}"

    def collapsing_dichotomy():
        pp = _GEN05
        n_bounded = [metrics.collapsing_direction_norms(pp, t, t)[0]
                     for t in (10.0, 20.0, 40.0)]
        n_growing = [metrics.collapsing_direction_norms(pp, t, t)[1]
                     for t in (10.0, 20.0, 40.0)]
        assert max(n_bounded) / min(n_bounded) < 1.2, "collapsing norm not bounded"
        growth = n_growing[2] / n_growing[1]
        # squared norm ~ t^4, i.e. the length of the complement grows
        # linearly in distance (R ~ t^2)
        assert 14.0 < growth < 18.0, f"complement norm growth {growth:.2f} not ~16"
        return (f"collapsed direction varies by {max(n_bounded)/min(n_bounded):.3f}, "
                f"complement squared norm grows x{growth:.2f} per doubling")

    return [("metrics.det-fiber", det_fiber),
            ("metrics.moment-oracle", moment_oracle),
            ("metrics.collapsing-dichotomy", collapsing_dichotomy)]


def _suite_geodesics() -> list[tuple[str, callable]]:
    def eikonal():
        worst = 0.0
        for pp in _ALL_PARAMS:
            for eta in [0.3, 0.8, 1.2]:
                for u in np.linspace(0.3, 2.4, 6):
                    for v in np.linspace(0.3, 2.4, 6):
                        worst = max(worst, geodesics.eikonal_residual(pp, eta, u, v))
        assert worst < 1e-6, f"eikonal residual {worst:.2e}"
        return f"max | |grad S|^2 - 1 | = {worst:.2e}"

    def roundtrip():
        worst = 0.0
        etas = [j * math.pi / 12 for j in range(7)]
        for pp in _ALL_PARAMS:
            for R in (0.1, 1.0, 10.0, 100.0):
                for eta in etas:
                    rec = geodesics.point_from_polar(pp, R, eta)
                    worst = max(worst, abs(geodesics.distance(pp, rec.u, rec.v) / R - 1.0))
        assert worst < 1e-8, f"round-trip {worst:.2e}"
        return f"max |distance/R - 1| = {worst:.2e}"

    def eta_recovery():
        worst = 0.0
        for pp in _ALL_PARAMS:
            for R in (0.5, 20.0):
                for eta in (0.2, 0.7, 1.3):
                    rec = geodesics.point_from_polar(pp, R, eta)
                    worst = max(worst, abs(geodesics.solve_eta(pp, rec.u, rec.v) - eta))
        assert worst < 1e-10, f"eta recovery {worst:.2e}"
        return f"max |eta recovered - eta| = {worst:.2e}"

    def monotone_F():
        prev = 1.0
        for R in (0.1, 1.0, 10.0, 100.0, 1000.0):
            F = geodesics.point_from_polar(_GEN05, R, 0.6).F
            assert F > prev, f"F not increasing at R={R}"
            prev = F
        return "F strictly increasing along the ray"

    def lipschitz():
        traj = geodesics.geodesic_shoot(_GEN05, 0.7, 20.0, n_samples=40)
        rs = [geodesics.distance(_GEN05, u, v)
              for u, v in zip(traj.us[1:], traj.vs[1:])]
        ts = traj.ts[1:]
        worst = max(abs((r2 - r1) / (t2 - t1))
                    for r1, r2, t1, t2 in zip(rs, rs[1:], ts, ts[1:]))
        assert worst <= 1.0 + 1e-6, f"distance slope {worst}"
        return f"max |d dist/dt| = {worst:.12f}"

    def polar_coefficient():
        worst = 0.0
        for pp in [_GEN0, _GEN05]:
            for R in (0.5, 5.0):
                for eta in (0.4, 1.1):
                    a2 = geodesics.polar_metric_coefficient(pp, R, eta).A_squared
                    fd = geodesics.polar_metric_coefficient_fd(pp, R, eta)
                    worst = max(worst, abs(a2 / fd - 1.0))
        assert worst < 1e-8, f"A^2 mismatch {worst:.2e}"
        return f"max closed-vs-FD rel error {worst:.2e}"

    return [("geodesics.eikonal", eikonal),
            ("geodesics.roundtrip", roundtrip),
            ("geodesics.eta-recovery", eta_recovery),
            ("geodesics.monotone-F", monotone_F),
            ("geodesics.lipschitz", lipschitz),
            ("geodesics.polar-coefficient", polar_coefficient)]


def _suite_curvature() -> list[tuple[str, callable]]:
    def gauss_fd():
        worst = 0.0
        for pp in _ALL_PARAMS:
            for (u, v) in [(0.6, 0.9), (1.8, 1.2)]:
                K = curvature.polytope_curvature(pp, u, v)
                fd = curvature.polytope_curvature_fd(pp, u, v)
                worst = max(worst, abs(K - fd) / max(abs(K), 1e-3))
        assert worst < 1e-4, f"Gauss FD {worst:.2e}"
        return f"max rel error {worst:.2e}"

    def pseudo_jacobian():
        worst = 0.0
        for pp in [_GEN05, _EXC, _HP]:
            for (u, v) in [(0.5, 1.2), (1.4, 0.7)]:
                worst = max(worst, abs(
                    curvature.ricci_pseudo_volume_density(pp, u, v)
                    - curvature.ricci_pseudo_jacobian_fd(pp, u, v)))
        assert worst < 1e-5, f"pseudo-density vs Jacobian {worst:.2e}"
        return f"max abs error {worst:.2e}"

    def product_identity():
        worst = 0.0
        for pp, fac in [(_GEN05, 1.0), (_EXC, 1.0), (_HP, 2.0)]:
            for (u, v) in [(0.5, 1.2), (1.4, 0.7)]:
                lhs = curvature.ricci_pseudo_volume_density(pp, u, v)
                rhs = fac * curvature.ricci_norm(pp, u, v) ** 2 \
                    * metrics.volume_density(pp, u, v)
                worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-12, f"product identity {worst:.2e}"
        return f"max deviation {worst:.2e} (half-plane factor 2)"

    def l2_ricci():
        rep = curvature.l2_ricci(_GEN05)
        assert rep.rel_error < 1e-6, f"L2 Ricci rel error {rep.rel_error:.2e}"
        return f"k=0.5 quadrature matches closed form to {rep.rel_error:.2e}"

    def energy_identity():
        for k in (0.3, 0.8):
            pp = InstantonParams(Family.GENERALIZED_TN, k=k)
            gap = curvature.l2_riemann(pp) - 4.0 * curvature.l2_ricci_closed(pp)
            assert abs(gap - 32.0 * math.pi ** 2) < 1e-9, f"identity gap {gap}"
        return "l2_riemann - 4 l2_ricci = 32 pi^2 exactly"

    def scalar_flat():
        worst = 0.0
        for pp in _ALL_PARAMS:
            s = curvature.curvature4_fd(pp, 1.0, 1.0)
            worst = max(worst, abs(s.scalar))
        assert worst < 1e-3, f"scalar curvature {worst:.2e}"
        return f"max |scal| = {worst:.2e} (FD)"

    def norm_dichotomy():
        e = curvature.ricci_norm(_EXC, 0.05, 1.0)
        h = curvature.ricci_norm(_HP, 0.05, 1.0)
        assert abs(e - 2.0) < 0.02 and abs(h - math.sqrt(8.0)) < 0.03, \
            f"axis norms {e:.4f}, {h:.4f}"
        return f"|Ric| -> 2 (exceptional) vs sqrt(8) (half-plane): {e:.4f}, {h:.4f}"

    return [("curvature.gauss-fd", gauss_fd),
            ("curvature.pseudo-jacobian", pseudo_jacobian),
            ("curvature.product-identity", product_identity),
            ("curvature.l2-ricci", l2_ricci),
            ("curvature.energy-identity", energy_identity),
            ("curvature.scalar-flat", scalar_flat),
            ("curvature.norm-dichotomy", norm_dichotomy)]


def _suite_asymptotics() -> list[tuple[str, callable]]:
    def ab_quadrature():
        worst = 0.0
        for pp in [_GEN0, _EXC]:
            for R in (1.0, 4.0):
                closed = asymptotics.almost_ball_volume(pp, R)
                quad = asymptotics.almost_ball_volume_quadrature(pp, R)
                worst = max(worst, abs(quad.value - closed) / closed)
        assert worst < 1e-8, f"AB quadrature {worst:.2e}"
        return f"max rel error {worst:.2e}"

    def growth():
        g3 = asymptotics.volume_growth_exponent(_GEN05, (50, 100, 200, 400))
        g4 = asymptotics.volume_growth_exponent(_EXC, (50, 100, 200, 400))
        assert abs(g3 - 3.0) < 0.05 and abs(g4 - 4.0) < 0.05, f"{g3:.3f}, {g4:.3f}"
        return f"exponents {g3:.3f} (cubic), {g4:.3f} (quartic)"

    def bracket():
        for pp in [_GEN0, _EXC]:
            lo, hi = asymptotics.ball_volume_bracket(pp, 100.0)
            mid = asymptotics.almost_ball_volume(pp, 100.0)
            assert lo <= mid <= hi, "bracket does not contain AB volume"
        try:
            asymptotics.ball_volume_bracket(_GEN0, 5.0)
            raise AssertionError("SmallRadius not raised")
        except asymptotics.SmallRadius:
            pass
        return "AB(R) inside measured bracket; small radii rejected"

    def scale_covariance():
        s = 7.3
        vals = []
        for M in (SQRT2, 2.0 * SQRT2):
            pp = InstantonParams(Family.GENERALIZED_TN, M=M, k=0.5)
            vals.append(asymptotics.almost_ball_volume(pp, s / math.sqrt(M)) * M * M)
        rel = abs(vals[0] - vals[1]) / vals[0]
        assert rel < 1e-12, f"covariance residual {rel:.2e}"
        return f"M^2-normalized volumes agree to {rel:.2e}"

    def sandwich():
        for pp in [_GEN05, _EXC]:
            s2 = asymptotics.sphere_sandwich(pp, 100.0, n=20)
            s3 = asymptotics.sphere_sandwich(pp, 1000.0, n=20)
            for s in (s2, s3):
                assert abs(s.c_min) < 2.0 and abs(s.c_max) < 2.0, "band blew up"
            assert abs(s3.c_min) <= abs(s2.c_min) + 0.1, "lower band growing"
        return "gap/log R bands stable across a decade"

    return [("asymptotics.ab-quadrature", ab_quadrature),
            ("asymptotics.growth-exponents", growth),
            ("asymptotics.bracket", bracket),
            ("asymptotics.scale-covariance", scale_covariance),
            ("asymptotics.sandwich-stability", sandwich)]


def _suite_blowdown() -> list[tuple[str, callable]]:
    def monotone(table):
        return all(a >= b for a, b in zip(table, table[1:]))

    def conifold_residuals():
        leaf = []
        fib = []
        for M in (1e2, 1e3, 1e4, 1e5):
            l, f = blowdown.conifold_limit_residual(0.5, 1.0, 1.3, M)
            leaf.append(l)
            fib.append(f)
        assert monotone(leaf) and monotone(fib), "residuals not monotone"
        return f"leaf {leaf[0]:.1e} -> {leaf[-1]:.1e}, fiber {fib[0]:.1e} -> {fib[-1]:.1e}"

    def second_residuals():
        fib = []
        for M in (1e2, 1e3, 1e4, 1e5):
            _, f = blowdown.second_blowdown_limit_residual(0.5, 1.0, 1.3, M)
            fib.append(f)
        assert monotone(fib), "residuals not monotone"
        m = blowdown.second_blowdown_metric(0.5, 1.1, 0.7)
        det_res = abs(float(np.linalg.det(m.fiber)) - 1.1 ** 2 * 0.7 ** 2)
        mom_res = blowdown.second_blowdown_moment_residual(0.5, 1.1, 0.7)
        x, y = blowdown.blowdown_xy_from_uv(1.1, 0.7)
        xy_res = abs(blowdown.second_blowdown_conformal_xy(0.5, x, y)
                     * (1.1 ** 2 + 0.7 ** 2) - m.conformal)
        assert det_res < 1e-10 and mom_res < 1e-12 and xy_res < 1e-12, \
            f"identities {det_res:.1e} {mom_res:.1e} {xy_res:.1e}"
        return f"fiber {fib[0]:.1e} -> {fib[-1]:.1e}; det/moment/chart identities hold"

    def exceptional_residuals():
        fib = []
        for M in (1e1, 1e2, 1e3):
            _, f = blowdown.exceptional_blowdown_limit_residual(0.8, 1.1, M)
            fib.append(f)
        assert monotone(fib), "residuals not monotone"
        kfd = blowdown.exceptional_blowdown_curvature_fd(1.3)
        kcl = blowdown.exceptional_blowdown_curvature(1.3)
        assert abs(kfd - kcl) / abs(kcl) < 1e-4, f"K mismatch {kfd} vs {kcl}"
        return f"fiber {fib[0]:.1e} -> {fib[-1]:.1e}; K oracle ok (positive sign)"

    def pointed_residuals():
        res = [blowdown.pointed_limit_halfplane(A, 0.7, 1.3).residual
               for A in (1e1, 1e2, 1e3)]
        assert monotone(res), "residuals not monotone"
        ray = blowdown.pointed_limit_halfplane(100.0, 1.0, 0.0).residual
        assert ray < 1e-10, f"ray residual {ray:.1e}"
        swap = max(blowdown.halfplane_swap_residual(u, v)
                   for u in (0.3, 1.0, 2.2) for v in (-1.5, 0.4, 2.0))
        assert swap < 1e-12, f"swap residual {swap:.1e}"
        return f"residuals {res[0]:.1e} -> {res[-1]:.1e}; exact on ray; swap {swap:.1e}"

    def conifold_ricci():
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(10):
            k = float(rng.uniform(-0.9, 0.9))
            u, v = float(rng.uniform(0.3, 2.5)), float(rng.uniform(0.3, 2.5))
            cc = blowdown.conifold_curvatures(k, u, v)
            fd = blowdown.conifold_ricci_fd(k, u, v)
            for a, b in zip(fd, (cc.ric_uu, cc.ric_uv, cc.ric_vv, cc.ric_theta)):
                worst = max(worst, abs(a - b) / max(abs(b), 1e-3))
        assert worst < 1e-4, f"Ric3 FD {worst:.2e}"
        return f"FD matches closed Ric3 to {worst:.2e}"

    def distance_eikonal():
        worst = 0.0
        for k in (-0.6, 0.0, 0.5):
            for (u, v) in [(0.5, 1.2), (1.7, 0.8)]:
                worst = max(worst,
                            blowdown.blowdown_distance_gradient_deficit(k, u, v))
        assert worst < 1e-6, f"|grad S| deficit {worst:.2e}"
        return f"max | |grad S| - 1 | = {worst:.2e}"

    return [("blowdown.conifold-residuals", conifold_residuals),
            ("blowdown.second-residuals", second_residuals),
            ("blowdown.exceptional-residuals", exceptional_residuals),
            ("blowdown.pointed-residuals", pointed_residuals),
            ("blowdown.conifold-ricci-fd", conifold_ricci),
            ("blowdown.distance-eikonal", distance_eikonal)]


_GEN0 = InstantonParams(Family.GENERALIZED_TN, M=SQRT2, k=0.0)
_GEN05 = InstantonParams(Family.GENERALIZED_TN, M=SQRT2, k=0.5)
_EXC = InstantonParams(Family.EXCEPTIONAL_TN)
_HP = InstantonParams(Family.EXCEPTIONAL_HALF_PLANE)
_FLAT = InstantonParams(Family.FLAT)
_ALL_PARAMS = (_GEN0, _GEN05, _EXC, _HP, _FLAT)

_SUITES = {
    "family": _suite_family,
    "metrics": _suite_metrics,
    "geodesics": _suite_geodesics,
    "curvature": _suite_curvature,
    "asymptotics": _suite_asymptotics,
    "blowdown": _suite_blowdown,
}


def _cmd_verify(args) -> int:
    if args.suite == "all":
        names = list(_SUITES)
    elif args.suite in _SUITES:
        names = [args.suite]
    else:
        raise UsageError(f"unknown suite {args.suite!r}; "
                         f"choose from all, {', '.join(_SUITES)}")
    checks = []
    for name in names:
        checks.extend(_SUITES[name]())

    def run(item):
        ident, fn = item
        try:
            return ident, True, fn()
        except AssertionError as exc:
            return ident, False, str(exc)
        except Exception as exc:   # noqa: BLE001 - verify must not crash
            return ident, False, f"{type(exc).__name__}: {exc}"

    threads = _thread_count()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, checks))
    else:
        results = [run(c) for c in checks]

    lines = []
    failures = 0
    for ident, ok, detail in results:
        mark = "ok  " if ok else "FAIL"
        lines.append(f"{mark} {ident}: {detail}")
        failures += 0 if ok else 1
    lines.append(f"{len(results) - failures}/{len(results)} checks passed")
    _write_out("\n".join(lines) + "\n", args.out)
    return 1 if failures else 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="taubnut",
        description="Toric scalar-flat instanton toolkit")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="pointwise quantities as JSON")
    _add_common(p)
    p.add_argument("--chart", choices=[c.value for c in Chart], default="uv")
    p.add_argument("--point", default="1,1",
                   help="chart coordinates 'c1,c2' ('R,eta' for polar, "
                        "'Rtilde,psi' for almostpolar)")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("geodesic", help="radial geodesic trajectory as CSV")
    _add_common(p)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--R", type=float, default=10.0, help="arc length to cover")
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(fn=_cmd_geodesic)

    p = sub.add_parser("contour",
                       help="distance-function level sets and geodesic fan")
    _add_common(p)
    p.add_argument("--eta", type=float, default=0.0,
                   help="launch angle of the contoured distance function")
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--R", type=float, default=4.0, help="largest level value")
    p.add_argument("--phi-samples", type=int, default=65)
    p.add_argument("--format", choices=["csv", "svg"], default="csv")
    p.set_defaults(fn=_cmd_contour)

    p = sub.add_parser("energy", help="L^2 curvature energy report")
    _add_common(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(fn=_cmd_energy)

    p = sub.add_parser("volume", help="almost-ball volumes and ball brackets")
    _add_common(p)
    p.add_argument("--R", default="50,100,200,400",
                   help="comma-separated radii")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(fn=_cmd_volume)

    p = sub.add_parser("blowdown", help="limit residual tables")
    _add_common(p)
    p.add_argument("--construction",
                   choices=["conifold", "second", "exceptional", "pointed"],
                   default="conifold")
    p.add_argument("--point", default="1,1", help="blowdown chart point 'u,v'")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(fn=_cmd_blowdown)

    p = sub.add_parser("verify", help="run the invariant suites")
    _add_common(p)
    p.add_argument("--suite", default="all")
    p.set_defaults(fn=_cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BadParams, WrongFamily) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
