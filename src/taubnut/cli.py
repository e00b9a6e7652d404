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
verification failure, 2 bad arguments and any other error of the package
(a TaubnutError), reported as one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys

from . import __version__
from .family import BadParams, Chart, Family, InstantonParams, WrongFamily, check_chirality
from .numerics import TaubnutError

FAMILY_NAMES = {
    "generalized": Family.GENERALIZED_TN,
    "exceptional": Family.EXCEPTIONAL_TN,
    "halfplane": Family.EXCEPTIONAL_HALF_PLANE,
    "flat": Family.FLAT,
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _dump_json(obj) -> str:
    """Minimal JSON writer with canonical float formatting and sorted keys
    (the stdlib encoder prints shortest-roundtrip floats, which is also
    deterministic, but pinning 17 significant digits keeps golden files
    independent of repr subtleties)."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):   # numpy's float64 is a float
        return _fmt(obj) if math.isfinite(obj) else f'"{obj}"'
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        inner = ", ".join(
            _dump_json(str(k)) + ": " + _dump_json(obj[k]) for k in sorted(obj))
        return "{" + inner + "}"
    return "[" + ", ".join(_dump_json(x) for x in obj) + "]"   # a list or a tuple


def _write_out(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _csv(header: list[str], rows: list[list]) -> str:
    return "\n".join([",".join(header)] + [",".join(
        cell if isinstance(cell, str) else _fmt(cell) for cell in row) for row in rows]) + "\n"


# --------------------------------------------------------------------------
# argument plumbing
# --------------------------------------------------------------------------

def _params(args) -> InstantonParams:
    # the library rejects stray parameters (e.g. --M for a family with a
    # fixed normalization) with BadParams, an exit-2 usage error
    return InstantonParams(FAMILY_NAMES[args.family_name], M=args.M, k=args.k)


def _parse_point(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise BadParams(f"--point expects 'c1,c2', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise BadParams(f"--point expects two floats, got {text!r}")


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------

def _cmd_eval(args) -> int:
    from . import geodesics, metrics
    params = _params(args)
    c1, c2 = _parse_point(args.point)
    chart = Chart(args.chart)
    u, v = geodesics.uv_from_chart(params, chart, c1, c2)
    R, eta = geodesics.polar_from_point(params, u, v)
    q = {}

    def put(names, values):
        """Store values() under names, each a float within the float range;
        an overflow is charged to the first name."""
        def beyond(name):
            return BadParams(f"{name} at (u, v) = ({u}, {v}) is beyond the float range")
        try:
            values = [float(x) for x in values()]
        except OverflowError:
            raise beyond(names[0]) from None
        for name, x in zip(names, values):
            if not math.isfinite(x):
                raise beyond(name)
            q[name] = x

    put(["conformal_factor"], lambda: [metrics.conformal_factor(params, u, v)])
    put(["axial_coordinate"], lambda: [metrics.axial_coordinate(params, u, v)])
    put(["volume_density"], lambda: [metrics.volume_density(params, u, v)])
    e11, e12, e22 = params.fiber(u, v)
    put(["fiber_11", "fiber_12", "fiber_22", "fiber_det"],
        lambda: [e11, e12, e22, e11 * e22 - e12 * e12])
    put(["moment_1", "moment_2"], lambda: params.moment_map(u, v))
    put(["k_sigma"], lambda: [params.polytope_curvature(u, v)])
    put(["ricci_potential_1", "ricci_potential_2"], lambda: params.ricci_potentials(u, v))
    put(["ricci_norm"], lambda: [params.ricci_norm(u, v)])
    put(["ricci_pseudo_density"], lambda: [params.ricci_density(u, v)])
    put(["distance", "launch_angle"], lambda: [R, eta])
    try:
        put(["almost_distance"], lambda: [params.almost_distance(u, v)])
    except WrongFamily:
        pass
    doc = {
        "version": __version__,
        "params": params.as_dict(),
        "point": {"chart": chart.value, "c1": c1, "c2": c2, "u": u, "v": v},
        "quantities": q,
    }
    _write_out(_dump_json(doc), args.out)
    return 0


# --------------------------------------------------------------------------
# geodesic
# --------------------------------------------------------------------------

def _cmd_geodesic(args) -> int:
    from . import geodesics
    params = _params(args)
    if not 0.0 < args.R < math.inf:
        raise BadParams(f"--R must be finite and positive, got {args.R}")
    if args.samples < 1:
        raise BadParams(f"--samples must be >= 1, got {args.samples}")
    traj = geodesics.geodesic_shoot(params, args.eta, args.R, n_samples=args.samples)
    rows = [[t, u, v, R, abs(R - t), res] for t, u, v, R, res in
            zip(traj.ts, traj.us, traj.vs, traj.distances, traj.unparam_residuals)]
    _write_out(_csv(["t", "u", "v", "R", "distance_residual", "unparam_residual"], rows), args.out)
    return 0


# --------------------------------------------------------------------------
# contour
# --------------------------------------------------------------------------

def _cmd_contour(args) -> int:
    import numpy as np
    from . import geodesics
    params = _params(args)
    # rays and launch angles both sweep the chart domain
    eta_lo, eta_hi = params.eta_range
    if args.levels < 2:
        raise BadParams(f"--levels must be >= 2, got {args.levels}")
    if args.phi_samples < 2:
        raise BadParams(f"--phi-samples must be >= 2, got {args.phi_samples}")
    if not 0.0 <= args.R < math.inf:
        raise BadParams(f"--R must be finite and >= 0, got {args.R}")
    if not eta_lo <= args.eta <= eta_hi:
        raise BadParams(f"--eta must lie in [{eta_lo}, {eta_hi}], got {args.eta}")
    phis = np.linspace(eta_lo, eta_hi, args.phi_samples)
    cp, sp = np.cos(phis), np.sin(phis)

    rows, r = [], np.full(phis.shape, np.nan)
    levels = [args.R * i / (args.levels - 1) for i in range(args.levels)]
    for i, level in enumerate(levels):
        if level == 0.0:   # the origin, as the root on the ray phi = 0
            rows.append((f"level-{i}", "level", 0.0, 0.0, 0.0, level))
            continue
        # each ray's solve starts at its radius on the level before, if any
        r = geodesics.trace_level(params, args.eta, level, cp, sp, np.where(np.isnan(r), level, r))
        on = ~np.isnan(r)
        rows += [(f"level-{i}", "level", phi, u, v, level) for phi, u, v in
                 zip(phis[on].tolist(), (r * cp)[on].tolist(), (r * sp)[on].tolist())]

    fan = [e for e in (j * math.pi / 12.0 for j in range(-6, 7)) if e >= eta_lo]
    ts = np.linspace(0.0, args.R, args.phi_samples)
    us, vs = geodesics.points_from_polar(params, ts, np.array(fan)[:, None])
    us[:, ts == 0.0] = vs[:, ts == 0.0] = 0.0   # the origin, unsigned for eta < 0
    for j, (eta_ray, u_ray, v_ray) in enumerate(zip(fan, us.tolist(), vs.tolist())):
        rows += [(f"geodesic-{j}", "geodesic", t, u, v, eta_ray)
                 for t, u, v in zip(ts.tolist(), u_ray, v_ray)]

    if args.format == "svg":
        _write_out(_render_svg(rows), args.out)
    else:
        _write_out("\n".join(["curve,kind,param,u,v,value"] + [
            "%s,%s,%.17g,%.17g,%.17g,%.17g" % row for row in rows]) + "\n", args.out)
    return 0


def _render_svg(rows) -> str:
    """Thin rendering of the contour rows, which come curve by curve:
    one polyline per curve."""
    pad, size = 10.0, 640.0
    us, vs = [r[3] for r in rows], [r[4] for r in rows]
    u_lo, v_lo = min(us), min(vs)
    du, dv = (max(us) - u_lo) or 1.0, (max(vs) - v_lo) or 1.0

    def sx(u):
        return pad + (u - u_lo) / du * (size - 2 * pad)

    def sy(v):
        return size - pad - (v - v_lo) / dv * (size - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:g}" '
             f'height="{size:g}" viewBox="0 0 {size:g} {size:g}">']
    for (_, kind), curve in itertools.groupby(rows, key=lambda r: r[:2]):
        color = "#1f6fb2" if kind == "level" else "#b23a1f"
        pts = " ".join(f"{sx(r[3]):.2f},{sy(r[4]):.2f}" for r in curve)
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1" points="{pts}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --------------------------------------------------------------------------
# energy / volume
# --------------------------------------------------------------------------

def _cmd_energy(args) -> int:
    from . import curvature
    params = _params(args)
    rep = curvature.l2_ricci(params)
    doc = {
        "version": __version__,
        "params": params.as_dict(),
        "l2_ricci_closed": rep.closed_form,
        "l2_ricci_quadrature": None if rep.quadrature is None else rep.quadrature.value,
        "rel_error": rep.rel_error,
        "growth_exponent": rep.growth_exponent,
        "growth_samples": [list(s) for s in rep.growth_samples],
    }
    try:
        doc["l2_riemann"] = params.l2_riemann
    except WrongFamily:
        pass
    if args.format == "csv":
        rows = [["l2_ricci_closed", rep.closed_form],
                ["l2_ricci_quadrature", "" if rep.quadrature is None else rep.quadrature.value],
                ["rel_error", rep.rel_error],
                *([["growth_exponent", rep.growth_exponent]]
                  if rep.growth_exponent is not None else []),
                *([f"partial_energy_R={_fmt(R)}", val] for R, val in rep.growth_samples),
                *([["l2_riemann", doc["l2_riemann"]]] if "l2_riemann" in doc else [])]
        _write_out(_csv(["quantity", "value"], rows), args.out)
    else:
        _write_out(_dump_json(doc), args.out)
    return 0


def _cmd_volume(args) -> int:
    from . import asymptotics
    params = _params(args)
    try:
        radii = [float(x) for x in args.R.split(",")]
    except ValueError:
        raise BadParams(f"--R expects comma-separated radii, got {args.R!r}")
    if not radii or any(r <= 0 for r in radii):
        raise BadParams("--R radii must be positive")
    rows, brackets = [], []
    for R in radii:
        vol = asymptotics.almost_ball_volume(params, R)
        try:
            brackets.append(list(asymptotics.ball_volume_bracket(params, R)))
        except asymptotics.SmallRadius:
            brackets.append(None)
        rows.append([R, vol, *(brackets[-1] or ["", ""])])
    exponent = (asymptotics.volume_growth_exponent(params, radii)
                if len(radii) >= 4 else None)
    if args.format == "json":
        doc = {
            "version": __version__,
            "params": params.as_dict(),
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
    from . import blowdown
    u, v = _parse_point(args.point)
    check_chirality(args.k)   # also where the limit does not depend on k
    # each construction's residual table: (parameter, leaf residual, fiber
    # residual) over the decades of its scaling parameter
    scales = ([1e2, 1e3, 1e4, 1e5, 1e6] if args.construction in ("conifold", "second")
              else [1e1, 1e2, 1e3, 1e4])
    summary = {"version": __version__, "construction": args.construction,
               "k": args.k, "point": [u, v]}
    if args.construction == "conifold":
        rows = [[M, *blowdown.conifold_limit_residual(args.k, u, v, M)] for M in scales]
        conformal, fiber_scalar = blowdown.conifold_metric(args.k, u, v)
        c = blowdown.conifold_curvatures(args.k, u, v)
        summary.update(conformal=conformal, fiber_scalar=fiber_scalar,
                       k_sigma=c.k_sigma, scalar3=c.scalar3)
    elif args.construction == "second":
        rows = [[M, *blowdown.second_blowdown_limit_residual(args.k, u, v, M)] for M in scales]
        conformal, fiber, moments = blowdown.second_blowdown_metric(args.k, u, v)
        (e11, e12), (_, e22) = fiber
        summary.update(conformal=conformal, fiber=[list(r) for r in fiber],
                       fiber_det=e11 * e22 - e12 * e12, moments=list(moments))
    elif args.construction == "exceptional":
        rows = [[M, *blowdown.exceptional_blowdown_limit_residual(u, v, M)] for M in scales]
        conformal, fiber = blowdown.exceptional_blowdown_metric(u, v)
        summary.update(conformal=conformal, fiber=[list(r) for r in fiber],
                       k_sigma=blowdown.exceptional_blowdown_curvature(u))
    else:   # pointed, summarized by its sample at the last A of the table
        rows = [[A, 0.0, blowdown.pointed_limit_halfplane(A, u, v).residual] for A in scales]
        s = blowdown.pointed_limit_halfplane(scales[-1], u, v)
        summary.update(conformal=s.conformal,
                       limit_fiber=[list(r) for r in s.limit_fiber],
                       fiber_topology_finite=blowdown.FINITE_FIBER_TOPOLOGY,
                       fiber_topology_limit=blowdown.LIMIT_FIBER_TOPOLOGY,
                       moments=list(blowdown.pointed_limit_moments_limit(u, v)))
    summary["residuals_monotone"] = all(a[2] >= b[2] for a, b in zip(rows, rows[1:]))
    summary["residual_table"] = rows

    if args.format == "json":
        _write_out(_dump_json(summary), args.out)
    else:
        _write_out(_csv(["parameter", "leaf_residual", "fiber_residual"], rows),
                   args.out)
    return 0


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    from . import checks
    lines, failures = [], 0
    for ident, fn in checks.CHECKS:
        if args.suite not in ("all", ident.split(".")[0]):
            continue
        try:
            ok, detail = True, fn()
        except checks.CheckFailed as exc:
            ok, detail = False, str(exc)
        except Exception as exc:   # noqa: BLE001 - verify must not crash
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        lines.append(f"{'ok  ' if ok else 'FAIL'} {ident}: {detail}")
        failures += 0 if ok else 1
    lines.append(f"{len(lines) - failures}/{len(lines)} checks passed")
    _write_out("\n".join(lines) + "\n", args.out)
    return 1 if failures else 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

@functools.cache   # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="taubnut",
        description="Toric scalar-flat instanton toolkit")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    # shared options; each subcommand takes only the groups it reads
    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--family", dest="family_name", choices=sorted(FAMILY_NAMES),
                        default="generalized")
    params.add_argument("--M", type=float, default=None,
                        help="mass parameter of the generalized family "
                             "(default sqrt(2), the standard scale)")
    params.add_argument("--k", type=float, default=None,
                        help="twisting parameter, |k| < 1 (default 0)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default="-", help="output path, '-' for stdout")

    p = sub.add_parser("eval", parents=[params, out],
                       help="pointwise quantities as JSON")
    p.add_argument("--chart", choices=[c.value for c in Chart], default="uv")
    p.add_argument("--point", default="1,1",
                   help="chart coordinates 'c1,c2' ('R,eta' for polar, "
                        "'Rtilde,psi' for almostpolar)")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("geodesic", parents=[params, out],
                       help="radial geodesic trajectory as CSV")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--R", type=float, default=10.0, help="arc length to cover")
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(fn=_cmd_geodesic)

    p = sub.add_parser("contour", parents=[params, out],
                       help="distance-function level sets and geodesic fan")
    p.add_argument("--eta", type=float, default=0.0,
                   help="launch angle of the contoured distance function")
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--R", type=float, default=4.0, help="largest level value")
    p.add_argument("--phi-samples", type=int, default=65)
    p.add_argument("--format", choices=["csv", "svg"], default="csv")
    p.set_defaults(fn=_cmd_contour)

    p = sub.add_parser("energy", parents=[params, out],
                       help="L^2 curvature energy report")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(fn=_cmd_energy)

    p = sub.add_parser("volume", parents=[params, out],
                       help="almost-ball volumes and ball brackets")
    p.add_argument("--R", default="50,100,200,400",
                   help="comma-separated radii")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(fn=_cmd_volume)

    p = sub.add_parser("blowdown", parents=[out],
                       help="limit residual tables")
    p.add_argument("--k", type=float, default=0.0, help="twisting parameter, |k| < 1")
    p.add_argument("--construction", default="conifold",
                   choices=["conifold", "second", "exceptional", "pointed"])
    p.add_argument("--point", default="1,1", help="blowdown chart point 'u,v'")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(fn=_cmd_blowdown)

    p = sub.add_parser("verify", parents=[out],
                       help="run the invariant suites")
    # the suites of checks.CHECKS in file order, so that only verify imports checks
    p.add_argument("--suite", default="all", choices=[
        "all", "family", "metrics", "geodesics", "curvature", "asymptotics", "blowdown"])
    p.set_defaults(fn=_cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except TaubnutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
