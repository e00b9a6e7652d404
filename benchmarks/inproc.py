"""In-process workloads, each run in a fresh child process by run.py.

    python3 benchmarks/inproc.py WORKLOAD --seed N --scratch DIR
        (--seconds S | --rounds N | --setup-only) [--trace 0|1]

WORKLOAD is geodesic-grid, integrals or cli-verify (the in-process verify
that the traced cli-cold run profiles).  The child imports the program,
makes round 0's inputs (that much is set-up), then runs whole rounds until
the budget is spent, each round on fresh seeded inputs.  After the timed
loop it checks every output against reference.py and prints one JSON
object as its last line: per-round phase times, operation counts, failed
checks and, with --trace 1, the per-layer counters.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
import traceback

import clock
import reference
import tracer

from taubnut import asymptotics, blowdown, cli, curvature, geodesics
from taubnut.family import BadParams, Family, InstantonParams

HALF_PI = 0.5 * math.pi
EDGE_MARGIN = 0.01   # grid angles stay this far from the axes (see README)

# (family, k) of the geodesic grid; k is ignored off GeneralizedTN.
GRID_PARAMS = ([("GeneralizedTN", k) for k in (-0.9, 0.0, 0.5, 0.9)]
               + [("ExceptionalTN", 0.0), ("ExceptionalHalfPlane", 0.0),
                  ("Flat", 0.0)])
N_DISTANCE = 500     # distance() calls per family per round
N_POLAR = 500        # point_from_polar() calls per family per round
N_MPMATH = 6         # distance values per family checked at 30 digits


def make_params(fam: str, k: float = 0.0) -> InstantonParams:
    if fam == "GeneralizedTN":
        return InstantonParams(Family.GENERALIZED_TN, k=k)
    return InstantonParams(Family(fam))


def label(fam: str, k: float) -> str:
    return f"{fam}(k={k:g})" if fam == "GeneralizedTN" else fam


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


# --------------------------------------------------------------------------
# geodesic-grid
# --------------------------------------------------------------------------

def _edge_ops(mp_ref_edge3):
    """The eight edge operations: (name, call, success test)."""
    gen0, gen05 = make_params("GeneralizedTN", 0.0), make_params("GeneralizedTN", 0.5)
    exc, flat = make_params("ExceptionalTN"), make_params("Flat")
    gen9999 = make_params("GeneralizedTN", 0.9999)

    def close(ref):
        return lambda d: math.isfinite(d) and abs(d - ref) <= 1e-10 * max(1.0, abs(ref))

    def on_chart(params, R, quadrant=True):
        def ok(rec):
            u, v = rec.u, rec.v
            if not (math.isfinite(u) and math.isfinite(v)):
                return False
            if quadrant and (u < 0.0 or v < 0.0):
                return False
            return abs(geodesics.distance(params, u, v) / R - 1.0) <= 1e-8
        return ok

    return [
        ("distance-gen-k0-u1e-100",
         lambda: geodesics.distance(gen0, 1e-100, 1.0),
         close(geodesics.distance(gen0, 0.0, 1.0))),
        ("distance-exc-v1e-200",
         lambda: geodesics.distance(exc, 1.0, 1e-200),
         close(geodesics.distance(exc, 1.0, 0.0))),
        ("distance-exc-v1e-14",
         lambda: geodesics.distance(exc, 1.0, 1e-14), close(mp_ref_edge3)),
        ("distance-gen-nan", lambda: geodesics.distance(gen05, math.nan, 1.0), None),
        ("polar-gen-k0.9999-R1000",
         lambda: geodesics.point_from_polar(gen9999, 1000.0, 0.5),
         on_chart(gen9999, 1000.0)),
        ("polar-exc-R800-axis",
         lambda: geodesics.point_from_polar(exc, 800.0, HALF_PI),
         on_chart(exc, 800.0)),
        ("polar-flat-R800",
         lambda: geodesics.point_from_polar(flat, 800.0, 0.3),
         on_chart(flat, 800.0, quadrant=False)),
        ("polar-gen-eta2", lambda: geodesics.point_from_polar(gen05, 3.0, 2.0), None),
    ]


def run_edge(op) -> str | None:
    """None on success, else how the operation failed.  A success test of
    None means the input is outside the domain and BadParams is expected."""
    name, call, ok = op
    try:
        out = call()
    except BadParams:
        return None if ok is None else "BadParams"
    except Exception as exc:  # noqa: BLE001 - an edge operation may fail any way
        return type(exc).__name__
    if ok is None:
        return f"returned {out!r} instead of raising BadParams"
    try:
        good = ok(out)
    except Exception as exc:  # noqa: BLE001
        return f"check raised {type(exc).__name__}"
    return None if good else f"wrong value {out!r}"


class GeodesicGrid:
    name = "geodesic-grid"

    def __init__(self, rng: random.Random, scratch: str):
        self.rng = rng
        self.params = [(fam, k, make_params(fam, k)) for fam, k in GRID_PARAMS]
        self.sweep_params = {
            "sandwich": [make_params("GeneralizedTN", 0.5), make_params("ExceptionalTN")],
            "bracket": [make_params("GeneralizedTN", 0.0), make_params("ExceptionalTN")],
        }
        self.contour_out = {fam: os.path.join(scratch, f"contour-{fam}.csv")
                            for fam in ("generalized", "halfplane")}
        self.distance_rows = []   # (family, k, u, v, distance)
        self.polar_rows = []      # (family, k, R, eta, u, v)
        self.bracket_rows = []
        self.edge_failures = {}
        self.edge = None
        self.ops_per_round = len(GRID_PARAMS) * (N_DISTANCE + N_POLAR) + 4 + 2 + 2 + 8

    def inputs(self):
        rng = self.rng
        dist, polar = [], []
        for fam, k, _ in self.params:
            signed = fam == "ExceptionalHalfPlane"
            pts = []
            for _ in range(N_DISTANCE):
                r = log_uniform(rng, 1e-2, 1e2)
                phi = rng.uniform(EDGE_MARGIN, HALF_PI - EDGE_MARGIN)
                if signed and rng.random() < 0.5:
                    phi = -phi
                pts.append((r * math.cos(phi), r * math.sin(phi)))
            dist.append(pts)
            rays = []
            for _ in range(N_POLAR):
                R = log_uniform(rng, 1e-2, 700.0)
                eta = rng.uniform(EDGE_MARGIN, HALF_PI - EDGE_MARGIN)
                if signed and rng.random() < 0.5:
                    eta = -eta
                rays.append((R, eta))
            polar.append(rays)
        return dist, polar

    def round(self, inputs, record):
        dist, polar = inputs
        distance, point_from_polar = geodesics.distance, geodesics.point_from_polar
        results = record("distance_per_s", lambda: [
            [distance(p, u, v) for u, v in pts] for (_, _, p), pts in zip(self.params, dist)],
            calls=sum(len(pts) for pts in dist))
        recs = record("polar_per_s", lambda: [
            [point_from_polar(p, R, eta) for R, eta in rays]
            for (_, _, p), rays in zip(self.params, polar)],
            calls=sum(len(rays) for rays in polar))
        sweep = record("sweep_s", self.sweep)

        for (fam, k, _), pts, ds in zip(self.params, dist, results):
            self.distance_rows.extend((fam, k, u, v, d) for (u, v), d in zip(pts, ds))
        for (fam, k, _), rays, rs in zip(self.params, polar, recs):
            self.polar_rows.extend((fam, k, R, eta, r.u, r.v)
                                   for (R, eta), r in zip(rays, rs))
        self.bracket_rows.extend(sweep)

        # Edge operations are timed apart from every phase above.
        if self.edge is None:
            self.edge = _edge_ops(reference.mp_distance("ExceptionalTN", 1.0, 1e-14))
        failed = 0
        for op in self.edge:
            why = run_edge(op)
            if why is not None:
                failed += 1
                self.edge_failures[op[0]] = why
        return failed

    def sweep(self):
        """The fixed sweep: the library's own point loops, 8 calls."""
        # n = 50 (the default): for some n, such as 48 or 100, the last
        # angle rounds past pi/2 and the call raises BadParams (CHANGES.md).
        for p in self.sweep_params["sandwich"]:
            for r_tilde in (100.0, 1000.0):
                asymptotics.sphere_sandwich(p, r_tilde, n=50)
        rows = []
        for p in self.sweep_params["bracket"]:
            fam = p.family.value
            lo, hi = asymptotics.ball_volume_bracket(p, 100.0)
            rows.append((fam, 100.0, p.k if fam == "GeneralizedTN" else 0.0, lo, hi))
        for fam_arg in ("generalized", "halfplane"):
            argv = ["contour", "--family", fam_arg, "--eta", "0.4", "--levels", "4",
                    "--R", "6", "--out", self.contour_out[fam_arg]]
            if fam_arg == "generalized":
                argv += ["--k", "0.5"]
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"contour {fam_arg} exited {code}")
        return rows

    def check(self, rng: random.Random):
        bad = []
        by_family = {}
        for row in self.distance_rows:
            by_family.setdefault((row[0], row[1]), []).append(row)
        subset = []
        for key in sorted(by_family):
            subset.extend(rng.sample(by_family[key], min(N_MPMATH, len(by_family[key]))))
        bad += reference.check_distance_reference(subset)
        bad += reference.check_flat_hypot([(u, v, d) for fam, _, u, v, d
                                           in self.distance_rows if fam == "Flat"])
        params = {(fam, k): p for fam, k, p in self.params}
        bad += reference.check_polar_roundtrip(
            (label(fam, k), R, eta, u, v, geodesics.distance(params[fam, k], u, v))
            for fam, k, R, eta, u, v in self.polar_rows)
        bad += reference.check_bracket(self.bracket_rows)
        for fam_arg, p in (("generalized", make_params("GeneralizedTN", 0.5)),
                           ("halfplane", make_params("ExceptionalHalfPlane"))):
            with open(self.contour_out[fam_arg]) as fh:
                rows = reference.parse_contour_csv(fh.read())
            bad += reference.check_contour_geodesics(
                rows, lambda u, v, p=p: geodesics.distance(p, u, v))
        return bad

    def report(self):
        return {"edge_failures": self.edge_failures}


# --------------------------------------------------------------------------
# integrals
# --------------------------------------------------------------------------

DECAY_RADII = (60.0, 120.0, 240.0, 480.0)


class Integrals:
    name = "integrals"

    def __init__(self, rng: random.Random, scratch: str):
        self.rng = rng
        self.exc = make_params("ExceptionalTN")
        self.hp = make_params("ExceptionalHalfPlane")
        self.rows = {key: [] for key in ("l2", "growth", "ball", "shoot",
                                         "scalar", "decay", "gauss", "conifold")}
        self.ops_per_round = 3 + 2 + 6 + 12 + 8 + 3 + 6 + 6

    def inputs(self):
        rng = self.rng
        # One draw per stratum keeps each round's work alike across seeds.
        ks = [rng.uniform(0.1, 0.45), rng.uniform(0.45, 0.8), -rng.uniform(0.1, 0.8)]
        radii = [log_uniform(rng, lo, 4 * lo) for lo in (1.0, 4.0, 16.0)]
        fan = []
        for fam in ("GeneralizedTN", "ExceptionalTN", "ExceptionalHalfPlane"):
            for j in range(4):
                k = rng.uniform(-0.8 + 0.4 * j, -0.4 + 0.4 * j)
                eta = rng.uniform(0.05 + j * 0.37, 0.05 + (j + 1) * 0.37)
                if fam == "ExceptionalHalfPlane" and j % 2:
                    eta = -eta
                fan.append((fam, k, eta, rng.uniform(4.0, 5.0)))
        fam_fd = ["GeneralizedTN", "GeneralizedTN", "ExceptionalTN",
                  "ExceptionalHalfPlane", "Flat", "GeneralizedTN",
                  "ExceptionalTN", "ExceptionalHalfPlane"]
        points = [(fam, rng.uniform(-0.9, 0.9), rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))
                  for fam in fam_fd]
        decay = [(k, rng.uniform(0.2, 1.3)) for k in (0.0, 0.5, -0.5)]
        conifold = [(rng.uniform(-0.9, 0.9), rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))
                    for _ in range(6)]
        return ks, radii, fan, points, decay, conifold

    def round(self, inputs, record):
        ks, radii, fan, points, decay, conifold = inputs
        rows = self.rows
        gen_ball = make_params("GeneralizedTN", ks[0])

        def quadrature():
            l2 = [(k, curvature.l2_ricci(make_params("GeneralizedTN", k))) for k in ks]
            growth = [(p, curvature.l2_ricci(p)) for p in (self.exc, self.hp)]
            ball = [(fam, k, R, asymptotics.almost_ball_volume_quadrature(p, R).value)
                    for fam, k, p in (("GeneralizedTN", ks[0], gen_ball),
                                      ("ExceptionalTN", 0.0, self.exc))
                    for R in radii]
            return l2, growth, ball

        def fd():
            scal = [(fam, k, u, v, curvature.curvature4_fd(make_params(fam, k), u, v).scalar)
                    for fam, k, u, v in points]
            rates = [(k, eta, curvature.decay_rate_along_geodesic(
                make_params("GeneralizedTN", k), eta, "Rm_fd", DECAY_RADII))
                for k, eta in decay]
            gauss_points = [(k, u, v) for fam, k, u, v in points
                            if fam == "GeneralizedTN"] + conifold[:3]
            gauss = [(k, u, v, curvature.polytope_curvature_fd(
                make_params("GeneralizedTN", k), u, v)) for k, u, v in gauss_points]
            cones = [blowdown.conifold_ricci_fd(k, u, v) for k, u, v in conifold]
            return scal, rates, gauss, cones

        l2, growth, ball = record("quadrature_s", quadrature)
        shots = record("shoot_s", lambda: [
            (fam, k, eta, t, geodesics.geodesic_shoot(make_params(fam, k), eta, t))
            for fam, k, eta, t in fan])
        scal, rates, gauss, cones = record("curvature_fd_s", fd)

        rows["l2"].extend((k, rep.quadrature.value) for k, rep in l2)
        rows["growth"].extend((p.family.value, rep.growth_exponent,
                               2.0 if p is self.exc else 1.0) for p, rep in growth)
        rows["ball"].extend(ball)
        rows["shoot"].extend((fam, k, eta, t, float(tr.us[-1]), float(tr.vs[-1]))
                             for fam, k, eta, t, tr in shots)
        rows["scalar"].extend((label(fam, k), u, v, s) for fam, k, u, v, s in scal)
        rows["decay"].extend(rates)
        rows["gauss"].extend(gauss)
        rows["conifold"].extend(cones)
        return 0

    def check(self, rng: random.Random):
        rows = self.rows
        bad = reference.check_l2_ricci(rows["l2"])
        bad += reference.check_growth(rows["growth"])
        bad += reference.check_almost_ball(rows["ball"])
        shoot = []
        for fam, k, eta, t, u, v in rows["shoot"]:
            rec = geodesics.point_from_polar(make_params(fam, k), t, eta)
            shoot.append((label(fam, k), eta, t, u, v, rec.u, rec.v))
        bad += reference.check_shoot(shoot)
        bad += reference.check_scalar_flat(rows["scalar"])
        bad += reference.check_decay(rows["decay"])
        bad += reference.check_gauss_fd(rows["gauss"])
        bad += reference.check_finite("conifold-ricci-fd", rows["conifold"])
        return bad

    def report(self):
        return {}


# --------------------------------------------------------------------------
# cli-verify: the in-process verify of the traced cli-cold run
# --------------------------------------------------------------------------

class CliVerify:
    name = "cli-verify"

    def __init__(self, rng: random.Random, scratch: str):
        self.out = os.path.join(scratch, "verify.txt")
        self.ops_per_round = 1
        self.texts = []

    def inputs(self):
        return None

    def round(self, inputs, record):
        code = record("cli.verify.inproc_s",
                      lambda: cli.main(["verify", "--suite", "all", "--out", self.out]))
        with open(self.out) as fh:
            self.texts.append((code, fh.read()))
        return 0

    def check(self, rng: random.Random):
        bad = []
        for code, text in self.texts:
            if code != 0:
                bad.append(f"cli-verify: exit code {code}")
            bad += reference.check_verify(text)
        return bad

    def report(self):
        return {}


WORKLOADS = {w.name: w for w in (GeodesicGrid, Integrals, CliVerify)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--rounds", type=int)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.makedirs(args.scratch, exist_ok=True)
    rng = random.Random(f"{args.workload}:{args.seed}")
    work = WORKLOADS[args.workload](rng, args.scratch)
    inputs = work.inputs()
    if args.setup_only:
        return 0

    trace = tracer.Tracer() if args.trace else None
    if trace is not None:
        trace.install()
    phases: dict[str, list[float]] = {}
    walls: dict[str, list[float]] = {}
    scaled_total = [0.0]

    def record(name, fn, calls=None):
        """Run one timed phase; keep its wall time and its scaled time
        (or, for a rate, calls per scaled second)."""
        out, wall, scaled = clock.timed(fn)
        walls.setdefault(name, []).append(wall)
        phases.setdefault(name, []).append(scaled if calls is None else calls / scaled)
        scaled_total[0] += scaled
        return out

    attempted = failed = 0
    error = None

    def step():
        """One round on fresh inputs; False once the workload raised."""
        nonlocal attempted, failed, error, inputs
        if attempted:
            inputs = work.inputs()
        attempted += work.ops_per_round
        try:
            failed += work.round(inputs, record)
        except Exception:  # noqa: BLE001 - report the workload, keep the run
            error = traceback.format_exc()
            failed += work.ops_per_round
            return False
        return True

    t0 = time.perf_counter()
    rounds = clock.rounds(step, args.seconds, args.rounds)
    result = {"loop_s": time.perf_counter() - t0, "scaled_s": scaled_total[0]}
    if trace is not None:
        trace.uninstall()
        result["layers"] = trace.metrics()

    check_rng = random.Random(f"check:{args.workload}:{args.seed}")
    try:
        failures = work.check(check_rng) if error is None else []
    except Exception:  # noqa: BLE001 - a crashing check is a failed check
        failures = ["check raised:\n" + traceback.format_exc()]
    result.update(rounds=rounds, attempted=attempted, failed=failed, phases=phases, walls=walls,
                  failures=failures, error=error, **work.report())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
