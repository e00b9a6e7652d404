"""Self-test of the benchmark.

    python3 benchmarks/selftest.py

1. the 30-digit reference agrees with Flat's hypot, and is continuous at
   the axis where the program's float solve is not;
2. every checker passes a right output and rejects a perturbed one;
3. a very short run of every workload, untraced
   and traced, prints the result line the benchmark promises; traced
   counts repeat exactly for one seed; and without src/ next to it the
   command exits nonzero and prints no result.

Exits 1 on the first failure, naming it.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def expect(cond, what):
    if not cond:
        print(f"selftest FAILED: {what}", file=sys.stderr)
        sys.exit(1)
    print(f"ok  {what}")


def test_reference():
    for u, v in ((3.0, 4.0), (1e-3, 2.0), (70.0, 0.5), (0.0, 1.0)):
        d = ref.mp_distance("Flat", u, v)
        expect(abs(d - math.hypot(u, v)) <= 1e-15 * d,
               f"mpmath reference = hypot for Flat at ({u}, {v})")
    for fam, k in (("ExceptionalTN", 0.0), ("GeneralizedTN", 0.0), ("GeneralizedTN", 0.9)):
        near = ref.mp_distance(fam, 1.0, 1e-14, k)
        axis = ref.mp_distance(fam, 1.0, 0.0, k)
        expect(abs(near - axis) <= 1e-13, f"{fam}(k={k}) reference continuous at the u-axis")
    # A point whose geodesic leaves at 5e-28 from the v-axis.
    d = ref.mp_distance("ExceptionalTN", 26.539624016495516, 66.85355132364192)
    expect(abs(d - (0.5 * 26.539624016495516 ** 2 + 66.85355132364192)) <= 1e-9 * d,
           "reference keeps its precision next to the v-axis")


def perturbed(value, rel=1e-5):
    return value * (1.0 + rel)


def test_checkers():
    d = ref.mp_distance("GeneralizedTN", 1.0, 1.0, 0.5)
    cases = [
        ("distance-mpmath", ref.check_distance_reference,
         [("GeneralizedTN", 0.5, 1.0, 1.0, d)],
         [("GeneralizedTN", 0.5, 1.0, 1.0, perturbed(d, 1e-9))]),
        ("flat-hypot", ref.check_flat_hypot, [(3.0, 4.0, 5.0)], [(3.0, 4.0, perturbed(5.0, 1e-12))]),
        ("polar-roundtrip", ref.check_polar_roundtrip,
         [("f", 2.0, 0.3, 1.0, 1.0, 2.0)], [("f", 2.0, 0.3, 1.0, 1.0, perturbed(2.0, 1e-7))]),
        ("polar-roundtrip nan", ref.check_polar_roundtrip,
         [("f", 2.0, 0.3, 1.0, 1.0, 2.0)], [("f", 2.0, 0.3, math.nan, 1.0, 2.0)]),
    ]
    vol = ref.almost_ball_volume_closed("GeneralizedTN", 100.0, 0.0)
    vol_exc = ref.almost_ball_volume_closed("ExceptionalTN", 100.0)
    cases += [
        ("ball-bracket", ref.check_bracket, [("GeneralizedTN", 100.0, 0.0, 0.9 * vol, 1.1 * vol)],
         [("GeneralizedTN", 100.0, 0.0, 1.01 * vol, 1.1 * vol)]),
        ("l2-ricci", ref.check_l2_ricci, [(0.5, ref.l2_ricci_closed(0.5))],
         [(0.5, perturbed(ref.l2_ricci_closed(0.5)))]),
        ("energy-growth", ref.check_growth, [("e", 2.02, 2.0)], [("e", 2.1, 2.0)]),
        ("almost-ball", ref.check_almost_ball, [("ExceptionalTN", 0.0, 100.0, vol_exc)],
         [("ExceptionalTN", 0.0, 100.0, perturbed(vol_exc, 1e-7))]),
        ("shoot-endpoint", ref.check_shoot, [("f", 0.3, 5.0, 1.0, 2.0, 1.0, 2.0)],
         [("f", 0.3, 5.0, 1.0, 2.0, 1.0, perturbed(2.0, 1e-7))]),
        ("scalar-flat", ref.check_scalar_flat, [("f", 1.0, 1.0, 1e-5)], [("f", 1.0, 1.0, 2e-3)]),
        ("rm-decay", ref.check_decay, [(0.0, 0.5, -3.03), (0.5, 0.5, -2.01)],
         [(0.0, 0.5, -2.01)]),
        ("gauss-fd", ref.check_gauss_fd, [(0.5, 1.0, 1.0, (-1.0 + 0.75 - 0.25) / 3.0 ** 3)],
         [(0.5, 1.0, 1.0, perturbed((-1.0 + 0.75 - 0.25) / 3.0 ** 3, 1e-3))]),
        ("finite", lambda rows: ref.check_finite("x", rows), [(1.0, 2.0)], [(1.0, math.inf)]),
        ("cli-eval", lambda doc: ref.check_eval(doc, d),
         {"quantities": {"distance": d, "axial_coordinate": 2.0, "fiber_det": 4.0}},
         {"quantities": {"distance": d, "axial_coordinate": 2.0, "fiber_det": 4.001}}),
        ("cli-energy", lambda doc: ref.check_energy(doc, 0.5),
         {"l2_ricci_closed": ref.l2_ricci_closed(0.5), "l2_ricci_quadrature": ref.l2_ricci_closed(0.5),
          "l2_riemann": 32 * math.pi ** 2 + 4 * ref.l2_ricci_closed(0.5)},
         {"l2_ricci_closed": ref.l2_ricci_closed(0.5),
          "l2_ricci_quadrature": perturbed(ref.l2_ricci_closed(0.5)),
          "l2_riemann": 32 * math.pi ** 2 + 4 * ref.l2_ricci_closed(0.5)}),
        ("cli-geodesic", ref.check_geodesic_csv,
         "t,u,v,R,distance_residual,unparam_residual\n1,0.5,0.5,1,0,0\n",
         "t,u,v,R,distance_residual,unparam_residual\n1,0.5,0.5,1.001,0.001,0\n"),
        ("cli-volume", ref.check_volume_csv, f"R,vol,bracket_lo,bracket_hi\n100,{vol!r},{0.9 * vol!r},{1.1 * vol!r}\n",
         f"R,vol,bracket_lo,bracket_hi\n100,{perturbed(vol)!r},{0.9 * vol!r},{1.1 * vol!r}\n"),
        ("cli-contour", ref.check_svg, '<svg xmlns="http://www.w3.org/2000/svg"><polyline/></svg>',
         '<svg xmlns="http://www.w3.org/2000/svg"><polyline></svg>'),
        ("cli-verify", ref.check_verify, "ok  a: b\n30/30 checks passed\n",
         "ok  a: b\n29/30 checks passed\n"),
    ]
    for name, check, good, bad in cases:
        expect(check(good) == [] and check(bad) != [], f"checker {name} passes right, rejects perturbed")
    rows = ref.parse_contour_csv("curve,kind,param,u,v,value\ngeodesic-0,geodesic,2,1.2,1.6,0.9\n")
    expect(ref.check_contour_geodesics(rows, math.hypot) == []
           and ref.check_contour_geodesics(rows, lambda u, v: perturbed(math.hypot(u, v), 1e-7)) != [],
           "checker contour-geodesic passes right, rejects perturbed")


def run(argv, cwd=ROOT):
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=300)
    return proc


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_short_runs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    command = benchmark["command"][1:]
    e2e = {m["name"] for m in benchmark["end_to_end"]}
    layers = {m["name"] for m in benchmark["per_layer"]}
    for w in benchmark["workloads"]:
        proc = run([*command, "--workload", w["name"], "--seed", "1", "--seconds", "1",
                    "--trace", "0"])
        res = result_of(proc)
        expect(proc.returncode == 0 and res["correct"] and set(res) == {
            "correct", "attempted", "failed", "metrics"} and set(res["metrics"]) == e2e
            and all(m["value"] > 0 for m in res["metrics"].values()),
            f"short run of {w['name']} prints every end-to-end metric")
    traced = []
    for _ in range(2):
        proc = run([*command, "--workload", "geodesic-grid", "--seed", "3", "--seconds", "1",
                    "--trace", "1"])
        traced.append(result_of(proc))
    expect(set(traced[0]["metrics"]) == layers, "traced run prints every per-layer metric")
    counts = [{k: m["value"] for k, m in t["metrics"].items()
               if k.endswith((".calls", ".fevals", ".evaluations", ".nfev"))} for t in traced]
    expect(counts[0] == counts[1] and counts[0], "traced counts repeat exactly for one seed")

    bare = os.path.join(HERE, "out", "tmp", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    for path in benchmark["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run([*command, "--workload", "cli-cold", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without src/ the command exits nonzero and prints no result")
    shutil.rmtree(bare)


if __name__ == "__main__":
    test_reference()
    test_checkers()
    test_short_runs()
    print("selftest passed")
