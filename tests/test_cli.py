import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import same_bytes

from taubnut import cli
from taubnut.family import Chart, _launch_cos_sin

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _child_env() -> dict:
    """The test environment with src/ first on the child's PYTHONPATH, so
    the CLI runs from this checkout whether or not it is installed."""
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_process(*args: str) -> subprocess.CompletedProcess:
    """``python -m taubnut`` with the given arguments, in a fresh interpreter."""
    cmd = [sys.executable, "-m", "taubnut", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=_child_env())


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """cli.main(args) in this process, with its stdout, stderr and exit code
    captured the way run_process reports them (argparse's exits included)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(list(args), code, out.getvalue(), err.getvalue())


def test_version_and_help():
    cp = run_process("--version")
    assert cp.returncode == 0
    assert "0.1.0" in cp.stdout
    cp = run_cli("--help")
    assert cp.returncode == 0
    for sub in ("eval", "geodesic", "contour", "energy", "volume",
                "blowdown", "verify"):
        assert sub in cp.stdout


# ----------------------------------------------------------------------- eval

def test_eval_example():
    cp = run_cli("eval", "--family", "generalized", "--M", "1.41421356",
                 "--k", "0.5", "--chart", "uv", "--point", "1,1")
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(cp.stdout)
    assert doc["version"] == "0.1.0"
    assert doc["params"]["family"] == "GeneralizedTN"
    assert doc["quantities"]["conformal_factor"] == pytest.approx(6.0,
                                                                  rel=1e-7, abs=0)


def test_eval_defaults_standard_scale():
    cp = run_cli("eval", "--point", "2,3")
    doc = json.loads(cp.stdout)
    assert doc["params"]["M"] == pytest.approx(math.sqrt(2.0), rel=1e-15, abs=0)
    assert doc["params"]["k"] == 0
    assert doc["quantities"]["conformal_factor"] == pytest.approx(28.0,
                                                                  rel=1e-12, abs=0)


def test_eval_moment_chart_roundtrip():
    for u, v in ((1, 1), (30, 30)):
        cp1 = run_cli("eval", "--k", "0.5", "--chart", "uv", "--point", f"{u},{v}")
        q = json.loads(cp1.stdout)["quantities"]
        cp2 = run_cli("eval", "--k", "0.5", "--chart", "moment", "--point",
                      f"{q['moment_1']!r},{q['moment_2']!r}".replace("'", ""))
        doc2 = json.loads(cp2.stdout)
        assert doc2["point"]["u"] == pytest.approx(u, rel=1e-9, abs=0)
        assert doc2["point"]["v"] == pytest.approx(v, rel=1e-9, abs=0)


@pytest.mark.parametrize("family,k,chart,point,key", [
    ("generalized", "0.5", "polar", (3.0, 0.5), "distance"),
    ("exceptional", None, "polar", (3.0, 0.5), "distance"),
    ("generalized", "0.5", "almostpolar", (10.0, 0.3), "almost_distance"),
    ("exceptional", None, "almostpolar", (10.0, 0.3), "almost_distance"),
    # points whose F = e^s overflows, although (u, v) are finite
    ("generalized", "0.9999", "polar", (1000.0, 0.5), "distance"),
    ("exceptional", None, "polar", (800.0, math.pi / 2), "distance"),
    ("flat", None, "polar", (800.0, 0.3), "distance"),
])
def test_eval_radial_charts_give_back_the_radius(family, k, chart, point, key):
    args = ["eval", "--family", family, "--chart", chart,
            "--point", f"{point[0]!r},{point[1]!r}"]
    if k is not None:
        args += ["--k", k]
    cp = run_cli(*args)
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(cp.stdout)
    assert doc["point"]["chart"] == chart
    assert doc["quantities"][key] == pytest.approx(point[0], rel=1e-10, abs=0)
    if chart == "polar":
        assert doc["quantities"]["launch_angle"] == pytest.approx(point[1],
                                                                  rel=1e-9, abs=0)


def test_eval_out_file(tmp_path: Path):
    out = tmp_path / "point.json"
    cp = run_cli("eval", "--point", "1,1", "--out", str(out))
    assert cp.returncode == 0
    assert cp.stdout == ""
    doc = json.loads(out.read_text())
    assert "quantities" in doc


def test_eval_deterministic():
    a = run_process("eval", "--k", "0.9", "--point", "0.3,2.7").stdout
    b = run_process("eval", "--k", "0.9", "--point", "0.3,2.7").stdout
    assert a == b


@pytest.mark.parametrize("args", [
    ("eval", "--family", "nosuch", "--point", "1,1"),
    ("eval", "--k", "1.5", "--point", "1,1"),
    ("eval", "--point", "1"),
    ("eval", "--point", "1,b"),
    ("eval", "--family", "exceptional", "--M", "2", "--point", "1,1"),
    ("nosuchcommand",),
    ("verify", "--suite", "nosuch"),
    ("verify", "--k", "0.5"),
    ("blowdown", "--M", "2"),
    ("eval", "--family", "exceptional", "--chart", "polar", "--point", "3,2.0"),
    ("eval", "--point=-1,0"),
    ("eval", "--family", "exceptional", "--point=0,-2"),
    ("eval", "--family", "flat", "--chart", "polar", "--point", "1,3.0"),
    ("eval", "--tol", "1e-9", "--point", "1,1"),
    ("eval", "--point", "1e80,1e80"),
    ("eval", "--k", "0.5", "--chart", "moment", "--point", "1e200,1e-200"),
    ("volume", "--R", "1,x"),
    ("blowdown", "--construction", "conifold", "--k", "1.5"),
    ("blowdown", "--construction", "exceptional", "--k", "700"),   # exited 0
    ("blowdown", "--construction", "pointed", "--k", "nan"),
    ("blowdown", "--construction", "second", "--point", "0,0"),
])
def test_bad_arguments_exit_2(args):
    cp = run_cli(*args)
    assert cp.returncode == 2
    assert cp.stdout == "" or "usage" in cp.stderr.lower() \
        or "error" in cp.stderr.lower()


@pytest.mark.parametrize("args,named", [
    (("geodesic", "--eta", "0.5", "--R", "inf"), "--R"),   # ran without end
    (("geodesic", "--eta", "0.5", "--R", "nan"), "--R"),   # printed nan rows
    (("geodesic", "--eta", "5"), "launch angle"),
    (("geodesic", "--eta", "0.5", "--samples", "0"), "--samples"),
    (("geodesic", "--eta", "0.5", "--samples", "-3"), "--samples"),
    (("contour", "--R", "nan"), "--R"),
    (("contour", "--R", "inf"), "--R"),
    (("contour", "--R", "-1"), "--R"),   # named a fan sample R=-0.015625
    (("contour", "--phi-samples=-1"), "--phi-samples"),
    (("contour", "--eta", "5"), "--eta"),
    (("contour", "--eta", "-0.3"), "--eta"),
    (("contour", "--levels", "1"), "--levels"),
])
def test_invalid_geodesic_and_contour_inputs_exit_2(args, named):
    cp = run_cli(*args)
    assert cp.returncode == 2 and cp.stdout == ""
    assert cp.stderr.startswith("error: ") and named in cp.stderr


@pytest.mark.parametrize("module,name,error,args", [
    ("metrics", "conformal_factor", "MaxIterExceeded", ("eval", "--point", "1,1")),
    ("geodesics", "geodesic_shoot", "NoBracket", ("geodesic", "--eta", "0.5")),
    ("curvature", "l2_ricci", "IllConditioned", ("energy",)),
])
def test_a_package_error_inside_a_command_exits_2(module, name, error, args, monkeypatch):
    # each escaped cli.main as a traceback with exit code 1, the code of a
    # failed verification
    import importlib
    from taubnut import numerics

    def raises(*_args, **_kwargs):
        raise getattr(numerics, error)(f"{error} inside {args[0]}")
    monkeypatch.setattr(importlib.import_module(f"taubnut.{module}"), name, raises)
    cp = run_cli(*args)
    assert cp.returncode == 2 and cp.stdout == ""
    assert cp.stderr.splitlines() == [f"error: {error} inside {args[0]}"]


def test_bad_arguments_exit_2_from_a_process():
    cp = run_process("eval", "--k", "1.5", "--point", "1,1")
    assert cp.returncode == 2 and cp.stdout == ""
    assert cp.stderr.startswith("error: ")


# The shoot integrates y' = y^2 in both components from y(0) = (1, 1)
# instead, which blows up at t = 1: the real integrator's step underflows there and it raises
# StepUnderflow, whatever the command asked for.
STEP_UNDERFLOW_SCRIPT = """
import sys
from taubnut import cli, geodesics, numerics
real = numerics.ode_solve
geodesics.ode_solve = lambda rhs, y0, t_eval: real(lambda y: (y[0] * y[0], y[1] * y[1]),
                                                   [1.0, 1.0], [0.0, 3.0])
sys.exit(cli.main(sys.argv[1:]))
"""


def test_step_underflow_exits_2_from_a_process():
    # StepUnderflow from ode_solve left a traceback and exit 1
    cp = subprocess.run([sys.executable, "-c", STEP_UNDERFLOW_SCRIPT,
                         "geodesic", "--eta", "0.7", "--R", "5"],
                        capture_output=True, text=True, env=_child_env())
    assert cp.returncode == 2 and cp.stdout == "" and "Traceback" not in cp.stderr
    errors = [line for line in cp.stderr.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and "integrator stopped" in errors[0]


def test_eval_beyond_float_range_names_the_quantity():
    # k_sigma's D ** 3 raises OverflowError here, and the fibers and their
    # determinant overflow to inf: one message names the first such quantity
    cp = run_cli("eval", "--point", "1e80,1e80")
    assert cp.returncode == 2 and cp.stdout == ""
    assert cp.stderr == "error: volume_density at (u, v) = (1e+80, 1e+80) " \
                        "is beyond the float range\n"


def test_eval_sweep_raises_only_package_exceptions():
    # eval at every family and chart, volume at every family with a volume
    # and blowdown at every construction, on seeded values from 1e-300 to
    # 1e300 of both signs, NaN and inf, in process with warnings as errors:
    # each run exits 0 with only finite numbers on stdout, or exits 2 with an
    # error: line; no exception (a bare ValueError, OverflowError or
    # ZeroDivisionError, a numpy warning) escapes.  (1e-300, 1e-200) is the
    # xy point whose x * x underflowed in _unsquare.  Each family's uv chart
    # also takes points log-uniform down to 5e-324, where the launch-angle
    # solve crawled in Newton steps of equal size into MaxIterExceeded, as at
    # the three points listed first.
    rng = random.Random(2016)

    def coordinate(lo=-300.0):
        return rng.choice([1.0, 1.0, 1.0, -1.0]) * 10.0 ** rng.uniform(lo, 300.0)

    special = [math.nan, math.inf, -math.inf, 1e-300, -1e-300, 1e300, -1e300]
    argvs = []
    for fam in (["--family", "generalized"], ["--family", "generalized", "--k", "-0.9"],
                ["--family", "exceptional"], ["--family", "halfplane"], ["--family", "flat"]):
        for chart in ("uv", "xy", "moment", "polar", "almostpolar"):
            points = [(1e-300, 1e-200)] + [(coordinate(), coordinate()) for _ in range(16)]
            points += [(x, 1.0) for x in special[:3]] + [(1.0, x) for x in special[:3]]
            if chart == "uv":
                points += [(abs(coordinate(-323.3)), coordinate(-323.3)) for _ in range(40)]
            argvs += [["eval", *fam, "--chart", chart, f"--point={c1!r},{c2!r}"]
                      for c1, c2 in points]
    argvs += [["eval", "--family", fam, "--point", point] for fam, point in (
        ("generalized", "1.5e-323,2.73714e-318"), ("exceptional", "5e-324,8.54e-321"),
        ("halfplane", "1.9e-322,-2.878006e-318"))]
    for fam in (["--family", "generalized"], ["--family", "generalized", "--k", "-0.9"],
                ["--family", "exceptional"]):
        radii = [sorted(abs(coordinate()) for _ in range(4)) for _ in range(6)]
        radii += [[50.0, 100.0, 200.0, x] for x in special]
        argvs += [["volume", *fam, "--R=" + ",".join(map(repr, R)), "--format", fmt]
                  for R in radii for fmt in ("csv", "json")]
    for construction in ("conifold", "second", "exceptional", "pointed"):
        points = [(x, 1.0) for x in special] + [(1.0, x) for x in special]
        points += [(coordinate(), coordinate()) for _ in range(8)]
        argvs += [["blowdown", "--construction", construction, f"--point={u!r},{v!r}",
                   "--format", fmt] for u, v in points for fmt in ("csv", "json")]

    leaks = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            try:
                code = cli.main(argv)
            except Exception as exc:
                code = repr(exc)
        if not (code == 2 and err.getvalue().startswith("error: ")
                or code == 0 and not re.search(r"nan|inf", out.getvalue())):
            leaks.append((argv, code))
    assert leaks == []


EXTREMES = [0.0, 5e-324, 1e-320, 1e-300, 1e-160, 1e-8, 0.3, 1.0, 7.0, 700.0, 1e5,
            1e150, 1e300, 1.7e308, -1.0, math.pi / 2]


def _extreme_argvs(rng, n):
    """n argument lists for eval (every chart), geodesic, contour, volume and
    blowdown, each number drawn from EXTREMES; the generalized family takes
    --M always and --k half the time."""
    def x():
        return repr(rng.choice(EXTREMES))

    argvs = []
    for _ in range(n):
        fam = rng.choice(["generalized", "generalized", "exceptional", "halfplane", "flat"])
        params = ["--family", fam] + ([f"--M={x()}"] + [f"--k={x()}"] * (rng.random() < 0.5)
                                      if fam == "generalized" else [])
        # a shoot to a distance past 1e150 takes up to 0.2 s: geodesic is drawn least
        command = rng.choice(["eval"] * 3 + ["contour"] * 2 + ["geodesic", "volume", "blowdown"])
        if command == "eval":
            argvs.append(["eval", *params, "--chart", rng.choice([c.value for c in Chart]),
                          f"--point={x()},{x()}"])
        elif command == "geodesic":
            argvs.append(["geodesic", *params, f"--eta={x()}", f"--R={x()}", "--samples", "3"])
        elif command == "contour":
            argvs.append(["contour", *params, f"--eta={x()}", f"--R={x()}",
                          "--levels", "3", "--phi-samples", "5"])
        elif command == "volume":
            radii = ",".join(x() for _ in range(rng.choice([1, 4])))
            argvs.append(["volume", *params, f"--R={radii}"])
        else:
            argvs.append(["blowdown", "--construction",
                          rng.choice(["conifold", "second", "exceptional", "pointed"]),
                          f"--k={x()}", f"--point={x()},{x()}"])
    return argvs


def test_every_command_at_extreme_inputs():
    # each run exits 0, or exits 2 with exactly one error: line, and shows no
    # traceback and no RuntimeWarning.  The sweep found eval --M 5e-324
    # (mass_root rounded to 0: a ZeroDivisionError), contour at M = 1e-300,
    # R = 1e300 (an overflow warning in the level-set residual) and contour at
    # M = 1e300, R = 1.7e308 (an invalid-value warning in the radial relation)
    leaks = []
    for argv in _extreme_argvs(random.Random(1602), 300):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            try:
                code = cli.main(argv)
            except SystemExit as exc:   # argparse's usage errors
                code = exc.code
            except Exception as exc:
                code = repr(exc)
        lines = err.getvalue().splitlines()
        if not (code == 0 and lines == []
                or code == 2 and len(lines) == 1 and lines[0].startswith("error: ")):
            leaks.append((argv, code, lines[-1:]))
    assert leaks == []


# ------------------------------------------------------------------- no scipy

NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
sys.modules["scipy"] = None     # any import of scipy now raises ImportError
import taubnut.cli
from taubnut import numerics
for argv in (["eval", "--family", "generalized", "--k", "0.5", "--point", "1,1"],
             ["geodesic", "--family", "exceptional", "--eta", "0.7", "--R", "5"],
             ["contour", "--family", "halfplane", "--eta", "0.3", "--levels", "3",
              "--R", "4", "--format", "svg"],
             ["energy", "--family", "generalized", "--k", "0.5"],
             ["energy", "--family", "exceptional"],
             ["volume", "--family", "generalized", "--R", "5,50,500"],
             ["blowdown", "--construction", "pointed", "--format", "json"],
             ["verify", "--suite", "all"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert taubnut.cli.main(argv) == 0, argv
ode = numerics.ode_solve(lambda y: y, [1.0, 1.0], [0.0, 1.0]).ys[-1][0]
quad = numerics.integrate_2d_improper(lambda u, v: (1.0 + u * u + v * v) ** -2).value
print(json.dumps({"scipy": [m for m in sys.modules if m.split(".")[0] == "scipy"
                            and sys.modules[m] is not None],
                  "ode": ode, "quad": quad}))
"""


def test_every_command_runs_without_scipy():
    # scipy is a test-only oracle: with its import blocked every subcommand
    # still runs, and no scipy module is loaded afterwards
    cp = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT],
                        capture_output=True, text=True, env=_child_env())
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(cp.stdout)
    assert doc["scipy"] == []
    assert doc["ode"] == pytest.approx(math.e, rel=1e-10, abs=0)
    assert doc["quad"] == pytest.approx(math.pi / 4.0, rel=1e-7, abs=0)


# ------------------------------------------------------------------ no numpy

VERSION_SCRIPT = """
import contextlib, io, sys
import taubnut.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        taubnut.cli.main(["--version"])
    except SystemExit as exc:
        assert exc.code == 0, exc.code
print("numpy" in sys.modules)
"""


def test_version_loads_no_numpy():
    # the package imports numpy only where a function takes or builds arrays
    cp = subprocess.run([sys.executable, "-c", VERSION_SCRIPT],
                        capture_output=True, text=True, env=_child_env())
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "False\n"


RECORDS_SCRIPT = """
import contextlib, io, sys
before = {"dataclasses", "inspect"} & set(sys.modules)
from taubnut import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["eval", "--family", "generalized", "--k", "0.5", "--point", "1,1"]) == 0
print(sorted({"dataclasses", "inspect"} & set(sys.modules) - before))
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify"]) == 0
print("numpy.random" in sys.modules)
"""


def test_cli_loads_no_dataclasses_inspect_or_numpy_random():
    # the records are named tuples, so importing the CLI and running eval
    # load neither dataclasses nor inspect (unless the interpreter had
    # already); verify draws its random points from the random module
    cp = subprocess.run([sys.executable, "-c", RECORDS_SCRIPT],
                        capture_output=True, text=True, env=_child_env())
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "[]\nFalse\n"


MODULES_SCRIPT = """
import contextlib, io, sys
from taubnut import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        assert cli.main(sys.argv[1:]) == 0
    except SystemExit as exc:
        assert exc.code == 0, exc.code
print(" ".join(sorted(m for m in sys.modules if m.startswith("taubnut."))))
print("numpy.polynomial" in sys.modules)
"""

#: the package's modules that each command runs, beyond cli, family and numerics
COMMAND_MODULES = {
    "--version": set(),
    "eval": {"geodesics", "metrics"},
    "geodesic": {"geodesics", "metrics", "dop853"},
    "contour": {"geodesics", "metrics"},
    "volume": {"geodesics", "metrics", "asymptotics"},
    "energy": {"metrics", "curvature"},
    "blowdown": {"blowdown"},
    "verify": {"asymptotics", "blowdown", "checks", "curvature", "dop853", "geodesics",
               "metrics"},
}


def test_each_command_loads_only_its_modules():
    # each subcommand imports the modules its _cmd_ function runs, and no
    # command loads numpy.polynomial (the Gauss rule is written out)
    argvs = [["--version"], *same_bytes.README]
    children = [subprocess.Popen([sys.executable, "-c", MODULES_SCRIPT, *argv],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                 env=_child_env()) for argv in argvs]
    for argv, child in zip(argvs, children):
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        modules = {f"taubnut.{m}" for m in COMMAND_MODULES[argv[0]] | {"cli", "family", "numerics"}}
        assert out == " ".join(sorted(modules)) + "\nFalse\n", argv


LOADS_NUMPY_SCRIPT = """
import contextlib, io, json, sys
from taubnut import cli
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
print("numpy" in sys.modules)
"""


def test_geodesic_and_second_blowdown_load_no_numpy():
    # the README's geodesic shoots and certifies in floats, and the second
    # blowdown's residual table and summary are closed forms in floats
    argvs = [next(argv for argv in same_bytes.README if argv[0] == "geodesic"),
             ["blowdown", "--construction", "second", "--format", "json"]]
    cp = subprocess.run([sys.executable, "-c", LOADS_NUMPY_SCRIPT], input=json.dumps(argvs),
                        capture_output=True, text=True, env=_child_env())
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "False\n"


def test_verify_suites_without_a_quadrature_load_no_numpy():
    # the fiber determinant, the moment oracle and the eikonal grid are floats;
    # only the curvature and asymptotics suites integrate on numpy arrays
    argvs = [["verify", "--suite", suite]
             for suite in ("family", "metrics", "geodesics", "blowdown")]
    cp = subprocess.run([sys.executable, "-c", LOADS_NUMPY_SCRIPT], input=json.dumps(argvs),
                        capture_output=True, text=True, env=_child_env())
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "False\n"


NO_NUMPY_SCRIPT = """
import contextlib, io, json, sys
sys.modules["numpy"] = None     # any import of numpy now raises ImportError
from taubnut import cli
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        runs.append([cli.main(argv), out.getvalue()])
print(json.dumps(runs))
"""


def test_eval_volume_and_blowdown_run_without_numpy():
    # eval, volume, every blowdown construction, geodesic and the exceptional
    # families' energy (closed-form partial energies) compute in floats: with
    # numpy's import blocked they exit with the same codes and print the same
    # bytes as with numpy, at the runs of tests/same_bytes.py (for geodesic,
    # at and next to the axes and at the float range), on the axes themselves
    # and at 1, 2 and 200 samples
    geodesic = ([["geodesic", "--family", family, f"--eta={eta}", "--R", "5"]
                 for family in cli.FAMILY_NAMES for eta in ("0", "0.7", "1.5707963267948966")]
                + [["geodesic", "--family", "halfplane", "--eta=-0.7", "--R", "5"]]
                + [["geodesic", "--eta", "0.7", "--R", "5", "--samples", n]
                   for n in ("1", "2", "200")])
    argvs = [argv for argv in same_bytes.EVAL + same_bytes.README + same_bytes.VOLUME
             + same_bytes.BLOWDOWN + same_bytes.GEODESIC + same_bytes.AXES + geodesic
             if argv[0] in ("eval", "volume", "blowdown", "geodesic")]
    argvs += [argv for argv in same_bytes.ENERGY if "--family" in argv]   # the exceptional ones
    child = subprocess.Popen([sys.executable, "-c", NO_NUMPY_SCRIPT, json.dumps(argvs)],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                             env=_child_env())
    runs = [run_cli(*argv) for argv in argvs]   # while the child runs them too
    out, err = child.communicate(timeout=120)
    assert child.returncode == 0, err
    assert json.loads(out) == [[run.returncode, run.stdout] for run in runs]


# ------------------------------------------------------------------- geodesic

def test_geodesic_csv():
    cp = run_cli("geodesic", "--k", "0.5", "--eta", "0.7", "--R", "5")
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "t,u,v,R,distance_residual,unparam_residual"
    first = lines[1].split(",")
    assert [float(x) for x in first] == [0.0] * 6
    last = lines[-1].split(",")
    assert float(last[0]) == 5.0
    assert abs(float(last[3]) - 5.0) < 1e-8
    assert float(last[4]) < 1e-8 and float(last[5]) < 1e-8
    # one sample is the origin alone, with nothing to integrate
    cp = run_cli("geodesic", "--k", "0.5", "--eta", "0.7", "--R", "5", "--samples", "1")
    assert cp.stdout.splitlines() == lines[:2]


def _geodesic_rows(*args):
    cp = run_cli("geodesic", *args)
    assert cp.returncode == 0, cp.stderr
    return np.array([[float(x) for x in line.split(",")] for line in cp.stdout.splitlines()[1:]])


@pytest.mark.parametrize("family,eta,R", [
    ("exceptional", "0.7", "1e200"), ("generalized", "0.7", "1e300"),
    ("flat", "0.7", "1e300"), ("flat", "-0.7", "1e300"),
    ("halfplane", "0.7", "1e300"), ("halfplane", "-0.7", "1e300")])
def test_geodesic_at_a_huge_distance(family, eta, R):
    # the integrator's squared error norms underflowed to 0 here, and their
    # 0/0 warned (an error in this suite); past the warning the step
    # collapsed into StepUnderflow, or the distance missed t by ~0.5 % of R
    _assert_certified(_geodesic_rows("--family", family, f"--eta={eta}", "--R", R), family, R)


def _assert_certified(rows, family, R):
    R = float(R)
    assert rows[-1, 0] == R
    assert rows[:, 4].max() <= 1e-12 * R
    # the flat residual |u sin(eta) - v cos(eta)| is a length
    assert rows[:, 5].max() <= (1e-12 * R if family == "flat" else 1e-9)


@pytest.mark.parametrize("args", [
    ("--family", "generalized", "--M", "1e300", "--R", "5"),
    ("--family", "exceptional", "--R", "1e308"),
    ("--family", "halfplane", "--R", "1e308"),
    ("--family", "generalized", "--R", "1.7e308"),
    ("--family", "generalized", "--M", "1e300", "--R", "1e300")])
def test_geodesic_at_the_float_range(args):
    # the error estimate's dot product overflowed at M = 1e300, and the
    # right-hand sides' squares at the largest R: each warning exited 1, and
    # then the shoot stalled where 1 + u^2 overflowed.  The exceptional
    # shoots then stopped where S_eta overflowed in u * hypot(cos(eta), u)
    # past u = 1.34e154, although the distance 1e308 is a float, and at
    # M = R = 1e300 a generalized leg of S_eta overflowed.  This suite makes
    # each RuntimeWarning an error (pyproject.toml), as -W error did for a
    # child process
    _assert_certified(_geodesic_rows("--eta", "0.7", *args), args[1],
                      args[args.index("--R") + 1])


@pytest.mark.parametrize("family,eta", [
    *((family, eta) for family in ("generalized", "exceptional", "halfplane", "flat")
      for eta in ("1e-320", "5e-324")),
    ("halfplane", "-1e-320"), ("generalized", "1e-305")])
def test_geodesic_follows_the_u_axis_below_sine_1e_300(family, eta):
    # S_eta takes sin(eta) = 0 there, but the velocity kept the subnormal
    # sine, so the samples left the axis by subnormal v and the certificate
    # divided by sin(eta): unparam_residual up to 3.4e-3 (generalized) at
    # R = 7.  The shoot is now the eta = 0 one, bit for bit.  At 50 samples
    # interior ones miss the 1e-12 R distance bound off the axis too
    # (1.2e-11 at eta = 0.7), so the certificate is checked at 3, as the
    # extreme-input sweep runs it
    rows = _geodesic_rows("--family", family, f"--eta={eta}", "--R", "7", "--samples", "50")
    assert (rows[:, 2] == 0.0).all() and (rows[:, 5] == 0.0).all()
    assert (rows == _geodesic_rows("--family", family, "--eta=0", "--R", "7", "--samples", "50")).all()
    _assert_certified(_geodesic_rows("--family", family, f"--eta={eta}", "--R", "7", "--samples", "3"),
                      family, "7")


@pytest.mark.parametrize("family,eta", [("exceptional", math.pi / 2),
                                        ("halfplane", math.pi / 2),
                                        ("halfplane", -math.pi / 2)])
def test_geodesic_follows_the_axis_at_pi_2(family, eta):
    # math.cos(pi / 2) is 6e-17, and on the unstable exceptional axis the
    # shoot drifted off it: u = 10.91 by R = 100
    rows = _geodesic_rows("--family", family, f"--eta={eta!r}", "--R", "100")
    assert (rows[:, 1] == 0.0).all() and (rows[:, 5] == 0.0).all()
    assert abs(rows[-1, 2]) == pytest.approx(100.0, rel=1e-14)


def test_geodesic_makes_no_root_solve(tmp_path: Path, monkeypatch):
    # each sample is certified by S_eta at the shot's own eta, which needs
    # no launch-angle solve and no radial solve, scalar or array
    from taubnut import cli, geodesics, numerics
    from taubnut.family import Family, InstantonParams

    calls = []
    for module, name in ((geodesics, "find_root_monotone"), (numerics, "find_root_monotone"),
                         (geodesics, "_solve_radial")):
        def counted(*args, fn=getattr(module, name), **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    out = tmp_path / "g.csv"
    assert cli.main(["geodesic", "--family", "exceptional", "--eta", "0.7",
                     "--R", "5", "--samples", "50", "--out", str(out)]) == 0
    assert calls == []
    monkeypatch.undo()
    params = InstantonParams(Family.EXCEPTIONAL_TN)
    traj = geodesics.geodesic_shoot(params, 0.7, 5.0, n_samples=50)
    rows = out.read_text().strip().splitlines()[1:]
    assert [float(r.split(",")[3]) for r in rows] == list(traj.distances)
    for u, v, R in zip(traj.us, traj.vs, traj.distances):
        assert abs(R - params.eikonal_S(*_launch_cos_sin(0.7), u, v)) <= 1e-15 * R


# -------------------------------------------------------------------- contour

def test_contour_level0_origin_only():
    cp = run_cli("contour", "--family", "generalized", "--k", "0.5",
                 "--eta", "0", "--levels", "8")
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "curve,kind,param,u,v,value"
    zero_rows = [l for l in lines[1:] if l.startswith("level-0,")]
    assert len(zero_rows) == 1
    _, _, _, u, v, val = zero_rows[0].split(",")
    assert float(u) == float(v) == float(val) == 0.0
    assert any(l.startswith("geodesic-") for l in lines[1:])


def _scalar_contour_keys(params, eta, R, n_levels, n_phi):
    """(curve, kind, param) of the rows of a contour drawn by scalar solves:
    each level ray by ray, every ray's Newton solve started at the previous
    ray's root, then the fan point by point."""
    from taubnut import geodesics, metrics
    from taubnut.numerics import NoBracket, find_root_monotone

    lo, hi = params.eta_range
    velocity = params.shoot_rhs(math.cos(eta), math.sin(eta))
    keys = []
    for i in range(n_levels):
        level = R * i / (n_levels - 1)
        r = level
        for phi in ([0.0] if level == 0.0 else np.linspace(lo, hi, n_phi).tolist()):
            cp, sp = math.cos(phi), math.sin(phi)

            def f(r):
                du, dv = velocity((r * cp, r * sp))
                return (params.eikonal_S(*_launch_cos_sin(eta), r * cp, r * sp) - level,
                        metrics.conformal_factor(params, r * cp, r * sp) * (cp * du + sp * dv))
            try:
                r = find_root_monotone(f, 0.0, 2.0 ** 29, x0=r)
            except NoBracket:
                continue
            keys.append((f"level-{i}", "level", phi))
    fan = [e for e in (j * math.pi / 12.0 for j in range(-6, 7)) if e >= lo]
    for j, _ in enumerate(fan):
        keys += [(f"geodesic-{j}", "geodesic", t) for t in np.linspace(0.0, R, n_phi).tolist()]
    return keys


@pytest.mark.parametrize("args", [
    ("--family", "halfplane", "--eta", "0.3", "--levels", "3", "--R", "4"),   # README
    ("--family", "generalized", "--k", "0.5", "--eta", "0.4", "--levels", "4", "--R", "6"),
    ("--family", "halfplane", "--eta", "0.4", "--levels", "4", "--R", "6"),
], ids=["readme", "bench-generalized", "bench-halfplane"])
def test_contour_rows_match_the_scalar_solves(args):
    from taubnut import geodesics
    from taubnut.family import Family, InstantonParams

    opts = dict(zip(args[::2], args[1::2]))
    params = (InstantonParams(k=float(opts["--k"])) if opts["--family"] == "generalized"
              else InstantonParams(Family.EXCEPTIONAL_HALF_PLANE))
    eta, R, n_levels = float(opts["--eta"]), float(opts["--R"]), int(opts["--levels"])
    cp = run_cli("contour", *args)
    assert cp.returncode == 0, cp.stderr
    cells = [line.split(",") for line in cp.stdout.splitlines()[1:]]
    # the origin prints unsigned, also on rays of negative eta
    assert all(c[3:5] == ["0", "0"] for c in cells if c[1] == "geodesic" and c[2] == "0")
    rows = [(name, kind, *map(float, nums)) for name, kind, *nums in cells]
    assert [row[:3] for row in rows] == _scalar_contour_keys(params, eta, R, n_levels, 65)
    for _, kind, param, u, v, value in rows:
        if kind == "level":
            assert abs(params.eikonal_S(*_launch_cos_sin(eta), u, v) - value) <= 1e-12 * max(1.0, value)
        elif param == 0.0:
            assert u == v == 0.0
        else:
            rec = geodesics.point_from_polar(params, param, value)
            assert abs(u - rec.u) <= 1e-15 * abs(rec.u) and abs(v - rec.v) <= 1e-15 * abs(rec.v)


def test_contour_svg(tmp_path: Path):
    out = tmp_path / "c.svg"
    cp = run_cli("contour", "--family", "halfplane", "--R", "2",
                 "--format", "svg", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    text = out.read_text()
    assert text.startswith("<svg")
    assert "<polyline" in text


# --------------------------------------------------------------------- energy

def test_energy_json():
    cp = run_cli("energy", "--k", "0.5")
    doc = json.loads(cp.stdout)
    assert doc["l2_ricci_closed"] == pytest.approx(
        4.0 * math.pi ** 2 * 0.25 / 0.75, rel=1e-12, abs=0)
    assert doc["rel_error"] <= 1e-9
    assert doc["l2_riemann"] == pytest.approx(
        32.0 * math.pi ** 2 + 4.0 * doc["l2_ricci_closed"], rel=1e-12, abs=0)
    table = dict(line.split(",") for line in
                 run_cli("energy", "--k", "0.5", "--format", "csv").stdout.splitlines()[1:])
    assert float(table["l2_riemann"]) == doc["l2_riemann"]


@pytest.mark.parametrize("k", ["0.99", "-0.99", "0.9999", "-0.9999"])
def test_energy_near_the_chirality_limit(k):
    cp = run_cli("energy", "--k", k)
    assert cp.returncode == 0, cp.stderr
    assert json.loads(cp.stdout)["rel_error"] <= 1e-9


def test_energy_divergent_family_csv():
    cp = run_cli("energy", "--family", "exceptional", "--format", "csv")
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "quantity,value"
    table = dict(l.split(",", 1) for l in lines[1:])
    assert table["l2_ricci_closed"] == "inf"
    assert float(table["growth_exponent"]) == pytest.approx(2.0, abs=0.05)


# --------------------------------------------------------------------- volume

def test_volume_csv_with_small_radius():
    cp = run_cli("volume", "--k", "0", "--R", "5,50,100")
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "R,vol,bracket_lo,bracket_hi"
    r5 = lines[1].split(",")
    assert r5[2] == "" and r5[3] == ""      # bracket needs R >= 10
    r50 = lines[2].split(",")
    assert float(r50[2]) < float(r50[1]) < float(r50[3])


def test_volume_json_growth():
    cp = run_cli("volume", "--family", "exceptional",
                 "--R", "50,100,200,400", "--format", "json")
    doc = json.loads(cp.stdout)
    assert doc["growth_exponent"] == pytest.approx(4.0, abs=0.05)
    assert len(doc["volumes"]) == 4


# ------------------------------------------------------------------- blowdown

@pytest.mark.parametrize("construction", ["conifold", "second",
                                          "exceptional", "pointed"])
def test_blowdown_residuals_monotone(construction):
    cp = run_cli("blowdown", "--construction", construction,
                 "--format", "json")
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(cp.stdout)
    assert doc["residuals_monotone"] is True


@pytest.mark.parametrize("k", ["-1", "1", "1.5", "nan"])
@pytest.mark.parametrize("construction", ["conifold", "second", "exceptional", "pointed"])
def test_blowdown_rejects_k_as_the_family_does(construction, k):
    # the bound |k| < 1 is GeneralizedTN's, and so is the error line
    family = run_cli("eval", f"--k={k}", "--point", "1,1")
    cp = run_cli("blowdown", "--construction", construction, f"--k={k}")
    assert cp.returncode == family.returncode == 2
    assert cp.stdout == "" and cp.stderr == family.stderr and cp.stderr.startswith("error: ")


def test_blowdown_csv():
    cp = run_cli("blowdown", "--construction", "conifold", "--k", "0.5")
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "parameter,leaf_residual,fiber_residual"
    leafs = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(b < a for a, b in zip(leafs, leafs[1:]))


# --------------------------------------------------------------------- verify

def test_verify_single_suite():
    cp = run_cli("verify", "--suite", "metrics")
    assert cp.returncode == 0, cp.stdout + cp.stderr
    assert "3/3 checks passed" in cp.stdout
    assert all(l.startswith("ok ") or "checks passed" in l
               for l in cp.stdout.strip().splitlines())


def test_verify_all_is_deterministic():
    first = run_process("verify", "--suite", "all")
    assert first.returncode == 0, first.stdout + first.stderr
    assert "30/30 checks passed" in first.stdout
    assert run_process("verify", "--suite", "all").stdout == first.stdout


README_EXAMPLES = [
    ("eval", "--family", "generalized", "--k", "0.5", "--point", "1,1"),
    ("geodesic", "--family", "exceptional", "--eta", "0.7", "--R", "5", "--samples", "200"),
    ("contour", "--family", "halfplane", "--eta", "0.3", "--levels", "3", "--R", "4",
     "--format", "svg"),
    ("energy", "--family", "generalized", "--k", "0.5", "--format", "json"),
    ("volume", "--family", "generalized", "--R", "5,50,500"),
    ("blowdown", "--construction", "pointed", "--format", "json"),
    ("verify", "--suite", "all"),
]


def test_in_process_runs_repeat_their_bytes():
    # in-process runs share module state (quadrature caches, argparse, the
    # checks' parameter objects): a second run prints the same bytes
    first = [run_cli(*args) for args in README_EXAMPLES]
    assert all(cp.returncode == 0 for cp in first)
    assert [run_cli(*args).stdout for args in README_EXAMPLES] == [cp.stdout for cp in first]


def test_verify_fails_a_check_that_raises(monkeypatch):
    # an exception other than CheckFailed fails its check, named, and
    # verify goes on to the next check
    from taubnut import metrics

    def broken(params, u, v):
        raise ZeroDivisionError("boom")
    monkeypatch.setattr(metrics, "fiber_matrix", broken)
    cp = run_cli("verify", "--suite", "metrics")
    assert cp.returncode == 1
    lines = cp.stdout.splitlines()
    assert lines[0] == "FAIL metrics.det-fiber: ZeroDivisionError: boom"
    assert len(lines) > 2 and lines[-1].endswith("checks passed")


VERIFY_UNDER_O_SCRIPT = """
import numpy as np
from taubnut import cli, metrics
metrics.fiber_matrix = lambda p, u, v: np.eye(2)
raise SystemExit(cli.main(["verify", "--suite", "metrics"]))
"""


def test_verify_fails_a_broken_check_under_python_O():
    cp = subprocess.run([sys.executable, "-O", "-c", VERIFY_UNDER_O_SCRIPT],
                        capture_output=True, text=True, env=_child_env())
    assert cp.returncode == 1, cp.stdout + cp.stderr
    assert "FAIL metrics.det-fiber" in cp.stdout
