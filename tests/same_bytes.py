"""Byte identity of the CLI against a git revision.

    python tests/same_bytes.py REV

extracts ``src`` of the revision REV with ``git archive`` into a temporary
directory, then runs each argv of ``ARGVS`` on that copy and on the
working tree, each in a fresh ``python -m taubnut``.  It prints every argv
whose stdout or exit code differs, each followed by the first stdout line
that differs, from the revision and from the tree, and by both exit codes
where they differ; then their count, and exits 1 if there is one.  Stderr
is compared only for the runs of ``PARSER``, the help texts and the usage
errors, whose message is their output.  Pytest does not
collect this file (its name has no test_ prefix); a run takes about a minute.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: the README's examples
README = [
    ["eval", "--family", "generalized", "--k", "0.5", "--point", "1,1"],
    ["geodesic", "--family", "exceptional", "--eta", "0.7", "--R", "5", "--samples", "200"],
    ["contour", "--family", "halfplane", "--eta", "0.3", "--levels", "3", "--R", "4",
     "--format", "svg"],
    ["energy", "--family", "generalized", "--k", "0.5", "--format", "json"],
    ["volume", "--family", "generalized", "--R", "5,50,500"],
    ["blowdown", "--construction", "pointed", "--format", "json"],
    ["verify", "--suite", "all"],
]
#: the contour runs of benchmarks/inproc.py, as CSV and as SVG
CONTOUR = [["contour", "--family", family, "--eta", "0.4", "--levels", "4", "--R", "6",
            *k, "--format", fmt]
           for family, k in (("generalized", ["--k", "0.5"]), ("halfplane", []))
           for fmt in ("csv", "svg")]
EVAL = [["eval", "--family", family, "--chart", chart, "--point", "1,1"]
        for family in ("generalized", "exceptional", "halfplane", "flat")
        for chart in ("uv", "xy", "moment", "polar", "almostpolar")]
BLOWDOWN = [["blowdown", "--construction", construction, "--format", fmt,
             "--point", point, "--k", k]
            for construction in ("conifold", "second", "exceptional", "pointed")
            for fmt in ("csv", "json")
            for point in ("1,1", "0.7,1.3", "2.5,0.2")
            for k in ("0", "0.5", "-0.9")]
#: the growth exponent, which only --format json prints, at the default radii
VOLUME = [["volume", "--family", *family, "--format", "json"]
          for family in (["generalized", "--k", "0"], ["generalized", "--k", "0.5"],
                         ["exceptional"])]
#: the shoot and its certificate: every family on and near both axes, one
#: sample and the benchmark's count, rows at the float range, and the dense
#: output where most steps carry no sample (R = 1000, 2 samples) and where
#: one step carries many (R = 0.5, 400 samples)
ETAS = ["0", "0.7", repr(math.pi / 2 - 0.01)]
GEODESIC = ([["geodesic", "--family", family, f"--eta={eta}", "--R", "5", "--samples", n]
             for family, etas in (("generalized", ETAS), ("exceptional", ETAS),
                                  ("halfplane", ETAS + ["-0.7"]), ("flat", ETAS))
             for eta in etas for n in ("1", "64")]
            + [["geodesic", "--family", family, f"--eta={eta}", "--R", R, "--samples", n]
               for family, eta in (("generalized", "0.7"), ("halfplane", "-0.7"))
               for R, n in (("1000", "2"), ("0.5", "400"))]
            + [["geodesic", "--eta", "0.7", "--M", "1e300", "--R", "5"],
               ["geodesic", "--family", "exceptional", "--eta", "0.7", "--R", "1e308"],
               ["geodesic", "--family", "halfplane", "--eta", "0.7", "--R", "1e308"],
               ["geodesic", "--eta", "0.7", "--R", "1.7e308"]])
#: the u-axis at a launch angle whose sine is below 1e-300, and the float
#: pi/2 at k = 0.9, which the shoot and the polar chart both take as the
#: v-axis (cos 0, not math.cos's 6e-17)
AXES = ([["geodesic", "--family", family, f"--eta={eta}", "--R", R, "--samples", "50"]
         for family in ("generalized", "exceptional", "halfplane", "flat")
         for eta, R in (("1e-320", "7"), ("5e-324", "5"))]
        + [["geodesic", "--family", "halfplane", "--eta=-1e-320", "--R", "7", "--samples", "50"],
           ["geodesic", "--k", "0.9", f"--eta={math.pi / 2!r}", "--R", "1e10"],
           ["eval", "--k", "0.9", "--chart", "polar", f"--point=1e10,{math.pi / 2!r}"]])
#: the help of the parser and of each subcommand, and exit-2 paths: a suite
#: argparse rejects, an error raised by blowdown on a singular axis and by
#: the chirality check, and a family without an almost-ball volume
PARSER = ([["--help"]]
          + [[command, "--help"] for command in
             ("eval", "geodesic", "contour", "energy", "volume", "blowdown", "verify")]
          + [["verify", "--suite", "nope"],
             ["blowdown", "--construction", "conifold", "--point", "0,0"],
             ["blowdown", "--k", "1.5"],
             ["volume", "--family", "flat", "--R", "1,2,3,4"]])
#: the L2 Ricci energy next to the chirality limit, as JSON and as CSV
ENERGY = [["energy", "--k", "0.9999"], ["energy", "--k", "-0.99", "--format", "csv"]]
ARGVS = README + CONTOUR + EVAL + BLOWDOWN + VOLUME + ENERGY + GEODESIC + AXES + PARSER


def run(src: Path, argv: list[str]) -> tuple[int, str, str | None]:
    """(exit code, stdout, stderr or None) of ``python -m taubnut argv`` with
    src first on the path, started outside any checkout; stderr only for
    the runs of PARSER."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    cp = subprocess.run([sys.executable, "-m", "taubnut", *argv], capture_output=True,
                        text=True, env=env, cwd=tempfile.gettempdir())
    return cp.returncode, cp.stdout, cp.stderr if argv in PARSER else None


def main(rev: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tar = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=tar, check=True)

        def both(argv):
            return run(Path(tmp) / "src", argv), run(ROOT / "src", argv)

        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            differ = [(argv, *pair) for argv, pair in zip(ARGVS, pool.map(both, ARGVS))
                      if pair[0] != pair[1]]
    for argv, (base_code, base, _), (code, out, _) in differ:
        print(" ".join(argv))
        lines = itertools.zip_longest(base.splitlines(), out.splitlines(), fillvalue="")
        first = next(((old, new) for old, new in lines if old != new), None)
        if first:
            print(f"  {rev}: {first[0]}\n  tree: {first[1]}")
        if base_code != code:
            print(f"  exit codes: {rev} {base_code}, tree {code}")
    print(f"{len(differ)} of {len(ARGVS)} runs differ from {rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
