"""Benchmark of the taubnut toolkit: one command, three workloads.

    python3 benchmarks/run.py --workload {cli-cold,geodesic-grid,integrals}
                              --seed N --seconds S --trace {0,1}

Every run executes the three workloads in sequence, one operation and at
most one child process at a time: cli-cold for half of the S seconds and
the two in-process workloads for a quarter each, so that every end-to-end
metric is reported by every run.  set-up time and the attempted and failed
operations are those of the selected workload.

cli-cold starts a fresh `python -m taubnut` per README example.  The two
in-process workloads run in their own fresh child process (inproc.py), so
their import cost is set-up.  With --trace 1 the run instead repeats fixed
rounds of each workload twice, untraced and traced, and reports the
per-layer metrics (see README.md).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Every output is checked against
reference.py; a failed check is named on standard error and in
benchmarks/out/, and the exit code is then 1.  The program is taken from
src/ next to this directory; nothing needs to be installed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

import clock
import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
INPROC = os.path.join(HERE, "inproc.py")

WORKLOADS = ("cli-cold", "geodesic-grid", "integrals")
# Share of --seconds each workload measures in every run, whichever is
# selected: the cold processes are the slowest and noisiest samples.
SHARE = {"cli-cold": 0.5, "geodesic-grid": 0.25, "integrals": 0.25}
SETUP_REPEATS = 5
NOMINAL_START_S = 0.05   # cold `python -c pass`; see interpreter_start
CHILD_TIMEOUT = 60.0     # beyond its measuring time, for any one child

END_TO_END = {
    "setup_s": "s", "cli_cold_s": "s", "cli_verify_s": "s",
    "distance_per_s": "1/s", "polar_per_s": "1/s", "sweep_s": "s",
    "quadrature_s": "s", "shoot_s": "s", "curvature_fd_s": "s",
}

# The README examples, one cold process each.
CLI_EXAMPLES = {
    "eval": ["eval", "--family", "generalized", "--k", "0.5", "--point", "1,1"],
    "geodesic": ["geodesic", "--family", "exceptional", "--eta", "0.7", "--R", "5",
                 "--samples", "200"],
    "contour": ["contour", "--family", "halfplane", "--eta", "0.3", "--levels", "3",
                "--R", "4", "--format", "svg"],
    "energy": ["energy", "--family", "generalized", "--k", "0.5", "--format", "json"],
    "volume": ["volume", "--family", "generalized", "--R", "5,50,500"],
    "blowdown": ["blowdown", "--construction", "pointed", "--format", "json"],
    "verify": ["verify", "--suite", "all"],
}
# One cli-cold round: each example once and verify three times, so that
# cli_verify_s has a median of three even in a short budget.
CLI_ROUND = ("eval", "geodesic", "contour", "energy", "volume", "blowdown",
             "verify", "verify", "verify")
IMPORTS = {"numpy": "import numpy", "scipy_integrate": "import scipy.integrate",
           "taubnut_cli": "import taubnut.cli"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("INSTANTON_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, seconds=0.0):
    """One child process, waited for (and killed first if it outlives
    CHILD_TIMEOUT plus its measuring time)."""
    return subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT + seconds)


def wall_seconds(argv) -> float:
    t0 = time.perf_counter()
    run_child(argv)
    return time.perf_counter() - t0


def interpreter_start() -> float:
    """Wall seconds of a cold `python -c pass`: the calibration of cold
    processes, which tracks their start-up better than clock.calibrate."""
    return wall_seconds([sys.executable, "-c", "pass"])


def timed_child(argv):
    """(CompletedProcess, wall seconds, scaled seconds; see clock.py)."""
    return clock.timed(lambda: run_child(argv), interpreter_start, NOMINAL_START_S)


# --------------------------------------------------------------------------
# cli-cold
# --------------------------------------------------------------------------

class CliChecker:
    """Checks the output of each README example against reference.py."""

    def __init__(self):
        self._eval_ref = None

    def __call__(self, name, proc):
        if proc.returncode != 0:
            return [f"cli-{name}: exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        text = proc.stdout
        try:
            if name == "eval":
                if self._eval_ref is None:
                    self._eval_ref = reference.mp_distance("GeneralizedTN", 1.0, 1.0, 0.5)
                return reference.check_eval(json.loads(text), self._eval_ref)
            if name == "geodesic":
                return reference.check_geodesic_csv(text)
            if name == "contour":
                return reference.check_svg(text)
            if name == "energy":
                return reference.check_energy(json.loads(text), 0.5)
            if name == "volume":
                return reference.check_volume_csv(text)
            if name == "blowdown":
                doc = json.loads(text)
                return [] if doc["residuals_monotone"] is True else [
                    "cli-blowdown: residuals not monotone"]
            return reference.check_verify(text)
        except (ValueError, KeyError, IndexError) as exc:
            return [f"cli-{name}: output does not parse: {exc!r}"]


def cli_cold(rng, seconds=None, rounds=None, names=CLI_ROUND):
    """Rounds of cold processes, one per example, in a seeded order."""
    check = CliChecker()
    samples = {name: [] for name in names}
    walls = {name: [] for name in names}
    failures = []
    attempted = failed = 0

    def step():
        nonlocal attempted, failed
        order = list(names)
        rng.shuffle(order)
        for name in order:
            attempted += 1
            try:
                proc, wall, scaled = timed_child(
                    [sys.executable, "-m", "taubnut", *CLI_EXAMPLES[name]])
            except subprocess.TimeoutExpired:
                failed += 1
                failures.append(f"cli-{name}: outlived {CHILD_TIMEOUT} s")
                continue
            bad = check(name, proc)
            if bad:
                failed += 1
                failures.extend(bad)
            samples[name].append(scaled)
            walls[name].append(wall)
        return True

    done = clock.rounds(step, seconds, rounds)
    return {"samples": samples, "walls": walls, "attempted": attempted, "failed": failed,
            "failures": failures, "rounds": done}


# --------------------------------------------------------------------------
# in-process workloads
# --------------------------------------------------------------------------

def inproc(workload, seed, **opts):
    argv = [sys.executable, INPROC, workload, "--seed", str(seed),
            "--scratch", os.path.join(OUT, "tmp", workload)]
    for key, value in opts.items():
        argv += [f"--{key.replace('_', '-')}"] + ([] if value is True else [str(value)])
    try:
        proc = run_child(argv, opts.get("seconds", 0.0))
    except subprocess.TimeoutExpired:
        return {"error": f"{workload} did not end in time", "attempted": 1,
                "failed": 1, "failures": [], "phases": {}}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"{workload} exited {proc.returncode}:\n{proc.stderr}",
                "attempted": 1, "failed": 1, "failures": [], "phases": {}}
    return result


def setup_seconds(workload, seed):
    if workload == "cli-cold":
        argv = [sys.executable, "-m", "taubnut", "--version"]
    else:
        argv = [sys.executable, INPROC, workload, "--seed", str(seed),
                "--scratch", os.path.join(OUT, "tmp", workload), "--setup-only"]
    return statistics.median(timed_child(argv)[2] for _ in range(SETUP_REPEATS))


# --------------------------------------------------------------------------
# the two kinds of run
# --------------------------------------------------------------------------

def measure(primary, seed, seconds):
    """Untraced run: every end-to-end metric."""
    counts, failures, notes = {}, [], {}
    try:
        metrics = {"setup_s": setup_seconds(primary, seed)}
    except subprocess.TimeoutExpired:
        metrics = {}
        failures.append(f"setup: a {primary} set-up outlived {CHILD_TIMEOUT} s")
    for workload in WORKLOADS:
        budget = seconds * SHARE[workload]
        if workload == "cli-cold":
            res = cli_cold(random.Random(f"cli-cold:{seed}"), seconds=budget)
            cold = [t for name, ts in res["samples"].items() if name != "verify" for t in ts]
            for metric, values in (("cli_cold_s", cold), ("cli_verify_s", res["samples"]["verify"])):
                if values:   # empty only if every such process timed out, a failure
                    metrics[metric] = statistics.median(values)
        else:
            res = inproc(workload, seed, seconds=budget)
            for name, values in res["phases"].items():
                metrics[name] = statistics.median(values)
            if res.get("error"):
                failures.append(f"{workload} raised:\n{res['error']}")
            if res.get("edge_failures"):
                notes["edge_failures"] = res["edge_failures"]
        notes[workload] = {key: res.get(key) for key in ("samples", "phases", "walls")
                           if res.get(key)}
        counts[workload] = (res["attempted"], res["failed"], res.get("rounds", 0))
        failures += res["failures"]
    return metrics, counts, failures, notes


def trace_run(primary, seed):
    """Traced run: fixed rounds of each workload, untraced then traced."""
    layers = {}
    failures, counts, notes = [], {}, {}
    def cold(stmt):
        return statistics.median(wall_seconds([sys.executable, "-c", stmt]) for _ in range(3))

    try:
        base = cold("pass")
        for name, stmt in IMPORTS.items():
            layers[f"import.{name}_s"] = cold(stmt) - base
    except subprocess.TimeoutExpired as exc:
        failures.append(f"import: {exc}")

    res = cli_cold(random.Random(f"cli-cold:{seed}"), rounds=2,
                   names=tuple(n for n in CLI_EXAMPLES if n != "verify"))
    for name, walls in res["walls"].items():
        if walls:
            layers[f"cli.{name}_s"] = statistics.median(walls)
    failures += res["failures"]
    cli_counts = [res["attempted"], res["failed"]]

    overhead = {}
    totals = {}
    for workload, rounds in (("cli-verify", 3), ("geodesic-grid", 4), ("integrals", 3)):
        plain = inproc(workload, seed, rounds=rounds)
        traced = inproc(workload, seed, rounds=rounds, trace=1)
        for res in (plain, traced):
            if res.get("error"):
                failures.append(f"{workload} raised:\n{res['error']}")
            failures += res["failures"]
        overhead[workload] = traced.get("scaled_s", 0.0) - plain.get("scaled_s", 0.0)
        if workload == "cli-verify":
            walls = plain.get("walls", {}).get("cli.verify.inproc_s")
            if walls:
                layers["cli.verify.inproc_s"] = statistics.median(walls)
            cli_counts[0] += plain["attempted"] + traced["attempted"]
            cli_counts[1] += plain["failed"] + traced["failed"]
            counts["cli-cold"] = tuple(cli_counts) + (2,)
        else:
            counts[workload] = (plain["attempted"] + traced["attempted"],
                                plain["failed"] + traced["failed"], 2 * rounds)
            if traced.get("edge_failures"):
                notes["edge_failures"] = traced["edge_failures"]
        for key, value in traced.get("layers", {}).items():
            totals[key] = totals.get(key, 0) + value

    for key, value in totals.items():
        if key.endswith(".fevals_per_call"):
            prefix = key[:-len(".fevals_per_call")]
            calls = totals.get(f"{prefix}.calls", 0)
            value = totals.get(f"{prefix}.fevals", 0) / calls if calls else 0.0
        layers[key] = value
    layers["trace.overhead_s"] = overhead["cli-verify" if primary == "cli-cold" else primary]
    layers["src.lines"] = count_lines(SRC)
    notes["trace_overhead_s"] = overhead
    return layers, counts, failures, notes


def count_lines(top):
    n = 0
    for dirpath, _, files in os.walk(top):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    n += sum(1 for _ in fh)
    return n


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("per_call"):
        return "count/call"
    return "lines" if name == "src.lines" else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "taubnut", "__init__.py")):
        print(f"error: no taubnut package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)

    if args.trace:
        values, counts, failures, notes = trace_run(args.workload, args.seed)
    else:
        values, counts, failures, notes = measure(args.workload, args.seed, args.seconds)
    attempted, failed, _ = counts[args.workload]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in values.items()},
    }

    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    for workload, (a, f, r) in counts.items():
        print(f"{workload}: {r} rounds, {a} operations attempted, {f} failed")
    for op, why in notes.get("edge_failures", {}).items():
        print(f"  edge {op}: {why}")
    shown = {}
    for message in failures:
        check = message.split(":")[0]
        shown[check] = shown.get(check, 0) + 1
        if shown[check] <= 3:
            print(f"FAILED CHECK {message}", file=sys.stderr)
    for check, n in shown.items():
        if n > 3:
            print(f"FAILED CHECK {check}: {n - 3} more, listed in benchmarks/out/",
                  file=sys.stderr)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(dict(result, counts=counts, failures=failures, notes=notes), fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
