"""Line reach of Tier-1: the executable lines of src/taubnut that no test runs.

    python tests/reach.py [pytest arguments]

runs the Tier-1 suite (pytest over tests/, with the given arguments) in
this process under ``sys.settrace``, and traces every Python child it
starts through a ``sitecustomize.py`` placed first on the children's
PYTHONPATH.  It then prints each executable line of src/taubnut that no
process ran, as ``file:line``, then their count, and exits 1 if there is
one or if the suite failed.  Executable lines are those the compiler maps
bytecode to.  Pytest does not collect this file (its name has no test_
prefix); tracing makes the suite about three times slower.
"""

from __future__ import annotations

import atexit
import importlib.util
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "taubnut"
OUT_DIR = "TAUBNUT_REACH_DIR"   # where each traced child writes the lines it ran

SITECUSTOMIZE = """\
import importlib.util
spec = importlib.util.spec_from_file_location("taubnut_reach", {path!r})
reach = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reach)
reach.trace_child()
"""


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def executable_lines(path: Path) -> set[int]:
    """The lines of a source file that the compiler maps bytecode to."""
    code = compile(path.read_text(), str(path), "exec")
    return {line for c in _code_objects(code) for _, _, line in c.co_lines() if line}


def _tracer(hits: dict[str, set[int]]):
    """A sys.settrace function that adds to hits[filename] each line run in
    a file of the package, and traces no other frame line by line."""
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set()).add(frame.f_lineno)
        return local
    return call


def _start(hits):
    tracer = _tracer(hits)
    threading.settrace(tracer)
    sys.settrace(tracer)


def trace_child() -> None:
    """Trace this process, and write the lines it ran to OUT_DIR at exit."""
    out_dir = os.environ[OUT_DIR]
    hits: dict[str, set[int]] = {}
    _start(hits)

    def dump():
        sys.settrace(None)
        fd, path = tempfile.mkstemp(suffix=".json", dir=out_dir)
        with os.fdopen(fd, "w") as fh:
            json.dump({name: sorted(lines) for name, lines in hits.items()}, fh)
    atexit.register(dump)


def main(argv: list[str]) -> int:
    import pytest

    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "sitecustomize.py").write_text(SITECUSTOMIZE.format(path=__file__))
        os.environ[OUT_DIR] = tmp
        os.environ["PYTHONPATH"] = os.pathsep.join(
            filter(None, [tmp, os.environ.get("PYTHONPATH")]))
        sys.path.insert(0, str(PACKAGE.parent))
        hits: dict[str, set[int]] = {}
        _start(hits)
        try:
            code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
        finally:
            sys.settrace(None)
            threading.settrace(None)
        children = sorted(Path(tmp).glob("*.json"))
        for path in children:
            for name, lines in json.loads(path.read_text()).items():
                hits.setdefault(name, set()).update(lines)

    unreached = [f"{path.relative_to(ROOT)}:{line}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for line in sorted(executable_lines(path) - hits.get(str(path), set()))]
    for line in unreached:
        print(line)
    print(f"{len(unreached)} unreached executable lines in src/taubnut "
          f"({len(children)} traced children); pytest exit code {int(code)}")
    return 1 if unreached or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
