"""Every check of ``taubnut verify``, run by pytest under its own id."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import taubnut
from taubnut.checks import CHECKS


def test_check_ids_are_unique():
    ids = [ident for ident, _ in CHECKS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("fn", [pytest.param(fn, id=ident) for ident, fn in CHECKS])
def test_check(fn):
    assert isinstance(fn(), str)


def test_bracket_check_fails_a_bracket_that_takes_a_small_radius(monkeypatch):
    # asymptotics.bracket also checks that ball_volume_bracket rejects R = 5
    from taubnut import asymptotics
    from taubnut.checks import CheckFailed, bracket

    measured = asymptotics.ball_volume_bracket
    monkeypatch.setattr(asymptotics, "ball_volume_bracket",
                        lambda params, R: measured(params, max(R, 100.0)))
    with pytest.raises(CheckFailed, match="SmallRadius not raised"):
        bracket()


def test_package_has_no_assert_statements():
    # python -O strips assert; every bound in the package is an explicit raise
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(taubnut.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def _names_the_family(node) -> bool:
    """Family.X, a .family attribute, or a tuple, list or set holding one."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_the_family(elt) for elt in node.elts)
    return isinstance(node, ast.Attribute) and (
        node.attr == "family"
        or (isinstance(node.value, ast.Name) and node.value.id == "Family"))


def test_only_family_py_branches_on_the_family():
    # every family formula and the chart domain live in the family's class
    # in family.py; elsewhere no comparison with a family, no require(...)
    # gate and no dict indexed by family may come back
    found = []
    for path in sorted(Path(taubnut.__file__).parent.glob("*.py")):
        if path.name == "family.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                hit = any(map(_names_the_family, [node.left, *node.comparators]))
            elif isinstance(node, ast.Call):
                hit = getattr(node.func, "id", getattr(node.func, "attr", "")) == "require"
            elif isinstance(node, ast.Subscript):
                hit = _names_the_family(node.slice)
            else:
                hit = False
            if hit:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _mentioned(node) -> set:
    """Every name, attribute and identifier string in node's subtree."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            names.add(n.value)   # benchmarks/tracer.py names what it wraps in strings
    return names


def _unreached_public_names():
    """Public functions, classes and methods of the package that no command,
    check or benchmark reaches: a transitive closure over the names that
    cli.py, checks.py and benchmarks/*.py mention.  A definition is reached
    when its name is; its body (and, for a class, its class-level statements
    and dunder methods) then adds the names it mentions.  Module-level
    statements other than definitions run at import and count as roots;
    __init__.__all__ does not."""
    package = Path(taubnut.__file__).parent
    bench = Path(__file__).resolve().parents[1] / "benchmarks"
    roots = set()
    for path in [package / "cli.py", package / "checks.py", *sorted(bench.glob("*.py"))]:
        roots |= _mentioned(ast.parse(path.read_text()))

    mentions = {}   # name -> the names its definitions mention
    public = []     # (name, qualified name) of each definition the guard holds
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                qual = f"{path.stem}.{node.name}"
                body = _mentioned(node) if isinstance(node, ast.FunctionDef) else set()
                if any("check" in _mentioned(d) for d in node.decorator_list):
                    roots.add(node.name)   # a @check function: verify runs it
                if isinstance(node, ast.ClassDef):
                    for d in node.decorator_list + node.bases:
                        body |= _mentioned(d)
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                            mentions.setdefault(item.name, set()).update(_mentioned(item))
                            if not item.name.startswith("_"):
                                public.append((item.name, f"{qual}.{item.name}"))
                        else:
                            body |= _mentioned(item)
                mentions.setdefault(node.name, set()).update(body)
                if not node.name.startswith("_"):
                    public.append((node.name, qual))
            elif isinstance(node, ast.Assign) and all(isinstance(t, ast.Name) for t in node.targets):
                for t in node.targets:   # a constant: reached when its name is
                    mentions.setdefault(t.id, set()).update(_mentioned(node.value))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _mentioned(node)

    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo.extend(mentions.get(name, set()) - reached)
    return sorted(qual for name, qual in public if name not in reached)


def test_every_public_name_serves_a_command_a_check_or_the_benchmark():
    # a function only the tests call is behaviour no user can reach: delete
    # it, move it into the test that uses it, or make it a check
    assert _unreached_public_names() == []


def _unread_fields():
    """Fields of the package's dataclasses, as Class.field, whose name no
    attribute read in src/, benchmarks/ or tests/ takes."""
    package = Path(taubnut.__file__).parent
    repo = Path(__file__).resolve().parents[1]
    reads = set()
    for path in [*package.glob("*.py"), *(repo / "benchmarks").glob("*.py"),
                 *(repo / "tests").glob("*.py")]:
        reads |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in _mentioned(d) for d in node.decorator_list):
                fields += [f"{node.name}.{item.target.id}" for item in node.body
                           if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    return [field for field in fields if field.split(".")[1] not in reads]


def test_every_record_field_is_read():
    # a field nothing reads is an echo of the input or a statistic no one
    # looks at: delete it
    assert _unread_fields() == []


def test_package_does_not_import_scipy():
    # scipy is an oracle of the tests, not a dependency of the package
    found = []
    for path in sorted(Path(taubnut.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _functions(path):
    return [node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.Lambda))]


def test_solvers_take_no_tolerance_argument():
    # each solver runs at one fixed accuracy; only the generic routines whose
    # callers pass different tolerances take them: the scalar and the array
    # root solve, and the adaptive quadrature
    found = []
    generic = ("find_root_monotone", "find_roots_monotone", "_adaptive_boxes")
    for name in ("geodesics", "asymptotics", "numerics"):
        path = Path(taubnut.__file__).parent / f"{name}.py"
        for fn in _functions(path):
            args = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
            if args & {"tol", "abs_tol", "rel_tol"} and getattr(fn, "name", None) not in generic:
                found.append(f"{path.name}:{fn.lineno}")
    assert found == []


def test_optional_parameters_do_not_grow():
    # an option with one value in use is a constant, not a parameter
    count = sum(len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)
                for path in Path(taubnut.__file__).parent.glob("*.py")
                for fn in _functions(path))
    assert count <= 4


def test_src_does_not_grow():
    # the same numbers from less code: lower the cap when the package shrinks
    count = sum(len(path.read_text().splitlines())
                for path in Path(taubnut.__file__).parent.glob("*.py"))
    assert count <= 3725


def _traced_layers():
    """LAYERS of benchmarks/tracer.py: (module, function names, metrics) per layer."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
    spec = importlib.util.spec_from_file_location("tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS.values()


def test_traced_functions_exist():
    # benchmarks/run.py --trace 1 wraps every function named in the tracer's
    # LAYERS, and crashes if one of them is renamed or deleted
    missing = [f"{module}.{name}" for module, names, _ in _traced_layers()
               for name in names
               if not callable(getattr(importlib.import_module(f"taubnut.{module}"), name, None))]
    assert missing == []


def _reads_params(node) -> bool:
    """params.<attr> or a call of it."""
    if isinstance(node, ast.Call):
        node = node.func
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "params")


def test_no_function_only_forwards_to_the_geometry():
    # callers call params.<name> directly; a module function earns its place
    # by an input check, a new type or a composition.  The traced layers
    # stay, as benchmarks/tracer.py wraps them
    traced = {f"{module}.{name}" for module, names, _ in _traced_layers() for name in names}
    found = []
    for path in sorted(Path(taubnut.__file__).parent.glob("*.py")):
        for fn in ast.parse(path.read_text()).body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
            if (len(body) == 1 and isinstance(body[0], ast.Return)
                    and _reads_params(body[0].value)):
                found.append(f"{path.stem}.{fn.name}")
    assert [name for name in found if name not in traced] == []
    assert found == ["metrics.conformal_factor"]   # the pattern still matches


def test_every_function_of_eta_checks_it():
    # a public geodesics function taking a launch angle eta calls
    # params.check_eta or carries _within_float_range, which calls it
    path = Path(taubnut.__file__).parent / "geodesics.py"
    found = []
    for fn in ast.parse(path.read_text()).body:
        if (not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_")
                or "eta" not in [a.arg for a in fn.args.args]):
            continue
        decorated = any(getattr(d, "id", None) == "_within_float_range"
                        for d in fn.decorator_list)
        checks = any(isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "check_eta"
                     for node in ast.walk(fn))
        if not (decorated or checks):
            found.append(fn.name)
    assert found == []


def test_einsums_name_at_most_five_indices():
    # np.einsum without a contraction path loops over n^k index tuples for k
    # distinct indices; contract a larger product one index at a time
    found = []
    for path in sorted(Path(taubnut.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "einsum"
                    and node.args and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                    and len(set(filter(str.isalpha, node.args[0].value))) > 5):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
