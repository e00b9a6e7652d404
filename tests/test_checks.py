"""Every check of ``taubnut verify``, run by pytest under its own id."""

import argparse
import ast
import functools
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import taubnut
from taubnut.checks import CHECKS


@functools.cache
def _tree(path: Path) -> ast.Module:
    """The parsed source of path, parsed once for every guard below."""
    return ast.parse(path.read_text())


@functools.cache
def _nodes(path: Path) -> tuple:
    """Every node of _tree(path), in ast.walk order, walked once."""
    return tuple(ast.walk(_tree(path)))


def test_check_ids_are_unique():
    ids = [ident for ident, _ in CHECKS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("fn", [pytest.param(fn, id=ident) for ident, fn in CHECKS])
def test_check(fn):
    assert isinstance(fn(), str)


def test_suite_choices_are_the_check_suites_in_file_order():
    # the parser writes the suites out, so that it need not import checks
    from taubnut import cli
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
    assert suite.choices == ["all", *dict.fromkeys(ident.split(".")[0] for ident, _ in CHECKS)]


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
             for node in _nodes(path)
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
        for node in _nodes(path):
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


def _imports(tree: ast.Module) -> dict:
    """Each name a file binds by importing from the package: to the module
    it is ("geodesics", or "taubnut" for the package) or to the definition
    it imports ("geodesics.distance")."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "taubnut"):
            stem = (node.module or "taubnut").split(".")[-1]
            for alias in node.names:
                name = alias.name if stem == "taubnut" else f"{stem}.{alias.name}"
                bound[alias.asname or alias.name] = name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "taubnut":
                    bound[alias.asname or "taubnut"] = alias.name.split(".")[-1] if alias.asname else "taubnut"
    return bound


def _keys(node, module, imports, in_class=False) -> set:
    """What node's subtree mentions, qualified: "m.x" for the module-level
    name x of module m (a bare name, resolved through the file's imports or
    in its own module, or an attribute of the module), ".x" for a method or
    class attribute x (an attribute of anything else, or a bare name in a
    class body), and, in a file outside the package, "*x" for an identifier
    string, which names a module-level definition of any module
    (benchmarks/tracer.py names what it wraps in strings)."""
    def resolve(n):
        if isinstance(n, ast.Name):
            return imports.get(n.id, f"{module}.{n.id}" if module else None)
        if isinstance(n, ast.Attribute):
            owner = resolve(n.value)
            if owner == "taubnut":
                return n.attr
            return f"{owner}.{n.attr}" if owner and "." not in owner else f".{n.attr}"
        return None

    keys = set()
    for n in ast.walk(node):
        if isinstance(n, (ast.Name, ast.Attribute)):
            keys.add(resolve(n))
            if in_class and isinstance(n, ast.Name):
                keys.add(f".{n.id}")
        elif (module is None and isinstance(n, ast.Constant) and isinstance(n.value, str)
              and n.value.isidentifier()):
            keys.add(f"*{n.value}")
    return keys - {None}


def _unreached_public_names():
    """Public functions, classes and methods of the package that no command,
    check or benchmark reaches: a transitive closure over what cli.py,
    checks.py and benchmarks/*.py mention, qualified by _keys, so a module
    function is not reached through a method of the same name, nor the
    other way round.  A definition is reached when its key is; its body
    (and, for a class, its class-level statements and dunder methods) then
    adds what it mentions.  Module-level statements other than definitions
    run at import and count as roots; __init__.__all__ does not."""
    package = Path(taubnut.__file__).parent
    bench = Path(__file__).resolve().parents[1] / "benchmarks"
    roots = set()
    for path in [package / "cli.py", package / "checks.py", *sorted(bench.glob("*.py"))]:
        module = path.stem if path.parent == package else None
        roots |= _keys(_tree(path), module, _imports(_tree(path)))

    mentions = {}   # key -> the keys its definitions mention
    public = []     # (key, qualified name) of each definition the guard holds
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        m, imports = path.stem, _imports(_tree(path))
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                key = f"{m}.{node.name}"
                body = _keys(node, m, imports) if isinstance(node, ast.FunctionDef) else set()
                if any("check" in _mentioned(d) for d in node.decorator_list):
                    roots.add(key)   # a @check function: verify runs it
                if isinstance(node, ast.ClassDef):
                    for d in node.decorator_list + node.bases:
                        body |= _keys(d, m, imports)
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                            mentions.setdefault(f".{item.name}", set()).update(_keys(item, m, imports))
                            if not item.name.startswith("_"):
                                public.append((f".{item.name}", f"{key}.{item.name}"))
                        else:
                            body |= _keys(item, m, imports, in_class=True)
                mentions.setdefault(key, set()).update(body)
                if not node.name.startswith("_"):
                    public.append((key, key))
            elif isinstance(node, ast.Assign) and all(isinstance(t, ast.Name) for t in node.targets):
                for t in node.targets:   # a constant: reached when its key is
                    mentions.setdefault(f"{m}.{t.id}", set()).update(_keys(node.value, m, imports))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _keys(node, m, imports)

    by_string = {}   # "*x" -> the module-level definitions named x
    for key in mentions:
        if not key.startswith("."):
            by_string.setdefault("*" + key.split(".")[1], set()).add(key)
    reached, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        todo.extend((mentions.get(key, set()) | by_string.get(key, set())) - reached)
    return sorted(qual for key, qual in public if key not in reached)


def test_every_public_name_serves_a_command_a_check_or_the_benchmark():
    # a function only the tests call is behaviour no user can reach: delete
    # it, move it into the test that uses it, or make it a check
    assert _unreached_public_names() == []


def test_the_name_guard_tells_a_module_function_from_a_method():
    source = ("from taubnut import geodesics\nfrom taubnut.family import Family\n"
              "params.unparam_residual(1)\ngeodesics.solve_eta\nFamily.FLAT\n'distance'\n")
    keys = _keys(ast.parse(source), None, _imports(ast.parse(source)))
    assert {".unparam_residual", "geodesics.solve_eta", "family.Family", ".FLAT", "*distance"} <= keys
    assert "geodesics.unparam_residual" not in keys and ".solve_eta" not in keys
    # in a package module a bare name is its own module's, and strings name nothing
    assert _keys(ast.parse("distance(1, 'solve_eta')"), "geodesics", {}) == {"geodesics.distance"}


def _records():
    """Each record class of the package, as (name, field names): a
    typing.NamedTuple class body, or a class derived from a
    collections.namedtuple(name, "fields") call."""
    records = []
    for path in sorted(Path(taubnut.__file__).parent.glob("*.py")):
        for node in _nodes(path):
            if not isinstance(node, ast.ClassDef):
                continue
            for base in node.bases:
                if isinstance(base, ast.Call) and "namedtuple" in _mentioned(base.func):
                    records.append((node.name, base.args[1].value.replace(",", " ").split()))
                elif "NamedTuple" in _mentioned(base):
                    records.append((node.name, [item.target.id for item in node.body
                                                if isinstance(item, ast.AnnAssign)]))
    return records


def _unread_fields():
    """Fields of the package's records, as Class.field, whose name no
    attribute read in src/, benchmarks/ or tests/ takes."""
    package = Path(taubnut.__file__).parent
    repo = Path(__file__).resolve().parents[1]
    reads = set()
    for path in [*package.glob("*.py"), *(repo / "benchmarks").glob("*.py"),
                 *(repo / "tests").glob("*.py")]:
        reads |= {node.attr for node in _nodes(path)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{name}.{field}" for name, fields in _records() for field in fields
            if field not in reads]


def test_every_record_field_is_read():
    # a field nothing reads is an echo of the input or a statistic no one
    # looks at: delete it
    assert _unread_fields() == []


def test_the_record_guard_sees_every_record():
    # a guard that finds no record passes vacuously: it must see all ten
    records = dict(_records())
    assert sorted(records) == sorted([
        "QuadratureResult", "OdeResult", "GeodesicRecord", "Trajectory", "EnergyReport",
        "Curvature4Sample", "SandwichSample", "ConifoldCurvature", "PointedLimitSample",
        "InstantonParams"])
    assert records["InstantonParams"] == ["family", "M", "k"]
    assert records["GeodesicRecord"] == ["u", "v"]


def test_package_does_not_import_scipy():
    # scipy is an oracle of the tests, not a dependency of the package
    found = []
    for path in sorted(Path(taubnut.__file__).parent.glob("*.py")):
        for node in _nodes(path):
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
    return [node for node in _nodes(path)
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


def test_every_package_exception_is_a_taubnut_error():
    # the CLI reports any TaubnutError as one error line with exit code 2,
    # so no exception of the package may derive from anything else alone
    from taubnut.numerics import TaubnutError
    found = {}
    for info in pkgutil.iter_modules(taubnut.__path__):
        module = importlib.import_module(f"taubnut.{info.name}")
        found.update({f"{module.__name__}.{name}": cls for name, cls in vars(module).items()
                      if isinstance(cls, type) and issubclass(cls, BaseException)
                      and cls.__module__ == module.__name__})
    assert len(found) >= 12
    assert [name for name, cls in found.items() if not issubclass(cls, TaubnutError)] == []


def test_only_one_helper_takes_cos_or_sin_of_a_launch_angle():
    # a launch angle turns into its (cos, sin) pair in family._launch_cos_sin
    # alone, so every kernel reads one pair: the v-axis at the float pi/2
    src = Path(taubnut.__file__).parent
    helper, = [node for node in _nodes(src / "family.py")
               if isinstance(node, ast.FunctionDef) and node.name == "_launch_cos_sin"]
    inside = set(map(id, ast.walk(helper)))
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in _nodes(path)
             if isinstance(node, ast.Call) and id(node) not in inside
             and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("cos", "sin")
             and any(isinstance(arg, ast.Name) and arg.id == "eta" for arg in node.args)]
    assert found == []


def test_optional_parameters_do_not_grow():
    # an option with one value in use is a constant, not a parameter
    count = sum(len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)
                for path in Path(taubnut.__file__).parent.glob("*.py")
                for fn in _functions(path))
    assert count <= 2


def test_src_does_not_grow():
    # the same numbers from less code: lower the cap when the package shrinks
    count = sum(len(path.read_text().splitlines())
                for path in Path(taubnut.__file__).parent.glob("*.py"))
    assert count <= 3607


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
        for fn in _tree(path).body:
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
    # params.check_eta, or carries or calls (as _check_polar)
    # _within_float_range, which calls it
    path = Path(taubnut.__file__).parent / "geodesics.py"
    found = []
    for fn in _tree(path).body:
        if (not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_")
                or "eta" not in [a.arg for a in fn.args.args]):
            continue
        decorated = any(getattr(d, "id", None) == "_within_float_range"
                        for d in fn.decorator_list)
        checks = any(isinstance(node, ast.Call)
                     and (getattr(node.func, "attr", None) == "check_eta"
                          or getattr(node.func, "id", None) == "_check_polar")
                     for node in ast.walk(fn))
        if not (decorated or checks):
            found.append(fn.name)
    assert found == []


def test_einsums_name_at_most_five_indices():
    # np.einsum without a contraction path loops over n^k index tuples for k
    # distinct indices; contract a larger product one index at a time
    found = []
    for path in sorted(Path(taubnut.__file__).parent.glob("*.py")):
        for node in _nodes(path):
            if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "einsum"
                    and node.args and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                    and len(set(filter(str.isalpha, node.args[0].value))) > 5):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
