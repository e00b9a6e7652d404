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
    assert count <= 6


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


def _reads_params_geometry(node) -> bool:
    """params.geometry.<attr> or a call of it."""
    if isinstance(node, ast.Call):
        node = node.func
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "geometry" and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "params")


def test_no_function_only_forwards_to_the_geometry():
    # callers call params.geometry.<name> directly; a module function earns
    # its place by an input check, a new type or a composition.  The traced
    # layers stay, as benchmarks/tracer.py wraps them
    traced = {f"{module}.{name}" for module, names, _ in _traced_layers() for name in names}
    found = []
    for path in sorted(Path(taubnut.__file__).parent.glob("*.py")):
        for fn in ast.parse(path.read_text()).body:
            if not isinstance(fn, ast.FunctionDef) or f"{path.stem}.{fn.name}" in traced:
                continue
            body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
            if (len(body) == 1 and isinstance(body[0], ast.Return)
                    and _reads_params_geometry(body[0].value)):
                found.append(f"{path.stem}.{fn.name}")
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
