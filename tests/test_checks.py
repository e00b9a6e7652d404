"""Every check of ``taubnut verify``, run by pytest under its own id."""

import ast
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
