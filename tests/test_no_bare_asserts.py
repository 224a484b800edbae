"""Correctness checks must survive ``python -O``.

``python -O`` strips ``assert`` statements, so a check written as one
silently stops guarding anything.  The package raises explicit exceptions
instead.  pytest rewrites the asserts of the ``test_*.py`` modules only, so
the helper modules under ``tests/`` hold no asserts either.
"""

import ast
from pathlib import Path

import wfact


def _bare_asserts(paths):
    return [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]


def test_package_has_no_assert_statements():
    modules = sorted(Path(wfact.__file__).parent.glob("*.py"))
    assert modules and _bare_asserts(modules) == []


def test_test_helper_modules_have_no_assert_statements():
    here = sorted(Path(__file__).parent.glob("*.py"))
    helpers = [path for path in here if not path.name.startswith("test_")]
    assert helpers and _bare_asserts(helpers) == []
