"""Correctness checks in the package must survive ``python -O``.

``python -O`` strips ``assert`` statements, so a check written as one
silently stops guarding anything.  The package raises explicit exceptions
instead; this test keeps it that way.
"""

import ast
from pathlib import Path

import wfact


def test_package_has_no_assert_statements():
    package = Path(wfact.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(package.glob("*.py")), f"no modules found under {package}"
    assert offenders == [], f"bare assert statements: {offenders}"
