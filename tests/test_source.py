"""Rules on the package source itself."""

import ast
import pathlib

import gpd


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements, so invariants raise
    # errors.InvariantViolation instead.
    modules = sorted(pathlib.Path(gpd.__file__).parent.rglob("*.py"))
    assert len(modules) >= 11
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
