"""Rules on the package source itself."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

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


def test_importing_the_cli_leaves_numpy_unloaded():
    # numpy is imported where floats enter (norms, block splitting), so
    # start-up and the exact paths never pay for it.
    src = str(pathlib.Path(gpd.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, gpd.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_every_exported_name_exists():
    # A name left in __all__ after its definition is deleted breaks
    # `from gpd.<module> import *`.
    modules = sorted(p.stem for p in pathlib.Path(gpd.__file__).parent.glob("*.py") if p.stem != "__init__")
    missing = []
    for name in modules:
        mod = importlib.import_module(f"gpd.{name}")
        missing += [f"{name}.{attr}" for attr in mod.__all__ if not hasattr(mod, attr)]
    assert len(modules) >= 10
    assert missing == []
