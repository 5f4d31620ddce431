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


def _run(code: str) -> str:
    """The stdout of `code` in a fresh interpreter that imports gpd from
    this source tree and the test helpers from this directory."""
    paths = [str(pathlib.Path(gpd.__file__).parent.parent), str(pathlib.Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([*paths, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return done.stdout


def test_importing_the_cli_leaves_numpy_unloaded():
    # numpy is imported only where floats enter (`reduced_norm`), so
    # start-up and the exact paths never pay for it.
    assert _run("import sys, gpd.cli; print('numpy' in sys.modules)").strip() == "False"


def test_every_discrete_answer_leaves_numpy_unloaded():
    # Block sizes and the rank vectors of extension counts come from exact
    # trace identities, so no answer of an Analysis imports numpy: not on
    # any catalog entry, nor on the S3 cones whose cone point takes the
    # rank-vector path.
    code = """
import sys
from gpd import catalog
from gpd.cartan import Analysis
from gpd.errors import NotMasa
from test_cartan import s3_cone

models = [catalog.build(name)["analysis"] for name in catalog.names()]
models += [Analysis(s3_cone()), Analysis(s3_cone(isolated=("d",)))]
for an in models:
    an.classify, an.algebra.structure, an.cartan
    for answer in ("uep", "weyl"):
        try:
            getattr(an, answer)
        except NotMasa:
            pass
print(models[-2].uep["counts"]["c"], models[-1].uep["counts"]["c"], "numpy" in sys.modules)
"""
    assert _run(code).strip() == "(2, 1, 1, 0) (2, 1, 1, 0, 0) False"


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
