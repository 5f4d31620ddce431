"""Regression checks on the whole pipeline: `gpd catalog --all --json`
against a stored report, and how many algebras, block structures and pair
reports one run computes."""

import contextlib
import functools
import hashlib
import importlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

import gpd
from gpd import algebra as A
from gpd import cartan as C
from gpd import catalog, cli
from gpd.qlin import ZERO

STORED = pathlib.Path(__file__).parent / "data" / "catalog_all.json"
MODULES = ("qlin", "finitetop", "groupoid", "germs", "algebra", "cartan", "catalog", "serialize", "cli")


def count_calls(mp, *names):
    """Count calls of the functions named "module.function", wherever a gpd
    module refers to them (callers that did `from .algebra import f` too)."""
    modules = [importlib.import_module(f"gpd.{m}") for m in MODULES]
    counts = Counter()
    for name in names:
        mod_name, attr = name.split(".")
        original = getattr(importlib.import_module(f"gpd.{mod_name}"), attr)
        counted = _counted(original, name, counts)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    mp.setattr(mod, key, counted)
    return counts


def _counted(fn, name, counts):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


@pytest.fixture(scope="module")
def catalog_all():
    """One counted `catalog --all --json` run: exit code, stdout, counts."""
    with pytest.MonkeyPatch.context() as mp:
        counts = count_calls(
            mp,
            "algebra.concrete_algebra",
            "algebra.block_structure",
            "cartan.cartan_report",
            "cartan.unit_subalgebra",
            "cartan._commutant_check",
            "catalog.build",
        )
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["catalog", "--all", "--json"])
    return rc, buf.getvalue(), dict(counts)


def assert_matches_the_stored_report(text):
    # The three floats of the C*-identity probe may differ in the last bits
    # between BLAS builds; everything else must match exactly. The gap is
    # rounding noise around zero, so it also gets an absolute tolerance far
    # below the probe's own acceptance bound of 1e-9 * (1 + norm^2).
    got, want = json.loads(text), json.loads(STORED.read_text(encoding="utf-8"))
    assert [e["entry"] for e in got["entries"]] == [e["entry"] for e in want["entries"]]
    for g, w in zip(got["entries"], want["entries"]):
        gc, wc = g["algebra"].pop("cstar_identity"), w["algebra"].pop("cstar_identity")
        gap_tol = 1e-12 * (1.0 + wc["norm"] ** 2)
        for key in ("norm", "norm_of_star_times_self"):
            assert math.isclose(gc.pop(key), wc.pop(key), rel_tol=1e-9), (g["entry"], key)
        assert math.isclose(gc.pop("gap"), wc.pop("gap"), rel_tol=1e-9, abs_tol=gap_tol), g["entry"]
        assert gc == wc, g["entry"]
    assert got == want


def test_catalog_all_matches_the_stored_report(catalog_all):
    rc, text, _ = catalog_all
    assert rc == 0
    assert_matches_the_stored_report(text)


def test_catalog_all_matches_the_stored_report_under_python_O():
    # `python -O` strips assert statements, so no invariant of the package
    # may rest on one: the optimised interpreter must give the same report.
    script = (
        "import sys\n"
        "from gpd import cli\n"
        "if sys.flags.optimize != 1:\n"
        "    sys.exit(3)\n"
        "sys.exit(cli.main(['catalog', '--all', '--json']))\n"
    )
    src = str(pathlib.Path(gpd.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert_matches_the_stored_report(done.stdout)


def test_catalog_all_computes_each_analysis_once(catalog_all):
    # 11 entries plus three companion models (rotation's trivial bundle,
    # fourier's dual, cocycle_klein untwisted): 14 algebras, each split once;
    # pair reports for the 11 entries and the rotation companion, each
    # building B and checking its commutant once, which pair's Weyl round
    # trip reuses.
    _, _, counts = catalog_all
    assert counts == {
        "algebra.concrete_algebra": 14,
        "algebra.block_structure": 14,
        "cartan.cartan_report": 12,
        "cartan.unit_subalgebra": 12,
        "cartan._commutant_check": 12,
        "catalog.build": 11,
    }


def test_pipeline_splits_the_blocks_once(monkeypatch):
    bundle = catalog.build("pair", {"k": 4})
    g, haar, sigma = bundle["groupoid"], bundle["haar"], bundle["sigma"]
    counts = count_calls(
        monkeypatch, "algebra.block_structure", "algebra._simple_blocks", "cartan.cartan_report"
    )
    alg = A.concrete_algebra(g, sigma=sigma, haar=haar)
    structure = A.block_structure(alg)
    rep = C.cartan_report(g, sigma, haar, A.cc_space(g))
    uep = C.uep_report(g, sigma, haar, alg, rep)
    rel, _ = C.weyl_relation(alg)
    assert counts == {
        "algebra.block_structure": 1,
        "algebra._simple_blocks": 1,
        "cartan.cartan_report": 1,
    }
    assert uep["block_sizes"] == structure["sizes"] == (4,)
    assert C.orbit_class_sizes(rel) == (4,)


CLOSED_BASES = pathlib.Path(__file__).parent / "data" / "closed_bases.json"


def test_closed_bases_match_the_stored_digests():
    # The closure appends products in a fixed order and every entry is
    # exact, so the closed blocks, written out densely, hash to the same
    # digest as when tests/data/closed_bases.json was stored. cross_a1 and
    # cross_a2 grow under the closure (8 -> 10, 7 -> 9); the others are
    # closed spans.
    for want in json.loads(CLOSED_BASES.read_text(encoding="utf-8")):
        alg = catalog.build(want["entry"], want["params"])["analysis"].algebra
        quads = [
            [
                [[blk.get(i, {}).get(j, ZERO).as_quad() for j in range(n)] for i in range(n)]
                for blk, n in zip(alg.represent(f), alg.block_shapes)
            ]
            for f in alg.closed
        ]
        text = json.dumps(quads, separators=(",", ":"))
        got = {"span_dim": alg.span_dim, "dim": alg.dim, "sha256": hashlib.sha256(text.encode()).hexdigest()}
        assert got == {k: want[k] for k in got}, want["entry"]


CARTAN_REPORTS = pathlib.Path(__file__).parent / "data" / "cartan_reports.json"


def _quads(f):
    return None if f is None else [[a, f.coeffs[a].as_quad()] for a in sorted(f.coeffs)]


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def test_cartan_reports_match_the_stored_digests():
    # The JSON report shows only the verdicts of each pair report; the unit
    # element, the regular family (in order) and the masa witness are pinned
    # here by the sha256 of their exact coefficients, stored in
    # tests/data/cartan_reports.json for every catalog entry.
    stored = json.loads(CARTAN_REPORTS.read_text(encoding="utf-8"))
    assert [want["entry"] for want in stored] == catalog.names()
    for want in stored:
        rep = catalog.build(want["entry"])["analysis"].cartan
        got = {
            "entry": want["entry"],
            "unit_element": _digest(_quads(rep.unit_element)),
            "regular_family": _digest([_quads(f) for f in rep.regular_family]),
            "masa_witness": _digest(_quads(rep.masa_witness)),
        }
        assert got == want
