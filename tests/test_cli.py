import json
import os
import pathlib
import subprocess
import sys

import pytest

import gpd

from gpd import catalog, cli
from gpd.catalog import CatalogEntry
from gpd.cli import main
from gpd.groupoid import isotropy
from gpd.serialize import cocycle_doc, groupoid_doc


def run(capsys, *argv, expect=0):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == expect, captured.err or captured.out
    return captured


def run_json(capsys, *argv, expect=0):
    out = run(capsys, *argv, "--json", expect=expect).out
    return json.loads(out)


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


ACTION_DOC = {
    "space": {
        "points": ["-1", "a", "0", "b", "1"],
        "min_nbhd": {
            "-1": ["-1", "a"],
            "a": ["a"],
            "0": ["a", "0", "b"],
            "b": ["b"],
            "1": ["b", "1"],
        },
    },
    "generators": [
        {
            "name": "T",
            "dom": ["-1", "a", "0", "b", "1"],
            "map": {"-1": "1", "a": "b", "0": "0", "b": "a", "1": "-1"},
        }
    ],
}


def test_catalog_listing(capsys):
    rep = run_json(capsys, "catalog")
    assert sorted(rep["entries"]) == catalog.names()
    assert "germ" in rep["entries"]["cross_a1"].lower()


def test_catalog_entry_report(capsys):
    rep = run_json(capsys, "catalog", "--entry", "cross_a1")
    assert rep["algebra"]["blocks"] == [2, 2, 1, 1]
    assert rep["cartan"]["uep"]["0"] == 2
    assert rep["cartan"]["diagonal"] is False
    assert all(item["ok"] for item in rep["manifest"])
    assert rep["analyze"]["classify"]["topologically_principal"] is True
    assert rep["analyze"]["classify"]["principal"] is False


def test_catalog_entry_with_params(capsys):
    rep = run_json(capsys, "catalog", "--entry", "pair", "--params", "k=4")
    assert rep["algebra"]["blocks"] == [4]
    assert rep["params"] == {"k": 4}


def test_catalog_all_and_cross_entry_checks(capsys):
    rep = run_json(capsys, "catalog", "--all")
    assert rep["all_ok"] is True
    assert len(rep["entries"]) == len(catalog.names())
    assert all(c["ok"] for c in rep["cross_entry"])


def test_catalog_failing_manifest_sets_exit_code(capsys, monkeypatch):
    base = catalog.build("pair")
    entry = CatalogEntry(
        name="always_fails",
        summary="negative-control entry",
        params_doc={},
        builder=lambda params: {
            "groupoid": base["groupoid"],
            "haar": base["haar"],
            "sigma": None,
            "extras": {},
            "manifest": [("never true", lambda b: False)],
        },
    )
    monkeypatch.setitem(catalog._REGISTRY, "always_fails", entry)
    rep = run_json(capsys, "catalog", "--entry", "always_fails", expect=1)
    assert rep["manifest"] == [{"label": "never true", "ok": False, "detail": ""}]
    rep = run_json(capsys, "catalog", "--all", expect=1)
    assert rep["all_ok"] is False


def test_unknown_entry_and_bad_params_exit_2(capsys):
    code = main(["catalog", "--entry", "nope"])
    err = capsys.readouterr().err
    assert code == 2 and "no catalog entry" in err
    code = main(["catalog", "--entry", "pair", "--params", "k=99"])
    err = capsys.readouterr().err
    assert code == 2 and "k" in err


def test_analyze_algebra_cartan_from_files(capsys, tmp_path, a2):
    path = write_doc(tmp_path, "a2.json", groupoid_doc(a2["g"], a2["haar"]))
    rep = run_json(capsys, "analyze", path)
    assert rep["classify"]["etale"] is False
    assert rep["classify"]["principal"] is True
    assert rep["orbits"] == [["-1", "1"], ["0"], ["a", "b"]]
    rep = run_json(capsys, "algebra", path)
    assert rep["admissible_dim"] == 7
    assert rep["blocks"] == [2, 2, 1]
    assert rep["cstar_identity"]["ok"] is True
    rep = run_json(capsys, "cartan", path)
    assert rep["cartan"]["contains_unit"] is False
    assert rep["cartan"]["masa"] is True
    assert rep["cartan"]["masa_witness"] is None
    assert rep["diagonal"] is False


def test_analyze_computes_each_isotropy_group_once(capsys, tmp_path, monkeypatch, a1):
    calls = []

    def counted(g, x):
        calls.append(x)
        return isotropy(g, x)

    monkeypatch.setattr(cli, "isotropy", counted)
    path = write_doc(tmp_path, "a1.json", groupoid_doc(a1["g"], a1["haar"]))
    rep = run_json(capsys, "analyze", path)
    assert sorted(calls) == sorted(a1["g"].units.points) == sorted(rep["isotropy"])


def test_algebra_with_cocycle_file(capsys, tmp_path, klein):
    gpath = write_doc(tmp_path, "klein.json", groupoid_doc(klein["g"], klein["haar"]))
    cpath = write_doc(tmp_path, "sigma.json", cocycle_doc(klein["sigma"]))
    rep = run_json(capsys, "algebra", gpath)
    assert rep["blocks"] == [1, 1, 1, 1]
    rep = run_json(capsys, "algebra", gpath, "--cocycle", cpath)
    assert rep["blocks"] == [2]


def test_germify_pipeline(capsys, tmp_path):
    apath = write_doc(tmp_path, "action.json", ACTION_DOC)
    gdoc = run_json(capsys, "germify", apath, "--name", "reflected")
    assert gdoc["name"] == "reflected"
    assert len(gdoc["arrows"]) == 10
    gpath = write_doc(tmp_path, "germ.json", gdoc)
    rep = run_json(capsys, "analyze", gpath)
    assert rep["classify"]["topologically_principal"] is True
    assert rep["isotropy"]["0"]["order"] == 2
    rep = run_json(capsys, "cartan", gpath)
    assert rep["cartan"]["overall"] is True and rep["uep"]["0"] == 2


def test_duality_defaults_and_params(capsys):
    rep = run_json(capsys, "duality")
    assert rep["primal"]["dim"] == 8 == rep["dual"]["dim"]
    assert rep["equal_dimensions"] and rep["isomorphic_blocks"]
    rep = run_json(
        capsys,
        "duality",
        "--params", "source_orders=3",
        "--params", "target_orders=3",
        "--params", "matrix=1",
    )
    assert rep["primal"]["blocks"] == [3] == rep["dual"]["blocks"]


def test_duality_from_file_with_override(capsys, tmp_path):
    path = write_doc(
        tmp_path,
        "phi.json",
        {"source_orders": [2], "target_orders": [4], "matrix": [[2]]},
    )
    rep = run_json(capsys, "duality", path)
    assert rep["phi"]["matrix"] == [[2]]
    run(capsys, "duality", path, "--params", "matrix=1", expect=2)  # 2*1 % 4 != 0


def test_duality_help_mentions_finite_abelian_restriction(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["duality", "--help"])
    assert exc.value.code == 0
    assert "finite abelian" in capsys.readouterr().out


def test_schema_error_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["analyze", str(path)])
    err = capsys.readouterr().err
    assert code == 2 and "error" in err
    code = main(["analyze", str(tmp_path / "missing.json")])
    err = capsys.readouterr().err
    assert code == 2 and "cannot read" in err


def test_out_writes_file_and_text_mirrors_json(capsys, tmp_path):
    out = tmp_path / "report.txt"
    run(capsys, "catalog", "--entry", "pair", "--out", str(out))
    text = out.read_text()
    assert "blocks: [3]" in text
    rep = run_json(capsys, "catalog", "--entry", "pair")
    assert rep["algebra"]["blocks"] == [3]  # same content as the text line


def test_main_builds_the_parser_once(capsys):
    cli._build_parser.cache_clear()
    first = run(capsys, "catalog", "--entry", "pair", "--json").out
    listing = run(capsys, "catalog").out
    assert run(capsys, "catalog", "--entry", "pair", "--json").out == first
    assert run(capsys, "catalog").out == listing
    assert json.loads(first)["entry"] == "pair"
    assert cli._build_parser.cache_info().misses == 1


def test_reports_are_deterministic(capsys):
    one = run(capsys, "catalog", "--entry", "cross_a2", "--json").out
    two = run(capsys, "catalog", "--entry", "cross_a2", "--json").out
    assert one == two


# Waits on stdin before it runs gpd, so that the test can close the pipe
# first: every write gpd then makes meets a closed pipe.
GATED_CLI = (
    "import sys\n"
    "from gpd import cli\n"
    "print('ready', flush=True)\n"
    "sys.stdin.readline()\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


def test_a_closed_pipe_ends_the_run_quietly():
    # `gpd catalog --entry pair --json | head -5`: the reader takes a line
    # and goes away. gpd must exit nonzero without a traceback on stderr.
    src = str(pathlib.Path(gpd.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-c", GATED_CLI, "catalog", "--entry", "pair", "--json"]
    with subprocess.Popen(
        argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as proc:
        assert proc.stdout.readline() == b"ready\n"
        proc.stdout.close()
        proc.stdin.write(b"go\n")
        proc.stdin.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
    assert code == 141
