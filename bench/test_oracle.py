"""Tests of the independent checks: each accepts the right answer and
rejects a deliberately corrupted one. Pure Python; gpd is not imported.

    python3 -m pytest bench/test_oracle.py -q
"""

import copy
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402

# ------------------------------------------------------- documents by hand


def _space(points, nbhd=None):
    nbhd = nbhd or {x: [x] for x in points}
    return {"points": sorted(points), "min_nbhd": {x: sorted(v) for x, v in nbhd.items()}}


def relation_doc(classes):
    points = [x for c in classes for x in c]
    arrows = [(x, y) for c in classes for x in c for y in c]
    ids = {p: f"{p[0]}~{p[1]}" for p in arrows}
    return {
        "units": _space(points),
        "arrows": [{"id": ids[(x, y)], "r": x, "s": y} for x, y in arrows],
        "inv": {ids[(x, y)]: ids[(y, x)] for x, y in arrows},
        "comp": [[ids[(x, y)], ids[(y2, z)], ids[(x, z)]]
                 for x, y in arrows for y2, z in arrows if y == y2],
        "arrow_min_nbhd": {ids[p]: [ids[p]] for p in arrows},
    }


def cyclic_doc(n, cycles):
    """Z_n acting on the points of `cycles` by rotating each cycle."""
    step = {c[i]: c[(i + 1) % len(c)] for c in cycles for i in range(len(c))}

    def act(k, x):
        for _ in range(k % n):
            x = step[x]
        return x

    points = sorted(step)
    arrows = [(k, x) for k in range(n) for x in points]

    def aid(k, x):
        return f"{k}|{x}"

    return {
        "units": _space(points),
        "arrows": [{"id": aid(k, x), "r": act(k, x), "s": x} for k, x in arrows],
        "inv": {aid(k, x): aid(-k % n, act(k, x)) for k, x in arrows},
        "comp": [[aid(k, act(j, x)), aid(j, x), aid((k + j) % n, x)]
                 for k in range(n) for j, x in arrows],
        "arrow_min_nbhd": {aid(k, x): [aid(k, x)] for k, x in arrows},
    }


def group_doc(elements, mul, inv):
    return {
        "units": _space(["*"]),
        "arrows": [{"id": a, "r": "*", "s": "*"} for a in elements],
        "inv": {a: inv(a) for a in elements},
        "comp": [[a, b, mul(a, b)] for a in elements for b in elements],
        "arrow_min_nbhd": {a: [a] for a in elements},
    }


def _quad(k):
    """i^k as [re_num, re_den, im_num, im_den]."""
    return [[1, 1, 0, 1], [0, 1, 1, 1], [-1, 1, 0, 1], [0, 1, -1, 1]][k % 4]


KLEIN = ["00", "01", "10", "11"]


def klein(twisted):
    doc = group_doc(KLEIN, lambda a, b: "".join(str(int(x) ^ int(y)) for x, y in zip(a, b)),
                    lambda a: a)
    cocycle = {"groupoid": "", "values": [
        [a, b, _quad(2 * int(a[1]) * int(b[0]))] for a in KLEIN for b in KLEIN]}
    return doc, (cocycle if twisted else None)


def z4xz4():
    elems = [f"{a}{b}" for a in range(4) for b in range(4)]

    def mul(x, y):
        return f"{(int(x[0]) + int(y[0])) % 4}{(int(x[1]) + int(y[1])) % 4}"

    doc = group_doc(elems, mul, lambda x: f"{-int(x[0]) % 4}{-int(x[1]) % 4}")
    cocycle = {"groupoid": "", "values": [
        [x, y, _quad(int(x[1]) * int(y[0]))] for x in elems for y in elems]}
    return doc, cocycle


def non_separated_doc():
    """The arrows x~y and y~y share their source y and, here, a neighbourhood."""
    doc = relation_doc([["x", "y"]])
    doc["arrow_min_nbhd"]["x~y"] = ["x~y", "y~y"]
    return doc


# ----------------------------------------------------------- the formulas


@pytest.mark.parametrize("doc, cocycle, blocks", [
    (relation_doc([["a", "b", "c"], ["d", "e"], ["f"]]), None, (3, 2, 1)),
    (cyclic_doc(4, [["a", "b", "c", "d"], ["e", "f"]]), None, (4, 2, 2)),
    (cyclic_doc(3, [["a"]]), None, (1, 1, 1)),
    (*klein(False), (1, 1, 1, 1)),
    (*klein(True), (2,)),
    (*z4xz4(), (4,)),
])
def test_expected_blocks(doc, cocycle, blocks):
    assert oracle.expected_blocks(doc, cocycle) == blocks


def test_expected_blocks_refuses_a_non_discrete_groupoid():
    with pytest.raises(oracle.Unsupported):
        oracle.expected_blocks(non_separated_doc())


def test_principal_and_separation_from_the_arrow_list():
    assert oracle.principal(relation_doc([["a", "b"]]))
    assert not oracle.principal(cyclic_doc(2, [["a"], ["b", "c"]]))
    assert oracle.arrows_separated(relation_doc([["a", "b"]]))
    assert not oracle.arrows_separated(non_separated_doc())


# ------------------------------------------- reports, right and corrupted


def analyze_report(doc):
    iso = oracle.isotropy(doc)
    return {
        "arrow_count": len(doc["arrows"]),
        "orbits": oracle.orbits(doc),
        "classify": {"principal": oracle.principal(doc),
                     "hausdorff_arrows": oracle.arrows_separated(doc)},
        "isotropy": {x: {"order": len(v)} for x, v in iso.items()},
    }


def algebra_report(doc, cocycle=None):
    blocks = list(oracle.expected_blocks(doc, cocycle))
    return {"arrow_count": len(doc["arrows"]), "blocks": blocks,
            "closed_dim": sum(n * n for n in blocks), "cstar_identity": {"ok": True}}


def cartan_report(doc):
    p = oracle.principal(doc)
    uep = {x: 1 for x in doc["units"]["points"]} if p else "not maximal abelian"
    return {"cartan": {"overall": p, "masa": p, "masa_witness": None if p else {}}, "uep": uep}


def _corrupt(rep, path, value):
    bad = copy.deepcopy(rep)
    node = bad
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return bad


DOC = cyclic_doc(2, [["a"], ["b", "c"]])


def test_analyze_check():
    rep = analyze_report(DOC)
    assert oracle.check_analyze(rep, DOC) == []
    assert oracle.check_analyze(_corrupt(rep, ["classify", "principal"], True), DOC)
    assert oracle.check_analyze(_corrupt(rep, ["orbits"], [["a", "b", "c"]]), DOC)
    assert oracle.check_analyze(_corrupt(rep, ["isotropy", "a", "order"], 1), DOC)
    assert oracle.check_analyze(_corrupt(rep, ["classify", "hausdorff_arrows"], False), DOC)


@pytest.mark.parametrize("doc, cocycle", [(DOC, None), klein(True), z4xz4()])
def test_algebra_check(doc, cocycle):
    rep = algebra_report(doc, cocycle)
    assert oracle.check_algebra(rep, doc, cocycle) == []
    assert oracle.check_algebra(_corrupt(rep, ["blocks"], [1] * rep["closed_dim"]), doc, cocycle)
    assert oracle.check_algebra(_corrupt(rep, ["closed_dim"], rep["closed_dim"] + 1), doc, cocycle)
    assert oracle.check_algebra(_corrupt(rep, ["cstar_identity", "ok"], False), doc, cocycle)


def test_algebra_check_with_the_papers_multiset():
    rep = {"arrow_count": 10, "blocks": [2, 2, 1, 1], "closed_dim": 10,
           "cstar_identity": {"ok": True}}
    doc = {"arrows": [{}] * 10}  # with the multiset given, only the arrows are counted
    assert oracle.check_algebra(rep, doc, blocks=(2, 2, 1, 1)) == []
    assert oracle.check_algebra(_corrupt(rep, ["blocks"], [2, 2, 2]), doc, blocks=(2, 2, 1, 1))


@pytest.mark.parametrize("doc", [DOC, relation_doc([["a", "b"], ["c"]])])
def test_cartan_check(doc):
    rep = cartan_report(doc)
    assert oracle.check_cartan(rep, doc) == []
    p = oracle.principal(doc)
    assert oracle.check_cartan(_corrupt(rep, ["cartan", "overall"], not p), doc)
    assert oracle.check_cartan(_corrupt(rep, ["cartan", "masa"], not p), doc)


def test_cartan_check_rejects_counts_other_than_one_on_a_principal_groupoid():
    doc = relation_doc([["a", "b"], ["c"]])
    assert oracle.check_cartan(_corrupt(cartan_report(doc), ["uep", "a"], 2), doc)


def test_cartan_check_on_twisted_scalars():
    doc, _ = klein(True)
    rep = {"cartan": {"overall": False, "masa": False}, "uep": "not maximal abelian"}
    assert oracle.check_cartan(rep, doc, twisted=True) == []
    assert oracle.check_cartan(_corrupt(rep, ["cartan", "masa"], True), doc, twisted=True)


def test_reflection_check():
    rep = {"cartan": {"overall": True}, "uep": {"l": 1, "m": 2, "r": 1}}
    assert oracle.check_reflection(rep, "m") == []
    assert oracle.check_reflection(_corrupt(rep, ["uep", "m"], 1), "m")
    assert oracle.check_reflection(_corrupt(rep, ["uep", "l"], 2), "m")
    assert oracle.check_reflection(_corrupt(rep, ["cartan", "overall"], False), "m")


def test_two_involutions_check():
    doc = non_separated_doc()
    rep = {"cartan": {"masa": False, "masa_witness": {"coeffs": {}}}}
    assert oracle.check_two_involutions(rep, doc) == []
    assert oracle.check_two_involutions(_corrupt(rep, ["cartan", "masa"], True), doc)
    assert oracle.check_two_involutions(rep, relation_doc([["x"], ["y"]]))


def test_germify_check():
    action = {"space": _space(["a", "b", "c", "d"]),
              "generators": [{"name": "s", "dom": ["a", "b", "c", "d"],
                              "map": {"a": "b", "b": "a", "c": "c", "d": "d"}}]}
    assert oracle.germ_arrow_count(action) == 4 + 1 + 1
    good = relation_doc([["a", "b"], ["c"], ["d"]])
    assert oracle.check_germify(good, action) == []
    assert oracle.check_germify(relation_doc([["a", "b", "c"], ["d"]]), action)


def test_weyl_check():
    doc = cyclic_doc(2, [["a", "b"], ["c", "d"]])
    pairs = [(x, y) for c in (["a", "b"], ["c", "d"]) for x in c for y in c]
    assert oracle.check_weyl(["a", "b", "c", "d"], pairs, doc) == []
    assert oracle.check_weyl(["a", "b", "c", "d"], pairs + [("b", "c")], doc)


def pipeline_result(doc, cocycle=None):
    blocks = oracle.expected_blocks(doc, cocycle)
    p = oracle.principal(doc)
    masa = p if cocycle is None else False
    points = doc["units"]["points"]
    pairs = [(a["r"], a["s"]) for a in doc["arrows"]]
    return {"principal": p, "blocks": blocks, "dim": sum(n * n for n in blocks),
            "overall": masa, "masa": masa,
            "uep": {x: 1 for x in points} if masa else "NotMasa",
            "weyl": (points, pairs) if masa else "NotMasa"}


def test_pipeline_check_on_a_principal_model():
    doc = relation_doc([["a", "b", "c"], ["d"]])
    res = pipeline_result(doc)
    assert oracle.check_pipeline(res, doc) == []
    assert oracle.check_pipeline({**res, "blocks": (3, 1, 1)}, doc)
    assert oracle.check_pipeline({**res, "dim": 9}, doc)
    assert oracle.check_pipeline({**res, "principal": False}, doc)
    assert oracle.check_pipeline({**res, "overall": False}, doc)
    assert oracle.check_pipeline({**res, "uep": {"a": 2, "b": 1, "c": 1, "d": 1}}, doc)
    assert oracle.check_pipeline({**res, "weyl": "NotMasa"}, doc)
    points, pairs = res["weyl"]
    assert oracle.check_pipeline({**res, "weyl": (points, pairs + [("c", "d")])}, doc)


def test_pipeline_check_on_twisted_z4xz4():
    doc, cocycle = z4xz4()
    res = pipeline_result(doc, cocycle)
    assert res["blocks"] == (4,)
    assert oracle.check_pipeline(res, doc, cocycle) == []
    assert oracle.check_pipeline({**res, "masa": True}, doc, cocycle)
    assert oracle.check_pipeline({**res, "uep": {"*": 1}}, doc, cocycle)
    assert oracle.check_pipeline({**res, "weyl": (["*"], [("*", "*")])}, doc, cocycle)
    assert oracle.check_pipeline({**res, "blocks": (2, 2, 2, 2)}, doc, cocycle)


def catalog_report():
    pair = relation_doc([["0", "1", "2"]])
    kdoc, kcocycle = klein(True)
    refs = {"pair": {"groupoid": pair, "cocycle": None},
            "cocycle_klein": {"groupoid": kdoc, "cocycle": kcocycle}}
    entries = []
    for name, ref in refs.items():
        twisted = ref["cocycle"] is not None
        cartan = cartan_report(ref["groupoid"])
        if twisted:
            cartan = {"cartan": {"overall": False, "masa": False}, "uep": "not maximal abelian"}
        entries.append({
            "entry": name,
            "manifest": [{"label": "holds", "ok": True, "detail": ""}],
            "analyze": analyze_report(ref["groupoid"]),
            "algebra": algebra_report(ref["groupoid"], ref["cocycle"]),
            "cartan": cartan,
        })
    report = {"entries": entries, "all_ok": True,
              "cross_entry": [{"label": "shared multiset", "ok": True, "detail": ""}]}
    return report, refs


def test_catalog_check():
    report, refs = catalog_report()
    assert oracle.check_catalog(report, refs) == []
    assert oracle.check_catalog(_corrupt(report, ["all_ok"], False), refs)
    assert oracle.check_catalog(_corrupt(report, ["cross_entry", 0, "ok"], False), refs)
    assert oracle.check_catalog(_corrupt(report, ["entries", 0, "manifest", 0, "ok"], False), refs)
    assert oracle.check_catalog(_corrupt(report, ["entries", 1, "algebra", "blocks"], [1, 1, 1, 1]), refs)
    assert oracle.check_catalog(_corrupt(report, ["entries", 1, "cartan", "cartan", "masa"], True), refs)
    assert oracle.check_catalog({**report, "entries": report["entries"][:1]}, refs)
