"""Answers computed apart from gpd, and checks of gpd's outputs against them.

Everything here reads the documented JSON formats (groupoid, cocycle and
action documents, and the CLI's reports) and never imports gpd. The
expected answers come from the theory the paper relies on:

- a discrete groupoid whose isotropy groups are abelian has, for each
  orbit O with isotropy group H_O twisted by the cocycle's restriction s,
  |R| simple blocks of size |O| * sqrt(|H_O| / |R|), where R is the radical
  {h : s(h, k) = s(k, h) for all k} of the twist (untwisted: R = H_O, so
  |H_O| blocks of size |O|; a nondegenerate twist: one block);
- a groupoid is principal exactly when its isotropy groups are trivial, and
  on a discrete untwisted groupoid the unit functions form a Cartan pair,
  and are maximal abelian, exactly then, with unique extensions;
- the germ groupoid of permutations of a discrete set is the orbit relation
  of the group they generate, so it has sum |O|^2 arrows;
- the paper's reflection of the interval has two extensions at its fixed
  point, and the two-involution example has non-separated arrows and unit
  functions that are not maximal abelian.

Each `check_*` function returns a list of problems; an empty list means the
output agrees with the theory.
"""

from __future__ import annotations

import math
from fractions import Fraction

# ------------------------------------------------------------ document facts


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def union_find_orbits(points, edges):
    """Classes of the equivalence relation generated by `edges`, sorted."""
    parent = {x: x for x in points}
    for x, y in edges:
        rx, ry = _find(parent, x), _find(parent, y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    classes = {}
    for x in points:
        classes.setdefault(_find(parent, x), []).append(x)
    return sorted(sorted(c) for c in classes.values())


def orbits(doc):
    return union_find_orbits(
        doc["units"]["points"], [(a["r"], a["s"]) for a in doc["arrows"]]
    )


def isotropy(doc):
    """Arrows from each point to itself, by point."""
    out = {x: [] for x in doc["units"]["points"]}
    for a in doc["arrows"]:
        if a["r"] == a["s"]:
            out[a["r"]].append(a["id"])
    return {x: sorted(v) for x, v in out.items()}


def principal(doc):
    return all(len(arrows) == 1 for arrows in isotropy(doc).values())


def is_discrete(doc):
    singleton = all(
        nb == [x] for x, nb in doc["units"]["min_nbhd"].items()
    )
    return singleton and all(
        nb == [a] for a, nb in doc["arrow_min_nbhd"].items()
    )


def arrows_separated(doc):
    """Distinct arrows with a common source or range have disjoint
    neighbourhoods."""
    nbhd = {a: set(v) for a, v in doc["arrow_min_nbhd"].items()}
    for key in ("r", "s"):
        fibres = {}
        for a in doc["arrows"]:
            fibres.setdefault(a[key], []).append(a["id"])
        for fibre in fibres.values():
            for i, a in enumerate(fibre):
                for b in fibre[i + 1:]:
                    if nbhd[a] & nbhd[b]:
                        return False
    return True


def _quad(q):
    return (Fraction(q[0], q[1]), Fraction(q[2], q[3]))


class Unsupported(ValueError):
    """The theory above gives no answer for this document."""


def expected_blocks(doc, cocycle=None):
    """Block multiset (largest first) of a discrete groupoid with abelian
    isotropy, optionally twisted by a cocycle document."""
    if not is_discrete(doc):
        raise Unsupported("the block formula needs a discrete groupoid")
    comp = {(a, b): c for a, b, c in doc["comp"]}
    sigma = {}
    if cocycle is not None:
        sigma = {(a, b): _quad(v) for a, b, v in cocycle["values"]}
    one = (Fraction(1), Fraction(0))
    iso = isotropy(doc)
    sizes = []
    for orbit in orbits(doc):
        h = iso[orbit[0]]
        for x in h:
            for y in h:
                if comp[(x, y)] != comp[(y, x)]:
                    raise Unsupported(f"isotropy at {orbit[0]!r} is not abelian")
        radical = [
            x for x in h
            if all(sigma.get((x, y), one) == sigma.get((y, x), one) for y in h)
        ]
        side = math.isqrt(len(h) // len(radical))
        if side * side * len(radical) != len(h):
            raise Unsupported(f"twist at {orbit[0]!r} gives no square block")
        sizes += [len(orbit) * side] * len(radical)
    return tuple(sorted(sizes, reverse=True))


def germ_arrow_count(action):
    """Arrows of the germ groupoid of permutations of a discrete set."""
    space = action["space"]
    if any(nb != [x] for x, nb in space["min_nbhd"].items()):
        raise Unsupported("the germ count needs a discrete space")
    edges = [
        (x, y) for gen in action["generators"] for x, y in gen["map"].items()
    ]
    return sum(len(o) ** 2 for o in union_find_orbits(space["points"], edges))


def relation_orbit_sizes(points, pairs):
    """Class sizes, largest first, of the relation spanned by `pairs`."""
    return tuple(sorted((len(o) for o in union_find_orbits(points, pairs)), reverse=True))


def _scalar_diagonal(doc):
    """One unit and several discrete arrows: the unit functions are the
    scalars, whose commutant is the whole algebra, so they are not maximal
    abelian, twisted or not."""
    return len(doc["units"]["points"]) == 1 and len(doc["arrows"]) > 1 and is_discrete(doc)


# ---------------------------------------------------------- report checks


def check_analyze(rep, doc):
    problems = []
    if rep["arrow_count"] != len(doc["arrows"]):
        problems.append(f"arrow_count {rep['arrow_count']} != {len(doc['arrows'])}")
    if rep["orbits"] != orbits(doc):
        problems.append(f"orbits {rep['orbits']} != {orbits(doc)}")
    if rep["classify"]["principal"] != principal(doc):
        problems.append(f"principal {rep['classify']['principal']} != {principal(doc)}")
    orders = {x: len(v) for x, v in isotropy(doc).items()}
    got = {x: v["order"] for x, v in rep["isotropy"].items()}
    if got != orders:
        problems.append(f"isotropy orders {got} != {orders}")
    if rep["classify"]["hausdorff_arrows"] != arrows_separated(doc):
        problems.append("hausdorff_arrows disagrees with the neighbourhood table")
    return problems


def check_algebra(rep, doc, cocycle=None, blocks=None):
    """`blocks` overrides the formula, for the paper's non-discrete models."""
    problems = []
    if blocks is None and is_discrete(doc):
        blocks = expected_blocks(doc, cocycle)
    if blocks is not None and tuple(rep["blocks"]) != tuple(blocks):
        problems.append(f"blocks {rep['blocks']} != {list(blocks)}")
    if sum(n * n for n in rep["blocks"]) != rep["closed_dim"]:
        problems.append(f"sum n^2 of {rep['blocks']} != closed_dim {rep['closed_dim']}")
    if not rep["cstar_identity"]["ok"]:
        problems.append(f"C*-identity probe fails: {rep['cstar_identity']}")
    if rep["arrow_count"] != len(doc["arrows"]):
        problems.append(f"arrow_count {rep['arrow_count']} != {len(doc['arrows'])}")
    return problems


def check_cartan(rep, doc, twisted=False):
    problems = []
    cr = rep["cartan"]
    if _scalar_diagonal(doc) and cr["masa"]:
        problems.append("the scalars reported maximal abelian in a larger algebra")
    if is_discrete(doc) and not twisted:
        p = principal(doc)
        if not (cr["overall"] == cr["masa"] == p):
            problems.append(f"overall {cr['overall']} / masa {cr['masa']} != principal {p}")
    if principal(doc) and is_discrete(doc) and not twisted:
        counts = rep["uep"]
        want = {x: 1 for x in doc["units"]["points"]}
        if counts != want:
            problems.append(f"extension counts {counts} != {want}")
    if not cr["masa"] and not isinstance(rep["uep"], str):
        problems.append("extension counts given without a maximal abelian diagonal")
    return problems


def check_reflection(rep, fixed_point):
    """The paper's interval reflection: a Cartan pair with exactly two
    extensions at the fixed point and one elsewhere."""
    problems = []
    if not rep["cartan"]["overall"]:
        problems.append("the reflection pair fails the Cartan conditions")
    counts = rep["uep"]
    if not isinstance(counts, dict) or counts.get(fixed_point) != 2:
        problems.append(f"extension count at the fixed point is not 2: {counts}")
    elif any(v != 1 for x, v in counts.items() if x != fixed_point):
        problems.append(f"extension counts away from the fixed point are not 1: {counts}")
    return problems


def check_two_involutions(rep, doc):
    problems = []
    if arrows_separated(doc):
        problems.append("two-involution germ groupoid has separated arrows")
    if rep["cartan"]["masa"]:
        problems.append("two-involution unit functions reported maximal abelian")
    if rep["cartan"]["masa_witness"] is None:
        problems.append("no commutant witness for the maximal abelian failure")
    return problems


def check_germify(doc, action):
    want = germ_arrow_count(action)
    if len(doc["arrows"]) != want:
        return [f"germ groupoid has {len(doc['arrows'])} arrows, not {want}"]
    return []


def check_weyl(points, pairs, doc):
    """Reconstructed orbit classes against union-find orbits of the source."""
    got = relation_orbit_sizes(points, pairs)
    want = tuple(sorted((len(o) for o in orbits(doc)), reverse=True))
    if got != want:
        return [f"reconstructed orbit sizes {got} != {want}"]
    return []


def check_pipeline(res, doc, cocycle=None):
    """One ladder rung. `res` holds plain values read off the pipeline:
    principal, blocks (largest first), dim, overall, masa, uep (extension
    counts, or "NotMasa") and weyl ((points, pairs) of the reconstructed
    relation, or "NotMasa")."""
    problems = []
    p = principal(doc)
    if res["principal"] != p:
        problems.append(f"principal {res['principal']} != {p}")
    want = expected_blocks(doc, cocycle)
    if tuple(res["blocks"]) != want:
        problems.append(f"blocks {tuple(res['blocks'])} != {want}")
    if sum(n * n for n in res["blocks"]) != res["dim"]:
        problems.append(f"sum n^2 of {res['blocks']} != dim {res['dim']}")
    if cocycle is None:
        if not (res["overall"] == res["masa"] == p):
            problems.append(f"overall {res['overall']} / masa {res['masa']} != principal {p}")
    elif _scalar_diagonal(doc) and res["masa"]:
        problems.append("the scalars reported maximal abelian in a larger algebra")
    if res["masa"]:
        if p and res["uep"] != {x: 1 for x in doc["units"]["points"]}:
            problems.append(f"extension counts {res['uep']} are not all 1 on a principal groupoid")
        if res["weyl"] == "NotMasa":
            problems.append("weyl_relation refused a maximal abelian diagonal")
        else:
            problems += check_weyl(*res["weyl"], doc)
    else:
        for stage in ("uep", "weyl"):
            if res[stage] != "NotMasa":
                problems.append(f"{stage} did not raise NotMasa without a maximal abelian diagonal")
    return problems


# Catalog entries whose block multiset follows from the theory: the discrete
# ones by the formula, the paper's reflection and doubled-origin models by
# the paper's multiset {2,2,1,1}.
PAPER_BLOCKS = {"cross_a1": (2, 2, 1, 1), "cross_a4": (2, 2, 1, 1)}
FORMULA_ENTRIES = ("pair", "rotation", "fourier", "cocycle_klein")


def check_catalog(report, refs):
    """A `catalog --all --json` report. `refs` maps entry names to
    {"groupoid": doc, "cocycle": doc or None} built apart from the pass."""
    problems = []
    if report.get("all_ok") is not True:
        problems.append("all_ok is not true")
    for check in report["cross_entry"]:
        if not check["ok"]:
            problems.append(f"cross-entry check failed: {check['label']}")
    for entry in report["entries"]:
        name = entry["entry"]
        for item in entry["manifest"]:
            if not item["ok"]:
                problems.append(f"{name}: manifest label failed: {item['label']} {item['detail']}")
        alg = entry["algebra"]
        if sum(n * n for n in alg["blocks"]) != alg["closed_dim"]:
            problems.append(f"{name}: sum n^2 of {alg['blocks']} != closed_dim {alg['closed_dim']}")
        if not alg["cstar_identity"]["ok"]:
            problems.append(f"{name}: C*-identity probe fails")
        ref = refs.get(name)
        if ref is None:
            continue
        doc, cocycle = ref["groupoid"], ref.get("cocycle")
        found = check_analyze(entry["analyze"], doc)
        found += check_algebra(alg, doc, cocycle, PAPER_BLOCKS.get(name))
        found += check_cartan(entry["cartan"], doc, twisted=cocycle is not None)
        if name == "cross_a1":
            found += check_reflection(entry["cartan"], "0")
        if name == "skandalis":
            found += check_two_involutions(entry["cartan"], doc)
        problems += [f"{name}: {p}" for p in found]
    missing = sorted(set(refs) - {e["entry"] for e in report["entries"]})
    if missing:
        problems.append(f"entries missing from the report: {missing}")
    return problems
