"""Seeded input documents, built through gpd's own constructors and serializers.

Every family has a fixed shape per slot (class sizes, cycle types, orbit
structures), so the cost of a round is the same for every seed; the seed
picks point labels, which points share a class or cycle, the generators of
the germify actions and a coboundary for the Klein twist. Each slot's
answer is known apart from gpd (see oracle.py), and `check_cases`
verifies that the documents gpd serialized have the orbits the generator
asked for.
"""

from __future__ import annotations

import json
import os
import random

from gpd.algebra import make_cocycle
from gpd.catalog import INTERVAL_NBHD, INTERVAL_REFLECTION
from gpd.finitetop import make_space
from gpd.germs import make_partial_homeo
from gpd.groupoid import (
    HaarSystem,
    make_groupoid,
    relation_groupoid,
    transformation_groupoid,
)
from gpd.qlin import QC
from gpd.serialize import cocycle_doc, groupoid_doc, space_doc

import oracle

# Class sizes of the discrete equivalence relations.
RELATION_SLOTS = ([3, 2, 1], [2, 2, 2], [3, 3], [2, 1, 1, 1])
# (group order n, cycle lengths) of Z_n acting by one permutation; every
# length divides n, and a length below n leaves abelian isotropy Z_(n/len).
CYCLIC_SLOTS = ((4, [4, 2]), (3, [3, 3]), (2, [2, 1, 1]), (4, [2, 1]))
# Orbit sizes of the permutation actions fed to germify.
ACTION_SLOTS = ([3, 2, 1], [2, 2, 1, 1], [3, 1, 1])
# The paper's two-involution space: two pairs of closed points swapped by
# the two involutions, and two fixed points whose neighbourhoods meet all four.
TWO_INVOLUTION_NBHD = {
    "y1": {"y1"},
    "y2": {"y2"},
    "z1": {"z1"},
    "z2": {"z2"},
    "a": {"y1", "y2", "z1", "z2", "a"},
    "b": {"y1", "y2", "z1", "z2", "b"},
}
KLEIN = ("00", "01", "10", "11")


def _labels(rng, n):
    return [f"x{k:02d}" for k in sorted(rng.sample(range(100), n))]


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def _discrete(points):
    return make_space(points, {p: {p} for p in points})


def _classes(rng, sizes):
    points = _shuffled(rng, _labels(rng, sum(sizes)))
    out, at = [], 0
    for k in sizes:
        out.append(points[at:at + k])
        at += k
    return out


def relation_case(rng, sizes, name):
    classes = _classes(rng, sizes)
    points = [p for c in classes for p in c]
    pairs = [(x, y) for c in classes for x in c for y in c]
    g, haar = relation_groupoid(_discrete(points), pairs, "product", name=name)
    return {"kind": "relation", "name": name, "groupoid": groupoid_doc(g, haar),
            "classes": classes}


def cyclic_case(rng, n, lengths, name):
    classes = _classes(rng, lengths)
    step = {}
    for cyc in classes:
        for i, x in enumerate(cyc):
            step[x] = cyc[(i + 1) % len(cyc)]
    points = sorted(step)
    action = {}
    for k in range(n):
        image = {}
        for x in points:
            y = x
            for _ in range(k):
                y = step[y]
            image[x] = y
        action[str(k)] = image
    group = {
        "elements": [str(k) for k in range(n)],
        "mul": {(str(a), str(b)): str((a + b) % n) for a in range(n) for b in range(n)},
        "identity": "0",
    }
    g = transformation_groupoid(group, action, _discrete(points), name=name)
    return {"kind": "cyclic", "name": name,
            "groupoid": groupoid_doc(g, HaarSystem.counting(g)), "classes": classes}


def klein_case(rng, name):
    """The Klein group over one unit with its nontrivial cocycle
    (-1)^(a_2 b_1), times the coboundary of a random unit-modulus f."""
    labels = dict(zip(KLEIN, _labels(rng, 4)))
    labels["00"] = "e"
    arrows = [labels[a] for a in KLEIN]

    def mul(a, b):
        return "".join(str(int(x) ^ int(y)) for x, y in zip(a, b))

    g = make_groupoid(
        units=_discrete(["*"]),
        arrows=arrows,
        r={a: "*" for a in arrows},
        s={a: "*" for a in arrows},
        inv={a: a for a in arrows},
        comp={(labels[a], labels[b]): labels[mul(a, b)] for a in KLEIN for b in KLEIN},
        arrow_min_nbhd={a: {a} for a in arrows},
        unit_arrow={"*": "e"},
        name=name,
    )
    fourth = (QC(1), QC(0, 1), QC(-1), QC(0, -1))
    f = {a: fourth[rng.randrange(4)] for a in KLEIN}
    f["00"] = QC(1)
    sigma = {
        (labels[a], labels[b]): QC((-1) ** (int(a[1]) * int(b[0]))) * f[a] * f[b] / f[mul(a, b)]
        for a in KLEIN
        for b in KLEIN
    }
    c = make_cocycle(g, sigma)
    return {"kind": "klein", "name": name,
            "groupoid": groupoid_doc(g, HaarSystem.counting(g)), "cocycle": cocycle_doc(c),
            "classes": [["*"]]}


def _action_doc(space, gens):
    return {
        "space": space_doc(space),
        "generators": [
            {"name": h.name, "dom": sorted(h.dom), "map": dict(sorted(h.mapping.items()))}
            for h in gens
        ],
    }


def permutation_case(rng, sizes, name):
    """Two permutations preserving the given orbits: a cycle on each orbit
    and a shuffle inside each orbit."""
    classes = _classes(rng, sizes)
    points = [p for c in classes for p in c]
    space = _discrete(points)
    cycle, shuffle = {}, {}
    for c in classes:
        cycle.update({x: c[(i + 1) % len(c)] for i, x in enumerate(c)})
        shuffle.update(zip(c, _shuffled(rng, c)))
    gens = [
        make_partial_homeo(space, points, cycle, "s"),
        make_partial_homeo(space, points, shuffle, "t"),
    ]
    return {"kind": "permutation", "name": name, "action": _action_doc(space, gens),
            "classes": classes}


def _relabelled_space(rng, nbhd):
    names = dict(zip(sorted(nbhd), _shuffled(rng, _labels(rng, len(nbhd)))))
    space = make_space(names.values(), {names[x]: {names[y] for y in v} for x, v in nbhd.items()})
    return space, names


def reflection_case(rng, name):
    space, names = _relabelled_space(rng, INTERVAL_NBHD)
    t = make_partial_homeo(
        space, space.points, {names[x]: names[y] for x, y in INTERVAL_REFLECTION.items()}, "T"
    )
    return {"kind": "reflection", "name": name, "action": _action_doc(space, [t]),
            "fixed_point": names["0"]}


def two_involution_case(rng, name):
    space, names = _relabelled_space(rng, TWO_INVOLUTION_NBHD)
    swaps = []
    for gname, pair in (("g1", ("y1", "y2")), ("g2", ("z1", "z2"))):
        mapping = {names[x]: names[x] for x in TWO_INVOLUTION_NBHD}
        mapping[names[pair[0]]], mapping[names[pair[1]]] = names[pair[1]], names[pair[0]]
        swaps.append(make_partial_homeo(space, space.points, mapping, gname))
    return {"kind": "two_involutions", "name": name, "action": _action_doc(space, swaps)}


def make_cases(seed):
    rng = random.Random(seed)
    cases = []
    for i, sizes in enumerate(RELATION_SLOTS):
        cases.append(relation_case(rng, sizes, f"relation{i}"))
    for i, (n, lengths) in enumerate(CYCLIC_SLOTS):
        cases.append(cyclic_case(rng, n, lengths, f"cyclic{i}"))
    cases.append(klein_case(rng, "klein"))
    for i, sizes in enumerate(ACTION_SLOTS):
        cases.append(permutation_case(rng, sizes, f"perm{i}"))
    cases.append(reflection_case(rng, "reflection"))
    cases.append(two_involution_case(rng, "two_involutions"))
    return cases


def build_documents(seed, directory):
    """Make the seed's cases and write their documents under `directory`.

    Returns the cases with the written paths filled in."""
    cases = make_cases(seed)
    os.makedirs(directory, exist_ok=True)
    for case in cases:
        for key in ("groupoid", "cocycle", "action"):
            if key in case:
                path = os.path.join(directory, f"{case['name']}.{key}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(case[key], fh, sort_keys=True)
                case[f"{key}_path"] = path
    return cases


def check_cases(cases):
    """The serialized documents must have the orbits the generator chose."""
    problems = []
    for case in cases:
        want = sorted(sorted(c) for c in case.get("classes", ()))
        if "groupoid" in case and oracle.orbits(case["groupoid"]) != want:
            problems.append(f"{case['name']}: document orbits differ from the generator's")
        if case["kind"] == "permutation":
            edges = [(x, y) for gen in case["action"]["generators"] for x, y in gen["map"].items()]
            if oracle.union_find_orbits(case["action"]["space"]["points"], edges) != want:
                problems.append(f"{case['name']}: action orbits differ from the generator's")
    return problems
