"""The benchmark's oracle (bench/oracle.py, which never imports gpd) on the
results of gpd's own pipeline: every ladder rung of bench/workloads.py and
rotation(6,6), the largest rotation the catalog allows, each through every
stage, checked as a benchmark round checks it; then random small models,
drawn with bench/docs.py's seeded document builders, and random bicharacter
twists of Z_a x Z_b, over one unit and over an orbit of two points."""

import itertools
import pathlib
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))

import docs  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from gpd import algebra, cartan, finitetop, groupoid, serialize  # noqa: E402
from gpd.qlin import QC  # noqa: E402

MODELS = workloads.RUNGS + (("rotation(6,6)", "rotation", {"n": 6, "m": 6}),)


@pytest.mark.parametrize("kind, params", [m[1:] for m in MODELS], ids=[m[0] for m in MODELS])
def test_pipeline_passes_the_oracle(kind, params):
    g, haar, sigma = workloads.build_rung(kind, params)
    doc = serialize.groupoid_doc(g, haar)
    cocycle = None if sigma is None else serialize.cocycle_doc(sigma)
    _, res = workloads.pipeline(kind, params)
    assert oracle.check_pipeline(res, doc, cocycle) == []


def _split(draw, total, parts):
    """A list of sizes drawn from `parts` (which holds 1) summing to total."""
    sizes = []
    while total:
        sizes.append(draw(st.sampled_from([p for p in parts if p <= total])))
        total -= sizes[-1]
    return sizes


@st.composite
def models(draw):
    """The groupoid document of a discrete equivalence relation on at most 6
    points, or of Z_n (n in 2, 3, 4, 6) acting on at most 8 discrete points
    by one permutation whose cycle lengths divide n, so that every isotropy
    group is abelian."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        total = draw(st.integers(1, 6))
        return docs.relation_case(rng, _split(draw, total, range(1, total + 1)), "relation")
    n = draw(st.sampled_from((2, 3, 4, 6)))
    lengths = _split(draw, draw(st.integers(1, 8)), [d for d in range(1, n + 1) if n % d == 0])
    return docs.cyclic_case(rng, n, lengths, "cyclic")


def _pipeline_result(g, haar, sigma=None):
    """The plain values `oracle.check_pipeline` reads, as a ladder round
    computes them."""
    cc = algebra.cc_space(g)
    alg = algebra.concrete_algebra(g, sigma=sigma, haar=haar)
    structure = algebra.block_structure(alg)
    rep = cartan.cartan_report(g, sigma, haar, cc)
    uep = workloads._or_not_masa(lambda: cartan.uep_report(g, sigma, haar, alg, rep)["counts"])
    weyl = workloads._or_not_masa(lambda: cartan.weyl_relation(alg)[0])
    if weyl != "NotMasa":
        weyl = (list(weyl.units.points), [(weyl.r[a], weyl.s[a]) for a in weyl.arrows])
    return {
        "principal": groupoid.classify(g)["principal"],
        "blocks": tuple(sorted(structure["sizes"], reverse=True)),
        "dim": alg.dim,
        "overall": rep.overall,
        "masa": rep.masa,
        "uep": uep,
        "weyl": weyl,
    }


@settings(max_examples=100, deadline=None)
@given(models())
def test_random_models_pass_the_oracle(case):
    doc = case["groupoid"]
    g, haar = serialize.load_groupoid(doc)
    assert oracle.check_pipeline(_pipeline_result(g, haar), doc) == []


POWERS = (QC(1), QC(0, 1), QC(-1), QC(0, -1))


def bicharacter_model(a, b, exps, k, rng):
    """Z_a x Z_b x Z_k translating k discrete points through its last
    factor, so that the points form one free orbit of Z_k with isotropy
    Z_a x Z_b at each (k = 1: the group over one unit). The twist is the
    bicharacter (x, y) -> i^(sum of exps[j][l] x_j y_l over j, l < 2) of
    Z_a x Z_b, times the coboundary of a random f with values in {±1, ±i}."""
    elems = list(itertools.product(range(a), range(b), range(k)))
    name = {e: "".join(map(str, e)) for e in elems}
    elem = {v: e for e, v in name.items()}

    def add(x, y):
        return tuple((u + v) % n for u, v, n in zip(x, y, (a, b, k)))

    group = {
        "elements": list(elem),
        "mul": {(name[x], name[y]): name[add(x, y)] for x in elems for y in elems},
        "identity": name[0, 0, 0],
    }
    points = [f"p{t}" for t in range(k)]
    action = {name[e]: {f"p{t}": f"p{(t + e[2]) % k}" for t in range(k)} for e in elems}
    space = finitetop.make_space(points, {x: {x} for x in points})
    g = groupoid.transformation_groupoid(group, action, space, name="bicharacter")
    f = {e: rng.choice(POWERS) for e in elems}
    f[0, 0, 0] = QC(1)

    def omega(x, y):
        power = sum(exps[j][l] * x[j] * y[l] for j in range(2) for l in range(2))
        return POWERS[power % 4] * f[x] * f[y] / f[add(x, y)]

    # an arrow "x|p" is the group element x at the point p
    sigma = algebra.make_cocycle(
        g, {(p, q): omega(elem[p.split("|")[0]], elem[q.split("|")[0]]) for p, q in g.comp}
    )
    return g, groupoid.HaarSystem.counting(g), sigma


@st.composite
def bicharacters(draw):
    """(a, b, exps, seed): exps[j][l] is an exponent of i whose power is
    well defined on Z_a x Z_b, so 4 divides it times the orders of both
    factors it pairs."""
    orders = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    exps = [
        [draw(st.sampled_from([t for t in range(4) if t * orders[j] % 4 == t * orders[l] % 4 == 0]))
         for l in range(2)]
        for j in range(2)
    ]
    return (*orders, exps, draw(st.integers(0, 2**16)))


@settings(max_examples=8, deadline=None)
@given(bicharacters())
@example((4, 4, [[0, 0], [2, 0]], 0))
def test_random_twisted_models_pass_the_oracle(params):
    # An orbit of k points twisted this way has |R| blocks of size
    # k * sqrt(|H| / |R|), R being the radical of the twist on its isotropy
    # H, so these reach centres with several blocks larger than 1 (Z4 x Z4
    # twisted by (-1)^(x_2 y_1): 4 blocks of size 2 over one unit, of size
    # 4 over an orbit of 2 points).
    a, b, exps, seed = params
    for orbit in (1, 2):
        g, haar, sigma = bicharacter_model(a, b, exps, orbit, random.Random(seed))
        doc, cocycle = serialize.groupoid_doc(g, haar), serialize.cocycle_doc(sigma)
        assert oracle.check_pipeline(_pipeline_result(g, haar, sigma), doc, cocycle) == []
