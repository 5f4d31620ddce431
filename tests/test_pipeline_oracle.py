"""The benchmark's oracle (bench/oracle.py, which never imports gpd) on the
results of gpd's own pipeline: every ladder rung of bench/workloads.py and
rotation(6,6), the largest rotation the catalog allows, each through every
stage, checked as a benchmark round checks it; then random small models,
drawn with bench/docs.py's seeded document builders."""

import pathlib
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))

import docs  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from gpd import algebra, cartan, groupoid, serialize  # noqa: E402

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


@settings(max_examples=100, deadline=None)
@given(models())
def test_random_models_pass_the_oracle(case):
    doc = case["groupoid"]
    g, haar = serialize.load_groupoid(doc)
    cc = algebra.cc_space(g)
    alg = algebra.concrete_algebra(g, haar=haar)
    structure = algebra.block_structure(alg)
    rep = cartan.cartan_report(g, None, haar, cc)
    uep = workloads._or_not_masa(lambda: cartan.uep_report(g, None, haar, alg, rep)["counts"])
    weyl = workloads._or_not_masa(lambda: cartan.weyl_relation(alg)[0])
    if weyl != "NotMasa":
        weyl = (list(weyl.units.points), [(weyl.r[a], weyl.s[a]) for a in weyl.arrows])
    res = {
        "principal": groupoid.classify(g)["principal"],
        "blocks": tuple(sorted(structure["sizes"], reverse=True)),
        "dim": alg.dim,
        "overall": rep.overall,
        "masa": rep.masa,
        "uep": uep,
        "weyl": weyl,
    }
    assert oracle.check_pipeline(res, doc) == []
