import itertools
from fractions import Fraction

import pytest

from gpd import cartan
from gpd.algebra import (
    CcSpace,
    _arrow_coords,
    cc_space,
    concrete_algebra,
    convolve,
    delta,
    make_cocycle,
    make_element,
    star,
    zero_element,
)
from gpd.cartan import (
    Analysis,
    cartan_report,
    minimal_idempotents,
    orbit_class_sizes,
    skandalis_element,
    unit_subalgebra,
    uep_report,
    weyl_relation,
)
from gpd.errors import AxiomViolation, GroupoidMismatch, InvalidCocycle, NotMasa, WrongShape
from gpd.finitetop import make_space
from gpd.germs import generate, germ_groupoid, make_partial_homeo
from gpd.groupoid import classify, make_haar, pair_groupoid, relation_groupoid
from gpd.qlin import Echelon


def algebra_of(model):
    return concrete_algebra(model["g"], sigma=model["sigma"], haar=model["haar"])


def report_of(model, alg=None):
    alg = alg or algebra_of(model)
    return cartan_report(model["g"], model["sigma"], model["haar"], alg.cc)


# ---------------------------------------------------------- unit subalgebras


def test_unit_subalgebra_dimensions(a1, a2, two_involutions, klein):
    assert isinstance(unit_subalgebra(a1["g"]), CcSpace)
    assert unit_subalgebra(a1["g"]).dim == 5
    assert unit_subalgebra(a2["g"]).dim == 4
    assert unit_subalgebra(two_involutions["g"]).dim == 1
    assert unit_subalgebra(klein["g"]).dim == 1


def test_glued_interval_unit_functions_vanish_at_center(a2):
    sub = unit_subalgebra(a2["g"])
    assert all(not b.value("0~0") for b in sub.basis)


def test_minimal_idempotents_of_interval_reflection(a1):
    g, haar = a1["g"], a1["haar"]
    sub = unit_subalgebra(g)
    idems = minimal_idempotents(sub, haar)
    assert [pts for pts, _ in idems] == [("-1",), ("0",), ("1",), ("a",), ("b",)]
    for i, (_, e) in enumerate(idems):
        assert convolve(e, e, haar) == e
        for j, (_, f) in enumerate(idems):
            if i != j:
                assert convolve(e, f, haar) == zero_element(g)


def _source_weighted(g, mu):
    """Haar weights mu(s(a)): left invariant, as s(ab) = s(b)."""
    return make_haar(g, {a: mu[g.s[a]] for a in g.arrows})


@pytest.mark.parametrize("model, mu", [
    ("pair3", {"0": 1, "1": 2, "2": Fraction(3, 2)}),
    ("klein", {"*": 3}),
    ("a1", {"-1": 2, "a": 5, "0": Fraction(1, 3), "b": 5, "1": 2}),
])
def test_spectrum_idempotents_under_non_counting_weights(request, model, mu):
    # e = (1/mu(x))·δ_x is the projection of B at x: e·e weighs the arrow
    # by mu(x) once more, and without the normalisation e·e = mu(x)·e.
    m = request.getfixturevalue(model)
    haar = _source_weighted(m["g"], mu)
    idems = minimal_idempotents(unit_subalgebra(m["g"]), haar)
    assert idems
    assert any(mu[pts[0]] != 1 for pts, _ in idems)
    for _, e in idems:
        assert convolve(e, e, haar, m["sigma"]) == e
        assert star(e, m["sigma"]) == e


# -------------------------------------------------------------- full reports


def test_interval_reflection_is_a_verified_diagonal_pair(a1):
    alg = algebra_of(a1)
    rep = report_of(a1, alg)
    assert rep.contains_unit and rep.masa and rep.overall
    assert rep.commutant_dim == 5
    assert rep.regular == "verified"
    assert len(rep.regular_family) == alg.cc.dim
    assert rep.expectation == {
        "well_defined": True,
        "idempotent": True,
        "positive": True,
        "faithful": True,
    }
    assert rep.masa_witness is None
    # the shipped identity really is a two-sided identity
    haar = a1["haar"]
    for f in alg.cc.basis:
        assert convolve(rep.unit_element, f, haar) == f
        assert convolve(f, rep.unit_element, haar) == f


def test_glued_interval_report_flags(a2):
    rep = report_of(a2)
    assert not rep.contains_unit
    assert rep.unit_element is None
    assert rep.masa
    assert rep.commutant_dim == 4
    assert rep.regular == "verified"
    assert rep.expectation["well_defined"] is False
    assert rep.expectation["idempotent"] is None
    assert rep.expectation["positive"] is None
    assert rep.expectation["faithful"] is None
    assert not rep.overall


def test_open_diagonal_and_doubled_origin_are_diagonal_pairs(a3, a4):
    for model in (a3, a4):
        rep = report_of(model)
        assert rep.overall
        assert rep.expectation == {
            "well_defined": True,
            "idempotent": True,
            "positive": True,
            "faithful": True,
        }


def test_two_involutions_report_flags(two_involutions):
    alg = algebra_of(two_involutions)
    rep = report_of(two_involutions, alg)
    assert rep.contains_unit
    assert not rep.masa
    assert rep.commutant_dim == 5
    assert rep.regular == "not verified"
    assert rep.expectation["well_defined"] is False
    assert not rep.overall
    # the shipped witness is verifiable: commutes with B, admissible, outside B
    w = rep.masa_witness
    assert w is not None
    assert alg.cc.contains(w)
    sub = unit_subalgebra(two_involutions["g"])
    assert not sub.contains(w)
    haar = two_involutions["haar"]
    for b in sub.basis:
        assert convolve(w, b, haar) == convolve(b, w, haar)


def test_twisted_klein_report_flags(klein):
    rep = report_of(klein)
    assert rep.contains_unit
    assert not rep.masa  # B is the scalars inside a 2x2 matrix algebra
    assert rep.regular == "verified"
    assert rep.expectation["well_defined"] is True
    assert not rep.overall


def test_expectation_is_bimodular_over_unit_functions(a1):
    g, haar = a1["g"], a1["haar"]
    alg = algebra_of(a1)
    sub = unit_subalgebra(g)
    units = g.unit_arrow_set

    def restrict(f):
        return make_element(g, {a: v for a, v in f.coeffs.items() if a in units})

    for b, f, b2 in itertools.product(sub.basis, alg.cc.basis, sub.basis):
        lhs = restrict(convolve(convolve(b, f, haar), b2, haar))
        rhs = convolve(convolve(b, restrict(f), haar), b2, haar)
        assert lhs == rhs


def test_verified_diagonal_sweep_over_models(a1, a2, a3, a4, two_involutions, klein, pair3):
    # etale + fiberwise-separated arrows + topologically principal groupoids
    # must come out as verified diagonal pairs across the whole model zoo.
    for model in (a1, a2, a3, a4, two_involutions, klein, pair3):
        flags = classify(model["g"])
        if (
            flags["etale"]
            and flags["hausdorff_arrows"]
            and flags["topologically_principal"]
            and model["sigma"] is None
        ):
            assert report_of(model).overall


def _injective(mapping, support):
    return len({mapping[a] for a in support}) == len(support)


def test_the_normalizer_family_needs_injective_sources():
    # The pair groupoid of six points with U(p1) = {p1, p3, p5} and
    # U(p4) = {p2, p4}, product topology. B vanishes off p0, so an admissible
    # element whose arrows have distinct ranges but share a source normalizes
    # B; it is not supported on a bisection, and the family leaves it out.
    nbhd = {"p0": {"p0"}, "p1": {"p1", "p3", "p5"}, "p2": {"p2"}, "p3": {"p3"},
            "p4": {"p2", "p4"}, "p5": {"p5"}}
    g, haar = relation_groupoid(make_space(nbhd, nbhd), [(x, y) for x in nbhd for y in nbhd])
    rep = cartan_report(g, None, haar)
    sharing = [
        c for c in cartan._bisection_candidates(g, cc_space(g), None)
        if c.coeffs and _injective(g.r, c.support) and not _injective(g.s, c.support)
        and cartan._normalizes(c, rep.units, haar, None)
    ]
    assert sharing
    assert [f.support for f in rep.regular_family] == [("p0~p0",)]
    assert rep.regular == "not verified"


# ------------------------------------------------------- alternating element


def test_alternating_element_shape_and_values(two_involutions):
    g = two_involutions["g"]
    f0 = skandalis_element(g)
    support = sorted(f0.support)
    assert len(support) == 8
    assert all(g.r[a] == g.s[a] and g.r[a] in ("a", "b") for a in support)
    for arrow in support:
        expected = -1 if ("|g1|" in arrow or "|g2|" in arrow) else 1
        assert f0.value(arrow) == delta(g, arrow, expected).value(arrow)


def test_alternating_element_obstructs_the_masa(two_involutions):
    g, haar = two_involutions["g"], two_involutions["haar"]
    alg = algebra_of(two_involutions)
    f0 = skandalis_element(g)
    assert alg.cc.contains(f0)
    sub = unit_subalgebra(g)
    assert not sub.contains(f0)
    for b in sub.basis:
        assert convolve(f0, b, haar) == convolve(b, f0, haar)


def test_alternating_element_rejects_wrong_shapes(a1, pair3):
    with pytest.raises(WrongShape):
        skandalis_element(a1["g"])  # one involution, not two
    with pytest.raises(WrongShape):
        skandalis_element(pair3["g"])  # not a germ groupoid at all


# ----------------------------------------------------------- extension counts


def test_extension_counts_interval_reflection(a1):
    uep = uep_report(a1["g"], None, a1["haar"])
    assert uep["counts"] == {"-1": 1, "0": 2, "1": 1, "a": 1, "b": 1}
    assert uep["all_unique"] is False
    assert uep["diagonal"] is False
    assert uep["block_sizes"] == (2, 2, 1, 1)


def test_extension_counts_unique_for_principal_models(a3, a4, pair3):
    for model in (a3, a4, pair3):
        uep = uep_report(model["g"], None, model["haar"])
        assert set(uep["counts"].values()) == {1}
        assert uep["all_unique"] and uep["diagonal"]


def s3_cone(isolated=()):
    """A closed cone point c whose minimal neighbourhood is the whole cone,
    over six open points named by the elements of S3, acted on by left
    translation through a transposition and a 3-cycle, both fixing c; the
    points in `isolated` are clopen and fixed. Its germ groupoid has S3
    isotropy at c only."""
    perms = list(itertools.permutations(range(3)))
    name = {p: "".join(map(str, p)) for p in perms}
    cone = ["c", *name.values()]
    points = cone + list(isolated)
    nbhd = {"c": set(cone), **{x: {x} for x in points if x != "c"}}
    space = make_space(points, nbhd)
    gens = []
    for label, s in (("t", (1, 0, 2)), ("r", (1, 2, 0))):
        mapping = {x: x for x in points}
        mapping.update({name[p]: name[tuple(s[i] for i in p)] for p in perms})
        gens.append(make_partial_homeo(space, points, mapping, label))
    return germ_groupoid(generate(space, gens), name="s3 cone")


def corner_dim(alg, p):
    """dim p·A·p, spanned by the products p * m * p over the closed algebra."""
    span = Echelon()
    for m in alg.closed:
        span.add(_arrow_coords(convolve(convolve(p, m, alg.haar), p, alg.haar)))
    return span.rank


def test_extension_counts_at_an_s3_cone_point_are_the_corner_block_sizes():
    # p·A·p at the cone point is C[S3] = C ⊕ C ⊕ M_2, so the rank of p is 2,
    # 1 and 1 in three blocks of A and 0 in the fourth; its ranks on the
    # regular representation would be multiplied by each block's
    # multiplicity there.
    g = s3_cone()
    assert len(g.arrows) == 42
    assert classify(g)["topologically_principal"]
    an = Analysis(g)
    assert an.cartan.overall
    uep = an.uep
    assert uep["block_sizes"] == (6, 2, 1, 1)
    counts = uep["counts"]
    assert counts["c"] == (2, 1, 1, 0)
    assert len(counts) == 7 and all(v == 1 for x, v in counts.items() if x != "c")
    assert uep["all_unique"] is False and uep["diagonal"] is False
    [(pts, p)] = [(pts, p) for pts, p in minimal_idempotents(an.units, an.haar) if pts == ("c",)]
    assert sum(r * r for r in (2, 1, 1, 0)) == corner_dim(an.algebra, p) == 6


def test_extension_rank_vectors_are_padded_to_the_blocks_of_a():
    # An isolated fixed point adds a block of A that p misses.
    uep = Analysis(s3_cone(isolated=("d",))).uep
    assert uep["block_sizes"] == (6, 2, 1, 1, 1)
    assert uep["counts"]["c"] == (2, 1, 1, 0, 0)
    assert uep["counts"]["d"] == 1


def test_extension_counts_reject_an_algebra_over_another_groupoid():
    g1, haar1 = pair_groupoid(["0", "1"], name="left")
    g2, haar2 = pair_groupoid(["0", "1"], name="right")
    report = cartan_report(g1, None, haar1)
    with pytest.raises(GroupoidMismatch):
        uep_report(g1, None, haar1, algebra=concrete_algebra(g2, haar=haar2), report=report)


def test_pair_reports_reject_inputs_over_another_groupoid():
    # The point names are disjoint, so no support arrows of the two
    # groupoids ever compose: only an up-front check can see the mismatch.
    g, haar = pair_groupoid(["a", "b"])
    other, other_haar = pair_groupoid(["x", "y", "z"])
    with pytest.raises(GroupoidMismatch):
        cartan_report(g, None, haar, cc=cc_space(other))
    with pytest.raises(GroupoidMismatch):
        uep_report(g, None, haar, algebra=concrete_algebra(other, haar=other_haar))


def test_pair_report_rejects_an_unvalidated_haar_system():
    # Weights that are not invariant: the convolution is no *-algebra, so
    # there is no pair to report on.
    g, _ = pair_groupoid(["p", "q"], name="pq")
    haar = make_haar(g, {a: (2 if a == "p~q" else 1) for a in g.arrows}, validate=False)
    with pytest.raises(AxiomViolation, match="validated Haar system"):
        cartan_report(g, haar=haar)


def test_pair_report_rejects_an_unvalidated_cocycle(klein):
    table = dict(klein["sigma"].sigma)
    table[("10", "10")] = -table[("10", "10")]
    fake = make_cocycle(klein["g"], table, check=False)
    with pytest.raises(InvalidCocycle, match="validated cocycle"):
        cartan_report(klein["g"], fake, klein["haar"])


def test_extension_counts_reuse_the_reports_unit_subalgebra(a1, monkeypatch):
    alg = algebra_of(a1)
    rep = report_of(a1, alg)
    calls = []
    original = cartan.unit_subalgebra
    monkeypatch.setattr(cartan, "unit_subalgebra", lambda g: calls.append(g) or original(g))
    uep = uep_report(a1["g"], a1["sigma"], a1["haar"], alg, rep)
    assert calls == []
    assert uep["counts"]["0"] == 2
    assert Analysis(a1["g"], a1["haar"]).units.dim == rep.units.dim == 5


def test_extension_counts_reject_a_report_over_another_groupoid():
    g1, haar1 = pair_groupoid(["0", "1"], name="left")
    g2, haar2 = pair_groupoid(["0", "1"], name="right")
    report = cartan_report(g2, None, haar2)
    with pytest.raises(GroupoidMismatch):
        uep_report(g1, None, haar1, algebra=concrete_algebra(g1, haar=haar1), report=report)


def test_extension_counts_need_a_masa(two_involutions, a2):
    with pytest.raises(NotMasa):
        uep_report(two_involutions["g"], None, two_involutions["haar"])
    # here the masa holds but its spectrum misses the center point
    with pytest.raises(NotMasa) as exc:
        uep_report(a2["g"], None, a2["haar"])
    assert "0" in str(exc.value)


def test_diagonal_report_shapes(a1, a2, a3, two_involutions):
    rep1 = Analysis(a1["g"], a1["haar"])
    assert rep1.uep["diagonal"] is False and rep1.uep["counts"]["0"] == 2
    # no extension report means no diagonal verdict; the reason is kept
    rep2 = Analysis(a2["g"], a2["haar"])
    for _ in range(2):
        with pytest.raises(NotMasa, match="indicator"):
            rep2.uep
    rep3 = Analysis(a3["g"], a3["haar"])
    assert rep3.uep["diagonal"] is True
    rep6 = Analysis(two_involutions["g"], two_involutions["haar"])
    with pytest.raises(NotMasa, match="maximal abelian"):
        rep6.uep


def test_analysis_computes_each_answer_once(a1):
    an = Analysis(a1["g"], a1["haar"])
    assert an.algebra is an.algebra
    assert an.cartan is an.cartan and an.cartan.overall
    assert an.uep is an.uep
    assert an.units is an.units and an.units.dim == 5
    assert an.classify is an.classify and an.classify["etale"]
    assert an.algebra.structure is an.algebra.structure
    assert Analysis(a1["g"]).haar.weight == a1["haar"].weight


# ------------------------------------------------------------- reconstruction


def test_weyl_reconstruction_orbit_sizes(a1, a3, a4, pair3):
    expected_arrows = {"a1": 9, "a3": 9, "a4": 10, "pair3": 9}
    for name, model in (("a1", a1), ("a3", a3), ("a4", a4), ("pair3", pair3)):
        alg = algebra_of(model)
        rel, rel_haar = weyl_relation(alg)
        assert orbit_class_sizes(rel) == orbit_class_sizes(model["g"]), name
        assert len(rel.arrows) == expected_arrows[name], name
        assert classify(rel)["principal"], name
        assert rel_haar.weight[next(iter(rel.arrows))] == 1


def test_weyl_reconstruction_drops_isotropy(a1):
    # the reflection groupoid has 10 arrows; its reconstruction keeps 9
    alg = algebra_of(a1)
    rel, _ = weyl_relation(alg)
    assert len(alg.groupoid.arrows) == 10
    assert len(rel.arrows) == 9


def test_weyl_reconstruction_needs_a_masa(two_involutions, a2):
    with pytest.raises(NotMasa):
        weyl_relation(algebra_of(two_involutions))
    with pytest.raises(NotMasa):
        weyl_relation(algebra_of(a2))


def test_analysis_weyl_reuses_the_pair_report(a1, a3, pair3, monkeypatch):
    analyses = [Analysis(m["g"], m["haar"], m["sigma"]) for m in (a1, a3, pair3)]
    wants = [weyl_relation(an.algebra) for an in analyses]
    for an in analyses:
        an.cartan

    def rebuilt(*args):
        raise AssertionError("B or its commutant was computed again")

    monkeypatch.setattr(cartan, "unit_subalgebra", rebuilt)
    monkeypatch.setattr(cartan, "_commutant_check", rebuilt)
    for an, (want, want_haar) in zip(analyses, wants):
        rel, rel_haar = an.weyl
        assert an.weyl is an.weyl
        assert rel.arrows == want.arrows
        assert [(rel.r[a], rel.s[a]) for a in rel.arrows] == [(want.r[a], want.s[a]) for a in want.arrows]
        assert rel_haar.weight == want_haar.weight


def test_analysis_weyl_needs_a_masa(two_involutions, a2):
    for model in (two_involutions, a2):
        an = Analysis(model["g"], model["haar"], model["sigma"])
        with pytest.raises(NotMasa):
            an.weyl


def test_orbit_class_sizes_sorted_descending(pair3):
    g, _ = pair_groupoid(["0", "1"], name="p2")
    assert orbit_class_sizes(g) == (2,)
    assert orbit_class_sizes(pair3["g"]) == (3,)
