from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import naive_topology as naive
from gpd import algebra as A
from gpd import catalog
from gpd.errors import (
    AxiomViolation,
    EffectivenessRequiresEtale,
    NotAHomeomorphism,
    NotAnAction,
    NotEquivalence,
    TopologyViolation,
    UnknownPoint,
)
from gpd.finitetop import make_space
from gpd.groupoid import (
    HaarSystem,
    classify,
    effective,
    isotropy,
    make_groupoid,
    make_haar,
    orbits,
    pair_groupoid,
    relation_groupoid,
    transformation_groupoid,
)
from test_finitetop import spaces

I5_NBHD = {
    "-1": {"-1", "a"},
    "a": {"a"},
    "0": {"a", "0", "b"},
    "b": {"b"},
    "1": {"b", "1"},
}

T_MAP = {"-1": "1", "a": "b", "0": "0", "b": "a", "1": "-1"}

Z2 = {"elements": ["e", "t"], "mul": {("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "e"}, "identity": "e"}


def i5():
    return make_space(I5_NBHD.keys(), I5_NBHD)


def z2_on_i5():
    space = i5()
    action = {"e": {x: x for x in space.points}, "t": T_MAP}
    return transformation_groupoid(Z2, action, space, name="z2_i5")


def cross_relation(mode):
    space = i5()
    neg = {"-1": "1", "1": "-1", "a": "b", "b": "a", "0": "0"}
    pairs = [(x, x) for x in space.points] + [(x, neg[x]) for x in space.points]
    return relation_groupoid(space, pairs, mode, name=f"rel_{mode}")


def test_trivial_groupoid():
    space = make_space(["x"], {"x": {"x"}})
    g = make_groupoid(
        units=space,
        arrows=["u"],
        r={"u": "x"},
        s={"u": "x"},
        inv={"u": "u"},
        comp={("u", "u"): "u"},
        arrow_min_nbhd={"u": {"u"}},
    )
    c = classify(g)
    assert c["principal"] and c["etale"] and c["hausdorff_arrows"]


def test_group_z2_as_groupoid():
    space = make_space(["x"], {"x": {"x"}})
    g = make_groupoid(
        units=space,
        arrows=["e", "t"],
        r={"e": "x", "t": "x"},
        s={"e": "x", "t": "x"},
        inv={"e": "e", "t": "t"},
        comp={("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "e"},
        arrow_min_nbhd={"e": {"e"}, "t": {"t"}},
    )
    c = classify(g)
    assert not c["principal"]
    assert not c["topologically_principal"]
    assert isotropy(g, "x")["order"] == 2


def test_pair_groupoid_classify_all_good():
    g, _ = pair_groupoid(["p", "q"])
    c = classify(g)
    assert c["principal"] and c["topologically_principal"] and c["effective"]
    assert c["etale"] and c["hausdorff_arrows"] and c["proper_closed"]
    assert c["orbits"] == [("p", "q")]


def test_make_groupoid_rejects_broken_composition():
    space = make_space(["x"], {"x": {"x"}})
    with pytest.raises(AxiomViolation):
        make_groupoid(
            units=space,
            arrows=["e", "t"],
            r={"e": "x", "t": "x"},
            s={"e": "x", "t": "x"},
            inv={"e": "e", "t": "t"},
            # t*t = t breaks both the inverse law and associativity context
            comp={("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "t"},
            arrow_min_nbhd={"e": {"e"}, "t": {"t"}},
        )


def test_make_groupoid_rejects_missing_comp_entry():
    space = make_space(["x"], {"x": {"x"}})
    with pytest.raises(AxiomViolation):
        make_groupoid(
            units=space,
            arrows=["e", "t"],
            r={"e": "x", "t": "x"},
            s={"e": "x", "t": "x"},
            inv={"e": "e", "t": "t"},
            comp={("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t"},
            arrow_min_nbhd={"e": {"e"}, "t": {"t"}},
        )


def test_make_groupoid_rejects_discontinuous_range():
    # Two units x (open) -> a (closed); a lone non-unit arrow from a to x
    # with an isolated neighborhood forces r continuous, so instead give the
    # unit at a a neighborhood whose r-image is not inside U_a... simplest:
    # make the arrow topology discrete but stretch a unit neighborhood.
    space = make_space(["x", "a"], {"x": {"x"}, "a": {"x", "a"}})
    with pytest.raises(TopologyViolation):
        make_groupoid(
            units=space,
            arrows=["ux", "ua"],
            r={"ux": "x", "ua": "a"},
            s={"ux": "x", "ua": "a"},
            inv={"ux": "ux", "ua": "ua"},
            comp={("ux", "ux"): "ux", ("ua", "ua"): "ua"},
            # U(ua) = {ua} makes the unit embedding fail (U_a = {x,a})
            arrow_min_nbhd={"ux": {"ux"}, "ua": {"ua"}},
        )


def test_transformation_groupoid_z2_on_interval():
    g = z2_on_i5()
    assert len(g.arrows) == 10
    c = classify(g)
    assert c["etale"] and c["hausdorff_arrows"]
    assert not c["principal"]
    assert c["topologically_principal"]
    assert c["effective"] is True
    assert isotropy(g, "0")["order"] == 2
    assert isotropy(g, "a")["order"] == 1
    assert orbits(g) == [("-1", "1"), ("0",), ("a", "b")]


def test_transformation_groupoid_rejects_non_homeomorphism():
    space = make_space(["x", "a"], {"x": {"x"}, "a": {"x", "a"}})
    action = {"e": {"x": "x", "a": "a"}, "t": {"x": "a", "a": "x"}}
    with pytest.raises(NotAHomeomorphism):
        transformation_groupoid(Z2, action, space)


def test_transformation_groupoid_rejects_non_action():
    space = make_space(["p", "q"], {"p": {"p"}, "q": {"q"}})
    swap = {"p": "q", "q": "p"}
    ident = {"p": "p", "q": "q"}
    # t acts as a homeomorphism but t*t should act as identity and does not
    bad = {"elements": ["e", "t"], "mul": {("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "t"}, "identity": "e"}
    with pytest.raises(NotAnAction):
        transformation_groupoid(bad, {"e": ident, "t": swap}, space)


def test_relation_groupoid_product_mode_unit_space_not_open():
    g, haar = cross_relation("product")
    c = classify(g)
    assert not c["unit_space_open"]
    assert not c["etale"]
    assert c["principal"]
    assert haar.weight["0~0"] == 1
    # central unit's neighborhood reaches off the diagonal
    assert "a~b" in g.topo.min_nbhd["0~0"]


def test_relation_groupoid_diagonal_mode_is_etale():
    g, _ = cross_relation("product_plus_diagonal")
    c = classify(g)
    assert c["etale"]
    assert c["principal"]
    assert g.topo.min_nbhd["0~0"] == {"a~a", "0~0", "b~b"}


def test_relation_groupoid_rejects_non_equivalence():
    space = make_space(["p", "q"], {"p": {"p"}, "q": {"q"}})
    with pytest.raises(NotEquivalence):
        relation_groupoid(space, [("p", "p"), ("q", "q"), ("p", "q")])
    with pytest.raises(NotEquivalence):
        relation_groupoid(space, [("p", "p")])


def test_effectiveness_requires_etale():
    g, _ = cross_relation("product")
    with pytest.raises(EffectivenessRequiresEtale):
        effective(g)
    c = classify(g)
    assert c["effective"] is None


def test_isotropy_unknown_point():
    g, _ = pair_groupoid(["p", "q"])
    with pytest.raises(UnknownPoint):
        isotropy(g, "zz")


def test_haar_counting_always_valid():
    g = z2_on_i5()
    h = HaarSystem.counting(g)
    assert all(v == 1 for v in h.weight.values())
    assert h.validated


def test_haar_rejects_non_invariant_weights():
    g, _ = pair_groupoid(["p", "q", "r"])
    weights = {a: Fraction(1) for a in g.arrows}
    weights["p~q"] = Fraction(2)
    with pytest.raises(AxiomViolation):
        make_haar(g, weights)
    broken = make_haar(g, weights, validate=False)
    assert not broken.validated


def test_haar_rejects_nonpositive_weights():
    g, _ = pair_groupoid(["p", "q"])
    weights = {a: Fraction(1) for a in g.arrows}
    weights["p~q"] = Fraction(0)
    with pytest.raises(AxiomViolation):
        make_haar(g, weights)


def test_custom_invariant_weights_pass():
    # weight 2 on the central doubled arrow of the cross relation is left
    # invariant because that arrow only factors through itself
    g, _ = cross_relation("product")
    weights = {a: Fraction(1) for a in g.arrows}
    weights["0~0"] = Fraction(2)
    h = make_haar(g, weights)
    assert h.weight["0~0"] == 2


def test_proper_closed_fails_on_cross_relations():
    # the 5-point interval's generic points put extra pairs in the closure,
    # so (r,s) is not a closed map in either topology mode
    for mode in ("product", "product_plus_diagonal"):
        g, _ = cross_relation(mode)
        assert not classify(g)["proper_closed"]


def test_make_haar_rejects_a_partial_weight_map():
    g, _ = pair_groupoid(["a", "b"])
    with pytest.raises(AxiomViolation, match="not total"):
        make_haar(g, {g.arrows[0]: 1})


# --- differential tests against the definitional forms ---------------------
# (tests/naive_topology.py: every arrow, pair or relation pair scanned)


def assert_matches_the_definitional_forms(g):
    assert classify(g) == naive.classify(g)
    assert set(g.comp) == naive.composable(g)
    for x in g.units.points:
        assert isotropy(g, x) == naive.isotropy(g, x)
    rows = [list(row.items()) for row in A._topology_constraints(g)]
    assert rows == [list(row.items()) for row in naive.topology_constraints(g)]


@st.composite
def relation_models(draw):
    """A non-discrete space from spaces(), the equivalence relation of a
    random partition of its points, and a topology mode."""
    space = draw(spaces())
    assume(any(len(space.min_nbhd[x]) > 1 for x in space.points))
    block = {x: draw(st.integers(0, len(space.points) - 1)) for x in space.points}
    pairs = [(x, y) for x in space.points for y in space.points if block[x] == block[y]]
    mode = draw(st.sampled_from(["product", "product_plus_diagonal"]))
    return space, pairs, mode


@settings(max_examples=60, deadline=None)
@given(relation_models())
def test_random_relation_groupoids_match_the_definitional_forms(model):
    space, pairs, mode = model
    g, _ = relation_groupoid(space, pairs, mode)
    assert list(g.comp.items()) == list(naive.relation_comp(pairs).items())
    assert_matches_the_definitional_forms(g)


@pytest.mark.parametrize("name", catalog.names())
def test_catalog_groupoids_match_the_definitional_forms(name):
    # the catalog has the isotropy that relation groupoids lack
    assert_matches_the_definitional_forms(catalog.build(name)["groupoid"])


def rebuild(g, **changes):
    """make_groupoid on g's tables, with some of them replaced."""
    tables = dict(
        units=g.units, arrows=g.arrows, r=g.r, s=g.s, inv=g.inv, comp=g.comp,
        arrow_min_nbhd=g.topo.min_nbhd, unit_arrow=g.unit_arrow,
    )
    return make_groupoid(**{**tables, **changes})


@settings(max_examples=30, deadline=None)
@given(relation_models(), st.data())
def test_a_comp_domain_mismatch_names_the_same_pairs(model, data):
    space, pairs, mode = model
    g, _ = relation_groupoid(space, pairs, mode)
    comp = dict(g.comp)
    del comp[data.draw(st.sampled_from(sorted(comp)))]
    # a pair that does not compose, when there is one
    stray = [(a, b) for a in g.arrows for b in g.arrows if g.s[a] != g.r[b]]
    if stray and data.draw(st.booleans()):
        comp[data.draw(st.sampled_from(stray))] = g.arrows[0]
    bad = sorted(set(comp) ^ naive.composable(g))
    with pytest.raises(AxiomViolation) as err:
        rebuild(g, comp=comp)
    assert str(err.value) == f"comp domain mismatch at pairs {bad[:3]}"


def test_discontinuous_range_and_source_keep_their_messages():
    g, _ = pair_groupoid(["p", "q"])
    # U(p~p) = {p~p, p~q}: one range, two sources
    nbhd = {a: {a} for a in g.arrows}
    with pytest.raises(TopologyViolation) as err:
        rebuild(g, arrow_min_nbhd={**nbhd, "p~p": {"p~p", "p~q"}})
    assert str(err.value) == "source map is not continuous"
    # U(p~p) = {p~p, q~p}: two ranges, one source; r is checked first
    with pytest.raises(TopologyViolation) as err:
        rebuild(g, arrow_min_nbhd={**nbhd, "p~p": {"p~p", "q~p"}, "p~q": {"p~q", "q~p"}})
    assert str(err.value) == "range map is not continuous"


def test_a_unit_embedding_failure_keeps_its_message():
    # units x (open) and a, with U_a = {x, a}; discrete arrows
    space = make_space(["x", "a"], {"x": {"x"}, "a": {"x", "a"}})
    g, _ = relation_groupoid(space, [("x", "x"), ("a", "a")])
    with pytest.raises(TopologyViolation) as err:
        rebuild(g, arrow_min_nbhd={a: {a} for a in g.arrows})
    assert str(err.value) == "unit embedding is not a homeomorphism onto its image at 'a'"


@settings(max_examples=40, deadline=None)
@given(spaces(), st.data())
def test_a_missing_transitive_pair_is_named_as_by_the_full_scan(space, data):
    pts = space.points
    links = data.draw(st.sets(st.tuples(st.sampled_from(pts), st.sampled_from(pts))))
    pairs = [(x, x) for x in pts] + [p for x, y in links for p in ((x, y), (y, x))]
    try:
        want = naive.relation_comp(pairs)
    except NotEquivalence as exc:
        with pytest.raises(NotEquivalence) as err:
            relation_groupoid(space, pairs)
        assert str(err.value) == str(exc)
    else:
        g, _ = relation_groupoid(space, pairs)
        assert list(g.comp.items()) == list(want.items())
