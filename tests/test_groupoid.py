from fractions import Fraction

import pytest

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
