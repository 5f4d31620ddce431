from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import naive_topology as naive
from gpd.errors import BadPartition, PreorderViolation, UnknownPoint
from gpd.finitetop import (
    FiniteSpace,
    closure,
    is_dense,
    is_open,
    make_space,
    map_report,
    product,
    quotient,
    quotient_separation_report,
    separation_report,
)
from gpd.groupoid import _proper_closed

# 5-point model of the interval [-1, 1]: two closed ends, two open generic
# points, a closed center.
I5_NBHD = {
    "-1": {"-1", "a"},
    "a": {"a"},
    "0": {"a", "0", "b"},
    "b": {"b"},
    "1": {"b", "1"},
}


@pytest.fixture
def i5():
    return make_space(I5_NBHD.keys(), I5_NBHD)


def discrete(names):
    return make_space(names, {x: {x} for x in names})


def test_make_space_singleton():
    s = make_space(["x"], {"x": {"x"}})
    assert s.points == ("x",)


def test_make_space_rejects_missing_reflexivity():
    with pytest.raises(PreorderViolation):
        make_space(["x", "a"], {"x": {"x", "a"}, "a": {"x"}})


def test_make_space_rejects_non_transitive_table():
    # b in U_a and c in U_b but c not in U_a
    with pytest.raises(PreorderViolation):
        make_space(
            ["a", "b", "c"],
            {"a": {"a", "b"}, "b": {"b", "c"}, "c": {"c"}},
        )


def test_make_space_rejects_unknown_points():
    with pytest.raises(UnknownPoint):
        make_space(["x"], {"x": {"x", "ghost"}})
    with pytest.raises(UnknownPoint):
        make_space(["x"], {"y": {"y"}})


def test_closure_empty(i5):
    assert closure(i5, set()) == frozenset()


def test_closure_open_generic_point(i5):
    assert closure(i5, {"a"}) == {"-1", "a", "0"}


def test_closure_dense_pair(i5):
    assert closure(i5, {"a", "b"}) == set(i5.points)
    assert is_dense(i5, {"a", "b"})


def test_closure_unknown_point(i5):
    with pytest.raises(UnknownPoint):
        closure(i5, {"nope"})


def test_open_sets(i5):
    assert is_open(i5, {"a"})
    assert is_open(i5, {"a", "0", "b"})
    assert not is_open(i5, {"0"})
    assert is_open(i5, set(i5.points))


def test_separation_discrete_space():
    rep = separation_report(discrete(["p", "q", "r"]))
    assert rep["is_hausdorff"] and rep["is_t1"]
    assert rep["hausdorff_points"] == ["p", "q", "r"]


def test_separation_two_point_chain():
    # One open point whose closure is the other point.
    s = make_space(["x", "a"], {"x": {"x"}, "a": {"x", "a"}})
    rep = separation_report(s)
    assert rep["hausdorff_points"] == []
    assert not rep["is_t1"]


def test_separation_interval_model(i5):
    rep = separation_report(i5)
    assert rep["hausdorff_points"] == []
    assert not rep["is_hausdorff"]


def test_map_report_identity(i5):
    rep = map_report({x: x for x in i5.points}, i5, i5)
    assert all(rep.values())


def test_map_report_reflection_is_homeomorphism(i5):
    t = {"-1": "1", "a": "b", "0": "0", "b": "a", "1": "-1"}
    rep = map_report(t, i5, i5)
    assert rep["homeomorphism"]


def test_map_report_sierpinski_swap_not_continuous():
    s = make_space(["x", "a"], {"x": {"x"}, "a": {"x", "a"}})
    rep = map_report({"x": "a", "a": "x"}, s, s)
    assert not rep["continuous"]


def test_map_report_requires_total_map(i5):
    with pytest.raises(UnknownPoint):
        map_report({"-1": "-1"}, i5, i5)


def test_product_of_singletons():
    one = make_space(["x"], {"x": {"x"}})
    p = product(one, one)
    assert p.points == ("x|x",)


def test_product_neighborhoods(i5):
    p = product(i5, i5)
    assert p.min_nbhd["0|1"] == {
        "a|b", "a|1", "0|b", "0|1", "b|b", "b|1"
    }


def test_quotient_identity_partition(i5):
    q = quotient(i5, [[x] for x in i5.points])
    assert len(q.points) == 5
    # singleton classes keep the original neighborhood structure
    assert q.min_nbhd["{0}"] == {"{a}", "{0}", "{b}"}


def test_quotient_by_reflection(i5):
    q = quotient(i5, [["-1", "1"], ["a", "b"], ["0"]])
    assert set(q.points) == {"{-1,1}", "{a,b}", "{0}"}
    assert q.min_nbhd["{a,b}"] == {"{a,b}"}
    assert q.min_nbhd["{0}"] == {"{a,b}", "{0}"}
    assert q.min_nbhd["{-1,1}"] == {"{a,b}", "{-1,1}"}


def test_quotient_rejects_bad_partitions(i5):
    with pytest.raises(BadPartition):
        quotient(i5, [["-1", "1"], ["a", "b"]])
    with pytest.raises(BadPartition):
        quotient(i5, [["-1", "1"], ["a", "b"], ["0"], ["0"]])
    with pytest.raises(BadPartition):
        quotient(i5, [list(i5.points), ["ghost"]])


def test_quotient_projection_continuous_open_for_orbit_partition(i5):
    blocks = [["-1", "1"], ["a", "b"], ["0"]]
    q = quotient(i5, blocks)
    proj = {x: "{" + ",".join(sorted(b)) + "}" for b in blocks for x in b}
    rep = map_report(proj, i5, q)
    assert rep["continuous"] and rep["open"]


def doubled_line():
    """Two disjoint copies of the 3-point [0,1] model."""
    pts = {}
    for i in ("0", "1"):
        pts[f"b@{i}"] = {f"b@{i}"}
        pts[f"o@{i}"] = {f"b@{i}", f"o@{i}"}
        pts[f"1@{i}"] = {f"b@{i}", f"1@{i}"}
    return make_space(pts.keys(), pts)


def test_quotient_separation_doubled_origin():
    x = doubled_line()
    partition = [["b@0", "b@1"], ["1@0", "1@1"], ["o@0"], ["o@1"]]
    rep = quotient_separation_report(x, partition)
    assert rep["genuine_pairs"] == [("{o@0}", "{o@1}")]
    assert rep["hausdorff_classes"] == ["{1@0,1@1}", "{b@0,b@1}"]


def test_quotient_separation_identity_partition_has_no_genuine_pairs(i5):
    rep = quotient_separation_report(i5, [[x] for x in i5.points])
    assert rep["genuine_pairs"] == []
    assert len(rep["hausdorff_classes"]) == 5


# --- property tests on random small spaces ---------------------------------


@st.composite
def spaces(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    names = [f"p{i}" for i in range(n)]
    # Random preorder from a random relation, closed up transitively.
    below = {x: {x} for x in names}
    for x in names:
        for y in names:
            if x != y and draw(st.booleans()):
                below[x].add(y)
    changed = True
    while changed:
        changed = False
        for x in names:
            for y in list(below[x]):
                if not below[y] <= below[x]:
                    below[x] |= below[y]
                    changed = True
    return make_space(names, below)


@settings(max_examples=60, deadline=None)
@given(spaces(), st.data())
def test_closure_is_monotone_idempotent_additive(space, data):
    pts = list(space.points)
    s = set(data.draw(st.sets(st.sampled_from(pts))))
    t = set(data.draw(st.sets(st.sampled_from(pts))))
    assert closure(space, s) <= closure(space, s | t)
    assert closure(space, closure(space, s)) == closure(space, s)
    assert closure(space, s | t) == closure(space, s) | closure(space, t)


@settings(max_examples=60, deadline=None)
@given(spaces())
def test_hausdorff_implies_t1_implies_discrete(space):
    rep = separation_report(space)
    if rep["is_hausdorff"]:
        assert rep["is_t1"]
    if rep["is_t1"]:
        # on a finite space T1 forces discreteness
        assert all(space.min_nbhd[x] == {x} for x in space.points)
        assert rep["is_hausdorff"]


# --- differential tests against the definitional forms ---------------------
# (tests/naive_topology.py: closures by scanning every point, properness
# through the product space)


def outcome(fn, *args):
    """The value of fn(*args), or the class and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(spaces(), st.data())
def test_closure_and_openness_match_the_definitional_forms(space, data):
    pts = list(space.points)
    for y in pts:
        assert space.above[y] == tuple(x for x in pts if y in space.min_nbhd[x])
    sub = data.draw(st.sets(st.sampled_from(pts)))
    assert closure(space, sub) == naive.closure(space, sub)
    assert is_open(space, sub) == naive.is_open(space, sub)
    assert outcome(closure, space, sub | {"ghost"}) == outcome(naive.closure, space, sub | {"ghost"})


@st.composite
def point_maps(draw, src: FiniteSpace, dst: FiniteSpace):
    """A map of src's points into dst; now and then partial, or off dst."""
    f = {x: draw(st.sampled_from(dst.points)) for x in src.points}
    broken = draw(st.sampled_from(["total"] * 6 + ["partial", "stray"]))
    if broken == "partial":
        del f[draw(st.sampled_from(src.points))]
    elif broken == "stray":
        f[draw(st.sampled_from(src.points))] = "ghost"
    return f


@settings(max_examples=80, deadline=None)
@given(spaces(), spaces(), st.data())
def test_map_report_matches_the_definitional_form(src, dst, data):
    f = data.draw(point_maps(src, dst))
    assert outcome(map_report, f, src, dst) == outcome(naive.map_report, f, src, dst)
    # a self-map that is a permutation exercises the homeomorphism flag
    perm = dict(zip(src.points, data.draw(st.permutations(src.points))))
    assert map_report(perm, src, src) == naive.map_report(perm, src, src)


@settings(max_examples=60, deadline=None)
@given(spaces(), spaces(), st.data())
def test_proper_closed_matches_the_product_space(units, arrows, data):
    # _proper_closed reads only the arrow space, the unit space and r, s, so
    # any two spaces and any two maps make a test case, proper or not.
    r = {a: data.draw(st.sampled_from(units.points)) for a in arrows.points}
    s = {a: data.draw(st.sampled_from(units.points)) for a in arrows.points}
    g = SimpleNamespace(arrows=arrows.points, topo=arrows, units=units, r=r, s=s)
    assert _proper_closed(g) == naive.proper_closed(g)


@settings(max_examples=20, deadline=None)
@given(spaces())
def test_proper_closed_reads_both_up_sets(units):
    # one arrow over each pair of units: proper exactly when the point
    # (x, y) of the product space is closed
    one = make_space(["e"], {"e": {"e"}})
    uu = product(units, units)
    for x in units.points:
        for y in units.points:
            g = SimpleNamespace(arrows=one.points, topo=one, units=units, r={"e": x}, s={"e": y})
            assert _proper_closed(g) == (naive.closure(uu, {f"{x}|{y}"}) == {f"{x}|{y}"})
