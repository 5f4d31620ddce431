"""Light's test: `make_groupoid` checks associativity, and `make_cocycle`
the cocycle identity, only on the triples whose middle arrow lies in
`Groupoid.generators`. These tests check that every non-unit arrow is a
word in those generators, and that corrupted tables are rejected exactly
when the full scans of naive_axioms.py reject them."""

import json
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import naive_axioms as naive
from gpd import catalog, groupoid
from gpd.algebra import make_cocycle
from gpd.catalog import Analysis
from gpd.cli import main
from gpd.errors import AxiomViolation, InvalidCocycle
from gpd.finitetop import make_space
from gpd.groupoid import make_groupoid, pair_groupoid, relation_groupoid
from gpd.qlin import QC
from gpd.serialize import cocycle_doc, groupoid_doc, load_groupoid
from test_groupoid import relation_models, z2_on_i5
from test_pipeline_oracle import MODELS, POWERS, bicharacter_model, bicharacters, models, workloads


def assert_generated(g):
    words = naive.words(g.generators, g.comp)
    assert set(g.arrows) - g.unit_arrow_set <= words, g.name


def _catalog_groupoids():
    """Every catalog entry's groupoid, with its companions and duals."""
    out = []
    for name in catalog.names():
        bundle = catalog.build(name)
        out.append((name, bundle["groupoid"]))
        out += [(f"{name}/{k}", v.groupoid) for k, v in bundle["extras"].items() if isinstance(v, Analysis)]
    return out


def test_catalog_groupoids_are_generated():
    gs = _catalog_groupoids()
    assert {"rotation/companion", "fourier/dual"} <= {n for n, _ in gs}
    for _, g in gs:
        assert_generated(g)


@pytest.mark.parametrize("kind, params", [m[1:] for m in MODELS], ids=[m[0] for m in MODELS])
def test_ladder_groupoids_are_generated(kind, params):
    # the ladder's rungs, z4xz4 among them, and rotation(6,6)
    assert_generated(workloads.build_rung(kind, params)[0])


@settings(max_examples=40, deadline=None)
@given(relation_models())
def test_random_relation_groupoids_are_generated(model):
    assert_generated(relation_groupoid(*model)[0])


@settings(max_examples=40, deadline=None)
@given(models())
def test_random_action_groupoids_are_generated(case):
    assert_generated(load_groupoid(case["groupoid"])[0])


@settings(max_examples=10, deadline=None)
@given(bicharacters())
def test_groups_over_an_orbit_are_generated(params):
    a, b, exps, seed = params
    assert_generated(bicharacter_model(a, b, exps, 2, random.Random(seed))[0])


def _counted(monkeypatch):
    seen = []
    middle = groupoid._middle_triples

    def counting(*args):
        for t in middle(*args):
            seen.append(t)
            yield t

    monkeypatch.setattr(groupoid, "_middle_triples", counting)
    return seen


def _rebuild(g):
    return make_groupoid(
        units=g.units, arrows=g.arrows, r=g.r, s=g.s, inv=g.inv, comp=g.comp,
        arrow_min_nbhd=g.topo.min_nbhd, unit_arrow=g.unit_arrow, name=g.name,
    )


@pytest.mark.parametrize("kind, params, triples", [
    (None, None, 512),  # 16² · 2 generators, of 16³ triples
    ("pair", {"k": 6}, 360),  # 10 generators · 6 · 6, of 6⁴
    ("rotation", {"n": 6, "m": 6}, 2160),  # 60 generators · 6 · 6, of 6 · 6⁴
])
def test_each_check_visits_the_pinned_triples(monkeypatch, kind, params, triples):
    g, _, _ = workloads.build_rung(kind, params)
    seen = _counted(monkeypatch)
    g = _rebuild(g)
    in_make_groupoid = seen[:]
    seen.clear()
    make_cocycle(g, {k: 1 for k in g.comp})
    assert len(in_make_groupoid) == len(seen) == triples


# ------------------------------------------------------------ corruptions


def _cyclic_product(a, b):
    elems = [(x, y) for x in range(a) for y in range(b)]
    return elems, lambda u, v: ((u[0] + v[0]) % a, (u[1] + v[1]) % b), (0, 0)


def _dihedral(n):
    # (k, f): the rotation by k after f reflections
    elems = [(k, f) for f in range(2) for k in range(n)]
    return elems, lambda u, v: ((u[0] + (-1) ** u[1] * v[0]) % n, u[1] ^ v[1]), (0, 0)


def _group_tables(elems, mul, e):
    """make_groupoid's arguments for a group over one unit, arrows named by
    the coordinates of the elements."""
    name = {x: f"{x[0]}{x[1]}" for x in elems}
    arrows = [name[x] for x in elems]
    return {
        "units": make_space(["*"], {"*": {"*"}}),
        "arrows": arrows,
        "r": {a: "*" for a in arrows},
        "s": {a: "*" for a in arrows},
        "inv": {name[x]: name[y] for x in elems for y in elems if mul(x, y) == e},
        "comp": {(name[x], name[y]): name[mul(x, y)] for x in elems for y in elems},
        "arrow_min_nbhd": {a: {a} for a in arrows},
        "unit_arrow": {"*": name[e]},
    }


@st.composite
def group_tables(draw):
    """Z_a x Z_b (a, b <= 4) or a dihedral group of order 6, 8 or 10."""
    if draw(st.booleans()):
        return _group_tables(*_cyclic_product(draw(st.integers(1, 4)), draw(st.integers(2, 4))))
    return _group_tables(*_dihedral(draw(st.integers(3, 5))))


def swap_in_a_row(tables, data):
    """Swap two non-unit products x·y1, x·y2 of one non-unit row x: the unit
    laws, the inverses and r/s stay as they were."""
    unit = tables["unit_arrow"]["*"]
    comp = dict(tables["comp"])
    x = data.draw(st.sampled_from([a for a in tables["arrows"] if a != unit]))
    ys = [y for y in tables["arrows"] if y != unit and comp[(x, y)] != unit]
    assume(len(ys) >= 2)
    y1, y2 = data.draw(st.lists(st.sampled_from(ys), min_size=2, max_size=2, unique=True))
    comp[(x, y1)], comp[(x, y2)] = comp[(x, y2)], comp[(x, y1)]
    return {**tables, "comp": comp}


def _raised(fn, *args):
    try:
        fn(*args)
    except (AxiomViolation, InvalidCocycle) as exc:
        return exc
    return None


def assert_rejected_as_by_the_reference(got, want, failures, message):
    """`got` and `want` are the exceptions (or None) of the generator check
    and of the full scan; a rejection names a triple that really fails."""
    assert type(got) is type(want)
    if got is not None:
        assert str(got) in {message(t) for t in failures}


def _associativity(t):
    return "associativity fails at triple ({!r},{!r},{!r})".format(*t)


def _cocycle(t):
    return "cocycle identity fails at ({!r},{!r},{!r})".format(*t)


@settings(max_examples=80, deadline=None)
@given(group_tables(), st.data())
def test_a_swapped_row_is_rejected_as_by_the_full_scan(tables, data):
    bad = swap_in_a_row(tables, data)
    assert_rejected_as_by_the_reference(
        _raised(lambda: make_groupoid(**bad)),
        _raised(naive.check_associativity, bad["comp"]),
        naive.associativity_failures(bad["comp"]),
        _associativity,
    )


@settings(max_examples=20, deadline=None)
@given(group_tables())
def test_valid_group_tables_are_associative_and_generated(tables):
    assert naive.associativity_failures(tables["comp"]) == []
    assert_generated(make_groupoid(**tables))


def _coboundary(g, rng):
    """sigma(x, y) = f(x)·f(y)/f(xy) for random f in {±1, ±i}, 1 on units."""
    f = {a: QC(1) if a in g.unit_arrow_set else rng.choice(POWERS) for a in g.arrows}
    return {(a, b): f[a] * f[b] / f[c] for (a, b), c in g.comp.items()}


COCYCLE_MODELS = [g for _, g in _catalog_groupoids()] + [
    pair_groupoid(["0", "1", "2"])[0],
    z2_on_i5(),
    workloads.z4xz4()[0],
]


def twist_one_value(g, sigma, data):
    """sigma with one value at two non-unit arrows times i: the modulus and
    the normalization stay as they were."""
    units = g.unit_arrow_set
    pairs = sorted(k for k in g.comp if not {*k} & units)
    assume(pairs)
    k = data.draw(st.sampled_from(pairs))
    return {**sigma, k: sigma[k] * QC(0, 1)}


def assert_cocycle_checked_as_by_the_full_scan(g, sigma):
    assert_rejected_as_by_the_reference(
        _raised(make_cocycle, g, sigma),
        _raised(naive.check_cocycle, g.comp, sigma),
        naive.cocycle_failures(g.comp, sigma),
        _cocycle,
    )


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(COCYCLE_MODELS), st.integers(0, 2**16), st.data())
def test_a_twisted_value_is_rejected_as_by_the_full_scan(g, seed, data):
    sigma = _coboundary(g, random.Random(seed))
    assert naive.cocycle_failures(g.comp, sigma) == []
    assert_cocycle_checked_as_by_the_full_scan(g, twist_one_value(g, sigma, data))


@settings(max_examples=20, deadline=None)
@given(bicharacters(), st.integers(1, 2), st.data())
def test_a_twisted_bicharacter_is_rejected_as_by_the_full_scan(params, orbit, data):
    a, b, exps, seed = params
    g, _, sigma = bicharacter_model(a, b, exps, orbit, random.Random(seed))
    assert_cocycle_checked_as_by_the_full_scan(g, twist_one_value(g, sigma.sigma, data))


# ------------------------------------------------------------------- CLI


def _error(capsys, *argv):
    assert main(list(argv)) == 2
    return capsys.readouterr().err


def test_the_cli_rejects_a_swapped_row(capsys, tmp_path):
    tables = _group_tables(*_cyclic_product(1, 4))
    comp = dict(tables["comp"])
    comp[("01", "01")], comp[("01", "02")] = comp[("01", "02")], comp[("01", "01")]
    g = make_groupoid(**tables)
    doc = groupoid_doc(g)
    doc["comp"] = sorted([a, b, c] for (a, b), c in comp.items())
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    err = _error(capsys, "analyze", str(path))
    prefix = "error: $: invalid groupoid: "
    assert err.startswith(prefix)
    assert err[len(prefix):].strip() in {_associativity(t) for t in naive.associativity_failures(comp)}


def test_the_cli_rejects_a_twisted_value(capsys, tmp_path):
    g, _, sigma = workloads.z4xz4()
    doc = cocycle_doc(sigma)
    table = dict(sigma.sigma)
    table[("11", "12")] = table[("11", "12")] * QC(0, 1)
    doc["values"] = sorted([a, b, v.as_quad()] for (a, b), v in table.items())
    gpath, cpath = tmp_path / "g.json", tmp_path / "c.json"
    gpath.write_text(json.dumps(groupoid_doc(g)))
    cpath.write_text(json.dumps(doc))
    err = _error(capsys, "algebra", str(gpath), "--cocycle", str(cpath))
    prefix = "error: $.values: invalid cocycle: "
    assert err.startswith(prefix)
    assert err[len(prefix):].strip() in {_cocycle(t) for t in naive.cocycle_failures(g.comp, table)}

