import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpd.algebra import (
    block_decomposition,
    block_structure,
    cc_space,
    concrete_algebra,
    convolve,
    delta,
    element_vector,
    make_cocycle,
    make_element,
    reduced_norm,
    regular_rep,
    star,
    trivial_cocycle,
    vector_element,
    zero_element,
)
from gpd import algebra, catalog
from gpd.cartan import Analysis, unit_subalgebra
from gpd.errors import (
    AxiomViolation,
    GroupoidMismatch,
    InvalidCocycle,
    InvariantViolation,
    NotClosed,
    UnknownPoint,
)
from gpd.groupoid import make_haar, pair_groupoid
from gpd.qlin import QC, ZERO

import naive_convolve
from conftest import klein_groupoid


# ----------------------------------------------------------- element algebra


def test_element_arithmetic(pair3):
    g = pair3["g"]
    f = make_element(g, {"0~1": 2, "1~1": Fraction(1, 3)})
    h = delta(g, "0~1", -1)
    total = f + h
    assert total.value("0~1") == QC(1)
    assert total.value("1~1") == QC(Fraction(1, 3))
    assert total.value("2~2") == QC(0)
    assert (f - f) == zero_element(g)
    assert (-f) == f.scale(-1)
    assert f.scale(Fraction(1, 2)).value("0~1") == QC(1)
    assert f.support == ("0~1", "1~1")


def test_vector_round_trip(pair3):
    g = pair3["g"]
    f = make_element(g, {"0~2": 5, "1~0": -2})
    assert vector_element(g, element_vector(f)) == f
    assert len(element_vector(f)) == len(g.arrows)


def test_make_element_rejects_unknown_arrow(pair3):
    with pytest.raises(UnknownPoint):
        make_element(pair3["g"], {"7~7": 1})


def test_convolve_rejects_mixed_groupoids():
    g1, _ = pair_groupoid(["0", "1"], name="left")
    g2, _ = pair_groupoid(["0", "1"], name="right")
    with pytest.raises(GroupoidMismatch):
        convolve(delta(g1, "0~1"), delta(g2, "0~1"))


# ------------------------------------------------------- admissible function


def test_admissible_dimensions(a1, a2, a3, a4, two_involutions, pair3):
    expected = {
        "a1": (a1, 8, 10),
        "a2": (a2, 7, 9),
        "a3": (a3, 9, 9),
        "a4": (a4, 10, 10),
        "six": (two_involutions, 5, 16),
        "pair3": (pair3, 9, 9),
    }
    for name, (model, dim, arrows) in expected.items():
        g = model["g"]
        assert len(g.arrows) == arrows, name
        assert cc_space(g).dim == dim, name


def test_glued_interval_unit_indicator_is_not_admissible(a2):
    g = a2["g"]
    ones = make_element(g, {g.unit_arrow[x]: 1 for x in g.units.points})
    assert not cc_space(g).contains(ones)


def test_glued_interval_tie_vector_is_admissible(a2):
    g = a2["g"]
    tie = make_element(g, {"a~b": 1, "0~0": 1, "b~a": 1})
    assert cc_space(g).contains(tie)


def test_full_dimension_when_etale_with_separated_arrows(a3, a4, pair3):
    for model in (a3, a4, pair3):
        g = model["g"]
        assert cc_space(g).dim == len(g.arrows)


# ---------------------------------------------------------------- convolution


def test_pair_deltas_are_matrix_units(pair3):
    g, haar = pair3["g"], pair3["haar"]
    pts = list(g.units.points)
    for x, y, z, w in itertools.product(pts, repeat=4):
        prod = convolve(delta(g, f"{x}~{y}"), delta(g, f"{z}~{w}"), haar)
        if y == z:
            assert prod == delta(g, f"{x}~{w}")
        else:
            assert prod == zero_element(g)


def test_unit_deltas_act_as_identities_on_counting_haar(a1):
    g, haar = a1["g"], a1["haar"]
    for arrow in g.arrows:
        left = delta(g, g.unit_arrow[g.r[arrow]])
        right = delta(g, g.unit_arrow[g.s[arrow]])
        assert convolve(left, delta(g, arrow), haar) == delta(g, arrow)
        assert convolve(delta(g, arrow), right, haar) == delta(g, arrow)


def test_convolution_associative_exhaustive(a1, klein):
    g, haar = a1["g"], a1["haar"]
    for a, b, c in itertools.product(g.arrows, repeat=3):
        fa, fb, fc = delta(g, a), delta(g, b), delta(g, c)
        assert convolve(convolve(fa, fb, haar), fc, haar) == convolve(
            fa, convolve(fb, fc, haar), haar
        )
    kg, kh, ks = klein["g"], klein["haar"], klein["sigma"]
    for a, b, c in itertools.product(kg.arrows, repeat=3):
        fa, fb, fc = delta(kg, a), delta(kg, b), delta(kg, c)
        assert convolve(convolve(fa, fb, kh, ks), fc, kh, ks) == convolve(
            fa, convolve(fb, fc, kh, ks), kh, ks
        )


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=12, max_size=12))
def test_twisted_associativity_on_random_elements(coeffs):
    g = klein_groupoid()
    sigma = make_cocycle(
        g, {(a, b): (-1) ** (int(a[1]) * int(b[0])) for a in g.arrows for b in g.arrows}
    )
    f = vector_element(g, [QC(v) for v in coeffs[0:4]])
    h = vector_element(g, [QC(v) for v in coeffs[4:8]])
    k = vector_element(g, [QC(v) for v in coeffs[8:12]])
    left = convolve(convolve(f, h, sigma=sigma), k, sigma=sigma)
    right = convolve(f, convolve(h, k, sigma=sigma), sigma=sigma)
    assert left == right


# Differential tests: the range-indexed kernel against the all-pairs one it
# replaced (tests/naive_convolve.py), over every catalog groupoid, twisted
# cocycle_klein included, under no Haar system, the entry's own (cross_a2
# weights its fixed point) or one that weights each source point
# differently, so that weight(inv(beta)) and weight(beta) part.

PARTS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
SCALARS = st.builds(QC, PARTS, st.one_of(st.just(Fraction(0)), PARTS))


@functools.cache
def _entry(name):
    bundle = catalog.build(name)
    return bundle["groupoid"], bundle["haar"], bundle["sigma"]


def _by_source(g, mass):
    return make_haar(g, {a: mass[g.s[a]] for a in g.arrows})


def test_convolve_matches_the_all_pairs_kernel_on_arrow_pairs():
    # Every pair of point masses: the product is nonzero exactly when the
    # pair composes, and `_products` forms it exactly then.
    for name in catalog.names():
        g, haar, sigma = _entry(name)
        spread = _by_source(g, {x: i + 1 for i, x in enumerate(g.units.points)})
        deltas = [delta(g, a, QC(1, 1)) for a in g.arrows]
        twists = (None,) if sigma is None else (None, sigma)
        for h, s in itertools.product((None, haar, spread), twists):
            for f, k in itertools.product(deltas, repeat=2):
                got = convolve(f, k, h, s)
                assert got == naive_convolve.convolve(f, k, h, s), (name, f.support, k.support)
                composes = g.s[f.support[0]] == g.r[k.support[0]]
                assert composes == bool(got.coeffs)
                assert algebra._products([f], [k], h, s) == ({(0, 0): got} if composes else {})


@st.composite
def products(draw):
    g, haar, sigma = _entry(draw(st.sampled_from(catalog.names())))
    kind = draw(st.sampled_from(("none", "entry", "by source")))
    if kind == "none":
        haar = None
    elif kind == "by source":
        haar = _by_source(g, {x: draw(st.integers(1, 4)) for x in g.units.points})
    sigma = sigma if draw(st.booleans()) else None

    def element():
        return make_element(g, draw(st.dictionaries(st.sampled_from(g.arrows), SCALARS, max_size=5)))

    return element(), element(), haar, sigma


@settings(max_examples=150, deadline=None)
@given(products())
def test_convolve_matches_the_all_pairs_kernel(drawn):
    # Sums of several terms: the same coefficients, added in the same order.
    f, h, haar, sigma = drawn
    got = convolve(f, h, haar, sigma)
    want = naive_convolve.convolve(f, h, haar, sigma)
    assert list(got.coeffs.items()) == list(want.coeffs.items())
    # `_products` skips a pair only when its product is zero
    assert algebra._products([f], [h], haar, sigma) == ({(0, 0): got} if got.coeffs else {})


# ----------------------------------------------------------------- involution


def test_star_is_involutive_and_antimultiplicative(a1, klein):
    g, haar = a1["g"], a1["haar"]
    f = make_element(g, {a: i - 2 for i, a in enumerate(sorted(g.arrows))})
    assert star(star(f)) == f
    for a, b in itertools.product(g.arrows, repeat=2):
        fa, fb = delta(g, a), delta(g, b)
        assert star(convolve(fa, fb, haar)) == convolve(star(fb), star(fa), haar)
    kg, kh, ks = klein["g"], klein["haar"], klein["sigma"]
    for a, b in itertools.product(kg.arrows, repeat=2):
        fa, fb = delta(kg, a), delta(kg, b)
        assert star(convolve(fa, fb, kh, ks), ks) == convolve(
            star(fb, ks), star(fa, ks), kh, ks
        )
        assert star(star(fa, ks), ks) == fa


def test_twist_flips_sign_of_double_generator(klein):
    g, sigma = klein["g"], klein["sigma"]
    f = delta(g, "11")
    assert star(f, sigma) == f.scale(-1)
    assert star(f) == f  # untwisted involution fixes it


# ------------------------------------------------------------------- cocycles


def test_trivial_cocycle_matches_none(a1):
    g, haar = a1["g"], a1["haar"]
    triv = trivial_cocycle(g)
    assert triv.validated
    for a, b in itertools.product(g.arrows, repeat=2):
        fa, fb = delta(g, a), delta(g, b)
        assert convolve(fa, fb, haar, triv) == convolve(fa, fb, haar)


def test_cocycle_validation_rejects_bad_tables(klein):
    g = klein["g"]
    table = {(a, b): (-1) ** (int(a[1]) * int(b[0])) for a in g.arrows for b in g.arrows}
    bad_modulus = dict(table)
    bad_modulus[("01", "10")] = 2
    with pytest.raises(InvalidCocycle):
        make_cocycle(g, bad_modulus)
    not_normalized = dict(table)
    not_normalized[("00", "01")] = -1
    with pytest.raises(InvalidCocycle):
        make_cocycle(g, not_normalized)
    broken_identity = dict(table)
    broken_identity[("10", "10")] = -table[("10", "10")]
    with pytest.raises(InvalidCocycle):
        make_cocycle(g, broken_identity)
    unchecked = make_cocycle(g, broken_identity, check=False)
    assert not unchecked.validated


def test_corrupted_cocycle_breaks_associativity(klein):
    g, haar = klein["g"], klein["haar"]
    table = {(a, b): (-1) ** (int(a[1]) * int(b[0])) for a in g.arrows for b in g.arrows}
    table[("10", "10")] = -table[("10", "10")]
    fake = make_cocycle(g, table, check=False)
    fa, fb = delta(g, "10"), delta(g, "01")
    left = convolve(convolve(fa, fa, haar, fake), fb, haar, fake)
    right = convolve(fa, convolve(fa, fb, haar, fake), haar, fake)
    assert left == right.scale(-1)
    assert left != right


def test_algebra_rejects_an_unvalidated_cocycle(klein):
    # Closed under the corrupted twist, the span would be the 16-dimensional
    # matrix algebra it generates, not a twisted algebra.
    table = dict(klein["sigma"].sigma)
    table[("10", "10")] = -table[("10", "10")]
    fake = make_cocycle(klein["g"], table, check=False)
    with pytest.raises(InvalidCocycle, match="validated cocycle"):
        concrete_algebra(klein["g"], sigma=fake, haar=klein["haar"])


def test_noninvariant_weights_break_the_representation():
    g, _ = pair_groupoid(["p", "q"], name="pq")
    haar = make_haar(g, {a: (2 if a == "p~q" else 1) for a in g.arrows}, validate=False)
    f, h = delta(g, "q~q"), delta(g, "q~p")
    prod = convolve(f, h, haar)
    assert prod == delta(g, "q~p").scale(2)
    fiber, rows = regular_rep(g, "q", prod, haar)
    assert fiber == ("p~q", "q~q")
    assert rows[1][0] == QC(2)
    mf, mh = (
        np.array([[x.to_complex() for x in row] for row in regular_rep(g, "q", k, haar)[1]])
        for k in (f, h)
    )
    assert (mf @ mh)[1][0] == pytest.approx(1.0)  # rep is not multiplicative here


def test_algebra_rejects_an_unvalidated_haar_system():
    g, _ = pair_groupoid(["p", "q"], name="pq")
    haar = make_haar(g, {a: (2 if a == "p~q" else 1) for a in g.arrows}, validate=False)
    with pytest.raises(AxiomViolation, match="validated Haar system"):
        concrete_algebra(g, haar=haar)


# -------------------------------------------------------------- representation


def _dense_blocks(alg, f):
    return [
        [[blk.get(i, {}).get(j, ZERO) for j in range(n)] for i in range(n)]
        for blk, n in zip(alg.represent(f), alg.block_shapes)
    ]


def _block_product(x, y):
    return [
        [[sum((a[i][t] * b[t][j] for t in range(len(a))), ZERO) for j in range(len(a))]
         for i in range(len(a))]
        for a, b in zip(x, y)
    ]


def _weighted_adjoint(x, weight_diags):
    """D^-1 M^H D per block, D the fiber's diagonal of Haar weights."""
    return [
        [[m[j][i].conj() * QC(dw[j] / dw[i]) for j in range(len(m))] for i in range(len(m))]
        for m, dw in zip(x, weight_diags)
    ]


def test_regular_representation_is_multiplicative_and_adjoint(pair3, klein):
    # The closure and the block analysis work on arrow functions; they are
    # answers about the represented algebra only because the representation
    # on one unit per orbit is an exact *-homomorphism. Checked on every
    # closed basis of the catalog (weighted cross_a2, twisted cocycle_klein
    # included), on the Klein twist made complex by a coboundary, and on two
    # complex elements of pair3 under a Haar system whose weights differ
    # between an arrow and its inverse.
    g = pair3["g"]
    haar = make_haar(g, {a: 1 + int(g.s[a]) for a in g.arrows})
    f = make_element(g, {"0~1": 2, "1~2": QC(-1, 2), "2~2": 3})
    h = make_element(g, {"1~0": QC(0, 1), "2~1": 4, "0~0": -2})
    cases = [(concrete_algebra(g, haar=haar), [f, h])]
    kg = klein["g"]
    c = {a: QC(Fraction(3, 5), Fraction(4, 5)) if a == "01" else QC(1) for a in kg.arrows}
    twist = make_cocycle(kg, {
        (a, b): klein["sigma"].value(a, b) * c[a] * c[b] * c[ab].conj()
        for (a, b), ab in kg.comp.items()
    })
    algs = [concrete_algebra(kg, sigma=twist, haar=klein["haar"])]
    algs += [catalog.build(name)["analysis"].algebra for name in catalog.names()]
    cases += [(alg, alg.closed) for alg in algs]
    for alg, elements in cases:
        haar, sigma, weights = alg.haar, alg.sigma, alg.weight_diags()
        dense = [_dense_blocks(alg, a) for a in elements]
        for a, ma in zip(elements, dense):
            assert _dense_blocks(alg, star(a, sigma)) == _weighted_adjoint(ma, weights)
            for b, mb in zip(elements, dense):
                assert _dense_blocks(alg, convolve(a, b, haar, sigma)) == _block_product(ma, mb)


def test_reduced_norm_oracles(pair3):
    g, haar = pair3["g"], pair3["haar"]
    assert reduced_norm(zero_element(g), haar) == 0.0
    ones_units = make_element(g, {g.unit_arrow[x]: 1 for x in g.units.points})
    assert reduced_norm(ones_units, haar) == pytest.approx(1.0, abs=1e-12)
    assert reduced_norm(delta(g, "0~1"), haar) == pytest.approx(1.0, abs=1e-12)
    for n in (2, 3, 4):
        gn, hn = pair_groupoid([str(i) for i in range(n)], name=f"pair{n}")
        all_ones = make_element(gn, {a: 1 for a in gn.arrows})
        assert reduced_norm(all_ones, hn) == pytest.approx(float(n), abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=9, max_size=9))
def test_cstar_identity_on_random_elements(coeffs):
    g, haar = pair_groupoid(["0", "1", "2"], name="pair3h")
    f = vector_element(g, [QC(v) for v in coeffs])
    n_f = reduced_norm(f, haar)
    n_sf = reduced_norm(convolve(star(f), f, haar), haar)
    assert abs(n_sf - n_f * n_f) <= 1e-9 * (1.0 + n_f * n_f)


def test_cstar_identity_with_twist(klein):
    g, haar, sigma = klein["g"], klein["haar"], klein["sigma"]
    f = make_element(g, {"00": 1, "01": -2, "10": 3, "11": Fraction(1, 2)})
    n_f = reduced_norm(f, haar, sigma)
    n_sf = reduced_norm(convolve(star(f, sigma), f, haar, sigma), haar, sigma)
    assert abs(n_sf - n_f * n_f) <= 1e-9 * (1.0 + n_f * n_f)


# --------------------------------------------------------- represented algebra


def test_span_closure_dimensions(a1, a2, a3, a4, two_involutions, pair3):
    expected = {
        "a1": (a1, 8, 10, False),
        "a2": (a2, 7, 9, False),
        "a3": (a3, 9, 9, True),
        "a4": (a4, 10, 10, True),
        "six": (two_involutions, 5, 5, True),
        "pair3": (pair3, 9, 9, True),
    }
    for name, (model, span, closed, flag) in expected.items():
        alg = concrete_algebra(model["g"], sigma=model["sigma"], haar=model["haar"])
        assert alg.span_dim == span, name
        assert alg.dim == closed, name
        assert alg.is_closed_span is flag, name


def test_block_decompositions(a1, a2, a3, a4, two_involutions, pair3, klein):
    cases = [
        (a1, (2, 2, 1, 1)),
        (a2, (2, 2, 1)),
        (a3, (2, 2, 1)),
        (a4, (2, 2, 1, 1)),
        (two_involutions, (1, 1, 1, 1, 1)),
        (pair3, (3,)),
        (klein, (2,)),
    ]
    for model, blocks in cases:
        alg = concrete_algebra(model["g"], sigma=model["sigma"], haar=model["haar"])
        assert block_decomposition(alg) == blocks
    untwisted = concrete_algebra(klein["g"], haar=klein["haar"])
    assert block_decomposition(untwisted) == (1, 1, 1, 1)


def test_block_structure_consistency(a1):
    alg = concrete_algebra(a1["g"], haar=a1["haar"])
    info = block_structure(alg)
    assert info["sizes"] == (2, 2, 1, 1)
    assert sum(n * n for n in info["sizes"]) == alg.dim
    assert set(info) == {"sizes"}


def test_block_structure_rejects_non_closed_span(a1):
    alg = concrete_algebra(a1["g"], haar=a1["haar"])
    with pytest.raises(NotClosed):
        block_structure(alg, basis=alg.cc.basis)
    assert alg._structure is None  # the failed control leaves nothing behind


def test_block_count_is_checked_against_the_exact_center(monkeypatch):
    # The untwisted Klein algebra is four 1x1 blocks, with its unit at
    # closed[0]. Each corruption of the exact data below breaks one of the
    # trace identities, and must raise rather than return a multiset.
    def untwisted():
        return catalog.build("cocycle_klein")["extras"]["untwisted"].algebra

    # One center vector dropped: M_w has no square eigenvalue left.
    alg = untwisted()
    rows = algebra._commutation_rows
    monkeypatch.setattr(algebra, "_commutation_rows", lambda xy, yx: rows(xy, yx) + [{3: QC(1)}])
    with pytest.raises(InvariantViolation, match="center has dimension 3"):
        block_structure(alg)
    monkeypatch.undo()
    # The unit's square lost from the product table.
    alg = untwisted()
    del alg._products[0, 0]
    with pytest.raises(InvariantViolation, match="trace form of the center is degenerate"):
        block_structure(alg)
    # The unit acting as 4 on closed[1]: four square eigenvalues, which
    # overcount the dimension.
    alg = untwisted()
    for ij in ((0, 1), (1, 0)):
        alg._products[ij] = {c: QC(4) * x for c, x in alg._products[ij].items()}
    with pytest.raises(InvariantViolation, match="account for the dimension"):
        block_structure(alg)


def _catalog_algebras():
    """A fresh algebra for every catalog entry and every companion model
    (rotation's companion, fourier's dual, cocycle_klein untwisted)."""
    out = []
    for name in catalog.names():
        bundle = catalog.build(name)
        models = {name: bundle["analysis"]}
        models.update((f"{name}/{k}", v) for k, v in bundle["extras"].items() if isinstance(v, Analysis))
        for label, an in models.items():
            out.append((label, concrete_algebra(an.groupoid, sigma=an.sigma, haar=an.haar)))
    return out


def test_closure_keeps_every_nonzero_product():
    # Block splitting reads the closure's product table instead of forming
    # products, so the table must hold exactly the nonzero products of all
    # ordered pairs of the closed basis, as the naive all-pairs loop forms them.
    algs = _catalog_algebras()
    assert {"rotation/companion", "fourier/dual", "cocycle_klein/untwisted"} <= {n for n, _ in algs}
    for name, alg in algs:
        naive = {}
        for (i, f), (j, h) in itertools.product(enumerate(alg.closed), repeat=2):
            p = algebra._arrow_coords(convolve(f, h, alg.haar, alg.sigma))
            if p:
                naive[i, j] = p
        assert alg._products == naive, name
        assert alg._span.rank == alg.dim, name


def test_block_splitting_forms_no_product(monkeypatch):
    algs = _catalog_algebras()
    calls = []
    original = algebra.convolve
    monkeypatch.setattr(algebra, "convolve", lambda *args: calls.append(args) or original(*args))
    for name, alg in algs:
        assert block_structure(alg)["sizes"], name
        # the table is released once the structure is kept
        assert alg._products is None and alg._span is None, name
    assert calls == []


def _composable_pairs(xs, ys, since=0):
    """The (i, j) whose supports compose, some source of xs[i]'s support
    being a range of ys[j]'s, with i >= since or j >= since, in (i, j) order."""
    g = xs[0].groupoid
    return [
        (i, j)
        for (i, f), (j, h) in itertools.product(enumerate(xs), enumerate(ys))
        if max(i, j) >= since and any(g.s[a] == g.r[b] for a in f.coeffs for b in h.coeffs)
    ]


def _counting_convolve(monkeypatch):
    calls = []
    original = algebra.convolve
    monkeypatch.setattr(algebra, "convolve", lambda f, h, *rest: calls.append((f, h)) or original(f, h, *rest))
    return calls, original


def _formed(calls, xs, ys):
    """The (i, j) of each recorded `convolve(xs[i], ys[j])` call, in call order."""
    def position(zs, z):
        return next(i for i, y in enumerate(zs) if y is z)

    return [(position(xs, f), position(ys, h)) for f, h in calls]


def test_products_form_each_composable_pair_once(monkeypatch):
    # Over every catalog closed basis, admissible basis and basis of B, in
    # every combination: the naive all-pairs table of nonzero products, in
    # (i, j) order, from one `convolve` call per pair whose supports compose.
    calls, original = _counting_convolve(monkeypatch)
    for name, alg in _catalog_algebras():
        lists = (alg.closed, alg.cc.basis, unit_subalgebra(alg.groupoid).basis)
        for xs, ys in itertools.product(lists, repeat=2):
            naive = {}
            for (i, f), (j, h) in itertools.product(enumerate(xs), enumerate(ys)):
                p = original(f, h, alg.haar, alg.sigma)
                if p.coeffs:
                    naive[i, j] = p
            calls.clear()
            got = algebra._products(xs, ys, alg.haar, alg.sigma)
            assert list(got) == list(naive) and got == naive, name
            assert _formed(calls, xs, ys) == _composable_pairs(xs, ys), name


def test_products_since_forms_only_the_pairs_with_a_later_factor(monkeypatch):
    calls, _ = _counting_convolve(monkeypatch)
    for name, alg in _catalog_algebras():
        xs = alg.closed
        full = algebra._products(xs, xs, alg.haar, alg.sigma)
        for since in sorted({0, 1, len(xs) // 2, len(xs) - 1, len(xs)}):
            calls.clear()
            got = algebra._products(xs, xs, alg.haar, alg.sigma, since=since)
            want = {ij: p for ij, p in full.items() if max(ij) >= since}
            assert list(got) == list(want) and got == want, (name, since)
            assert _formed(calls, xs, xs) == _composable_pairs(xs, xs, since), (name, since)


def test_concrete_algebra_rejects_a_haar_system_or_cocycle_over_another_groupoid():
    # The point names are disjoint, so no support arrows of the two
    # groupoids ever compose: only an up-front check can see the mismatch.
    g, _ = pair_groupoid(["a", "b"])
    other, other_haar = pair_groupoid(["x", "y", "z"])
    with pytest.raises(GroupoidMismatch):
        concrete_algebra(g, haar=other_haar)
    with pytest.raises(GroupoidMismatch):
        concrete_algebra(g, sigma=trivial_cocycle(other))


def test_block_structure_is_kept_on_the_algebra(a1):
    alg = concrete_algebra(a1["g"], haar=a1["haar"])
    first = block_structure(alg)
    assert block_structure(alg) is first
    assert alg.structure is first
    # an explicit basis is analysed afresh and never replaces the kept one
    fresh = block_structure(alg, basis=alg.closed)
    assert fresh is not first and fresh["sizes"] == first["sizes"]
    assert block_structure(alg) is first


def test_unit_restriction_preserves_admissibility_when_etale_separated(a1, a3, a4, pair3):
    for model in (a1, a3, a4, pair3):
        g = model["g"]
        cc = cc_space(g)
        units = g.unit_arrow_set
        for f in cc.basis:
            restricted = make_element(
                g, {a: v for a, v in f.coeffs.items() if a in units}
            )
            assert cc.contains(restricted)
