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
from gpd.errors import (
    AxiomViolation,
    GroupoidMismatch,
    InvalidCocycle,
    InvariantViolation,
    NotClosed,
    UnknownPoint,
)
from gpd.groupoid import make_haar, pair_groupoid
from gpd.qlin import QC, ZERO, to_complex_matrix

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
    mf = np.array(to_complex_matrix(regular_rep(g, "q", f, haar)[1]))
    mh = np.array(to_complex_matrix(regular_rep(g, "q", h, haar)[1]))
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
    assert len(info["subspaces"]) == len(info["sizes"])


def test_block_structure_rejects_non_closed_span(a1):
    alg = concrete_algebra(a1["g"], haar=a1["haar"])
    with pytest.raises(NotClosed):
        block_structure(alg, basis=alg.cc.basis)
    assert alg._structure is None  # the failed control leaves nothing behind


def test_block_count_is_checked_against_the_exact_center(monkeypatch):
    # An eigen split that separates nothing leaves the untwisted Klein
    # algebra (four 1x1 blocks) as one 4-dimensional subspace, on which the
    # algebra has rank 4: a plausible single 2x2 block with the right total
    # dimension. Only the exact center, of dimension 4, exposes it.
    alg = catalog.build("cocycle_klein")["extras"]["untwisted"].algebra
    monkeypatch.setattr(algebra, "_split_by_hermitian", lambda subspaces, h: subspaces)
    with pytest.raises(InvariantViolation, match="center has dimension 4"):
        block_structure(alg)


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
