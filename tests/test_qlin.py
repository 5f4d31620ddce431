from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dense_qlin
import fraction_qc
from gpd.qlin import (
    QC,
    Echelon,
    hermitian_is_pd,
    hermitian_is_psd,
    in_span,
    nullspace,
    qc,
    rank,
    rref,
    solve,
)


def m(rows):
    return [[QC(Fraction(v)) if not isinstance(v, QC) else v for v in r] for r in rows]


def test_qc_field_ops():
    a = QC(Fraction(1, 2), Fraction(3))
    b = QC(2, -1)
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a.conj().conj() == a
    assert (a * a.conj()).im == 0
    assert a.abs2() == Fraction(1, 4) + 9


def test_qc_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QC(1) / QC(0)


def test_qc_quad_round_trip():
    a = QC(Fraction(-3, 7), Fraction(5, 2))
    assert QC.from_quad(a.as_quad()) == a


def test_qc_rejects_floats():
    with pytest.raises(TypeError):
        qc(0.5)


def test_rank_and_rref():
    a = m([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    red, pivots = rref(a)
    assert pivots == [0, 1]
    assert rank(a) == 2


def test_nullspace_dimension():
    a = m([[1, 2, 3], [2, 4, 6]])
    ns = nullspace(a)
    assert len(ns) == 2
    for v in ns:
        for row in a:
            s = QC(0)
            for c, x in zip(row, v):
                s = s + c * x
            assert not s


def test_solve_consistent_and_inconsistent():
    a = m([[1, 1], [0, 1]])
    x = solve(a, [QC(3), QC(1)])
    assert x == [QC(2), QC(1)]
    a2 = m([[1, 1], [1, 1]])
    assert solve(a2, [QC(0), QC(1)]) is None


def test_in_span():
    vecs = [[QC(1), QC(0), QC(1)], [QC(0), QC(1), QC(1)]]
    assert in_span(vecs, [QC(2), QC(3), QC(5)]) == [QC(2), QC(3)]
    assert in_span(vecs, [QC(0), QC(0), QC(1)]) is None


def test_hermitian_definiteness():
    pd = m([[2, 0], [0, 3]])
    assert hermitian_is_pd(pd)
    psd = m([[1, 1], [1, 1]])
    assert hermitian_is_psd(psd) and not hermitian_is_pd(psd)
    indef = m([[1, 2], [2, 1]])
    assert not hermitian_is_psd(indef)
    # complex Hermitian with positive pivots
    h = [[QC(2), QC(0, 1)], [QC(0, -1), QC(2)]]
    assert hermitian_is_pd(h)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=1, max_size=4))
def test_gram_matrices_are_psd(rows):
    vecs = m(rows)
    g = [
        [sum((a.conj() * b for a, b in zip(u, v)), QC(0)) for v in vecs]
        for u in vecs
    ]
    assert hermitian_is_psd(g)
    full_rank = rank(vecs) == len(vecs)
    assert hermitian_is_pd(g) == full_rank


# Differential tests: the sparse kernel against the dense one it replaced
# (tests/dense_qlin.py), on small Gaussian-rational matrices with zero rows,
# repeated rows, and non-integer and imaginary parts.

PARTS = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)))
ENTRIES = st.one_of(st.just(QC(0)), st.builds(QC, PARTS, PARTS))


@st.composite
def matrices(draw, ncols=None):
    ncols = ncols if ncols is not None else draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "repeat", "combination")))
        if kind == "zero":
            rows.append([QC(0)] * ncols)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combination" and len(rows) >= 2:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            f = draw(ENTRIES)
            rows.append([x + f * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols)))
    return ncols, rows


def dense(row, ncols):
    return [row.get(c, QC(0)) for c in range(ncols)]


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_elimination_matches_the_dense_kernel(drawn, data):
    ncols, rows = drawn
    assert rref(rows) == dense_qlin.rref(rows)
    assert rank(rows) == dense_qlin.rank(rows)
    assert nullspace(rows, ncols) == dense_qlin.nullspace(rows, ncols)
    sparse_rows = [{c: x for c, x in enumerate(r) if x} for r in rows]
    assert nullspace(sparse_rows, ncols) == dense_qlin.nullspace(rows, ncols)
    b = data.draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)))
    assert solve(rows, b) == dense_qlin.solve(rows, b)
    target = data.draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols))
    if rows and data.draw(st.booleans()):
        coeffs = data.draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)))
        target = [sum((c * r[i] for c, r in zip(coeffs, rows)), QC(0)) for i in range(ncols)]
    assert in_span(rows, target) == dense_qlin.in_span(rows, target)


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_echelon_matches_the_dense_kernel(drawn, data):
    ncols, rows = drawn
    new, old = Echelon(), dense_qlin.Echelon()
    for row in rows:
        assert new.add(row) == old.add(row)
        assert new.pivots == old.pivots
        assert new.rank == old.rank
        assert [dense(r, ncols) for r in new.rows] == old.rows
    probes = data.draw(st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols), max_size=4))
    for vec in probes + rows:
        assert dense(new.residual(vec), ncols) == old.residual(vec)
        assert new.contains(vec) == old.contains(vec)
        assert new.contains({c: x for c, x in enumerate(vec) if x}) == old.contains(vec)


# Differential test of the scalar: the three-int QC against the Fraction-pair
# QC it replaced (tests/fraction_qc.py). Parts are drawn as numerator and
# denominator pairs, so they come zero, negative, non-reduced (a common
# factor in both) and large, and reach the constructor as ints or Fractions.

SMALL = st.integers(-12, 12)
LARGE = st.integers(-(2**80), 2**80)


@st.composite
def scalar_parts(draw):
    num = draw(st.one_of(st.just(0), SMALL, LARGE))
    if draw(st.booleans()):
        return num
    den = draw(st.one_of(st.integers(1, 12), st.integers(1, 2**80)))
    common = draw(st.sampled_from((1, 1, 2, 6, 2**40)))
    sign = draw(st.sampled_from((1, -1)))
    return Fraction(num * common, sign * den * common)


@st.composite
def scalar_pairs(draw):
    re, im = draw(scalar_parts()), draw(scalar_parts())
    return QC(re, im), fraction_qc.QC(re, im)


def same(new, ref):
    """The same value, seen every way a caller can see it."""
    assert type(new) is QC
    assert (new.re, new.im) == (ref.re, ref.im)
    assert type(new.re) is Fraction and type(new.im) is Fraction
    assert new.as_quad() == ref.as_quad()
    assert repr(new) == repr(ref)
    assert hash(new) == hash(ref)
    assert bool(new) == bool(ref)
    assert new.to_complex() == ref.to_complex()
    assert new.abs2() == ref.abs2()
    assert QC.from_quad(new.as_quad()) == new


@settings(max_examples=300, deadline=None)
@given(scalar_pairs(), scalar_pairs())
def test_qc_matches_the_fraction_pair_reference(x, y):
    (a, ra), (b, rb) = x, y
    same(a, ra)
    same(a + b, ra + rb)
    same(a - b, ra - rb)
    same(a * b, ra * rb)
    same(-a, -ra)
    same(a.conj(), ra.conj())
    assert (a == b) == (ra == rb)
    assert a == QC(ra.re, ra.im) and not (a != QC(ra.re, ra.im))
    assert (a == b) == (a.as_quad() == b.as_quad())
    if rb:
        same(a / b, ra / rb)
    else:
        with pytest.raises(ZeroDivisionError):
            a / b
        with pytest.raises(ZeroDivisionError):
            ra / rb


def test_qc_accepts_what_fraction_accepts():
    for re, im in ((0.5, 0), ("2/3", -1), (True, False), (Decimal("1.25"), Fraction(-3, 4)), (7, "1/9")):
        same(QC(re, im), fraction_qc.QC(re, im))
    assert not hasattr(QC(1), "__dict__")
    assert not any(isinstance(getattr(QC(Fraction(1, 2), 3), slot), Fraction) for slot in QC.__slots__)
