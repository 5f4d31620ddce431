from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dense_qlin
import fraction_qc
from gpd.errors import InvariantViolation
from gpd.qlin import (
    QC,
    Echelon,
    hermitian_is_pd,
    hermitian_is_psd,
    nullspace,
    qc,
    solve,
)


def m(rows):
    return [[QC(Fraction(v)) if not isinstance(v, QC) else v for v in r] for r in rows]


def sparse(row):
    return {c: x for c, x in enumerate(row) if x}


def dense(row, ncols):
    return [row.get(c, QC(0)) for c in range(ncols)]


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


def test_nullspace_dimension():
    a = m([[1, 2, 3], [2, 4, 6]])
    ns = nullspace([sparse(r) for r in a], 3)
    assert len(ns) == 2
    for v in ns:
        for row in a:
            s = QC(0)
            for c, x in v.items():
                s = s + row[c] * x
            assert not s


def test_solve_consistent_and_inconsistent():
    a = m([[1, 1], [0, 1]])
    x = solve([sparse(r) for r in a], [QC(3), QC(1)], 2)
    assert x == {0: QC(2), 1: QC(1)}
    a2 = m([[1, 1], [1, 1]])
    assert solve([sparse(r) for r in a2], [QC(0), QC(1)], 2) is None
    assert solve([sparse(r) for r in a2], [QC(0), QC(0)], 2) == {}
    # pivots found out of column order still give the answer in column order
    x = solve([{1: QC(1)}, {0: QC(1), 1: QC(2)}], [QC(3), QC(5)], 2)
    assert list(x.items()) == [(0, QC(-1)), (1, QC(3))]


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


def test_a_complex_diagonal_is_a_typed_error():
    for test in (hermitian_is_psd, hermitian_is_pd):
        with pytest.raises(InvariantViolation, match="not Hermitian"):
            test([[QC(0, 1)]])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=1, max_size=4))
def test_gram_matrices_are_psd(rows):
    vecs = m(rows)
    g = [
        [sum((a.conj() * b for a, b in zip(u, v)), QC(0)) for v in vecs]
        for u in vecs
    ]
    assert hermitian_is_psd(g)
    span = Echelon()
    for v in vecs:
        span.add(sparse(v))
    full_rank = span.rank == len(vecs)
    assert hermitian_is_pd(g) == full_rank


# Differential tests: the sparse kernel against the dense one it replaced
# (tests/dense_qlin.py), on small Gaussian-rational matrices with zero rows,
# repeated rows, and non-integer and imaginary parts.

PARTS = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)))
ENTRIES = st.one_of(st.just(QC(0)), st.builds(QC, PARTS, PARTS))


@st.composite
def matrices(draw):
    ncols = draw(st.integers(0, 6))
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


def in_column_order(row):
    return list(row) == sorted(row) and all(row.values())


def check_solve(eqs, b, nvars, expected):
    """`solve` on the sparse form of the dense equations `eqs` gives the
    reference answer, densified, in column order. With no equations the
    reference answers [] at any width; `solve` gives the zero vector."""
    x = solve([sparse(r) for r in eqs], b, nvars)
    if not eqs:
        expected = [QC(0)] * nvars
    if expected is None:
        assert x is None
    else:
        assert x is not None and in_column_order(x)
        assert dense(x, nvars) == expected


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_elimination_matches_the_dense_kernel(drawn, data):
    ncols, rows = drawn
    kernel = nullspace([sparse(r) for r in rows], ncols)
    assert all(in_column_order(v) for v in kernel)
    assert [dense(v, ncols) for v in kernel] == dense_qlin.nullspace(rows, ncols)
    b = data.draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)))
    check_solve(rows, b, ncols, dense_qlin.solve(rows, b))
    # Consistent systems too: a target in the span of the rows, solved for
    # its coefficients with the rows as columns.
    target = data.draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols))
    if rows and data.draw(st.booleans()):
        coeffs = data.draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)))
        target = [sum((c * r[i] for c, r in zip(coeffs, rows)), QC(0)) for i in range(ncols)]
    columns = [[r[i] for r in rows] for i in range(ncols)]
    check_solve(columns, target, len(rows), dense_qlin.in_span(rows, target))


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_echelon_matches_the_dense_kernel(drawn, data):
    ncols, rows = drawn
    new, old = Echelon(), dense_qlin.Echelon()
    for row in rows:
        assert new.add(sparse(row)) == old.add(row)
        assert list(new.row_of) == old.pivots
        assert new.rank == old.rank
        assert [dense(r, ncols) for r in new.row_of.values()] == old.rows
    probes = data.draw(st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols), max_size=4))
    for vec in probes + rows:
        assert dense(new.residual(dict(enumerate(vec))), ncols) == old.residual(vec)
        assert new.contains(sparse(vec)) == old.contains(vec)


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
