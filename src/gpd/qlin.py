"""Exact linear algebra over the Gaussian rationals.

Rank, span, commutant, and positivity decisions elsewhere in the package must
not depend on floating-point tolerances (they flip discrete answers), so all
of them are reduced to the routines here. Their scalar, `QC`, is a Gaussian
rational (a + b*i) / d stored as three ints in lowest terms, so arithmetic
is integer arithmetic plus at most one gcd; `re` and `im` give the parts as
fractions.Fraction. Floating point enters the package only through
to_complex(), at the norm/spectral boundary.

Elimination is sparse: every row, given or returned, is a {column: QC} dict
of its nonzero entries. `Echelon` keeps the reduced rows in that form, and
`nullspace` and `solve` run through it, so their cost follows the nonzero
entries, not the width of the rows. Only the Hermitian positivity tests take
dense matrices: their Gram matrices are dense by nature.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

from .errors import InvariantViolation

__all__ = [
    "QC",
    "qc",
    "nullspace",
    "solve",
    "hermitian_is_pd",
    "hermitian_is_psd",
    "Echelon",
]


class QC:
    """A Gaussian rational (a + b*i) / d, stored as three ints.

    The denominator is positive and gcd(a, b, d) == 1, so the form is
    unique and equality is equality of the triples. `re` and `im` give the
    parts as Fractions; hashes, text and floats are those of that Fraction
    pair.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        if not isinstance(re, (int, Fraction)):
            re = Fraction(re)
        if not isinstance(im, (int, Fraction)):
            im = Fraction(im)
        # ints and Fractions both carry reduced numerator/denominator pairs;
        # over the lcm of the denominators the triple is already reduced.
        p, q, r, s = re.numerator, re.denominator, im.numerator, im.denominator
        if q == s:
            self.a, self.b, self.d = p, r, q
        else:
            d = q * s // gcd(q, s)
            self.a, self.b, self.d = p * (d // q), r * (d // s), d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other: "QC") -> "QC":
        d = self.d
        if d == other.d:
            if d == 1:
                return _qc(self.a + other.a, self.b + other.b, 1)
            return _reduced(self.a + other.a, self.b + other.b, d)
        e = other.d
        return _reduced(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    def __sub__(self, other: "QC") -> "QC":
        d = self.d
        if d == other.d:
            if d == 1:
                return _qc(self.a - other.a, self.b - other.b, 1)
            return _reduced(self.a - other.a, self.b - other.b, d)
        e = other.d
        return _reduced(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __neg__(self) -> "QC":
        return _qc(-self.a, -self.b, self.d)

    def __mul__(self, other: "QC") -> "QC":
        a, b, c, e = self.a, self.b, other.a, other.b
        if b or e:
            re, im = a * c - b * e, a * e + b * c
        else:
            re, im = a * c, 0
        d = self.d * other.d
        if d == 1:
            return _qc(re, im, 1)
        return _reduced(re, im, d)

    def __truediv__(self, other: "QC") -> "QC":
        # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c^2 + e^2))
        a, b, c, e = self.a, self.b, other.a, other.b
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        f = other.d
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self.d * n)

    def conj(self) -> "QC":
        return _qc(self.a, -self.b, self.d)

    def abs2(self) -> Fraction:
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QC)
            and self.a == other.a
            and self.b == other.b
            and self.d == other.d
        )

    def __hash__(self) -> int:
        # An int hashes like the Fraction of the same value.
        if self.d == 1:
            return hash((self.a, self.b))
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        if self.b == 0:
            return f"QC({self.re})"
        return f"QC({self.re}, {self.im})"

    def to_complex(self) -> complex:
        # int / int is correctly rounded, as float() of a Fraction is.
        return complex(self.a / self.d, self.b / self.d)

    def as_quad(self) -> list[int]:
        """Serialization form [re_num, re_den, im_num, im_den]."""
        d = self.d
        g = gcd(self.a, d)
        h = gcd(self.b, d)
        return [self.a // g, d // g, self.b // h, d // h]

    @staticmethod
    def from_quad(quad: Sequence[int]) -> "QC":
        return QC(Fraction(quad[0], quad[1]), Fraction(quad[2], quad[3]))


_new = object.__new__


def _qc(a: int, b: int, d: int) -> QC:
    """The QC (a + b*i) / d of a triple already in reduced form."""
    x = _new(QC)
    x.a = a
    x.b = b
    x.d = d
    return x


def _reduced(a: int, b: int, d: int) -> QC:
    """The QC (a + b*i) / d, for any d > 0."""
    g = gcd(a, b, d)
    if g != 1:
        return _qc(a // g, b // g, d // g)
    return _qc(a, b, d)


ZERO = QC(0)
ONE = QC(1)


def qc(value: int | Fraction | QC) -> QC:
    """Coerce an exact scalar to QC. Floats are rejected on purpose."""
    if isinstance(value, QC):
        return value
    if isinstance(value, (int, Fraction)):
        return QC(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to QC exactly")


# A sparse row: its nonzero entries by column.
Sparse = dict


def _echelon(rows: Iterable[Mapping[int, QC]]) -> "Echelon":
    span = Echelon()
    for row in rows:
        span.add(row)
    return span


def nullspace(rows: Iterable[Mapping[int, QC]], ncols: int) -> list[Sparse]:
    """Basis of the right kernel of sparse rows over `ncols` columns, one
    sparse vector per free column, in free-column order; each vector's
    entries are in column order."""
    row_of = _echelon(rows).row_of
    basis = {free: [(free, ONE)] for free in range(ncols) if free not in row_of}
    # A reduced row is zero at every other pivot, so its other nonzero
    # columns are all free.
    for pc, row in row_of.items():
        for c, x in row.items():
            if c != pc:
                basis[c].append((pc, -x))
    return [dict(sorted(entries)) for entries in basis.values()]


def solve(a_rows: Iterable[Mapping[int, QC]], b: Sequence[QC], ncols: int) -> Sparse | None:
    """One exact solution of A x = b over `ncols` unknowns, as a sparse
    vector in column order, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    span = _echelon({**row, ncols: x} for row, x in zip(a_rows, b))
    if ncols in span.row_of:
        return None
    return {pc: x for pc, row in sorted(span.row_of.items()) if (x := row.get(ncols))}


def _hermitian_pivots(h_rows: Sequence[Sequence[QC]]) -> list[Fraction] | None:
    """LDL^H pivots of a Hermitian matrix, no pivoting.

    Returns None when a zero pivot has a nonzero remainder below it, which
    already rules out definiteness of either sign for our callers.
    """
    h = [list(r) for r in h_rows]
    n = len(h)
    pivots: list[Fraction] = []
    for k in range(n):
        d = h[k][k]
        if d.im != 0:
            raise InvariantViolation("matrix is not Hermitian (complex diagonal)")
        pivots.append(d.re)
        if not d:
            if any(h[i][k] for i in range(k + 1, n)):
                return None
            continue
        for i in range(k + 1, n):
            if not h[i][k]:
                continue
            f = h[i][k] / d
            for j in range(k + 1, n):
                h[i][j] = h[i][j] - f * h[k][j]
    return pivots


def hermitian_is_pd(h_rows: Sequence[Sequence[QC]]) -> bool:
    pivots = _hermitian_pivots(h_rows)
    return pivots is not None and all(p > 0 for p in pivots)


def hermitian_is_psd(h_rows: Sequence[Sequence[QC]]) -> bool:
    pivots = _hermitian_pivots(h_rows)
    return pivots is not None and all(p >= 0 for p in pivots)


class Echelon:
    """Incrementally maintained reduced row space of sparse rows.

    Built for many membership queries against one growing span
    (function-space constraints, algebra closures). Vectors come in as
    {column: QC} dicts; zero entries are dropped. Each stored row is such a
    dict of its nonzero entries, with a 1 at its pivot (the lowest nonzero
    column) and zeros at every other row's pivot. `row_of` maps each pivot
    to its row, in insertion order.
    """

    def __init__(self):
        self.row_of: dict[int, Sparse] = {}

    @property
    def rank(self) -> int:
        return len(self.row_of)

    def residual(self, vec: Mapping[int, QC]) -> Sparse:
        """The nonzero entries of vec minus its projection on the span.

        The rows are fully reduced, so the coefficient of each pivot row is
        the vector's own entry at that pivot, and only the pivot rows the
        vector hits are subtracted."""
        v = {c: x for c, x in vec.items() if x}
        row_of = self.row_of
        for p in [c for c in v if c in row_of]:
            f = v.pop(p)
            for c, x in row_of[p].items():
                if c == p:
                    continue
                y = v.get(c)
                if y is None:
                    v[c] = -(f * x)
                else:
                    y = y - f * x
                    if y:
                        v[c] = y
                    else:
                        del v[c]
        return v

    def contains(self, vec: Mapping[int, QC]) -> bool:
        return not self.residual(vec)

    def add(self, vec: Mapping[int, QC]) -> bool:
        """Insert a vector; True if it enlarged the span."""
        v = self.residual(vec)
        if not v:
            return False
        p = min(v)
        pv = v[p]
        if pv != ONE:
            v = {c: x / pv for c, x in v.items()}
        for row in self.row_of.values():
            f = row.get(p)
            if f:
                for c, x in v.items():
                    y = row.get(c, ZERO) - f * x
                    if y:
                        row[c] = y
                    else:
                        del row[c]
        self.row_of[p] = v
        return True
