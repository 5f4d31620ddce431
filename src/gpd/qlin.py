"""Exact linear algebra over the Gaussian rationals.

Rank, span, commutant, and positivity decisions elsewhere in the package must
not depend on floating-point tolerances (they flip discrete answers), so all
of them are reduced to the routines here, which run on fractions.Fraction
pairs. Floating point enters the package only through to_complex(), at the
norm/spectral boundary.

Elimination is sparse: `Echelon` keeps each reduced row as a {column: QC}
dict of its nonzero entries, and `rref`, `rank`, `nullspace` and `solve` all
run through it, so their cost follows the nonzero entries, not the width of
the rows. A row may be given as a dense sequence or as such a dict.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

__all__ = [
    "QC",
    "qc",
    "rref",
    "rank",
    "nullspace",
    "solve",
    "in_span",
    "hermitian_is_pd",
    "hermitian_is_psd",
    "to_complex_matrix",
    "Echelon",
]


class QC:
    """A Gaussian rational re + im*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    def __add__(self, other: "QC") -> "QC":
        return QC(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "QC") -> "QC":
        return QC(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "QC":
        return QC(-self.re, -self.im)

    def __mul__(self, other: "QC") -> "QC":
        return QC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "QC") -> "QC":
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QC(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def conj(self) -> "QC":
        return QC(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QC) and self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        if self.im == 0:
            return f"QC({self.re})"
        return f"QC({self.re}, {self.im})"

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def as_quad(self) -> list[int]:
        """Serialization form [re_num, re_den, im_num, im_den]."""
        return [
            self.re.numerator,
            self.re.denominator,
            self.im.numerator,
            self.im.denominator,
        ]

    @staticmethod
    def from_quad(quad: Sequence[int]) -> "QC":
        return QC(Fraction(quad[0], quad[1]), Fraction(quad[2], quad[3]))


ZERO = QC(0)
ONE = QC(1)


def qc(value: int | Fraction | QC) -> QC:
    """Coerce an exact scalar to QC. Floats are rejected on purpose."""
    if isinstance(value, QC):
        return value
    if isinstance(value, (int, Fraction)):
        return QC(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to QC exactly")


Row = list
Mat = list
# A sparse row: its nonzero entries by column.
Sparse = dict


def _copy(rows: Iterable[Sequence[QC]]) -> Mat:
    return [list(r) for r in rows]


def _sparse(vec: Sequence[QC] | Mapping[int, QC]) -> Sparse:
    """The nonzero entries of a dense or sparse row, as a fresh dict."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    return {c: x for c, x in items if x}


def _dense(row: Mapping[int, QC], ncols: int) -> Row:
    return [row.get(c, ZERO) for c in range(ncols)]


def _echelon(rows: Iterable[Sequence[QC] | Mapping[int, QC]]) -> "Echelon":
    span = Echelon()
    for row in rows:
        span.add(row)
    return span


def rref(rows: Iterable[Sequence[QC]]) -> tuple[Mat, list[int]]:
    """Reduced row echelon form. Returns (nonzero rows, pivot columns)."""
    m = list(rows)
    if not m:
        return [], []
    ncols = len(m[0])
    span = _echelon(m)
    pivots = sorted(span.row_of)
    return [_dense(span.row_of[p], ncols) for p in pivots], pivots


def rank(rows: Iterable[Sequence[QC]]) -> int:
    return _echelon(rows).rank


def nullspace(rows: Iterable[Sequence[QC] | Mapping[int, QC]], ncols: int | None = None) -> Mat:
    """Basis of the right kernel, one vector per free column.

    Sparse rows carry no width, so `ncols` must be given with them."""
    m = list(rows)
    if not m:
        if ncols is None:
            return []
        return [[ONE if j == k else ZERO for j in range(ncols)] for k in range(ncols)]
    n = ncols if isinstance(m[0], dict) else len(m[0])
    span = _echelon(m)
    basis = {}
    for free in range(n):
        if free not in span.row_of:
            basis[free] = [ZERO] * n
            basis[free][free] = ONE
    # A reduced row is zero at every other pivot, so its other nonzero
    # columns are all free.
    for pc, row in span.row_of.items():
        for c, x in row.items():
            if c != pc:
                basis[c][pc] = -x
    return list(basis.values())


def solve(a_rows: Iterable[Sequence[QC]], b: Sequence[QC]) -> Row | None:
    """One exact solution of A x = b, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    a = _copy(a_rows)
    if not a:
        return [] if not any(b) else None
    n = len(a[0])
    span = _echelon(row + [b[i]] for i, row in enumerate(a))
    if n in span.row_of:
        return None
    x = [ZERO] * n
    for pc, row in span.row_of.items():
        x[pc] = row.get(n, ZERO)
    return x


def in_span(vectors: Sequence[Sequence[QC]], target: Sequence[QC]) -> Row | None:
    """Coefficients expressing target as a combination of vectors, else None."""
    if not vectors:
        return [] if not any(target) else None
    n = len(target)
    cols = [[vec[i] for vec in vectors] for i in range(n)]
    return solve(cols, list(target))


def _hermitian_pivots(h_rows: Sequence[Sequence[QC]]) -> list[Fraction] | None:
    """LDL^H pivots of a Hermitian matrix, no pivoting.

    Returns None when a zero pivot has a nonzero remainder below it, which
    already rules out definiteness of either sign for our callers.
    """
    h = _copy(h_rows)
    n = len(h)
    pivots: list[Fraction] = []
    for k in range(n):
        d = h[k][k]
        if d.im != 0:
            raise ValueError("matrix is not Hermitian (complex diagonal)")
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
    """Incrementally maintained reduced row space.

    Cheaper than re-running rref when many membership queries hit the same
    growing span (function-space constraints, algebra closures). Each row is
    a {column: QC} dict of its nonzero entries, with a 1 at its pivot (the
    lowest nonzero column) and zeros at every other row's pivot. `row_of`
    maps each pivot to its row, in insertion order.
    """

    def __init__(self):
        self.row_of: dict[int, Sparse] = {}

    @property
    def rows(self) -> list[Sparse]:
        return list(self.row_of.values())

    @property
    def pivots(self) -> list[int]:
        return list(self.row_of)

    @property
    def rank(self) -> int:
        return len(self.row_of)

    def residual(self, vec: Sequence[QC] | Mapping[int, QC]) -> Sparse:
        """The nonzero entries of vec minus its projection on the span.

        The rows are fully reduced, so the coefficient of each pivot row is
        the vector's own entry at that pivot, and only the pivot rows the
        vector hits are subtracted."""
        v = _sparse(vec)
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

    def contains(self, vec: Sequence[QC] | Mapping[int, QC]) -> bool:
        return not self.residual(vec)

    def add(self, vec: Sequence[QC] | Mapping[int, QC]) -> bool:
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


def to_complex_matrix(rows: Sequence[Sequence[QC]]):
    """numpy bridge; imported lazily so exact users never touch numpy."""
    import numpy as np

    return np.array([[x.to_complex() for x in row] for row in rows], dtype=complex)
