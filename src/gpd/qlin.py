"""Exact linear algebra over the Gaussian rationals.

Rank, span, commutant, and positivity decisions elsewhere in the package must
not depend on floating-point tolerances (they flip discrete answers), so all
of them are reduced to the routines here, which run on fractions.Fraction
pairs. Floating point enters the package only through to_complex(), at the
norm/spectral boundary.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

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
        self.re = Fraction(re)
        self.im = Fraction(im)

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


def _copy(rows: Iterable[Sequence[QC]]) -> Mat:
    return [list(r) for r in rows]


def rref(rows: Iterable[Sequence[QC]]) -> tuple[Mat, list[int]]:
    """Reduced row echelon form. Returns (nonzero rows, pivot columns)."""
    m = _copy(rows)
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def rank(rows: Iterable[Sequence[QC]]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Iterable[Sequence[QC]], ncols: int | None = None) -> Mat:
    """Basis of the right kernel, one vector per free column."""
    m = _copy(rows)
    if not m:
        if ncols is None:
            return []
        return [[ONE if j == k else ZERO for j in range(ncols)] for k in range(ncols)]
    n = len(m[0])
    red, pivots = rref(m)
    pivot_set = set(pivots)
    basis: Mat = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = [ZERO] * n
        v[free] = ONE
        for ri, pc in enumerate(pivots):
            v[pc] = -red[ri][free]
        basis.append(v)
    return basis


def solve(a_rows: Iterable[Sequence[QC]], b: Sequence[QC]) -> Row | None:
    """One exact solution of A x = b, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    a = _copy(a_rows)
    if not a:
        return [] if not any(b) else None
    n = len(a[0])
    aug = [row + [b[i]] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if n in pivots:
        return None
    x = [ZERO] * n
    for ri, pc in enumerate(pivots):
        x[pc] = red[ri][n]
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
    growing span (function-space constraints, algebra closures).
    """

    def __init__(self):
        self.rows: list[Row] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def residual(self, vec: Sequence[QC]) -> Row:
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            f = v[p]
            if f:
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def contains(self, vec: Sequence[QC]) -> bool:
        return not any(self.residual(vec))

    def add(self, vec: Sequence[QC]) -> bool:
        """Insert a vector; True if it enlarged the span."""
        v = self.residual(vec)
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return False
        pv = v[p]
        v = [x / pv for x in v]
        for row in self.rows:
            f = row[p]
            if f:
                row[:] = [a - f * b for a, b in zip(row, v)]
        self.rows.append(v)
        self.pivots.append(p)
        return True


def to_complex_matrix(rows: Sequence[Sequence[QC]]):
    """numpy bridge; imported lazily so exact users never touch numpy."""
    import numpy as np

    return np.array([[x.to_complex() for x in row] for row in rows], dtype=complex)
