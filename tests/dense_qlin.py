"""The dense exact kernel that `gpd.qlin` used before its rows became
sparse, kept only as a reference for the differential tests in
test_qlin.py. It scans every entry of every row; `gpd.qlin` must return
exactly the same answers while touching only nonzero entries."""

from __future__ import annotations

from typing import Iterable, Sequence

from gpd.qlin import ONE, QC, ZERO

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
        pivot_row = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
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
