"""Convolution *-algebras of finite topological groupoids, with twists.

Elements are finitely supported functions on arrows with exact Gaussian-
rational coefficients. The admissible function space is cut out by linear
constraints coming from the arrow topology: wherever an arrow sits inside
the minimal neighborhood of several arrows of one source (or range) fiber,
the function values are tied together (a sum rule for genuine multi-limit
clusters, an equality for a lone isotropy limit of a non-isotropy sheet).
On groupoids whose arrow space is fiberwise separated and discrete these
constraints are vacuous and the space is the full function space.

Convolution, involution, and regular representations follow the standard
fiberwise formulas, optionally twisted by a 2-cocycle; everything except
operator norms and eigenvalue clustering is computed exactly.

Every exact answer about the algebra is computed on arrow functions: the
closure under products and the simple-block analysis convolve elements and
read them as {arrow index: QC} rows for `qlin.Echelon`. The left regular
representation over one unit per orbit is a faithful *-representation
when the Haar system and the cocycle are validated, so these answers are
those of the represented algebra. Its matrices are built only to check that
faithfulness, for `regular_rep`, and at the float boundary, where blocks
are split and norms taken (`_conjugated`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import (
    AxiomViolation,
    GroupoidMismatch,
    InvalidCocycle,
    InvariantViolation,
    NotClosed,
    UnknownPoint,
)
from .groupoid import Groupoid, HaarSystem, orbits
from .qlin import ONE, QC, ZERO, Echelon, nullspace, qc

__all__ = [
    "AlgebraElement",
    "CcSpace",
    "Cocycle",
    "ConcreteAlgebra",
    "make_element",
    "delta",
    "zero_element",
    "element_vector",
    "vector_element",
    "cc_space",
    "make_cocycle",
    "trivial_cocycle",
    "convolve",
    "star",
    "regular_rep",
    "reduced_norm",
    "concrete_algebra",
    "block_structure",
    "block_decomposition",
]

# Relative cut for the float decisions of block splitting: eigenvalue gaps
# and the singular values that count as nonzero rank.
RANK_TOL = 1e-9


@dataclass(eq=False)
class AlgebraElement:
    """Finitely supported arrow function with exact coefficients."""

    groupoid: Groupoid
    coeffs: Mapping[str, QC]

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(sorted(self.coeffs))

    def value(self, arrow: str) -> QC:
        return self.coeffs.get(arrow, ZERO)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.groupoid is other.groupoid
            and dict(self.coeffs) == dict(other.coeffs)
        )

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _same_groupoid(self, other)
        out = dict(self.coeffs)
        for a, v in other.coeffs.items():
            out[a] = out.get(a, ZERO) + v
        return AlgebraElement(self.groupoid, _prune(out))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + other.scale(-1)

    def __neg__(self) -> "AlgebraElement":
        return self.scale(-1)

    def scale(self, factor) -> "AlgebraElement":
        f = qc(factor)
        return AlgebraElement(
            self.groupoid, _prune({a: f * v for a, v in self.coeffs.items()})
        )


def _prune(coeffs: Mapping[str, QC]) -> dict[str, QC]:
    return {a: v for a, v in coeffs.items() if v}


def _same_groupoid(*objs) -> Groupoid:
    g = objs[0].groupoid
    for o in objs[1:]:
        if o is not None and o.groupoid is not g:
            raise GroupoidMismatch("objects live over different groupoids")
    return g


def make_element(g: Groupoid, coeffs: Mapping[str, QC | int | Fraction]) -> AlgebraElement:
    aset = set(g.arrows)
    out: dict[str, QC] = {}
    for a, v in coeffs.items():
        if a not in aset:
            raise UnknownPoint(f"{a!r} is not an arrow of {g.name or 'the groupoid'}")
        out[a] = qc(v)
    return AlgebraElement(g, _prune(out))


def delta(g: Groupoid, arrow: str, value=1) -> AlgebraElement:
    return make_element(g, {arrow: value})


def zero_element(g: Groupoid) -> AlgebraElement:
    return AlgebraElement(g, {})


def element_vector(f: AlgebraElement) -> list[QC]:
    return [f.value(a) for a in f.groupoid.arrows]


def _arrow_coords(f: AlgebraElement) -> dict[int, QC]:
    """f as a sparse arrow vector: its values by position in `arrows`, over
    its support only (`element_vector` is the dense form)."""
    idx = f.groupoid.arrow_index
    return {idx[a]: v for a, v in f.coeffs.items()}


def vector_element(g: Groupoid, vec: Sequence[QC]) -> AlgebraElement:
    return AlgebraElement(g, _prune({a: vec[i] for i, a in enumerate(g.arrows)}))


@dataclass(eq=False)
class CcSpace:
    """A subspace of arrow functions cut out by linear constraints, as an
    explicit basis: the admissible functions (`cc_space`) or the admissible
    functions supported on unit arrows (`cartan.unit_subalgebra`, the B of
    the pair)."""

    groupoid: Groupoid
    basis: tuple[AlgebraElement, ...]
    _span: Echelon = field(repr=False, default=None)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, f: AlgebraElement) -> bool:
        if f.groupoid is not self.groupoid:
            raise GroupoidMismatch("element over a different groupoid")
        return self._span.contains(_arrow_coords(f))


def _topology_constraints(g: Groupoid) -> list[dict[int, QC]]:
    """Linear constraint rows as {arrow index: QC} (sorted arrow order)."""
    idx = g.arrow_index
    rows: list[dict[int, QC]] = []
    seen: set[frozenset] = set()

    def emit(eta: str, cluster: list[str]) -> None:
        # eta is not in its cluster, and a cluster names each arrow once
        row = {idx[eta]: ONE}
        row.update((idx[gamma], -ONE) for gamma in cluster)
        key = frozenset(row.items())
        if key not in seen:
            seen.add(key)
            rows.append(row)

    for eta in g.arrows:
        for vmap in (g.s, g.r):
            clusters: dict[str, list[str]] = {}
            for gamma in g.arrows:
                if gamma != eta and eta in g.topo.min_nbhd[gamma]:
                    clusters.setdefault(vmap[gamma], []).append(gamma)
            for cluster in clusters.values():
                if len(cluster) >= 2:
                    emit(eta, cluster)
                elif len(cluster) == 1:
                    gamma = cluster[0]
                    if g.r[gamma] == g.s[gamma] and g.r[eta] != g.s[eta]:
                        emit(eta, cluster)
    return rows


def _kernel_space(g: Groupoid, rows: list[dict[int, QC]]) -> CcSpace:
    """The arrow functions on which every constraint row vanishes."""
    vectors = nullspace(rows, ncols=len(g.arrows))
    span = Echelon()
    for v in vectors:
        span.add(v)
    return CcSpace(groupoid=g, basis=tuple(vector_element(g, v) for v in vectors), _span=span)


def cc_space(g: Groupoid) -> CcSpace:
    return _kernel_space(g, _topology_constraints(g))


@dataclass(eq=False)
class Cocycle:
    """Unit-modulus 2-cocycle on composable pairs, normalized at units."""

    groupoid: Groupoid
    sigma: Mapping[tuple[str, str], QC]
    validated: bool

    def value(self, a: str, b: str) -> QC:
        return self.sigma[(a, b)]


def make_cocycle(g: Groupoid, sigma: Mapping[tuple[str, str], QC | int | Fraction], check: bool = True) -> Cocycle:
    table = {k: qc(v) for k, v in sigma.items()}
    if set(table) != set(g.comp):
        raise InvalidCocycle("sigma is not total on the composable pairs")
    for k, v in table.items():
        if v.abs2() != 1:
            raise InvalidCocycle(f"sigma{k!r} does not have modulus one")
    if check:
        units = g.unit_arrow_set
        for (a, b), v in table.items():
            if (a in units or b in units) and v != ONE:
                raise InvalidCocycle(f"sigma{(a, b)!r} not normalized at a unit")
        for (a, b), ab in g.comp.items():
            for c in g.r_fiber.get(g.s[b], ()):
                bc = g.comp[(b, c)]
                lhs = table[(a, b)] * table[(ab, c)]
                rhs = table[(b, c)] * table[(a, bc)]
                if lhs != rhs:
                    raise InvalidCocycle(f"cocycle identity fails at ({a!r},{b!r},{c!r})")
    return Cocycle(groupoid=g, sigma=table, validated=check)


def trivial_cocycle(g: Groupoid) -> Cocycle:
    return Cocycle(g, {k: ONE for k in g.comp}, validated=True)


def convolve(
    f: AlgebraElement,
    g: AlgebraElement,
    haar: HaarSystem | None = None,
    sigma: Cocycle | None = None,
) -> AlgebraElement:
    """Fiberwise convolution; each composable pair of support arrows contributes
    weight(inv(second)) * f(first) * g(second) * sigma(first, second) to the
    composite arrow."""
    gpd = _same_groupoid(f, g, haar, sigma)
    w = haar.weight if haar is not None else None
    out: dict[str, QC] = {}
    for alpha, fa in f.coeffs.items():
        for beta, gb in g.coeffs.items():
            if gpd.s[alpha] != gpd.r[beta]:
                continue
            term = fa * gb
            if w is not None:
                term = term * qc(w[gpd.inv[beta]])
            if sigma is not None:
                term = term * sigma.value(alpha, beta)
            gamma = gpd.comp[(alpha, beta)]
            out[gamma] = out.get(gamma, ZERO) + term
    return AlgebraElement(gpd, _prune(out))


def star(f: AlgebraElement, sigma: Cocycle | None = None) -> AlgebraElement:
    gpd = _same_groupoid(f, sigma)
    out: dict[str, QC] = {}
    for eta, v in f.coeffs.items():
        gamma = gpd.inv[eta]
        val = v.conj()
        if sigma is not None:
            val = val * sigma.value(gamma, eta).conj()
        out[gamma] = val
    return AlgebraElement(gpd, _prune(out))


# A sparse block is {row: {col: QC}}, the nonzero entries of one orbit's
# matrix in the regular representation; `ConcreteAlgebra.represent` gives
# a tuple of them, one per orbit, and `shapes` gives each block's size.


def _rep_block(g: Groupoid, fiber: Sequence[str], f: AlgebraElement, haar, sigma) -> dict:
    """The nonzero entries of `regular_rep` on the source fiber `fiber`:
    entry [gamma, eta], with gamma = mid * eta, for each support arrow mid
    of f composable with eta, so only f's support is visited."""
    pos = {a: i for i, a in enumerate(fiber)}
    by_source: dict[str, list] = {}
    for mid, v in f.coeffs.items():
        if v:
            by_source.setdefault(g.s[mid], []).append((mid, v))
    w = haar.weight if haar is not None else None
    out: dict[int, dict[int, QC]] = {}
    for j, eta in enumerate(fiber):
        for mid, val in by_source.get(g.r[eta], ()):
            if w is not None:
                val = val * qc(w[g.inv[eta]])
            if sigma is not None:
                val = val * sigma.value(mid, eta)
            out.setdefault(pos[g.comp[(mid, eta)]], {})[j] = val
    return out


def _coords(blocks: tuple, shapes: Sequence[int]) -> dict[int, QC]:
    """The nonzero entries at their positions in the row-major flattening
    of the blocks, one block after another."""
    out = {}
    at = 0
    for blk, n in zip(blocks, shapes):
        for i, row in blk.items():
            base = at + i * n
            for j, v in row.items():
                out[base + j] = v
        at += n * n
    return out


def _dense_block(blk: dict, n: int) -> list[list[QC]]:
    return [[blk.get(i, {}).get(j, ZERO) for j in range(n)] for i in range(n)]


def regular_rep(
    g: Groupoid,
    x: str,
    f: AlgebraElement,
    haar: HaarSystem | None = None,
    sigma: Cocycle | None = None,
) -> tuple[tuple[str, ...], list[list[QC]]]:
    """Matrix of left convolution by f on the source fiber at x.

    Entry [gamma, eta] is weight(inv(eta)) * f(gamma inv(eta)) * sigma(...)
    over the sorted fiber basis; returns (fiber, rows).
    """
    if x not in g.units.min_nbhd:
        raise UnknownPoint(f"{x!r} is not a unit point")
    _same_groupoid(f, haar, sigma)
    fiber = g.s_fiber.get(x, ())
    return fiber, _dense_block(_rep_block(g, fiber, f, haar, sigma), len(fiber))


def _fiber_weights(g: Groupoid, fiber: Sequence[str], haar: HaarSystem | None):
    if haar is None:
        return [Fraction(1)] * len(fiber)
    return [haar.weight[g.inv[eta]] for eta in fiber]


def reduced_norm(
    f: AlgebraElement,
    haar: HaarSystem | None = None,
    sigma: Cocycle | None = None,
) -> float:
    """Largest operator norm of the regular representations over all units.

    The fiber inner product weights each basis arrow by the Haar mass of its
    inverse, so each block is conjugated by the square-root weight diagonal
    (`_conjugated`, as block splitting does) before taking the largest
    singular value.
    """
    import numpy as np

    g = _same_groupoid(f, haar, sigma)
    best = 0.0
    for x in g.units.points:
        fiber = g.s_fiber.get(x, ())
        if not fiber:
            continue
        m = _conjugated(
            (_rep_block(g, fiber, f, haar, sigma),),
            _sqrt_weights([_fiber_weights(g, fiber, haar)]),
        )
        best = max(best, float(np.linalg.norm(m, 2)))
    return best


@dataclass(eq=False)
class ConcreteAlgebra:
    """The admissible function space closed under convolution.

    `closed` starts with the cc basis and appends the products that
    enlarge its span, in the order the closure finds them — the
    finite-dimensional stand-in for completion. Its elements are arrow
    functions; `represent` gives their regular representation on one unit
    per orbit (`orbit_reps`), as sparse blocks sized by `block_shapes`. The
    simple-block structure of the closed algebra is computed once, by the
    first `block_structure` call, and kept.
    """

    groupoid: Groupoid
    haar: HaarSystem
    sigma: Cocycle | None
    cc: CcSpace
    orbit_reps: tuple[str, ...]
    fibers: Mapping[str, tuple[str, ...]]
    closed: tuple[AlgebraElement, ...]
    _structure: dict | None = field(default=None, repr=False)

    @property
    def structure(self) -> dict:
        """`block_structure(self)`, computed on first use."""
        if self._structure is None:
            return block_structure(self)
        return self._structure

    @property
    def block_shapes(self) -> tuple[int, ...]:
        return tuple(len(self.fibers[x]) for x in self.orbit_reps)

    @property
    def span_dim(self) -> int:
        return self.cc.dim

    @property
    def dim(self) -> int:
        return len(self.closed)

    @property
    def is_closed_span(self) -> bool:
        return self.span_dim == self.dim

    def represent(self, f: AlgebraElement) -> tuple:
        """The regular representation of f on every orbit, as sparse blocks
        (`regular_rep` gives one orbit's block as a dense matrix)."""
        _same_groupoid(f, self.haar, self.sigma)
        return tuple(
            _rep_block(self.groupoid, self.fibers[x], f, self.haar, self.sigma)
            for x in self.orbit_reps
        )

    def weight_diags(self) -> list[list[Fraction]]:
        return [
            _fiber_weights(self.groupoid, self.fibers[x], self.haar)
            for x in self.orbit_reps
        ]


def concrete_algebra(
    g: Groupoid,
    sigma: Cocycle | None = None,
    haar: HaarSystem | None = None,
) -> ConcreteAlgebra:
    """Close the admissible space under convolution. Only a validated Haar
    system and cocycle make the regular representation a *-homomorphism;
    others are rejected (AxiomViolation, InvalidCocycle)."""
    haar = haar if haar is not None else HaarSystem.counting(g)
    if not haar.validated:
        raise AxiomViolation("the algebra needs a validated Haar system")
    if sigma is not None and not sigma.validated:
        raise InvalidCocycle("the algebra needs a validated cocycle")
    cc = cc_space(g)
    reps = tuple(orb[0] for orb in orbits(g))
    fibers = {x: g.s_fiber.get(x, ()) for x in reps}
    shapes = [len(fibers[x]) for x in reps]
    faithful = Echelon()
    span = Echelon()
    for f in cc.basis:
        blocks = tuple(_rep_block(g, fibers[x], f, haar, sigma) for x in reps)
        if not faithful.add(_coords(blocks, shapes)):
            raise InvariantViolation("representation must be faithful on the admissible space")
        span.add(_arrow_coords(f))

    # Semi-naive closure: every pair of closed[:old] was multiplied in an
    # earlier round, and the span only grows, so a round multiplies just the
    # pairs (i, j) that involve an element added in the round before.
    closed = list(cc.basis)
    old = 0
    while True:
        current = len(closed)
        for i in range(current):
            for j in range(old if i < old else 0, current):
                p = convolve(closed[i], closed[j], haar, sigma)
                if span.add(_arrow_coords(p)):
                    closed.append(p)
        if len(closed) == current:
            break
        old = current
    return ConcreteAlgebra(
        groupoid=g,
        haar=haar,
        sigma=sigma,
        cc=cc,
        orbit_reps=reps,
        fibers=fibers,
        closed=tuple(closed),
    )


def _split_by_hermitian(subspaces, h):
    import numpy as np

    out = []
    for q in subspaces:
        if q.shape[1] == 1:
            out.append(q)
            continue
        s = q.conj().T @ h @ q
        s = (s + s.conj().T) / 2
        vals, vecs = np.linalg.eigh(s)
        start = 0
        for i in range(1, len(vals) + 1):
            if i == len(vals) or vals[i] - vals[i - 1] > RANK_TOL:
                out.append(q @ vecs[:, start:i])
                start = i
    return out


def block_structure(algebra: ConcreteAlgebra, basis=None) -> dict:
    """Simple-block analysis of a product-closed subalgebra.

    Validates that the span of `basis` is closed under convolution and the
    involution, computes its center exactly, splits the representation
    space into joint eigenspaces of the conjugated central elements, and
    sizes each simple block by the rank of the restricted algebra. Returns
    sizes plus the per-block subspaces. The closed algebra is analysed once
    and the result kept on `algebra`; an explicit `basis` (arrow functions,
    such as `algebra.cc.basis`) is analysed afresh on every call.
    """
    if basis is not None:
        return _simple_blocks(algebra, basis)
    if algebra._structure is None:
        algebra._structure = _simple_blocks(algebra, algebra.closed)
    return algebra._structure


def _simple_blocks(algebra: ConcreteAlgebra, basis) -> dict:
    import numpy as np

    if not basis:
        return {"sizes": (), "subspaces": [], "conjugated": []}
    haar, sigma = algebra.haar, algebra.sigma

    span = Echelon()
    for f in basis:
        span.add(_arrow_coords(f))
    # products[i][j]: the arrow coordinates of basis[i] * basis[j]
    products = []
    for a in basis:
        if not span.contains(_arrow_coords(star(a, sigma))):
            raise NotClosed("subspace is not closed under the involution")
        row = [_arrow_coords(convolve(a, b, haar, sigma)) for b in basis]
        if not all(span.contains(p) for p in row):
            raise NotClosed("subspace is not closed under multiplication")
        products.append(row)

    k = len(basis)
    commut_rows = []
    for j in range(k):
        diffs = []
        for i in range(k):
            d = dict(products[i][j])
            for c, x in products[j][i].items():
                y = d.get(c, ZERO) - x
                if y:
                    d[c] = y
                else:
                    del d[c]
            diffs.append(d)
        for coord in sorted(set().union(*diffs)):
            commut_rows.append({i: d[coord] for i, d in enumerate(diffs) if coord in d})
    center_coeffs = nullspace(commut_rows, ncols=k)

    sqrt_w = _sqrt_weights(algebra.weight_diags())
    conj_basis = [_conjugated(algebra.represent(f), sqrt_w) for f in basis]
    total = conj_basis[0].shape[0]
    subspaces = [np.eye(total, dtype=complex)]
    for coeffs in center_coeffs:
        c = sum(
            (complex(v.to_complex()) * m for v, m in zip(coeffs, conj_basis)),
            start=np.zeros((total, total), dtype=complex),
        )
        for h in ((c + c.conj().T) / 2, (c - c.conj().T) / 2j):
            subspaces = _split_by_hermitian(subspaces, h)

    sizes = []
    kept = []
    for q in subspaces:
        r = _numeric_rank(np.array([(q.conj().T @ m @ q).ravel() for m in conj_basis]))
        n = math.isqrt(r)
        if n * n != r:
            raise InvariantViolation("restricted block is not a full matrix algebra")
        if n:
            sizes.append(n)
            kept.append(q)
    if sum(n * n for n in sizes) != k:
        raise InvariantViolation("block sizes must account for the dimension")
    if len(sizes) != len(center_coeffs):
        raise InvariantViolation(
            f"the eigen split found {len(sizes)} blocks, "
            f"but the exact center has dimension {len(center_coeffs)}"
        )
    return {"sizes": tuple(sizes), "subspaces": kept, "conjugated": conj_basis}


def _sqrt_weights(weight_diags):
    import numpy as np

    return [np.sqrt(np.array([float(w) for w in dw])) for dw in weight_diags]


def _conjugated(blocks, sqrt_w):
    """Sparse blocks as one complex block-diagonal matrix, conjugated by the
    square-root weights so that the weighted adjoint becomes the conjugate
    transpose."""
    import numpy as np

    total = sum(len(d) for d in sqrt_w)
    out = np.zeros((total, total), dtype=complex)
    at = 0
    for blk, d in zip(blocks, sqrt_w):
        n = len(d)
        m = np.zeros((n, n), dtype=complex)
        for i, row in blk.items():
            for j, x in row.items():
                m[i, j] = x.to_complex()
        out[at : at + n, at : at + n] = (d[:, None] * m) / d[None, :]
        at += n
    return out


def _numeric_rank(m) -> int:
    """Singular values above RANK_TOL relative to the largest (at least 1)."""
    import numpy as np

    svals = np.linalg.svd(m, compute_uv=False)
    cut = RANK_TOL * max(1.0, float(svals[0])) if len(svals) else 0.0
    return int((svals > cut).sum())


def block_decomposition(algebra: ConcreteAlgebra, basis=None) -> tuple[int, ...]:
    """Multiset of simple-block sizes, largest first."""
    if basis is None:
        sizes = algebra.structure["sizes"]
    else:
        sizes = block_structure(algebra, basis)["sizes"]
    return tuple(sorted(sizes, reverse=True))
