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
`reduced_norm`, the operator norm, is computed exactly.

Every exact answer about the algebra is computed on arrow functions, read
as {arrow index: QC} rows, the one row format of `qlin`: the admissible
space is the `nullspace` of the constraint rows, and each of its basis
elements is read straight off a kernel row. The closure under products is
the only place the closed algebra's products are formed: it keeps them as a
table, which the simple-block analysis reads for the exact center and its
trace identities (`block_structure(alg, basis=...)` closes the given basis
the same way and raises NotClosed if its span grows). Every product of two
lists of elements, here and in `cartan`, is formed by `_products`: it
indexes the second list by the range points of the supports, so a pair is
formed only when some source of the first factor's support is a range of
the second's; every other product is zero. `convolve` itself indexes the
second factor by range, so it visits only the composable pairs of support
arrows. The left regular representation over one unit per orbit is a faithful
*-representation when the Haar system and the cocycle are validated, so
these answers are those of the represented algebra. Its matrices are
built only to check that faithfulness, for `regular_rep`, and for
`reduced_norm`, the only float code (`_conjugated`).
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
from .qlin import ONE, QC, ZERO, Echelon, nullspace, qc, solve

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


def _require_over(g: Groupoid, *objs) -> None:
    """Raise GroupoidMismatch unless every given object lives over g."""
    if any(o is not None and o.groupoid is not g for o in objs):
        raise GroupoidMismatch("objects live over different groupoids")


def _require_validated(haar: HaarSystem, sigma: Cocycle | None) -> None:
    """Only a validated Haar system and cocycle make the regular
    representation a *-homomorphism; raise for any other."""
    if not haar.validated:
        raise AxiomViolation("the algebra needs a validated Haar system")
    if sigma is not None and not sigma.validated:
        raise InvalidCocycle("the algebra needs a validated cocycle")


def _same_groupoid(*objs) -> Groupoid:
    g = objs[0].groupoid
    _require_over(g, *objs[1:])
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


def _commutation_rows(xy: Mapping, yx: Mapping) -> list[dict[int, QC]]:
    """The equations sum_i c_i (x_i y_j - y_j x_i) = 0, as {i: QC} rows in
    the unknowns c, one per (j, arrow coordinate). xy[i, j] and yx[i, j] are
    the nonzero arrow coordinates of x_i y_j and of y_j x_i; pairs missing
    from both tables commute and give no row."""
    rows: dict[tuple[int, int], dict[int, QC]] = {}
    for table, negate in ((xy, False), (yx, True)):
        for (i, j), p in table.items():
            for c, v in p.items():
                row = rows.setdefault((j, c), {})
                row[i] = row.get(i, ZERO) + (-v if negate else v)
    return [_prune(row) for row in rows.values()]


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

    # topo.above[eta]: the arrows, in arrow order, whose minimal
    # neighborhood holds eta; eta itself is skipped
    above = g.topo.above
    for eta in g.arrows:
        for vmap in (g.s, g.r):
            clusters: dict[str, list[str]] = {}
            for gamma in above[eta]:
                if gamma != eta:
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
    vectors = nullspace(rows, len(g.arrows))
    span = Echelon()
    for v in vectors:
        span.add(v)
    arrows = g.arrows
    basis = tuple(AlgebraElement(g, {arrows[c]: x for c, x in v.items()}) for v in vectors)
    return CcSpace(groupoid=g, basis=basis, _span=span)


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
    """A 2-cocycle of modulus one on the composable pairs.

    With `check`, sigma must be normalized at the units, and the identity
    sigma(x, s)·sigma(xs, y) = sigma(s, y)·sigma(x, sy) is checked only for
    s in `g.generators`. That proves it for every middle arrow: the
    identity says that the extension G×T, (x, λ)(y, μ) = (xy, λμ·sigma(x, y)),
    is associative, and the extension is generated by the (s, 1) and the
    central (u, λ) over units u, where normalization makes every triple
    associative; Light's lemma (see `Groupoid`) does the rest.
    A rejected table names a triple that fails, which need not be the first
    failing triple of a scan over all triples."""
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
        comp = g.comp
        for a, b, c in g.generator_triples():
            lhs = table[(a, b)] * table[(comp[(a, b)], c)]
            rhs = table[(b, c)] * table[(a, comp[(b, c)])]
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
    f(first) * g(second) * weight(inv(second)) * sigma(first, second) to the
    composite arrow.

    g's terms are indexed by range, with the Haar weight folded in once per
    term, so each arrow of f meets only the arrows of g it composes with,
    in g's order."""
    gpd = _same_groupoid(f, g, haar, sigma)
    w = haar.weight if haar is not None else None
    s, r, inv, comp = gpd.s, gpd.r, gpd.inv, gpd.comp
    by_range: dict[str, list[tuple[str, QC]]] = {}
    for beta, gb in g.coeffs.items():
        if w is not None:
            gb = gb * qc(w[inv[beta]])
        by_range.setdefault(r[beta], []).append((beta, gb))
    out: dict[str, QC] = {}
    for alpha, fa in f.coeffs.items():
        for beta, gb in by_range.get(s[alpha], ()):
            term = fa * gb
            if sigma is not None:
                term = term * sigma.value(alpha, beta)
            gamma = comp[(alpha, beta)]
            out[gamma] = out.get(gamma, ZERO) + term
    return AlgebraElement(gpd, _prune(out))


def _products(xs, ys, haar=None, sigma=None, since=0) -> dict:
    """{(i, j): xs[i] * ys[j]} over the nonzero products, in (i, j) order.

    xs[i] * ys[j] is zero unless some source of xs[i]'s support is a range
    of ys[j]'s, so ys are indexed by the range points of their supports and
    each xs[i] meets only the ys its sources reach. The closure passes
    `since` to form only the pairs with i >= since or j >= since."""
    by_range: dict[str, set[int]] = {}
    for j, y in enumerate(ys):
        for b in y.coeffs:
            by_range.setdefault(y.groupoid.r[b], set()).add(j)
    out = {}
    for i, x in enumerate(xs):
        reach = set()
        for a in x.coeffs:
            reach.update(by_range.get(x.groupoid.s[a], ()))
        for j in sorted(reach):
            if i >= since or j >= since:
                p = convolve(x, ys[j], haar, sigma)
                if p.coeffs:
                    out[i, j] = p
    return out


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
    (`_conjugated`) before taking the largest singular value. This and its
    two helpers are the package's only float code, and the only code that
    imports numpy.
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
    first `block_structure` call, from the span and product table the
    closure kept (`_close`), and kept in their place.
    """

    groupoid: Groupoid
    haar: HaarSystem
    sigma: Cocycle | None
    cc: CcSpace
    orbit_reps: tuple[str, ...]
    fibers: Mapping[str, tuple[str, ...]]
    closed: tuple[AlgebraElement, ...]
    _span: Echelon | None = field(default=None, repr=False)
    _products: dict | None = field(default=None, repr=False)
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
    others are rejected (AxiomViolation, InvalidCocycle), and so are ones
    over another groupoid (GroupoidMismatch)."""
    _require_over(g, haar, sigma)
    haar = haar if haar is not None else HaarSystem.counting(g)
    _require_validated(haar, sigma)
    cc = cc_space(g)
    reps = tuple(orb[0] for orb in orbits(g))
    fibers = {x: g.s_fiber.get(x, ()) for x in reps}
    shapes = [len(fibers[x]) for x in reps]
    faithful = Echelon()
    for f in cc.basis:
        blocks = tuple(_rep_block(g, fibers[x], f, haar, sigma) for x in reps)
        if not faithful.add(_coords(blocks, shapes)):
            raise InvariantViolation("representation must be faithful on the admissible space")
    closed, span, products = _close(cc.basis, haar, sigma)
    return ConcreteAlgebra(
        groupoid=g,
        haar=haar,
        sigma=sigma,
        cc=cc,
        orbit_reps=reps,
        fibers=fibers,
        closed=closed,
        _span=span,
        _products=products,
    )


def _close(basis: Sequence[AlgebraElement], haar, sigma) -> tuple:
    """(closed, span, products): the basis followed by the products that
    enlarge its span, that span, and the product table, products[i, j]
    being the nonzero arrow coordinates of closed[i] * closed[j].

    The span holds each closed[j] as its arrow coordinates plus a tag
    {width + j: 1} past the arrow columns, width being the number of
    arrows. An element of the span leaves a residual on the tags alone:
    its closed-basis coordinates, negated (`_simple_blocks` reads them).

    Semi-naive: every pair of closed[:old] was multiplied in an earlier
    round, and the span only grows, so a round multiplies just the pairs
    (i, j) that involve an element added in the round before (`_products`
    with `since`). The last round adds nothing, so the table holds every
    nonzero product, each formed once."""
    closed = list(basis)
    width = len(closed[0].groupoid.arrows) if closed else 0
    span = Echelon()
    for j, f in enumerate(closed):
        span.add({**_arrow_coords(f), width + j: ONE})
    products = {}
    old = 0
    while True:
        current = len(closed)
        for (i, j), p in _products(closed, closed, haar, sigma, since=old).items():
            coords = _arrow_coords(p)
            products[i, j] = coords
            rest = span.residual(coords)
            if min(rest) < width:
                span.add({**rest, width + len(closed): ONE})
                closed.append(p)
        if len(closed) == current:
            break
        old = current
    return tuple(closed), span, products


def block_structure(algebra: ConcreteAlgebra, basis=None) -> dict:
    """Simple-block analysis of a product-closed subalgebra.

    Validates that the span of the basis is closed under the involution,
    computes its center exactly, and reads the block sizes off trace
    identities on the center, in exact arithmetic (`_simple_blocks`).
    Returns the block sizes, largest first, as {"sizes": ...}. The closed
    algebra is analysed once, from the product table its closure kept, and
    the result kept on `algebra`. An explicit `basis` (arrow functions, such
    as `algebra.cc.basis`) is closed afresh on every call, and raises
    NotClosed if its span grows.
    """
    if basis is not None:
        closed, span, products = _close(basis, algebra.haar, algebra.sigma)
        if len(closed) != len(basis):
            raise NotClosed("subspace is not closed under multiplication")
        return _simple_blocks(algebra, closed, span, products)
    if algebra._structure is None:
        algebra._structure = _simple_blocks(algebra, algebra.closed, algebra._span, algebra._products)
        algebra._span = algebra._products = None
    return algebra._structure


def _simple_blocks(algebra: ConcreteAlgebra, basis, span: Echelon, products) -> dict:
    """The block sizes of a closed basis, largest first, from its span and
    product table (`_close`).

    A *-closed algebra of matrices is ⊕ M_{n_i}, and its center Z is
    spanned by the c minimal central projections e_i. Write z in Z as
    Σ λ_i(z) e_i, L_z for left multiplication on the algebra and M_z for
    multiplication on Z. Then Tr(L_z) = Σ n_i² λ_i(z) and the trace form
    Tr(M_{xy}) = Σ λ_i(x) λ_i(y) is nondegenerate, so w = Σ n_i² e_i is the
    one solution of Tr(M_{wz}) = Tr(L_z) for all z in Z, and the nullity of
    M_w − n² counts the blocks of size n. No eigenvalue is taken."""
    if not basis:
        return {"sizes": ()}
    width = len(algebra.groupoid.arrows)
    for a in basis:
        if min(span.residual(_arrow_coords(star(a, algebra.sigma)))) < width:
            raise NotClosed("subspace is not closed under the involution")

    # sum_i c_i basis[i] is central iff it commutes with every basis[j]
    transposed = {(j, i): p for (i, j), p in products.items()}
    center = nullspace(_commutation_rows(products, transposed), len(basis))
    c = len(center)
    # A center vector is the only one nonzero at its free column, its last,
    # so a central element's center coordinates are its entries there.
    free = {max(z): e for e, z in enumerate(center)}
    trace_l = [ZERO] * len(basis)  # Tr(L_{basis[i]})
    on_free = {}  # basis[i] * basis[j] in center coordinates, where central
    for (i, j), p in products.items():
        for col, x in span.residual(p).items():
            k = col - width
            if k == j:
                trace_l[i] -= x
            if k in free:
                on_free.setdefault((i, j), {})[free[k]] = -x

    # times[a][b]: z_a * z_b in center coordinates; Z is commutative
    times = [[{} for _ in range(c)] for _ in range(c)]
    for a, x in enumerate(center):
        for b in range(a, c):
            out = times[a][b]
            for i, u in x.items():
                for j, v in center[b].items():
                    for e, t in on_free.get((i, j), {}).items():
                        out[e] = out.get(e, ZERO) + u * v * t
            times[b][a] = out
    trace_m = [sum((times[e][b].get(b, ZERO) for b in range(c)), ZERO) for e in range(c)]
    form = [
        _prune({b: sum((t * trace_m[e] for e, t in times[a][b].items()), ZERO) for b in range(c)})
        for a in range(c)
    ]
    if nullspace(form, c):
        raise InvariantViolation("the trace form of the center is degenerate")
    w = solve(form, [sum((u * trace_l[i] for i, u in z.items()), ZERO) for z in center], c)
    m_w = [{} for _ in range(c)]  # rows of M_w: M_w z_b = Σ_a w_a z_a z_b
    for a, u in w.items():
        for b in range(c):
            for e, t in times[a][b].items():
                m_w[e][b] = m_w[e].get(b, ZERO) + u * t

    sizes = []
    for n in range(1, math.isqrt(len(basis)) + 1):
        if len(sizes) == c:
            break
        shifted = [{**row, e: row.get(e, ZERO) - QC(n * n)} for e, row in enumerate(m_w)]
        sizes[:0] = [n] * len(nullspace(shifted, c))
    if len(sizes) != c:
        raise InvariantViolation(f"found {len(sizes)} blocks, but the center has dimension {c}")
    if sum(n * n for n in sizes) != len(basis):
        raise InvariantViolation("block sizes must account for the dimension")
    return {"sizes": tuple(sizes)}


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


def block_decomposition(algebra: ConcreteAlgebra) -> tuple[int, ...]:
    """Multiset of simple-block sizes, largest first."""
    return algebra.structure["sizes"]
