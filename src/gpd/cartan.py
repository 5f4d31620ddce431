"""Diagonal-pair diagnostics for groupoid convolution algebras.

The pair under study is (A, B): A the represented convolution algebra of a
finite topological groupoid (optionally twisted, optionally weighted) and B
its unit subalgebra — the admissible functions supported on unit arrows, a
`CcSpace` like the admissible space itself.
The four classical conditions are tested in their exact finite forms:

1. B contains a two-sided identity for the admissible span.
2. B is maximal abelian: its commutant inside the span is B itself.
3. B is regular: elements supported on single bisections normalize B and
   span the admissible space ("verified" / "not verified" — the test is a
   sufficient spanning family, not a quantification over all normalizers).
4. Restriction to unit arrows is a faithful positive idempotent expectation.

On top of that: pure-state extension counting over the spectrum of B, and
the reconstruction of the orbit relation from the pair alone. `Analysis`
holds all of these answers for one (groupoid, Haar system, cocycle) and
computes each at most once.

All structural answers (membership, commutants, solvability, positivity)
are exact; floating point enters only through the block-refinement ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import (
    AlgebraElement,
    CcSpace,
    Cocycle,
    ConcreteAlgebra,
    _arrow_coords,
    _conjugated,
    _kernel_space,
    _numeric_rank,
    _prune,
    _sqrt_weights,
    _topology_constraints,
    cc_space,
    concrete_algebra,
    convolve,
    delta,
    make_element,
    star,
)
from .errors import GroupoidMismatch, NotMasa, WrongShape
from .germs import ActionSystem, compose, germ_arrow
from .groupoid import Groupoid, HaarSystem, classify, orbits, relation_groupoid
from .finitetop import make_space
from .qlin import (
    ONE,
    QC,
    ZERO,
    Echelon,
    hermitian_is_pd,
    hermitian_is_psd,
    nullspace,
    qc,
    solve,
)

__all__ = [
    "Analysis",
    "CartanReport",
    "unit_subalgebra",
    "minimal_idempotents",
    "cartan_report",
    "skandalis_element",
    "uep_report",
    "weyl_relation",
    "orbit_class_sizes",
]


def unit_subalgebra(g: Groupoid) -> CcSpace:
    """B: the admissible functions supported on unit arrows."""
    units = g.unit_arrow_set
    off_units = [{i: ONE} for i, a in enumerate(g.arrows) if a not in units]
    return _kernel_space(g, _topology_constraints(g) + off_units)


def _unit_weight(g: Groupoid, haar: HaarSystem, x: str) -> Fraction:
    return haar.weight[g.unit_arrow[x]]


def minimal_idempotents(
    b: CcSpace, haar: HaarSystem | None = None
) -> list[tuple[tuple[str, ...], AlgebraElement]]:
    """Spectrum of the commutative algebra B as (point class, idempotent) pairs.

    The multiplicative functionals of B are indexed by unit points with the
    weight-normalized evaluation; points indistinguishable on B merge into
    one class, points on which B vanishes identically drop out. Each class
    must contribute its indicator idempotent to B, otherwise B is not
    spanned by projections and the spectrum picture breaks down (NotMasa).
    """
    g = b.groupoid
    haar = haar if haar is not None else HaarSystem.counting(g)
    for p in b.basis:
        for q in b.basis:
            if not b.contains(convolve(p, q, haar)):
                raise NotMasa("unit subalgebra is not closed under products")
    evals: dict[str, tuple] = {}
    for x in g.units.points:
        w = _unit_weight(g, haar, x)
        vals = tuple(
            tuple((qc(w) * p.value(g.unit_arrow[x])).as_quad()) for p in b.basis
        )
        evals[x] = vals
    classes: dict[tuple, list[str]] = {}
    for x, vals in evals.items():
        if any(any(v) for v in vals):
            classes.setdefault(vals, []).append(x)
    out = []
    for vals, pts in sorted(classes.items(), key=lambda kv: sorted(kv[1])):
        e = make_element(
            g,
            {
                g.unit_arrow[x]: qc(Fraction(1) / _unit_weight(g, haar, x))
                for x in pts
            },
        )
        if not b.contains(e):
            raise NotMasa(
                "unit subalgebra does not contain its class indicator "
                f"at points {sorted(pts)}"
            )
        out.append((tuple(sorted(pts)), e))
    return out


@dataclass(eq=False)
class CartanReport:
    """The four conditions for the pair (A, B); `units` is the B they were
    tested on."""

    units: CcSpace
    contains_unit: bool
    unit_element: AlgebraElement | None
    masa: bool
    commutant_dim: int
    masa_witness: AlgebraElement | None
    regular: str
    regular_family: tuple[AlgebraElement, ...]
    expectation: dict
    overall: bool


def _commutant_check(
    g: Groupoid,
    cc: CcSpace,
    b: CcSpace,
    haar: HaarSystem,
    sigma: Cocycle | None,
) -> tuple[int, AlgebraElement | None]:
    """Dimension of the commutant of B inside the admissible span, and an
    element of it outside B (None exactly when B is maximal abelian)."""
    rows: list[dict[int, QC]] = []
    for bj in b.basis:
        diffs = [
            _arrow_coords(convolve(mi, bj, haar, sigma) - convolve(bj, mi, haar, sigma))
            for mi in cc.basis
        ]
        for coord in sorted(set().union(*diffs)):
            rows.append({i: d[coord] for i, d in enumerate(diffs) if coord in d})
    commutant = nullspace(rows, ncols=cc.dim)
    for coeff_vec in commutant:
        f = _combination(g, coeff_vec, cc.basis)
        if not b.contains(f):
            return len(commutant), f
    return len(commutant), None


def _combination(
    g: Groupoid, coeffs: list[QC], basis: tuple[AlgebraElement, ...]
) -> AlgebraElement:
    """The linear combination sum_i coeffs[i] * basis[i]."""
    out: dict[str, QC] = {}
    for c, m in zip(coeffs, basis):
        if c:
            for a, v in m.coeffs.items():
                out[a] = out.get(a, ZERO) + c * v
    return AlgebraElement(g, _prune(out))


def _support_in_open_bisection(g: Groupoid, f: AlgebraElement) -> bool:
    """Is the support a bisection (ranges and sources both injective)?

    The open hull of the support is also recorded implicitly: supports of
    admissible candidates are always unions of constraint clusters, so the
    injectivity of r and s on the support itself is the binding condition
    at finite scale (an open superset never restores injectivity).
    """
    supp = f.support
    rs = [g.r[a] for a in supp]
    ss = [g.s[a] for a in supp]
    return len(set(rs)) == len(rs) and len(set(ss)) == len(ss)


def _normalizes(
    a: AlgebraElement,
    b: CcSpace,
    haar: HaarSystem,
    sigma: Cocycle | None,
) -> bool:
    a_star = star(a, sigma)
    for bj in b.basis:
        left = convolve(convolve(a, bj, haar, sigma), a_star, haar, sigma)
        right = convolve(convolve(a_star, bj, haar, sigma), a, haar, sigma)
        if not (b.contains(left) and b.contains(right)):
            return False
    return True


def _bisection_candidates(
    g: Groupoid, cc: CcSpace, sigma: Cocycle | None
) -> list[AlgebraElement]:
    cands: list[AlgebraElement] = list(cc.basis)
    for arrow in g.arrows:
        one = delta(g, arrow)
        if cc.contains(one):
            cands.append(one)
        hull = make_element(g, {a: 1 for a in g.topo.min_nbhd[arrow]})
        if cc.contains(hull):
            cands.append(hull)
    system = g.germ_source
    if isinstance(system, ActionSystem):
        for e in system.elements:
            coeffs: dict[str, int] = {}
            for x in e.dom:
                coeffs[germ_arrow(system, e, x)] = 1
            sheet = make_element(g, coeffs)
            if cc.contains(sheet):
                cands.append(sheet)
    return cands


def _expectation_flags(
    g: Groupoid,
    cc: CcSpace,
    b: CcSpace,
    haar: HaarSystem,
    sigma: Cocycle | None,
) -> dict:
    units = g.unit_arrow_set

    def restrict(f: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(
            g, {a: v for a, v in f.coeffs.items() if a in units}
        )

    well_defined = all(b.contains(restrict(m)) for m in cc.basis)
    if not well_defined:
        return {
            "well_defined": False,
            "idempotent": None,
            "positive": None,
            "faithful": None,
        }
    idempotent = all(
        restrict(restrict(m)) == restrict(m) for m in cc.basis
    ) and all(restrict(bj) == bj for bj in b.basis)

    # E(f*·f)(x) sums over the source fibre G_x, so the Gram matrix at x
    # needs only the basis elements meeting G_x, restricted to it. The
    # elements that miss G_x would add zero rows and columns, which change
    # neither the positivity verdict nor `total`.
    k = cc.dim
    total = [[ZERO] * k for _ in range(k)]
    positive = True
    # fibre_parts[x][i]: the values of basis element i on G_x
    fibre_parts: dict[str, dict[int, dict[str, QC]]] = {}
    for i, m in enumerate(cc.basis):
        for a, v in m.coeffs.items():
            fibre_parts.setdefault(g.s[a], {}).setdefault(i, {})[a] = v
    for x in g.units.points:
        u = g.unit_arrow[x]
        meeting = fibre_parts.get(x, {})
        parts = [AlgebraElement(g, c) for c in meeting.values()]
        h = [
            [convolve(pj_star, pi, haar, sigma).value(u) for pi in parts]
            for pj_star in (star(pj, sigma) for pj in parts)
        ]
        if positive and not hermitian_is_psd(h):
            positive = False
        wx = qc(_unit_weight(g, haar, x))
        for j, hj in zip(meeting, h):
            for i, v in zip(meeting, hj):
                if v:
                    total[j][i] = total[j][i] + wx * v
    faithful = positive and hermitian_is_pd(total)
    return {
        "well_defined": True,
        "idempotent": idempotent,
        "positive": positive,
        "faithful": faithful,
    }


def cartan_report(
    g: Groupoid,
    sigma: Cocycle | None = None,
    haar: HaarSystem | None = None,
    cc: CcSpace | None = None,
) -> CartanReport:
    haar = haar if haar is not None else HaarSystem.counting(g)
    cc = cc if cc is not None else cc_space(g)
    b = unit_subalgebra(g)

    # Condition 1: an element of B acting as a two-sided identity on the span.
    # An equation sum_j c_j (b_j m)(x) = m(x) is 0 = 0 off the supports.
    cols = len(b.basis)
    rows: list[list[QC]] = []
    rhs: list[QC] = []
    for m in cc.basis:
        mv = _arrow_coords(m)
        left = [_arrow_coords(convolve(bj, m, haar, sigma)) for bj in b.basis]
        right = [_arrow_coords(convolve(m, bj, haar, sigma)) for bj in b.basis]
        for coord in sorted(set(mv).union(*left, *right)):
            target = mv.get(coord, ZERO)
            for side in (left, right):
                row = [v.get(coord, ZERO) for v in side]
                if any(row) or target:
                    rows.append(row)
                    rhs.append(target)
    coeffs = solve(rows, rhs) if cols else None
    unit_element = None if coeffs is None else _combination(g, coeffs, b.basis)
    contains_unit = coeffs is not None

    # Condition 2: commutant of B inside the admissible span.
    commutant_dim, masa_witness = _commutant_check(g, cc, b, haar, sigma)
    masa = masa_witness is None

    # Condition 3: bisection-supported normalizers spanning the admissible space.
    # A candidate already in the span reached could not enlarge it, so it is
    # skipped before the normalizer test.
    family: list[AlgebraElement] = []
    reached = Echelon()
    for cand in _bisection_candidates(g, cc, sigma):
        if not cand.coeffs or not _support_in_open_bisection(g, cand):
            continue
        v = _arrow_coords(cand)
        if reached.contains(v) or not _normalizes(cand, b, haar, sigma):
            continue
        reached.add(v)
        family.append(cand)
    regular = "verified" if reached.rank == cc.dim else "not verified"

    # Condition 4: restriction to units as a conditional expectation.
    expectation = _expectation_flags(g, cc, b, haar, sigma)

    overall = (
        contains_unit
        and masa
        and regular == "verified"
        and bool(expectation["well_defined"])
        and bool(expectation["idempotent"])
        and bool(expectation["positive"])
        and bool(expectation["faithful"])
    )
    return CartanReport(
        units=b,
        contains_unit=contains_unit,
        unit_element=unit_element,
        masa=masa,
        commutant_dim=commutant_dim,
        masa_witness=masa_witness,
        regular=regular,
        regular_family=tuple(family),
        expectation=expectation,
        overall=overall,
    )


def skandalis_element(g: Groupoid) -> AlgebraElement:
    """Alternating sum of the four full-sheet indicators of a two-involution
    germ groupoid: + id-sheet − first-swap − second-swap + double-swap.

    Requires the germ source to be generated by two commuting involutions
    of the whole space whose moved sets are disjoint (WrongShape otherwise);
    under those hypotheses the sum cancels everywhere except on the isotropy
    germs sitting over the common fixed points, where it takes values ±1.
    """
    system = g.germ_source
    if not isinstance(system, ActionSystem):
        raise WrongShape("groupoid does not come from a partial-homeomorphism system")
    if len(system.generator_names) != 2:
        raise WrongShape("need exactly two generating homeomorphisms")
    g1 = system.by_name(system.generator_names[0])
    g2 = system.by_name(system.generator_names[1])
    full = frozenset(system.space.points)
    for gen in (g1, g2):
        if gen.dom != full:
            raise WrongShape(f"generator {gen.name!r} is not defined everywhere")
        if any(gen.mapping[gen.mapping[x]] != x for x in gen.dom):
            raise WrongShape(f"generator {gen.name!r} is not an involution")
    if any(g1.mapping[g2.mapping[x]] != g2.mapping[g1.mapping[x]] for x in full):
        raise WrongShape("the two generators do not commute")
    moved1 = {x for x in full if g1.mapping[x] != x}
    moved2 = {x for x in full if g2.mapping[x] != x}
    if moved1 & moved2:
        raise WrongShape("the generators move overlapping sets of points")

    sheets = [
        (1, system.identity),
        (-1, g1),
        (-1, g2),
        (1, compose(g1, g2)),
    ]
    coeffs: dict[str, QC] = {}
    for sign, e in sheets:
        for x in e.dom:
            a = germ_arrow(system, e, x)
            coeffs[a] = coeffs.get(a, ZERO) + qc(sign)
    return AlgebraElement(g, {a: v for a, v in coeffs.items() if v})


def _per_block_ranks(
    algebra: ConcreteAlgebra,
    structure: dict,
    f: AlgebraElement,
) -> list[int]:
    big = _conjugated(algebra.represent(f), _sqrt_weights(algebra.weight_diags()))
    return [_numeric_rank(q.conj().T @ big @ q) for q in structure["subspaces"]]


def uep_report(
    g: Groupoid,
    sigma: Cocycle | None = None,
    haar: HaarSystem | None = None,
    algebra: ConcreteAlgebra | None = None,
    report: CartanReport | None = None,
) -> dict:
    """Pure-state extension counts over the spectrum of the unit subalgebra.

    Count = number of simple blocks meeting the image of the spectrum point's
    idempotent when every block rank is 0/1; a rank vector is reported
    instead when some block rank exceeds 1. Requires B maximal abelian.
    The block structure is the one `algebra` keeps (see `block_structure`),
    and B is the one `report` was computed on; a report over another
    groupoid raises GroupoidMismatch.
    """
    haar = haar if haar is not None else HaarSystem.counting(g)
    algebra = (
        algebra
        if algebra is not None
        else concrete_algebra(g, sigma=sigma, haar=haar)
    )
    report = report if report is not None else cartan_report(g, sigma, haar, algebra.cc)
    b = report.units
    if b.groupoid is not g:
        raise GroupoidMismatch("the pair report is over a different groupoid")
    if not report.masa:
        raise NotMasa("extension counting needs a maximal abelian unit subalgebra")
    structure = algebra.structure
    counts: dict[str, object] = {}
    for pts, idem in minimal_idempotents(b, haar):
        ranks = _per_block_ranks(algebra, structure, idem)
        if max(ranks) <= 1:
            value: object = int(sum(ranks))
        else:
            value = tuple(ranks)
        for x in pts:
            counts[x] = value
    all_unique = bool(counts) and all(v == 1 for v in counts.values())
    return {
        "counts": counts,
        "diagonal": report.overall and all_unique,
        "all_unique": all_unique,
        "block_sizes": tuple(sorted(structure["sizes"], reverse=True)),
    }


_WEYL_NEEDS_MASA = "reconstruction needs a maximal abelian unit subalgebra"


def weyl_relation(algebra: ConcreteAlgebra) -> tuple[Groupoid, HaarSystem]:
    """Rebuild the orbit relation from the algebra pair alone.

    Spectrum points of B become the unit space; two points are related when
    some element of the closed algebra connects their idempotents
    (p_i * m * p_j != 0 exactly). Returns a discrete relation groupoid.
    Given only the algebra, B is built and its commutant checked here;
    `Analysis.weyl` reuses the ones its pair report has.
    """
    g = algebra.groupoid
    b = unit_subalgebra(g)
    if _commutant_check(g, algebra.cc, b, algebra.haar, algebra.sigma)[1] is not None:
        raise NotMasa(_WEYL_NEEDS_MASA)
    return _reconstruct(algebra, b)


def _reconstruct(algebra: ConcreteAlgebra, b: CcSpace) -> tuple[Groupoid, HaarSystem]:
    haar, sigma = algebra.haar, algebra.sigma
    spectrum = [(min(pts), idem) for pts, idem in minimal_idempotents(b, haar)]
    labels = [x for x, _ in spectrum]
    pairs = []
    for x, px in spectrum:
        left = [pm for pm in (convolve(px, m, haar, sigma) for m in algebra.closed) if pm.coeffs]
        for y, py in spectrum:
            if any(convolve(pm, py, haar, sigma).coeffs for pm in left):
                pairs.append((x, y))
    space = make_space(labels, {x: {x} for x in labels})
    return relation_groupoid(space, pairs, "product", name="weyl relation")


def orbit_class_sizes(g: Groupoid) -> tuple[int, ...]:
    """Orbit sizes, largest first — the isomorphy invariant of a finite
    equivalence relation."""
    return tuple(sorted((len(o) for o in orbits(g)), reverse=True))


class Analysis:
    """Every answer about one (groupoid, Haar system, cocycle), each computed
    on first use and kept.

    `classify`, `algebra` and `cartan` hold the results of `classify`,
    `concrete_algebra` and `cartan_report`; `units` is the unit subalgebra
    `cartan` was computed on; `uep` holds the result of `uep_report` and
    `weyl` that of `weyl_relation`, from `algebra` and `units`; both, like
    those functions, raise NotMasa when the unit subalgebra is not maximal
    abelian. The Haar system defaults to counting measure.
    """

    def __init__(
        self,
        g: Groupoid,
        haar: HaarSystem | None = None,
        sigma: Cocycle | None = None,
    ):
        self.groupoid = g
        self.haar = haar if haar is not None else HaarSystem.counting(g)
        self.sigma = sigma

    @cached_property
    def classify(self) -> dict:
        return classify(self.groupoid)

    @cached_property
    def algebra(self) -> ConcreteAlgebra:
        return concrete_algebra(self.groupoid, sigma=self.sigma, haar=self.haar)

    @property
    def units(self) -> CcSpace:
        return self.cartan.units

    @cached_property
    def cartan(self) -> CartanReport:
        return cartan_report(self.groupoid, self.sigma, self.haar, self.algebra.cc)

    @cached_property
    def _uep(self) -> dict | str:
        """The extension report, or why it does not exist."""
        try:
            return uep_report(self.groupoid, self.sigma, self.haar, self.algebra, self.cartan)
        except NotMasa as exc:
            return str(exc)

    @property
    def uep(self) -> dict:
        if isinstance(self._uep, str):
            raise NotMasa(self._uep)
        return self._uep

    @cached_property
    def weyl(self) -> tuple[Groupoid, HaarSystem]:
        if not self.cartan.masa:
            raise NotMasa(_WEYL_NEEDS_MASA)
        return _reconstruct(self.algebra, self.units)
