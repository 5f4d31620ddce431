"""Finite topological groupoids with Haar weight systems.

A groupoid is stored as an explicit arrow set with range/source maps, a
composition table on exactly the composable pairs, an involution, a
distinguished unit arrow per unit point, and a finite topology on the arrow
set. Construction validates every axiom; associativity is checked on the
triples whose middle arrow lies in a generating set (`Groupoid.generators`),
which proves it for all triples. All predicates (etale, principal, ...) are
then plain combinatorics over the tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import (
    AxiomViolation,
    EffectivenessRequiresEtale,
    InvariantViolation,
    NotAHomeomorphism,
    NotAnAction,
    NotEquivalence,
    TopologyViolation,
    UnknownPoint,
)
from .finitetop import (
    FiniteSpace,
    _continuous,
    closure,
    is_open,
    make_space,
    map_report,
)

__all__ = [
    "Groupoid",
    "HaarSystem",
    "make_groupoid",
    "make_haar",
    "isotropy",
    "orbits",
    "classify",
    "effective",
    "transformation_groupoid",
    "relation_groupoid",
    "pair_groupoid",
    "relation_arrow",
]


@dataclass(eq=False)
class Groupoid:
    """A validated finite topological groupoid (see `make_groupoid`).

    `generators` holds arrows of which every non-unit arrow is a word: a
    product s1·s2·…·sk, bracketed from the left. Two arguments let the
    axioms be checked on the triples (x, s, y) with s in it:

    - associativity (Light's lemma): if the unit laws hold and
      (x·s)·y = x·(s·y) for every generator s and all composable x, y, then
      for a word w·s, by induction on the word,
      (x·(w·s))·y = ((x·w)·s)·y = (x·w)·(s·y) = x·(w·(s·y)) = x·((w·s)·y);
    - the cocycle identity: for an associative G and a sigma normalized at
      the units, sigma(x, s)·sigma(xs, y) = sigma(s, y)·sigma(x, sy) says
      that the extension G×T, (x, λ)(y, μ) = (xy, λμ·sigma(x, y)), is
      associative at the triples with middle (s, 1). The extension is
      generated by the (s, 1) and the central (u, λ) over units u, which
      normalization makes associative at every triple, so Light's lemma
      gives the identity for every middle arrow.
    """

    name: str
    arrows: tuple[str, ...]
    units: FiniteSpace
    r: Mapping[str, str]
    s: Mapping[str, str]
    unit_arrow: Mapping[str, str]
    inv: Mapping[str, str]
    comp: Mapping[tuple[str, str], str]
    topo: FiniteSpace
    r_fiber: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    s_fiber: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    germ_source: object = None
    generators: tuple[str, ...] = ()

    @property
    def unit_arrow_set(self) -> frozenset[str]:
        return frozenset(self.unit_arrow.values())

    @cached_property
    def arrow_index(self) -> Mapping[str, int]:
        """Position of each arrow in `arrows`: the coordinates of arrow vectors."""
        return {a: i for i, a in enumerate(self.arrows)}

    def generator_triples(self) -> Iterator[tuple[str, str, str]]:
        """Each composable triple (x, s, y) with s in `generators`."""
        return _middle_triples(self.generators, self.r, self.s, self.r_fiber, self.s_fiber)


def _index_fibers(arrows, by):
    fib: dict[str, list[str]] = {}
    for a in arrows:
        fib.setdefault(by[a], []).append(a)
    return {x: tuple(sorted(v)) for x, v in fib.items()}


def _generators(arrows, units, r, s, inv, comp, s_fiber) -> tuple[str, ...]:
    """A generating set, in arrow order: each arrow that is not yet a word
    in the set joins it, with its inverse unless the arrow is a loop (the
    inverse of a loop is one of its powers). The words are kept closed under
    right multiplication by the set."""
    gens: list[str] = []
    words: set[str] = set()
    by_range: dict[str, list[str]] = {}
    for a in arrows:
        if a in units or a in words:
            continue
        new = [a] if r[a] == s[a] else [a, inv[a]]
        for t in new:
            gens.append(t)
            by_range.setdefault(r[t], []).append(t)
        # the new generators, and each old word followed by one of them
        todo = list(new)
        todo += [comp[(w, t)] for t in new for w in s_fiber.get(r[t], ()) if w in words]
        while todo:
            w = todo.pop()
            if w in words:
                continue
            words.add(w)
            todo += [comp[(w, t)] for t in by_range.get(s[w], ())]
    return tuple(gens)


def _middle_triples(generators, r, s, r_fiber, s_fiber) -> Iterator[tuple[str, str, str]]:
    for m in generators:
        for x in s_fiber.get(r[m], ()):
            for y in r_fiber.get(s[m], ()):
                yield x, m, y


def make_groupoid(
    units: FiniteSpace,
    arrows: Iterable[str],
    r: Mapping[str, str],
    s: Mapping[str, str],
    inv: Mapping[str, str],
    comp: Mapping[tuple[str, str], str],
    arrow_min_nbhd: Mapping[str, Iterable[str]],
    unit_arrow: Mapping[str, str] | None = None,
    name: str = "",
) -> Groupoid:
    """Validate all groupoid axioms and the topological requirements.

    Associativity is checked only on the triples (x, s, y) whose middle
    arrow s lies in a generating set, kept as `generators`. Once the unit
    laws hold, these prove it for every triple, by induction on a word w·s:
    (x·(w·s))·y = ((x·w)·s)·y = (x·w)·(s·y) = x·(w·(s·y)) = x·((w·s)·y)
    (Light's test; see `Groupoid`). So a group of order N costs N²·|S|
    checks instead of N³, and a rejected table names a triple that fails,
    which need not be the first failing triple of a scan over all triples."""
    arrs = tuple(sorted(arrows))
    if len(set(arrs)) != len(arrs):
        raise AxiomViolation("duplicate arrow identifiers")
    aset = set(arrs)
    for label, mapping in (("r", r), ("s", s)):
        if set(mapping) != aset:
            raise AxiomViolation(f"{label} is not total on the arrow set")
        for a, x in mapping.items():
            if x not in units.min_nbhd:
                raise UnknownPoint(f"{label}({a!r}) = {x!r} is not a unit point")
    if set(inv) != aset or set(inv.values()) != aset:
        raise AxiomViolation("inv is not a bijection of the arrow set")

    r_fiber = _index_fibers(arrs, r)
    s_fiber = _index_fibers(arrs, s)
    composable = {(a, b) for a in arrs for b in r_fiber.get(s[a], ())}
    if set(comp) != composable:
        bad = set(comp) ^ composable
        raise AxiomViolation(f"comp domain mismatch at pairs {sorted(bad)[:3]}")
    for (a, b), c in comp.items():
        if c not in aset:
            raise AxiomViolation(f"comp({a!r},{b!r}) = {c!r} not an arrow")

    if unit_arrow is None:
        unit_arrow = {}
        for x in units.points:
            cands = [a for a in s_fiber.get(x, ()) if r[a] == x and comp[(a, a)] == a]
            if len(cands) != 1:
                raise AxiomViolation(
                    f"cannot identify the unit arrow at {x!r} (candidates {cands})"
                )
            unit_arrow[x] = cands[0]
    if set(unit_arrow) != set(units.points):
        raise AxiomViolation("unit_arrow is not total on unit points")

    for x, u in unit_arrow.items():
        if u not in aset:
            raise AxiomViolation(f"unit arrow {u!r} at {x!r} not in arrow set")
        if r[u] != x or s[u] != x:
            raise AxiomViolation(f"unit arrow at {x!r} has r/s {(r[u], s[u])}")
    for a in arrs:
        if comp[(unit_arrow[r[a]], a)] != a or comp[(a, unit_arrow[s[a]])] != a:
            raise AxiomViolation(f"unit law fails at arrow {a!r}")
        if inv[inv[a]] != a:
            raise AxiomViolation(f"inv is not an involution at {a!r}")
        if r[inv[a]] != s[a] or s[inv[a]] != r[a]:
            raise AxiomViolation(f"inv swaps r/s incorrectly at {a!r}")
        if comp[(a, inv[a])] != unit_arrow[r[a]]:
            raise AxiomViolation(f"a * inv(a) is not the unit at r({a!r})")
        if comp[(inv[a], a)] != unit_arrow[s[a]]:
            raise AxiomViolation(f"inv(a) * a is not the unit at s({a!r})")
    for (a, b), c in comp.items():
        if r[c] != r[a] or s[c] != s[b]:
            raise AxiomViolation(f"r/s of composite {(a, b)} inconsistent")

    generators = _generators(arrs, set(unit_arrow.values()), r, s, inv, comp, s_fiber)
    for a, b, c in _middle_triples(generators, r, s, r_fiber, s_fiber):
        if comp[(comp[(a, b)], c)] != comp[(a, comp[(b, c)])]:
            raise AxiomViolation(f"associativity fails at triple ({a!r},{b!r},{c!r})")

    topo = make_space(arrs, arrow_min_nbhd)
    if not _continuous(r, topo, units):
        raise TopologyViolation("range map is not continuous")
    if not _continuous(s, topo, units):
        raise TopologyViolation("source map is not continuous")
    image = {unit_arrow[x] for x in units.points}
    for x in units.points:
        embedded = {unit_arrow[y] for y in units.min_nbhd[x]}
        if embedded != topo.min_nbhd[unit_arrow[x]] & image:
            raise TopologyViolation(
                f"unit embedding is not a homeomorphism onto its image at {x!r}"
            )

    return Groupoid(
        name=name,
        arrows=arrs,
        units=units,
        r=dict(r),
        s=dict(s),
        unit_arrow=dict(unit_arrow),
        inv=dict(inv),
        comp=dict(comp),
        topo=topo,
        r_fiber=r_fiber,
        s_fiber=s_fiber,
        generators=generators,
    )


@dataclass(eq=False)
class HaarSystem:
    groupoid: Groupoid
    weight: Mapping[str, Fraction]
    validated: bool

    @staticmethod
    def counting(g: Groupoid) -> "HaarSystem":
        return HaarSystem(g, {a: Fraction(1) for a in g.arrows}, validated=True)


def make_haar(g: Groupoid, weights: Mapping[str, int | Fraction], validate: bool = True) -> HaarSystem:
    """Left-invariant positive weights on arrows.

    validate=False builds a deliberately unchecked system; negative-control
    tests use it to demonstrate which algebra laws break without invariance.
    """
    if set(weights) != set(g.arrows):
        raise AxiomViolation("haar weights not total on the arrow set")
    w = {a: Fraction(weights[a]) for a in g.arrows}
    if validate:
        for a, v in w.items():
            if v <= 0:
                raise AxiomViolation(f"haar weight at {a!r} is not positive")
        for (a, b), c in g.comp.items():
            if w[c] != w[b]:
                raise AxiomViolation(
                    f"left invariance fails: weight({c!r}) != weight({b!r})"
                )
    return HaarSystem(g, w, validated=validate)


def isotropy(g: Groupoid, x: str) -> dict:
    """The isotropy group at a unit point, with its multiplication table."""
    if x not in g.units.min_nbhd:
        raise UnknownPoint(f"{x!r} is not a unit point")
    elems = tuple(a for a in g.s_fiber.get(x, ()) if g.r[a] == x)
    table = {(a, b): g.comp[(a, b)] for a in elems for b in elems}
    eset = set(elems)
    if not all(c in eset for c in table.values()):
        raise InvariantViolation("isotropy not closed")
    if not all(g.inv[a] in eset for a in elems):
        raise InvariantViolation("isotropy not inverse-closed")
    return {
        "point": x,
        "arrows": elems,
        "identity": g.unit_arrow[x],
        "table": table,
        "order": len(elems),
    }


def orbits(g: Groupoid) -> list[tuple[str, ...]]:
    parent = {x: x for x in g.units.points}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in g.arrows:
        rx, sx = find(g.r[a]), find(g.s[a])
        if rx != sx:
            parent[max(rx, sx)] = min(rx, sx)
    groups: dict[str, list[str]] = {}
    for x in g.units.points:
        groups.setdefault(find(x), []).append(x)
    return sorted(tuple(sorted(v)) for v in groups.values())


def _bisection_ok(g: Groupoid, arrow: str) -> bool:
    nb = g.topo.min_nbhd[arrow]
    rs = [g.r[e] for e in nb]
    ss = [g.s[e] for e in nb]
    if len(set(rs)) != len(nb) or len(set(ss)) != len(nb):
        return False
    return is_open(g.units, set(rs)) and is_open(g.units, set(ss))


def _is_etale(g: Groupoid) -> bool:
    if not is_open(g.topo, g.unit_arrow_set):
        return False
    return all(_bisection_ok(g, a) for a in g.arrows)


def _fiberwise_hausdorff(g: Groupoid) -> bool:
    """Distinct arrows sharing a source or a range have disjoint neighborhoods."""
    for fibers in (g.s_fiber, g.r_fiber):
        for fiber in fibers.values():
            for i, a in enumerate(fiber):
                for b in fiber[i + 1:]:
                    if g.topo.min_nbhd[a] & g.topo.min_nbhd[b]:
                        return False
    return True


def _proper_closed(g: Groupoid) -> bool:
    """Does (r, s) send the closure of each arrow to a closed set of X×X?
    The closure of a pair (x, y) in the product is above[x] × above[y]."""
    above = g.units.above
    for a in g.arrows:
        img = {(g.r[e], g.s[e]) for e in g.topo.above[a]}
        for x, y in img:
            if any((p, q) not in img for p in above[x] for q in above[y]):
                return False
    return True


def _induced_partial_map(g: Groupoid, arrow: str) -> dict[str, str]:
    """Source-to-range map induced by the minimal open bisection around an arrow."""
    return {g.s[e]: g.r[e] for e in g.topo.min_nbhd[arrow]}


def effective(g: Groupoid) -> bool:
    """Injectivity of the map sending each arrow to the germ of its bisection.

    Only meaningful for etale groupoids; two distinct arrows with the same
    source collapse exactly when their induced partial maps agree on the
    minimal neighborhood of that source.
    """
    if not _is_etale(g):
        raise EffectivenessRequiresEtale("effectiveness requires an etale groupoid")
    for fiber in g.s_fiber.values():
        for i, a in enumerate(fiber):
            for b in fiber[i + 1:]:
                fa = _induced_partial_map(g, a)
                fb = _induced_partial_map(g, b)
                x = g.s[a]
                if all(fa[y] == fb[y] for y in g.units.min_nbhd[x]):
                    return False
    return True


def classify(g: Groupoid) -> dict:
    trivial = tuple(
        x for x in g.units.points
        if all(a == g.unit_arrow[x] for a in g.s_fiber.get(x, ()) if g.r[a] == x)
    )
    et = _is_etale(g)
    return {
        "principal": len(trivial) == len(g.units.points),
        "topologically_principal": closure(g.units, trivial) == g.units.point_set,
        "effective": effective(g) if et else None,
        "etale": et,
        "hausdorff_arrows": _fiberwise_hausdorff(g),
        "unit_space_open": is_open(g.topo, g.unit_arrow_set),
        "proper_closed": _proper_closed(g),
        "trivial_isotropy_points": trivial,
        "orbits": orbits(g),
    }


def transformation_groupoid(group: Mapping, action: Mapping[str, Mapping[str, str]], space: FiniteSpace, name: str = "") -> Groupoid:
    """Groupoid of a finite group acting by homeomorphisms.

    group = {"elements": [...], "mul": {(g,h): gh}, "identity": e}; the
    action maps each element name to a point bijection.
    """
    elems = list(group["elements"])
    mul = group["mul"]
    e = group["identity"]
    if set(action) != set(elems):
        raise NotAnAction("action is not total on group elements")
    for gname in elems:
        rep = map_report(dict(action[gname]), space, space)
        if not rep["homeomorphism"]:
            raise NotAHomeomorphism(f"group element {gname!r} does not act as a homeomorphism")
    if any(action[e][x] != x for x in space.points):
        raise NotAnAction("identity element does not act as the identity map")
    for gname in elems:
        for hname in elems:
            gh = mul[(gname, hname)]
            if any(action[gh][x] != action[gname][action[hname][x]] for x in space.points):
                raise NotAnAction(f"action is not multiplicative at ({gname!r},{hname!r})")

    ginv = {}
    for gname in elems:
        cands = [h for h in elems if mul[(gname, h)] == e and mul[(h, gname)] == e]
        if len(cands) != 1:
            raise NotAnAction(f"group element {gname!r} has no unique inverse")
        ginv[gname] = cands[0]

    def aid(gname, x):
        return f"{gname}|{x}"

    arrows = [aid(gname, x) for gname in elems for x in space.points]
    r = {aid(gname, x): action[gname][x] for gname in elems for x in space.points}
    s = {aid(gname, x): x for gname in elems for x in space.points}
    inv = {
        aid(gname, x): aid(ginv[gname], action[gname][x])
        for gname in elems
        for x in space.points
    }
    comp = {}
    for gname in elems:
        for hname in elems:
            for x in space.points:
                comp[(aid(gname, action[hname][x]), aid(hname, x))] = aid(mul[(gname, hname)], x)
    nbhd = {
        aid(gname, x): {aid(gname, y) for y in space.min_nbhd[x]}
        for gname in elems
        for x in space.points
    }
    return make_groupoid(
        units=space,
        arrows=arrows,
        r=r,
        s=s,
        inv=inv,
        comp=comp,
        arrow_min_nbhd=nbhd,
        unit_arrow={x: aid(e, x) for x in space.points},
        name=name,
    )


def relation_arrow(x: str, y: str) -> str:
    return f"{x}~{y}"


def relation_groupoid(
    space: FiniteSpace,
    pairs: Iterable[tuple[str, str]],
    topology_mode: str = "product",
    name: str = "",
) -> tuple[Groupoid, HaarSystem]:
    """Equivalence relation as a groupoid; arrows named "x~y" map y to x.

    topology_mode "product" restricts the product topology to the relation;
    "product_plus_diagonal" additionally declares the diagonal open, which
    shrinks the neighborhoods of the unit arrows.
    """
    rel = {(x, y) for x, y in pairs}
    pts = space.point_set
    for x, y in rel:
        if x not in pts or y not in pts:
            raise UnknownPoint(f"relation pair ({x!r},{y!r}) off the space")
    for x in pts:
        if (x, x) not in rel:
            raise NotEquivalence(f"missing reflexive pair at {x!r}")
    for x, y in rel:
        if (y, x) not in rel:
            raise NotEquivalence(f"missing symmetric pair for ({x!r},{y!r})")
    # starting_at[y]: each z with (y, z) in rel, in the order of rel
    starting_at: dict[str, list[str]] = {}
    for y, z in rel:
        starting_at.setdefault(y, []).append(z)
    for x, y in rel:
        for z in starting_at[y]:
            if (x, z) not in rel:
                raise NotEquivalence(f"missing transitive pair ({x!r},{z!r})")
    if topology_mode not in ("product", "product_plus_diagonal"):
        raise ValueError(f"unknown topology mode {topology_mode!r}")

    arrows = [relation_arrow(x, y) for x, y in rel]
    r = {relation_arrow(x, y): x for x, y in rel}
    s = {relation_arrow(x, y): y for x, y in rel}
    inv = {relation_arrow(x, y): relation_arrow(y, x) for x, y in rel}
    comp = {
        (relation_arrow(x, y), relation_arrow(y, z)): relation_arrow(x, z)
        for x, y in rel
        for z in starting_at[y]
    }
    nbhd = {}
    for x, y in rel:
        base = {
            relation_arrow(a, b)
            for a in space.min_nbhd[x]
            for b in space.min_nbhd[y]
            if (a, b) in rel
        }
        if topology_mode == "product_plus_diagonal" and x == y:
            base = {arr for arr in base if r[arr] == s[arr]}
        nbhd[relation_arrow(x, y)] = base
    g = make_groupoid(
        units=space,
        arrows=arrows,
        r=r,
        s=s,
        inv=inv,
        comp=comp,
        arrow_min_nbhd=nbhd,
        unit_arrow={x: relation_arrow(x, x) for x in space.points},
        name=name,
    )
    return g, HaarSystem.counting(g)


def pair_groupoid(points: Iterable[str], name: str = "") -> tuple[Groupoid, HaarSystem]:
    pts = list(points)
    space = make_space(pts, {x: {x} for x in pts})
    return relation_groupoid(space, [(x, y) for x in pts for y in pts], "product", name=name)
