"""Partial homeomorphisms of finite spaces and their groupoids of germs.

A partial homeomorphism carries an open domain, an open codomain, and a
bijection between them that is a homeomorphism for the subspace topologies.
Finitely many of them generate a system closed under composition and
inversion; the germs of that system at the points of the space form a
groupoid whose arrow topology is the germ topology. Because domains are
open, the minimal neighborhood of a point is contained in every domain the
point belongs to, so germ equality is an exact pointwise check on that
minimal neighborhood.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import (
    InvariantViolation,
    NotAHomeomorphism,
    NotAnAction,
    OutsideDomain,
    UnknownPoint,
)
from .finitetop import FiniteSpace, is_open
from .groupoid import Groupoid, make_groupoid

__all__ = [
    "PartialHomeo",
    "ActionSystem",
    "make_partial_homeo",
    "identity_homeo",
    "compose",
    "invert",
    "germ_equal",
    "generate",
    "make_action_system",
    "germ_arrow",
    "germ_groupoid",
]

GERM_SEP = "|"


@dataclass(frozen=True)
class PartialHomeo:
    """An open-domain partial self-homeomorphism of a finite space."""

    space: FiniteSpace
    name: str
    dom: frozenset[str]
    mapping: Mapping[str, str] = field(hash=False)

    @property
    def cod(self) -> frozenset[str]:
        return frozenset(self.mapping.values())

    @property
    def key(self) -> tuple:
        """Identity of the underlying partial map, ignoring the label."""
        return (self.dom, tuple(sorted(self.mapping.items())))

    def same_map(self, other: "PartialHomeo") -> bool:
        return self.key == other.key

    def __call__(self, x: str) -> str:
        if x not in self.dom:
            raise OutsideDomain(f"{x!r} is outside the domain of {self.name!r}")
        return self.mapping[x]


def make_partial_homeo(
    space: FiniteSpace,
    dom: Iterable[str],
    mapping: Mapping[str, str],
    name: str,
) -> PartialHomeo:
    d = frozenset(dom)
    pts = set(space.points)
    for x in d | set(mapping) | set(mapping.values()):
        if x not in pts:
            raise UnknownPoint(f"{x!r} is not a point of the space")
    if set(mapping) != d:
        raise NotAHomeomorphism(f"{name!r}: mapping domain does not match dom")
    if not is_open(space, d):
        raise NotAHomeomorphism(f"{name!r}: domain is not open")
    if len(set(mapping.values())) != len(mapping):
        raise NotAHomeomorphism(f"{name!r}: mapping is not injective")
    for x in d:
        image = {mapping[y] for y in space.min_nbhd[x]}
        if image != space.min_nbhd[mapping[x]]:
            raise NotAHomeomorphism(
                f"{name!r}: not bicontinuous at {x!r} "
                f"(minimal neighborhood maps to {sorted(image)})"
            )
    cod = frozenset(mapping.values())
    if not is_open(space, cod):
        raise InvariantViolation("open domains map to open codomains")
    return PartialHomeo(space=space, name=name, dom=d, mapping=dict(mapping))


def identity_homeo(space: FiniteSpace) -> PartialHomeo:
    return make_partial_homeo(space, space.points, {x: x for x in space.points}, "id")


def _inv_name(name: str) -> str:
    if name.startswith("inv(") and name.endswith(")"):
        return name[4:-1]
    return f"inv({name})"


def compose(g: PartialHomeo, h: PartialHomeo) -> PartialHomeo:
    """g after h, on the largest domain where that makes sense.

    The domain is the preimage under h of cod(h) ∩ dom(g); it may be empty.
    """
    if g.space != h.space:
        raise ValueError("cannot compose partial maps over different spaces")
    dom = {x for x in h.dom if h.mapping[x] in g.dom}
    mapping = {x: g.mapping[h.mapping[x]] for x in dom}
    return make_partial_homeo(g.space, dom, mapping, f"{g.name}*{h.name}")


def invert(g: PartialHomeo) -> PartialHomeo:
    mapping = {y: x for x, y in g.mapping.items()}
    return make_partial_homeo(g.space, g.cod, mapping, _inv_name(g.name))


def germ_equal(g: PartialHomeo, h: PartialHomeo, x: str) -> bool:
    """Whether g and h have the same germ at x.

    On a finite space two maps agree on some open neighborhood of x exactly
    when they agree on the minimal one, which lies inside both (open)
    domains as soon as x does.
    """
    if x not in g.dom or x not in h.dom:
        raise OutsideDomain(f"{x!r} must lie in both domains")
    return all(g.mapping[y] == h.mapping[y] for y in g.space.min_nbhd[x])


def _sort_key(e: PartialHomeo) -> tuple[int, str]:
    return (len(e.name), e.name)


@dataclass(eq=False)
class ActionSystem:
    """A finite set of partial homeomorphisms closed under * and inverse."""

    space: FiniteSpace
    elements: tuple[PartialHomeo, ...]
    generator_names: tuple[str, ...] = ()
    name: str = ""

    def by_name(self, name: str) -> PartialHomeo:
        for e in self.elements:
            if e.name == name:
                return e
        raise KeyError(f"no element named {name!r}")

    @property
    def identity(self) -> PartialHomeo:
        return self.by_name("id")


def make_action_system(
    space: FiniteSpace,
    elements: Iterable[PartialHomeo],
    generator_names: Iterable[str] = (),
    name: str = "",
) -> ActionSystem:
    elems = tuple(sorted(elements, key=_sort_key))
    keys = {e.key for e in elems}
    if len(keys) != len(elems):
        raise NotAnAction("duplicate partial maps in the system")
    full_id = identity_homeo(space)
    if full_id.key not in keys:
        raise NotAnAction("the system lacks the full-domain identity")
    if not any(e.name == "id" for e in elems):
        raise NotAnAction("the identity element must be labeled 'id'")
    for e in elems:
        if invert(e).key not in keys:
            raise NotAnAction(f"system not closed under inversion at {e.name!r}")
    for a in elems:
        for b in elems:
            if compose(a, b).key not in keys:
                raise NotAnAction(
                    f"system not closed under composition at ({a.name!r},{b.name!r})"
                )
    return ActionSystem(
        space=space,
        elements=elems,
        generator_names=tuple(generator_names),
        name=name,
    )


def generate(space: FiniteSpace, generators: Iterable[PartialHomeo], name: str = "") -> ActionSystem:
    """Close the generators under composition and inversion.

    Elements are deduplicated by underlying partial map; the first (hence
    shortest) word reaching a map becomes its label, so results do not
    depend on iteration order.
    """
    gens = []
    for g in generators:
        gens.append(make_partial_homeo(space, g.dom, g.mapping, g.name))
    elements: dict[tuple, PartialHomeo] = {}
    for e in [identity_homeo(space), *gens]:
        elements.setdefault(e.key, e)
    changed = True
    while changed:
        changed = False
        current = sorted(elements.values(), key=_sort_key)
        candidates = [invert(e) for e in current]
        candidates += [compose(a, b) for a in current for b in current]
        for c in sorted(candidates, key=_sort_key):
            if c.key not in elements:
                elements[c.key] = c
                changed = True
    return make_action_system(
        space,
        elements.values(),
        generator_names=[g.name for g in gens],
        name=name,
    )


def _germ_class(system: ActionSystem, e: PartialHomeo, x: str) -> list[PartialHomeo]:
    return [f for f in system.elements if x in f.dom and germ_equal(e, f, x)]


def _resolve(system: ActionSystem, element) -> PartialHomeo:
    if isinstance(element, str):
        return system.by_name(element)
    return element


def germ_arrow(system: ActionSystem, element, x: str) -> str:
    """Canonical arrow identifier of the germ of an element at a point.

    The representative label is 'id' whenever the identity belongs to the
    germ class, and otherwise the shortest (then lexicographically first)
    member label, so equal germs always produce equal identifiers.
    """
    e = _resolve(system, element)
    if x not in e.dom:
        raise OutsideDomain(f"{x!r} is outside the domain of {e.name!r}")
    members = _germ_class(system, e, x)
    names = sorted(m.name for m in members)
    canon = "id" if "id" in names else min(names, key=lambda n: (len(n), n))
    return f"{e.mapping[x]}{GERM_SEP}{canon}{GERM_SEP}{x}"


def germ_groupoid(system: ActionSystem, name: str = "") -> Groupoid:
    """The groupoid of germs of an action system, with the germ topology.

    Arrows are germ classes; the basic open set around the germ of g at x
    consists of the germs of g at the points of the minimal neighborhood of
    x. Units are the germs of the identity, identified with the points of
    the space. The result is validated like any other groupoid and keeps a
    reference to the generating system.
    """
    inv_elem: dict[str, PartialHomeo] = {}
    by_key = {e.key: e for e in system.elements}
    for e in system.elements:
        inv_elem[e.name] = by_key[invert(e).key]

    def composite(a: PartialHomeo, b: PartialHomeo) -> PartialHomeo:
        return by_key[compose(a, b).key]

    rep: dict[str, tuple[PartialHomeo, str]] = {}
    r: dict[str, str] = {}
    s: dict[str, str] = {}
    for e in system.elements:
        for x in sorted(e.dom):
            aid = germ_arrow(system, e, x)
            if aid in rep:
                continue
            canon_name = aid.split(GERM_SEP)[1]
            rep[aid] = (system.by_name(canon_name), x)
            r[aid] = e.mapping[x]
            s[aid] = x

    arrows = sorted(rep)
    inv = {}
    nbhd = {}
    for aid in arrows:
        e, x = rep[aid]
        inv[aid] = germ_arrow(system, inv_elem[e.name], e.mapping[x])
        nbhd[aid] = {germ_arrow(system, e, y) for y in system.space.min_nbhd[x]}
    comp = {}
    for gid in arrows:
        e, y = rep[gid]
        for hid in arrows:
            h, x = rep[hid]
            if s[gid] == r[hid]:
                comp[(gid, hid)] = germ_arrow(system, composite(e, h), x)

    g = make_groupoid(
        units=system.space,
        arrows=arrows,
        r=r,
        s=s,
        inv=inv,
        comp=comp,
        arrow_min_nbhd=nbhd,
        unit_arrow={x: f"{x}{GERM_SEP}id{GERM_SEP}{x}" for x in system.space.points},
        name=name or (f"germs({system.name})" if system.name else "germs"),
    )
    g.germ_source = system
    return g
