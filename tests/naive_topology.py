"""The definitional forms of the topological questions that `gpd.finitetop`,
`gpd.groupoid` and `gpd.algebra` answer from up-set and fibre indexes, kept
only as references for the differential tests in test_finitetop.py and
test_groupoid.py. Each scans every point, arrow or pair it could need:

- a closure is every point whose minimal neighborhood meets the set;
- a set is open when its complement is closed;
- `map_report` takes closures of points by that scan;
- properness tests the image of each arrow's closure in the product space;
- isotropy, trivial isotropy and composability look at every arrow (pair);
- the constraint rows build their own up-set index;
- a relation's transitivity and composition look at every pair of pairs.
"""

from __future__ import annotations

from gpd.errors import NotEquivalence, UnknownPoint
from gpd.finitetop import product
from gpd.groupoid import (
    _fiberwise_hausdorff,
    _is_etale,
    effective,
    orbits,
    relation_arrow,
)
from gpd.qlin import ONE


def closure(space, subset):
    sub = space.check_points(subset)
    return frozenset(x for x in space.points if space.min_nbhd[x] & sub)


def is_open(space, subset):
    sub = space.check_points(subset)
    rest = frozenset(space.points) - sub
    return closure(space, rest) == rest


def map_report(f, src, dst):
    if set(f) != set(src.points):
        raise UnknownPoint("map is not total on the source points")
    for x, y in f.items():
        if y not in dst.min_nbhd:
            raise UnknownPoint(f"map sends {x!r} to unknown point {y!r}")
    continuous = all(
        f[y] in dst.min_nbhd[f[x]] for x in src.points for y in src.min_nbhd[x]
    )
    open_flag = all(
        is_open(dst, {f[y] for y in src.min_nbhd[x]}) for x in src.points
    )
    closed_flag = all(
        closure(dst, {f[y] for y in closure(src, {x})})
        == frozenset(f[y] for y in closure(src, {x}))
        for x in src.points
    )
    bijective = len(set(f.values())) == len(src.points) == len(dst.points)
    return {
        "continuous": continuous,
        "open": open_flag,
        "closed": closed_flag,
        "homeomorphism": bijective and continuous and open_flag,
    }


def proper_closed(g):
    uu = product(g.units, g.units)
    for a in g.arrows:
        img = {f"{g.r[e]}|{g.s[e]}" for e in closure(g.topo, {a})}
        if closure(uu, img) != frozenset(img):
            return False
    return True


def composable(g):
    return {(a, b) for a in g.arrows for b in g.arrows if g.s[a] == g.r[b]}


def isotropy(g, x):
    elems = tuple(sorted(a for a in g.arrows if g.r[a] == x and g.s[a] == x))
    return {
        "point": x,
        "arrows": elems,
        "identity": g.unit_arrow[x],
        "table": {(a, b): g.comp[(a, b)] for a in elems for b in elems},
        "order": len(elems),
    }


def classify(g):
    trivial = tuple(
        x for x in g.units.points
        if all(a == g.unit_arrow[x] for a in g.arrows if g.r[a] == x and g.s[a] == x)
    )
    et = _is_etale(g)
    return {
        "principal": len(trivial) == len(g.units.points),
        "topologically_principal": closure(g.units, trivial) == frozenset(g.units.points),
        "effective": effective(g) if et else None,
        "etale": et,
        "hausdorff_arrows": _fiberwise_hausdorff(g),
        "unit_space_open": is_open(g.topo, g.unit_arrow_set),
        "proper_closed": proper_closed(g),
        "trivial_isotropy_points": trivial,
        "orbits": orbits(g),
    }


def topology_constraints(g):
    idx = g.arrow_index
    rows = []
    seen = set()

    def emit(eta, cluster):
        row = {idx[eta]: ONE}
        row.update((idx[gamma], -ONE) for gamma in cluster)
        key = frozenset(row.items())
        if key not in seen:
            seen.add(key)
            rows.append(row)

    above = {eta: [] for eta in g.arrows}
    for gamma in g.arrows:
        for eta in g.topo.min_nbhd[gamma] - {gamma}:
            above[eta].append(gamma)
    for eta in g.arrows:
        for vmap in (g.s, g.r):
            clusters = {}
            for gamma in above[eta]:
                clusters.setdefault(vmap[gamma], []).append(gamma)
            for cluster in clusters.values():
                if len(cluster) >= 2:
                    emit(eta, cluster)
                elif len(cluster) == 1:
                    gamma = cluster[0]
                    if g.r[gamma] == g.s[gamma] and g.r[eta] != g.s[eta]:
                        emit(eta, cluster)
    return rows


def relation_comp(pairs):
    """The composition table `relation_groupoid` builds from `pairs`, in its
    insertion order; a missing transitive pair raises NotEquivalence."""
    rel = {(x, y) for x, y in pairs}
    for x, y in rel:
        for y2, z in rel:
            if y2 == y and (x, z) not in rel:
                raise NotEquivalence(f"missing transitive pair ({x!r},{z!r})")
    comp = {}
    for x, y in rel:
        for y2, z in rel:
            if y2 == y:
                comp[(relation_arrow(x, y), relation_arrow(y, z))] = relation_arrow(x, z)
    return comp
