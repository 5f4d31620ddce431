"""Finite topological spaces stored as minimal open neighborhoods.

A finite topology is the same thing as a preorder: x <= y (x specializes to
y) iff y lies in every open set around x, iff y is in the minimal open
neighborhood U_x. All operations here are pure and combinatorial; the full
open-set family is never materialized, opens are recognized as unions of
minimal neighborhoods.

Dually, the closure of a point y is its up-set, the points x with y in U_x,
and the closure of a set is the union of the up-sets of its points (McCord,
*Singular homology groups and homotopy groups of finite topological
spaces*, Duke Math. J. 33, 1966; Barmak, *Algebraic Topology of Finite
Topological Spaces and Applications*, LNM 2032, 2011). A space computes its
up-sets once, so a closure costs the size of the up-sets it reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .errors import BadPartition, PreorderViolation, UnknownPoint

__all__ = [
    "FiniteSpace",
    "make_space",
    "is_open",
    "closure",
    "is_dense",
    "separation_report",
    "map_report",
    "product",
    "quotient",
    "quotient_separation_report",
    "PAIR_SEP",
]

# Encoding for points of a product space: "x|y".
PAIR_SEP = "|"


@dataclass(frozen=True)
class FiniteSpace:
    points: tuple[str, ...]
    min_nbhd: Mapping[str, frozenset[str]] = field(hash=False)

    def nbhd(self, x: str) -> frozenset[str]:
        try:
            return self.min_nbhd[x]
        except KeyError:
            raise UnknownPoint(f"point {x!r} is not in the space") from None

    @cached_property
    def point_set(self) -> frozenset[str]:
        return frozenset(self.points)

    @cached_property
    def above(self) -> Mapping[str, tuple[str, ...]]:
        """above[y]: the points, in point order, whose minimal neighborhood
        holds y; that is the closure of {y}."""
        up: dict[str, list[str]] = {y: [] for y in self.points}
        for x in self.points:
            for y in self.min_nbhd[x]:
                up[y].append(x)
        return {y: tuple(xs) for y, xs in up.items()}

    def check_points(self, subset: Iterable[str]) -> frozenset[str]:
        sub = frozenset(subset)
        stray = sub - self.point_set
        if stray:
            raise UnknownPoint(f"points not in the space: {sorted(stray)}")
        return sub


def make_space(points: Iterable[str], min_nbhd: Mapping[str, Iterable[str]]) -> FiniteSpace:
    """Validate and build a finite space from its minimal-neighborhood table."""
    pts = tuple(sorted(points))
    if len(set(pts)) != len(pts):
        raise PreorderViolation("duplicate point identifiers")
    pset = set(pts)
    if set(min_nbhd) != pset:
        missing = sorted(pset - set(min_nbhd))
        extra = sorted(set(min_nbhd) - pset)
        raise UnknownPoint(f"min_nbhd keys mismatch: missing {missing}, extra {extra}")
    table: dict[str, frozenset[str]] = {}
    for x in pts:
        nb = frozenset(min_nbhd[x])
        stray = nb - pset
        if stray:
            raise UnknownPoint(f"min_nbhd[{x!r}] mentions unknown points {sorted(stray)}")
        table[x] = nb
    for x in pts:
        if x not in table[x]:
            raise PreorderViolation(f"reflexivity fails: {x!r} not in min_nbhd({x!r})")
    for x in pts:
        for y in table[x]:
            if not table[y] <= table[x]:
                raise PreorderViolation(
                    f"transitivity fails at pair ({x!r}, {y!r}): "
                    f"min_nbhd({y!r}) is not contained in min_nbhd({x!r})"
                )
    return FiniteSpace(points=pts, min_nbhd=table)


def is_open(space: FiniteSpace, subset: Iterable[str]) -> bool:
    sub = space.check_points(subset)
    return all(space.min_nbhd[x] <= sub for x in sub)


def closure(space: FiniteSpace, subset: Iterable[str]) -> frozenset[str]:
    """Closure of a set: all points whose minimal neighborhood meets it,
    the union of the up-sets of its points."""
    sub = space.check_points(subset)
    return frozenset(chain.from_iterable(space.above[y] for y in sub))


def is_dense(space: FiniteSpace, subset: Iterable[str]) -> bool:
    return closure(space, subset) == space.point_set


def _separated(space: FiniteSpace, x: str, y: str) -> bool:
    return not (space.min_nbhd[x] & space.min_nbhd[y])


def separation_report(space: FiniteSpace) -> dict:
    """Hausdorff points, plus the space-level Hausdorff and T1 verdicts.

    Two points are separated when their minimal neighborhoods are disjoint;
    a point is a Hausdorff point when it is separated from every other point.
    """
    pts = space.points
    hausdorff_points = [
        x for x in pts if all(_separated(space, x, y) for y in pts if y != x)
    ]
    is_t1 = all(x not in space.min_nbhd[y] for x in pts for y in pts if x != y)
    return {
        "hausdorff_points": sorted(hausdorff_points),
        "is_hausdorff": len(hausdorff_points) == len(pts),
        "is_t1": is_t1,
    }


def _continuous(f: Mapping[str, str], src: FiniteSpace, dst: FiniteSpace) -> bool:
    """Is the point map f, checked total into dst, continuous? It is exactly
    when it sends each minimal neighborhood U_x into U_f(x)."""
    if set(f) != src.point_set:
        raise UnknownPoint("map is not total on the source points")
    for x, y in f.items():
        if y not in dst.min_nbhd:
            raise UnknownPoint(f"map sends {x!r} to unknown point {y!r}")
    return all(
        f[y] in dst.min_nbhd[f[x]] for x in src.points for y in src.min_nbhd[x]
    )


def map_report(f: Mapping[str, str], src: FiniteSpace, dst: FiniteSpace) -> dict:
    """Continuity/openness/closedness/homeomorphism flags for a point map."""
    continuous = _continuous(f, src, dst)
    # Finite opens are unions of minimal neighborhoods, so it is enough to
    # check images of minimal neighborhoods / closures of points.
    open_flag = all(
        is_open(dst, {f[y] for y in src.min_nbhd[x]}) for x in src.points
    )
    closed_flag = all(
        closure(dst, {f[y] for y in src.above[x]})
        == frozenset(f[y] for y in src.above[x])
        for x in src.points
    )
    bijective = len(set(f.values())) == len(src.points) == len(dst.points)
    homeomorphism = bijective and continuous and open_flag
    return {
        "continuous": continuous,
        "open": open_flag,
        "closed": closed_flag,
        "homeomorphism": homeomorphism,
    }


def product(x_space: FiniteSpace, y_space: FiniteSpace) -> FiniteSpace:
    """Product space on pair-encoded points "x|y"."""
    points = []
    table: dict[str, frozenset[str]] = {}
    for x in x_space.points:
        for y in y_space.points:
            p = f"{x}{PAIR_SEP}{y}"
            points.append(p)
            table[p] = frozenset(
                f"{a}{PAIR_SEP}{b}"
                for a in x_space.min_nbhd[x]
                for b in y_space.min_nbhd[y]
            )
    return make_space(points, table)


def _check_partition(space: FiniteSpace, partition: Sequence[Iterable[str]]) -> list[frozenset[str]]:
    blocks = [frozenset(b) for b in partition]
    seen: set[str] = set()
    for b in blocks:
        if not b:
            raise BadPartition("empty block")
        stray = b - space.point_set
        if stray:
            raise BadPartition(f"block mentions unknown points {sorted(stray)}")
        if b & seen:
            raise BadPartition(f"blocks overlap at {sorted(b & seen)}")
        seen |= b
    if seen != space.point_set:
        raise BadPartition(f"blocks miss points {sorted(space.point_set - seen)}")
    return blocks


def class_name(block: Iterable[str]) -> str:
    return "{" + ",".join(sorted(block)) + "}"


def _saturated_open_hull(space: FiniteSpace, block: frozenset[str], class_of: Mapping[str, frozenset[str]]) -> frozenset[str]:
    """Smallest saturated open set containing the block."""
    cur = block
    while True:
        opened = frozenset(p for x in cur for p in space.min_nbhd[x])
        saturated = frozenset(p for x in opened for p in class_of[x])
        if saturated == cur:
            return cur
        cur = saturated


def quotient(space: FiniteSpace, partition: Sequence[Iterable[str]]) -> FiniteSpace:
    """Quotient space; opens are images of saturated opens."""
    blocks = _check_partition(space, partition)
    class_of = {x: b for b in blocks for x in b}
    names = {b: class_name(b) for b in blocks}
    table: dict[str, frozenset[str]] = {}
    for b in blocks:
        hull = _saturated_open_hull(space, b, class_of)
        table[names[b]] = frozenset(names[class_of[x]] for x in hull)
    return make_space(names.values(), table)


def quotient_separation_report(space: FiniteSpace, partition: Sequence[Iterable[str]]) -> dict:
    """Separation analysis of a quotient, relative to the source space.

    A pair of distinct classes counts as genuinely non-separated when their
    minimal quotient neighborhoods intersect AND every pair of
    representatives is separated in the source space, so the failure is
    created by the gluing rather than inherited from the source's own
    non-Hausdorffness. Hausdorff classes are those with no genuine partner.
    """
    blocks = _check_partition(space, partition)
    q = quotient(space, partition)
    names = {b: class_name(b) for b in blocks}
    genuine: list[tuple[str, str]] = []
    for i, b1 in enumerate(blocks):
        for b2 in blocks[i + 1:]:
            n1, n2 = names[b1], names[b2]
            if not (q.min_nbhd[n1] & q.min_nbhd[n2]):
                continue
            explained = any(
                not _separated(space, x1, x2) for x1 in b1 for x2 in b2
            )
            if not explained:
                genuine.append(tuple(sorted((n1, n2))))
    bad = {n for pair in genuine for n in pair}
    return {
        "class_map": {x: names[b] for b in blocks for x in sorted(b)},
        "quotient": q,
        "genuine_pairs": sorted(genuine),
        "hausdorff_classes": sorted(set(names.values()) - bad),
    }
