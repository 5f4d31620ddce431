"""The full scans that `make_groupoid` and `make_cocycle` replaced by
Light's test on a generating set, kept only as references for the
differential tests in test_generators.py. Each reads the composition table
alone and visits every composable triple (a, b, c):

- associativity compares (ab)c with a(bc);
- the cocycle identity compares sigma(a, b)·sigma(ab, c) with
  sigma(b, c)·sigma(a, bc).

Failing triples come in the order of the full scan: by composable pair
(a, b) in table order, then by c in the order of the table's pairs (b, c).
"""

from __future__ import annotations

from gpd.errors import AxiomViolation, InvalidCocycle


def composable_triples(comp):
    after: dict[str, list[str]] = {}
    for b, c in comp:
        after.setdefault(b, []).append(c)
    return [(a, b, c) for a, b in comp for c in after.get(b, ())]


def associativity_failures(comp):
    return [
        (a, b, c) for a, b, c in composable_triples(comp)
        if comp[(comp[(a, b)], c)] != comp[(a, comp[(b, c)])]
    ]


def cocycle_failures(comp, sigma):
    return [
        (a, b, c) for a, b, c in composable_triples(comp)
        if sigma[(a, b)] * sigma[(comp[(a, b)], c)] != sigma[(b, c)] * sigma[(a, comp[(b, c)])]
    ]


def check_associativity(comp) -> None:
    """Raise AxiomViolation at the first failing triple of the full scan."""
    for a, b, c in associativity_failures(comp)[:1]:
        raise AxiomViolation(f"associativity fails at triple ({a!r},{b!r},{c!r})")


def check_cocycle(comp, sigma) -> None:
    """Raise InvalidCocycle at the first failing triple of the full scan."""
    for a, b, c in cocycle_failures(comp, sigma)[:1]:
        raise InvalidCocycle(f"cocycle identity fails at ({a!r},{b!r},{c!r})")


def words(generators, comp):
    """Every product s1·s2·…·sk (k >= 1) of generators that the table
    composes, bracketed from the left: the closure of the generators under
    right multiplication by them."""
    out = set(generators)
    todo = list(generators)
    while todo:
        w = todo.pop()
        for t in generators:
            wt = comp.get((w, t))
            if wt is not None and wt not in out:
                out.add(wt)
                todo.append(wt)
    return out
