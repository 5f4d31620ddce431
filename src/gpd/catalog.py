"""Registry of built-in models with behavior-checked manifests.

Each entry builds a validated groupoid (plus Haar weights, an optional
twist, and companion objects) together with a manifest: a list of labeled
assertions that the instance is expected to satisfy. `run_manifest` executes
them and reports pass/fail per label; nothing in a manifest mutates the
bundle. The bundle's `analysis` is the entry's `cartan.Analysis`, and each
companion model in `extras` is an `Analysis` of its own, so a full manifest
run, and any report made after it, builds each algebra and each pair report
at most once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from . import cartan as _cartan
from .algebra import (
    block_decomposition,
    convolve,
    delta,
    make_cocycle,
    make_element,
    star,
)
from .cartan import Analysis
from .errors import BadParams, UnknownEntry
from .finitetop import FiniteSpace, make_space, quotient_separation_report
from .germs import generate, germ_groupoid, make_partial_homeo
from .groupoid import (
    Groupoid,
    HaarSystem,
    isotropy,
    make_groupoid,
    make_haar,
    orbits,
    relation_groupoid,
    pair_groupoid,
    transformation_groupoid,
)

__all__ = [
    "CatalogEntry",
    "names",
    "describe",
    "build",
    "run_manifest",
    "crossed_product_pair",
    "INTERVAL_NBHD",
    "INTERVAL_REFLECTION",
    "HALF_INTERVAL_NBHD",
]

# Five-point model of a symmetric interval: two closed endpoints, two open
# half-open sides, and a closed center whose neighborhood meets both sides.
INTERVAL_NBHD = {
    "-1": {"-1", "a"},
    "a": {"a"},
    "0": {"a", "0", "b"},
    "b": {"b"},
    "1": {"b", "1"},
}
# The reflection fixing the center and exchanging the sides and endpoints.
INTERVAL_REFLECTION = {"-1": "1", "a": "b", "0": "0", "b": "a", "1": "-1"}

# Three-point model of a half-open interval with a closed left endpoint.
HALF_INTERVAL_NBHD = {"0": {"0", "m"}, "m": {"m"}, "1": {"m", "1"}}


def _interval_space() -> FiniteSpace:
    return make_space(INTERVAL_NBHD.keys(), INTERVAL_NBHD)


def _half_interval_space() -> FiniteSpace:
    return make_space(HALF_INTERVAL_NBHD.keys(), HALF_INTERVAL_NBHD)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    summary: str
    params_doc: Mapping[str, str]
    builder: Callable[[Mapping], dict]


# ---------------------------------------------------------------- parameters


def _as_int(params: Mapping, key: str, default: int, lo: int, hi: int) -> int:
    raw = params.get(key, default)
    try:
        val = int(raw)
    except (TypeError, ValueError):
        raise BadParams(f"parameter {key!r} must be an integer, got {raw!r}") from None
    if not lo <= val <= hi:
        raise BadParams(f"parameter {key!r} must lie in [{lo}, {hi}], got {val}")
    return val


def _as_str_list(params: Mapping, key: str, default: list[str]) -> list[str]:
    raw = params.get(key, default)
    if isinstance(raw, str):
        raw = [tok for tok in raw.split(",") if tok]
    try:
        return [str(tok) for tok in raw]
    except TypeError:
        raise BadParams(f"parameter {key!r} must be a list, got {raw!r}") from None


def _as_int_list(params: Mapping, key: str, default: list[int]) -> list[int]:
    toks = _as_str_list(params, key, [str(v) for v in default])
    try:
        vals = [int(t) for t in toks]
    except ValueError:
        raise BadParams(f"parameter {key!r} must list integers, got {toks!r}") from None
    if not vals:
        raise BadParams(f"parameter {key!r} must be non-empty")
    return vals


def _as_matrix(params: Mapping, key: str, default: list[list[int]]) -> list[list[int]]:
    raw = params.get(key, default)
    if isinstance(raw, str):
        raw = [[tok for tok in row.split(",") if tok] for row in raw.split(";")]
    try:
        mat = [[int(v) for v in row] for row in raw]
    except (TypeError, ValueError):
        raise BadParams(f"parameter {key!r} must be an integer matrix") from None
    return mat


def _reject_unknown(params: Mapping, allowed: Iterable[str]) -> None:
    extra = sorted(set(params) - set(allowed))
    if extra:
        raise BadParams(f"unknown parameters: {extra}")


# ------------------------------------------------------------------ builders


def _build_interval_reflection(params: Mapping) -> dict:
    _reject_unknown(params, ())
    space = _interval_space()
    t = make_partial_homeo(space, space.points, INTERVAL_REFLECTION, "T")
    g = germ_groupoid(generate(space, [t]), name="cross_a1")
    haar = HaarSystem.counting(g)

    def blocks_ok(b):
        return block_decomposition(b["analysis"].algebra) == (2, 2, 1, 1)

    manifest = [
        ("etale", lambda b: b["analysis"].classify["etale"]),
        ("arrows fiberwise separated", lambda b: b["analysis"].classify["hausdorff_arrows"]),
        (
            "topologically principal but not principal",
            lambda b: b["analysis"].classify["topologically_principal"]
            and not b["analysis"].classify["principal"],
        ),
        ("isotropy of order 2 at the center", lambda b: isotropy(b["groupoid"], "0")["order"] == 2),
        ("unit pair passes all four diagonal conditions", lambda b: b["analysis"].cartan.overall),
        ("two pure-state extensions at the center", lambda b: b["analysis"].uep["counts"]["0"] == 2),
        ("unique extensions away from the center",
         lambda b: all(v == 1 for x, v in b["analysis"].uep["counts"].items() if x != "0")),
        ("simple blocks 2,2,1,1", blocks_ok),
    ]
    return {"groupoid": g, "haar": haar, "sigma": None, "extras": {}, "manifest": manifest}


def _glued_interval_relation(mode: str, name: str):
    space = _interval_space()
    neg = INTERVAL_REFLECTION
    pairs = [(x, x) for x in space.points] + [
        (x, neg[x]) for x in space.points if neg[x] != x
    ]
    return relation_groupoid(space, pairs, mode, name=name)


def _build_glued_interval(params: Mapping) -> dict:
    _reject_unknown(params, ())
    g, _ = _glued_interval_relation("product", "cross_a2")
    haar = make_haar(g, {a: (2 if a == "0~0" else 1) for a in g.arrows})

    def unit_indicator_inadmissible(b):
        gg = b["groupoid"]
        ones = make_element(gg, {gg.unit_arrow[x]: 1 for x in gg.units.points})
        return not b["analysis"].algebra.cc.contains(ones)

    def units_vanish_at_center(b):
        sub = b["analysis"].units
        return sub.dim == 4 and all(not v.value("0~0") for v in sub.basis)

    manifest = [
        ("not etale: unit space is not open", lambda b: not b["analysis"].classify["etale"]),
        ("principal", lambda b: b["analysis"].classify["principal"]),
        ("unit indicator is not admissible", unit_indicator_inadmissible),
        ("no two-sided identity inside the unit functions",
         lambda b: not b["analysis"].cartan.contains_unit),
        ("unit functions are maximal abelian", lambda b: b["analysis"].cartan.masa),
        (
            "restriction to units fails to be an expectation",
            lambda b: not b["analysis"].cartan.expectation["well_defined"],
        ),
        ("unit functions vanish at the center", units_vanish_at_center),
        ("simple blocks 2,2,1", lambda b: block_decomposition(b["analysis"].algebra) == (2, 2, 1)),
    ]
    return {"groupoid": g, "haar": haar, "sigma": None, "extras": {}, "manifest": manifest}


def _build_glued_interval_open_diagonal(params: Mapping) -> dict:
    _reject_unknown(params, ())
    g, haar = _glued_interval_relation("product_plus_diagonal", "cross_a3")
    manifest = [
        ("etale", lambda b: b["analysis"].classify["etale"]),
        ("principal", lambda b: b["analysis"].classify["principal"]),
        ("unit pair passes all four diagonal conditions", lambda b: b["analysis"].cartan.overall),
        ("every pure state extends uniquely", lambda b: b["analysis"].uep["all_unique"]),
        ("diagonal verdict true", lambda b: b["analysis"].uep["diagonal"]),
        ("simple blocks 2,2,1", lambda b: block_decomposition(b["analysis"].algebra) == (2, 2, 1)),
    ]
    return {"groupoid": g, "haar": haar, "sigma": None, "extras": {}, "manifest": manifest}


def _doubled_space(base: FiniteSpace, copies: int) -> FiniteSpace:
    points = [f"{p}@{i}" for p in base.points for i in range(copies)]
    nbhd = {
        f"{p}@{i}": {f"{q}@{i}" for q in base.min_nbhd[p]}
        for p in base.points
        for i in range(copies)
    }
    return make_space(points, nbhd)


def _gluing_relation(base: FiniteSpace, separated_at: list[str], name: str):
    """Several copies of a base space glued together except over chosen points.

    Copy i stays separated from copy j over the point separated_at[i] (and
    over separated_at[j]); everywhere else the copies are identified.
    """
    n = len(separated_at)
    space = _doubled_space(base, n)
    pairs = []
    for p in base.points:
        for i in range(n):
            for j in range(n):
                if i == j or p not in (separated_at[i], separated_at[j]):
                    pairs.append((f"{p}@{i}", f"{p}@{j}"))
    g, haar = relation_groupoid(space, pairs, "product", name=name)
    return space, g, haar


def _separation_extras(space: FiniteSpace, g: Groupoid, separated_at: list[str], base: FiniteSpace) -> dict:
    report = quotient_separation_report(space, orbits(g))
    n = len(separated_at)
    glued = set(separated_at)
    expected = sorted(
        "{" + ",".join(sorted(f"{p}@{i}" for i in range(n))) + "}"
        for p in base.points
        if p not in glued
    )
    isolated = [p for p in glued if base.min_nbhd[p] == frozenset({p})]
    closed = [
        p
        for p in glued
        if all(p not in base.min_nbhd[q] for q in base.points if q != p)
    ]
    return {
        "separation": report,
        "expected_hausdorff_classes": expected,
        "isolated_glue_points": isolated,
        "all_glue_points_closed": len(closed) == len(glued),
    }


def _gluing_manifest(extras_key: str = "separation") -> list:
    def separation_matches(b):
        rep = b["extras"][extras_key]
        actual = set(rep["hausdorff_classes"])
        expected = set(b["extras"]["expected_hausdorff_classes"])
        if b["extras"]["isolated_glue_points"]:
            # An isolated glue point opens up its copies: the naive picture
            # (non-Hausdorff exactly over the glue points) must then fail.
            return actual != expected and actual >= expected
        return actual == expected

    return [
        # Gluing along the complement of a non-closed point breaks local
        # openness of the range map, so etale-ness tracks closedness.
        ("etale precisely when every glue point is closed",
         lambda b: b["analysis"].classify["etale"] == b["extras"]["all_glue_points_closed"]),
        ("arrows fiberwise separated", lambda b: b["analysis"].classify["hausdorff_arrows"]),
        ("principal", lambda b: b["analysis"].classify["principal"]),
        ("quotient separation matches the glue structure", separation_matches),
    ]


def _build_doubled_origin(params: Mapping) -> dict:
    _reject_unknown(params, ())
    base = _half_interval_space()
    space, g, haar = _gluing_relation(base, ["0", "0"], "doubled_origin")
    extras = _separation_extras(space, g, ["0", "0"], base)

    def origin_classes_glow(b):
        rep = b["extras"]["separation"]
        return rep["genuine_pairs"] == [("{0@0}", "{0@1}")]

    manifest = _gluing_manifest() + [
        ("exactly the two origin classes are non-separated", origin_classes_glow),
        ("unit pair passes all four diagonal conditions", lambda b: b["analysis"].cartan.overall),
        ("every pure state extends uniquely", lambda b: b["analysis"].uep["all_unique"]),
        ("diagonal verdict true", lambda b: b["analysis"].uep["diagonal"]),
        ("simple blocks 2,2,1,1", lambda b: block_decomposition(b["analysis"].algebra) == (2, 2, 1, 1)),
    ]
    return {"groupoid": g, "haar": haar, "sigma": None, "extras": extras, "manifest": manifest}


def _build_gluing(params: Mapping) -> dict:
    _reject_unknown(params, ("z",))
    base = _interval_space()
    z = _as_str_list(params, "z", ["-1", "0"])
    if len(z) < 2:
        raise BadParams("need at least two copies (parameter z lists one glue point per copy)")
    unknown = sorted(set(z) - set(base.points))
    if unknown:
        raise BadParams(f"glue points {unknown} are not points of the interval model")
    space, g, haar = _gluing_relation(base, z, "dixmier")
    extras = _separation_extras(space, g, z, base)
    manifest = _gluing_manifest()
    return {
        "groupoid": g,
        "haar": haar,
        "sigma": None,
        "extras": extras,
        "manifest": manifest,
        "params": {"z": z},
    }


def _discrete_space(points: Iterable[str]) -> FiniteSpace:
    pts = list(points)
    return make_space(pts, {p: {p} for p in pts})


def _build_rotation(params: Mapping) -> dict:
    _reject_unknown(params, ("n", "m"))
    n = _as_int(params, "n", 2, 2, 6)
    m = _as_int(params, "m", 3, 1, 6)
    if n * m > 36:
        raise BadParams("n*m too large for the finite catalog (limit 36 points)")
    g, haar = _translation_groupoid([n], [n * m], lambda a: (a[0] * m,), "rotation")

    points = g.units.points
    companion_pairs = [
        (x, y) for x in points for y in points if int(x) % m == int(y) % m
    ]
    companion, companion_haar = relation_groupoid(
        g.units, companion_pairs, "product", name="rotation companion"
    )
    extras = {"companion": Analysis(companion, companion_haar), "n": n, "m": m}

    expected = tuple([n] * m)
    manifest = [
        ("free action: etale and principal",
         lambda b: b["analysis"].classify["etale"] and b["analysis"].classify["principal"]),
        ("crossed product splits into m blocks of size n",
         lambda b: block_decomposition(b["analysis"].algebra) == expected),
        ("companion splits identically",
         lambda b: block_decomposition(b["extras"]["companion"].algebra) == expected),
        ("crossed-product unit pair passes all four diagonal conditions",
         lambda b: b["analysis"].cartan.overall),
        ("companion unit pair passes all four diagonal conditions",
         lambda b: b["extras"]["companion"].cartan.overall),
        ("unique pure-state extensions on both models",
         lambda b: b["analysis"].uep["all_unique"] and b["extras"]["companion"].uep["all_unique"]),
    ]
    return {"groupoid": g, "haar": haar, "sigma": None, "extras": extras, "manifest": manifest,
            "params": {"n": n, "m": m}}


def _product_group_points(orders: list[int]) -> list[tuple[int, ...]]:
    out = [()]
    for n in orders:
        out = [t + (k,) for t in out for k in range(n)]
    return out


def _tuple_name(t: tuple[int, ...]) -> str:
    return ",".join(str(v) for v in t)


def _translation_groupoid(group_orders, space_orders, send, name):
    """The product of cyclic groups of `group_orders` translating that of
    `space_orders` by `send(a)`, with counting Haar system; points and group
    elements are named by their comma-joined exponents."""
    gpts = _product_group_points(group_orders)
    spts = _product_group_points(space_orders)
    space = _discrete_space([_tuple_name(t) for t in spts])
    elems = [_tuple_name(t) for t in gpts]
    group = {
        "elements": elems,
        "mul": {
            (_tuple_name(a), _tuple_name(b)): _tuple_name(
                tuple((x + y) % n for x, y, n in zip(a, b, group_orders))
            )
            for a in gpts
            for b in gpts
        },
        "identity": _tuple_name(tuple(0 for _ in group_orders)),
    }
    action = {}
    for a in gpts:
        shift = send(a)
        action[_tuple_name(a)] = {
            _tuple_name(x): _tuple_name(
                tuple((u + v) % n for u, v, n in zip(x, shift, space_orders))
            )
            for x in spts
        }
    g = transformation_groupoid(group, action, space, name=name)
    return g, HaarSystem.counting(g)


def crossed_product_pair(source_orders, target_orders, matrix):
    """Both translation groupoids of a homomorphism between finite abelian
    products of cyclic groups: the given map acting on its target, and the
    dualized map acting on the dual of its source.

    The (j,i) matrix entry is the image exponent of the i-th source
    generator in the j-th target factor; well-definedness forces
    n_i * A[j][i] to vanish modulo m_j (BadParams otherwise), and the same
    divisibility makes the dual exponents integral.
    """
    ns = list(source_orders)
    ms = list(target_orders)
    if any(v < 1 for v in ns + ms):
        raise BadParams("cyclic orders must be positive")
    if len(matrix) != len(ms) or any(len(row) != len(ns) for row in matrix):
        raise BadParams(
            f"matrix must be {len(ms)}x{len(ns)} (target factors by source factors)"
        )
    for j, mj in enumerate(ms):
        for i, ni in enumerate(ns):
            if (ni * matrix[j][i]) % mj:
                raise BadParams(
                    f"matrix entry [{j}][{i}] does not define a homomorphism: "
                    f"{ni} * {matrix[j][i]} is not divisible by {mj}"
                )

    def phi(a: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(
            sum(matrix[j][i] * a[i] for i in range(len(ns))) % ms[j]
            for j in range(len(ms))
        )

    def phi_dual(bb: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(
            sum(ns[i] * matrix[j][i] * bb[j] // ms[j] for j in range(len(ms))) % ns[i]
            for i in range(len(ns))
        )

    primal = _translation_groupoid(ns, ms, phi, "fourier primal")
    dual = _translation_groupoid(ms, ns, phi_dual, "fourier dual")
    return primal, dual


def _build_fourier(params: Mapping) -> dict:
    _reject_unknown(params, ("source_orders", "target_orders", "matrix"))
    ns = _as_int_list(params, "source_orders", [2])
    ms = _as_int_list(params, "target_orders", [4])
    mat = _as_matrix(params, "matrix", [[2]])
    (g, haar), (g2, haar2) = crossed_product_pair(ns, ms, mat)
    extras = {"dual": Analysis(g2, haar2)}

    manifest = [
        ("both translation groupoids etale with separated arrows",
         lambda b: b["analysis"].classify["etale"]
         and b["analysis"].classify["hausdorff_arrows"]
         and b["extras"]["dual"].classify["etale"]),
        ("equal algebra dimensions",
         lambda b: b["analysis"].algebra.dim == b["extras"]["dual"].algebra.dim),
        ("identical simple block multisets",
         lambda b: block_decomposition(b["analysis"].algebra)
         == block_decomposition(b["extras"]["dual"].algebra)),
    ]
    return {"groupoid": g, "haar": haar, "sigma": None, "extras": extras, "manifest": manifest,
            "params": {"source_orders": ns, "target_orders": ms, "matrix": mat}}


def _build_two_involutions(params: Mapping) -> dict:
    _reject_unknown(params, ())
    nbhd = {
        "y1": {"y1"},
        "y2": {"y2"},
        "z1": {"z1"},
        "z2": {"z2"},
        "a": {"y1", "y2", "z1", "z2", "a"},
        "b": {"y1", "y2", "z1", "z2", "b"},
    }
    space = make_space(nbhd.keys(), nbhd)
    swap_y = {"y1": "y2", "y2": "y1", "z1": "z1", "z2": "z2", "a": "a", "b": "b"}
    swap_z = {"y1": "y1", "y2": "y2", "z1": "z2", "z2": "z1", "a": "a", "b": "b"}
    g1 = make_partial_homeo(space, space.points, swap_y, "g1")
    g2 = make_partial_homeo(space, space.points, swap_z, "g2")
    g = germ_groupoid(generate(space, [g1, g2]), name="skandalis")
    haar = HaarSystem.counting(g)

    def alternating_sum_is_masa_obstruction(b):
        gg = b["groupoid"]
        f = _cartan.skandalis_element(gg)
        sub = b["analysis"].units
        commutes = all(convolve(f, v, b["haar"]) == convolve(v, f, b["haar"]) for v in sub.basis)
        return commutes and not sub.contains(f) and b["analysis"].algebra.cc.contains(f)

    def support_is_signed_isotropy(b):
        gg = b["groupoid"]
        f = _cartan.skandalis_element(gg)
        iso = [a for a in f.support if gg.r[a] == gg.s[a] and gg.r[a] in ("a", "b")]
        values_ok = all(f.value(a).as_quad() in ([1, 1, 0, 1], [-1, 1, 0, 1]) for a in f.support)
        return len(f.support) == 8 and iso == sorted(f.support) and values_ok

    manifest = [
        ("arrow space is not fiberwise separated",
         lambda b: not b["analysis"].classify["hausdorff_arrows"]),
        ("etale", lambda b: b["analysis"].classify["etale"]),
        ("topologically principal but not principal",
         lambda b: b["analysis"].classify["topologically_principal"]
         and not b["analysis"].classify["principal"]),
        ("unit functions are not maximal abelian", lambda b: not b["analysis"].cartan.masa),
        ("a commutant witness outside the unit functions is shipped",
         lambda b: b["analysis"].cartan.masa_witness is not None),
        ("alternating involution sum commutes with unit functions yet escapes them",
         alternating_sum_is_masa_obstruction),
        ("alternating sum is supported on the 8 fixed-point isotropy germs with values ±1",
         support_is_signed_isotropy),
        ("restriction to units is not a well-defined expectation",
         lambda b: not b["analysis"].cartan.expectation["well_defined"]),
    ]
    return {"groupoid": g, "haar": haar, "sigma": None, "extras": {}, "manifest": manifest}


def _build_twisted_klein(params: Mapping) -> dict:
    _reject_unknown(params, ())
    units = _discrete_space(["*"])
    elems = ["00", "01", "10", "11"]

    def mul(a: str, b: str) -> str:
        return "".join(str(int(x) ^ int(y)) for x, y in zip(a, b))

    arrows = list(elems)
    r = {a: "*" for a in arrows}
    s = {a: "*" for a in arrows}
    inv = {a: a for a in arrows}
    comp = {(a, b): mul(a, b) for a in arrows for b in arrows}
    g = make_groupoid(
        units=units,
        arrows=arrows,
        r=r,
        s=s,
        inv=inv,
        comp=comp,
        arrow_min_nbhd={a: {a} for a in arrows},
        unit_arrow={"*": "00"},
        name="cocycle_klein",
    )
    haar = HaarSystem.counting(g)
    sigma = make_cocycle(
        g,
        {
            (a, b): (-1) ** (int(a[1]) * int(b[0]))
            for a in arrows
            for b in arrows
        },
    )

    def star_flips_double_generator(b):
        f = delta(b["groupoid"], "11")
        return star(f, b["sigma"]) == f.scale(-1)

    manifest = [
        ("twist is validated and normalized", lambda b: b["sigma"].validated),
        ("twisted algebra is one 2x2 block",
         lambda b: block_decomposition(b["analysis"].algebra) == (2,)),
        ("untwisted algebra is four scalars",
         lambda b: block_decomposition(b["extras"]["untwisted"].algebra) == (1, 1, 1, 1)),
        ("twisted involution flips the doubly-flipped arrow", star_flips_double_generator),
        ("unit functions are scalars, hence not maximal abelian",
         lambda b: not b["analysis"].cartan.masa),
    ]
    extras = {"untwisted": Analysis(g, haar)}
    return {"groupoid": g, "haar": haar, "sigma": sigma, "extras": extras, "manifest": manifest}


def _build_pair(params: Mapping) -> dict:
    _reject_unknown(params, ("k",))
    k = _as_int(params, "k", 3, 2, 6)
    g, haar = pair_groupoid([str(i) for i in range(k)], name=f"pair({k})")

    def weyl_round_trip(b):
        rel, _ = b["analysis"].weyl
        return _cartan.orbit_class_sizes(rel) == _cartan.orbit_class_sizes(b["groupoid"])

    manifest = [
        ("discrete, etale, principal",
         lambda b: b["analysis"].classify["etale"] and b["analysis"].classify["principal"]),
        ("image of every closed set is closed", lambda b: b["analysis"].classify["proper_closed"]),
        ("single simple block of full size",
         lambda b: block_decomposition(b["analysis"].algebra) == (k,)),
        ("unit pair passes all four diagonal conditions", lambda b: b["analysis"].cartan.overall),
        ("every pure state extends uniquely", lambda b: b["analysis"].uep["all_unique"]),
        ("reconstruction returns the single orbit class", weyl_round_trip),
    ]
    return {"groupoid": g, "haar": haar, "sigma": None, "extras": {}, "manifest": manifest,
            "params": {"k": k}}


_REGISTRY: dict[str, CatalogEntry] = {}


def _register(name: str, summary: str, params_doc: Mapping[str, str], builder) -> None:
    _REGISTRY[name] = CatalogEntry(name=name, summary=summary, params_doc=dict(params_doc), builder=builder)


_register(
    "cross_a1",
    "Germ groupoid of the reflection of the 5-point interval model.",
    {},
    _build_interval_reflection,
)
_register(
    "cross_a2",
    "Interval glued to its reflection: relation with the product topology and doubled center mass.",
    {},
    _build_glued_interval,
)
_register(
    "cross_a3",
    "Interval glued to its reflection with the diagonal declared open.",
    {},
    _build_glued_interval_open_diagonal,
)
_register(
    "cross_a4",
    "Two copies of the half-open interval identified away from the origin.",
    {},
    _build_doubled_origin,
)
_register(
    "doubled_origin",
    "Alias of cross_a4: the line with two origins, at finite scale.",
    {},
    _build_doubled_origin,
)
_register(
    "rotation",
    "Cyclic shift of order n on n*m discrete points, plus the matching trivial bundle.",
    {"n": "group order (2..6, default 2)", "m": "number of orbits (1..6, default 3)"},
    _build_rotation,
)
_register(
    "fourier",
    "A homomorphism of finite abelian groups and its dual, as translation groupoids.",
    {
        "source_orders": "cyclic factors of the acting group (default 2)",
        "target_orders": "cyclic factors of the translated group (default 4)",
        "matrix": "image exponents, rows=target factors, cols=source factors (default 2)",
    },
    _build_fourier,
)
_register(
    "dixmier",
    "Copies of the interval glued except over chosen points, one per copy.",
    {"z": "comma-separated glue points, one per copy (default -1,0)"},
    _build_gluing,
)
_register(
    "skandalis",
    "Germ groupoid of two commuting involutions with disjoint moved sets.",
    {},
    _build_two_involutions,
)
_register(
    "cocycle_klein",
    "The four-element group over one unit, twisted by its nontrivial 2-cocycle.",
    {},
    _build_twisted_klein,
)
_register(
    "pair",
    "Full equivalence relation on k discrete points.",
    {"k": "number of points (2..6, default 3)"},
    _build_pair,
)


def names() -> list[str]:
    return sorted(_REGISTRY)


def describe(name: str) -> CatalogEntry:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownEntry(f"no catalog entry named {name!r}; known: {names()}") from None


def build(name: str, params: Mapping | None = None) -> dict:
    entry = describe(name)
    bundle = entry.builder(dict(params or {}))
    bundle.setdefault("params", {})
    bundle.setdefault("extras", {})
    bundle["entry"] = name
    bundle["analysis"] = Analysis(bundle["groupoid"], bundle["haar"], bundle.get("sigma"))
    return bundle


def run_manifest(bundle: dict) -> list[dict]:
    """Execute every manifest assertion; failures are entries, not crashes."""
    results = []
    for label, assertion in bundle["manifest"]:
        try:
            ok = bool(assertion(bundle))
            detail = ""
        except Exception as exc:  # noqa: BLE001 — report, never crash the run
            ok = False
            detail = f"{type(exc).__name__}: {exc}"
        results.append({"label": label, "ok": ok, "detail": detail})
    return results
