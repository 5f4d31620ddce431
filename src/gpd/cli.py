"""Command-line front end.

Subcommands:

- analyze FILE   : classify a groupoid document (flags, isotropy, orbits)
- algebra FILE   : convolution-algebra report (dimensions, blocks, norm check)
- cartan FILE    : unit-subalgebra report (flags, expectation, extensions)
- germify FILE   : turn an action document into a groupoid document
- duality [FILE] : compare the two translation models of a homomorphism of
                   finite products of cyclic groups (finite abelian only;
                   infinite or non-abelian groups have no finite model here)
- catalog        : build registry entries and run their manifests

Every report is deterministic (keys and identifiers sorted). `--json` emits
the machine form; the default text form mirrors the same content. Exit code
0 means success with no failed manifest assertion, 1 means at least one
manifest assertion failed, 2 means a bad document, bad parameters, or an
unknown entry. A reader that closes the output early (`gpd ... | head`)
ends the run quietly with exit code 141, as a shell reports SIGPIPE.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache

from . import catalog as _catalog
from .algebra import (
    block_decomposition,
    convolve,
    reduced_norm,
    star,
    vector_element,
)
from .cartan import Analysis
from .errors import GpdError, NotMasa, SchemaError
from .germs import generate, germ_groupoid
from .groupoid import HaarSystem, isotropy
from .qlin import QC
from .serialize import (
    element_doc,
    groupoid_doc,
    load_action,
    load_cocycle,
    load_groupoid,
)

__all__ = ["main"]


# ------------------------------------------------------------- report helpers


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_jsonable(v) for v in obj)
    if isinstance(obj, QC):
        return obj.as_quad()
    if isinstance(obj, Fraction):
        return int(obj) if obj.denominator == 1 else f"{obj.numerator}/{obj.denominator}"
    return obj


def _render_text(obj, indent=0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            val = obj[key]
            if isinstance(val, (dict, list)) and val and not _is_scalar_list(val):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_inline(val)}")
    elif isinstance(obj, list):
        for val in obj:
            if isinstance(val, (dict, list)) and val and not _is_scalar_list(val):
                lines.append(f"{pad}-")
                lines.extend(_render_text(val, indent + 1))
            else:
                lines.append(f"{pad}- {_inline(val)}")
    else:
        lines.append(f"{pad}{_inline(obj)}")
    return lines


def _is_scalar_list(val) -> bool:
    return isinstance(val, list) and all(
        not isinstance(v, (dict, list)) for v in val
    )


def _inline(val) -> str:
    if isinstance(val, list):
        return "[" + ", ".join(_inline(v) for v in val) + "]"
    if isinstance(val, dict):
        return "{" + ", ".join(f"{k}: {_inline(v)}" for k, v in sorted(val.items())) + "}"
    if val is None:
        return "null"
    if isinstance(val, bool):
        return "true" if val else "false"
    return str(val)


def _emit(report: dict, args) -> None:
    report = _jsonable(report)
    if args.json:
        text = json.dumps(report, indent=2, sort_keys=True)
    else:
        text = "\n".join(_render_text(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_doc(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror}", "$") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}", "$") from None


def _load_model(args) -> Analysis:
    g, haar = load_groupoid(_load_doc(args.file))
    sigma = None
    if getattr(args, "cocycle", None):
        sigma = load_cocycle(_load_doc(args.cocycle), g)
    return Analysis(g, haar, sigma)


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs or ():
        key, sep, val = pair.partition("=")
        if not sep or not key:
            raise SchemaError(f"--params expects k=v, got {pair!r}", "$.params")
        params[key] = val
    return params


# ------------------------------------------------------------ report builders


def _analyze_report(an: Analysis) -> dict:
    g, flags = an.groupoid, an.classify
    iso = {x: isotropy(g, x) for x in sorted(g.units.points)}
    return {
        "name": g.name,
        "points": sorted(g.units.points),
        "arrow_count": len(g.arrows),
        "classify": {
            k: _jsonable(v)
            for k, v in flags.items()
            if k not in ("orbits", "trivial_isotropy_points")
        },
        "trivial_isotropy_points": sorted(flags["trivial_isotropy_points"]),
        "orbits": sorted(sorted(orbit) for orbit in flags["orbits"]),
        "isotropy": {
            x: {"order": h["order"], "arrows": sorted(h["arrows"])}
            for x, h in iso.items()
        },
    }


def _cstar_probe(algebra) -> dict:
    g = algebra.groupoid
    coeffs = [QC(1 + (i % 3)) for i in range(len(g.arrows))]
    f = vector_element(g, coeffs)
    haar, sigma = algebra.haar, algebra.sigma
    norm = reduced_norm(f, haar, sigma)
    norm_star = reduced_norm(convolve(star(f, sigma), f, haar, sigma), haar, sigma)
    gap = abs(norm_star - norm * norm)
    return {
        "probe": "coefficient 1+(i mod 3) on the i-th arrow in sorted order",
        "norm": norm,
        "norm_of_star_times_self": norm_star,
        "gap": gap,
        "ok": gap <= 1e-9 * (1.0 + norm * norm),
    }


def _algebra_report(an: Analysis) -> dict:
    algebra = an.algebra
    return {
        "name": an.groupoid.name,
        "arrow_count": len(an.groupoid.arrows),
        "admissible_dim": algebra.cc.dim,
        "span_dim": algebra.span_dim,
        "closed_dim": algebra.dim,
        "is_closed_span": algebra.is_closed_span,
        "blocks": list(block_decomposition(algebra)),
        "cstar_identity": _cstar_probe(algebra),
    }


def _cartan_json(an: Analysis) -> dict:
    cr = an.cartan
    try:
        uep = an.uep
        counts, diagonal = uep["counts"], uep["diagonal"]
    except NotMasa as exc:
        counts, diagonal = str(exc), False
    return {
        "cartan": {
            "contains_unit": cr.contains_unit,
            "masa": cr.masa,
            "commutant_dim": cr.commutant_dim,
            "masa_witness": None if cr.masa_witness is None else element_doc(cr.masa_witness),
            "regular": cr.regular,
            "expectation": dict(cr.expectation),
            "overall": cr.overall,
        },
        "uep": _jsonable(counts),
        "diagonal": diagonal,
    }


def _duality_report(params: dict) -> dict:
    ns = _catalog._as_int_list(params, "source_orders", [2])
    ms = _catalog._as_int_list(params, "target_orders", [4])
    mat = _catalog._as_matrix(params, "matrix", [[2]])
    (g1, h1), (g2, h2) = _catalog.crossed_product_pair(ns, ms, mat)

    def side(g, haar):
        an = Analysis(g, haar)
        rep = an.cartan
        return {
            "arrow_count": len(g.arrows),
            "dim": an.algebra.dim,
            "blocks": list(block_decomposition(an.algebra)),
            "cartan": {
                "contains_unit": rep.contains_unit,
                "masa": rep.masa,
                "regular": rep.regular,
                "expectation_ok": all(bool(v) for v in rep.expectation.values()),
                "overall": rep.overall,
            },
        }

    primal, dual = side(g1, h1), side(g2, h2)
    return {
        "phi": {"source_orders": ns, "target_orders": ms, "matrix": mat},
        "primal": primal,
        "dual": dual,
        "equal_dimensions": primal["dim"] == dual["dim"],
        "isomorphic_blocks": primal["blocks"] == dual["blocks"],
    }


def _catalog_entry_report(name: str, params: dict) -> tuple[dict, bool]:
    bundle = _catalog.build(name, params)
    results = _catalog.run_manifest(bundle)
    an = bundle["analysis"]
    report = {
        "entry": bundle["entry"],
        "params": _jsonable(bundle["params"]),
        "summary": _catalog.describe(name).summary,
        "manifest": results,
        "analyze": _analyze_report(an),
        "algebra": _algebra_report(an),
        "cartan": _cartan_json(an),
        "extras": {
            k: _jsonable(v)
            for k, v in bundle["extras"].items()
            if _is_jsonable(v)
        },
    }
    return report, all(r["ok"] for r in results)


def _is_jsonable(val) -> bool:
    if isinstance(val, (str, int, float, bool)) or val is None:
        return True
    if isinstance(val, (list, tuple, set, frozenset)):
        return all(_is_jsonable(v) for v in val)
    if isinstance(val, dict):
        return all(isinstance(k, str) and _is_jsonable(v) for k, v in val.items())
    return False


def _cross_entry_checks(reports: list[dict]) -> list[dict]:
    """Registry-wide consistency assertions for `catalog --all`, read off the
    entry reports already made."""
    blocks = {r["entry"]: r["algebra"]["blocks"] for r in reports}
    return [
        {
            "label": "reflection germ model and doubled-origin model share one block multiset",
            "ok": blocks["cross_a1"] == blocks["cross_a4"],
            "detail": "",
        }
    ]


# --------------------------------------------------------------- subcommands


def _cmd_analyze(args) -> int:
    _emit(_analyze_report(_load_model(args)), args)
    return 0


def _cmd_algebra(args) -> int:
    _emit(_algebra_report(_load_model(args)), args)
    return 0


def _cmd_cartan(args) -> int:
    _emit(_cartan_json(_load_model(args)), args)
    return 0


def _cmd_germify(args) -> int:
    space, gens = load_action(_load_doc(args.file))
    g = germ_groupoid(generate(space, gens), name=args.name)
    _emit(groupoid_doc(g, HaarSystem.counting(g)), args)
    return 0


def _cmd_duality(args) -> int:
    params = _parse_params(args.params)
    if args.file:
        doc = _load_doc(args.file)
        if not isinstance(doc, dict):
            raise SchemaError("expected an object", "$")
        params = {**doc, **params}
    _emit(_duality_report(params), args)
    return 0


def _cmd_catalog(args) -> int:
    if args.list or (not args.all and not args.entry):
        listing = {
            name: _catalog.describe(name).summary for name in _catalog.names()
        }
        _emit({"entries": listing}, args)
        return 0
    params = _parse_params(args.params)
    if args.all:
        reports = []
        all_ok = True
        for name in _catalog.names():
            report, ok = _catalog_entry_report(name, {})
            reports.append(report)
            all_ok = all_ok and ok
        cross = _cross_entry_checks(reports)
        all_ok = all_ok and all(c["ok"] for c in cross)
        _emit({"entries": reports, "cross_entry": cross, "all_ok": all_ok}, args)
        return 0 if all_ok else 1
    report, ok = _catalog_entry_report(args.entry, params)
    _emit(report, args)
    return 0 if ok else 1


# ---------------------------------------------------------------- entry point


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="gpd",
        description="Finite topological groupoids, their twisted convolution "
        "*-algebras, and unit-subalgebra (diagonal) structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_file=True, with_cocycle=False):
        if with_file:
            p.add_argument("file", help="input JSON document")
        if with_cocycle:
            p.add_argument(
                "--cocycle",
                metavar="FILE",
                help="optional 2-cocycle document twisting the convolution",
            )
        p.add_argument("--json", action="store_true", help="emit the machine-readable JSON report")
        p.add_argument("--out", metavar="PATH", help="write the report to PATH instead of stdout")

    p = sub.add_parser("analyze", help="classification flags, isotropy table, orbit space")
    add_common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("algebra", help="convolution-algebra dimensions, blocks, norm identity check")
    add_common(p, with_cocycle=True)
    p.set_defaults(func=_cmd_algebra)

    p = sub.add_parser("cartan", help="unit-subalgebra flags, expectation, extension counts")
    add_common(p, with_cocycle=True)
    p.set_defaults(func=_cmd_cartan)

    p = sub.add_parser("germify", help="build the germ groupoid of an action document")
    add_common(p)
    p.add_argument("--name", default="germ", help="name for the produced groupoid")
    p.set_defaults(func=_cmd_germify)

    p = sub.add_parser(
        "duality",
        help="compare the two translation models of a dualizable homomorphism",
        description="Builds the translation groupoid of a homomorphism between "
        "finite products of cyclic groups and of its dual map, and compares "
        "dimensions, block multisets, and unit-subalgebra verdicts. Restricted "
        "to finite abelian groups: infinite or non-abelian examples (e.g. "
        "irrational torus rotations) have no faithful finite model and are out "
        "of scope.",
    )
    p.add_argument("file", nargs="?", help="optional JSON document {source_orders, target_orders, matrix}")
    p.add_argument("--params", action="append", metavar="K=V",
                   help="override source_orders / target_orders / matrix "
                   "(matrix rows separated by ';', entries by ',')")
    p.add_argument("--json", action="store_true", help="emit the machine-readable JSON report")
    p.add_argument("--out", metavar="PATH", help="write the report to PATH instead of stdout")
    p.set_defaults(func=_cmd_duality)

    p = sub.add_parser(
        "catalog",
        help="build registry entries and run their manifests",
        description="Without arguments, lists the registry. With --entry, "
        "builds that entry, runs its manifest, and emits the analyze/algebra/"
        "cartan reports. --all is the CI-style run over every entry plus "
        "cross-entry consistency checks; exit code 0 only if every manifest "
        "assertion passes.",
    )
    p.add_argument("--entry", metavar="NAME", help="registry entry to build")
    p.add_argument("--params", action="append", metavar="K=V", help="entry parameters")
    p.add_argument("--all", action="store_true", help="run every entry's manifest")
    p.add_argument("--list", action="store_true", help="list registry entries")
    p.add_argument("--json", action="store_true", help="emit the machine-readable JSON report")
    p.add_argument("--out", metavar="PATH", help="write the report to PATH instead of stdout")
    p.set_defaults(func=_cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # flush here, so that a closed pipe is met inside this block
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone. Point stdout at devnull, so that the flush at
        # interpreter exit cannot fail again (the recipe of the Python docs
        # on SIGPIPE).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GpdError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
