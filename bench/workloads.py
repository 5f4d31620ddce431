"""The three workloads: catalog, ladder and documents.

Each takes a `run.Run`, measures for `run.seconds` in whole rounds, checks
every output with oracle.py, and returns its metric values: the end-to-end
ones when `run.trace` is false, the per-layer ones when it is true. A
traced run alternates untraced and traced rounds; the traced ones give the
per-layer numbers, and the two kinds together give the tracing overhead.
Every run, traced or not, samples the calibration kernel (stats.Sampler)
while it measures, and times operations and spans with its clock.
All work is closed-loop and single-threaded: one operation at a time.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

from gpd import algebra as A
from gpd import cartan as C
from gpd import catalog as K
from gpd import cli
from gpd import finitetop as F
from gpd import groupoid as G
from gpd import serialize as S
from gpd.errors import NotMasa
from gpd.qlin import QC

import docs
import oracle
import tracing
from stats import scale, tail

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DOC_MIN_CALLS = 140  # four rounds, so that 14 or more calls lie beyond the 90th percentile


# -------------------------------------------------------------- statistics


def at_reference(rounds):
    """Mean of (seconds, kernel samples) rounds, each scaled to reference
    speed by the kernel samples taken during it."""
    return statistics.mean(t * scale(k) for t, k in rounds)


def overhead_pct(rounds):
    """The mean traced round against the mean untraced round of one run,
    each round at reference speed, so that a change of the machine's speed
    between rounds does not read as overhead."""
    return 100.0 * (at_reference(rounds[True]) / at_reference(rounds[False]) - 1.0)


def ops_at_reference(samples, ops):
    """Operation latencies at reference speed. `ops` holds (seconds, first,
    last): the operation ran while the sampler took samples[first:last].
    Each is scaled by those samples and the one just before and just after
    it, so that a call shorter than the sampling period still has
    neighbours to go by. The machine can switch speed within a fraction of
    a second, so a latency quantile scaled by the whole run's samples still
    mixes calls made at either speed."""
    return [t * scale(samples[max(first - 1, 0):last + 1]) for t, first, last in ops]


def traced_scale(rounds):
    return scale([x for _, k in rounds[True] for x in k])


def self_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run, setup_s, rounds, ops, rss_mb):
    """The end-to-end metrics from the set-up median and the operation
    latencies, both at reference speed already (run.Run.setup,
    ops_at_reference), and the raw operation time of each round, scaled by
    the mean of all kernel samples of the run (see stats.Sampler)."""
    run.details["raw_round_s"] = rounds
    return {"setup_s": setup_s, "round_s": statistics.mean(rounds) * scale(run.kernel_s),
            "op_p90_s": tail(ops), "peak_rss_mb": rss_mb}


def layer_metrics(summary, rounds):
    """Per-layer metrics from a trace summary, per traced round of the
    workload (a catalog pass, a ladder round, a round of documents), given
    the run's (seconds, kernel samples) rounds of both kinds. Times are self
    times at reference speed; a layer the workload does not reach reads 0."""
    counts, self_s, main_s = summary["counts"], summary["self_s"], summary["main_s"]
    n, factor = len(rounds[True]), traced_scale(rounds)

    def calls(name):
        return counts.get(name, 0) / n

    def seconds(*names):
        return factor * sum(self_s.get(n, 0.0) for n in names) / n

    def p50(command):
        vals = main_s.get(command, [])
        return factor * statistics.median(vals) if vals else 0.0

    return {
        "qlin.echelon_add_calls": calls("qlin.Echelon.add"),
        "qlin.echelon_contains_calls": calls("qlin.Echelon.contains"),
        "qlin.echelon_s": seconds("qlin.Echelon.add", "qlin.Echelon.contains", "qlin.Echelon.residual"),
        "qlin.rref_s": seconds("qlin.rref", "qlin.nullspace", "qlin.solve"),
        "qlin.nullspace_calls": calls("qlin.nullspace"),
        "algebra.cc_space_s": seconds("algebra.cc_space"),
        "algebra.concrete_algebra_s": seconds("algebra.concrete_algebra"),
        "algebra.block_structure_s": seconds("algebra.block_structure"),
        "algebra.concrete_algebra_calls": calls("algebra.concrete_algebra"),
        "algebra.block_structure_calls": calls("algebra.block_structure"),
        "algebra.convolve_calls": calls("algebra.convolve"),
        "algebra.reduced_norm_s": seconds("algebra.reduced_norm"),
        "cartan.cartan_report_s": seconds("cartan.cartan_report"),
        "cartan.uep_report_s": seconds("cartan.uep_report"),
        "cartan.weyl_relation_s": seconds("cartan.weyl_relation"),
        "cartan.cartan_report_calls": calls("cartan.cartan_report"),
        "cartan.diagonal_report_s": seconds("cartan.diagonal_report"),
        "groupoid.make_groupoid_s": seconds("groupoid.make_groupoid"),
        "groupoid.classify_s": seconds("groupoid.classify"),
        "germs.germ_groupoid_s": seconds("germs.germ_groupoid", "germs.generate"),
        "finitetop.map_report_calls": calls("finitetop.map_report"),
        "serialize.load_groupoid_s": seconds("serialize.load_groupoid"),
        "serialize.load_cocycle_s": seconds("serialize.load_cocycle"),
        "serialize.groupoid_doc_s": seconds("serialize.groupoid_doc"),
        "catalog.build_calls": calls("catalog.build"),
        "catalog.run_manifest_s": seconds("catalog.run_manifest"),
        "cli.main_self_s": seconds("cli.main"),
        "cli.analyze_p50_s": p50("analyze"),
        "cli.algebra_p50_s": p50("algebra"),
        "cli.cartan_p50_s": p50("cartan"),
        "cli.germify_p50_s": p50("germify"),
        "trace.overhead_pct": overhead_pct(rounds),
    }


def min_rounds(run, untraced):
    """A traced run alternates untraced and traced rounds, at least one of
    each and never fewer rounds in all than an untraced run."""
    return max(2, untraced + untraced % 2) if run.trace else untraced


def _span(tracer, name, tag=None):
    return tracer.span(name, tag) if tracer else contextlib.nullcontext()


# ----------------------------------------------------------------- catalog

CATALOG_MIN_PASSES = 4
CATALOG_REFS = oracle.FORMULA_ENTRIES + tuple(oracle.PAPER_BLOCKS) + ("skandalis",)


def _catalog_refs():
    refs = {}
    for name in CATALOG_REFS:
        bundle = K.build(name)
        sigma = bundle.get("sigma")
        refs[name] = {
            "groupoid": S.groupoid_doc(bundle["groupoid"], bundle["haar"]),
            "cocycle": None if sigma is None else S.cocycle_doc(sigma),
        }
    return refs


def catalog(run):
    """Each operation is one `gpd catalog --all --json` pass in a fresh
    interpreter (catalog_pass.py), timed inside the child around cli.main."""
    setup_s, refs = run.setup(_catalog_refs)
    out = os.path.join(run.out_dir, "catalog.json")
    passes = {False: [], True: []}  # (seconds, kernel samples) of each pass
    summaries = []
    state = {"first": None, "rss_kb": 0}

    def one_pass(i):
        traced = run.trace and i % 2 == 1
        cmd = [sys.executable, os.path.join(BENCH_DIR, "catalog_pass.py"), "--src", run.src,
               "--out", out]
        prefix = os.path.join(run.out_dir, f"trace-pass{i}")
        if traced:
            cmd += ["--trace-prefix", prefix]
        run.attempted += 1
        try:
            proc = subprocess.run(cmd, env=run.child_env(), capture_output=True, text=True,
                                  timeout=170)
        except subprocess.TimeoutExpired:
            run.failed += 1
            run.problem(f"pass {i}", ["timed out"])
            return
        if proc.returncode != 0:
            run.failed += 1
            run.problem(f"pass {i}", [proc.stderr.strip()[-500:]])
            return
        line = json.loads(proc.stdout.splitlines()[-1])
        if not traced:
            run.kernel_s += line["kernel_s"]
        state["rss_kb"] = max(state["rss_kb"], line["maxrss_kb"])
        passes[traced].append((line["seconds"], line["kernel_s"]))
        if line["rc"] != 0:
            run.failed += 1
            run.problem(f"pass {i}", [f"exit code {line['rc']}"])
        with open(out, "rb") as fh:
            text = fh.read()
        if state["first"] is None:
            state["first"] = text
            run.problem("catalog --all", oracle.check_catalog(json.loads(text), refs))
        elif text != state["first"]:
            run.problem(f"pass {i}", ["--json output differs from the first pass"])
        if traced:
            with open(prefix + ".summary.json", encoding="utf-8") as fh:
                summaries.append(json.load(fh))

    run.rounds(min_rounds(run, CATALOG_MIN_PASSES), one_pass)
    times = [t for t, _ in passes[False]]
    run.details["pass_s"] = times
    if run.trace:
        run.details["traced_pass_s"] = [t for t, _ in passes[True]]
        return layer_metrics(tracing.merge(summaries), passes)
    ops = [t * scale(k) for t, k in passes[False]]
    return end_to_end(run, setup_s, times, ops, state["rss_kb"] / 1024.0)


# ------------------------------------------------------------------ ladder

LADDER_MIN_ROUNDS = 2
# pair has one orbit; rotation(n, m) has m orbits of n points; the twisted
# Z4 x Z4 has one unit and a single 4x4 block.
RUNGS = (
    ("pair(4)", "pair", {"k": 4}),
    ("pair(5)", "pair", {"k": 5}),
    ("pair(6)", "pair", {"k": 6}),
    ("rotation(4,2)", "rotation", {"n": 4, "m": 2}),
    ("rotation(2,6)", "rotation", {"n": 2, "m": 6}),
    ("rotation(3,4)", "rotation", {"n": 3, "m": 4}),
    ("z4xz4", None, None),
)
STAGES = ("build", "classify", "cc_space", "concrete_algebra", "block_structure",
          "cartan_report", "uep_report", "weyl_relation")


def z4xz4():
    """Z4 x Z4 over one unit, twisted by the bicharacter (a, b) -> i^(a2 b1)."""
    elems = [(a, b) for a in range(4) for b in range(4)]

    def name(e):
        return f"{e[0]}{e[1]}"

    def add(x, y):
        return ((x[0] + y[0]) % 4, (x[1] + y[1]) % 4)

    arrows = [name(e) for e in elems]
    g = G.make_groupoid(
        units=F.make_space(["*"], {"*": {"*"}}),
        arrows=arrows,
        r={a: "*" for a in arrows},
        s={a: "*" for a in arrows},
        inv={name(x): name(((-x[0]) % 4, (-x[1]) % 4)) for x in elems},
        comp={(name(x), name(y)): name(add(x, y)) for x in elems for y in elems},
        arrow_min_nbhd={a: {a} for a in arrows},
        unit_arrow={"*": "00"},
        name="z4xz4",
    )
    powers = (QC(1), QC(0, 1), QC(-1), QC(0, -1))
    sigma = A.make_cocycle(g, {(name(x), name(y)): powers[(x[1] * y[0]) % 4]
                               for x in elems for y in elems})
    return g, G.HaarSystem.counting(g), sigma


def build_rung(kind, params):
    if kind is None:
        return z4xz4()
    bundle = K.build(kind, params)
    return bundle["groupoid"], bundle["haar"], bundle.get("sigma")


def _ladder_inputs():
    inputs = {}
    for label, kind, params in RUNGS:
        g, haar, sigma = build_rung(kind, params)
        inputs[label] = {
            "groupoid": S.groupoid_doc(g, haar),
            "cocycle": None if sigma is None else S.cocycle_doc(sigma),
        }
    return inputs


def _or_not_masa(fn):
    try:
        return fn()
    except NotMasa:
        return "NotMasa"


def pipeline(kind, params, tracer=None, clock=time.perf_counter):
    """One model through every stage; returns stage times and plain results."""
    times = {}

    def stage(name, fn):
        start = clock()
        with _span(tracer, f"bench.{name}"):
            out = fn()
        times[name] = clock() - start
        return out

    g, haar, sigma = stage("build", lambda: build_rung(kind, params))
    flags = stage("classify", lambda: G.classify(g))
    cc = stage("cc_space", lambda: A.cc_space(g))
    alg = stage("concrete_algebra", lambda: A.concrete_algebra(g, sigma=sigma, haar=haar))
    structure = stage("block_structure", lambda: A.block_structure(alg))
    rep = stage("cartan_report", lambda: C.cartan_report(g, sigma, haar, cc))
    uep = stage("uep_report", lambda: _or_not_masa(lambda: C.uep_report(g, sigma, haar, alg, rep)))
    weyl = stage("weyl_relation", lambda: _or_not_masa(lambda: C.weyl_relation(alg)))
    if weyl != "NotMasa":
        rel = weyl[0]
        weyl = (list(rel.units.points), [(rel.r[a], rel.s[a]) for a in rel.arrows])
    return times, {
        "principal": flags["principal"],
        "blocks": tuple(sorted(structure["sizes"], reverse=True)),
        "dim": alg.dim,
        "overall": rep.overall,
        "masa": rep.masa,
        "uep": uep if uep == "NotMasa" else uep["counts"],
        "weyl": weyl,
    }


def ladder(run):
    """Each operation is one rung through the staged pipeline; a round runs
    every rung once, in an order drawn from the seed."""
    setup_s, inputs = run.setup(_ladder_inputs)
    rng = random.Random(run.seed)
    pipeline("pair", {"k": 2})  # loads numpy and warms the caches; not timed
    clock = run.sampler.clock
    tracer = tracing.Tracer(clock) if run.trace else None
    rung_s = {label: [] for label, _, _ in RUNGS}
    stage_s = {label: {s: [] for s in STAGES} for label, _, _ in RUNGS}
    rounds = {False: [], True: []}  # (seconds, kernel samples) of each round
    ops = []  # (seconds, first, last) of each untraced rung, see ops_at_reference

    def one_round(i):
        traced = run.trace and i % 2 == 1
        if traced:
            tracer.install()
        first = len(run.sampler.samples)
        total = 0.0
        try:
            for label, kind, params in rng.sample(RUNGS, len(RUNGS)):
                run.attempted += 1
                k0 = len(run.sampler.samples)
                try:
                    with _span(tracer if traced else None, "bench.rung", label):
                        times, res = pipeline(kind, params, tracer if traced else None, clock)
                except Exception as exc:  # noqa: BLE001 - count it, keep going
                    run.failed += 1
                    run.problem(label, [f"{type(exc).__name__}: {exc}"])
                    continue
                t = sum(times.values())
                total += t
                if not traced:
                    rung_s[label].append(t)
                    ops.append((t, k0, len(run.sampler.samples)))
                    for s, v in times.items():
                        stage_s[label][s].append(v)
                doc = inputs[label]
                run.problem(label, oracle.check_pipeline(res, doc["groupoid"], doc["cocycle"]))
        finally:
            if traced:
                tracer.uninstall()
        rounds[traced].append((total, run.sampler.samples[first:]))

    with run.calibrated():
        run.rounds(min_rounds(run, LADDER_MIN_ROUNDS), one_round)
    run.details["rung_s"] = rung_s
    run.details["stage_median_s"] = {
        label: {s: statistics.median(v) for s, v in stages.items() if v}
        for label, stages in stage_s.items()
    }
    if run.trace:
        tracer.dump(os.path.join(run.out_dir, "trace.spans.json"))
        return layer_metrics(tracer.summary(), rounds)
    return end_to_end(run, setup_s, [t for t, _ in rounds[False]],
                      ops_at_reference(run.sampler.samples, ops), self_rss_mb())


# --------------------------------------------------------------- documents


def _call(key, argv, check):
    return {"key": key, "argv": argv, "check": check}


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def document_units(cases, out_dir):
    """The calls of one round, grouped so that a germify call stays just
    before the cartan call on the file it writes."""
    units = []
    for case in cases:
        name = case["name"]
        if "groupoid" in case:
            doc, cocycle = case["groupoid"], case.get("cocycle")
            twist = ["--cocycle", case["cocycle_path"]] if cocycle else []
            path = case["groupoid_path"]
            units += [
                [_call(f"{name}/analyze", ["analyze", path, "--json"],
                       lambda rep, doc=doc: oracle.check_analyze(rep, doc))],
                [_call(f"{name}/algebra", ["algebra", path, "--json", *twist],
                       lambda rep, doc=doc, c=cocycle: oracle.check_algebra(rep, doc, c))],
                [_call(f"{name}/cartan", ["cartan", path, "--json", *twist],
                       lambda rep, doc=doc, c=cocycle: oracle.check_cartan(rep, doc, c is not None))],
            ]
            continue
        germ = os.path.join(out_dir, f"{name}.germ.json")

        def germify_check(_, case=case, germ=germ):
            if case["kind"] == "permutation":
                return oracle.check_germify(_read(germ), case["action"])
            return []

        def cartan_check(rep, case=case, germ=germ):
            doc = _read(germ)
            found = oracle.check_cartan(rep, doc)
            if case["kind"] == "reflection":
                found += oracle.check_reflection(rep, case["fixed_point"])
            if case["kind"] == "two_involutions":
                found += oracle.check_two_involutions(rep, doc)
            return found

        units.append([
            _call(f"{name}/germify", ["germify", case["action_path"], "--json", "--out", germ],
                  germify_check),
            _call(f"{name}/cartan", ["cartan", germ, "--json"], cartan_check),
        ])
    return units


def cli_call(argv, tracer=None, clock=time.perf_counter):
    buf = io.StringIO()
    start = clock()
    with _span(tracer, "bench.call", argv[0]), contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, clock() - start, buf.getvalue()


def documents(run):
    """Each operation is one in-process CLI call on a seeded document; a
    round makes every call once, in an order drawn from the seed."""
    out_dir = os.path.join(run.out_dir, "docs")
    setup_s, cases = run.setup(lambda: docs.build_documents(run.seed, out_dir))
    run.problem("documents", docs.check_cases(cases))
    units = document_units(cases, out_dir)
    per_round = sum(len(u) for u in units)
    rng = random.Random(run.seed)
    klein = next(c for c in cases if c["kind"] == "klein")
    cli_call(["algebra", klein["groupoid_path"], "--json", "--cocycle", klein["cocycle_path"]])
    clock = run.sampler.clock
    tracer = tracing.Tracer(clock) if run.trace else None
    latencies = []  # (seconds, first, last) of each untraced call, see ops_at_reference
    by_key = {}
    rounds = {False: [], True: []}  # (seconds, kernel samples) of each round

    def one_round(i):
        traced = run.trace and i % 2 == 1
        if traced:
            tracer.install()
        first = len(run.sampler.samples)
        total = 0.0
        try:
            for unit in rng.sample(units, len(units)):
                for call in unit:
                    run.attempted += 1
                    k0 = len(run.sampler.samples)
                    try:
                        rc, dt, text = cli_call(call["argv"], tracer if traced else None, clock)
                    except Exception as exc:  # noqa: BLE001 - count it, keep going
                        rc, text = f"{type(exc).__name__}: {exc}", ""
                    if rc != 0:
                        run.failed += 1
                        run.problem(call["key"], [f"exit {rc}"])
                        break
                    total += dt
                    if not traced:
                        latencies.append((dt, k0, len(run.sampler.samples)))
                        by_key.setdefault(call["key"], []).append(dt)
                    rep = json.loads(text) if text else None
                    run.problem(call["key"], call["check"](rep))
        finally:
            if traced:
                tracer.uninstall()
        rounds[traced].append((total, run.sampler.samples[first:]))

    with run.calibrated():
        run.rounds(min_rounds(run, math.ceil(DOC_MIN_CALLS / per_round)), one_round)
    run.details["calls_per_round"] = per_round
    run.details["call_median_s"] = {k: statistics.median(v) for k, v in sorted(by_key.items())}
    run.details["latencies_s"] = [t for t, _, _ in latencies]
    if run.trace:
        tracer.dump(os.path.join(run.out_dir, "trace.spans.json"))
        return layer_metrics(tracer.summary(), rounds)
    return end_to_end(run, setup_s, [t for t, _ in rounds[False]],
                      ops_at_reference(run.sampler.samples, latencies), self_rss_mb())
