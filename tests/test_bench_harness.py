"""The benchmark harness (bench/) against gpd's current public surface.

The traced benchmark wraps every name in every gpd module's `__all__` and
calls public functions by name, so a stale `__all__` entry, a renamed
function or a changed signature breaks it. These tests run the traced
ladder pipeline and one traced catalog pass, and check that the per-layer
metrics are the ones BENCHMARK.json declares."""

import json
import math
import pathlib
import statistics
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_traced_ladder_gives_the_declared_layer_metrics():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for _, kind, params in workloads.RUNGS:
            workloads.pipeline(kind, params, tracer)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["counts"]["cartan.uep_report"] == len(workloads.RUNGS)
    ref = [stats.KERNEL_REF_S]
    metrics = workloads.layer_metrics(summary, {False: [(1.0, ref)], True: [(1.5, ref)]})
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)


def test_traced_catalog_pass_exits_cleanly(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "catalog_pass.py"), "--src", str(ROOT / "src"),
         "--out", str(tmp_path / "report.json"), "--trace-prefix", str(tmp_path / "pass")],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["rc"] == 0


@pytest.mark.xfail(strict=True, raises=statistics.StatisticsError,
                   reason="a round shorter than the sampling period gets no calibration sample")
def test_overhead_survives_an_untraced_round_without_samples():
    # The sampler fires every stats.SAMPLE_EVERY_S, so an untraced round
    # shorter than that can end with no kernel sample of its own, and
    # scaling that round by the mean of its samples raises.
    rounds = {False: [(0.09, [])], True: [(0.12, [stats.KERNEL_REF_S])]}
    assert math.isfinite(workloads.overhead_pct(rounds))
