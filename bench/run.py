"""Benchmark of gpd: three workloads, oracle-checked outputs, a traced per-layer run.

Run from the root of a gpd checkout:

    python3 bench/run.py --workload catalog|ladder|documents --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end ones of BENCHMARK.json, measured untraced; with
`--trace 1` they are the per-layer ones, from a run in which every public
gpd function is wrapped (tracing.py), plus the tracing overhead measured
against untraced rounds of the same run. Run outputs, generated documents
and span files go to bench/out/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from stats import Sampler, kernel_times, scale

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("catalog", "ladder", "documents")
SETUP_SAMPLES = 9
SETUP_KERNELS = 3
# Imports gpd first, so that nothing the benchmark loads is timed with it.
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import gpd.cli; "
    "d = time.perf_counter() - t; sys.path.append({bench!r}); "
    "from stats import kernel_times; print(d, *kernel_times({k}))"
)


class Run:
    """What one invocation measures, shared by the three workloads."""

    def __init__(self, seed, seconds, trace, src, out_dir):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.src = src
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.details = {}
        self.sampler = Sampler()
        self.kernel_s = []  # calibration samples taken while measuring

    def child_env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src
        return env

    def import_seconds(self):
        """Time to import gpd in a fresh interpreter, measured inside it,
        and the kernel times taken there right after the import."""
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE.format(bench=BENCH_DIR, k=SETUP_KERNELS)],
            env=self.child_env(),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        t, *kernel_s = map(float, out.stdout.split())
        return t, kernel_s

    def setup(self, build):
        """Median over SETUP_SAMPLES of (fresh import + build(inputs)), each
        sample at reference speed: scaled by the kernel times taken around
        it, before it and after the build in this process, and in the child
        after the import. The machine can switch speed within a fraction of
        a second, so the kernel times of the rounds, taken later, say little
        of the speed a sample ran at (see stats.Sampler).

        Returns the median and the inputs of the last sample."""
        raw, samples, inputs = [], [], None
        for _ in range(SETUP_SAMPLES):
            kernel_s = kernel_times(SETUP_KERNELS)
            t_import, child_kernel_s = self.import_seconds()
            start = time.perf_counter()
            inputs = build()
            t = t_import + time.perf_counter() - start
            kernel_s += child_kernel_s + kernel_times(SETUP_KERNELS)
            raw.append(t)
            samples.append(t * scale(kernel_s))
        self.details["setup_raw_s"] = raw
        self.details["setup_samples_s"] = samples
        return statistics.median(samples), inputs

    def rounds(self, min_rounds, one_round):
        """Run whole rounds, `one_round(i)`, until the next one would end
        after `seconds`, and at least `min_rounds` of them."""
        start = time.perf_counter()
        durations = []
        while True:
            t = time.perf_counter()
            one_round(len(durations))
            durations.append(time.perf_counter() - t)
            elapsed = time.perf_counter() - start
            if len(durations) >= min_rounds and elapsed + statistics.median(durations) > self.seconds:
                return durations

    @contextlib.contextmanager
    def calibrated(self):
        """Samples the calibration kernel while the block runs; time
        operations with `self.sampler.clock`, which leaves the samples out."""
        first = len(self.sampler.samples)
        with self.sampler:
            yield
        self.kernel_s += self.sampler.samples[first:]

    def problem(self, where, problems):
        self.problems += [f"{where}: {p}" for p in problems]


def metric_specs(trace):
    """The (name, unit) pairs BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gpd", "__init__.py")):
        print(f"error: no gpd sources under {src}; run from the root of a gpd checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, BENCH_DIR]
    import gpd

    if not os.path.abspath(gpd.__file__).startswith(src + os.sep):
        print(f"error: imported gpd from {gpd.__file__}, not from {src}", file=sys.stderr)
        return 2
    specs = metric_specs(args.trace)

    out_dir = os.path.join(BENCH_DIR, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    import workloads

    run = Run(args.seed, args.seconds, bool(args.trace), src, out_dir)
    values = getattr(workloads, args.workload)(run)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in specs}
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "problems": run.problems, "kernel_s": run.kernel_s,
                   "details": run.details}, fh, indent=1)
    for p in run.problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    for name, unit in specs:
        print(f"{name} = {values[name]:.6g} {unit}")
    print(f"attempted {run.attempted}, failed {run.failed}, correct {not run.problems}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
