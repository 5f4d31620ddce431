"""One `gpd catalog --all --json` pass in a fresh interpreter.

Run by run.py as a child process. Times `cli.main` from inside, writes the
report to --out, optionally traces the pass, and prints one JSON line with
the exit code, the time, the calibration samples (taken in this process
during the pass, so that they see the machine as the pass does; see
stats.Sampler) and this process's peak resident set.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-prefix", help="write spans and a summary to PREFIX.spans.json / .summary.json")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from gpd import cli
    from stats import Sampler

    sampler = Sampler()
    clock = sampler.clock
    tracer = None
    if args.trace_prefix:
        import tracing

        tracer = tracing.Tracer(clock)
        tracer.install()
    buf = io.StringIO()
    with sampler:
        start = clock()
        with tracer.span("bench.pass") if tracer else contextlib.nullcontext(), \
                contextlib.redirect_stdout(buf):
            rc = cli.main(["catalog", "--all", "--json"])
        seconds = clock() - start
    if tracer:
        tracer.uninstall()
        tracer.dump(args.trace_prefix + ".spans.json")
        with open(args.trace_prefix + ".summary.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"rc": rc, "seconds": seconds, "kernel_s": sampler.samples,
                      "maxrss_kb": maxrss_kb}))


if __name__ == "__main__":
    main()
