"""Statistics of a run: calibration against a fixed kernel, and quantile estimates."""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# The kernel's time on a quiet reference machine; timed metrics are
# reported at that speed (see `Sampler`).
KERNEL_REF_S = 0.003
SAMPLE_EVERY_S = 0.1


def kernel():
    """Fixed exact-arithmetic work that is not gpd's: Gauss-Jordan
    elimination of a 10x10 rational matrix, about 3 ms."""
    n = 10
    m = [[Fraction((i * 7 + j * 3) % 11 + 1, (i + j) % 5 + 1) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        p = m[c][c]
        if not p:
            continue
        m[c] = [x / p for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]


def kernel_times(k):
    """The times of `k` runs of the kernel, back to back."""
    times = []
    for _ in range(k):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


def scale(kernel_s):
    """Factor from seconds measured while the kernel took `kernel_s` to
    seconds at reference speed."""
    return KERNEL_REF_S / statistics.mean(kernel_s)


class Sampler:
    """Times `kernel` every SAMPLE_EVERY_S of wall time from a SIGALRM
    handler, so that its samples spread evenly over the measured work,
    inside long operations too.

    On a shared 2-core machine every process was slowed by about 2x in
    phases from under a second to minutes, and no statistic of one run's
    own samples removes a phase that covers much of the run. A run
    therefore reports each time t as t * KERNEL_REF_S / (mean kernel time
    over the same stretch): the time the work takes when the kernel takes
    KERNEL_REF_S. Sampled evenly, the kernel's mean and the work's total
    time integrate the same phases, so the two cancel. `clock` is
    perf_counter less the time spent in the handler, so work timed with it
    leaves the samples out.
    """

    def __init__(self):
        self.samples = []
        self._stolen = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self._stolen += time.perf_counter() - start

    def clock(self):
        return time.perf_counter() - self._stolen

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by the Beta((n+1)p, (n+1)(1-p)) distribution.

    A workload's operations are of many kinds whose costs can differ by
    40 % between neighbours in rank, so a plain sample quantile jumps from
    one kind to the next whenever noise reorders them; this estimate
    averages over the neighbours instead."""
    import numpy as np  # here, so that the set-up probe's child does not load it

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    if min(a, b) < 2:
        return statistics.median(values)
    grid = np.linspace(0.0, 1.0, 20001)
    with np.errstate(divide="ignore"):
        log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1]))
    return float(weights @ x)


def tail(values):
    """The 90th percentile when at least ten samples lie beyond it (100 or
    more samples); with fewer a tail is no tail, and the mean is given."""
    if len(values) >= 100:
        return quantile(values, 0.9)
    return statistics.mean(values)
