"""Tests of the quantile estimate against SciPy's Harrell-Davis reference.

    python3 -m pytest bench/test_stats.py -q
"""

import os
import random
import statistics
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

mstats = pytest.importorskip("scipy.stats.mstats")


@pytest.mark.parametrize("n", [4, 14, 37, 111, 148])
@pytest.mark.parametrize("p", [0.5, 0.9])
def test_quantile_matches_scipy(n, p):
    rng = random.Random(n)
    values = [rng.lognormvariate(-2, 1.2) for _ in range(n)]
    if min(p, 1 - p) * (n + 1) < 2:
        assert stats.quantile(values, p) == statistics.median(values)
    else:
        want = float(mstats.hdquantiles(values, [p])[0])
        assert stats.quantile(values, p) == pytest.approx(want, rel=1e-6)


def test_tail_needs_ten_samples_beyond_it():
    values = [1.0] * 60 + [10.0] * 39
    assert stats.tail(values) == pytest.approx(statistics.mean(values))
    values.append(10.0)
    assert stats.tail(values) == pytest.approx(stats.quantile(values, 0.9))
