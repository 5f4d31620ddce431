"""The benchmark's oracle (bench/oracle.py, which never imports gpd) on the
results of gpd's own pipeline: every ladder rung of bench/workloads.py and
rotation(6,6), the largest rotation the catalog allows, each through every
stage, checked as a benchmark round checks it."""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from gpd import serialize  # noqa: E402

MODELS = workloads.RUNGS + (("rotation(6,6)", "rotation", {"n": 6, "m": 6}),)


@pytest.mark.parametrize("kind, params", [m[1:] for m in MODELS], ids=[m[0] for m in MODELS])
def test_pipeline_passes_the_oracle(kind, params):
    g, haar, sigma = workloads.build_rung(kind, params)
    doc = serialize.groupoid_doc(g, haar)
    cocycle = None if sigma is None else serialize.cocycle_doc(sigma)
    _, res = workloads.pipeline(kind, params)
    assert oracle.check_pipeline(res, doc, cocycle) == []
