import pytest

from gpd import catalog
from gpd.algebra import block_decomposition
from gpd.errors import BadParams, UnknownEntry
from gpd.groupoid import classify

EXPECTED_ENTRIES = [
    "cocycle_klein",
    "cross_a1",
    "cross_a2",
    "cross_a3",
    "cross_a4",
    "dixmier",
    "doubled_origin",
    "fourier",
    "pair",
    "rotation",
    "skandalis",
]


def manifest_ok(bundle):
    results = catalog.run_manifest(bundle)
    failed = [r for r in results if not r["ok"]]
    assert not failed, failed
    return results


def test_registry_names_and_descriptions():
    assert catalog.names() == EXPECTED_ENTRIES
    for name in EXPECTED_ENTRIES:
        entry = catalog.describe(name)
        assert entry.name == name
        assert entry.summary
    with pytest.raises(UnknownEntry):
        catalog.describe("nope")
    with pytest.raises(UnknownEntry):
        catalog.build("nope")


def test_bundle_shape():
    bundle = catalog.build("pair", {"k": 2})
    assert set(bundle) >= {"entry", "params", "groupoid", "haar", "sigma", "extras", "manifest"}
    assert bundle["entry"] == "pair"
    assert bundle["params"] == {"k": 2}


@pytest.mark.parametrize("name", EXPECTED_ENTRIES)
def test_every_manifest_passes(name):
    manifest_ok(catalog.build(name))


def test_run_manifest_reports_exceptions_as_failures():
    bundle = catalog.build("pair")
    bundle["manifest"] = list(bundle["manifest"]) + [
        ("explodes", lambda b: 1 / 0),
    ]
    results = catalog.run_manifest(bundle)
    last = results[-1]
    assert last["ok"] is False
    assert "ZeroDivisionError" in last["detail"]


def test_algebra_cache_is_reused():
    bundle = catalog.build("pair")
    first = bundle["analysis"].algebra
    assert bundle["analysis"].algebra is first


def test_reflection_and_doubled_origin_share_blocks():
    a1 = catalog.build("cross_a1")
    a4 = catalog.build("cross_a4")
    assert (
        block_decomposition(a1["analysis"].algebra)
        == block_decomposition(a4["analysis"].algebra)
        == (2, 2, 1, 1)
    )


def test_doubled_origin_alias_matches_cross_a4():
    alias = catalog.build("doubled_origin")
    base = catalog.build("cross_a4")
    assert sorted(alias["groupoid"].arrows) == sorted(base["groupoid"].arrows)
    rep = alias["extras"]["separation"]
    assert rep["genuine_pairs"] == [("{0@0}", "{0@1}")]


def test_gluing_default_quotient_separation():
    bundle = catalog.build("dixmier")
    rep = bundle["extras"]["separation"]
    assert rep["hausdorff_classes"] == ["{1@0,1@1}", "{a@0,a@1}", "{b@0,b@1}"]
    assert ("{-1@0}", "{-1@1}") in rep["genuine_pairs"]
    assert ("{0@0}", "{0@1}") in rep["genuine_pairs"]
    assert bundle["extras"]["all_glue_points_closed"] is True
    assert classify(bundle["groupoid"])["etale"] is True


def test_gluing_with_isolated_point_changes_the_answer():
    bundle = catalog.build("dixmier", {"z": ["-1", "a"]})
    manifest_ok(bundle)
    assert bundle["extras"]["isolated_glue_points"] == ["a"]
    assert bundle["extras"]["all_glue_points_closed"] is False
    assert classify(bundle["groupoid"])["etale"] is False
    actual = set(bundle["extras"]["separation"]["hausdorff_classes"])
    naive = set(bundle["extras"]["expected_hausdorff_classes"])
    assert actual > naive  # strictly more separated classes than the naive picture


def test_gluing_three_copies():
    bundle = catalog.build("dixmier", {"z": "-1,0,1"})
    manifest_ok(bundle)
    assert len(bundle["groupoid"].units.points) == 15
    rep = bundle["extras"]["separation"]
    assert rep["hausdorff_classes"] == ["{a@0,a@1,a@2}", "{b@0,b@1,b@2}"]


def test_gluing_bad_params():
    with pytest.raises(BadParams):
        catalog.build("dixmier", {"z": ["-1"]})
    with pytest.raises(BadParams):
        catalog.build("dixmier", {"z": ["q", "0"]})


def test_rotation_parameter_sweep():
    for n in (2, 3):
        for m in (2, 3):
            bundle = catalog.build("rotation", {"n": n, "m": m})
            manifest_ok(bundle)
            expected = tuple([n] * m)
            assert block_decomposition(bundle["analysis"].algebra) == expected
            companion = bundle["extras"]["companion"].groupoid
            assert len(companion.arrows) == m * n * n
            assert len(bundle["groupoid"].arrows) == n * (n * m)


def test_rotation_bad_params():
    with pytest.raises(BadParams):
        catalog.build("rotation", {"n": 9})
    with pytest.raises(BadParams):
        catalog.build("rotation", {"n": "x"})
    with pytest.raises(BadParams):
        catalog.build("rotation", {"bogus": 1})


def test_fourier_default_and_identity():
    bundle = catalog.build("fourier")
    manifest_ok(bundle)
    dual_g = bundle["extras"]["dual"].groupoid
    assert len(bundle["groupoid"].arrows) == 8 == len(dual_g.arrows)
    bundle = catalog.build(
        "fourier",
        {"source_orders": "3", "target_orders": "3", "matrix": "1"},
    )
    manifest_ok(bundle)
    assert block_decomposition(bundle["analysis"].algebra) == (3,)


def test_fourier_rejects_non_homomorphism():
    with pytest.raises(BadParams) as exc:
        catalog.build("fourier", {"matrix": [[1]]})
    assert "divisible" in str(exc.value)
    with pytest.raises(BadParams):
        catalog.build("fourier", {"matrix": [[1], [1]]})  # wrong shape


def test_crossed_product_pair_matrix_form():
    (g1, _), (g2, _) = catalog.crossed_product_pair([2, 2], [2, 2], [[1, 0], [0, 1]])
    assert len(g1.arrows) == 16 == len(g2.arrows)


def test_klein_twist_is_validated():
    bundle = catalog.build("cocycle_klein")
    assert bundle["sigma"].validated
    manifest_ok(bundle)


def test_pair_range_check():
    bundle = catalog.build("pair", {"k": 5})
    manifest_ok(bundle)
    assert block_decomposition(bundle["analysis"].algebra) == (5,)
    with pytest.raises(BadParams):
        catalog.build("pair", {"k": 1})
    with pytest.raises(BadParams):
        catalog.build("pair", {"k": 7})
