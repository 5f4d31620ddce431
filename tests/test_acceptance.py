"""Acceptance suite: twelve independent criteria, one test (and one printed
pass line) per criterion. Each test recomputes its claim from the public API
against frozen expected values; builds are shared module-wide for speed."""

import itertools
import random
from fractions import Fraction

import pytest

from gpd import catalog
from gpd.algebra import (
    block_decomposition,
    cc_space,
    convolve,
    delta,
    make_cocycle,
    make_element,
    reduced_norm,
    star,
    vector_element,
)
from gpd.cartan import (
    cartan_report,
    orbit_class_sizes,
    skandalis_element,
    unit_subalgebra,
    uep_report,
    weyl_relation,
)
from gpd.errors import NotMasa
from gpd.groupoid import classify, isotropy, pair_groupoid
from gpd.qlin import QC

UNIQUE_ENTRIES = [n for n in catalog.names() if n != "doubled_origin"]


@pytest.fixture(scope="module")
def zoo():
    return {name: catalog.build(name) for name in catalog.names()}


def model(zoo, name):
    b = zoo[name]
    return b["groupoid"], b["haar"], b.get("sigma")


def passed(num, text):
    print(f"criterion {num:2d} PASS: {text}")


def test_criterion_01_algebra_laws(zoo):
    for name in UNIQUE_ENTRIES:
        g, haar, sigma = model(zoo, name)
        ds = {a: delta(g, a) for a in g.arrows}
        for a, b in itertools.product(g.arrows, repeat=2):
            assert star(convolve(ds[a], ds[b], haar, sigma), sigma) == convolve(
                star(ds[b], sigma), star(ds[a], sigma), haar, sigma
            ), name
        for a, b, c in itertools.product(g.arrows, repeat=3):
            left = convolve(convolve(ds[a], ds[b], haar, sigma), ds[c], haar, sigma)
            right = convolve(ds[a], convolve(ds[b], ds[c], haar, sigma), haar, sigma)
            assert left == right, name
    # negative control: a corrupted twist must break associativity
    g, haar, sigma = model(zoo, "cocycle_klein")
    table = dict(sigma.sigma)
    table[("10", "10")] = table[("10", "10")].conj() * QC(-1)
    fake = make_cocycle(g, table, check=False)
    fa, fb = delta(g, "10"), delta(g, "01")
    left = convolve(convolve(fa, fa, haar, fake), fb, haar, fake)
    right = convolve(fa, convolve(fa, fb, haar, fake), haar, fake)
    assert left != right
    passed(1, "exact associativity and involution laws on every entry; "
              "corrupted twist fails as required")


def test_criterion_02_cstar_identity(zoo):
    rng = random.Random(20260814)
    worst = 0.0
    for name in UNIQUE_ENTRIES:
        g, haar, sigma = model(zoo, name)
        n = len(g.arrows)
        for _ in range(100):
            coeffs = [QC(Fraction(rng.randint(-3, 3), rng.randint(1, 2))) for _ in range(n)]
            f = vector_element(g, coeffs)
            nf = reduced_norm(f, haar, sigma)
            nsf = reduced_norm(convolve(star(f, sigma), f, haar, sigma), haar, sigma)
            gap = abs(nsf - nf * nf)
            worst = max(worst, gap)
            assert gap <= 1e-9, (name, gap)
    passed(2, f"norm identity within 1e-9 on 100 random elements per entry "
              f"(worst gap {worst:.2e})")


def test_criterion_03_interval_reflection(zoo):
    g, haar, sigma = model(zoo, "cross_a1")
    flags = classify(g)
    assert flags["topologically_principal"] and not flags["principal"]
    assert isotropy(g, "0")["order"] == 2
    rep = cartan_report(g, sigma, haar)
    assert rep.overall is True
    uep = uep_report(g, sigma, haar)
    assert uep["counts"]["0"] == 2
    passed(3, "reflection model: overall true, topologically principal only, "
              "two extensions at the fixed point, isotropy of order 2")


def test_criterion_04_reflection_matches_doubled_origin(zoo):
    blocks_a1 = block_decomposition(zoo["cross_a1"]["analysis"].algebra)
    blocks_a4 = block_decomposition(zoo["doubled_origin"]["analysis"].algebra)
    assert blocks_a1 == blocks_a4 == (2, 2, 1, 1)
    passed(4, "reflection and doubled-origin models share blocks {2,2,1,1}")


def test_criterion_05_glued_interval(zoo):
    g, haar, sigma = model(zoo, "cross_a2")
    ones = make_element(g, {g.unit_arrow[x]: 1 for x in g.units.points})
    assert not cc_space(g).contains(ones)
    rep = cartan_report(g, sigma, haar)
    assert rep.contains_unit is False
    assert rep.expectation["well_defined"] is False
    assert rep.masa is True
    sub = unit_subalgebra(g)
    assert sub.basis and all(not b.value("0~0") for b in sub.basis)
    passed(5, "glued interval: no admissible unit indicator, no identity, "
              "failed expectation, masa holds, unit functions vanish at the center")


def test_criterion_06_open_diagonal(zoo):
    g, haar, sigma = model(zoo, "cross_a3")
    flags = classify(g)
    assert flags["etale"] is True
    assert flags["principal"] is True
    assert uep_report(g, sigma, haar)["diagonal"] is True
    passed(6, "opened diagonal: etale, principal, diagonal verdict true")


def test_criterion_07_rotation_sweep():
    for n in (2, 3):
        for m in (2, 3):
            bundle = catalog.build("rotation", {"n": n, "m": m})
            expected = tuple([n] * m)
            crossed = bundle["analysis"].algebra
            assert block_decomposition(crossed) == expected, (n, m)
            assert bundle["analysis"].cartan.overall, (n, m)
            g2, h2 = bundle["extras"]["companion"].groupoid, bundle["extras"]["companion"].haar
            from gpd.algebra import concrete_algebra

            companion = concrete_algebra(g2, haar=h2)
            assert block_decomposition(companion) == expected, (n, m)
            assert cartan_report(g2, None, h2, companion.cc).overall, (n, m)
            # conjugacy of the two subalgebras is not claimed, only the data above
    passed(7, "rotation n,m in {2,3}: both constructions give n-blocks m times "
              "and verified unit pairs")


def test_criterion_08_duality_pairs():
    for ns, ms, mat in ([[2], [4], [[2]]], [[3], [3], [[1]]]):
        (g1, h1), (g2, h2) = catalog.crossed_product_pair(ns, ms, mat)
        from gpd.algebra import concrete_algebra

        alg1 = concrete_algebra(g1, haar=h1)
        alg2 = concrete_algebra(g2, haar=h2)
        assert alg1.dim == alg2.dim, (ns, ms)
        assert block_decomposition(alg1) == block_decomposition(alg2), (ns, ms)
    passed(8, "dual translation models agree in dimension and blocks for both maps")


def test_criterion_09_two_involutions(zoo):
    g, haar, sigma = model(zoo, "skandalis")
    assert classify(g)["hausdorff_arrows"] is False
    f0 = skandalis_element(g)
    cc = cc_space(g)
    sub = unit_subalgebra(g)
    for b in sub.basis:
        assert convolve(f0, b, haar) == convolve(b, f0, haar)
    assert not sub.contains(f0)
    support = sorted(f0.support)
    assert len(support) == 8
    assert all(g.r[a] == g.s[a] for a in support)
    assert all(f0.value(a).as_quad() in ([1, 1, 0, 1], [-1, 1, 0, 1]) for a in support)
    rep = cartan_report(g, sigma, haar, cc)
    assert rep.masa is False
    for witness in (rep.masa_witness, f0):
        assert witness is not None and cc.contains(witness) and not sub.contains(witness)
        assert all(
            convolve(witness, b, haar) == convolve(b, witness, haar) for b in sub.basis
        )
    units = g.unit_arrow_set
    restricted = make_element(g, {a: v for a, v in f0.coeffs.items() if a in units})
    assert restricted.coeffs and not cc.contains(restricted)
    assert rep.expectation["well_defined"] is False
    passed(9, "two-involution model: non-separated arrows, the alternating sum "
              "commutes with the unit functions but escapes them, masa fails "
              "with a verified witness, and its unit restriction is inadmissible")


def test_criterion_10_gluing_separation():
    for z in (["-1", "0"], ["-1", "0", "1"]):
        bundle = catalog.build("dixmier", {"z": z})
        assert not bundle["extras"]["isolated_glue_points"]
        rep = bundle["extras"]["separation"]
        assert sorted(rep["hausdorff_classes"]) == bundle["extras"]["expected_hausdorff_classes"], z
    control = catalog.build("dixmier", {"z": ["-1", "a"]})
    assert control["extras"]["isolated_glue_points"] == ["a"]
    rep = control["extras"]["separation"]
    actual = set(rep["hausdorff_classes"])
    naive = set(control["extras"]["expected_hausdorff_classes"])
    assert actual != naive and actual > naive
    passed(10, "gluing model: separated classes equal the unglued image for "
               "closed glue points; an isolated glue point changes the answer")


def test_criterion_11_principality_matches_unique_extensions(zoo):
    checked = []
    for name in UNIQUE_ENTRIES:
        g, haar, sigma = model(zoo, name)
        flags = classify(g)
        if not (flags["etale"] and flags["hausdorff_arrows"]):
            continue
        try:
            counts = uep_report(g, sigma, haar)["counts"]
            all_one = all(v == 1 for v in counts.values())
        except NotMasa:
            all_one = False
        assert flags["principal"] == all_one, name
        checked.append(name)
    assert len(checked) >= 6
    passed(11, f"principal iff every extension count is 1, across "
               f"{len(checked)} etale entries with separated arrows")


def test_criterion_12_weyl_round_trip():
    from gpd.algebra import concrete_algebra

    for k in (2, 3, 4, 5):
        g, haar = pair_groupoid([str(i) for i in range(k)], name=f"pair{k}")
        rel, _ = weyl_relation(concrete_algebra(g, haar=haar))
        assert orbit_class_sizes(rel) == orbit_class_sizes(g) == (k,)
        assert classify(rel)["principal"]
    for n in (2, 3):
        for m in (2, 3):
            bundle = catalog.build("rotation", {"n": n, "m": m})
            rel, _ = weyl_relation(bundle["analysis"].algebra)
            assert orbit_class_sizes(rel) == orbit_class_sizes(bundle["groupoid"])
            assert len(rel.arrows) == m * n * n
    passed(12, "reconstruction returns the source orbit relation for pair "
               "groupoids on 2..5 points and all small rotations")
