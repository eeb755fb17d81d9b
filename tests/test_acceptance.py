"""Acceptance suite: one test per headline claim of the census.

Each test prints a single summary line; run with -v for the pass/fail
roster.  The expensive 800-conic census is computed once by the session
fixture in conftest and shared here.
"""

import os
import time

import pytest
import reference_tables

from conic_census import catalog, cli, pipeline
from conic_census.field import KElem, ONE, ZERO, kelem
from conic_census.group import generate_group, projective_classes
from conic_census.groebner import Budget
from conic_census.poly import poly_from_uni
from conic_census.geometry import intersection_number

from test_properties import ALL_SUITES


def test_symmetry_group_closure():
    start = time.monotonic()
    G = generate_group(catalog.symmetry_generators())
    classes = projective_classes(G)
    elapsed = time.monotonic() - start
    assert len(G) == 7680
    assert len(classes) == 1920
    assert elapsed < 120
    print(f"PASS group closure: {len(G)} elements, {len(classes)} projective classes, {elapsed:.1f}s")


def test_orbit_census(census):
    rep = census.report
    cert = census.certificate
    assert rep.ok, rep.render()
    counts = cert.label_counts()
    assert counts == {"C1": 160, "C2": 160, "C3": 480}
    assert len(cert.entries) == 800
    assert len(cert.keys()) == 800
    stab = {m.split()[0]: int(m.split()[1]) for k, m in cert.meta if k == "stabilizer"}
    assert stab == {"C1": 12, "C2": 12, "C3": 4}
    assert census.seconds < 900
    print(
        "PASS orbit census: orbits 160/160/480, 800 distinct conics, "
        f"stabilizers 12/12/4, {census.seconds:.1f}s"
    )


def test_plane_pairing(census):
    rep = pipeline.plane_census(census.certificate)
    assert rep.ok, rep.render()
    by_name = {name: (ok, detail) for name, ok, detail in rep.checks}
    assert by_name["plane count"][1] == "400"
    print("PASS plane pairing: 400 planes, 2 conics each, mutual residuals")


def test_singular_locus_and_components():
    start = time.monotonic()
    locus = pipeline.singular_parameter_locus()
    ring = locus.ring
    expected = ring.one
    for coeffs in ([-1, -2, 1], [-1, 2, 1], [1, 0, 3, 0, 1], [5, 0, 6, 0, 5]):
        expected = expected * poly_from_uni(ring, 0, [kelem(c) for c in coeffs])
    assert locus == expected.monic()
    rep = pipeline.verify_components()
    elapsed = time.monotonic() - start
    assert rep.ok, rep.render()
    contain = [ok for name, ok, _ in rep.checks if "contains" in name]
    assert len(contain) == 7 and all(contain)
    assert elapsed < 1800
    print(f"PASS singular locus: degree-12 parameter polynomial, 7 components verified, {elapsed:.1f}s")


def test_fiber_classification(census):
    f = catalog.surface()
    keys = census.certificate.keys()
    c3 = catalog.seed_conics()[2]
    seen_c3 = False
    for alpha in catalog.split_parameters():
        fac = pipeline.factor_fiber(alpha)
        assert fac.kind == "split"
        assert len(fac.conics) == 2
        for c in fac.conics:
            assert c.is_irreducible()
            assert c.on_surface(f)
            assert c in keys
        assert fac.conics[0].residual(f) == fac.conics[1]
        if c3 in fac.conics:
            seen_c3 = True
    assert seen_c3
    for alpha in catalog.nodal_parameters():
        rep = pipeline.analyze_nodal_fiber(alpha)
        assert rep.ok, rep.render()
    assert pipeline.factor_fiber(ZERO).kind == "smooth"
    survey = pipeline.fiber_survey()
    assert survey.ok, survey.render()
    print("PASS fibers: 8 split (16 conics in census, C3 found), 4 nodal with node (0:0:1)")


def test_case_ii_enumeration(census):
    start = time.monotonic()
    rep, conics = pipeline.enumerate_case("ii", census=census.certificate.keys())
    elapsed = time.monotonic() - start
    assert rep.ok, rep.render()
    by_name = {name: (ok, detail) for name, ok, detail in rep.checks}
    assert by_name["parameter polynomial in b"] == (True, "degree 15")
    assert by_name["solution scheme degree"][1] == "64"
    assert by_name["plane scheme degree"][1] == "32"
    assert len({c.key for c in conics}) == 64
    assert len({c.key[10:14] for c in conics}) == 32
    assert elapsed < 3600
    print(f"PASS case (ii): 64 conics on 32 planes, degree-15 parameter polynomial, {elapsed:.1f}s")


def test_case_iii_enumeration(census):
    start = time.monotonic()
    rep, conics = pipeline.enumerate_case("iii", census=census.certificate.keys())
    elapsed = time.monotonic() - start
    assert rep.ok, rep.render()
    by_name = {name: (ok, detail) for name, ok, detail in rep.checks}
    assert by_name["solution scheme degree"][1] == "16"
    assert by_name["plane scheme degree"][1] == "8"
    assert len({c.key for c in conics}) == 16
    # the eight plane parameters are exactly the split-fiber parameters
    params = set()
    for c in conics:
        fields = c.fields()
        assert fields[10] == ZERO.to_text()
        assert fields[11] == ZERO.to_text()
        assert fields[12] == ONE.to_text()
        params.add(KElem.from_text(fields[13]))
    assert params == set(catalog.split_parameters())
    assert elapsed < 600
    print(f"PASS case (iii): 16 conics on 8 planes, parameters match the split fibers, {elapsed:.1f}s")


def test_case_iv_smoothness():
    rep, conics = pipeline.enumerate_case("iv")
    assert rep.ok, rep.render()
    assert conics == []
    by_name = {name: ok for name, ok, _ in rep.checks}
    assert by_name["plane section is a smooth quartic"]
    print("PASS case (iv): the z3 = 0 section is a smooth quartic, no conics")


def test_gram_matrix():
    start = time.monotonic()
    rep, rows = pipeline.gram_report()
    elapsed = time.monotonic() - start
    assert rep.ok, rep.render()
    expected = catalog.expected_ns_gram()
    assert rows == [list(r) for r in expected]
    from conic_census.linalg import mat_det

    det = mat_det([[kelem(v) for v in row] for row in rows]).as_fraction()
    assert det == -160
    assert elapsed < 300
    print(f"PASS Gram matrix: entrywise match, det = -160, {elapsed:.1f}s")


def test_kummer_configuration():
    rep = pipeline.kummer_report()
    assert rep.ok, rep.render()
    by_name = {name: (ok, detail) for name, ok, detail in rep.checks}
    assert by_name["pairwise disjoint"] == (True, "120 pairs")
    assert by_name["symmetry group order"][1] == "128"
    conics = reference_tables.kummer_conics()
    for i in range(16):
        for j in range(i + 1, 16):
            assert intersection_number(conics[i], conics[j]) == 0
    print("PASS Kummer configuration: 16 disjoint conics, group order 128, fixer order 4")


def test_property_suites():
    for name, suite in ALL_SUITES:
        cases, failures = suite()
        assert cases >= 200, name
        assert failures == (), f"{name}: failing cases {failures}"
    print(f"PASS property suites: {len(ALL_SUITES)} suites, >= 200 cases each, zero failures")


def test_case_i_budget_gate(capsys):
    """Case (i) is gated: by default it must stop at the resource budget,
    after exactly the pinned work, so that a change to the reduction loop or
    the pair criteria cannot alter its pair sequence unnoticed.

    Set CONIC_CENSUS_CASE_I=1 to attempt the full three-parameter
    enumeration with a much larger budget (hours of runtime).
    """
    if os.environ.get("CONIC_CENSUS_CASE_I"):
        budget = Budget(max_pairs=8_000_000, max_basis=240_000, max_terms=160_000_000)
        rep, conics = pipeline.enumerate_case("i", budget=budget)
        assert rep.ok, rep.render()
        assert len({c.key for c in conics}) == 720
        print("PASS case (i): full enumeration, 720 conics on 360 planes")
        return
    start = time.monotonic()
    rc = cli.main(["enumerate", "--case", "i"])
    elapsed = time.monotonic() - start
    assert rc == cli.EXIT_BUDGET
    stop = capsys.readouterr().err.splitlines()
    for line in (
        "pairs processed 778",
        "pairs discarded by criteria 3195",
        "peak basis size 601",
        "reductions to zero 186",
        "peak term count 114811",
        "reductions to zero found mod p 93",
    ):
        assert f"  {line}" in stop, line
    print(f"PASS case (i) gate: default budget exhausted cleanly in {elapsed:.1f}s (exit 3)")
