"""Pipeline stages on small inputs, plus negative controls.

The expensive full-census paths run in test_acceptance; here the focus is
that each stage reports honestly: good inputs pass, corrupted inputs fail
with the offending check named.
"""

import pathlib

import pytest
import reference_tables

from conic_census import catalog, geometry, group, pipeline
from conic_census.certificates import make_certificate, read_certificate, write_certificate
from conic_census.errors import ResourceBudgetExceeded, VerificationFailed
from conic_census.field import ONE, ZERO, KElem, kelem
from conic_census.geometry import Conic, ZRING
from conic_census.groebner import (
    Budget,
    SolveResult,
    buchberger,
    elimination_ideal,
    zero_dim_degree,
)
from conic_census.poly import compress_variables, ring_map
from oracles import ternary_poly

CENSUS800 = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "data" / "census800.cert"


def test_report_bookkeeping():
    rep = pipeline.Report("demo")
    assert rep.add("first", True, "fine")
    assert not rep.add("second", False, "broken")
    assert not rep.ok
    assert rep.first_failure() == "second"
    text = rep.render()
    assert "pass" in text and "FAIL" in text
    with pytest.raises(VerificationFailed) as err:
        rep.require()
    assert "second" in str(err.value)
    assert err.value.report is rep


def test_report_as_dict():
    rep = pipeline.Report("demo")
    rep.add("check", True, "ok")
    doc = rep.as_dict()
    assert doc["title"] == "demo"
    assert doc["ok"] is True
    assert doc["checks"][0]["name"] == "check"


def test_failed_census_writes_no_certificate(monkeypatch, tmp_path):
    monkeypatch.setattr(catalog, "SEED_STABILIZER_ORDERS", (12, 12, 5))
    out = tmp_path / "census.cert"
    with pytest.raises(VerificationFailed) as err:
        pipeline.orbit_census(out=str(out))
    assert err.value.report.first_failure() == "stabilizer of C3"
    assert not out.exists()


def test_one_census_per_process(monkeypatch):
    # one action per generator and conic, less the reverse edges of the
    # generators, all involutions: 1,712 of 4 x 800 for the census closure,
    # 42 of 4 x 16 for the Kummer closure; the fixer scans act only where a
    # class fixes the plane: 843 for the census (811 for the kernel, 800 of
    # them the identity's class on every conic, and 12 + 12 + 8 for the
    # stabilizers) and 18 for Kummer (16 of them the identity's)
    calls = []
    act_on_conic = group.act_on_conic

    def counted(m, conic):
        calls.append(conic.key)
        return act_on_conic(m, conic)

    monkeypatch.setattr(group, "act_on_conic", counted)
    pipeline._census_closure.cache_clear()
    pipeline.orbit_census()
    pipeline.kummer_report()
    pipeline.census_labels(pipeline._census_closure()[0])
    assert len(calls) == 1712 + 42 + 843 + 18


def test_seed_in_an_earlier_orbit_fails_disjointness(monkeypatch):
    c1, _, c3 = catalog.seed_conics()
    image = group.act_on_conic(catalog.symmetry_generators()[1], c1)
    assert image.key != c1.key
    monkeypatch.setattr(catalog, "seed_conics", lambda: (c1, image, c3))
    pipeline._census_closure.cache_clear()
    try:
        with pytest.raises(VerificationFailed) as err:
            pipeline.orbit_census()
    finally:
        pipeline._census_closure.cache_clear()
    checks = {name: (ok, detail) for name, ok, detail in err.value.report.checks}
    assert checks["orbits pairwise disjoint"] == (False, "")
    assert checks["census size"] == (False, "640")
    assert checks["orbit sizes"][0] is False


def test_singular_parameter_locus():
    locus = pipeline.singular_parameter_locus()
    assert locus == catalog.degeneration_polynomial()


@pytest.fixture
def fresh_locus():
    """An empty locus cache for one test, emptied again after it, so that no
    later test reads a locus computed from a substituted family."""
    pipeline.singular_parameter_locus.cache_clear()
    yield
    pipeline.singular_parameter_locus.cache_clear()


@pytest.fixture
def fresh_ansatz():
    """An empty ansatz-solve cache for one test, emptied again after it."""
    pipeline._ansatz_solution.cache_clear()
    yield
    pipeline._ansatz_solution.cache_clear()


def test_singular_parameter_locus_smooth_family(monkeypatch, fresh_locus):
    # a pencil with smooth total space in these charts: constant fiber x^4+y^4+z^4
    from conic_census.catalog import FIBER_RING
    from conic_census.poly import PolyRing

    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.gens()
    z0, z1, z3, t = FIBER_RING.gens()
    fam = ring_map(x**4 + y**4 + z**4, FIBER_RING, [z0, z1, z3])
    monkeypatch.setattr(catalog, "fiber_family", lambda: fam)
    locus = pipeline.singular_parameter_locus()
    assert locus == pipeline.XRING.one


def test_verify_components():
    rep = pipeline.verify_components()
    assert rep.ok
    names = [name for name, _, _ in rep.checks]
    assert sum("contain" in n for n in names) == 7


def test_singular_parameter_locus_once_per_process(monkeypatch, fresh_locus):
    runs = []  # one per buchberger call of the pipeline
    run = pipeline.buchberger
    monkeypatch.setattr(pipeline, "buchberger", lambda *a, **k: runs.append(1) or run(*a, **k))
    assert pipeline.fiber_survey().ok
    assert len(runs) == 3  # the locus, one run per chart
    assert pipeline.verify_components().ok
    # the seven component ideals; the locus is the one fiber_survey computed
    assert len(runs) == 3 + len(catalog.singular_component_generators())
    # a budget stop is not cached, so it raises on every call
    for _ in range(2):
        with pytest.raises(ResourceBudgetExceeded):
            pipeline.singular_parameter_locus(budget=Budget(max_pairs=1))
    assert len(runs) == 3 + len(catalog.singular_component_generators()) + 2


def test_verify_components_detects_wrong_component(monkeypatch):
    z0, z1, z3, t = catalog.FIBER_RING.gens()
    comps = catalog.singular_component_generators()
    # flip a sign: t^2 + 2t - 1 becomes t^2 + 2t + 1, not a branch
    broken = [("branch-1", [z0, z1, t**2 + 2 * t + 1])] + comps[1:]
    monkeypatch.setattr(catalog, "singular_component_generators", lambda: broken)
    with pytest.raises(VerificationFailed) as err:
        pipeline.verify_components()
    assert err.value.report.first_failure() == "branch-1 contains the singular locus ideal"


def test_factor_fiber_split():
    # C3 lies on z2 + a*z3 = 0 with a = split_parameters()[0]: the fiber t = -a
    alpha = -catalog.split_parameters()[0]
    fac = pipeline.factor_fiber(alpha)
    assert fac.kind == "split"
    assert len(fac.conics) == 2
    f = catalog.surface()
    for c in fac.conics:
        assert c.is_irreducible()
        assert c.on_surface(f)
    assert fac.conics[0].residual(f) == fac.conics[1]
    assert catalog.seed_conics()[2] in fac.conics


def test_split_fibers_read_one_case_iii_solve(monkeypatch, fresh_ansatz):
    hints = []  # the hints of each solve_system call of the pipeline
    solve = pipeline.solve_system
    monkeypatch.setattr(
        pipeline, "solve_system", lambda *a, **k: hints.append(k.get("hints")) or solve(*a, **k)
    )
    assert pipeline.fiber_survey().ok
    # one case (iii) solve for the eight split fibers, then three charts for
    # each of the four nodal fibers
    assert hints == [catalog.solver_hints("iii")] + [None] * 12


def test_factor_fiber_needs_the_whole_case_iii_solve(monkeypatch, fresh_ansatz):
    solve = pipeline.solve_system

    def one_point_short(*args, **kwargs):
        G, Gl, sol = solve(*args, **kwargs)
        return G, Gl, SolveResult(sol.points[1:], sol.unresolved)

    monkeypatch.setattr(pipeline, "solve_system", one_point_short)
    with pytest.raises(VerificationFailed, match="did not solve completely"):
        pipeline.factor_fiber(catalog.split_parameters()[0])


def test_split_fiber_conics_are_the_case_iii_conics_on_its_plane(census):
    _, conics = pipeline.enumerate_case("iii", census=census.certificate.keys())
    by_plane = {}
    for c in conics:
        by_plane.setdefault(c.key[10:14], set()).add(c.key)
    for alpha in catalog.split_parameters():
        plane = tuple(v.to_text() for v in (ZERO, ZERO, ONE, -alpha))  # z2 - alpha*z3
        fac = pipeline.factor_fiber(alpha)
        assert [c.key[10:14] for c in fac.conics] == [plane, plane]
        assert {c.key for c in fac.conics} == by_plane[plane]


def test_factor_fiber_nodal_and_smooth():
    assert pipeline.factor_fiber(catalog.nodal_parameters()[0]).kind == "nodal"
    assert pipeline.factor_fiber(ZERO).kind == "smooth"
    assert pipeline.factor_fiber(ONE).kind == "smooth"


def test_analyze_nodal_fiber():
    rep = pipeline.analyze_nodal_fiber(catalog.nodal_parameters()[1])
    assert rep.ok
    names = [name for name, _, _ in rep.checks]
    assert any("node" in n for n in names)


def test_analyze_nodal_fiber_rejects_smooth_parameter():
    with pytest.raises(VerificationFailed):
        pipeline.analyze_nodal_fiber(ZERO)


def test_plane_census_on_residual_pair():
    c1, c2, _ = catalog.seed_conics()
    cert = make_certificate("demo", [("A-1", c1), ("A-2", c2)])
    rep = pipeline.plane_census(cert)
    assert rep.ok


def test_plane_census_rejects_uncovered_plane():
    c1, _, c3 = catalog.seed_conics()
    cert = make_certificate("demo", [("A-1", c1), ("B-1", c3)])
    with pytest.raises(VerificationFailed):
        pipeline.plane_census(cert)


def test_enumerate_case_iv():
    rep, conics = pipeline.enumerate_case("iv")
    assert rep.ok
    assert conics == []


@pytest.mark.parametrize("case", ["ii", "iii"])
def test_plane_basis_is_the_eliminated_lex_basis(case):
    # enumerate_case reads the plane scheme degree from the lex basis
    # eliminated to the plane parameters; a Buchberger run on it, the oracle,
    # gives the same reduced basis back
    (_, _, vmap, _, ring), _, Gl, _, _ = pipeline._ansatz_solution(case, None)
    params = {vmap[ring.index(nm)] for nm in catalog.CASE_PARAMS[case]}
    pg, pring, _ = compress_variables(elimination_ideal(Gl, keep=params))
    G = buchberger(pg)
    assert G.ring == pring and G.polys == tuple(pg)
    assert zero_dim_degree(G) == catalog.EXPECTED_PLANES[case]


def test_gram_report_on_packaged_basis():
    rep, rows = pipeline.gram_report()
    assert rep.ok
    assert len(rows) == 20
    for i in range(20):
        assert rows[i][i] == -2
    assert rows == [list(r) for r in catalog.expected_ns_gram()]


def test_gram_report_rejects_wrong_conics():
    conics = list(reference_tables.ns_basis_conics())
    conics[5] = conics[4]  # duplicate row: diagonal stays -2, pattern breaks
    with pytest.raises(VerificationFailed):
        pipeline.gram_report(conics=conics)


def test_permutation_match():
    want = [r[:] if isinstance(r, list) else list(r) for r in catalog.expected_ns_gram()]
    got = [row[:] for row in want]
    got[0], got[1] = got[1], got[0]
    for row in got:
        row[0], row[1] = row[1], row[0]
    perm = pipeline._permutation_match(got, want)
    assert perm is not None
    broken = [row[:] for row in want]
    broken[2][3] = 1 - broken[2][3]
    broken[3][2] = broken[2][3]
    assert pipeline._permutation_match(broken, want) is None


def test_dot_graph():
    rows = [[-2, 1, 0], [1, -2, 0], [0, 0, -2]]
    text = pipeline.dot_graph(rows)
    assert text.startswith("graph gram {")
    assert "1 -- 2" in text
    assert "--" in text and "3 -- " not in text


def test_kummer_report_on_packaged_configuration():
    rep = pipeline.kummer_report()
    assert rep.ok


def test_census_is_one_conic_to_label_dict(monkeypatch):
    # a certificate and the closure give the same census, looked up by value
    cert = read_certificate(CENSUS800)
    census = cert.keys()
    labels = pipeline.census_labels(cert.conics)
    assert census == labels
    for label, c in cert.entries[::50]:
        rebuilt = Conic.from_coeffs([2 * x for x in c.coeffs])
        assert rebuilt in census
        assert census[rebuilt] == labels[rebuilt] == label.split("-", 1)[0]

    def kummer_detail(rep):
        return next(d for n, _, d in rep.checks if n == "all sixteen appear in the orbit census")

    searched = kummer_detail(pipeline.kummer_report())
    monkeypatch.setattr(pipeline, "census_labels", lambda conics: census)
    assert kummer_detail(pipeline.kummer_report()) == searched


@pytest.fixture
def unlabelled():
    """A process state with only the seeds labelled, as before any orbit_census."""
    pipeline._known_labels.cache_clear()
    yield
    pipeline._known_labels.cache_clear()


def _count_actions(monkeypatch):
    calls = []
    act_on_conic = group.act_on_conic

    def counted(m, conic):
        calls.append(1)
        return act_on_conic(m, conic)

    monkeypatch.setattr(group, "act_on_conic", counted)
    return calls


def test_orbit_search_labels_the_census_as_the_certificate(unlabelled, monkeypatch):
    cert = read_certificate(CENSUS800)
    calls = _count_actions(monkeypatch)
    assert pipeline.census_labels(cert.conics) == cert.keys()
    assert 0 < len(calls) < 4 * catalog.CENSUS_SIZE
    # conics built apart from doubled coefficients are the same conics
    pipeline._known_labels.cache_clear()
    del calls[:]
    rebuilt = [Conic.from_coeffs([2 * x for x in c.coeffs]) for c in cert.conics]
    labels = pipeline.census_labels(rebuilt)
    assert labels == cert.keys()
    assert [labels[c] for c in rebuilt] == [lab.split("-")[0] for lab, _ in cert.entries]
    # every conic is now labelled, so labelling them again acts on none
    n = len(calls)
    assert pipeline.census_labels(cert.conics) == cert.keys()
    assert len(calls) == n


def test_orbit_search_leaves_out_a_conic_outside_the_census(unlabelled, monkeypatch):
    # z0 + 2*z1 = 0, z2^2 + z3^2 = 0: not on the surface, so in no census orbit
    outside = Conic.from_coeffs([kelem(v) for v in (0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 2, 0, 0)])
    census = read_certificate(CENSUS800).keys()
    assert outside not in census
    c1, c2, _ = catalog.seed_conics()
    images = [group.act_on_conic(m, outside) for m in catalog.symmetry_generators()]
    image = next(d for d in images if d != outside)
    assert image not in census
    calls = _count_actions(monkeypatch)
    assert pipeline.census_labels([outside, c1]) == {c1: "C1"}
    # the whole orbit is known to lie outside: none of it is searched again
    n = len(calls)
    assert n > 0
    assert pipeline.census_labels([image, outside, c2]) == {c2: "C2"}
    assert len(calls) == n
    assert pipeline._known_labels()[image] is None


def test_kummer_report_alone_labels_by_a_bounded_search(unlabelled, monkeypatch):
    # 42 actions for the Kummer closure, 18 for its fixer scan, the rest to
    # label the 16 conics; closing the census first took 1,712 more
    calls = _count_actions(monkeypatch)
    rep = pipeline.kummer_report()
    checks = {name: detail for name, _, detail in rep.checks}
    assert checks["all sixteen appear in the orbit census"] == "C3:16"
    assert len(calls) == 566


def test_reports_equal_with_and_without_a_census(unlabelled, monkeypatch):
    census = read_certificate(CENSUS800).keys()
    calls = _count_actions(monkeypatch)
    # (run, actions with a census given, actions when searched from the
    # seeds alone)
    runs = {
        "enumerate iii": (
            lambda census: pipeline.enumerate_case("iii", census=census)[0],
            0,
            865,
        ),
        "fibers": (lambda census: pipeline.fiber_survey(census=census), 0, 810),
    }
    for name, (run, actions, searching) in runs.items():
        del calls[:]
        given = run(census)
        assert len(calls) == actions, name
        pipeline._known_labels.cache_clear()
        del calls[:]
        searched = run(None)
        assert len(calls) == searching, name
        assert searched.as_dict() == given.as_dict(), name
        assert searched.render() == given.render(), name


def test_kummer_report_detects_intersecting_conic():
    conics = list(reference_tables.kummer_conics())
    conics[0] = catalog.seed_conics()[0]  # C1 meets the configuration
    with pytest.raises(VerificationFailed):
        pipeline.kummer_report(conics=conics)


def test_verify_certificate_accepts_shipped_files(census):
    rep = pipeline.verify_certificate(str(census.path))
    assert rep.ok


def test_verify_certificate_rejects_tamper(census, tmp_path):
    lines = census.path.read_text().splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("conic "))
    toks = lines[idx].split(" ")
    # shift a non-leading quadric coefficient: still canonical, wrong conic
    from conic_census.field import KElem

    toks[11] = (KElem.from_text(toks[11]) + ONE).to_text()
    lines[idx] = " ".join(toks)
    bad = tmp_path / "tampered.cert"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(VerificationFailed) as err:
        pipeline.verify_certificate(str(bad))
    assert not err.value.report.ok


def test_verify_sections_and_parses_each_once(census, fresh_plane_records, monkeypatch):
    texts = []
    from_text = KElem.from_text
    monkeypatch.setattr(
        KElem, "from_text", staticmethod(lambda t: texts.append(t) or from_text(t))
    )
    sections = []
    section = geometry._section
    monkeypatch.setattr(
        geometry, "_section", lambda *args: sections.append(1) or section(*args)
    )
    built = []
    init = geometry.Conic.__init__
    monkeypatch.setattr(
        geometry.Conic, "__init__", lambda *args: built.append(1) or init(*args)
    )
    lines = census.path.read_text().splitlines()
    records = {t for ln in lines if ln.startswith("conic ") for t in ln.split()[2:]}
    meta = sum(
        len(ln.split()) - 1 - ln.startswith("seed ")
        for ln in lines
        if ln.startswith(("generator ", "seed "))
    )
    assert (len(records), meta) == (329, 106)
    read_certificate(str(census.path))
    assert len(texts) == len(records) + meta
    texts.clear()
    pipeline.verify_certificate(str(census.path))
    # one section per Galois class of planes: a pair's second conic follows
    # from the division, and the conjugate planes from the automorphisms of K
    assert len(sections) == 160
    # one residual conic per class, shared by the surface and pairing checks
    assert len(built) == 160
    # one read of its own, which parses anew: each distinct record text and
    # each generator and seed field once, and no line a second time
    assert len(texts) == len(records) + meta


# -- oracle: the per-conic path, one section and one division per conic ------


def _per_conic_on_surface(group):
    """_coplanar_on_surface's answer with a section per conic and two residuals."""
    f = catalog.surface()
    quotients = [c._section_quotient(f) for c in group]
    on_surface = all(q is not None for q in quotients)
    paired = (
        on_surface
        and len(group) == 2
        and all(
            Conic(c.plane, ternary_poly(q, c.pivot)) == d
            for c, q, d in zip(group, quotients, group[::-1])
        )
    )
    return on_surface, paired


def test_one_division_per_plane_matches_the_per_conic_path(census_conics):
    planes = pipeline._by_plane(census_conics)
    assert len(planes) == 400
    for group in planes.values():
        assert _per_conic_on_surface(group) == (True, True)
        assert pipeline._coplanar_on_surface(group) == (True, True)
    # conics of two planes: on the surface, but not each other's residual
    a, b = (group[0] for group in list(planes.values())[:2])
    assert pipeline._coplanar_on_surface([a, b]) == _per_conic_on_surface([a, b]) == (True, False)


def _moved(c):
    """c with one plane coefficient after its pivot negated: another plane."""
    b = list(c.coeffs[10:])
    k = next(j for j in range(c.pivot + 1, 4) if b[j])
    b[k] = -b[k]
    return Conic.from_coeffs(list(c.coeffs[:10]) + b)


def _off_surface(c):
    """c with its last nonzero quadric coefficient shifted: same plane, off the surface."""
    a = list(c.coeffs[:10])
    k = max(k for k in range(10) if a[k])
    a[k] = a[k] + ONE
    return Conic.from_coeffs(a + list(c.coeffs[10:]))


@pytest.mark.parametrize("edit", ["moved", "off_surface", "three_on_a_plane"])
def test_verify_checks_match_the_per_conic_path(census, monkeypatch, tmp_path, edit):
    cert = census.certificate
    entries = list(cert.entries)
    # the second record of its plane, so its pair is divided by the honest quadric
    first = {}
    for i, (_, d) in enumerate(entries):
        first.setdefault(d.coeffs[10:], i)
    k = next(i for i in range(137, len(entries)) if first[entries[i][1].coeffs[10:]] < i)
    label, c = entries[k]
    if edit == "moved":
        entries[k] = (label, _moved(c))
    elif edit == "off_surface":
        entries[k] = (label, _off_surface(c))
    else:  # a copy of a conic of another plane: that plane carries three
        entries[k] = (label, next(d for _, d in entries if d.coeffs[10:] != c.coeffs[10:]))
    bad = tmp_path / "bad.cert"
    write_certificate(make_certificate(cert.kind, entries, cert.meta), bad)

    def checks():
        with pytest.raises(VerificationFailed) as err:
            pipeline.verify_certificate(bad)
        return err.value.report.checks

    got = checks()
    monkeypatch.setattr(pipeline, "_coplanar_on_surface", _per_conic_on_surface)
    assert got == checks()
    failed = {name for name, ok, _ in got if not ok}
    # a moved record lands on a plane of its own, off the surface
    assert ("all conics irreducible and on the surface" in failed) == (edit != "three_on_a_plane")
    assert ("every plane carries two conics" in failed) == (edit != "off_surface")
    assert "coplanar conics are mutual residuals" in failed


# -- Galois transfer: a group conjugate to a checked one is not checked again --


def _conjugate(c, t):
    return tuple(x.galois(t) for x in c.coeffs)


def _plane_classes(planes, ts):
    """The orbits of planes under the automorphisms ts of K (a group with 0)."""
    return {frozenset(tuple(x.galois(t) for x in b) for t in ts) for b in planes}


def test_galois_conjugate_of_a_canonical_record_is_canonical(census_conics):
    # the premise of the transfer: sigma commutes with canonicalisation, so
    # the census is closed under the eight automorphisms of K
    census = set(census_conics)
    for c in census_conics:
        for t in range(1, 8):
            image = Conic.from_coeffs(list(_conjugate(c, t)))
            assert image.coeffs == _conjugate(c, t)
            assert image.pivot == c.pivot
            assert image in census
    classes = _plane_classes({c.coeffs[10:] for c in census_conics}, range(8))
    sizes = [len(k) for k in classes]
    assert (len(classes), sizes.count(1), sizes.count(2), sizes.count(4)) == (160, 16, 96, 48)


def _count_sections(monkeypatch):
    sections = []
    section = geometry._section
    monkeypatch.setattr(geometry, "_section", lambda *args: sections.append(1) or section(*args))
    return sections


def _spy_checked_groups(monkeypatch):
    """The groups _conics_valid checks itself, in order."""
    checked = []
    coplanar = pipeline._coplanar_on_surface
    monkeypatch.setattr(
        pipeline, "_coplanar_on_surface", lambda g: checked.append(list(g)) or coplanar(g)
    )
    return checked


def test_census_checks_one_group_per_galois_class(census_conics, monkeypatch):
    checked = _spy_checked_groups(monkeypatch)
    assert pipeline._conics_valid(census_conics) == (True, True)
    # 400 planes, 160 classes: 240 groups pass as conjugates of checked ones
    assert len(checked) == 160
    assert len(pipeline._by_plane(census_conics)) - len(checked) == 240
    planes = [g[0].coeffs[10:] for g in checked]
    assert len(_plane_classes(planes, range(8))) == 160


def test_surface_fixed_by_fewer_automorphisms_transfers_less(fresh_plane_records, monkeypatch):
    # every quartic through the census is a multiple of the surface; i*f has
    # coefficients fixed only by the automorphisms that fix i (t even)
    fi = catalog.surface() * KElem.from_text("0,1,0,0,0,0,0,0")
    monkeypatch.setattr(catalog, "surface", lambda: fi)
    sections = _count_sections(monkeypatch)
    rep = pipeline.verify_certificate(CENSUS800)
    assert rep.ok
    cert = read_certificate(CENSUS800)
    classes = _plane_classes({c.coeffs[10:] for c in cert.conics}, (0, 2, 4, 6))
    assert len(sections) == len(classes) == 280


def test_damaged_conjugate_group_is_checked_itself(monkeypatch, tmp_path):
    cert = read_certificate(CENSUS800)
    entries = list(cert.entries)
    # the first plane whose Galois class holds an earlier plane: its group
    # would pass as the conjugate of that plane's group
    seen = set()
    for k, (_, c) in enumerate(entries):
        plane = c.coeffs[10:]
        if plane not in seen and any(_conjugate(c, t)[10:] in seen for t in range(1, 8)):
            break
        seen.add(plane)
    label, c = entries[k]
    damaged = _off_surface(c)
    assert damaged.coeffs[10:] == c.coeffs[10:]
    entries[k] = (label, damaged)
    bad = tmp_path / "damaged.cert"
    write_certificate(make_certificate(cert.kind, entries, cert.meta), bad)

    def checks():
        with pytest.raises(VerificationFailed) as err:
            pipeline.verify_certificate(bad)
        return err.value.report.checks

    checked = _spy_checked_groups(monkeypatch)
    got = checks()
    assert any(damaged in g for g in checked)  # divided, not transferred
    failed = [name for name, ok, _ in got if not ok]
    assert failed[0] == "all conics irreducible and on the surface"
    # the oracle: no automorphism fixes (i + s2 + s5) * f, and a section per conic
    f = catalog.surface() * KElem.from_text("0,1,1,0,1,0,0,0")
    monkeypatch.setattr(catalog, "surface", lambda: f)
    monkeypatch.setattr(pipeline, "_coplanar_on_surface", _per_conic_on_surface)
    assert got == checks()


def test_damaged_planes_are_checked_first(fresh_plane_records, monkeypatch, tmp_path):
    # the last record whose move leaves the census moved to a plane of its
    # own: its plane and its former partner's are the only groups not of
    # two, so they are checked first and the pairing walk is skipped
    cert = read_certificate(CENSUS800)
    entries = list(cert.entries)
    census = cert.keys()
    k = next(k for k in reversed(range(len(entries))) if _moved(entries[k][1]) not in census)
    assert k > 700
    label, c = entries[k]
    entries[k] = (label, _moved(c))
    bad = tmp_path / "moved.cert"
    write_certificate(make_certificate(cert.kind, entries, cert.meta), bad)
    sections = _count_sections(monkeypatch)
    with pytest.raises(VerificationFailed) as err:
        pipeline.verify_certificate(bad)
    assert len(sections) <= 2
    failed = {name for name, ok, _ in err.value.report.checks if not ok}
    assert {
        "all conics irreducible and on the surface",
        "every plane carries two conics",
        "coplanar conics are mutual residuals",
    } <= failed


def test_orbit_census_report_lines(census):
    rep = census.report
    assert rep.ok
    names = [name for name, _, _ in rep.checks]
    assert any("group order" in n for n in names)
    assert any("stabilizer" in n for n in names)
    details = {name: detail for name, _, detail in rep.checks}
    assert details["kernel of the action is scalar"] == "order 4"
    assert details["group order"] == "7680"
    assert details["projective transformations"] == "1920"
    assert details["stabilizer of C1"] == "order 12 (48 matrices)"
    assert details["stabilizer of C3"] == "order 4 (16 matrices)"
