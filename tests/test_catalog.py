"""Checks that the fixed census inputs are internally consistent."""

from conic_census import catalog
from conic_census.field import ONE, SQRT2, SQRT5, I, ZERO, kelem
from conic_census.geometry import Conic, ZRING
from conic_census.group import GroupMatrix
from conic_census.poly import substitute_linear, uni_coeffs, uni_squarefree


def test_surface_shape():
    f = catalog.surface()
    assert {sum(m) for m in f.terms} == {4}
    assert f.total_degree() == 4
    # even in every variable
    for mono in f.terms:
        assert all(e % 2 == 0 for e in mono)


def test_generators_preserve_surface():
    f = catalog.surface()
    for m in catalog.symmetry_generators():
        assert substitute_linear(f, m.rows) == f


def test_seed_conics_lie_on_surface():
    f = catalog.surface()
    for c in catalog.seed_conics():
        assert c.is_irreducible()
        assert c.on_surface(f)


def test_seed_pair_is_residual():
    f = catalog.surface()
    c1, c2, c3 = catalog.seed_conics()
    assert c1.residual(f) == c2
    assert c1.key[10:] == c2.key[10:]  # same plane
    assert c3.key[10:] != c1.key[10:]


def test_kummer_generators_preserve_surface():
    f = catalog.surface()
    for m in catalog.kummer_generators():
        assert substitute_linear(f, m.rows) == f


def test_kummer_generator_orders():
    g1, g2, g3, g4 = catalog.kummer_generators()
    e = GroupMatrix.identity()
    assert g1 * g1 == e
    assert g3 * g3 == e
    assert g4 * g4 == e
    assert g2 * g2 != e
    assert (g2 * g2) * (g2 * g2) == e


def test_degeneration_polynomial():
    g = catalog.degeneration_polynomial()
    assert g.total_degree() == 12
    assert g.lead_coeff() == ONE
    assert uni_squarefree(uni_coeffs(g, 0)) == uni_coeffs(g, 0)
    prod = catalog.nodal_parameter_polynomial() * catalog.split_parameter_polynomial()
    assert prod.monic() == g


def test_parameter_values_are_roots():
    nodal = catalog.nodal_parameter_polynomial()
    split = catalog.split_parameter_polynomial()
    assert len(catalog.nodal_parameters()) == 4
    assert len(catalog.split_parameters()) == 8
    for a in catalog.nodal_parameters():
        assert nodal.evaluate([a]) == ZERO
    for a in catalog.split_parameters():
        assert split.evaluate([a]) == ZERO
    assert len(set(catalog.nodal_parameters() + catalog.split_parameters())) == 12


def test_fiber_at_is_a_plane_quartic():
    q = catalog.fiber_at(kelem(0))
    assert q.ring.names == ("z0", "z1", "z3")
    assert {sum(m) for m in q.terms} == {4}
    assert q.total_degree() == 4
    # C3 lies on z2 + a*z3 = 0 (b3 = a), so it is in the fiber at t = -a
    a = catalog.split_parameters()[0]
    c3 = catalog.seed_conics()[2]
    assert c3.coeffs[10:][3] == a


def test_component_generators_shape():
    comps = catalog.singular_component_generators()
    assert len(comps) == 7
    labels = [label for label, _ in comps]
    assert len(set(labels)) == 7
    for _, gens in comps:
        assert gens
        for g in gens:
            assert g.ring.names == ("z0", "z1", "z3", "t")


def _reference_case_equations(case):
    """Oracle: independently transcribed expansions of the three ansatz systems.

    These are kept verbatim as a guard: the symbolic construction in
    catalog.ansatz_equations must reproduce exactly this set of polynomials.
    """
    ring = catalog.ansatz_ring(case)
    g = {nm: ring.var(i) for i, nm in enumerate(ring.names)}
    a1, a2, a3, a4, a5, a6 = (g[f"a{k}"] for k in range(1, 7))
    b1, b2, b3, b4, b5, b6 = (g[f"b{k}"] for k in range(1, 7))
    a = g["a"]
    if case == "iii":
        return [
            -1 + 6 * a**2 - a**4 + a3 * b3,
            a3 * b2 + a2 * b3,
            6 + 6 * a**2 + a3 * b1 + a2 * b2 + a1 * b3,
            a2 * b1 + a1 * b2,
            -1 + a1 * b1,
            a5 * b3 + a3 * b5,
            a5 * b2 + a6 * b3 + a2 * b5 + a3 * b6,
            a5 * b1 + a6 * b2 + a1 * b5 + a2 * b6,
            a6 * b1 + a1 * b6,
            6 + 6 * a**2 + a4 * b3 + a3 * b4 + a5 * b5,
            a4 * b2 + a2 * b4 + a6 * b5 + a5 * b6,
            6 + a4 * b1 + a1 * b4 + a6 * b6,
            a5 * b4 + a4 * b5,
            a6 * b4 + a4 * b6,
            -1 + a4 * b4,
        ]
    b = g["b"]
    if case == "ii":
        return [
            -1 + 6 * a**2 - a**4 + a3 * b3,
            12 * a * b - 4 * a**3 * b + a3 * b2 + a2 * b3,
            6 + 6 * a**2 + 6 * b**2 - 6 * a**2 * b**2 + a3 * b1 + a2 * b2 + a1 * b3,
            12 * a * b - 4 * a * b**3 + a2 * b1 + a1 * b2,
            -1 + 6 * b**2 - b**4 + a1 * b1,
            a5 * b3 + a3 * b5,
            a5 * b2 + a6 * b3 + a2 * b5 + a3 * b6,
            a5 * b1 + a6 * b2 + a1 * b5 + a2 * b6,
            a6 * b1 + a1 * b6,
            6 + 6 * a**2 + a4 * b3 + a3 * b4 + a5 * b5,
            12 * a * b + a4 * b2 + a2 * b4 + a6 * b5 + a5 * b6,
            6 + 6 * b**2 + a4 * b1 + a1 * b4 + a6 * b6,
            a5 * b4 + a4 * b5,
            a6 * b4 + a4 * b6,
            -1 + a4 * b4,
        ]
    c = g["c"]
    if case == "i":
        return [
            -1 + 6 * a**2 - a**4 + a3 * b3,
            12 * a * b - 4 * a**3 * b + a3 * b2 + a2 * b3,
            6 + 6 * a**2 + 6 * b**2 - 6 * a**2 * b**2 + a3 * b1 + a2 * b2 + a1 * b3,
            12 * a * b - 4 * a * b**3 + a2 * b1 + a1 * b2,
            -1 + 6 * b**2 - b**4 + a1 * b1,
            a5 * b3 + a3 * b5 + 12 * a * c - 4 * a**3 * c,
            a5 * b2 + a6 * b3 + a2 * b5 + a3 * b6 + 12 * b * c - 12 * a**2 * b * c,
            a5 * b1 + a6 * b2 + a1 * b5 + a2 * b6 + 12 * a * c - 12 * a * b**2 * c,
            a6 * b1 + a1 * b6 + 12 * b * c - 4 * b**3 * c,
            6 + 6 * a**2 + a4 * b3 + a3 * b4 + a5 * b5 + 6 * c**2 - 6 * a**2 * c**2,
            12 * a * b + a4 * b2 + a2 * b4 + a6 * b5 + a5 * b6 - 12 * a * b * c**2,
            6 + 6 * b**2 + a4 * b1 + a1 * b4 + a6 * b6 + 6 * c**2 - 6 * b**2 * c**2,
            a5 * b4 + a4 * b5 + 12 * a * c - 4 * a * c**3,
            a6 * b4 + a4 * b6 + 12 * b * c - 4 * b * c**3,
            -1 + a4 * b4 + 6 * c**2 - c**4,
        ]
    raise ValueError(f"no reference equations for case {case!r}")


def test_ansatz_matches_reference_expansion():
    # symbolic expansion against the independently transcribed systems
    for case in ("i", "ii", "iii"):
        ring, eqs = catalog.ansatz_equations(case)
        ref = _reference_case_equations(case)
        assert len(eqs) == 15
        assert {str(p) for p in eqs} == {str(p) for p in ref}
        got = {p.ring for p in eqs}
        assert got == {ring}


def test_gauge_fixed_system_shape():
    for case in ("i", "ii", "iii"):
        polys, cring, vmap, subs, ring = catalog.gauge_fixed_system(case)
        assert polys
        # the free parameters survive the compression
        for name in catalog.CASE_PARAMS[case]:
            assert name in cring.names
        assert "T0" not in cring.names
        assert "a4" not in cring.names
        for poly in polys:
            assert poly.ring == cring


def test_conic_from_solution_rebuilds_seed():
    a = I * (SQRT5 + 1) / 2
    values = {
        "a1": ONE,
        "a2": ZERO,
        "a3": 3 * (SQRT5 + 1) / 2,
        "a4": ONE,
        "a5": ZERO,
        "a6": 2 * SQRT2,
        "a": a,
    }
    plane, quadric = catalog.conic_from_solution("iii", values)
    assert Conic(plane, quadric) == catalog.seed_conics()[2]


def test_charts_round_trip_every_census_conic(census_conics):
    # the pivot of a census plane, z0, z1 or z2, picks the case (i), (ii) or
    # (iii); a1..a6 are read in that case's chart, scaled to a4 = 1
    z = ZRING.gens()
    cases = {}
    for conic in census_conics:
        case = ("i", "ii", "iii")[conic.pivot]
        cases[case] = cases.get(case, 0) + 1
        plane, (j0, j1) = catalog.CHARTS[case]
        b = conic.coeffs[10:]
        assert [x for x in plane if not isinstance(x, str)] == [
            y for x, y in zip(plane, b) if not isinstance(x, str)
        ]
        t0, t1, z3 = z[j0], z[j1], z[3]
        monos = [t0**2, t0 * z3, z3**2, t1**2, t1 * z3, t0 * t1]
        a = [conic.quadric.coeff(m.lead_monomial()) for m in monos]
        values = {f"a{k}": x / a[3] for k, x in enumerate(a, start=1)}
        values.update((x, y) for x, y in zip(plane, b) if isinstance(x, str))
        assert Conic(*catalog.conic_from_solution(case, values)) == conic
    assert cases == catalog.EXPECTED_CONICS


def test_expected_parameter_polynomial_degrees():
    from conic_census.poly import PolyRing

    ring = PolyRing(("u",))
    want = {"i": None, "ii": 15, "iii": 8}
    for case in ("ii", "iii"):
        p = catalog.expected_parameter_polynomial(case, ring, 0)
        assert p.lead_coeff() == ONE
        assert p.total_degree() == want[case]


def test_solver_hints_are_quartic_factors():
    for case in ("i", "ii", "iii"):
        hints = catalog.solver_hints(case)
        assert hints
        for cs in hints:
            assert len(cs) > 2


def test_census_constants():
    assert catalog.GROUP_ORDER == 7680
    assert catalog.PROJECTIVE_ORDER == 1920
    assert catalog.SEED_ORBIT_LENGTHS == (160, 160, 480)
    assert sum(catalog.SEED_ORBIT_LENGTHS) == catalog.CENSUS_SIZE
    assert sum(catalog.PLANE_SUPPORT_HISTOGRAM.values()) == catalog.PLANE_COUNT
    assert catalog.EXPECTED_CONICS == {"i": 720, "ii": 64, "iii": 16}
    assert catalog.EXPECTED_PLANES == {"i": 360, "ii": 32, "iii": 8}
