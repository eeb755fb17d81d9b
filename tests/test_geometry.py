"""Unit tests for conics as (plane, quadric) pairs."""

import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from conic_census import catalog
from conic_census import geometry
from conic_census import group
from conic_census import pipeline
from conic_census.errors import CommonComponent, DegenerateConic, NotOnSurface
from conic_census.field import I, ONE, P, SQRT2, SQRT10, ZERO, dot, dot_p, kelem, mod_p
from conic_census.geometry import Conic, ZRING, intersection_number, point_on_plane_line
from conic_census.linalg import mat_det
from conic_census.pipeline import hypersurface_smooth
from conic_census.poly import Poly, PolyRing, dense_monomials
from oracles import divide_exact


z0, z1, z2, z3 = ZRING.gens()


def test_canonical_scaling():
    plane = z0 + z1 + z2
    quadric = z1**2 + z1 * z2 + z2**2 + 5 * z3**2
    a = Conic(plane, quadric)
    b = Conic(2 * plane, 3 * quadric)
    assert a == b
    assert a.key == b.key


def test_canonical_modulo_plane_multiples():
    # adding plane * (linear form) to the quadric does not move the conic
    plane = z0 + z1 + z2
    quadric = z1**2 + z1 * z2 + z2**2 + 5 * z3**2
    a = Conic(plane, quadric)
    b = Conic(plane, quadric + plane * (z0 - 7 * z3))
    assert a == b


def test_degenerate_inputs_rejected():
    with pytest.raises(DegenerateConic):
        Conic(ZRING.zero(), z0**2)
    with pytest.raises(DegenerateConic):
        Conic(z0 + z1, ZRING.zero())
    with pytest.raises(DegenerateConic):
        # quadric vanishes on the plane
        Conic(z0, z0 * z1)
    with pytest.raises(DegenerateConic):
        Conic(z0**2, z1**2)
    with pytest.raises(DegenerateConic):
        Conic(z0, z1**2 + z2)
    # the same rejections on the coefficient path (a00..a33, b0..b3)
    cases = (
        [ONE] + [ZERO] * 13,  # zero plane
        [ZERO] * 10 + [ONE, ONE, ZERO, ZERO],  # zero quadric
        [ZERO, ZERO, ONE] + [ZERO] * 2 + [ONE] + [ZERO] * 4 + [ONE, ONE, ZERO, ZERO],
    )  # (z0 + z1) * z2 vanishes on z0 + z1 = 0
    for coeffs in cases:
        with pytest.raises(DegenerateConic):
            Conic.from_coeffs(coeffs)
        with pytest.raises(DegenerateConic):
            Conic.from_fields([x.to_text() for x in coeffs])


def test_fields_round_trip():
    for c in catalog.seed_conics():
        fields = c.fields()
        assert len(fields) == 14
        assert Conic.from_fields(fields) == c


def test_from_fields_rejects_wrong_length():
    with pytest.raises(ValueError):
        Conic.from_fields(["0"] * 13)


def test_irreducibility():
    c1, c2, c3 = catalog.seed_conics()
    assert c1.is_irreducible()
    assert c2.is_irreducible()
    assert c3.is_irreducible()
    # rank-2 quadric restricted to a generic plane: two lines
    lines = Conic(z3, z0 * z1)
    assert not lines.is_irreducible()
    # rank-1: a double line
    double = Conic(z3, (z0 + z1) ** 2)
    assert not double.is_irreducible()


def test_on_surface():
    f = catalog.surface()
    c1, c2, c3 = catalog.seed_conics()
    assert c1.on_surface(f)
    assert c3.on_surface(f)
    off = Conic(z3, z0**2 + z1**2 + z2**2)
    assert not off.on_surface(f)


def test_residual_involution():
    f = catalog.surface()
    c1, c2, c3 = catalog.seed_conics()
    assert c1.residual(f) == c2
    assert c2.residual(f) == c1
    assert c3.residual(f).residual(f) == c3
    off = Conic(z3, z0**2 + z1**2 + z2**2)
    with pytest.raises(NotOnSurface):
        off.residual(f)


def test_intersection_numbers():
    f = catalog.surface()
    c1, c2, c3 = catalog.seed_conics()
    assert intersection_number(c1, c1) == -2
    # coplanar residual pair on a quartic: 4
    assert intersection_number(c1, c2) == 4
    assert intersection_number(c1, c3) == 0
    assert intersection_number(c3, c1) == 0


def _oracle_gram3(c):
    """Symmetric 3x3 matrix of the reduced quadric in the non-pivot variables."""
    others = [i for i in range(4) if i != c.pivot]

    def entry(i, j):
        m = [0] * 4
        m[i] += 1
        m[j] += 1
        x = c.quadric.coeff(m)
        return x if i == j else x / 2

    return [[entry(i, j) for j in others] for i in others]


def _random_linear(rng, first=0):
    vals = [ZERO, ONE, -ONE, kelem(2), I, SQRT2, ONE + I, SQRT10 / 3]
    return sum((rng.choice(vals) * z for z in ZRING.gens()[first:]), ZRING.zero())


def test_gram3_is_symmetric():
    c1 = catalog.seed_conics()[0]
    g = _oracle_gram3(c1)
    assert len(g) == 3
    for i in range(3):
        for j in range(3):
            assert g[i][j] == g[j][i]
    assert g[2][2] == (3 + SQRT10) / 2


def test_irreducibility_matches_determinant_oracle(census_conics):
    for c in census_conics:
        assert c.is_irreducible() and mat_det(_oracle_gram3(c))
    # line pairs, double lines and smooth conics on planes of every pivot
    rng = random.Random(2108)
    kinds = {True: 0, False: 0}
    for k in range(240):
        plane = ZRING.var(k % 4) + _random_linear(rng, k % 4 + 1)
        l1, l2 = _random_linear(rng), _random_linear(rng)
        quadric = [l1 * l2, l1 * l1, l1 * l2 + _random_linear(rng) ** 2 + z0 * z3][k % 3]
        try:
            c = Conic(plane, quadric)
        except DegenerateConic:
            continue
        smooth = bool(mat_det(_oracle_gram3(c)))
        assert c.is_irreducible() == smooth
        kinds[smooth] += 1
    assert kinds[True] > 50 and kinds[False] > 100
    assert not Conic(z3, z0 * z1).is_irreducible()
    assert not Conic(z0 + z3, (z1 - z2) ** 2).is_irreducible()


def test_hypersurface_smooth():
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.gens()
    assert hypersurface_smooth(x**4 + y**4 + z**4)
    # singular at (0 : 0 : 1)
    assert not hypersurface_smooth(x**4 + y**4)
    assert not hypersurface_smooth(x * y * z)


def _oracle_charts(f, n):
    """The chart systems as the stages built them by hand: f and its first n
    partials, z_j set to 1 by Poly.substitute, the zero ones dropped."""
    system = [f] + [f.partial_derivative(i) for i in range(n)]
    return [(j, [q for q in (p.substitute(j, 1) for p in system) if q]) for j in range(n)]


@pytest.mark.parametrize(
    "form",
    [
        catalog.fiber_family,  # t is a parameter: no partial, no chart
        lambda: catalog.fiber_at(catalog.nodal_parameters()[0]),
        catalog.section_without_last_coordinate,  # case (iv)
    ],
    ids=["pencil", "nodal-fiber", "case-iv-section"],
)
def test_singular_charts_match_the_substituted_system(form):
    f = form()
    charts = list(geometry.singular_charts(f, 3))
    assert charts == _oracle_charts(f, 3)
    assert [len(eqs) for _, eqs in charts] == [4, 4, 4]


def test_plane_coeffs():
    c3 = catalog.seed_conics()[2]
    coeffs = c3.coeffs[10:]
    assert len(coeffs) == 4
    assert coeffs[0] == ZERO
    assert coeffs[1] == ZERO
    assert coeffs[2] == ONE
    assert coeffs[3] == I * (ONE + SQRT10 / SQRT2) / 2


# -- oracles: the polynomial forms of the plane section and the line test -----

_PAIRS = tuple((i, j) for i in range(4) for j in range(i, 4))  # a00, a01, ..., a33


def _oracle_quotient(c, f):
    """f with z_pivot replaced on the plane, divided exactly by the quadric."""
    sect = f.substitute(c.pivot, ZRING.var(c.pivot) - c.plane)
    return divide_exact(sect, c.quadric) if sect else None


def _quotient(c, f):
    """The form q with f|plane = quadric * q as c._divided(f) shows it, or None:
    a quotient, or x * Q_sigma_t(a) when a plane record a answers for the residual."""
    x, a, t = c._divided(f) or (None, None, 0)
    if a is None:
        return x
    return Conic.from_coeffs(geometry.galois_image(a.coeffs, t)).quadric * x


def _oracle_nullspace(rows, ncols):
    """Basis of the right nullspace of rows over K, by Gauss-Jordan elimination."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [ZERO] * ncols
        v[fc] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        basis.append(v)
    return basis


def _oracle_intersection(c1, c2):
    """Sylvester determinant and proportionality of the restrictions to the line."""
    if c1.key == c2.key:
        return -2
    if c1.coeffs[10:] == c2.coeffs[10:]:
        return 4
    s, t = _oracle_nullspace([c1.coeffs[10:], c2.coeffs[10:]], 4)
    st = [a + b for a, b in zip(s, t)]
    qs = []
    for q in (c1.quadric, c2.quadric):
        a, b, ab = q.evaluate(s), q.evaluate(t), q.evaluate(st)
        qs.append((a, ab - a - b, b))
    (a0, a1, a2), (b0, b1, b2) = qs
    sylvester = [
        [a0, a1, a2, ZERO],
        [ZERO, a0, a1, a2],
        [b0, b1, b2, ZERO],
        [ZERO, b0, b1, b2],
    ]
    if mat_det(sylvester):
        return 0
    prop = not (a0 * b1 - a1 * b0) and not (a0 * b2 - a2 * b0) and not (a1 * b2 - a2 * b1)
    return 2 if prop else 1


def test_section_quotient_matches_oracle_on_census(census_conics):
    f = catalog.surface()
    for c in census_conics:
        q = c._section_quotient(f)
        assert q is not None
        assert q == _oracle_quotient(c, f)
        assert c.residual(f) == Conic(c.plane, q)


def test_section_quotient_off_surface_matches_oracle(census_conics):
    # one quadric coefficient off the pivot moved by +1
    f = catalog.surface()
    rng = random.Random(20261018)
    off = 0
    for _ in range(200):
        c = rng.choice(census_conics)
        coeffs = list(c.coeffs)
        k = rng.choice([k for k, (i, j) in enumerate(_PAIRS) if c.pivot not in (i, j)])
        coeffs[k] = coeffs[k] + ONE
        d = Conic.from_coeffs(coeffs)
        want = _oracle_quotient(d, f)
        assert d._section_quotient(f) == want
        assert d.on_surface(f) == (want is not None)
        off += want is None
    assert off > 0


def test_intersection_number_matches_oracle(census_conics):
    rng = random.Random(7)
    n = len(census_conics)
    by_plane = {}
    for c in census_conics:
        by_plane.setdefault(c.coeffs[10:], []).append(c)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2000)]
    pairs = [(census_conics[i], census_conics[j]) for i, j in pairs]
    pairs += [(c, c) for c in rng.sample(census_conics, 20)]
    pairs += [tuple(cs) for cs in rng.sample(list(by_plane.values()), 20)]
    seen = set()
    for c, d in pairs:
        got = intersection_number(c, d)
        assert got == _oracle_intersection(c, d)
        seen.add(got)
    assert seen == {-2, 0, 1, 2, 4}


def test_common_line_lies_on_both_planes(census_conics):
    # the one line body, over K and over F_P on the conics' images
    rng = random.Random(11)
    by_plane = {}
    for c in census_conics:
        by_plane.setdefault(c.coeffs[10:], []).append(c)
    for c, d in rng.sample(list(by_plane.values()), 10):
        assert point_on_plane_line(c.coeffs[10:], d.coeffs[10:], dot) is None
        assert point_on_plane_line(c.coeffs_p[10:], d.coeffs_p[10:], dot_p) is None
    for _ in range(200):
        c, d = rng.sample(census_conics, 2)
        if c.coeffs[10:] == d.coeffs[10:]:
            continue
        s, t = point_on_plane_line(c.coeffs[10:], d.coeffs[10:], dot)
        for b in (c.coeffs[10:], d.coeffs[10:]):
            assert not dot(b, s) and not dot(b, t)
        assert any(s[i] * t[j] - s[j] * t[i] for i in range(4) for j in range(i + 1, 4))
        sp, tp = point_on_plane_line(c.coeffs_p[10:], d.coeffs_p[10:], dot_p)
        for b in (c.coeffs_p[10:], d.coeffs_p[10:]):
            assert dot_p(b, sp) == dot_p(b, tp) == 0
            assert dot_p(b, map(mod_p, s)) == dot_p(b, map(mod_p, t)) == 0
        assert any(dot_p((sp[i], sp[j]), (tp[j], -tp[i])) for i in range(4) for j in range(i))


def _count_k_route(monkeypatch):
    """The coefficient rows of each pair intersection_number meets over K."""
    pairs = []
    meet = geometry._line_meet

    def counted(x, y, total):
        if total is dot:
            pairs.append((x, y))
        return meet(x, y, total)

    monkeypatch.setattr(geometry, "_line_meet", counted)
    return pairs


def test_only_pairs_meeting_once_reach_k_in_gram_and_kummer(monkeypatch):
    k_route = _count_k_route(monkeypatch)
    ones = []

    def recorded(c1, c2):
        n = intersection_number(c1, c2)
        if n == 1:
            ones.append((c1.coeffs, c2.coeffs))
        return n

    monkeypatch.setattr(pipeline, "intersection_number", recorded)
    # 5 matrices of 210 pairs: 20 self-intersections, 22 meeting once, 168 disjoint
    pipeline.gram_report()
    assert len(ones) == 110 and Counter(k_route) == Counter(ones)
    k_route.clear()
    pipeline.kummer_report()  # 120 disjoint pairs
    assert k_route == []


def _hand_pair(plane1, quadric1, plane2, quadric2):
    c, d = Conic(plane1, quadric1), Conic(plane2, quadric2)
    assert c.is_irreducible() and d.is_irreducible()
    return c, d


def test_resultant_zero_mod_p_only_is_met_over_k(monkeypatch):
    # on the line z0 = z1 = 0: z2*z3 against (z2 - P z3)(z2 - 2 z3), no
    # common root over K, the common root z2 = 0 mod P
    c, d = _hand_pair(z0, z1**2 + z2 * z3, z1, z0**2 + (z2 - P * z3) * (z2 - 2 * z3))
    k_route = _count_k_route(monkeypatch)
    met = geometry._line_meet(c.coeffs_p, d.coeffs_p, dot_p)
    assert met is not None and met[2] == 0
    for a, b in ((c, d), (d, c)):
        assert intersection_number(a, b) == _oracle_intersection(a, b) == 0
    assert len(k_route) == 2


def test_conic_containing_the_common_line_is_met_over_k():
    # z1*z2 on z0 = 0 contains the line z0 = z1 = 0: zero mod P as well
    c, d = Conic(z0, z1 * z2), Conic(z1, z0**2 + z2 * z3)
    for a, b in ((c, d), (d, c)):
        with pytest.raises(CommonComponent):
            intersection_number(a, b)


def test_denominator_divisible_by_p_is_met_over_k(monkeypatch):
    plane, quadric = z0 + z1 * kelem(Fraction(1, P)), P * z0 * z1 + z1 * z3 + z2**2
    k_route = _count_k_route(monkeypatch)
    seen = set()
    for q in (z0 * z1 + z1**2 + z0 * z3 + z3**2, z0**2 + P * z0 * z1 + z1 * z3):
        c, d = _hand_pair(plane, quadric, z2, q)
        assert c.coeffs_p is None and d.coeffs_p is not None
        for a, b in ((c, d), (d, c)):
            n = intersection_number(a, b)
            assert n == _oracle_intersection(a, b)
            seen.add(n)
    assert seen == {0, 1} and len(k_route) == 4


def test_quotient_is_kept_per_surface(census_conics, fresh_plane_records, monkeypatch):
    sections = []
    section = geometry._section

    def counted(*args):
        sections.append(args[0])
        return section(*args)

    monkeypatch.setattr(geometry, "_section", counted)
    fermat = z0**4 + z1**4 + z2**4 + z3**4
    for c in census_conics[::80]:
        c = Conic.from_coeffs(c.coeffs)  # nothing remembered yet
        f = catalog.surface()
        want = _oracle_quotient(c, f)
        assert c.on_surface(f)
        # an equal form built again is the same surface: no second section
        assert c.residual(catalog.surface()) == Conic(c.plane, want)
        assert len(sections) == 1
        # a different quartic is worked out, not read from f's quotient
        other = _oracle_quotient(c, fermat)
        assert other is None
        assert not c.on_surface(fermat)
        with pytest.raises(NotOnSurface):
            c.residual(fermat)
        assert _quotient(c, 2 * f) == 2 * want
        assert c.on_surface(f)
        assert c.residual(f) == Conic(c.plane, want)
        assert len(sections) == 4
        sections.clear()


# -- the plane record: a division on a quartic answers for its residual -------


def _count_sections(monkeypatch):
    sections = []
    section = geometry._section
    monkeypatch.setattr(geometry, "_section", lambda *args: sections.append(1) or section(*args))
    return sections


def _plane_pairs(census_conics, n, seed):
    """n census planes as fresh (a, b) copies: nothing kept, nothing recorded."""
    by_plane = {}
    for c in census_conics:
        by_plane.setdefault(c.coeffs[10:], []).append(c)
    pairs = random.Random(seed).sample(list(by_plane.values()), n)
    return [tuple(Conic.from_coeffs(c.coeffs) for c in pair) for pair in pairs]


def _shifted(c):
    """c with its last nonzero quadric coefficient shifted: same plane, off the
    surface (the _off_surface edit of test_pipeline)."""
    a = list(c.coeffs[:10])
    k = max(k for k in range(10) if a[k])
    a[k] = a[k] + ONE
    return Conic.from_coeffs(a + list(c.coeffs[10:]))


def _census_copies():
    """The 800 census conics as fresh copies, in orbit order: nothing kept."""
    gens = catalog.symmetry_generators()
    seeds = [Conic.from_coeffs(c.coeffs) for c in catalog.seed_conics()]
    conics = [c for s in seeds for c in group.orbit_of_conic(gens, s).values()]
    assert len(conics) == 800
    return conics


def _spy_conjugates(monkeypatch):
    """The t of every plane the record lookups of _divided look at."""
    ts = set()
    conjugates = geometry.plane_conjugates

    def spy(plane, f):
        images = conjugates(plane, f)
        ts.update(t for t, _ in images)
        return images

    monkeypatch.setattr(geometry, "plane_conjugates", spy)
    return ts


def test_per_conic_on_surface_divides_once_per_galois_class(fresh_plane_records, monkeypatch):
    """The per-conic census loop makes one section per Galois class of planes.

    The eight automorphisms of K fix f and permute the census, so the first
    conic divided in a class answers for its residual and for the conics of
    every conjugate plane: 160 sections for 400 planes.
    """
    sections = _count_sections(monkeypatch)
    conics = _census_copies()
    f = catalog.surface()
    assert all(c.is_irreducible() and c.on_surface(f) for c in conics)
    assert len(sections) == 160
    assert all(c.residual(f).residual(f) == c for c in conics)
    assert len(sections) == 160


def test_transfer_only_under_automorphisms_that_fix_the_surface(
    fresh_plane_records, monkeypatch
):
    """i*f has the zero set of f, but only the automorphisms that fix i (t =
    2, 4, 6) fix its coefficients: the per-conic loop makes one section per
    orbit of planes under those four, and every quotient is exact."""
    sections = _count_sections(monkeypatch)
    ts = _spy_conjugates(monkeypatch)
    conics = _census_copies()
    f = I * catalog.surface()
    assert all(c.is_irreducible() and c.on_surface(f) for c in conics)
    # no census plane holds s2, so sigma_2 fixes every plane and sigma_6
    # moves each as sigma_4 does: one t per image leaves 0 and 4
    assert ts == {0, 4}
    planes = {c.coeffs[10:] for c in conics}
    classes = {frozenset(geometry.galois_image(b, t) for t in (0, 2, 4, 6)) for b in planes}
    assert len(sections) == len(classes) == 280
    for c in conics:
        assert _quotient(c, f) == _oracle_quotient(c, f)
        assert c.residual(f).residual(f) == c
    assert len(sections) == 280


def test_a_damaged_conic_on_a_conjugate_plane_is_divided(
    census_conics, fresh_plane_records, monkeypatch
):
    """The damaged record of the CI step: the first census conic whose plane
    is the conjugate of an earlier plane, with its last nonzero quadric
    coefficient shifted.  The conjugate plane's division is recorded, but the
    damaged conic is neither its conjugate nor its residual's, so it is
    divided itself and found off the surface; an intact conic of its plane
    is answered from the conjugate record."""
    f = catalog.surface()
    first = {}  # plane -> the first census conic on it
    for c in census_conics:
        plane = c.coeffs[10:]
        earlier = [first[b] for t in range(1, 8) if (b := geometry.galois_image(plane, t)) in first]
        if plane not in first and earlier:
            break
        first.setdefault(plane, c)
    intact = Conic.from_coeffs(earlier[0].coeffs)
    assert intact.on_surface(f)  # divided and recorded
    sections = _count_sections(monkeypatch)
    damaged = _shifted(c)
    assert damaged.coeffs[10:] == c.coeffs[10:]
    assert _oracle_quotient(damaged, f) is None
    assert not damaged.on_surface(f)
    with pytest.raises(NotOnSurface):
        damaged.residual(f)
    assert len(sections) == 1
    for d in census_conics:
        if d.coeffs[10:] == c.coeffs[10:]:
            d = Conic.from_coeffs(d.coeffs)
            assert _quotient(d, f) == _oracle_quotient(d, f)
    assert len(sections) == 1


@pytest.mark.parametrize("edit", ["off_surface", "copy_of_divided", "copy_of_residual"])
def test_the_record_answers_only_for_the_residual(
    census_conics, fresh_plane_records, monkeypatch, edit
):
    """A plane's record answers for the residual of the divided conic a and,
    as t = 0 of the lookup that also covers conjugate planes, for a conic
    equal to a, whose quotient is a's; any other conic of the plane, here
    one off the surface, is divided itself."""
    sections = _count_sections(monkeypatch)
    f = catalog.surface()
    for a, b in _plane_pairs(census_conics, 10, 31):
        assert a.on_surface(f)  # divided and recorded
        d = {
            "off_surface": _shifted(b),
            "copy_of_divided": Conic.from_coeffs(a.coeffs),  # a third conic on the plane
            "copy_of_residual": Conic.from_coeffs(b.coeffs),
        }[edit]
        sections.clear()
        want = _oracle_quotient(d, f)
        assert _quotient(d, f) == want
        assert d.on_surface(f) == (want is not None)
        if want is None:
            with pytest.raises(NotOnSurface):
                d.residual(f)
        else:
            assert d.residual(f) == (b if d == a else a)
        # only a conic off the surface needs a division of its own
        assert len(sections) == (1 if edit == "off_surface" else 0)


def test_the_record_answers_only_for_its_surface(census_conics, fresh_plane_records, monkeypatch):
    """A record answers only for the surface its conic was divided by (the
    same object or an equal form).  Another quartic, and 2f, are worked out
    for b, unless an earlier pair on a conjugate plane already recorded its
    own division by 2f, which answers for b since the automorphisms that
    fix f fix 2f."""
    sections = _count_sections(monkeypatch)
    f = catalog.surface()
    fermat = z0**4 + z1**4 + z2**4 + z3**4
    divided_by_2f = set()
    counts = []
    for a, b in _plane_pairs(census_conics, 10, 37):
        assert a.on_surface(f)
        sections.clear()
        assert b.residual(f) is a
        assert len(sections) == 0
        assert _oracle_quotient(b, fermat) is None
        assert not b.on_surface(fermat)
        assert len(sections) == 1
        assert _quotient(b, 2 * f) == _oracle_quotient(b, 2 * f)
        assert b.residual(2 * f) == a
        plane = b.coeffs[10:]
        conjugate = any(image in divided_by_2f for _, image in geometry.plane_conjugates(plane, f))
        assert len(sections) == (1 if conjugate else 2)
        counts.append(len(sections))
        divided_by_2f.add(plane)
    assert set(counts) == {1, 2}


def test_a_deleted_divided_conic_leaves_no_record(census_conics, fresh_plane_records, monkeypatch):
    sections = _count_sections(monkeypatch)
    f = catalog.surface()
    pairs = _plane_pairs(census_conics, 5, 41)
    while pairs:
        a, b = pairs.pop()  # the list no longer holds a
        assert a.on_surface(f)
        plane, kept = a.coeffs[10:], weakref.ref(a)
        assert geometry._DIVIDED[plane] is a
        del a  # the record keeps no conic alive
        assert kept() is None and plane not in geometry._DIVIDED
        sections.clear()
        assert b.on_surface(f)
        assert len(sections) == 1


def test_residual_needs_a_quartic(fresh_plane_records):
    c1 = catalog.seed_conics()[0]
    plane, quadric = c1.plane, c1.quadric
    for f, d in ((plane * z0**2 + quadric * z1, 3), (plane * z0**4 + quadric * z1**3, 5)):
        assert c1.on_surface(f)
        with pytest.raises(ValueError, match=f"degree {d}"):
            c1.residual(f)
        # only a quartic's division is recorded
        assert c1.coeffs[10:] not in geometry._DIVIDED


def test_section_matches_substitution_for_every_plane_shape():
    """_section against Poly.substitute on planes with one to four nonzero
    coefficients: a pivot row with one entry is sparse and lands on a kept
    variable, one with none sends the pivot to 0."""
    rng = random.Random(23)
    units = (ONE, I, SQRT2, SQRT10, -ONE)
    quartics = [catalog.surface()]
    quartic_monos = dense_monomials(4, 4)[0]
    for _ in range(2):
        terms = {m: rng.choice(units) * kelem(rng.randint(1, 5)) for m in quartic_monos}
        quartics.append(Poly(ZRING, {m: c for m, c in terms.items() if rng.random() < 0.6}))
    monos = dense_monomials(3, 4)[0]
    for f in quartics:
        for pivot in range(4):
            others = [j for j in range(4) if j != pivot]
            for mask in range(8):
                b = [ZERO] * 4
                b[pivot] = ONE
                for k, j in enumerate(others):
                    if mask >> k & 1:
                        b[j] = rng.choice(units) * kelem(rng.randint(1, 3))
                line = sum((-b[j] * ZRING.var(j) for j in others), ZRING.zero())
                want = f.substitute(pivot, line)
                expect = [want.coeff(m[:pivot] + (0,) + m[pivot:]) for m in monos]
                assert geometry._section(f, 4, pivot, b) == expect
