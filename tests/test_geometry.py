"""Unit tests for conics as (plane, quadric) pairs."""

import random

import pytest

from conic_census import catalog
from conic_census import geometry
from conic_census.errors import CommonComponent, DegenerateConic, NotOnSurface
from conic_census.field import I, ONE, SQRT2, SQRT10, ZERO, dot, kelem
from conic_census.geometry import (
    Conic,
    ZRING,
    hypersurface_smooth,
    intersection_number,
)
from conic_census.linalg import mat_det
from conic_census.poly import Poly, PolyRing, dense_monomials, divide_exact


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
    rng = random.Random(11)
    by_plane = {}
    for c in census_conics:
        by_plane.setdefault(c.coeffs[10:], []).append(c)
    for c, d in rng.sample(list(by_plane.values()), 10):
        with pytest.raises(CommonComponent):
            c.point_on_plane_line(d)
    for _ in range(200):
        c, d = rng.sample(census_conics, 2)
        if c.coeffs[10:] == d.coeffs[10:]:
            continue
        s, t = c.point_on_plane_line(d)
        for b in (c.coeffs[10:], d.coeffs[10:]):
            assert not dot(b, s) and not dot(b, t)
        assert any(s[i] * t[j] - s[j] * t[i] for i in range(4) for j in range(i + 1, 4))


def test_quotient_is_kept_per_surface(census_conics, monkeypatch):
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
        assert c._quotient(2 * f) == 2 * want
        assert c.on_surface(f)
        assert c.residual(f) == Conic(c.plane, want)
        assert len(sections) == 4
        sections.clear()


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
