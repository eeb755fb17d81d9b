"""Unit tests for the multivariate polynomial layer."""

import random
from fractions import Fraction

import pytest

from conic_census import catalog
from conic_census.field import I, ONE, SQRT2, SQRT5, ZERO, kelem
from conic_census.linalg import mat_det
from conic_census.poly import (
    DEGREVLEX,
    LEX,
    Poly,
    PolyRing,
    compress_variables,
    poly_from_uni,
    ring_map,
    specialize,
    substitute_linear,
    uni_coeffs,
    uni_gcd_coeffs,
    uni_monic,
    uni_mul,
    uni_squarefree,
)
from oracles import divide_exact


@pytest.fixture
def xyz():
    ring = PolyRing(("x", "y", "z"))
    return (ring,) + tuple(ring.gens())


def test_ring_equality_includes_order():
    a = PolyRing(("x", "y"))
    b = PolyRing(("x", "y"), LEX)
    assert a == PolyRing(("x", "y"), DEGREVLEX)
    assert a != b
    assert a.with_order(LEX) == b


def test_arithmetic(xyz):
    ring, x, y, z = xyz
    p = (x + y) ** 2
    assert p == x**2 + 2 * x * y + y**2
    assert p - p == ring.zero()
    assert (x - y) * (x + y) == x**2 - y**2
    assert 3 * x == x + x + x
    assert (x + ring.const(Fraction(1, 2))) * 2 == 2 * x + 1


def test_coefficients_live_in_k(xyz):
    ring, x, y, z = xyz
    p = SQRT2 * x + I * y
    assert p * p == 2 * x**2 + 2 * I * SQRT2 * x * y - y**2


def test_degrevlex_leading_monomial(xyz):
    # degree first, then smaller exponents on later variables win
    ring, x, y, z = xyz
    assert (x**2 * z + x * y * z).lead_monomial() == (2, 0, 1)
    assert (x * y**2 + x**2 * y).lead_monomial() == (2, 1, 0)
    assert (z**3 + x * y).lead_monomial() == (0, 0, 3)


def test_lex_leading_monomial():
    ring = PolyRing(("x", "y", "z"), LEX)
    x, y, z = ring.gens()
    assert (x * y**3 + y * z**5).lead_monomial() == (1, 3, 0)
    assert (x + y**9).lead_monomial() == (1, 0, 0)


def test_str_rendering(xyz):
    ring, x, y, z = xyz
    p = x**2 - 2 * y + ring.const(Fraction(1, 2)) * z
    assert str(p) == "x^2 - 2*y + 1/2*z"
    assert str(ring.zero()) == "0"


def test_degree_queries(xyz):
    ring, x, y, z = xyz
    p = x**3 * y + z**2
    assert p.total_degree() == 4
    assert p.degree_in(0) == 3
    assert p.degree_in(2) == 2


def test_substitute_and_evaluate(xyz):
    ring, x, y, z = xyz
    p = x**2 + y * z
    assert p.substitute(0, kelem(2)) == ring.const(kelem(4)) + y * z
    assert p.evaluate([kelem(2), kelem(3), kelem(5)]) == kelem(19)
    assert p.evaluate([SQRT2, ZERO, ONE]) == kelem(2)


def test_partial_derivative(xyz):
    ring, x, y, z = xyz
    p = x**3 + x * y**2 + 4 * z
    assert p.partial_derivative(0) == 3 * x**2 + y**2
    assert p.partial_derivative(1) == 2 * x * y
    assert p.partial_derivative(2) == ring.const(kelem(4))


def test_monic(xyz):
    ring, x, y, z = xyz
    p = 2 * x**2 + 4 * y
    assert p.monic() == x**2 + 2 * y
    assert p.monic().lead_coeff() == ONE


def test_ring_map(xyz):
    ring, x, y, z = xyz
    target = PolyRing(("u", "v"))
    u, v = target.gens()
    image = ring_map(x**2 + y * z, target, [u, v, target.const(ONE)])
    assert image == u**2 + v


def test_substitute_linear_permutation(xyz):
    ring, x, y, z = xyz
    # swap x and y, negate z
    rows = [
        [ZERO, ONE, ZERO],
        [ONE, ZERO, ZERO],
        [ZERO, ZERO, -ONE],
    ]
    p = x**2 + x * z + y
    assert substitute_linear(p, rows) == y**2 - y * z + x


def _ring_map_oracle(p, rows):
    """p(M*z) through ring_map and Poly powers, row i the image of variable i."""
    ring = p.ring
    images = [sum((c * z for c, z in zip(row, ring.gens())), ring.zero()) for row in rows]
    return ring_map(p, ring, images)


def _random_k(rng):
    """A small element of K with i, sqrt(2) and sqrt(5) parts."""
    parts = (ONE, I, SQRT2, SQRT5, I * SQRT2, SQRT2 * SQRT5)
    return sum(
        (kelem(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) * b for b in rng.sample(parts, 3)),
        ZERO,
    )


def _random_matrix(rng, n, kind):
    """n x n over K: dense, a scaled permutation, or some rows of each."""
    perm = rng.sample(range(n), n)
    rows = []
    for i in range(n):
        if kind == "dense" or (kind == "mixed" and rng.random() < 0.5):
            rows.append([_random_k(rng) for _ in range(n)])
        else:
            row = [ZERO] * n
            row[perm[i]] = rng.choice((ONE, -ONE, I, _random_k(rng)))
            rows.append(row)
    return rows


def _random_poly(rng, ring, degrees=(0, 1, 2, 3, 4)):
    terms = {}
    for _ in range(8):
        d = rng.choice(degrees)
        m = [0] * ring.n
        for _ in range(d):
            m[rng.randrange(ring.n)] += 1
        terms[tuple(m)] = _random_k(rng)
    return Poly(ring, {m: c for m, c in terms.items() if c})


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("order", [LEX, DEGREVLEX], ids=repr)
def test_substitute_linear_matches_ring_map(n, order):
    rng = random.Random(17 * n + len(repr(order)))
    ring = PolyRing(tuple(f"x{i}" for i in range(n)), order)
    checked = 0
    for kind in ("dense", "mixed", "sparse") * 4:
        rows = _random_matrix(rng, n, kind)
        p = _random_poly(rng, ring)
        got = substitute_linear(p, rows)
        assert got.ring == ring
        assert got == _ring_map_oracle(p, rows)
        checked += bool(mat_det(rows))  # invertible matrices checked
    assert checked >= 10


def test_substitute_linear_singular_matrix(xyz):
    ring, x, y, z = xyz
    rows = [[ONE, I, SQRT2], [SQRT5, ZERO, ONE], [ONE + SQRT5, I, SQRT2 + ONE]]
    assert not mat_det(rows)  # row 3 = row 1 + row 2
    # p(M*z) is defined for any square M
    p = x**2 + y
    assert substitute_linear(p, rows) == _ring_map_oracle(p, rows)


def test_symmetry_generators_preserve_the_surface():
    f = catalog.surface()
    for m in catalog.symmetry_generators() + catalog.kummer_generators():
        assert substitute_linear(f, m.rows) == _ring_map_oracle(f, m.rows) == f


def test_specialize(xyz):
    ring, x, y, z = xyz
    q = specialize(x**2 + y * z, {1: kelem(3)})
    assert q == x**2 + 3 * z


# values for substitution: zero, one, integers, rationals and irrationals
SUBST_VALUES = (
    ZERO,
    ONE,
    kelem(-3),
    kelem(Fraction(2, 5)),
    SQRT2,
    I * SQRT2 - kelem(Fraction(1, 3)),
)


def test_specialize_matches_iterated_substitution():
    # the last variable never occurs in the polynomials
    ring = PolyRing(("w", "x", "y", "z"))
    rng = random.Random(41)
    powers = {}  # shared across calls, as solve_zero_dim shares it
    for _ in range(80):
        terms = {}
        for _ in range(rng.randint(1, 8)):
            m = tuple(rng.randint(0, 4) for _ in range(3)) + (0,)
            terms[m] = rng.choice(SUBST_VALUES[1:]) * rng.randint(-3, 3)
        p = Poly(ring, {m: c for m, c in terms.items() if c})  # zero terms dropped
        chosen = rng.sample(range(4), rng.randint(0, 4))
        assignment = {i: rng.choice(SUBST_VALUES) for i in chosen}
        want = p
        for i, v in assignment.items():
            want = want.substitute(i, v)
        assert specialize(p, assignment) == want
        assert specialize(p, assignment, powers=powers) == want
        point = [rng.choice(SUBST_VALUES) for _ in range(4)]
        full = specialize(p, dict(enumerate(point)), powers=powers)
        assert full == ring.const(p.evaluate(point))


def test_divide_exact(xyz):
    ring, x, y, z = xyz
    assert divide_exact(x**2 + x * y, x) == x + y
    assert divide_exact((x + y) * (x - y), x + y) == x - y
    assert divide_exact(x**2 + y, x) is None


def test_compress_variables(xyz):
    ring, x, y, z = xyz
    polys, small, vmap = compress_variables([x**2 + x, x * z])
    assert small.names == ("x", "z")
    assert vmap == {0: 0, 2: 1}
    u, w = small.gens()
    assert polys == [u**2 + u, u * w]


def test_compress_variables_extra_keep(xyz):
    ring, x, y, z = xyz
    polys, small, vmap = compress_variables([x**2], extra_keep=(2,))
    assert set(small.names) == {"x", "z"}


def test_uni_round_trip():
    ring = PolyRing(("t",))
    t, = ring.gens()
    p = t**3 - 2 * t + 5
    cs = uni_coeffs(p, 0)
    assert [str(c) for c in cs] == ["5", "-2", "0", "1"]
    assert poly_from_uni(ring, 0, cs) == p


def test_uni_gcd_and_friends():
    ring = PolyRing(("t",))
    t, = ring.gens()
    g = uni_gcd_coeffs(uni_coeffs((t**2 - 1) * (t + 2) * 3, 0), uni_coeffs((t**2 - 1) * 7, 0))
    assert g == uni_coeffs(t**2 - 1, 0)
    assert uni_squarefree(uni_coeffs((t - 1) ** 2 * (t + 1), 0)) == uni_coeffs(t**2 - 1, 0)


def _random_factored(rng, ring):
    """A random (c * prod (t - r_k)^e_k, prod (t - r_k)^(e_k - 1), prod (t - r_k))
    over K, the r_k distinct, the e_k in 1..3 and c a nonzero constant."""
    t, = ring.gens()
    pool = {
        kelem(Fraction(n, d)) * u for n in range(-4, 5) for d in (1, 3) for u in (ONE, I, SQRT2, SQRT5)
    }
    roots = rng.sample(sorted(pool, key=str), rng.randint(1, 4))
    p = ring.const(rng.choice(SUBST_VALUES[1:]) + 2 * SQRT5)
    g = s = ring.one
    for r in roots:
        e = rng.randint(1, 3)
        p = p * (t - r) ** e
        g = g * (t - r) ** (e - 1)
        s = s * (t - r)
    return p, g, s


def test_uni_mul_and_squarefree_match_the_poly_oracle():
    # uni_squarefree is cs / gcd(cs, cs'); for p = c * prod (t - r_k)^e_k with
    # distinct r_k, gcd(p, p') = prod (t - r_k)^(e_k - 1), so the oracle is
    # divide_exact(p, that gcd) made monic
    ring = PolyRing(("t",))
    rng = random.Random(23)
    for _ in range(40):
        a, ga, sa = _random_factored(rng, ring)
        b, gb, sb = _random_factored(rng, ring)
        assert uni_mul(uni_coeffs(a, 0), uni_coeffs(b, 0)) == uni_coeffs(a * b, 0)
        for p, g, s in ((a, ga, sa), (b, gb, sb)):
            want = divide_exact(p, g).monic()
            assert want == s
            assert uni_squarefree(uni_coeffs(p, 0)) == uni_coeffs(want, 0)
            assert uni_monic(uni_coeffs(p, 0)) == uni_coeffs(p.monic(), 0)
    assert uni_mul([], uni_coeffs(a, 0)) == []


def test_poly_equality_requires_same_order():
    a = PolyRing(("x", "y"))
    b = PolyRing(("x", "y"), LEX)
    xa, ya = a.gens()
    xb, yb = b.gens()
    assert xa + ya != xb + yb
    assert str(xa + ya) == str(xb + yb)
