"""Randomized property suites, each at a fixed seed with >= 200 cases.

The suite bodies are cached module-level functions so the acceptance test
can assert on the same runs without paying for them twice.
"""

import functools
import random
from fractions import Fraction

from conic_census import catalog, pipeline
from conic_census.field import KElem, ONE, ZERO, kelem
from conic_census.geometry import intersection_number
from conic_census.group import act_on_conic
from conic_census.groebner import buchberger, normal_form
from conic_census.poly import DEGREVLEX, LEX, Poly, PolyRing

FIELD_CASES = 300
GB_CASES = 200
PERM_CASES = 200
ACTION_CASES = 250
INTERSECTION_CASES = 200


def random_kelem(rng, span=9):
    coords = [Fraction(rng.randint(-span, span), rng.randint(1, span)) for _ in range(8)]
    return KElem.from_text(",".join(map(str, coords)))


@functools.lru_cache(maxsize=None)
def field_axiom_suite(cases=FIELD_CASES, seed=101):
    rng = random.Random(seed)
    failures = []
    for k in range(cases):
        a = random_kelem(rng)
        b = random_kelem(rng)
        c = random_kelem(rng)
        checks = [
            (a + b) + c == a + (b + c),
            (a * b) * c == a * (b * c),
            a + b == b + a,
            a * b == b * a,
            a * (b + c) == a * b + a * c,
            a + ZERO == a,
            a * ONE == a,
            a - a == ZERO,
            KElem.from_text(a.to_text()) == a,
        ]
        if a != ZERO:
            checks.append(a * a.inverse() == ONE)
        t = rng.randrange(8)
        checks.append((a * b).galois(t) == a.galois(t) * b.galois(t))
        if not all(checks):
            failures.append(k)
    return cases, tuple(failures)


def _random_system(rng):
    nvars = rng.choice((2, 2, 3))
    ring = PolyRing(("x", "y", "z")[:nvars], rng.choice((DEGREVLEX, LEX)))
    gens = []
    for _ in range(rng.choice((2, 2, 3))):
        terms = {}
        for _ in range(rng.randint(2, 4)):
            mono = tuple(rng.randint(0, 2) for _ in range(nvars))
            if sum(mono) > 3:
                continue
            coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            if coeff:
                terms[mono] = terms.get(mono, ZERO) + kelem(coeff)
        terms = {m: c for m, c in terms.items() if c}
        if terms:
            gens.append(Poly(ring, terms))
    if not gens:
        gens = [ring.var(0)]
    return ring, gens


def oracle_s_polynomial(f, g):
    """S(f, g) = (L/LT(f)) f - (L/LT(g)) g in Poly arithmetic, with L the
    lcm of the lead monomials."""
    (mf, cf), (mg, cg) = ((p.lead_monomial(), p.lead_coeff()) for p in (f, g))
    lcm = [max(a, b) for a, b in zip(mf, mg)]
    uf = tuple(a - b for a, b in zip(lcm, mf))
    ug = tuple(a - b for a, b in zip(lcm, mg))
    return Poly(f.ring, {uf: 1 / cf}) * f - Poly(f.ring, {ug: 1 / cg}) * g


@functools.lru_cache(maxsize=None)
def groebner_confluence_suite(cases=GB_CASES, seed=202):
    rng = random.Random(seed)
    failures = []
    for k in range(cases):
        ring, gens = _random_system(rng)
        G = buchberger(gens)
        polys = G.polys
        bad = False
        # every S-polynomial reduces to zero
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                if normal_form(oracle_s_polynomial(polys[i], polys[j]), polys):
                    bad = True
        # the input generators lie in the ideal of the basis
        for g in gens:
            if not G.is_trivial() and normal_form(g, polys):
                bad = True
        if bad:
            failures.append(k)
    return cases, tuple(failures)


@functools.lru_cache(maxsize=None)
def groebner_permutation_suite(cases=PERM_CASES, seed=303):
    rng = random.Random(seed)
    failures = []
    for k in range(cases):
        ring, gens = _random_system(rng)
        first = buchberger(gens)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        second = buchberger(shuffled)
        if sorted(str(p) for p in first.polys) != sorted(str(p) for p in second.polys):
            failures.append(k)
    return cases, tuple(failures)


def _random_word(rng, gens):
    m = gens[rng.randrange(len(gens))]
    for _ in range(rng.randint(0, 2)):
        m = m * gens[rng.randrange(len(gens))]
    return m


@functools.lru_cache(maxsize=None)
def action_composition_suite(cases=ACTION_CASES, seed=404):
    rng = random.Random(seed)
    gens = catalog.symmetry_generators()
    pool = list(catalog.seed_conics())
    for _ in range(12):
        pool.append(act_on_conic(_random_word(rng, gens), pool[rng.randrange(len(pool))]))
    failures = []
    for k in range(cases):
        m = _random_word(rng, gens)
        n = _random_word(rng, gens)
        c = pool[rng.randrange(len(pool))]
        # substitution acts on the right: m then n composes as n*m
        if act_on_conic(n * m, c) != act_on_conic(m, act_on_conic(n, c)):
            failures.append(k)
    return cases, tuple(failures)


@functools.lru_cache(maxsize=None)
def intersection_suite(cases=INTERSECTION_CASES, seed=505):
    rng = random.Random(seed)
    pool = pipeline._census_closure()[0]
    gens = catalog.symmetry_generators()
    failures = []
    for k in range(cases):
        c = pool[rng.randrange(len(pool))]
        d = pool[rng.randrange(len(pool))]
        forward = intersection_number(c, d)
        if forward != intersection_number(d, c):
            failures.append(k)
            continue
        m = _random_word(rng, gens)
        if intersection_number(act_on_conic(m, c), act_on_conic(m, d)) != forward:
            failures.append(k)
    return cases, tuple(failures)


ALL_SUITES = (
    ("field axioms", field_axiom_suite),
    ("groebner confluence", groebner_confluence_suite),
    ("groebner permutation invariance", groebner_permutation_suite),
    ("action composition", action_composition_suite),
    ("intersection symmetry and invariance", intersection_suite),
)


def test_field_axioms():
    cases, failures = field_axiom_suite()
    assert cases >= 200
    assert failures == ()


def test_groebner_confluence():
    cases, failures = groebner_confluence_suite()
    assert cases >= 200
    assert failures == ()


def test_groebner_permutation_invariance():
    cases, failures = groebner_permutation_suite()
    assert cases >= 200
    assert failures == ()


def test_action_composition():
    cases, failures = action_composition_suite()
    assert cases >= 200
    assert failures == ()


def test_intersection_symmetry_and_invariance():
    cases, failures = intersection_suite()
    assert cases >= 200
    assert failures == ()
