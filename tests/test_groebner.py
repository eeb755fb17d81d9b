"""Unit tests for Buchberger, FGLM, elimination and the solver."""

import hashlib
import itertools
import random
from fractions import Fraction
from operator import add

import pytest

from conic_census import catalog, groebner
from conic_census.errors import NotZeroDimensional, ResourceBudgetExceeded
from conic_census.field import I, ONE, P, SQRT2, SQRT5, ZERO, dot, kelem
from conic_census.groebner import (
    Budget,
    GroebnerBasis,
    SolveResult,
    _Pack,
    _pending,
    _prep,
    _remainder,
    _s_pending,
    buchberger,
    elimination_ideal,
    fglm,
    ideal_membership,
    inline_linear,
    normal_form,
    restore_inlined,
    solve_system,
    solve_zero_dim,
    standard_monomials,
    zero_dim_degree,
)
from conic_census.poly import DEGREVLEX, LEX, Poly, PolyRing, compress_variables, specialize


@pytest.fixture
def lex2():
    ring = PolyRing(("x", "y"), LEX)
    return (ring,) + tuple(ring.gens())


def test_classic_lex_basis(lex2):
    ring, x, y = lex2
    G = buchberger([x * y - 1, y**2 - 1])
    assert [str(g) for g in G.polys] == ["y^2 - 1", "x - y"]
    # confluence: every S-polynomial reduces to zero over G
    polys = list(G)
    assert not any(
        normal_form(oracle_s_polynomial(f, g), polys)
        for i, f in enumerate(polys)
        for g in polys[i + 1 :]
    )


def test_reduced_basis_is_monic_with_minimal_leads(lex2):
    ring, x, y = lex2
    G = buchberger([2 * x**2 - 2 * y, 3 * y**3 - 3])
    leads = G.lead_monomials()
    for g in G.polys:
        assert g.lead_coeff() == ONE
    # no leading monomial divides another
    for i, m in enumerate(leads):
        for j, m2 in enumerate(leads):
            if i != j:
                assert any(a > b for a, b in zip(m, m2))


def test_s_polynomial(lex2):
    ring, x, y = lex2
    # leads x^2 and x; the x^2 terms cancel
    f, g = x**2 - y, y**2 - x
    assert summed_s_pending(f, g) == oracle_s_polynomial(f, g) == x * y**2 - y


def test_normal_form(lex2):
    ring, x, y = lex2
    G = buchberger([x - y, y**2 - 2])
    assert normal_form(x**2, G.polys) == ring.const(kelem(2))
    assert normal_form(x * y + y, G.polys) == y + 2


def test_budget_trips(lex2):
    ring, x, y = lex2
    # leads x^2*y and x*y^2 are not coprime, so the pair is processed
    gens = [x**2 * y - 1, x * y**2 - 1]
    for budget in (Budget(max_pairs=0), Budget(max_basis=1), Budget(max_terms=1)):
        with pytest.raises(ResourceBudgetExceeded) as err:
            buchberger(gens, budget=budget)
        # a budget stop reports the time it spent, not 0.0
        assert err.value.stats["seconds"] > 0


def test_pair_budget_counts_only_reduced_pairs(lex2):
    ring, x, y = lex2
    gens = [x**3 - y, x**2 * y - x, y**3 - x * y]
    spent = buchberger(gens).trace.pairs_processed
    assert spent > 2
    for cap in (1, 2):
        with pytest.raises(ResourceBudgetExceeded) as err:
            buchberger(gens, budget=Budget(max_pairs=cap))
        assert err.value.stats["pairs_processed"] == cap
    G = buchberger(gens, budget=Budget(max_pairs=spent))
    assert G.trace.pairs_processed == spent


def test_trivial_ideal(lex2):
    ring, x, y = lex2
    G = buchberger([x, x + 1])
    assert G.is_trivial()


def test_zero_dim_degree(lex2):
    ring, x, y = lex2
    G = buchberger([x**2 - 1, y**3 - 1])
    assert zero_dim_degree(G) == 6
    assert sorted(standard_monomials(G)) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
    ]


def test_not_zero_dimensional(lex2):
    ring, x, y = lex2
    G = buchberger([x**2 - y])
    with pytest.raises(NotZeroDimensional):
        zero_dim_degree(G)


def test_fglm_matches_direct_lex():
    drl = PolyRing(("x", "y", "z"))
    x, y, z = drl.gens()
    gens = [x**2 + y**2 - 1, x - y, z]
    via_fglm = fglm(buchberger(gens))
    lex_ring = drl.with_order(LEX)
    direct = buchberger([g for g in (
        Poly(lex_ring, dict(p.terms)) for p in gens
    )])
    assert {str(g) for g in via_fglm.polys} == {str(g) for g in direct.polys}
    assert [str(g) for g in via_fglm.polys] == ["z", "y^2 - 1/2", "x - y"]


def test_elimination_ideal():
    drl = PolyRing(("x", "y", "z"))
    x, y, z = drl.gens()
    G = fglm(buchberger([x**2 + y**2 - 1, x - y, z]))
    elim = elimination_ideal(G, keep={1, 2})
    assert [str(g) for g in elim] == ["z", "y^2 - 1/2"]
    only_z = elimination_ideal(G, keep={2})
    assert [str(g) for g in only_z] == ["z"]


def test_ideal_membership(lex2):
    ring, x, y = lex2
    G = buchberger([x])
    assert ideal_membership(x**2 + x, G)
    assert not ideal_membership(y, G)


def test_inline_linear_round_trip():
    drl = PolyRing(("x", "y", "z"))
    x, y, z = drl.gens()
    gens = [x - y - 1, y**2 - 1, z - 2]
    reduced, subs = inline_linear(gens)
    # x and z were inlined; y survives
    assert [str(p) for p in reduced] == ["y^2 - 1"]
    assert len(subs) == 2
    polys, small, vmap = compress_variables(reduced)
    sol = solve_zero_dim(fglm(buchberger(polys)))
    assert sol.complete
    assert len(sol.points) == 2
    for pt in sol.points:
        values = restore_inlined(
            {old: pt[new] for old, new in vmap.items()}, subs
        )
        full = [values[i] for i in range(3)]
        for g in gens:
            assert g.evaluate(full) == ZERO


def test_solve_zero_dim_in_k():
    drl = PolyRing(("x", "y"))
    x, y = drl.gens()
    sol = solve_zero_dim(fglm(buchberger([x**2 - 2, y - x])))
    assert sol.complete
    got = {tuple(str(c) for c in pt) for pt in sol.points}
    assert got == {("s2", "s2"), ("-s2", "-s2")}


def test_solve_zero_dim_obstruction():
    # x^2 = 3 has no root in K; the solver must say so, not guess
    drl = PolyRing(("x", "y"))
    x, y = drl.gens()
    sol = solve_zero_dim(fglm(buchberger([x**2 - 3, y])))
    assert not sol.complete
    assert sol.points == []
    assert sol.unresolved == [[kelem(-3), ZERO, ONE]]


def test_solve_zero_dim_partly_split_biquadratic():
    # x^4 - 5x^2 + 6 = (x^2 - 2)(x^2 - 3): the roots +-s2 are found and the
    # factor x^2 - 3 is left unresolved
    ring = PolyRing(("x",), LEX)
    x, = ring.gens()
    sol = solve_zero_dim(buchberger([x**4 - 5 * x**2 + 6]))
    assert not sol.complete
    assert sorted(str(pt[0]) for pt in sol.points) == ["-s2", "s2"]
    assert sol.unresolved == [[kelem(-3), ZERO, ONE]]


def test_solve_zero_dim_biquadratic():
    drl = PolyRing(("x",), LEX)
    x, = drl.gens()
    quartic = x**4 + 3 * x**2 + 1
    sol = solve_zero_dim(buchberger([quartic]))
    roots = {str(pt[0]) for pt in sol.points}
    assert sol.complete
    assert len(roots) == 4
    for pt in sol.points:
        assert quartic.evaluate([pt[0]]) == ZERO


def test_trace_counts_work():
    drl = PolyRing(("x", "y"))
    x, y = drl.gens()
    G = buchberger([x**2 * y - 1, x * y**2 - 1])
    assert G.trace is not None
    assert G.trace.pairs_processed > 0



@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=repr)
def test_packed_monomials_match_the_tuple_oracles(order):
    """200 random pairs per order: packed order, product, divisibility, lcm
    and coprimality against ring.key and componentwise <= and max, with
    fields at the packing limit, and every overflow seen at a guard bit."""
    rng = random.Random(31)
    ring = PolyRing(("a", "b", "c", "d", "e"), order)
    pk = _Pack(ring)
    top = groebner._LIMIT
    field = max if order == LEX else sum  # the largest packed field

    def mono():
        # the largest field small, about half the limit, or at the limit
        cap = rng.choice((3, top // 2, top))
        m = [0] * ring.n
        for i in rng.sample(range(ring.n), ring.n):
            room = cap - (0 if order == LEX else sum(m))
            m[i] = rng.choice((0, room, rng.randint(0, room)))
        return tuple(m)

    for _ in range(200):
        a, b = mono(), mono()
        ea, eb = pk.pack(a), pk.pack(b)
        da, db = pk.expo(ea), pk.expo(eb)
        assert field(a) <= top and pk.unpack(ea) == a and pk.enc(da) == ea
        assert (ea < eb) == (ring.key(a) < ring.key(b)) and (ea == eb) == (a == b)
        assert pk.divides(da, db) == all(x <= y for x, y in zip(a, b))
        prod = tuple(map(add, a, b))
        if field(prod) <= top:
            assert ea + eb == pk.pack(prod)
        else:
            assert (ea + eb) & pk.guard and pk.unpack(ea + eb) == prod
        lcm = tuple(map(max, a, b))
        e = pk.enc(pk.lcm(da, db))
        assert pk.unpack(e) == lcm and bool(e & pk.guard) == (field(lcm) > top)
        coprime = all(x == 0 or y == 0 for x, y in zip(a, b))
        assert (pk.lcm(da, db) == da + db) == coprime


def test_exponent_past_the_packing_limit_stops_the_run(lex2):
    ring, x, y = lex2
    top = groebner._LIMIT
    assert buchberger([x**top - y, y**2 - 1]).polys[-1] == x**top - y
    for gens in (
        [x ** (top + 1) - y, y**2 - 1],  # an input exponent
        [x - y**100, x**2 - 1],  # reducing x^2 reaches y^200
    ):
        with pytest.raises(ResourceBudgetExceeded, match="an exponent over 127"):
            buchberger(gens)
    drl = PolyRing(("x", "y"))
    u, v = drl.gens()
    with pytest.raises(ResourceBudgetExceeded, match="its degree"):
        buchberger([u**64 * v**64 - 1])


def test_overflow_inside_a_run_carries_its_stats(lex2):
    ring, x, y = lex2
    with pytest.raises(ResourceBudgetExceeded, match="an exponent over 127") as err:
        buchberger([x - y**100, x**2 - 1])  # reducing x^2 reaches y^200
    stats = err.value.stats
    assert set(stats) == set(vars(groebner.GroebnerTrace()))
    assert (stats["pairs_processed"], stats["basis_max"], stats["terms_max"]) == (0, 1, 2)
    assert stats["seconds"] > 0

def oracle_normal_form(p, divisors):
    """Term-at-a-time division: the largest remaining term is reduced by the
    first divisor whose lead divides it, and every update is normalised at
    once."""
    divisors = [g for g in divisors if g]
    key = p.ring.key
    rest = dict(p.terms)
    out = {}
    while rest:
        m = max(rest, key=key)
        c = rest.pop(m)
        g = next(
            (g for g in divisors if all(a >= b for a, b in zip(m, g.lead_monomial()))),
            None,
        )
        if g is None:
            out[m] = c
            continue
        gm, gc = g.lead_monomial(), g.lead_coeff()
        q = c / gc
        qm = tuple(a - b for a, b in zip(m, gm))
        for tm, tc in g.terms.items():
            if tm != gm:
                nm = tuple(a + b for a, b in zip(tm, qm))
                v = rest.get(nm, ZERO) - q * tc
                if v:
                    rest[nm] = v
                else:
                    del rest[nm]
    return Poly(p.ring, out)


def oracle_s_polynomial(f, g):
    """S(f, g) = (L/LT(f)) f - (L/LT(g)) g in Poly arithmetic, with L the
    lcm of the lead monomials."""
    (mf, cf), (mg, cg) = ((p.lead_monomial(), p.lead_coeff()) for p in (f, g))
    lcm = [max(a, b) for a, b in zip(mf, mg)]
    uf = tuple(a - b for a, b in zip(lcm, mf))
    ug = tuple(a - b for a, b in zip(lcm, mg))
    return Poly(f.ring, {uf: 1 / cf}) * f - Poly(f.ring, {ug: 1 / cg}) * g


def summed_s_pending(f, g):
    """S(f, g) as buchberger forms it: groebner._s_pending, each pending
    coefficient summed."""
    pk = _Pack(f.ring)
    work = _s_pending(pk, _prep(pk, pk.terms(f)), _prep(pk, pk.terms(g)))
    terms = ((m, dot(xs, ys)) for m, (xs, ys) in work.items())
    return pk.poly((m, c) for m, c in terms if c)


# non-monic integers, rationals and irrationals
COEFFS = (
    ONE,
    kelem(-2),
    kelem(Fraction(3, 7)),
    kelem(Fraction(-5, 4)),
    SQRT2,
    I - SQRT5,
    kelem(Fraction(1, 3)) * SQRT2 + I,
)


def _random_poly(rng, ring, terms, degree):
    out = {}
    for _ in range(terms):
        m = tuple(rng.randint(0, degree) for _ in range(ring.n))
        out[m] = rng.choice(COEFFS)
    return Poly(ring, out)  # COEFFS has no zero


@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=repr)
def test_normal_form_matches_oracle_on_random_divisors(order):
    rng = random.Random(7)
    ring = PolyRing(("x", "y", "z"), order)
    for _ in range(25):
        divisors = [_random_poly(rng, ring, rng.randint(1, 4), 2) for _ in range(4)]
        # combinations of the divisors cancel their leads when reduced
        p = _random_poly(rng, ring, 5, 3)
        for g in divisors:
            p = p + g * _random_poly(rng, ring, 2, 1)
        assert normal_form(p, divisors) == oracle_normal_form(p, divisors)
        f, g = divisors[:2]
        assert summed_s_pending(f, g) == oracle_s_polynomial(f, g)
        # one memo while the divisor list grows, as in buchberger
        pk = _Pack(ring)
        prepared, memo = [], {}
        for k, g in enumerate(divisors, start=1):
            prepared.append(_prep(pk, pk.terms(g)))
            got = pk.poly(_remainder(pk, _pending(pk.terms(p)), prepared, memo, dot))
            assert got == oracle_normal_form(p, divisors[:k])


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.fixture(scope="module")
def case_ii():
    polys = catalog.gauge_fixed_system("ii")[0]
    return polys, buchberger(polys)


def test_normal_form_matches_oracle_on_case_ii_s_polynomials(case_ii):
    polys, G = case_ii
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            s = oracle_s_polynomial(polys[i], polys[j])
            assert normal_form(s, polys) == oracle_normal_form(s, polys)
            assert not normal_form(s, G.polys)


@pytest.fixture
def filter_forced(monkeypatch):
    """Engage the mod-P filter at the first basis element with a tail."""
    monkeypatch.setattr(groebner, "_HEIGHT", 0)


@pytest.fixture
def closings(monkeypatch):
    """The closing runs solve_system starts, each recorded as the pairs
    already processed when it starts: the unfiltered runs on a trace that
    has skipped pairs (a buchberger run starts from an empty one)."""
    runs = []
    run = groebner._run

    def spy(pk, starts, budget, trace, t0, filtering):
        if not filtering and trace.pairs_mod_p:
            runs.append(trace.pairs_processed)
        return run(pk, starts, budget, trace, t0, filtering)

    monkeypatch.setattr(groebner, "_run", spy)
    return runs


def test_unlucky_prime_is_mended_by_the_closing_run(lex2, filter_forced, closings):
    ring, x, y = lex2
    # S(x^2 - P*y, x*y) = -P*y^2 vanishes mod P but not over K
    gens = [x**2 - P * y, x * y]
    G = solve_system(gens)[0]
    assert list(G.polys) == [y**2, x * y, x**2 - P * y]
    t = G.trace
    # the filtered run skips its one pair; the closing run reduces more
    assert t.pairs_mod_p == 1 and closings == [1] and t.pairs_processed > 1
    # the pair cap covers both runs
    spent = t.pairs_processed
    solve_system(gens, budget=Budget(max_pairs=spent))
    with pytest.raises(ResourceBudgetExceeded) as err:
        solve_system(gens, budget=Budget(max_pairs=spent - 1))
    assert err.value.stats["pairs_mod_p"] == 1


def test_unforced_filter_stays_off_below_its_height(lex2, closings):
    ring, x, y = lex2
    G = solve_system([x**2 - P * y, x * y])[0]
    assert list(G.polys) == [y**2, x * y, x**2 - P * y]
    assert G.trace.pairs_mod_p == 0 and closings == []


def test_denominator_divisible_by_p_turns_the_filter_off(lex2, monkeypatch, closings):
    ring, x, y = lex2
    gens = [x**2 * y - kelem(Fraction(1, P)), x * y**2 - 1, x**3 - y]
    want = buchberger(gens)
    monkeypatch.setattr(groebner, "_HEIGHT", 0)
    G = solve_system(gens)[0]
    assert G.polys == want.polys
    assert G.trace.pairs_mod_p == 0 and closings == []
    assert _counts(G.trace) == _counts(want.trace)


@pytest.fixture(scope="module")
def split_fibers():
    # the case (iii) ansatz system on the plane of each split fiber,
    # z2 - alpha*z3: a4 = 1 and a = -alpha fixed, its linear part inlined;
    # zero dimensional of degree 2, one point per ordering of the two conics
    ring, eqs = catalog.ansatz_equations("iii")
    systems = []
    for alpha in catalog.split_parameters():
        fixed = {ring.index("a4"): ONE, ring.index("a"): -alpha}
        red, _ = inline_linear([e for e in (specialize(e, fixed) for e in eqs) if e])
        systems.append(compress_variables(red)[0])
    return systems


def test_buchberger_never_filters(split_fibers, monkeypatch):
    want = [buchberger(polys) for polys in split_fibers]
    monkeypatch.setattr(groebner, "_HEIGHT", 0)
    for polys, plain in zip(split_fibers, want):
        G = buchberger(polys)
        assert G.trace.pairs_mod_p == 0
        assert G.polys == plain.polys
        assert _counts(G.trace) == _counts(plain.trace)


# work counts (pairs processed and discarded, zero reductions, peak basis and
# terms, pairs skipped mod P) of buchberger, and outputs of the ansatz
# systems, pinned so that a change to the reduction loop or the pair
# criteria cannot alter them unnoticed
PINNED = {
    "ii": (
        (776, 2786, 519, 266, 4642, 0),
        "3b5860822c55224ee37c214fe82e6170d1946effa6e912356b4b8b2979fdc6aa",
        "bb1a8b4b82b221dcce6e45a9a6ca12854812aa55c4bb7317d0f7bca721d2905a",
    ),
    "iii": (
        (65, 99, 43, 31, 144, 0),
        "32f068d60a9e71f66afa035a27b363e93360aaaeb8edd27fad28e6c3fd9ea883",
        "786795624913e318b47f54fcee5f9d999e3b58c8ca690548497bc41fb2af5619",
    ),
}


def _counts(trace):
    return {k: v for k, v in vars(trace).items() if k != "seconds"}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_ansatz_trace_basis_and_points_pinned(case, case_ii):
    counts, basis_sha, points_sha = PINNED[case]
    G = case_ii[1] if case == "ii" else buchberger(catalog.gauge_fixed_system(case)[0])
    assert tuple(_counts(G.trace).values()) == counts
    assert _digest(str(g) for g in G.polys) == basis_sha
    sol = solve_zero_dim(fglm(G), hints=catalog.solver_hints(case))
    assert sol.complete
    assert _digest(" ".join(v.to_text() for v in pt) for pt in sol.points) == points_sha


def test_solve_system_certifies_case_ii_by_its_points(case_ii, monkeypatch, closings):
    polys, want = case_ii
    counts, basis_sha, points_sha = PINNED["ii"]
    walked = []  # the bases whose standard monomials are walked
    bounds = groebner._pure_power_bounds
    monkeypatch.setattr(groebner, "_pure_power_bounds", lambda B: walked.append(B) or bounds(B))
    G, Gl, sol = solve_system(polys, hints=catalog.solver_hints("ii"))
    # fglm, the count and the report line share one walk of G
    assert zero_dim_degree(G) == 64 and sum(B is G for B in walked) == 1
    # the plain run's work, of which 518 zero reductions are found mod P and
    # certified by the 64 points, with no closing run
    assert tuple(_counts(G.trace).values()) == counts[:5] + (518,)
    assert closings == []
    assert _digest(str(g) for g in G.polys) == basis_sha
    assert G.polys == want.polys
    assert Gl.polys == fglm(want).polys
    assert _digest(" ".join(v.to_text() for v in pt) for pt in sol.points) == points_sha


def test_solve_system_matches_buchberger_where_no_pair_is_skipped(split_fibers):
    systems = [(catalog.gauge_fixed_system("iii")[0], catalog.solver_hints("iii"))]
    systems += [(polys, ()) for polys in split_fibers]
    for polys, hints in systems:
        G, Gl, sol = solve_system(polys, hints=hints)
        want = buchberger(polys)
        assert G.polys == want.polys
        assert Gl.polys == fglm(want).polys
        assert sol == solve_zero_dim(fglm(want), hints)
        assert _counts(G.trace) == _counts(want.trace)
        assert G.trace.pairs_mod_p == 0


def test_filtered_split_fibers_are_certified_by_their_points(
    split_fibers, filter_forced, closings
):
    for polys in split_fibers:
        G, _, sol = solve_system(polys)
        assert G.trace.pairs_mod_p > 0 and closings == []
        assert len(sol.points) == 2
        assert G.polys == buchberger(polys).polys


@pytest.mark.parametrize("extra", [0, 1], ids=["not-zero-dimensional", "count-fails"])
def test_skipped_pair_nonzero_over_k_falls_back_to_the_closing_run(
    lex2, filter_forced, closings, extra
):
    ring, x, y = lex2
    # S(x^2 - P*y, x*y) = -P*y^2 vanishes mod P but not over K.  Without it
    # the basis has no pure power of y; with y^3 - y added it has four
    # standard monomials but one point, (0, 0)
    gens = [x**2 - P * y, x * y, y**3 - y][: 2 + extra]
    G, Gl, sol = solve_system(gens)
    assert G.polys == buchberger(gens).polys
    assert G.trace.pairs_mod_p > 0 and len(closings) == 1
    assert G.trace.pairs_processed > closings[0]
    assert sol.points == [(ZERO, ZERO)]
    assert zero_dim_degree(G) == 3 - extra


def _drop(points):
    return points[1:]


def _perturb(points):
    x, *rest = points[0]
    return [(x + ONE, *rest)] + points[1:]


def _repeat(points):
    return points[:-1] + points[:1]


@pytest.mark.parametrize("mutate", [_drop, _perturb, _repeat], ids=["drop", "perturb", "repeat"])
def test_mutated_points_never_certify_a_basis(
    split_fibers, filter_forced, closings, monkeypatch, mutate
):
    solve = groebner.solve_zero_dim

    def mutated(Gl, hints=()):
        return SolveResult(mutate(solve(Gl, hints).points), [])

    monkeypatch.setattr(groebner, "solve_zero_dim", mutated)
    polys = split_fibers[0]
    G = solve_system(polys)[0]
    assert G.trace.pairs_mod_p > 0 and len(closings) == 1
    assert G.polys == buchberger(polys).polys


def _box_scan(G):
    """Standard monomials by testing every monomial below the pure-power
    bounds, in increasing ring order."""
    leads = G.lead_monomials()
    bounds = [
        min(m[i] for m in leads if m[i] and sum(m) == m[i]) for i in range(G.ring.n)
    ]
    out = [
        m
        for m in itertools.product(*map(range, bounds))
        if not any(all(a >= b for a, b in zip(m, lm)) for lm in leads)
    ]
    return sorted(out, key=G.ring.key)


def _random_zero_dim_bases(rng, count):
    """Reduced bases of random zero-dimensional monomial ideals: a pure power
    of every variable and a few monomials inside their box, which cut a
    random staircase out of it."""
    out = []
    for k in range(count):
        n = 2 + k % 3
        ring = PolyRing(tuple("xyzw"[:n]), (LEX, DEGREVLEX)[k % 2])
        tops = [rng.randint(2, 6) for _ in range(n)]
        monos = [tuple(top if j == i else 0 for j in range(n)) for i, top in enumerate(tops)]
        for _ in range(rng.randint(2, 5)):
            m = tuple(rng.randrange(top) for top in tops)
            if any(m):
                monos.append(m)
        out.append(buchberger([Poly(ring, {m: ONE}) for m in monos]))
    return out


def test_standard_monomials_match_the_box_scan(case_ii):
    G_iii = buchberger(catalog.gauge_fixed_system("iii")[0])
    bases = [case_ii[1], G_iii] + _random_zero_dim_bases(random.Random(41), 12)
    sizes = []
    for G in bases:
        std = standard_monomials(G)
        assert std == _box_scan(G)
        assert zero_dim_degree(G) == len(std)
        sizes.append(len(std))
    assert sizes[:2] == [64, 16]
    assert all(sizes[2:])


def test_standard_monomials_walk_tests_only_the_border(case_ii, monkeypatch):
    tested = []
    pack = _Pack.pack
    monkeypatch.setattr(_Pack, "pack", lambda self, m: tested.append(m) or pack(self, m))
    G = GroebnerBasis(case_ii[1].ring, case_ii[1].polys)  # not walked yet
    std = standard_monomials(G)
    leads = len(G.polys)
    # each candidate is a standard monomial or one step past one
    assert len(std) == 64
    assert len(tested) - leads - len(std) <= len(std) * G.ring.n
    tested.clear()
    assert standard_monomials(G) == std and tested == []  # walked once per basis
