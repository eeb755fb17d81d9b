"""Groebner bases over K: Buchberger, normal forms, elimination, solving.

The pair queue uses the normal selection strategy (smallest lcm total degree
first, ties broken by the lcm in the active order) with the coprime and chain
criteria applied Gebauer-Moeller style.  The M and F criteria group the new
pairs by lcm and visit the groups by increasing degree: a group is dropped
when the lcm of a kept group divides its own, since a proper divisor always
has a lower total degree.  All runs are deterministic for a fixed generator
list and are guarded by explicit resource budgets.  A reduced basis is
produced by minimalization plus full tail interreduction, so equal ideals
yield identical bases.

Inside this module a monomial is one int E of n one-byte fields (Monagan
and Pearce, J. Symb. Comp. 46, 2011): top first, the degree and the partial
sums s_{n-2}, ..., s_0 with s_j = e_0 + ... + e_j for degrevlex, and
e_0, ..., e_{n-1} for lex.  Integer order is the ring's order and
E(m m') = E(m) + E(m'), so the reduction heap holds -E and a term times a
quotient is one addition.  Divisibility and lcm act on the exponent form D,
one exponent per field: D = E for lex, D = (E - (E << 8)) & mask and
E = (D * R) & mask for degrevlex, R having a 1 in every field.  With H the
top (guard) bit of every field, a divides b exactly when
((D_b | H) - D_a) & H == H, and an lcm takes a few more such operations.  A
field holds at most _LIMIT, so a sum of two fields never carries: packed
input, each lcm, and each term a reduction or the FGLM walk is about to use
are checked, and a set guard bit raises ResourceBudgetExceeded naming the
monomial; inside a Buchberger run it carries the run's statistics, as the
pair, basis and term stops do.  Polys keep exponent tuples, packed on entry
and unpacked on exit.

Normal forms delay coefficient normalisation: a pending coefficient is a
pair of factor lists, each reduction step appends one product to it, and it
is summed by one field.dot (one gcd reduction) when its monomial becomes the
leading one; a zero sum is a cancelled term.  S-polynomials enter the
reduction the same way, without being formed as polynomials.  Each
Buchberger run keeps one divisor memo, monomial -> (index of its first
divisor in the basis, basis length scanned); the basis only grows by
appending, so a recorded divisor stays the first one, and a monomial with
none is rescanned only over the elements added since.

solve_system filters S-pairs modulo the prime P of field.mod_p, a Groebner
trace in the sense of Traverso (ISSAC 1988) and Arnold (J. Symb. Comp. 35,
2003); buchberger never does.  The run engages the filter when a basis
element gets a coefficient whose numerator or denominator is longer than
P.bit_length() bits; runs that never get there do no modular work.  From
then on every basis element (monic) also has an F_P entry, the images of
its tail, and each S-pair is first reduced over F_P by the same loop, its
coefficients summed as integer products mod P, stopping at the first
irreducible term.  The divisor of a monomial depends on the monomial only,
so the F_P remainder is the image of the K remainder: a pair that reduces
to zero over K vanishes mod P, and a pair that does not vanish is reduced
over K exactly as without the filter.  A pair that vanishes mod P is
counted as a zero reduction and not reduced over K; the filter is off for
the rest of the run once P divides a denominator.

A skipped pair may still be nonzero over K, so solve_system certifies the
filtered basis by a count.  Let G be the reduced basis of the filtered run,
I the ideal of the generators and D the number of standard monomials of G.
Every element of G lies in I, so LT(G) lies in LT(I) and
dim_K K[x]/I <= D.  If D distinct points of K^n each zero every generator
exactly, then I has at least D zeros, and over an algebraic closure at
most dim_K K[x]/I, so dim_K K[x]/I = D.  Then LT(I) and the ideal of LT(G)
have the same D standard monomials, hence are equal: G is the reduced
basis of I, I is radical and the points are all of its zeros.  The points
come from fglm(G) and solve_zero_dim, but the count does not trust them.
Any other outcome, or a G that is not zero-dimensional, starts the
closing run: a plain run over K, with no filter, from G followed by the
input generators.  These generate the same ideal, so its result is the
reduced basis whatever P is; an unlucky P costs time only.

For zero-dimensional ideals an FGLM order conversion is provided: it turns a
reduced basis in any order into the (unique) reduced lex basis by linear
algebra in the quotient, which is far cheaper in this implementation than a
direct lex run on the larger systems.
"""

import heapq
import time
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter

from .errors import (
    NotZeroDimensional,
    OrderNotEliminating,
    OrderNotLex,
    ResourceBudgetExceeded,
)
from .field import P, ZERO as K0, ONE as K1, dot, dot_p, mod_p, sqrt_in_k
from .poly import (
    LEX,
    Poly,
    specialize,
    uni_coeffs,
    uni_gcd_coeffs,
    uni_monic,
    uni_squarefree,
    _uni_divmod,
)


@dataclass(frozen=True)
class Budget:
    """Resource caps for a Buchberger run; frozen, so it keys a cache."""

    max_pairs: int = 20000
    max_basis: int = 600
    max_terms: int = 400000


DEFAULT_BUDGET = Budget()

# The F_P filter engages once a basis coefficient has a numerator or
# denominator longer than this.
_HEIGHT = P.bit_length()

# The largest value of a packed field: an exponent (lex) or a degree
# (degrevlex).  Bit 7 of each byte is its guard bit.
_LIMIT = 127


@dataclass
class GroebnerTrace:
    """Run statistics, consumable by benchmarks and the CLI."""

    pairs_processed: int = 0
    pairs_discarded: int = 0
    zero_reductions: int = 0
    basis_max: int = 0
    terms_max: int = 0
    pairs_mod_p: int = 0  # zero reductions found mod P, not reduced over K
    seconds: float = 0.0

    def lines(self):
        return [
            f"pairs processed {self.pairs_processed}",
            f"pairs discarded by criteria {self.pairs_discarded}",
            f"reductions to zero {self.zero_reductions}",
            f"peak basis size {self.basis_max}",
            f"peak term count {self.terms_max}",
            f"reductions to zero found mod p {self.pairs_mod_p}",
            f"wall time {self.seconds:.2f}s",
        ]


class GroebnerBasis:
    """A reduced Groebner basis together with its ring (order included);
    immutable, so standard_monomials walks it once and keeps the walk."""

    __slots__ = ("ring", "polys", "trace", "_std")

    def __init__(self, ring, polys, trace=None):
        self.ring = ring
        self.polys = tuple(polys)
        self.trace = trace or GroebnerTrace()
        self._std = None

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def lead_monomials(self):
        return [g.lead_monomial() for g in self.polys]

    def is_trivial(self):
        """True when the basis is {1}, i.e. the ideal is the whole ring."""
        return len(self.polys) == 1 and self.polys[0].total_degree() == 0


class _Pack:
    """The packed monomials of one ring, see the module docstring."""

    __slots__ = ("ring", "drl", "end", "low", "guard", "mask")

    def __init__(self, ring):
        self.ring = ring
        self.drl = ring.order.kind == "degrevlex"
        self.end = "little" if self.drl else "big"  # byte order of D
        self.low = int.from_bytes(b"\1" * ring.n, "big")  # R
        self.guard = self.low << 7  # H
        self.mask = (1 << (8 * ring.n)) - 1

    def pack(self, m):
        """E of the exponent tuple m."""
        try:
            e = int.from_bytes(bytes(accumulate(m) if self.drl else m), self.end)
        except ValueError:  # a field over 255
            e = self.guard
        if e & self.guard:
            self.overflow(m)
        return e

    def unpack(self, e):
        return tuple(self.expo(e).to_bytes(self.ring.n, self.end))

    def overflow(self, m):
        what = "its degree" if self.drl else "an exponent"
        raise ResourceBudgetExceeded(f"monomial {m} of {self.ring!r}: {what} over {_LIMIT}")

    def expo(self, e):
        """The exponent form D of e."""
        return (e - (e << 8)) & self.mask if self.drl else e

    def enc(self, d):
        """E of the exponent form d."""
        return (d * self.low) & self.mask if self.drl else d

    def divides(self, a, b):
        """Whether the exponent form a divides b."""
        h = self.guard
        return ((b | h) - a) & h == h

    def lcm(self, a, b):
        """The lcm of two exponent forms: a + b exactly when they are coprime."""
        h = self.guard
        diff = (a | h) - b  # a_k - b_k + 128 in field k
        ge = diff & h  # the guard bits of the fields where a_k >= b_k
        return b + (diff & (ge - (ge >> 7)))

    def terms(self, p):
        """The terms of the Poly p as (E, coefficient) pairs."""
        return [(self.pack(m), c) for m, c in p.terms.items()]

    def poly(self, terms):
        return Poly(self.ring, {self.unpack(m): c for m, c in terms})


def _prep(pk, terms):
    """The divisor entry (lm, its exponent form, -1/lc, tail) of packed terms."""
    m, c = max(terms, key=itemgetter(0))
    return (m, pk.expo(m), -c.inverse(), [t for t in terms if t[0] != m])


def _monic(terms):
    """Packed terms, leading first, divided by the leading coefficient."""
    inv = terms[0][1].inverse()
    return terms if inv == K1 else [(m, c * inv) for m, c in terms]


def _prep_mod_p(entry):
    """The F_P entry (lm, D, -1, tail images) of a monic prepared entry,
    or None when P divides a denominator of its tail."""
    m, d, _, tail = entry
    images = []
    for tm, tc in tail:
        v = mod_p(tc)
        if v is None:
            return None
        if v:
            images.append((tm, v))
    return (m, d, -1, images)


def _tall(tail):
    """True when a coefficient of tail has a numerator or denominator longer
    than _HEIGHT bits."""
    height = _HEIGHT
    return any(
        c.den.bit_length() > height or max(map(int.bit_length, c.num)) > height
        for _, c in tail
    )


def normal_form(p, divisors):
    """Remainder of p on division by the divisor list.

    Deterministic: the leading term of the current remainder is reduced
    first, and divisors are tried in list order.  Divisors must be nonzero
    polynomials of p's ring.
    """
    pk = _Pack(p.ring)
    prepared = [_prep(pk, pk.terms(g)) for g in divisors if g]
    return pk.poly(_remainder(pk, _pending(pk.terms(p)), prepared, {}, dot))


def _pending(terms):
    """Packed terms as pending coefficients, E -> (xs, ys) with value dot(xs, ys)."""
    return {m: ([c], [K1]) for m, c in terms}


def _s_pending(pk, f, g):
    """The S-polynomial of two prepared entries as pending coefficients."""
    mf, df, ninv_f, tail_f = f
    mg, dg, ninv_g, tail_g = g
    lcm = pk.enc(pk.lcm(df, dg))
    if lcm & pk.guard:
        pk.overflow(pk.unpack(lcm))
    work = {}
    # (lcm/mf) f / lc(f) - (lcm/mg) g / lc(g); the lead terms cancel
    for m, x, tail in ((mf, -ninv_f, tail_f), (mg, ninv_g, tail_g)):
        u = lcm - m
        for tm, tc in tail:
            nm = tm + u
            entry = work.get(nm)
            if entry is None:
                work[nm] = ([x], [tc])
            else:
                entry[0].append(x)
                entry[1].append(tc)
    return work


def _remainder(pk, work, prepared, memo, total):
    """The terms of the remainder of work over divisors split by _prep,
    leading term first, as packed (monomial, coefficient) pairs.

    work maps each monomial to two factor lists whose coefficient sum
    total(xs, ys) is its coefficient: field.dot over K, field.dot_p over F_P.
    The reduction appends to the lists and sums them (over K, one gcd
    normalisation) only when the monomial is reached, a zero sum meaning
    the terms cancelled.  work is consumed as the terms are drawn, so a
    caller that only asks whether the remainder is zero stops at the first
    term.  memo maps a monomial to (index of its first divisor or -1,
    divisors scanned); it stays valid across calls as long as prepared only
    grows by appending, and is shared by lists with the same lead monomials.
    """
    heap = [-m for m in work]
    heapq.heapify(heap)
    count = len(prepared)
    guard = pk.guard
    divides = pk.divides
    pop = heapq.heappop
    push = heapq.heappush
    while heap:
        m = -pop(heap)
        xs, ys = work.pop(m)
        c = total(xs, ys)
        if not c:
            continue
        if m & guard:
            pk.overflow(pk.unpack(m))
        idx, start = memo.get(m, (-1, 0))
        if idx < 0 and start < count:
            dm = pk.expo(m)
            for k in range(start, count):
                if divides(prepared[k][1], dm):
                    idx = k
                    break
            memo[m] = (idx, count)
        if idx < 0:
            yield m, c
            continue
        gm, _, ninv, gtail = prepared[idx]
        nqc = c * ninv
        qm = m - gm
        for tm, tc in gtail:
            nm = tm + qm
            entry = work.get(nm)
            if entry is None:
                work[nm] = ([nqc], [tc])
                push(heap, -nm)
            else:
                entry[0].append(nqc)
                entry[1].append(tc)


def _packed(gens):
    """(pack, packed terms) of the nonzero gens, in their ring."""
    gens = [g for g in gens if g]
    if not gens:
        raise ValueError("no nonzero generators")
    ring = gens[0].ring
    for g in gens:
        if g.ring.names != ring.names:
            raise ValueError("generators live in different rings")
    pk = _Pack(ring)
    return pk, [pk.terms(g) for g in gens]


def buchberger(gens, budget=None):
    """Reduced Groebner basis of the ideal generated by gens, in their ring's
    order, by one plain run over K.

    budget defaults to DEFAULT_BUDGET and raising ResourceBudgetExceeded
    when hit.
    """
    budget = budget or DEFAULT_BUDGET
    pk, polys = _packed(gens)
    t0 = time.perf_counter()
    trace = GroebnerTrace()
    basis = _reduce_basis(pk, _run(pk, polys, budget, trace, t0, filtering=False))
    trace.seconds = time.perf_counter() - t0
    return GroebnerBasis(pk.ring, map(pk.poly, basis), trace)


def solve_system(gens, hints=(), budget=None):
    """(G, Gl, sol) for a zero-dimensional system: G its reduced basis in the
    generators' order, Gl = fglm(G) and sol = solve_zero_dim(Gl, hints).

    The run filters pairs mod P; when it skipped any and the point count of
    the module docstring does not certify its basis, or that basis is not
    zero-dimensional, the closing run follows on the same trace, so pairs,
    zero reductions and the pair cap add up over both runs, and
    trace.seconds covers the whole call.  Raises NotZeroDimensional as fglm
    does.
    """
    budget = budget or DEFAULT_BUDGET
    gens = list(gens)  # read twice: packed here and by the count
    pk, polys = _packed(gens)
    t0 = time.perf_counter()
    trace = GroebnerTrace()
    basis = _reduce_basis(pk, _run(pk, polys, budget, trace, t0, filtering=True))
    out = None
    if trace.pairs_mod_p:
        out = _certified(pk, basis, trace, hints, gens)
        if out is None:
            run = _run(pk, basis + polys, budget, trace, t0, filtering=False)
            basis = _reduce_basis(pk, run)
    if out is None:
        out = _solved(pk, basis, trace, hints)
    trace.seconds = time.perf_counter() - t0
    return out


def _solved(pk, basis, trace, hints):
    """(G, fglm(G), its points) of a reduced basis of packed term lists."""
    G = GroebnerBasis(pk.ring, map(pk.poly, basis), trace)
    Gl = fglm(G)
    return G, Gl, solve_zero_dim(Gl, hints)


def _certified(pk, basis, trace, hints, gens):
    """_solved(pk, basis, trace, hints) when its points certify the basis,
    else None: they must be zero_dim_degree(G) distinct exact zeros of every
    generator (see the module docstring).  Each generator is valued at each
    point by poly.specialize, and one power table per coordinate value is
    shared by every generator and point."""
    try:
        out = _solved(pk, basis, trace, hints)
    except NotZeroDimensional:
        return None
    G, _, sol = out
    points = sol.points
    if len(set(points)) != len(points) or len(points) != zero_dim_degree(G):
        return None
    powers = {}
    for pt in points:
        at = dict(enumerate(pt))
        if any(specialize(g, at, powers=powers) for g in gens):
            return None
    return out


def _run(pk, starts, budget, trace, t0, filtering):
    """One Buchberger run over K on packed term lists; returns monic entries.

    A filtering run may skip pairs that vanish mod P (see the module
    docstring).  The counts and the pair cap add to those already in trace.
    Every budget stop, a packed-field overflow included, carries
    vars(trace).
    """
    divides, lcm, enc, n = pk.divides, pk.lcm, pk.enc, pk.ring.n

    G = []  # monic prepared entries (lm, D, -1, tail)
    lms = []  # the exponent forms D of their leads
    images = None  # F_P entries parallel to G once the filter engages
    total_terms = 0  # terms over all of G
    memo = {}  # monomial -> first divisor in G, see _remainder
    alive = {}  # (i, j) -> exponent form of the lcm
    heap = []  # (deg, packed lcm, i, j)

    def stop(message):
        trace.seconds = time.perf_counter() - t0
        raise ResourceBudgetExceeded(message, stats=vars(trace))

    def add_element(terms):
        # Gebauer-Moeller update of the pair set with the new element.
        nonlocal total_terms, images, filtering
        entry = _prep(pk, _monic(terms))
        t = len(G)
        dh = entry[1]
        # Chain (B) criterion on existing pairs.
        for (i, j), lcm_ij in list(alive.items()):
            if (
                divides(dh, lcm_ij)
                and lcm(lms[i], dh) != lcm_ij
                and lcm(lms[j], dh) != lcm_ij
            ):
                del alive[(i, j)]
                trace.pairs_discarded += 1
        # New pairs, grouped by lcm.  M/F criteria: a group goes when a kept
        # lcm divides its own; a proper divisor has lower total degree, so it
        # sorts earlier, and distinct lcms of equal degree never divide.
        groups = {}
        for i in range(t):
            groups.setdefault(lcm(lms[i], dh), []).append(i)
        kept = []  # the degree of an lcm is the byte sum of its exponent form
        for deg, e, d in sorted((sum(d.to_bytes(n, "big")), enc(d), d) for d in groups):
            if any(divides(k, d) for k in kept):
                continue
            kept.append(d)
            members = groups[d]
            coprime = any(lms[i] + dh == d for i in members)
            trace.pairs_discarded += len(members) - (0 if coprime else 1)
            if not coprime:
                alive[(members[0], t)] = d
                heapq.heappush(heap, (deg, e, members[0], t))
        G.append(entry)
        lms.append(dh)
        off = False
        if images is not None:
            images.append(_prep_mod_p(entry))
            off = images[-1] is None
        elif filtering and _tall(entry[3]):
            images = [_prep_mod_p(e) for e in G]
            off = None in images
        if off:  # P divides a denominator: no filter for the rest of the run
            images = None
            filtering = False
        total_terms += len(terms)
        trace.basis_max = max(trace.basis_max, len(G))
        trace.terms_max = max(trace.terms_max, total_terms)
        if len(G) > budget.max_basis:
            stop(f"basis size {len(G)} exceeded budget {budget.max_basis}")
        if total_terms > budget.max_terms:
            stop(f"term count {total_terms} exceeded budget {budget.max_terms}")

    try:
        for terms in starts:
            r = list(_remainder(pk, _pending(terms), G, memo, dot))
            if r:
                add_element(r)

        while heap:
            _, _, i, j = heapq.heappop(heap)
            if (i, j) not in alive:
                continue
            del alive[(i, j)]
            if trace.pairs_processed >= budget.max_pairs:
                stop(f"pair count exceeded budget {budget.max_pairs}")
            trace.pairs_processed += 1
            if images is not None:
                work = _s_pending(pk, images[i], images[j])
                if next(_remainder(pk, work, images, memo, dot_p), None) is None:
                    trace.zero_reductions += 1
                    trace.pairs_mod_p += 1
                    continue
            r = list(_remainder(pk, _s_pending(pk, G[i], G[j]), G, memo, dot))
            if r:
                add_element(r)
            else:
                trace.zero_reductions += 1
    except ResourceBudgetExceeded as exc:
        if exc.stats:
            raise
        stop(str(exc))  # a packed-field overflow: report the work spent
    return G


def _reduce_basis(pk, entries):
    """Minimalize and tail-interreduce monic entries: the canonical reduced
    basis as packed term lists, leading term first, by increasing lead."""
    kept = []
    for e in sorted(entries, key=itemgetter(0)):
        if not any(pk.divides(k[1], e[1]) for k in kept):
            kept.append(e)
    # a kept lead is divisible by no other, so it stays the lead
    out = []
    for i, e in enumerate(kept):
        work = _pending([(e[0], K1)] + e[3])
        out.append(_monic(list(_remainder(pk, work, kept[:i] + kept[i + 1 :], {}, dot))))
    return out


def ideal_membership(p, G):
    """True iff p reduces to zero modulo the Groebner basis G."""
    return not normal_form(p, list(G))


def elimination_ideal(G, keep):
    """Generators of the elimination ideal onto the kept variables.

    G must be a lex Groebner basis and keep a trailing segment of the
    variables, so that the order eliminates the complement of keep.
    """
    ring = G.ring
    keep = set(keep)
    n = ring.n
    if not (ring.order.kind == "lex" and keep and keep == set(range(min(keep), n))):
        raise OrderNotEliminating(
            f"order {ring.order!r} does not eliminate the complement of {sorted(keep)}"
        )
    drop = set(range(n)) - keep
    return [g for g in G if not (g.variables() & drop)]


def _pure_power_bounds(G):
    ring = G.ring
    lms = G.lead_monomials()
    bounds = [0] * ring.n
    for i in range(ring.n):
        best = None
        for m in lms:
            if m[i] and all(e == 0 for j, e in enumerate(m) if j != i):
                best = m[i] if best is None else min(best, m[i])
        if best is None:
            raise NotZeroDimensional(
                f"no pure power of {ring.names[i]} among leading monomials"
            )
        bounds[i] = best
    return bounds


def standard_monomials(G):
    """Monomials outside the leading-term ideal, in increasing ring order;
    requires zero-dimensionality.

    A walk up from 1 by variable steps, as the FGLM walk makes: a divisor of
    a standard monomial is standard, so each is reached from a smaller one,
    and only they and the steps that land on a leading-term multiple inside
    the box of pure-power bounds are tested.  The walk is made once per
    basis and kept on it.
    """
    if G._std is not None:
        return list(G._std)
    if G.is_trivial():
        return []
    bounds = _pure_power_bounds(G)
    pk = _Pack(G.ring)
    leads = [pk.expo(pk.pack(m)) for m in G.lead_monomials()]
    todo = [G.ring.zero_mono]
    seen = set(todo)
    out = []
    while todo:
        m = todo.pop()
        d = pk.expo(pk.pack(m))
        if any(pk.divides(lm, d) for lm in leads):
            continue
        out.append(m)
        for i, e in enumerate(m):
            if e + 1 < bounds[i]:
                step = m[:i] + (e + 1,) + m[i + 1 :]
                if step not in seen:
                    seen.add(step)
                    todo.append(step)
    out.sort(key=pk.pack)
    G._std = tuple(out)
    return out


def zero_dim_degree(G):
    """Dimension of the quotient ring (count of standard monomials)."""
    return len(standard_monomials(G))


def fglm(G):
    """Convert a reduced zero-dimensional basis to lex.

    Walks the lex monomials in increasing order, tracking normal forms as
    vectors over the old quotient basis; linear dependencies become the new
    basis elements.  The result is the unique reduced lex basis of the same
    ideal.
    """
    ring_old = G.ring
    ring_new = ring_old.with_order(LEX)
    if ring_new.order == ring_old.order:
        return G
    std = standard_monomials(G)
    if not std:
        return GroebnerBasis(ring_new, [ring_new.one])
    old, new = _Pack(ring_old), _Pack(ring_new)
    D = len(std)
    idx = {old.pack(m): r for r, m in enumerate(std)}  # 1 packs to 0
    units = [x.lead_monomial() for x in ring_old.gens()]
    prepared = [_prep(old, old.terms(g)) for g in G.polys]
    memo = {}

    # Multiplication matrices: mul[i][b] = vector of x_i * std[b].
    mul = []
    for u in map(old.pack, units):
        rows = []
        for b in idx:
            v = [K0] * D
            if b + u in idx:
                v[idx[b + u]] = K1
            else:
                for t, c in _remainder(old, {b + u: ([K1], [K1])}, prepared, memo, dot):
                    v[idx[t]] = c
            rows.append(v)
        mul.append(rows)

    start_vec = [K0] * D
    start_vec[idx[0]] = K1
    new_units = [new.pack(u) for u in units]
    heap = [(0, None, None)]  # (packed monomial, parent, variable index)
    seen = {0}
    new_std = []  # packed monomials in the new order
    vec_of = {}  # new_std monomial -> raw vector
    rows = []  # echelon rows: (pivot, unit vector u, lam dict new_std index -> coeff)
    out_lms = []  # exponent forms of the new leads
    out_polys = []  # found by increasing lead, as the walk pops

    while heap:
        m, parent, vi = heapq.heappop(heap)
        if m & new.guard:
            new.overflow(new.unpack(m))
        d = new.expo(m)
        if any(new.divides(lm, d) for lm in out_lms):
            continue
        if parent is None:
            v = start_vec[:]
        else:
            pv = vec_of[parent]
            rowsv = mul[vi]
            v = [K0] * D
            for b, c in enumerate(pv):
                if c:
                    rb = rowsv[b]
                    for r in range(D):
                        if rb[r]:
                            v[r] = v[r] + c * rb[r]
        # Reduce against the echelon rows; r = v - sum(mu_j * vec_j).
        r = v[:]
        mu = {}
        for piv, u, lam in rows:
            c = r[piv]
            if c:
                for t in range(D):
                    if u[t]:
                        r[t] = r[t] - c * u[t]
                for j, lc in lam.items():
                    mu[j] = mu.get(j, K0) + c * lc
        nz = next((t for t in range(D) if r[t]), None)
        if nz is None:
            # Dependence: m - sum mu_j * s_j is a new basis element.
            terms = {m: K1}
            for j, c in mu.items():
                if c:
                    terms[new_std[j]] = -c
            out_polys.append(new.poly(terms.items()))
            out_lms.append(d)
        else:
            jnew = len(new_std)
            new_std.append(m)
            vec_of[m] = v
            cinv = r[nz].inverse()
            u = [x * cinv for x in r]
            lam = {j: -c * cinv for j, c in mu.items()}
            lam[jnew] = cinv
            rows.append((nz, u, lam))
            for i, unit in enumerate(new_units):
                child = m + unit
                if child not in seen:
                    seen.add(child)
                    heapq.heappush(heap, (child, m, i))

    if len(new_std) != D:
        raise NotZeroDimensional("FGLM walk did not close; basis not zero-dimensional")
    return GroebnerBasis(ring_new, out_polys, G.trace)


def inline_linear(gens, protect=()):
    """Inline generators of the form c*x + h (c constant, x not in h).

    Returns (new_gens, substitutions); substitutions is a list of (var, expr)
    in elimination order, expr free of every earlier eliminated variable and
    of var itself.  Protected variables are never eliminated.  The ideal is
    unchanged as a subset relation: <gens> = <new_gens> + <x - expr relations>,
    and contractions to the surviving variables agree.
    """
    ring = gens[0].ring
    protect = set(protect)
    work = [g for g in gens if g]
    subs = []
    changed = True
    while changed:
        changed = False
        for gi, g in enumerate(work):
            target = None
            for i in sorted(g.variables()):
                if i in protect:
                    continue
                unit = ring.zero_mono[:i] + (1,) + ring.zero_mono[i + 1 :]
                if unit in g.terms and g.degree_in(i) == 1:
                    # x_i appears exactly once, linearly, with constant coeff.
                    if sum(1 for m in g.terms if m[i]) == 1:
                        target = (i, unit)
                        break
            if target is None:
                continue
            i, unit = target
            c = g.terms[unit]
            rest = Poly(ring, {m: v for m, v in g.terms.items() if m != unit})
            expr = rest * (-(c.inverse()))
            new_work = []
            for j, h in enumerate(work):
                if j == gi:
                    continue
                if h.degree_in(i) > 0:
                    h = h.substitute(i, expr)
                if h:
                    new_work.append(h)
            work = new_work
            subs.append((i, expr))
            changed = True
            break
    return work, subs


def restore_inlined(point_map, subs):
    """Complete a partial point with the values of inlined variables."""
    out = dict(point_map)
    for i, expr in reversed(subs):
        out[i] = expr.evaluate([out.get(j, K0) for j in range(expr.ring.n)])
    return out


# -- zero-dimensional solving -------------------------------------------------


@dataclass
class SolveResult:
    points: list
    unresolved: list  # monic coefficient lists the solver could not split

    @property
    def complete(self):
        return not self.unresolved


def _uni_roots(cs, hints, unresolved):
    """K-rational roots of the coefficient list cs (made squarefree first).

    Degree 1 and 2 are solved directly, degree 4 when biquadratic; otherwise
    exact division by hint factors is attempted.  Each monic factor none of
    these splits is appended to unresolved, never dropped.  The factors are
    coprime parts of one squarefree list, so the roots are distinct.
    """
    cs = uni_squarefree(cs)
    if len(cs) <= 1:
        return []
    roots = []
    stack = [cs]
    while stack:
        f = stack.pop()
        d = len(f) - 1
        if d <= 0:
            continue
        if not f[0]:
            # x divides f (once: f is squarefree here).
            roots.append(K0)
            stack.append(f[1:])
            continue
        if d == 1:
            roots.append(-f[0] / f[1])
            continue
        if d == 2:
            a, b, c = f[2], f[1], f[0]
            s = sqrt_in_k(b * b - 4 * a * c)
            if s is None:
                unresolved.append(f)
                continue
            roots.append((-b + s) / (2 * a))
            if s:
                roots.append((-b - s) / (2 * a))
            continue
        if d == 4 and not f[1] and not f[3]:
            # Biquadratic: solve for y = x^2, then take K-square roots.  The
            # squarefree quadratic in y has both roots in K or neither, and
            # no root 0 as f[0] != 0.
            ys = _uni_roots([f[0], f[2], f[4]], (), [])
            if not ys:
                unresolved.append(f)
            for y in ys:
                x = sqrt_in_k(y)
                if x is None:
                    unresolved.append([-y, K0, K1])
                else:
                    roots += [x, -x]
            continue
        split = False
        for h in hints:
            hm = uni_monic(h)
            if 1 < len(hm) < len(f):
                q, r = _uni_divmod(f, hm)
                if not r:
                    stack.append(hm)
                    stack.append(uni_monic(q))
                    split = True
                    break
        if not split:
            unresolved.append(f)
    return roots


def solve_zero_dim(G, hints=()):
    """All K-rational points of a zero-dimensional ideal from its lex basis.

    Back-substitutes through the triangular structure of the lex basis.
    hints is an optional list of univariate coefficient lists used to split
    factors outside the direct repertoire (degree 1, 2, biquadratic 4).
    Returns a SolveResult; its unresolved lists every univariate factor the
    repertoire could not split, so points are never silently dropped.
    """
    ring = G.ring
    if ring.order.kind != "lex":
        raise OrderNotLex("solve_zero_dim requires a lex basis")
    if G.is_trivial():
        return SolveResult([], [])
    _pure_power_bounds(G)  # raises NotZeroDimensional when not finite
    n = ring.n
    powers = {}  # value -> its power table, shared by every substitution
    unresolved = []
    points = []

    def rec(level, assignment, polys):
        # level counts assigned trailing variables; next is var n-1-level.
        # polys: (lowest variable, g specialised at the assignment) pairs
        if level == n:
            if not any(g for _, g in polys):
                points.append(tuple(assignment[i] for i in range(n)))
            return
        vi = n - 1 - level
        # every variable of g but vi is assigned when low >= vi
        cands = [uni_coeffs(g, vi) for low, g in polys if low >= vi and g]
        if not cands:
            raise NotZeroDimensional(
                f"no univariate constraint for {ring.names[vi]} during back-substitution"
            )
        g = cands[0]
        for other in cands[1:]:
            g = uni_gcd_coeffs(g, other)
        if len(g) <= 1:
            if not g:
                raise NotZeroDimensional(
                    f"variable {ring.names[vi]} unconstrained on a branch"
                )
            return  # gcd = 1: no common root on this branch
        for r in _uni_roots(g, hints, unresolved):
            assignment[vi] = r
            rec(level + 1, assignment, [
                (low, specialize(h, {vi: r}, powers=powers) if h.degree_in(vi) > 0 else h)
                for low, h in polys
            ])
            del assignment[vi]

    rec(0, {}, [(min(g.variables()), g) for g in G.polys])
    # Deterministic output order by textual form.
    points.sort(key=lambda pt: tuple(v.to_text() for v in pt))
    return SolveResult(points, unresolved)
