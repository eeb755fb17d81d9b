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

Normal forms delay coefficient normalisation: a pending coefficient is a
pair of factor lists, each reduction step appends one product to it, and it
is summed by one field.dot (one gcd reduction) when its monomial becomes the
leading one; a zero sum is a cancelled term.  S-polynomials enter the
reduction the same way, without being formed as polynomials.  Each
Buchberger run keeps one divisor memo, monomial -> (index of its first
divisor in the basis, basis length scanned); the basis only grows by
appending, so a recorded divisor stays the first one, and a monomial with
none is rescanned only over the elements added since.

For zero-dimensional ideals an FGLM order conversion is provided: it turns a
reduced basis in any order into the (unique) reduced lex basis by linear
algebra in the quotient, which is far cheaper in this implementation than a
direct lex run on the larger systems.
"""

import heapq
import time
from dataclasses import dataclass
from operator import ge

from .errors import (
    NotZeroDimensional,
    OrderNotEliminating,
    OrderNotLex,
    ResourceBudgetExceeded,
)
from .field import ZERO as K0, ONE as K1, dot, sqrt_in_k
from .poly import (
    LEX,
    Poly,
    specialize,
    uni_coeffs,
    uni_gcd_coeffs,
    _uni_divmod,
    _uni_trim,
)


@dataclass
class Budget:
    """Resource caps for a Buchberger run."""

    max_pairs: int = 20000
    max_basis: int = 600
    max_terms: int = 400000

    def scaled(self, factor):
        return Budget(
            self.max_pairs * factor, self.max_basis * factor, self.max_terms * factor
        )


DEFAULT_BUDGET = Budget()


@dataclass
class GroebnerTrace:
    """Run statistics, consumable by benchmarks and the CLI."""

    pairs_processed: int = 0
    pairs_discarded: int = 0
    zero_reductions: int = 0
    basis_max: int = 0
    terms_max: int = 0
    seconds: float = 0.0

    def lines(self):
        return [
            f"pairs processed {self.pairs_processed}",
            f"pairs discarded by criteria {self.pairs_discarded}",
            f"reductions to zero {self.zero_reductions}",
            f"peak basis size {self.basis_max}",
            f"peak term count {self.terms_max}",
            f"wall time {self.seconds:.2f}s",
        ]


class GroebnerBasis:
    """A reduced Groebner basis together with its ring (order included)."""

    __slots__ = ("ring", "polys", "trace")

    def __init__(self, ring, polys, trace=None):
        self.ring = ring
        self.polys = tuple(polys)
        self.trace = trace or GroebnerTrace()

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def lead_monomials(self):
        return [g.lead_monomial() for g in self.polys]

    def is_trivial(self):
        """True when the basis is {1}, i.e. the ideal is the whole ring."""
        return len(self.polys) == 1 and self.polys[0].total_degree() == 0


def _divides(a, b):
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _lcm(a, b):
    return tuple(x if x >= y else y for x, y in zip(a, b))


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _prep(g):
    m, c = g.lead_term()
    tail = [(tm, tc) for tm, tc in g.terms.items() if tm != m]
    return (m, -c.inverse(), tail, g)


def normal_form(p, divisors):
    """Remainder of p on division by the divisor list.

    Deterministic: the leading term of the current remainder is reduced
    first, and divisors are tried in list order.  Divisors must be nonzero
    polynomials of p's ring.
    """
    prepared = [_prep(g) for g in divisors if g]
    return _normal_form_prepared(p.ring, _pending(p), prepared)


def _pending(p):
    """p's terms as pending coefficients, monomial -> (xs, ys) with value dot(xs, ys)."""
    return {m: ([c], [K1]) for m, c in p.terms.items()}


def _s_pending(f, g):
    """The S-polynomial of two prepared entries as pending coefficients."""
    mf, ninv_f, tail_f, _ = f
    mg, ninv_g, tail_g, _ = g
    lcm = _lcm(mf, mg)
    work = {}
    # (lcm/mf) f / lc(f) - (lcm/mg) g / lc(g); the lead terms cancel
    for m, x, tail in ((mf, -ninv_f, tail_f), (mg, ninv_g, tail_g)):
        u = tuple(a - b for a, b in zip(lcm, m))
        for tm, tc in tail:
            nm = _mono_mul(tm, u)
            entry = work.get(nm)
            if entry is None:
                work[nm] = ([x], [tc])
            else:
                entry[0].append(x)
                entry[1].append(tc)
    return work


def _normal_form_prepared(ring, work, prepared, memo=None):
    """Remainder of the pending polynomial work over divisors split by _prep.

    work maps each monomial to two factor lists whose dot product is its
    coefficient; the reduction appends to them and sums them (one gcd
    normalisation) only when the monomial is reached, a zero sum meaning
    the terms cancelled.  work is consumed.  memo maps a monomial to (index
    of its first divisor or -1, divisors scanned); it stays valid across
    calls as long as prepared only grows by appending.
    """
    negkey = ring.negkey
    heap = [(negkey(m), m) for m in work]
    heapq.heapify(heap)
    out = {}
    memo = {} if memo is None else memo
    count = len(prepared)
    pop = heapq.heappop
    push = heapq.heappush
    while heap:
        m = pop(heap)[1]
        xs, ys = work.pop(m)
        c = dot(xs, ys)
        if not c:
            continue
        idx, start = memo.get(m, (-1, 0))
        if idx < 0 and start < count:
            for k in range(start, count):
                if all(map(ge, m, prepared[k][0])):
                    idx = k
                    break
            memo[m] = (idx, count)
        if idx < 0:
            out[m] = c
            continue
        gm, ninv, gtail, _ = prepared[idx]
        nqc = c * ninv
        qm = tuple(a - b for a, b in zip(m, gm))
        shift = any(qm)
        for tm, tc in gtail:
            nm = _mono_mul(tm, qm) if shift else tm
            entry = work.get(nm)
            if entry is None:
                work[nm] = ([nqc], [tc])
                push(heap, (negkey(nm), nm))
            else:
                entry[0].append(nqc)
                entry[1].append(tc)
    return Poly(ring, out)


def s_polynomial(f, g):
    """S(f,g) = (L/LT(f)) f - (L/LT(g)) g with L = lcm of the lead monomials."""
    work = _s_pending(_prep(f), _prep(g))
    terms = {m: dot(xs, ys) for m, (xs, ys) in work.items()}
    return Poly(f.ring, {m: c for m, c in terms.items() if c})


def buchberger(gens, order=None, budget=None):
    """Reduced Groebner basis of the ideal generated by gens.

    order defaults to the generators' ring order; budget defaults to
    DEFAULT_BUDGET and raising ResourceBudgetExceeded when hit.
    """
    budget = budget or DEFAULT_BUDGET
    gens = [g for g in gens if g]
    if not gens:
        raise ValueError("no nonzero generators")
    base = gens[0].ring
    ring = base.with_order(order) if order is not None else base
    for g in gens:
        if g.ring.names != ring.names:
            raise ValueError("generators live in different rings")
    polys = [Poly(ring, g.terms) for g in gens]

    t0 = time.perf_counter()
    trace = GroebnerTrace()
    key = ring.key

    G = []  # prepared entries (lm, -1/lc, tail, poly)
    lms = []
    total_terms = 0  # terms over all of G
    memo = {}  # monomial -> first divisor in G, see _normal_form_prepared
    alive = {}  # (i, j) -> lcm monomial
    heap = []  # (deg, key(lcm), i, j)

    def push_pair(i, j, lcm):
        alive[(i, j)] = lcm
        heapq.heappush(heap, (sum(lcm), key(lcm), i, j))

    def add_element(h):
        # Gebauer-Moeller update of the pair set with the new element h.
        nonlocal total_terms
        t = len(G)
        lmh = h.lead_monomial()
        # Chain (B) criterion on existing pairs.
        for (i, j), lcm_ij in list(alive.items()):
            if (
                _divides(lmh, lcm_ij)
                and _lcm(lms[i], lmh) != lcm_ij
                and _lcm(lms[j], lmh) != lcm_ij
            ):
                del alive[(i, j)]
                trace.pairs_discarded += 1
        # New pairs, grouped by lcm.  M/F criteria: a group goes when a kept
        # lcm divides its own; a proper divisor has lower total degree, so it
        # sorts earlier, and distinct lcms of equal degree never divide.
        groups = {}
        for i in range(t):
            groups.setdefault(_lcm(lms[i], lmh), []).append(i)
        kept = []
        for lcm in sorted(groups, key=lambda m: (sum(m), key(m))):
            if any(_divides(k, lcm) for k in kept):
                continue
            kept.append(lcm)
            members = groups[lcm]
            coprime = any(
                all(x == 0 or y == 0 for x, y in zip(lms[i], lmh)) for i in members
            )
            trace.pairs_discarded += len(members) - (0 if coprime else 1)
            if not coprime:
                push_pair(members[0], t, lcm)
        G.append(_prep(h))
        lms.append(lmh)
        total_terms += len(h.terms)
        trace.basis_max = max(trace.basis_max, len(G))
        trace.terms_max = max(trace.terms_max, total_terms)
        if len(G) > budget.max_basis:
            trace.seconds = time.perf_counter() - t0
            raise ResourceBudgetExceeded(
                f"basis size {len(G)} exceeded budget {budget.max_basis}",
                stats=vars(trace),
            )
        if total_terms > budget.max_terms:
            trace.seconds = time.perf_counter() - t0
            raise ResourceBudgetExceeded(
                f"term count {total_terms} exceeded budget {budget.max_terms}",
                stats=vars(trace),
            )

    for p in polys:
        r = _normal_form_prepared(ring, _pending(p), G, memo)
        if r:
            add_element(r.monic())

    while heap:
        _, _, i, j = heapq.heappop(heap)
        if (i, j) not in alive:
            continue
        del alive[(i, j)]
        trace.pairs_processed += 1
        if trace.pairs_processed > budget.max_pairs:
            trace.seconds = time.perf_counter() - t0
            raise ResourceBudgetExceeded(
                f"pair count exceeded budget {budget.max_pairs}",
                stats=vars(trace),
            )
        r = _normal_form_prepared(ring, _s_pending(G[i], G[j]), G, memo)
        if r:
            add_element(r.monic())
        else:
            trace.zero_reductions += 1

    basis = _reduce_basis([e[3] for e in G], ring)
    trace.seconds = time.perf_counter() - t0
    return GroebnerBasis(ring, basis, trace)


def _reduce_basis(polys, ring):
    """Minimalize and tail-interreduce, returning the canonical reduced basis."""
    key = ring.key
    order = sorted(range(len(polys)), key=lambda i: key(polys[i].lead_monomial()))
    kept = []
    kept_lms = []
    for i in order:
        lm = polys[i].lead_monomial()
        if not any(_divides(klm, lm) for klm in kept_lms):
            kept.append(polys[i])
            kept_lms.append(lm)
    prepared = [_prep(g) for g in kept]
    out = []
    for i, g in enumerate(kept):
        r = _normal_form_prepared(ring, _pending(g), prepared[:i] + prepared[i + 1 :])
        out.append(r.monic())
    out.sort(key=lambda g: key(g.lead_monomial()))
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
    """Monomials outside the leading-term ideal; requires zero-dimensionality."""
    ring = G.ring
    if len(G) == 1 and G.polys[0].total_degree() == 0:
        return []
    bounds = _pure_power_bounds(G)
    lms = G.lead_monomials()
    out = []

    def rec(prefix, i):
        if i == ring.n:
            m = tuple(prefix)
            if not any(_divides(lm, m) for lm in lms):
                out.append(m)
            return
        for e in range(bounds[i]):
            prefix.append(e)
            rec(prefix, i + 1)
            prefix.pop()

    rec([], 0)
    out.sort(key=ring.key)
    return out


def zero_dim_degree(G):
    """Dimension of the quotient ring (count of standard monomials)."""
    return len(standard_monomials(G))


def fglm(G, order=LEX):
    """Convert a reduced zero-dimensional basis to the target order.

    Walks the target-order monomials in increasing order, tracking normal
    forms as vectors over the old quotient basis; linear dependencies become
    the new basis elements.  The result is the unique reduced basis for the
    target order of the same ideal.
    """
    ring_old = G.ring
    ring_new = ring_old.with_order(order)
    if ring_new.order == ring_old.order:
        return G
    std = standard_monomials(G)
    if not std:
        return GroebnerBasis(ring_new, [ring_new.one])
    D = len(std)
    idx = {m: r for r, m in enumerate(std)}
    n = ring_old.n
    prepared = [_prep(g) for g in G.polys]
    memo = {}

    def nf_vector(poly):
        r = _normal_form_prepared(ring_old, _pending(poly), prepared, memo)
        v = [K0] * D
        for m, c in r.terms.items():
            v[idx[m]] = c
        return v

    # Multiplication matrices: mul[i][b] = vector of x_i * std[b].
    mul = []
    for i in range(n):
        rows = []
        for b in std:
            m = b[:i] + (b[i] + 1,) + b[i + 1 :]
            if m in idx:
                v = [K0] * D
                v[idx[m]] = K1
                rows.append(v)
            else:
                rows.append(nf_vector(Poly(ring_old, {m: K1})))
        mul.append(rows)

    newkey = ring_new.key
    zero_m = ring_old.zero_mono
    start_vec = [K0] * D
    start_vec[idx[zero_m]] = K1
    heap = [(newkey(zero_m), zero_m, None, None)]
    seen = {zero_m}
    new_std = []  # monomials in the new order
    vec_of = {}  # new_std monomial -> raw vector
    rows = []  # echelon rows: (pivot, unit vector u, lam dict new_std index -> coeff)
    out_lms = []
    out_polys = []

    while heap:
        _, m, parent, vi = heapq.heappop(heap)
        if any(_divides(lm, m) for lm in out_lms):
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
            out_polys.append(Poly(ring_new, terms))
            out_lms.append(m)
        else:
            jnew = len(new_std)
            new_std.append(m)
            vec_of[m] = v
            cinv = r[nz].inverse()
            u = [x * cinv for x in r]
            lam = {j: -c * cinv for j, c in mu.items()}
            lam[jnew] = cinv
            rows.append((nz, u, lam))
            for i in range(n):
                child = m[:i] + (m[i] + 1,) + m[i + 1 :]
                if child not in seen:
                    seen.add(child)
                    heapq.heappush(heap, (newkey(child), child, m, i))

    if len(new_std) != D:
        raise NotZeroDimensional("FGLM walk did not close; basis not zero-dimensional")
    out_polys.sort(key=lambda g: newkey(g.lead_monomial()))
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
class Obstruction:
    """A univariate factor outside the solving repertoire."""

    var: str
    poly_text: str
    degree: int
    assignment: dict


@dataclass
class SolveResult:
    points: list
    obstructions: list

    @property
    def complete(self):
        return not self.obstructions


def _uni_monic(cs):
    cs = _uni_trim(list(cs))
    if cs:
        inv = cs[-1].inverse()
        cs = [c * inv for c in cs]
    return cs


def _uni_roots(cs, hints, obstructions, var_name, assignment):
    """K-rational roots of the coefficient list cs (made squarefree first).

    Degree 1 and 2 are solved directly, degree 4 when biquadratic; otherwise
    exact division by hint factors is attempted.  Unresolved factors are
    recorded as obstructions, never silently dropped.
    """
    cs = _uni_monic(cs)
    if len(cs) <= 1:
        return []
    deriv = [c * e for e, c in enumerate(cs)][1:]
    g = uni_gcd_coeffs(cs, deriv)
    if len(g) > 1:
        cs, _ = _uni_divmod(cs, g)
        cs = _uni_monic(cs)
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
                obstructions.append(
                    Obstruction(var_name, _uni_text(f, var_name), 2, dict(assignment))
                )
                continue
            roots.append((-b + s) / (2 * a))
            if s:
                roots.append((-b - s) / (2 * a))
            continue
        if d == 4 and not f[1] and not f[3]:
            # Biquadratic: solve for y = x^2, then take K-square roots.
            for y in _uni_roots([f[0], f[2], f[4]], (), obstructions, var_name + "^2", assignment):
                x = sqrt_in_k(y)
                if x is None:
                    obstructions.append(
                        Obstruction(
                            var_name,
                            f"{var_name}^2 - ({y})",
                            2,
                            dict(assignment),
                        )
                    )
                else:
                    roots.append(x)
                    if x:
                        roots.append(-x)
            continue
        split = False
        for h in hints:
            hm = _uni_monic(h)
            if 1 < len(hm) < len(f):
                q, r = _uni_divmod(f, hm)
                if not r:
                    stack.append(hm)
                    stack.append(_uni_monic(q))
                    split = True
                    break
        if not split:
            obstructions.append(
                Obstruction(var_name, _uni_text(f, var_name), d, dict(assignment))
            )
    # Deduplicate (squarefree input makes duplicates impossible in exact runs).
    uniq = []
    for r in roots:
        if r not in uniq:
            uniq.append(r)
    return uniq


def _uni_text(cs, var):
    parts = []
    for e in range(len(cs) - 1, -1, -1):
        if cs[e]:
            mono = "" if e == 0 else (var if e == 1 else f"{var}^{e}")
            ctext = str(cs[e])
            parts.append(f"({ctext})*{mono}" if mono else f"({ctext})")
    return " + ".join(parts) if parts else "0"


def solve_zero_dim(G, hints=()):
    """All K-rational points of a zero-dimensional ideal from its lex basis.

    Back-substitutes through the triangular structure of the lex basis.
    hints is an optional list of univariate coefficient lists used to split
    factors outside the direct repertoire (degree 1, 2, biquadratic 4).
    Returns a SolveResult; obstructions name any factor the repertoire could
    not resolve, so points are never silently dropped.
    """
    ring = G.ring
    if ring.order.kind != "lex":
        raise OrderNotLex("solve_zero_dim requires a lex basis")
    if G.is_trivial():
        return SolveResult([], [])
    _pure_power_bounds(G)  # raises NotZeroDimensional when not finite
    n = ring.n
    polys = list(G.polys)
    lows = [(min(g.variables()), g) for g in polys]
    powers = {}  # value -> its power table, shared by every substitution
    obstructions = []
    points = []

    def rec(level, assignment):
        # level counts assigned trailing variables; next is var n-1-level.
        if level == n:
            if all(not specialize(g, assignment, powers=powers) for g in polys):
                points.append(tuple(assignment[i] for i in range(n)))
            return
        vi = n - 1 - level
        cands = []
        for low, g in lows:
            if low >= vi:
                # every variable of g but vi is assigned
                part = specialize(g, assignment, powers=powers)
                if part:
                    cands.append(uni_coeffs(part, vi))
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
        named = {ring.names[j]: str(v) for j, v in assignment.items()}
        for r in _uni_roots(g, hints, obstructions, ring.names[vi], named):
            assignment[vi] = r
            rec(level + 1, assignment)
            del assignment[vi]

    rec(0, {})
    # Deterministic output order by textual form.
    points.sort(key=lambda pt: tuple(v.to_text() for v in pt))
    return SolveResult(points, obstructions)
