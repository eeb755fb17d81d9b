"""Sparse multivariate polynomials over K (Q is the rational sub-case).

Monomials are exponent tuples; a polynomial is a dict monomial -> KElem in a
PolyRing that fixes variable names and a monomial order, which is its name,
LEX or DEGREVLEX.  Term iteration is always in decreasing monomial order.
Polynomials are immutable by convention: term dicts are never mutated after
construction.

Linear substitutions run in dense form: a form of degree d in n variables
is the list of its coefficients on the degree-d monomials, largest first in
degrevlex, and products go through per-degree index tables, one field.dot
per output coefficient.  dense_image substitutes linear forms into the
terms of one degree; the rows with one nonzero entry only rename and scale
a variable, and each product of the other rows' forms is formed once.
substitute_linear (p(M*z), degree by degree) and geometry's plane sections
are its two callers; ring_map remains for general maps.

specialize is the one place where constants enter a polynomial: it values
some variables from power tables that callers may share, and Poly.evaluate
is specialize at a full point.

A univariate polynomial is the list of its coefficients, lowest degree
first and without trailing zeros, and all its arithmetic (uni_mul,
uni_monic, uni_gcd_coeffs, uni_squarefree) is on lists; uni_coeffs and
poly_from_uni convert from and to a Poly in one variable.
"""

import functools
from itertools import compress, product

from .errors import RingMismatch
from .field import ZERO as K0, ONE as K1, KElem, dot, kelem


def _drl_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


LEX = "lex"
DEGREVLEX = "degrevlex"
_ORDER_KEYS = {LEX: lambda m: m, DEGREVLEX: _drl_key}  # grows with the monomial


class PolyRing:
    """Polynomial ring over K with named variables and a monomial order."""

    __slots__ = ("names", "n", "order", "key", "zero_mono")

    def __init__(self, names, order=DEGREVLEX):
        self.names = tuple(names)
        self.n = len(self.names)
        if order not in _ORDER_KEYS:
            raise ValueError(f"unknown monomial order {order!r}")
        self.order = order
        self.key = _ORDER_KEYS[order]
        self.zero_mono = (0,) * self.n

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.names == other.names
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.names, self.order))

    def __repr__(self):
        return f"K[{', '.join(self.names)}; {self.order}]"

    def with_order(self, order):
        return self if order == self.order else PolyRing(self.names, order)

    def zero(self):
        return Poly(self, {})

    def const(self, c):
        c = kelem(c)
        return Poly(self, {self.zero_mono: c} if c else {})

    one = property(lambda self: self.const(1))

    def var(self, i):
        m = [0] * self.n
        m[i % self.n] = 1
        return Poly(self, {tuple(m): K1})

    def gens(self):
        return tuple(self.var(i) for i in range(self.n))

    def index(self, name):
        return self.names.index(name)


def _check_same_ring(a, b):
    if a.ring != b.ring:
        raise RingMismatch(f"operands in {a.ring!r} vs {b.ring!r}")


class Poly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    # -- predicates and views ------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ring == other.ring and self.terms == other.terms
        if isinstance(other, (int,)) or isinstance(other, KElem):
            return self == self.ring.const(other)
        return NotImplemented

    def __len__(self):
        return len(self.terms)

    def sorted_terms(self):
        """Terms as (monomial, coeff) pairs in decreasing order."""
        key = self.ring.key
        return [(m, self.terms[m]) for m in sorted(self.terms, key=key, reverse=True)]

    def lead_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=self.ring.key)

    def lead_coeff(self):
        return self.terms[self.lead_monomial()]

    def total_degree(self):
        return max((sum(m) for m in self.terms), default=-1)

    def degree_in(self, i):
        return max((m[i] for m in self.terms), default=-1)

    def variables(self):
        """Indices of variables that actually occur."""
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(i)
        return used

    def coeff(self, m):
        return self.terms.get(tuple(m), K0)

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self):
        return Poly(self.ring, {m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        _check_same_ring(self, other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m)
            if v is None:
                out[m] = c
            else:
                v = v + c
                if v:
                    out[m] = v
                else:
                    del out[m]
        return Poly(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, KElem)):
            c = kelem(other)
            if not c:
                return self.ring.zero()
            return Poly(self.ring, {m: v * c for m, v in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        _check_same_ring(self, other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                nm = tuple(x + y for x, y in zip(m1, m2))
                v = out.get(nm)
                if v is None:
                    out[nm] = c1 * c2
                else:
                    v = v + c1 * c2
                    if v:
                        out[nm] = v
                    else:
                        del out[nm]
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative polynomial power")
        out = self.ring.const(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def monic(self):
        if not self.terms:
            return self
        lc = self.lead_coeff()
        if lc == K1:
            return self
        inv = lc.inverse()
        return Poly(self.ring, {m: c * inv for m, c in self.terms.items()})

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, KElem)):
            return self.ring.const(other)
        return None

    # -- calculus and substitution -------------------------------------------

    def partial_derivative(self, i):
        out = {}
        for m, c in self.terms.items():
            e = m[i]
            if e:
                nm = m[:i] + (e - 1,) + m[i + 1 :]
                v = out.get(nm)
                nv = c * e if v is None else v + c * e
                if nv:
                    out[nm] = nv
                elif v is not None:
                    del out[nm]
        return Poly(self.ring, out)

    def substitute(self, i, value):
        """Substitute variable i by a KElem or a Poly of the same ring."""
        if isinstance(value, (int, KElem)):
            value = self.ring.const(value)
        _check_same_ring(self, value)
        # Collect by exponent of variable i, then Horner over descending exponents.
        buckets = {}
        for m, c in self.terms.items():
            e = m[i]
            rm = m[:i] + (0,) + m[i + 1 :]
            buckets.setdefault(e, {})[rm] = c
        exps = sorted(buckets, reverse=True)
        acc = self.ring.zero()
        prev = None
        for e in exps:
            if prev is not None:
                acc = acc * value ** (prev - e)
            acc = acc + Poly(self.ring, buckets[e])
            prev = e
        if prev is not None and prev > 0:
            acc = acc * value**prev
        return acc

    def evaluate(self, values):
        """Evaluate at a full point (list of KElem), returning a KElem."""
        return specialize(self, dict(enumerate(values))).coeff(self.ring.zero_mono)

    # -- display --------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.names
        parts = []
        for m, c in self.sorted_terms():
            vs = "*".join(
                f"{names[i]}^{e}" if e > 1 else names[i]
                for i, e in enumerate(m)
                if e
            )
            cs = str(c)
            neg = False
            if c.mask and len(_nonzero_coords(c)) == 1 and cs.startswith("-"):
                neg = True
                cs = cs[1:]
            if not vs:
                body = cs if _is_simple(c) else f"({cs})"
            elif cs == "1":
                body = vs
            elif _is_simple(c):
                body = f"{cs}*{vs}"
            else:
                body = f"({cs})*{vs}"
            parts.append(("-" if neg else "+", body))
        sign, body = parts[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"Poly({self})"


def _nonzero_coords(c):
    return [j for j in range(8) if c.num[j]]


def _is_simple(c):
    return len(_nonzero_coords(c)) <= 1


def ring_map(p, target, images):
    """Apply the ring homomorphism sending variable i of p.ring to images[i].

    images are polynomials of (or coercible into) target.  Variable powers
    are cached, so repeated exponents are cheap.
    """
    if len(images) != p.ring.n:
        raise ValueError("need one image per source variable")
    imgs = [target.const(im) if isinstance(im, (int, KElem)) else im for im in images]
    for im in imgs:
        if im.ring != target:
            raise RingMismatch("image polynomial not in target ring")
    cache = {}
    out = target.zero()
    for m, c in p.terms.items():
        t = target.const(c)
        for i, e in enumerate(m):
            if e:
                pw = cache.get((i, e))
                if pw is None:
                    pw = imgs[i] ** e
                    cache[(i, e)] = pw
                t = t * pw
        out = out + t
    return out


def substitute_linear(p, matrix):
    """p(M*z): substitute the linear change of coordinates given by matrix.

    matrix is an n x n nested list of KElem-coercible entries, singular or
    not.  Row i gives the linear form substituted for variable i.  Each
    degree of p is substituted on its own in dense form (dense_image), so a
    row with one nonzero entry only renames and scales its variable and a
    signed permutation forms no product.
    """
    ring = p.ring
    n = ring.n
    rows = [[kelem(x) for x in r] for r in matrix]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"matrix must be {n}x{n}")
    by_degree = {}
    for m, c in p.terms.items():
        by_degree.setdefault(sum(m), {})[m] = c
    out = {}
    for d, terms in by_degree.items():
        for m, c in zip(dense_monomials(n, d)[0], dense_image(terms, d, rows)):
            if c:
                out[m] = c
    return Poly(ring, out)


# -- dense forms ----------------------------------------------------------------
#
# A dense form of degree d in n variables is the list of its coefficients on
# dense_monomials(n, d)[0], largest monomial first in degrevlex.  Products
# go through per-degree index tables, and each output coefficient costs one
# normalised dot product (field.dot).


@functools.cache
def dense_monomials(n, d):
    """(exponent n-tuples of degree d, largest first in degrevlex; tuple -> index)."""
    monos = [m for m in product(range(d + 1), repeat=n) if sum(m) == d]
    monos.sort(key=_drl_key, reverse=True)
    return tuple(monos), {m: k for k, m in enumerate(monos)}


@functools.cache
def product_table(n, d1, d2):
    """Per monomial of degree d1 + d2: index tuples (is, js) of its factor pairs."""
    index = dense_monomials(n, d1 + d2)[1]
    out = [([], []) for _ in index]
    for i, u in enumerate(dense_monomials(n, d1)[0]):
        for j, v in enumerate(dense_monomials(n, d2)[0]):
            ii, jj = out[index[tuple(x + y for x, y in zip(u, v))]]
            ii.append(i)
            jj.append(j)
    return tuple((tuple(ii), tuple(jj)) for ii, jj in out)


def dense_mul(n, a, da, b, db):
    """Product of dense forms a (degree da) and b (degree db) in n variables."""
    return [
        dot([a[i] for i in ii], [b[j] for j in jj])
        for ii, jj in product_table(n, da, db)
    ]


@functools.lru_cache(maxsize=1024)
def _grouping(monos, n, d, dense, moves):
    """The terms of dense_image by their exponents mu on the dense rows.

    One (mu, size of g_mu, ((term position, index in g_mu), ...)) per mu, in
    order of first occurrence; it depends only on the monomials and on which
    rows are sparse, so the plane sections of one surface share it.
    """
    groups = {}
    for t, m in enumerate(monos):
        mu = tuple([m[i] for i in dense])
        nu = [0] * n
        for i, j in moves:
            nu[j] += m[i]
        groups.setdefault(mu, []).append((t, dense_monomials(n, d - sum(mu))[1][tuple(nu)]))
    return tuple(
        (mu, len(dense_monomials(n, d - sum(mu))[0]), tuple(entries))
        for mu, entries in groups.items()
    )


def dense_image(terms, d, rows):
    """sum of c * prod_i L_i^(m_i) over terms, a dict m -> c of degree d, dense.

    rows[i] is the linear form L_i substituted for variable i, as its
    coefficients on the n output variables.  A row with one nonzero entry s
    at j is sparse: its variable becomes s * z_j, which only moves a term's
    exponent and scales its coefficient.  Grouping the terms by their
    exponents mu on the dense rows gives
    sum_mu g_mu * prod_{i dense} L_i^(mu_i), with g_mu the dense form that
    the sparse rows give; each product over the dense rows is formed once
    (pure powers by halving, others by splitting off one variable), and each
    output coefficient is one dot over all mu.  A plane section has one
    dense row, the pivot's; a signed permutation has none, so it forms no
    product.
    """
    n = len(rows[0])
    moves = []  # (i, j) for a sparse row i, nonzero at j
    scales = []  # (i, s) for a sparse row i whose entry s is not 1
    dense = []  # the variables with a dense row
    for i, row in enumerate(rows):
        nz = list(compress(range(n), row))
        if len(nz) == 1:
            s = row[nz[0]]
            moves.append((i, nz[0]))
            if s != K1:
                scales.append((i, s))
        else:
            dense.append(i)
    cs = list(terms.values())
    if scales:
        for t, m in enumerate(terms):
            for i, s in scales:
                if m[i]:
                    cs[t] = cs[t] * s ** m[i]
    groups = []  # (mu, g_mu)
    for mu, size, entries in _grouping(tuple(terms), n, d, tuple(dense), tuple(moves)):
        g = [K0] * size
        for t, k in entries:
            g[k] = g[k] + cs[t] if g[k] else cs[t]
        groups.append((mu, g))
    if groups and not dense:
        return groups[0][1]  # one group, mu = ()
    images = {(0,) * len(dense): [K1]}  # mu -> prod L_dense[k]^mu[k]

    def image_of(mu, deg):
        # the image of the monomial mu in the dense variables, degree deg:
        # a row, a pure power by halves, or its first variable's power times
        # the rest
        v = images.get(mu)
        if v is None:
            k = 0
            while not mu[k]:
                k += 1
            if deg == 1:
                v = rows[dense[k]]
            else:
                e = mu[k] // 2 if mu[k] == deg else mu[k]
                first = mu[:k] + (e,) + (0,) * (len(mu) - k - 1)
                rest = mu[:k] + (mu[k] - e,) + mu[k + 1 :]
                v = dense_mul(n, image_of(first, e), e, image_of(rest, deg - e), deg - e)
            images[mu] = v
        return v

    parts = []
    for mu, g in groups:
        deg = sum(mu)
        parts.append((g, image_of(mu, deg), product_table(n, d - deg, deg)))
    out = []
    for k in range(len(dense_monomials(n, d)[0])):
        xs, ys = [], []
        for g, pw, table in parts:
            ii, jj = table[k]
            xs += [g[i] for i in ii]
            ys += [pw[j] for j in jj]
        out.append(dot(xs, ys))
    return out


def specialize(p, assignment, target=None, var_map=None, powers=None):
    """Evaluate some variables at KElem constants, in one pass.

    assignment maps variable index -> KElem.  With target/var_map the
    surviving variables are re-indexed into the target ring (var_map maps old
    index -> new index); otherwise the ring is kept and the assigned
    variables simply no longer occur.  Each output coefficient is one dot
    product of term coefficients and power products of the values, read
    from one power table per value.  powers, a dict value -> [1, v, v^2,
    ...] extended in place, shares those tables between calls.
    """
    if target is None:
        target = p.ring
        var_map = range(p.ring.n)
    powers = {} if powers is None else powers
    tables = {}
    for i, v in assignment.items():
        v = kelem(v)
        t = powers.get(v)
        if t is None:
            t = powers[v] = [K1, v]
        tables[i] = t
    sums = {}  # monomial of target -> (coefficients, power products)
    for m, c in p.terms.items():
        f = K1
        nm = [0] * target.n
        for i, e in enumerate(m):
            if not e:
                continue
            t = tables.get(i)
            if t is None:
                nm[var_map[i]] = e
                continue
            while len(t) <= e:
                t.append(t[-1] * t[1])
            f = t[e] if f is K1 else f * t[e]
        nm = tuple(nm)
        pair = sums.get(nm)
        if pair is None:
            sums[nm] = ([c], [f])
        else:
            pair[0].append(c)
            pair[1].append(f)
    out = {}
    for nm, (cs, fs) in sums.items():
        v = dot(cs, fs)
        if v:
            out[nm] = v
    return Poly(target, out)


def compress_variables(polys, extra_keep=()):
    """Rebuild polynomials over only the variables that actually occur.

    extra_keep lists variable indices retained even when unused.  Relative
    variable order is preserved.  Returns (new_polys, new_ring, old_to_new).
    """
    if not polys:
        raise ValueError("need at least one polynomial")
    ring = polys[0].ring
    used = set(extra_keep)
    for p in polys:
        used |= p.variables()
    keep = sorted(used)
    var_map = {old: new for new, old in enumerate(keep)}
    new_ring = PolyRing(tuple(ring.names[i] for i in keep), ring.order)
    outs = [specialize(p, {}, new_ring, var_map) for p in polys]
    return outs, new_ring, var_map


# -- univariate helpers -------------------------------------------------------


def uni_coeffs(p, i):
    """Coefficient list (low to high) of a polynomial univariate in variable i."""
    coeffs = [K0] * (p.degree_in(i) + 1)
    for m, c in p.terms.items():
        if any(e and j != i for j, e in enumerate(m)):
            raise ValueError(f"{p} is not univariate in {p.ring.names[i]}")
        coeffs[m[i]] = c
    return coeffs


def poly_from_uni(ring, i, coeffs):
    terms = {}
    for e, c in enumerate(coeffs):
        c = kelem(c)
        if c:
            m = [0] * ring.n
            m[i] = e
            terms[tuple(m)] = c
    return Poly(ring, terms)


def _uni_trim(cs):
    while cs and not cs[-1]:
        cs.pop()
    return cs


def uni_monic(cs):
    """cs without trailing zeros, divided by its leading coefficient."""
    cs = _uni_trim(list(cs))
    if cs:
        inv = cs[-1].inverse()
        cs = [c * inv for c in cs]
    return cs


def uni_mul(a, b):
    """The product of two coefficient lists."""
    out = [K0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _uni_trim(out)


def _uni_divmod(a, b):
    # coefficient lists over K, b nonzero
    a = list(a)
    db, inv = len(b) - 1, b[-1].inverse()
    q = [K0] * max(0, len(a) - db)
    while _uni_trim(a) and len(a) - 1 >= db:
        da = len(a) - 1
        f = a[-1] * inv
        q[da - db] = f
        for j in range(db + 1):
            a[da - db + j] = a[da - db + j] - f * b[j]
        a.pop()
    return q, _uni_trim(a)


def uni_gcd_coeffs(a, b):
    """The monic gcd of two coefficient lists ([] when both are zero)."""
    a = _uni_trim(list(a))
    b = _uni_trim(list(b))
    while b:
        _, r = _uni_divmod(a, b)
        a, b = b, r
    return uni_monic(a)


def uni_squarefree(cs):
    """The monic squarefree part cs / gcd(cs, cs') of a nonzero coefficient list."""
    g = uni_gcd_coeffs(cs, [c * e for e, c in enumerate(cs)][1:])
    return uni_monic(_uni_divmod(cs, g)[0])
