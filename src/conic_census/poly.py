"""Sparse multivariate polynomials over K (Q is the rational sub-case).

Monomials are exponent tuples; a polynomial is a dict monomial -> KElem in a
PolyRing that fixes variable names and a monomial order, lex or degrevlex.
Term iteration is always in
decreasing monomial order.  Polynomials are immutable by convention: term
dicts are never mutated after construction.
"""

from .errors import RingMismatch, SingularMatrix
from .field import ZERO as K0, ONE as K1, KElem, dot, kelem
from .linalg import mat_det


class MonomialOrder:
    """A monomial order, "lex" or "degrevlex": key(m) grows with the monomial."""

    __slots__ = ("kind",)

    def __init__(self, kind):
        if kind not in ("lex", "degrevlex"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind

    def key_fn(self):
        if self.kind == "lex":
            return lambda m: m
        return _drl_key

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.kind == other.kind

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return self.kind


def _drl_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


LEX = MonomialOrder("lex")
DEGREVLEX = MonomialOrder("degrevlex")


class PolyRing:
    """Polynomial ring over K with named variables and a monomial order."""

    __slots__ = ("names", "n", "order", "key", "zero_mono")

    def __init__(self, names, order=DEGREVLEX):
        self.names = tuple(names)
        self.n = len(self.names)
        self.order = order
        self.key = order.key_fn()
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
        return f"K[{', '.join(self.names)}; {self.order!r}]"

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

    def lead_term(self):
        m = self.lead_monomial()
        return m, self.terms[m]

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
        _check_same_ring(self, other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m)
            if v is None:
                out[m] = -c
            else:
                v = v - c
                if v:
                    out[m] = v
                else:
                    del out[m]
        return Poly(self.ring, out)

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
        vals = [kelem(v) for v in values]
        total = K0
        powcache = {}
        for m, c in self.terms.items():
            t = c
            for i, e in enumerate(m):
                if e:
                    p = powcache.get((i, e))
                    if p is None:
                        p = vals[i] ** e
                        powcache[(i, e)] = p
                    t = t * p
            total = total + t
        return total

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

    matrix is an n x n nested list of KElem-coercible entries and must be
    invertible (SingularMatrix otherwise).  Row i gives the linear form
    substituted for variable i.
    """
    ring = p.ring
    n = ring.n
    rows = [[kelem(x) for x in r] for r in matrix]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"matrix must be {n}x{n}")
    if not mat_det(rows):
        raise SingularMatrix("linear substitution matrix is singular")
    images = [
        Poly(ring, {m: c for m, c in zip(_unit_monos(ring), row) if c})
        for row in rows
    ]
    return ring_map(p, ring, images)


def _unit_monos(ring):
    out = []
    for i in range(ring.n):
        m = [0] * ring.n
        m[i] = 1
        out.append(tuple(m))
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


def divide_exact(p, d):
    """Quotient p/d when division is exact, else None.

    Long division by the leading term of d in the ring's order; any nonzero
    remainder step returns None.
    """
    _check_same_ring(p, d)
    if not d:
        raise ZeroDivisionError("division by zero polynomial")
    ring = p.ring
    dm, dc = d.lead_term()
    dcinv = dc.inverse()
    rest = dict(p.terms)
    key = ring.key
    q = {}
    dtail = [(m, c) for m, c in d.terms.items() if m != dm]
    while rest:
        m = max(rest, key=key)
        c = rest[m]
        qm = tuple(x - y for x, y in zip(m, dm))
        if any(e < 0 for e in qm):
            return None
        qc = c * dcinv
        q[qm] = qc
        del rest[m]
        for tm, tc in dtail:
            nm = tuple(x + y for x, y in zip(tm, qm))
            v = rest.get(nm)
            nv = -(qc * tc) if v is None else v - qc * tc
            if nv:
                rest[nm] = nv
            elif v is not None:
                del rest[nm]
    return Poly(ring, q)


def compress_variables(polys, extra_keep=(), order=None):
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
    new_ring = PolyRing(
        tuple(ring.names[i] for i in keep), order if order is not None else ring.order
    )
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


def _uni_divmod(a, b):
    # coefficient lists over K, b nonzero
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv = lb.inverse()
    q = [K0] * max(0, len(a) - db)
    while len(a) - 1 >= db and _uni_trim(a):
        da = len(a) - 1
        if da < db:
            break
        f = a[-1] * inv
        q[da - db] = f
        for j in range(db + 1):
            a[da - db + j] = a[da - db + j] - f * b[j]
        a.pop()
    return q, _uni_trim(a)


def uni_gcd_coeffs(a, b):
    a = _uni_trim(list(a))
    b = _uni_trim(list(b))
    while b:
        _, r = _uni_divmod(a, b)
        a, b = b, r
    if a:
        inv = a[-1].inverse()
        a = [c * inv for c in a]
    return a


def uni_gcd(p, q, i):
    """Monic gcd of two polynomials univariate in variable i."""
    ring = p.ring
    g = uni_gcd_coeffs(uni_coeffs(p, i), uni_coeffs(q, i))
    return poly_from_uni(ring, i, g)


def uni_squarefree(p, i):
    """Squarefree part p / gcd(p, p') in variable i, made monic."""
    g = uni_gcd(p, p.partial_derivative(i), i)
    q = divide_exact(p, g)
    return q.monic()


def uni_lcm(p, q, i):
    g = uni_gcd(p, q, i)
    r = divide_exact(p * q, g)
    return r.monic()

