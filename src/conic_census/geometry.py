"""Conics in P^3: canonical forms, residuals, intersection numbers.

A conic is a plane b0*z0 + ... + b3*z3 and a quadric sum a_ij*z_i*z_j
(i <= j) in K[z0..z3].  One canonicaliser works on these 4 + 10 coefficients
and defines equality: the plane is scaled so its first nonzero coefficient
(in z0, z1, z2, z3 order) is 1, the quadric is reduced modulo the plane by
substituting that pivot variable, and the result is made monic in degrevlex.
Each step is skipped when it would change nothing (a plane already monic, a
quadric with no pivot-variable terms, a leading coefficient already 1), so
re-reading canonical records costs little.  Two pairs cut out the same conic
iff their canonical fields agree, because the plane of a plane conic is
unique and the reduced quadric is unique up to the scalar that monic-ization
fixes.  Conics built from polynomials, from certificate records and by the
group action all pass through it.  A Conic compares and hashes by its
canonical coefficients, the only conic identity.  The text key is the record
and sort view, not an identity; it and the plane and quadric polynomials are
built on first read, so a conic that is only compared, such as a group image
already listed, builds none of them.  The images of a conic under a group
share few leading coefficients, so their inverses are memoised (bounded).

The plane section of a surface f = 0 is worked out in coefficient form.  On
the plane the pivot variable is z_p = L = -sum b_j z_j (j != p), so the
section is a ternary form in the other three variables, held as a dense
coefficient list in descending degrevlex order: writing f = sum_e g_e z_p^e,
it is sum_e g_e * L^e, with only the powers of L that f uses formed.  It is
the linear substitution that keeps the other variables and sends z_p to L,
made by poly.dense_image, the kernel poly.substitute_linear uses too.  The
conic lies on the surface iff its reduced quadric Q, which is monic, divides
the section S: the quotient R comes from a triangular solve, largest
monomial first (each coefficient of R is one coefficient of S minus products
with coefficients of R already known, so no inverse is needed), and is
accepted only if Q * R equals S on every coefficient.  R is the quadric of
the residual conic.  The monomial and product tables of poly drive every
product, and each output coefficient costs one normalised dot product
(field.dot).
Each conic keeps the quotient for the last surface it was asked about, so
on_surface and residual on the same f (the same object or an equal form)
share one section and one division.  A plane carrying two conics needs only
one: a division S = Q_a * q that succeeds on a quartic f is recorded under
the canonical plane, and a conic b of that plane asked about the same f
first tests whether q = lc(q) * Q_b (at most six products).  If so, b is a's
residual: S / Q_b = lc(q) * Q_a and b's residual is a, with no section or
division of its own.  The record holds the divided conic by weak reference
only, so it answers while that conic lives and never grows past the live
conics; it answers only for the residual, never for the divided conic.  On
a surface of another degree the quotient is no quadric: nothing is
recorded, and residual raises ValueError naming the degree.

Intersection numbers between members of the census follow the plane geometry:
equal conics have self-intersection -2 (smooth rational curve on a K3),
coplanar distinct conics meet with multiplicity 4 (Bezout in their plane), and
conics in distinct planes meet only along the common line, where the count is
the degree of the gcd of the two restricted binary quadratics (0, 1 or 2).
Two points spanning the line come from the 2x2 minors of the two planes
(Cramer's rule), with no inverse in K.
The restrictions come straight from the quadric coefficients: on the line
u*s + v*t, sum a_ij z_i z_j has coefficients sum a_ij s_i s_j,
sum a_ij (s_i t_j + s_j t_i) and sum a_ij t_i t_j.  With m01, m02, m12 the
2x2 minors of the two coefficient rows, the resultant is m02^2 - m01*m12: a
nonzero resultant means no common point (0), all three minors zero means
proportional quadratics (2), anything else one common point (1).
"""

import functools
import weakref

from .errors import CommonComponent, DegenerateConic, NotOnSurface, RingMismatch
from .field import ONE as K1, ZERO as K0, KElem, dot
from .poly import (
    DEGREVLEX,
    Poly,
    PolyRing,
    dense_image,
    dense_monomials,
    product_table,
)

ZRING = PolyRing(("z0", "z1", "z2", "z3"), DEGREVLEX)

_QUAD_FIELDS = tuple(f"a{i}{j}" for i in range(4) for j in range(i, 4))
_PLANE_FIELDS = ("b0", "b1", "b2", "b3")
RECORD_FIELDS = _QUAD_FIELDS + _PLANE_FIELDS


def _unit(i):
    m = [0] * 4
    m[i] = 1
    return tuple(m)


def _pair(i, j):
    m = [0] * 4
    m[i] += 1
    m[j] += 1
    return tuple(m)


# (i, j) of each quadric coefficient a_ij in record order, its monomial, and
# _QIDX[i][j] = record position of a_min(i,j)max(i,j)
_QUAD_PAIRS = tuple((i, j) for i in range(4) for j in range(i, 4))
_QUAD_MONOS = tuple(_pair(i, j) for i, j in _QUAD_PAIRS)
_PLANE_PAIRS = tuple((i, j) for i, j in _QUAD_PAIRS if i < j)
_PLANE_MONOS = tuple(_unit(i) for i in range(4))
_QIDX = tuple(
    tuple(_QUAD_PAIRS.index((min(i, j), max(i, j))) for j in range(4)) for i in range(4)
)
# record positions of the quadric coefficients, largest monomial first
_LEAD_ORDER = tuple(
    sorted(range(10), key=lambda k: ZRING.key(_QUAD_MONOS[k]), reverse=True)
)


# -- dense ternary forms ------------------------------------------------------
#
# On the plane of a conic the pivot variable is gone, so plane sections and
# reduced quadrics are dense forms (poly.dense_monomials) in the other three
# variables, kept in order: degrevlex on the three remaining exponents is
# the order of the four-variable monomials without the pivot.


@functools.cache
def _division_table(d, lead):
    """Steps solving S = Q * R for R, degrees d and 2, Q monic at monomial lead.

    Returns (solve, check).  solve has one (n, qs, rs) per monomial of R,
    largest first: R_r = S_n - sum Q_q R_r' over q in qs, r' in rs, where every
    q is below the lead (Q is zero above it) so every r' comes before r.
    check lists (n, is, js) for the coefficients of S that solve did not use,
    where S_n must equal sum Q_i R_j.
    """
    qmonos = dense_monomials(3, 2)[0]
    lm = qmonos[lead]
    rmonos, rindex = dense_monomials(3, d - 2)
    sindex = dense_monomials(3, d)[1]
    solve = []
    for r in rmonos:
        qs, rs = [], []
        for qi, q in enumerate(qmonos):
            r2 = tuple(a + b - c for a, b, c in zip(r, lm, q))
            if ZRING.key(q) < ZRING.key(lm) and min(r2) >= 0:
                qs.append(qi)
                rs.append(rindex[r2])
        n = sindex[tuple(a + b for a, b in zip(r, lm))]
        solve.append((n, tuple(qs), tuple(rs)))
    used = {n for n, _, _ in solve}
    check = tuple(
        (n, ii, jj)
        for n, (ii, jj) in enumerate(product_table(3, 2, d - 2))
        if n not in used
    )
    return tuple(solve), check


# _OTHERS[p]: the variables other than z_p, the ternary variables of a plane
# with pivot p; _TERNARY_QUAD[p]: record positions of a quadric's coefficients
# on dense_monomials(3, 2) in those variables
_OTHERS = tuple(tuple(j for j in range(4) if j != p) for p in range(4))
# _KEEP[p][i]: z_i (i != p) as a linear form in the ternary variables of pivot p
_KEEP = tuple(tuple([K1 if j == i else K0 for j in o] for i in range(4)) for o in _OTHERS)
_TERNARY_QUAD = tuple(
    tuple(
        _QIDX[i][j]
        for i, j in (
            [o[k] for k in range(3) for _ in range(m[k])] for m in dense_monomials(3, 2)[0]
        )
    )
    for o in _OTHERS
)


# canonical plane -> the conic last divided there by a quartic, held weakly
_DIVIDED = weakref.WeakValueDictionary()


@functools.lru_cache(maxsize=4096)
def _inverse(x):
    """x.inverse(), memoised for the 4096 values most recently inverted.

    The images of one conic under a group share few leading coefficients:
    the census closure scales by 459 distinct values, 3,208 times.
    """
    return x.inverse()


def _canonical(b, a):
    """(pivot, plane, quadric) in canonical form from 4 + 10 coefficients."""
    pivot = next((i for i in range(4) if b[i]), None)
    if pivot is None:
        raise DegenerateConic("plane must be a nonzero linear form")
    if not any(a):
        raise DegenerateConic("quadric must be a nonzero quadratic form")
    lead = b[pivot]
    if lead != K1:
        inv = _inverse(lead)
        b = [x * inv for x in b]
    row = [a[k] for k in _QIDX[pivot]]  # coefficients of z_pivot * z_j
    if any(row):
        # z_pivot -> sum c_j z_j with c = -b off the pivot; writing
        # t_j = row_j + row_pivot * c_j, a_jk gains c_k t_j + c_j t_k (j < k)
        # and a_jj gains c_j t_j
        c = [-x for x in b]
        c[pivot] = K0
        rp = row[pivot]
        t = [dot((row[j], rp), (K1, c[j])) for j in range(4)]
        red = []
        for k, (i, j) in enumerate(_QUAD_PAIRS):
            if i == pivot or j == pivot:
                red.append(K0)
            elif i == j:
                red.append(dot((a[k], t[i]), (K1, c[i])))
            else:
                red.append(dot((a[k], t[i], t[j]), (K1, c[j], c[i])))
        a = red
    lead = next((a[k] for k in _LEAD_ORDER if a[k]), None)
    if lead is None:
        raise DegenerateConic("quadric vanishes on the plane")
    if lead != K1:
        inv = _inverse(lead)
        a = [x * inv for x in a]
    return pivot, tuple(b), tuple(a)


class Conic:
    """An irreducible-or-not plane conic in canonical form.

    coeffs holds the 14 canonical coefficients a00..a33, b0..b3 (the plane
    is coeffs[10:]) and defines equality and the hash.  The hash, key (their
    text, for records and sorting), plane and quadric are built on first read.
    """

    __slots__ = (
        "pivot", "coeffs", "_hash", "_key", "_plane", "_quadric", "_last", "__weakref__"
    )

    def __init__(self, plane, quadric):
        if plane.ring.names != ZRING.names or quadric.ring.names != ZRING.names:
            raise ValueError("conic data must live in K[z0..z3]")
        if any(sum(m) != 1 for m in plane.terms):
            raise DegenerateConic("plane must be a nonzero linear form")
        if any(sum(m) != 2 for m in quadric.terms):
            raise DegenerateConic("quadric must be a nonzero quadratic form")
        self._set(
            [plane.coeff(m) for m in _PLANE_MONOS],
            [quadric.coeff(m) for m in _QUAD_MONOS],
        )

    def _set(self, b, a):
        self.pivot, b, a = _canonical(b, a)
        self.coeffs = a + b
        self._hash = self._key = self._plane = self._quadric = None
        self._last = None  # (f, quotient) of the last surface asked about

    @classmethod
    def from_coeffs(cls, coeffs):
        """Canonical conic from 14 coefficients in record order a00..a33, b0..b3."""
        if len(coeffs) != 14:
            raise ValueError(f"expected 14 coefficients, got {len(coeffs)}")
        c = cls.__new__(cls)
        c._set(coeffs[10:], coeffs[:10])
        return c

    @property
    def key(self):
        """The 14 canonical coefficients as text, in record order."""
        if self._key is None:
            self._key = tuple(x.to_text() for x in self.coeffs)
        return self._key

    @property
    def plane(self):
        """The canonical plane as a linear form."""
        if self._plane is None:
            b = self.coeffs[10:]
            self._plane = Poly(ZRING, {m: x for m, x in zip(_PLANE_MONOS, b) if x})
        return self._plane

    @property
    def quadric(self):
        """The canonical reduced quadric as a quadratic form."""
        if self._quadric is None:
            a = self.coeffs[:10]
            self._quadric = Poly(ZRING, {m: x for m, x in zip(_QUAD_MONOS, a) if x})
        return self._quadric

    def __eq__(self, other):
        return isinstance(other, Conic) and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.coeffs)
        return self._hash

    def __repr__(self):
        return f"Conic({self.plane}; {self.quadric})"

    # -- record form -----------------------------------------------------------

    def fields(self):
        """The 14 canonical coefficient fields a00..a33, b0..b3 as text."""
        return list(self.key)

    @classmethod
    def from_fields(cls, fields):
        if len(fields) != 14:
            raise ValueError(f"expected 14 fields, got {len(fields)}")
        return cls.from_coeffs([KElem.from_text(t) for t in fields])

    # -- geometry ---------------------------------------------------------------

    def is_irreducible(self):
        """Smooth conic test: the reduced quadric is nondegenerate.

        On the ternary coefficients x_jk of the non-pivot variables, the
        symmetric matrix (x_jj on the diagonal, x_jk / 2 off it) has
        4 det = 4 x00 x11 x22 + x01 x02 x12 - x00 x12^2 - x11 x02^2 - x22 x01^2.
        """
        o = _OTHERS[self.pivot]
        a = self.coeffs
        (x00, x01, x02), (x11, x12), (x22,) = (
            [a[_QIDX[o[i]][o[j]]] for j in range(i, 3)] for i in range(3)
        )
        ys = (4 * x11 * x22, x02 * x12, -x12 * x12, -x02 * x02, -x01 * x01)
        return bool(dot((x00, x01, x00, x11, x22), ys))

    def on_surface(self, f):
        """Whether the conic is a component of the plane section of V(f)."""
        return self._divided(f) is not None

    def residual(self, f):
        """The other half of the plane section of a quartic: f|plane = quadric * residual."""
        x, a = self._divided(f) or (None, None)
        if a is not None:
            return a
        if x is None:
            raise NotOnSurface("conic does not lie on the surface")
        d = sum(next(iter(x.terms))) + 2  # x has degree deg f - 2
        if d != 4:
            raise ValueError(f"the residual is a conic only on a quartic, not on degree {d}")
        return Conic(self.plane, x)

    def _divided(self, f):
        """How f|plane = quadric * q is shown: None if it does not hold, else (x, a).

        a None: x is q from this conic's own division, kept for the last f
        (the same object or an equal form), else _section_quotient(f), which
        a quartic f records under the plane.  a a conic: the plane's record
        holds a, divided by f with quotient x * quadric, so q = x * Q_a.
        """
        last = self._last
        if last is not None and (last[0] is f or last[0] == f):
            return None if last[1] is None else (last[1], None)
        a = _DIVIDED.get(self.coeffs[10:])
        if a is not None and a is not self:
            g, qa = a._last
            if qa is not None and (g is f or g == f):
                # qa = lc * quadric, lc at the monic quadric's lead
                quad = [(m, y) for m, y in zip(_QUAD_MONOS, self.coeffs) if y]
                lead = next(k for k in _LEAD_ORDER if self.coeffs[k])
                lc = qa.terms.get(_QUAD_MONOS[lead])
                if (
                    lc is not None
                    and len(qa.terms) == len(quad)
                    and all(qa.terms.get(m) == lc * y for m, y in quad)
                ):
                    return lc, a
        q = self._section_quotient(f)
        self._last = (f, q)
        if q is None:
            return None
        if sum(next(iter(q.terms))) == 2:  # f is a quartic
            _DIVIDED[self.coeffs[10:]] = self
        return q, None

    def _section_quotient(self, f):
        """The form q with f|plane = quadric * q, or None if there is none.

        The section is divided by the monic reduced quadric with a triangular
        solve in descending degrevlex order; the quotient is accepted only if
        quadric * q reproduces every coefficient of the section.
        """
        d = _degree(f)
        if d < 2:
            return None
        p = self.pivot
        sect = _section(f, d, p, self.coeffs[10:])
        if not any(sect):
            return None
        quad = [self.coeffs[k] for k in _TERNARY_QUAD[p]]
        lead = next(k for k, x in enumerate(quad) if x)  # canonical: quad[lead] == 1
        solve, check = _division_table(d, lead)
        neg = [-x for x in quad]
        r = [None] * len(solve)
        for k, (n, qs, rs) in enumerate(solve):
            r[k] = dot([sect[n]] + [neg[i] for i in qs], [K1] + [r[j] for j in rs])
        for n, ii, jj in check:
            if dot([quad[i] for i in ii], [r[j] for j in jj]) != sect[n]:
                return None
        monos = dense_monomials(3, d - 2)[0]
        return Poly(ZRING, {m[:p] + (0,) + m[p:]: x for m, x in zip(monos, r) if x})

    def point_on_plane_line(self, other):
        """Two independent points spanning the line plane(self) = plane(other) = 0.

        With p_ij = b_i c_j - b_j c_i the 2x2 minors of the planes b and c,
        p_jk e_i + p_ki e_j + p_ij e_k lies on both (Cramer's rule); p_ij != 0
        and k each of the other two columns give two independent points.
        """
        b, c = self.coeffs[10:], other.coeffs[10:]
        p = [[K0] * 4 for _ in range(4)]
        for i, j in _PLANE_PAIRS:
            p[i][j] = dot((b[i], b[j]), (c[j], -c[i]))
            p[j][i] = -p[i][j]
        i, j = next(((i, j) for i, j in _PLANE_PAIRS if p[i][j]), (None, None))
        if i is None:
            raise CommonComponent("planes coincide; no unique common line")
        points = []
        for k in range(4):
            if k not in (i, j):
                v = [K0] * 4
                v[i], v[j], v[k] = p[j][k], p[k][i], p[i][j]
                points.append(v)
        return points


def _degree(f):
    """Degree of a form f in K[z0..z3]."""
    if f.ring.names != ZRING.names:
        raise RingMismatch(f"surface equation in {f.ring!r}, conics in {ZRING!r}")
    degrees = {sum(m) for m in f.terms}
    if len(degrees) != 1:
        raise ValueError("surface equation must be a nonzero form")
    return degrees.pop()


def _section(f, d, pivot, b):
    """f restricted to the plane z_pivot = -sum b_j z_j, dense in the other variables.

    The substitution keeps the other variables and sends z_pivot to
    L = -sum b_j z_j: one dense row, so poly.dense_image groups f by the
    exponent e of z_pivot and forms only the powers of L that f uses.
    """
    rows = list(_KEEP[pivot])
    rows[pivot] = [-b[j] for j in _OTHERS[pivot]]
    return dense_image(f.terms, d, rows)


def intersection_number(c1, c2):
    """Intersection number of two irreducible census conics on the surface.

    Both conics must be irreducible; reducible inputs can share a line, which
    is reported as CommonComponent rather than a number.
    """
    if c1 == c2:
        return -2
    if c1.coeffs[10:] == c2.coeffs[10:]:
        # Distinct irreducible conics in one plane: Bezout, no common part.
        return 4
    s, t = c1.point_on_plane_line(c2)
    # a quadric sum a_ij z_i z_j on the line u*s + v*t is the binary quadratic
    # with coefficients sum a_ij s_i s_j, sum a_ij (s_i t_j + s_j t_i) and
    # sum a_ij t_i t_j on u^2, u*v and v^2
    line = (
        [s[i] * s[j] for i, j in _QUAD_PAIRS],
        [dot((s[i], s[j]), (t[j], t[i])) for i, j in _QUAD_PAIRS],
        [t[i] * t[j] for i, j in _QUAD_PAIRS],
    )
    a0, a1, a2 = (dot(c1.coeffs[:10], v) for v in line)
    b0, b1, b2 = (dot(c2.coeffs[:10], v) for v in line)
    if not (a0 or a1 or a2) or not (b0 or b1 or b2):
        raise CommonComponent("conic contains the common line of the two planes")
    # 2x2 minors of the coefficient rows; both quadratics are proportional
    # iff all vanish, and their resultant is m02^2 - m01*m12
    m01 = dot((a0, a1), (b1, -b0))
    m02 = dot((a0, a2), (b2, -b0))
    m12 = dot((a1, a2), (b2, -b1))
    if dot((m02, m01), (m02, -m12)):
        return 0
    return 1 if (m01 or m02 or m12) else 2


def hypersurface_smooth(f, budget=None):
    """Whether the projective hypersurface V(f) in P^3 is smooth.

    Chart by chart, checks that f and its partials generate the unit ideal.
    """
    from .groebner import buchberger

    ring = f.ring
    sys_full = [f] + [f.partial_derivative(i) for i in range(ring.n)]
    for chart in range(ring.n):
        eqs = [p.substitute(chart, K1) for p in sys_full]
        eqs = [p for p in eqs if p]
        if not eqs:
            return False
        G = buchberger(eqs, budget=budget)
        if not G.is_trivial():
            return False
    return True
