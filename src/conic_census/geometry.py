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
share one section and one division.  A division S = Q_a * q that succeeds on
a quartic f is recorded under the canonical plane, and it answers for that
plane and for its images under the automorphisms of K that fix f.  A conic c
on the plane P asked about f first looks up the record of each plane
sigma_t(P): t = 0, the identity, and each t whose automorphism sigma_t
(KElem.galois(t), coefficient-wise) fixes every coefficient of f, one t per
distinct image of P.  Where the record a was divided by the same f:

- if sigma_t(c) = a, c's quotient is sigma_t(q);
- if q = lc(q) * Q_sigma_t(c) (at most six products), sigma_t(c) is a's
  residual: c's quotient is sigma_t(lc(q)) * Q_sigma_t(a), and c's residual
  is sigma_t(a).

Either way c makes no section or division of its own.  This is exact:

- each sigma_t is an involution, and it fixes f, so it maps V(f) to itself;
- the canonical form (_canonical) uses only field operations and zero
  tests, so sigma_t of a canonical record is the canonical record of the
  conjugate conic, with the same pivot and lead;
- f|sigma_t(P) = Q_a * q, carried over by sigma_t, is
  f|P = Q_sigma_t(a) * sigma_t(q), and q = lc * Q_sigma_t(c) becomes
  sigma_t(q) = sigma_t(lc) * Q_c;
- 4 det of a conjugate quadric is sigma_t(4 det), so is_irreducible
  transfers as well (pipeline._conics_valid skips conjugate groups whole).

A conic that is neither is divided itself, so a damaged record on a
conjugate plane is never passed.  On the census, whose 400 planes fall into
160 classes under the eight automorphisms, a per-conic loop makes 160
sections.  The record holds the divided conic by weak reference only, so it
answers while that conic lives and never grows past the live conics.  On a
surface of another degree the quotient is no quadric: nothing is recorded,
and residual raises ValueError naming the degree.

Intersection numbers between members of the census follow the plane geometry:
equal conics have self-intersection -2 (smooth rational curve on a K3),
coplanar distinct conics meet with multiplicity 4 (Bezout in their plane), and
conics in distinct planes meet only along the common line, where the count is
the degree of the gcd of the two restricted binary quadratics (0, 1 or 2).
Two points spanning the line come from the 2x2 minors of the two planes
(Cramer's rule), with no inverse in K.
With w_i(v) = sum_{j >= i} a_ij v_j, a quadric sum a_ij z_i z_j is
Q(s) u^2 + B(s, t) u*v + Q(t) v^2 on the line u*s + v*t, where
Q(v) = sum v_i w_i(v) and B(s, t) = sum s_i w_i(t) + t_i w_i(s).  With m01,
m02, m12 the 2x2 minors of the two coefficient rows, the resultant is
m02^2 - m01*m12: a nonzero resultant means no common point (0), all three
minors zero means proportional quadratics (2), anything else one common
point (1).

Most pairs are disjoint, and that is proved over F_P first: the same body
(_line_meet) runs on the images of the 28 coefficients (field.mod_p, kept
per conic) with field.dot_p as its sum.  A resultant nonzero mod P answers
0; anything else (an image None, no plane minor a unit mod P, a resultant
= 0 mod P) goes to K, so F_P never answers 1, 2 or CommonComponent.  This
is exact: mod_p is a ring map phi on the elements whose denominator P does
not divide, and each minor, point and resultant is an integer polynomial in
the 28 coefficients.  So a minor with phi(p_ij) != 0 is nonzero and its two
points span the line over K, and the resultant over K on them, with image
phi(res) != 0, is nonzero: the conics share no point.  Other spanning
points multiply it by delta^4 != 0, delta the change of points'
determinant, so the K route agrees.
"""

import functools
import weakref

from .errors import CommonComponent, DegenerateConic, NotOnSurface, RingMismatch
from .field import FLIPPED, ONE as K1, ZERO as K0, KElem, dot, dot_p, mod_p
from .poly import (
    DEGREVLEX,
    Poly,
    PolyRing,
    dense_image,
    dense_monomials,
    product_table,
    specialize,
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
_ROWS = tuple(slice(_QIDX[i][i], _QIDX[i][3] + 1) for i in range(4))  # a_ii..a_i3
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
# [f, fixers]: the last surface asked about, and the t = 1..7 whose
# automorphism fixes each of its coefficients
_FIXERS = [None, ()]


def _mask(xs):
    """The OR of the masks of xs: the basis coordinates any of them holds."""
    m = 0
    for x in xs:
        m |= x.mask
    return m


def galois_image(xs, t):
    """sigma_t of each of xs, for the automorphism KElem.galois(t)."""
    return tuple(x.galois(t) for x in xs)


def plane_conjugates(plane, f):
    """(t, sigma_t(plane)) for t = 0 and each t = 1..7 whose automorphism fixes
    every coefficient of f, one t per distinct image, smallest t first.

    sigma_t and sigma_u move the plane alike exactly when FLIPPED[t] and
    FLIPPED[u] agree on the coordinates its coefficients hold.  The fixers
    are kept for the last f (the same object or an equal form).
    """
    g, fixers = _FIXERS
    if g is not f and not (g is not None and g == f):
        fmask = _mask(f.terms.values())
        fixers = tuple(t for t in range(1, 8) if not FLIPPED[t] & fmask)
        _FIXERS[:] = f, fixers
    mask = _mask(plane)
    seen = {0}
    images = [(0, plane)]
    for t in fixers:
        moved = FLIPPED[t] & mask
        if moved not in seen:
            seen.add(moved)
            images.append((t, galois_image(plane, t)))
    return images


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
        "pivot", "coeffs", "_hash", "_key", "_coeffs_p", "_plane", "_quadric", "_last",
        "__weakref__"
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
        self._hash = self._key = self._coeffs_p = self._plane = self._quadric = None
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
    def coeffs_p(self):
        """The 14 canonical coefficients in F_P (field.mod_p), or None when
        P divides a denominator."""
        if self._coeffs_p is None:
            image = tuple(map(mod_p, self.coeffs))
            self._coeffs_p = () if None in image else image
        return self._coeffs_p or None

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
        x, a, t = self._divided(f) or (None, None, 0)
        if a is not None:
            return a if t == 0 else Conic.from_coeffs(galois_image(a.coeffs, t))
        if x is None:
            raise NotOnSurface("conic does not lie on the surface")
        d = sum(next(iter(x.terms))) + 2  # x has degree deg f - 2
        if d != 4:
            raise ValueError(f"the residual is a conic only on a quartic, not on degree {d}")
        return Conic(self.plane, x)

    def _divided(self, f):
        """How f|plane = quadric * q is shown: None if it does not hold, else (x, a, t).

        a None: x is q, from this conic's own division or from sigma_t of
        the quotient of the conic a plane record holds when that conic is
        sigma_t(self); kept for the last f (the same object or an equal
        form).  a a conic: the record of sigma_t(plane) holds a, divided by
        f with a quotient lc * Q_sigma_t(self), so q = x * Q_sigma_t(a) with
        x = sigma_t(lc), and sigma_t(a) is the residual.  A conic no record
        answers for is divided itself (_section_quotient), and a quartic f
        records it under the plane.
        """
        last = self._last
        if last is not None and (last[0] is f or last[0] == f):
            return None if last[1] is None else (last[1], None, 0)
        coeffs = self.coeffs
        for t, plane in plane_conjugates(coeffs[10:], f):
            a = _DIVIDED.get(plane)
            if a is None:
                continue
            g, qa = a._last
            if qa is None or not (g is f or g == f):
                continue
            quad = galois_image(coeffs[:10], t)
            if quad == a.coeffs[:10]:
                if t:
                    qa = Poly(ZRING, {m: y.galois(t) for m, y in qa.terms.items()})
                self._last = (f, qa)
                return qa, None, 0
            # is qa = lc * quad, lc at the monic quadric's lead?
            lc = qa.terms.get(_QUAD_MONOS[next(k for k in _LEAD_ORDER if quad[k])])
            nonzero = [(m, y) for m, y in zip(_QUAD_MONOS, quad) if y]
            if (
                lc is not None
                and len(qa.terms) == len(nonzero)
                and all(qa.terms.get(m) == lc * y for m, y in nonzero)
            ):
                return lc.galois(t), a, t
        q = self._section_quotient(f)
        self._last = (f, q)
        if q is None:
            return None
        if sum(next(iter(q.terms))) == 2:  # f is a quartic
            _DIVIDED[coeffs[10:]] = self
        return q, None, 0

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


def point_on_plane_line(b, c, total):
    """Two independent points on the planes b and c, or None when no minor
    p_ij = b_i c_j - b_j c_i is nonzero; total is the coefficient sum,
    field.dot over K or field.dot_p over F_P.  With the first p_ij != 0 and
    k each other column, p_jk e_i + p_ki e_j + p_ij e_k (Cramer's rule).
    """
    p = {}
    for i, j in _PLANE_PAIRS:
        p[i, j] = total((b[i], b[j]), (c[j], -c[i]))
        p[j, i] = -p[i, j]
    i, j = next(((i, j) for i, j in _PLANE_PAIRS if p[i, j]), (None, None))
    if i is None:
        return None
    points = []
    for k in range(4):
        if k not in (i, j):
            v = [total((), ())] * 4
            v[i], v[j], v[k] = p[j, k], p[k, i], p[i, j]
            points.append(v)
    return points


def _line_meet(x, y, total):
    """(restrictions, minors, resultant) of the quadrics of the rows x, y
    (a00..a33, b0..b3) on the common line of their planes, or None when no
    minor of the planes is nonzero; total as in point_on_plane_line.
    """
    points = point_on_plane_line(x[10:], y[10:], total)
    if points is None:
        return None
    s, t = points
    rows = []
    for q in (x, y):
        ws, wt = ([total(q[r], v[i:]) for i, r in enumerate(_ROWS)] for v in (s, t))
        rows.append((total(s, ws), total(s + t, wt + ws), total(t, wt)))
    (a0, a1, a2), (b0, b1, b2) = rows
    # 2x2 minors of the coefficient rows; both quadratics are proportional
    # iff all vanish, and their resultant is m02^2 - m01*m12
    m01 = total((a0, a1), (b1, -b0))
    m02 = total((a0, a2), (b2, -b0))
    m12 = total((a1, a2), (b2, -b1))
    return rows, (m01, m02, m12), total((m02, m01), (m02, -m12))


def intersection_number(c1, c2):
    """Intersection number of two irreducible census conics on the surface.

    Both conics must be irreducible; reducible inputs can share a line, which
    is reported as CommonComponent rather than a number.  Conics in distinct
    planes are met over F_P first, and over K unless that proves them
    disjoint (see the module docstring).
    """
    if c1 == c2:
        return -2
    if c1.coeffs[10:] == c2.coeffs[10:]:
        # Distinct irreducible conics in one plane: Bezout, no common part.
        return 4
    x, y = c1.coeffs_p, c2.coeffs_p
    met = x and y and _line_meet(x, y, dot_p)
    if met and met[2]:
        return 0
    # canonical planes that differ are independent: a minor is nonzero
    rows, minors, res = _line_meet(c1.coeffs, c2.coeffs, dot)
    if not all(any(row) for row in rows):
        raise CommonComponent("conic contains the common line of the two planes")
    if res:
        return 0
    return 1 if any(minors) else 2


def singular_charts(f, n):
    """(j, equations) for each affine chart z_j = 1, j < n, of the singular
    locus of V(f).

    The equations are f and its partials in z_0..z_{n-1}, with z_j set to 1
    by poly.specialize, in that order, the zero ones dropped.  Variables
    from z_n on are parameters: they keep no partial and no chart.  Taking n
    as the number of variables gives the Jacobian ideal of a projective
    hypersurface chart by chart.
    """
    system = [f] + [f.partial_derivative(i) for i in range(n)]
    for j in range(n):
        yield j, [e for e in (specialize(p, {j: K1}) for p in system) if e]

