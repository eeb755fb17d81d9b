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
group action all pass through it.

Intersection numbers between members of the census follow the plane geometry:
equal conics have self-intersection -2 (smooth rational curve on a K3),
coplanar distinct conics meet with multiplicity 4 (Bezout in their plane), and
conics in distinct planes meet only along the common line, where the count is
the degree of the gcd of the two restricted binary quadratics (0, 1 or 2,
decided by a resultant and a proportionality test).
"""

from .errors import CommonComponent, DegenerateConic, NotOnSurface
from .field import ONE as K1, ZERO as K0, KElem, dot, kelem
from .linalg import mat_det, nullspace
from .poly import DEGREVLEX, Poly, PolyRing, divide_exact

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
_PLANE_MONOS = tuple(_unit(i) for i in range(4))
_QIDX = tuple(
    tuple(_QUAD_PAIRS.index((min(i, j), max(i, j))) for j in range(4)) for i in range(4)
)
# record positions of the quadric coefficients, largest monomial first
_LEAD_ORDER = tuple(
    sorted(range(10), key=lambda k: ZRING.key(_QUAD_MONOS[k]), reverse=True)
)


def _canonical(b, a):
    """(pivot, plane, quadric) in canonical form from 4 + 10 coefficients."""
    pivot = next((i for i in range(4) if b[i]), None)
    if pivot is None:
        raise DegenerateConic("plane must be a nonzero linear form")
    if not any(a):
        raise DegenerateConic("quadric must be a nonzero quadratic form")
    lead = b[pivot]
    if lead != K1:
        inv = lead.inverse()
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
        inv = lead.inverse()
        a = [x * inv for x in a]
    return pivot, tuple(b), tuple(a)


class Conic:
    """An irreducible-or-not plane conic in canonical form.

    coeffs holds the 14 canonical coefficients in record order a00..a33,
    b0..b3, key their text form; plane and quadric are the same data as
    polynomials.
    """

    __slots__ = ("plane", "quadric", "pivot", "coeffs", "key")

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
        pivot, b, a = _canonical(b, a)
        self.pivot = pivot
        self.plane = Poly(ZRING, {m: x for m, x in zip(_PLANE_MONOS, b) if x})
        self.quadric = Poly(ZRING, {m: x for m, x in zip(_QUAD_MONOS, a) if x})
        self.coeffs = a + b
        self.key = tuple(x.to_text() for x in self.coeffs)

    @classmethod
    def from_coeffs(cls, coeffs):
        """Canonical conic from 14 coefficients in record order a00..a33, b0..b3."""
        if len(coeffs) != 14:
            raise ValueError(f"expected 14 coefficients, got {len(coeffs)}")
        c = cls.__new__(cls)
        c._set(coeffs[10:], coeffs[:10])
        return c

    def __eq__(self, other):
        return isinstance(other, Conic) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

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

    def gram3(self):
        """Symmetric 3x3 matrix of the reduced quadric in the non-pivot variables."""
        others = [i for i in range(4) if i != self.pivot]
        half = kelem(1) / kelem(2)
        a = self.coeffs
        return [
            [a[_QIDX[i][j]] if i == j else a[_QIDX[i][j]] * half for j in others]
            for i in others
        ]

    def is_irreducible(self):
        """Smooth conic test: the 3x3 symmetric matrix is nondegenerate."""
        return bool(mat_det(self.gram3()))

    def on_surface(self, f):
        """Whether the conic is a component of the plane section of V(f)."""
        return self._section_quotient(f) is not None

    def residual(self, f):
        """The other half of the plane section: f|plane = quadric * residual."""
        q = self._section_quotient(f)
        if q is None:
            raise NotOnSurface("conic does not lie on the surface")
        return Conic(self.plane, q)

    def _section_quotient(self, f):
        sect = f.substitute(self.pivot, ZRING.var(self.pivot) - self.plane)
        if not sect:
            return None
        return divide_exact(sect, self.quadric)

    def plane_coeffs(self):
        return list(self.coeffs[10:])

    def point_on_plane_line(self, other):
        """Two independent points spanning the line plane(self) = plane(other) = 0."""
        rows = [self.plane_coeffs(), other.plane_coeffs()]
        basis = nullspace(rows, 4)
        if len(basis) != 2:
            raise CommonComponent("planes coincide; no unique common line")
        return basis


def _restrict_to_line(q, s, t):
    """Binary quadratic (c_uu, c_uv, c_vv) of q on the line u*s + v*t."""
    qs = q.evaluate(s)
    qt = q.evaluate(t)
    st = [a + b for a, b in zip(s, t)]
    qst = q.evaluate(st)
    return (qs, qst - qs - qt, qt)


def _sylvester2(a, b):
    z = K0
    rows = [
        [a[0], a[1], a[2], z],
        [z, a[0], a[1], a[2]],
        [b[0], b[1], b[2], z],
        [z, b[0], b[1], b[2]],
    ]
    return mat_det(rows)


def intersection_number(c1, c2):
    """Intersection number of two irreducible census conics on the surface.

    Both conics must be irreducible; reducible inputs can share a line, which
    is reported as CommonComponent rather than a number.
    """
    if c1.key == c2.key:
        return -2
    if tuple(c1.plane_coeffs()) == tuple(c2.plane_coeffs()):
        # Distinct irreducible conics in one plane: Bezout, no common part.
        return 4
    s, t = c1.point_on_plane_line(c2)
    q1 = _restrict_to_line(c1.quadric, s, t)
    q2 = _restrict_to_line(c2.quadric, s, t)
    if not any(q1) or not any(q2):
        raise CommonComponent("conic contains the common line of the two planes")
    if _sylvester2(q1, q2):
        return 0
    prop = (
        not (q1[0] * q2[1] - q1[1] * q2[0])
        and not (q1[0] * q2[2] - q1[2] * q2[0])
        and not (q1[1] * q2[2] - q1[2] * q2[1])
    )
    return 2 if prop else 1


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
