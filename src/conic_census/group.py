"""Finite matrix groups acting on P^3 and on conics.

Elements are exact 4x4 matrices over K.  The group is generated by BFS
closure with exact deduplication, so the element list is deterministic for a
fixed generator list.  A matrix M moves a conic to its preimage under
z -> M*z, computed on coefficients: the plane row vector b goes to b*M and
the quadric z^T U z (U upper triangular, U_ij = a_ij) to z^T M^T U M z, whose
coefficient on z_k*z_l is W_kl + W_lk for W = M^T U M (W_kk on z_k^2).  This
is substitution of M*z into both equations, so it composes contravariantly
(act(M*N) = act(N) then act(M)); the result goes through the one conic
canonicaliser in geometry.  Orbits only ever compare canonical conic keys,
so the convention drops out of every reported result.

On a finite list of conics closed under the generators, each generator is
also a permutation of the list positions (one action per generator and
conic); closing those tuples under composition gives the image of the group
in the symmetric group of the list, and stabilizers are counted there on
integers (orbits and permutation images, as in Holt, Eick and O'Brien,
Handbook of Computational Group Theory, 2005).
"""

from itertools import chain

from .errors import ResourceBudgetExceeded, SingularMatrix
from .field import ZERO as K0, KElem, dot, kelem
from .geometry import Conic
from .linalg import mat_det, mat_inv, mat_mul


class GroupMatrix:
    """An exact invertible 4x4 matrix over K, hashable by its entries.

    invertible caches the determinant test: None until require_invertible()
    first runs, then its outcome.  A product of two matrices known to be
    invertible is known to be invertible, since det(MN) = det(M) det(N).
    """

    __slots__ = ("rows", "key", "invertible")

    def __init__(self, rows):
        rows = [[kelem(x) for x in r] for r in rows]
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("need a 4x4 matrix")
        self._set(rows)

    def _set(self, rows):
        # rows: 4 lists of 4 KElems
        self.rows = tuple(map(tuple, rows))
        self.key = tuple(chain.from_iterable(rows))
        self.invertible = None

    def __mul__(self, other):
        p = GroupMatrix.__new__(GroupMatrix)
        p._set(mat_mul(self.rows, other.rows))
        if self.invertible and other.invertible:
            p.invertible = True
        return p

    def __eq__(self, other):
        return isinstance(other, GroupMatrix) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"GroupMatrix({[[str(x) for x in r] for r in self.rows]})"

    def require_invertible(self):
        """Raise SingularMatrix if det = 0; the determinant is taken once."""
        if self.invertible is None:
            self.invertible = bool(mat_det(self.rows))
        if not self.invertible:
            raise SingularMatrix("group matrix is singular")

    def inverse(self):
        return GroupMatrix(mat_inv([list(r) for r in self.rows]))

    def projective_key(self):
        """Entries scaled so the first nonzero one (row-major) is 1."""
        first = next(x for x in self.key if x)
        inv = first.inverse()
        return tuple(x * inv for x in self.key)

    def fields(self):
        """Row-major list of the 16 entries as text."""
        return [x.to_text() for x in self.key]

    @classmethod
    def from_fields(cls, fields):
        if len(fields) != 16:
            raise ValueError(f"expected 16 fields, got {len(fields)}")
        vals = [KElem.from_text(t) for t in fields]
        return cls([vals[4 * i : 4 * i + 4] for i in range(4)])

    @classmethod
    def identity(cls):
        return cls([[1 if i == j else 0 for j in range(4)] for i in range(4)])


def generate_group(gens, max_size=100000):
    """BFS closure of the generators; deterministic element order.

    Raises SingularMatrix if a generator is singular; every element is then
    known to be invertible.
    """
    gens = list(gens)
    frontier = [GroupMatrix.identity()]
    for m in frontier + gens:
        m.require_invertible()
    seen = {}
    order = []
    for m in frontier:
        seen[m.key] = m
        order.append(m)
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = m * g
                if p.key not in seen:
                    seen[p.key] = p
                    order.append(p)
                    nxt.append(p)
                    if len(order) > max_size:
                        raise ResourceBudgetExceeded(
                            f"group closure exceeded {max_size} elements"
                        )
        frontier = nxt
    return order


def projective_classes(elements):
    """One representative per scalar class, in first-seen order."""
    seen = set()
    reps = []
    for m in elements:
        k = m.projective_key()
        if k not in seen:
            seen.add(k)
            reps.append(m)
    return reps


def act_on_conic(m, conic):
    """The preimage of conic under z -> M*z, in canonical form."""
    m.require_invertible()
    cols = tuple(zip(*m.rows))
    a = conic.coeffs
    plane = [dot(a[10:], col) for col in cols]
    upper = (
        a[0:4],
        (K0,) + a[4:7],
        (K0, K0) + a[7:9],
        (K0, K0, K0, a[9]),
    )
    um = tuple(zip(*[[dot(u, col) for col in cols] for u in upper]))  # columns of U*M
    quad = [
        dot(cols[k], um[k]) if k == l else dot(cols[k] + cols[l], um[l] + um[k])
        for k in range(4)
        for l in range(k, 4)
    ]
    return Conic.from_coeffs(quad + plane)


def orbit_of_conic(gens, conic):
    """BFS orbit of a conic under the group generated by gens.

    Returns the orbit as a dict canonical-key -> Conic in discovery order
    (dicts preserve insertion order).
    """
    orbit = {conic.key: conic}
    frontier = [conic]
    while frontier:
        nxt = []
        for c in frontier:
            for g in gens:
                c2 = act_on_conic(g, c)
                if c2.key not in orbit:
                    orbit[c2.key] = c2
                    nxt.append(c2)
        frontier = nxt
    return orbit


def generator_permutations(gens, conics):
    """Each generator as a tuple of positions in conics, or None.

    Entry i of a generator's tuple is the position of act_on_conic(g,
    conics[i]); None when some image is not in the list.
    """
    index = {c.key: i for i, c in enumerate(conics)}
    perms = []
    for g in gens:
        perm = tuple(index.get(act_on_conic(g, c).key) for c in conics)
        if None in perm:
            return None
        perms.append(perm)
    return perms


def permutation_closure(perms, max_size=100000):
    """BFS closure of permutation tuples under composition, identity first.

    The product of p by a generator g maps i to g[p[i]]: act by p, then by g,
    as generate_group multiplies m * g.
    """
    identity = tuple(range(len(perms[0])))
    seen = {identity}
    order = [identity]
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in perms:
                q = tuple(map(g.__getitem__, p))
                if q not in seen:
                    seen.add(q)
                    order.append(q)
                    nxt.append(q)
                    if len(order) > max_size:
                        raise ResourceBudgetExceeded(
                            f"permutation closure exceeded {max_size} elements"
                        )
        frontier = nxt
    return order
