"""Finite matrix groups acting on P^3 and on conics.

Elements are exact 4x4 matrices over K.  generate_group closes generators
by BFS with exact deduplication, so the element list is deterministic for a
fixed generator list.  A matrix M moves a conic to its preimage under
z -> M*z: M*z is substituted into both equations, so the action composes
contravariantly (act(M*N) = act(M) then act(N)).  On the 14 record
coefficients this is a linear map, Sym^2(M) on the 10 quadric coefficients
and M on the 4 plane coefficients (the row vector b goes to b*M).  Each
matrix builds the map the first time it acts and keeps it, as the source
positions and nonzero factors of every output coefficient, so an action is
one dot product of at most 10 terms per output coefficient, and under a
signed permutation matrix (three of the four census generators) each
output coefficient is one copy or one scaling.  The result goes through the one conic canonicaliser in geometry.
Orbits only ever compare canonical coefficients, so the convention drops
out of every reported result.

generate_group runs its BFS on rows, not on matrices: row i of m*g is row
i of m times g, and the elements of a finite group share few rows (the
7680 elements of the census group have 160).  So an element is the 4-tuple
of its row positions in a closure of rows under v -> v*g, and its product
with a generator is four lookups in that generator's move on the row
positions, recorded as conic_closure records its moves on conics.  A row's
image is computed when an element first needs it, one vector-matrix
product per row and generator, so an infinite group stops on the element
budget having moved no more rows than its elements hold.
projective_classes likewise scales each distinct row once per leading
entry.

conic_closure is the one BFS over conics: it closes seed conics under the
generators and records, with each image it computes, that image's position
in the closed list.  So each generator is also a permutation of the list
positions, at one action per generator and conic; orbit_of_conic is a view
of the closure.  label_orbits runs the same BFS from one conic but stops at
the first image whose label is known, so labelling a few conics by their
orbits costs far fewer actions than closing every orbit.  Both stop at an
explicit bound on the conics they list.  permutation_action closes those
permutations by BFS, acting on no conic, keeping one matrix per
permutation along the BFS tree (a Schreier transversal), and checks on
every other edge that the Schreier generator is a scalar; the scalars
generate the kernel of the action (Schreier's lemma; Holt, Eick and
O'Brien, Handbook of Computational Group Theory, 2005, ch. 4).  So one
closure gives the group order |P| * |kernel|, the projective order |P|,
and stabilizers counted on integers, with no group element inverted.
"""

from itertools import chain

from .errors import ResourceBudgetExceeded, SingularMatrix
from .field import ONE as K1, ZERO as K0, KElem, dot, kelem
from .geometry import _QUAD_PAIRS, Conic
from .linalg import mat_det, mat_mul


class GroupMatrix:
    """An exact invertible 4x4 matrix over K, hashable by its entries.

    invertible caches the determinant test: None until require_invertible()
    first runs, then its outcome.  A product of two matrices known to be
    invertible is known to be invertible, since det(MN) = det(M) det(N).
    """

    __slots__ = ("rows", "key", "invertible", "_conic_map")

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
        self._conic_map = None

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

    def conic_map(self):
        """The action on conic coefficients: one (sources, factors) per output.

        Output n of the map on a record a (a00..a33, b0..b3) is
        sum f * a[i] over i, f in zip(sources, factors); an output with one
        source and factor 1 is stored as (i, None), the copy a[i].  Q(M*z)
        has coefficient sum a_ij (M_ik M_jl + M_il M_jk) on z_k*z_l (k < l)
        and sum a_ij M_ik M_jk on z_k^2, and the plane b goes to b*M.  Built
        on the first call, after require_invertible(), and kept.
        """
        if self._conic_map is None:
            self.require_invertible()
            m = self.rows
            rows = [
                [
                    m[i][k] * m[j][k]
                    if k == l
                    else dot((m[i][k], m[i][l]), (m[j][l], m[j][k]))
                    for i, j in _QUAD_PAIRS
                ]
                for k, l in _QUAD_PAIRS
            ]
            rows += [[K0] * 10 + [m[i][k] for i in range(4)] for k in range(4)]
            entries = []
            for row in rows:
                srcs = tuple(i for i, f in enumerate(row) if f)
                facs = tuple(row[i] for i in srcs)
                entries.append((srcs[0], None) if facs == (K1,) else (srcs, facs))
            self._conic_map = tuple(entries)
        return self._conic_map

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
    known to be invertible.  Raises ResourceBudgetExceeded when the group
    passes max_size elements.  The BFS runs on 4-tuples of row positions
    (see the module docstring), so the elements and their order are those
    of the BFS on matrix products m * g, and each new element is built from
    the shared row tuples.
    """
    gens = list(gens)
    identity = GroupMatrix.identity()
    for m in [identity] + gens:
        m.require_invertible()
    rows = list(identity.rows)
    index = {r: i for i, r in enumerate(rows)}  # row -> position
    edges = [(tuple(zip(*g.rows)), {}) for g in gens]  # (columns, row moves)

    def image(cols, move, i):
        j = move.get(i)
        if j is None:
            r = tuple(dot(rows[i], c) for c in cols)
            j = move[i] = index.setdefault(r, len(rows))
            if j == len(rows):
                rows.append(r)
        return j

    frontier = [tuple(range(4))]
    seen = set(frontier)
    order = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for cols, move in edges:
                q = tuple(image(cols, move, i) for i in p)
                if q not in seen:
                    seen.add(q)
                    m = GroupMatrix.__new__(GroupMatrix)
                    m._set([rows[i] for i in q])
                    m.invertible = True
                    order.append(m)
                    nxt.append(q)
                    if len(order) > max_size:
                        raise ResourceBudgetExceeded(
                            f"group closure exceeded {max_size} elements"
                        )
        frontier = nxt
    return order


def projective_classes(elements):
    """One representative per scalar class, in first-seen order.

    Two elements are in one class iff their projective_key() agree: the
    entries scaled so the first nonzero one (row-major) is 1.  Each distinct
    leading entry is inverted once per call and each distinct pair of a row
    and a leading entry scaled once, since a group's elements share few rows.
    """
    inverses = {}  # leading entry -> its inverse
    scaled = {}  # (row, leading entry) -> position of the scaled row
    positions = {}  # scaled row -> position
    seen = set()
    reps = []
    for m in elements:
        first = next(x for x in m.key if x)
        key = []
        for row in m.rows:
            k = scaled.get((row, first))
            if k is None:
                if first not in inverses:
                    inverses[first] = first.inverse()
                inv = inverses[first]
                k = positions.setdefault(tuple(x * inv for x in row), len(positions))
                scaled[row, first] = k
            key.append(k)
        key = tuple(key)
        if key not in seen:
            seen.add(key)
            reps.append(m)
    return reps


def act_on_conic(m, conic):
    """The preimage of conic under z -> M*z, in canonical form."""
    a = conic.coeffs
    return Conic.from_coeffs(
        [a[src] if f is None else dot([a[i] for i in src], f) for src, f in m.conic_map()]
    )


def conic_closure(gens, seeds, max_size=100000):
    """(conics, moves): the closure of the seeds under gens, by one BFS.

    Seeds are closed one at a time, so each seed not reached before starts
    one contiguous run of conics, its orbit in discovery order; a seed
    already reached adds nothing.  moves[g][i] is the position of
    act_on_conic(gens[g], conics[i]), recorded when that image is computed:
    one action per generator and conic.  Images are looked up by their
    canonical coefficients, so one already listed builds no text or
    polynomial.  Raises ResourceBudgetExceeded when the closure passes
    max_size conics, as it does under a generator of infinite order.
    """
    index = {}  # canonical coeffs -> position; new coeffs get the next one
    conics = []
    moves = [[] for _ in gens]
    done = 0
    for seed in seeds:
        if index.setdefault(seed.coeffs, len(conics)) == len(conics):
            conics.append(seed)
        while done < len(conics):
            for g, move in zip(gens, moves):
                image = act_on_conic(g, conics[done])
                j = index.setdefault(image.coeffs, len(conics))
                if j == len(conics):
                    conics.append(image)
                    if len(conics) > max_size:
                        raise ResourceBudgetExceeded(
                            f"conic closure exceeded {max_size} conics"
                        )
                move.append(j)
            done += 1
    return conics, [tuple(move) for move in moves]


def _orbit_search(gens, conic, labels, max_size):
    """(visited, label): a BFS from conic under gens up to the first image
    in labels, and that image's label; None when the orbit holds none."""
    visited = [conic]
    seen = {conic}
    for c in visited:
        for g in gens:
            image = act_on_conic(g, c)
            if image in labels:
                return visited, labels[image]
            if image not in seen:
                seen.add(image)
                visited.append(image)
                if len(visited) > max_size:
                    raise ResourceBudgetExceeded(
                        f"orbit search exceeded {max_size} conics"
                    )
    return visited, None


def label_orbits(gens, conics, labels, max_size=100000):
    """Extend labels, a dict conic -> orbit label, to every one of conics.

    Each conic not yet in labels starts a BFS under gens, one action per
    generator and visited conic, that stops at the first image already in
    labels.  Every conic it visited lies in that image's orbit, so each gets
    that image's label.  A BFS that closes its orbit without meeting a
    labelled conic gives every conic of the orbit the label None, so a later
    search that meets one stops there too.  Raises ResourceBudgetExceeded
    when one search lists more than max_size conics; that search records no
    label.  Returns labels.
    """
    for conic in conics:
        if conic not in labels:
            visited, label = _orbit_search(gens, conic, labels, max_size)
            labels.update(dict.fromkeys(visited, label))
    return labels


def orbit_of_conic(gens, conic):
    """The orbit of a conic as a dict canonical key -> Conic, in BFS order."""
    conics, _ = conic_closure(gens, [conic])
    return {c.key: c for c in conics}


def permutation_action(gens, moves, max_size=100000):
    """(perms, kernel) of the group generated by gens on a closed conic list.

    moves[g] is the permutation of the list positions made by gens[g], as
    conic_closure records it; no conic is acted on here.  perms is the image
    P of the group in the symmetric group of the positions, in BFS order
    with the identity first: entry i is the position of the image of conic
    i, and the product of p by a generator g maps i to g[p[i]] (act by p,
    then by g, as rep[p] * g).  kernel is the set of scalars lambda with
    lambda*I in the group, or None when some edge p -g-> q of the closure
    has rep[p] * g not a scalar multiple of rep[q].  Raises
    ResourceBudgetExceeded when P or the kernel passes max_size elements.
    """
    identity = tuple(range(len(moves[0]))) if moves else ()
    edges = list(zip(gens, moves))
    rep = {identity: GroupMatrix.identity()}
    ratios = set()
    scalar = True
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            m = rep[p]
            for g, move in edges:
                q = tuple(map(move.__getitem__, p))
                mg = m * g
                r = rep.get(q)
                if r is None:
                    rep[q] = mg
                    nxt.append(q)
                    if len(rep) > max_size:
                        raise ResourceBudgetExceeded(
                            f"permutation closure exceeded {max_size} elements"
                        )
                elif scalar and mg.key != r.key:
                    k = next(k for k, y in enumerate(r.key) if y)
                    lam = mg.key[k] / r.key[k]
                    scalar = all(x == lam * y for x, y in zip(mg.key, r.key))
                    ratios.add(lam)
        frontier = nxt
    if not scalar:
        return list(rep), None
    kernel = {K1}
    new = [K1]
    while new:
        new = [x for x in {a * b for a in new for b in ratios} if x not in kernel]
        kernel.update(new)
        if len(kernel) > max_size:
            raise ResourceBudgetExceeded(f"scalar kernel exceeded {max_size} elements")
    return list(rep), kernel

