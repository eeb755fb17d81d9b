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
positions; orbit_of_conic is a view of the closure.  label_orbits runs the
same BFS from one conic but stops at the first image whose label is known,
so labelling a few conics by their orbits costs far fewer actions than
closing every orbit.  Both stop at an explicit bound on the conics they
list.

Both conic BFSs act once per involution edge.  A generator g whose square
is a scalar lambda*I (all four census and all four Kummer generators) acts
on conics, and so on list positions, as an involution: an edge c -g-> c'
also gives c' -g-> c.  Each BFS takes every generator's square once per
call, one 4x4 product, and never computes such a reverse edge: the closure
records its move, and the label search skips it (its image is already seen
and has no label).  A skipped edge finds nothing new, so every list, move
and label is the one the plain BFS gives, in the same order.  A generator
whose square is not scalar keeps every action.

Stabilizers and the kernel of the action are counted on the classes of
projective_classes.  The scalar matrices of a group make up the identity's
class and every class is a coset of them, so each holds len(G) //
len(classes) matrices, and scalar multiples act alike on conics.
fixing_classes is the one scan for both: a stabilizer order is its count
on one conic, and the kernel on a conic list its result on the list.  The
kernel lies in the stabilizer of each conic of the list, so a scan of one
stabilizer finds it.  fixes_conic tests the plane first (fixes_plane), as
b*M must be a multiple of b (four dot products), and acts on the conic
only when it is, so a scan of the 1920 census classes builds the conic map
of few of them.
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

    Two elements are in one class iff their entries agree once scaled so
    the first nonzero one (row-major) is 1.  Each distinct leading entry is
    inverted once per call and each distinct pair of a row and a leading
    entry scaled once, since a group's elements share few rows.
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


def fixes_plane(m, conic):
    """Whether z -> M*z maps the plane of conic to itself.

    The plane b goes to b*M, a multiple of b exactly when each entry is
    b[i] times its entry at the pivot, where the canonical b is 1.
    """
    b = conic.coeffs[10:]
    image = [dot(b, col) for col in zip(*m.rows)]
    lam = image[conic.pivot]
    return all(x == lam * y for x, y in zip(image, b))


def fixes_conic(m, conic):
    """act_on_conic(m, conic) == conic, acting only when m fixes the plane."""
    return fixes_plane(m, conic) and act_on_conic(m, conic) == conic


def fixing_classes(classes, conics):
    """The classes that fix every conic of conics, in the order of classes.

    Each class is tested on the conics in list order up to the first one it
    moves, so only the classes that fix conics[0] are tested on the rest.
    """
    return [m for m in classes if all(fixes_conic(m, c) for c in conics)]


def _square_scalars(gens):
    """For each generator g, lambda when g*g = lambda*I with lambda nonzero,
    else None: one 4x4 product per generator."""
    out = []
    for g in gens:
        sq = (g * g).key
        lam = sq[0]
        scalar = lam and all(x == (lam if k % 5 == 0 else K0) for k, x in enumerate(sq))
        out.append(lam if scalar else None)
    return out


def conic_closure(gens, seeds, max_size=100000):
    """(conics, moves): the closure of the seeds under gens, by one BFS.

    Seeds are closed one at a time, so each seed not reached before starts
    one contiguous run of conics, its orbit in discovery order; a seed
    already reached adds nothing.  moves[g][i] is the position of
    act_on_conic(gens[g], conics[i]), recorded when that image is computed:
    one action per generator and conic, except that an involution's
    computed edge i -> j also records j -> i, and that action is not made
    (see the module docstring).  Images are looked up by their canonical
    coefficients, so one already listed builds no text or polynomial; each
    listed conic keeps the hash computed here for later lookups.
    Raises ResourceBudgetExceeded when the closure passes max_size conics,
    as it does under a generator of infinite order.
    """
    edges = [(g, lam is not None, {}) for g, lam in zip(gens, _square_scalars(gens))]
    index = {}  # conic -> position; a new conic gets the next one
    conics = []
    done = 0
    for seed in seeds:
        if index.setdefault(seed, len(conics)) == len(conics):
            conics.append(seed)
        while done < len(conics):
            for g, involution, move in edges:
                if done in move:  # the reverse of an involution's edge
                    continue
                image = act_on_conic(g, conics[done])
                j = index.setdefault(image, len(conics))
                if j == len(conics):
                    conics.append(image)
                    if len(conics) > max_size:
                        raise ResourceBudgetExceeded(
                            f"conic closure exceeded {max_size} conics"
                        )
                move[done] = j
                if involution:
                    move[j] = done
            done += 1
    positions = range(len(conics))
    return conics, [tuple(map(move.__getitem__, positions)) for _, _, move in edges]


def _orbit_search(edges, conic, labels, max_size):
    """(visited, label): a BFS from conic under the generators of edges, up
    to the first image in labels, and that image's label; None when the
    orbit holds none.  edges holds (g, involution) pairs; the reverse of an
    involution's edge is not acted on."""
    visited = [conic]
    seen = {conic: 0}  # conic -> position in visited
    known = [set() for _ in edges]  # positions whose image under g is seen
    for i, c in enumerate(visited):
        for (g, involution), skip in zip(edges, known):
            if i in skip:
                continue
            image = act_on_conic(g, c)
            if image in labels:
                return visited, labels[image]
            j = seen.setdefault(image, len(visited))
            if j == len(visited):
                visited.append(image)
                if len(visited) > max_size:
                    raise ResourceBudgetExceeded(
                        f"orbit search exceeded {max_size} conics"
                    )
            if involution:
                skip.add(j)
    return visited, None


def label_orbits(gens, conics, labels, max_size=100000):
    """Extend labels, a dict conic -> orbit label, to every one of conics.

    Each conic not yet in labels starts a BFS under gens, one action per
    generator and visited conic but none on the reverse of an involution's
    edge (see the module docstring), that stops at the first image already
    in labels.  Every conic it visited lies in that image's orbit, so each
    gets that image's label.  A BFS that closes its orbit without meeting a
    labelled conic gives every conic of the orbit the label None, so a later
    search that meets one stops there too.  The generators' squares are
    taken once per call, before the first search.  Raises
    ResourceBudgetExceeded when one search lists more than max_size conics;
    that search records no label.  Returns labels.
    """
    edges = None
    for conic in conics:
        if conic not in labels:
            if edges is None:
                edges = [(g, lam is not None) for g, lam in zip(gens, _square_scalars(gens))]
            visited, label = _orbit_search(edges, conic, labels, max_size)
            labels.update(dict.fromkeys(visited, label))
    return labels


def orbit_of_conic(gens, conic):
    """The orbit of a conic as a dict canonical key -> Conic, in BFS order."""
    conics, _ = conic_closure(gens, [conic])
    return {c.key: c for c in conics}
