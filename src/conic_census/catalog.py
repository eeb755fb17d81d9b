"""Fixed inputs of the census: the quartic, its symmetries, seed conics,
the pencil of plane sections with its degeneration data, and the quadric
ansatz systems used to enumerate splitting planes.

Everything here is exact data over K or a deterministic symbolic
construction from it.  Nothing in this module is ever trusted blindly by the
pipeline: seed conics are re-checked against the surface, components against
the singular ideal, ansatz systems against independently transcribed
expansions, and enumerated conics against the census.
"""

import functools
from fractions import Fraction

from .field import I, ONE as K1, SQRT2, SQRT5, SQRT10, kelem
from .geometry import Conic, ZRING
from .group import GroupMatrix
from .poly import (
    DEGREVLEX,
    Poly,
    PolyRing,
    compress_variables,
    poly_from_uni,
    ring_map,
    specialize,
    uni_mul,
)
from .groebner import inline_linear


def frac(a, b=1):
    return kelem(Fraction(a, b))


# -- the surface and its symmetry group ---------------------------------------


@functools.cache
def surface():
    """The quartic sum(zi^4) - 6 sum_{i<j} zi^2 zj^2 in K[z0..z3], one object per process."""
    z = ZRING.gens()
    f = z[0] ** 4 + z[1] ** 4 + z[2] ** 4 + z[3] ** 4
    for i in range(4):
        for j in range(i + 1, 4):
            f = f - 6 * z[i] ** 2 * z[j] ** 2
    return f


def symmetry_generators():
    """The four generating matrices of the symmetry group (order 7680)."""
    h = frac(1, 2)
    s1 = GroupMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
    s2 = GroupMatrix(
        [
            [h, h, h * I, h * I],
            [h, h, -h * I, -h * I],
            [-h * I, h * I, h, -h],
            [-h * I, h * I, -h, h],
        ]
    )
    s3 = GroupMatrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    s4 = GroupMatrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    return [s1, s2, s3, s4]


GROUP_ORDER = 7680
PROJECTIVE_ORDER = 1920


# -- seed conics ----------------------------------------------------------------


def seed_conics():
    """The three orbit seeds C1, C2, C3 (orbit lengths 160, 160, 480)."""
    z0, z1, z2, z3 = ZRING.gens()
    plane12 = z0 + z1 + z2
    c1 = Conic(plane12, z1**2 + z1 * z2 + z2**2 + ((3 + SQRT10) / 2) * z3**2)
    c2 = Conic(plane12, z1**2 + z1 * z2 + z2**2 + ((3 - SQRT10) / 2) * z3**2)
    a_val = I * (SQRT5 + 1) / 2
    c3 = Conic(
        z2 + a_val * z3,
        z0**2 + 2 * SQRT2 * z0 * z1 + z1**2 + (3 * (SQRT5 + 1) / 2) * z3**2,
    )
    return c1, c2, c3


SEED_LABELS = ("C1", "C2", "C3")
SEED_ORBIT_LENGTHS = (160, 160, 480)
SEED_STABILIZER_ORDERS = (12, 12, 4)
CENSUS_SIZE = 800
PLANE_COUNT = 400

# Census-wide histogram: number of cutting planes by count of nonzero
# coefficients.  Derived once from the full census and frozen.
PLANE_SUPPORT_HISTOGRAM = {2: 48, 3: 64, 4: 288}


# -- the Kummer configuration ---------------------------------------------------


def kummer_generators():
    """Generators of the order-128 group stabilizing the 16-conic configuration."""
    g1 = GroupMatrix([[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
    g2 = GroupMatrix([[I, 0, 0, 0], [0, I, 0, 0], [0, 0, I, 0], [0, 0, 0, I]])
    g3 = GroupMatrix([[0, 0, -1, 0], [0, -1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1]])
    w = (I + 1) / 2
    g4 = GroupMatrix(
        [
            [0, w, 0, w],
            [-w * I, 0, -w * I, 0],
            [0, w, 0, -w],
            [-w * I, 0, w * I, 0],
        ]
    )
    return [g1, g2, g3, g4]


KUMMER_GROUP_ORDER = 128
KUMMER_PROJECTIVE_ORDER = 32
KUMMER_FIXER_ORDER = 4


# -- the spanning basis of the Neron-Severi lattice ------------------------------


def expected_ns_gram():
    """Expected intersection matrix of the 20 spanning conics of
    certificates.NS_BASIS_FILE, in file order (determinant EXPECTED_NS_DET)."""
    return [
        [-2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
        [0, -2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, -2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, -2, 0, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, -2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, -2, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, -2, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, -2, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, -2, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0],
        [1, 0, 0, 1, 0, 0, 0, 0, 0, -2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
        [0, 1, 0, 1, 0, 0, 0, 0, 0, 0, -2, 0, 0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -2, 0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 0, -2, 0, 0, 0, 0, 0, 0, 0],
        [1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, -2, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, -2, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, -2, 0, 0, 0, 0],
        [0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, -2, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -2, 0, 1],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, -2, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, -2],
    ]


EXPECTED_NS_DET = -160


# -- the pencil of plane sections z2 = t*z3 -------------------------------------

FIBER_RING = PolyRing(("z0", "z1", "z3", "t"), DEGREVLEX)
SECTION_RING = PolyRing(("z0", "z1", "z3"), DEGREVLEX)
XRING = PolyRing(("x",), DEGREVLEX)


def fiber_family():
    """f restricted to the moving plane z2 = t*z3, in K[z0, z1, z3, t]."""
    z0, z1, z3, t = FIBER_RING.gens()
    return ring_map(surface(), FIBER_RING, [z0, z1, t * z3, z3])


def fiber_at(alpha):
    """The plane quartic of the pencil at parameter alpha, in K[z0, z1, z3]."""
    return specialize(
        fiber_family(), {3: alpha}, SECTION_RING, {0: 0, 1: 1, 2: 2}
    )


def degeneration_factors():
    """Coefficient lists (low to high) of the degeneration polynomial factors.

    The first two factors carry the nodal fibers, the last two the fibers
    that split into conic pairs.
    """
    return [[-1, -2, 1], [-1, 2, 1], [1, 0, 3, 0, 1], [5, 0, 6, 0, 5]]


def _factor_product(ring, i, factors):
    """The product of coefficient lists (low to high), multiplied as lists,
    as a polynomial in variable i of ring."""
    return poly_from_uni(ring, i, functools.reduce(uni_mul, factors, [K1]))


def degeneration_polynomial():
    """g(x): the monic squarefree polynomial of singular fiber parameters."""
    return _factor_product(XRING, 0, degeneration_factors()).monic()


def nodal_parameter_polynomial():
    """(x^2 - 2x - 1)(x^2 + 2x - 1): parameters of the nodal fibers."""
    return _factor_product(XRING, 0, degeneration_factors()[:2])


def split_parameter_polynomial():
    """(x^4 + 3x^2 + 1)(5x^4 + 6x^2 + 5): parameters of the split fibers."""
    return _factor_product(XRING, 0, degeneration_factors()[2:])


def nodal_parameters():
    """The four parameter values with a nodal fiber: +-1 +- sqrt(2)."""
    return [1 + SQRT2, 1 - SQRT2, -1 + SQRT2, -1 - SQRT2]


def split_parameters():
    """The eight parameter values whose fiber splits into two conics."""
    a = I * (SQRT5 + 1) / 2
    b = I * (SQRT5 - 1) / 2
    c = (1 + 2 * I) * SQRT5 / 5
    d = (1 - 2 * I) * SQRT5 / 5
    return [a, -a, b, -b, c, -c, d, -d]


def singular_component_generators():
    """The irreducible components of the singular locus of the pencil.

    Each entry is (label, [generators]) in K[z0, z1, z3, t].  The first two
    components are the nodal degenerations (point (0:0:1), parameter a root
    of t^2 +- 2t - 1), the next four carry the node pairs of the split
    fibers, and the last is the irrelevant affine origin.
    """
    z0, z1, z3, t = FIBER_RING.gens()
    q_a = z1**2 - 3 * t**2 * z3**2 - 3 * z3**2
    q_b = z0**2 - 3 * t**2 * z3**2 - 3 * z3**2
    q_c = z1**2 + frac(3, 2) * t**2 * z3**2 + frac(3, 2) * z3**2
    p_a = t**4 + 3 * t**2 + 1
    p_b = t**4 + frac(6, 5) * t**2 + 1
    return [
        ("branch-1", [z0, z1, t**2 + 2 * t - 1]),
        ("branch-2", [z0, z1, t**2 - 2 * t - 1]),
        ("branch-3", [z0, q_a, p_a]),
        ("branch-4", [z1, q_b, p_a]),
        ("branch-5", [z0 + z1, q_c, p_b]),
        ("branch-6", [z0 - z1, q_c, p_b]),
        ("branch-7", [z0, z1, z3]),
    ]


NODAL_POINT = (0, 0, 1)  # the unique singular point of each nodal fiber


# -- quadric ansatz systems for the splitting-plane search ----------------------

CASES = ("i", "ii", "iii", "iv")

# The plane chart of each ansatz case: the plane's coefficients on z0..z3,
# numbers or parameter names, and the j of the z_j that the chart
# coordinates T0 and T1 stand for.  The chart is z3 = 1, solved for the
# pivot, the plane's first nonzero coefficient (a 1).
CHARTS = {
    "i": ((1, "c", "b", "a"), (2, 1)),
    "ii": ((0, 1, "b", "a"), (2, 0)),
    "iii": ((0, 0, 1, "a"), (0, 1)),
}
# the parameter names of each chart in alphabetical order, which is their
# order in the ansatz ring and so sets the Groebner order
CASE_PARAMS = {
    case: tuple(sorted(x for x in plane if isinstance(x, str)))
    for case, (plane, _) in CHARTS.items()
}
EXPECTED_PLANES = {"i": 360, "ii": 32, "iii": 8}
EXPECTED_CONICS = {"i": 720, "ii": 64, "iii": 16}


def ansatz_ring(case):
    names = (
        tuple(f"a{k}" for k in range(1, 7))
        + tuple(f"b{k}" for k in range(1, 7))
        + CASE_PARAMS[case]
        + ("T0", "T1")
    )
    return PolyRing(names, DEGREVLEX)


def _chart_images(case, ring):
    """Images of (z0, z1, z2, z3) on the plane of CHARTS[case], in its chart
    z3 = 1: T0, T1 and 1 for the chart coordinates and z3, and for the
    pivot minus the rest of the plane."""
    plane, coords = CHARTS[case]
    images = [None, None, None, ring.one]
    for j, name in zip(coords, ("T0", "T1")):
        images[j] = ring.var(ring.index(name))
    pivot = plane.index(1)
    images[pivot] = -sum(
        (ring.var(ring.index(x)) if isinstance(x, str) else x) * images[j]
        for j, x in enumerate(plane)
        if j != pivot and x != 0
    )
    return images


def _conic_form(m, t0, t1, one):
    """m1 T0^2 + m2 T0 + m3 + m4 T1^2 + m5 T1 + m6 T0 T1, each term made
    quadratic by powers of one."""
    m1, m2, m3, m4, m5, m6 = m
    return (
        m1 * t0**2 + m2 * t0 * one + m3 * one**2
        + m4 * t1**2 + m5 * t1 * one + m6 * t0 * t1
    )


@functools.cache
def ansatz_equations(case):
    """The splitting conditions: coefficients of cA*cB - f on the plane.

    Returns (ring, equations); equations is a tuple indexed by the monomials
    of the chart coordinates (T0, T1) in ascending exponent order.  Built
    once per case per process.
    """
    ring = ansatz_ring(case)
    i_t0, i_t1 = ring.index("T0"), ring.index("T1")
    t0, t1 = ring.var(i_t0), ring.var(i_t1)
    f_on_plane = ring_map(surface(), ring, _chart_images(case, ring))
    c_a, c_b = (
        _conic_form([ring.var(ring.index(f"{x}{k}")) for k in range(1, 7)], t0, t1, ring.one)
        for x in "ab"
    )
    diff = c_a * c_b - f_on_plane
    groups = {}
    for m, coeff in diff.terms.items():
        key = (m[i_t0], m[i_t1])
        rm = list(m)
        rm[i_t0] = 0
        rm[i_t1] = 0
        groups.setdefault(key, {})[tuple(rm)] = coeff
    eqs = [Poly(ring, terms) for _, terms in sorted(groups.items())]
    return ring, tuple(e for e in eqs if e)


def gauge_fixed_system(case):
    """The ansatz system with the scale fixed by a4 = 1, linear part inlined.

    In cases ii and iii the system contains a4*b4 - 1, so a4 is a unit on
    every solution and each unordered factorization {cA, cB} of the plane
    section appears as exactly two gauge-fixed solutions (one per choice of
    cA).  In case i it contains a4*b4 - (c^4 - 6c^2 + 1) instead: on the
    planes with c = +-1 +- sqrt 2 one of a4, b4 is zero, and a conic with
    a4 = 0 has no gauge-fixed solution, so a factorization there appears
    once or not at all (the missing sub-case is ROADMAP item 3).  The case
    parameters are protected from inlining.  Returns (polys, ring, var_map,
    substitutions, outer_ring) where var_map maps outer ring indices to the
    compressed ring and substitutions restore a4 and the inlined variables.
    """
    ring, eqs = ansatz_equations(case)
    a4 = ring.index("a4")
    eqs = [e for e in (specialize(e, {a4: K1}) for e in eqs) if e]
    protect = {ring.index(nm) for nm in CASE_PARAMS[case]}
    red, subs = inline_linear(eqs, protect=protect)
    polys, cring, vmap = compress_variables(red, extra_keep=sorted(protect))
    return polys, cring, vmap, [(a4, ring.const(K1))] + subs, ring


def conic_from_solution(case, values):
    """Build the (plane, quadric) pair in K[z0..z3] from a solved point.

    values maps ansatz variable names to KElem, with a1..a6 the quadric
    coefficients and the case parameters the plane coefficients of
    CHARTS[case].  The chart form is homogenized with z3.
    """
    plane, (j0, j1) = CHARTS[case]
    z = ZRING.gens()
    plane = sum(
        (values[x] if isinstance(x, str) else x) * zj for x, zj in zip(plane, z) if x != 0
    )
    a = [values[f"a{k}"] for k in range(1, 7)]
    return plane, _conic_form(a, z[j0], z[j1], z[3])


def section_without_last_coordinate():
    """The z3 = 0 plane section of the surface, a ternary quartic."""
    ring = PolyRing(("z0", "z1", "z2"), DEGREVLEX)
    return specialize(surface(), {3: 0}, ring, {0: 0, 1: 1, 2: 2})


def parameter_factors(case):
    """Integer coefficient lists (low to high) of the factors of the final
    univariate plane-parameter polynomial of the case."""
    if case == "ii":
        return [
            [-1, 1],
            [0, 1],
            [1, 1],
            [4, 0, 1],
            [1, 0, 4],
            [1, 0, 3, 0, 1],
            [5, 0, 6, 0, 5],
        ]
    if case == "iii":
        return [[1, 0, 3, 0, 1], [5, 0, 6, 0, 5]]
    if case == "i":
        return [
            [-1, 1],
            [0, 1],
            [1, 1],
            [1, 0, 1],
            [4, 0, 1],
            [-1, -4, 1],
            [5, -4, 1],
            [-1, -1, 1],
            [-1, 1, 1],
            [-1, 4, 1],
            [5, 4, 1],
            [1, 0, 4],
            [5, -6, 5],
            [1, -4, 5],
            [1, 4, 5],
            [5, 6, 5],
            [1, 0, 3, 0, 1],
            [1, 0, 18, 0, 1],
            [5, 0, -6, 0, 5],
            [5, 0, 6, 0, 5],
        ]
    raise ValueError(f"no parameter factors for case {case!r}")


def expected_parameter_polynomial(case, ring, var_index):
    """The monic product of parameter_factors(case) in the given ring."""
    return _factor_product(ring, var_index, parameter_factors(case)).monic()


def solver_hints(case):
    """Univariate factor hints for back-substitution in the given case."""
    seen = []
    for cs in parameter_factors(case):
        if len(cs) > 2 and cs not in seen:
            seen.append(cs)
    return [[kelem(c) for c in cs] for cs in seen]
