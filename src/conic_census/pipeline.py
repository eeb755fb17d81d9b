"""End-to-end verification pipeline for the conic census.

Every operation here returns a Report listing named checks.  A report with
a failed check raises VerificationFailed (the exception carries the report
so callers can still print it), which keeps the library usable both from
tests and from the command line: the CLI prints the per-check lines and
maps the exception onto its exit status.
"""

import functools

from . import catalog
from .catalog import XRING
from .certificates import (
    KUMMER_FILE,
    NS_BASIS_FILE,
    load_packaged,
    make_certificate,
    read_certificate,
    write_certificate,
)
from .errors import NonPrincipal, ResourceBudgetExceeded, VerificationFailed
from .field import ONE, ZERO, kelem
from .geometry import (
    Conic,
    galois_image,
    intersection_number,
    plane_conjugates,
    singular_charts,
)
from .groebner import (
    GroebnerBasis,
    buchberger,
    elimination_ideal,
    fglm,
    ideal_membership,
    restore_inlined,
    solve_system,
    zero_dim_degree,
)
from .group import (
    act_on_conic,
    conic_closure,
    fixes_plane,
    fixing_classes,
    generate_group,
    label_orbits,
    projective_classes,
    scalar_factor,
)
from .linalg import mat_det
from .poly import (
    compress_variables,
    poly_from_uni,
    specialize,
    substitute_linear,
    uni_coeffs,
    uni_mul,
    uni_squarefree,
)


class Report:
    """An ordered list of (name, passed, detail) check results."""

    def __init__(self, title):
        self.title = title
        self.checks = []

    def add(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), str(detail)))
        return bool(ok)

    def extend(self, other):
        self.checks.extend(other.checks)

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.checks)

    def first_failure(self):
        for name, ok, _ in self.checks:
            if not ok:
                return name
        return None

    def require(self):
        """Raise VerificationFailed naming the first failed check."""
        bad = self.first_failure()
        if bad is not None:
            exc = VerificationFailed(f"{self.title}: check failed: {bad}")
            exc.report = self
            raise exc
        return self

    def render(self):
        out = [self.title]
        for name, ok, detail in self.checks:
            line = f"  {'pass' if ok else 'FAIL'} {name}"
            if detail:
                line += f": {detail}"
            out.append(line)
        return "\n".join(out)

    def as_dict(self):
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [
                {"name": n, "ok": ok, "detail": d} for n, ok, d in self.checks
            ],
        }


def _by_plane(conics):
    """Plane coefficients -> the conics on that plane, in order."""
    planes = {}
    for c in conics:
        planes.setdefault(c.coeffs[10:], []).append(c)
    return planes


def _coplanar_on_surface(group):
    """(every conic of group lies on the surface, group is two mutual residuals).

    group holds the conics of one plane.  Two conics a and b are paired
    first: a's on_surface makes one section and one division, and a's
    residual, built from that quotient, is compared with b.  If it equals b,
    both lie on the surface and each is the other's residual, so b needs no
    section or division.  Other groups, and a pair whose residual is not b,
    ask each conic's on_surface, which reads a conic's answer from the plane
    records (geometry) when it, or its residual, is a conic already divided
    on its plane or, under an automorphism of K that fixes f, on a conjugate
    plane.
    """
    f = catalog.surface()
    if len(group) == 2:
        a, b = group
        if a.on_surface(f) and a.residual(f) == b:
            return True, True
    return all(c.on_surface(f) for c in group), False


def _conics_valid(conics):
    """(every conic is irreducible and on the surface, checked one plane at a
    time; every plane holds two mutual residuals, or None if not all valid).

    The planes whose group is not two conics come first (a stable sort), so
    a damaged plane is found before the pairs.  A group is checked by the
    irreducibility of its conics and _coplanar_on_surface, unless it is the
    conjugate of a group already checked under an automorphism sigma_t of K
    that fixes every coefficient of the surface f (geometry.plane_conjugates):
    the same number of conics, and the same canonical coefficient tuples as
    a set.  Such a group passes with the verdict of the group it is
    conjugate to, which is exact by the proof in the geometry docstring:
    irreducibility, lying on the surface and being mutual residuals all
    transfer under sigma_t.  Skipping the group whole also skips its
    irreducibility tests and its residual Conic.

    An equal plane alone is not enough: a group on a conjugate plane whose
    conics differ is checked itself.  On the census, which K's eight
    automorphisms permute, 160 of the 400 planes are checked.
    """
    f = catalog.surface()
    conjugates = {}  # sigma_t(plane of a checked group g) -> (t, g, g's pairing)
    paired = True
    for g in sorted(_by_plane(conics).values(), key=lambda group: len(group) == 2):
        plane = g[0].coeffs[10:]
        known = conjugates.get(plane)
        if known is not None:
            t, h, pair = known
            if len(g) == len(h) and {c.coeffs for c in g} == {
                galois_image(c.coeffs, t) for c in h
            }:
                paired = paired and pair
                continue
        if not all(c.is_irreducible() for c in g):
            return False, None
        on, pair = _coplanar_on_surface(g)
        if not on:
            return False, None
        paired = paired and pair
        for t, image in plane_conjugates(plane, f)[1:]:
            conjugates.setdefault(image, (t, g, pair))
    return True, paired


@functools.lru_cache(maxsize=1)
def _census_closure():
    """(conics, moves, runs): the census from one conic_closure per process.

    runs maps each seed label to the positions from its seed to the next
    seed, its orbit when every seed starts a run of its own.
    """
    conics, moves = conic_closure(catalog.symmetry_generators(), catalog.seed_conics())
    index = {c: i for i, c in enumerate(conics)}
    starts = [index[s] for s in catalog.seed_conics()] + [len(conics)]
    runs = {n: range(a, b) for n, a, b in zip(catalog.SEED_LABELS, starts, starts[1:])}
    return conics, moves, runs


@functools.lru_cache(maxsize=1)
def _known_labels():
    """Conic -> orbit label, one map per process: the three seeds, every
    conic an orbit search has visited (None where its orbit holds no census
    conic), and all 800 once orbit_census has passed."""
    return dict(zip(catalog.seed_conics(), catalog.SEED_LABELS))


def census_labels(conics):
    """Conic -> orbit label ("C1", "C2", "C3") for those of conics in the
    census: the default of each census=, the type ConicCertificate.keys()
    gives from a certificate.

    A conic with no known label is labelled by group.label_orbits, a BFS
    under the census generators that stops at the first conic of known
    label.  A conic whose orbit holds no census conic is left out.
    """
    labels = label_orbits(catalog.symmetry_generators(), conics, _known_labels())
    return {c: labels[c] for c in conics if labels[c] is not None}


# -- orbit census ------------------------------------------------------------


def orbit_census(out=None):
    """Certify the census computed by orbit closure.

    Returns (report, certificate); writes the certificate to `out` when a
    path is given and every check passed.  Checks: the three orbit sizes,
    pairwise disjointness, the census size, irreducibility and surface
    containment of every conic, the group order and projective order, and
    the stabilizer orders.  The census is one closure of the three seeds
    (group.conic_closure), one run of positions per seed.  The runs are
    pairwise disjoint orbits exactly when each is closed under every
    generator, as a proper part of an orbit is not.  The group facts come
    from the group G of the generators and its scalar classes C
    (group.generate_group, group.projective_classes): the group order is
    |G|, the projective order |C|, and each class holds |G| / |C| matrices.
    A seed's stabilizer order is the number of classes that fix it, and the
    kernel of the action, the classes that fix all 800 conics, must be one
    class, the scalars (group.fixing_classes).  A seed is tested only on the
    classes that fix its plane, found once per distinct plane: C1 and C2
    share one.  The kernel lies in every stabilizer, so it is found among
    the 12 classes that fix C1.
    Once every check passes, the 800 labels join the process's known labels,
    so census_labels then labels any census conic with no action.
    """
    rep = Report("orbit census")
    f = catalog.surface()
    gens = catalog.symmetry_generators()
    for i, m in enumerate(gens, start=1):
        rep.add(f"generator {i} preserves the surface", substitute_linear(f, m.rows) == f)

    conics, moves, runs = _census_closure()
    sizes = tuple(len(run) for run in runs.values())
    rep.add(
        "orbit sizes",
        sizes == catalog.SEED_ORBIT_LENGTHS,
        " ".join(map(str, sizes)),
    )
    disjoint = all(
        run and all(move[i] in run for move in moves for i in run)
        for run in runs.values()
    )
    rep.add("orbits pairwise disjoint", disjoint)
    rep.add("census size", len(conics) == catalog.CENSUS_SIZE, f"{len(conics)}")

    valid = _conics_valid(conics)[0]
    rep.add("all conics irreducible and on the surface", valid, f"{len(conics)} checked")

    G = generate_group(gens)
    C = projective_classes(G)
    lift = len(G) // len(C)  # matrices per class
    seeds = [conics[run.start] for run in runs.values()]
    on_plane = {}  # seed plane -> the classes that fix it
    for c in seeds:
        if c.coeffs[10:] not in on_plane:
            on_plane[c.coeffs[10:]] = [m for m in C if fixes_plane(m, c)]
    stabilizers = [fixing_classes(on_plane[c.coeffs[10:]], [c]) for c in seeds]
    kernel = fixing_classes(stabilizers[0], conics)  # conics[0] is the first seed
    rep.add(
        "kernel of the action is scalar", len(kernel) == 1, f"order {len(kernel) * lift}"
    )
    rep.add("group order", len(G) == catalog.GROUP_ORDER, f"{len(G)}")
    rep.add("projective transformations", len(C) == catalog.PROJECTIVE_ORDER, f"{len(C)}")
    for name, stabilizer, want in zip(runs, stabilizers, catalog.SEED_STABILIZER_ORDERS):
        order = len(stabilizer)
        rep.add(
            f"stabilizer of {name}",
            order == want,
            f"order {order} ({order * lift} matrices)",
        )
    rep.require()
    _known_labels().update((conics[i], name) for name, run in runs.items() for i in run)

    meta = [("orbit", f"{name} {len(run)}") for name, run in runs.items()]
    meta += [
        ("stabilizer", f"{name} {want}")
        for name, want in zip(runs, catalog.SEED_STABILIZER_ORDERS)
    ]
    meta += [("generator", " ".join(m.fields())) for m in gens]
    meta += [
        ("seed", f"{name} " + " ".join(conics[run.start].fields()))
        for name, run in runs.items()
    ]
    entries = [
        (f"{name}-{idx:03d}", conics[i])
        for name, run in runs.items()
        for idx, i in enumerate(run)
    ]
    cert = make_certificate("orbit-census", entries, meta)
    if out is not None:
        write_certificate(cert, out)
    return rep, cert


# -- plane census ------------------------------------------------------------


def plane_census(cert, paired=None):
    """Group the certified conics by their plane and check the pairing.

    Every plane must carry exactly two conics that are mutual residuals,
    given as paired by a caller that has the verdict from _conics_valid, or
    else shown by one section, one division and one residual per plane (a's
    residual compared with b, _coplanar_on_surface), a walk made only when
    every plane carries two conics.  For the full census this means 400
    planes; the support histogram (number of nonzero plane coefficients) is
    reported alongside.
    """
    rep = Report("plane census")
    conics = cert.conics
    groups = _by_plane(conics)
    two = rep.add(
        "every plane carries two conics",
        all(len(g) == 2 for g in groups.values()),
        f"{len(groups)} planes, {len(conics)} conics",
    )
    if paired is None:
        paired = two and all(_coplanar_on_surface(g)[1] for g in groups.values())
    rep.add("coplanar conics are mutual residuals", paired)
    if len(conics) == catalog.CENSUS_SIZE:
        rep.add("plane count", len(groups) == catalog.PLANE_COUNT, f"{len(groups)}")
    planes = [g[0].coeffs[10:] for g in groups.values()]
    hist = {}
    for b in planes:
        support = sum(1 for x in b if x)
        hist[support] = hist.get(support, 0) + 1
    detail = " ".join(f"{k}:{v}" for k, v in sorted(hist.items()))
    if len(conics) == catalog.CENSUS_SIZE:
        rep.add(
            "plane support histogram",
            hist == catalog.PLANE_SUPPORT_HISTOGRAM,
            detail,
        )
        pair_planes = [b for b in planes if not b[0] and not b[1]]
        rep.add(
            "planes through the last coordinate pair",
            len(pair_planes) == catalog.EXPECTED_PLANES["iii"],
            f"{len(pair_planes)} planes, {2 * len(pair_planes)} conics",
        )
    else:
        rep.add("plane support histogram", True, detail or "empty")
    rep.require()
    return rep


# -- singular fibers of the conic pencil -------------------------------------


@functools.lru_cache(maxsize=2)
def singular_parameter_locus(budget=None):
    """Monic squarefree generator of the singular-parameter ideal.

    The family (catalog.fiber_family) is a quartic in K[z0, z1, z3, t] with
    t the parameter.  On each affine chart z_j = 1 the singular locus
    (family plus its three section partials, geometry.singular_charts) is
    eliminated down to t; the locus is the squarefree part of the product of
    the chart results, since rad(lcm(a, b)) = rad(a * b).  A chart in the
    unit ideal gives 1.  Raises NonPrincipal if an elimination ideal needs
    more than one generator.  Computed once per process and budget; a budget
    stop raises on every call, as exceptions are not cached.
    """
    F = catalog.fiber_family()
    tvar = F.ring.n - 1
    acc = [ONE]
    for j, polys in singular_charts(F, tvar):
        if not polys:
            continue
        cp, _, vmap = compress_variables(polys, extra_keep=(tvar,))
        elim = elimination_ideal(fglm(buchberger(cp, budget=budget)), keep={vmap[tvar]})
        if len(elim) != 1:
            raise NonPrincipal(
                f"chart {F.ring.names[j]} = 1 eliminates to {len(elim)} generators"
            )
        acc = uni_mul(acc, uni_coeffs(elim[0], vmap[tvar]))
    return poly_from_uni(XRING, 0, uni_squarefree(acc))


def verify_components(budget=None):
    """Check the component decomposition of the pencil's singular locus.

    For each component: its ideal contains the singular-locus generators
    (containment), and an explicit common zero over K is exhibited.  The
    parameter parts of the curve components must multiply, squarefree, to
    the singular parameter locus (completeness).
    """
    rep = Report("singular locus components")
    F = catalog.fiber_family()
    tvar = F.ring.n - 1
    igens = [F] + [F.partial_derivative(i) for i in range(tvar)]

    roots = catalog.nodal_parameters() + catalog.split_parameters() + [ZERO, ONE]
    tprod = [ONE]
    for label, gens in catalog.singular_component_generators():
        G = buchberger(gens, budget=budget)
        contained = all(ideal_membership(p, G) for p in igens)
        rep.add(f"{label} contains the singular locus ideal", contained)

        tparts = [g for g in gens if g.variables() <= {tvar}]
        for tp in tparts:
            tprod = uni_mul(tprod, uni_coeffs(tp, tvar))
        witness = None
        candidates = []
        troots = [r for r in roots if all(not tp.evaluate([0, 0, 0, r]) for tp in tparts)]
        for r in troots:
            candidates.append((ZERO, ZERO, ONE, r))
            # fall back to the cone point; the affine node need not be
            # K-rational (branches 3..6 have nodes over a degree-16 field)
            candidates.append((ZERO, ZERO, ZERO, r))
        candidates.append((ZERO, ZERO, ZERO, ONE))
        for cand in candidates:
            if all(not g.evaluate(cand) for g in gens):
                witness = cand
                break
        rep.add(
            f"{label} has an explicit point over K",
            witness is not None,
            "(" + ", ".join(v.to_text() for v in witness) + ")" if witness else "",
        )

    locus = singular_parameter_locus(budget=budget)
    agree = uni_squarefree(tprod) == uni_coeffs(locus, 0)
    rep.add("parameter parts cover the singular parameter locus", agree)
    rep.require()
    return rep


def analyze_nodal_fiber(alpha, budget=None):
    """Certify the unique singular point of a nodal fiber.

    Requires g1(alpha) = 0.  Solves the singular locus on each affine
    chart (geometry.singular_charts) with groebner.solve_system, checks the
    union is the single projective point (0:0:1), and certifies the
    nondegenerate Hessian there.
    """
    alpha = kelem(alpha)
    if catalog.nodal_parameter_polynomial().evaluate([alpha]):
        raise VerificationFailed(
            "not a root of the nodal parameter polynomial: " + alpha.to_text()
        )
    rep = Report("nodal fiber at " + str(alpha))
    fib = catalog.fiber_at(alpha)
    points = set()
    solved = True
    for j, polys in singular_charts(fib, 3):
        if not polys:
            solved = False
            continue
        cp, _, vmap = compress_variables(polys)
        if set(vmap) != {k for k in range(3) if k != j}:
            solved = False
            continue
        _, _, sol = solve_system(cp, budget=budget)  # no points in the unit ideal
        solved = solved and sol.complete
        for pt in sol.points:
            coords = [None, None, None]
            coords[j] = ONE
            for old, new in vmap.items():
                coords[old] = pt[new]
            pivot = next(v for v in coords if v)
            inv = pivot.inverse()
            points.add(tuple(v * inv for v in coords))
    rep.add("chart solving complete over K", solved)
    want = {tuple(kelem(v) for v in catalog.NODAL_POINT)}
    rep.add(
        "unique singular point (0 : 0 : 1)",
        points == want,
        f"{len(points)} point(s)",
    )
    chart = specialize(fib, {2: ONE})
    origin = [ZERO, ZERO, ZERO]
    on_point = not chart.evaluate(origin) and not any(
        chart.partial_derivative(k).evaluate(origin) for k in range(2)
    )
    rep.add("fiber singular at the point", on_point)
    h00 = chart.partial_derivative(0).partial_derivative(0).evaluate(origin)
    h01 = chart.partial_derivative(0).partial_derivative(1).evaluate(origin)
    h11 = chart.partial_derivative(1).partial_derivative(1).evaluate(origin)
    rep.add("node is nondegenerate", bool(h00 * h11 - h01 * h01))
    rep.require()
    return rep


def fiber_survey(budget=None, census=None):
    """Full fiber analysis: locus, all split fibers, all nodal fibers.

    A split fiber z2 = alpha*z3 is the case (iii) plane z2 + a*z3 with
    a = -alpha: its two conics, irreducible mutual residuals, are read from
    the one case (iii) solve (_ansatz_solution), which must be complete.
    They must be in census, a Conic -> label dict used as given; with census
    None, census_labels labels each pair.  A nodal fiber is
    analyze_nodal_fiber's verdict, and the fiber t = 0 is smooth when 0 is
    not a root of the computed locus.
    """
    rep = Report("conic pencil fibers")
    locus = singular_parameter_locus(budget=budget)
    expected = catalog.degeneration_polynomial()
    rep.add("singular parameter locus", locus == expected, str(locus))
    prod = catalog.nodal_parameter_polynomial() * catalog.split_parameter_polynomial()
    rep.add(
        "locus factors into the nodal and split parts",
        locus == prod.monic(),
    )

    _, G, _, sol, conics = _ansatz_solution("iii", budget)
    if not sol.complete or len(sol.points) != zero_dim_degree(G):
        raise VerificationFailed("case (iii) system did not solve completely over K")
    planes = _by_plane(conics)
    c3 = catalog.seed_conics()[2]
    seen_c3 = False
    for alpha in catalog.split_parameters():
        pair = sorted(planes.get((ZERO, ZERO, ONE, -alpha), ()), key=lambda c: c.key)
        okay = len(pair) == 2 and pair[0] != pair[1]
        if okay:
            labels = census if census is not None else census_labels(pair)
            okay = _coplanar_on_surface(pair)[1] and all(
                c.is_irreducible() and c in labels for c in pair
            )
            seen_c3 = seen_c3 or c3 in pair
        detail = "two mutual-residual conics in the census" if okay else ""
        rep.add(f"split fiber t = {alpha}", okay, detail)
    rep.add("seed conic C3 appears in its fiber", seen_c3)

    for alpha in catalog.nodal_parameters():
        try:
            okay = analyze_nodal_fiber(alpha, budget=budget).ok
        except VerificationFailed as exc:
            rep.extend(getattr(exc, "report", Report("")))
            okay = False
        rep.add(f"nodal fiber t = {alpha}", okay, "node at (0 : 0 : 1)" if okay else "")
    rep.add("fiber t = 0 is smooth", bool(locus.evaluate([ZERO])))
    rep.require()
    return rep


# -- ansatz enumeration ------------------------------------------------------


@functools.lru_cache(maxsize=3)
def _ansatz_solution(case, budget):
    """(system, G, Gl, solve result, conics) of gauge_fixed_system(case).

    solve_system with the case's hints; conics is a tuple, one conic per
    solved point, in point order.  Solved once per process, case and budget
    (at most three kept); a budget stop raises on every call, as exceptions
    are not cached.
    """
    system = catalog.gauge_fixed_system(case)
    polys, _, vmap, subs, ring = system
    G, Gl, sol = solve_system(polys, hints=catalog.solver_hints(case), budget=budget)
    conics = []
    for pt in sol.points:
        full = restore_inlined({old: pt[new] for old, new in vmap.items()}, subs)
        values = {ring.names[i]: v for i, v in full.items()}
        conics.append(Conic(*catalog.conic_from_solution(case, values)))
    return system, G, Gl, sol, tuple(conics)


def hypersurface_smooth(f, budget=None):
    """Whether the projective hypersurface V(f) is smooth.

    Chart by chart, checks that f and its partials generate the unit ideal.
    """
    return all(
        eqs and buchberger(eqs, budget=budget).is_trivial()
        for _, eqs in singular_charts(f, f.ring.n)
    )


def enumerate_case(case, budget=None, census=None):
    """Enumerate splitting planes for one ansatz case and verify the counts.

    Cases ii and iii run to completion under the default budget.  Case i
    is the full three-parameter search; under default budgets it raises
    ResourceBudgetExceeded (raise --budget-pairs and --budget-terms to
    attempt it).  Case iv has no conics: the plane section is a smooth
    quartic, which is verified instead.  The conics found must be in
    census, a Conic -> label dict used as given; with census None,
    census_labels labels them.  Gl's elements in the plane parameters alone
    are the reduced lex basis of the plane ideal (the Elimination Theorem,
    Cox, Little and O'Shea, Ideals, Varieties, and Algorithms, ch. 3 §1).
    """
    if case not in catalog.CASES:
        raise ValueError(f"unknown case {case!r}")
    rep = Report(f"ansatz case ({case})")
    if case == "iv":
        section = catalog.section_without_last_coordinate()
        rep.add("plane section is a smooth quartic", hypersurface_smooth(section, budget=budget))
        rep.require()
        return rep, []

    (_, cring, vmap, _, ring), G, Gl, sol, conics = _ansatz_solution(case, budget)
    degree = zero_dim_degree(G)
    rep.add(
        "solution scheme degree",
        degree == catalog.EXPECTED_CONICS[case],
        f"{degree}",
    )

    params = [vmap[ring.index(nm)] for nm in catalog.CASE_PARAMS[case]]
    last = cring.n - 1
    elim = elimination_ideal(Gl, keep={last})
    uni_ok = len(elim) == 1
    if uni_ok:
        want = catalog.expected_parameter_polynomial(case, elim[0].ring, last)
        uni_ok = elim[0].monic() == want
    rep.add(
        f"parameter polynomial in {cring.names[last]}",
        uni_ok,
        f"degree {elim[0].total_degree()}" if elim else "",
    )

    plane_gens = elimination_ideal(Gl, keep=set(params))
    pg, pring, _ = compress_variables(plane_gens)
    pdeg = zero_dim_degree(GroebnerBasis(pring, pg))
    rep.add(
        "plane scheme degree",
        pdeg == catalog.EXPECTED_PLANES[case],
        f"{pdeg}",
    )

    rep.add(
        "solved completely over K",
        sol.complete and len(sol.points) == degree,
        f"{len(sol.points)} points",
    )
    planes = {c.coeffs[10:] for c in conics}
    distinct = len(set(conics))
    rep.add(
        "distinct conics",
        distinct == catalog.EXPECTED_CONICS[case],
        f"{distinct}",
    )
    rep.add(
        "distinct planes",
        len(planes) == catalog.EXPECTED_PLANES[case],
        f"{len(planes)}",
    )
    rep.add("conics irreducible and on the surface", _conics_valid(conics)[0])
    census = census if census is not None else census_labels(conics)
    rep.add(
        "all conics appear in the orbit census",
        all(c in census for c in conics),
    )
    rep.require()
    return rep, list(conics)


# -- Gram matrix -------------------------------------------------------------


def gram_matrix(conics):
    """Pairwise intersection matrix of a list of conics on the surface."""
    n = len(conics)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = intersection_number(conics[i], conics[j])
    return rows


RELABEL_NODES = 100_000  # partial relabellings _permutation_match may try


def _refined_colours(got, want):
    """Colour refinement of two symmetric matrices under one shared naming:
    each row's colour is refined by the multiset of (entry, colour) pairs
    along it until the number of colours stops growing.  A relabelling
    identifying the matrices maps every row to a row of the same colour."""
    n = len(got)
    colours, count = ([0] * n, [0] * n), 1
    while True:
        sigs = [
            [(c[i], tuple(sorted(zip(rows[i], c)))) for i in range(n)]
            for rows, c in zip((got, want), colours)
        ]
        names = {s: k for k, s in enumerate(sorted(set(sigs[0]) | set(sigs[1])))}
        colours = tuple([names[s] for s in sig] for sig in sigs)
        if len(names) == count:
            return colours
        count = len(names)


def _permutation_match(got, want):
    """Search for a vertex relabelling identifying two symmetric matrices,
    trying rows only against rows of their refined colour and at most
    RELABEL_NODES partial relabellings."""
    n = len(got)
    sig_g, sig_w = _refined_colours(got, want)
    if sorted(sig_g) != sorted(sig_w):
        return None
    perm = [None] * n  # perm[i] = image of row i of got inside want
    used = [False] * n
    nodes = 0

    def extend(i):
        nonlocal nodes
        if i == n:
            return True
        for j in range(n):
            if used[j] or sig_g[i] != sig_w[j]:
                continue
            if any(
                perm[k] is not None and got[i][k] != want[j][perm[k]]
                for k in range(n)
            ):
                continue
            nodes += 1
            if nodes > RELABEL_NODES:
                raise ResourceBudgetExceeded(f"relabelling search exceeded {RELABEL_NODES} nodes")
            perm[i] = j
            used[j] = True
            if extend(i + 1):
                return True
            perm[i] = None
            used[j] = False
        return False

    return perm if extend(0) else None


def dot_graph(rows):
    """DOT text for the adjacency graph of a Gram matrix (entries 1)."""
    n = len(rows)
    lines = ["graph gram {"]
    for i in range(n):
        lines.append(f"  {i + 1};")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] == 1:
                lines.append(f"  {i + 1} -- {j + 1};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def gram_report(conics=None, dot_out=None):
    """Intersection Gram matrix of the 20 spanning conics with determinant.

    Checks that the conics are irreducible and on the surface (the
    intersection numbers assume it, so a failure stops the report there),
    then self-intersections -2, off-diagonal entries in {0, 1}, the
    expected matrix (entrywise, else up to a reported relabelling), the
    determinant (reported for any n, checked for n = 20), and invariance
    under the symmetry generators.
    """
    rep = Report("intersection Gram matrix")
    if conics is None:
        conics = load_packaged(NS_BASIS_FILE).conics
    n = len(conics)
    rep.add("all conics irreducible and on the surface", _conics_valid(conics)[0], f"{n} checked")
    rep.require()
    rows = gram_matrix(conics)
    rep.add("self intersections are -2", all(rows[i][i] == -2 for i in range(n)))
    rep.add(
        "off-diagonal entries in {0, 1}",
        all(rows[i][j] in (0, 1) for i in range(n) for j in range(n) if i != j),
    )
    if n == 20:
        want = catalog.expected_ns_gram()
        if rows == want:
            rep.add("matches the expected Gram matrix", True, "entrywise")
        else:
            perm = _permutation_match(rows, want)
            rep.add(
                "matches the expected Gram matrix",
                perm is not None,
                f"after relabelling {perm}" if perm else "",
            )
    det = mat_det([[kelem(v) for v in row] for row in rows]).as_fraction()
    rep.add("determinant", n != 20 or det == catalog.EXPECTED_NS_DET, f"{det}")
    if n == 20:
        edges = sum(rows[i][j] for i in range(n) for j in range(i + 1, n))
        rep.add("adjacency edge count", edges == 22, f"{edges}")
        for i, m in enumerate(catalog.symmetry_generators(), start=1):
            moved = [act_on_conic(m, c) for c in conics]
            rep.add(
                f"Gram matrix invariant under generator {i}",
                gram_matrix(moved) == rows,
            )
    if dot_out is not None:
        with open(dot_out, "w", encoding="ascii") as fh:
            fh.write(dot_graph(rows))
    rep.require()
    return rep, rows


# -- Kummer configuration ----------------------------------------------------


def kummer_report(conics=None):
    """Verify the 16-conic Kummer configuration and its symmetry group.

    The 16 conics are closed under the generators as in orbit_census
    (group.conic_closure): they are stable when the closure's 42 generator
    actions add no conic.  The group facts come from the group G and its
    scalar classes C as in orbit_census: |G| is the group order, |C| the
    projective order, and the pointwise fixer, the classes that fix all 16
    conics times the |G| / |C| matrices of each, must be the powers of the
    scalar generator gens[1].  The 16 conics must be in the census:
    census_labels labels them with 506 conic actions, where closing the
    census takes 1,712.
    """
    rep = Report("Kummer configuration")
    if conics is None:
        conics = load_packaged(KUMMER_FILE).conics
    gens = catalog.kummer_generators()
    n = len(conics)
    rep.add("sixteen conics", n == 16, f"{n}")
    valid = _conics_valid(conics)[0]
    rep.add("all irreducible and on the surface", valid)
    disjoint = all(
        intersection_number(conics[i], conics[j]) == 0
        for i in range(n)
        for j in range(i + 1, n)
    )
    rep.add("pairwise disjoint", disjoint, f"{n * (n - 1) // 2} pairs")

    closure, _ = conic_closure(gens, conics)
    stable = len(closure) == len(set(conics))  # the closure added no conic
    rep.add("configuration stable under the group", stable)
    G = generate_group(gens)
    C = projective_classes(G)
    lift = len(G) // len(C)  # matrices per class
    kernel = fixing_classes(C, conics)
    rep.add("symmetry group order", len(G) == catalog.KUMMER_GROUP_ORDER, f"{len(G)}")
    rep.add(
        "projective transformations", len(C) == catalog.KUMMER_PROJECTIVE_ORDER, f"{len(C)}"
    )
    lam = scalar_factor(gens[1])
    rep.add(
        "pointwise fixer is the scalar subgroup",
        lam is not None
        and len(kernel) == 1  # the fixer is the scalars of G, lift of them
        and len({lam**k for k in range(lift)}) == lift
        and lift == catalog.KUMMER_FIXER_ORDER,
        f"order {len(kernel) * lift}",
    )

    census = census_labels(conics)
    members = [census.get(c) for c in conics]
    counts = {}
    for lab in members:
        counts[lab] = counts.get(lab, 0) + 1
    rep.add(
        "all sixteen appear in the orbit census",
        None not in members,
        " ".join(f"{k}:{v}" for k, v in sorted(counts.items(), key=str)),
    )
    rep.require()
    return rep


# -- certificate verification ------------------------------------------------


def verify_certificate(path):
    """Re-verify the certificate file at path from its contents alone.

    Checks canonical parsing (done by the reader), irreducibility and
    surface containment of every conic (_conics_valid: one plane section
    per Galois class of planes, 160 for the census, where the residual of
    one conic of a plane is compared with the other, see
    _coplanar_on_surface, and a group conjugate to a checked one under an
    automorphism of K that fixes the surface passes with its verdict),
    agreement of the declared orbit counts with the labels and of the
    declared stabilizer orders with the catalog (compared, not
    recomputed), that each seed conic is a record of its own orbit label,
    and, for a full census, the plane pairing and generator metadata.  The
    group-action spot check acts with a fixed sample of 32 (conic,
    generator) pairs, conic k*n//32 with generator k mod len(generators)
    for k < 32, so re-running on an unmodified file is deterministic.
    """
    cert = read_certificate(path)
    rep = Report("certificate verification")
    conics = cert.conics
    rep.add("parsed in canonical form", True, f"{len(conics)} conics, kind {cert.kind}")
    valid, paired = _conics_valid(conics)
    rep.add("all conics irreducible and on the surface", valid)

    declared = dict(cert.typed_values("orbit"))
    if declared:
        rep.add("declared orbit counts match labels", declared == cert.label_counts())

    stabilizers = cert.typed_values("stabilizer")
    if stabilizers:
        want = dict(zip(catalog.SEED_LABELS, catalog.SEED_STABILIZER_ORDERS))
        rep.add(
            "declared stabilizer orders",
            all(want[label] == order for label, order in stabilizers),
            " ".join(f"{label} {order}" for label, order in stabilizers),
        )

    gens = cert.typed_values("generator")
    f = catalog.surface()
    for i, m in enumerate(gens, start=1):
        rep.add(f"generator {i} preserves the surface", substitute_linear(f, m.rows) == f)

    seeds = cert.typed_values("seed")
    census = cert.keys()
    if seeds:
        rep.add(
            "seed conics listed in the census",
            all(census.get(c) == label for label, c in seeds),
        )

    if cert.kind == "orbit-census" and len(conics) == catalog.CENSUS_SIZE:
        rep.add(
            "orbit sizes",
            tuple(cert.label_counts().get(n, 0) for n in catalog.SEED_LABELS)
            == catalog.SEED_ORBIT_LENGTHS,
        )
        try:
            rep.extend(plane_census(cert, paired))
        except VerificationFailed as exc:
            rep.extend(getattr(exc, "report", Report("")))
    if gens and conics:
        n = len(conics)
        sample_ok = all(
            act_on_conic(gens[k % len(gens)], conics[k * n // 32]) in census
            for k in range(32)
        )
        rep.add("sampled generator action stays in the census", sample_ok, "32 samples")
    rep.require()
    return rep
