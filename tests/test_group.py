"""Unit tests for exact matrix groups acting on conics."""

import random

import pytest

from conic_census import catalog, group, pipeline
from conic_census.certificates import KUMMER_FILE, load_packaged
from conic_census.errors import ResourceBudgetExceeded, SingularMatrix, VerificationFailed
from conic_census.field import I, ONE, SQRT10, ZERO, KElem, dot
from conic_census.geometry import ZRING, Conic
from conic_census.group import (
    GroupMatrix,
    act_on_conic,
    conic_closure,
    fixes_conic,
    fixing_classes,
    generate_group,
    label_orbits,
    orbit_of_conic,
    projective_classes,
)


def test_matrix_algebra():
    s1, s2, s3, s4 = catalog.symmetry_generators()
    e = GroupMatrix.identity()
    assert s3 * s3 == e
    assert s1 * e == s1


def test_matrix_requires_4x4():
    with pytest.raises(ValueError):
        GroupMatrix([[1, 0], [0, 1]])


def test_fields_round_trip():
    s2 = catalog.symmetry_generators()[1]
    fields = s2.fields()
    assert len(fields) == 16
    assert GroupMatrix.from_fields(fields) == s2


def _projective_key(m):
    """Oracle: the entries scaled so the first nonzero one (row-major) is 1."""
    first = next(x for x in m.key if x)
    inv = first.inverse()
    return tuple(x * inv for x in m.key)


def test_projective_key_identifies_scalar_multiples():
    e = GroupMatrix.identity()
    ie = GroupMatrix([[I, 0, 0, 0], [0, I, 0, 0], [0, 0, I, 0], [0, 0, 0, I]])
    assert e != ie
    assert _projective_key(e) == _projective_key(ie)
    assert len(projective_classes([e, ie])) == 1


def test_generate_group_small():
    s3 = catalog.symmetry_generators()[2]
    ie = GroupMatrix([[I, 0, 0, 0], [0, I, 0, 0], [0, 0, I, 0], [0, 0, 0, I]])
    assert len(generate_group([s3])) == 2
    assert len(generate_group([ie])) == 4
    assert len(generate_group([s3, ie])) == 8


def _matrix_bfs(gens):
    # the reference closure: a BFS on matrix products m * g
    order = [GroupMatrix.identity()]
    seen = set(order)
    frontier = order[:]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = m * g
                if p not in seen:
                    seen.add(p)
                    order.append(p)
                    nxt.append(p)
        frontier = nxt
    return order


def test_generate_group_matches_the_matrix_bfs():
    s3 = catalog.symmetry_generators()[2]
    ie = GroupMatrix([[I, 0, 0, 0], [0, I, 0, 0], [0, 0, I, 0], [0, 0, 0, I]])
    for gens in ([s3], [ie], [s3, ie], catalog.kummer_generators()):
        G = generate_group(gens)
        assert [m.key for m in G] == [m.key for m in _matrix_bfs(gens)]
        assert all(m.invertible for m in G)


def test_full_group_is_closed_on_a_stride_sample():
    gens = catalog.symmetry_generators()
    G = generate_group(gens)
    elements = set(G)
    assert len(elements) == len(G) == catalog.GROUP_ORDER
    sample = G[:: len(G) // 64]
    assert len(sample) == 64
    assert all(m * g in elements for m in sample for g in gens)


def test_projective_classes_match_projective_keys():
    G = generate_group(catalog.kummer_generators())
    reps = projective_classes(G)
    first = {}
    for m in G:
        first.setdefault(_projective_key(m), m)
    assert reps == list(first.values())
    assert len(reps) == catalog.KUMMER_PROJECTIVE_ORDER


def test_generate_group_size_cap(monkeypatch):
    gens = catalog.symmetry_generators()
    monkeypatch.setattr(group, "MAX_SIZE", 100)
    with pytest.raises(ResourceBudgetExceeded):
        generate_group(gens)


def test_infinite_group_stops_on_the_element_budget(monkeypatch):
    # diag(2, 1, 1, 1) has infinite order: each new element needs one new
    # row image, 2^k * e0, and the three fixed rows are moved once
    calls = []

    def counting_dot(xs, ys):
        calls.append(1)
        return dot(xs, ys)

    monkeypatch.setattr(group, "dot", counting_dot)
    m = GroupMatrix([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    monkeypatch.setattr(group, "MAX_SIZE", 2000)
    with pytest.raises(ResourceBudgetExceeded, match="group closure exceeded 2000 elements"):
        generate_group([m])
    assert len(calls) == 4 * (2000 + 3)


def test_action_is_a_group_action():
    # substitution acts on the right: acting by m then n composes as n*m
    s1, s2, s3, s4 = catalog.symmetry_generators()
    c1 = catalog.seed_conics()[0]
    m = s2 * s4
    n = s3 * s2
    assert act_on_conic(n * m, c1) == act_on_conic(m, act_on_conic(n, c1))
    assert act_on_conic(GroupMatrix.identity(), c1) == c1


def test_action_preserves_the_surface():
    from conic_census.poly import substitute_linear

    f = catalog.surface()
    for m in catalog.symmetry_generators():
        assert substitute_linear(f, m.rows) == f


def test_orbit_of_fixed_conic():
    # the swap z0 <-> z1 fixes C1: its plane and quadric are symmetric in z1, z2
    s3 = catalog.symmetry_generators()[2]
    c1 = catalog.seed_conics()[0]
    orbit = orbit_of_conic([s3], c1)
    assert len(orbit) == 1
    assert c1.key in orbit


def test_orbit_under_sign_flips():
    flip = GroupMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
    c3 = catalog.seed_conics()[2]
    orbit = orbit_of_conic([flip], c3)
    # the plane z2 + a*z3 moves to z2 - a*z3
    assert len(orbit) == 2


def test_kummer_permutation_image_matches_matrix_scan():
    gens = catalog.kummer_generators()
    listed = load_packaged(KUMMER_FILE).conics
    conics, _ = conic_closure(gens, listed)
    assert {c.key for c in conics} == {c.key for c in listed}
    H = generate_group(gens)
    classes = projective_classes(H)
    lift = len(H) // len(classes)
    assert len(classes) == catalog.KUMMER_PROJECTIVE_ORDER == 32
    assert len(H) == len(classes) * lift == catalog.KUMMER_GROUP_ORDER == 128
    # the matrix reference: the permutation of every matrix from one action
    # per (matrix, conic); the 32 classes act as 32 distinct permutations
    index = {c.key: i for i, c in enumerate(conics)}
    direct = [tuple(index[act_on_conic(m, c).key] for c in conics) for m in H]
    assert len(set(direct)) == len(classes)
    for i, c in enumerate(conics):
        fixing = sum(1 for m in classes if fixes_conic(m, c))
        assert fixing * lift == sum(1 for d in direct if d[i] == i)
    kernel = [m for m in classes if all(act_on_conic(m, c) == c for c in conics)]
    assert fixing_classes(classes, conics) == kernel
    assert fixing_classes(fixing_classes(classes, conics[:1]), conics) == kernel
    fixer = {m for m, d in zip(H, direct) if d == tuple(range(16))}
    assert len(kernel) == 1 and len(fixer) == lift
    units = (ONE, -ONE, I, -I)
    scalars = [[[x if i == j else 0 for j in range(4)] for i in range(4)] for x in units]
    assert fixer == {GroupMatrix(rows) for rows in scalars}
    assert len(fixer) == catalog.KUMMER_FIXER_ORDER


def test_fixes_conic_is_the_action_on_every_kummer_pair():
    conics = load_packaged(KUMMER_FILE).conics
    H = generate_group(catalog.kummer_generators())
    got = [[fixes_conic(m, c) for c in conics] for m in H]
    assert got == [[act_on_conic(m, c) == c for c in conics] for m in H]
    # the group is transitive on the 16 conics: 128 / 16 matrices fix each
    assert [sum(col) for col in zip(*got)] == [8] * 16


def test_stabilizers_obey_orbit_stabilizer_on_the_census():
    # |stabilizer| * |orbit| = |group| for every conic, counted in classes;
    # C3's plane is fixed by 8 classes but C3 by 4, so the plane alone
    # gives the wrong count
    conics, _, runs = pipeline._census_closure()
    classes = projective_classes(generate_group(catalog.symmetry_generators()))
    assert len(classes) == catalog.PROJECTIVE_ORDER == 1920
    for run in runs.values():
        for i in run[:: len(run) // 4]:
            assert sum(1 for m in classes if fixes_conic(m, conics[i])) * len(run) == 1920
            assert len(fixing_classes(classes, [conics[i]])) * len(run) == 1920
    # the full scan of every class against the census, and the scan of the
    # 12 classes that fix C1, the first conic, that orbit_census makes
    kernel = [m for m in classes if all(fixes_conic(m, c) for c in conics)]
    assert kernel == [GroupMatrix.identity()]
    stabilizer = fixing_classes(classes, conics[:1])
    assert len(stabilizer) == catalog.SEED_STABILIZER_ORDERS[0] == 12
    assert fixing_classes(stabilizer, conics) == kernel


def test_generator_permutations_need_a_closed_list(monkeypatch):
    # the closure of 15 Kummer conics adds the 16th, so the 15 are not stable
    gens = catalog.kummer_generators()
    conics = load_packaged(KUMMER_FILE).conics
    closure, moves = conic_closure(gens, conics[:-1])
    assert len(closure) == 16
    assert {c.key for c in closure} == {c.key for c in conics}
    assert all(sorted(move) == list(range(16)) for move in moves)
    monkeypatch.setattr(pipeline, "census_labels", lambda conics: {})
    with pytest.raises(VerificationFailed) as err:
        pipeline.kummer_report(conics=conics[:-1])
    checks = {name: (ok, detail) for name, ok, detail in err.value.report.checks}
    assert checks["configuration stable under the group"] == (False, "")
    assert checks["sixteen conics"] == (False, "15")


def test_permutation_action_needs_a_scalar_kernel(monkeypatch):
    # z3 -> -z3 fixes C1 and C2 (their plane is z0 + z1 + z2 and their
    # quadrics are even in z3) but is not scalar: the kernel is not scalar
    s1 = catalog.symmetry_generators()[0]
    g1, scalar, g3, g4 = catalog.kummer_generators()
    pair = list(catalog.seed_conics()[:2])
    closure, moves = conic_closure([s1, scalar], pair)
    assert closure == pair and moves == [(0, 1), (0, 1)]
    G = generate_group([s1, scalar])
    classes = projective_classes(G)
    assert (len(G), classes) == (8, [GroupMatrix.identity(), s1])
    assert all(fixes_conic(m, c) for m in classes for c in pair)
    assert fixing_classes(classes, pair) == classes
    # on the 16 Kummer conics only the identity's class fixes all, as the
    # full scan finds
    kummer = load_packaged(KUMMER_FILE).conics
    full = [m for m in classes if all(act_on_conic(m, c) == c for c in kummer)]
    assert fixing_classes(classes, kummer) == full == [GroupMatrix.identity()]
    scalars = generate_group([scalar])
    assert {m.rows[0][0] for m in scalars} == {ONE, -ONE, I, -I}
    assert projective_classes(scalars) == [GroupMatrix.identity()]
    monkeypatch.setattr(catalog, "kummer_generators", lambda: [s1, scalar])
    monkeypatch.setattr(pipeline, "census_labels", lambda conics: {})
    with pytest.raises(VerificationFailed) as err:
        pipeline.kummer_report(conics=pair)
    checks = {name: (ok, detail) for name, ok, detail in err.value.report.checks}
    assert checks["configuration stable under the group"] == (True, "")
    # the pointwise fixer is all 8 matrices: 2 classes of 4
    assert checks["pointwise fixer is the scalar subgroup"] == (False, "order 8")
    assert checks["symmetry group order"] == (False, "8")
    # the same group, with gens[1] a scalar of order 2 or not a scalar at all
    conics = load_packaged(KUMMER_FILE).conics
    monkeypatch.setattr(pipeline, "census_labels", lambda conics: {c: "C3" for c in conics})
    for second in (scalar * scalar, scalar * g1):
        monkeypatch.setattr(catalog, "kummer_generators", lambda: [g1, second, g3, g4, scalar])
        with pytest.raises(VerificationFailed) as err:
            pipeline.kummer_report()
        assert err.value.report.first_failure() == "pointwise fixer is the scalar subgroup"


def _assert_moves_are_the_actions(gens, conics, moves):
    index = {c.key: i for i, c in enumerate(conics)}
    assert len(index) == len(conics)
    assert len(moves) == len(gens)
    for g, move in zip(gens, moves):
        assert move == tuple(index[act_on_conic(g, c).key] for c in conics)


def test_closure_moves_are_the_generator_actions_on_kummer():
    gens = catalog.kummer_generators()
    conics, moves = conic_closure(gens, load_packaged(KUMMER_FILE).conics)
    assert len(conics) == 16
    _assert_moves_are_the_actions(gens, conics, moves)


def test_closure_moves_are_the_generator_actions_on_census():
    gens = catalog.symmetry_generators()
    conics, moves, _ = pipeline._census_closure()
    assert len(conics) == catalog.CENSUS_SIZE
    _assert_moves_are_the_actions(gens, conics, moves)


def test_closure_runs_one_orbit_per_new_seed():
    gens = catalog.symmetry_generators()
    c1, c2, c3 = catalog.seed_conics()
    image = act_on_conic(gens[1], c1)
    assert image.key != c1.key
    conics, moves = conic_closure(gens, [c1, image, c3])
    # the image of C1 is already in C1's run, so it adds nothing
    assert (conics, moves) == conic_closure(gens, [c1, c3])
    n1 = catalog.SEED_ORBIT_LENGTHS[0]
    assert len(conics) == n1 + catalog.SEED_ORBIT_LENGTHS[2]
    assert conics[n1] == c3
    assert [c.key for c in conics[:n1]] == list(orbit_of_conic(gens, c1))
    assert [c.key for c in conics[n1:]] == list(orbit_of_conic(gens, c3))


def _assert_same_as_substitution(m, c):
    from conic_census.poly import substitute_linear

    want = Conic(substitute_linear(c.plane, m.rows), substitute_linear(c.quadric, m.rows))
    got = act_on_conic(m, c)
    assert got.key == want.key
    assert got.plane == want.plane
    assert got.quadric == want.quadric
    assert got.pivot == want.pivot


def test_coefficient_action_equals_substitution_on_generators():
    gens = catalog.symmetry_generators() + catalog.kummer_generators()
    for m in gens:
        for c in catalog.seed_conics():
            _assert_same_as_substitution(m, c)


def test_coefficient_action_equals_substitution_on_group_sample():
    G = generate_group(catalog.symmetry_generators())
    assert len(G) == catalog.GROUP_ORDER
    assert all(m.invertible for m in G)
    for m in random.Random(2108).sample(G, 200):
        for c in catalog.seed_conics():
            _assert_same_as_substitution(m, c)


def _act_by_formula(m, conic):
    # the explicit formula: the plane b goes to b*M and the quadric z^T U z
    # (U upper triangular, U_ij = a_ij) to z^T M^T U M z, whose coefficient
    # on z_k*z_l is W_kl + W_lk for W = M^T U M (W_kk on z_k^2)
    cols = tuple(zip(*m.rows))
    a = conic.coeffs
    plane = [dot(a[10:], col) for col in cols]
    upper = (a[0:4], (ZERO,) + a[4:7], (ZERO, ZERO) + a[7:9], (ZERO, ZERO, ZERO, a[9]))
    um = tuple(zip(*[[dot(u, col) for col in cols] for u in upper]))  # columns of U*M
    quad = [
        dot(cols[k], um[k]) if k == l else dot(cols[k] + cols[l], um[l] + um[k])
        for k in range(4)
        for l in range(k, 4)
    ]
    return Conic.from_coeffs(quad + plane)


def test_action_equals_the_explicit_formula_exhaustively():
    # every census conic under every census generator, every Kummer conic
    # under every Kummer generator, the seeds under a stride sample of the
    # group (dense matrices, as products of the generators)
    census, _, _ = pipeline._census_closure()
    G = generate_group(catalog.symmetry_generators())
    sample = G[:: len(G) // 128]
    assert len(sample) == 128
    cases = [
        (catalog.symmetry_generators(), census),
        (catalog.kummer_generators(), load_packaged(KUMMER_FILE).conics),
        (sample, catalog.seed_conics()),
    ]
    for gens, conics in cases:
        for m in gens:
            for c in conics:
                got, want = act_on_conic(m, c), _act_by_formula(m, c)
                assert got.coeffs == want.coeffs
                assert got.pivot == want.pivot


def test_closure_builds_no_text_for_its_images(monkeypatch):
    # images are looked up by canonical coefficients, so the 1,712 images
    # (915 of them already listed) and the seeds build no text key; the
    # moves still hold one entry per generator and conic, 4 x 800
    calls = []
    to_text = KElem.to_text

    def counting_to_text(x):
        calls.append(1)
        return to_text(x)

    monkeypatch.setattr(KElem, "to_text", counting_to_text)
    conics, moves = conic_closure(catalog.symmetry_generators(), catalog.seed_conics())
    assert len(conics) == catalog.CENSUS_SIZE
    assert sum(map(len, moves)) == 4 * catalog.CENSUS_SIZE
    assert calls == []


def test_equal_coefficients_exactly_when_keys_are_equal():
    census, _, _ = pipeline._census_closure()
    kummer = load_packaged(KUMMER_FILE).conics
    listed = list(census) + list(kummer)
    # equal conics built apart: re-read from their fields, and images that
    # the closure finds already listed
    reread = [Conic.from_fields(c.fields()) for c in listed]
    images = [act_on_conic(g, c) for g in catalog.kummer_generators() for c in kummer]
    by_coeffs, by_key = {}, {}
    for c in listed + reread + images:
        assert by_coeffs.setdefault(c.coeffs, c.key) == c.key
        assert by_key.setdefault(c.key, c.coeffs) == c.coeffs
    assert len(by_coeffs) == len(by_key) == catalog.CENSUS_SIZE
    for c, d in zip(listed, reread):
        assert c is not d and c == d and hash(c) == hash(d)
    assert len(set(listed + reread + images)) == catalog.CENSUS_SIZE


def test_views_read_after_construction():
    z0, z1, z2, z3 = ZRING.gens()
    # a monic plane and a monic quadric free of z0: both already canonical
    plane = z0 + z1 + z2
    quadric = z1**2 + z1 * z2 + z2**2 + ((3 + SQRT10) / 2) * z3**2
    c = Conic(plane, quadric)
    assert c.plane == plane and c.quadric == quadric
    assert c.key == tuple(x.to_text() for x in c.coeffs)
    assert c.plane is c.plane and c.key is c.key
    for name in ("key", "plane", "quadric"):
        with pytest.raises(AttributeError):
            setattr(c, name, None)
    # on action images, each view gives back the same conic
    for m in catalog.symmetry_generators():
        image = act_on_conic(m, catalog.seed_conics()[2])
        assert Conic(image.plane, image.quadric) == image
        assert Conic.from_fields(image.key) == image


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
        [[1, I, 2, 0], [0, 1, 0, 3], [1, 1 + I, 2, 3], [0, 0, 1, 1]],
    ],
)
def test_singular_matrix_rejected_by_action(rows):
    m = GroupMatrix(rows)
    c1 = catalog.seed_conics()[0]
    for _ in range(2):  # the cached determinant test still raises
        with pytest.raises(SingularMatrix):
            act_on_conic(m, c1)
    assert m.invertible is False
    with pytest.raises(SingularMatrix):
        generate_group([catalog.symmetry_generators()[0], m])


def _capped(monkeypatch, limit):
    """Count actions, failing the test past limit instead of looping."""
    calls = []
    act = group.act_on_conic

    def counted(m, conic):
        calls.append(1)
        assert len(calls) <= limit, "no stop at the cap"
        return act(m, conic)

    monkeypatch.setattr(group, "act_on_conic", counted)
    return calls


def test_closure_and_search_stop_at_their_cap(monkeypatch):
    # diag(2,1,1,1) has infinite order, and a conic through z0 has an
    # infinite orbit under it
    doubling = GroupMatrix([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    c1, c2, c3 = catalog.seed_conics()
    conic = next(c for c in (c1, c2, c3) if act_on_conic(doubling, c) != c)
    calls = _capped(monkeypatch, 1000)
    monkeypatch.setattr(group, "MAX_SIZE", 50)
    with pytest.raises(ResourceBudgetExceeded, match="conic closure exceeded 50 conics"):
        conic_closure([doubling], [conic])
    assert len(calls) == 50
    labels = {c: "C" for c in (c1, c2, c3) if c != conic}
    before = dict(labels)
    del calls[:]
    with pytest.raises(ResourceBudgetExceeded, match="conic closure exceeded 50 conics"):
        label_orbits([doubling], [conic], labels)
    assert len(calls) == 50
    assert labels == before  # the stopped search recorded no label


def test_search_labels_what_it_visits():
    gens = catalog.symmetry_generators()
    c1, c2, c3 = catalog.seed_conics()
    images = [act_on_conic(g, c3) for g in gens]
    labels = label_orbits(gens, images, {c1: "C1", c3: "C3"})
    assert all(labels[d] == "C3" for d in images)
    assert labels[c1] == "C1"
    # an orbit with no labelled conic is closed and labelled None
    labels = label_orbits(gens, [c2], {c1: "C1"})
    assert len(labels) == 1 + catalog.SEED_ORBIT_LENGTHS[1]
    assert {v for d, v in labels.items() if d != c1} == {None}


# -- one action per involution edge, against a plain BFS ---------------------


def _involutions(gens):
    """Per generator: is its square a nonzero scalar matrix?"""
    out = []
    for g in gens:
        square = g * g
        lam = square.rows[0][0]
        scalar = GroupMatrix([[lam if i == j else 0 for j in range(4)] for i in range(4)])
        out.append(bool(lam) and square == scalar)
    return out


def _plain_closure(gens, seeds):
    """conic_closure as a BFS that acts on every edge.

    Returns (conics, moves, actions, reverse): reverse counts the actions
    on an edge j -g-> i of an involution g whose edge i -g-> j was walked
    before it.
    """
    involution = _involutions(gens)
    index, conics, moves, walked = {}, [], [[] for _ in gens], set()
    actions = reverse = done = 0
    for seed in seeds:
        if index.setdefault(seed, len(conics)) == len(conics):
            conics.append(seed)
        while done < len(conics):
            for k, g in enumerate(gens):
                image = act_on_conic(g, conics[done])
                actions += 1
                j = index.setdefault(image, len(conics))
                if j == len(conics):
                    conics.append(image)
                moves[k].append(j)
                reverse += involution[k] and (k, j, done) in walked
                walked.add((k, done, j))
            done += 1
    return conics, [tuple(move) for move in moves], actions, reverse


def _plain_labels(gens, conics, labels):
    """label_orbits as BFSs that act on every edge: (actions, reverse) as
    in _plain_closure."""
    involution = _involutions(gens)
    actions = reverse = 0

    def search(conic):
        nonlocal actions, reverse
        visited, seen, walked = [conic], {conic: 0}, set()
        for i, c in enumerate(visited):
            for k, g in enumerate(gens):
                image = act_on_conic(g, c)
                actions += 1
                if image in labels:
                    return visited, labels[image]
                j = seen.setdefault(image, len(visited))
                if j == len(visited):
                    visited.append(image)
                reverse += involution[k] and (k, j, i) in walked
                walked.add((k, i, j))
        return visited, None

    for conic in conics:
        if conic not in labels:
            visited, label = search(conic)
            labels.update(dict.fromkeys(visited, label))
    return actions, reverse


def _i_times(m):
    return GroupMatrix([[I * x for x in row] for row in m.rows])


def _involution_cases():
    """(name, gens, seeds, labels): the census and Kummer generators, and
    lists mixing an involution of square -I that moves conics with the
    3-cycle z0 -> z1 -> z2 -> z0, whose square is not scalar."""
    census_gens = catalog.symmetry_generators()
    kummer_gens = catalog.kummer_generators()
    seeds = catalog.seed_conics()
    kummer = load_packaged(KUMMER_FILE).conics
    flip = _i_times(census_gens[0])  # i * (z3 -> -z3): square -I
    cycle = GroupMatrix([[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    return [
        ("census", census_gens, seeds, {seeds[0]: "C1", seeds[2]: "C3"}),
        ("kummer", kummer_gens, kummer, {kummer[5]: "K"}),
        ("mixed", [cycle, flip, kummer_gens[1]], seeds, {seeds[2]: "C3"}),
        ("mixed swap", [flip, census_gens[2], cycle], seeds, {seeds[1]: "C2"}),
        ("square -I", [flip], seeds[2:], {}),
    ]


def _counted(monkeypatch, owner, name):
    calls = []
    f = getattr(owner, name)

    def counted(*args):
        calls.append(1)
        return f(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("case", range(5))
def test_closure_acts_once_per_involution_edge(monkeypatch, case):
    name, gens, seeds, _ = _involution_cases()[case]
    want_conics, want_moves, actions, reverse = _plain_closure(gens, seeds)
    calls = _counted(monkeypatch, group, "act_on_conic")
    conics, moves = conic_closure(gens, seeds)
    assert conics == want_conics, name
    assert moves == want_moves, name
    assert len(calls) == actions - reverse, name
    if case < 4:
        assert reverse > 0, name  # the rule saves actions on every list


@pytest.mark.parametrize("case", range(5))
def test_search_acts_once_per_involution_edge(monkeypatch, case):
    name, gens, seeds, labels = _involution_cases()[case]
    closure, _ = conic_closure(gens, seeds)
    conics = closure[::-3] + list(seeds)  # searches that stop and that close
    want = dict(labels)
    actions, reverse = _plain_labels(gens, conics, want)
    calls = _counted(monkeypatch, group, "act_on_conic")
    got = label_orbits(gens, conics, dict(labels))
    assert list(got.items()) == list(want.items()), name
    assert len(calls) == actions - reverse, name
