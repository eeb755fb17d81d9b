"""The three benchmark workloads and their correctness gates.

Each workload runs CLI stages through the public API of `conic_census`, with
`jobs=1` as the CLI default, and checks every verdict against the known
answer.  A pass records each stage's time and one verdict per stage call (and
per mutant certificate); an exception inside a stage is a failed verdict, and
the pass goes on with the next stage.

- census: an orbit-census slice, then `plane_census` on its certificate, then
  `kummer_report()`.  The slice makes the calls `orbit_census` makes, in
  order, except that the three stabilizer scans act with a seeded sample of
  SCAN_ELEMENTS group elements instead of all 7680; the full stage takes
  over a minute.  It writes its certificate and requires it to equal the
  committed census certificate byte for byte.  `kummer_report()` computes the
  orbits again, as the `kummer` command does.
- solve: setup reads the census keys from the committed certificate, as
  `--in` does; then `enumerate_case` ii, iii and iv, `fiber_survey` and
  `verify_components`.
- verify: `verify_certificate` on the committed certificate, `gram_report()`,
  then `verify_certificate` on each seeded mutant (see mutants.py).
"""

import json
import os
import random
import signal
import statistics
import time
from fractions import Fraction

from conic_census import catalog, certificates, errors, group, pipeline, poly

import refkernel
from config import CENSUS_CERT, CENSUS_SHA256, MUTANT_MANIFEST, SCAN_ELEMENTS, sha256_file

TICK_S = 2.0  # seconds between host-speed samples inside a stage


def _check_report(rep, wants=None):
    """(ok, detail): the report passed and the named checks carry these details."""
    got = {name: (ok, detail) for name, ok, detail in rep.checks}
    bad = []
    for name, want in (wants or {}).items():
        ok, detail = got.get(name, (False, None))
        if not ok or (want is not None and detail != want):
            bad.append(f"{name}: {detail!r} != {want!r}")
    if not rep.ok:
        bad.append(f"failed check {rep.first_failure()}")
    return not bad, "; ".join(bad)


def _exact_det(rows):
    """Determinant of an integer matrix by fraction-exact elimination."""
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


class Pass:
    """Stage times and verdicts of one pass; spans go to the tracer if any.

    The host's speed is sampled (refkernel.py) before the first stage, after
    each stage and, while ticks run, every TICK_S seconds inside stages, from
    a SIGALRM handler whose time is left out of the stage.  A stage's scaled
    time is its raw time times REF_NOMINAL_S over the mean of the samples
    from the one before it to the one after it.
    """

    def __init__(self, first_ref, tracer=None):
        self.tracer = tracer
        self.refs = [first_ref]
        self.stages = {}
        self.scaled = {}
        self.verdicts = []
        self._paused = 0.0

    def _sample(self, *_):
        # a tick inside a sample would be timed as part of it
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            t0 = time.perf_counter()
            self.refs.append(refkernel.sample())
            self._paused += time.perf_counter() - t0
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def start_ticks(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop_ticks(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def stage(self, name, call, check):
        """Time call() as stage name and judge its output; the output or None."""
        return self.judge(name, lambda: self.timed(name, call), check)

    def judge(self, name, compute, check):
        """Record one verdict, check(compute()), failed if either raises."""
        try:
            out = compute()
            ok, detail = check(out)
        except Exception as exc:  # a stage failure is a failed verdict
            self.verdicts.append((name, False, f"{type(exc).__name__}: {exc}"))
            return None
        self.verdicts.append((name, ok, detail))
        return out

    def timed(self, name, call):
        """call(), its time added to stage name, raw and scaled."""
        first = len(self.refs) - 1
        paused = self._paused
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                return call()
            return self.tracer.span("pipeline." + name, call)
        finally:
            elapsed = time.perf_counter() - t0 - (self._paused - paused)
            self._sample()
            factor = refkernel.REF_NOMINAL_S / statistics.mean(self.refs[first:])
            self.stages[name] = self.stages.get(name, 0.0) + elapsed
            self.scaled[name] = self.scaled.get(name, 0.0) + elapsed * factor


# -- census ------------------------------------------------------------------


def _orbit_slice(p, seed, out_path):
    """orbit_census with sampled stabilizer scans: (certificate, facts).

    Its steps are timed one by one, so the host's speed is sampled between
    them; together they make the orbits_slice stage.
    """

    def step(call):
        return p.timed("orbits_slice", call)

    f = catalog.surface()
    gens = catalog.symmetry_generators()
    preserved = step(lambda: all(poly.substitute_linear(f, m.rows) == f for m in gens))
    G = step(lambda: group.generate_group(gens))
    classes = step(lambda: group.projective_classes(G))
    names = ("C1", "C2", "C3")
    seeds = catalog.seed_conics()
    orbits = [step(lambda c=c: group.orbit_of_conic(gens, c)) for c in seeds]
    conics = [c for o in orbits for c in o.values()]
    valid = step(lambda: all(c.is_irreducible() and c.on_surface(f) for c in conics))
    sample = [G[i] for i in random.Random(seed).sample(range(len(G)), SCAN_ELEMENTS)]
    closed = all(
        step(lambda c=c, o=o: all(group.act_on_conic(m, c).key in o for m in sample))
        for c, o in zip(seeds, orbits)
    )

    def certify():
        meta = [("orbit", f"{n} {len(o)}") for n, o in zip(names, orbits)]
        meta += [
            ("stabilizer", f"{n} {want}")
            for n, want in zip(names, catalog.SEED_STABILIZER_ORDERS)
        ]
        meta += [("generator", " ".join(m.fields())) for m in gens]
        meta += [("seed", f"{n} " + " ".join(c.fields())) for n, c in zip(names, seeds)]
        entries = [
            (f"{n}-{idx:03d}", c)
            for n, orbit in zip(names, orbits)
            for idx, c in enumerate(orbit.values())
        ]
        cert = certificates.make_certificate("orbit-census", entries, meta)
        certificates.write_certificate(cert, out_path)
        return cert

    cert = step(certify)
    facts = {
        "generators preserve the surface": preserved,
        "group order": len(G),
        "projective classes": len(classes),
        "orbit sizes": [len(o) for o in orbits],
        "conics": len({c.key for c in conics}),
        "irreducible and on the surface": valid,
        "sampled scan stays in the orbit": closed,
        "certificate sha256": sha256_file(out_path),
    }
    return cert, facts


def _check_slice(out):
    _, facts = out
    want = {
        "generators preserve the surface": True,
        "group order": 7680,
        "projective classes": 1920,
        "orbit sizes": [160, 160, 480],
        "conics": 800,
        "irreducible and on the surface": True,
        "sampled scan stays in the orbit": True,
        "certificate sha256": CENSUS_SHA256,
    }
    bad = [f"{k}: {facts[k]!r} != {v!r}" for k, v in want.items() if facts[k] != v]
    return not bad, "; ".join(bad)


def _check_plane_census(cert):
    def check(rep):
        planes = {}
        for c in cert.conics:
            planes.setdefault(c.key[10:14], []).append(c)
        hist = {}
        for key in planes:
            support = sum(1 for t in key if t != ",".join(["0"] * 8))
            hist[support] = hist.get(support, 0) + 1
        ok, detail = _check_report(
            rep, {"plane count": "400", "plane support histogram": "2:48 3:64 4:288"}
        )
        if len(planes) != 400 or hist != {2: 48, 3: 64, 4: 288}:
            ok, detail = False, f"{detail}; {len(planes)} planes, histogram {hist}"
        return ok, detail

    return check


def _check_kummer(rep):
    return _check_report(
        rep,
        {
            "sixteen conics": "16",
            "pairwise disjoint": "120 pairs",
            "symmetry group order": "128",
            "projective transformations": "32",
            "pointwise fixer is the scalar subgroup": "order 4",
            "all sixteen appear in the orbit census": None,
        },
    )


def setup_census(scratch, seed):
    return {"out": os.path.join(scratch, "orbit-slice.cert")}


def run_census(p, state, seed):
    out = p.judge("orbits_slice", lambda: _orbit_slice(p, seed, state["out"]), _check_slice)
    if out is None:
        p.verdicts.append(("census", False, "no certificate from the orbit slice"))
    else:
        cert = out[0]
        p.stage("census", lambda: pipeline.plane_census(cert), _check_plane_census(cert))
    p.stage("kummer", lambda: pipeline.kummer_report(), _check_kummer)


# -- solve -------------------------------------------------------------------


def _check_enumeration(conics_want, planes_want):
    def check(out):
        rep, conics = out
        planes = {c.key[10:14] for c in conics}
        ok, detail = _check_report(
            rep,
            {
                "solution scheme degree": str(conics_want),
                "distinct conics": str(conics_want),
                "distinct planes": str(planes_want),
                "all conics appear in the orbit census": None,
            },
        )
        if len({c.key for c in conics}) != conics_want or len(planes) != planes_want:
            ok, detail = False, f"{detail}; {len(conics)} conics, {len(planes)} planes"
        return ok, detail

    return check


def _check_smooth_section(out):
    rep, conics = out
    ok, detail = _check_report(rep, {"plane section is a smooth quartic": None})
    return ok and conics == [], detail


def setup_solve(scratch, seed):
    return {"keys": certificates.read_certificate(CENSUS_CERT).keys()}


def run_solve(p, state, seed):
    keys = state["keys"]
    p.stage("enumerate_ii", lambda: pipeline.enumerate_case("ii", census=keys),
            _check_enumeration(64, 32))
    p.stage("enumerate_iii", lambda: pipeline.enumerate_case("iii", census=keys),
            _check_enumeration(16, 8))
    p.stage("enumerate_iv", lambda: pipeline.enumerate_case("iv", census=keys),
            _check_smooth_section)
    p.stage("fibers", lambda: pipeline.fiber_survey(census=keys),
            lambda rep: _check_report(rep, {"singular parameter locus": None,
                                            "seed conic C3 appears in its fiber": None}))
    p.stage("components", lambda: pipeline.verify_components(),
            lambda rep: _check_report(rep, {
                "parameter parts cover the singular parameter locus": None}))


# -- verify ------------------------------------------------------------------


def _check_gram(out):
    rep, rows = out
    n = len(rows)
    edges = sum(rows[i][j] for i in range(n) for j in range(i + 1, n))
    det = _exact_det(rows)
    ok, detail = _check_report(rep, {"determinant": "-160", "adjacency edge count": "22"})
    if n != 20 or det != -160 or edges != 22:
        ok, detail = False, f"{detail}; n {n}, det {det}, {edges} edges"
    return ok, detail


def setup_verify(scratch, seed):
    with open(os.path.join(scratch, MUTANT_MANIFEST), encoding="ascii") as fh:
        return {"mutants": json.load(fh)}


def run_verify(p, state, seed):
    p.stage("verify", lambda: pipeline.verify_certificate(CENSUS_CERT),
            lambda rep: _check_report(rep, {
                "parsed in canonical form": "800 conics, kind orbit-census",
                "plane count": "400"}))
    p.stage("gram", lambda: pipeline.gram_report(), _check_gram)
    for m in state["mutants"]:
        p.stage("reject", _verdict_of(m["path"]), _is(m["expected"]))


def _verdict_of(path):
    def call():
        try:
            pipeline.verify_certificate(path)
        except (errors.ParseError, errors.VerificationFailed) as exc:
            return ("reject", type(exc).__name__)
        return ("accept", "")

    return call


def _is(expected):
    return lambda got: (got[0] == expected, f"expected {expected}, got {got[0]} {got[1]}")


WORKLOADS = {
    "census": (setup_census, run_census),
    "solve": (setup_solve, run_solve),
    "verify": (setup_verify, run_verify),
}
