"""Checks of the benchmark itself; about two minutes on two cores.

    python3 -m pytest perfbench

For each workload, two traced passes with the same seed must pass every
verdict, give identical work counts, and show the predicted zero and
nonzero calls into each layer: the wrappers rebind every imported name, so
a layer a workload should not touch reads exactly zero.
"""

import os
import random
import shutil

import pytest

import mutants
import run
from config import CENSUS_CERT

SEED = 5

# workload -> {metric: predicted zero or nonzero}, from the table of which
# layers each workload drives
PREDICTED = {
    "census": {
        "groebner.buchberger.calls": "zero",
        "groebner.pairs_processed": "zero",
        "catalog.gauge_fixed_system.calls": "zero",
        "group.generate_group.calls": "nonzero",
        "group.act_on_conic.calls": "nonzero",
        "group.matrix_mul.calls": "nonzero",
        "group.elements": "nonzero",
        "geometry.conic_canon.calls": "nonzero",
        "poly.substitute_linear.calls": "nonzero",
        "linalg.mat_det.calls": "nonzero",
        "certificates.write_certificate.calls": "nonzero",
    },
    "solve": {
        "groebner.buchberger.calls": "nonzero",
        "groebner.pairs_processed": "nonzero",
        "groebner.zero_reductions": "nonzero",
        "groebner.fglm.calls": "nonzero",
        "groebner.solve_zero_dim.calls": "nonzero",
        "groebner.ideal_membership.calls": "nonzero",
        "catalog.gauge_fixed_system.calls": "nonzero",
        "certificates.parse_certificate.calls": "nonzero",
        "group.generate_group.calls": "zero",
        "group.act_on_conic.calls": "zero",
        "group.matrix_mul.calls": "zero",
        "group.orbit_of_conic.calls": "zero",
        "poly.substitute_linear.calls": "zero",
    },
    "verify": {
        "certificates.parse_certificate.calls": "nonzero",
        "certificates.bytes_parsed": "nonzero",
        "geometry.intersection_number.calls": "nonzero",
        "geometry.conic_canon.calls": "nonzero",
        "groebner.buchberger.calls": "zero",
        "group.generate_group.calls": "zero",
        "group.orbit_of_conic.calls": "zero",
    },
}

# work counts that must repeat exactly between two traced passes
EXACT = (
    "groebner.pairs_processed",
    "groebner.pairs_discarded",
    "groebner.zero_reductions",
    "groebner.basis_max",
    "groebner.terms_max",
    "group.elements",
    "certificates.bytes_parsed",
)


def _traced_pass(workload, scratch):
    res = run.run_worker(workload, SEED, 1, scratch, run.worker_env(), timeout=170)
    assert res is not None, f"{workload} pass failed to run"
    bad = [v for v in res["verdicts"] if not v[1]]
    assert not bad, bad
    return res["layers"]


@pytest.fixture
def scratch():
    path = os.path.join(run.ROOT, ".bench_build", f"perfbench-test-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    run.write_mutants(path, SEED)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", sorted(PREDICTED))
def test_predicted_counts_and_exact_repeat(workload, scratch):
    first = _traced_pass(workload, scratch)
    second = _traced_pass(workload, scratch)
    for name, want in PREDICTED[workload].items():
        got = first.get(name, 0)
        assert (got == 0) == (want == "zero"), f"{workload}: {name} = {got}, predicted {want}"
    counts = [k for k in first if k.endswith(".calls")] + list(EXACT)
    assert {k: first.get(k, 0) for k in counts} == {k: second.get(k, 0) for k in counts}


def test_mutant_verdicts_fixed_before_running():
    with open(CENSUS_CERT, encoding="ascii") as fh:
        text = fh.read()
    for seed in range(20):
        made = mutants.make_mutants(text, seed)
        assert [(k, e) for k, e, _ in made][0] == ("swap_records", mutants.ACCEPT)
        assert sorted(k for k, _, _ in made) == sorted(mutants.KINDS)
        for kind, expected, body in made:
            assert expected == mutants.KINDS[kind]
            changed = [
                (a, b) for a, b in zip(text.split("\n"), body.split("\n")) if a != b
            ]
            assert len(changed) == (2 if kind == "swap_records" else 1)
            assert "e" not in body.split("count 800", 1)[1]
    assert mutants.make_mutants(text, 3) == mutants.make_mutants(text, 3)


def test_parse_path_mutants_sit_in_fixed_windows():
    with open(CENSUS_CERT, encoding="ascii") as fh:
        text = fh.read()
    lines = text.split("\n")
    records = [i for i, line in enumerate(lines) if line.startswith("conic ")]
    centres = sorted((2 * k + 1) * len(records) // 6 for k in range(3))
    for seed in random.Random(0).sample(range(10**6), 10):
        positions = []
        for kind, _, body in mutants.make_mutants(text, seed):
            if kind in mutants.PARSE_KINDS:
                new = body.split("\n")
                positions.append(next(k for k, i in enumerate(records) if new[i] != lines[i]))
        for pos, centre in zip(sorted(positions), centres):
            assert abs(pos - centre) <= mutants.WINDOW
