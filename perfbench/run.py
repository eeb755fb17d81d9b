"""Benchmark of the conic-census pipeline.

    python3 perfbench/run.py --workload census|solve|verify --seed N
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`, nothing is installed.  Workloads (see workloads.py):

- census: orbit-census slice, plane census, Kummer report.  Group closure,
  conic actions, canonicalisation and certificate writing; Groebner idle.
- solve: enumerate ii, iii, iv, fibers, components on the census keys read
  from the committed certificate.  Buchberger, FGLM, elimination and root
  solving; the group layer idle.
- verify: verify the committed census certificate, the Gram report, then
  seeded mutants of the certificate with verdicts known in advance.

Every pass runs in a fresh interpreter (worker.py) with a fixed
PYTHONHASHSEED.  The run first starts SETUP_ONLY interpreters that only set
up, then runs whole passes, one after another, for as long as the next one
is expected to end within S seconds (at least one).

The machines this runs on drift in speed by tens of percent within seconds
and between minutes, with CPU time equal to wall time.  So each worker also
times a fixed reference kernel (refkernel.py): after setup, after every
stage, and every few seconds inside a stage (see workloads.Pass).  Each
stage time is scaled by REF_NOMINAL_S over the mean of its samples, and
setup by the sample after it: scaled seconds are seconds on a host where
the kernel takes REF_NOMINAL_S.  The end-to-end metrics are medians of
scaled times over the passes (setup_s: over every interpreter started);
the raw times are printed beside them.  wall_s is the sum of a pass's stage
times, from the first stage call to the last verdict without the reference
samples and the benchmark's own checks.  With --trace 0 the last line
reports the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics (raw, and without samples inside stages), measured by
wrapping the program's layer functions from outside (tracer.py).

Every stage call and mutant verdict is checked against the known answer;
`attempted` counts verdicts and `failed` those that differ or raised.  The
run refuses to start, with exit status 2 and no result, when the program
sources are missing or the committed census certificate does not match
its recorded sha256.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import mutants  # noqa: E402
from config import (  # noqa: E402
    CENSUS_CERT,
    CENSUS_SHA256,
    LEAD_SECOND,
    MUTANT_MANIFEST,
    VERDICTS,
    sha256_file,
)

SETUP_ONLY = 4
HASH_SEED = "0"
DEADLINE_S = 170  # a run must end well inside 180 s


def _refuse(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def write_mutants(scratch, seed):
    with open(CENSUS_CERT, encoding="ascii") as fh:
        text = fh.read()
    manifest = []
    for k, (kind, expected, body) in enumerate(mutants.make_mutants(text, seed)):
        path = os.path.join(scratch, f"mutant-{k}-{kind}.cert")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(body)
        manifest.append({"kind": kind, "expected": expected, "path": path})
    with open(os.path.join(scratch, MUTANT_MANIFEST), "w", encoding="ascii") as fh:
        json.dump(manifest, fh)


def worker_env():
    """Environment of a worker: fixed hash seed, program imported from src/."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(workload, seed, trace, scratch, env, timeout, setup_only=False):
    """Start one worker interpreter; its JSON result, or None if it failed."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(trace), "--scratch", scratch,
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    cmd += ["--spawned", repr(spawned)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _median(values):
    return statistics.median(values) if values else 0.0


def _report(name, scaled, raw):
    # too few samples for a percentile with ten beyond it, so list them all
    print(f"  {name}_s scaled median {_median(scaled):.4f}, max {max(scaled):.4f}, "
          f"n {len(scaled)}; raw " + " ".join(f"{v:.4f}" for v in raw))


def measure(args, scratch):
    env = worker_env()
    start = time.monotonic()

    def remaining():
        return DEADLINE_S - (time.monotonic() - start)

    setups = []
    for _ in range(SETUP_ONLY):
        res = run_worker(args.workload, args.seed, args.trace, scratch, env,
                         remaining(), setup_only=True)
        if res is not None:
            setups.append((res["setup_s"], res["setup_scaled_s"]))
    passes, lost, last = [], 0, 0.0
    while not passes and not lost or time.monotonic() - start + last <= args.seconds:
        t0 = time.monotonic()
        res = run_worker(args.workload, args.seed, args.trace, scratch, env,
                         max(remaining(), 1.0))
        last = time.monotonic() - t0
        if res is None:
            lost += 1
            if remaining() < last:
                break
            continue
        passes.append(res)
        setups.append((res["setup_s"], res["setup_scaled_s"]))
    return setups, passes, lost


def summarise(args, setups, passes, lost, spec):
    attempted = VERDICTS[args.workload] * (len(passes) + lost)
    failed = VERDICTS[args.workload] * lost
    for p in passes:
        for name, ok, detail in p["verdicts"]:
            if not ok:
                failed += 1
                print(f"FAILED {name}: {detail}")
        failed += VERDICTS[args.workload] - len(p["verdicts"])
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes, {lost} lost, {len(setups)} setups; python "
          f"{sys.version.split()[0]}, nproc {os.cpu_count()}, PYTHONHASHSEED {HASH_SEED}")
    lead, second = LEAD_SECOND[args.workload]
    scaled = {}
    for name, key in (("wall", None), ("lead_stage", lead), ("second_stage", second)) + tuple(
        (s, (s,)) for s in sorted({s for p in passes for s in p["stages"]})
    ):
        vals = {
            kind: [sum(v for s, v in p[kind].items() if key is None or s in key) for p in passes]
            for kind in ("scaled", "stages")
        }
        scaled[name] = _median(vals["scaled"])
        _report(name, vals["scaled"], vals["stages"])
    _report("setup", [s for _, s in setups], [s for s, _ in setups])
    refs = [r for p in passes for r in p["refs"]]
    print(f"  host reference sample median {_median(refs):.4f} s, "
          f"{min(refs):.4f} to {max(refs):.4f}, n {len(refs)}")

    if args.trace:
        layers = [p["layers"] for p in passes]
        values = {
            # median_low keeps counts whole
            m["name"]: statistics.median_low([lay.get(m["name"], 0) for lay in layers])
            for m in spec["per_layer"]
        }
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": scaled["wall"],
            "setup_s": _median([s for _, s in setups]),
            "peak_rss_mb": _median([p["peak_rss_mb"] for p in passes]),
            "lead_stage_s": scaled["lead_stage"],
            "second_stage_s": scaled["second_stage"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(VERDICTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "conic_census", "__init__.py")):
        _refuse("no program sources under src/conic_census; run from a source checkout")
    if not os.path.isfile(CENSUS_CERT) or sha256_file(CENSUS_CERT) != CENSUS_SHA256:
        _refuse(f"{os.path.relpath(CENSUS_CERT, ROOT)} does not match its sha256 "
                f"{CENSUS_SHA256}")
    spec = _spec()

    scratch = os.path.join(ROOT, ".bench_build", f"perfbench-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        if args.workload == "verify":
            write_mutants(scratch, args.seed)
        setups, passes, lost = measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not passes:
        _refuse(f"all {lost} passes failed; no timing to report")
    print(json.dumps(summarise(args, setups, passes, lost, spec)))


if __name__ == "__main__":
    main()
