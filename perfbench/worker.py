"""One benchmark pass in a fresh interpreter; run.py starts it.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
        --spawned T --scratch DIR [--setup-only]

T is the time.monotonic() reading taken just before the interpreter was
started (CLOCK_MONOTONIC is shared by all processes on Linux), so setup_s
covers interpreter start, imports and the workload's setup.  The host's
speed is then sampled once before the first stage and once after each
(refkernel.py); raw and scaled stage times are reported.  The last line of
standard output is one JSON object.
"""

import argparse
import json
import resource
import statistics
import time

import refkernel


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    setup, run = workloads.WORKLOADS[args.workload]
    state = setup(args.scratch, args.seed)
    setup_s = time.monotonic() - args.spawned
    first_ref = refkernel.sample()
    result = {
        "setup_s": setup_s,
        "setup_scaled_s": setup_s * refkernel.REF_NOMINAL_S / first_ref,
    }
    if not args.setup_only:
        p = workloads.Pass(first_ref, tracer)
        if tracer is None:
            # in a traced pass the samples would land in the layer spans
            p.start_ticks()
        run(p, state, args.seed)
        p.stop_ticks()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["stages"] = p.stages
        result["scaled"] = p.scaled
        result["refs"] = p.refs
        result["verdicts"] = p.verdicts
        if tracer is not None:
            tracer.uninstall()
            from kernels import kernel_metrics

            layers = tracer.metrics()
            layers["trace.wall_s"] = sum(p.stages.values())
            layers["host.ref_s"] = statistics.median(p.refs)
            layers.update(kernel_metrics(workloads.CENSUS_CERT, args.seed))
            result["layers"] = layers
    print(json.dumps(result))


if __name__ == "__main__":
    main()
