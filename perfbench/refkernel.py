"""A fixed reference computation that measures the host's speed.

The benchmark runs on shared machines whose speed drifts by tens of percent
within seconds and between minutes, while the process's CPU time stays
equal to its wall time: the drift is the speed of the core, not
scheduling.  Timed in the same process next to and inside each stage, this
kernel follows that drift; a stage's time scaled by REF_NOMINAL_S over the
mean of its samples reads as its time on a host where the kernel takes
REF_NOMINAL_S.

The kernel imitates the program's inner loops (sparse polynomials over an
8-dimensional algebra with integer coefficients, gcd normalisation, tuple
keys, text) without calling the program, so a change to the program leaves
it untouched.  It runs with the cycle collector paused, so the program's
heap does not change what it measures.  Changing the kernel or the constant
changes the scale of every timing.
"""

import gc
import math
import time

# a sample's seconds on the 2-core Xeon (2.1 GHz, Python 3.11) the benchmark
# was calibrated on; only sets the scale of the scaled timings
REF_NOMINAL_S = 0.1

_SIGN = [[1 if bin(j & k).count("1") % 2 == 0 else -1 for k in range(8)] for j in range(8)]
_MONOS = [
    (a, b, c, 2 - a - b - c)
    for a in range(3)
    for b in range(3 - a)
    for c in range(3 - a - b)
]
_POLYS = [
    {
        m: tuple(((i + 1) * (k + 3) * (n + 1)) % 7 - 3 for n in range(8))
        for k, m in enumerate(_MONOS)
        if (i + k) % 3
    }
    for i in range(12)
]


def _coeff_mul(a, b):
    res = [0] * 8
    for j in range(8):
        aj = a[j]
        if aj:
            sj = _SIGN[j]
            for k in range(8):
                bk = b[k]
                if bk:
                    res[j ^ k] += sj[k] * aj * bk
    g = 0
    for r in res:
        g = math.gcd(g, r)
    return tuple(r // g for r in res) if g > 1 else tuple(res)


def _poly_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
            c = _coeff_mul(c1, c2)
            prev = out.get(m)
            out[m] = c if prev is None else tuple(x + y for x, y in zip(prev, c))
    return {m: c for m, c in out.items() if any(c)}


def reference_kernel(rounds=30):
    seen = {}
    for r in range(rounds):
        for i in range(0, 12, 2):
            prod = _poly_mul(_POLYS[i], _POLYS[(i + r + 1) % 12])
            seen[(r, i)] = ";".join(",".join(map(str, c)) for c in prod.values())
    return len(seen)


def sample():
    """Seconds the reference kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
