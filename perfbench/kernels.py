"""Micro-kernels for the field and polynomial layers.

Operands are a seeded sample of the nonzero coefficients (and of the conic
quadrics) of the committed census certificate, so the kernels see the
numbers the pipeline works with.  Each kernel times REPEATS sweeps over its
sample and reports the median sweep divided by the operations in a sweep.
"""

import random
import statistics
import time

from conic_census.field import KElem
from conic_census.geometry import Conic

SAMPLE = 256
REPEATS = 7
QUADRIC_PAIRS = 16


def _per_op_us(sweep, ops):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        sweep()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / ops * 1e6


def kernel_metrics(cert_path, seed):
    with open(cert_path, encoding="ascii") as fh:
        records = [line.split()[2:] for line in fh if line.startswith("conic ")]
    rng = random.Random(seed)
    texts = [t for rec in records for t in rec if any(p != "0" for p in t.split(","))]
    a_txt = rng.sample(texts, SAMPLE)
    b_txt = rng.sample(texts, SAMPLE)
    a = [KElem.from_text(t) for t in a_txt]
    b = [KElem.from_text(t) for t in b_txt]
    pairs = list(zip(a, b))
    quads = [Conic.from_fields(rec).quadric for rec in rng.sample(records, 2 * QUADRIC_PAIRS)]
    qpairs = list(zip(quads[::2], quads[1::2]))

    def mul():
        for x, y in pairs:
            x * y

    def add():
        for x, y in pairs:
            x + y

    def inverse():
        for x in a:
            x.inverse()

    def to_text():
        for x in a:
            x.to_text()

    def from_text():
        for t in a_txt:
            KElem.from_text(t)

    def poly_mul():
        for p, q in qpairs:
            p * q

    return {
        "field.mul_us": _per_op_us(mul, SAMPLE),
        "field.add_us": _per_op_us(add, SAMPLE),
        "field.inverse_us": _per_op_us(inverse, SAMPLE),
        "field.to_text_us": _per_op_us(to_text, SAMPLE),
        "field.from_text_us": _per_op_us(from_text, SAMPLE),
        "poly.mul_us": _per_op_us(poly_mul, QUADRIC_PAIRS),
    }
