"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each `conic_census` module and
rebinds every name bound to the original, in every loaded `conic_census`
module, because `pipeline` and `group` import their callees by name.  Each
wrapper records a span: its call count, its inclusive time, and the time its
direct child spans cover, so a span's self time is its duration minus its
children.  Spans are aggregated by name in memory; nothing inside the program
changes.
"""

import functools
import sys
import time
from collections import defaultdict

# (module, attribute, span name) for module-level functions
FUNCTIONS = (
    ("poly", "substitute_linear", "poly.substitute_linear"),
    ("poly", "ring_map", "poly.ring_map"),
    ("linalg", "mat_det", "linalg.mat_det"),
    ("geometry", "intersection_number", "geometry.intersection_number"),
    ("group", "generate_group", "group.generate_group"),
    ("group", "act_on_conic", "group.act_on_conic"),
    ("group", "orbit_of_conic", "group.orbit_of_conic"),
    ("group", "projective_classes", "group.projective_classes"),
    ("groebner", "buchberger", "groebner.buchberger"),
    ("groebner", "fglm", "groebner.fglm"),
    ("groebner", "elimination_ideal", "groebner.elimination_ideal"),
    ("groebner", "solve_zero_dim", "groebner.solve_zero_dim"),
    ("groebner", "ideal_membership", "groebner.ideal_membership"),
    ("certificates", "write_certificate", "certificates.write_certificate"),
    ("certificates", "read_certificate", "certificates.read_certificate"),
    ("certificates", "parse_certificate", "certificates.parse_certificate"),
    ("catalog", "gauge_fixed_system", "catalog.gauge_fixed_system"),
)

# (module, class, method, span name)
METHODS = (
    ("geometry", "Conic", "__init__", "geometry.conic_canon"),
    ("geometry", "Conic", "on_surface", "geometry.on_surface"),
    ("geometry", "Conic", "residual", "geometry.residual"),
    ("group", "GroupMatrix", "__mul__", "group.matrix_mul"),
)


def _count_elements(tracer, args, result):
    tracer.counters["group.elements"] += len(result)


def _count_groebner(tracer, args, result):
    tr = result.trace
    c = tracer.counters
    c["groebner.pairs_processed"] += tr.pairs_processed
    c["groebner.pairs_discarded"] += tr.pairs_discarded
    c["groebner.zero_reductions"] += tr.zero_reductions
    m = tracer.maxima
    m["groebner.basis_max"] = max(m["groebner.basis_max"], tr.basis_max)
    m["groebner.terms_max"] = max(m["groebner.terms_max"], tr.terms_max)


def _count_bytes(tracer, args, result):
    tracer.counters["certificates.bytes_parsed"] += len(args[0])


AFTER = {
    "group.generate_group": _count_elements,
    "groebner.buchberger": _count_groebner,
    "certificates.parse_certificate": _count_bytes,
}


class Tracer:
    """Aggregated spans and work counters for one pass."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counters = defaultdict(int)
        self.maxima = defaultdict(int)
        self._stack = []  # child time accumulated by each open span
        self._undo = []

    def _open(self):
        self._stack.append(0.0)
        return time.perf_counter()

    def _close(self, name, t0):
        dt = time.perf_counter() - t0
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += dt
        self.calls[name] += 1
        self.seconds[name] += dt
        self.self_seconds[name] += dt - child

    def span(self, name, fn):
        """Call fn() inside a span named name and return its result."""
        t0 = self._open()
        try:
            return fn()
        finally:
            self._close(name, t0)

    def _wrap(self, name, fn):
        after = AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, t0)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def install(self):
        """Wrap every traced layer function; rebinds names in all modules."""
        import conic_census  # noqa: F401  (loads every submodule)

        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == "conic_census" or n.startswith("conic_census."))
        ]
        for mod, attr, name in FUNCTIONS:
            original = getattr(sys.modules["conic_census." + mod], attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, original))
                        setattr(m, key, wrapper)
        for mod, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules["conic_census." + mod], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def metrics(self):
        """Layer metrics by name, from the spans and counters recorded."""

        def per_call_us(name):
            n = self.calls[name]
            return self.seconds[name] / n * 1e6 if n else 0.0

        out = {}
        for name in [n for *_, n in FUNCTIONS + METHODS]:
            out[name + ".calls"] = self.calls[name]
            out[name + ".s"] = self.seconds[name]
            out[name + ".us"] = per_call_us(name)
        out.update(self.counters)
        out.update(self.maxima)
        processed = self.counters["groebner.pairs_processed"]
        # base: groebner.pairs_processed; 0 when no pair was processed
        out["groebner.useful_pair_frac"] = (
            1.0 - self.counters["groebner.zero_reductions"] / processed if processed else 0.0
        )
        for name, secs in self.self_seconds.items():
            if name.startswith("pipeline."):
                out[name + ".self_s"] = secs
        return out
