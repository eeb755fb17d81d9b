"""Reference arithmetic on Polys, shared by the tests and kept out of the
package: the program's univariate arithmetic runs on coefficient lists
(poly.uni_*) and is checked against these."""

from conic_census.errors import RingMismatch
from conic_census.geometry import ZRING
from conic_census.poly import Poly, dense_monomials


def divide_exact(p, d):
    """Quotient p/d when division is exact, else None.

    Long division by the leading term of d in the ring's order; any nonzero
    remainder step returns None.
    """
    if p.ring != d.ring:
        raise RingMismatch(f"operands in {p.ring!r} vs {d.ring!r}")
    if not d:
        raise ZeroDivisionError("division by zero polynomial")
    ring = p.ring
    dm, dc = d.lead_monomial(), d.lead_coeff()
    dcinv = dc.inverse()
    rest = dict(p.terms)
    key = ring.key
    q = {}
    dtail = [(m, c) for m, c in d.terms.items() if m != dm]
    while rest:
        m = max(rest, key=key)
        c = rest[m]
        qm = tuple(x - y for x, y in zip(m, dm))
        if any(e < 0 for e in qm):
            return None
        qc = c * dcinv
        q[qm] = qc
        del rest[m]
        for tm, tc in dtail:
            nm = tuple(x + y for x, y in zip(tm, qm))
            v = rest.get(nm)
            nv = -(qc * tc) if v is None else v - qc * tc
            if nv:
                rest[nm] = nv
            elif v is not None:
                del rest[nm]
    return Poly(ring, q)


def ternary_poly(q, pivot):
    """The dense ternary form q (poly.dense_monomials order, in the variables
    other than z_pivot), as geometry keeps quotients, as a Poly in K[z0..z3];
    None stays None."""
    if q is None:
        return None
    d = next(d for d in range(len(q)) if len(dense_monomials(3, d)[0]) == len(q))
    monos = dense_monomials(3, d)[0]
    return Poly(ZRING, {m[:pivot] + (0,) + m[pivot:]: x for m, x in zip(monos, q) if x})
