"""Small exact linear algebra over K (matrices as lists of KElem rows)."""

from .field import ZERO, ONE, dot


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[dot(r, c) for c in cols] for r in a]


def mat_det(a):
    """Determinant by exact Gaussian elimination."""
    n = len(a)
    m = [row[:] for row in a]
    det = ONE
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return ZERO
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c]
        inv = m[c][c].inverse()
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det
