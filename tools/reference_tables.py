"""Reference tables: a 20-conic basis of the Neron-Severi lattice and the
16-conic Kummer configuration, as reviewable constructions.

tools/make_reference_data.py writes them to the certificates shipped in
src/conic_census/data/, which are what the program reads; the expected Gram
matrix of the basis lives in conic_census.catalog.

Rows are given in the canonical record order a00, a01, a02, a03, a11, a12,
a13, a22, a23, a33, b0, b1, b2, b3 (quadric then plane).  Nothing here is
trusted: the verification pipeline re-checks every conic against the census,
recomputes all intersection numbers, and re-derives the group data.
"""

from fractions import Fraction

from conic_census.field import I, SQRT2, SQRT5, SQRT10, kelem
from conic_census.geometry import Conic


def _f(a, b):
    return kelem(Fraction(a, b))


_S2 = SQRT2
_S5 = SQRT5
_S10 = SQRT10
_IS2 = I * SQRT2
_IS5 = I * SQRT5
_IS10 = I * SQRT10


def _conic(row):
    """Build a Conic from 14 coefficient values in record order."""
    return Conic.from_coeffs([kelem(v) for v in row])


def ns_basis_conics():
    """Twenty conics whose classes span the Neron-Severi lattice."""
    rows = [
        # 1
        (0, 0, 0, 0, 1, 0, 0,
         I / 3 + _IS2 / 3 + _S2 / 6 + _f(1, 6), 0,
         I / 3 - _IS2 / 3 - _S2 / 6 + _f(1, 6),
         1, _S5 / 5 - 2 * _IS5 / 5, 0, 0),
        # 2
        (0, 0, 0, 0, 1, 0, 0,
         I / 3 - _IS2 / 3 - _S2 / 6 + _f(1, 6), 0,
         I / 3 + _IS2 / 3 + _S2 / 6 + _f(1, 6),
         1, 2 * _IS5 / 5 - _S5 / 5, 0, 0),
        # 3
        (0, 0, 0, 0, 1, 0, -1, _f(3, 2) - _S10 / 2, 0, 1,
         1, -1, 0, 1),
        # 4
        (0, 0, 0, 0, 1, 0, 1, _S10 / 2 + _f(3, 2), 0, 1,
         1, 1, 0, 1),
        # 5
        (0, 0, 0, 0, 1, 0, 2 * I, _S10 / 2 + _f(3, 2), 0,
         3 * _S10 / 2 + _f(7, 2),
         1, -1, 0, -2 * I),
        # 6
        (0, 0, 0, 0, 1, 0, -2 * I, _f(3, 2) - _S10 / 2, 0,
         _f(7, 2) - 3 * _S10 / 2,
         1, 1, 0, -2 * I),
        # 7
        (0, 0, 0, 0, 1, 1, 0, 1, 0, _S10 / 2 + _f(3, 2),
         1, -1, -1, 0),
        # 8
        (0, 0, 0, 0, 1, 2 * I, 0, _f(7, 2) - 3 * _S10 / 2, 0,
         _f(3, 2) - _S10 / 2,
         1, -1, -2 * I, 0),
        # 9
        (0, 0, 0, 0, 1, 2 * I, 0, 3 * _S10 / 2 + _f(7, 2), 0,
         _S10 / 2 + _f(3, 2),
         1, 1, 2 * I, 0),
        # 10
        (0, 0, 0, 0, 1,
         -2 * I - _IS5 + _S2 / 2,
         _IS2 / 2 - _S5 - 2,
         _IS10 / 2 + _IS2 - _S5 - 2,
         5 * I + 2 * _IS5 + 3 * _S2 + 3 * _S10 / 2,
         -_IS10 - 2 * _IS2 + _S5 + 2,
         1, -I, -_S5 - 2, 2 * I + _IS5),
        # 11
        (0, 0, 0, 0, 1,
         -2 * I + _IS5 - _S2 / 2,
         -_IS2 / 2 + _S5 - 2,
         _IS10 / 2 - _IS2 + _S5 - 2,
         5 * I - 2 * _IS5 - 3 * _S2 + 3 * _S10 / 2,
         -_IS10 + 2 * _IS2 - _S5 + 2,
         1, -I, _S5 - 2, 2 * I - _IS5),
        # 12
        (0, 0, 0, 0, 1,
         I / 3 + _IS2 / 2 - 2 * _S2 / 3 + 1,
         -_IS10 / 3 + _IS5 / 3 + _S5 / 3 - _S10 / 6,
         1,
         -_IS10 / 3 + _IS5 / 3 + _S5 / 3 - _S10 / 6,
         I - 5 * _IS2 / 6 + _f(1, 3),
         1, 2 * _S5 / 5 - _IS5 / 5, 2 * _S5 / 5 - _IS5 / 5, 1),
        # 13
        (0, 0, 0, 0, 1,
         -2 * I / 3 + _S10 / 6 - _IS10 / 3 + _f(1, 3),
         5 * I / 3 - _IS10 / 6,
         -I / 3 - _IS10 / 6,
         2 * I / 3 + _IS10 / 3 + _S10 / 6 + _f(1, 3),
         -1,
         1, I + 2, 1, I - 2),
        # 14
        (0, 0, 0, 0, 1,
         5 * I / 3 + _IS10 / 6,
         2 * I / 3 - _IS10 / 3 - _S10 / 6 + _f(1, 3),
         -1,
         2 * I / 3 + _S10 / 6 - _IS10 / 3 - _f(1, 3),
         I / 3 - _IS10 / 6,
         1, 2 - I, I + 2, 1),
        # 15
        (0, 0, 0, 0, 1,
         5 * I / 3 + _IS10 / 6,
         -2 * I / 3 + _IS10 / 3 - _S10 / 6 + _f(1, 3),
         -1,
         2 * I / 3 - _IS10 / 3 - _S10 / 6 + _f(1, 3),
         _IS10 / 6 - I / 3,
         1, I + 2, I - 2, 1),
        # 16
        (0, 0, 0, 0, 1,
         _IS10 / 6 - 5 * I / 3,
         2 * I / 3 + _IS10 / 3 - _S10 / 6 - _f(1, 3),
         -1,
         2 * I / 3 + _IS10 / 3 + _S10 / 6 + _f(1, 3),
         -I / 3 - _IS10 / 6,
         1, -I - 2, I - 2, 1),
        # 17
        (0, 0, 0, 0, 1,
         2 * I / 3 + _IS10 / 3 - _S10 / 6 - _f(1, 3),
         _IS10 / 6 - 5 * I / 3,
         -I / 3 - _IS10 / 6,
         2 * I / 3 + _IS10 / 3 + _S10 / 6 + _f(1, 3),
         -1,
         1, I + 2, -1, 2 - I),
        # 18
        (0, 0, 0, 0, 1,
         I / 3 + 2 * _S2 / 3 - _IS2 / 2 + 1,
         -_IS10 / 3 - _IS5 / 3 - _S5 / 3 - _S10 / 6,
         1,
         -_IS10 / 3 - _IS5 / 3 - _S5 / 3 - _S10 / 6,
         I + 5 * _IS2 / 6 + _f(1, 3),
         1, _IS5 / 5 - 2 * _S5 / 5, _IS5 / 5 - 2 * _S5 / 5, 1),
        # 19
        (1, -2 * _S2, 0, 0, 1, 0, 0, 0, 0, 3 * _S5 / 2 + _f(3, 2),
         0, 0, 1, -I / 2 - _IS5 / 2),
        # 20
        (1, 2 * _S2, 0, 0, 1, 0, 0, 0, 0, _f(3, 2) - 3 * _S5 / 2,
         0, 0, 1, _IS5 / 2 - I / 2),
    ]
    return [_conic(r) for r in rows]


def kummer_conics():
    """Sixteen pairwise disjoint conics forming a Kummer configuration."""
    rows = [
        # 1
        (0, 0, 0, 0, 1, 0, 0,
         -_S5 / 6 - _f(1, 6), -_S2 / 3 - _S10 / 3, -_S5 / 6 - _f(1, 6),
         1, _IS5 / 2 - I / 2, 0, 0),
        # 2
        (0, 0, 0, 0, 1, 0, 0,
         -_S5 / 6 - _f(1, 6), _S2 / 3 + _S10 / 3, -_S5 / 6 - _f(1, 6),
         1, I / 2 - _IS5 / 2, 0, 0),
        # 3
        (0, 0, 0, 0, 1, -2 * _S2, 0, 1, 0, _f(3, 2) - 3 * _S5 / 2,
         1, 0, 0, _IS5 / 2 - I / 2),
        # 4
        (0, 0, 0, 0, 1, 2 * _S2, 0, 1, 0, _f(3, 2) - 3 * _S5 / 2,
         1, 0, 0, I / 2 - _IS5 / 2),
        # 5
        (0, 0, 0, 0, 1,
         -_IS10 / 3 - _IS2 / 3 - 2 * _S5 / 3 + _f(4, 3),
         -_IS10 / 3 + _IS2 + _S5 / 3 - 1,
         _IS10 / 3 - _IS2 / 3 - _S5 / 3 + _f(1, 3),
         -_IS10 / 3 + _IS2 - 2 * _S5 / 3,
         -2 * _IS2 / 3 - _f(1, 3),
         1, _S5 / 2 + _f(1, 2), -1, -_S5 / 2 - _f(1, 2)),
        # 6
        (0, 0, 0, 0, 1,
         -_IS10 / 3 - _IS2 / 3 - 2 * _S5 / 3 + _f(4, 3),
         _IS10 / 3 - _IS2 - _S5 / 3 + 1,
         _IS10 / 3 - _IS2 / 3 - _S5 / 3 + _f(1, 3),
         _IS10 / 3 - _IS2 + 2 * _S5 / 3,
         -2 * _IS2 / 3 - _f(1, 3),
         1, -_S5 / 2 - _f(1, 2), 1, -_S5 / 2 - _f(1, 2)),
        # 7
        (0, 0, 0, 0, 1,
         -_IS10 / 3 + 2 * _S5 / 3 - _IS2 / 3 - _f(4, 3),
         -_IS10 / 3 + _IS2 - _S5 / 3 + 1,
         -_IS10 / 3 + _IS2 / 3 - _S5 / 3 + _f(1, 3),
         _IS10 / 3 - _IS2 - 2 * _S5 / 3,
         2 * _IS2 / 3 - _f(1, 3),
         1, -_S5 / 2 - _f(1, 2), -1, -_S5 / 2 - _f(1, 2)),
        # 8
        (0, 0, 0, 0, 1,
         -_IS10 / 3 + 2 * _S5 / 3 - _IS2 / 3 - _f(4, 3),
         _IS10 / 3 - _IS2 + _S5 / 3 - 1,
         -_IS10 / 3 + _IS2 / 3 - _S5 / 3 + _f(1, 3),
         -_IS10 / 3 + _IS2 + 2 * _S5 / 3,
         2 * _IS2 / 3 - _f(1, 3),
         1, _S5 / 2 + _f(1, 2), 1, -_S5 / 2 - _f(1, 2)),
        # 9
        (0, 0, 0, 0, 1,
         _IS10 / 3 + _IS2 / 3 - 2 * _S5 / 3 + _f(4, 3),
         -_IS10 / 3 + _IS2 - _S5 / 3 + 1,
         -_IS10 / 3 + _IS2 / 3 - _S5 / 3 + _f(1, 3),
         -_IS10 / 3 + _IS2 + 2 * _S5 / 3,
         2 * _IS2 / 3 - _f(1, 3),
         1, _S5 / 2 + _f(1, 2), -1, _S5 / 2 + _f(1, 2)),
        # 10
        (0, 0, 0, 0, 1,
         _IS10 / 3 + _IS2 / 3 - 2 * _S5 / 3 + _f(4, 3),
         _IS10 / 3 - _IS2 + _S5 / 3 - 1,
         -_IS10 / 3 + _IS2 / 3 - _S5 / 3 + _f(1, 3),
         _IS10 / 3 - _IS2 - 2 * _S5 / 3,
         2 * _IS2 / 3 - _f(1, 3),
         1, -_S5 / 2 - _f(1, 2), 1, _S5 / 2 + _f(1, 2)),
        # 11
        (0, 0, 0, 0, 1,
         _IS10 / 3 + _IS2 / 3 + 2 * _S5 / 3 - _f(4, 3),
         -_IS10 / 3 + _IS2 + _S5 / 3 - 1,
         _IS10 / 3 - _IS2 / 3 - _S5 / 3 + _f(1, 3),
         _IS10 / 3 - _IS2 + 2 * _S5 / 3,
         -2 * _IS2 / 3 - _f(1, 3),
         1, -_S5 / 2 - _f(1, 2), -1, _S5 / 2 + _f(1, 2)),
        # 12
        (0, 0, 0, 0, 1,
         _IS10 / 3 + _IS2 / 3 + 2 * _S5 / 3 - _f(4, 3),
         _IS10 / 3 - _IS2 - _S5 / 3 + 1,
         _IS10 / 3 - _IS2 / 3 - _S5 / 3 + _f(1, 3),
         -_IS10 / 3 + _IS2 - 2 * _S5 / 3,
         -2 * _IS2 / 3 - _f(1, 3),
         1, _S5 / 2 + _f(1, 2), 1, _S5 / 2 + _f(1, 2)),
        # 13
        (1, 0, 0, -2 * _S2, 0, 0, 0, 3 * _S5 / 2 + _f(3, 2), 0, 1,
         0, 1, -I / 2 - _IS5 / 2, 0),
        # 14
        (1, 0, 0, 2 * _S2, 0, 0, 0, 3 * _S5 / 2 + _f(3, 2), 0, 1,
         0, 1, I / 2 + _IS5 / 2, 0),
        # 15
        (1, -2 * _S2, 0, 0, 1, 0, 0, 0, 0, _f(3, 2) - 3 * _S5 / 2,
         0, 0, 1, I / 2 - _IS5 / 2),
        # 16
        (1, 2 * _S2, 0, 0, 1, 0, 0, 0, 0, _f(3, 2) - 3 * _S5 / 2,
         0, 0, 1, _IS5 / 2 - I / 2),
    ]
    return [_conic(r) for r in rows]
