"""Unit tests for conics as (plane, quadric) pairs."""

import pytest

from conic_census import catalog
from conic_census.errors import DegenerateConic, NotOnSurface
from conic_census.field import I, ONE, SQRT2, SQRT10, ZERO, kelem
from conic_census.geometry import (
    Conic,
    ZRING,
    hypersurface_smooth,
    intersection_number,
)
from conic_census.poly import PolyRing


z0, z1, z2, z3 = ZRING.gens()


def test_canonical_scaling():
    plane = z0 + z1 + z2
    quadric = z1**2 + z1 * z2 + z2**2 + 5 * z3**2
    a = Conic(plane, quadric)
    b = Conic(2 * plane, 3 * quadric)
    assert a == b
    assert a.key == b.key


def test_canonical_modulo_plane_multiples():
    # adding plane * (linear form) to the quadric does not move the conic
    plane = z0 + z1 + z2
    quadric = z1**2 + z1 * z2 + z2**2 + 5 * z3**2
    a = Conic(plane, quadric)
    b = Conic(plane, quadric + plane * (z0 - 7 * z3))
    assert a == b


def test_degenerate_inputs_rejected():
    with pytest.raises(DegenerateConic):
        Conic(ZRING.zero(), z0**2)
    with pytest.raises(DegenerateConic):
        Conic(z0 + z1, ZRING.zero())
    with pytest.raises(DegenerateConic):
        # quadric vanishes on the plane
        Conic(z0, z0 * z1)
    with pytest.raises(DegenerateConic):
        Conic(z0**2, z1**2)
    with pytest.raises(DegenerateConic):
        Conic(z0, z1**2 + z2)
    # the same rejections on the coefficient path (a00..a33, b0..b3)
    cases = (
        [ONE] + [ZERO] * 13,  # zero plane
        [ZERO] * 10 + [ONE, ONE, ZERO, ZERO],  # zero quadric
        [ZERO, ZERO, ONE] + [ZERO] * 2 + [ONE] + [ZERO] * 4 + [ONE, ONE, ZERO, ZERO],
    )  # (z0 + z1) * z2 vanishes on z0 + z1 = 0
    for coeffs in cases:
        with pytest.raises(DegenerateConic):
            Conic.from_coeffs(coeffs)
        with pytest.raises(DegenerateConic):
            Conic.from_fields([x.to_text() for x in coeffs])


def test_fields_round_trip():
    for c in catalog.seed_conics():
        fields = c.fields()
        assert len(fields) == 14
        assert Conic.from_fields(fields) == c


def test_from_fields_rejects_wrong_length():
    with pytest.raises(ValueError):
        Conic.from_fields(["0"] * 13)


def test_irreducibility():
    c1, c2, c3 = catalog.seed_conics()
    assert c1.is_irreducible()
    assert c2.is_irreducible()
    assert c3.is_irreducible()
    # rank-2 quadric restricted to a generic plane: two lines
    lines = Conic(z3, z0 * z1)
    assert not lines.is_irreducible()
    # rank-1: a double line
    double = Conic(z3, (z0 + z1) ** 2)
    assert not double.is_irreducible()


def test_on_surface():
    f = catalog.surface()
    c1, c2, c3 = catalog.seed_conics()
    assert c1.on_surface(f)
    assert c3.on_surface(f)
    off = Conic(z3, z0**2 + z1**2 + z2**2)
    assert not off.on_surface(f)


def test_residual_involution():
    f = catalog.surface()
    c1, c2, c3 = catalog.seed_conics()
    assert c1.residual(f) == c2
    assert c2.residual(f) == c1
    assert c3.residual(f).residual(f) == c3
    off = Conic(z3, z0**2 + z1**2 + z2**2)
    with pytest.raises(NotOnSurface):
        off.residual(f)


def test_intersection_numbers():
    f = catalog.surface()
    c1, c2, c3 = catalog.seed_conics()
    assert intersection_number(c1, c1) == -2
    # coplanar residual pair on a quartic: 4
    assert intersection_number(c1, c2) == 4
    assert intersection_number(c1, c3) == 0
    assert intersection_number(c3, c1) == 0


def test_gram3_is_symmetric():
    c1 = catalog.seed_conics()[0]
    g = c1.gram3()
    assert len(g) == 3
    for i in range(3):
        for j in range(3):
            assert g[i][j] == g[j][i]
    assert g[2][2] == (3 + SQRT10) / 2


def test_hypersurface_smooth():
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.gens()
    assert hypersurface_smooth(x**4 + y**4 + z**4)
    # singular at (0 : 0 : 1)
    assert not hypersurface_smooth(x**4 + y**4)
    assert not hypersurface_smooth(x * y * z)


def test_plane_coeffs():
    c3 = catalog.seed_conics()[2]
    coeffs = c3.plane_coeffs()
    assert len(coeffs) == 4
    assert coeffs[0] == ZERO
    assert coeffs[1] == ZERO
    assert coeffs[2] == ONE
    assert coeffs[3] == I * (ONE + SQRT10 / SQRT2) / 2
