"""The transcribed conic tables must be valid and match the shipped files."""

import reference_tables

from conic_census import catalog
from conic_census.certificates import (
    KUMMER_FILE,
    NS_BASIS_FILE,
    load_packaged,
)


def test_ns_basis_conics_are_valid():
    f = catalog.surface()
    conics = reference_tables.ns_basis_conics()
    assert len(conics) == 20
    assert len({c.key for c in conics}) == 20
    for c in conics:
        assert c.is_irreducible()
        assert c.on_surface(f)


def test_kummer_conics_are_valid():
    f = catalog.surface()
    conics = reference_tables.kummer_conics()
    assert len(conics) == 16
    assert len({c.key for c in conics}) == 16
    for c in conics:
        assert c.is_irreducible()
        assert c.on_surface(f)


def test_expected_gram_shape():
    g = catalog.expected_ns_gram()
    assert len(g) == 20
    for i in range(20):
        assert len(g[i]) == 20
        assert g[i][i] == -2
        for j in range(20):
            assert g[i][j] == g[j][i]
            if i != j:
                assert g[i][j] in (0, 1)
    ones = sum(1 for i in range(20) for j in range(i + 1, 20) if g[i][j] == 1)
    assert ones == 22
    assert catalog.EXPECTED_NS_DET == -160


def test_packaged_basis_file_matches_table():
    cert = load_packaged(NS_BASIS_FILE)
    assert cert.kind == "spanning-basis"
    assert list(cert.conics) == list(reference_tables.ns_basis_conics())
    assert [lab for lab, _ in cert.entries] == [f"B-{k:02d}" for k in range(1, 21)]


def test_packaged_kummer_file_matches_table():
    cert = load_packaged(KUMMER_FILE)
    assert cert.kind == "kummer"
    assert list(cert.conics) == list(reference_tables.kummer_conics())
    assert [lab for lab, _ in cert.entries] == [f"K-{k:02d}" for k in range(1, 17)]
