"""Shared fixtures.

Building the full 800-conic census is the slowest setup in the suite, so
it runs once per session; every test that needs the census reuses the
result.
"""

import time
from types import SimpleNamespace

import pytest

from conic_census import pipeline


@pytest.fixture(scope="session")
def census(tmp_path_factory):
    out = tmp_path_factory.mktemp("certs") / "conics800.cert"
    start = time.monotonic()
    report, certificate = pipeline.orbit_census(out=str(out))
    seconds = time.monotonic() - start
    return SimpleNamespace(
        report=report,
        certificate=certificate,
        path=out,
        seconds=seconds,
    )


@pytest.fixture(scope="session")
def census_conics(census):
    return list(census.certificate.conics)
