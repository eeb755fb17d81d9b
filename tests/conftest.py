"""Shared fixtures.

Building the full 800-conic census is the slowest setup in the suite, so
it runs once per session; every test that needs the census reuses the
result.  tools/ goes on sys.path, so tests import the transcribed conic
tables as reference_tables.
"""

import pathlib
import sys
import time
from types import SimpleNamespace

import pytest

from conic_census import geometry, pipeline

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))


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


@pytest.fixture
def fresh_plane_records(monkeypatch):
    """An empty plane record (geometry._DIVIDED) for one test.

    The record answers for the residual of any live conic divided on its
    plane, and the session census keeps 800 conics alive, so a test that
    counts sections or divisions starts from no record.
    """
    monkeypatch.setattr(geometry, "_DIVIDED", type(geometry._DIVIDED)())  # same kind, empty
