"""Regenerate the certificate data files shipped inside the package.

The coefficient tables live in tools/reference_tables.py as reviewable
constructions; this script serializes them into src/conic_census/data/,
which is what the program reads.  Run it after changing reference_tables.py:

    python tools/make_reference_data.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from conic_census.certificates import (
    KUMMER_FILE,
    NS_BASIS_FILE,
    make_certificate,
    write_certificate,
)
from reference_tables import kummer_conics, ns_basis_conics

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "conic_census" / "data"


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    basis = ns_basis_conics()
    cert = make_certificate(
        "spanning-basis",
        [(f"B-{i:02d}", c) for i, c in enumerate(basis, start=1)],
    )
    write_certificate(cert, OUT / NS_BASIS_FILE)
    print(f"wrote {OUT / NS_BASIS_FILE} ({len(basis)} conics)")

    kummer = kummer_conics()
    cert = make_certificate(
        "kummer",
        [(f"K-{i:02d}", c) for i, c in enumerate(kummer, start=1)],
    )
    write_certificate(cert, OUT / KUMMER_FILE)
    print(f"wrote {OUT / KUMMER_FILE} ({len(kummer)} conics)")


if __name__ == "__main__":
    main()
