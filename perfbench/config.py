"""Fixed inputs and workload shapes shared by run.py and the worker."""

import hashlib
import os

HERE = os.path.dirname(os.path.abspath(__file__))

# the 800-conic census certificate written by orbit_census(out=...) at the
# commit that added this benchmark; solve and verify read it
CENSUS_CERT = os.path.join(HERE, "data", "census800.cert")
CENSUS_SHA256 = "9bebad07362355826b4fdde1d1a741b9031ef30c5d9c6bf95056b81172d009c7"

# group elements per seed conic in the census workload's stabilizer scans
SCAN_ELEMENTS = 128
MUTANT_MANIFEST = "mutants.json"

# stages whose times make the lead_stage_s and second_stage_s metrics
LEAD_SECOND = {
    "census": (("orbits_slice",), ("kummer",)),
    "solve": (("enumerate_ii",), ("enumerate_iii", "enumerate_iv", "fibers", "components")),
    "verify": (("verify",), ("reject",)),
}
# verdicts one pass of each workload gives
VERDICTS = {"census": 3, "solve": 5, "verify": 7}


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
