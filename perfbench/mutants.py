"""Seeded mutants of the census certificate with verdicts known in advance.

Each mutant changes the census certificate in one way whose verdict follows
from the certificate format, not from running the verifier:

- swapping two conic records keeps every label with its record, so the
  certificate is still the same census and must be accepted;
- the other kinds change one record.  In canonical form the plane's first
  nonzero coefficient b_p is 1 and the quadric has no monomial in z_p, so a
  mutant that breaks either rule is not canonical and must fail to parse
  (ParseError).  A mutant that keeps the form but changes the conic names a
  conic that is not among the 800 records, or repeats one; since the surface
  carries exactly 800 conics, verification must fail (VerificationFailed).

The expected verdict is fixed by the mutation kind before anything runs.
Parse-path mutants stop at their record, so their cost grows with its
position; each sits in its own narrow window of the file, which keeps the
total work of a mutant set nearly the same for every seed.
"""

import random
from math import gcd

ZERO_FIELD = ",".join(["0"] * 8)
# quadric fields a00 a01 a02 a03 a11 a12 a13 a22 a23 a33, then planes b0..b3
QUAD_VARS = tuple((i, j) for i in range(4) for j in range(i, 4))
PLANE = 10

ACCEPT = "accept"
REJECT = "reject"

# kind -> expected verdict; parse-path kinds get a position window each
KINDS = {
    "swap_records": ACCEPT,
    "add_one": REJECT,
    "swap_fields": REJECT,
    "negate_pivot": REJECT,
    "negate_plane": REJECT,
}
PARSE_KINDS = ("add_one", "swap_fields", "negate_pivot")
WINDOW = 20  # records either side of a window centre


def _pivot(fields):
    return next(j for j in range(4) if fields[PLANE + j] != ZERO_FIELD)


def _pivot_quad_fields(fields):
    """Quadric fields on monomials containing z_p; zero in canonical form."""
    p = _pivot(fields)
    return [k for k, (i, j) in enumerate(QUAD_VARS) if p in (i, j)]


def _add_one(field, coord):
    parts = field.split(",")
    num, _, den = parts[coord].partition("/")
    den = int(den) if den else 1
    parts[coord] = _rational(int(num) + den, den)
    return ",".join(parts)


def _rational(num, den):
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def _negate(field):
    return ",".join(
        p if p == "0" else (p[1:] if p.startswith("-") else "-" + p)
        for p in field.split(",")
    )


def mutate_record(kind, fields, rng):
    """Return a mutated copy of one record's 14 fields."""
    out = list(fields)
    p = _pivot(fields)
    if kind == "add_one":
        k = rng.choice([PLANE + p] + _pivot_quad_fields(fields))
        out[k] = _add_one(out[k], rng.randrange(8))
    elif kind == "swap_fields":
        zero = rng.choice(_pivot_quad_fields(fields))
        nonzero = [k for k in range(PLANE) if fields[k] != ZERO_FIELD]
        k = rng.choice(nonzero)
        out[zero], out[k] = out[k], out[zero]
    elif kind == "negate_pivot":
        out[PLANE + p] = _negate(out[PLANE + p])
    elif kind == "negate_plane":
        others = [PLANE + j for j in range(p + 1, 4) if fields[PLANE + j] != ZERO_FIELD]
        k = rng.choice(others)
        out[k] = _negate(out[k])
    else:
        raise ValueError(f"unknown record mutation {kind!r}")
    return out


def make_mutants(text, seed):
    """[(kind, expected verdict, certificate text)] for one seed."""
    rng = random.Random(seed)
    lines = text.split("\n")
    records = [i for i, line in enumerate(lines) if line.startswith("conic ")]
    n = len(records)
    out = []

    i, j = sorted(rng.sample(range(n), 2))
    swapped = list(lines)
    swapped[records[i]], swapped[records[j]] = lines[records[j]], lines[records[i]]
    out.append(("swap_records", KINDS["swap_records"], "\n".join(swapped)))

    kinds = list(PARSE_KINDS)
    rng.shuffle(kinds)
    targets = []
    for slot, kind in enumerate(kinds):
        centre = (2 * slot + 1) * n // (2 * len(kinds))
        targets.append((kind, centre + rng.randint(-WINDOW, WINDOW)))
    targets.append(("negate_plane", rng.randrange(n)))
    for kind, pos in targets:
        tokens = lines[records[pos]].split(" ")
        fields = mutate_record(kind, tokens[2:], rng)
        mutated = list(lines)
        mutated[records[pos]] = " ".join(tokens[:2] + fields)
        out.append((kind, KINDS[kind], "\n".join(mutated)))
    return out
