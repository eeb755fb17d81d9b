"""Seeded fuzzing of the certificate reader with mutants of the Kummer certificate.

Every mutant must either parse or raise ParseError, and `verify` must end
with exit 0, 2 or 4: no other exception may escape, whatever the bytes.
"""

import random
from importlib import resources

import pytest

from conic_census import cli
from conic_census.certificates import KUMMER_FILE, parse_certificate
from conic_census.errors import ParseError

SEED = 4
PER_KIND = 40
# bytes that matter to the grammar, drawn half of the time; the other half
# is any byte at all
GRAMMAR_BYTES = b"0123456789-/,_ \n\te+.abcCKx"


def _byte(rng):
    if rng.random() < 0.5:
        return bytes([rng.choice(GRAMMAR_BYTES)])
    return bytes([rng.randrange(256)])


def _replace(data, rng):
    k = rng.randrange(len(data))
    return data[:k] + _byte(rng) + data[k + 1 :]


def _insert(data, rng):
    k = rng.randrange(len(data) + 1)
    return data[:k] + _byte(rng) + data[k:]


def _delete(data, rng):
    k = rng.randrange(len(data))
    return data[:k] + data[k + 1 :]


def _swap_tokens(data, rng):
    lines = data.split(b"\n")
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    a, b = lines[i].split(b" "), lines[j].split(b" ")
    x, y = rng.randrange(len(a)), rng.randrange(len(b))
    if i == j:
        a[x], a[y] = a[y], a[x]
    else:
        a[x], b[y] = b[y], a[x]
        lines[j] = b" ".join(b)
    lines[i] = b" ".join(a)
    return b"\n".join(lines)


def _drop_line(data, rng):
    lines = data.split(b"\n")
    del lines[rng.randrange(len(lines))]
    return b"\n".join(lines)


def _duplicate_line(data, rng):
    lines = data.split(b"\n")
    k = rng.randrange(len(lines))
    lines.insert(k, lines[k])
    return b"\n".join(lines)


MUTATIONS = (_replace, _insert, _delete, _swap_tokens, _drop_line, _duplicate_line)


def mutants(data, seed):
    rng = random.Random(seed)
    return [(op.__name__, op(data, rng)) for op in MUTATIONS for _ in range(PER_KIND)]


@pytest.fixture(scope="module")
def kummer_bytes():
    return resources.files("conic_census").joinpath("data", KUMMER_FILE).read_bytes()


def test_mutants_parse_or_raise_parse_error(kummer_bytes, tmp_path, capsys):
    made = mutants(kummer_bytes, SEED)
    assert len(made) == len(MUTATIONS) * PER_KIND
    path = tmp_path / "mutant.cert"
    codes = {}
    for kind, body in made:
        try:
            parse_certificate(body.decode("latin-1"))
            parsed = True
        except ParseError:
            parsed = False
        path.write_bytes(body)
        rc = cli.main(["verify", "--in", str(path)])
        assert rc in (cli.EXIT_OK, cli.EXIT_VERIFICATION, cli.EXIT_PARSE), (kind, body)
        if not parsed:
            assert rc == cli.EXIT_PARSE, (kind, body)
        codes[rc] = codes.get(rc, 0) + 1
    capsys.readouterr()
    # the mutants reach all three verdicts
    assert set(codes) == {cli.EXIT_OK, cli.EXIT_VERIFICATION, cli.EXIT_PARSE}, codes
