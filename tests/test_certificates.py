"""Certificate text format: round trips and rejection of malformed input."""

import importlib.resources
import pathlib
import tracemalloc

import pytest

from conic_census import catalog, certificates
from conic_census.certificates import (
    GENERATOR_FIELDS,
    HEADER,
    KUMMER_FILE,
    _parse_conic_line,
    certificate_text,
    load_packaged,
    make_certificate,
    parse_certificate,
    read_certificate,
    write_certificate,
)
from conic_census.errors import CensusError, ParseError
from conic_census.geometry import RECORD_FIELDS, Conic

CENSUS800 = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "data" / "census800.cert"


@pytest.fixture
def demo():
    c1, c2, c3 = catalog.seed_conics()
    return make_certificate(
        "demo",
        [("A-1", c1), ("A-2", c2), ("B-1", c3)],
        meta=(("note", "three seeds"), ("note", "second line")),
    )


def test_text_round_trip(demo):
    text = certificate_text(demo)
    assert text.startswith(HEADER + "\n")
    assert "kind demo" in text
    assert "count 3" in text
    back = parse_certificate(text)
    assert back == demo
    assert back.label_counts() == {"A": 2, "B": 1}
    assert [v for k, v in back.meta if k == "note"] == ["three seeds", "second line"]


def test_file_round_trip(demo, tmp_path):
    path = tmp_path / "demo.cert"
    write_certificate(demo, path)
    assert read_certificate(path) == demo


def test_keys(demo):
    keys = demo.keys()
    assert len(keys) == 3
    assert keys[catalog.seed_conics()[2]] == "B"


def test_reserved_meta_keys_rejected():
    c1 = catalog.seed_conics()[0]
    for bad in ("conic", "count", "kind"):
        with pytest.raises(CensusError):
            make_certificate("demo", [("A-1", c1)], meta=((bad, "x"),))


def test_duplicate_labels_rejected():
    c1, c2, _ = catalog.seed_conics()
    with pytest.raises(CensusError):
        make_certificate("demo", [("A-1", c1), ("A-1", c2)])


def test_bad_header(demo):
    text = certificate_text(demo).replace(HEADER, "conic-census certificate 9")
    with pytest.raises(ParseError):
        parse_certificate(text)


def test_wrong_count(demo):
    text = certificate_text(demo).replace("count 3", "count 2")
    with pytest.raises(ParseError):
        parse_certificate(text)


def test_duplicate_label_in_text(demo):
    lines = certificate_text(demo).splitlines()
    conic_lines = [ln for ln in lines if ln.startswith("conic ")]
    dup = conic_lines[0]
    text = "\n".join(lines + [dup]).replace("count 3", "count 4")
    with pytest.raises(ParseError):
        parse_certificate(text)


def test_malformed_field_reports_line(demo):
    lines = certificate_text(demo).splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("conic "))
    toks = lines[idx].split(" ")
    toks[2] = "not-a-number"
    lines[idx] = " ".join(toks)
    with pytest.raises(ParseError) as err:
        parse_certificate("\n".join(lines))
    assert err.value.line == idx + 1
    assert err.value.field


def test_malformed_field_repeated_reports_first_line(demo):
    lines = certificate_text(demo).splitlines()
    idxs = [i for i, ln in enumerate(lines) if ln.startswith("conic ")][:2]
    for idx in idxs:
        toks = lines[idx].split(" ")
        toks[3] = "1/0,0,0,0,0,0,0,0"
        lines[idx] = " ".join(toks)
    with pytest.raises(ParseError) as err:
        parse_certificate("\n".join(lines))
    assert (err.value.line, err.value.field) == (idxs[0] + 1, "a01")
    # the second record alone reports its own line
    del lines[idxs[0]]
    with pytest.raises(ParseError) as err:
        parse_certificate("\n".join(lines))
    assert (err.value.line, err.value.field) == (idxs[1], "a01")


# exponent form, digit separators, padding and non-ASCII digits are outside
# the -?[0-9]+(/[0-9]+)? token grammar
HOSTILE_TOKENS = ("1e6000", "3_000", " 3 ", "\u0663")


@pytest.mark.parametrize("token", HOSTILE_TOKENS)
def test_hostile_token_rejected(demo, token):
    lines = certificate_text(demo).splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("conic "))
    toks = lines[idx].split(" ")
    toks[2] = ",".join([token] + toks[2].split(",")[1:])
    lines[idx] = " ".join(toks)
    with pytest.raises(ParseError) as err:
        parse_certificate("\n".join(lines))
    assert err.value.line == idx + 1


def test_short_conic_line(demo):
    lines = certificate_text(demo).splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("conic "))
    toks = lines[idx].split(" ")
    lines[idx] = " ".join(toks[:10])
    with pytest.raises(ParseError):
        parse_certificate("\n".join(lines))


def test_non_canonical_fields_rejected(demo):
    # doubling the monic leading coefficient breaks the canonical form
    lines = certificate_text(demo).splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("conic "))
    toks = lines[idx].split(" ")
    fields = toks[2:]
    lead = next(k for k, f in enumerate(fields) if f != "0,0,0,0,0,0,0,0")
    parts = fields[lead].split(",")
    parts[0] = "2"
    fields[lead] = ",".join(parts)
    lines[idx] = " ".join(toks[:2] + fields)
    with pytest.raises(ParseError):
        parse_certificate("\n".join(lines))


def test_missing_count(demo):
    lines = [
        ln for ln in certificate_text(demo).splitlines() if not ln.startswith("count")
    ]
    with pytest.raises(ParseError):
        parse_certificate("\n".join(lines))


# Changes to one field of a census record, each giving a text that is not
# the canonical text of the record's canonical value: four spellings of the
# same value that to_text() never writes, and a doubled plane pivot written
# canonically.  Each takes the record's fields and returns the position
# changed and the new text, or None when the record has no such field.


def _respell(canonical, old, new):
    def change(fields):
        for k, text in enumerate(fields):
            parts = text.split(",")
            if (canonical is None or text == canonical) and old in parts:
                parts[parts.index(old)] = new
                return k, ",".join(parts)
        return None

    return change


def _double_plane_pivot(fields):
    k = next(k for k in range(10, 14) if fields[k] != "0,0,0,0,0,0,0,0")
    return (k, "2,0,0,0,0,0,0,0") if fields[k] == "1,0,0,0,0,0,0,0" else None


RESPELLINGS = {
    "1/1": _respell("1,0,0,0,0,0,0,0", "1", "1/1"),
    "01": _respell("1,0,0,0,0,0,0,0", "1", "01"),
    "-0": _respell("0,0,0,0,0,0,0,0", "0", "-0"),
    "2/4": _respell(None, "1/2", "2/4"),
    "doubled pivot": _double_plane_pivot,
}


def _expected_location(lines, i):
    """(line, field) of the record on lines[i] by the format's rule: the
    first field whose text differs from the canonical text of its canonical
    value, found by canonicalising and writing the record again."""
    fields = lines[i].split()[2:]
    want = Conic.from_fields(fields).fields()
    k = next(k for k, (got, w) in enumerate(zip(fields, want)) if got != w)
    return i + 1, RECORD_FIELDS[k]


@pytest.mark.parametrize("name", sorted(RESPELLINGS))
def test_non_canonical_spelling_names_its_line_and_field(name):
    lines = CENSUS800.read_text().split("\n")
    change = RESPELLINGS[name]
    edits = []  # (line index, new line) of the first two records it applies to
    for i, line in enumerate(lines):
        if line.startswith("conic ") and len(edits) < 2:
            toks = line.split(" ")
            hit = change(toks[2:])
            if hit is not None:
                toks[2 + hit[0]] = hit[1]
                edits.append((i, " ".join(toks), hit[1]))
    (a, line_a, text_a), (b, line_b, text_b) = edits
    for spelled in ([(a, line_a)], [(b, line_b)], [(a, line_a), (b, line_b)]):
        bad = list(lines)
        for i, line in spelled:
            bad[i] = line
        with pytest.raises(ParseError) as err:
            parse_certificate("\n".join(bad))
        assert (err.value.line, err.value.field) == _expected_location(bad, spelled[0][0])
    # one memo across records, as in one parse: a rejected spelling is not
    # kept, so it is rejected again wherever it appears
    parsed = {}
    first = next(i for i, line in enumerate(lines) if line.startswith("conic "))
    _parse_conic_line(lines[first].split(), first + 1, parsed)
    for i, line, text in ((a, line_a, text_a), (b, line_b, text_b), (a, line_a, text_a)):
        with pytest.raises(ParseError) as err:
            _parse_conic_line(line.split(), i + 1, parsed)
        assert (err.value.line, err.value.field) == _expected_location(
            lines[:i] + [line], i
        )
        assert (text in parsed) == (name == "doubled pivot")


def test_memo_keeps_only_canonical_texts():
    lines = CENSUS800.read_text().split("\n")
    records = [line.split() for line in lines if line.startswith("conic ")]
    parsed = {}
    for lineno, toks in enumerate(records, start=1):
        _parse_conic_line(toks, lineno, parsed)
    assert len(parsed) == len({t for toks in records for t in toks[2:]}) == 329
    assert all(x.to_text() == t for t, x in parsed.items())


# the same spellings on the metadata lines the verifier reads
META_RESPELLINGS = ("1/1", "01", "-0")


@pytest.mark.parametrize("key", ["seed", "generator"])
@pytest.mark.parametrize("name", META_RESPELLINGS)
def test_metadata_spelling_names_its_line_and_field(key, name):
    lines = CENSUS800.read_text().split("\n")
    start, names = (2, RECORD_FIELDS) if key == "seed" else (1, GENERATOR_FIELDS)
    change = RESPELLINGS[name]
    i, (k, text) = next(
        (i, hit)
        for i, line in enumerate(lines)
        if line.startswith(key + " ")
        for hit in [change(line.split(" ")[start:])]
        if hit is not None
    )
    toks = lines[i].split(" ")
    toks[start + k] = text
    bad = lines[:i] + [" ".join(toks)] + lines[i + 1 :]
    with pytest.raises(ParseError) as err:
        parse_certificate("\n".join(bad))
    assert (err.value.line, err.value.field) == (i + 1, names[k])
    assert f"malformed {key} line" in str(err.value)
    assert "not in canonical form" in str(err.value)
    if key == "seed":
        assert _expected_location(bad, i) == (i + 1, names[k])


def test_seed_with_a_plane_not_monic_names_its_line_and_field():
    lines = CENSUS800.read_text().split("\n")
    i = next(i for i, line in enumerate(lines) if line.startswith("seed "))
    toks = lines[i].split(" ")
    seed = Conic.from_fields(toks[2:])
    doubled = list(seed.coeffs[:10]) + [2 * x for x in seed.coeffs[10:]]
    assert Conic.from_coeffs(doubled) == seed
    bad = list(lines)
    bad[i] = " ".join(toks[:2] + [x.to_text() for x in doubled])
    with pytest.raises(ParseError) as err:
        parse_certificate("\n".join(bad))
    pivot = next(k for k in range(10, 14) if seed.coeffs[k])
    assert (err.value.line, err.value.field) == _expected_location(bad, i)
    assert err.value.field == RECORD_FIELDS[pivot]
    assert "coefficients not in canonical form" in str(err.value)


def test_canonical_metadata_still_parses():
    cert = read_certificate(CENSUS800)
    assert [c for _, c in cert.typed_values("seed")] == list(catalog.seed_conics())
    assert cert.typed_values("generator") == list(catalog.symmetry_generators())


def test_read_peak_memory_is_a_few_file_sizes():
    # one read asks for at most CHUNK_BYTES, so the peak is the file
    # (217,960 bytes) a few times over and its records, not the 16 MiB cap
    tracemalloc.start()
    try:
        read_certificate(CENSUS800)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_crlf_file_reads_as_the_lf_file(tmp_path):
    path = tmp_path / "crlf.cert"
    path.write_bytes(CENSUS800.read_bytes().replace(b"\n", b"\r\n"))
    assert read_certificate(path) == read_certificate(CENSUS800)


def test_non_ascii_byte_is_named_by_its_file_offset(tmp_path):
    # past the first chunk, so the offset is counted over the whole file
    data = bytearray(CENSUS800.read_bytes())
    data[100000] = 0xE9
    path = tmp_path / "latin1.cert"
    path.write_bytes(bytes(data))
    with pytest.raises(ParseError, match="non-ASCII byte at offset 100000$"):
        read_certificate(path)


def test_packaged_certificates_go_through_the_reader(monkeypatch):
    # a shipped file is read as any --in file is, so the byte cap holds for it
    shipped = importlib.resources.files("conic_census").joinpath("data", KUMMER_FILE)
    size = len(shipped.read_bytes())
    assert load_packaged(KUMMER_FILE).label_counts() == {"K": 16}
    monkeypatch.setattr(certificates, "MAX_BYTES", size - 1)
    with pytest.raises(ParseError, match=f"longer than {size - 1} bytes"):
        load_packaged(KUMMER_FILE)
