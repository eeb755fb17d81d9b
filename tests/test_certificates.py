"""Certificate text format: round trips and rejection of malformed input."""

import pytest

from conic_census import catalog
from conic_census.certificates import (
    HEADER,
    certificate_text,
    make_certificate,
    parse_certificate,
    read_certificate,
    write_certificate,
)
from conic_census.errors import CensusError, ParseError


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
