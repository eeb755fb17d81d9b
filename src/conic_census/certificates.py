"""Reading and writing conic certificates.

A certificate is a plain-text artifact listing conics in canonical form,
one record per line, preceded by a small metadata block.  The format is
line oriented and whitespace separated; coefficient fields are the comma
joined rational 8-tuples produced by KElem.to_text, so they contain no
spaces and the whole file splits safely on whitespace.

Layout:

    conic-census certificate 1
    kind orbit-census
    <key> <value...>          repeated metadata lines, order preserved
    count 800
    conic C1-000 <14 coefficient fields>
    ...

Round trips are bit exact: read(write(cert)) == cert, including metadata
order.  Reading re-validates that every record is in canonical form, that
the count and the metadata the verifier reads (orbit, stabilizer,
generator, seed) are well formed, and that no orbit, stabilizer or seed
label repeats, and raises ParseError with line and field diagnostics
otherwise.  Seed and generator fields follow the record rule: each must be
the text to_text() writes, and a seed's fields the canonical record of its
conic, so a certificate has one accepted text.  Those four keys are parsed
once, and the certificate keeps the typed values for the verifier.

A census repeats few field texts (11,200 fields, 329 distinct), so one parse
maps each distinct record field text to its KElem once, and keeps it only
when to_text() gives the same text back: a malformed text raises at the
first line carrying it, and a text that spells its value another way (2/4,
01, -0, 1/1) is never kept, so every record carrying it fails the
canonical-form check.  That check compares each record's values with the
canonical coefficients from Conic.from_coeffs, with no text rendered.  A
value has one canonical text, so the first field that is respelled or
differs in value is the first whose text differs from the canonical text of
its canonical value, and the ParseError names it.
"""

import re
from dataclasses import dataclass, field
from importlib import resources

from .catalog import SEED_LABELS
from .errors import CensusError, ParseError
from .field import KElem
from .geometry import Conic, RECORD_FIELDS
from .group import GroupMatrix

HEADER = "conic-census certificate 1"
MAX_BYTES = 16 * 2**20  # the longest file read; census800.cert is 217,960 bytes
CHUNK_BYTES = 2**16  # the most one read asks for

# line keywords that terminate or structure the metadata block
_RESERVED = ("conic", "count", "kind")

# counts and orbit sizes: ASCII digits only, so no sign, underscore, padding
# or other script is taken the way int() would take it
_DIGITS = re.compile(r"[0-9]+")


def _count(text):
    if _DIGITS.fullmatch(text) is None:
        raise ValueError(f"expected ASCII digits, got {text!r}")
    return int(text)


def orbit_value(value):
    """(label, size) from the value of an ``orbit`` metadata line."""
    tokens = value.split()
    if len(tokens) != 2:
        raise ValueError("orbit takes a label and a size")
    return tokens[0], _count(tokens[1])


def stabilizer_value(value):
    """(label, order) from the value of a ``stabilizer`` metadata line."""
    tokens = value.split()
    if len(tokens) != 2 or tokens[0] not in SEED_LABELS:
        raise ValueError(f"stabilizer takes a label in {'/'.join(SEED_LABELS)} and an order")
    return tokens[0], _count(tokens[1])


# the 16 entries of a generator line, row by row
GENERATOR_FIELDS = tuple(f"m{i}{j}" for i in range(4) for j in range(4))


def _require_written(what, fields, written, names):
    """Raise ParseError naming the first of fields that is not the text in
    written, the texts to_text() gives for the parsed values."""
    for name, got, want in zip(names, fields, written):
        if got != want:
            raise ParseError(f"{what} not in canonical form", field=name)


def generator_value(value):
    """The matrix of a ``generator`` metadata line (16 fields, row by row),
    each field spelled as to_text() writes it."""
    fields = value.split()
    m = GroupMatrix.from_fields(fields)
    _require_written("entries", fields, m.fields(), GENERATOR_FIELDS)
    return m


def seed_value(value):
    """(label, Conic) from the value of a ``seed`` metadata line, whose 14
    fields must be the canonical record of the conic, as on a conic line."""
    tokens = value.split()
    if len(tokens) != 1 + len(RECORD_FIELDS):
        raise ValueError(f"seed takes a label and {len(RECORD_FIELDS)} fields")
    conic = Conic.from_fields(tokens[1:])
    _require_written("coefficients", tokens[1:], conic.fields(), RECORD_FIELDS)
    return tokens[0], conic


# metadata keys whose values the verifier reads, checked when parsed
_TYPED_META = {
    "orbit": orbit_value,
    "stabilizer": stabilizer_value,
    "generator": generator_value,
    "seed": seed_value,
}


def _typed_value(key, value, labelled):
    """The typed value of one metadata line, or None for an untyped key.

    labelled holds the (key, label) pairs of the lines before; a repeated
    orbit, stabilizer or seed label raises ValueError.
    """
    parse = _TYPED_META.get(key)
    if parse is None:
        return None
    typed = parse(value)
    if key != "generator":
        if (key, typed[0]) in labelled:
            raise ValueError(f"repeated {key} label {typed[0]}")
        labelled.add((key, typed[0]))
    return typed


@dataclass(frozen=True)
class ConicCertificate:
    """An ordered list of labelled conics plus free-form metadata."""

    kind: str
    meta: tuple  # ((key, value), ...) with key not in _RESERVED
    entries: tuple  # ((label, Conic), ...)
    typed: tuple = field(compare=False, repr=False)  # _typed_value per meta line

    @property
    def conics(self):
        return [c for _, c in self.entries]

    def keys(self):
        """Conic -> label prefix (text before the first dash), the census type."""
        return {c: lab.split("-", 1)[0] for lab, c in self.entries}

    def label_counts(self):
        """Count entries by label prefix (text before the first dash)."""
        counts = {}
        for lab, _ in self.entries:
            prefix = lab.split("-", 1)[0]
            counts[prefix] = counts.get(prefix, 0) + 1
        return counts

    def typed_values(self, key):
        """The parsed values of the metadata lines with this key, in order."""
        return [t for (k, _), t in zip(self.meta, self.typed) if k == key]


def make_certificate(kind, entries, meta=()):
    seen = set()
    for lab, c in entries:
        if " " in lab or not lab:
            raise CensusError(f"bad conic label {lab!r}")
        if lab in seen:
            raise CensusError(f"duplicate conic label {lab!r}")
        seen.add(lab)
        if not isinstance(c, Conic):
            raise CensusError("certificate entries must hold Conic values")
    for k, _ in meta:
        if k in _RESERVED or " " in k:
            raise CensusError(f"bad metadata key {k!r}")
    labelled = set()
    typed = tuple(_typed_value(k, v, labelled) for k, v in meta)
    return ConicCertificate(kind, tuple(meta), tuple(entries), typed)


def certificate_text(cert: ConicCertificate) -> str:
    lines = [HEADER, f"kind {cert.kind}"]
    for k, v in cert.meta:
        lines.append(f"{k} {v}")
    lines.append(f"count {len(cert.entries)}")
    for lab, c in cert.entries:
        lines.append("conic " + lab + " " + " ".join(c.fields()))
    return "\n".join(lines) + "\n"


def write_certificate(cert: ConicCertificate, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(certificate_text(cert))


def _parse_conic_line(tokens, lineno, parsed):
    if len(tokens) != 2 + len(RECORD_FIELDS):
        raise ParseError(
            f"conic record needs a label and {len(RECORD_FIELDS)} fields, "
            f"got {len(tokens) - 1} tokens",
            line=lineno,
        )
    label = tokens[1]
    fields = tokens[2:]
    vals = []
    respelled = None  # position of the first field not spelled as to_text()
    for k, (name, text) in enumerate(zip(RECORD_FIELDS, fields)):
        x = parsed.get(text)
        if x is None:
            try:
                x = KElem.from_text(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(str(exc), line=lineno, field=name) from None
            if x.to_text() == text:
                parsed[text] = x
            elif respelled is None:
                respelled = k
        vals.append(x)
    try:
        conic = Conic.from_coeffs(vals)
    except CensusError as exc:
        raise ParseError(str(exc), line=lineno) from None
    # canonical form is part of the format: each stored field must be the
    # text of the canonical coefficient, that is, spelled as to_text() and
    # equal in value; the first field that is not is named
    if respelled is not None or conic.coeffs != tuple(vals):
        k = next(
            k
            for k, (got, want) in enumerate(zip(vals, conic.coeffs))
            if k == respelled or got != want
        )
        raise ParseError(
            "coefficients not in canonical form", line=lineno, field=RECORD_FIELDS[k]
        )
    return label, conic


def parse_certificate(text: str) -> ConicCertificate:
    kind = None
    meta = []
    typed = []
    labelled = set()  # (key, label) of the labelled metadata lines
    declared = None
    entries = []
    seen_labels = set()
    parsed = {}  # field text -> KElem, for the record fields of this text
    lines = text.split("\n")
    if not lines or lines[0].strip() != HEADER:
        raise ParseError(f"expected header {HEADER!r}", line=1)
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        word = tokens[0]
        if word == "kind":
            if kind is not None:
                raise ParseError("duplicate kind line", line=lineno)
            if len(tokens) != 2:
                raise ParseError("kind takes one value", line=lineno)
            kind = tokens[1]
        elif word == "count":
            if declared is not None:
                raise ParseError("duplicate count line", line=lineno)
            try:
                declared = _count(" ".join(tokens[1:]))
            except ValueError:
                raise ParseError("count takes one integer", line=lineno) from None
        elif word == "conic":
            if declared is None:
                raise ParseError("conic record before count line", line=lineno)
            label, conic = _parse_conic_line(tokens, lineno, parsed)
            if label in seen_labels:
                raise ParseError(f"duplicate label {label}", line=lineno)
            seen_labels.add(label)
            entries.append((label, conic))
        else:
            if declared is not None:
                raise ParseError(
                    f"metadata line {word!r} after count line", line=lineno
                )
            value = line[len(word) + 1 :]
            try:
                typed.append(_typed_value(word, value, labelled))
            except ParseError as exc:
                raise ParseError(
                    f"malformed {word} line: {exc}", line=lineno, field=exc.field
                ) from None
            except (ValueError, ZeroDivisionError, CensusError) as exc:
                raise ParseError(f"malformed {word} line: {exc}", line=lineno) from None
            meta.append((word, value))
    if kind is None:
        raise ParseError("missing kind line")
    if declared is None:
        raise ParseError("missing count line")
    if declared != len(entries):
        raise ParseError(f"count says {declared}, found {len(entries)} conic records")
    return ConicCertificate(kind, tuple(meta), tuple(entries), tuple(typed))


def read_certificate(path) -> ConicCertificate:
    """Parse the file at path: ASCII, at most MAX_BYTES bytes.  It is read
    CHUNK_BYTES at a time and no further than MAX_BYTES + 1 bytes, so no
    buffer the size of the cap is made."""
    data = bytearray()
    with open(path, "rb") as fh:
        while len(data) <= MAX_BYTES:
            chunk = fh.read(min(CHUNK_BYTES, MAX_BYTES + 1 - len(data)))
            if not chunk:
                break
            data += chunk
    if len(data) > MAX_BYTES:
        raise ParseError(f"certificate longer than {MAX_BYTES} bytes")
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"non-ASCII byte at offset {exc.start}") from None
    return parse_certificate(text)


def load_packaged(name) -> ConicCertificate:
    """Read one of the certificate files shipped inside the package, with
    read_certificate like any other file."""
    with resources.as_file(resources.files(__package__).joinpath("data", name)) as path:
        return read_certificate(path)


NS_BASIS_FILE = "ns_basis_20.cert"
KUMMER_FILE = "kummer_16.cert"
