"""End-to-end CLI checks, run in process through cli.main."""

import json

import pytest

from importlib import resources

from conic_census import catalog, certificates, cli
from conic_census.certificates import KUMMER_FILE, certificate_text, make_certificate
from conic_census.field import KElem, ONE, kelem
from conic_census.geometry import ZRING, Conic

# tokens outside the certificate grammar, one of them a non-ASCII digit
HOSTILE_TOKENS = ("1e6000", "3_000", " 3 ", "\u0663")

ZERO_FIELD = ",".join(["0"] * 8)
# z0 + 2*z1 = 0, z2^2 + z3^2 = 0: a conic that is not even on the surface
OFF_SURFACE = Conic.from_coeffs([kelem(v) for v in (0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 2, 0, 0)])
SEED_FIELDS = [" ".join(c.fields()) for c in catalog.seed_conics()]
# metadata lines the verifier reads, inserted after the kind line; the last
# line of each is malformed or repeats a label
BAD_META = {
    "orbit-size-not-digits": "orbit C1 abc",
    "orbit-without-size": "orbit C1",
    "generator-three-fields": "generator 1 2 3",
    "generator-exponent-token": "generator " + " ".join(["1e5,0,0,0,0,0,0,0"] + [ZERO_FIELD] * 15),
    "seed-two-fields": "seed C1 1 2",
    "stabilizer-unknown-label": "stabilizer C4 12",
    "stabilizer-order-not-digits": "stabilizer C1 1_2",
    "stabilizer-without-order": "stabilizer C1",
    "stabilizer-extra-token": "stabilizer C1 12 48",
    "seed-zero-conic": "seed C1 " + " ".join([ZERO_FIELD] * 14),
    "orbit-repeated-label": "orbit C1 16\norbit C1 999",
    "stabilizer-repeated-label": "stabilizer C1 12\nstabilizer C1 12",
    "seed-repeated-label": f"seed C1 {SEED_FIELDS[0]}\nseed C1 {SEED_FIELDS[2]}",
}


def kummer_text():
    return resources.files("conic_census").joinpath("data", KUMMER_FILE).read_text("ascii")


def test_usage_error_without_command():
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == cli.EXIT_USAGE


def test_usage_error_on_bad_case():
    with pytest.raises(SystemExit) as err:
        cli.main(["enumerate", "--case", "v"])
    assert err.value.code == cli.EXIT_USAGE


def test_usage_error_on_unknown_flag():
    with pytest.raises(SystemExit) as err:
        cli.main(["gram", "--frobnicate"])
    assert err.value.code == cli.EXIT_USAGE


def test_verify_requires_infile():
    with pytest.raises(SystemExit) as err:
        cli.main(["verify"])
    assert err.value.code == cli.EXIT_USAGE


def test_gram_text_output(capsys, tmp_path):
    dot = tmp_path / "gram.dot"
    rc = cli.main(["gram", "--dot", str(dot)])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "det = -160" in out
    text = dot.read_text()
    assert text.count(" -- ") == 22


def test_gram_machine_output(capsys):
    rc = cli.main(["gram", "--format", "machine"])
    assert rc == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["ok"] is True
    assert doc["det"] == -160
    assert len(doc["matrix"]) == 20


def test_gram_reports_the_determinant_of_any_basis(capsys, tmp_path):
    # the 16 Kummer conics are pairwise disjoint: Gram matrix -2 I, det 2^16,
    # reported though only a 20-conic basis has an expected determinant
    path = tmp_path / "kummer.cert"
    path.write_text(kummer_text())
    assert cli.main(["gram", "--in", str(path)]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "  pass determinant: 65536" in lines
    assert lines[-1] == "det = 65536"
    assert cli.main(["gram", "--in", str(path), "--format", "machine"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["det"] == 65536


def _gram_inputs():
    """Conics gram must reject before measuring them: two off the surface,
    and a line pair in z0 = 0 through the common line z0 = z1 = 0 of the
    planes of the two conics."""
    z0, z1, z2, z3 = ZRING.gens()
    far = Conic(z1, z0**2 + 2 * z2**2 + 3 * z3**2)
    return {
        "off-surface": [Conic(z0, z1**2 + z2**2 + z3**2), far],
        "line-pair": [Conic(z0, z1 * z2), far],
    }


@pytest.mark.parametrize("name", ["off-surface", "line-pair"])
def test_gram_checks_its_conics_before_measuring_them(capsys, tmp_path, name):
    conics = _gram_inputs()[name]
    path = tmp_path / f"{name}.cert"
    path.write_text(certificate_text(make_certificate("demo", list(zip(["A", "B"], conics)))))
    assert cli.main(["gram", "--in", str(path)]) == cli.EXIT_VERIFICATION
    lines = capsys.readouterr().out.splitlines()
    # the report stops at the failed check: no intersection number is computed
    assert lines == [
        "intersection Gram matrix",
        "  FAIL all conics irreducible and on the surface: 2 checked",
    ]


def test_gram_relabelling_stop_is_a_budget_exit(monkeypatch, capsys, tmp_path):
    # the reversed basis matches after 20 partial relabellings; below that
    # the search stops with exit 3 and no hint about flags gram does not take
    basis = certificates.load_packaged(certificates.NS_BASIS_FILE)
    labels = [lab for lab, _ in basis.entries]
    path = tmp_path / "reversed.cert"
    path.write_text(certificate_text(make_certificate("demo", list(zip(labels, basis.conics[::-1])))))
    monkeypatch.setattr(cli.pipeline, "RELABEL_NODES", 10)
    assert cli.main(["gram", "--in", str(path)]) == cli.EXIT_BUDGET
    err = capsys.readouterr().err
    assert err == "resource budget exceeded: relabelling search exceeded 10 nodes\n"


def test_kummer(capsys):
    rc = cli.main(["kummer"])
    assert rc == cli.EXIT_OK
    assert "pass" in capsys.readouterr().out


def test_components(capsys):
    rc = cli.main(["components"])
    assert rc == cli.EXIT_OK
    assert "FAIL" not in capsys.readouterr().out


def test_fibers(capsys):
    rc = cli.main(["fibers"])
    assert rc == cli.EXIT_OK
    assert "FAIL" not in capsys.readouterr().out


def test_enumerate_case_iii(capsys, census):
    rc = cli.main(["enumerate", "--case", "iii", "--in", str(census.path)])
    assert rc == cli.EXIT_OK
    assert "FAIL" not in capsys.readouterr().out


def test_enumerate_case_iv(capsys):
    rc = cli.main(["enumerate", "--case", "iv"])
    assert rc == cli.EXIT_OK


def test_enumerate_case_i_budget_exit(capsys):
    rc = cli.main(["enumerate", "--case", "i", "--budget-pairs", "30"])
    assert rc == cli.EXIT_BUDGET
    err = capsys.readouterr().err
    assert "budget" in err
    # the pair that trips the cap is not counted: it was never reduced
    assert "  pairs processed 30\n" in err
    assert "case (i) needs a far larger budget" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--case", "ii", "--budget-pairs", "30"],
        ["fibers", "--budget-pairs", "1"],
        ["components", "--budget-pairs", "1"],
    ],
)
def test_budget_stop_hint_names_case_i_only_for_case_i(capsys, argv):
    rc = cli.main(argv)
    assert rc == cli.EXIT_BUDGET
    err = capsys.readouterr().err
    assert "raise --budget-pairs and --budget-terms to continue\n" in err
    assert "case (i)" not in err


def test_case_ii_pair_cap_covers_only_the_filtered_run(capsys, census):
    # the 64 exhibited points certify the filtered basis, so no closing run
    # follows its 776 pairs; a stop inside it reports the pairs skipped so far
    argv = ["enumerate", "--case", "ii", "--in", str(census.path), "--budget-pairs"]
    assert cli.main(argv + ["776"]) == cli.EXIT_OK
    assert "FAIL" not in capsys.readouterr().out
    assert cli.main(argv + ["775"]) == cli.EXIT_BUDGET
    err = capsys.readouterr().err
    assert "\n  pairs processed 775\n" in err
    assert "\n  reductions to zero found mod p 517\n" in err


def test_fibers_pair_cap_is_the_case_iii_solve(capsys):
    # the split fibers are read from the one case (iii) solve, 65 pairs; the
    # locus charts before it fit in 64
    assert cli.main(["fibers", "--budget-pairs", "65"]) == cli.EXIT_OK
    assert "FAIL" not in capsys.readouterr().out
    assert cli.main(["fibers", "--budget-pairs", "64"]) == cli.EXIT_BUDGET
    assert "\n  pairs processed 64\n" in capsys.readouterr().err


def test_packed_overflow_stop_prints_the_groebner_work(capsys, monkeypatch):
    from conic_census.groebner import buchberger
    from conic_census.poly import LEX, PolyRing

    x, y = PolyRing(("x", "y"), LEX).gens()

    def overflowing(*args, **kwargs):
        buchberger([x - y**100, x**2 - 1])  # reducing x^2 reaches y^200

    monkeypatch.setattr(cli.pipeline, "enumerate_case", overflowing)
    rc = cli.main(["enumerate", "--case", "ii"])
    assert rc == cli.EXIT_BUDGET
    err = capsys.readouterr().err
    assert "resource budget exceeded: monomial (0, 200)" in err
    assert "an exponent over 127" in err
    for line in ("pairs processed 0", "peak basis size 1", "peak term count 2"):
        assert f"\n  {line}\n" in err
    assert "raise --budget-pairs and --budget-terms to continue\n" in err


@pytest.mark.parametrize("flag", ["--budget-pairs", "--budget-terms"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_budget_below_one_is_a_usage_error(flag, value):
    with pytest.raises(SystemExit) as err:
        cli.main(["enumerate", "--case", "ii", flag, value])
    assert err.value.code == cli.EXIT_USAGE


def test_census_from_certificate(capsys, census):
    rc = cli.main(["census", "--in", str(census.path)])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out


def test_verify_certificate(capsys, census):
    rc = cli.main(["verify", "--in", str(census.path)])
    assert rc == cli.EXIT_OK


def test_verify_machine_format(capsys, census):
    rc = cli.main(["verify", "--in", str(census.path), "--format", "machine"])
    assert rc == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["ok"] is True


def test_verify_tampered_certificate(capsys, census, tmp_path):
    lines = census.path.read_text().splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("conic "))
    toks = lines[idx].split(" ")
    toks[11] = (KElem.from_text(toks[11]) + ONE).to_text()
    lines[idx] = " ".join(toks)
    bad = tmp_path / "tampered.cert"
    bad.write_text("\n".join(lines) + "\n")
    rc = cli.main(["verify", "--in", str(bad)])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_VERIFICATION
    assert "FAIL" in captured.out
    assert "verification failed" in captured.err


def test_verify_garbage_file(capsys, tmp_path):
    path = tmp_path / "junk.cert"
    path.write_text("not a certificate\n")
    rc = cli.main(["verify", "--in", str(path)])
    assert rc == cli.EXIT_PARSE


def test_verify_missing_file(capsys, tmp_path):
    rc = cli.main(["verify", "--in", str(tmp_path / "absent.cert")])
    assert rc == cli.EXIT_PARSE


def test_verify_rejects_a_file_past_the_size_cap(capsys, census, tmp_path, monkeypatch):
    # the reader takes at most MAX_BYTES + 1 bytes, so memory stays
    # bounded; trailing blank text alone would otherwise verify
    data = census.path.read_bytes()
    monkeypatch.setattr(certificates, "MAX_BYTES", len(data))
    path = tmp_path / "padded.cert"
    path.write_bytes(data)
    assert cli.main(["verify", "--in", str(path)]) == cli.EXIT_OK
    path.write_bytes(data + b" ")
    capsys.readouterr()
    assert cli.main(["verify", "--in", str(path)]) == cli.EXIT_PARSE
    assert f"longer than {len(data)} bytes" in capsys.readouterr().err


def test_verify_rejects_a_crlf_file_past_the_byte_cap(capsys, census, tmp_path, monkeypatch):
    # the cap counts bytes as stored: each CRLF line end is two of them
    data = census.path.read_bytes()
    monkeypatch.setattr(certificates, "MAX_BYTES", len(data))
    path = tmp_path / "crlf.cert"
    path.write_bytes(data.replace(b"\n", b"\r\n"))
    assert cli.main(["verify", "--in", str(path)]) == cli.EXIT_PARSE
    assert f"longer than {len(data)} bytes" in capsys.readouterr().err


def test_verify_singular_generator_exits_4(capsys, census, tmp_path):
    # the first generator with its first row zeroed: 16 canonical fields of
    # a singular matrix
    lines = census.path.read_text().splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("generator "))
    toks = lines[idx].split(" ")
    toks[1:5] = [ZERO_FIELD] * 4
    lines[idx] = " ".join(toks)
    path = tmp_path / "singular.cert"
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["verify", "--in", str(path)]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert f"malformed generator line: group matrix is singular (line {idx + 1})" in err


@pytest.mark.parametrize("token", HOSTILE_TOKENS)
def test_verify_hostile_token_exits_4(capsys, tmp_path, token):
    c1, c2, c3 = catalog.seed_conics()
    text = certificate_text(make_certificate("demo", [("A-1", c1), ("A-2", c2)]))
    lines = text.splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("conic "))
    toks = lines[idx].split(" ")
    toks[2] = ",".join([token] + toks[2].split(",")[1:])
    lines[idx] = " ".join(toks)
    path = tmp_path / "hostile.cert"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = cli.main(["verify", "--in", str(path)])
    assert rc == cli.EXIT_PARSE
    assert "parse error" in capsys.readouterr().err


def test_jobs_flag_is_gone():
    with pytest.raises(SystemExit) as err:
        cli.main(["orbits", "--jobs", "2"])
    assert err.value.code == cli.EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["orbits"],
        ["census"],
        ["fibers"],
        ["components"],
        ["enumerate", "--case", "ii"],
        ["gram"],
        ["kummer"],
        ["verify", "--in", "x.cert"],
    ],
)
def test_seed_flag_is_gone(argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv + ["--seed", "3"])
    assert err.value.code == cli.EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [["orbits"], ["census"], ["gram"], ["kummer"], ["verify", "--in", "x.cert"]],
)
def test_budget_flags_only_on_groebner_stages(argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv + ["--budget-pairs", "5"])
    assert err.value.code == cli.EXIT_USAGE


def test_failed_orbits_writes_no_certificate(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(catalog, "SEED_STABILIZER_ORDERS", (12, 12, 5))
    out = tmp_path / "census.cert"
    assert cli.main(["orbits", "--out", str(out)]) == cli.EXIT_VERIFICATION
    assert "stabilizer of C3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", sorted(BAD_META))
def test_verify_malformed_metadata_exits_4(capsys, tmp_path, name):
    text = kummer_text().replace("kind kummer\n", f"kind kummer\n{BAD_META[name]}\n")
    path = tmp_path / "bad-meta.cert"
    path.write_text(text)
    assert cli.main(["verify", "--in", str(path)]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert "parse error" in err and f"(line {2 + len(BAD_META[name].splitlines())})" in err


@pytest.mark.parametrize(
    "forged",
    ["orbit C1 999", "seed C1 " + " ".join(OFF_SURFACE.fields())],
    ids=["orbit", "seed"],
)
def test_verify_repeated_label_in_census_exits_4(capsys, tmp_path, census, forged):
    # a forged line before the honest one: keeping only the last value per
    # label would verify it
    lines = census.path.read_text().splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln.startswith(forged[:len("seed C1 ")]))
    lines.insert(idx, forged)
    path = tmp_path / "repeated.cert"
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["verify", "--in", str(path)]) == cli.EXIT_PARSE
    word = forged.split()[0]
    assert f"repeated {word} label C1 (line {idx + 2})" in capsys.readouterr().err


def test_verify_count_with_underscore_exits_4(capsys, tmp_path):
    text = kummer_text()
    assert "count 16\n" in text
    path = tmp_path / "bad-count.cert"
    path.write_text(text.replace("count 16\n", "count 1_6\n"))
    assert cli.main(["verify", "--in", str(path)]) == cli.EXIT_PARSE
    assert "count takes one integer (line 3)" in capsys.readouterr().err


def test_verify_seed_line_must_name_its_own_orbit(capsys, tmp_path, census):
    # the seed C1 and seed C3 lines with their labels swapped: both conics
    # are records of the census, but of the other label
    lines = census.path.read_text().split("\n")
    at = {ln.split()[1]: k for k, ln in enumerate(lines) if ln.startswith("seed ")}
    i, j = at["C1"], at["C3"]
    lines[i], lines[j] = "seed C3 " + lines[i][8:], "seed C1 " + lines[j][8:]
    path = tmp_path / "swapped.cert"
    path.write_text("\n".join(lines))
    assert cli.main(["verify", "--in", str(path)]) == cli.EXIT_VERIFICATION
    assert "  FAIL seed conics listed in the census" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("forged", ["C3 8", "C1 13"])
def test_verify_forged_stabilizer_order_exits_2(capsys, tmp_path, census, forged):
    label = forged.split()[0]
    order = dict(zip(catalog.SEED_LABELS, catalog.SEED_STABILIZER_ORDERS))[label]
    text = census.path.read_text()
    honest = f"stabilizer {label} {order}\n"
    assert honest in text
    path = tmp_path / "forged.cert"
    path.write_text(text.replace(honest, f"stabilizer {forged}\n"))
    assert cli.main(["verify", "--in", str(path)]) == cli.EXIT_VERIFICATION
    assert "declared stabilizer orders" in capsys.readouterr().out
