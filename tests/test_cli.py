"""End-to-end CLI checks, run in process through cli.main."""

import json

import pytest

from importlib import resources

from conic_census import catalog, cli
from conic_census.certificates import KUMMER_FILE, certificate_text, make_certificate
from conic_census.field import KElem, ONE, kelem
from conic_census.geometry import Conic

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
