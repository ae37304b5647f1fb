import hashlib
import json
import shlex
from pathlib import Path

import pytest

from sphtrop.cli import build_parser, main
from sphtrop.puiseux import MAX_COEFF_BITS, MAX_NESTING, MAX_TERM_PAIRS


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


@pytest.fixture()
def corpus(tmp_path, capsys):
    for name in ("table1", "table2", "blowup-a4", "p1xp1", "e3"):
        assert main(["examples", name, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    return tmp_path


E3 = ("2*t + (t^-1 + 3*t^3)*x1 + (7 - t^1000)*x2 - 6*x1^2"
      " + 4*t^-2*x1*x2")


def test_validate_ok_and_invalid(corpus, capsys, tmp_path):
    rc, out = run(capsys, "validate",
                  "--datum", str(corpus / "table1.datum.json"),
                  "--fan", str(corpus / "table1.P2.fan.json"))
    assert rc == 0 and json.loads(out)["ok"]
    # fan missing the origin face
    bad = tmp_path / "bad.fan.json"
    fan = json.loads((corpus / "table1.P2.fan.json").read_text())
    fan["cones"] = [c for c in fan["cones"] if c["generators"]]
    bad.write_text(json.dumps(fan))
    rc, out = run(capsys, "validate",
                  "--datum", str(corpus / "table1.datum.json"),
                  "--fan", str(bad))
    assert rc == 1
    assert any("face-closure" in f for f in json.loads(out)["failures"])


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    rc, _ = run(capsys, "validate", "--datum", str(bad), "--fan", str(bad))
    assert rc == 2


def test_trop_modes_and_compare(corpus, capsys, tmp_path):
    datum = str(corpus / "blowup-a4.datum.json")
    fan = str(corpus / "blowup-a4.fan.json")
    rc, out = run(capsys, "trop", "--datum", datum, "--fan", fan,
                  "--mode", "both")
    assert rc == 0
    payload = json.loads(out)
    assert len(payload["strata"]) == 4
    assert payload["comparison"]["equal"]

    gr = tmp_path / "gr.json"
    rc, _ = run(capsys, "grtrop", "--datum", datum, "--fan", fan,
                "--out", str(gr))
    assert rc == 0
    rc, out = run(capsys, "compare", str(corpus / "blowup-a4.trop.json"),
                  str(gr))
    assert rc == 0 and json.loads(out)["equal"]
    # unequal comparison exits 1
    rc, _ = run(capsys, "compare", str(corpus / "table2.A4.trop.json"),
                str(gr))
    assert rc == 1


def test_poly_commands(capsys):
    rc, out = run(capsys, "poly", "trop", "--poly", E3, "--weight", "(-2,0)")
    assert rc == 0 and out.strip() == "-4"
    rc, out = run(capsys, "poly", "trop", "--poly", E3, "--weight", "(0,2)")
    assert rc == 0 and out.strip() == "-1"
    rc, out = run(capsys, "poly", "init", "--poly", E3, "--weight", "(-2,0)")
    assert rc == 0 and out.strip() == "-6*x1^2 + 4*x1*x2"
    rc, out = run(capsys, "poly", "hypersurface", "--poly", "x1 + x2 + 1",
                  "--ordinary")
    assert rc == 0 and len(json.loads(out)["cells"]) == 3
    # infinite weight on a Laurent polynomial is an input error
    rc, _ = run(capsys, "poly", "trop", "--poly", "x1^-1 + x2",
                "--weight", "inf,0")
    assert rc == 2


def test_ftt_command(capsys):
    rc, out = run(capsys, "ftt", "--poly", "x1 + x2 + 1", "--ordinary",
                  "--weight", "0,0", "--weight", "inf,0",
                  "--witness", "t; -1 - t")
    assert rc == 0
    data = json.loads(out)
    assert data["ok"]
    assert data["witnesses"][0]["valuations"] == ["1", "0"]


def test_ftt_zero_polynomial_is_in_set_1_on_the_torus(capsys):
    """The zero polynomial vanishes everywhere, so a finite sample and a
    witness lie in set (1) as an infinite sample does, Laurent or not."""
    rc, out = run(capsys, "ftt", "--poly", "x1 - x1", "--ordinary",
                  "--weight", "0", "--weight", "inf")
    data = json.loads(out)
    assert rc == 0 and data["ok"]
    assert [(s["set1"], s["set2"]) for s in data["samples"]] == [
        (True, True), (True, True)]
    rc, out = run(capsys, "ftt", "--poly", "x1 - x1", "--witness", "t")
    data = json.loads(out)
    assert rc == 0 and data["ok"]
    assert data["witnesses"] == [
        {"valuations": ["1"], "residual_zero": True, "in_complex": True}]


def test_examples_unknown_name(capsys):
    with pytest.raises(SystemExit):
        main(["examples", "nope"])


def test_render(corpus, capsys):
    rc, out = run(capsys, "render", "--trop",
                  str(corpus / "blowup-a4.trop.json"), "--format", "ascii")
    assert rc == 0 and "*" in out
    rc, out = run(capsys, "render", "--trop",
                  str(corpus / "table1.P2.trop.json"))
    assert rc == 0 and out.startswith("<svg")


def test_render_is_the_same_at_every_extent(corpus, capsys):
    """Every rank <= 2 corpus figure, SVG and ASCII, at three extents."""
    paths = sorted(corpus.glob("*.trop.json"))
    assert len(paths) == 15
    for path in paths:
        if json.loads(path.read_text())["ambient_rank"] > 2:
            continue
        for fmt in ("svg", "ascii"):
            outs = {run(capsys, "render", "--trop", str(path), "--format", fmt,
                        "--extent", extent)
                    for extent in ("2", "3", "1/7")}
            assert len(outs) == 1 and outs.pop()[0] == 0, (path.name, fmt)


def test_render_rank3_refused(tmp_path, capsys):
    import sphtrop.jsonio as jsonio
    from sphtrop.polyhedra import Cone
    from sphtrop.spherical import ColoredCone, ColoredFan, SphericalDatum
    from sphtrop.troposphere import tropicalize_embedding

    datum = SphericalDatum(3, Cone.full_space(3), ())
    t = tropicalize_embedding(
        datum, ColoredFan((ColoredCone(Cone.zero(3)),)))
    path = tmp_path / "t3.json"
    path.write_text(jsonio.dumps(jsonio.trop_to_json(t)))
    rc, _ = run(capsys, "render", "--trop", str(path))
    assert rc == 1


def test_golden_corpus_matches_committed_trop(corpus, capsys):
    import sphtrop.jsonio as jsonio
    from sphtrop.examples import all_fans
    from sphtrop.troposphere import tropicalize_embedding

    for name, datum, fan, _ in all_fans():
        if name == "p1xp1":
            path = corpus / "p1xp1.trop.json"
        else:
            table, fname = name.split("/")
            path = corpus / f"{table}.{fname}.trop.json"
        committed = path.read_text()
        fresh = jsonio.dumps(jsonio.trop_to_json(
            tropicalize_embedding(datum, fan)))
        assert committed == fresh, name


def one_line_error(capsys):
    err = capsys.readouterr().err
    return err.startswith("error: ") and err.count("\n") == 1


def test_parser_keeps_no_state_between_calls(capsys):
    """One parser serves every call: a bad call, a good call that sets the
    option the bad one lacked, then the bad call again, each as if alone."""
    assert build_parser() is build_parser()
    bad = ["poly", "trop", "--poly", "x1 + 1"]
    outcomes = []
    for argv in (bad, bad + ["--weight", "0"], bad):
        rc = main(argv)
        captured = capsys.readouterr()
        outcomes.append((rc, captured.out, captured.err))
    assert outcomes[0] == outcomes[2]
    assert outcomes[0][:2] == (2, "")
    assert outcomes[0][2].startswith("error: ")
    assert outcomes[0][2].count("\n") == 1
    assert outcomes[1] == (0, "0\n", "")
    # An appending option starts empty again on the next call.
    rc, out = run(capsys, "ftt", "--poly", "x1 + 1",
                  "--weight", "0", "--weight", "1")
    assert rc == 0 and len(json.loads(out)["samples"]) == 2
    rc, out = run(capsys, "ftt", "--poly", "x1 + 1", "--weight", "0")
    assert rc == 0 and len(json.loads(out)["samples"]) == 1


@pytest.mark.parametrize("extent", ["0", "-1", "abc", "1/0", "1e5"])
def test_render_bad_extent_exits_2(corpus, capsys, extent):
    rc = main(["render", "--trop", str(corpus / "blowup-a4.trop.json"),
               "--format", "ascii", f"--extent={extent}"])
    assert rc == 2 and one_line_error(capsys)


def test_fan_color_missing_from_palette_exits_2(corpus, capsys, tmp_path):
    fan = json.loads((corpus / "table1.P2.fan.json").read_text())
    fan["cones"][-1]["colors"].append("nope")
    bad = tmp_path / "bad.fan.json"
    bad.write_text(json.dumps(fan))
    for command in ("validate", "trop"):
        rc = main([command, "--datum", str(corpus / "table1.datum.json"),
                   "--fan", str(bad)])
        assert rc == 2 and one_line_error(capsys)


@pytest.mark.parametrize("generator", ['[1e5000, 0]', '["1e5000", "0"]',
                                       '[0.5, 0]', '["1/0", "0"]'])
def test_inexact_fan_number_exits_2(corpus, capsys, tmp_path, generator):
    fan = json.loads((corpus / "blowup-a4.fan.json").read_text())
    fan["cones"][1]["generators"][0] = "GENERATOR"
    bad = tmp_path / "bad.fan.json"
    bad.write_text(json.dumps(fan).replace('"GENERATOR"', generator))
    rc = main(["validate", "--datum", str(corpus / "blowup-a4.datum.json"),
               "--fan", str(bad)])
    assert rc == 2 and one_line_error(capsys)


@pytest.mark.parametrize("action", ["trop", "init"])
def test_weight_in_exponent_notation_exits_2(capsys, action):
    rc = main(["poly", action, "--poly", E3, "--weight", "1e5,0"])
    assert rc == 2 and one_line_error(capsys)


def assert_corrupt_trop_exits_2(corpus, capsys, tmp_path, corrupt):
    """compare and render reject a blowup-a4.trop.json edited by corrupt."""
    good = corpus / "blowup-a4.trop.json"
    trop = json.loads(good.read_text())
    corrupt(trop["strata"])
    bad = tmp_path / "bad.trop.json"
    bad.write_text(json.dumps(trop))
    rc = main(["compare", str(good), str(bad)])
    assert rc == 2 and one_line_error(capsys)
    rc = main(["render", "--trop", str(bad)])
    assert rc == 2 and one_line_error(capsys)


@pytest.mark.parametrize("index", [99, -1, True])
def test_trop_adjacent_index_out_of_range_exits_2(corpus, capsys, tmp_path,
                                                  index):
    assert_corrupt_trop_exits_2(
        corpus, capsys, tmp_path,
        lambda strata: strata[0]["adjacent"].append(index))


def test_trop_repeated_stratum_exits_2(corpus, capsys, tmp_path):
    """A stratum listed twice (same face and colors) is refused, not kept
    once."""
    assert_corrupt_trop_exits_2(corpus, capsys, tmp_path,
                                lambda strata: strata.append(strata[0]))
    trop = json.loads((corpus / "table2.A4.trop.json").read_text())
    last = len(trop["strata"])
    trop["strata"].append(trop["strata"][0])
    bad = tmp_path / "repeated.trop.json"
    bad.write_text(json.dumps(trop))
    rc = main(["compare", str(corpus / "table2.A4.trop.json"), str(bad)])
    assert rc == 2
    assert capsys.readouterr().err.endswith(
        f": strata 0 and {last} have the same face and colors\n")


def stored_quotient_dim(value):
    def corrupt(strata):
        strata[0]["quotient_dim"] = value
    return corrupt


def image_off_the_chart(strata):
    """Give a 1-dimensional stratum the 2-dimensional open stratum's image."""
    line = next(s for s in strata if s["quotient_dim"] == 1)
    line["valuation_cone_image"] = next(
        s for s in strata if s["quotient_dim"] == 2)["valuation_cone_image"]


@pytest.mark.parametrize("corrupt", [
    stored_quotient_dim(7), stored_quotient_dim("2"), image_off_the_chart],
    ids=["quotient_dim=7", "quotient_dim-str", "image-off-chart"])
def test_trop_stratum_dimension_mismatch_exits_2(corpus, capsys, tmp_path,
                                                 corrupt):
    assert_corrupt_trop_exits_2(corpus, capsys, tmp_path, corrupt)


DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "cli_digests.json"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_cli_outputs_match_recorded_digests(tmp_path, monkeypatch, capsys):
    """Every recorded CLI call but ftt (whose witnesses hold spaces) prints,
    and every examples call writes, the recorded bytes."""
    recorded = json.loads(DIGESTS.read_text())
    monkeypatch.chdir(tmp_path)
    labels = sorted((label for label in recorded["stdout"]
                     if not label.startswith("ftt ")),
                    key=lambda label: not label.startswith("examples "))
    assert len(labels) == 85
    for label in labels:
        main(label.split())
        out = capsys.readouterr().out
        assert sha256(out.encode()) == recorded["stdout"][label], label
    written = {p.name: sha256(p.read_bytes()) for p in tmp_path.iterdir()}
    assert written == recorded["files"]


@pytest.mark.parametrize("exponent", ["0.5", "true", "1e5000"])
def test_non_integer_polynomial_exponent_exits_2(corpus, capsys, tmp_path,
                                                 exponent):
    poly = json.loads((corpus / "e3.poly.json").read_text())
    poly["terms"][0]["exponents"][0] = "EXPONENT"
    bad = tmp_path / "bad.poly.json"
    bad.write_text(json.dumps(poly).replace('"EXPONENT"', exponent))
    for argv in (["poly", "hypersurface"], ["poly", "trop", "--weight", "0,0"],
                 ["ftt", "--weight", "0,0"]):
        rc = main(argv + ["--poly", str(bad)])
        assert rc == 2 and one_line_error(capsys)


def test_huge_datum_rank_exits_2(corpus, capsys, tmp_path):
    """A rank is refused before the sweep allocates a rank-by-rank basis."""
    datum = {"rank": 10 ** 9, "valuation_cone": {"generators": []}}
    bad = tmp_path / "bad.datum.json"
    bad.write_text(json.dumps(datum))
    rc = main(["validate", "--datum", str(bad),
               "--fan", str(corpus / "blowup-a4.fan.json")])
    assert rc == 2 and one_line_error(capsys)


@pytest.mark.parametrize("value", [10 ** 9, -1, True, "2"])
def test_bad_trop_ambient_rank_exits_2(corpus, capsys, tmp_path, value):
    trop = json.loads((corpus / "blowup-a4.trop.json").read_text())
    trop["ambient_rank"] = value
    bad = tmp_path / "bad.trop.json"
    bad.write_text(json.dumps(trop))
    rc = main(["render", "--trop", str(bad)])
    assert rc == 2 and one_line_error(capsys)


def test_text_polynomial_variable_count_is_capped(capsys):
    """A text polynomial may name x1..x64; x65 is refused before any sweep."""
    rc = main(["poly", "hypersurface", "--poly", "x65 + 1"])
    assert rc == 2 and one_line_error(capsys)
    rc, out = run(capsys, "poly", "hypersurface", "--poly", "x64 + 1")
    assert rc == 0 and json.loads(out)["ambient_dim"] == 64


@pytest.mark.parametrize("poly", ["1/0*t + x1", "t^(1/0) + x1",
                                  "t^-1/0 + x1"])
def test_zero_denominator_in_text_polynomial_exits_2(capsys, poly):
    rc = main(["poly", "hypersurface", "--poly", poly])
    assert rc == 2 and one_line_error(capsys)


def test_ftt_witness_outputs_match_recorded_digests(capsys):
    """The ten hand witnesses of criterion 9, whose labels hold spaces."""
    recorded = json.loads(DIGESTS.read_text())["stdout"]
    labels = [label for label in recorded if label.startswith("ftt ")]
    assert len(labels) == 10
    for label in labels:
        poly, witness = label[len("ftt --poly "):].split(" --witness ")
        rc, out = run(capsys, "ftt", "--poly", poly, "--witness", witness)
        assert rc == 0 and sha256(out.encode()) == recorded[label], label


def test_witness_power_over_the_term_pair_bound_exits_2(capsys):
    """(1 + t)^800 would square a 257-term scalar: refused, naming the bound."""
    rc = main(["ftt", "--poly", "x1^800 - 1", "--witness", "1 + t"])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert str(MAX_TERM_PAIRS) in err


def test_witness_power_over_the_coefficient_bound_exits_2(capsys):
    """2^(10^8) has one term but a 10^8-bit coefficient: refused early."""
    rc = main(["ftt", "--poly", "x1^100000000 - 1", "--witness", "2"])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert str(MAX_COEFF_BITS) in err


def test_witness_power_under_the_term_pair_bound_keeps_its_verdict(capsys):
    rc, out = run(capsys, "ftt", "--poly", "x1^400 - 1", "--witness", "1 + t")
    assert rc == 1
    assert json.loads(out) == {
        "ok": False, "samples": [],
        "witnesses": [{"in_complex": True, "residual_zero": False,
                       "valuations": ["0"]}]}


def test_product_over_the_term_pair_bound_exits_2(capsys):
    """Two 300-term sums would pair into 90000 terms: refused at parse time."""
    left = " + ".join(f"x1^{k}" for k in range(300))
    right = " + ".join(f"x2^{k}" for k in range(300))
    rc = main(["poly", "trop", "--poly", f"({left})*({right})",
               "--weight", "0,0"])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert str(MAX_TERM_PAIRS) in err


def test_products_over_the_term_pair_bound_in_all_exit_2(capsys):
    """Each product of two 256-term sums is under the bound, but every
    3-byte "*x3" after it would pair all 65536 terms again: the products of
    one parse share the bound."""
    left = " + ".join(f"x1^{k}" for k in range(256))
    right = " + ".join(f"x2^{k}" for k in range(256))
    rc, out = run(capsys, "poly", "trop", "--poly", f"({left})*({right})",
                  "--weight", "0,0")
    assert rc == 0 and out == "0\n"
    rc = main(["poly", "trop", "--poly", f"({left})*({right})*x3*x3",
               "--weight", "0,0,0"])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert str(MAX_TERM_PAIRS) in err and "Traceback" not in err


def test_deep_parentheses_exit_2(capsys):
    deep = "(" * 400 + "x1" + ")" * 400
    rc = main(["poly", "trop", "--poly", deep, "--weight", "0"])
    assert rc == 2 and one_line_error(capsys)
    rc = main(["ftt", "--poly", "x1 + 1",
               "--witness", "(" * 400 + "t" + ")" * 400])
    assert rc == 2 and one_line_error(capsys)
    rc, out = run(capsys, "poly", "trop", "--poly",
                  "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING,
                  "--weight", "3")
    assert rc == 0 and out == "3\n"


def test_long_unary_minus_chain_parses(capsys):
    rc, out = run(capsys, "poly", "init", "--poly", "2*" + "-" * 3001 + "x1",
                  "--weight", "0")
    assert rc == 0 and out == "-2*x1\n"
    rc, out = run(capsys, "ftt", "--poly", "x1 + 1",
                  "--witness", "2*" + "-" * 3000 + "t")
    assert rc == 1 and out == run(capsys, "ftt", "--poly", "x1 + 1",
                                  "--witness", "2*t")[1]


@pytest.mark.parametrize("argv", [
    ["compare", "DEEP", "DEEP"],
    ["validate", "--datum", "DEEP", "--fan", "DEEP"],
    ["poly", "hypersurface", "--poly", "DEEP"],
])
def test_deeply_nested_json_exits_2(tmp_path, capsys, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    rc = main([str(deep) if a == "DEEP" else a for a in argv])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1
    assert err.startswith("error: ") and "malformed JSON in" in err


def file_error(capsys, verb):
    """One stderr line saying the file could not be read or written."""
    err = capsys.readouterr().err
    return (err.startswith("error: ") and err.count("\n") == 1
            and f"cannot {verb} " in err and "Traceback" not in err)


def test_poly_file_that_is_a_directory_exits_2(tmp_path, capsys):
    rc = main(["poly", "trop", "--poly", str(tmp_path), "--weight", "1"])
    assert rc == 2 and file_error(capsys, "read")


@pytest.mark.parametrize("argv", [
    ["poly", "trop", "--poly", "x1 + 1", "--weight", "1"],
    ["poly", "hypersurface", "--poly", "x1 + x2 + 1"],
    ["validate", "--datum", "CORPUS/table2.datum.json",
     "--fan", "CORPUS/table2.P4.fan.json"],
    ["render", "--trop", "CORPUS/table2.Bl0A4.trop.json"],
], ids=["poly-trop", "poly-hypersurface", "validate", "render"])
def test_out_in_a_missing_directory_exits_2(corpus, tmp_path, capsys, argv):
    out = tmp_path / "missing" / "x.json"
    argv = [a.replace("CORPUS", str(corpus)) for a in argv]
    rc = main(argv + ["--out", str(out)])
    assert rc == 2 and file_error(capsys, "write")
    assert not out.parent.exists()


def test_examples_out_that_is_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    assert main(["examples", "table2", "--out", str(taken)]) == 2
    assert file_error(capsys, "write")
    assert taken.read_text() == "not a directory"


def test_examples_file_that_cannot_be_written_exits_2(tmp_path, capsys):
    (tmp_path / "table2.datum.json").mkdir()
    assert main(["examples", "table2", "--out", str(tmp_path)]) == 2
    assert file_error(capsys, "write")


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_cli_lines_run_as_written(tmp_path, monkeypatch, capsys):
    """Every line of README.md that starts with "sphtrop " exits 0, run in
    order in one fresh directory, as CI runs them through the console
    script."""
    lines = [line for line in README.read_text().splitlines()
             if line.startswith("sphtrop ")]
    assert len(lines) >= 10
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()
