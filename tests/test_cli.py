import hashlib
import importlib.util
import json
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sphtrop.cli import build_parser, main
from sphtrop.fundthm import MAX_COMPLEX_TERMS
from sphtrop.polyhedra import MAX_SWEEP_RAYS
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


# The prefixes a loader puts before a structure error in a file it has
# read and decoded; an unreadable file or malformed JSON has none of them.
STRUCTURE_PREFIXES = ("bad datum/fan structure", "bad tropicalization file",
                      "cannot parse polynomial")


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    rc = main(["validate", "--datum", str(bad), "--fan", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith(f"error: malformed JSON in {bad}: ")
    assert not any(p in err for p in STRUCTURE_PREFIXES)


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
    rc, _ = run(capsys, "trop", "--datum", datum, "--fan", fan,
                "--mode", "grobner", "--out", str(gr))
    assert rc == 0
    rc, out = run(capsys, "compare", str(corpus / "blowup-a4.trop.json"),
                  str(gr))
    assert rc == 0 and json.loads(out)["equal"]
    # unequal comparison exits 1
    rc, _ = run(capsys, "compare", str(corpus / "table2.A4.trop.json"),
                str(gr))
    assert rc == 1
    # no --mode: the face-wise strata alone, with no comparison
    rc, out = run(capsys, "trop", "--datum", datum, "--fan", fan)
    payload = json.loads(out)
    assert rc == 0 and len(payload["strata"]) == 4
    assert "comparison" not in payload


def compare_with_edited(corpus, capsys, tmp_path, edit):
    """compare blowup-a4.trop.json with a copy edited by edit(strata)."""
    trop = json.loads((corpus / "blowup-a4.trop.json").read_text())
    edit(trop["strata"])
    edited = tmp_path / "edited.trop.json"
    edited.write_text(json.dumps(trop))
    return run(capsys, "compare", str(corpus / "blowup-a4.trop.json"),
               str(edited))


def test_compare_reports_a_differing_adjacency(corpus, capsys, tmp_path):
    """Two files that differ only in one stratum's adjacent list compare
    unequal, with that one mismatch."""
    def edit(strata):
        assert strata[1]["adjacent"] == [0, 1]
        strata[1]["adjacent"] = [1]
    rc, out = compare_with_edited(corpus, capsys, tmp_path, edit)
    report = json.loads(out)
    assert rc == 1 and not report["equal"]
    assert len(report["mismatches"]) == 1
    assert report["mismatches"][0].startswith("adjacency differs at ")


def test_compare_reports_a_differing_valuation_cone_image(corpus, capsys,
                                                          tmp_path):
    """Two files that differ only in one stratum's image of the valuation
    cone compare unequal, with that one mismatch: the line stratum of the
    ray (1, 0) is given the half-line image of the ray (1, 1)."""
    def edit(strata):
        line, half = strata[1], strata[3]
        assert line["face_generators"] == [["1", "0"]]
        assert half["face_generators"] == [["1", "1"]]
        assert line["valuation_cone_image"] != half["valuation_cone_image"]
        line["valuation_cone_image"] = half["valuation_cone_image"]
    rc, out = compare_with_edited(corpus, capsys, tmp_path, edit)
    report = json.loads(out)
    assert rc == 1 and not report["equal"]
    assert len(report["mismatches"]) == 1
    assert report["mismatches"][0].startswith(
        "valuation-cone images differ at ")


SRC = Path(__file__).resolve().parents[1] / "src"


def test_compare_prints_the_same_report_under_any_hash_seed(corpus):
    """Stratum keys hold color names, whose hashes change with
    PYTHONHASHSEED; the two seeds below listed the mismatches of these
    files in different orders before the report sorted its keys."""
    outs = []
    for seed in ("1", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys; from sphtrop.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "compare", "table2.P4.trop.json", "table2.Gl2.trop.json"],
            cwd=corpus, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1, done.stderr
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert len(json.loads(outs[0])["mismatches"]) > 1


@pytest.mark.parametrize("argv, rc, out, err", [
    (["poly", "trop", "--poly", "x1 + 1", "--weight", "1"], 0, "0\n", ""),
    (["poly", "trop", "--poly", "x1 ? 3", "--weight", "1"], 2, "",
     "error: cannot parse polynomial: cannot tokenize ' ? 3'\n"),
], ids=["success", "bad-input"])
def test_the_module_runs_as_a_program(argv, rc, out, err):
    """``python -m sphtrop.cli`` exits with the code that ``main`` returns."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "sphtrop.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (rc, out, err)


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


@pytest.mark.parametrize("fmt", ["svg", "ascii"])
def test_render_rank3_refused(tmp_path, capsys, fmt):
    import sphtrop.jsonio as jsonio
    from sphtrop.polyhedra import Cone
    from sphtrop.spherical import ColoredCone, ColoredFan, SphericalDatum
    from sphtrop.troposphere import tropicalize_embedding

    datum = SphericalDatum(3, Cone.full_space(3), ())
    t = tropicalize_embedding(
        datum, ColoredFan((ColoredCone(Cone.zero(3)),)))
    path = tmp_path / "t3.json"
    path.write_text(jsonio.dumps(jsonio.trop_to_json(t)))
    rc, _ = run(capsys, "render", "--trop", str(path), "--format", fmt)
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


def color_on_the_ray(fan):
    fan["cones"][1]["colors"] = ["D1"]


def rho_of_length_3(datum):
    datum["palette"][0]["rho"] = ["-1", "1", "0"]


# x1 + x1^2 + ... with one term more than a complex may have: it is refused
# before its candidate cells, cubic in the terms, are built.
PAST_THE_TERM_BOUND = " + ".join(
    f"x1^{k}" for k in range(1, MAX_COMPLEX_TERMS + 2))
TERM_BOUND_ERROR = (f"error: expected at most {MAX_COMPLEX_TERMS} terms in a "
                    f"tropical hypersurface, got {MAX_COMPLEX_TERMS + 1}\n")


@pytest.mark.parametrize("argv, name, edit, rc, err", [
    (["trop", "--datum", "CORPUS/p1xp1.datum.json", "--fan", "EDITED"],
     "p1xp1.fan.json", color_on_the_ray, 1,
     "error: invalid colored fan: "
     "['member-invalid[1]: rho-containment,generation']\n"),
    (["validate", "--datum", "EDITED", "--fan", "CORPUS/table2.P4.fan.json"],
     "table2.datum.json", rho_of_length_3, 2,
     "error: bad datum/fan structure: color D has wrong dimension\n"),
    (["ftt", "--poly", "x1 + 1", "--witness", "x1"], None, None, 2,
     "error: witness coordinate is not a scalar: x1\n"),
    (["poly", "trop", "--poly", "x1^(1/2)", "--weight", "1"], None, None, 2,
     "error: cannot parse polynomial: variable exponents must be integers\n"),
    (["poly", "trop", "--poly", "x1 ? 3", "--weight", "1"], None, None, 2,
     "error: cannot parse polynomial: cannot tokenize ' ? 3'\n"),
    (["poly", "hypersurface", "--ordinary", "--poly", PAST_THE_TERM_BOUND],
     None, None, 2, TERM_BOUND_ERROR),
    (["ftt", "--ordinary", "--poly", PAST_THE_TERM_BOUND, "--weight", "0"],
     None, None, 2, TERM_BOUND_ERROR),
], ids=["trop-invalid-fan", "datum-color-wrong-length",
        "ftt-witness-not-scalar", "poly-fractional-variable-exponent",
        "poly-cannot-tokenize", "poly-hypersurface-past-the-term-bound",
        "ftt-past-the-term-bound"])
def test_failure_exits_with_its_code_and_one_line(corpus, capsys, tmp_path,
                                                  argv, name, edit, rc, err):
    """An invalid fan is a domain failure (exit 1); a palette color of the
    wrong length, a witness coordinate with a variable, a fractional
    variable exponent, a character outside the grammar and a polynomial
    past ``MAX_COMPLEX_TERMS`` are bad input (exit 2).  Each prints its one
    line and nothing on stdout."""
    if name:
        data = json.loads((corpus / name).read_text())
        edit(data)
        (tmp_path / "edited.json").write_text(json.dumps(data))
    argv = [a.replace("CORPUS", str(corpus)).replace(
        "EDITED", str(tmp_path / "edited.json")) for a in argv]
    assert main(argv) == rc
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("generator", ['[1e5000, 0]', '["1e5000", "0"]',
                                       '[0.5, 0]', '["1/0", "0"]',
                                       '["1_0", "0"]'])
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


def test_weight_with_an_underscore_exits_2(capsys):
    """A weight "1_0" is refused on every Python, as 3.10's ``Fraction``
    refuses it."""
    rc = main(["poly", "trop", "--poly", "x1 + 1", "--weight", "1_0"])
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


# The complex of 1 + x1 + t^2 x1^2 + x2, each cell as (equalities,
# inequalities) of rows (c_1, c_2, r); the second cell has two rows with
# one coefficient vector, -w1 >= 1 and -w1 >= 2, listed in this order.
TIE_CELLS = [
    ([(1, 0, -2)], [(-2, 1, 2), (-1, 0, 1)]),
    ([(2, -1, -2)], [(-1, 0, 1), (-1, 0, 2)]),
    ([(1, -1, 0)], [(-1, 0, 0), (1, 0, -2)]),
    ([(1, 0, 0)], [(-1, 1, 0), (1, 0, -2)]),
    ([(0, 1, 0)], [(1, -1, 0), (2, -1, -2)]),
]
TIE_SHA256 = "fca7b5224e238b2d3e70c3a1c3792fa6b3ac0293d4f727be26d0bf2a277d2aca"


def test_cell_rows_that_share_coefficients_keep_their_order(capsys):
    """Rows are sorted by coefficients, then right-hand side, and the
    printed complex is byte for byte the one recorded in TIE_SHA256."""
    rc, out = run(capsys, "poly", "hypersurface", "--poly",
                  "1 + x1 + t^2*x1^2 + x2", "--ordinary")

    def rows(items):
        return [tuple(int(x) for x in (*h["coeffs"], h["rhs"]))
                for h in items]
    assert rc == 0
    assert [(rows(c["equalities"]), rows(c["inequalities"]))
            for c in json.loads(out)["cells"]] == TIE_CELLS
    assert sha256(out.encode()) == TIE_SHA256


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


def test_polynomial_past_the_sweep_bound_exits_2(capsys):
    """80 random terms of degree at most 2 in 10 variables (3657 bytes):
    the complex's feasibility sweep passes ``MAX_SWEEP_RAYS`` rays, so the
    command exits 2 with one line instead of running for minutes."""
    rng = random.Random(5)
    monomials = set()
    while len(monomials) < 80:
        monomials.add(tuple(rng.randint(0, 2) for _ in range(10)))
    terms = []
    for u in sorted(monomials):
        coeff = rng.choice((-3, -2, -1, 1, 2, 3))
        exponent = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
        terms.append(f"{coeff}*t^({exponent})" + "".join(
            f"*x{i + 1}^{a}" for i, a in enumerate(u) if a))
    poly = " + ".join(terms)
    assert len(poly) == 3657
    rc = main(["poly", "hypersurface", "--ordinary", "--poly", poly])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1
    assert f"expected at most {MAX_SWEEP_RAYS} rays" in err


def test_seven_variable_polynomial_past_the_sweep_bound_exits_2(capsys):
    """The scale tool's seed-3 polynomial of 40 terms in 7 variables: the one
    sweep of its complex holds every vertex of the region under the graph at
    once and passes ``MAX_SWEEP_RAYS``, so it is refused in seconds."""
    spec = importlib.util.spec_from_file_location(
        "hypersurface_scale",
        Path(__file__).parent / "tools" / "hypersurface_scale.py")
    scale = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scale)
    poly = scale.polynomial_text(7, 40)
    rc = main(["poly", "hypersurface", "--ordinary", "--poly", poly])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1
    assert f"expected at most {MAX_SWEEP_RAYS} rays" in err


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
    ["render", "--trop", "DEEP"],
])
def test_deeply_nested_json_exits_2(tmp_path, capsys, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    rc = main([str(deep) if a == "DEEP" else a for a in argv])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1
    assert err.startswith(f"error: malformed JSON in {deep}: ")
    assert not any(p in err for p in STRUCTURE_PREFIXES)


def file_error(capsys, verb):
    """One stderr line saying the file could not be read or written, with
    no structure prefix before it."""
    err = capsys.readouterr().err
    return (err.startswith(f"error: cannot {verb} ") and err.count("\n") == 1
            and "Traceback" not in err)


def test_poly_file_that_is_a_directory_exits_2(tmp_path, capsys):
    rc = main(["poly", "trop", "--poly", str(tmp_path), "--weight", "1"])
    assert rc == 2 and file_error(capsys, "read")


@pytest.mark.parametrize("argv", [
    ["validate", "--datum", "MISSING", "--fan", "MISSING"],
    ["trop", "--datum", "MISSING", "--fan", "MISSING"],
    ["compare", "MISSING", "MISSING"],
    ["render", "--trop", "MISSING"],
    ["poly", "hypersurface", "--poly", "DIR.json"],
    ["ftt", "--poly", "DIR.json"],
    ["validate", "--datum", "BINARY", "--fan", "BINARY"],
    ["poly", "trop", "--poly", "BINARY", "--weight", "1"],
    ["poly", "hypersurface", "--poly", "MISSING"],
    ["ftt", "--poly", "MISSING"],
], ids=["validate", "trop", "compare", "render", "poly", "ftt",
        "validate-not-utf8", "poly-not-utf8", "poly-missing-json",
        "ftt-missing-json"])
def test_unreadable_input_file_is_reported_as_a_file_error(tmp_path, capsys,
                                                          argv):
    """A file that cannot be read, or is not UTF-8 text, is reported as
    such, not as a file of bad structure; a ``--poly`` ending in ``.json``
    names a file even when there is none, not polynomial text."""
    (tmp_path / "dir.json").mkdir()
    (tmp_path / "binary").write_bytes(b"\xff\xfe\x00")
    paths = {"MISSING": str(tmp_path / "missing.json"),
             "DIR.json": str(tmp_path / "dir.json"),
             "BINARY": str(tmp_path / "binary")}
    assert main([paths.get(a, a) for a in argv]) == 2
    assert file_error(capsys, "read")


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
