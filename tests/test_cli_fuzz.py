"""Mutated corpus JSON and text polynomials through the CLI: exit codes 0,
1 or 2, never a traceback.

Each JSON example takes one corpus file (datum, fan, tropicalization or
polynomial), walks to a random node, drops it or replaces it with a value
of another type, an out-of-range index or a float or huge number, and runs
the commands that read that kind of file.  Each text example splices a
hostile fragment (a variable past the limit, a stray operator, a float)
into a polynomial given on the command line.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphtrop.cli import main
from sphtrop.jsonio import MAX_FAN_CONES

DATUM, FAN = "blowup-a4.datum.json", "blowup-a4.fan.json"
TROP, POLY = "blowup-a4.trop.json", "e3.poly.json"


def commands(kind, path, corpus):
    """The CLI calls that read the mutated file `path` of the given kind."""
    datum, fan = str(corpus / DATUM), str(corpus / FAN)
    if kind == DATUM:
        datum = path
    if kind == FAN:
        fan = path
    if kind in (DATUM, FAN):
        pair = ["--datum", datum, "--fan", fan]
        return [["validate", *pair], ["trop", *pair, "--mode", "both"]]
    if kind == TROP:
        return [["compare", path, str(corpus / TROP)],
                ["render", "--trop", path, "--format", "ascii"]]
    return [["poly", "hypersurface", "--poly", path],
            ["ftt", "--poly", path, "--weight", "0,inf", "--weight", "1,0"]]


REPLACEMENTS = [None, True, False, 0.5, float("inf"), 10 ** 30, -(10 ** 30),
                -1, 0, 2, 99, "x", "1/0", "1e5000", [], {}, [[]], ["0"],
                {"x": 1}]


@st.composite
def mutations(draw):
    """A corpus file name, a path into its JSON and what to do there."""
    return (draw(st.sampled_from([DATUM, FAN, TROP, POLY])),
            draw(st.lists(st.integers(0, 15), max_size=6)),
            draw(st.sampled_from(["drop", *range(len(REPLACEMENTS))])))


def mutate(data, path, action):
    """Walk `path` (indices taken modulo each container's size), then drop
    the node reached or replace it."""
    parent, key, node = None, None, data
    for step in path:
        if isinstance(node, dict) and node:
            parent, key = node, sorted(node)[step % len(node)]
        elif isinstance(node, list) and node:
            parent, key = node, step % len(node)
        else:
            break
        node = parent[key]
    if parent is None:
        return REPLACEMENTS[0] if action == "drop" else REPLACEMENTS[action]
    if action == "drop":
        del parent[key]
    else:
        parent[key] = REPLACEMENTS[action]
    return data


def assert_exits_0_1_or_2(argv):
    """Exit 0, 1 or 2 without a traceback, and one line of error on exit 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert err.getvalue().count("\n") == 1, err.getvalue()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    with contextlib.redirect_stdout(io.StringIO()):
        for name in ("blowup-a4", "e3"):
            assert main(["examples", name, "--out", str(out)]) == 0
    return out


@settings(max_examples=160, deadline=None, derandomize=True)
@given(mutations())
def test_mutated_corpus_json_exits_0_1_or_2(corpus, mutation):
    kind, path, action = mutation
    data = mutate(json.loads((corpus / kind).read_text()), path, action)
    bad = corpus / f"mutated.{kind}"
    bad.write_text(json.dumps(data))
    for argv in commands(kind, str(bad), corpus):
        assert_exits_0_1_or_2(argv)


POLY_TEXT = ("2*t + (t^-1 + 3*t^3)*x1 + (7 - t^1000)*x2 - 6*x1^2"
             " + 4*t^-2*x1*x2")
FRAGMENTS = ["x65", "x0", "x" + "9" * 30, "x64", "x3", "^", "^-", "^(",
             "(", ")", "*", "+", "-", "/", "1/0", "0.5", "1e5", "t^(1/2)",
             "t^(-3/2)", "inf", "y", " ", ""]


@st.composite
def text_mutations(draw):
    """POLY_TEXT with a slice replaced by a hostile fragment."""
    start = draw(st.integers(0, len(POLY_TEXT)))
    stop = draw(st.integers(start, min(start + 3, len(POLY_TEXT))))
    fragment = draw(st.sampled_from(FRAGMENTS))
    return POLY_TEXT[:start] + fragment + POLY_TEXT[stop:]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(text_mutations())
def test_mutated_text_polynomial_exits_0_1_or_2(text):
    for argv in (["poly", "hypersurface", "--poly", text],
                 ["ftt", "--poly", text, "--weight", "0,inf",
                  "--weight", "1,0"]):
        assert_exits_0_1_or_2(argv)


@pytest.fixture(scope="module")
def table2(tmp_path_factory):
    out = tmp_path_factory.mktemp("table2")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["examples", "table2", "--out", str(out)]) == 0
    return out


def set_colors(kind, value):
    """Replace the colors of the one colored member of a table2.P4 file."""
    def edit(data):
        items = data["cones"] if kind == "fan" else data["strata"]
        next(i for i in items if i["colors"] == ["D"])["colors"] = value
    return edit


def set_palette_name(value):
    def edit(data):
        data["palette"][0]["name"] = value
    return edit


def set_vector(kind, value):
    """Replace the first generator of the fan's first ray, or the first
    palette color's rho."""
    def edit(data):
        if kind == "fan":
            next(i for i in data["cones"] if i["generators"])[
                "generators"][0] = value
        else:
            data["palette"][0]["rho"] = value
    return edit


def moment_cone_valuation_cone(npoints):
    """Make the datum rank 10, its valuation cone spanned by the points
    (1, t, ..., t^9) of the moment curve for t = 1..npoints."""
    def edit(data):
        data["rank"] = 10
        data["valuation_cone"] = {"generators": [
            [str(t ** i) for i in range(10)] for t in range(1, npoints + 1)]}
    return edit


def repeat_cones(count):
    """Repeat the fan's members, in order, until there are `count`."""
    def edit(data):
        cones = data["cones"]
        data["cones"] = [cones[i % len(cones)] for i in range(count)]
    return edit


@pytest.mark.parametrize("name, edit", [
    ("table2.P4.fan.json", set_colors("fan", "D")),
    ("table2.P4.fan.json", set_colors("fan", "D1")),
    ("table2.P4.fan.json", set_colors("fan", [1])),
    ("table2.P4.trop.json", set_colors("trop", "D")),
    ("table2.P4.trop.json", set_colors("trop", {"D": 1})),
    ("table2.datum.json", set_palette_name(["D"])),
    ("table2.datum.json", set_palette_name(1)),
    ("table2.P4.fan.json", set_vector("fan", "10")),
    ("table2.datum.json", set_vector("palette", "10")),
    ("table2.P4.fan.json", repeat_cones(MAX_FAN_CONES + 1)),
    ("table2.datum.json", moment_cone_valuation_cone(30)),
], ids=["fan-string", "fan-name-string", "fan-int-list", "trop-string",
        "trop-dict", "palette-name-list", "palette-name-int",
        "fan-generator-string", "palette-rho-string", "fan-over-cone-bound",
        "moment-cone-over-sweep-bound"])
def test_colors_and_names_of_another_type_exit_2(table2, name, edit):
    """A color list that is not a list of strings, a palette name that is
    not a string, or a vector that is not a list is malformed input, not a
    set of characters, a name or a vector read digit by digit; so is a fan
    of more than ``MAX_FAN_CONES`` cones, refused before any is built, and
    a cone whose sweep would keep more than ``MAX_SWEEP_RAYS`` rays (the
    cone over 30 moment-curve points in rank 10 has 25300 facets)."""
    data = json.loads((table2 / name).read_text())
    edit(data)
    bad = table2 / f"bad.{name}"
    bad.write_text(json.dumps(data))
    datum, fan = table2 / "table2.datum.json", table2 / "table2.P4.fan.json"
    if name.endswith(".trop.json"):
        argv = ["compare", str(bad), str(table2 / name)]
    else:
        datum, fan = (bad, fan) if "datum" in name else (datum, bad)
        argv = ["validate", "--datum", str(datum), "--fan", str(fan)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        assert main(argv) == 2
    assert err.getvalue().count("\n") == 1, err.getvalue()
    assert "expected a" in err.getvalue()


def term(exponents, coeff):
    return {"exponents": exponents,
            "coefficient": [{"exponent": "0", "coeff": coeff}]}


def poly_exit_code(tmp_path, data):
    """The exit code of two commands on the polynomial file, and whether
    each wrote exactly one line to stderr."""
    path = tmp_path / "bad.poly.json"
    path.write_text(json.dumps(data))
    codes = []
    for argv in (["poly", "hypersurface"], ["poly", "trop", "--weight", "1"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = main(argv + ["--poly", str(path)])
        codes.append((rc, err.getvalue().count("\n")))
    return codes


@pytest.mark.parametrize("laurent", ["no", "false", 1, [False]],
                         ids=["string-no", "string-false", "int", "list"])
def test_laurent_flag_of_another_type_exits_2(tmp_path, laurent):
    """A "laurent" flag that is not a JSON boolean is malformed input, not
    read by its truthiness: with "no", x1^-1 must not load as Laurent."""
    data = {"nvars": 1, "laurent": laurent,
            "terms": [term([-1], "1"), term([0], "1")]}
    assert poly_exit_code(tmp_path, data) == [(2, 1), (2, 1)]


@pytest.mark.parametrize("terms", [
    [term([1], "1"), term([1], "-1"), term([0], "1")],
    [term([1], "2"), term([0], "1"), term([1], "2")],
], ids=["cancelling", "equal"])
def test_repeated_exponent_vector_exits_2(tmp_path, terms):
    """Two terms with one exponent vector are malformed input: neither
    silently dropped (the last one winning) nor summed."""
    data = {"nvars": 1, "laurent": False, "terms": terms}
    assert poly_exit_code(tmp_path, data) == [(2, 1), (2, 1)]


def test_boolean_laurent_flag_and_distinct_exponents_still_load(tmp_path):
    for laurent in (True, False):
        data = {"nvars": 1, "laurent": laurent,
                "terms": [term([1], "1"), term([0], "1")]}
        assert poly_exit_code(tmp_path, data) == [(0, 0), (0, 0)]
