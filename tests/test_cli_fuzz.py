"""Mutated corpus JSON through the CLI: exit codes 0, 1 or 2, never a
traceback.

Each example takes one corpus file (datum, fan, tropicalization or
polynomial), walks to a random node, drops it or replaces it with a value
of another type, an out-of-range index or a float or huge number, and runs
the commands that read that kind of file.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphtrop.cli import main

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
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue()
        if rc == 2:
            assert err.getvalue().count("\n") == 1, err.getvalue()
