import json
from fractions import Fraction as F

import pytest

from sphtrop import jsonio
from sphtrop.examples import all_fans, blowup_a4, e3_polynomial
from sphtrop.fundthm import trop_hypersurface
from sphtrop.linalg import InputError
from sphtrop.polyhedra import Cone
from sphtrop.puiseux import INF, ValuedPolynomial
from sphtrop.render import render_ascii, render_svg
from sphtrop.troposphere import tropicalize_embedding


def roundtrip(obj, to_json, from_json):
    return from_json(json.loads(jsonio.dumps(to_json(obj))))


def test_fraction_strings():
    assert jsonio.vector_to_json((F(3, 2), F(-4), 5, F(1), INF)) == [
        "3/2", "-4", "5", "1", "inf"]


def test_cone_round_trip():
    for gens in [[(1, 0), (1, 1)], [(1, 1), (-1, -1), (1, -1)], []]:
        c = Cone.from_generators(gens, 2)
        assert roundtrip(c, jsonio.cone_to_json, jsonio.cone_from_json) == c


def test_cone_from_inequalities_form():
    data = {"ambient_dim": 2, "inequalities": [["1", "0"]],
            "equations": [["0", "1"]]}
    c = jsonio.cone_from_json(data)
    assert c == Cone.from_generators([(1, 0)], 2)
    # the quadrant x, y >= 0 lifted into the plane z = y - x
    data = {"ambient_dim": 3,
            "inequalities": [["1", "0", "0"], ["0", "1", "0"]],
            "equations": [["1", "-1", "1"]]}
    c = jsonio.cone_from_json(data)
    assert c == Cone.from_generators([(1, 0, -1), (0, 1, 1)], 3)
    line = jsonio.cone_from_json({"ambient_dim": 2, "equations": [["1", "1"]]})
    assert line == Cone.from_generators([(1, -1), (-1, 1)], 2)


def test_datum_and_fan_round_trip():
    for name, datum, fan, _ in all_fans():
        d2 = roundtrip(datum, jsonio.datum_to_json, jsonio.datum_from_json)
        assert d2.rank == datum.rank
        assert d2.valuation_cone == datum.valuation_cone
        assert d2.palette == datum.palette
        f2 = jsonio.fan_from_json(
            json.loads(jsonio.dumps(jsonio.fan_to_json(fan))), datum.rank)
        assert all(a.cone == b.cone and a.colors == b.colors
                   for a, b in zip(f2.cones, fan.cones))


def test_trop_round_trip_and_determinism():
    for name, datum, fan, _ in all_fans():
        t = tropicalize_embedding(datum, fan)
        t2 = roundtrip(t, jsonio.trop_to_json, jsonio.trop_from_json)
        assert t == t2, name
        assert jsonio.dumps(jsonio.trop_to_json(t)) == jsonio.dumps(
            jsonio.trop_to_json(tropicalize_embedding(datum, fan)))


def test_polynomial_round_trip():
    f = e3_polynomial()
    assert roundtrip(f, jsonio.polynomial_to_json,
                     jsonio.polynomial_from_json) == f


def test_complex_round_trip():
    cx = trop_hypersurface(ValuedPolynomial.parse("x1 + x2 + 1",
                                                  laurent=False))
    cx2 = roundtrip(cx, jsonio.complex_to_json, jsonio.complex_from_json)
    assert cx2 == cx


@pytest.mark.parametrize("cells", [
    [{"equalities": [{"coeffs": ["1"], "rhs": "0"}], "inequalities": []}],
    [{"equalities": [], "inequalities": []},
     {"equalities": [], "inequalities": [{"coeffs": ["1", "0", "2"],
                                          "rhs": "1"}]}],
], ids=["short-equality", "long-inequality"])
def test_complex_row_of_the_wrong_length_is_an_input_error(cells):
    i = len(cells) - 1
    with pytest.raises(InputError,
                       match=rf"^cell {i} has a row of length \d, expected 2$"):
        jsonio.complex_from_json({"ambient_dim": 2, "cells": cells})


def test_render_outputs_deterministic():
    datum, fan = blowup_a4()
    t = tropicalize_embedding(datum, fan)
    assert render_svg(t) == render_svg(t)
    svg = render_svg(t)
    assert svg.startswith("<svg") and "polygon" in svg and "circle" in svg
    art = render_ascii(t)
    assert "." in art and "*" in art


def test_render_bullseye_for_colors():
    fans = {name: (d, f) for name, d, f, _ in all_fans()}
    d, fan = fans["table1/P2"]
    t = tropicalize_embedding(d, fan)
    assert 'stroke="red"' in render_svg(t)
    assert "@" in render_ascii(t)
    d, fan = fans["table1/Bl0P2"]
    t = tropicalize_embedding(d, fan)
    assert 'stroke="red"' not in render_svg(t)
    assert "@" not in render_ascii(t)
