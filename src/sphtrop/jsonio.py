"""JSON (de)serialization for all package objects.

An exact value is written as its ``str``: "p/q" (or "p" when integral) for
a rational, so files stay exact, and "inf" for infinity.  All emitters sort
keys deterministically so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
from typing import Sequence

from .fundthm import Cell, TropicalComplex
from .linalg import MAX_DIM, InputError, Vector, primitive, rational_from_input
from .polyhedra import Cone, quotient_chart
from .puiseux import ExtendedRational, PuiseuxScalar, ValuedPolynomial
from .spherical import Color, ColoredCone, ColoredFan, SphericalDatum
from .troposphere import ExtendedTrop, Stratum


def vector_to_json(v: Sequence[ExtendedRational]) -> list[str]:
    return list(map(str, v))


def vector_from_json(data) -> Vector:
    if type(data) is not list:
        raise InputError(f"expected a vector (a JSON list), got {data!r}")
    return tuple(map(rational_from_input, data))


def dim_from_json(data) -> int:
    if type(data) is not int or not 0 <= data <= MAX_DIM:
        raise InputError(f"expected a dimension in 0..{MAX_DIM}, got {data!r}")
    return data


def name_from_json(data) -> str:
    if type(data) is not str:
        raise InputError(f"expected a color name (a string), got {data!r}")
    return data


def colors_from_json(data) -> frozenset[str]:
    if type(data) is not list:
        raise InputError(f"expected a list of color names, got {data!r}")
    return frozenset(map(name_from_json, data))


# -- cones, data, fans ---------------------------------------------------

def cone_to_json(c: Cone) -> dict:
    return {
        "ambient_dim": c.ambient_dim,
        "generators": [vector_to_json(g) for g in c.generators],
        "inequalities": [vector_to_json(h) for h in c.inequalities],
        "equations": [vector_to_json(e) for e in c.equations],
    }


def cone_from_json(data) -> Cone:
    dim = dim_from_json(data["ambient_dim"])
    if "generators" in data:
        return Cone.from_generators(
            [vector_from_json(g) for g in data["generators"]], dim)
    return Cone.from_inequalities(
        [vector_from_json(h) for h in data.get("inequalities", [])], dim,
        [vector_from_json(e) for e in data.get("equations", [])])


def datum_to_json(d: SphericalDatum) -> dict:
    return {
        "rank": d.rank,
        "valuation_cone": cone_to_json(d.valuation_cone),
        "palette": [{"name": c.name, "rho": vector_to_json(c.rho)}
                    for c in d.palette],
    }


def datum_from_json(data) -> SphericalDatum:
    vc = {"ambient_dim": data["rank"], **data["valuation_cone"]}
    return SphericalDatum(
        rank=dim_from_json(data["rank"]),
        valuation_cone=cone_from_json(vc),
        palette=tuple(Color(name_from_json(c["name"]),
                            vector_from_json(c["rho"]))
                      for c in data.get("palette", [])))


def fan_to_json(f: ColoredFan) -> dict:
    return {"cones": [{"generators": [vector_to_json(g)
                                      for g in cc.cone.generators],
                       "colors": sorted(cc.colors)}
                      for cc in f.cones]}


# Most cones read in one fan.  Validation compares every pair of members,
# so a complete rank-2 fan at the bound already takes about 1 s.
MAX_FAN_CONES = 1024


def fan_from_json(data, rank: int) -> ColoredFan:
    if len(data["cones"]) > MAX_FAN_CONES:
        raise InputError(f"expected at most {MAX_FAN_CONES} cones in a fan, "
                         f"got {len(data['cones'])}")
    cones = []
    for item in data["cones"]:
        cone = Cone.from_generators(
            [vector_from_json(g) for g in item["generators"]], rank)
        cones.append(ColoredCone(cone,
                                 colors_from_json(item.get("colors", []))))
    return ColoredFan(tuple(cones))


def pair_from_json(datum_data, fan_data) -> tuple[SphericalDatum, ColoredFan]:
    """A datum and a fan on it; every fan color must name a palette color."""
    datum = datum_from_json(datum_data)
    fan = fan_from_json(fan_data, datum.rank)
    unknown = (frozenset().union(*(cc.colors for cc in fan.cones))
               - {c.name for c in datum.palette})
    if unknown:
        raise InputError("fan names colors missing from the palette: "
                         + ", ".join(map(repr, sorted(unknown))))
    return datum, fan


# -- extended tropicalizations -------------------------------------------

def trop_to_json(t: ExtendedTrop) -> dict:
    keys = sorted(t.strata)
    index = {k: i for i, k in enumerate(keys)}
    strata = []
    for k in keys:
        s = t.strata[k]
        strata.append({
            "face_generators": [vector_to_json(g)
                                for g in s.face.cone.generators],
            "colors": sorted(s.labels),
            "quotient_dim": s.quotient_dim,
            "valuation_cone_image": cone_to_json(s.valuation_cone_image),
            "adjacent": sorted(index[a] for a in t.adjacency.get(k, ())),
        })
    return {"ambient_rank": t.ambient_rank, "strata": strata}


def trop_from_json(data) -> ExtendedTrop:
    rank = dim_from_json(data["ambient_rank"])
    strata = []
    first: dict = {}
    for i, item in enumerate(data["strata"]):
        face = ColoredCone(
            Cone.from_generators([vector_from_json(g)
                                  for g in item["face_generators"]], rank),
            colors_from_json(item["colors"]))
        chart = quotient_chart(face.cone.generators, rank)
        qdim = item["quotient_dim"]
        if type(qdim) is not int or qdim != len(chart):
            raise InputError(f"quotient_dim {qdim!r} is not the face's "
                             f"quotient dimension {len(chart)}")
        s = Stratum(face, chart, cone_from_json(item["valuation_cone_image"]))
        j = first.setdefault(s.key, i)
        if j != i:
            raise InputError(f"strata {j} and {i} have the same face and "
                             "colors")
        strata.append(s)
    adjacency = {}
    for item, s in zip(data["strata"], strata):
        for i in item["adjacent"]:
            if type(i) is not int or not 0 <= i < len(strata):
                raise InputError(f"adjacent entry {i!r} is not a stratum "
                                 f"index in 0..{len(strata) - 1}")
        adjacency[s.key] = frozenset(strata[i].key for i in item["adjacent"])
    return ExtendedTrop(rank, {s.key: s for s in strata}, adjacency)


# -- polynomials and complexes -------------------------------------------

def scalar_to_json(s: PuiseuxScalar) -> list[dict]:
    return [{"exponent": str(e), "coeff": str(c)}
            for e, c in s.terms]


def scalar_from_json(data) -> PuiseuxScalar:
    return PuiseuxScalar.from_terms(
        (rational_from_input(t["exponent"]), rational_from_input(t["coeff"]))
        for t in data)


def polynomial_to_json(f: ValuedPolynomial) -> dict:
    return {
        "nvars": f.nvars,
        "laurent": f.laurent,
        "terms": [{"exponents": list(u), "coefficient": scalar_to_json(c)}
                  for u, c in f.terms],
    }


def polynomial_from_json(data) -> ValuedPolynomial:
    laurent = data["laurent"]
    if type(laurent) is not bool:
        raise InputError(f"expected laurent to be true or false, "
                         f"got {laurent!r}")
    coeffs = {}
    for t in data["terms"]:
        u = tuple(t["exponents"])
        if u in coeffs:
            raise InputError(f"repeated exponent vector {list(u)}")
        coeffs[u] = scalar_from_json(t["coefficient"])
    return ValuedPolynomial.from_dict(
        dim_from_json(data["nvars"]), coeffs, laurent=laurent)


def complex_to_json(cx: TropicalComplex) -> dict:
    def constraint(h):
        return {"coeffs": vector_to_json(h[:-1]), "rhs": str(h[-1])}
    return {
        "ambient_dim": cx.ambient_dim,
        "cells": [{"equalities": [constraint(c) for c in cell.equalities],
                   "inequalities": [constraint(c) for c in cell.inequalities]}
                  for cell in cx.cells],
    }


def complex_from_json(data) -> TropicalComplex:
    dim = dim_from_json(data["ambient_dim"])

    def constraint(c, i):
        coeffs = vector_from_json(c["coeffs"])
        if len(coeffs) != dim:
            raise InputError(f"cell {i} has a row of length {len(coeffs)}, "
                             f"expected {dim}")
        return primitive((*coeffs, rational_from_input(c["rhs"])))
    cells = tuple(
        Cell(dim,
             tuple(constraint(c, i) for c in cell["equalities"]),
             tuple(constraint(c, i) for c in cell["inequalities"]))
        for i, cell in enumerate(data["cells"]))
    return TropicalComplex(dim, cells)


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
