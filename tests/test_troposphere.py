from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphtrop.examples import all_fans, blowup_a4, table2_datum
from sphtrop.fundthm import TropicalComplex, extended_trop_sets
from sphtrop.polyhedra import Cone, quotient_chart
from sphtrop.puiseux import INF, ValuedPolynomial
from sphtrop.spherical import Color, ColoredCone, ColoredFan, SphericalDatum
from sphtrop.troposphere import (
    Stratum,
    assemble_subvariety_trop,
    contains_point,
    evaluate_point,
    limit_point,
    stratum_valuation_cone,
    tropicalize_embedding,
)
from test_linalg import gram_project_to_chart, vadd, vscale
from test_polyhedra import rows


def bl0a4_trop():
    datum, fan = blowup_a4()
    return datum, tropicalize_embedding(datum, fan)


def test_strata_shapes_match_expected():
    for name, datum, fan, expected in all_fans():
        t = tropicalize_embedding(datum, fan)
        got = sorted(((s.quotient_dim, sorted(s.labels))
                      for s in t.strata.values()), reverse=True)
        assert got == sorted(expected, reverse=True), name


def test_stratum_count_equals_colored_face_count():
    datum, fan = blowup_a4()
    t = tropicalize_embedding(datum, fan)
    assert len(t.strata) == 4


def test_stratum_valuation_cones():
    datum = table2_datum()
    line = stratum_valuation_cone(datum, Cone.from_generators([(1, 0)], 2))
    assert line.dim() == 1 and len(line.lineality) == 1
    ray = stratum_valuation_cone(datum, Cone.from_generators([(1, 1)], 2))
    assert ray.dim() == 1 and ray.is_strictly_convex()
    whole = stratum_valuation_cone(datum, Cone.zero(2))
    assert whole == datum.valuation_cone
    with pytest.raises(ValueError):
        stratum_valuation_cone(datum, Cone.from_generators([(-1, 1)], 2))


def test_evaluate_point():
    _, t = bl0a4_trop()
    tau = Cone.from_generators([(1, 1)], 2)
    p = limit_point(t, (3, 1), tau)
    assert evaluate_point(p, (1, -1)) == 2
    assert evaluate_point(p, (1, 0)) is INF
    with pytest.raises(ValueError):
        evaluate_point(p, (-1, 0))
    open_p = limit_point(t, (3, 1), Cone.zero(2))
    assert evaluate_point(open_p, (1, 0)) == 3


def test_contains_point():
    _, t = bl0a4_trop()
    open_s = t.stratum_of_face(Cone.zero(2))
    assert contains_point(t, open_s.point((5, 1)))
    assert not contains_point(t, open_s.point((0, 1)))
    ray_s = t.stratum_of_face(Cone.from_generators([(1, 1)], 2))
    good = ray_s.valuation_cone_image.relint_point()
    assert contains_point(t, ray_s.point(good))
    assert not contains_point(t, ray_s.point(vscale(F(-1), good)))


def test_convergence_to_limit_point():
    datum, t = bl0a4_trop()
    sigma = Cone.from_generators([(1, 0), (1, 1)], 2)
    dual_gens = sigma.dual().generators
    w = (F(3), F(1))
    for tau in [Cone.zero(2), Cone.from_generators([(1, 0)], 2),
                Cone.from_generators([(1, 1)], 2), sigma]:
        r = tau.intersect(datum.valuation_cone).relint_point()
        p = limit_point(t, w, tau)
        for u in dual_gens:
            limit = evaluate_point(p, u)
            vals = [sum(a * b for a, b in zip(u, vadd(w, vscale(F(n), r))))
                    for n in range(1, 30)]
            if limit is INF:
                assert all(b > a for a, b in zip(vals, vals[1:]))
            else:
                assert all(v == limit for v in vals)


def test_gluing_dedups_shared_faces():
    datum = table2_datum()
    # two maximal cones sharing the ray (1,0)
    fan = ColoredFan((ColoredCone(Cone.zero(2)),
                      ColoredCone(Cone.from_generators([(1, 0)], 2)),
                      ColoredCone(Cone.from_generators([(1, 1)], 2)),
                      ColoredCone(Cone.from_generators([(-1, -1)], 2)),
                      ColoredCone(Cone.from_generators([(1, 0), (1, 1)], 2)),
                      ColoredCone(Cone.from_generators([(1, 0), (-1, -1)], 2))))
    t = tropicalize_embedding(datum, fan)
    assert len(t.strata) == 6


def test_adjacency_reflects_face_order():
    _, t = bl0a4_trop()
    sigma_key = t.stratum_of_face(
        Cone.from_generators([(1, 0), (1, 1)], 2)).key
    assert t.adjacency[sigma_key] == frozenset(t.strata)
    zero_key = t.stratum_of_face(Cone.zero(2)).key
    assert t.adjacency[zero_key] == frozenset({zero_key})


def test_rank_zero_datum_is_a_point():
    datum = SphericalDatum(0, Cone.zero(0), ())
    t = tropicalize_embedding(datum, ColoredFan((ColoredCone(Cone.zero(0)),)))
    assert len(t.strata) == 1
    (s,) = t.strata.values()
    assert s.quotient_dim == 0


def test_invalid_fan_rejected():
    datum = table2_datum()
    fan = ColoredFan((ColoredCone(Cone.from_generators([(1, 0)], 2)),))
    with pytest.raises(ValueError):
        tropicalize_embedding(datum, fan)


def test_assemble_subvariety_trop():
    # toric plane: empty palette, V everything, fan the closed quadrant
    datum = SphericalDatum(2, Cone.full_space(2), ())
    quadrant = Cone.from_generators([(1, 0), (0, 1)], 2)
    fan = ColoredFan(tuple(ColoredCone(f) for f in quadrant.faces()))
    t = tropicalize_embedding(datum, fan)
    f = ValuedPolynomial.parse("x1 + x2 + 1", laurent=False)
    sets = extended_trop_sets(f)
    per_stratum = {}
    face_of_sigma = {frozenset(): Cone.zero(2),
                     frozenset({0}): Cone.from_generators([(1, 0)], 2),
                     frozenset({1}): Cone.from_generators([(0, 1)], 2),
                     frozenset({0, 1}): quadrant}
    for sigma, cx in sets.items():
        key = t.stratum_of_face(face_of_sigma[sigma]).key
        per_stratum[key] = cx
    subset = assemble_subvariety_trop(t, per_stratum)
    assert not subset.is_empty()
    # the sigma = {0,1} piece (constant restriction) is empty
    corner = t.stratum_of_face(quadrant).key
    assert subset.sets[corner].is_empty_set()


def test_assemble_rejects_escaping_sets():
    datum, fan = blowup_a4()
    t = tropicalize_embedding(datum, fan)
    open_key = t.stratum_of_face(Cone.zero(2)).key
    whole = TropicalComplex.whole_space(2)
    with pytest.raises(ValueError):
        assemble_subvariety_trop(t, {open_key: whole})


# -- Stratum.of against the former per-generator Gram solves ----------------

def gram_solve_stratum(datum: SphericalDatum, face: ColoredCone) -> Stratum:
    """V_tau: the valuation cone in the canonical chart modulo span(tau)."""
    chart = quotient_chart(face.cone.generators, datum.rank)
    return Stratum(face, chart, Cone.from_generators(
        [gram_project_to_chart(chart, g)
         for g in datum.valuation_cone.generators], len(chart)))


@st.composite
def datum_and_face(draw):
    """A valuation cone, often with lineality, and a face of a random cone.

    Both are spanned by small vectors, so the charts and Gram matrices are
    not orthonormal, and the faces run from the zero (or lineality) face,
    a full chart, to the cone itself, an empty chart when it is
    full-dimensional."""
    rank = draw(st.integers(1, 4))
    gens, lines = draw(rows(rank, 5)), draw(rows(rank, 2))
    gens += lines + [tuple(-x for x in l) for l in lines]
    datum = SphericalDatum(rank, Cone.from_generators(gens, rank), ())
    cone = Cone.from_generators(draw(rows(rank, 5)), rank)
    return datum, ColoredCone(draw(st.sampled_from(cone.faces())))


@settings(max_examples=300, deadline=None)
@given(datum_and_face())
def test_property_stratum_is_the_gram_solve_stratum(case):
    datum, face = case
    assert Stratum.of(datum, face) == gram_solve_stratum(datum, face)


@pytest.mark.parametrize("face", [Cone.zero(3), Cone.full_space(3),
                                  Cone.from_generators(
                                      [(1, 0, 0), (1, 2, 0), (0, 1, 3)], 3),
                                  Cone.from_generators([(2, 1, 1)], 3)],
                         ids=["zero", "full-space", "full-dim", "ray"])
@pytest.mark.parametrize("valuation_cone", [
    Cone.from_generators([(1, 0, 0), (0, 1, 0), (1, 1, 2)], 3),
    Cone.from_generators([(1, 2, 0), (-1, -2, 0), (0, 1, 1)], 3),
    Cone.zero(3)], ids=["pointed", "lineality", "zero"])
def test_stratum_matches_the_gram_solve_on_extreme_faces(face,
                                                         valuation_cone):
    datum = SphericalDatum(3, valuation_cone, ())
    s = Stratum.of(datum, ColoredCone(face))
    assert s == gram_solve_stratum(datum, ColoredCone(face))
    assert s.quotient_dim == 3 - face.dim()
    if face.dim() == 3:  # empty chart: the image is the point of R^0
        assert s.chart == () and s.valuation_cone_image == Cone.zero(0)
