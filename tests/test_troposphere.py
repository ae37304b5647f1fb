import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sphtrop import troposphere
from sphtrop.examples import all_fans, blowup_a4, table2_datum, table2_fans
from sphtrop.grobtrop import (compare_tropicalizations,
                              grobner_tropicalize_embedding)
from sphtrop.linalg import DomainError, InputError
from sphtrop.polyhedra import CONE_CACHE_SIZE, Cone, quotient_chart
from sphtrop.puiseux import INF
from sphtrop.render import render_ascii, render_svg
from sphtrop.spherical import (Color, ColoredCone, ColoredFan,
                               SphericalDatum, colored_faces,
                               relint_meets_valuation_cone,
                               validate_colored_fan)
from sphtrop.troposphere import (
    ExtendedPoint,
    ExtendedTrop,
    Stratum,
    StratumKey,
    contains_point,
    evaluate_point,
    limit_point,
    stratum_key,
    tropicalize_embedding,
)
from test_acceptance import arrangement_fan, random_valid_fan
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

    def image(*gens):
        tau = Cone.from_generators(gens, 2) if gens else Cone.zero(2)
        return Stratum.of(datum, ColoredCone(tau)).valuation_cone_image

    line = image((1, 0))
    assert line.dim() == 1 and len(line.lineality) == 1
    ray = image((1, 1))
    assert ray.dim() == 1 and ray.is_strictly_convex()
    assert image() == datum.valuation_cone
    # a face whose relative interior misses V gives no stratum
    assert not relint_meets_valuation_cone(
        datum, Cone.from_generators([(-1, 1)], 2))


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


@pytest.mark.parametrize("call", [
    lambda t, x: Color("D", (x, 0)),
    lambda t, x: ExtendedPoint(t.stratum_of_face(
        Cone.from_generators([(1, 1)], 2)), (x,)),
    lambda t, x: evaluate_point(limit_point(t, (3, 1), Cone.zero(2)), (x, 0)),
    lambda t, x: limit_point(t, (x, 1), Cone.from_generators([(1, 1)], 2)),
], ids=["Color", "ExtendedPoint", "evaluate_point", "limit_point"])
@pytest.mark.parametrize("x", [F(1, 2), 0.5, "1/2", True],
                         ids=["exact", "float", "str", "bool"])
def test_a_vector_entry_must_be_exact(call, x):
    """Only ``int`` and ``Fraction`` entries are taken: a float is not read
    as the rational of its binary value, a string is not parsed and a bool
    is not read as 0 or 1."""
    _, t = bl0a4_trop()
    if type(x) is F:
        call(t, x)
    else:
        with pytest.raises(ValueError, match="expected exact rationals"):
            call(t, x)


def test_evaluate_point_on_a_face_with_lineality():
    """The face {0} x R of the half-plane x >= 0 is all lineality: a
    functional zero on it evaluates, and one that is not is refused."""
    half = Cone.from_inequalities([(1, 0)], 2)
    line = Cone.from_generators([(0, 1), (0, -1)], 2)
    t = tropicalize_embedding(
        SphericalDatum(2, Cone.full_space(2), ()),
        ColoredFan((ColoredCone(half), ColoredCone(line))))
    p = limit_point(t, (3, 1), line)
    assert evaluate_point(p, (2, 0)) == 6
    with pytest.raises(ValueError, match="nonzero on the face lineality"):
        evaluate_point(p, (1, 1))


def test_evaluate_point_at_zero_on_a_full_dimensional_face():
    """The stratum of a full-dimensional face is a point with an empty
    chart; u = 0 is the one functional finite there, and it evaluates to 0."""
    _, t = bl0a4_trop()
    p = limit_point(t, (3, 1), Cone.from_generators([(1, 0), (1, 1)], 2))
    assert p.stratum.chart == () and p.value == ()
    assert evaluate_point(p, (0, 0)) == 0
    assert evaluate_point(p, (1, 0)) is INF


def test_contains_point():
    _, t = bl0a4_trop()
    open_s = t.stratum_of_face(Cone.zero(2))
    assert contains_point(t, ExtendedPoint(open_s, (5, 1)))
    assert not contains_point(t, ExtendedPoint(open_s, (0, 1)))
    ray_s = t.stratum_of_face(Cone.from_generators([(1, 1)], 2))
    good = ray_s.valuation_cone_image.relint_point()
    assert contains_point(t, ExtendedPoint(ray_s, good))
    assert not contains_point(t, ExtendedPoint(ray_s, vscale(F(-1), good)))


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


def test_an_extended_trop_is_unequal_to_a_namespace_of_its_fields():
    """``==`` holds between tropicalizations with equal fields only."""
    _, t = bl0a4_trop()
    fields = dict(ambient_rank=t.ambient_rank, strata=t.strata,
                  adjacency=t.adjacency)
    assert t == ExtendedTrop(**fields)
    assert t != SimpleNamespace(**fields) and SimpleNamespace(**fields) != t


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
    troposphere._quotient_image.cache_clear()
    first = Stratum.of(datum, face)  # a miss, then a hit
    assert first == Stratum.of(datum, face) == gram_solve_stratum(datum, face)


@st.composite
def datum_and_cones_of_one_span(draw):
    """A valuation cone as in ``datum_and_face`` and, in random order, cones
    with one span and different rays: a ray, its negation and the line
    through it, or a quadrant, its half-plane and the plane."""
    rank = draw(st.integers(1, 4))
    gens, lines = draw(rows(rank, 5)), draw(rows(rank, 2))
    gens += lines + [vscale(-1, l) for l in lines]
    datum = SphericalDatum(rank, Cone.from_generators(gens, rank), ())
    r, s = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * rank),
                         min_size=2, max_size=2))
    assume(any(r))
    if Cone.from_generators([r, s], rank).dim() == 2:
        group = [[r, s], [r, s, vscale(-1, s)],
                 [r, vscale(-1, r), s, vscale(-1, s)]]
    else:
        group = [[r], [vscale(-1, r)], [r, vscale(-1, r)]]
    return datum, [Cone.from_generators(g, rank)
                   for g in draw(st.permutations(group))]


@settings(max_examples=200, deadline=None)
@given(datum_and_cones_of_one_span())
def test_property_cones_of_one_span_share_one_stratum_image(case):
    datum, cones = case
    troposphere._quotient_image.cache_clear()
    first = Stratum.of(datum, ColoredCone(cones[0]))
    for cone in cones:
        s = Stratum.of(datum, ColoredCone(cone))
        assert s == gram_solve_stratum(datum, ColoredCone(cone))
        assert s.valuation_cone_image is first.valuation_cone_image
    info = troposphere._quotient_image.cache_info()
    assert (info.misses, info.hits) == (1, len(cones))


def test_stratum_memo_is_bounded_and_rebuilds_what_it_evicted():
    datum = SphericalDatum(2, Cone.from_generators([(1, 0), (1, 2)], 2), ())
    faces = [ColoredCone(Cone.from_generators([(1, k)], 2))
             for k in range(CONE_CACHE_SIZE + 5)]
    info = troposphere._quotient_image.cache_info
    assert info().maxsize == CONE_CACHE_SIZE
    troposphere._quotient_image.cache_clear()
    first = Stratum.of(datum, faces[0])
    for face in faces[1:]:
        Stratum.of(datum, face)
        assert info().currsize <= CONE_CACHE_SIZE
    assert info().currsize == CONE_CACHE_SIZE
    misses = info().misses
    again = Stratum.of(datum, faces[0])
    assert info().misses == misses + 1
    assert again == first == gram_solve_stratum(datum, faces[0])
    assert again.valuation_cone_image is not first.valuation_cone_image


def test_stratum_of_a_face_of_the_wrong_rank_raises():
    datum = SphericalDatum(3, Cone.full_space(3), ())
    for face in (Cone.zero(2), Cone.from_generators([(1, 0)], 2)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            Stratum.of(datum, ColoredCone(face))


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


# -- valid fans, for the properties below ------------------------------------

@st.composite
def valid_fans(draw):
    """A valid colored fan: the colored faces of one or two random colored
    cones on a random datum, or a complete hyperplane-arrangement fan of
    rank 1-3 with V the whole space and no colors."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        return random_valid_fan(rng)
    m = rng.randint(1, 3)
    return (SphericalDatum(m, Cone.full_space(m), ()),
            ColoredFan(tuple(map(ColoredCone, arrangement_fan(rng, m)))))


# -- sub-face sets against the former containment loop -----------------------

def contains_cone_adjacency(datum, fan):
    """The sub-face sets of ``tropicalize_embedding`` before they were read
    off ray sets: one ``contains_cone`` test per pair of colored faces of
    each maximal cone, kept as an oracle."""
    face_of = {}
    for cc in fan.maximal_cones():
        faces = colored_faces(datum, cc)
        for f in faces:
            key = stratum_key(f)
            sub = frozenset(stratum_key(g) for g in faces
                            if f.cone.contains_cone(g.cone))
            face_of[key] = face_of.get(key, frozenset()) | sub
    return face_of


@settings(max_examples=150, deadline=None)
@given(valid_fans())
def test_property_adjacency_is_the_contains_cone_loop(case):
    datum, fan = case
    assert (tropicalize_embedding(datum, fan).adjacency
            == contains_cone_adjacency(datum, fan))


# -- the member-wise route against the former maximal-cone loop --------------

def former_tropicalize_embedding(datum, fan):
    """``tropicalize_embedding`` before it read each member's own colored
    faces, kept verbatim as an oracle: one pass over the maximal cones,
    the faces below a colored face read off canonical ray sets."""
    report = validate_colored_fan(datum, fan)
    if not report.ok:
        raise ValueError(f"invalid colored fan: {report.failures}")
    strata: dict[StratumKey, Stratum] = {}
    face_of: dict[StratumKey, frozenset[StratumKey]] = {}
    for cc in fan.maximal_cones():
        faces = colored_faces(datum, cc)
        for f in faces:
            key = stratum_key(f)
            if key not in strata:
                strata[key] = Stratum.of(datum, f)
            sub = frozenset(stratum_key(g) for g in faces
                            if set(g.cone.rays) <= set(f.cone.rays))
            face_of[key] = face_of.get(key, frozenset()) | sub
    return ExtendedTrop(datum.rank, strata, face_of)


@settings(max_examples=150, deadline=None)
@given(valid_fans())
def test_property_member_faces_give_the_maximal_cone_trop(case):
    datum, fan = case
    assert (tropicalize_embedding(datum, fan)
            == former_tropicalize_embedding(datum, fan))


def test_member_faces_give_the_maximal_cone_trop_on_the_corpus():
    for name, datum, fan, _ in all_fans():
        assert (tropicalize_embedding(datum, fan)
                == former_tropicalize_embedding(datum, fan)), name


def open_stratum(t):
    return t.stratum_of_face(Cone.zero(2))


def stranger(t):
    """The stratum of the ray through (-1, -1), which P4 has and Bl0A4 not."""
    p4 = tropicalize_embedding(table2_datum(), table2_fans()["P4"][0])
    s = p4.stratum_of_face(Cone.from_generators([(-1, -1)], 2))
    assert s.key not in t.strata
    return s


@pytest.mark.parametrize("error, message, call", [
    (ValueError, "point dimension does not match the stratum chart",
     lambda t: ExtendedPoint(open_stratum(t), (1,))),
    (KeyError, "no stratum with the given face",
     lambda t: t.stratum_of_face(Cone.from_generators([(1, -1)], 2))),
    (KeyError, "unknown stratum",
     lambda t: contains_point(t, ExtendedPoint(stranger(t), (0,)))),
    # A full-dimensional face has an empty chart, which reads no entry of w.
    (ValueError, "dimension mismatch", lambda t: limit_point(
        t, (3,), Cone.from_generators([(1, 0), (1, 1)], 2))),
    (ValueError, "dimension mismatch", lambda t: limit_point(
        t, (3, 1, 4), Cone.from_generators([(1, 0), (1, 1)], 2))),
], ids=["point-length", "no-such-face", "contains-unknown-stratum",
        "limit-point-short-weight", "limit-point-long-weight"])
def test_a_refused_input_raises_its_message(error, message, call):
    _, t = bl0a4_trop()
    with pytest.raises(error, match=message):
        call(t)


# The relative interior of the ray through (-1, 0) misses the valuation cone
# x >= y of table 2's datum: it is not a colored cone, nor a fan of it a
# colored fan.
NOT_A_COLORED_CONE = ColoredCone(Cone.from_generators([(-1, 0)], 2))


def rank3_trop():
    return tropicalize_embedding(SphericalDatum(3, Cone.full_space(3), ()),
                                 ColoredFan((ColoredCone(Cone.zero(3)),)))


@pytest.mark.parametrize("message, call", [
    ("invalid colored fan", lambda: tropicalize_embedding(
        table2_datum(), ColoredFan((NOT_A_COLORED_CONE,)))),
    ("invalid colored fan", lambda: grobner_tropicalize_embedding(
        table2_datum(), ColoredFan((NOT_A_COLORED_CONE,)))),
    ("ambient ranks differ", lambda: compare_tropicalizations(
        bl0a4_trop()[1], rank3_trop())),
    ("invalid colored cone",
     lambda: colored_faces(table2_datum(), NOT_A_COLORED_CONE)),
    ("rendering supports rank <= 2 only", lambda: render_ascii(rank3_trop())),
    ("rendering supports rank <= 2 only", lambda: render_svg(rank3_trop())),
], ids=["facewise-invalid-fan", "grobner-invalid-fan", "compare-ranks-differ",
        "colored-faces-invalid-cone", "ascii-rank-3", "svg-rank-3"])
def test_a_refused_mathematical_input_raises_domain_error(message, call):
    """Well-formed input that the mathematics refuses raises ``DomainError``,
    a ``ValueError`` that is not an ``InputError``: the CLI exits 1 on it."""
    with pytest.raises(DomainError, match=message) as info:
        call()
    assert isinstance(info.value, ValueError)
    assert not isinstance(info.value, InputError)
