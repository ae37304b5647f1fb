import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphtrop import spherical
from sphtrop.examples import all_fans, p1xp1, table2_datum
from sphtrop.linalg import fraction_rows
from sphtrop.polyhedra import CONE_CACHE_SIZE, Cone
from sphtrop.spherical import (
    FAN_CACHE_SIZE,
    Color,
    ColoredCone,
    ColoredFan,
    SphericalDatum,
    ValidationReport,
    colored_faces,
    relint_meets_valuation_cone,
    validate_colored_cone,
    validate_colored_fan,
)
from test_polyhedra import (_facet_separates, dd_relints_overlap,
                            mixed_cones, rows)


def test_builtin_corpus_is_valid_and_strict():
    for name, datum, fan, _ in all_fans():
        report = validate_colored_fan(datum, fan, require_strict=True)
        assert report.ok, (name, report.failures)
        assert report.strictly_convex


def test_color_outside_cone_fails_rho_containment():
    datum = table2_datum()
    cc = ColoredCone(Cone.from_generators([(1, 0), (1, 1)], 2), {"D"})
    report = validate_colored_cone(datum, cc)
    assert "rho-containment" in report.failures


def test_generation_failure():
    # interior meets V, but V-part and colors generate only a ray
    datum = SphericalDatum(2, Cone.from_generators([(1, 1)], 2), ())
    cc = ColoredCone(Cone.from_generators([(1, 0), (0, 1)], 2))
    report = validate_colored_cone(datum, cc)
    assert report.failures == ["generation"]


def test_interior_misses_valuation_cone():
    datum, _ = p1xp1()
    cc = ColoredCone(Cone.from_generators([(-1,)], 1))
    report = validate_colored_cone(datum, cc)
    assert "interior-meets-V" in report.failures


def test_strict_convexity_reported_separately():
    datum = table2_datum()
    halfplane = ColoredCone(datum.valuation_cone)
    report = validate_colored_cone(datum, halfplane)
    assert report.ok
    assert report.strictly_convex is False
    fan = ColoredFan((ColoredCone(Cone.zero(2)), halfplane))
    assert not validate_colored_fan(datum, fan, require_strict=True).ok


def test_colored_faces_drop_faces_outside_v():
    datum = table2_datum()
    cc = ColoredCone(Cone.from_generators([(-1, 1), (1, 0)], 2), {"D"})
    faces = colored_faces(datum, cc)
    keys = {f.cone.canonical_key(): sorted(f.colors) for f in faces}
    # the colored ray (-1,1) is a polyhedral face but misses V
    assert Cone.from_generators([(-1, 1)], 2).canonical_key() not in keys
    assert keys[cc.cone.canonical_key()] == ["D"]
    assert keys[Cone.zero(2).canonical_key()] == []
    assert len(faces) == 3


def test_colored_faces_of_invalid_cone_raises():
    datum = table2_datum()
    cc = ColoredCone(Cone.from_generators([(1, 0), (1, 1)], 2), {"D"})
    with pytest.raises(ValueError, match="rho-containment"):
        colored_faces(datum, cc)


def test_face_closure_violation():
    datum = table2_datum()
    fan = ColoredFan((ColoredCone(Cone.zero(2)),
                      ColoredCone(Cone.from_generators([(1, 0), (1, 1)], 2))))
    report = validate_colored_fan(datum, fan)
    assert any(f.startswith("face-closure") for f in report.failures)
    # cone vectors are printed as Fraction tuples, as in recorded reports
    assert report.failures[0] == ("face-closure: missing face "
                                  "((Fraction(1, 1), Fraction(0, 1)),) "
                                  "with colors []")


def test_face_closure_reports_each_missing_face_once():
    # the shared ray (1,1) and the zero cone are faces of both members
    datum = SphericalDatum(2, Cone.from_inequalities([], 2), ())
    fan = ColoredFan((ColoredCone(Cone.from_generators([(1, 0), (1, 1)], 2)),
                      ColoredCone(Cone.from_generators([(1, 1), (0, 1)], 2))))
    failures = validate_colored_fan(datum, fan).failures
    assert len(failures) == len(set(failures)) == 4
    assert all(f.startswith("face-closure: missing face") for f in failures)


def test_relint_overlap_detected():
    datum = table2_datum()
    a = ColoredCone(Cone.from_generators([(1, 0), (1, 1)], 2))
    b = ColoredCone(Cone.from_generators([(1, 0), (2, 1)], 2))
    fan = ColoredFan((ColoredCone(Cone.zero(2)),
                      ColoredCone(Cone.from_generators([(1, 0)], 2)),
                      ColoredCone(Cone.from_generators([(1, 1)], 2)),
                      ColoredCone(Cone.from_generators([(2, 1)], 2)),
                      a, b))
    report = validate_colored_fan(datum, fan)
    assert any(f.startswith("interior-overlap") for f in report.failures)
    assert report.failures[0] == (
        "interior-overlap: cones ((Fraction(2, 1), Fraction(1, 1)),) and "
        "((Fraction(1, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(1, 1)))"
        " share relative-interior points inside V")


def test_same_cone_different_colors_rejected():
    datum, _ = p1xp1()
    # force colors onto the ray: invalid anyway, but the duplicate is flagged
    ray = Cone.from_generators([(1,)], 1)
    fan = ColoredFan((ColoredCone(Cone.zero(1)), ColoredCone(ray),
                      ColoredCone(ray, {"D1"})))
    report = validate_colored_fan(datum, fan)
    assert any("duplicate" in f for f in report.failures)


def test_a_repeated_member_is_reported_with_or_without_its_colors():
    datum = table2_datum()
    zero = ColoredCone(Cone.zero(2))
    ray = ColoredCone(Cone.from_generators([(-1, 1)], 2), {"D"})
    for repeat, reported in [(ray, "the same"),
                             (ColoredCone(ray.cone), "different")]:
        fan = ColoredFan((zero, ray, repeat))
        failures = validate_colored_fan(datum, fan).failures
        assert f"interior-overlap: duplicate cone with {reported} colors" in (
            failures)
        assert failures == unmemoised_validate_colored_fan(
            datum, fan).failures


def test_unknown_color_raises():
    datum, _ = p1xp1()
    with pytest.raises(KeyError):
        validate_colored_cone(
            datum, ColoredCone(Cone.from_generators([(1,)], 1), {"X"}))


def test_datum_invariants():
    with pytest.raises(ValueError):
        SphericalDatum(2, Cone.full_space(1), ())
    with pytest.raises(ValueError):
        SphericalDatum(1, Cone.full_space(1),
                       (Color("D", (1,)), Color("D", (-1,))))


# -- the validation memos against the former unmemoised bodies --------------

def unmemoised_validate_colored_cone(datum: SphericalDatum, cc: ColoredCone,
                                     ) -> ValidationReport:
    """Check the colored-cone axioms; strict convexity is reported separately."""
    sigma = cc.cone
    if sigma.ambient_dim != datum.rank:
        raise ValueError("cone ambient dimension must equal the rank")
    rho_images = [datum.color(name).rho for name in sorted(cc.colors)]

    failures = []
    if not all(sigma.contains(r) for r in rho_images):
        failures.append("rho-containment")
    meet = sigma.intersect(datum.valuation_cone)
    generated = Cone.from_generators(
        list(rho_images) + list(meet.generators), datum.rank)
    if generated != sigma:
        failures.append("generation")
    if not sigma.relint_contains(meet.relint_point()):
        failures.append("interior-meets-V")
    strictly_convex = (sigma.is_strictly_convex()
                       and all(any(x != 0 for x in r) for r in rho_images))
    return ValidationReport(ok=not failures, failures=failures,
                            strictly_convex=strictly_convex)


def unmemoised_colored_faces(datum: SphericalDatum, cc: ColoredCone
                             ) -> list[ColoredCone]:
    """``colored_faces`` of a colored cone already known to be valid."""
    out = []
    for tau in cc.cone.faces():
        if not relint_meets_valuation_cone(datum, tau):
            continue
        inherited = frozenset(
            name for name in cc.colors
            if tau.contains(datum.color(name).rho))
        out.append(ColoredCone(tau, inherited))
    return out


def unmemoised_validate_colored_fan(datum: SphericalDatum, fan: ColoredFan,
                                    require_strict: bool = False
                                    ) -> ValidationReport:
    """Face closure, relint disjointness inside V, and optional strictness."""
    failures: list[str] = []
    strict = True
    valid_members: list[ColoredCone] = []
    for i, cc in enumerate(fan.cones):
        rep = unmemoised_validate_colored_cone(datum, cc)
        if not rep.ok:
            failures.append(f"member-invalid[{i}]: {','.join(rep.failures)}")
        else:
            valid_members.append(cc)
        if not rep.strictly_convex:
            strict = False

    # fan members, then each missing face once it has been reported
    seen = {(cc.cone.canonical_key(), cc.colors) for cc in fan.cones}
    for cc in valid_members:
        for face in unmemoised_colored_faces(datum, cc):
            key = (face.cone.canonical_key(), face.colors)
            if key not in seen:
                seen.add(key)
                failures.append(
                    "face-closure: missing face "
                    f"{fraction_rows(face.cone.rays)} "
                    f"with colors {sorted(face.colors)}")

    for i, a in enumerate(fan.cones):
        for b in fan.cones[i + 1:]:
            if a.cone == b.cone:
                failures.append("interior-overlap: duplicate cone with "
                                + ("the same" if a.colors == b.colors
                                   else "different") + " colors")
                continue
            # a facet of one cone that separates the pair needs no sweep
            if (_facet_separates(a.cone, b.cone)
                    or _facet_separates(b.cone, a.cone)):
                continue
            meet = a.cone.intersect(b.cone).intersect(datum.valuation_cone)
            y = meet.relint_point()
            if a.cone.relint_contains(y) and b.cone.relint_contains(y):
                failures.append(
                    f"interior-overlap: cones {fraction_rows(a.cone.rays)} "
                    f"and {fraction_rows(b.cone.rays)} share "
                    "relative-interior points inside V")

    if require_strict and not strict:
        failures.append("strict-convexity")
    return ValidationReport(ok=not failures, failures=failures,
                            strictly_convex=strict)


def swept_maximal_cones(fan: ColoredFan) -> list[ColoredCone]:
    """The members that no member strictly contains, with tau inside sigma
    decided by one sweep of the joined systems: the meet is tau."""
    def strictly_inside(tau: Cone, sigma: Cone) -> bool:
        meet = Cone.from_inequalities(
            sigma.inequalities + tau.inequalities, tau.ambient_dim,
            sigma.equations + tau.equations)
        return meet == tau and meet != sigma
    return [cc for cc in fan.cones
            if not any(strictly_inside(cc.cone, o.cone) for o in fan.cones)]


@st.composite
def data_and_collections(draw):
    """A datum of rank 1-3 and a collection of colored cones: often the
    faces of a few cones with inherited colors (a valid fan or close to
    one), else random cones with random colors, with repeats, nested cones
    of one dimension and a cone of the same span as another.  In rank 3 a
    cone over a quadrilateral often comes with the span of two opposite
    rays of it, which is no face of it."""
    rank = draw(st.integers(1, 3))
    if draw(st.booleans()):
        valuation_cone = Cone.full_space(rank)
    else:
        valuation_cone = Cone.from_generators(draw(rows(rank, 4)), rank)
    palette = tuple(Color(f"D{i}", rho)
                    for i, rho in enumerate(draw(rows(rank, 3))))
    datum = SphericalDatum(rank, valuation_cone, palette)
    names = [c.name for c in palette]
    tops = [ColoredCone(Cone.from_generators(draw(rows(rank, 4)), rank),
                        draw(st.frozensets(st.sampled_from(names))
                             if names else st.just(frozenset())))
            for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        members = {}
        for top in tops:
            for tau in top.cone.faces():
                colors = frozenset(n for n in top.colors
                                   if tau.contains(datum.color(n).rho))
                members.setdefault((tau, colors), ColoredCone(tau, colors))
        cones = list(members.values())
    else:
        cones = list(tops)
        # a cone inside another, mostly of the same dimension: a quadrant
        # in a half-plane, or the first ray traded for sums with the others
        outer = tops[0].cone
        if outer.lineality:
            inner = outer.rays + outer.lineality
        else:
            inner = outer.rays[1:] + tuple(
                tuple(2 * x + y for x, y in zip(outer.rays[0], r))
                for r in outer.rays[1:])
        cones.append(ColoredCone(Cone.from_generators(inner, rank)))
        cones += draw(st.lists(st.sampled_from(tops), max_size=2))
    if rank == 3 and draw(st.booleans()):
        # a cone over a quadrilateral and the span of two opposite rays of
        # it, with the colors it would inherit: a member whose rays are
        # rays of another member but form no face of it
        a, b, c, d = draw(st.tuples(*[st.integers(1, 3)] * 4))
        corners = [(a, 0, 1), (0, b, 1), (-c, 0, 1), (0, -d, 1)]
        top = ColoredCone(Cone.from_generators(corners, rank),
                          draw(st.frozensets(st.sampled_from(names))
                               if names else st.just(frozenset())))
        k = draw(st.integers(0, 1))
        diagonal = Cone.from_generators([corners[k], corners[k + 2]], rank)
        cones += [top, ColoredCone(diagonal, frozenset(
            n for n in top.colors if diagonal.contains(datum.color(n).rho)))]
    return datum, ColoredFan(tuple(draw(st.permutations(cones))))


@settings(max_examples=150, deadline=None)
@given(data_and_collections(), st.booleans())
def test_property_memo_gives_the_unmemoised_report(case, require_strict):
    datum, fan = case
    spherical._validate_fan.cache_clear()
    oracle = unmemoised_validate_colored_fan(datum, fan, require_strict)
    for _ in range(2):  # a miss, then a hit
        report = validate_colored_fan(datum, fan, require_strict)
        assert report == oracle
        assert type(report.failures) is list


@settings(max_examples=150, deadline=None)
@given(data_and_collections())
def test_property_maximal_cones_are_the_former_loop(case):
    _, fan = case
    assert list(map(id, fan.maximal_cones())) == list(
        map(id, swept_maximal_cones(fan)))


def test_maximal_cones_keep_a_same_dimension_container():
    quadrant = ColoredCone(Cone.from_generators([(1, 0), (0, 1)], 2))
    halfplane = ColoredCone(Cone.from_generators([(1, 0), (-1, 0), (0, 1)],
                                                 2))
    ray = ColoredCone(Cone.from_generators([(1, 1)], 2))
    fan = ColoredFan((quadrant, ray, halfplane))
    assert fan.maximal_cones() == [halfplane]


def test_mutating_a_report_leaves_the_next_one_unchanged():
    datum = table2_datum()
    fan = ColoredFan((ColoredCone(Cone.zero(2)),
                      ColoredCone(Cone.from_generators([(1, 0), (1, 1)], 2))))
    first = validate_colored_fan(datum, fan)
    expected = list(first.failures)
    first.failures.append("tampered")
    first.failures[0] = "tampered"
    second = validate_colored_fan(datum, fan)
    assert second.failures == expected
    assert second.failures is not first.failures
    second.failures.clear()
    assert validate_colored_fan(datum, fan).failures == expected


def test_memo_is_bounded_and_rebuilds_what_it_evicted():
    datum = SphericalDatum(2, Cone.full_space(2), ())
    fans = [ColoredFan((ColoredCone(Cone.zero(2)),
                        ColoredCone(Cone.from_generators([(1, k)], 2))))
            for k in range(FAN_CACHE_SIZE + 5)]
    info = spherical._validate_fan.cache_info
    assert info().maxsize == FAN_CACHE_SIZE
    first = validate_colored_fan(datum, fans[0])
    for fan in fans[1:]:
        validate_colored_fan(datum, fan)
        assert info().currsize <= FAN_CACHE_SIZE
    assert info().currsize == FAN_CACHE_SIZE
    misses = info().misses
    again = validate_colored_fan(datum, fans[0])
    assert info().misses == misses + 1
    assert again == first == unmemoised_validate_colored_fan(datum, fans[0])
    assert again.ok
    # require_strict is applied per call: asked both ways, a fan whose line
    # is not strictly convex is one miss and then one hit
    line = ColoredFan((ColoredCone(Cone.from_generators([(1, 0), (-1, 0)],
                                                        2)),))
    before = info()
    for require_strict in (True, False):
        assert (validate_colored_fan(datum, line, require_strict)
                == unmemoised_validate_colored_fan(datum, line,
                                                   require_strict))
    assert (info().misses, info().hits) == (before.misses + 1, before.hits + 1)
    assert validate_colored_fan(datum, line, True).failures == [
        "strict-convexity"]


def test_a_cone_of_the_wrong_dimension_raises_on_every_call():
    datum = table2_datum()
    fan = ColoredFan((ColoredCone(Cone.zero(3)),))
    for _ in range(3):
        with pytest.raises(ValueError, match="ambient dimension"):
            validate_colored_fan(datum, fan)


@settings(max_examples=150, deadline=None)
@given(data_and_collections())
def test_property_cone_memos_give_the_unmemoised_verdict_and_faces(case):
    datum, fan = case
    spherical._cone_record.cache_clear()
    for cc in fan.cones:
        oracle = unmemoised_validate_colored_cone(datum, cc)
        faces = unmemoised_colored_faces(datum, cc) if oracle.ok else None
        for _ in range(2):  # a miss, then a hit (a repeated member: two hits)
            report = validate_colored_cone(datum, cc)
            assert report == oracle
            assert type(report.failures) is list
            if oracle.ok:
                assert colored_faces(datum, cc) == faces
            else:
                with pytest.raises(ValueError, match="invalid colored cone"):
                    colored_faces(datum, cc)
    # one record per distinct cone serves both calls
    info = spherical._cone_record.cache_info()
    assert info.misses == len(set(fan.cones))
    assert info.hits >= len(fan.cones)


def test_mutating_a_cone_report_or_face_list_leaves_the_next_one_unchanged():
    datum = table2_datum()
    cc = ColoredCone(Cone.from_generators([(-1, 1), (1, 0)], 2), {"D"})
    bad = ColoredCone(Cone.from_generators([(1, 0), (1, 1)], 2), {"D"})
    faces = colored_faces(datum, cc)
    expected = list(faces)
    faces.pop()
    faces.append(ColoredCone(Cone.zero(2), {"D"}))
    assert colored_faces(datum, cc) == expected
    assert colored_faces(datum, cc) is not colored_faces(datum, cc)
    report = validate_colored_cone(datum, bad)
    failures = list(report.failures)
    report.failures.clear()
    report.ok = True
    again = validate_colored_cone(datum, bad)
    assert again.failures == failures
    assert "rho-containment" in failures and not again.ok


def test_a_cone_of_the_wrong_rank_raises_on_every_call():
    datum = table2_datum()
    cc = ColoredCone(Cone.from_generators([(1, 0, 0)], 3))
    before = spherical._cone_record.cache_info()
    for _ in range(3):
        with pytest.raises(ValueError, match="ambient dimension"):
            validate_colored_cone(datum, cc)
        with pytest.raises(ValueError, match="ambient dimension"):
            colored_faces(datum, cc)
    # raised before the memo was asked
    assert spherical._cone_record.cache_info() == before


@pytest.mark.parametrize("call, oracle", [
    (validate_colored_cone, unmemoised_validate_colored_cone),
    (colored_faces, unmemoised_colored_faces),
], ids=["validate_cone", "colored_faces"])
def test_each_cone_memo_is_bounded_and_rebuilds_what_it_evicted(call, oracle):
    datum = SphericalDatum(2, Cone.full_space(2), (Color("D", (1, 0)),))
    cones = [ColoredCone(Cone.from_generators([(1, 0), (k, 1)], 2), {"D"})
             for k in range(CONE_CACHE_SIZE + 5)]
    info = spherical._cone_record.cache_info
    assert info().maxsize == CONE_CACHE_SIZE
    spherical._cone_record.cache_clear()
    first = call(datum, cones[0])
    for cc in cones[1:]:
        call(datum, cc)
        assert info().currsize <= CONE_CACHE_SIZE
    assert info().currsize == CONE_CACHE_SIZE
    misses = info().misses
    again = call(datum, cones[0])
    assert info().misses == misses + 1
    assert again == first == oracle(datum, cones[0])
    assert unmemoised_validate_colored_cone(datum, cones[0]).ok


# -- separated pairs: sound, the former verdicts, and complete on arrangements


def certified_pairs(cones) -> set[tuple[int, int]]:
    """The index pairs i < j that a row of some member separates."""
    apart = spherical._separated(cones)
    return {(i, j) for i, j in itertools.combinations(range(len(cones)), 2)
            if apart[i] >> j & 1}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.lists(mixed_cones(d), min_size=2, max_size=5),
    st.one_of(st.just(Cone.full_space(d)), mixed_cones(d)))))
def test_property_certified_pairs_never_overlap(case):
    """Sound, symmetric, and certain of every pair a facet of either
    member separates."""
    cones, v = case
    apart = spherical._separated(cones)
    for (i, a), (j, b) in itertools.product(enumerate(cones), repeat=2):
        if apart[i] >> j & 1:
            assert apart[j] >> i & 1
            assert a != b
            assert not dd_relints_overlap(a, b, v)
        else:
            assert not _facet_separates(a, b)


@st.composite
def arrangement_fans(draw, spoilt=None):
    """The complete fan cut out by 0-3 nonzero hyperplanes in rank 1-4, in
    general position or not, with an empty palette and V the full space.
    When spoilt, V may be a random cone and the fan is spoilt on purpose:
    a member repeated ("duplicate"), a member grown by one vector added
    ("overlap"), or a member that is not full-dimensional dropped
    ("missing")."""
    rank = draw(st.integers(1, 4))
    normals = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * rank).filter(any),
                            max_size=3 if rank > 1 else 2))
    cones = {}
    for signs in itertools.product((-1, 0, 1), repeat=len(normals)):
        ineqs = []
        for s, h in zip(signs, normals):
            ineqs += ([h, tuple(-x for x in h)] if s == 0
                      else [tuple(s * x for x in h)])
        cone = Cone.from_inequalities(ineqs, rank)
        cones.setdefault(cone, ColoredCone(cone))
    members = draw(st.permutations(list(cones.values())))
    valuation_cone = Cone.full_space(rank)
    if spoilt and draw(st.booleans()):
        valuation_cone = Cone.from_generators(draw(rows(rank, 4)), rank)
    if spoilt == "duplicate":
        members.insert(draw(st.integers(0, len(members))),
                       draw(st.sampled_from(members)))
    elif spoilt == "overlap":
        a = draw(st.sampled_from(members)).cone
        w = draw(st.tuples(*[st.integers(-2, 2)] * rank))
        members.append(ColoredCone(Cone.from_generators(
            a.generators + (w,), rank)))
    elif spoilt == "missing":
        faces = [cc for cc in members if cc.cone.dim() < rank]
        if faces:
            members.remove(draw(st.sampled_from(faces)))
    return SphericalDatum(rank, valuation_cone, ()), ColoredFan(tuple(members))


@pytest.mark.parametrize("spoilt", [None, "duplicate", "overlap", "missing"])
@settings(max_examples=60, deadline=None)
@given(data=st.data(), require_strict=st.booleans())
def test_property_fan_verdict_is_the_former_pairwise_pass(spoilt, data,
                                                          require_strict):
    datum, fan = data.draw(arrangement_fans(spoilt))
    spherical._validate_fan.cache_clear()
    report = validate_colored_fan(datum, fan, require_strict)
    assert report == unmemoised_validate_colored_fan(datum, fan,
                                                     require_strict)


@settings(max_examples=100, deadline=None)
@given(arrangement_fans())
def test_property_arrangement_fans_certify_every_pair(case):
    datum, fan = case
    assert validate_colored_fan(datum, fan).ok
    n = len(fan.cones)
    assert certified_pairs([cc.cone for cc in fan.cones]) == set(
        itertools.combinations(range(n), 2))
    assert list(map(id, fan.maximal_cones())) == list(
        map(id, swept_maximal_cones(fan)))
