import pytest

from sphtrop.examples import all_fans, p1xp1, table2_datum
from sphtrop.polyhedra import Cone
from sphtrop.spherical import (
    Color,
    ColoredCone,
    ColoredFan,
    SphericalDatum,
    colored_faces,
    validate_colored_cone,
    validate_colored_fan,
)


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


def test_face_closure_violation():
    datum = table2_datum()
    fan = ColoredFan((ColoredCone(Cone.zero(2)),
                      ColoredCone(Cone.from_generators([(1, 0), (1, 1)], 2))))
    report = validate_colored_fan(datum, fan)
    assert any(f.startswith("face-closure") for f in report.failures)


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


def test_same_cone_different_colors_rejected():
    datum, _ = p1xp1()
    # force colors onto the ray: invalid anyway, but the duplicate is flagged
    ray = Cone.from_generators([(1,)], 1)
    fan = ColoredFan((ColoredCone(Cone.zero(1)), ColoredCone(ray),
                      ColoredCone(ray, {"D1"})))
    report = validate_colored_fan(datum, fan)
    assert any("duplicate" in f for f in report.failures)


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
