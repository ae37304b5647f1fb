"""Exact-arithmetic colored fans and extended tropicalization of
spherical embeddings, with Puiseux-coefficient tropical polynomials."""

from .polyhedra import Cone, quotient_chart
from .puiseux import (
    INF,
    PuiseuxScalar,
    ResiduePolynomial,
    ValuedPolynomial,
    parse_weight,
)
from .spherical import (
    Color,
    ColoredCone,
    ColoredFan,
    SphericalDatum,
    ValidationReport,
    colored_faces,
    validate_colored_cone,
    validate_colored_fan,
)
from .troposphere import (
    ExtendedPoint,
    ExtendedTrop,
    Stratum,
    contains_point,
    evaluate_point,
    limit_point,
    tropicalize_embedding,
)
from .fundthm import (
    TropicalComplex,
    WitnessPoint,
    check_equivalence,
    extended_trop_sets,
    membership_set1,
    membership_set2,
    trop_hypersurface,
)
from .grobtrop import compare_tropicalizations, grobner_tropicalize_embedding

__version__ = "0.1.0"

__all__ = [
    "Cone", "quotient_chart",
    "INF", "PuiseuxScalar", "ResiduePolynomial", "ValuedPolynomial",
    "parse_weight",
    "Color", "ColoredCone", "ColoredFan", "SphericalDatum",
    "ValidationReport", "colored_faces", "validate_colored_cone",
    "validate_colored_fan",
    "ExtendedPoint", "ExtendedTrop", "Stratum", "contains_point",
    "evaluate_point", "limit_point", "tropicalize_embedding",
    "TropicalComplex", "WitnessPoint", "check_equivalence",
    "extended_trop_sets", "membership_set1", "membership_set2",
    "trop_hypersurface",
    "compare_tropicalizations", "grobner_tropicalize_embedding",
]
