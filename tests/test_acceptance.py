"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All comparisons are exact (rational arithmetic); there are no tolerances.
"""

import itertools
import random
import sys
from fractions import Fraction as F

import pytest

from sphtrop.examples import all_fans, e3_polynomial, table1_datum, table1_fans, \
    table2_datum, table2_fans
from sphtrop.fundthm import (
    WitnessPoint,
    check_equivalence,
    membership_set1,
    membership_set2,
    trop_hypersurface,
)
from sphtrop.grobtrop import compare_tropicalizations, grobner_tropicalize_embedding
from sphtrop.polyhedra import Cone
from sphtrop.puiseux import INF, PuiseuxScalar, ValuedPolynomial
from sphtrop.spherical import (
    Color,
    ColoredCone,
    ColoredFan,
    SphericalDatum,
    colored_faces,
    validate_colored_cone,
    validate_colored_fan,
)
from sphtrop.troposphere import evaluate_point, limit_point, tropicalize_embedding
from test_linalg import vadd, vscale


VERDICTS: list[str] = []


def report(criterion: str, ok: bool):
    verdict = "PASS" if ok else "FAIL"
    line = f"[{verdict}] {criterion}"
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, criterion


def strata_shapes(datum, fan):
    t = tropicalize_embedding(datum, fan)
    return sorted(((s.quotient_dim, tuple(sorted(s.labels)))
                   for s in t.strata.values()), reverse=True)


def test_criterion_1_table1_reproduction():
    datum = table1_datum()
    ok = True
    for name, (fan, expected) in table1_fans().items():
        want = sorted(((d, tuple(c)) for d, c in expected), reverse=True)
        ok = ok and strata_shapes(datum, fan) == want
    report("criterion 1: rank-1 table strata, dimensions, and colors", ok)


def test_criterion_2_table2_reproduction():
    datum = table2_datum()
    ok = True
    for name, (fan, expected) in table2_fans().items():
        want = sorted(((d, tuple(c)) for d, c in expected), reverse=True)
        ok = ok and strata_shapes(datum, fan) == want
    report("criterion 2: rank-2 table strata, dimensions, and colors", ok)


def test_criterion_3_e3_values():
    f = e3_polynomial()
    w1, w2 = (F(-2), F(0)), (F(0), F(2))
    ok = (f.trop_eval(w1) == -4
          and str(f.initial_form(w1)) == "-6*x1^2 + 4*x1*x2"
          and f.trop_eval(w2) == -1
          and str(f.initial_form(w2)) == "x1"
          and membership_set1(f, w1) and membership_set2(f, w1)
          and not membership_set1(f, w2) and not membership_set2(f, w2))
    report("criterion 3: worked tropical polynomial values and verdicts", ok)


def random_polynomial(rng, m):
    nterms = rng.randint(2, 6)
    coeffs = {}
    for _ in range(nterms):
        u = tuple(rng.randint(-3, 3) for _ in range(m))
        terms = []
        for _ in range(rng.randint(1, 3)):
            exp = F(rng.randint(-4, 8), rng.choice([1, 2]))
            terms.append((exp, F(rng.randint(-5, 5))))
        s = PuiseuxScalar.from_terms(
            (e, c) for e, c in terms if c != 0)
        if s:
            coeffs[u] = s
    if len(coeffs) < 2:
        return None
    return ValuedPolynomial.from_dict(m, coeffs, laurent=True)


def sample_grid(m):
    base = [F(-1), F(-1, 2), F(0), F(1, 2), F(1)] if m <= 2 \
        else [F(-1), F(0), F(1)]
    return list(itertools.product(base, repeat=m))


def random_corpus(seed=20260823, count=500):
    rng = random.Random(seed)
    polys = []
    while len(polys) < count:
        f = random_polynomial(rng, rng.randint(1, 3))
        if f is not None:
            polys.append(f)
    return polys


@pytest.fixture(scope="module")
def corpus():
    return random_corpus()


def test_criterion_4_fundamental_theorem_equivalence(corpus):
    ok = True
    for f in corpus:
        grid = sample_grid(f.nvars)
        cx = trop_hypersurface(f)
        for w in grid:
            if cx.contains(w) != membership_set2(f, w):
                ok = False
    report("criterion 4: min-twice locus matches the initial-form "
           "criterion on 500 random polynomials", ok)


def test_criterion_5_initial_form_definitions_agree(corpus):
    ok = True
    for f in corpus:
        for w in sample_grid(f.nvars)[::3]:
            if f.initial_form(w) != f.initial_form_substitution(w):
                ok = False
    report("criterion 5: both initial-form definitions coincide at "
           "finite weights", ok)


def random_datum(rng, m):
    k = rng.randint(0, m + 1)
    vgens = [tuple(F(rng.randint(-2, 2)) for _ in range(m)) for _ in range(k)]
    valuation = Cone.from_generators(vgens, m)
    palette = []
    for i in range(rng.randint(0, 3)):
        rho = tuple(F(rng.randint(-2, 2)) for _ in range(m))
        if any(x != 0 for x in rho):
            palette.append(Color(f"D{i}", rho))
    return SphericalDatum(m, valuation, tuple(palette))


def random_colored_cone(rng, datum):
    """Cone generated by points of V plus color images: generation holds
    by construction, so only the interior condition needs filtering."""
    m = datum.rank
    vgens = list(datum.valuation_cone.generators)
    gens = []
    for _ in range(rng.randint(1, m + 1)):
        if not vgens:
            break
        pt = (F(0),) * m
        for g in vgens:
            pt = vadd(pt, vscale(F(rng.randint(0, 2)), g))
        if any(x != 0 for x in pt):
            gens.append(pt)
    colors = frozenset(c.name for c in datum.palette if rng.random() < 0.4)
    gens.extend(datum.color(n).rho for n in colors)
    cone = Cone.from_generators(gens, m)
    cc = ColoredCone(cone, colors)
    if not validate_colored_cone(datum, cc).ok:
        return None
    return cc


def random_valid_fans(seed=987, count=100):
    rng = random.Random(seed)
    fans = []
    while len(fans) < count:
        datum = random_datum(rng, rng.randint(1, 3))
        cc = random_colored_cone(rng, datum)
        if cc is None:
            continue
        members = {(f.cone.canonical_key(), f.colors): f
                   for f in colored_faces(datum, cc)}
        other = random_colored_cone(rng, datum)
        if other is not None and rng.random() < 0.5:
            for f in colored_faces(datum, other):
                members.setdefault((f.cone.canonical_key(), f.colors), f)
        fan = ColoredFan(tuple(members.values()))
        if validate_colored_fan(datum, fan).ok:
            fans.append((datum, fan))
    return fans


def test_criterion_6_grobner_equals_facewise():
    ok = True
    cases = [(d, fan) for _, d, fan, _ in all_fans()]
    cases += random_valid_fans()
    for datum, fan in cases:
        facewise = tropicalize_embedding(datum, fan)
        grobner = grobner_tropicalize_embedding(datum, fan)
        if not compare_tropicalizations(facewise, grobner).equal:
            ok = False
    report(f"criterion 6: Groebner-side and face-wise tropicalizations "
           f"agree on {len(cases)} fans", ok)


def test_criterion_7_convergence():
    ok = True
    for name, datum, fan, _ in all_fans():
        t = tropicalize_embedding(datum, fan)
        vgens = datum.valuation_cone.generators
        ws = set()
        for coeffs in itertools.product([F(0), F(1), F(2)],
                                        repeat=min(len(vgens), 2)):
            w = (F(0),) * datum.rank
            for c, g in zip(coeffs, vgens):
                w = vadd(w, vscale(c, g))
            ws.add(w)
        for cc in fan.maximal_cones():
            dual_gens = cc.cone.dual().generators
            for face in colored_faces(datum, cc):
                tau = face.cone
                r = tau.intersect(datum.valuation_cone).relint_point()
                for w in ws:
                    p = limit_point(t, w, tau)
                    for u in dual_gens:
                        limit = evaluate_point(p, u)
                        vals = [sum(a * b for a, b in zip(
                                    u, vadd(w, vscale(F(n), r))))
                                for n in range(1, 51)]
                        if limit is INF:
                            if not all(b > a for a, b in
                                       zip(vals, vals[1:])):
                                ok = False
                        elif not all(v == limit for v in vals):
                            ok = False
    report("criterion 7: evaluations along interior rays converge to the "
           "boundary stratum value", ok)


# -- criterion 8: independent classical toric oracle ----------------------

def _row_reduce_rank(rows):
    """Plain Gaussian elimination, written independently of the library."""
    mat = [list(r) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = None
        for i in range(rank, len(mat)):
            if mat[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][c] != 0:
                ratio = mat[i][c] / mat[rank][c]
                mat[i] = [a - ratio * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def arrangement_fan(rng, m):
    """Complete fan from the sign regions of <= 3 random hyperplanes."""
    k = rng.randint(1, 3)
    normals = []
    while len(normals) < k:
        h = tuple(F(rng.randint(-2, 2)) for _ in range(m))
        if any(x != 0 for x in h):
            normals.append(h)
    cones = {}
    for signs in itertools.product((-1, 0, 1), repeat=k):
        ineqs = []
        for s, h in zip(signs, normals):
            if s == 0:
                ineqs.append(h)
                ineqs.append(tuple(-x for x in h))
            else:
                ineqs.append(tuple(s * x for x in h))
        cone = Cone.from_inequalities(ineqs, m)
        cones[cone.canonical_key()] = cone
    return list(cones.values())


def test_criterion_8_toric_consistency():
    rng = random.Random(424242)
    ok = True
    for _ in range(20):
        m = rng.randint(1, 3)
        members = arrangement_fan(rng, m)
        datum = SphericalDatum(m, Cone.full_space(m), ())
        fan = ColoredFan(tuple(ColoredCone(c) for c in members))
        if not validate_colored_fan(datum, fan).ok:
            ok = False
            continue
        t = tropicalize_embedding(datum, fan)
        if len(t.strata) != len(members):
            ok = False
        for cone in members:
            # classical oracle: the stratum of a face tau is the full
            # quotient space N_Q / span(tau)
            expected_dim = m - _row_reduce_rank(cone.generators)
            key = (cone.canonical_key(), ())
            s = t.strata.get(key)
            if s is None or s.quotient_dim != expected_dim or s.labels:
                ok = False
            elif s.valuation_cone_image != Cone.full_space(expected_dim):
                ok = False
    report("criterion 8: strata of empty-palette data match the classical "
           "toric oracle on 20 random fans", ok)


def test_criterion_9_witness_containment():
    t = PuiseuxScalar.t_power(1)
    one = PuiseuxScalar.rational(1)

    def scalar(*terms):
        return PuiseuxScalar.from_terms(terms)

    cases = [
        ("x1 + x2 + 1", (t, -one - t)),
        ("x1 + x2 + 1", (-one - t * t, t * t)),
        ("x1*x2 - 1", (t, scalar((F(-1), F(1))))),
        ("x1 - x2", (one + t, one + t)),
        ("x1^2 - x2", (t, t * t)),
        ("x1^2 - x2", (one + t, (one + t) * (one + t))),
        ("x1 + x2 + t", (t, scalar((F(1), F(-2))))),
        ("2*x1 + 3*x2", (PuiseuxScalar.rational(3),
                         PuiseuxScalar.rational(-2))),
        ("x1*x2 + x1 + x2 + 1", (-one, PuiseuxScalar.rational(5))),
        ("x1^3 - t", (PuiseuxScalar.t_power(F(1, 3)),)),
    ]
    ok = True
    for text, coords in cases:
        f = ValuedPolynomial.parse(text)
        rep = check_equivalence(f, witnesses=[WitnessPoint(coords)])
        if not rep.ok:
            ok = False
    report("criterion 9: ten hand witnesses vanish exactly and their "
           "valuations lie in the computed complex", ok)
