from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphtrop import fundthm
from sphtrop.fundthm import (
    COMPLEX_CACHE_SIZE,
    Cell,
    TropicalComplex,
    WitnessPoint,
    check_equivalence,
    extended_trop_sets,
    membership_set1,
    membership_set2,
    trop_hypersurface,
)
from sphtrop.linalg import dot, primitive
from sphtrop.puiseux import INF, PuiseuxScalar, ValuedPolynomial
from test_polyhedra import fm_feasible

LINE = ValuedPolynomial.parse("x1 + x2 + 1", laurent=False)
E3 = ValuedPolynomial.parse(
    "2*t + (t^-1 + 3*t^3)*x1 + (7 - t^1000)*x2 - 6*x1^2 + 4*t^-2*x1*x2")


def test_tropical_line_has_three_rays():
    cx = trop_hypersurface(LINE)
    assert len(cx.cells) == 3
    assert cx.contains((F(0), F(0)))
    assert cx.contains((F(-3), F(-3)))
    assert cx.contains((F(0), F(5)))
    assert not cx.contains((F(1), F(2)))


def test_cell_constraints_are_primitive_int_rows():
    for f in (LINE, E3):
        for cell in trop_hypersurface(f).cells:
            for row in cell.equalities + cell.inequalities:
                assert all(type(x) is int for x in row)
                assert primitive(row) == row


def test_single_term_is_empty():
    cx = trop_hypersurface(ValuedPolynomial.parse("x1*x2", laurent=False))
    assert cx.cells == ()


def test_zero_polynomial_rejected():
    # on every call: the memo behind trop_hypersurface caches no exception
    for _ in range(3):
        with pytest.raises(ValueError):
            trop_hypersurface(ValuedPolynomial.zero(2, laurent=False))


def test_e3_memberships():
    assert membership_set1(E3, (F(-2), F(0)))
    assert membership_set2(E3, (F(-2), F(0)))
    assert not membership_set1(E3, (F(0), F(2)))
    assert not membership_set2(E3, (F(0), F(2)))


def test_extended_sets_of_the_line():
    sets = extended_trop_sets(LINE)
    assert len(sets[frozenset()].cells) == 3
    # x1 -> inf leaves x2 + 1: one point w2 = 0
    assert sets[frozenset({0})].contains((F(0),))
    assert not sets[frozenset({0})].contains((F(1),))
    # both infinite leaves the constant 1: empty
    assert sets[frozenset({0, 1})].cells == ()


def test_extended_membership_consistency():
    for w in [(INF, F(0)), (F(0), INF), (INF, INF), (F(0), F(0))]:
        assert membership_set1(LINE, w) == membership_set2(LINE, w)


def test_whole_stratum_when_restriction_vanishes():
    f = ValuedPolynomial.parse("x1*x2 + x1", laurent=False)
    sets = extended_trop_sets(f)
    assert sets[frozenset({0})].contains((F(17),))


def test_witness_check():
    t = PuiseuxScalar.t_power(1)
    witness = WitnessPoint((t, -PuiseuxScalar.rational(1) - t))
    report = check_equivalence(LINE, samples=[(F(0), F(0)), (F(2), F(2))],
                               witnesses=[witness])
    assert report.ok
    assert report.witnesses[0].valuations == (F(1), F(0))
    assert report.samples[0].in_complex
    assert not report.samples[1].in_complex


def test_nonzero_witness_coordinates_required():
    with pytest.raises(ValueError):
        WitnessPoint((PuiseuxScalar.zero(),))


def test_report_json():
    report = check_equivalence(LINE, samples=[(INF, F(0))])
    data = report.to_json()
    assert data["ok"] and data["samples"][0]["weight"] == ["inf", "0"]


# -- oracles: the Fraction formulas the integer paths replaced -------------


def fraction_cell_contains(cell, w):
    return (all(dot(h[:-1], w) == h[-1] for h in cell.equalities)
            and all(dot(h[:-1], w) >= h[-1] for h in cell.inequalities))


def fraction_trop_hypersurface(f):
    if f.is_zero():
        raise ValueError("tropical hypersurface of the zero polynomial")
    terms = [(u, c.valuation()) for u, c in f.terms]
    m = f.nvars
    cells = []
    seen = set()
    for i in range(len(terms)):
        ui, ci = terms[i]
        for j in range(i + 1, len(terms)):
            uj, cj = terms[j]
            eq = primitive(
                (*[a - b for a, b in zip(ui, uj)], cj - ci), fix_sign=True)
            ineqs = tuple(sorted(
                primitive((*[a - b for a, b in zip(uk, ui)], ci - ck))
                for k, (uk, ck) in enumerate(terms) if k not in (i, j)))
            cell = Cell(m, (eq,), ineqs)
            key = (cell.equalities, cell.inequalities)
            if key in seen:
                continue
            seen.add(key)
            if not fm_empty(cell):
                cells.append(cell)
    return TropicalComplex(m, tuple(cells))


RATIONALS = st.builds(F, st.integers(-12, 12), st.integers(1, 6))


@st.composite
def valued_polynomials(draw):
    """Ordinary polynomials in 1-3 variables with fractional valuations."""
    m = draw(st.integers(1, 3))
    exponents = draw(st.lists(st.tuples(*[st.integers(0, 3)] * m),
                              min_size=2, max_size=6, unique=True))
    coeffs = {}
    for u in exponents:
        v = draw(RATIONALS)
        c = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
        coeffs[u] = PuiseuxScalar.from_terms([(v, c), (v + 1, 1)])
    return ValuedPolynomial.from_dict(m, coeffs, laurent=False)


def on_hyperplane(w, row):
    """w moved along one coordinate onto {x : c.x = r}, for row (c, r)."""
    *c, r = row
    k = next(i for i, a in enumerate(c) if a)
    w = list(w)
    w[k] = F(r - sum(a * x for i, (a, x) in enumerate(zip(c, w)) if i != k),
             c[k])
    return tuple(w)


@st.composite
def complexes_and_weights(draw):
    """A hypersurface complex and weights: random (denominators 1-6) and
    moved onto the equality of a random cell, where the inequalities decide."""
    f = draw(valued_polynomials())
    cx = trop_hypersurface(f)
    weights = draw(st.lists(st.tuples(*[RATIONALS] * f.nvars),
                            min_size=1, max_size=4))
    if cx.cells:
        cells = draw(st.lists(st.sampled_from(cx.cells), max_size=4))
        weights += [on_hyperplane(w, cell.equalities[0])
                    for w, cell in zip(weights * 4, cells)]
    return cx, weights


@settings(max_examples=150, deadline=None)
@given(complexes_and_weights())
def test_property_cell_tests_agree_with_fraction_dots(case):
    cx, weights = case
    for w in weights:
        for cell in cx.cells:
            assert cell.contains(w) == fraction_cell_contains(cell, w)
        assert cx.contains(w) == any(fraction_cell_contains(cell, w)
                                     for cell in cx.cells)


@settings(max_examples=150, deadline=None)
@given(valued_polynomials())
def test_property_integer_rows_give_the_fraction_cells(f):
    assert trop_hypersurface(f).cells == fraction_trop_hypersurface(f).cells


# -- the per-pair route: one emptiness test per candidate cell --------------


def fm_empty(cell):
    """Emptiness of a cell by Fourier-Motzkin elimination, not by a sweep."""
    return not fm_feasible([(h[:-1], h[-1]) for h in cell.equalities],
                           [(h[:-1], h[-1]) for h in cell.inequalities], [],
                           cell.dim)


def per_pair_complex_of(m, pairs):
    """The former ``fundthm._complex_of``: every candidate pair cell is
    tested for emptiness on its own, here by ``fm_empty``."""
    n = len(pairs)
    # row[i][k]: term k weighs at least term i.  For i < j the first nonzero
    # entry of U_i - U_j is positive, so row[j][i] is pair (i, j)'s equation
    # with its sign fixed.  Each row is built once and shared by its cells.
    row = [[primitive((*[a - b for a, b in zip(uk, ui)], ci - ck))
            if k != i else None for k, (uk, ck) in enumerate(pairs)]
           for i, (ui, ci) in enumerate(pairs)]
    cells = dict.fromkeys(
        Cell(m, (row[j][i],), tuple(sorted(
            row[i][k] for k in range(n) if k not in (i, j))))
        for i in range(n) for j in range(i + 1, n))
    return TropicalComplex(m, tuple(c for c in cells if not fm_empty(c)))


@st.composite
def tied_polynomials(draw):
    """Ordinary polynomials in 1-3 variables with 2-8 terms of degree at
    most 2 and valuations 0 or 1, so that many cells meet in ties."""
    m = draw(st.integers(1, 3))
    exponents = draw(st.lists(st.tuples(*[st.integers(0, 2)] * m),
                              min_size=2, max_size=8, unique=True))
    coeffs = {u: PuiseuxScalar.from_terms([(draw(st.integers(0, 1)), 1)])
              for u in exponents}
    return ValuedPolynomial.from_dict(m, coeffs, laurent=False)


@settings(max_examples=150, deadline=None)
@given(st.one_of(valued_polynomials(), tied_polynomials()))
# Collinear exponents: two rows of a cell of the first share the coefficients
# (-1, 0).  The Newton polytopes of the other two are not full-dimensional,
# so the region where one term is minimal has lineality.
@example(ValuedPolynomial.parse("1 + x1 + t^2*x1^2 + x2", laurent=False))
@example(ValuedPolynomial.parse("x1*x2 + t*x1^2*x2^2 + 1", laurent=False))
@example(ValuedPolynomial.parse("1 + x1*x2*x3 + t^3*x1^2*x2^2*x3^2 + t*x2",
                                laurent=False))
def test_property_per_term_sweeps_give_the_per_pair_cells(f):
    """On every orbit restriction, the complex read off one sweep per term
    holds the cells of one test per pair, in the same order."""
    for sigma, cx in extended_trop_sets(f).items():
        g = f.restrict_to_orbit(sigma) if sigma else f
        if not g.is_zero():
            assert cx.cells == per_pair_complex_of(
                g.nvars, g.weight_forms[0]).cells


# -- the memo behind trop_hypersurface ---------------------------------------


def with_residues_scaled(f, q):
    """f with every coefficient times the rational q != 0: same exponents and
    valuations, other residues."""
    q = PuiseuxScalar.rational(q)
    return ValuedPolynomial.from_dict(
        f.nvars, {u: c * q for u, c in f.terms}, laurent=f.laurent)


@settings(max_examples=100, deadline=None)
@given(valued_polynomials(), st.sampled_from((-3, -1, 2, F(1, 5))))
def test_property_memo_serves_the_oracle_complex(f, q):
    fundthm._complex_of.cache_clear()
    oracle = fraction_trop_hypersurface(f)
    first = trop_hypersurface(f)
    assert first == oracle
    assert trop_hypersurface(f) is first
    g = with_residues_scaled(f, q)
    assert g.terms != f.terms
    assert trop_hypersurface(g) is first
    assert trop_hypersurface(g) == fraction_trop_hypersurface(g)
    assert extended_trop_sets(f)[frozenset()] is first


def test_memo_is_bounded_and_rebuilds_what_it_evicted():
    polys = [ValuedPolynomial.parse(f"x1 + x2 + t^{k}", laurent=False)
             for k in range(COMPLEX_CACHE_SIZE + 5)]
    info = fundthm._complex_of.cache_info
    assert info().maxsize == COMPLEX_CACHE_SIZE
    first = trop_hypersurface(polys[0])
    for f in polys[1:]:
        trop_hypersurface(f)
        assert info().currsize <= COMPLEX_CACHE_SIZE
    misses = info().misses
    again = trop_hypersurface(polys[0])
    assert info().misses == misses + 1
    assert again == first == fraction_trop_hypersurface(polys[0])


def test_proportional_pairs_share_one_complex():
    """t*x1^2 + 1 and t^(1/2)*x1 + 1 have the same integer pairs, so one
    complex serves both, and it is the complex built afresh."""
    f = ValuedPolynomial.parse("t*x1^2 + 1", laurent=False)
    g = ValuedPolynomial.parse("t^(1/2)*x1 + 1", laurent=False)
    assert f.weight_forms[0] == g.weight_forms[0]
    assert (f.weight_forms[1], g.weight_forms[1]) == (1, 2)
    shared = trop_hypersurface(f)
    assert trop_hypersurface(g) is shared
    fundthm._complex_of.cache_clear()
    assert trop_hypersurface(g) == shared == fraction_trop_hypersurface(g)


# -- set (1) on every orbit, the torus included ------------------------------


@st.composite
def ordinary_polynomials_and_weights(draw):
    """Ordinary polynomials in 1-3 variables with 0-5 terms, so the zero
    polynomial and monomials too, and extended weights."""
    m = draw(st.integers(1, 3))
    exponents = draw(st.lists(st.tuples(*[st.integers(0, 2)] * m),
                              max_size=5, unique=True))
    coeffs = {u: PuiseuxScalar.from_terms(
                  [(draw(RATIONALS), draw(st.sampled_from((-2, -1, 1))))])
              for u in exponents}
    f = ValuedPolynomial.from_dict(m, coeffs, laurent=False)
    entry = st.one_of(RATIONALS, st.just(INF))
    weights = draw(st.lists(st.tuples(*[entry] * m), min_size=1, max_size=4))
    return f, weights


@settings(max_examples=150, deadline=None)
@given(ordinary_polynomials_and_weights())
def test_property_set1_is_the_extended_set_of_the_weights_orbit(case):
    """membership_set1(f, w) is whether the finite part of w lies in the set
    of f on the orbit of w's infinite entries, also when that orbit is the
    torus and f is zero; weights are also moved onto each cell's equation."""
    f, weights = case
    sets = extended_trop_sets(f)
    for w in weights:
        sigma = frozenset(i for i, x in enumerate(w) if x is INF)
        finite = tuple(x for x in w if x is not INF)
        cx = sets[sigma]
        for point in [finite] + [on_hyperplane(finite, cell.equalities[0])
                                 for cell in cx.cells if cell.equalities]:
            rest = iter(point)
            extended = tuple(INF if x is INF else next(rest) for x in w)
            assert membership_set1(f, extended) == cx.contains(point)


@pytest.mark.parametrize("cell", [
    Cell(2, (), ()),
    Cell(2, ((1, -1, 0),), ((1, 0, 0),)),
], ids=["rowless", "with-rows"])
@pytest.mark.parametrize("w", [(F(1),), (F(1), F(2), F(3))],
                         ids=["short", "long"])
def test_cell_contains_refuses_a_weight_of_the_wrong_length(cell, w):
    """A cell tests a weight as the complex of that one cell does."""
    with pytest.raises(ValueError, match="dimension mismatch"):
        cell.contains(w)


@pytest.mark.parametrize("call, message", [
    (lambda: TropicalComplex.whole_space(2).contains((F(0),)),
     "dimension mismatch"),
    (lambda: extended_trop_sets(ValuedPolynomial.parse("x1 + 1")),
     "extended sets require ordinary mode"),
], ids=["complex-contains-weight-length", "extended-sets-laurent"])
def test_a_refused_input_raises_its_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()
