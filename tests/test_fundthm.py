import itertools
import random
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
from sphtrop.jsonio import complex_from_json, complex_to_json
from sphtrop.linalg import clear_denominators, dot, primitive
from sphtrop.polyhedra import affine_feasible
from sphtrop.puiseux import (INF, PuiseuxScalar, ValuedPolynomial,
                              _term_weights)
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


def test_a_single_term_takes_no_feasibility_sweep(monkeypatch):
    """A one-term polynomial has no pair of terms, so its complex has no
    cell and is built without an ``affine_feasible`` call; three terms
    take one."""
    calls = []

    def counting(*args):
        calls.append(args)
        return affine_feasible(*args)

    monkeypatch.setattr(fundthm, "affine_feasible", counting)
    fundthm._complex_of.cache_clear()
    for text in ("x1*x2", "t^(1/2)*x1^3", "2", "x2^2"):
        cx = trop_hypersurface(ValuedPolynomial.parse(text, nvars=2,
                                                      laurent=False))
        assert cx.cells == () and not cx.contains((F(1), F(-1)))
    assert calls == []
    assert len(trop_hypersurface(LINE).cells) == 3 and len(calls) == 1


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
            cell = Cell((eq,), ineqs)
            if cell in seen:
                continue
            seen.add(cell)
            if not fm_empty(cell, m):
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
    """A polynomial's hypersurface complex and weights: random
    (denominators 1-6) and moved onto the equality of a random cell, where
    the inequalities decide."""
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
            one_cell = TropicalComplex(cx.ambient_dim, (cell,))
            assert one_cell.contains(w) == fraction_cell_contains(cell, w)
        assert cx.contains(w) == any(fraction_cell_contains(cell, w)
                                     for cell in cx.cells)


def cell_loop_contains(cx, w):
    """The cell loop of ``TropicalComplex.contains``, kept as the oracle of
    its term rows: w is in cx when each row h of some cell has h . (W, -den)
    0 (an equation) or >= 0 (an inequality), for w = W / den."""
    W, den = clear_denominators(w)
    if len(W) != cx.ambient_dim:
        raise ValueError("dimension mismatch")
    x = (*W, -den)
    return any(all(dot(h, x) == 0 for h in cell.equalities)
               and all(dot(h, x) >= 0 for h in cell.inequalities)
               for cell in cx.cells)


@st.composite
def orbit_polynomials(draw):
    """``valued_polynomials`` times a monomial x^s, s in {0, 1}^m.  With
    s = 0 the constant term is there or not as drawn; with s != 0 it is
    not, and f restricts to zero on every orbit whose sigma meets s."""
    f = draw(valued_polynomials())
    s = draw(st.tuples(*[st.integers(0, 1)] * f.nvars))
    return ValuedPolynomial.from_dict(f.nvars, {
        tuple(a + b for a, b in zip(u, s)): c for u, c in f.terms},
        laurent=False)


@st.composite
def orbit_complexes_and_weights(draw):
    """A polynomial and, per torus orbit, its complex with weights: random
    (denominators 1-6), moved onto the equation of a cell, where the
    inequalities decide, and the {-1, 0, 1}^d grid of the orbit."""
    f = draw(orbit_polynomials())
    orbits = []
    for cx in extended_trop_sets(f).values():
        d = cx.ambient_dim
        weights = draw(st.lists(st.tuples(*[RATIONALS] * d),
                                min_size=1, max_size=3))
        weights += [on_hyperplane(w, cell.equalities[0])
                    for w, cell in zip(weights * 4, cx.cells)
                    if cell.equalities]
        weights += itertools.product((F(-1), F(0), F(1)), repeat=d)
        orbits.append((cx, weights))
    return f, orbits


@settings(max_examples=150, deadline=None)
@given(orbit_complexes_and_weights())
def test_property_term_rows_decide_as_the_cells_do(case):
    """Every complex that ``extended_trop_sets`` builds, the torus's and
    each orbit's, whole-space ones included, decides a weight by its term
    rows as the cell loop does on its cells; the torus complex loaded from
    JSON, which has no term rows, decides as the built one."""
    f, orbits = case
    for cx, weights in orbits:
        assert cx.terms
        for w in weights:
            assert cx.contains(w) == cell_loop_contains(cx, w)
    torus, weights = orbits[0]  # the empty sigma comes first
    assert torus is trop_hypersurface(f)
    loaded = complex_from_json(complex_to_json(torus))
    assert not loaded.terms
    assert loaded == torus and hash(loaded) == hash(torus)
    for w in weights:
        assert loaded.contains(w) == torus.contains(w)


def test_a_hypersurface_weight_takes_one_dot_per_term(monkeypatch):
    """Whatever its number of cells, a built complex of n terms, 2 to 8
    here, tests a weight with exactly n ``dot`` calls, one per term row;
    the cell loop would take one per cell row it reaches.  The whole space
    takes two, one per zero term row."""
    calls = []

    def counting(*args):
        calls.append(args)
        return dot(*args)

    monkeypatch.setattr(fundthm, "dot", counting)
    rng = random.Random(7)
    for m in (1, 2, 3):
        monomials = list(itertools.product(range(8 if m == 1 else 3),
                                           repeat=m))
        grid = list(itertools.product((F(-1), F(0), F(1)), repeat=m))
        for n in range(2, 9):
            f = ValuedPolynomial.from_dict(m, {
                u: PuiseuxScalar.from_terms([(rng.randint(0, 2), 1)])
                for u in rng.sample(monomials, n)}, laurent=False)
            cx = trop_hypersurface(f)
            for w in grid:
                calls.clear()
                cx.contains(w)
                assert len(calls) == n
        calls.clear()
        assert TropicalComplex.whole_space(m).contains(grid[0])
        assert len(calls) == 2


@settings(max_examples=150, deadline=None)
@given(valued_polynomials())
def test_property_integer_rows_give_the_fraction_cells(f):
    assert trop_hypersurface(f).cells == fraction_trop_hypersurface(f).cells


# -- the per-pair route: one emptiness test per candidate cell --------------


def fm_empty(cell, m):
    """Emptiness of a cell in R^m by Fourier-Motzkin elimination, not by a
    sweep."""
    return not fm_feasible([(h[:-1], h[-1]) for h in cell.equalities],
                           [(h[:-1], h[-1]) for h in cell.inequalities], [],
                           m)


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
        Cell((row[j][i],), tuple(sorted(
            row[i][k] for k in range(n) if k not in (i, j))))
        for i in range(n) for j in range(i + 1, n))
    return TropicalComplex(m, tuple(c for c in cells if not fm_empty(c, m)))


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
# so the region under the graph has lineality and no vertex.
@example(ValuedPolynomial.parse("1 + x1 + t^2*x1^2 + x2", laurent=False))
@example(ValuedPolynomial.parse("x1*x2 + t*x1^2*x2^2 + 1", laurent=False))
@example(ValuedPolynomial.parse("1 + x1*x2*x3 + t^3*x1^2*x2^2*x3^2 + t*x2",
                                laurent=False))
def test_property_one_sweep_gives_the_per_pair_cells(f):
    """On every orbit restriction, the complex read off one sweep of the
    region under the graph of the tropical polynomial holds the cells of one
    test per pair, in the same order."""
    for sigma, cx in extended_trop_sets(f).items():
        g = f.restrict_to_orbit(sigma) if sigma else f
        if not g.is_zero():
            assert cx.cells == per_pair_complex_of(
                g.nvars, g.weight_forms[0]).cells


def test_each_complex_takes_one_feasibility_sweep(monkeypatch):
    """Whatever its number of terms, 2 to 8 here, a complex is built from
    exactly one ``affine_feasible`` call; one sweep per term would make
    n - 1 of them."""
    calls = []

    def counting(*args):
        calls.append(args)
        return affine_feasible(*args)

    monkeypatch.setattr(fundthm, "affine_feasible", counting)
    fundthm._complex_of.cache_clear()
    rng = random.Random(7)
    keys = set()
    for m in (1, 2, 3):
        monomials = list(itertools.product(range(8 if m == 1 else 3),
                                           repeat=m))
        for n in range(2, 9):
            f = ValuedPolynomial.from_dict(m, {
                u: PuiseuxScalar.from_terms([(rng.randint(0, 2), 1)])
                for u in rng.sample(monomials, n)}, laurent=False)
            assert len(f.terms) == n
            trop_hypersurface(f)
            trop_hypersurface(f)
            keys.add((m, f.weight_forms[0]))
    assert len(keys) == 21 and len(calls) == len(keys)


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


@st.composite
def polynomials_and_extended_weights(draw):
    """Ordinary polynomials and extended weights with infinite entries and
    rationals of denominators 1-6, also moved onto the equation of a cell of
    the set of their orbit, where the minimum is attained twice."""
    f = draw(valued_polynomials())
    entry = st.one_of(RATIONALS, st.just(INF))
    weights = draw(st.lists(st.tuples(*[entry] * f.nvars),
                            min_size=1, max_size=4))
    sets = extended_trop_sets(f)
    out = []
    for w in weights:
        cells = sets[frozenset(i for i, x in enumerate(w) if x is INF)].cells
        finite = tuple(x for x in w if x is not INF)
        for point in [finite] + [on_hyperplane(finite, cell.equalities[0])
                                 for cell in cells if cell.equalities]:
            rest = iter(point)
            out.append(tuple(INF if x is INF else next(rest) for x in w))
    return f, out


@settings(max_examples=150, deadline=None)
@given(polynomials_and_extended_weights())
def test_property_extended_fundamental_theorem(case):
    """On every torus orbit set (1), the locus where the minimum is attained
    twice, is set (2), the weights whose initial form is no monomial."""
    f, weights = case
    for w in weights:
        assert membership_set1(f, w) == membership_set2(f, w)


ONE = PuiseuxScalar.rational(1)


@pytest.mark.parametrize("call", [
    lambda f: f.trop_eval((F(0), F(0))),
    lambda f: f.initial_form((F(0), F(0))),
    lambda f: _term_weights(f.weight_forms, (F(0), F(0))),
    trop_hypersurface,
], ids=["trop_eval", "initial_form", "term_weights", "trop_hypersurface"])
@pytest.mark.parametrize("terms", [
    (((1,), ONE), ((0, 0), ONE)),
    (((1, 0, 0), ONE), ((0, 0), ONE)),
], ids=["short-exponent", "long-exponent"])
def test_an_exponent_of_the_wrong_length_raises(call, terms):
    """A polynomial built directly, past ``from_dict``'s check, is refused:
    term weights take their products inline, where ``map`` would silently
    stop at the end of the shorter vector."""
    f = ValuedPolynomial(2, False, terms)
    with pytest.raises(ValueError, match="dimension mismatch"):
        call(f)


@pytest.mark.parametrize("cx", [
    TropicalComplex(2, (Cell((), ()),)),
    TropicalComplex(2, (Cell(((1, -1, 0),), ((1, 0, 0),)),)),
    TropicalComplex.whole_space(2),
], ids=["rowless", "with-rows", "whole-space"])
@pytest.mark.parametrize("w", [(F(1),), (F(1), F(2), F(3))],
                         ids=["short", "long"])
def test_cell_contains_refuses_a_weight_of_the_wrong_length(cx, w):
    """The complex of one cell, row-less or not, refuses a weight of the
    wrong length in its cell loop, and the whole space by its term rows."""
    with pytest.raises(ValueError, match="dimension mismatch"):
        cx.contains(w)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4).flatmap(
    lambda m: st.tuples(st.just(m), st.tuples(*[RATIONALS] * m))))
def test_property_the_whole_space_holds_every_exact_weight(case):
    """Its two zero term rows tie at every weight, in dimensions 0-4."""
    m, w = case
    assert TropicalComplex.whole_space(m).contains(w)


@settings(max_examples=100, deadline=None)
@given(orbit_polynomials())
def test_property_every_built_complex_has_term_rows(f):
    """The torus complex and every orbit complex, a whole orbit's too, are
    decided by term rows, never by the cell loop."""
    assert trop_hypersurface(f).terms
    assert all(cx.terms for cx in extended_trop_sets(f).values())


@pytest.mark.parametrize("membership", [membership_set1, membership_set2])
@pytest.mark.parametrize("f, w, message", [
    (LINE, (F(0),), "weight length mismatch"),
    (LINE, (F(0),) * 3, "weight length mismatch"),
    (LINE, (F(0), F(0), INF), "weight length mismatch"),
    (ValuedPolynomial.parse("x1 + x2 + 1"), (INF, F(0)),
     "infinite weight entry on a Laurent polynomial"),
], ids=["short", "long", "infinite-past-nvars", "infinite-on-laurent"])
def test_both_sets_refuse_a_malformed_weight_with_one_message(membership, f,
                                                              w, message):
    """Set (1) checks a weight by the polynomial's own rule, the one that set
    (2) reaches through ``initial_form``."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        membership(f, w)


@pytest.mark.parametrize("call, message", [
    (lambda: TropicalComplex.whole_space(2).contains((F(0),)),
     "dimension mismatch"),
    (lambda: extended_trop_sets(ValuedPolynomial.parse("x1 + 1")),
     "extended sets require ordinary mode"),
], ids=["complex-contains-weight-length", "extended-sets-laurent"])
def test_a_refused_input_raises_its_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call", [
    lambda w: trop_hypersurface(LINE).contains(w),
    lambda w: TropicalComplex(2, trop_hypersurface(LINE).cells[:1]).contains(w),
    lambda w: TropicalComplex.whole_space(2).contains(w),
    lambda w: membership_set1(LINE, w),
    lambda w: LINE.trop_eval(w),
    lambda w: LINE.initial_form(w),
    lambda w: _term_weights(LINE.weight_forms, w),
], ids=["complex-contains", "cell-contains", "whole-space-contains",
        "membership_set1", "trop_eval", "initial_form", "term_weights"])
@pytest.mark.parametrize("w", [(0.5, F(0)), (F(0), 0.1), (F(0), "1/2"),
                               (True, F(0))],
                         ids=["float-half", "float-tenth", "str", "bool"])
def test_an_inexact_weight_entry_is_refused_not_rounded(call, w):
    """A float is not read as the rational of its binary value, a string
    parsed or a bool read as 0 or 1: every route refuses the weight with one
    message."""
    with pytest.raises(ValueError, match="expected exact rationals"):
        call(w)
