from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphtrop.fundthm import Cell
from sphtrop.linalg import (IntVector, dot, eliminate, embed_from_chart,
                            primitive, project_to_chart, rref, vec, vneg)
from sphtrop.polyhedra import Cone, _dd, affine_feasible, quotient_chart
from test_linalg import project_off, vadd


def test_generators_inequalities_round_trip():
    c = Cone.from_generators([(1, 0), (1, 1)], 2)
    assert c.dim() == 2 and c.is_strictly_convex()
    d = Cone.from_inequalities(c.inequalities, 2)
    assert d == c


def test_halfplane_has_lineality():
    h = Cone.from_generators([(1, 1), (-1, -1), (1, -1)], 2)
    assert h.dim() == 2
    assert len(h.lineality) == 1
    assert not h.is_strictly_convex()
    assert h.contains((5, -7)) and not h.contains((0, 1))


def test_a_cone_is_unequal_to_its_key():
    """``==`` compares cones only: a tuple that holds the canonical key is
    another value."""
    zero = Cone.zero(1)
    assert zero.canonical_key() == (1, (), ())
    assert zero != (1, (), ()) and (1, (), ()) != zero


def test_dual_of_dual():
    for gens in [[(1, 0), (1, 1)], [(1, 1), (-1, -1)], [(1, 0)], []]:
        c = Cone.from_generators(gens, 2)
        assert c.dual().dual() == c


def test_faces_of_quadrant():
    q = Cone.from_generators([(1, 0), (0, 1)], 2)
    faces = q.faces()
    dims = sorted(f.dim() for f in faces)
    assert dims == [0, 1, 1, 2]
    for f in faces:
        assert f.is_face_of(q)
    assert not Cone.from_generators([(1, 1)], 2).is_face_of(q)


def test_relint():
    q = Cone.from_generators([(1, 0), (0, 1)], 2)
    assert q.relint_contains((1, 1))
    assert not q.relint_contains((1, 0))
    assert q.relint_contains(q.relint_point())
    assert Cone.zero(2).relint_contains((0, 0))


def test_intersect():
    a = Cone.from_generators([(1, 0), (1, 1)], 2)
    b = Cone.from_generators([(1, 1), (0, 1)], 2)
    assert a.intersect(b) == Cone.from_generators([(1, 1)], 2)


def test_contains_cone_and_equality_mod_presentation():
    a = Cone.from_generators([(1, 0), (0, 1), (1, 1)], 2)
    b = Cone.from_generators([(0, 1), (1, 0)], 2)
    assert a == b and a.contains_cone(b)
    assert hash(a) == hash(b)


def test_quotient_chart_and_projection():
    chart = quotient_chart([(1, 1)], 2)
    assert chart == (vec([1, -1]),)
    # (3,1) = (2,2) + (1,-1): chart coordinate 1
    assert project_to_chart(chart, (3, 1)) == vec([1])
    assert embed_from_chart(chart, [F(2)]) == vec([2, -2])


def test_affine_feasible():
    one = F(1)
    # x >= 1 and -x >= 0 is infeasible
    assert not affine_feasible([], [(one, one), (-one, F(0))], 1)
    # x = 1, x >= 2 infeasible
    assert not affine_feasible([(one, one)], [(one, F(2))], 1)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        Cone.from_generators([(1, 0, 0)], 2)


@pytest.mark.parametrize("call", [
    lambda: affine_feasible([], [(1, 0)], 2),
    lambda: Cell(2, ((1, 0),), ()).contains((F(0), F(0))),
    lambda: _dd([], [(1, 2, 3)], 2),
], ids=["affine_feasible", "cell-contains", "dd"])
def test_a_row_of_the_wrong_length_raises(call):
    """The sweep takes its products inline and a cell through ``dot``;
    ``zip`` would silently stop at the end of the shorter vector, so each
    row's length is checked."""
    with pytest.raises(ValueError, match="dimension mismatch"):
        call()


# The zero cone has no generators, so only the ambient dimensions differ.
C3 = Cone.from_generators([(1, 0, 0), (0, 1, 0)], 3)


def test_is_face_of_rejects_another_ambient_dimension():
    with pytest.raises(ValueError, match="dimension mismatch"):
        Cone.zero(2).is_face_of(C3)


def test_contains_cone_rejects_another_ambient_dimension():
    with pytest.raises(ValueError, match="dimension mismatch"):
        C3.contains_cone(Cone.zero(2))


# -- properties --------------------------------------------------------------

def rows(dim, max_size):
    return st.lists(st.tuples(*[st.integers(-3, 3)] * dim), max_size=max_size)


@st.composite
def cones(draw, dim=None):
    dim = dim or draw(st.integers(1, 4))
    return Cone.from_generators(draw(rows(dim, 6)), dim)


@st.composite
def cone_pairs(draw):
    """Two cones of one dimension; often the second is the first rebuilt
    from shuffled, rescaled and redundant generators."""
    a = draw(cones())
    if draw(st.booleans()):
        return a, draw(cones(a.ambient_dim))
    gens = list(a.generators)
    scales = draw(st.lists(st.integers(1, 4), min_size=len(gens),
                           max_size=len(gens)))
    gens = [tuple(k * x for x in g) for k, g in zip(scales, gens)]
    if len(gens) >= 2:
        gens.append(tuple(x + y for x, y in zip(gens[0], gens[1])))
    return a, Cone.from_generators(draw(st.permutations(gens)),
                                   a.ambient_dim)


@settings(max_examples=150, deadline=None)
@given(cones())
def test_property_inequalities_round_trip(c):
    assert Cone.from_inequalities(c.inequalities, c.ambient_dim,
                                  c.equations) == c


@settings(max_examples=150, deadline=None)
@given(cone_pairs())
def test_property_eq_is_mutual_containment(pair):
    a, b = pair
    assert (a == b) == (a.contains_cone(b) and b.contains_cone(a))
    assert (a == b) == (hash(a) == hash(b) and a.canonical_key()
                        == b.canonical_key())


def fm_feasible(equalities, weak, strict, dim):
    """Reference for ``affine_feasible`` by Fourier-Motzkin elimination.

    Constraints are (coefficient vector, rhs) pairs.  Each equality is
    solved for a variable with a nonzero coefficient, which is substituted
    out of every other row (an all-zero equality checks 0 == rhs); then the
    variables are eliminated one at a time from the weak and strict rows.
    """
    rows = ([(list(vec(c)), F(r), False) for c, r in weak]
            + [(list(vec(c)), F(r), True) for c, r in strict])
    eqs = [(list(vec(c)), F(r)) for c, r in equalities]
    while eqs:
        ce, be = eqs.pop()
        var = next((i for i, x in enumerate(ce) if x), None)
        if var is None:
            if be != 0:
                return False
            continue

        def substitute(coeffs, rhs):
            k = coeffs[var] / ce[var]
            return [a - k * b for a, b in zip(coeffs, ce)], rhs - k * be
        eqs = [substitute(c, r) for c, r in eqs]
        rows = [(*substitute(c, r), st) for c, r, st in rows]

    # Each row is scaled to largest coefficient 1 and carries the mask of
    # the original rows it combines; equal (row, mask) pairs are kept once,
    # and the variable with the fewest new rows goes first.  After k
    # eliminations a row built from more than k + 1 original rows is
    # dropped (Chernikov's rule): the nonnegative multipliers that cancel k
    # columns form a cone whose extreme rays use at most k + 1 rows, so
    # such a row is a sum of rows that are kept.  That bounds the blowup.
    def scaled(coeffs, rhs, st):
        k = max(map(abs, coeffs)) or 1
        return tuple(a / k for a in coeffs), rhs / k, st

    rows = {(*scaled(*r), 1 << i) for i, r in enumerate(rows)}
    free = set(range(dim))
    while free:
        var = min(free, key=lambda v: sum(c[v] > 0 for c, *_ in rows)
                  * sum(c[v] < 0 for c, *_ in rows))
        free.remove(var)
        most = dim - len(free) + 1
        new = {r for r in rows if r[0][var] == 0}
        for cp, bp, sp, op in rows:
            for cn, bn, sn, on in rows:
                if cp[var] > 0 > cn[var] and (op | on).bit_count() <= most:
                    lam, mu = -cn[var], cp[var]
                    new.add((*scaled([lam * a + mu * b
                                      for a, b in zip(cp, cn)],
                                     lam * bp + mu * bn, sp or sn), op | on))
        rows = new

    return all(0 > rhs if st else 0 >= rhs for _, rhs, st, _ in rows)


def in_conic_hull(x, gens):
    """Fourier-Motzkin test, independent of double description."""
    k = len(gens)
    combination = [([g[i] for g in gens], x[i]) for i in range(len(x))]
    nonneg = [(vec(int(i == j) for i in range(k)), F(0)) for j in range(k)]
    return fm_feasible(combination, nonneg, [], k)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(st.just(d),
                                                     rows(d, 4))))
def test_property_generators_span_the_input(system):
    dim, gens = system
    c = Cone.from_generators(gens, dim)
    assert all(in_conic_hull(vec(g), c.generators) for g in gens)
    assert all(in_conic_hull(g, [vec(h) for h in gens])
               for g in c.generators)


@settings(max_examples=150, deadline=None)
@given(cones())
def test_property_dual_of_dual(c):
    assert c.dual().dual() == c


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    st.just(d), rows(d, 2), rows(d, 6))))
def test_property_dd_generators_satisfy_every_row(system):
    dim, equations, inequalities = system
    lin, pairs = _dd([vec(e) for e in equations],
                     [vec(a) for a in inequalities], dim)
    rays = [r for r, _ in pairs]
    for e in equations:
        assert all(dot(vec(e), g) == 0 for g in lin + rays)
    for a in inequalities:
        assert all(dot(vec(a), l) == 0 for l in lin)
        assert all(dot(vec(a), r) >= 0 for r in rays)
    # each mask is the ray's zero pattern over the inequalities
    for r, mask in pairs:
        assert mask == sum(1 << i for i, a in enumerate(inequalities)
                           if dot(vec(a), r) == 0)


@settings(max_examples=150, deadline=None)
@given(cones())
def test_property_euler_relation(c):
    euler = sum((-1) ** f.dim() for f in c.faces())
    assert euler == (0 if c.rays else (-1) ** c.dim())


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    st.just(d), rows(d, 3),
    st.lists(st.fractions(max_denominator=5), min_size=d, max_size=d))))
def test_property_chart_coordinates_round_trip(system):
    dim, gens, coords = system
    chart = quotient_chart(gens, dim)
    c = vec(coords[:len(chart)])
    assert project_to_chart(chart, embed_from_chart(chart, c)) == c


@st.composite
def affine_systems(draw):
    """Equalities and weak rows in dimension 1-3, or in dimension 4 up to
    one equality and 8 weak rows: the shape of a hypersurface cell of up
    to 10 terms."""
    dim = draw(st.integers(1, 4))
    row = st.tuples(st.tuples(*[st.integers(-3, 3)] * dim),
                    st.fractions(-3, 3, max_denominator=3))
    big = dim == 4
    return (draw(st.lists(row, max_size=1 if big else 2)),
            draw(st.lists(row, max_size=8 if big else 6)), dim)


@settings(max_examples=200, deadline=None)
@given(affine_systems())
def test_property_affine_feasible_agrees_with_fourier_motzkin(system):
    equalities, inequalities, dim = system
    assert (bool(affine_feasible([(*c, r) for c, r in equalities],
                                 [(*c, r) for c, r in inequalities], dim))
            == fm_feasible(equalities, inequalities, [], dim))


@settings(max_examples=150, deadline=None)
@given(affine_systems())
def test_property_affine_feasible_masks_are_tight_sets(system):
    """Each returned mask names weak rows that can all hold with equality,
    and a row can hold with equality exactly when some mask holds its bit:
    the faces that ``fundthm._complex_of`` reads off one sweep."""
    equalities, inequalities, dim = system
    masks = affine_feasible([(*c, r) for c, r in equalities],
                            [(*c, r) for c, r in inequalities], dim)

    def feasible_with_tight(mask):
        tight = [a for i, a in enumerate(inequalities) if mask >> i & 1]
        rest = [a for i, a in enumerate(inequalities) if not mask >> i & 1]
        return fm_feasible(equalities + tight, rest, [], dim)

    assert all(feasible_with_tight(mask) for mask in masks)
    union = reduce(int.__or__, masks, 0)
    for i in range(len(inequalities)):
        assert bool(union >> i & 1) == feasible_with_tight(1 << i)


# -- the face lattice against one sweep per face -----------------------------

def dd_faces(self):
    """Reference for ``Cone.faces``: one double-description sweep per face."""
    seen = {self.canonical_key(): self}
    stack = [self]
    while stack:
        c = stack.pop()
        for a in c.inequalities:
            f = Cone.from_inequalities(
                c.inequalities, self.ambient_dim, c.equations + (a,))
            k = f.canonical_key()
            if k not in seen:
                seen[k] = f
                stack.append(f)
    return sorted(seen.values(), key=lambda c: c.canonical_key())


def dd_is_face_of(self, other):
    """Reference for ``Cone.is_face_of``: the face cut out by the summed
    tight facets, by one double-description sweep."""
    if not all(other.contains(g) for g in self.generators):
        return False
    tight = [a for a in other.inequalities
             if all(dot(a, g) == 0 for g in self.generators)]
    u = vec([0] * self.ambient_dim)
    for a in tight:
        u = vadd(u, a)
    face = Cone.from_inequalities(
        other.inequalities, self.ambient_dim, other.equations + (u,))
    return face == self


@st.composite
def mixed_cones(draw, dim=None):
    """Cones from generators, with a lineality line, or with equations."""
    dim = dim or draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["generators", "lineality", "equations"]))
    if kind == "generators":
        return draw(cones(dim))
    if kind == "lineality":
        line = draw(st.tuples(*[st.integers(-3, 3)] * dim))
        return Cone.from_generators(
            draw(rows(dim, 4)) + [line, tuple(-x for x in line)], dim)
    return Cone.from_inequalities(draw(rows(dim, 5)), dim,
                                  draw(rows(dim, 2)))


@settings(max_examples=200, deadline=None)
@given(mixed_cones())
def test_property_rays_and_lineality_rows_have_a_nonzero_sum(c):
    """``render`` anchors a stratum at this sum: the lineality rows are
    independent, and the rays are orthogonal to them and extreme in a
    pointed cone, so no cone with a generator sums them to zero."""
    gens = c.rays + c.lineality
    if gens:
        assert any(map(sum, zip(*gens)))


@st.composite
def related_pairs(draw):
    """Two cones of one dimension: faces of one cone, a cone and one of its
    faces or a cone around it, the full space, or two unrelated cones."""
    c = draw(mixed_cones())
    dim = c.ambient_dim
    faces = c.faces()

    def partner():
        return draw(st.one_of(
            st.sampled_from(faces), st.just(c), mixed_cones(dim),
            st.just(Cone.full_space(dim)), st.just(Cone.zero(dim))))

    return partner(), partner()


@settings(max_examples=150, deadline=None)
@given(mixed_cones())
def test_property_faces_agree_with_one_sweep_per_face(c):
    assert c.faces() == dd_faces(c)


@settings(max_examples=200, deadline=None)
@given(related_pairs())
def test_property_is_face_of_agrees_with_summed_facet_sweep(pair):
    a, b = pair
    assert a.is_face_of(b) == dd_is_face_of(a, b)
    assert b.is_face_of(a) == dd_is_face_of(b, a)


@st.composite
def pyramids(draw):
    """A pointed cone over random points at height 1 in dimension 3 or 4:
    it often has more rays than its dimension, so that some sets of its
    rays span no face."""
    dim = draw(st.integers(3, 4))
    base = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * (dim - 1)),
                         min_size=dim, max_size=7))
    return Cone.from_generators([p + (1,) for p in base], dim)


@settings(max_examples=150, deadline=None)
@given(pyramids(), st.data())
def test_property_is_face_of_rejects_spans_of_rays_that_are_no_face(c, data):
    """The span of two or more rays of a cone is a face only when the
    summed-facet sweep says so (two opposite rays of a square are not)."""
    rays = data.draw(st.lists(st.sampled_from(c.rays), min_size=2))
    span = Cone.from_generators(rays, c.ambient_dim)
    assert span.is_face_of(c) == dd_is_face_of(span, c)


@settings(max_examples=200, deadline=None)
@given(related_pairs())
def test_property_intersect_agrees_with_joined_system(pair):
    a, b = pair
    joined = Cone.from_inequalities(a.inequalities + b.inequalities,
                                    a.ambient_dim, a.equations + b.equations)
    assert a.intersect(b) == joined
    assert b.intersect(a) == joined


def _facet_separates(a: Cone, b: Cone) -> bool:
    """Some facet h of a has h.g <= 0 on every generator g of b.

    Every facet is positive on relint(a), so relint(a) then misses b.
    """
    return any(all(dot(h, g) <= 0 for g in b.generators)
               for h in a.inequalities)


def dd_relints_overlap(a, b, v):
    """The overlap check of ``validate_colored_fan`` on swept meets."""
    meet = Cone.from_inequalities(
        a.inequalities + b.inequalities + v.inequalities, a.ambient_dim,
        a.equations + b.equations + v.equations)
    y = meet.relint_point()
    return a.relint_contains(y) and b.relint_contains(y)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    mixed_cones(d), mixed_cones(d),
    st.one_of(st.just(Cone.full_space(d)), mixed_cones(d)))))
def test_property_separated_pairs_never_overlap(triple):
    a, b, v = triple
    if _facet_separates(a, b) or _facet_separates(b, a):
        assert not dd_relints_overlap(a, b, v)


def rational_rows(dim, max_size):
    """Rows whose entries are ints or Fractions with small denominators."""
    entry = st.one_of(st.integers(-3, 3),
                      st.fractions(-3, 3, max_denominator=4))
    return st.lists(st.tuples(*[entry] * dim), max_size=max_size)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    st.just(d), st.sampled_from(["generators", "inequalities"]),
    rational_rows(d, 6), st.fractions(F(1, 5), 5, max_denominator=7))))
def test_property_cone_rows_are_ints_and_scale_free(case):
    dim, kind, rows_in, k = case
    build = (Cone.from_generators if kind == "generators"
             else Cone.from_inequalities)
    c = build(rows_in, dim)
    for stored in (c.rays, c.lineality, c.inequalities, c.equations):
        assert all(type(x) is int for row in stored for x in row)
    assert build([tuple(k * x for x in r) for r in rows_in], dim) == c


# -- the canonical form against the two sweeps it replaced -------------------

def two_sweep_cone(ambient_dim, gens):
    """The former ``_cone_from_generators`` body, kept verbatim (unmemoised)
    as an oracle: a second, H -> V sweep for the rays, and every facet and
    ray projected off a span by the ``Fraction`` Gram solve."""
    # V -> H: the dual cone's generators are our facets and span equations.
    dlin, drays = _dd([], list(gens), ambient_dim)
    drays = [r for r, _ in drays]
    equations = tuple(rref(dlin)[0])
    ineqs = tuple(sorted(
        a for a in {primitive(project_off(r, equations)) for r in drays}
        if any(a)))
    # H -> V again for a canonical generator description.
    lin, rays = _dd(equations, ineqs, ambient_dim)
    rays = [r for r, _ in rays]
    lin_rows = tuple(rref(lin)[0]) if lin else ()
    canon_rays = tuple(sorted(
        {primitive(project_off(r, lin_rows)) for r in rays}))
    # The ray-facet incidence, by one dot product per ray and facet.
    incidence = tuple(sum(1 << i for i, r in enumerate(canon_rays)
                          if dot(a, r) == 0) for a in ineqs)
    return Cone(ambient_dim, canon_rays, lin_rows, ineqs, equations,
                incidence)


@st.composite
def generator_sets(draw):
    """Up to 10 generators in dimension 1-5, often from a lower-dimensional
    span, with zero vectors, positive rational multiples, +-g pairs and sums
    of two generators added."""
    dim = draw(st.integers(1, 5))
    vector = st.tuples(*[st.integers(-3, 3)] * dim)
    gens = draw(st.lists(vector, max_size=6))
    if draw(st.booleans()):
        span = draw(st.lists(vector, min_size=1, max_size=max(1, dim - 1)))
        gens = [tuple(map(sum, zip((0,) * dim, *(
            [c * x for x in b] for c, b in zip(cs, span)))))
            for cs in draw(st.lists(st.tuples(*[st.integers(-2, 2)]
                                              * len(span)), max_size=6))]
    for kind in draw(st.lists(st.sampled_from(
            ["zero", "multiple", "negative", "sum"]), max_size=4)):
        if kind == "zero" or not gens:
            gens.append((0,) * dim)
            continue
        g, h = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        k = F(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
        gens.append({"multiple": tuple(k * x for x in g),
                     "negative": tuple(-x for x in g),
                     "sum": tuple(x + y for x, y in zip(g, h))}[kind])
    return dim, draw(st.permutations(gens))


@settings(max_examples=400, deadline=None)
@given(generator_sets())
def test_property_from_generators_is_the_two_sweep_cone(case):
    dim, gens = case
    got = Cone.from_generators(gens, dim)
    want = two_sweep_cone(dim, frozenset(g for g in gens if any(g)))
    assert got.rays == want.rays and got.lineality == want.lineality
    assert got.inequalities == want.inequalities
    assert got.equations == want.equations
    assert got.incidence == want.incidence


# -- the sweep against itself without the adjacency pre-test ---------------

def dd_without_pretest(equations, inequalities, dim):
    """The former ``_dd``, kept verbatim as an oracle: every pair of a
    positive and a negative ray goes straight to the combinatorial
    adjacency test, with no bound on the size of their common tight set."""
    lin = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays: list[tuple[IntVector, int]] = []

    def cut(vals: list[int], j: int) -> list[tuple[int, ...]]:
        """The lineality basis with lin[j] traded for the row's kernel."""
        l0, v0 = lin[j], vals[j]
        return [eliminate(l, v, l0, v0)
                for i, (l, v) in enumerate(zip(lin, vals)) if i != j]

    for e in map(primitive, equations):
        vals = [dot(e, l) for l in lin]
        j = next((i for i, v in enumerate(vals) if v), None)
        if j is not None:
            lin = cut(vals, j)

    for idx, a in enumerate(map(primitive, inequalities)):
        vals = [dot(a, l) for l in lin]
        j = next((i for i, v in enumerate(vals) if v), None)
        if j is not None:
            # a cuts the lineality space: one lineality generator becomes a ray.
            l0, v0 = lin[j], vals[j]
            lin = cut(vals, j)
            rays = [(eliminate(r, dot(a, r), l0, v0), tight | 1 << idx)
                    for r, tight in rays]
            rays.append((l0 if v0 > 0 else vneg(l0), (1 << idx) - 1))
            continue
        pos, zero, neg = [], [], []
        for k, (r, tight) in enumerate(rays):
            s = dot(a, r)
            if s > 0:
                pos.append((k, r, tight, s))
            elif s < 0:
                neg.append((k, r, tight, s))
            else:
                zero.append((r, tight | 1 << idx))
        kept = [(r, t) for _, r, t, _ in pos] + zero
        for kp, rp, tp, sp in pos:
            for kn, rn, tn, sn in neg:
                common = tp & tn
                if any(common & t == common for k, (_, t) in enumerate(rays)
                       if k != kp and k != kn):
                    continue  # not adjacent
                w = eliminate(rn, sn, rp, sp)
                if any(w):
                    kept.append((w, common | 1 << idx))
        rays = kept

    return lin, rays


@st.composite
def dd_systems(draw):
    """Equations and inequalities in dimension 1-5, all ``int`` rows or rows
    with ``Fraction`` entries; some inequalities come with their negation,
    so the cone they cut out is often not full-dimensional."""
    dim = draw(st.integers(1, 5))
    rows_of = draw(st.sampled_from([rows, rational_rows]))
    inequalities = draw(rows_of(dim, 8))
    for a in draw(st.lists(st.sampled_from(inequalities), max_size=2)
                  if inequalities else st.just([])):
        inequalities.insert(draw(st.integers(0, len(inequalities))),
                            tuple(-x for x in a))
    return dim, draw(rows_of(dim, 2)), inequalities


# A pair of rays that passes the pre-test but is not adjacent: random draws
# reach one in only some runs, so a scan that no longer skips it must fail.
@example((4, [], [(0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 1, 0),
                  (1, 1, 0, 0), (1, 0, 0, 0)]))
@settings(max_examples=400, deadline=None)
@given(st.one_of(dd_systems(), generator_sets().map(
    lambda case: (case[0], [], [g for g in case[1] if any(g)]))))
def test_property_dd_pretest_changes_no_output(case):
    dim, equations, inequalities = case
    assert _dd(equations, inequalities, dim) == \
        dd_without_pretest(equations, inequalities, dim)


@pytest.mark.parametrize("call", [
    lambda: Cone.full_space(3).contains((1, 0)),
    lambda: Cone.full_space(3).relint_contains((1, 0, 0, 0)),
    lambda: quotient_chart([(1, 0)], 3),
], ids=["contains", "relint-contains", "quotient-chart"])
def test_a_vector_of_the_wrong_length_raises(call):
    """The full space has no rows, so no ``dot`` sees the vector's length."""
    with pytest.raises(ValueError, match="dimension mismatch"):
        call()
