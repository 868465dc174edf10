import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from coxinv.coxeter import classify_parabolic
from coxinv.elements import Caps, ball_enumerate
from coxinv.errors import (DegenerateWeights, ResourceExceeded,
                           ValidationMismatch)
from coxinv.growth import (DEFAULT_VALIDATION_DEPTH, CurveTerms,
                           GrowthRateEstimate, PolyQ, RationalGrowthSeries,
                           WeightVector, _growth_fraction, _p1_exact_div,
                           _p1_gcd, _p1_rem, _parabolic_poly, _reciprocity,
                           _series_rate_constant_weight,
                           _series_rate_curve, classify_convergence,
                           enumeration_fit, enumeration_rate, growth_rate,
                           rational_growth_series, smallest_positive_root)
from coxinv.system import System

from .conftest import mat, right_angled_dodecahedron
from .oracles import (bn_poincare, eval_frac, expand_quotient,
                      growth_series_by_distinct_products,
                      rate_comparison_bounds, series_quotient)
from .oracles import smallest_positive_root as reference_root

E_PENTAGON = math.log((3 + math.sqrt(5)) / 2)   # 0.9624236501...


# ---------------------------------------------------------------------------
# series construction

def test_dinf_series_closed_form(dihedral_inf):
    # (1+t)^2 / (1-t^2) in lowest terms
    s = rational_growth_series(System(dihedral_inf))
    assert s.univariate() == ([1, 1], [1, -1])


def test_dinf_series_per_class(dihedral_inf):
    # (1+ta)(1+tb) / (1 - ta tb)
    s = rational_growth_series(System(dihedral_inf))
    assert s.numerator.terms == {(0, 0): Fraction(1), (1, 0): Fraction(1),
                                 (0, 1): Fraction(1), (1, 1): Fraction(1)}
    assert s.denominator.terms == {(0, 0): Fraction(1), (1, 1): Fraction(-1)}


def test_a2_polynomial(a2):
    s = rational_growth_series(System(a2))
    assert s.denominator.terms == {(0,): Fraction(1)}
    assert {e[0]: c for e, c in s.numerator.terms.items()} == \
        {0: Fraction(1), 1: Fraction(2), 2: Fraction(2), 3: Fraction(1)}


def test_pentagon_expansion_frozen(pentagon):
    s = rational_growth_series(System(pentagon))
    got = [sum(layer.values()) for layer in s.expand(12)]
    assert got == [1, 5, 15, 40, 105, 275, 720, 1885, 4935, 12920, 33825,
                   88555, 231840]


def test_pentagon_expansion_matches_long_division(pentagon):
    s = rational_growth_series(System(pentagon))
    num, den = s.univariate()
    got = [sum(layer.values()) for layer in s.expand(15)]
    assert got == series_quotient(num, den, 15)


def test_multivariate_expansion_matches_counts(dihedral_inf, square_product):
    for M in (dihedral_inf, square_product):
        s = rational_growth_series(System(M))
        expanded = s.expand(8)
        ball = ball_enumerate(M, 8, Caps())
        counts = ball.class_counts()
        for k in range(9):
            want = {cv: Fraction(n) for cv, n in counts[k].items()}
            assert expanded[k] == want


def test_parabolic_poly_b3_in_534():
    # {b, c} lie in the ambient class of a, and d is alone in its class;
    # the B3 parabolic on {b, c, d} has the same two classes
    M = mat([[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 4], [2, 2, 4, 1]])
    assert M.conjugacy_classes() == ((0, 1, 2), (3,))
    (b3,) = classify_parabolic(M, {1, 2, 3}).components
    poly = _parabolic_poly(M, b3, Caps())
    assert poly.terms == bn_poincare(3)
    assert sum(poly.terms.values()) == 48


def test_parabolic_poly_two_classes_merge():
    # I2(4) on {a, b} has two classes of its own; the odd labels through c
    # put a and b in one ambient class
    M = mat([[1, 4, 3], [4, 1, 3], [3, 3, 1]])
    assert M.conjugacy_classes() == ((0, 1, 2),)
    (i24,) = classify_parabolic(M, {0, 1}).components
    poly = _parabolic_poly(M, i24, Caps())
    # (1 + t)(1 + t + t^2 + t^3)
    assert poly.terms == {(0,): 1, (1,): 2, (2,): 2, (3,): 2, (4,): 1}


def test_validation_is_mandatory(monkeypatch, dihedral_inf):
    # corrupting the constructed series must be caught by the expansion check
    import coxinv.growth as G
    orig = G._parabolic_poly

    def corrupted(M, comp, caps):
        poly = orig(M, comp, caps)
        if len(comp.vertices) == 1:
            poly = poly + PolyQ.const(poly.nvars, 1)
        return poly

    monkeypatch.setattr(G, "_parabolic_poly", corrupted)
    with pytest.raises(ValidationMismatch):
        rational_growth_series(System(dihedral_inf))


@pytest.mark.parametrize("depth, source", [(10, "bfs"), (20, "recurrence")])
def test_mismatch_names_the_counting_route(monkeypatch, pentagon, depth,
                                           source):
    # under a cap between the depth-10 (54,726) and depth-20 ball sizes,
    # a depth-20 run counts by the recurrence past the validation depth,
    # and the series is checked against those counts
    import coxinv.growth as G
    orig = G._parabolic_poly

    def corrupted(M, comp, caps):
        poly = orig(M, comp, caps)
        return poly + PolyQ.const(poly.nvars, 1) \
            if len(comp.vertices) == 1 else poly

    system = System(pentagon, caps=Caps(max_elements=100_000))
    assert system.layer_counts(depth)[1] == source
    monkeypatch.setattr(G, "_parabolic_poly", corrupted)
    with pytest.raises(ValidationMismatch,
                       match=f"disagrees with the {source} counts at "
                             f"length 2$"):
        rational_growth_series(system)


@pytest.mark.parametrize("name", ["pentagon", "triangle_732"])
def test_series_predicts_counts_past_validation_depth(name, request):
    # the series is validated through DEFAULT_VALIDATION_DEPTH; its next two
    # lengths are checked against an independent enumeration
    M = request.getfixturevalue(name)
    s = System(M).series
    assert s.validated_depth == DEFAULT_VALIDATION_DEPTH
    depth = DEFAULT_VALIDATION_DEPTH + 2
    expanded = s.expand(depth)
    counts = ball_enumerate(M, depth, Caps()).class_counts()
    for k in range(DEFAULT_VALIDATION_DEPTH + 1, depth + 1):
        assert expanded[k] == counts[k]


def test_pentagon_series_coefficients_are_ints(pentagon_system):
    # over the lcm prod_s (1 + t_s) of the component polynomials; the
    # product of the distinct parabolic polynomials gave (1024, 834)
    s = pentagon_system.series
    assert (len(s.numerator.terms), len(s.denominator.terms)) == (32, 12)
    for poly in (s.numerator, s.denominator):
        assert all(type(c) is int for c in poly.terms.values())
    for layer in s.expand(DEFAULT_VALIDATION_DEPTH):
        assert all(type(c) is int for c in layer.values())


def test_dodecahedron_series_over_the_lcm():
    # the product of its 63 distinct parabolic polynomials did not finish
    # in 275 s; the lcm prod_s (1 + t_s) has 4096 terms.  The BFS check
    # cannot run (the ball passes 2,000,000 elements at radius 7), so the
    # numerator and denominator come straight from the reciprocity sum
    M = right_angled_dodecahedron()
    assert sum(row.count(2) for row in M.m) == 60
    num, den = _reciprocity(System(M, caps=Caps()))
    assert (len(num.terms), len(den.terms)) == (4096, 1748)
    # (1+t)^3 / ((1-t)(1-8t+t^2))
    assert RationalGrowthSeries(num, den, 0).univariate() == \
        ([1, 3, 3, 1], [1, -9, 9, -1])


# ---------------------------------------------------------------------------
# exact root isolation

def _exact(values):
    return all(type(c) in (int, Fraction) for c in values)


def test_univariate_helpers_exact_on_int_input():
    # a = (3t - 1)(2t - 1)^2 and b = (2t - 1)(5t + 3), lowest degree first;
    # each division below has a leading quotient that is not an integer or
    # divides two ints, where / would give a float
    a = [-1, 7, -16, 12]
    b = [-3, 1, 10]
    assert _exact(_p1_rem(a, b))
    g = _p1_gcd(a, b)
    assert g == [Fraction(-1, 2), 1] and _exact(g)
    q = _p1_exact_div(a, [-1, 2])
    assert q == [1, -5, 6] and _exact(q)
    lo, hi = smallest_positive_root(a, 1)
    assert _exact((lo, hi))
    assert lo <= Fraction(1, 3) <= hi < Fraction(1, 2)


def test_smallest_positive_root_simple():
    # 4x^2 - 1: exact rational root 1/2
    assert smallest_positive_root([Fraction(-1), 0, Fraction(4)], 1) == \
        (Fraction(1, 2), Fraction(1, 2))


def test_smallest_positive_root_irrational():
    # x^2 - 2 on (0, 2]: sqrt(2) bracketed to 1e-9
    lo, hi = smallest_positive_root([Fraction(-2), 0, Fraction(1)], 2)
    assert lo <= Fraction(14142135623, 10 ** 10) <= hi
    assert hi - lo <= Fraction(1, 10 ** 9)


def test_smallest_positive_root_picks_first():
    # (x - 1/3)(x - 2/3): must return 1/3
    p = [Fraction(2, 9), Fraction(-1), Fraction(1)]
    lo, hi = smallest_positive_root(p, 1)
    assert lo <= Fraction(1, 3) <= hi
    assert hi < Fraction(2, 3)


def test_smallest_positive_root_multiplicity():
    # (x - 1/2)^2: double root still found via the squarefree part
    p = [Fraction(1, 4), Fraction(-1), Fraction(1)]
    assert smallest_positive_root(p, 1) == (Fraction(1, 2), Fraction(1, 2))


def test_smallest_positive_root_repeated_factor_with_gaps():
    # the squarefree part of an even polynomial has zero odd coefficients,
    # which the division must keep: (1-2t^2)^2 (1-3t^2) has its smallest
    # positive root at 1/sqrt(3), and (x^2-2)^2 (x^2-3) at sqrt(2)
    lo, hi = smallest_positive_root([1, 0, -7, 0, 16, 0, -12], 1)
    assert lo <= Fraction(57735026918, 10 ** 11) <= hi
    assert hi - lo <= Fraction(1, 10 ** 9)
    lo, hi = smallest_positive_root([-12, 0, 16, 0, -7, 0, 1], 2)
    assert lo <= Fraction(14142135623, 10 ** 10) <= hi
    assert hi - lo <= Fraction(1, 10 ** 9)


def test_no_root_returns_none():
    assert smallest_positive_root([Fraction(1), Fraction(1)], 1) is None


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("poly, hi", [
    # squared factors: (2t-1)^2 (3t-1), and (t^2-2)^2 (t-1/3)^3
    (_times(_times([-1, 2], [-1, 2]), [-1, 3]), 1),
    (_times(_times([-2, 0, 1], [-2, 0, 1]),
            _times(_times([Fraction(-1, 3), 1], [Fraction(-1, 3), 1]),
                   [Fraction(-1, 3), 1])), 2),
    # roots exactly at bisection midpoints: 1/2 is the first, 3/8 the third
    (_times([-1, 2], [-3, 8]), 1),
    (_times([-1, 2], [-3, 8]), Fraction(1, 2)),
    # a root at hi, alone and above a smaller one
    ([-1, 1], 1),
    (_times([-3, 1], [5, 7]), 3),
    (_times([-1, 2], [-1, 1]), 1),
    # no root in (0, hi]: none at all, negative only, beyond hi
    ([1, 0, 1], 1),
    (_times([1, 1], [2, 3]), 5),
    ([-3, 1], 2),
    # a root at 0 only, and a root at 0 below a positive one
    ([0, 1], 1),
    (_times([0, 1], [-1, 3]), 1),
])
def test_smallest_positive_root_matches_fraction_reference(poly, hi):
    assert smallest_positive_root(poly, hi) == reference_root(poly, hi)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_smallest_positive_root_matches_reference_on_random_polys(data):
    """Integer Sturm signs against Fraction evaluation, on random integer
    and rational polynomials, products of small rational linear factors
    with repeats, and random bounds."""
    kind = data.draw(st.sampled_from(["int", "rational", "factors"]))
    if kind == "int":
        poly = data.draw(st.lists(st.integers(-20, 20), min_size=1,
                                  max_size=7))
    elif kind == "rational":
        poly = data.draw(st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=12),
            min_size=1, max_size=6))
    else:
        poly = [data.draw(st.integers(1, 5))]
        for _ in range(data.draw(st.integers(1, 5))):
            num = data.draw(st.integers(-6, 6))
            den = data.draw(st.integers(1, 8))
            poly = _times(poly, [-num, den])
    hi = data.draw(st.fractions(min_value=Fraction(1, 8), max_value=3,
                                max_denominator=8))
    assert smallest_positive_root(poly, hi) == reference_root(poly, hi)


# ---------------------------------------------------------------------------
# growth rates

def test_pentagon_rate_series(pentagon):
    e = growth_rate(System(pentagon), None)
    assert e.method == "SeriesSingularity"
    assert abs(e.value - E_PENTAGON) < 1e-6
    assert e.uncertainty < 1e-8
    assert e.contains(E_PENTAGON)


def test_732_rate_is_lehmer(triangle_732):
    e = growth_rate(System(triangle_732), None)
    assert abs(math.exp(e.value) - 1.17628081825991) < 1e-9


def test_affine_rates_exact_zero(triangle_333, square_product, dihedral_inf):
    for M in (triangle_333, square_product, dihedral_inf):
        e = growth_rate(System(M), None)
        assert e.value == 0.0 and e.exact


def test_finite_rate_zero(a2):
    e = growth_rate(System(a2), None)
    assert e.value == 0.0 and e.exact


def test_pentagon_weighted_constant(pentagon):
    w = WeightVector.constant(pentagon, 2)
    e = growth_rate(System(pentagon), w)
    assert abs(e.value - E_PENTAGON / math.log(2)) < 1e-6


def test_affine_weighted_exact_zero(triangle_333):
    w = WeightVector.constant(triangle_333, 2)
    e = growth_rate(System(triangle_333), w)
    assert e.value == 0.0 and e.exact


def test_pentagon_mixed_weights_bounds(pentagon):
    w = WeightVector(pentagon, [2, 2, 2, 2, 3])
    e = growth_rate(System(pentagon), w)
    lo, hi = rate_comparison_bounds(System(pentagon), w)
    assert lo - 1e-9 <= e.value <= hi + 1e-9
    # strictly inside: the mixed rate differs from both constant-weight rates
    assert e.value - lo > 1e-3 and hi - e.value > 1e-3


def test_weight_one_on_finite_parabolic_allowed(dihedral_inf):
    e = growth_rate(System(dihedral_inf),
                    WeightVector(dihedral_inf, [1, 2]))
    assert e.value == 0.0 and e.exact


def test_weight_one_on_infinite_parabolic_rejected(path_2edge):
    with pytest.raises(DegenerateWeights):
        growth_rate(System(path_2edge), WeightVector(path_2edge, [1, 2, 1]))


def test_all_one_weights_rejected(dihedral_inf):
    with pytest.raises(DegenerateWeights):
        growth_rate(System(dihedral_inf),
                    WeightVector(dihedral_inf, [1, 1]))


# ---------------------------------------------------------------------------
# reducible systems: the largest component rate

@pytest.mark.parametrize("wa, wb", [(2, 4), (2, 5)])
def test_k34_mixed_rate_is_largest_component_rate(k34, wa, wb):
    # (Z/2)^{*3} weighted wa has rate log 2 / log wa = 1 and (Z/2)^{*4}
    # weighted wb has log 3 / log wb < 1; the first sign change on the
    # curve of the product's denominator was 0.79 (2, 4) and 0.68 (2, 5)
    S = System(k34)
    w = WeightVector(k34, [wa] * 3 + [wb] * 4)
    e = S.rate(w)
    assert e.bracket == (1.0, 1.0) and e.exact
    assert classify_convergence(S, w, 1) == "boundary"


def test_k34_equal_factor_rates(k34):
    # both factor poles at x = 1/3, where the product's denominator only
    # touches 0 on the curve: the scan found no sign change and raised
    e = growth_rate(System(k34), WeightVector(k34, [8] * 3 + [27] * 4))
    assert e.contains(1 / 3) and e.bracket[1] - e.bracket[0] < 1e-9


def test_k34_exponents(k34):
    from coxinv.building import ThicknessVector
    ce = System(k34).exponents(ThicknessVector(k34, [2] * 3 + [4] * 4))
    assert (ce.p_hom, ce.p_cohom) == (2.0, 2.0)


def test_product_rate_skips_finite_and_affine_factors(pentagon):
    # pentagon x A1 x ~A1: only the pentagon factor grows exponentially
    INF = math.inf
    rows = [[1 if i == j else 2 for j in range(8)] for i in range(8)]
    for i in range(5):
        for j in range(5):
            if i != j:
                rows[i][j] = pentagon.entry(i, j)
    rows[6][7] = rows[7][6] = INF
    M = mat(rows)
    w = growth_rate(System(M), WeightVector(M, [2, 2, 2, 2, 3, 5, 7, 7]))
    alone = growth_rate(System(pentagon),
                        WeightVector(pentagon, [2, 2, 2, 2, 3]))
    assert w == alone


# ---------------------------------------------------------------------------
# the mixed-weight curve route

@pytest.mark.parametrize("x", [1, 2, 3])
def test_curve_terms_exact_at_integer_x(pentagon_system, pentagon, x):
    # at integer x every w^-x is rational, so the merged sum is exact
    w = WeightVector(pentagon, [2, 2, 2, 2, 3])
    s = pentagon_system.series
    point = [v ** -x for v in w.values]
    for poly, sizes in ((s.denominator, (12, 6)), (s.numerator, (32, 10))):
        curve = CurveTerms(poly, w)
        assert (len(poly.terms), len(curve.terms)) == sizes
        assert 0 not in curve.terms.values()
        merged = sum(c * wt ** -x for wt, c in curve.terms.items())
        assert merged == eval_frac(poly, point)


@pytest.mark.parametrize("q", [2, 3])
def test_curve_route_overlaps_sturm_route(pentagon_system, pentagon, q):
    # constant weights through the interval curve scan of the per-class
    # series, against exact Sturm isolation of its one-variable form
    w = WeightVector.constant(pentagon, q)
    curve = _series_rate_curve(pentagon_system.series, w)
    sturm = _series_rate_constant_weight(pentagon_system.series,
                                         math.log(q))
    assert curve.bracket[0] <= sturm.bracket[1]
    assert sturm.bracket[0] <= curve.bracket[1]
    assert curve.contains(E_PENTAGON / math.log(q))


# ---------------------------------------------------------------------------
# enumeration fits (moderate depth here; deep runs live in acceptance)

def test_pentagon_fit_unweighted(pentagon):
    e = enumeration_rate(System(pentagon), None, 12)
    assert e.method == "EnumerationFit"
    assert abs(e.value - E_PENTAGON) < 5e-2


def test_pentagon_fit_weighted(pentagon):
    w = WeightVector.constant(pentagon, 2)
    e = enumeration_rate(System(pentagon), w, 12)
    assert abs(e.value - E_PENTAGON / math.log(2)) < 5e-2


def test_affine_fit_bracket_contains_zero(triangle_333):
    w = WeightVector.constant(triangle_333, 2)
    e = enumeration_rate(System(triangle_333), w, 30)
    assert abs(e.value) < 1e-2
    assert e.bracket[0] <= 0.0 <= e.bracket[1]


def test_enumeration_fit_points_in_complete_range(pentagon, monkeypatch):
    import coxinv.growth as G
    seen = []

    def recording_fit(points):
        seen.extend(points)
        return enumeration_fit(points)

    monkeypatch.setattr(G, "enumeration_fit", recording_fit)
    w = WeightVector(pentagon, [2, 2, 2, 2, 4])
    enumeration_rate(System(pentagon), w, 10)
    # every fitted point lies within the completeness bound
    vmax = 10 * math.log(2)
    vs, qs = zip(*seen)
    assert all(v <= vmax + 1e-9 for v in vs)
    assert list(vs) == sorted(vs) and list(qs) == sorted(qs)


def test_fit_requires_points():
    with pytest.raises(DegenerateWeights):
        enumeration_fit([(1.0, 2)])


# ---------------------------------------------------------------------------
# convergence classification

def test_convergence_verdicts(pentagon):
    S = System(pentagon)
    w = WeightVector.constant(pentagon, 2)
    e = S.rate(w)
    assert classify_convergence(S, w, 2.0) == "converges"
    assert classify_convergence(S, w, 1.0) == "diverges"
    assert classify_convergence(S, w, e.value) == "boundary"


def test_convergence_affine(triangle_333):
    S = System(triangle_333)
    w = WeightVector.constant(triangle_333, 2)
    assert classify_convergence(S, w, 0.5) == "converges"
    assert classify_convergence(S, w, 0.0) == "boundary"


# ---------------------------------------------------------------------------
# structural properties

@pytest.fixture(scope="module")
def pentagon_system(pentagon):
    return System(pentagon)


@settings(max_examples=8, deadline=None)
@given(st.integers(2, 6))
def test_constant_weight_scaling(pentagon, pentagon_system, q):
    """e_q(W) = e(W) / log q for constant weights."""
    e0 = growth_rate(pentagon_system, None)
    eq = growth_rate(pentagon_system, WeightVector.constant(pentagon, q))
    assert abs(eq.value - e0.value / math.log(q)) < 1e-6


@pytest.fixture(scope="module")
def free_rank3():
    from .conftest import mat
    inf = float("inf")
    return mat([[1, inf, inf], [inf, 1, inf], [inf, inf, 1]])


@pytest.fixture(scope="module")
def free_rank3_system(free_rank3):
    return System(free_rank3)


@settings(max_examples=6, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.sampled_from([2, 3, 4]))
def test_weighted_rate_monotone_in_weights(free_rank3, free_rank3_system,
                                           qa, qb):
    """Raising any single weight cannot raise the counting exponent."""
    M, S = free_rank3, free_rank3_system
    e1 = growth_rate(S, WeightVector(M, [qa, qb, qb]))
    e2 = growth_rate(S, WeightVector(M, [qa + 1, qb, qb]))
    assert e2.value <= e1.value + 1e-6


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_univariate_is_lowest_terms_and_predicts_bfs(data):
    """On random infinite systems of rank <= 4, univariate() is coprime and
    its quotient gives the BFS ball's layer sizes through length 12, two
    lengths past the validation depth.  Half the labels are 2, and balls
    past 1500 elements by then are skipped: a rank-4 system with few
    commuting pairs has tens of thousands, seconds of matrix arithmetic."""
    n = data.draw(st.integers(2, 4))
    label = st.one_of(st.just(2), st.sampled_from((3, 4, 5, 6, math.inf)))
    rows = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = data.draw(label)
    system = System(mat(rows), caps=Caps(max_elements=1500))
    assume(not system.classification.is_finite())
    try:
        counts, source = system.layer_counts(12)
    except ResourceExceeded:
        assume(False)
    # a right-angled ball past the cap is counted by the recurrence
    assume(source == "bfs")
    num, den = system.series.univariate()
    assert _p1_gcd(num, den) == [1]
    assert series_quotient(num, den, 12) == \
        [sum(layer.values()) for layer in counts]


# ---------------------------------------------------------------------------
# the lcm accumulation against a second route and exact identities

def _unvalidated_series(M):
    """The library's per-class series of M without the BFS check, which
    the larger joins and free products below cannot afford."""
    return RationalGrowthSeries(*_growth_fraction(
        System(M, caps=Caps())), 0)


LABEL = st.one_of(st.just(2), st.sampled_from((3, 4, 5, 6, math.inf)))


def _draw_rows(data, n):
    rows = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = data.draw(LABEL)
    return rows


def _glue(a, b, label):
    """Coxeter matrix on the generators of a, then those of b, with
    every label between the two parts equal to label."""
    na, nb = len(a), len(b)
    return ([row + [label] * nb for row in a]
            + [[label] * na + row for row in b])


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_lcm_series_against_distinct_products_and_chiswell(data):
    """Random systems A and B of rank <= 4 with labels in
    {2,3,4,5,6,inf}, their join (labels 2 between) or free product
    (labels inf between).  For every system of rank <= 4 among them, the
    per-class expansion through length 12 equals that of the product of
    the distinct parabolic polynomials in tests/oracles.py, which finds
    and enumerates its parabolics itself.  Every printed form is coprime
    with denominator constant term 1.  The join satisfies
    W_{AxB} = W_A W_B and the free product 1/W_{A*B} = 1/W_A + 1/W_B - 1
    (Chiswell 1994) in the class variables, checked at two rational
    points: a product of the full polynomials takes seconds per draw."""
    a = _draw_rows(data, data.draw(st.integers(1, 4)))
    b = _draw_rows(data, data.draw(st.integers(1, 4)))
    label = data.draw(st.sampled_from((2, math.inf)))
    systems = [mat(a), mat(b), mat(_glue(a, b, label))]
    A, B, AB = (_unvalidated_series(M) for M in systems)
    for M, s in zip(systems, (A, B, AB)):
        num, den = s.univariate()
        assert _p1_gcd(num, den) == [1] and den[0] == 1
        if M.rank <= 4:
            assert s.expand(12) == expand_quotient(
                *growth_series_by_distinct_products(M), 12)
    # the classes of the whole are those of A, then those of B: compare
    # the cross-multiplied identities exactly at two rational points
    ka = len(systems[0].conjugacy_classes())
    for point in ([Fraction(1, 2 + k) for k in range(AB.numerator.nvars)],
                  [Fraction(3, 7 + 2 * k) for k in range(AB.numerator.nvars)]):
        na, da, nb, db, n, d = (
            eval_frac(p, x) for s, x in ((A, point[:ka]), (B, point[ka:]),
                                         (AB, point))
            for p in (s.numerator, s.denominator))
        if label == 2:
            assert n * da * db == d * na * nb
        else:
            assert d * na * nb == n * (da * nb + db * na - na * nb)
