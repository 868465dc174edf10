import math

import pytest
from hypothesis import given, settings, strategies as st

from coxinv.coxeter import CoxeterMatrix, classify_parabolic, spherical_subsets
from coxinv.errors import AsymmetryError, BadEntry, DiagonalError, SchemaError
from coxinv.system import System

from .oracles import parabolic_is_finite_by_enumeration
from .conftest import mat

INF = math.inf


# ---------------------------------------------------------------------------
# schema validation

def test_rejects_asymmetry():
    with pytest.raises(AsymmetryError):
        mat([[1, 3], [4, 1]])


def test_rejects_bad_diagonal():
    with pytest.raises(DiagonalError):
        mat([[2, 3], [3, 1]])


def test_rejects_entry_below_two():
    with pytest.raises(BadEntry):
        mat([[1, 1], [1, 1]])


def test_rejects_nonsquare():
    with pytest.raises(SchemaError):
        mat([[1, 3]])


def test_rejects_duplicate_names():
    with pytest.raises(SchemaError):
        CoxeterMatrix(["a", "a"], [[1, 3], [3, 1]])


def test_accepts_float_infinity():
    m = mat([[1, float("inf")], [float("inf"), 1]])
    assert m.entry(0, 1) == INF


# ---------------------------------------------------------------------------
# classification against the standard tables

FINITE_CASES = [
    ([[1]], "A1"),
    ([[1, 3], [3, 1]], "A2"),
    ([[1, 4], [4, 1]], "B2"),
    ([[1, 6], [6, 1]], "G2"),
    ([[1, 7], [7, 1]], "I2(7)"),
    ([[1, 3, 2], [3, 1, 3], [2, 3, 1]], "A3"),
    ([[1, 3, 2], [3, 1, 4], [2, 4, 1]], "B3"),
    ([[1, 5, 2], [5, 1, 3], [2, 3, 1]], "H3"),
    ([[1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]], "A4"),
    ([[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3], [2, 2, 3, 1]], "F4"),
    ([[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]], "H4"),
    # D4: star with three legs
    ([[1, 3, 3, 3], [3, 1, 2, 2], [3, 2, 1, 2], [3, 2, 2, 1]], "D4"),
]

AFFINE_CASES = [
    ([[1, INF], [INF, 1]], "~A1"),
    ([[1, 3, 3], [3, 1, 3], [3, 3, 1]], "~A2"),
    ([[1, 4, 2], [4, 1, 4], [2, 4, 1]], "~C2"),
    ([[1, 6, 2], [6, 1, 3], [2, 3, 1]], "~G2"),
    # ~B3: fork of two nodes onto c, then a 4-labelled edge c-d
    ([[1, 2, 3, 2], [2, 1, 3, 2], [3, 3, 1, 4], [2, 2, 4, 1]], None),
]


@pytest.mark.parametrize("rows,label", FINITE_CASES)
def test_finite_labels(rows, label):
    cls = classify_parabolic(mat(rows))
    assert cls.is_finite()
    assert cls.components[0].label == label


@pytest.mark.parametrize("rows,label", AFFINE_CASES)
def test_affine_labels(rows, label):
    cls = classify_parabolic(mat(rows))
    assert cls.is_affine()
    if label is not None:
        assert cls.components[0].label == label


def test_hyperbolic_triangle_is_neither(triangle_732):
    cls = classify_parabolic(triangle_732)
    assert not cls.is_finite() and not cls.is_affine()


def test_reducible_finite():
    # A1 x A2
    cls = classify_parabolic(mat([[1, 2, 2], [2, 1, 3], [2, 3, 1]]))
    assert cls.is_finite()
    labels = sorted(c.label for c in cls.components)
    assert labels == ["A1", "A2"]


def test_affine_times_finite_is_affine_kind():
    # ~A1 x A1 is virtually abelian: still kind "affine" (polynomial growth)
    cls = classify_parabolic(mat([[1, INF, 2], [INF, 1, 2], [2, 2, 1]]))
    assert not cls.is_finite()
    assert cls.is_affine()
    kinds = sorted(c.kind for c in cls.components)
    assert kinds == ["affine", "finite"]


def test_affine_times_hyperbolic_not_affine():
    # an exponential component defeats the affine kind
    rows = [[1, INF, 2], [INF, 1, INF], [2, INF, 1]]
    cls = classify_parabolic(mat(rows))
    assert cls.kind == "other_infinite"


def test_is_affine_system(triangle_333, square_product):
    assert classify_parabolic(triangle_333).is_affine()
    # product of two affines: still polynomial growth, counts as affine
    assert classify_parabolic(square_product).is_affine()


# ---------------------------------------------------------------------------
# group orders and spherical subsets

def test_finite_group_orders():
    def order(rows):
        return classify_parabolic(mat(rows)).order()
    assert order([[1, 3], [3, 1]]) == 6
    assert order([[1, 5, 2], [5, 1, 3], [2, 3, 1]]) == 120
    assert order([[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 3],
                  [2, 2, 3, 1]]) == 14400
    with pytest.raises(SchemaError):
        classify_parabolic(mat([[1, INF], [INF, 1]])).order()


def test_spherical_subsets_pentagon(pentagon):
    walk = spherical_subsets(pentagon, classify_parabolic(pentagon))
    subs = [T for T, cls in walk.items() if cls.is_finite()]
    # empty set, 5 singletons, 5 commuting pairs
    assert len(subs) == 11
    sizes = sorted(len(T) for T in subs)
    assert sizes == [0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2]
    # and the 5 non-commuting pairs, minimal non-spherical
    assert [sorted(T) for T, cls in walk.items() if not cls.is_finite()] == \
        [[0, 2], [0, 3], [1, 3], [1, 4], [2, 4]]
    assert subs == System(pentagon).sphericals


def test_spherical_subsets_333(triangle_333):
    walk = spherical_subsets(triangle_333, classify_parabolic(triangle_333))
    # the whole set is affine, every proper subset is spherical
    assert walk[frozenset({0, 1, 2})].is_affine()
    assert len(walk) == 8
    assert frozenset({0, 1, 2}) not in System(triangle_333).sphericals


def test_sphericality_matches_matrix_enumeration(pentagon, triangle_732):
    for M in (pentagon, triangle_732):
        for T in System(M).sphericals:
            if not T:
                continue
            finite, _n = parabolic_is_finite_by_enumeration(M, T)
            assert finite
    finite, _ = parabolic_is_finite_by_enumeration(triangle_732, {0, 1, 2},
                                                   bound=3000)
    assert not finite


# ---------------------------------------------------------------------------
# conjugacy classes of generators (odd-edge connectivity)

def test_conjugacy_classes(pentagon, triangle_333, triangle_732, dihedral_inf):
    assert len(pentagon.conjugacy_classes()) == 5     # right angles only
    assert triangle_333.conjugacy_classes() == ((0, 1, 2),)
    assert triangle_732.conjugacy_classes() == ((0, 1, 2),)
    assert len(dihedral_inf.conjugacy_classes()) == 2


# ---------------------------------------------------------------------------
# canonical keys and relabelling

def test_digest_stable(pentagon):
    assert pentagon.digest() == pentagon.digest()
    other = mat(pentagon.m, names=list("vwxyz"))
    assert other.digest() != pentagon.digest()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_classification_invariant_under_relabelling(data):
    n = data.draw(st.integers(2, 4))
    entries = {}
    for i in range(n):
        for j in range(i + 1, n):
            entries[(i, j)] = data.draw(
                st.sampled_from([2, 3, 4, 5, 6, INF]))
    rows = [[1 if i == j else entries[(min(i, j), max(i, j))]
             for j in range(n)] for i in range(n)]
    M = mat(rows)
    perm = data.draw(st.permutations(range(n)))
    prow = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    M2 = mat(prow)
    c1, c2 = classify_parabolic(M), classify_parabolic(M2)
    assert c1.kind == c2.kind
    assert sorted(c.label for c in c1.components) == \
        sorted(c.label for c in c2.components)
    assert len(System(M).sphericals) == len(System(M2).sphericals)
