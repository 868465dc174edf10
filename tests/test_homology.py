import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coxinv.elements import DEFAULT_MAX_SIMPLICES as CAP
from coxinv.errors import ResourceExceeded, SchemaError
from coxinv.homology import (SimplicialComplexQ, betti_numbers, pm_verdict,
                             rank_fraction)

from .oracles import (bareiss_rank, is_cone, order_complex,
                      relative_betti_numbers, verify_boundary_squares_to_zero)

# minimal 6-vertex triangulation of the real projective plane
# (antipodal quotient of the icosahedron)
RP2_FACES = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
             (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]

S2_FACES = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]

CIRCLE_FACES = [(1, 2), (2, 3), (1, 3)]

MOBIUS_FACES = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4)]


def test_closure():
    X = SimplicialComplexQ([(1, 2, 3)], CAP)
    assert len(X) == 7
    assert (1, 3) in X and (2,) in X
    assert X.dim == 2


def test_max_simplices_cap():
    with pytest.raises(ResourceExceeded):
        SimplicialComplexQ([tuple(range(12))], max_simplices=100)


def test_boundary_squares_to_zero():
    for faces in (RP2_FACES, S2_FACES, MOBIUS_FACES):
        assert verify_boundary_squares_to_zero(
            SimplicialComplexQ(faces, CAP))


def test_betti_sphere():
    assert betti_numbers(SimplicialComplexQ(S2_FACES, CAP)) == [1, 0, 1]


def test_betti_circle():
    assert betti_numbers(SimplicialComplexQ(CIRCLE_FACES, CAP)) == [1, 1]


def test_betti_rp2_rational():
    # over Q the projective plane is a homology point
    assert betti_numbers(SimplicialComplexQ(RP2_FACES, CAP)) == [1, 0, 0]


def test_betti_mobius():
    assert betti_numbers(SimplicialComplexQ(MOBIUS_FACES, CAP)) == [1, 1, 0]


def test_betti_disc_cone():
    X = SimplicialComplexQ([(0, 1, 2), (0, 2, 3), (0, 1, 3)], CAP)
    assert is_cone(X)
    assert betti_numbers(X) == [1, 0, 0]


def test_reduced_betti():
    X = SimplicialComplexQ([(1,), (2,), (3, 4)], CAP)
    assert betti_numbers(X) == [3, 0]
    assert betti_numbers(X, reduced=True) == [2, 0]


# relative homology lives on the oracle route (the Davis-chamber vcd)

def test_relative_betti_disc_boundary():
    # (D^2, S^1): H_2 = Q, H_1 = 0, H_0 = 0
    disc = SimplicialComplexQ([(0, 1, 2), (0, 2, 3), (0, 1, 3)], CAP)
    boundary = SimplicialComplexQ([(1, 2), (2, 3), (1, 3)], CAP)
    assert relative_betti_numbers(disc, boundary) == [0, 0, 1]


def test_relative_betti_pair_interval():
    # ([0,1], {0,1}): H_1 = Q
    interval = SimplicialComplexQ([(0, 1)], CAP)
    ends = SimplicialComplexQ([(0,), (1,)], CAP)
    assert relative_betti_numbers(interval, ends) == [0, 1]


def test_relative_requires_subcomplex():
    X = SimplicialComplexQ([(0, 1)], CAP)
    A = SimplicialComplexQ([(5,)], CAP)
    with pytest.raises(SchemaError):
        relative_betti_numbers(X, A)


def test_euler_characteristics():
    assert SimplicialComplexQ(RP2_FACES, CAP).euler_characteristic() == 1
    assert SimplicialComplexQ(S2_FACES, CAP).euler_characteristic() == 2
    assert SimplicialComplexQ(CIRCLE_FACES, CAP).euler_characteristic() == 0


# ---------------------------------------------------------------------------
# pseudomanifold verdicts

def test_rp2_each_edge_in_two_triangles():
    X = SimplicialComplexQ(RP2_FACES, CAP)
    assert len(X.k_faces(1)) == 15
    count = {}
    for f in RP2_FACES:
        for e in itertools.combinations(f, 2):
            count[e] = count.get(e, 0) + 1
    assert all(v == 2 for v in count.values())


def test_pm_sphere_orientable():
    v = pm_verdict(SimplicialComplexQ(S2_FACES, CAP))
    assert v.purely_dimensional and v.pseudomanifold and v.gallery_connected
    assert v.orientable is True
    assert v.fundamental_cycle is not None
    assert set(v.fundamental_cycle.values()) <= {1, -1}


def test_pm_rp2_not_orientable():
    v = pm_verdict(SimplicialComplexQ(RP2_FACES, CAP))
    assert v.pseudomanifold and v.gallery_connected
    assert v.orientable is False
    assert v.fundamental_cycle is None


def test_pm_mobius_not_pseudomanifold():
    v = pm_verdict(SimplicialComplexQ(MOBIUS_FACES, CAP))
    assert v.purely_dimensional
    assert not v.pseudomanifold          # boundary edges live in one triangle
    assert v.orientable is None


def test_pm_circle():
    v = pm_verdict(SimplicialComplexQ(CIRCLE_FACES, CAP))
    assert v.pseudomanifold and v.gallery_connected and v.orientable


def test_pm_zero_dim_two_points():
    v = pm_verdict(SimplicialComplexQ([(1,), (2,)], CAP))
    assert v.pseudomanifold and v.orientable
    assert sorted(v.fundamental_cycle.values()) == [-1, 1]
    v3 = pm_verdict(SimplicialComplexQ([(1,), (2,), (3,)], CAP))
    assert not v3.pseudomanifold


def test_pm_not_purely_dimensional():
    X = SimplicialComplexQ([(1, 2, 3), (3, 4)], CAP)
    v = pm_verdict(X)
    assert not v.purely_dimensional and not v.pseudomanifold


def test_pm_wedge_not_gallery_connected():
    # two triangles sharing only a vertex: pure, every edge in one face
    X = SimplicialComplexQ([(0, 1, 2), (2, 3, 4)], CAP)
    v = pm_verdict(X)
    assert v.purely_dimensional
    assert not v.pseudomanifold
    assert not v.gallery_connected


# ---------------------------------------------------------------------------
# order complexes

def test_order_complex_barycentric():
    # chains of nonempty subsets of a triangle: its barycentric subdivision
    elems = [frozenset(s) for k in (1, 2, 3)
             for s in itertools.combinations((1, 2, 3), k)]
    X = order_complex(elems, lambda a, b: a < b,
                      key=lambda e: tuple(sorted(e)))
    assert betti_numbers(X) == [1, 0, 0]
    assert len(X.k_faces(2)) == 6
    v = pm_verdict(X)
    assert v.purely_dimensional


def test_order_complex_requires_injective_key():
    with pytest.raises(SchemaError):
        order_complex([frozenset({1}), frozenset({2})],
                      lambda a, b: a < b, key=lambda e: "same")


def test_order_complex_circle_poset():
    # face poset of the boundary of a triangle: subdivided circle
    elems = [frozenset(s) for k in (1, 2)
             for s in itertools.combinations((1, 2, 3), k)]
    X = order_complex(elems, lambda a, b: a < b,
                      key=lambda e: tuple(sorted(e)))
    assert betti_numbers(X) == [1, 1]
    assert pm_verdict(X).is_pm


# ---------------------------------------------------------------------------
# rank engine vs the integer oracle

@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rank_matches_bareiss(data):
    nr = data.draw(st.integers(1, 6))
    nc = data.draw(st.integers(1, 6))
    rows = [[data.draw(st.integers(-4, 4)) for _ in range(nc)]
            for _ in range(nr)]
    cols = []
    for j in range(nc):
        col = {i: Fraction(rows[i][j]) for i in range(nr) if rows[i][j]}
        cols.append(col)
    assert rank_fraction(cols, nr) == bareiss_rank(rows)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_euler_equals_alternating_betti_sum(data):
    verts = list(range(7))
    nfaces = data.draw(st.integers(1, 8))
    faces = [tuple(sorted(data.draw(
        st.sets(st.sampled_from(verts), min_size=1, max_size=4))))
        for _ in range(nfaces)]
    X = SimplicialComplexQ(faces, CAP)
    b = betti_numbers(X)
    chi = sum((-1) ** k * v for k, v in enumerate(b))
    assert chi == X.euler_characteristic()
    assert verify_boundary_squares_to_zero(X)