import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from coxinv.elements import Caps
from coxinv.errors import ResourceExceeded
from coxinv.homology import betti_numbers
from coxinv.system import System

from .conftest import mat
from .oracles import (davis_chamber, is_cone, vcd_by_davis_chamber,
                      verify_boundary_squares_to_zero)


# ---------------------------------------------------------------------------
# nerve

def test_nerve_pentagon_is_circle(pentagon):
    N = System(pentagon).nerve
    assert N.dim == 1
    assert len(N.k_faces(0)) == 5 and len(N.k_faces(1)) == 5
    assert betti_numbers(N) == [1, 1]


def test_nerve_333_is_circle(triangle_333):
    N = System(triangle_333).nerve
    assert betti_numbers(N) == [1, 1]
    assert N.dim == 1


def test_nerve_path(path_2edge):
    N = System(path_2edge).nerve
    assert N.dim == 1
    assert betti_numbers(N) == [1, 0]


def test_system_simplex_cap_bounds_nerve_and_vcd(pentagon):
    # the pentagon's nerve holds 10 simplices and its full subcomplex on
    # three consecutive generators 5: the System's caps refuse both
    system = System(pentagon, caps=Caps(2_000_000, 3))
    with pytest.raises(ResourceExceeded, match="exceeds 3 simplices"):
        system.nerve
    with pytest.raises(ResourceExceeded, match="exceeds 3 simplices"):
        system.vcd


def test_nerve_finite_is_simplex(a2):
    N = System(a2).nerve
    assert N.dim == 1
    assert len(N.k_faces(1)) == 1
    assert is_cone(N)


# ---------------------------------------------------------------------------
# chamber and mirrors

def test_chamber_is_contractible_cone(pentagon, triangle_333, a2):
    for M in (pentagon, triangle_333, a2):
        ch = davis_chamber(M)
        assert is_cone(ch.complex)
        assert betti_numbers(ch.complex) == [1] + [0] * ch.complex.dim
        assert verify_boundary_squares_to_zero(ch.complex)


def test_mirrors_pentagon(pentagon):
    ch = davis_chamber(pentagon)
    # each mirror: the vertex {s}, two pair-vertices, and edges between:
    # a path of 3 vertices, contractible
    for s in range(5):
        mir = ch.mirrors[s]
        assert betti_numbers(mir) == [1, 0]
        assert len(mir.k_faces(0)) == 3
    full = ch.mirror_union(range(5))
    # union of all mirrors: the subdivided nerve circle
    assert betti_numbers(full) == [1, 1]


def test_mirror_union_empty(pentagon):
    ch = davis_chamber(pentagon)
    assert len(ch.mirror_union(())) == 0


# ---------------------------------------------------------------------------
# vcd

def test_vcd_finite_zero(a2):
    # only the empty T has a degree: the one spherical witness
    r = System(a2).vcd
    assert r.value == 0
    assert [(w.subset, w.degree) for w in r.witnesses] == [((), 0)]


def test_vcd_dihedral(dihedral_inf):
    r = System(dihedral_inf).vcd
    assert r.value == 1
    # only T = S realizes degree 1, and it is not spherical
    assert [(w.subset, w.degree) for w in r.witnesses] == [((0, 1), 1)]


def test_vcd_333(triangle_333):
    r = System(triangle_333).vcd
    assert r.value == 2
    assert any(w.subset == (0, 1, 2) for w in r.witnesses)


def test_vcd_pentagon(pentagon):
    r = System(pentagon).vcd
    assert r.value == 2
    assert any(w.subset == (0, 1, 2, 3, 4) for w in r.witnesses)


def test_vcd_path(path_2edge):
    r = System(path_2edge).vcd
    assert r.value == 1


def test_vcd_square_product(square_product):
    r = System(square_product).vcd
    assert r.value == 2


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_vcd_nerve_route_matches_davis_chamber(data):
    """The full subcomplexes of the nerve give the relative homology of
    the Davis chamber: same value and witness list, in the same order.
    A nonempty spherical T spans a simplex, so the spherical maximum is 0
    and a witness is spherical exactly when the value is 0."""
    n = data.draw(st.integers(2, 6))
    labels = st.sampled_from([2, 3, 4, 5, 6, math.inf])
    rows = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = data.draw(labels)
    M = mat(rows)
    # the oracle ranks dense matrices by Bareiss elimination, cubic in
    # the chamber size: 200 simplices take about a second
    assume(len(davis_chamber(M).complex) <= 200)
    r = System(M).vcd
    value, spherical_value, witnesses = vcd_by_davis_chamber(M)
    assert r.value == value
    assert [(w.subset, w.degree) for w in r.witnesses] == \
        [(T, degree) for T, degree, _ in witnesses]
    assert spherical_value == 0
    assert all(spherical == (value == 0) for _, _, spherical in witnesses)


# ---------------------------------------------------------------------------
# nerve pseudomanifold verdicts

def test_pm_verdicts(pentagon, triangle_333, path_2edge):
    assert System(pentagon).type_pm.is_pm
    assert System(triangle_333).type_pm.is_pm
    assert not System(path_2edge).type_pm.is_pm
