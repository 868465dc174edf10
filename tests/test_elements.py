import math

import pytest
from hypothesis import given, settings, strategies as st

from coxinv.coxeter import CoxeterMatrix
from coxinv.elements import (Caps, ReflectionRep, append_letter, ball_enumerate,
                             commutation_table, racg_layer_counts)
from coxinv.errors import ResourceExceeded

from .conftest import mat
from .oracles import brute_canonical, degree_product

INF = math.inf

PENTAGON_LAYERS = [1, 5, 15, 40, 105, 275, 720, 1885, 4935, 12920, 33825,
                   88555, 231840]

# finite irreducible systems with their degrees; their representations live
# in Q(2cos pi/N) of degree 2 (N = 6), 3 (N = 7), 4 (N = 8, 12) and 8 (N = 30)
FINITE_DEGREES = {
    "A3": ([[1, 3, 2], [3, 1, 3], [2, 3, 1]], (2, 3, 4)),
    "B3": ([[1, 4, 2], [4, 1, 3], [2, 3, 1]], (2, 4, 6)),
    "H3": ([[1, 5, 2], [5, 1, 3], [2, 3, 1]], (2, 6, 10)),
    "D4": ([[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]],
           (2, 4, 4, 6)),
    "F4": ([[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3], [2, 2, 3, 1]],
           (2, 6, 8, 12)),
    "H4": ([[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]],
           (2, 12, 20, 30)),
    "I2(7)": ([[1, 7], [7, 1]], (2, 7)),
    "I2(8)": ([[1, 8], [8, 1]], (2, 8)),
}


def test_dihedral_layers(dihedral_inf):
    ball = ball_enumerate(dihedral_inf, 5)
    assert ball.layer_sizes() == [1, 2, 2, 2, 2, 2]
    assert not ball.group_exhausted


def test_a2_exhausts(a2):
    ball = ball_enumerate(a2, 10)
    assert ball.layer_sizes() == [1, 2, 2, 1]
    assert ball.group_exhausted


def test_pentagon_layers(pentagon):
    ball = ball_enumerate(pentagon, 12)
    assert ball.layer_sizes() == PENTAGON_LAYERS


def test_h3_exhausts_at_120():
    h3 = mat([[1, 5, 2], [5, 1, 3], [2, 3, 1]])
    ball = ball_enumerate(h3, 64)
    assert ball.group_exhausted
    assert ball.ball_sizes()[-1] == 120
    assert max(k for k, n in enumerate(ball.layer_sizes()) if n) == 15


@pytest.mark.parametrize("name", sorted(FINITE_DEGREES))
def test_matrix_backend_matches_degree_product(name):
    rows, degrees = FINITE_DEGREES[name]
    want = degree_product(degrees)
    # one layer past the longest element, so that expansion empties
    ball = ball_enumerate(mat(rows), len(want), backend="matrix")
    assert ball.group_exhausted
    assert ball.layer_sizes() == want


def test_matrix_coordinates_are_ints(triangle_732):
    ball = ball_enumerate(triangle_732, 8, backend="matrix")
    cells = [x for g in ball.elements() for col in g.matrix for cell in col
             for x in cell]
    # 3x3 matrices over Q(2cos pi/42), which has degree 12
    assert len(cells) == 9 * 12 * ball.ball_sizes()[-1]
    assert all(type(x) is int for x in cells)
    assert all(type(x) is int
               for layer in ball.layers for key, *_ in layer for x in key)


def test_unknown_backend_rejected(pentagon):
    with pytest.raises(ValueError):
        ball_enumerate(pentagon, 2, backend="words")


def test_backends_agree(pentagon):
    # the layers are ordered by backend-specific keys, so descent masks
    # are compared as multisets
    w = ball_enumerate(pentagon, 7, backend="word")
    m = ball_enumerate(pentagon, 7, backend="matrix")
    assert (w.backend, m.backend) == ("word", "matrix")
    assert w.layer_sizes() == m.layer_sizes()
    assert w.class_counts() == m.class_counts()
    for lw, lm in zip(w.layers, m.layers):
        assert sorted(x[3] for x in lw) == sorted(x[3] for x in lm)


def test_recurrence_matches_bfs(pentagon, square_product):
    for M in (pentagon, square_product):
        ball = ball_enumerate(M, 9)
        rec = racg_layer_counts(M, 9, track_classes=True)
        assert rec == ball.class_counts()
        rec_sizes = racg_layer_counts(M, 9)
        assert rec_sizes == ball.layer_sizes()


def test_caps_enforced(pentagon):
    with pytest.raises(ResourceExceeded):
        ball_enumerate(pentagon, 12, caps=Caps(max_elements=1000,
                                               max_simplices=10 ** 6))


def test_descent_sets_are_spherical(pentagon):
    # the descent set of any element generates a finite parabolic
    from coxinv.coxeter import classify_parabolic
    ball = ball_enumerate(pentagon, 6)
    for el in ball.elements():
        D = el.descents()
        if D:
            assert classify_parabolic(pentagon, D).is_finite()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=9))
def test_canonical_form_matches_brute_force(pentagon, letters):
    commute = commutation_table(pentagon)
    word = ()
    for s in letters:
        word, _cancel = append_letter(word, s, commute)
    assert word == brute_canonical(tuple(letters), commute)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=8))
def test_descent_unwinding_recovers_length(triangle_732, letters):
    """Greedy descent unwinding reaches the identity in l(w) steps, and
    l(w) has the same parity as any spelling of w (exact matrices)."""
    rep = ReflectionRep(triangle_732)
    cur = rep.word_matrix(letters)
    steps = 0
    while cur != rep.identity:
        s = next(t for t in range(3) if rep.is_descent(cur, t))
        cur = rep.apply_gen(cur, s)
        steps += 1
        assert steps <= len(letters)
    assert steps % 2 == len(letters) % 2


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=10))
def test_involution(pentagon, letters):
    """w followed by reversed w cancels to the identity."""
    commute = commutation_table(pentagon)
    word = ()
    for s in letters:
        word, _ = append_letter(word, s, commute)
    back = word
    for s in reversed(word):
        back, cancel = append_letter(back, s, commute)
        assert cancel
    assert back == ()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_class_vector_path_independent(pentagon, data):
    """Any two reduced spellings of the same element report the same
    conjugacy-class vector (checked via enumeration layers)."""
    ball = ball_enumerate(pentagon, 5)
    layer = data.draw(st.sampled_from(range(1, 6)))
    entries = ball.layers[layer]
    key, word, cv, mask = data.draw(st.sampled_from(list(entries)))
    assert sum(cv) == layer
    assert cv == tuple(sum(1 for x in word if pentagon.class_of()[x] == c)
                       for c in range(len(pentagon.conjugacy_classes())))
