import math

import pytest
from hypothesis import given, settings, strategies as st

from coxinv.coxeter import CoxeterMatrix
from coxinv.elements import (Caps, ReflectionRep, ball_enumerate,
                             blocker_masks, commutation_table,
                             racg_layer_counts, word_children)
from coxinv.errors import ResourceExceeded

from .conftest import mat
from .oracles import (append_letter, brute_canonical, degree_product,
                      word_matrix)

INF = math.inf


def layer_sizes(ball):
    return [len(layer) for layer in ball.layers]


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
    ball = ball_enumerate(dihedral_inf, 5, Caps())
    assert layer_sizes(ball) == [1, 2, 2, 2, 2, 2]
    assert not ball.group_exhausted


def test_a2_exhausts(a2):
    ball = ball_enumerate(a2, 10, Caps())
    assert layer_sizes(ball) == [1, 2, 2, 1]
    assert ball.group_exhausted


def test_pentagon_layers(pentagon):
    ball = ball_enumerate(pentagon, 12, Caps())
    assert layer_sizes(ball) == PENTAGON_LAYERS


def test_h3_exhausts_at_120():
    h3 = mat([[1, 5, 2], [5, 1, 3], [2, 3, 1]])
    ball = ball_enumerate(h3, 64, Caps())
    assert ball.group_exhausted
    assert sum(layer_sizes(ball)) == 120
    assert max(k for k, n in enumerate(layer_sizes(ball)) if n) == 15


@pytest.mark.parametrize("name", sorted(FINITE_DEGREES))
def test_matrix_backend_matches_degree_product(name):
    rows, degrees = FINITE_DEGREES[name]
    want = degree_product(degrees)
    # one layer past the longest element, so that expansion empties
    ball = ball_enumerate(mat(rows), len(want), Caps(), backend="matrix")
    assert ball.group_exhausted
    assert layer_sizes(ball) == want


def test_matrix_coordinates_are_ints(triangle_732):
    # the ball of radius 8 is the set of products of at most 8 generators
    rep = ReflectionRep(triangle_732)
    ball, frontier = {rep.identity}, {rep.identity}
    for _ in range(8):
        frontier = {rep.apply_gen(m, s) for m in frontier
                    for s in range(3)} - ball
        ball |= frontier
    assert len(ball) == sum(layer_sizes(
        ball_enumerate(triangle_732, 8, Caps())))
    assert word_matrix(rep, [0, 1, 2, 1, 0, 1, 2, 1]) in ball
    cells = [x for m in ball for col in m for cell in col for x in cell]
    # 3x3 matrices over Q(2cos pi/42), which has degree 12
    assert len(cells) == 9 * 12 * len(ball)
    assert all(type(x) is int for x in cells)


def test_unknown_backend_rejected(pentagon):
    with pytest.raises(ValueError):
        ball_enumerate(pentagon, 2, Caps(), backend="words")


def test_backends_agree(pentagon):
    w = ball_enumerate(pentagon, 7, Caps(), backend="word")
    m = ball_enumerate(pentagon, 7, Caps(), backend="matrix")
    assert layer_sizes(w) == layer_sizes(m) == PENTAGON_LAYERS[:8]
    assert w.class_counts() == m.class_counts()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=10))
def test_shorter_flag_matches_is_descent(pentagon, letters):
    """The word representation's `shorter` flag and the matrix
    representation's sign test pick the same descents of an element."""
    commute = commutation_table(pentagon)
    rep = ReflectionRep(pentagon)
    word = ()
    for s in letters:
        word, _ = append_letter(word, s, commute)
    cols = word_matrix(rep, letters)
    for s in range(5):
        assert append_letter(word, s, commute)[1] == rep.is_descent(cols, s)


def _random_right_angled(data, low, high):
    n = data.draw(st.integers(low, high))
    rows = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = data.draw(st.sampled_from((2, INF)))
    return mat(rows)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_word_children_match_reference(data):
    """On random words of random right-angled systems, the one-scan
    kernel lists exactly the generators that the letter-by-letter
    reference and the reflection representation's sign test call
    non-descents, each with the reference's canonical word."""
    M = _random_right_angled(data, 2, 7)
    letters = data.draw(st.lists(st.integers(0, M.rank - 1), max_size=12))
    commute = commutation_table(M)
    word = ()
    for s in letters:
        word, _ = append_letter(word, s, commute)
    rep = ReflectionRep(M)
    cols = word_matrix(rep, letters)
    want = []
    for s in range(M.rank):
        child, shorter = append_letter(word, s, commute)
        assert shorter == rep.is_descent(cols, s)
        if not shorter:
            want.append((s, child))
    assert list(word_children(word, blocker_masks(M))) == want


def test_recurrence_matches_bfs(pentagon, square_product):
    for M in (pentagon, square_product):
        ball = ball_enumerate(M, 9, Caps())
        rec = racg_layer_counts(M, 9, Caps())
        assert rec == ball.class_counts()
        assert [sum(d.values()) for d in rec] == layer_sizes(ball)


def _count_calls(monkeypatch, owner, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(owner, name, counted)
    return calls


def test_word_enumeration_work(monkeypatch, pentagon):
    """Only the layers below the radius are expanded, each element once
    for all generators."""
    import coxinv.elements as E
    calls = _count_calls(monkeypatch, E, ("word_children",))
    ball_enumerate(pentagon, 10, Caps())
    assert calls["word_children"] == sum(PENTAGON_LAYERS[:10]) == 20_901


def test_matrix_enumeration_work(monkeypatch, triangle_732):
    """The same for matrices: one descent test per element and
    generator."""
    calls = _count_calls(monkeypatch, ReflectionRep, ("is_descent",))
    ball = ball_enumerate(triangle_732, 8, Caps())
    assert calls == {"is_descent": 3 * sum(layer_sizes(ball)[:8])}


def test_caps_enforced(pentagon):
    with pytest.raises(ResourceExceeded):
        ball_enumerate(pentagon, 12, caps=Caps(max_elements=1000,
                                               max_simplices=10 ** 6))


def test_cap_refuses_as_each_element_enters(monkeypatch, pentagon):
    """The cap is checked per recorded element: refusing costs at most
    cap + 1 elements, not the rest of the layer that crosses the cap."""
    import coxinv.elements as E
    recorded = {()}
    real = E.word_children

    def spy(word, blockers):
        for s, child in real(word, blockers):
            recorded.add(child)
            yield s, child
    monkeypatch.setattr(E, "word_children", spy)
    cap = 1000
    # ball sizes 1, 6, 21, 61, 166, 441, 1161: radius 6 crosses the cap
    with pytest.raises(ResourceExceeded,
                       match=f"exceeds cap {cap} at radius 6$"):
        ball_enumerate(pentagon, 14, caps=Caps(max_elements=cap))
    assert len(recorded) == cap + 1


def test_descent_sets_are_spherical(pentagon):
    # the descent set of any element generates a finite parabolic
    from coxinv.coxeter import classify_parabolic
    commute = commutation_table(pentagon)
    rep = ReflectionRep(pentagon)
    words, frontier = {()}, {()}
    for _ in range(6):
        frontier = {append_letter(w, s, commute)[0] for w in frontier
                    for s in range(5)} - words
        words |= frontier
    assert len(words) == sum(PENTAGON_LAYERS[:7])
    for word in words:
        cols = word_matrix(rep, word)
        D = {s for s in range(5) if rep.is_descent(cols, s)}
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
    cur = word_matrix(rep, letters)
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


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_class_vector_path_independent(data):
    """Class vectors accumulated along canonical words, along matrix
    products and through the descent-set recurrence give the same
    per-class counts on random right-angled systems."""
    M = _random_right_angled(data, 3, 5)
    w = ball_enumerate(M, 5, Caps(), backend="word")
    m = ball_enumerate(M, 5, Caps(), backend="matrix")
    rec = racg_layer_counts(M, 5, Caps())
    # a finite group exhausts early; the recurrence then counts zeros
    k = len(w.layers)
    assert w.class_counts() == m.class_counts() == rec[:k]
    assert not any(rec[k:])
