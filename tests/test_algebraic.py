import functools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from coxinv.algebraic import (MAX_FIELD_N, CycloField, cyclotomic, dickson,
                              minimal_poly_2cos_pi_over)
from coxinv.errors import ResourceExceeded

from . import oracles
from .oracles import minimal_poly_2cos_pi_over_by_dickson


def _sub(F, a, b):
    return F.add(a, F.neg(b))


def test_cyclotomic_first_few():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_memo_cannot_be_changed_by_a_caller():
    phi = cyclotomic(30)
    assert phi is cyclotomic(30)
    with pytest.raises(TypeError):
        phi[0] = 7
    assert cyclotomic(30) == (1, 1, 0, -1, -1, -1, 0, 1, 1)


def test_dickson_matches_cos_identity():
    # D_k(2 cos x) = 2 cos(k x)
    x = 0.7391
    for k in range(8):
        p = dickson(k)
        val = sum(c * (2 * math.cos(x)) ** i for i, c in enumerate(p))
        assert abs(val - 2 * math.cos(k * x)) < 1e-9


def test_minpoly_golden_ratio():
    # 2 cos(pi/5) is the golden ratio, root of x^2 - x - 1
    assert minimal_poly_2cos_pi_over(5) == [-1, -1, 1]


def test_minpoly_small_cases():
    assert minimal_poly_2cos_pi_over(1) == [2, 1]       # 2cos(pi) = -2
    assert minimal_poly_2cos_pi_over(2) == [0, 1]       # 2cos(pi/2) = 0
    assert minimal_poly_2cos_pi_over(3) == [-1, 1]      # 2cos(pi/3) = 1
    assert minimal_poly_2cos_pi_over(4) == [-2, 0, 1]   # sqrt(2)
    assert minimal_poly_2cos_pi_over(6) == [-3, 0, 1]   # sqrt(3)


def test_minpoly_recurrence_matches_dickson_from_scratch(monkeypatch):
    # both routes read Phi_2N from the memoised cyclotomic(); the oracle
    # builds each D_j from scratch, so a memo keeps that part short
    monkeypatch.setattr(oracles, "dickson",
                        functools.lru_cache(maxsize=None)(oracles.dickson))
    for N in range(1, 401):
        assert minimal_poly_2cos_pi_over(N) == \
            minimal_poly_2cos_pi_over_by_dickson(N), N


@pytest.mark.parametrize("N", [5, 7, 12, 15, 30])
def test_minpoly_numeric_root(N):
    p = minimal_poly_2cos_pi_over(N)
    with mpmath.workdps(45):
        x = mpmath.mpf(2) * mpmath.cos(mpmath.pi / N)
        val = mpmath.polyval(list(reversed([mpmath.mpf(c) for c in p])), x)
        assert abs(val) < mpmath.mpf("1e-25")


@pytest.mark.parametrize("N, degree", [(173, 86), (504, 144)])
def test_field_validates_large_cancelling_minpoly(N, degree):
    # psi's terms reach about 10^90 at N = 173 and cancel; the check used
    # to run at a fixed 60 digits and rejected the correct polynomial
    F = CycloField(N)
    assert F.degree == degree       # phi(2N) / 2


def test_field_above_label_bound_is_refused():
    with pytest.raises(ResourceExceeded, match="field bound"):
        CycloField(MAX_FIELD_N + 1)
    with pytest.raises(ResourceExceeded, match="field bound"):
        CycloField(10 ** 30)


def test_field_golden_identity():
    F = CycloField(5)
    phi = F.gen()          # 2cos(pi/5)
    lhs = F.mul(phi, phi)
    rhs = F.add(phi, F.one)
    assert lhs == rhs      # phi^2 = phi + 1


def test_field_two_cos_values():
    F = CycloField(30)
    for m in (2, 3, 5, 6, 15, 30):
        v = F.two_cos_pi_over(m)
        assert abs(_ref_float(F, v) - 2 * math.cos(math.pi / m)) < 1e-12
    inf_c = F.two_cos_pi_over(None)
    assert _ref_float(F, inf_c) == 2.0


def test_sign_near_zero_exact():
    F = CycloField(12)
    r2, r3 = F.two_cos_pi_over(4), F.two_cos_pi_over(6)
    # sqrt(3) - sqrt(2) > 0, tiny but exactly resolvable
    assert F.sign(_sub(F, r3, r2)) == 1
    assert F.sign(_sub(F, r2, r3)) == -1
    assert F.sign(_sub(F, r2, r2)) == 0


def test_rational_fast_path():
    F = CycloField(1)      # right-angled systems live here
    a = F.from_rational(Fraction(3, 2))
    b = F.from_rational(Fraction(-1, 2))
    assert _ref_float(F, F.mul(a, b)) == -0.75
    assert F.sign(F.add(a, b)) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
def test_field_ring_axioms(x, y, z):
    F = CycloField(5)
    g = F.gen()
    def elt(k):
        return F.add(F.from_rational(k), F.scale(g, Fraction(k % 7, 3)))
    a, b, c = elt(x), elt(y), elt(z)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(a, F.neg(a)) == F.zero


@settings(max_examples=30, deadline=None)
@given(st.integers(-20, 20), st.integers(-20, 20))
def test_sign_agrees_with_float(p, q):
    F = CycloField(7)
    g = F.gen()
    a = F.add(F.from_rational(p), F.scale(g, Fraction(q, 5)))
    s = F.sign(a)
    v = _ref_float(F, a)
    if abs(v) > 1e-9:
        assert s == (1 if v > 0 else -1)
    else:
        assert s == 0 or abs(v) < 1e-9


# --- differential tests of the integer-bound sign certificate -------------

REF_PREC = 512


def _ref_interval(F, a):
    """Enclosure of a at 512 bits by plain interval Horner evaluation,
    sharing no code with CycloField.sign."""
    iv = mpmath.iv
    old = iv.prec
    try:
        iv.prec = REF_PREC
        x = 2 * iv.cos(iv.pi / F.N)
        val = iv.mpf(0)
        for c in reversed(a):
            c = Fraction(c)
            val = val * x + iv.mpf(c.numerator) / iv.mpf(c.denominator)
        return val
    finally:
        iv.prec = old


def _ref_float(F, a):
    """A float read from the midpoint of the reference enclosure of a."""
    return float(_ref_interval(F, a).mid)


def _ref_sign(F, a):
    """Sign from the 512-bit enclosure, or None if it contains 0."""
    val = _ref_interval(F, a)
    if val > 0:
        return 1
    if val < 0:
        return -1
    return None


def _elements(N, max_den):
    d = CycloField(N).degree
    coord = st.integers(-10 ** 6, 10 ** 6)
    if max_den > 1:
        coord = st.builds(Fraction, coord, st.integers(1, max_den))
    return st.lists(coord, min_size=d, max_size=d).map(tuple)


@pytest.mark.parametrize("N", [7, 60])
@pytest.mark.parametrize("max_den", [1, 30])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sign_matches_reference(N, max_den, data):
    F = CycloField(N)
    a = data.draw(_elements(N, max_den))
    # a minus the float nearest to it: a nonzero element some 2^-53 of its
    # own size from zero, or an exact zero when a is rational
    near = _sub(F, a, F.from_rational(Fraction(_ref_float(F, a))))
    for b in (a, near, F.neg(near)):
        want = _ref_sign(F, b)
        if F.is_zero(b):
            assert F.sign(b) == 0
        elif want is not None:
            assert F.sign(b) == want


def test_sign_of_near_cancelling_powers():
    # sqrt 3 - sqrt 2 = 0.318... in the degree-16 field: its 60th power is
    # about 1e-30 with coordinates near 1e30, which takes several doublings
    F = CycloField(60)
    r2, r3 = F.two_cos_pi_over(4), F.two_cos_pi_over(6)
    up, down = _sub(F, r3, r2), _sub(F, r2, r3)
    p, q = F.one, F.one
    for k in range(1, 61):
        p, q = F.mul(p, up), F.mul(q, down)
        assert F.sign(p) == 1 == _ref_sign(F, p)
        assert F.sign(q) == (-1) ** k == _ref_sign(F, q)
    # exact zeros reached through the reduction table
    assert F.sign(_sub(F, F.mul(r3, r3), F.from_rational(3))) == 0
    assert F.sign(_sub(F, F.two_cos_pi_over(3), F.one)) == 0
    assert F.sign(_sub(F, F.mul(p, q), F.mul(q, p))) == 0


@pytest.mark.parametrize("N", [7, 60])
def test_power_bounds_bracket_at_twice_the_precision(N):
    F = CycloField(N)
    iv = mpmath.iv
    for prec in (64, 128, 256, 1024):
        L, U = F._power_bounds(prec)
        old = iv.prec
        try:
            iv.prec = 2 * prec
            x = 2 * iv.cos(iv.pi / N)
            for i in range(F.degree):
                scaled = x ** i * iv.mpf(2) ** prec
                assert type(L[i]) is int and type(U[i]) is int
                assert iv.mpf(L[i]) <= scaled and scaled <= iv.mpf(U[i])
                # and narrows as the precision grows
                assert U[i] - L[i] <= 2 ** (prec // 2)
        finally:
            iv.prec = old


def test_integer_coordinates_stay_int():
    F = CycloField(60)
    a = F.add(F.two_cos_pi_over(5), F.scale(F.gen(), 3))
    b = _sub(F, F.two_cos_pi_over(12), F.from_rational(Fraction(4, 2)))
    for v in (a, b, F.mul(a, b), F.neg(a), F.gen(), F.one, F.zero):
        assert all(type(c) is int for c in v)
    half = F.scale(a, Fraction(1, 2))
    assert any(isinstance(c, Fraction) for c in half)
    assert F.scale(half, 2) == a
