"""Right-angled building balls: normal forms, gates, chain identities.

The frozen chamber counts were computed once by independent hand
calculation (sphere size = sum of q^l(w) over the Coxeter sphere) and are
asserted verbatim; the building constructor separately re-verifies the
fiber and panel axioms on every build, so any normal-form regression
fails twice.
"""

import math
import random
from fractions import Fraction

import pytest

from coxinv.building import (ThicknessVector, append_syllable, boundary,
                             building_ball, compare_radical_sums,
                             critical_exponents, gate_word, jensen_check,
                             lp_power_sum, lp_pullback_partial_sums,
                             make_simplex, pullback, pushforward,
                             random_chain)
from coxinv.errors import (MarginViolation, NotRightAngled,
                           ThicknessClassError)
from coxinv.system import System


@pytest.fixture(scope="module")
def pent_ball(pentagon):
    return building_ball(pentagon, ThicknessVector.constant(pentagon, 2), 4)


@pytest.fixture(scope="module")
def pent_apartment(pentagon):
    return building_ball(pentagon, ThicknessVector.constant(pentagon, 1), 4)


@pytest.fixture(scope="module")
def dihedral_ball(dihedral_inf):
    return building_ball(dihedral_inf, ThicknessVector.constant(dihedral_inf, 2), 6)


class TestThicknessVector:
    def test_constant(self, pentagon):
        t = ThicknessVector.constant(pentagon, 3)
        assert t.values == (3, 3, 3, 3, 3)
        assert not t.is_thin()

    def test_thin(self, pentagon):
        assert ThicknessVector.constant(pentagon, 1).is_thin()

    def test_from_generator_map(self, pentagon):
        t = ThicknessVector.from_generator_map(
            pentagon, {"a": 2, "b": 3, "c": 2, "d": 2, "e": 2})
        assert t.values[1] == 3

    def test_class_constancy_enforced(self, a2):
        # one odd edge means one conjugacy class; unequal values are invalid
        with pytest.raises(ThicknessClassError):
            ThicknessVector.from_generator_map(a2, {"a": 2, "b": 3})

    def test_validated_rejects_zero(self, pentagon):
        from coxinv.errors import SchemaError
        with pytest.raises(SchemaError):
            ThicknessVector.validated([2, 2, 0, 2, 2])


class TestChamberCounts:
    def test_pentagon_frozen(self, pent_ball):
        assert len(pent_ball.chambers) == 2071
        assert pent_ball.sphere_sizes() == [1, 10, 60, 320, 1680]

    def test_dihedral_frozen(self, dihedral_ball):
        assert len(dihedral_ball.chambers) == 253
        assert dihedral_ball.sphere_sizes() == [1, 4, 8, 16, 32, 64, 128]

    def test_sphere_size_is_weighted_coxeter_sphere(self, dihedral_ball):
        for k, n in enumerate(dihedral_ball.sphere_sizes()):
            words = {w for w in dihedral_ball.fibers if len(w) == k}
            assert n == sum(2 ** len(w) for w in words)

    def test_apartment_matches_coxeter_ball(self, pent_apartment):
        # q = 1 building is the Coxeter complex itself
        assert pent_apartment.sphere_sizes() == [1, 5, 15, 40, 105]

    def test_mixed_thickness(self, pentagon):
        b = building_ball(pentagon, ThicknessVector.validated([2, 3, 2, 2, 2]), 3)
        # sphere k = sum over words of prod q_s^(multiplicity)
        expect = [1]
        for k in (1, 2, 3):
            tot = 0
            for w in b.fibers:
                if len(w) == k:
                    prod = 1
                    for s in w:
                        prod *= (3 if s == 1 else 2)
                    tot += prod
            expect.append(tot)
        assert b.sphere_sizes() == expect

    def test_not_right_angled(self, triangle_333):
        with pytest.raises(NotRightAngled):
            building_ball(triangle_333, ThicknessVector.constant(triangle_333, 2), 2)


class TestWordsAndGates:
    def test_append_merge_and_gate(self, pent_ball):
        w, _ = append_syllable((), 0, 1, pent_ball.commute, pent_ball.qmod)
        w, _ = append_syllable(w, 1, 2, pent_ball.commute, pent_ball.qmod)
        assert gate_word(w, {1}, pent_ball.commute, pent_ball.qmod) == ((0, 1),)
        assert gate_word(w, {0, 1}, pent_ball.commute, pent_ball.qmod) == ()

    def test_syllable_cancellation(self, pent_ball):
        # exponents add mod q+1 = 3; a third copy of s deletes the syllable
        w, d = append_syllable((), 2, 1, pent_ball.commute, pent_ball.qmod)
        assert w == ((2, 1),) and d == 1
        w, d = append_syllable(w, 2, 1, pent_ball.commute, pent_ball.qmod)
        assert w == ((2, 2),) and d == 0
        w, d = append_syllable(w, 2, 1, pent_ball.commute, pent_ball.qmod)
        assert w == () and d == -1

    def test_gate_is_nearest_in_residue(self, pent_ball):
        # the gate minimizes syllable length over its own residue
        rng = random.Random(11)
        chambers = sorted(pent_ball.chambers)
        for _ in range(20):
            w = chambers[rng.randrange(len(chambers))]
            T = {rng.randrange(5)}
            g = gate_word(w, T, pent_ball.commute, pent_ball.qmod)
            residue = [c for c in chambers
                       if gate_word(c, T, pent_ball.commute, pent_ball.qmod) == g]
            assert g in residue
            assert len(g) == min(len(c) for c in residue)


class TestBoundaryOperator:
    def test_dd_zero_building(self, pent_ball):
        rng = random.Random(7)
        for _ in range(30):
            ch = random_chain(pent_ball, rng, 6)
            assert boundary(pent_ball, boundary(pent_ball, ch)) == {}

    def test_dd_zero_apartment(self, pent_apartment):
        rng = random.Random(8)
        for _ in range(15):
            ch = random_chain(pent_apartment, rng, 6)
            assert boundary(pent_apartment, boundary(pent_apartment, ch)) == {}

    def test_margin_violation(self, pent_ball):
        deep = max(pent_ball.chambers, key=len)
        with pytest.raises(MarginViolation):
            make_simplex(pent_ball, deep, ((0,), (0, 1)))


class TestRetraction:
    def test_pushforward_section(self, pent_ball, pent_apartment):
        rng = random.Random(9)
        for _ in range(25):
            ch_ap = random_chain(pent_apartment, rng, 5)
            up = pullback(pent_ball, pent_apartment, ch_ap)
            assert pushforward(pent_ball, pent_apartment, up) == ch_ap

    def test_boundary_commutes_with_pullback(self, pent_ball, pent_apartment):
        rng = random.Random(10)
        for _ in range(25):
            ch_ap = random_chain(pent_apartment, rng, 5)
            up = pullback(pent_ball, pent_apartment, ch_ap)
            assert boundary(pent_ball, up) == \
                pullback(pent_ball, pent_apartment, boundary(pent_apartment, ch_ap))

    def test_boundary_commutes_with_pushforward(self, pent_ball, pent_apartment):
        rng = random.Random(12)
        for _ in range(25):
            ch = random_chain(pent_ball, rng, 5)
            assert boundary(pent_apartment, pushforward(pent_ball, pent_apartment, ch)) == \
                pushforward(pent_ball, pent_apartment, boundary(pent_ball, ch))


class TestJensen:
    def test_battery(self, pent_ball, pent_apartment):
        rng = random.Random(13)
        verdicts = {}
        for _ in range(40):
            ch = random_chain(pent_ball, rng, 5)
            for p in (Fraction(3, 2), Fraction(2), Fraction(3)):
                r = jensen_check(pent_ball, pent_apartment, ch, p)
                assert r.holds is True
                verdicts[r.comparison] = verdicts.get(r.comparison, 0) + 1
        assert verdicts.get("strict", 0) > 0

    def test_equality_on_pulled_back_chains(self, pent_ball, pent_apartment):
        rng = random.Random(14)
        ch_ap = random_chain(pent_apartment, rng, 4)
        up = pullback(pent_ball, pent_apartment, ch_ap)
        r = jensen_check(pent_ball, pent_apartment, up, Fraction(2))
        assert r.holds is True and r.comparison == "equal"

    def test_irrational_exponent_interval_route(self, pent_ball, pent_apartment):
        rng = random.Random(15)
        ch = random_chain(pent_ball, rng, 5)
        r = jensen_check(pent_ball, pent_apartment, ch, Fraction(22, 7))
        assert r.holds is True
        assert r.comparison in ("strict", "equal", "interval")


class TestPartialSums:
    def test_dihedral_p2_exact(self, dihedral_inf):
        q = ThicknessVector.constant(dihedral_inf, 2)
        parts = lp_pullback_partial_sums(dihedral_inf, q, 2, 10)
        assert parts[-1] == Fraction(3) - Fraction(2, 2 ** 10)
        assert all(b >= a for a, b in zip(parts, parts[1:]))

    def test_half_integer_kernel_form(self, dihedral_inf):
        q = ThicknessVector.constant(dihedral_inf, 2)
        parts = lp_pullback_partial_sums(dihedral_inf, q, Fraction(3, 2), 6)
        approx = sum(float(v) * math.sqrt(k) for k, v in parts[-1].items())
        direct = 1 + sum(2 * 2 ** (-k / 2) for k in range(1, 7))
        assert abs(approx - direct) < 1e-12


class TestCriticalExponents:
    def test_pentagon(self, pentagon):
        ce = critical_exponents(System(pentagon),
                                ThicknessVector.constant(pentagon, 2))
        e = math.log((3 + math.sqrt(5)) / 2) / math.log(2)
        assert abs(ce.p_hom - (1 + e)) < 1e-6
        assert abs(ce.p_cohom - (1 + 1 / e)) < 1e-6
        assert ce.nerve_is_pm and not ce.thin
        assert ce.p_hom_bracket[0] <= ce.p_hom <= ce.p_hom_bracket[1]

    def test_affine_exact(self, triangle_333):
        ce = critical_exponents(System(triangle_333),
                                ThicknessVector.constant(triangle_333, 2))
        assert ce.p_hom == 1.0 and ce.p_cohom == math.inf
        assert not ce.thin

    def test_thin(self, pentagon):
        ce = critical_exponents(System(pentagon),
                                ThicknessVector.constant(pentagon, 1))
        assert ce.thin
        assert ce.p_hom == math.inf and ce.p_cohom == 1.0


class TestRadicalArithmetic:
    def test_power_sum_permutation_invariant(self):
        A = lp_power_sum([Fraction(1, 2), Fraction(3)], Fraction(3, 2))
        B = lp_power_sum([Fraction(3), Fraction(1, 2)], Fraction(3, 2))
        assert compare_radical_sums(A, B) == 0

    def test_strict_comparison(self):
        A = lp_power_sum([Fraction(1, 2), Fraction(3)], Fraction(3, 2))
        C = lp_power_sum([Fraction(1, 2), Fraction(3), Fraction(1, 7)],
                         Fraction(3, 2))
        assert compare_radical_sums(A, C) == -1
        assert compare_radical_sums(C, A) == 1

    def test_integer_p_stays_rational(self):
        A = lp_power_sum([Fraction(2, 3), Fraction(5)], Fraction(3))
        assert set(A) == {1}
        assert A[1] == Fraction(2, 3) ** 3 + Fraction(5) ** 3
