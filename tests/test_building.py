"""Right-angled building balls: normal forms, gates, chain identities.

The frozen chamber counts were computed once by independent hand
calculation (sphere size = sum of q^l(w) over the Coxeter sphere) and are
asserted verbatim; the building constructor separately re-verifies the
fiber and panel axioms on every build, so any normal-form regression
fails twice.
"""

import bisect
import hashlib
import itertools
import math
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxinv.building as building_mod
from coxinv.building import (Simplex, ThicknessVector, _randbelow,
                             append_syllable, boundary, building_ball,
                             compare_radical_sums, critical_exponents,
                             gate_drops, gate_word, jensen_check,
                             make_simplex, oracle_battery, pullback,
                             pushforward, random_chain, word_gens)
from coxinv.coxeter import CoxeterMatrix
from coxinv.elements import Caps
from coxinv.errors import (MarginViolation, NotRightAngled, ResourceExceeded,
                           ThicknessClassError, ValidationMismatch)
from coxinv.system import System

from . import oracles
from .conftest import INF, mat
from .oracles import (chamber_search, interval_power_sum, iterative_gate,
                      lp_power_sum, lp_pullback_partial_sums)


@pytest.fixture(scope="module")
def pent_ball(pentagon):
    return building_ball(System(pentagon),
                         ThicknessVector.constant(pentagon, 2), 4)


@pytest.fixture(scope="module")
def pent_apartment(pentagon):
    return building_ball(System(pentagon),
                         ThicknessVector.constant(pentagon, 1), 4)


@pytest.fixture(scope="module")
def dihedral_ball(dihedral_inf):
    return building_ball(System(dihedral_inf),
                         ThicknessVector.constant(dihedral_inf, 2), 6)


class TestThicknessVector:
    def test_constant(self, pentagon):
        t = ThicknessVector.constant(pentagon, 3)
        assert t.values == (3, 3, 3, 3, 3)
        assert not t.all_one()

    def test_thin(self, pentagon):
        assert ThicknessVector.constant(pentagon, 1).all_one()

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
            ThicknessVector(pentagon, [2, 2, 0, 2, 2])


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
        b = building_ball(System(pentagon),
                          ThicknessVector(pentagon, [2, 3, 2, 2, 2]), 3)
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
            building_ball(System(triangle_333),
                          ThicknessVector.constant(triangle_333, 2), 2)


FREE3 = mat([[1, INF, INF], [INF, 1, INF], [INF, INF, 1]])


class TestFibreConstruction:
    """The ball as the Weyl ball times its fibres, against a chamber search
    through the syllable arithmetic."""

    @pytest.mark.parametrize("system, thickness, radius, size", [
        ("pentagon", 2, 4, 2071),
        ("dihedral_inf", 3, 8, 19681),
        ("pentagon", 3, 5, 76561),
        ("free3", 2, 6, 8191),
        ("square_product", 2, 5, 1033),
        ("pentagon", (2, 3, 2, 2, 2), 4, 2916),
    ])
    def test_matches_chamber_search(self, request, system, thickness,
                                    radius, size):
        M = FREE3 if system == "free3" else request.getfixturevalue(system)
        th = (ThicknessVector(M, list(thickness)) if isinstance(thickness, tuple)
              else ThicknessVector.constant(M, thickness))
        ball = building_ball(System(M), th, radius)
        assert len(ball.chambers) == size
        assert ball.chambers == chamber_search(M, th, radius)
        assert sorted(c for fib in ball.fibers.values() for c in fib) == \
            sorted(ball.chambers)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_right_angled_match_chamber_search(self, data):
        n = data.draw(st.integers(1, 5))
        rows = [[1] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = data.draw(st.sampled_from((2, INF)))
        M = mat(rows)
        th = ThicknessVector(M, [data.draw(st.integers(1, 3))
                                 for _ in range(n)])
        radius = data.draw(st.integers(0, 4))
        assert building_ball(System(M), th, radius).chambers == \
            chamber_search(M, th, radius)

    def test_construction_avoids_syllable_arithmetic(self, pentagon,
                                                     pent_ball, monkeypatch):
        def refuse(*_args):
            raise AssertionError("construction used the syllable arithmetic")
        for name in ("append_syllable", "rebuild_word", "gate_drops",
                     "drop_syllables", "gate_word"):
            monkeypatch.setattr(building_mod, name, refuse)
        monkeypatch.setattr(building_mod, "_verify_building_axioms",
                            lambda ball: None)
        ball = building_ball(System(pentagon),
                             ThicknessVector.constant(pentagon, 2), 4)
        assert ball.chambers == pent_ball.chambers

    def test_placement_fault_is_caught(self, pentagon, monkeypatch):
        # a fresh syllable appended at the end of the word, never moved
        # left past commuting letters: a search through this arithmetic
        # builds 4,491 chambers that pass the same check
        real = building_mod.append_syllable

        def at_end(word, s, e, commute, qmod):
            w2, delta = real(word, s, e, commute, qmod)
            if delta == 1:
                return word + ((s, e % qmod[s]),), 1
            return w2, delta
        monkeypatch.setattr(building_mod, "append_syllable", at_end)
        with pytest.raises(ValidationMismatch,
                           match="panel escapes the enumerated ball"):
            building_ball(System(pentagon),
                          ThicknessVector.constant(pentagon, 2), 4)

    def test_cap_counts_fibres(self, pentagon):
        th = ThicknessVector.constant(pentagon, 2)
        building_ball(System(pentagon, caps=Caps(2071)), th, 4)
        with pytest.raises(ResourceExceeded,
                           match="building ball exceeds 2070 chambers"):
            building_ball(System(pentagon, caps=Caps(2070)), th, 4)


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
            up = pullback(pent_ball, ch_ap)
            assert pushforward(up) == ch_ap

    def test_boundary_commutes_with_pullback(self, pent_ball, pent_apartment):
        rng = random.Random(10)
        for _ in range(25):
            ch_ap = random_chain(pent_apartment, rng, 5)
            up = pullback(pent_ball, ch_ap)
            assert boundary(pent_ball, up) == \
                pullback(pent_ball, boundary(pent_apartment, ch_ap))

    def test_boundary_commutes_with_pushforward(self, pent_ball, pent_apartment):
        rng = random.Random(12)
        for _ in range(25):
            ch = random_chain(pent_ball, rng, 5)
            assert boundary(pent_apartment, pushforward(ch)) == \
                pushforward(boundary(pent_ball, ch))


class TestJensen:
    def test_battery(self, pent_ball):
        rng = random.Random(13)
        verdicts = {}
        for _ in range(40):
            ch = random_chain(pent_ball, rng, 5)
            for p in (Fraction(3, 2), Fraction(2), Fraction(3)):
                r = jensen_check(pent_ball, ch, [p])[0]
                assert r.holds is True
                verdicts[r.comparison] = verdicts.get(r.comparison, 0) + 1
        assert verdicts.get("strict", 0) > 0

    def test_equality_on_pulled_back_chains(self, pent_ball, pent_apartment):
        rng = random.Random(14)
        ch_ap = random_chain(pent_apartment, rng, 4)
        up = pullback(pent_ball, ch_ap)
        r = jensen_check(pent_ball, up, [Fraction(2)])[0]
        assert r.holds is True and r.comparison == "equal"

    def test_irrational_exponent_interval_route(self, pent_ball):
        rng = random.Random(15)
        ch = random_chain(pent_ball, rng, 5)
        r = jensen_check(pent_ball, ch, [Fraction(22, 7)])[0]
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
        assert not ce.thin
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


SQUAREFREE = (1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 30)


def reference_radical_sign(A, B):
    """Sign of A - B from the kernel-wise exact difference summed at 2048
    bits; the sum of a nonzero difference of these sizes lies far above
    the rounding, which the margin asserts."""
    import mpmath
    diff = {k: Fraction(A.get(k, 0)) - Fraction(B.get(k, 0))
            for k in set(A) | set(B)}
    if not any(diff.values()):
        return 0
    with mpmath.workprec(2048):
        tot = mpmath.fsum(mpmath.sqrt(k) * mpmath.mpf(v.numerator)
                          / v.denominator for k, v in diff.items())
        assert abs(tot) > mpmath.mpf(2) ** -1500
        return 1 if tot > 0 else -1


def pell_convergent(n):
    """The n-th convergent p/q of sqrt(2): p^2 - 2 q^2 = (-1)^(n + 1)."""
    p, q = 1, 1
    for _ in range(n):
        p, q = p + 2 * q, p + q
    return p, q


class TestRadicalComparison:
    """compare_radical_sums against a 2048-bit reference."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        coeffs = st.fractions(min_value=-40, max_value=40, max_denominator=60)
        kernel_map = st.dictionaries(st.sampled_from(SQUAREFREE), coeffs,
                                     max_size=6)
        A = data.draw(kernel_map)
        # B shares some of A's terms, so parts of the difference vanish
        B = {k: v for k, v in A.items() if data.draw(st.booleans())}
        B.update(data.draw(kernel_map))
        assert compare_radical_sums(A, B) == reference_radical_sign(A, B)
        assert compare_radical_sums(B, A) == reference_radical_sign(B, A)

    @pytest.mark.parametrize("n", [39, 40])
    def test_pell_near_cancellation_escalates(self, n, monkeypatch):
        # |q sqrt(2) - p| = 1 / (q sqrt(2) + p), about 2^-52 at n = 40
        # where q is about 2^50.6, while the bracket at P = 64 is off by
        # up to q + p: only the doubled precisions separate it
        p, q = pell_convergent(n)
        assert p * p - 2 * q * q == (-1) ** (n + 1)
        A, B = {2: Fraction(q)}, {1: Fraction(p)}
        want = 1 if p * p < 2 * q * q else -1
        assert want == reference_radical_sign(A, B)
        assert compare_radical_sums(A, B) == want
        assert compare_radical_sums({2: Fraction(q), 1: Fraction(-p)},
                                    {}) == want
        monkeypatch.setattr(building_mod, "RADICAL_MAX_PREC", 64)
        with pytest.raises(ArithmeticError):
            compare_radical_sums(A, B)

    def test_one_signed_difference_needs_no_bracket(self, monkeypatch):
        # coefficients of one sign decide the sign before any bracket: with
        # no precision allowed, only those differences are decided
        monkeypatch.setattr(building_mod, "RADICAL_MAX_PREC", 0)
        assert compare_radical_sums({2: Fraction(1), 3: Fraction(2)},
                                    {3: Fraction(1)}) == 1
        assert compare_radical_sums({5: Fraction(1, 7)},
                                    {5: Fraction(1, 3), 7: 1}) == -1
        with pytest.raises(ArithmeticError):
            compare_radical_sums({2: Fraction(1)}, {1: Fraction(1)})


# ---------------------------------------------------------------------------
# pinned battery output and RNG draws, recorded with the iterative gate
# and per-element sums: faster gates and sums must keep both.  Recorded
# again when words came to be drawn from the viable prefix only: the
# pentagon tally was strict 60, and the digests were c1e84fd2... and
# b36929e4... when words were drawn from the whole ball

# the command line's default grid
BATTERY_GRID = (Fraction(3, 2), Fraction(2), Fraction(3))
PIN_IDENTITIES = ["boundary_squared_zero", "pushforward_boundary",
                  "retraction_section", "pullback_boundary",
                  "norm_comparison"]
PIN_PENTAGON_Q2_R4 = {
    "apartment_chambers": 166, "chains_checked": 20, "chambers": 2071,
    "identities": PIN_IDENTITIES,
    "jensen": {"equal": 9, "indeterminate": 0, "interval": 0, "strict": 51},
    "p_values": ["3/2", "2", "3"], "radius": 4, "seed": 0,
    "sphere_sizes": [1, 10, 60, 320, 1680]}
PIN_DIHEDRAL_Q3_R8 = {
    "apartment_chambers": 17, "chains_checked": 10, "chambers": 19681,
    "identities": PIN_IDENTITIES,
    "jensen": {"equal": 0, "indeterminate": 0, "interval": 0, "strict": 30},
    "p_values": ["3/2", "2", "3"], "radius": 8, "seed": 0,
    "sphere_sizes": [1, 6, 18, 54, 162, 486, 1458, 4374, 13122]}
# sha256 over 50 random_chain draws (size 5, seed 0) and the next 64 RNG
# bits; the jensen tallies above barely move when the draws change
PIN_DRAWS = {
    "pentagon": "6b6da09122300984fdfbbbef53132ac8a9c293918a3ec58cb93497001a6eade9",
    "dihedral": "abdec649484515fac4190704f9407bc997ffe7021b4863ae2de2a01b29309cff",
}


@pytest.fixture(scope="module")
def tree_ball(dihedral_inf):
    return building_ball(System(dihedral_inf),
                         ThicknessVector.constant(dihedral_inf, 3), 8)


def _draw_digest(ball):
    rng = random.Random(0)
    h = hashlib.sha256()
    for _ in range(50):
        ch = random_chain(ball, rng, 5)
        h.update(repr([(sx.gate, sx.chain, str(c))
                       for sx, c in ch.items()]).encode())
    h.update(repr(rng.getrandbits(64)).encode())
    return h.hexdigest()


class TestBatteryPins:
    def test_pentagon_battery(self, pentagon):
        out = oracle_battery(System(pentagon),
                             ThicknessVector.constant(pentagon, 2), 4,
                             BATTERY_GRID, chains=20, seed=0)
        assert out == PIN_PENTAGON_Q2_R4

    def test_dihedral_battery(self, dihedral_inf):
        out = oracle_battery(System(dihedral_inf),
                             ThicknessVector.constant(dihedral_inf, 3), 8,
                             BATTERY_GRID, chains=10, seed=0)
        assert out == PIN_DIHEDRAL_Q3_R8

    def test_pentagon_draws(self, pent_ball):
        assert _draw_digest(pent_ball) == PIN_DRAWS["pentagon"]

    def test_dihedral_draws(self, tree_ball):
        assert _draw_digest(tree_ball) == PIN_DRAWS["dihedral"]


# ---------------------------------------------------------------------------
# the one-pass gate against the iterative oracle

def _all_subsets(n):
    return [T for k in range(n + 1) for T in itertools.combinations(range(n), k)]


def _check_gates(ball):
    checked = 0
    for w in ball.chambers:
        for T in _all_subsets(ball.M.rank):
            want = iterative_gate(w, T, ball.commute)
            assert gate_word(w, T, ball.commute, ball.qmod) == want, (w, T)
            assert len(w) - len(gate_drops(w, T, ball.commute)) == len(want)
            checked += 1
    return checked


class TestOnePassGate:
    def test_pentagon_every_chamber_and_subset(self, pent_ball):
        assert _check_gates(pent_ball) == 2071 * 32

    def test_tree_every_chamber_and_subset(self, dihedral_inf):
        ball = building_ball(System(dihedral_inf),
                             ThicknessVector.constant(dihedral_inf, 3), 7)
        assert _check_gates(ball) == 6559 * 4

    def test_margin_message_reports_gate_length(self, pent_ball):
        # the margin is judged on the gate, so a chamber over the Weyl word
        # (0, 1) passes with the bottom type {0, 1}: both syllables drop
        w = next(c for c in pent_ball.chambers if word_gens(c) == (0, 1))
        sx = make_simplex(pent_ball, w, [(0, 1)])
        assert sx.gate == () and sx.chain == ((0, 1),)
        deep = next(c for c in pent_ball.chambers
                    if len(c) == 4 and c[-1][0] == 2)
        with pytest.raises(MarginViolation, match="gate length 3 "):
            make_simplex(pent_ball, deep, [(2,)])


# ---------------------------------------------------------------------------
# the merged pullback and the grouped power sums against per-element
# references

def naive_pullback(ball, chain_coeffs):
    per = ball.thickness.per_generator()
    out = {}
    for sx, c in chain_coeffs.items():
        gens = word_gens(sx.gate)
        qw = math.prod(per[s] for s in gens)
        for exps in itertools.product(*[range(1, per[s] + 1) for s in gens]):
            face = Simplex(tuple(zip(gens, exps)), sx.chain)
            out[face] = out.get(face, Fraction(0)) + Fraction(c) / qw
            if not out[face]:
                del out[face]
    return out


def naive_power_sum(values, p):
    """{kernel: coefficient} one value at a time: |v|^p = |v|^k sqrt(|v|)
    with sqrt(a/b) = sqrt(ab)/b, the square part pulled out by search."""
    p = Fraction(p)
    out = {}
    for v in values:
        av = abs(Fraction(v))
        if p.denominator == 1:
            out[1] = out.get(1, Fraction(0)) + av ** int(p)
            continue
        if av == 0:
            continue
        m = av.numerator * av.denominator
        a = max(d for d in range(1, math.isqrt(m) + 1) if m % (d * d) == 0)
        kernel = m // (a * a)
        coeff = av ** ((p.numerator - 1) // 2) * Fraction(a, av.denominator)
        out[kernel] = out.get(kernel, Fraction(0)) + coeff
    return {k: v for k, v in out.items() if v} or {1: Fraction(0)}


P_GRID = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2),
          Fraction(3), Fraction(7, 2))


class TestMergedPullback:
    def test_one_fiber_two_gates(self, pent_ball, pent_apartment):
        # gates differing only in exponents lie over the same Weyl word
        a = Simplex(((0, 1), (1, 2)), ((),))
        b = Simplex(((0, 2), (1, 1)), ((),))
        ch = {a: Fraction(1, 3), b: Fraction(1, 6)}
        up = pullback(pent_ball, ch)
        assert up == naive_pullback(pent_ball, ch)
        assert len(up) == 4 and set(up.values()) == {Fraction(1, 8)}

    def test_cancelling_fiber_vanishes(self, pent_ball, pent_apartment):
        a = Simplex(((0, 1), (1, 2)), ((),))
        b = Simplex(((0, 2), (1, 1)), ((),))
        c = Simplex(((2, 1),), ((3,),))
        ch = {a: Fraction(2, 3), b: Fraction(-2, 3), c: Fraction(5)}
        up = pullback(pent_ball, ch)
        assert up == naive_pullback(pent_ball, ch)
        assert up == {Simplex(((2, 1),), ((3,),)): Fraction(5, 2),
                      Simplex(((2, 2),), ((3,),)): Fraction(5, 2)}
        assert pullback(pent_ball, {a: 1, b: -1}) == {}

    def test_random_chains_match_reference(self, pent_ball, pent_apartment,
                                           tree_ball):
        rng = random.Random(21)
        for ball in (pent_ball, tree_ball):
            for _ in range(10):
                ch = random_chain(ball, rng, 6)
                assert pullback(ball, ch) == naive_pullback(ball, ch)
                theta = pullback(ball, pushforward(ch))
                for p in P_GRID:
                    assert lp_power_sum(theta.values(), p) == \
                        naive_power_sum(theta.values(), p)


COEFFS = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def _draw_chain(data, ball, cancel):
    """A chain of drawn simplices and coefficients, zeros included: a
    drawn flag of spherical types over a chamber short enough for the
    margin, so flags of every length occur and small gates share faces.
    With cancel, a simplex over the same Weyl word with other exponents
    joins each one, carrying the opposite coefficient, so the pushforward
    and the pullback cancel them against each other."""
    types = sorted(ball.spherical_types, key=lambda t: (len(t), t))
    out = {}
    for _ in range(data.draw(st.integers(1, 8))):
        flag = [data.draw(st.sampled_from(types))]
        while data.draw(st.booleans()):
            above = [U for U in types if set(U) > set(flag[-1])]
            if not above:
                break
            flag.append(data.draw(st.sampled_from(above)))
        room = ball.radius - 2 - len(flag[-1])
        if room < 0:
            continue
        short = bisect.bisect_right(ball.chambers, room, key=len)
        word = ball.chambers[data.draw(st.integers(0, short - 1))]
        sx = make_simplex(ball, word, flag)
        c = data.draw(COEFFS)
        out[sx] = c
        if cancel:
            fib = ball.fibers[word_gens(sx.gate)]
            twin = Simplex(fib[data.draw(st.integers(0, len(fib) - 1))],
                           sx.chain)
            out[twin] = -c
    return out


def _check_chain_maps(data, ball, apartment):
    ch = _draw_chain(data, ball, data.draw(st.booleans()))
    ch_ap = _draw_chain(data, apartment, False)
    d = boundary(ball, ch)
    assert d == oracles.boundary(ball, ch)
    # a boundary chain's faces all cancel, through the deletion path
    assert boundary(ball, d) == oracles.boundary(ball, d) == {}
    assert pushforward(ch) == oracles.pushforward(ch)
    assert pushforward(d) == oracles.pushforward(d)
    assert boundary(apartment, ch_ap) == oracles.boundary(apartment, ch_ap)
    assert pullback(ball, ch_ap) == oracles.pullback(ball, ch_ap)
    down = oracles.pushforward(ch)
    assert pullback(ball, down) == oracles.pullback(ball, down)


class TestChainMapsAgainstReference:
    """boundary, pushforward and pullback against the reference copies in
    oracles.py, on drawn chains over the two benchmark balls and over
    random right-angled balls."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_benchmark_balls(self, pent_ball, pent_apartment, tree_ball,
                             tree_apartment, data):
        ball, apartment = data.draw(st.sampled_from(
            [(pent_ball, pent_apartment), (tree_ball, tree_apartment)]))
        _check_chain_maps(data, ball, apartment)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_right_angled_balls(self, data):
        n = data.draw(st.integers(1, 4))
        rows = [[1] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = data.draw(st.sampled_from((2, INF)))
        M = mat(rows)
        th = ThicknessVector(M, [data.draw(st.integers(1, 3))
                                 for _ in range(n)])
        # the largest drawn radius whose ball has at most 3,000 chambers
        system = System(M, caps=Caps(3000))
        radius = data.draw(st.integers(2, 6))
        while True:
            try:
                ball = building_ball(system, th, radius)
                break
            except ResourceExceeded:
                radius -= 1
        _check_chain_maps(data, ball,
                          building_ball(system,
                                        ThicknessVector.constant(M, 1),
                                        radius))

    def test_cancelling_faces_are_deleted(self, pent_ball):
        # two edges from chambers of one panel to its barycentre, with
        # opposite coefficients: the shared face is stored, then deleted
        # when its sum reaches zero
        w = next(c for c in pent_ball.chambers if word_gens(c) == (0,))
        a = make_simplex(pent_ball, w, [(), (0,)])
        b = make_simplex(pent_ball, (), [(), (0,)])
        ch = {a: Fraction(1, 3), b: Fraction(-1, 3)}
        want = oracles.boundary(pent_ball, ch)
        assert boundary(pent_ball, ch) == want
        assert Simplex((), ((0,),)) not in want and len(want) == 2


class TestGroupedPowerSums:
    def test_equal_values_of_mixed_types(self):
        # equal values as distinct Fraction objects, as ints and with sign
        vals = [Fraction(3, 2), Fraction(3, 2), Fraction(-3, 2), 2,
                Fraction(2), -2, 0, Fraction(0), Fraction(8, 3), 1]
        assert vals[0] is not vals[1]
        for p in P_GRID:
            got = lp_power_sum(vals, p)
            assert {k: v for k, v in got.items() if v} == \
                {k: v for k, v in naive_power_sum(vals, p).items() if v}, p

    def test_runs_of_one_object(self):
        share = Fraction(1, 18)
        vals = [share] * 9 + [Fraction(1, 18)] * 3 + [Fraction(-7, 5)] * 2
        for p in P_GRID:
            assert lp_power_sum(vals, p) == naive_power_sum(vals, p)

    def test_half_integer_kernels(self):
        got = lp_power_sum([Fraction(1, 2)] * 4 + [Fraction(9, 8)], Fraction(5, 2))
        # (1/2)^(5/2) = sqrt(2)/8 and (9/8)^(5/2) = (81/64) (3/4) sqrt(2)
        assert got == {2: 4 * Fraction(1, 8) + Fraction(81, 64) * Fraction(3, 4)}
        assert lp_power_sum([], Fraction(3, 2)) == {1: Fraction(0)}
        assert lp_power_sum([0, Fraction(0)], Fraction(2)) == {1: Fraction(0)}

    def test_interval_sum_encloses_per_element_sum(self):
        import mpmath
        vals = [Fraction(1, 18)] * 40 + [Fraction(-2, 3)] * 5 + [3, Fraction(3)]
        p = Fraction(5, 3)
        grouped = interval_power_sum(vals, p, 64)
        with mpmath.workprec(256):
            exact = mpmath.fsum(
                (mpmath.mpf(abs(v).numerator) / abs(v).denominator)
                ** (mpmath.mpf(5) / 3) for v in vals)
            assert grouped.a <= exact <= grouped.b
        assert grouped.b - grouped.a < mpmath.mpf(2) ** -50


@pytest.fixture(scope="module")
def tree_apartment(dihedral_inf):
    return building_ball(System(dihedral_inf),
                         ThicknessVector.constant(dihedral_inf, 1), 8)


class TestIrrationalExponentVerdicts:
    """Verdicts of the interval route at p = 5/3 on the q = 3 tree, as the
    per-element sum gave them."""

    def test_random_chain(self, tree_ball):
        ch = random_chain(tree_ball, random.Random(16), 5)
        r = jensen_check(tree_ball, ch, [Fraction(5, 3)])[0]
        assert (r.holds, r.comparison) == (True, "interval")

    def test_near_equality(self, tree_ball, tree_apartment):
        # a pulled-back chain with one coefficient nudged: theta spreads
        # over whole fibers, and the two sides differ by about 1e-9
        ch_ap = random_chain(tree_apartment, random.Random(17), 4)
        up = pullback(tree_ball, ch_ap)
        face = max(up, key=lambda sx: (len(sx.gate), sx.gate, sx.chain))
        up[face] += Fraction(1, 10 ** 6)
        r = jensen_check(tree_ball, up, [Fraction(5, 3)])[0]
        assert (r.holds, r.comparison) == (True, "interval")


# ---------------------------------------------------------------------------
# the sampler: margin pre-test, draw helper and work counts

def _nested_chains(ball, length):
    types = sorted(ball.spherical_types, key=lambda t: (len(t), t))
    return [c for k in range(1, length + 1)
            for c in itertools.combinations(types, k)
            if all(set(a) < set(b) for a, b in zip(c, c[1:]))]


def _pretest_rejections(ball):
    """Check every chamber x nested spherical chain (length <= 3) that
    random_simplices never hands to make_simplex: make_simplex must refuse
    it.  Those are the pairs the pre-test rejects and the pairs whose
    chamber lies past the viable prefix (length > radius - 2) that words
    are drawn from.  Returns both counts."""
    viable = sum(1 for w in ball.chambers if len(w) <= ball.radius - 2)
    assert all(len(w) > ball.radius - 2 for w in ball.chambers[viable:])
    rejected = past = 0
    for chain in _nested_chains(ball, 3):
        for i, w in enumerate(ball.chambers):
            pretest = len(w) - len(chain[0]) + len(chain[-1]) + 2 > ball.radius
            if pretest or i >= viable:
                with pytest.raises(MarginViolation):
                    make_simplex(ball, w, chain)
            rejected += pretest
            past += i >= viable
    return rejected, past


class TestSampler:
    def test_pretest_exact_on_pentagon(self, pent_ball):
        assert len(_nested_chains(pent_ball, 3)) == 41
        assert _pretest_rejections(pent_ball) == (83950, 41 * (320 + 1680))

    def test_pretest_exact_on_tree(self, dihedral_inf):
        ball = building_ball(System(dihedral_inf),
                             ThicknessVector.constant(dihedral_inf, 3), 7)
        assert len(_nested_chains(ball, 3)) == 5
        assert _pretest_rejections(ball) == (30132, 5 * (1458 + 4374))

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_draw_helper_matches_randrange(self, seed):
        mine, ref = random.Random(seed), random.Random(seed)
        for n in range(1, 5001):
            assert _randbelow(mine.getrandbits, n) == ref.randrange(n), n
        for n in (1, 2, 3):
            assert _randbelow(mine.getrandbits, n) == ref.randint(0, n - 1)
        assert mine.getstate() == ref.getstate()

    def test_battery_work_counts(self, pentagon, monkeypatch):
        calls = {"make_simplex": 0, "pullback": 0, "getrandbits": 0}
        filled = []

        def counted(name):
            inner = getattr(building_mod, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper
        for name in ("make_simplex", "pullback"):
            monkeypatch.setattr(building_mod, name, counted(name))

        class CountingRandom(random.Random):
            def getrandbits(self, k):
                calls["getrandbits"] += 1
                return super().getrandbits(k)
        monkeypatch.setattr(building_mod, "random",
                            types.SimpleNamespace(Random=CountingRandom))
        draw = building_mod.random_simplices

        def recorded(ball, rng, count):
            out = draw(ball, rng, count)
            filled.append((count, len(out)))
            return out
        monkeypatch.setattr(building_mod, "random_simplices", recorded)
        oracle_battery(System(pentagon),
                       ThicknessVector.constant(pentagon, 2), 4,
                       BATTERY_GRID, chains=100, seed=0)
        # 304,872 and 500 when every draw reached make_simplex and theta
        # was rebuilt for each p; 10,792 make_simplex calls for 2,924
        # simplices and 1,656,224 getrandbits calls when words were drawn
        # from the whole ball and 200 attempts per simplex could run out;
        # 11,517 calls, 8,517 of them refused, while the sampler tested
        # only the margin bound |T_0| on the gate's drops
        assert filled == [(15, 15)] * 200
        assert calls["make_simplex"] == 3000
        assert calls["getrandbits"] <= 90000
        assert calls["pullback"] == 300


    def test_counts_and_plans_made_once(self, pentagon, monkeypatch):
        # each side's |values| are counted once per chain, not once per p
        # (6 per chain on this grid before), and the sampling plan is made
        # once per ball, not on each of the 200 random_simplices calls
        calls = {"_abs_counts": 0, "_sampling_plan": 0, "random_simplices": 0}
        per_check = []

        def counted(name):
            inner = getattr(building_mod, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper
        for name in calls:
            monkeypatch.setattr(building_mod, name, counted(name))
        check = building_mod.jensen_check

        def recorded(*args):
            before = calls["_abs_counts"]
            out = check(*args)
            per_check.append(calls["_abs_counts"] - before)
            return out
        monkeypatch.setattr(building_mod, "jensen_check", recorded)
        out = oracle_battery(System(pentagon),
                             ThicknessVector.constant(pentagon, 2), 4,
                             BATTERY_GRID, chains=100, seed=0)
        assert len(per_check) == 100 and set(per_check) <= {0, 2}
        # a chain equal to its theta needs no counts
        assert per_check.count(0) * 3 <= out["jensen"]["equal"]
        assert calls["_abs_counts"] == 2 * per_check.count(2) > 0
        assert calls["random_simplices"] == 200
        assert calls["_sampling_plan"] == 2


# ---------------------------------------------------------------------------
# top-dimensional simplices: (D_inf)^3 has spherical triples

@pytest.fixture(scope="module")
def dinf_cubed():
    # generators 2i and 2i + 1 span the i-th D_inf; different factors commute
    return CoxeterMatrix(list("abcdef"),
                         [[1 if i == j else math.inf if i // 2 == j // 2 else 2
                           for j in range(6)] for i in range(6)])


class TestTopDimensionalSimplices:
    def test_battery_draws_3_simplices(self, dinf_cubed, monkeypatch):
        dims = []
        make = building_mod.make_simplex

        def recorded(*args):
            sx = make(*args)
            dims.append(sx.dim)
            return sx
        monkeypatch.setattr(building_mod, "make_simplex", recorded)
        out = oracle_battery(System(dinf_cubed),
                             ThicknessVector.constant(dinf_cubed, 2), 5,
                             BATTERY_GRID, chains=100, seed=0)
        assert max(dims) == 3
        assert out["identities"] == PIN_IDENTITIES

    def test_identities_on_3_chains(self, dinf_cubed):
        # a 3-simplex needs its gate within radius - 5 of the identity, so
        # every full flag over every chamber of length <= 1 is used
        ball = building_ball(System(dinf_cubed),
                             ThicknessVector.constant(dinf_cubed, 2), 6)
        apartment = building_ball(System(dinf_cubed),
                                  ThicknessVector.constant(dinf_cubed, 1), 6)
        # every chain () < {x} < {x, y} < {x, y, z}
        flags = [((),) + tuple(tuple(sorted(order[:k])) for k in (1, 2, 3))
                 for T in ball.spherical_types if len(T) == 3
                 for order in itertools.permutations(T)]
        assert len(flags) == 8 * 6

        def chain(b):
            pairs = itertools.product((w for w in b.chambers if len(w) <= 1),
                                      flags)
            return {make_simplex(b, w, flag): Fraction(i % 7 - 3, 1 + i % 4)
                    for i, (w, flag) in enumerate(pairs) if i % 7 != 3}
        ch, ch_ap = chain(ball), chain(apartment)
        assert {sx.dim for sx in ch} == {sx.dim for sx in ch_ap} == {3}
        assert boundary(ball, ch) and boundary(apartment, ch_ap)
        assert boundary(ball, boundary(ball, ch)) == {}
        assert boundary(apartment, pushforward(ch)) == \
            pushforward(boundary(ball, ch))
        assert all(r.holds is True
                   for r in jensen_check(ball, ch, P_GRID))
        assert boundary(apartment, boundary(apartment, ch_ap)) == {}
        up = pullback(ball, ch_ap)
        assert pushforward(up) == ch_ap
        assert boundary(ball, up) == \
            pullback(ball, boundary(apartment, ch_ap))
