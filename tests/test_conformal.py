"""Hyperbolicity witnesses and conformal dimension brackets."""

import math
from fractions import Fraction

import pytest
import coxinv.conformal as conformal_mod
import coxinv.growth as growth_mod
from hypothesis import given, settings, strategies as st

from coxinv.building import ThicknessVector
from coxinv.conformal import (AffineRank3, CommutingInfinitePair,
                              confdim_bounds, fuchsian_report, is_nerve_circle,
                              moussong_hyperbolic, resolve_lambda)
from coxinv.errors import (AffineDegenerate, NotHyperbolic, ResourceExceeded,
                           SchemaError, ThinBuilding, ValidationMismatch)
from coxinv.growth import GrowthRateEstimate
from coxinv.system import System
from .conftest import INF, mat
from .oracles import hyperbolicity_by_subset_scan, nerve_circle_by_degrees

PENT_RATE = math.log((3 + math.sqrt(5)) / 2)   # e(W) of the 5-cycle system


@pytest.fixture(scope="module")
def cone_333():
    # affine (3,3,3) with a fourth generator commuting with everything
    return mat([[1, 3, 3, 2], [3, 1, 3, 2], [3, 3, 1, 2], [2, 2, 2, 1]])


@pytest.fixture(scope="module")
def free_product_3():
    return mat([[1, INF, INF], [INF, 1, INF], [INF, INF, 1]])


class TestMoussong:
    def test_hyperbolic_systems(self, pentagon, dihedral_inf, a2, triangle_732):
        for M in (pentagon, dihedral_inf, a2, triangle_732):
            r = moussong_hyperbolic(System(M))
            assert r.hyperbolic and r.witness is None

    def test_affine_rank3_witness(self, triangle_333, cone_333):
        r = moussong_hyperbolic(System(triangle_333))
        assert not r.hyperbolic
        assert r.witness == AffineRank3((0, 1, 2))
        # the witness ignores the spectator cone generator
        r = moussong_hyperbolic(System(cone_333))
        assert r.witness == AffineRank3((0, 1, 2))

    def test_commuting_pair_witness(self, square_product):
        r = moussong_hyperbolic(System(square_product))
        assert not r.hyperbolic
        assert r.witness == CommutingInfinitePair((0, 2), (1, 3))

    def test_rank_guard(self):
        # the verdict reads the spherical subsets, so their enumeration cap
        # (coxeter.MAX_SUBSET_RANK = 20) is the one guard
        n = 21
        rows = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
        with pytest.raises(ResourceExceeded, match="rank 21 exceeds subset"):
            moussong_hyperbolic(System(mat(rows, [f"g{i}" for i in range(n)])))

    def test_named_systems_match_subset_scan(
            self, pentagon, triangle_732, triangle_333, cone_333,
            square_product):
        for M in (pentagon, triangle_732, triangle_333, cone_333,
                  square_product):
            r = System(M).hyperbolicity
            assert (r.hyperbolic, r.witness) == hyperbolicity_by_subset_scan(M)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_systems_match_subset_scan(self, data):
        # the minimal non-spherical subsets against all 2^rank subsets
        n = data.draw(st.integers(2, 6))
        labels = st.sampled_from([2, 3, 4, 5, 6, INF])
        rows = [[1] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = data.draw(labels)
        M = mat(rows)
        r = System(M).hyperbolicity
        assert (r.hyperbolic, r.witness) == hyperbolicity_by_subset_scan(M)


class TestNerveCircle:
    def test_circle_nerves(self, pentagon, square_product, triangle_333):
        assert is_nerve_circle(System(pentagon))
        assert is_nerve_circle(System(square_product))
        # triangle boundary counts as a circle; hyperbolicity is what
        # excludes (3,3,3) from the surface-group route
        assert is_nerve_circle(System(triangle_333))

    def test_non_circle_nerves(self, a2, path_2edge, free_product_3):
        assert not is_nerve_circle(System(a2))
        assert not is_nerve_circle(System(path_2edge))
        assert not is_nerve_circle(System(free_product_3))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_agrees_with_degree_count(self, data):
        n = data.draw(st.integers(1, 7))
        labels = st.sampled_from([2, 3, 4, 5, 6, INF])
        rows = [[1] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = data.draw(labels)
        M = mat(rows)
        assert is_nerve_circle(System(M)) == nerve_circle_by_degrees(M)


class TestHausdorff:
    """The Hausdorff dimension e_q / log(lambda) that confdim_bounds
    reports next to the bracket."""

    def test_bourdon_preset_normalizes_to_one(self, pentagon):
        q = ThicknessVector.constant(pentagon, 2)
        b = confdim_bounds(System(pentagon), q)
        assert abs(b.hausdim - 1.0) < 1e-8
        assert b.lambda_provenance == "BourdonPreset"

    def test_lambda_covariance(self, pentagon):
        q = ThicknessVector.constant(pentagon, 2)
        S = System(pentagon)
        b = confdim_bounds(S, q)
        b2 = confdim_bounds(S, q, lam=b.lam ** 2)
        assert abs(b2.hausdim - b.hausdim / 2) < 1e-9
        assert b2.lambda_provenance == "UserSupplied"

    def test_lambda_must_exceed_one(self, pentagon):
        q = ThicknessVector.constant(pentagon, 2)
        with pytest.raises(SchemaError):
            confdim_bounds(System(pentagon), q, lam=0.5)

    def test_finite_group_degenerate(self, a2):
        with pytest.raises(AffineDegenerate):
            confdim_bounds(System(a2), ThicknessVector.constant(a2, 2))


class TestConfdimBounds:
    def test_pentagon_exact(self, pentagon):
        q = ThicknessVector.constant(pentagon, 2)
        b = confdim_bounds(System(pentagon), q)
        expect = 1.0 + math.log(2) / PENT_RATE
        assert b.fuchsian
        assert b.lower == b.upper
        assert abs(b.lower - expect) < 1e-6
        assert b.lower_provenance == "FuchsianExact"

    def test_free_product_cantor_floor(self, free_product_3):
        q = ThicknessVector.constant(free_product_3, 2)
        b = confdim_bounds(System(free_product_3), q)
        assert not b.fuchsian
        assert b.lower == 0.0 and b.lower_provenance == "VcdFloor"
        assert b.upper > 0 and b.upper_provenance == "HausdorffBound"

    def test_user_supplied_floor(self, free_product_3):
        # the preset puts upper at p_cohom = 2, so a floor above 1 (it was
        # 1.2 before the bracket order was checked) empties the bracket
        q = ThicknessVector.constant(free_product_3, 2)
        b = confdim_bounds(System(free_product_3), q, apartment_confdim=1.0)
        assert b.lower_provenance == "UserSupplied"
        assert b.lower > 0
        with pytest.raises(SchemaError, match="conformal dimension 1.2$"):
            confdim_bounds(System(free_product_3), q, apartment_confdim=1.2)

    def test_not_hyperbolic(self, square_product):
        q = ThicknessVector.constant(square_product, 2)
        with pytest.raises(NotHyperbolic):
            confdim_bounds(System(square_product), q)

    def test_thin_building(self, pentagon):
        with pytest.raises(ThinBuilding):
            confdim_bounds(System(pentagon),
                           ThicknessVector.constant(pentagon, 1))

    def test_linear_growth_degenerate(self, path_2edge):
        q = ThicknessVector.constant(path_2edge, 2)
        with pytest.raises(AffineDegenerate):
            confdim_bounds(System(path_2edge), q)


class TestFuchsianReport:
    def test_vanishing_table(self, pentagon):
        q = ThicknessVector.constant(pentagon, 2)
        conf = 1.0 + math.log(2) / PENT_RATE
        dual = 1.0 + PENT_RATE / math.log(2)
        table = fuchsian_report(System(pentagon), q,
                                p_grid=(1.25, conf, 2.0, dual, 3.0))
        as_dict = {round(p, 6): (d1, d2) for p, d1, d2 in table}
        assert as_dict[1.25] == ("zero", "nonzero")
        assert as_dict[round(conf, 6)] == ("critical", "critical")
        # both degrees change at the conformal dimension p_cohom, below
        # 2 here: 1/W(2) = -1/9 < 0 puts the L^2-cohomology in degree 1
        assert as_dict[2.0] == ("nonzero", "zero")
        assert as_dict[round(dual, 6)] == ("nonzero", "zero")
        assert as_dict[3.0] == ("nonzero", "zero")

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
    def test_p2_verdicts_follow_l2_euler_characteristic(self, pentagon, q):
        # the weighted L^2-Euler characteristic b_1 - b_2 ... of the
        # building is 1/W(q) (Davis, Dymara, Januszkiewicz and Okun, Geom.
        # Topol. 11, 2007), and a circle nerve puts it in one degree:
        # degree 2 when positive, degree 1 when negative
        S = System(pentagon)
        num, den = S.series.univariate()
        chi = sum(Fraction(c) * q ** k for k, c in enumerate(den)) / \
            sum(Fraction(c) * q ** k for k, c in enumerate(num))
        assert chi == Fraction(1 - 3 * q + q * q, (1 + q) ** 2)
        [(_p, d1, d2)] = fuchsian_report(
            S, ThicknessVector.constant(pentagon, q), p_grid=(2,))
        assert (d2 == "nonzero") == (chi > 0)
        assert (d1 == "nonzero") == (chi < 0)

    def test_requires_circle_nerve(self, path_2edge):
        q = ThicknessVector.constant(path_2edge, 2)
        with pytest.raises(SchemaError):
            fuchsian_report(System(path_2edge), q, p_grid=(2,))

    def test_requires_hyperbolic(self, triangle_333):
        q = ThicknessVector.constant(triangle_333, 2)
        with pytest.raises(NotHyperbolic):
            fuchsian_report(System(triangle_333), q, p_grid=(2,))


class TestLambdaResolution:
    def test_preset_token(self):
        class FakeRate:
            value = 2.0
        lam, prov = resolve_lambda("bourdon", FakeRate())
        assert abs(lam - math.exp(2.0)) < 1e-12
        assert prov == "BourdonPreset"

    def test_explicit_value(self):
        class FakeRate:
            value = 2.0
        lam, prov = resolve_lambda(3.5, FakeRate())
        assert lam == 3.5 and prov == "UserSupplied"


# [5,3,4]: the compact hyperbolic 3-simplex group, vcd 3 and a 2-sphere nerve
SIMPLEX_534 = mat([[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 4], [2, 2, 4, 1]])
# the (7,3,2) triangle group with a fourth generator commuting with the
# first alone: hyperbolic, its nerve a circle with a pendant edge, vcd 2
PENDANT_732 = mat([[1, 7, 2, 2], [7, 1, 3, INF], [2, 3, 1, INF],
                   [2, INF, INF, 1]])

class TestRuntimeIdentities:
    """confdim_bounds checks the p = 2 verdicts against 1/W(q) on
    right-angled circle nerves, and that lower <= upper elsewhere."""

    @pytest.mark.parametrize("thickness", [[q] * 5 for q in range(2, 7)] +
                             [[2, 3, 2, 2, 2]])
    def test_l2_check_holds_on_the_pentagon(self, pentagon, monkeypatch,
                                            thickness):
        checked = []
        real = conformal_mod._check_l2_euler
        monkeypatch.setattr(conformal_mod, "_check_l2_euler",
                            lambda *a: checked.append(real(*a)))
        b = confdim_bounds(System(pentagon),
                           ThicknessVector(pentagon, thickness))
        assert b.fuchsian and checked == [None]

    @pytest.mark.parametrize("q, rate", [(2, 0.5), (3, 2.0)])
    def test_l2_check_catches_a_shifted_rate(self, pentagon, monkeypatch,
                                             q, rate):
        # 1/W(2) = -1/9 needs degree 1 nonzero at p = 2, which p_cohom 3
        # denies; 1/W(3) = 1/16 needs degree 2 nonzero, which p_cohom 3/2
        # denies
        monkeypatch.setattr(growth_mod, "growth_rate", lambda S, w:
                            GrowthRateEstimate(rate, "SeriesSingularity", 0.0,
                                               (rate, rate)))
        with pytest.raises(ValidationMismatch, match="contradicts p_cohom"):
            confdim_bounds(System(pentagon),
                           ThicknessVector.constant(pentagon, q))

    def test_inverted_preset_bracket_is_a_fault(self):
        # the preset makes the Hausdorff dimension 1, below vcd - 1 = 2
        with pytest.raises(ValidationMismatch,
                           match="lower bound 6.50850177445.* exceeds upper"):
            confdim_bounds(System(SIMPLEX_534),
                           ThicknessVector.constant(SIMPLEX_534, 2))

    def test_inverted_user_bracket_is_bad_input(self):
        S = System(PENDANT_732)
        q = ThicknessVector.constant(PENDANT_732, 2)
        assert not S.nerve_is_circle and S.vcd.value == 2
        b = confdim_bounds(S, q)
        assert b.lower <= b.upper
        with pytest.raises(SchemaError, match="given lambda 1000.0$"):
            confdim_bounds(S, q, lam=1000.0)
        with pytest.raises(SchemaError,
                           match="given apartment conformal dimension 9.0$"):
            confdim_bounds(S, q, apartment_confdim=9.0)
