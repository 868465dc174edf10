"""Acceptance criteria for the full pipeline, with pinned tolerances.

Each test class is one acceptance criterion.  Expected values are frozen:
closed forms where known (pentagon rate log((3+sqrt(5))/2), Fuchsian
conformal dimension 1 + log(2)/e(W)), independently verifiable counts
everywhere else (chamber totals, sphere sizes, Betti numbers).  Tolerances
are pinned next to each assertion and are not derived from the code under
test.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from coxinv.building import (ThicknessVector, building_ball,
                             critical_exponents, oracle_battery)
from coxinv.conformal import (AffineRank3, CommutingInfinitePair,
                              confdim_bounds, fuchsian_report,
                              moussong_hyperbolic)
from coxinv.elements import DEFAULT_MAX_SIMPLICES, Caps
from coxinv.growth import (WeightVector, enumeration_rate, growth_rate,
                           layer_class_counts, rational_growth_series)
from coxinv.homology import SimplicialComplexQ, pm_verdict
from coxinv.report import build_report, report_to_json
from coxinv.system import System
from .conftest import INF, mat

PENTAGON_RATE = math.log((3 + math.sqrt(5)) / 2)

# antipodal identification of the icosahedron: 10 triangles, every edge
# shared by exactly two of them
RP2_FACES = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
             (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]


class TestCriterion01SeriesMatchesEnumeration:
    """The exact rational series reproduces BFS counts through depth 12,
    per conjugacy class, on five reference systems, each within 60 s."""

    DEPTH = 12
    TIME_LIMIT = 60.0

    def _check(self, M):
        t0 = time.monotonic()
        series = rational_growth_series(System(M))
        expanded = series.expand(self.DEPTH)
        counts = layer_class_counts(M, self.DEPTH, Caps())
        for k in range(self.DEPTH + 1):
            want = {}
            if k < len(counts):
                want = {cv: Fraction(n) for cv, n in counts[k].items()}
            assert expanded[k] == want, f"depth {k} mismatch"
        assert time.monotonic() - t0 < self.TIME_LIMIT

    def test_dihedral(self, dihedral_inf):
        self._check(dihedral_inf)

    def test_a2(self, a2):
        self._check(a2)

    def test_triangle_333(self, triangle_333):
        self._check(triangle_333)

    def test_pentagon(self, pentagon):
        self._check(pentagon)

    def test_square_product(self, square_product):
        self._check(square_product)


class TestCriterion02PentagonRateTwoRoutes:
    """Unweighted pentagon growth rate by two independent routes:
    series singularity within 1e-3 of log((3+sqrt(5))/2), enumeration
    regression at depth 20 within 5e-2."""

    def test_series_route(self, pentagon):
        r = growth_rate(System(pentagon), None)
        assert abs(r.value - PENTAGON_RATE) < 1e-3
        assert r.bracket[0] <= PENTAGON_RATE <= r.bracket[1]

    def test_enumeration_route(self, pentagon):
        r = enumeration_rate(System(pentagon), None, 20)
        assert abs(r.value - PENTAGON_RATE) < 5e-2
        assert r.method == "EnumerationFit"


class TestCriterion03PMVerdicts:
    """Type-PM verdicts on reference nerves, plus the orientability
    distinction on a projective plane."""

    def test_circle_nerves_are_pm(self, triangle_333, pentagon):
        assert System(triangle_333).type_pm.is_pm
        assert System(pentagon).type_pm.is_pm

    def test_path_nerve_is_not_pm(self, path_2edge):
        assert not System(path_2edge).type_pm.is_pm

    def test_projective_plane(self):
        # pseudomanifold yes, orientable no: no rational fundamental cycle
        X = SimplicialComplexQ(RP2_FACES, DEFAULT_MAX_SIMPLICES)
        v = pm_verdict(X)
        assert v.is_pm
        assert v.pseudomanifold and v.purely_dimensional
        assert v.gallery_connected
        assert v.orientable is False
        assert v.fundamental_cycle is None


class TestCriterion04AffineDegeneration:
    """Affine triangle at thickness 2: the weighted counting function is
    subexponential (fit slope within 1e-2 of 0 at depth 30, bracket
    containing 0) and the critical exponents collapse to (1, Infinity)
    exactly."""

    def test_fit_slope_vanishes(self, triangle_333):
        w = WeightVector.constant(triangle_333, 2)
        r = enumeration_rate(System(triangle_333), w, 30)
        assert abs(r.value) < 1e-2
        assert r.bracket[0] <= 0.0 <= r.bracket[1]

    def test_exponents_exact(self, triangle_333):
        q = ThicknessVector.constant(triangle_333, 2)
        ce = critical_exponents(System(triangle_333), q)
        assert ce.p_hom == 1.0
        assert ce.p_cohom == math.inf


class TestCriterion05Vcd:
    """vcd_R over all parabolic supports."""

    def test_values(self, dihedral_inf, triangle_333, pentagon):
        assert System(dihedral_inf).vcd.value == 1
        assert System(triangle_333).vcd.value == 2
        assert System(pentagon).vcd.value == 2


class TestCriterion07OracleBattery:
    """Chain-level identities on two explicit buildings: frozen chamber
    counts, sphere sizes equal to q-weighted Coxeter spheres, boundary
    squared zero, both retraction commutation identities, the section
    identity, and the p-norm comparison on 1000 random chains for
    p in {3/2, 2, 3}; all inside 5 minutes."""

    TIME_LIMIT = 300.0
    P_VALUES = (Fraction(3, 2), Fraction(2), Fraction(3))

    def test_battery(self, pentagon, dihedral_inf):
        t0 = time.monotonic()
        q2p = ThicknessVector.constant(pentagon, 2)
        out_p = oracle_battery(System(pentagon), q2p, 4,
                               p_values=self.P_VALUES, chains=700, seed=2024)
        assert out_p["chambers"] == 2071
        assert out_p["sphere_sizes"] == [1, 10, 60, 320, 1680]
        q2d = ThicknessVector.constant(dihedral_inf, 2)
        out_d = oracle_battery(System(dihedral_inf), q2d, 6,
                               p_values=self.P_VALUES, chains=300, seed=2024)
        assert out_d["chambers"] == 253
        assert out_d["sphere_sizes"] == [1, 4, 8, 16, 32, 64, 128]
        for out in (out_p, out_d):
            jensen = out["jensen"]
            assert jensen["indeterminate"] == 0
            assert sum(jensen.values()) == 3 * out["chains_checked"]
        assert out_p["chains_checked"] + out_d["chains_checked"] == 1000
        assert time.monotonic() - t0 < self.TIME_LIMIT

    def test_sphere_sizes_are_weighted_spheres(self, pentagon):
        ball = building_ball(System(pentagon),
                             ThicknessVector.constant(pentagon, 2), 3)
        for k, n in enumerate(ball.sphere_sizes()):
            assert n == sum(2 ** len(w) for w in ball.fibers if len(w) == k)


class TestCriterion08ConformalDimension:
    """Pentagon at thickness 2: bracket collapses to the exact value
    1 + log(2)/e(W) with relative width below 1e-6; the surface-group
    route agrees within 1e-3."""

    def test_bounds_meet(self, pentagon):
        q = ThicknessVector.constant(pentagon, 2)
        b = confdim_bounds(System(pentagon), q)
        expect = 1.0 + math.log(2) / PENTAGON_RATE
        assert b.lower == b.upper
        assert abs(b.lower - expect) < 1e-6

    def test_generic_bracket_width(self, pentagon):
        # the same bracket rebuilt from the rate interval, without the
        # surface-group shortcut
        w = WeightVector.constant(pentagon, 2)
        e_q = growth_rate(System(pentagon), w)
        lo, hi = e_q.bracket
        lam = math.exp(e_q.value)
        lower = 1.0 * (1.0 + 1.0 / hi)
        upper = (hi / math.log(lam)) * (1.0 + 1.0 / lo)
        assert lower <= upper
        assert (upper - lower) / ((upper + lower) / 2) < 1e-6
        expect = 1.0 + math.log(2) / PENTAGON_RATE
        assert lower - 1e-9 <= expect <= upper + 1e-9

    def test_fuchsian_route_agrees(self, pentagon):
        q = ThicknessVector.constant(pentagon, 2)
        # degree 1 turns nonzero at the conformal dimension
        expect = 1.0 + math.log(2) / PENTAGON_RATE
        table = fuchsian_report(System(pentagon), q,
                                p_grid=(expect - 1e-3, expect + 1e-3))
        assert [d1 for _, d1, _ in table] == ["zero", "nonzero"]


class TestCriterion09HyperbolicityWitnesses:
    """Exact obstruction witnesses."""

    def test_affine_rank3(self, triangle_333):
        r = moussong_hyperbolic(System(triangle_333))
        assert not r.hyperbolic
        assert r.witness == AffineRank3((0, 1, 2))

    def test_affine_rank3_with_cone_vertex(self):
        M = mat([[1, 3, 3, 2], [3, 1, 3, 2], [3, 3, 1, 2], [2, 2, 2, 1]])
        r = moussong_hyperbolic(System(M))
        assert r.witness == AffineRank3((0, 1, 2))

    def test_commuting_pair(self, square_product):
        r = moussong_hyperbolic(System(square_product))
        assert not r.hyperbolic
        assert r.witness == CommutingInfinitePair((0, 2), (1, 3))

    def test_hyperbolic_references(self, pentagon, dihedral_inf, triangle_732):
        for M in (pentagon, dihedral_inf, triangle_732):
            assert moussong_hyperbolic(System(M)).hyperbolic


class TestCriterion10Determinism:
    """Reports are bit-identical across process runs (cold and warm
    cache) and within one process."""

    def test_report_bytes_stable_across_processes(self, tmp_path):
        payload = {
            "generators": ["a", "b", "c", "d", "e"],
            "matrix": [
                [1, 2, "inf", "inf", 2],
                [2, 1, 2, "inf", "inf"],
                ["inf", 2, 1, 2, "inf"],
                ["inf", "inf", 2, 1, 2],
                [2, "inf", "inf", 2, 1],
            ],
            "thickness": 2,
        }
        inp = tmp_path / "pentagon.json"
        inp.write_text(json.dumps(payload))
        cache = str(tmp_path / "cache")
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "coxinv.cli", "report", "--input",
                 str(inp), "--format", "machine", "--cache-dir", cache],
                capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_report_in_process_determinism(self, pentagon):
        q = ThicknessVector.constant(pentagon, 2)
        a = report_to_json(build_report(System(pentagon), thickness=q,
                                        depth=8))
        b = report_to_json(build_report(System(pentagon), thickness=q,
                                        depth=8))
        assert a == b
