"""End-to-end CLI behavior: exit codes, formats, determinism."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from coxinv.cli import main

from .conftest import right_angled_dodecahedron

PENTAGON = {
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

SQUARE = {
    "generators": ["a", "b", "c", "d"],
    "matrix": [[1, 2, "inf", 2], [2, 1, 2, "inf"],
               ["inf", 2, 1, 2], [2, "inf", 2, 1]],
    "thickness": 2,
}

TREE_Q3 = {
    "generators": ["a", "b"],
    "matrix": [[1, "inf"], ["inf", 1]],
    "thickness": 3,
}

TRIANGLE_333 = {
    "generators": ["a", "b", "c"],
    "matrix": [[1, 3, 3], [3, 1, 3], [3, 3, 1]],
    "thickness": 2,
}

TRIANGLE_732 = {
    "generators": ["a", "b", "c"],
    "matrix": [[1, 7, 3], [7, 1, 2], [3, 2, 1]],
    "thickness": 2,
}

FREE_PRODUCT_3 = {
    "generators": ["a", "b", "c"],
    "matrix": [[1, "inf", "inf"], ["inf", 1, "inf"], ["inf", "inf", 1]],
    "thickness": 2,
}

I2_173 = {"generators": ["a", "b"], "matrix": [[1, 173], [173, 1]]}

SIMPLEX_534 = {
    "generators": ["a", "b", "c", "d"],
    "matrix": [[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 4], [2, 2, 4, 1]],
    "thickness": 2,
}

# (7,3,2) with a generator commuting with a alone: hyperbolic, vcd 2, its
# nerve a circle with a pendant edge
PENDANT_732 = {
    "generators": ["a", "b", "c", "d"],
    "matrix": [[1, 7, 2, 2], [7, 1, 3, "inf"], [2, 3, 1, "inf"],
               [2, "inf", "inf", 1]],
    "thickness": 2,
}

# right-angled K_{3,4}, W = (Z/2)^{*3} x (Z/2)^{*4}, weights 8 on the a's
# and 27 on the b's: both factor rates are 1/3
K34_W827 = {
    "generators": ["a1", "a2", "a3", "b1", "b2", "b3", "b4"],
    "matrix": [[1 if i == j else ("inf" if (i < 3) == (j < 3) else 2)
                for j in range(7)] for i in range(7)],
    "weights": {g: 8 if g[0] == "a" else 27
                for g in ("a1", "a2", "a3", "b1", "b2", "b3", "b4")},
}

# the free product of 16 copies of Z/2: its ball passes 2,000,000
# elements at radius 6
FREE_PRODUCT_16 = {
    "generators": [chr(97 + i) for i in range(16)],
    "matrix": [[1 if i == j else "inf" for j in range(16)]
               for i in range(16)],
    "thickness": 2,
}

# a finite label far beyond any field the matrix backend can build
HUGE_LABEL = {
    "generators": ["a", "b", "c"],
    "matrix": [[1, 10 ** 30, "inf"], [10 ** 30, 1, "inf"],
               ["inf", "inf", 1]],
    "thickness": 2,
}


def run_cli(*argv, env=None, timeout=300):
    return subprocess.run([sys.executable, "-m", "coxinv.cli", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env=env)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_inputs")
    paths = {}
    for name, payload in (("pentagon", PENTAGON), ("square", SQUARE),
                          ("t333", TRIANGLE_333), ("tree_q3", TREE_Q3),
                          ("t732", TRIANGLE_732),
                          ("free3", FREE_PRODUCT_3), ("i2_173", I2_173),
                          ("s534", SIMPLEX_534), ("pendant", PENDANT_732),
                          ("k34_w827", K34_W827),
                          ("free16", FREE_PRODUCT_16),
                          ("huge_label", HUGE_LABEL)):
        p = d / f"{name}.json"
        p.write_text(json.dumps(payload))
        paths[name] = str(p)
    weighted = dict(PENTAGON, weights=dict(zip("abcde", (2, 2, 3, 2, 2))))
    del weighted["thickness"]
    p = d / "pentagon_w22322.json"
    p.write_text(json.dumps(weighted))
    paths["pentagon_w22322"] = str(p)
    weighted = dict(weighted, weights=dict(zip("abcde", (2, 2, 2, 2, 3))))
    p = d / "pentagon_w22223.json"
    p.write_text(json.dumps(weighted))
    paths["pentagon_w22223"] = str(p)
    p = d / "pentagon_t23222.json"
    p.write_text(json.dumps(
        dict(PENTAGON, thickness=dict(zip("abcde", (2, 3, 2, 2, 2))))))
    paths["pentagon_t23222"] = str(p)
    bad = d / "bad.json"
    bad.write_text('{"generators": ["a","b"], "matrix": [[1,3],[4,1]]}')
    paths["bad"] = str(bad)
    notjson = d / "notjson.json"
    notjson.write_text("{ this is not json")
    paths["notjson"] = str(notjson)
    return paths


def machine_result(proc):
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    return payload["result"]


class TestSubcommands:
    def test_classify(self, inputs):
        r = machine_result(run_cli("classify", "--input", inputs["pentagon"],
                                   "--format", "machine"))
        assert r["kind"] == "other_infinite"
        assert r["right_angled"] is True and r["hyperbolic"] is True

    def test_nerve(self, inputs):
        r = machine_result(run_cli("nerve", "--input", inputs["pentagon"],
                                   "--format", "machine"))
        assert r["vcd"] == 2 and r["type_pm"]["is_pm"] is True
        assert r["face_counts"] == [5, 5]

    def test_growth_dual_route(self, inputs):
        r = machine_result(run_cli("growth", "--input", inputs["pentagon"],
                                   "--radius", "12", "--format", "machine"))
        e = math.log((3 + math.sqrt(5)) / 2) / math.log(2)
        assert abs(r["rate"]["value"] - e) < 1e-6
        assert r["routes_consistent"] is True
        assert r["weighted"] is True

    def test_growth_routes_inconsistent_on_straddling_fit(self, inputs):
        # the weighted fit at radius 12 straddles 0 (-2.05 +- 7.53), so it
        # cannot confirm the positive series rate
        r = machine_result(run_cli("growth", "--input",
                                   inputs["pentagon_w22322"], "--radius",
                                   "12", "--format", "machine"))
        lo, hi = r["enumeration_rate"]["bracket"]
        assert lo < 0 < r["rate"]["value"] < hi
        assert r["routes_consistent"] is False

    def test_exponents(self, inputs):
        r = machine_result(run_cli("exponents", "--input", inputs["pentagon"],
                                   "--format", "machine"))
        e = math.log((3 + math.sqrt(5)) / 2) / math.log(2)
        assert abs(r["p_hom"] - (1 + e)) < 1e-6
        assert abs(r["p_cohom"] - (1 + 1 / e)) < 1e-6

    def test_exponents_affine_infinity_token(self, inputs):
        proc = run_cli("exponents", "--input", inputs["t333"],
                       "--format", "machine")
        assert proc.returncode == 0
        assert '"Infinity"' in proc.stdout
        r = json.loads(proc.stdout)["result"]
        assert r["p_hom"] == 1.0 and r["p_cohom"] == "Infinity"

    def test_confdim_with_vanishing_table(self, inputs):
        r = machine_result(run_cli("confdim", "--input", inputs["pentagon"],
                                   "--p-grid", "3/2,2,3",
                                   "--format", "machine"))
        assert r["fuchsian"] is True
        assert abs(r["lower"] - 1.7202100449769393) < 1e-9
        verdicts = {row["p"]: row["degree_1"] for row in r["vanishing"]}
        assert verdicts[1.5] == "zero" and verdicts[3.0] == "nonzero"

    def test_confdim_explicit_lambda(self, inputs):
        r = machine_result(run_cli("confdim", "--input", inputs["pentagon"],
                                   "--lambda", "2.0", "--format", "machine"))
        assert r["lambda_provenance"] == "UserSupplied"
        e = math.log((3 + math.sqrt(5)) / 2) / math.log(2)
        assert abs(r["hausdim"] - e / math.log(2.0)) < 1e-6

    def test_verify_oracle(self, inputs):
        r = machine_result(run_cli("verify-oracle", "--input",
                                   inputs["pentagon"], "--radius", "4",
                                   "--chains", "20", "--format", "machine"))
        assert r["chambers"] == 2071
        assert r["sphere_sizes"] == [1, 10, 60, 320, 1680]
        assert sum(r["jensen"].values()) == 60
        assert r["jensen"]["indeterminate"] == 0

    def test_report_text(self, inputs):
        proc = run_cli("report", "--input", inputs["pentagon"])
        assert proc.returncode == 0
        assert "vcd_R: 2" in proc.stdout
        assert "FuchsianExact" in proc.stdout


class TestExitCodes:
    def test_schema_error(self, inputs):
        proc = run_cli("classify", "--input", inputs["bad"])
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_not_json(self, inputs):
        proc = run_cli("classify", "--input", inputs["notjson"])
        assert proc.returncode == 2

    def test_missing_file(self, inputs):
        proc = run_cli("classify", "--input", "/nonexistent/x.json")
        assert proc.returncode == 2

    def test_precondition_not_hyperbolic(self, inputs):
        proc = run_cli("confdim", "--input", inputs["square"])
        assert proc.returncode == 2
        assert "CommutingInfinitePair" in proc.stderr

    def test_missing_thickness(self, inputs, tmp_path):
        p = tmp_path / "nothick.json"
        payload = {k: v for k, v in PENTAGON.items() if k != "thickness"}
        p.write_text(json.dumps(payload))
        proc = run_cli("exponents", "--input", str(p))
        assert proc.returncode == 2

    def test_resource_cap(self, inputs):
        proc = run_cli("report", "--input", inputs["pentagon"],
                       "--max-elements", "50")
        assert proc.returncode == 3

    def test_resource_cap_names_radius(self, inputs):
        proc = run_cli("report", "--input", inputs["pentagon"],
                       "--max-elements", "1000")
        assert proc.returncode == 3
        assert "exceeds cap 1000 at radius 6" in proc.stderr

    @pytest.mark.parametrize("command", ["growth", "exponents"])
    def test_cap_refuses_free_product_of_16_early(self, inputs, command):
        # the ball sizes come from a totals-only recurrence, before any
        # per-class layer or series is built
        t0 = time.monotonic()
        proc = run_cli(command, "--input", inputs["free16"])
        assert time.monotonic() - t0 < 5
        assert proc.returncode == 3
        assert "ball size exceeds cap 2000000 at radius 6" in proc.stderr

    @staticmethod
    def _dodecahedron(tmp_path):
        M = right_angled_dodecahedron()
        p = tmp_path / "dodecahedron.json"
        p.write_text(json.dumps({
            "generators": list(M.generators), "thickness": 2,
            "matrix": [["inf" if v == math.inf else v for v in row]
                       for row in M.m]}))
        return str(p)

    @pytest.mark.parametrize("command", ["growth", "exponents", "report"])
    def test_cap_refuses_dodecahedron_early(self, tmp_path, command):
        # its reciprocity sum takes under a second, but no BFS through
        # the validation depth fits the cap; `report` asks for the layer
        # counts before its nerve sections, so it refuses as early
        t0 = time.monotonic()
        proc = run_cli(command, "--input", self._dodecahedron(tmp_path))
        assert time.monotonic() - t0 < 5
        assert proc.returncode == 3
        assert "ball size exceeds cap 2000000 at radius 7" in proc.stderr

    def test_nerve_of_dodecahedron(self, tmp_path):
        # vcd from the full subcomplexes of the icosahedron: 4096 subsets
        t0 = time.monotonic()
        r = machine_result(run_cli("nerve", "--input",
                                   self._dodecahedron(tmp_path),
                                   "--format", "machine"))
        assert time.monotonic() - t0 < 10
        assert r["vcd"] == 3 and "vcd_spherical" not in r
        assert r["face_counts"] == [12, 30, 20]
        assert r["type_pm"]["is_pm"] is True

    @pytest.mark.parametrize("rank, code", [(15, 0), (21, 3)])
    def test_classify_free_coxeter_group(self, tmp_path, capsys, rank, code):
        # hyperbolicity reads only the minimal non-spherical subsets: rank
        # 15 used to exit 3 on a cap for a scan over all 2^rank of them,
        # and rank 21 passes the subset enumeration cap of 20
        p = tmp_path / "free.json"
        p.write_text(json.dumps({
            "generators": [f"s{i}" for i in range(rank)],
            "matrix": [[1 if i == j else "inf" for j in range(rank)]
                       for i in range(rank)]}))
        assert main(["classify", "--input", str(p),
                     "--format", "machine"]) == code
        out, err = capsys.readouterr()
        if code == 0:
            assert json.loads(out)["result"]["hyperbolic"] is True
        else:
            assert "rank 21 exceeds subset enumeration cap 20" in err

    def test_corrupted_cache_count_is_skipped(self, inputs, tmp_path):
        # a record whose layers fail their hash is rebuilt, not trusted
        cache = tmp_path / "cache"
        argv = ("report", "--input", inputs["pentagon"], "--format",
                "machine", "--cache-dir", str(cache))
        cold = run_cli(*argv)
        assert cold.returncode == 0, cold.stderr
        path = cache / "layers.jsonl"
        rec = json.loads(path.read_text())
        rec["layers"][8][0][1] += 1
        path.write_text(json.dumps(rec) + "\n")
        warm = run_cli(*argv)
        assert warm.returncode == 0, warm.stderr
        assert warm.stdout == cold.stdout

    def test_bad_lambda(self, inputs):
        proc = run_cli("confdim", "--input", inputs["pentagon"],
                       "--lambda", "fast")
        assert proc.returncode == 2

    def test_oracle_radius_zero_is_not_radius_four(self, inputs):
        # radius 0 holds no margin-valid simplex; it used to run radius 4
        proc = run_cli("verify-oracle", "--input", inputs["pentagon"],
                       "--radius", "0", "--format", "machine")
        assert proc.returncode == 3
        assert "no margin-valid simplices" in proc.stderr

    def test_oracle_radius_two_checks_the_identity_vertex(self, inputs):
        # the identity with the chain (()) is the only margin-valid simplex
        # at radius 2; drawing words from the whole ball used to exhaust
        # its attempts and exit 3 claiming there was none
        r = machine_result(run_cli("verify-oracle", "--input",
                                   inputs["pentagon"], "--radius", "2",
                                   "--format", "machine"))
        assert r["chambers"] == 71 and r["chains_checked"] == 100
        assert r["jensen"] == {"equal": 300, "indeterminate": 0,
                               "interval": 0, "strict": 0}

    @pytest.mark.parametrize("argv, message", [
        (("--radius", "-2"), "radius must be >= 0"),
        (("--chains", "-3"), "chains must be >= 1"),
        (("--chains", "0"), "chains must be >= 1"),
        (("--p-grid", ","), "p grid must be non-empty"),
        (("--p-grid", "1/2"), "every p >= 1"),
    ])
    def test_oracle_bad_arguments(self, inputs, argv, message):
        # a one-chamber cap: building any ball first would exit 3
        proc = run_cli("verify-oracle", "--input", inputs["pentagon"],
                       "--max-elements", "1", *argv)
        assert proc.returncode == 2
        assert message in proc.stderr

    @pytest.mark.parametrize("grid", ["abc", "1/0"])
    def test_unparseable_p_grid(self, inputs, grid):
        proc = run_cli("verify-oracle", "--input", inputs["pentagon"],
                       "--p-grid", grid)
        assert proc.returncode == 2
        assert "bad p grid" in proc.stderr
        assert "Traceback" not in proc.stderr

    @staticmethod
    def _refused(*argv):
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        return proc

    def test_confdim_empty_p_grid(self, inputs):
        proc = self._refused("confdim", "--input", inputs["pentagon"],
                             "--p-grid", ",")
        assert "p grid must be non-empty" in proc.stderr

    def test_confdim_p_below_one(self, inputs):
        proc = self._refused("confdim", "--input", inputs["pentagon"],
                             "--p-grid", "1/2")
        assert "every p >= 1" in proc.stderr

    @pytest.mark.parametrize("command, grid", [("verify-oracle", "1e400"),
                                               ("confdim", "2,1e400")])
    def test_p_beyond_float_range(self, inputs, command, grid):
        # used to exit 1 with an OverflowError traceback from float(p)
        proc = self._refused(command, "--input", inputs["pentagon"],
                             "--p-grid", grid)
        assert "every p must be a finite float" in proc.stderr

    @pytest.mark.parametrize("radius", ["0", "1"])
    def test_growth_radius_too_small_to_fit(self, inputs, radius):
        # radius 0 used to exit 0 and silently leave the fit out
        proc = self._refused("growth", "--input", inputs["pentagon"],
                             "--radius", radius)
        assert "too few complete counting points to fit" in proc.stderr

    @pytest.mark.parametrize("command, var, value, message", [
        ("classify", "COXINV_MAX_ELEMENTS", "abc",
         "COXINV_MAX_ELEMENTS must be an integer, got 'abc'"),
        ("nerve", "COXINV_MAX_SIMPLICES", "abc",
         "COXINV_MAX_SIMPLICES must be an integer, got 'abc'"),
        ("nerve", "COXINV_MAX_SIMPLICES", "0",
         "COXINV_MAX_SIMPLICES must be >= 1, got 0"),
    ], ids=["elements-abc", "simplices-abc", "simplices-0"])
    def test_bad_cap_in_environment(self, inputs, command, var, value,
                                    message):
        # used to exit 1 with a ValueError traceback
        proc = run_cli(command, "--input", inputs["pentagon"],
                       env=dict(os.environ, **{var: value}))
        assert proc.returncode == 2
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command, argv, message", [
        ("report", ("--max-elements", "-3"),
         "max-elements must be >= 1, got -3"),
        ("report", ("--max-elements", "0"), "max-elements must be >= 1, got 0"),
        ("report", ("--depth", "-2"), "depth must be >= 0, got -2"),
        ("growth", ("--radius", "-1"), "radius must be >= 0, got -1"),
        ("verify-oracle", ("--radius", "-1"), "radius must be >= 0, got -1"),
    ], ids=["max-elements-negative", "max-elements-0", "depth-negative",
            "radius-negative", "oracle-radius-negative"])
    def test_bad_integer_option(self, inputs, command, argv, message):
        # a negative cap used to exit 3 ("cap -3"), a negative depth to
        # exit 0 with ten layer sizes
        proc = self._refused(command, "--input", inputs["pentagon"], *argv)
        assert message in proc.stderr

    def test_huge_p_takes_the_interval_route(self, inputs):
        # an exact |v|^p for p = 10^6 used not to finish in 60 s
        r = machine_result(run_cli(
            "verify-oracle", "--input", inputs["pentagon"], "--p-grid",
            "1000000", "--chains", "5", "--format", "machine", timeout=60))
        assert r["jensen"]["strict"] == 0

    def test_large_cancelling_minpoly(self, inputs):
        # the field check used to reject the correct minimal polynomial
        proc = run_cli("growth", "--input", inputs["i2_173"])
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("command", ["growth", "report"])
    def test_finite_label_above_field_bound(self, inputs, command):
        # report used to exit 1 with an OverflowError in cyclotomic()
        proc = run_cli(command, "--input", inputs["huge_label"])
        assert proc.returncode == 3
        assert "resource cap" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["confdim", "report"])
    def test_inverted_preset_bracket_exits_4(self, inputs, command):
        # exit 0 with lower 6.508501774453936 above upper 3.2542509032152385
        # before: the preset's Hausdorff dimension 1 is below vcd - 1 = 2
        proc = run_cli(command, "--input", inputs["s534"])
        assert proc.returncode == 4
        assert "lower bound 6.508501774453936 exceeds upper bound " \
            "3.2542509032152385" in proc.stderr

    def test_oversized_lambda_exits_2(self, inputs):
        assert run_cli("confdim", "--input", inputs["pendant"]).returncode == 0
        proc = self._refused("confdim", "--input", inputs["pendant"],
                             "--lambda", "1000")
        assert proc.stderr.rstrip().endswith("under the given lambda 1000.0")

    def test_shifted_rate_fails_l2_check(self, inputs, monkeypatch, capsys):
        # 1/W(2) = -1/9 on the pentagon: degree 1 is nonzero at p = 2, so
        # p_cohom cannot lie above 2, as a rate of 1/2 would put it
        import coxinv.growth
        monkeypatch.setattr(coxinv.growth, "growth_rate", lambda S, w:
                            coxinv.growth.GrowthRateEstimate(
                                0.5, "SeriesSingularity", 0.0, (0.5, 0.5)))
        assert main(["confdim", "--input", inputs["pentagon"]]) == 4
        assert "1/W(q) = -1/9 contradicts" in capsys.readouterr().err

    def test_equal_factor_rates(self, inputs):
        # exit 4, "no singularity found on the substitution curve", before
        r = machine_result(run_cli("growth", "--input", inputs["k34_w827"],
                                   "--format", "machine"))
        lo, hi = r["rate"]["bracket"]
        # float ends, not rounded outward (GrowthRateEstimate.contains)
        assert lo - 1e-15 <= 1 / 3 <= hi + 1e-15 and hi - lo < 1e-9
        assert r["convergence_at_one"] == "converges"

    @pytest.mark.parametrize("command", ["confdim", "report"])
    @pytest.mark.parametrize("argv, message", [
        (("--apartment-confdim", "nan"), "finite number >= 1"),
        (("--apartment-confdim", "inf"), "finite number >= 1"),
        (("--lambda", "inf"), "finite number > 1"),
        (("--lambda", "nan"), "finite number > 1"),
    ], ids=["apartment-nan", "apartment-inf", "lambda-inf", "lambda-nan"])
    def test_non_finite_confdim_parameters(self, inputs, command, argv,
                                           message):
        # nan used to print "lower: nan" (a traceback in machine format),
        # inf a lower bound above the upper one or a Hausdorff dimension 0
        proc = self._refused(command, "--input", inputs["free3"],
                             "--format", "machine", *argv)
        assert message in proc.stderr

    @staticmethod
    def _write(tmp_path, **entries):
        payload = {k: v for k, v in PENTAGON.items() if k != "thickness"}
        payload.update(entries)
        p = tmp_path / "input.json"
        p.write_text(json.dumps(payload))
        return str(p)

    def test_fractional_thickness_float(self, tmp_path):
        # int() used to truncate it to 2 silently
        proc = self._refused("exponents", "--input",
                             self._write(tmp_path, thickness=2.5))
        assert "thickness must be an integer" in proc.stderr

    def test_fractional_thickness_string(self, tmp_path):
        proc = self._refused("exponents", "--input",
                             self._write(tmp_path, thickness="3/2"))
        assert "thickness must be an integer" in proc.stderr

    def test_non_numeric_generator_thickness(self, tmp_path):
        thickness = dict.fromkeys("abcde", 2)
        thickness["c"] = "x"
        proc = self._refused("exponents", "--input",
                             self._write(tmp_path, thickness=thickness))
        assert "'x'" in proc.stderr

    def test_non_numeric_weights(self, tmp_path):
        proc = self._refused("growth", "--input",
                             self._write(tmp_path, weights="abc"))
        assert "weight must be an exact rational" in proc.stderr

    def test_nan_weights(self, tmp_path):
        proc = self._refused("growth", "--input",
                             self._write(tmp_path, weights="nan"))
        assert "weight must be an exact rational" in proc.stderr

    def test_weights_beyond_float_range(self, tmp_path):
        proc = self._refused("growth", "--input",
                             self._write(tmp_path, weights="1e400"))
        assert "too large for a float" in proc.stderr

    def test_boolean_thickness(self, tmp_path):
        # a JSON true used to be read as thickness 1
        proc = self._refused("exponents", "--input",
                             self._write(tmp_path, thickness=True))
        assert "thickness must be an exact rational, got True" in proc.stderr

    def test_map_naming_no_generator(self, tmp_path):
        # the extra key used to be ignored
        thickness = dict(dict.fromkeys("abcde", 2), f=9)
        proc = self._refused("exponents", "--input",
                             self._write(tmp_path, thickness=thickness))
        assert "thickness names unknown generators ['f']" in proc.stderr


# recorded again when words came to be drawn from the viable prefix only;
# the jensen tallies moved and nothing else (the whole-ball draws gave
# 50b0a2d9... and b8ce935b...)
GOLDEN_ORACLE = {
    "pentagon": (4, "6354d3fb773928040b09e2bbb670779b"
                    "1d6195cc31b4e1b720f24f2867bcebc6"),
    "tree_q3": (8, "c6a49644b8c06ba235e1dc257e8d7879"
                   "d280a3c408007a319c249d0ab9b73ed7"),
}


# sha256 of `<command> --format machine` stdout, recorded before the
# thickness became a weight vector: the pentagon with constant, per-class
# thickness and per-class weights, the (7,3,2) triangle (CycloField route)
# and the free product of three Z/2 (the non-Fuchsian confdim path).  The
# growth rows were recorded again when the series came to print in lowest
# terms; every other field of their output kept its bytes.  The three
# Fuchsian confdim rows were recorded again when the degree-2 verdicts came
# to change at p_cohom instead of p_hom; only degree_2 entries moved (p = 2
# to "zero" on the pentagons, p = 3/2 and 2 to "nonzero" on (7,3,2)), and
# they were 8b227420..., b65711ed... and 4073ea9d... before
GOLDEN_SUBCOMMANDS = {
    ("growth", "pentagon"): "786fc494858b56e4a7e2220fe932a935"
                            "1e70ccee4981620fad5e7cf15515e891",
    ("exponents", "pentagon"): "7c170f63a0ff40f3ac6fc3e3143c7865"
                               "c7b182708c264146562efe0ea1c11d44",
    ("confdim", "pentagon"): "dd0661be0dd225ab7a71784c9c9dc497"
                             "9d48b1e27c0870d02f56501c7e50c83e",
    ("growth", "pentagon_t23222"): "77b427ad05d36e29a98b7c2d30ae1aa1"
                                   "59b72015734ac69447f257af320462f0",
    ("exponents", "pentagon_t23222"): "07092f571102300b867b3ac6c7b396df"
                                      "a9691273671fd2cbb054e14fb0c7545c",
    ("confdim", "pentagon_t23222"): "75d65d90c862c60c5b50e0697e527290"
                                    "4289d568350023f2566313536ef8e22d",
    ("growth", "pentagon_w22223"): "77b427ad05d36e29a98b7c2d30ae1aa1"
                                   "59b72015734ac69447f257af320462f0",
    ("growth", "t732"): "0fa4dbee1e76735f8fbe5d2a7de17673"
                        "bd0102eac24108d7245c2ba023bb378d",
    ("exponents", "t732"): "a3abcd500fb0c93db087de9f4c63a7a2"
                           "27c30d64c58d4fe004cdb1d29206e475",
    ("confdim", "t732"): "1872eae7d4e18c7f30cb2298545fa806"
                         "06c483f37e1adf363dff397b794265da",
    ("confdim", "free3"): "6196381cbc321e98b70296fe9bb0cbb7"
                          "15bc0231b7e5b65cd29fc3f84c61b35c",
}


class TestSubcommandGolden:
    @pytest.mark.parametrize("command, name", sorted(GOLDEN_SUBCOMMANDS))
    def test_machine_digest(self, inputs, command, name):
        proc = run_cli(command, "--input", inputs[name],
                       "--format", "machine")
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
            GOLDEN_SUBCOMMANDS[command, name]


class TestOracleGolden:
    """sha256 of `verify-oracle --format machine` on the two benchmark
    inputs (100 chains, seed 0): the bytes and the RNG draws are pinned."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_ORACLE))
    def test_machine_digest(self, inputs, name):
        radius, digest = GOLDEN_ORACLE[name]
        proc = run_cli("verify-oracle", "--input", inputs[name],
                       "--radius", str(radius), "--chains", "100",
                       "--seed", "0", "--format", "machine")
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


# the options each subcommand reads, besides --input and --format, and a
# value each option accepts
READS = {
    "classify": (),
    "nerve": (),
    "growth": ("--radius", "--max-elements", "--cache-dir"),
    "exponents": ("--max-elements", "--cache-dir"),
    "confdim": ("--lambda", "--apartment-confdim", "--p-grid",
                "--max-elements", "--cache-dir"),
    "verify-oracle": ("--radius", "--p-grid", "--chains", "--seed",
                      "--max-elements"),
    "report": ("--depth", "--lambda", "--apartment-confdim", "--timings",
               "--max-elements", "--cache-dir"),
}
OPTION_VALUES = {
    "--depth": ["3"], "--radius": ["5"], "--p-grid": ["7,9"],
    "--lambda": ["3"], "--apartment-confdim": ["2"], "--cache-dir": ["D"],
    "--max-elements": ["10"], "--chains": ["7"], "--seed": ["1"],
    "--timings": [],
}
UNREAD = [(command, option) for command in READS for option in OPTION_VALUES
          if option not in READS[command]]


class TestOptionsPerSubcommand:
    """Each subcommand takes only the options it reads."""

    @pytest.mark.parametrize("command", sorted(READS))
    def test_help_lists_exactly_the_read_options(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*",
                                capsys.readouterr().out))
        assert listed == {"--help", "--input", "--format", *READS[command]}

    @pytest.mark.parametrize("command, option", UNREAD)
    def test_unread_option_is_refused(self, capsys, command, option):
        # before, such an option was accepted and changed nothing
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--input", "unused.json", option,
                  *OPTION_VALUES[option]])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: " + " ".join(
            [option, *OPTION_VALUES[option]]) in capsys.readouterr().err


class TestDeterminism:
    def test_report_bit_identical_and_cache_stable(self, inputs, tmp_path):
        cache = str(tmp_path / "cache")
        out = []
        for _ in range(2):
            proc = run_cli("report", "--input", inputs["pentagon"],
                           "--format", "machine", "--cache-dir", cache)
            assert proc.returncode == 0, proc.stderr
            out.append(proc.stdout)
        assert out[0] == out[1]
        # corrupting the cache must not change the bytes either
        (tmp_path / "cache" / "layers.jsonl").write_text("garbage\n")
        proc = run_cli("report", "--input", inputs["pentagon"],
                       "--format", "machine", "--cache-dir", cache)
        assert proc.stdout == out[0]

    def test_warm_cache_keeps_caps(self, inputs, tmp_path):
        # a record stored under the default caps must not answer a capped
        # request that a cold run refuses
        cache = str(tmp_path / "cache")
        capped = ("report", "--input", inputs["pentagon"],
                  "--max-elements", "1000", "--cache-dir", cache)
        codes = [run_cli(*capped).returncode,
                 run_cli("report", "--input", inputs["pentagon"],
                         "--cache-dir", cache).returncode,
                 run_cli(*capped).returncode]
        assert codes == [3, 0, 3]

    def test_env_cache_dir(self, inputs, tmp_path, monkeypatch):
        import os
        env = dict(os.environ, CACHE_DIR=str(tmp_path / "envcache"))
        proc = subprocess.run(
            [sys.executable, "-m", "coxinv.cli", "report", "--input",
             inputs["pentagon"], "--format", "machine"],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0
        assert (tmp_path / "envcache" / "layers.jsonl").exists()

    def test_weights_entry_round_trip(self, inputs, tmp_path):
        payload = {k: v for k, v in PENTAGON.items() if k != "thickness"}
        payload["weights"] = {g: "3/2" for g in "abcde"}
        p = tmp_path / "weighted.json"
        p.write_text(json.dumps(payload))
        r = machine_result(run_cli("growth", "--input", str(p),
                                   "--format", "machine"))
        assert r["weighted"] is True
        # e(W) / log(3/2) for constant 3/2 weights
        e = math.log((3 + math.sqrt(5)) / 2) / math.log(1.5)
        assert abs(r["rate"]["value"] - e) < 1e-6


def test_import_does_not_load_numpy():
    # start-up cost: no module the CLI imports may pull numpy in
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import coxinv.cli, sys; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, cwd=root, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("name", sorted(GOLDEN_ORACLE))
def test_oracle_runs_without_mpmath(inputs, name):
    # the default p grid 3/2, 2, 3 is decided in integer arithmetic: with
    # mpmath made unimportable the battery keeps its pinned bytes
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH="src")
    radius, digest = GOLDEN_ORACLE[name]
    script = ("import sys\n"
              "sys.modules['mpmath'] = None\n"
              "from coxinv.cli import main\n"
              f"sys.exit(main(['verify-oracle', '--input', {inputs[name]!r}, "
              f"'--radius', '{radius}', '--chains', '100', '--seed', '0', "
              "'--format', 'machine']))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, cwd=root, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("name, loaded", [("pentagon", False),
                                          ("pentagon_w22223", True)])
def test_mpmath_loads_only_for_interval_evaluation(inputs, name, loaded):
    # start-up cost: a right-angled report with constant thickness reads
    # every sign from exact integers; the mixed-weight curve scan needs
    # intervals, which shows the check can fail
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH="src")
    script = ("import sys\n"
              "from coxinv.cli import main\n"
              f"code = main(['report', '--input', {inputs[name]!r}, "
              "'--format', 'machine'])\n"
              "print(code, 'mpmath' in sys.modules, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, cwd=root, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["0", str(loaded)]
