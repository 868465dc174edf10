"""Report assembly, canonical JSON, and the enumeration cache."""

import hashlib
import json
import math
import sys
import tempfile
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from coxinv.building import ThicknessVector
from coxinv.cache import load_layers, store_layers
from coxinv.cli import main as cli_main
from coxinv.elements import Caps, racg_layer_counts
from coxinv.errors import ResourceExceeded
from coxinv.growth import (DEFAULT_VALIDATION_DEPTH, WeightVector,
                           layer_class_counts)
from coxinv.report import (build_report, encode_json_value, report_to_json,
                           report_to_text)
from coxinv.system import System

from .conftest import mat
from .oracles import decode_json_value, report_from_json

# The digests below were recorded again at SCHEMA_VERSION 4, whose
# "parameters" section holds only the depth.  With parameters.radius null,
# parameters.p_grid [1.5, 2.0, 3.0] and schema_version 3 put back, every
# report gives its SCHEMA_VERSION 3 pin.  That pin dropped the
# "bestvina" section, vcd.spherical_value and the witnesses' "spherical"
# flags; with those keys removed and schema_version 2, every report keeps
# the bytes of its SCHEMA_VERSION 2 pin, which printed the series in
# lowest terms and otherwise kept the bytes of its earlier pin.

# sha256 of report_to_json(build_report(System(M), thickness=q=2, depth=8)),
# first recorded before reports were assembled from a shared System
GOLDEN_Q2 = {
    "pentagon":
        "ed8c8d25702ba334a5b58571974380a9af94eb818193b5345f03577d61d6e830",
    "triangle_732":
        "8e987c885163caecbd9545d59b934e4ae96106f7015dd119e85351501d7646f6",
    "triangle_433":
        "737c404dab04e9b78d54abe536fc91a7d9f094ee7e7ea80b4577f21a4fd12308",
}

# sha256 of report_to_json(build_report(System(pentagon), ...)) for inputs
# whose rate comes from the mixed-weight curve scan, recorded before the
# curve was evaluated on monomials merged by weight
GOLDEN_MIXED = {
    "weights=22223":
        "23bb83317bfb8d8e264033f2337d8a0ad72e0945c35f2efd5a5e0798e0ae6020",
    "thickness=23222":
        "44b3a9f87f041f29f38bd94bad73074d8be4e39590450799b81cd5d1a8d95e12",
}

# sha256 of report_to_json(build_report(System(M), ...)) for reports whose
# enumeration runs in the matrix backend, recorded before its coordinates
# became integers: [5,3,4] has an H3 parabolic in the degree-16 field
# Q(2cos pi/60) and no thickness; (7,3,2) at q=3
LINEAR_534 = [[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 4], [2, 2, 4, 1]]
GOLDEN_MATRIX = {
    "linear_534":
        "f6199ab600f8c5a59791b4c20a2fb393f44d1e25bb492a3a703db000ee89ad85",
    "triangle_732_q3":
        "7f4f29db19f690c6314eddd033031170dc11c0618722021fb4e35714afebcfc5",
}


def _counting(monkeypatch, module, attr, keep=lambda *a: True):
    """Replace module.attr by a wrapper that records the arguments of each
    call for which keep(*args) holds."""
    calls = []
    orig = getattr(module, attr)

    def counted(*args, **kwargs):
        if keep(*args):
            calls.append(args)
        return orig(*args, **kwargs)
    monkeypatch.setattr(module, attr, counted)
    return calls


def _system_counts(M, radius, caps, cache_dir):
    """(layer counts, source tag) from a fresh System that reads and
    extends the cache in cache_dir; it counts through the validation
    depth however shallow the radius."""
    return System(M, caps=caps, cache_dir=cache_dir).layer_counts(radius)


@pytest.fixture(scope="module")
def pentagon_report(pentagon):
    q = ThicknessVector.constant(pentagon, 2)
    return build_report(System(pentagon), thickness=q, depth=8)


class TestEncoding:
    def test_infinity_tokens(self):
        x = {"a": math.inf, "b": [-math.inf, 1.5], "c": "plain"}
        enc = encode_json_value(x)
        assert enc == {"a": "Infinity", "b": ["-Infinity", 1.5], "c": "plain"}
        assert decode_json_value(enc) == x

    def test_fraction_rendering(self):
        assert encode_json_value(Fraction(3, 2)) == "3/2"
        assert encode_json_value(Fraction(4, 2)) == "2"

    def test_round_trip_is_identity_on_reports(self, pentagon_report):
        j = report_to_json(pentagon_report)
        assert report_from_json(j) == pentagon_report
        # canonical form: re-serializing parsed JSON gives the same bytes
        assert json.dumps(json.loads(j), sort_keys=True,
                          separators=(",", ":")) == j


class TestReportContent:
    def test_sections_present(self, pentagon_report):
        assert sorted(pentagon_report) == [
            "building", "classification", "confdim", "growth", "hyperbolic",
            "nerve", "parameters", "schema_version", "system", "type_pm",
            "vcd"]
        assert pentagon_report["vcd"] == {
            "value": 2, "witnesses": [{"subset": [0, 1, 2, 3, 4],
                                       "degree": 2}]}

    def test_parameters_hold_only_the_depth(self, pentagon_report):
        # the radius and p grid it echoed changed no number of the report
        assert pentagon_report["parameters"] == {"depth": 8}
        assert pentagon_report["schema_version"] == 4

    def test_headline_values(self, pentagon_report):
        r = pentagon_report
        assert r["system"]["right_angled"] is True
        assert r["vcd"]["value"] == 2
        assert r["type_pm"]["is_pm"] is True
        assert r["hyperbolic"]["verdict"] is True
        assert r["confdim"]["fuchsian"] is True
        assert r["confdim"]["lower"] == r["confdim"]["upper"]
        e = math.log((3 + math.sqrt(5)) / 2) / math.log(2)
        assert abs(r["building"]["exponents"]["p_cohom"] - (1 + 1 / e)) < 1e-6
        assert r["growth"]["layer_sizes"][:5] == [1, 5, 15, 40, 105]

    def test_no_timings_by_default(self, pentagon_report):
        assert "timings" not in pentagon_report

    def test_timings_on_request(self, pentagon):
        q = ThicknessVector.constant(pentagon, 2)
        r = build_report(System(pentagon), thickness=q, depth=6,
                         timings=True)
        assert "timings" in r and r["timings"]

    def test_determinism_in_process(self, pentagon, pentagon_report):
        q = ThicknessVector.constant(pentagon, 2)
        again = build_report(System(pentagon), thickness=q, depth=8)
        assert report_to_json(again) == report_to_json(pentagon_report)

    def test_affine_building_has_infinity_token(self, triangle_333):
        q = ThicknessVector.constant(triangle_333, 2)
        r = build_report(System(triangle_333), thickness=q, depth=6)
        j = report_to_json(r)
        assert '"Infinity"' in j
        assert report_from_json(j)["building"]["exponents"]["p_cohom"] == math.inf
        assert r["confdim"]["error"]["type"] == "NotHyperbolic"

    def test_commuting_pair_witness_in_report(self, square_product):
        q = ThicknessVector.constant(square_product, 2)
        r = build_report(System(square_product), thickness=q, depth=6)
        assert r["hyperbolic"]["verdict"] is False
        w = r["hyperbolic"]["witness"]
        assert w["kind"] == "CommutingInfinitePair"
        assert w["first"] == [0, 2] and w["second"] == [1, 3]

    def test_no_thickness_skips_building(self, a2):
        r = build_report(System(a2), depth=6)
        assert r["building"] is None and r["confdim"] is None
        assert r["classification"]["order"] == 6
        assert r["growth"]["rate"]["exact"] is True

    def test_text_rendering(self, pentagon_report):
        txt = report_to_text(pentagon_report)
        assert "vcd_R: 2" in txt
        assert "confdim: 1.7202100449769393 (exact, FuchsianExact)" in txt
        assert "hyperbolic: yes" in txt
        assert txt.endswith("\n")


class TestSharedSystem:
    @pytest.mark.parametrize("name", sorted(GOLDEN_Q2))
    def test_golden_bytes(self, request, name):
        if name == "triangle_433":
            M = mat([[1, 4, 3], [4, 1, 3], [3, 3, 1]])
        else:
            M = request.getfixturevalue(name)
        r = build_report(System(M), depth=8,
                         thickness=ThicknessVector.constant(M, 2))
        digest = hashlib.sha256(report_to_json(r).encode()).hexdigest()
        assert digest == GOLDEN_Q2[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_MIXED))
    def test_golden_bytes_mixed(self, pentagon, name):
        kind, digits = name.split("=")
        values = [int(d) for d in digits]
        if kind == "weights":
            r = build_report(System(pentagon), depth=8,
                             weights=WeightVector(pentagon, values))
        else:
            r = build_report(System(pentagon), depth=8,
                             thickness=ThicknessVector(pentagon, values))
        digest = hashlib.sha256(report_to_json(r).encode()).hexdigest()
        assert digest == GOLDEN_MIXED[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_MATRIX))
    def test_golden_bytes_matrix(self, triangle_732, name):
        if name == "linear_534":
            r = build_report(System(mat(LINEAR_534)), depth=8)
        else:
            r = build_report(System(triangle_732), depth=8, thickness=
                             ThicknessVector.constant(triangle_732, 3))
        digest = hashlib.sha256(report_to_json(r).encode()).hexdigest()
        assert digest == GOLDEN_MATRIX[name]

    def test_each_spherical_component_enumerated_once(self, monkeypatch):
        # an unweighted report prints the series and reads its rate from
        # its one-variable form: one enumeration of each irreducible
        # component of a spherical parabolic.  [5,3,4] is the path
        # a-b-c-d, so these components are the runs of consecutive
        # generators short of the whole path
        M = mat(LINEAR_534)
        calls = _counting(monkeypatch, sys.modules["coxinv.growth"],
                          "ball_enumerate", keep=lambda N, *a: N is not M)
        build_report(System(M), depth=8)
        subsets = [tuple(N.generators) for N, *_ in calls]
        assert sorted(subsets) == sorted(
            ("a", "b", "c", "d")[i:j] for i in range(4)
            for j in range(i + 1, 5) if j - i < 4)
        assert len(subsets) == 9

    def test_each_invariant_computed_once(self, monkeypatch, triangle_732):
        leaves = ("coxeter.spherical_subsets",
                  "growth.layer_class_counts", "growth.rational_growth_series",
                  "davis.nerve_complex", "davis.vcd_real",
                  "homology.pm_verdict", "conformal.moussong_hyperbolic",
                  "conformal.is_nerve_circle", "building.critical_exponents")
        calls = _calls_everywhere(monkeypatch,
                                  leaves + ("coxeter.classify_parabolic",))
        q = ThicknessVector.constant(triangle_732, 2)
        build_report(System(triangle_732), depth=8, thickness=q)
        assert {name: len(calls[name]) for name in leaves} == \
            dict.fromkeys(leaves, 1)
        # the whole set, three pairs and three singletons, each once
        subsets = [frozenset(args[1]) if len(args) > 1 else frozenset(range(3))
                   for args in calls.pop("coxeter.classify_parabolic")]
        assert len(subsets) == len(set(subsets)) == 7

    def test_confdim_computes_exponents_once(self, monkeypatch, capsys,
                                             tmp_path):
        # the bracket and the vanishing table read one CriticalExponents
        path = tmp_path / "t732.json"
        path.write_text(json.dumps({
            "generators": ["a", "b", "c"], "thickness": 2,
            "matrix": [[1, 7, 2], [7, 1, 3], [2, 3, 1]]}))
        calls = _calls_everywhere(monkeypatch, ("building.critical_exponents",
                                                "coxeter.classify_parabolic"))
        assert cli_main(["confdim", "--input", str(path)]) == 0
        assert "degree_2" in capsys.readouterr().out
        assert len(calls["building.critical_exponents"]) == 1
        subsets = [frozenset(args[1]) if len(args) > 1 else frozenset(range(3))
                   for args in calls["coxeter.classify_parabolic"]]
        assert len(subsets) == len(set(subsets))


def _calls_everywhere(monkeypatch, names):
    """{name: [args of each call]} for coxinv functions given as
    "module.function", through every binding of each, `from .x import f`
    copies included."""
    calls = {name: [] for name in names}
    for name in names:
        modname, attr = name.split(".")
        orig = getattr(sys.modules[f"coxinv.{modname}"], attr)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls[_name].append(args)
            return _orig(*args, **kwargs)
        for modkey, mod in list(sys.modules.items()):
            if modkey.startswith("coxinv") and \
                    getattr(mod, attr, None) is orig:
                monkeypatch.setattr(mod, attr, counted)
    return calls


# right-angled K_{3,4}: a1-a3 pairwise inf, b1-b4 pairwise inf, every
# a_i b_j = 2, so W = (Z/2)^{*3} x (Z/2)^{*4}
K34 = [[1 if i == j else (math.inf if (i < 3) == (j < 3) else 2)
        for j in range(7)] for i in range(7)]


class TestPrintedSeries:
    """The report prints the one-variable series in lowest terms."""

    def test_pentagon(self, pentagon_report):
        s = pentagon_report["growth"]["series"]
        assert (s["numerator"], s["denominator"]) == \
            ("1 + 2*t + t^2", "1 - 3*t + t^2")

    def test_k34_keeps_every_other_byte(self):
        # (1+t)^2 / ((1-2t)(1-3t)); the rest of the report, thickness 2 on
        # the a's and 4 on the b's, has the bytes it had when the series
        # printed as the degree-31 collapse of the per-class fraction, less
        # the keys SCHEMA_VERSION 3 dropped (digest d54fcf62... before) and
        # the radius and p grid SCHEMA_VERSION 4 dropped (44379b2c...).  The
        # rate is now the larger factor rate, 1, where the first sign change
        # on the curve gave [0.79248125017, 0.79248125076] (895cb170...);
        # only the rate, convergence_at_one (converges -> boundary) and the
        # exponents (1.79 and 2.26 -> 2 and 2) moved
        M = mat(K34)
        r = build_report(System(M), depth=8, thickness=ThicknessVector(
            M, [2, 2, 2, 4, 4, 4, 4]))
        s = r["growth"].pop("series")
        assert (s["numerator"], s["denominator"]) == \
            ("1 + 2*t + t^2", "1 - 5*t + 6*t^2")
        assert r.pop("schema_version") == 4
        assert hashlib.sha256(report_to_json(r).encode()).hexdigest() == \
            "9706216bc34b9745b80b645a47702d3198635abd8c593bee2d8a83be37664151"
        assert r["growth"]["rate"]["bracket"] == [1.0, 1.0]
        assert r["growth"]["convergence_at_one"] == "boundary"


class TestCountingWork:
    """The route is chosen from the recurrence's exact ball sizes, so no
    ball that cannot be used is built."""

    def test_deep_report_enumerates_through_validation_depth_only(
            self, monkeypatch, pentagon):
        calls = _counting(monkeypatch, sys.modules["coxinv.growth"],
                          "ball_enumerate", keep=lambda N, *a: N is pentagon)
        q = ThicknessVector.constant(pentagon, 2)
        r = build_report(System(pentagon), thickness=q, depth=20)
        assert r["growth"]["layer_source"] == "recurrence"
        assert len(r["growth"]["layer_sizes"]) == 21
        assert calls and all(radius <= 10 for _, radius in calls)

    def test_cap_refuses_before_any_enumeration(self, monkeypatch, pentagon):
        calls = _counting(monkeypatch, sys.modules["coxinv.growth"],
                          "ball_enumerate")
        system = System(pentagon, caps=Caps(max_elements=1000))
        with pytest.raises(ResourceExceeded,
                           match="exceeds cap 1000 at radius 6$"):
            build_report(system, depth=8, thickness=ThicknessVector.constant(
                pentagon, 2))
        assert calls == []


class TestCache:
    def test_miss_on_empty(self, tmp_path, pentagon):
        assert load_layers(tmp_path, pentagon.digest(), 4) is None

    def test_store_and_slice(self, tmp_path):
        layers = [{(0,): 1}, {(1,): 3}, {(2,): 5}, {(3,): 9}]
        store_layers(tmp_path, "d1", 3, layers)
        got = load_layers(tmp_path, "d1", 2)
        assert got == layers[:3]
        assert load_layers(tmp_path, "d1", 5) is None    # too shallow
        assert load_layers(tmp_path, "other", 2) is None

    def test_deepest_record_wins(self, tmp_path):
        # the layers differ only so that the answering record shows
        store_layers(tmp_path, "d1", 1, [{(0,): 1}, {(1,): 3}])
        store_layers(tmp_path, "d1", 2,
                     [{(0,): 1}, {(1,): 4}, {(2,): 5}])
        got = load_layers(tmp_path, "d1", 1)
        assert got == [{(0,): 1}, {(1,): 4}]

    def test_deep_record_answers_shallower_radius_tagged_by_caps(
            self, tmp_path, pentagon):
        # a record stores counts only: a deep one answers any shallower
        # radius, and the tag is the one the caps in force give a cold run
        counts = racg_layer_counts(pentagon, 12, Caps())
        store_layers(tmp_path, pentagon.digest(), 12, counts)
        assert load_layers(tmp_path, pentagon.digest(), 4) == counts[:5]
        warm = partial(_system_counts, pentagon, cache_dir=tmp_path)
        roomy = Caps(max_elements=2_000_000)
        tight = Caps(max_elements=60_000)
        assert warm(12, caps=roomy) == (counts, "bfs")
        assert warm(12, caps=tight) == (counts, "recurrence")
        assert warm(8, caps=tight) == (counts[:9], "bfs")
        assert len((tmp_path / "layers.jsonl").read_text().splitlines()) == 1

    def test_exhausted_record_answers_any_radius(self, tmp_path):
        layers = [{(0,): 1}, {(1,): 2}, {(2,): 2}, {(3,): 1}]
        store_layers(tmp_path, "d1", 10, layers)
        assert '"exhausted": true' in (tmp_path / "layers.jsonl").read_text()
        assert load_layers(tmp_path, "d1", 2) == layers[:3]
        assert load_layers(tmp_path, "d1", 50) == layers

    def test_finite_group_hits(self, monkeypatch, tmp_path, a2):
        calls = _counting(monkeypatch, sys.modules["coxinv.growth"],
                          "layer_class_counts")
        out, per_run = [], []
        for _ in range(3):
            before = len(calls)
            r = build_report(System(a2, cache_dir=tmp_path), depth=8,
                             thickness=ThicknessVector.constant(a2, 2))
            out.append(report_to_json(r))
            per_run.append(len(calls) - before)
        assert per_run == [1, 0, 0]
        assert out[0] == out[1] == out[2]
        assert len((tmp_path / "layers.jsonl").read_text().splitlines()) == 1

    def test_warm_recurrence_record_keeps_bytes(self, tmp_path, pentagon,
                                                pentagon_report):
        # a deep run stores a "recurrence" record (a smaller cap makes it
        # cheap); a depth-8 report in the same directory must still print
        # what a cold one prints, "bfs" included
        deep = System(pentagon, caps=Caps(max_elements=60_000),
                      cache_dir=tmp_path)
        assert deep.layer_counts(20)[1] == "recurrence"
        q = ThicknessVector.constant(pentagon, 2)
        warm = build_report(System(pentagon, cache_dir=tmp_path),
                            thickness=q, depth=8)
        assert warm["growth"]["layer_source"] == "bfs"
        assert report_to_json(warm) == report_to_json(pentagon_report)

    def test_hit_only_under_caps_that_give_its_method(self, tmp_path,
                                                       pentagon):
        # a warm answer is what a cold run under the caps in force gives:
        # the same method, or the same ResourceExceeded
        counts = racg_layer_counts(pentagon, 12, Caps())
        digest = pentagon.digest()
        store_layers(tmp_path, digest, 12, counts)
        store_layers(tmp_path, digest, 6, counts[:7])
        store_layers(tmp_path, digest, 3, counts[:4])
        warm = partial(_system_counts, pentagon, cache_dir=tmp_path)
        # ball(12) exceeds the cap and ball(10) fits it: a hit
        assert warm(12, caps=Caps(max_elements=60_000)) == \
            (counts, "recurrence")
        # ball(6) = 1161 exceeds the cap; a System counts through the
        # validation depth 10 whatever the radius, so a cold run refuses
        # radius 3 too although ball(3) = 61 fits any cap
        small = Caps(max_elements=1000)
        with pytest.raises(ResourceExceeded):
            warm(12, caps=small)
        with pytest.raises(ResourceExceeded):
            warm(6, caps=small)
        with pytest.raises(ResourceExceeded):
            warm(3, caps=small)

    def test_class_vector_cap_refuses_warm_as_cold(self, tmp_path):
        # (D_inf)^3: ball(10) fits the cap, so depth 40 takes the
        # recurrence route, whose length 30 holds more class vectors than
        # the cap; a cached record of those counts is refused the same way
        rows = [[1 if i == j else (math.inf if i // 2 == j // 2 else 2)
                 for j in range(6)] for i in range(6)]
        M = mat(rows)
        caps = Caps(max_elements=1562)
        message = "^length 30 holds more than 1562 class vectors$"
        with pytest.raises(ResourceExceeded, match=message):
            layer_class_counts(M, 40, caps=caps)
        store_layers(tmp_path, M.digest(), 40,
                     racg_layer_counts(M, 40, Caps()))
        with pytest.raises(ResourceExceeded, match=message):
            _system_counts(M, 40, caps=caps, cache_dir=tmp_path)

    def test_corrupt_lines_skipped(self, tmp_path):
        store_layers(tmp_path, "d1", 1, [{(0,): 1}, {(1,): 3}])
        path = tmp_path / "layers.jsonl"
        content = path.read_text()
        path.write_text("not json at all\n" + '{"v": 99, "digest": "d1"}\n'
                        + content + '{"v": 1, "digest": "d1", "radius": 9'.strip())
        got = load_layers(tmp_path, "d1", 1)
        assert got == [{(0,): 1}, {(1,): 3}]

    def test_layer_counts_round_trip(self, tmp_path, pentagon):
        run = partial(_system_counts, pentagon, caps=Caps(),
                      cache_dir=tmp_path)
        cold, src_cold = run(6)
        warm, src_warm = run(6)
        assert cold == warm and src_cold == src_warm
        shallow, _ = run(4)
        assert shallow == cold[:5]

    def test_cache_dir_none_is_passthrough(self, pentagon):
        layers, src = _system_counts(pentagon, 4, Caps(), cache_dir=None)
        assert sum(layers[4].values()) == 105


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_warm_hit_answers_as_cold_run(data):
    """On random right-angled systems, a hit served from a deeper record
    gives what a cold run under the same caps gives: the same counts and
    source tag, or the same ResourceExceeded message."""
    n = data.draw(st.integers(3, 5))
    rows = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = data.draw(st.sampled_from((2, math.inf)))
    M = mat(rows)
    radius = data.draw(st.integers(0, 14))
    caps = Caps(max_elements=data.draw(st.integers(50, 20_000)))
    # deeper than the System's run, which covers the validation depth
    deep = max(radius, DEFAULT_VALIDATION_DEPTH) + data.draw(st.integers(1, 4))
    record = racg_layer_counts(M, deep, Caps())
    while not record[-1]:
        record.pop()        # as BFS records a finite group: exhausted

    def answer(run):
        try:
            return run()
        except ResourceExceeded as exc:
            return str(exc)
    cold = answer(lambda: _system_counts(M, radius, caps, None))
    with tempfile.TemporaryDirectory() as d:
        store_layers(d, M.digest(), deep, record)
        warm = answer(lambda: _system_counts(M, radius, caps=caps,
                                           cache_dir=d))
    assert warm == cold
