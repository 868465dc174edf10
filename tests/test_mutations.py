"""Which run-time check catches which fault: the committed mutation table.

Each entry of FAULTS is a one-line change to the library's source, made
in process.  The source of the target function with one fragment
replaced is compiled in its module's namespace and set, by monkeypatch,
wherever the original is bound; a constant is replaced by its new value.
The faulty program then runs `coxinv.cli.main` in machine format on the
cheap requests that reach the changed line, and the entry states the
outcome on each of them exactly:

* Caught(code, fragment): the exit code and a fragment of the message of
  the check that fires;
* Gap(*fields): exit 0, and exactly these output fields differ from the
  run without the fault.  No field means identical bytes: verify-oracle
  prints no chain, so a fault in the chain maps that the battery lets
  through moves nothing.

A Gap is a fault that no run-time check catches.  ROADMAP item 19 lists
each with the item that owns the missing check; a gap is closed by a
check, never by weakening the fault.  The table also decides deletions:
a check whose removal leaves every outcome unchanged catches nothing
here.
"""

import functools
import importlib
import inspect
import io
import json
import subprocess
import sys
import textwrap
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import pytest

from coxinv.algebraic import CycloField
from coxinv.cli import EXIT_MISMATCH as MISMATCH, main

PENTAGON = {
    "generators": ["a", "b", "c", "d", "e"],
    "matrix": [
        [1, 2, "inf", "inf", 2],
        [2, 1, 2, "inf", "inf"],
        ["inf", 2, 1, 2, "inf"],
        ["inf", "inf", 2, 1, 2],
        [2, "inf", "inf", 2, 1],
    ],
}

SYSTEMS = {
    "pentagon": dict(PENTAGON, thickness=2),
    "pentagon_w22223": dict(PENTAGON,
                            weights=dict(zip("abcde", (2, 2, 2, 2, 3)))),
    # one conjugacy class, the matrix backend in Q(2cos(pi/42))
    "t732": {"generators": ["a", "b", "c"],
             "matrix": [[1, 7, 3], [7, 1, 2], [3, 2, 1]], "thickness": 2},
    # no thickness: with one, the report exits 4 on the empty confdim
    # bracket of ROADMAP item 2 whatever the fault
    "s534": {"generators": ["a", "b", "c", "d"],
             "matrix": [[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 4],
                        [2, 2, 4, 1]]},
    "tree_q3": {"generators": ["a", "b"], "matrix": [[1, "inf"], ["inf", 1]],
                "thickness": 3},
}

# request -> (system, argv before --input)
REQUESTS = {
    "pentagon": ("pentagon", ["report"]),
    "t732": ("t732", ["report"]),
    "s534": ("s534", ["report"]),
    "pentagon_w22223": ("pentagon_w22223", ["report"]),
    "oracle_pentagon": ("pentagon", ["verify-oracle", "--radius", "4",
                                     "--chains", "10"]),
    "oracle_tree": ("tree_q3", ["verify-oracle", "--radius", "8",
                                "--chains", "10"]),
}


class Caught(NamedTuple):
    code: int
    fragment: str


class Gap(tuple):
    """The output fields that move, as dotted paths."""

    def __new__(cls, *fields):
        return super().__new__(cls, fields)


class Fault(NamedTuple):
    target: str         # "module:qualified.name"
    old: str            # a fragment found exactly once in its source
    new: str
    outcomes: dict      # request -> Caught | Gap


SERIES = "series expansion disagrees with the bfs counts at length"

FAULTS = {
    # ROADMAP item 3's wrong root, on a system the curve scan gets right:
    # the scan stops at its first cell, so the rate lies below the
    # series' true singularity 1.2607
    "wrong_root": Fault(
        "coxinv.growth:_series_rate_curve",
        "if s2 == 0 or s2 != s_prev:", "if s2 == 0 or s2 == s_prev:",
        {"pentagon_w22223": Gap("growth.convergence_at_one",
                                "growth.rate.bracket", "growth.rate.value")}),
    # ROADMAP item 17: the degree-15 H3 polynomial loses its top term, and
    # validation through length 10 cannot see it
    "h3_top_term_dropped": Fault(
        "coxinv.growth:_parabolic_poly",
        "return PolyQ(nclasses, out)",
        "return PolyQ(nclasses, {e: c for e, c in out.items() "
        "if sum(e) < max(11, max(map(sum, out)))})",
        {"s534": Gap("growth.rate.bracket", "growth.rate.uncertainty",
                     "growth.rate.value", "growth.series.denominator",
                     "growth.series.numerator")}),
    # a fresh syllable left at the end of the word; the tree has no
    # commuting letters, so only the pentagon can show it
    "append_syllable_placement": Fault(
        "coxinv.building:append_syllable",
        "return word[:p] + ((s, e),) + word[p:], 1",
        "return word + ((s, e),), 1",
        {"oracle_pentagon": Caught(MISMATCH,
                                   "panel escapes the enumerated ball")}),
    "dropped_spherical_subset": Fault(
        "coxinv.system:System.sphericals",
        "if cls.is_finite()]", "if cls.is_finite()][:-1]",
        {"pentagon": Caught(MISMATCH, f"{SERIES} 2"),
         "t732": Caught(MISMATCH, f"{SERIES} 2"),
         "s534": Caught(MISMATCH, f"{SERIES} 9"),
         "oracle_pentagon": Gap("jensen.equal", "jensen.strict")}),
    "flipped_reciprocity_sign": Fault(
        "coxinv.growth:_reciprocity",
        "+= -1 if len(T) % 2 else 1", "+= 1 if len(T) % 2 else -1",
        {"pentagon": Caught(MISMATCH, f"{SERIES} 0"),
         "t732": Caught(MISMATCH, f"{SERIES} 0"),
         "s534": Caught(MISMATCH, f"{SERIES} 0")}),
    # every class of a component put in the class of its first vertex:
    # only the B3 on b, c, d of [5,3,4] spans two classes
    "wrong_ambient_class": Fault(
        "coxinv.growth:_parabolic_poly",
        "amb = [class_of[idx[cls[0]]] for", "amb = [class_of[idx[0]] for",
        {"s534": Caught(MISMATCH, f"{SERIES} 4")}),
    # the two off-by-one ranges of exponents: the panel axioms catch both
    "fibre_exponent_from_0": Fault(
        "coxinv.building:fibre",
        "range(1, per[s] + 1)", "range(0, per[s] + 1)",
        {"oracle_pentagon": Caught(MISMATCH, "panel gate is not unique"),
         "oracle_tree": Caught(MISMATCH, "panel gate is not unique")}),
    "fibre_exponent_to_q_minus_1": Fault(
        "coxinv.building:fibre",
        "range(1, per[s] + 1)", "range(1, per[s])",
        {"oracle_pentagon": Caught(MISMATCH,
                                   "panel escapes the enumerated ball"),
         "oracle_tree": Caught(MISMATCH,
                               "panel escapes the enumerated ball")}),
    # the gate keeps the rightmost syllable it should drop
    "wrong_gate": Fault(
        "coxinv.building:gate_word",
        "gate_drops(word, T, commute), commute",
        "gate_drops(word, T, commute)[1:], commute",
        {"oracle_pentagon": Caught(MISMATCH, "panel gate is not unique"),
         "oracle_tree": Caught(MISMATCH, "panel gate is not unique")}),
    # the panel size q + 1 taken for the weight q: 1/W(3) = 1/16 on the
    # pentagon, a false alarm against the right p_cohom
    "l2_euler_weight_q_plus_1": Fault(
        "coxinv.conformal:_check_l2_euler",
        "c * thickness.weight_of(e)",
        "c * type(thickness)(thickness.M, "
        "[q + 1 for q in thickness.values]).weight_of(e)",
        {"pentagon": Caught(MISMATCH, "1/W(q) = 1/16 contradicts")}),
    # boundary^2 sees only chains of dimension >= 2, and the battery
    # draws none on either ball (ROADMAP item 18)
    "boundary_sign": Fault(
        "coxinv.building:boundary",
        "signed = (c, -c)", "signed = (c, c)",
        {"oracle_pentagon": Gap(), "oracle_tree": Gap()}),
    "boundary_face_not_regated": Fault(
        "coxinv.building:boundary",
        "g = gate_word(gate, sub[0], commute, qmod) if i == 0 else gate",
        "g = gate",
        {"oracle_pentagon": Gap(), "oracle_tree": Gap()}),
    "constant_ridge_sign": Fault(
        "coxinv.homology:_ridge_sign",
        "return -1 if i % 2 else 1", "return 1",
        {"pentagon": Caught(MISMATCH, "orientable=False, but the top "
                                      "Betti number b_1 is 1"),
         "t732": Caught(MISMATCH, "orientable=False, but the top Betti "
                                  "number b_1 is 1"),
         "s534": Caught(MISMATCH, "orientable=False, but the top Betti "
                                  "number b_2 is 1")}),
    # the propagation never pushes a face it signs: on the pentagon's
    # five-cycle only three faces get a sign
    "orientation_stops_after_one_face": Fault(
        "coxinv.homology:_propagate_orientation",
        "stack.append(g)", "pass",
        {"pentagon": Caught(MISMATCH,
                            "fundamental cycle has nonzero boundary")}),
    "minpoly_coefficient": Fault(
        "coxinv.algebraic:minimal_poly_2cos_pi_over",
        "psi[0] = phi[d]", "psi[0] = phi[d] + 1",
        {"t732": Caught(MISMATCH, "minimal polynomial failed validation "
                                  "at N=42"),
         "s534": Caught(MISMATCH, "minimal polynomial failed validation "
                                  "at N=60")}),
    "parabolic_radius_rank": Fault(
        "coxinv.growth:_parabolic_poly",
        "ball_enumerate(sub, 4 * order, caps=caps)",
        "ball_enumerate(sub, len(idx), caps=caps)",
        {"pentagon": Caught(MISMATCH, "parabolic on [0] of order 2 did "
                                      "not exhaust it"),
         "t732": Caught(MISMATCH, "parabolic on [0] of order 2 did not "
                                  "exhaust it")}),
    "sign_never_refines": Fault(
        "coxinv.algebraic:SIGN_DOUBLINGS", "12", "0",
        {"t732": Caught(MISMATCH, "sign refinement failed to converge"),
         "s534": Caught(MISMATCH, "sign refinement failed to converge")}),
}


def patches(fault):
    """(owner, attribute, faulty value) for every binding of the target:
    a stage function imported by name elsewhere (system.py, cli.py) is
    bound there too."""
    modname, qualname = fault.target.split(":")
    module = importlib.import_module(modname)
    *path, name = qualname.split(".")
    owner = functools.reduce(getattr, path, module)
    orig = inspect.getattr_static(owner, name)
    if isinstance(orig, int):
        if repr(orig) != fault.old:
            raise ValueError(f"{qualname} is {orig!r}, not {fault.old}")
        return [(owner, name, int(fault.new))]
    func = orig.func if isinstance(orig, functools.cached_property) else orig
    src = textwrap.dedent(inspect.getsource(func))
    if src.count(fault.old) != 1:
        raise ValueError(f"{fault.old!r} is not one fragment of {qualname}")
    scope = {}
    exec(compile(src.replace(fault.old, fault.new),
                 inspect.getsourcefile(func), "exec"), vars(module), scope)
    value = scope[name]
    if isinstance(value, functools.cached_property):
        value.__set_name__(owner, name)
    if owner is not module:
        return [(owner, name, value)]
    return [(m, name, value) for m in list(sys.modules.values())
            if getattr(m, "__name__", "").startswith("coxinv")
            and vars(m).get(name) is orig]


def run(inputs, req):
    """(exit code, result dict or None, stderr) of one in-process run."""
    system, argv = REQUESTS[req]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv + ["--input", inputs[system], "--format", "machine"])
    result = json.loads(out.getvalue())["result"] if code == 0 else None
    return code, result, err.getvalue()


def leaves(x, prefix=""):
    if not isinstance(x, dict):
        return {prefix: x}
    out = {}
    for k, v in x.items():
        out.update(leaves(v, f"{prefix}.{k}" if prefix else k))
    return out


def moved(before, after):
    a, b = leaves(before), leaves(after)
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


@pytest.fixture(scope="module", autouse=True)
def plain_environment():
    # no enumeration cache and default caps: a cached count would hide a
    # fault in the counting code
    with pytest.MonkeyPatch.context() as mp:
        for var in ("CACHE_DIR", "COXINV_MAX_ELEMENTS",
                    "COXINV_MAX_SIMPLICES"):
            mp.delenv(var, raising=False)
        yield


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("mutation_inputs")
    paths = {}
    for name, payload in SYSTEMS.items():
        paths[name] = str(d / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(payload))
    return paths


@pytest.fixture(scope="module")
def clean(inputs):
    """The result of each request without a fault, made on first use."""
    @functools.cache
    def result(req):
        code, out, err = run(inputs, req)
        assert code == 0, err
        return out
    return result


ROWS = [(f, req) for f, fault in FAULTS.items() for req in fault.outcomes]


@pytest.mark.parametrize("fault, req", ROWS,
                         ids=[f"{f}-{req}" for f, req in ROWS])
def test_fault_outcome(fault, req, inputs, clean, monkeypatch):
    expected = FAULTS[fault].outcomes[req]
    before = clean(req) if isinstance(expected, Gap) else None
    # a field built by an earlier run would hide a fault in the field code
    monkeypatch.setattr(CycloField, "_cache", {})
    for owner, name, value in patches(FAULTS[fault]):
        monkeypatch.setattr(owner, name, value)
    code, after, err = run(inputs, req)
    if isinstance(expected, Caught):
        assert code == expected.code, err
        assert expected.fragment in err
    else:
        assert code == 0, err
        assert moved(before, after) == sorted(expected)


def test_cycle_check_survives_python_O(inputs):
    # python -O strips assert statements; the fundamental-cycle check
    # raises instead, so a fault reaching it still exits 4
    root = Path(__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "from tests.test_mutations import FAULTS, patches\n"
        "for owner, name, value in patches(\n"
        "        FAULTS['orientation_stops_after_one_face']):\n"
        "    setattr(owner, name, value)\n"
        "from coxinv.cli import main\n"
        f"sys.exit(main(['report', '--input', {inputs['pentagon']!r}, "
        "'--format', 'machine']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, cwd=root,
                          timeout=120)
    assert proc.returncode == MISMATCH, proc.stderr
    assert "fundamental cycle has nonzero boundary" in proc.stderr
