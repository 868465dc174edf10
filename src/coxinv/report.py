"""Deterministic invariant reports.

A report is a plain JSON-able dict assembled in a fixed order with exact
values rendered as strings and floats kept as floats.  Infinite values
are carried as the string token "Infinity" ("-Infinity") in the machine
format, so the rendering is plain JSON.  Restoring the infinities on load
is left to the reader: the test suite holds that decoder and checks that
reports survive a JSON round trip byte-for-byte.  Optional sections that
fail a precondition (confdim on a non-hyperbolic system, a rate with
degenerate weights) record the error inline rather than failing the whole
report.

Timings are collected only on request and live outside the deterministic
payload.
"""

import json
import math
import time
from fractions import Fraction

from .conformal import confdim_bounds
from .errors import (AffineDegenerate, CoxinvError, DegenerateWeights,
                     NotHyperbolic, SchemaError, ThinBuilding)
from .growth import PolyQ, WeightVector, classify_convergence

# 2: the printed series is the one-variable series in lowest terms, no
# longer the collapse of the per-class numerator and denominator
# 3: no "bestvina" section, whose (F0, S0) pair nothing read, and no
# vcd.spherical_value or witness "spherical" flag: the spherical maximum
# is 0 on every system, and a witness is spherical exactly when vcd is 0
# 4: "parameters" holds only the depth; the radius and p grid it echoed
# changed no number of the report
SCHEMA_VERSION = 4
INF_TOKEN = "Infinity"
NEG_INF_TOKEN = "-Infinity"


# ---------------------------------------------------------------------------
# JSON with explicit infinity tokens

def encode_json_value(x):
    if isinstance(x, float):
        if math.isinf(x):
            return INF_TOKEN if x > 0 else NEG_INF_TOKEN
        return x
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, dict):
        return {str(k): encode_json_value(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [encode_json_value(v) for v in x]
    return x


def report_to_json(report):
    """Canonical machine rendering: sorted keys, no whitespace, infinity
    tokens."""
    return json.dumps(encode_json_value(report), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


# ---------------------------------------------------------------------------
# pieces

def _poly_str(p, names):
    """Deterministic human-readable polynomial."""
    terms = sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    if not terms:
        return "0"
    out = []
    for e, c in terms:
        factors = []
        if abs(c) != 1 or not any(e):
            factors.append(str(abs(c)))
        for i, k in enumerate(e):
            if k == 1:
                factors.append(names[i])
            elif k > 1:
                factors.append(f"{names[i]}^{k}")
        term = "*".join(factors)
        if not out:
            out.append(term if c > 0 else f"-{term}")
        else:
            out.append(("+ " if c > 0 else "- ") + term)
    return " ".join(out)


def _matrix_json(M):
    return [[("inf" if v == math.inf else v) for v in row] for row in M.m]


def _series_json(series):
    """The series in one variable t, in lowest terms."""
    num, den = (PolyQ(1, {(k,): c for k, c in enumerate(p)})
                for p in series.univariate())
    return {
        "numerator": _poly_str(num, ["t"]),
        "denominator": _poly_str(den, ["t"]),
        "validated_depth": series.validated_depth,
    }


def _rate_json(rate):
    return {
        "value": rate.value,
        "bracket": [rate.bracket[0], rate.bracket[1]],
        "method": rate.method,
        "uncertainty": rate.uncertainty,
        "exact": rate.exact,
    }


def _components_json(cls):
    return [{"label": c.label, "kind": c.kind, "vertices": sorted(c.vertices)}
            for c in cls.components]


def _type_pm_json(pm):
    return {
        "is_pm": pm.is_pm,
        "purely_dimensional": pm.purely_dimensional,
        "pseudomanifold": pm.pseudomanifold,
        "gallery_connected": pm.gallery_connected,
        "orientable": pm.orientable,
    }


def _exponents_json(ce):
    return {
        "p_hom": ce.p_hom,
        "p_cohom": ce.p_cohom,
        "p_hom_bracket": list(ce.p_hom_bracket),
        "p_cohom_bracket": list(ce.p_cohom_bracket),
    }


def _confdim_json(b):
    return {
        "lower": b.lower,
        "upper": b.upper,
        "lower_provenance": b.lower_provenance,
        "upper_provenance": b.upper_provenance,
        "lambda": b.lam,
        "lambda_provenance": b.lambda_provenance,
        "hausdim": b.hausdim,
        "fuchsian": b.fuchsian,
    }


def _error_json(exc):
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def _witness_json(w):
    if w is None:
        return None
    kind = type(w).__name__
    if kind == "AffineRank3":
        return {"kind": kind, "subset": list(w.subset)}
    return {"kind": kind, "first": list(w.first), "second": list(w.second)}


# ---------------------------------------------------------------------------
# assembly

def build_report(system, depth, thickness=None, weights=None, lam=None,
                 apartment_confdim=None, timings=False):
    """Full invariant report for one System.

    depth: the last length of the printed layer sizes.
    thickness: ThicknessVector or None (no building sections).
    weights: WeightVector or None (the thickness, else all-one).
    timings: per-stage wall clock outside the deterministic payload; work
    the System shares between stages is charged to the first stage that
    asks for it.
    """
    M = system.M
    clock = {}

    def timed(name, fn):
        t0 = time.perf_counter()
        out = fn()
        clock[name] = time.perf_counter() - t0
        return out

    cls = system.classification
    report = {
        "schema_version": SCHEMA_VERSION,
        "system": {
            "generators": list(M.generators),
            "matrix": _matrix_json(M),
            "digest": M.digest(),
            "rank": M.rank,
            "right_angled": M.is_right_angled(),
        },
        "classification": {
            "kind": cls.kind,
            "components": _components_json(cls),
            "finite": cls.is_finite(),
            "order": cls.order() if cls.is_finite() else None,
        },
        "parameters": {"depth": depth},
    }

    # the counting route first: when the caps refuse it, the report exits
    # before the nerve and Davis sections are paid for
    layers, source = timed("layers", lambda: system.layer_counts(depth))

    # nerve and Davis-complex invariants
    nerve = timed("nerve", lambda: system.nerve)
    pm = timed("type_pm", lambda: system.type_pm)
    report["nerve"] = {
        "dim": nerve.dim,
        "face_counts": [len(nerve.k_faces(k)) for k in range(nerve.dim + 1)],
        "euler": nerve.euler_characteristic(),
        "is_circle": system.nerve_is_circle,
    }
    report["type_pm"] = {"dim": pm.dim, **_type_pm_json(pm)}
    v = timed("vcd", lambda: system.vcd)
    report["vcd"] = {
        "value": v.value,
        "witnesses": [{"subset": list(w.subset), "degree": w.degree}
                      for w in v.witnesses],
    }

    hyp = system.hyperbolicity
    report["hyperbolic"] = {"verdict": hyp.hyperbolic,
                            "witness": _witness_json(hyp.witness)}

    # weighted growth
    if weights is None:
        weights = thickness or WeightVector.constant(M, 1)
    growth = {
        # weights print as exact rationals, integer thickness included
        "weights": {g: encode_json_value(Fraction(v))
                    for g, v in zip(M.generators, weights.per_generator())},
        "weighted": not weights.all_one(),
        "layer_source": source,
        "layer_sizes": [sum(layer.values()) for layer in layers],
    }
    try:
        series = timed("series", lambda: system.series)
        # the report carries the one-variable form; the per-class
        # function stays a library-level object
        growth["series"] = {"variables": ["t"], **_series_json(series)}
        # trivial weights fall back to the plain rate e(W)
        w_arg = None if weights.all_one() else weights
        rate = timed("rate", lambda: system.rate(w_arg))
        growth["rate"] = _rate_json(rate)
        if w_arg is not None:
            growth["convergence_at_one"] = classify_convergence(
                system, weights, 1.0)
    except (DegenerateWeights, SchemaError) as exc:
        growth.update(_error_json(exc))
    report["growth"] = growth

    # building sections only with a thickness vector
    if thickness is not None:
        try:
            ce = timed("exponents", lambda: system.exponents(thickness))
            report["building"] = {
                "thickness": thickness.per_generator(),
                "thin": ce.thin,
                "exponents": _exponents_json(ce),
                "nerve_is_pm": pm.is_pm,
            }
        except CoxinvError as exc:
            report["building"] = _error_json(exc)
        try:
            b = timed("confdim",
                      lambda: confdim_bounds(system, thickness, lam=lam,
                                             apartment_confdim=apartment_confdim))
            report["confdim"] = _confdim_json(b)
        except (NotHyperbolic, ThinBuilding, AffineDegenerate) as exc:
            report["confdim"] = _error_json(exc)
    else:
        report["building"] = None
        report["confdim"] = None

    if timings:
        report["timings"] = {k: round(t, 6) for k, t in sorted(clock.items())}
    return report


# ---------------------------------------------------------------------------
# text rendering

def _fmt(v):
    if v is None:
        return "-"
    if isinstance(v, float):
        if math.isinf(v):
            return INF_TOKEN if v > 0 else NEG_INF_TOKEN
        return repr(v)
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_fmt(x) for x in v) + "]"
    return str(v)


def report_to_text(report):
    lines = []
    add = lines.append
    sysmeta = report["system"]
    add(f"system: rank {sysmeta['rank']}, generators "
        + " ".join(sysmeta["generators"]))
    add(f"  digest: {sysmeta['digest'][:16]}")
    add(f"  right-angled: {_fmt(sysmeta['right_angled'])}")
    cls = report["classification"]
    add(f"classification: {cls['kind']}"
        + (f", order {cls['order']}" if cls["order"] else ""))
    nerve = report["nerve"]
    add(f"nerve: dim {nerve['dim']}, faces {_fmt(nerve['face_counts'])}, "
        f"euler {nerve['euler']}, circle {_fmt(nerve['is_circle'])}")
    pm = report["type_pm"]
    add(f"type PM: {_fmt(pm['is_pm'])} (pseudomanifold "
        f"{_fmt(pm['pseudomanifold'])}, orientable {_fmt(pm['orientable'])})")
    v = report["vcd"]
    add(f"vcd_R: {v['value']}")
    for w in v["witnesses"][:4]:
        add(f"  witness: subset {_fmt(w['subset'])} degree {w['degree']}")
    hyp = report["hyperbolic"]
    if hyp["verdict"]:
        add("hyperbolic: yes")
    else:
        w = hyp["witness"]
        detail = _fmt(w.get("subset", [])) if w["kind"] == "AffineRank3" \
            else f"{_fmt(w['first'])} x {_fmt(w['second'])}"
        add(f"hyperbolic: no ({w['kind']} {detail})")
    g = report["growth"]
    add("growth:")
    add(f"  weights: " + ", ".join(f"{k}={v}" for k, v in sorted(g["weights"].items())))
    add(f"  layer sizes ({g['layer_source']}): {_fmt(g['layer_sizes'])}")
    if "series" in g:
        add(f"  series: ({g['series']['numerator']}) / ({g['series']['denominator']})")
        r = g["rate"]
        add(f"  rate: {_fmt(r['value'])} [{_fmt(r['bracket'][0])}, "
            f"{_fmt(r['bracket'][1])}] via {r['method']}"
            + (" (exact)" if r["exact"] else ""))
    elif "error" in g:
        add(f"  rate: unavailable ({g['error']['message']})")
    b = report.get("building")
    if b is not None:
        add("building:")
        if "error" in b:
            add(f"  unavailable ({b['error']['message']})")
        else:
            add(f"  thickness: {_fmt(b['thickness'])}"
                + (" (thin)" if b["thin"] else ""))
            e = b["exponents"]
            add(f"  critical exponents: p_hom {_fmt(e['p_hom'])}, "
                f"p_cohom {_fmt(e['p_cohom'])}")
    c = report.get("confdim")
    if c is not None:
        if "error" in c:
            add(f"confdim: unavailable ({c['error']['message']})")
        elif c["fuchsian"]:
            add(f"confdim: {_fmt(c['lower'])} (exact, {c['lower_provenance']})")
        else:
            add(f"confdim: [{_fmt(c['lower'])}, {_fmt(c['upper'])}] "
                f"({c['lower_provenance']} / {c['upper_provenance']})")
        if "error" not in c:
            add(f"  lambda {_fmt(c['lambda'])} ({c['lambda_provenance']}), "
                f"hausdim {_fmt(c['hausdim'])}")
    if "timings" in report:
        add("timings (s): " + ", ".join(
            f"{k}={v}" for k, v in sorted(report["timings"].items())))
    return "\n".join(lines) + "\n"
