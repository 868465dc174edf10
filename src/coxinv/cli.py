"""Command-line interface.

Subcommands cover the pipeline stages individually (classify, nerve,
growth, exponents, confdim, verify-oracle) plus an all-in-one report.
Input is a JSON file describing the system; machine output is canonical
JSON (sorted keys, "Infinity" tokens) and is bit-identical across runs.

Exit codes: 0 success, 2 invalid input or failed precondition,
3 resource cap exceeded, 4 a verified identity failed to hold.
"""

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .building import ThicknessVector, oracle_battery
from .conformal import (checked_apartment_confdim, checked_lambda,
                        confdim_bounds, fuchsian_report)
from .coxeter import CoxeterMatrix
from .elements import Caps, checked_int
from .errors import (CoxinvError, ResourceExceeded, SchemaError,
                     ValidationMismatch)
from .growth import (WeightVector, classify_convergence, enumeration_rate,
                     routes_consistent)
from .report import (build_report, report_to_json, report_to_text,
                     _components_json, _confdim_json, _exponents_json, _fmt,
                     _rate_json, _series_json, _type_pm_json)
from .system import System

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_MISMATCH = 4


# ---------------------------------------------------------------------------
# input loading

def _parse_entry(v):
    if isinstance(v, str):
        if v.lower() in ("inf", "infinity"):
            return math.inf
        raise SchemaError(f"bad matrix entry {v!r}")
    return v


def load_system(path):
    """(matrix, thickness or None, weights or None) from an input file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise SchemaError("input must be a JSON object")
    try:
        gens = data["generators"]
        rows = data["matrix"]
    except KeyError as exc:
        raise SchemaError(f"input missing key {exc}")
    if not isinstance(rows, list):
        raise SchemaError("matrix must be a list of rows")
    M = CoxeterMatrix(gens, [[_parse_entry(v) for v in row] for row in rows])
    return (M, _load_vector(M, data, "thickness", ThicknessVector),
            _load_vector(M, data, "weights", WeightVector))


def _load_vector(M, data, key, vector_type):
    """The entry under key, a single value or a per-generator map, as a
    vector_type; None when the entry is absent."""
    if key not in data:
        return None
    v = data[key]
    if not isinstance(v, dict):
        return vector_type.constant(M, v)
    missing = [g for g in M.generators if g not in v]
    if missing:
        raise SchemaError(f"{key} missing generators {missing}")
    unknown = sorted(set(v) - set(M.generators))
    if unknown:
        raise SchemaError(f"{key} names unknown generators {unknown}")
    return vector_type.from_generator_map(M, v)


def _parse_p_grid(text):
    try:
        grid = [Fraction(tok) for tok in text.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad p grid {text!r}: {exc}")
    if not grid or any(p < 1 for p in grid):
        raise argparse.ArgumentTypeError(
            "p grid must be non-empty, with every p >= 1")
    if any(p > sys.float_info.max for p in grid):
        raise argparse.ArgumentTypeError(
            f"bad p grid {text!r}: every p must be a finite float")
    return grid


def _option_type(check):
    """An argparse type from a library check that raises SchemaError, so
    a bad value exits 2 before any work."""
    def parse(text):
        try:
            return check(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
        except SchemaError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return parse


def _int_option(least, name):
    return _option_type(lambda text: checked_int(text, least, name))


def _require_thickness(thickness):
    if thickness is None:
        raise SchemaError('this command needs a "thickness" entry '
                          "in the input file")
    return thickness


# ---------------------------------------------------------------------------
# subcommands, each taking the invocation's System and returning a
# JSON-ready dict

def cmd_classify(system, thickness, weights, args):
    M = system.M
    cls = system.classification
    return {
        "digest": M.digest(),
        "rank": M.rank,
        "right_angled": M.is_right_angled(),
        "kind": cls.kind,
        "components": _components_json(cls),
        "order": cls.order() if cls.is_finite() else None,
        "hyperbolic": system.hyperbolicity.hyperbolic,
    }


def cmd_nerve(system, thickness, weights, args):
    N = system.nerve
    return {
        "dim": N.dim,
        "face_counts": [len(N.k_faces(k)) for k in range(N.dim + 1)],
        "euler": N.euler_characteristic(),
        "type_pm": _type_pm_json(system.type_pm),
        "vcd": system.vcd.value,
    }


def cmd_growth(system, thickness, weights, args):
    weights = thickness if weights is None else weights
    out = {"series": _series_json(system.series)}
    w_arg = None if weights is None or weights.all_one() else weights
    rate = system.rate(w_arg)
    out["rate"] = _rate_json(rate)
    out["weighted"] = w_arg is not None
    if w_arg is not None:
        out["convergence_at_one"] = classify_convergence(
            system, weights, 1.0)
    if args.radius is not None:
        fit = enumeration_rate(system, w_arg, args.radius)
        out["enumeration_rate"] = _rate_json(fit)
        out["routes_consistent"] = routes_consistent(rate, fit)
    return out


def cmd_exponents(system, thickness, weights, args):
    thickness = _require_thickness(thickness)
    pm = system.type_pm
    ce = system.exponents(thickness)
    return {
        "thickness": thickness.per_generator(),
        "thin": ce.thin,
        **_exponents_json(ce),
        "nerve_is_pm": pm.is_pm,
    }


def cmd_confdim(system, thickness, weights, args):
    thickness = _require_thickness(thickness)
    b = confdim_bounds(system, thickness, lam=args.lam,
                       apartment_confdim=args.apartment_confdim)
    out = _confdim_json(b)
    if b.fuchsian:
        table = fuchsian_report(system, thickness, p_grid=args.p_grid)
        out["vanishing"] = [{"p": p, "degree_1": d1, "degree_2": d2}
                            for p, d1, d2 in table]
    return out


def cmd_verify_oracle(system, thickness, weights, args):
    return oracle_battery(system, _require_thickness(thickness), args.radius,
                          p_values=args.p_grid, chains=args.chains,
                          seed=args.seed)


def cmd_report(system, thickness, weights, args):
    return build_report(system, args.depth, thickness=thickness,
                        weights=weights, lam=args.lam,
                        apartment_confdim=args.apartment_confdim,
                        timings=args.timings)


# ---------------------------------------------------------------------------
# text renderings for the focused subcommands

def _text_lines(result, indent=""):
    lines = []
    for k in sorted(result):
        v = result[k]
        if isinstance(v, dict):
            lines.append(f"{indent}{k}:")
            lines.extend(_text_lines(v, indent + "  "))
        elif isinstance(v, list) and v and isinstance(v[0], dict):
            lines.append(f"{indent}{k}:")
            for item in v:
                lines.extend(_text_lines(item, indent + "  "))
                lines.append(f"{indent}  -")
            lines.pop()
        else:
            lines.append(f"{indent}{k}: {_fmt(v)}")
    return lines


def render(command, result, fmt):
    if fmt == "machine":
        return report_to_json({"command": command, "result": result})
    if command == "report":
        return report_to_text(result).rstrip("\n")
    return "\n".join(_text_lines(result))


# ---------------------------------------------------------------------------

COMMANDS = {
    "classify": cmd_classify,
    "nerve": cmd_nerve,
    "growth": cmd_growth,
    "exponents": cmd_exponents,
    "confdim": cmd_confdim,
    "verify-oracle": cmd_verify_oracle,
    "report": cmd_report,
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="coxinv",
        description="Exact invariants of Coxeter systems and their "
                    "right-angled buildings.")
    sub = ap.add_subparsers(dest="command", required=True)
    parsers = {name: sub.add_parser(name) for name in COMMANDS}
    for p in parsers.values():
        p.add_argument("--input", required=True, help="system JSON file")
        p.add_argument("--format", choices=("text", "machine"), default="text")
        # main builds the caps and the System alike for every subcommand
        p.set_defaults(max_elements=None, cache_dir=None)

    def add(names, *flags, **kwargs):
        for name in names.split():
            parsers[name].add_argument(*flags, **kwargs)
    add("growth exponents confdim verify-oracle report", "--max-elements",
        type=_int_option(1, "max-elements"), help="cap on enumerated elements")
    add("growth exponents confdim report", "--cache-dir",
        default=os.environ.get("CACHE_DIR"),
        help="enumeration cache directory (default: $CACHE_DIR)")
    add("confdim report", "--lambda", dest="lam",
        type=_option_type(checked_lambda),
        help='visual parameter > 1, or "bourdon"')
    add("confdim report", "--apartment-confdim",
        type=_option_type(checked_apartment_confdim),
        help="conformal dimension of the apartment boundary, if known")
    for name, use in (("confdim", "vanishing table"),
                      ("verify-oracle", "Jensen check")):
        add(name, "--p-grid", type=_parse_p_grid,
            default=[Fraction(3, 2), Fraction(2), Fraction(3)],
            help=f"comma-separated exponents of the {use}, e.g. 3/2,2,3")
    add("growth", "--radius", type=_int_option(0, "radius"),
        help="also fit the enumeration route to this radius")
    add("verify-oracle", "--radius", type=_int_option(0, "radius"),
        default=4, help="radius of the building ball (default 4)")
    add("verify-oracle", "--chains", type=int, default=100, help="chain count")
    add("verify-oracle", "--seed", type=int, default=0, help="chain seed")
    add("report", "--depth", type=_int_option(0, "depth"), default=8,
        help="length of the layer sizes")
    add("report", "--timings", action="store_true",
        help="include wall-clock timings (breaks bit-determinism)")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        caps = Caps.from_env(max_elements=args.max_elements)
        M, thickness, weights = load_system(args.input)
        system = System(M, caps=caps, cache_dir=args.cache_dir)
        result = COMMANDS[args.command](system, thickness, weights, args)
    except ValidationMismatch as exc:
        print(f"error: identity violated: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except ResourceExceeded as exc:
        print(f"error: resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except CoxinvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(render(args.command, result, args.format))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
