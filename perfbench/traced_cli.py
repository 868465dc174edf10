"""Run `coxinv.cli.main` with span wrappers around each module's functions.

Usage: python traced_cli.py TRACE_OUT <coxinv cli arguments...>

The wrappers are installed from outside, before `main` runs: every module
attribute bound to a listed function object is replaced, so the
`from .x import f` copies that report, cli and growth keep are traced
too, and `CycloField.sign` is replaced on the class.  Each wrapper counts
calls and self time (its span minus the spans of wrapped callees) and
derives work counts from return values.  Standard output is left alone so
the payload can be compared byte for byte with an untraced run; the
totals go to TRACE_OUT as JSON.
"""

import functools
import importlib
import json
import sys
import time

TRACED = {
    "coxeter": ("classify_parabolic", "spherical_subsets",
                "finite_group_order"),
    "algebraic": ("CycloField.sign",),
    "elements": ("ball_enumerate", "racg_layer_counts"),
    "growth": ("layer_class_counts", "rational_growth_series",
               "growth_rate", "smallest_positive_root",
               "classify_convergence"),
    "homology": ("betti_numbers",),
    "davis": ("nerve_complex", "vcd_real", "bestvina_support", "is_type_PM"),
    "building": ("building_ball", "make_simplex", "boundary", "pushforward",
                 "pullback", "jensen_check", "random_chain",
                 "critical_exponents"),
    "conformal": ("moussong_hyperbolic", "is_nerve_circle",
                  "confdim_bounds"),
    "cache": ("load_layers", "store_layers"),
    "report": ("build_report", "report_to_json"),
    "cli": ("load_system", "main"),
}

# one count per function, derived from each normal return; a make_simplex
# that raises MarginViolation is a rejected attempt
DERIVED = {
    "growth.rational_growth_series":
        ("terms", lambda out: len(out.numerator.terms)
         + len(out.denominator.terms)),
    "elements.ball_enumerate":
        ("elements", lambda out: sum(len(layer) for layer in out.layers)),
    "building.building_ball": ("chambers", lambda out: len(out.chambers)),
    "building.make_simplex": ("accepted", lambda out: 1),
    "cache.load_layers": ("hits", lambda out: int(out is not None)),
}


def traced_names():
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.stats = {}
        self._children = []      # child time per open span

    def wrap(self, name, fn):
        stat = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        key, derive = DERIVED.get(name, (None, None))
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat["calls"] += 1
            children.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                stat["self_s"] += span - children.pop()
                if children:
                    children[-1] += span
            if derive is not None:
                stat[key] = stat.get(key, 0) + derive(out)
            return out
        return wrapper

    def install(self):
        import coxinv.cli  # noqa: F401  (imports every traced module)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "coxinv" or n.startswith("coxinv.")]
        for name in traced_names():
            modname, _, attr = name.partition(".")
            owner = importlib.import_module(f"coxinv.{modname}")
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            orig = owner.__dict__.get(attr)
            if orig is None:
                print(f"trace: {name} not found, reported as never called",
                      file=sys.stderr)
                self.stats[name] = {"calls": 0, "self_s": 0.0}
                continue
            wrapped = self.wrap(name, orig)
            setattr(owner, attr, wrapped)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import coxinv.cli
    try:
        return coxinv.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(tracer.stats, fh, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
