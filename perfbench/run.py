"""End-to-end benchmark of the coxinv command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client on a single process: each request is a fresh
`python -m coxinv.cli <cmd> --format machine` interpreter with PYTHONPATH
set to the repository's `src`, started only after the previous one has
ended.  A fresh interpreter per request is how the CLI is used, and it
keeps an in-process memo from carrying work from one request into the
next.  A run repeats the workload's request list (one "pass") until at
least S seconds have gone by.  Every output is checked against values
computed in `refvalues.py`, which shares no code with coxinv, and the
bytes of repeated requests must match.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 every pass runs twice, untraced and
then under `traced_cli.py`, and the JSON carries the per-layer metrics.
See README.md in this directory for why each workload exists and which
metric each layer should move.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import refvalues as ref
from traced_cli import DERIVED, traced_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

DEADLINE_S = 170          # a run must exit within 180 s
SETUP_PROBES = 5
# a stray cache directory would silently warm every report, and caps
# would change what is computed
STRIPPED_ENV = ("CACHE_DIR", "COXINV_MAX_ELEMENTS", "COXINV_MAX_SIMPLICES")

INF = "inf"
PENTAGON = {"generators": list("abcde"),
            "matrix": [[1, 2, INF, INF, 2], [2, 1, 2, INF, INF],
                       [INF, 2, 1, 2, INF], [INF, INF, 2, 1, 2],
                       [2, INF, INF, 2, 1]]}
DIHEDRAL_INF = {"generators": ["a", "b"], "matrix": [[1, INF], [INF, 1]]}
TRIANGLE_732 = {"generators": list("abc"),
                "matrix": [[1, 7, 3], [7, 1, 2], [3, 2, 1]]}
TRIANGLE_433 = {"generators": list("abc"),
                "matrix": [[1, 4, 3], [4, 1, 3], [3, 3, 1]]}
LINEAR_534 = {"generators": list("abcd"),
              "matrix": [[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 4],
                         [2, 2, 4, 1]]}
ORACLE_CHAINS = 100       # the CLI defaults, passed explicitly
ORACLE_SEED = 0
ORACLE_P_VALUES = 3       # the CLI default p grid 3/2, 2, 3


@dataclass
class Request:
    label: str            # equal labels mean equal inputs and equal bytes
    command: str
    system: dict
    args: tuple
    check: object         # parsed result -> list of error strings
    cached: bool = False  # gets the pass's --cache-dir


def report_ra(rng):
    qs = list(range(2, 7))
    rng.shuffle(qs)
    return [Request(f"pentagon q={q}", "report",
                    dict(PENTAGON, thickness=q), (),
                    partial(ref.check_thickness_report, e_w=ref.e_pentagon,
                            q=q))
            for q in qs]


def report_weighted(rng):
    # a seeded rotation of (2,2,2,2,3): every image is a symmetry of the
    # pentagon, so the inputs vary while the rate, and the cost, do not
    weights = [2] * 5
    weights[rng.randrange(5)] = 3
    wmap = dict(zip(PENTAGON["generators"], weights))
    return [Request("pentagon weights=" + "".join(map(str, weights)),
                    "report", dict(PENTAGON, weights=wmap), (),
                    partial(ref.check_weighted_report, weights=weights))]


def report_cyclo(rng):
    reqs = [Request(f"{name} q={q}", "report", dict(system, thickness=q),
                    (), partial(ref.check_thickness_report, e_w=e_w, q=q),
                    cached=True)
            for name, system, e_w in (
                ("(7,3,2)", TRIANGLE_732, ref.e_triangle_732),
                ("(4,3,3)", TRIANGLE_433, ref.e_triangle_433))
            for q in (2, 3)]
    reqs += [Request("[5,3,4]", "report", LINEAR_534, (),
                     partial(ref.check_unweighted_report,
                             e_w=ref.e_linear_534),
                     cached=True)] * 2
    rng.shuffle(reqs)
    return reqs


def oracle(rng):
    # the battery seed is fixed, as in the acceptance battery: the cost of
    # 100 chains moves by about 5% from one chain seed to the next, more
    # than the noise this benchmark must resolve
    reqs = [Request(
        f"{name} q={q} r={radius}", "verify-oracle",
        dict(system, thickness=q),
        ("--radius", str(radius), "--chains", str(ORACLE_CHAINS),
         "--seed", str(ORACLE_SEED)),
        partial(ref.check_oracle, apartment_spheres=spheres(radius),
                q=q, radius=radius, chains=ORACLE_CHAINS,
                n_p=ORACLE_P_VALUES))
        for name, system, q, radius, spheres in (
            ("pentagon", PENTAGON, 2, 4, ref.pentagon_spheres),
            ("dihedral_inf", DIHEDRAL_INF, 3, 8, ref.tree_spheres))]
    rng.shuffle(reqs)
    return reqs


WORKLOADS = {"report_ra": report_ra, "report_weighted": report_weighted,
             "report_cyclo": report_cyclo, "oracle": oracle}


# ---------------------------------------------------------------------------
# child processes

class SetupError(Exception):
    pass


@dataclass
class Sample:
    label: str
    wall: float
    cpu: float
    digest: str
    error: str = ""
    stats: dict = None    # traced runs only


def child_env(workdir):
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(workdir)
    return env


def run_child(argv, env, workdir, timeout):
    """(returncode, wall, cpu, stdout, stderr); killed after timeout.
    Requests run one at a time, so the growth of RUSAGE_CHILDREN over the
    call is this child's CPU time."""
    if timeout <= 0:
        raise TimeoutError("run deadline reached")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, env=env,
                              cwd=workdir, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise TimeoutError("run deadline reached") from None
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime
           + after.ru_stime - before.ru_stime)
    return proc.returncode, wall, cpu, proc.stdout, proc.stderr


class Runner:
    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = child_env(workdir)
        self.t_start = time.perf_counter()
        self.requests = []
        self.inputs = []

    def remaining(self):
        return DEADLINE_S - (time.perf_counter() - self.t_start)

    def setup_once(self):
        """Generate the inputs and start one interpreter that imports the
        CLI; the seconds this takes are what a user pays before work."""
        t0 = time.perf_counter()
        self.requests = WORKLOADS[self.workload](random.Random(self.seed))
        self.inputs = []
        for i, req in enumerate(self.requests):
            path = self.workdir / f"input{i}.json"
            path.write_text(json.dumps(req.system))
            self.inputs.append(path)
        rc, _, _, _, err = run_child(
            [sys.executable, "-c", "import coxinv.cli"], self.env,
            self.workdir, self.remaining())
        if rc != 0:
            raise SetupError(f"cannot import coxinv.cli from {SRC}: "
                             f"{err.decode(errors='replace')[-500:]}")
        return time.perf_counter() - t0

    def run_request(self, i, cache_dir, trace_out=None):
        req = self.requests[i]
        cli_args = [req.command, "--input", str(self.inputs[i]),
                    "--format", "machine", *req.args]
        if req.cached:
            cli_args += ["--cache-dir", str(cache_dir)]
        if trace_out is None:
            argv = [sys.executable, "-m", "coxinv.cli", *cli_args]
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"),
                    str(trace_out), *cli_args]
        try:
            rc, wall, cpu, out, err = run_child(argv, self.env,
                                                self.workdir,
                                                self.remaining())
        except TimeoutError as exc:
            return Sample(req.label, 0.0, 0.0, "", str(exc))
        sample = Sample(req.label, wall, cpu,
                        hashlib.sha256(out).hexdigest())
        sample.error = self.check(req, rc, out, err)
        if trace_out is not None and trace_out.exists():
            if rc == 0:
                sample.stats = json.loads(trace_out.read_text())
            trace_out.unlink()
        return sample

    @staticmethod
    def check(req, rc, out, err):
        if rc != 0:
            return (f"exit {rc}: "
                    + err.decode(errors="replace").strip()[-300:])
        try:
            doc = json.loads(out)
            if doc["command"] != req.command:
                return f"command echoed as {doc['command']!r}"
            errors = req.check(doc["result"])
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}"
        return "; ".join(errors)

    def run_pass(self, traced):
        """One pass over the request list with a fresh, empty cache."""
        cache_dir = Path(tempfile.mkdtemp(dir=self.workdir, prefix="cache"))
        trace_out = self.workdir / "trace.json" if traced else None
        samples = [self.run_request(i, cache_dir, trace_out)
                   for i in range(len(self.requests))]
        cache_file = cache_dir / "layers.jsonl"
        cache_bytes = cache_file.stat().st_size if cache_file.exists() else 0
        shutil.rmtree(cache_dir)
        return samples, cache_bytes


# ---------------------------------------------------------------------------
# metrics

def tail(values):
    """Highest percentile with at least ten samples beyond it, else max."""
    xs = sorted(values)
    n = len(xs)
    if n > 10:
        return xs[n - 11], f"p{100 * (n - 10) / n:.1f}"
    return xs[-1], "max"


def end_to_end(passes, setup_times, peak_rss_mb):
    walls = [s.wall for p in passes for s in p]
    tail_s, tail_label = tail(walls)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(sum(s.wall for s in p)
                                     for p in passes), "s"),
        "cpu_s": (statistics.median(sum(s.cpu for s in p)
                                    for p in passes), "s"),
        "request_p50_s": (statistics.median(walls), "s"),
        "request_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    note = (f"request_tail_s is the {tail_label} of {len(walls)} requests; "
            f"request_p50_s is their median; wall_s and cpu_s are medians "
            f"over {len(passes)} pass(es)")
    return metrics, note


def per_layer(traced_passes, plain_passes, cache_bytes):
    n = len(traced_passes)
    totals = {}
    for p in traced_passes:
        for s in p:
            for fn, stat in (s.stats or {}).items():
                for key, v in stat.items():
                    name = f"{fn}.{key}"
                    totals[name] = totals.get(name, 0) + v
    metrics = {}
    for fn in traced_names():
        metrics[f"{fn}.calls"] = (totals.get(f"{fn}.calls", 0) / n, "count")
        metrics[f"{fn}.self_s"] = (totals.get(f"{fn}.self_s", 0.0) / n, "s")
    for fn, (key, _) in DERIVED.items():
        metrics[f"{fn}.{key}"] = (totals.get(f"{fn}.{key}", 0) / n, "count")

    def ratio(num, den):
        return num / den if den else 0.0
    metrics["building.make_simplex.accept_ratio"] = (ratio(
        totals.get("building.make_simplex.accepted", 0),
        totals.get("building.make_simplex.calls", 0)), "ratio")
    metrics["cache.hit_ratio"] = (ratio(
        totals.get("cache.load_layers.hits", 0),
        totals.get("cache.load_layers.calls", 0)), "ratio")
    metrics["cache.store_layers.bytes"] = (sum(cache_bytes) / n, "B")
    metrics["trace.overhead_ratio"] = (ratio(
        sum(s.wall for p in traced_passes for s in p),
        sum(s.wall for p in plain_passes for s in p)), "ratio")
    return metrics


def mark_byte_mismatches(plain_passes, traced_passes):
    """Fail requests whose bytes differ from an earlier request with the
    same input, or from the untraced run of the same request."""
    first = {}
    for p in plain_passes:
        for s in p:
            if s.error:
                continue
            if first.setdefault(s.label, s.digest) != s.digest:
                s.error = "output bytes differ from an identical request"
    for plain, traced in zip(plain_passes, traced_passes):
        for a, b in zip(plain, traced):
            if not a.error and not b.error and a.digest != b.digest:
                b.error = "traced output bytes differ from untraced"


def workload_digest(passes):
    """One digest over the distinct request outputs of a run; requests
    whose inputs do not depend on the seed give the same digest on every
    seed."""
    lines = sorted({f"{s.label}\t{s.digest}" for p in passes for s in p})
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# ---------------------------------------------------------------------------

def measure(runner, seconds, traced):
    plain, traced_passes, cache_bytes = [], [], []
    t0 = time.perf_counter()
    while True:
        samples, _ = runner.run_pass(traced=False)
        plain.append(samples)
        if traced:
            samples, nbytes = runner.run_pass(traced=True)
            traced_passes.append(samples)
            cache_bytes.append(nbytes)
        if time.perf_counter() - t0 >= seconds or runner.remaining() <= 0:
            return plain, traced_passes, cache_bytes


def print_samples(title, passes):
    print(title)
    for k, p in enumerate(passes):
        for s in p:
            line = (f"  pass {k} {s.label:34s} {s.wall:8.3f} s  "
                    f"cpu {s.cpu:8.3f} s  "
                    f"sha256 {s.digest[:12]}")
            if s.stats:
                line += "  calls " + " ".join(
                    f"{fn.split('.')[-1]}={s.stats[fn]['calls']}"
                    for fn in ("growth.rational_growth_series",
                               "growth.layer_class_counts",
                               "elements.ball_enumerate",
                               "algebraic.CycloField.sign",
                               "building.make_simplex"))
            print(line + (f"  FAILED: {s.error}" if s.error else ""))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "coxinv" / "cli.py").is_file():
        print(f"error: no coxinv sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-"))
    try:
        runner = Runner(args.workload, args.seed, workdir)
        try:
            setup_times = [runner.setup_once() for _ in range(SETUP_PROBES)]
        except (SetupError, TimeoutError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        plain, traced_passes, cache_bytes = measure(
            runner, args.seconds, bool(args.trace))
        # the largest child so far; the set-up probes only import the CLI
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mark_byte_mismatches(plain, traced_passes)
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(runner.requests)} requests per pass, {len(plain)} pass(es)")
    print_samples("untraced requests:", plain)
    everything = plain + traced_passes
    if args.trace:
        print_samples("traced requests:", traced_passes)
        metrics = per_layer(traced_passes, plain, cache_bytes)
    else:
        metrics, note = end_to_end(plain, setup_times, peak_rss_mb)
        print(note)
    attempted = sum(len(p) for p in everything)
    failed = sum(1 for p in everything for s in p if s.error)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    print(f"digest {args.workload} = {workload_digest(plain)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
