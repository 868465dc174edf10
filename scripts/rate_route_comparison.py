"""Compare the two independent growth-rate routes on reference systems.

Route 1 isolates the smallest positive singularity of the exact rational
series; route 2 regresses enumerated counting data and never sees the
series.  Agreement, by the rule `coxinv growth --radius` prints as
routes_consistent (the series rate inside the fit bracket, and the
bracket above 0 exactly when the rate is), is the headline sanity check
of the whole counting stack; the affine row shows both routes recognizing
subexponential growth.

Usage: python3 scripts/rate_route_comparison.py [--radius 30]
"""

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coxinv.coxeter import CoxeterMatrix
from coxinv.growth import enumeration_rate, routes_consistent
from coxinv.system import System

INF = math.inf

SYSTEMS = [
    ("pentagon (RA 5-cycle)", CoxeterMatrix(
        list("abcde"),
        [[1, 2, INF, INF, 2], [2, 1, 2, INF, INF], [INF, 2, 1, 2, INF],
         [INF, INF, 2, 1, 2], [2, INF, INF, 2, 1]]),
     math.log((3 + math.sqrt(5)) / 2)),
    ("(7,3,2) triangle", CoxeterMatrix(
        list("abc"), [[1, 7, 2], [7, 1, 3], [2, 3, 1]]),
     math.log(1.17628081825991750654)),      # Lehmer's number
    ("free product rank 3", CoxeterMatrix(
        list("abc"), [[1, INF, INF], [INF, 1, INF], [INF, INF, 1]]),
     math.log(2)),
    ("affine (3,3,3)", CoxeterMatrix(
        list("abc"), [[1, 3, 3], [3, 1, 3], [3, 3, 1]]),
     0.0),
]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--radius", type=int, default=30,
                    help="enumeration depth for the regression route")
    args = ap.parse_args()

    print(f"{'system':<24} {'series':>12} {'fit':>12} {'closed form':>12} "
          f"{'fit err':>9} {'agree':>6}")
    for name, M, truth in SYSTEMS:
        t0 = time.perf_counter()
        system = System(M)
        s = system.rate()
        f = enumeration_rate(system, None, args.radius)
        dt = time.perf_counter() - t0
        agree = routes_consistent(s, f)
        print(f"{name:<24} {s.value:>12.8f} {f.value:>12.8f} "
              f"{truth:>12.8f} {abs(f.value - truth):>9.2e} "
              f"{'yes' if agree else 'NO':>6}  ({dt:.1f}s)")


if __name__ == "__main__":
    main()
