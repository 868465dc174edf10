"""Sweep building thickness on one system and tabulate the invariants
that depend on it: weighted rate e_q, critical exponents, conformal
dimension.

The system is the right-angled pentagon, whose nerve is a circle, so the
conformal dimension column is exact (1 + 1/e_q) and should climb
logarithmically with q while p_cohom = confdim throughout.  One System
serves the whole sweep, so the growth series are built once and each
thickness costs one rate.

Usage: python3 scripts/thickness_sweep.py [--qmax 6]
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coxinv.building import ThicknessVector
from coxinv.conformal import confdim_bounds
from coxinv.coxeter import CoxeterMatrix
from coxinv.system import System

INF = math.inf

PENTAGON = CoxeterMatrix(
    list("abcde"),
    [[1, 2, INF, INF, 2],
     [2, 1, 2, INF, INF],
     [INF, 2, 1, 2, INF],
     [INF, INF, 2, 1, 2],
     [2, INF, INF, 2, 1]])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--qmax", type=int, default=6)
    args = ap.parse_args()

    system = System(PENTAGON)
    M = system.M
    e_w = system.rate()
    print(f"system: right-angled pentagon, e(W) = {e_w.value:.9f} "
          f"(log((3+sqrt(5))/2) = {math.log((3+math.sqrt(5))/2):.9f})")
    print()
    print(f"{'q':>3} {'e_q':>12} {'p_hom':>12} {'p_cohom':>12} "
          f"{'confdim':>12} {'provenance':>14}")
    for q in range(2, args.qmax + 1):
        thickness = ThicknessVector.constant(M, q)
        ce = system.exponents(thickness)
        b = confdim_bounds(system, thickness)
        print(f"{q:>3} {ce.e_q.value:>12.6f} {ce.p_hom:>12.6f} "
              f"{ce.p_cohom:>12.6f} {b.lower:>12.6f} "
              f"{b.lower_provenance:>14}")
    print()
    print("check: confdim = p_cohom = 1 + log(q)/e(W) on every row")


if __name__ == "__main__":
    main()
