"""Exact invariants of Coxeter systems and regular right-angled buildings.

The public surface is intentionally small; the submodules hold the full
APIs (coxeter, growth, homology, davis, building, conformal, report).
Stage functions take a System, which wraps a CoxeterMatrix with its
resource caps, computes each shared invariant once and is the one owner
of the caps, the classified parabolics and each thickness's exponents.
"""

__version__ = "0.1.0"

from .building import ThicknessVector, critical_exponents, oracle_battery
from .conformal import confdim_bounds, moussong_hyperbolic
from .coxeter import CoxeterMatrix, classify_parabolic
from .davis import vcd_real
from .growth import WeightVector, growth_rate, rational_growth_series
from .report import build_report
from .system import System

__all__ = [
    "CoxeterMatrix", "System", "ThicknessVector", "WeightVector",
    "classify_parabolic", "growth_rate", "rational_growth_series",
    "vcd_real", "critical_exponents", "oracle_battery",
    "moussong_hyperbolic", "confdim_bounds", "build_report",
    "__version__",
]
