"""Gromov hyperbolicity and conformal dimension bounds for boundaries.

Hyperbolicity of a Coxeter system is decided exactly by the flat-subspace
criterion: the group is hyperbolic unless some subset spans an irreducible
affine subsystem of rank >= 3, or two commuting (all labels 2 across)
subsets both generate infinite parabolics.  Both obstructions are read
off the minimal non-spherical subsets the System has classified.
Witnesses are reported lexicographically least.

For a thick right-angled building with chamber growth exponent e_q and a
visual metric parameter lambda, the boundary Hausdorff dimension is
e_q / log(lambda); conformal dimension is bracketed between a floor from
the cohomological dimension (or a user-supplied apartment value) and the
Hausdorff bound, both scaled by (1 + 1/e_q).  When the nerve is a
triangulated circle the group is virtually a surface group and the bracket
collapses to the exact value 1 + 1/e_q.
"""

import math
from dataclasses import dataclass

from .errors import (AffineDegenerate, NotHyperbolic, ResourceExceeded,
                     SchemaError, ThinBuilding, ValidationMismatch)

MAX_SUBSET_SCAN_RANK = 14


@dataclass(frozen=True)
class AffineRank3:
    subset: tuple


@dataclass(frozen=True)
class CommutingInfinitePair:
    first: tuple
    second: tuple


@dataclass
class HyperbolicityReport:
    hyperbolic: bool
    witness: object         # None | AffineRank3 | CommutingInfinitePair


def moussong_hyperbolic(system):
    """Exact hyperbolicity with a (size, lex)-least obstruction witness,
    found among the minimal non-spherical subsets: every proper
    subdiagram of an irreducible affine diagram is finite, and a
    non-spherical proper subset A of an infinite T1 has comm(A) >=
    comm(T1), so the least T1 whose commuting generators comm(T1) span an
    infinite parabolic has no such A."""
    M = system.M
    n = M.rank
    if n > MAX_SUBSET_SCAN_RANK:
        raise ResourceExceeded(f"hyperbolicity scan over 2^{n} subsets")
    minimal = [(tuple(sorted(T)), cls)
               for T, cls in system.parabolics.items() if not cls.is_finite()]
    # irreducible affine of rank >= 3
    for T, cls in minimal:
        if len(T) >= 3 and cls.is_affine() and len(cls.components) == 1:
            return HyperbolicityReport(False, AffineRank3(T))
    # commuting pair of infinite subsets
    spherical = set(system.sphericals)
    for T1, _cls in minimal:
        comm = [s for s in range(n) if s not in T1 and
                all(M.entry(s, t) == 2 for t in T1)]
        if comm and frozenset(comm) not in spherical:
            return HyperbolicityReport(
                False, CommutingInfinitePair(T1, tuple(comm)))
    return HyperbolicityReport(True, None)


# ---------------------------------------------------------------------------
# dimensions of the boundary

LAMBDA_PRESET_BOURDON = "bourdon"


def checked_lambda(lam):
    """The "bourdon" preset as is, else a finite float > 1."""
    if lam == LAMBDA_PRESET_BOURDON:
        return lam
    lam = float(lam)
    if not 1.0 < lam < math.inf:
        raise SchemaError("lambda must be a finite number > 1")
    return lam


def checked_apartment_confdim(value):
    """An apartment conformal dimension: a finite float >= 1."""
    value = float(value)
    if not 1.0 <= value < math.inf:
        raise SchemaError(
            "apartment conformal dimension must be a finite number >= 1")
    return value


def resolve_lambda(lam, e_q):
    """Visual-metric parameter: a number > 1 or the "bourdon" preset
    exp(e_q), which normalizes the Hausdorff dimension e_q / log(lambda)
    to 1, the natural scale of the combinatorial metric."""
    if lam == LAMBDA_PRESET_BOURDON or lam is None:
        if e_q.value <= 0:
            raise AffineDegenerate("preset lambda needs positive growth")
        return math.exp(e_q.value), "BourdonPreset"
    return checked_lambda(lam), "UserSupplied"


def _boundary_exponents(system, thickness):
    """critical_exponents of a thick building with exponential chamber
    growth, the only case whose boundary has visual dimension data."""
    ce = system.exponents(thickness)
    if ce.thin:
        raise ThinBuilding("conformal data needs thickness >= 2 somewhere")
    if ce.p_cohom == math.inf:
        raise AffineDegenerate("chamber growth is not exponential; the "
                               "boundary carries no visual dimension data")
    return ce


def is_nerve_circle(system):
    """Nerve a triangulated circle: a connected 1-dimensional
    pseudomanifold, which is a cycle on at least three vertices."""
    return system.nerve.dim == 1 and system.type_pm.is_pm


@dataclass
class ConfdimBounds:
    lower: float
    upper: float
    lower_provenance: str   # "UserSupplied" | "VcdFloor" | "FuchsianExact"
    upper_provenance: str   # "HausdorffBound" | "FuchsianExact"
    lam: float
    lambda_provenance: str  # "UserSupplied" | "BourdonPreset"
    hausdim: float
    fuchsian: bool


def confdim_bounds(system, thickness, lam=None, apartment_confdim=None):
    """Bracket the conformal dimension of the boundary of the building.

    lower: (apartment conformal dimension, or vcd - 1 as its floor) times
    (1 + 1/e_q); upper: Hausdorff dimension times (1 + 1/e_q).  With the
    preset lambda the Hausdorff dimension is 1, so a circle nerve (where
    the apartment boundary is itself a circle, confdim 1) pinches the
    bracket to the exact value 1 + 1/e_q.  The factor 1 + 1/e_q and its
    bracket are critical_exponents' p_cohom and p_cohom_bracket.

    Two identities are checked on the way: on a right-angled circle nerve,
    the p = 2 verdicts against 1/W(q) (ValidationMismatch); elsewhere,
    lower <= upper, an inversion being a fault (ValidationMismatch) under
    the preset lambda and the vcd floor, and bad input (SchemaError)
    under a given lambda or apartment conformal dimension.
    """
    hyp = system.hyperbolicity
    if not hyp.hyperbolic:
        raise NotHyperbolic(f"obstruction: {hyp.witness}")
    fuch = system.nerve_is_circle
    ce = _boundary_exponents(system, thickness)
    e_q = ce.e_q
    lam_val, lam_prov = resolve_lambda(lam, e_q)
    factor_lo, factor_hi = ce.p_cohom_bracket
    hausdim = e_q.value / math.log(lam_val)
    if apartment_confdim is not None:
        base = checked_apartment_confdim(apartment_confdim)
        lower_prov = "UserSupplied"
    else:
        # vcd - 1 bounds the topological dimension of the boundary from
        # below; it can be 0 (totally disconnected boundary)
        d = system.vcd.value
        base = max(d - 1, 0)
        lower_prov = "VcdFloor"
    lower = base * factor_lo
    upper = (e_q.bracket[1] / math.log(lam_val)) * factor_hi
    if fuch:
        if system.M.is_right_angled():
            _check_l2_euler(system, thickness, ce.p_cohom_bracket)
        # exact: boundary of a Fuchsian-type building
        return ConfdimBounds(ce.p_cohom, ce.p_cohom, "FuchsianExact",
                             "FuchsianExact", lam_val, lam_prov, hausdim,
                             True)
    # float ends, not rounded outward: an excess of a few ulps is rounding
    if lower > upper and not math.isclose(lower, upper, rel_tol=1e-12):
        given = []
        if lam_prov == "UserSupplied":
            given.append(f"lambda {lam_val!r}")
        if lower_prov == "UserSupplied":
            given.append(f"apartment conformal dimension {base!r}")
        empty = f"lower bound {lower!r} exceeds upper bound {upper!r}"
        if given:
            raise SchemaError(f"{empty} under the given {' and '.join(given)}")
        raise ValidationMismatch(f"{empty} under the preset lambda and the "
                                 "vcd floor")
    return ConfdimBounds(lower, upper, lower_prov, "HausdorffBound",
                         lam_val, lam_prov, hausdim, fuch)


def _check_l2_euler(system, thickness, p_cohom_bracket):
    """The p = 2 verdicts of fuchsian_report against the weighted
    L^2-Euler characteristic 1/W(q) of a right-angled circle-nerve
    building (Davis, Dymara, Januszkiewicz and Okun, Geom. Topol. 11,
    2007), evaluated exactly from the per-class series.  It is b_2 - b_1
    with one of the two zero, so a positive value needs degree 2 nonzero
    at p = 2 (p_cohom not entirely below 2) and a negative one degree 1
    nonzero (p_cohom not entirely above 2); 0 or an undefined value
    asserts nothing."""
    series = system.series
    num, den = (sum(c * thickness.weight_of(e) for e, c in poly.terms.items())
                for poly in (series.numerator, series.denominator))
    if num == 0:
        return
    chi = den / num
    lo, hi = p_cohom_bracket
    if (chi > 0 and hi < 2) or (chi < 0 and lo > 2):
        raise ValidationMismatch(
            f"1/W(q) = {chi} contradicts p_cohom bracket [{lo!r}, {hi!r}] "
            "at p = 2")


def fuchsian_report(system, thickness, p_grid):
    """Degreewise l^p-cohomology vanishing for circle-nerve systems, as
    a list of (p, degree-1 verdict, degree-2 verdict).

    Both degrees change at the boundary conformal dimension p_cohom:
    degree 1 is nonzero above it, and degree 2, the top degree, is nonzero
    below it (by duality with the top l^p' cycles, p' > p_hom).  Grid
    points inside the uncertainty bracket of p_cohom are "critical".
    """
    if not system.nerve_is_circle:
        raise SchemaError("vanishing table requires a circle nerve")
    hyp = system.hyperbolicity
    if not hyp.hyperbolic:
        raise NotHyperbolic(f"obstruction: {hyp.witness}")
    conf_lo, conf_hi = _boundary_exponents(system, thickness).p_cohom_bracket
    table = []
    for p in p_grid:
        p = float(p)
        if p > conf_hi:
            d1, d2 = "nonzero", "zero"
        elif p < conf_lo:
            d1, d2 = "zero", "nonzero"
        else:
            d1 = d2 = "critical"
        table.append((p, d1, d2))
    return table
