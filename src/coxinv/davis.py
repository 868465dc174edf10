"""Nerve, Davis chamber, mirror structure, and cohomological dimension.

The chamber D is the order complex of the poset of spherical subsets
(including the empty set), a cone with apex the empty set.  The mirror D_s
consists of the chains whose members all contain s, and D^T is the union of
the mirrors over T.  Compactly supported cohomology of the Davis complex
splits over group elements into relative pairs (D, D^T), so the real
(virtual) cohomological dimension is the largest n with H_n(D, D^T; Q)
nonzero for some T; the witnesses record which subsets realize it.
"""

import itertools
from dataclasses import dataclass

from .coxeter import spherical_subsets
from .errors import NoWitness, ResourceExceeded
from .homology import (SimplicialComplexQ, betti_numbers, order_complex,
                       pm_verdict)

MAX_ALL_SUBSETS_RANK = 12


def nerve_complex(M):
    """Nonempty spherical subsets as a simplicial complex on the generators."""
    faces = [tuple(sorted(T)) for T in spherical_subsets(M) if T]
    return SimplicialComplexQ(faces)


@dataclass
class DavisChamber:
    M: object
    complex: SimplicialComplexQ     # order complex, vertices = sorted tuples
    sphericals: tuple               # frozensets, includes the empty set
    mirrors: dict                   # s -> SimplicialComplexQ

    def mirror_union(self, T):
        faces = set()
        for s in T:
            faces.update(self.mirrors[s].faces())
        return SimplicialComplexQ(faces)


def davis_chamber(M):
    sphericals = spherical_subsets(M)
    X = order_complex(sphericals, lambda a, b: a < b,
                      key=lambda T: tuple(sorted(T)))
    mirrors = {}
    for s in range(M.rank):
        faces = [f for f in X.faces() if all(s in v for v in f)]
        mirrors[s] = SimplicialComplexQ(faces)
    return DavisChamber(M, X, tuple(sphericals), mirrors)


@dataclass
class Witness:
    subset: tuple       # generator indices
    degree: int
    spherical: bool


@dataclass
class VcdReport:
    """value: max degree over all subsets T; spherical_value restricts the
    maximum to spherical T.  witnesses list every T realizing value."""
    value: int
    spherical_value: int
    witnesses: tuple
    chamber: DavisChamber


def _top_nonzero_degree(b):
    for k in range(len(b) - 1, -1, -1):
        if b[k]:
            return k
    return None


def vcd_real(M):
    """Real virtual cohomological dimension with realizing subsets.

    Scans every T <= S, so the rank is capped at MAX_ALL_SUBSETS_RANK.  The
    maximum over spherical T alone is reported as spherical_value, next to
    the full maximum rather than assumed equal to it.
    """
    if M.rank > MAX_ALL_SUBSETS_RANK:
        raise ResourceExceeded(f"2^{M.rank} mirror unions")
    ch = davis_chamber(M)
    spherical_set = {frozenset(T) for T in ch.sphericals}
    cand = [frozenset(c) for r in range(M.rank + 1)
            for c in itertools.combinations(range(M.rank), r)]
    best = 0
    spherical_best = 0
    hits = []
    for T in cand:
        A = ch.mirror_union(T) if T else None
        b = betti_numbers(ch.complex, relative_to=A)
        top = _top_nonzero_degree(b)
        if top is None:
            continue
        is_sph = T in spherical_set
        hits.append((tuple(sorted(T)), top, is_sph))
        if top > best:
            best = top
        if is_sph and top > spherical_best:
            spherical_best = top
    witnesses = tuple(Witness(T, deg, sph) for T, deg, sph in hits
                      if deg == best)
    return VcdReport(best, spherical_best, witnesses, ch)


@dataclass
class BestvinaSupport:
    """Least spherical face whose punctured upper set carries the critical
    homology, and the neighborhood generators it selects.

    The refined growth comparison runs on the parabolic generated by S0:
    chains essential for the top cohomology are supported near F0, so the
    weighted rate of W_{S0} bounds the critical exponents from the same
    side while usually being strictly smaller.
    """
    F0: tuple           # generator indices
    S0: tuple           # generator indices
    degree: int         # vcd value d; the test degree is d-1


def bestvina_support(system):
    vcd = system.vcd
    d = vcd.value
    if d == 0:
        raise NoWitness("cohomological dimension 0: no support face")
    sphericals = sorted((frozenset(T) for T in vcd.chamber.sphericals),
                        key=lambda T: (len(T), tuple(sorted(T))))
    sph_set = set(sphericals)
    for F in sphericals:
        upper = [G for G in sphericals if F < G]
        if not upper:
            continue
        oc = order_complex(upper, lambda a, b: a < b,
                           key=lambda T: tuple(sorted(T)))
        b = betti_numbers(oc, reduced=True)
        if d - 1 < len(b) and b[d - 1]:
            S0 = sorted(set().union(*[G - F for G in upper]))
            return BestvinaSupport(tuple(sorted(F)), tuple(S0), d)
    raise NoWitness("no spherical face carries the critical homology")


def is_type_PM(M):
    """Pseudomanifold verdict of the nerve (the boundary structure that
    makes the top compactly supported cohomology one-dimensional)."""
    return pm_verdict(nerve_complex(M))
