"""Nerve, cohomological dimension and the Bestvina support face.

The Davis chamber K is the order complex of the poset of spherical subsets
(including the empty set), a cone with apex the empty set, and K^T is the
union of its mirrors over T.  Compactly supported cohomology of the Davis
complex splits over group elements into relative pairs (K, K^T), so the
real (virtual) cohomological dimension is the largest n with
H^n(K, K^T; Q) nonzero for some T; the witnesses record which subsets
realize it.  The mirrors over T cover K^T with contractible intersections,
and their nerve is L_T, the full subcomplex of the nerve L on T, so

    H^n(K, K^T) = H~^{n-1}(L_T)    (Davis, The Geometry and Topology of
                                     Coxeter Groups, 2008, ch. 8),

with L_empty the empty complex, whose only reduced homology is in degree
-1.  The dimension is therefore read off the reduced Betti numbers of the
full subcomplexes of the nerve, which are far smaller than the chamber.
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


def _top_nonzero_degree(b):
    for k in range(len(b) - 1, -1, -1):
        if b[k]:
            return k
    return None


def vcd_real(M):
    """Real virtual cohomological dimension with realizing subsets.

    T has degree 1 + the top nonzero reduced Betti degree of L_T, and the
    empty T has degree 0; an acyclic L_T realizes no degree.  Scans every
    T <= S, so the rank is capped at MAX_ALL_SUBSETS_RANK.  The maximum
    over spherical T alone is reported as spherical_value, next to the full
    maximum rather than assumed equal to it.
    """
    if M.rank > MAX_ALL_SUBSETS_RANK:
        raise ResourceExceeded(f"2^{M.rank} mirror unions")
    sphericals = spherical_subsets(M)
    spherical_set = set(sphericals)
    best = 0
    spherical_best = 0
    hits = []
    for r in range(M.rank + 1):
        for T in itertools.combinations(range(M.rank), r):
            T_set = frozenset(T)
            if T:
                L_T = SimplicialComplexQ(
                    [tuple(sorted(F)) for F in sphericals if F <= T_set])
                top = _top_nonzero_degree(betti_numbers(L_T, reduced=True))
                if top is None:
                    continue
                top += 1
            else:
                top = 0
            is_sph = T_set in spherical_set
            hits.append((T, top, is_sph))
            if top > best:
                best = top
            if is_sph and top > spherical_best:
                spherical_best = top
    witnesses = tuple(Witness(T, deg, sph) for T, deg, sph in hits
                      if deg == best)
    return VcdReport(best, spherical_best, witnesses)


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
    d = system.vcd.value
    if d == 0:
        raise NoWitness("cohomological dimension 0: no support face")
    sphericals = sorted(system.sphericals,
                        key=lambda T: (len(T), tuple(sorted(T))))
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
