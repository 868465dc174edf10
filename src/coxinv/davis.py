"""Nerve and cohomological dimension of a System.

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
Both stages read the System's spherical subsets and hold every complex
they build to its max_simplices cap; the pseudomanifold verdict of the
nerve is System.type_pm.
"""

import itertools
from dataclasses import dataclass

from .errors import ResourceExceeded
from .homology import SimplicialComplexQ, betti_numbers

MAX_ALL_SUBSETS_RANK = 12


def nerve_complex(system):
    """Nonempty spherical subsets as a simplicial complex on the generators."""
    faces = [tuple(sorted(T)) for T in system.sphericals if T]
    return SimplicialComplexQ(faces, system.caps.max_simplices)


@dataclass
class Witness:
    subset: tuple       # generator indices
    degree: int


@dataclass
class VcdReport:
    """value: max degree over all subsets T; witnesses list every T
    realizing it.  A nonempty spherical T spans a simplex L_T, which is
    acyclic, so the only spherical witness is the empty T, when value
    is 0."""
    value: int
    witnesses: tuple


def _top_nonzero_degree(b):
    for k in range(len(b) - 1, -1, -1):
        if b[k]:
            return k
    return None


def vcd_real(system):
    """Real virtual cohomological dimension with realizing subsets.

    T has degree 1 + the top nonzero reduced Betti degree of L_T, and the
    empty T has degree 0; an acyclic L_T realizes no degree.  Scans every
    T <= S, so the rank is capped at MAX_ALL_SUBSETS_RANK.
    """
    M = system.M
    if M.rank > MAX_ALL_SUBSETS_RANK:
        raise ResourceExceeded(f"2^{M.rank} mirror unions")
    sphericals, cap = system.sphericals, system.caps.max_simplices
    hits = [((), 0)]
    for r in range(1, M.rank + 1):
        for T in itertools.combinations(range(M.rank), r):
            T_set = frozenset(T)
            L_T = SimplicialComplexQ(
                [tuple(sorted(F)) for F in sphericals if F <= T_set], cap)
            top = _top_nonzero_degree(betti_numbers(L_T, reduced=True))
            if top is not None:
                hits.append((T, top + 1))
    best = max(deg for _, deg in hits)
    return VcdReport(best, tuple(Witness(T, deg) for T, deg in hits
                                 if deg == best))
