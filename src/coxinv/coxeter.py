"""Coxeter matrices and diagram classification.

A Coxeter system is given by its symmetric matrix m with diagonal 1 and
off-diagonal entries in {2, 3, ...} or infinity (math.inf).  The diagram has
an edge between s and t whenever m[s][t] >= 3; edge labels drive the finite
and affine classification tables.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from math import inf

from .errors import (AsymmetryError, BadEntry, DiagonalError, ResourceExceeded,
                     SchemaError)

MAX_SUBSET_RANK = 20  # 2^rank subsets are enumerated for spherical lattices


def _check_entry(v):
    if isinstance(v, float):
        if math.isinf(v) and v > 0:
            return inf
        raise BadEntry(f"matrix entry {v!r} is not an integer or inf")
    if isinstance(v, bool) or not isinstance(v, int):
        raise BadEntry(f"matrix entry {v!r} is not an integer or inf")
    return v


class CoxeterMatrix:
    """Validated Coxeter matrix over named generators.

    Entries are ints or math.inf.  Instances are immutable and hashable;
    the canonical key sorts generators by name so relabelled inputs with
    the same underlying diagram produce distinct but isomorphic objects.
    """

    def __init__(self, generators, rows):
        gens = tuple(str(g) for g in generators)
        if len(gens) == 0:
            raise SchemaError("empty generator list")
        if len(set(gens)) != len(gens):
            raise SchemaError("duplicate generator names")
        n = len(gens)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise SchemaError(f"matrix must be {n}x{n}")
        m = tuple(tuple(_check_entry(v) for v in row) for row in rows)
        for i in range(n):
            if m[i][i] != 1:
                raise DiagonalError(f"diagonal entry m[{gens[i]}][{gens[i]}] = {m[i][i]} != 1")
            for j in range(i + 1, n):
                if m[i][j] != m[j][i]:
                    raise AsymmetryError(f"m[{gens[i]}][{gens[j]}] != m[{gens[j]}][{gens[i]}]")
                if m[i][j] is not inf and m[i][j] < 2:
                    raise BadEntry(f"off-diagonal entry m[{gens[i]}][{gens[j]}] = {m[i][j]} < 2")
        self.generators = gens
        self.m = m

    @property
    def rank(self):
        return len(self.generators)

    def entry(self, i, j):
        return self.m[i][j]

    def submatrix(self, subset):
        """Induced system on a subset of generator indices (sorted)."""
        idx = sorted(subset)
        gens = [self.generators[i] for i in idx]
        rows = [[self.m[i][j] for j in idx] for i in idx]
        return CoxeterMatrix(gens, rows)

    def is_right_angled(self):
        n = self.rank
        return all(self.m[i][j] in (2, inf)
                   for i in range(n) for j in range(i + 1, n))

    def finite_entry_lcm(self):
        """lcm of the finite off-diagonal entries; 1 when there are none."""
        out = 1
        n = self.rank
        for i in range(n):
            for j in range(i + 1, n):
                v = self.m[i][j]
                if v is not inf:
                    out = math.lcm(out, v)
        return out

    def edges(self):
        """(i, j, label) for every pair with m >= 3 (including inf)."""
        n = self.rank
        return [(i, j, self.m[i][j])
                for i in range(n) for j in range(i + 1, n)
                if self.m[i][j] != 2]

    def conjugacy_classes(self):
        """Partition of generator indices: s ~ t when joined by a path of
        finite odd edges.  Returned as a sorted tuple of sorted tuples."""
        n = self.rank
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j, lab in self.edges():
            if lab is not inf and lab % 2 == 1:
                parent[find(i)] = find(j)
        buckets = {}
        for i in range(n):
            buckets.setdefault(find(i), []).append(i)
        return tuple(sorted(tuple(sorted(v)) for v in buckets.values()))

    def class_of(self):
        """generator index -> conjugacy class index."""
        out = [0] * self.rank
        for ci, cls in enumerate(self.conjugacy_classes()):
            for i in cls:
                out[i] = ci
        return out

    def canonical_key(self):
        ser = {"generators": list(self.generators),
               "matrix": [["inf" if v is inf else v for v in row] for row in self.m]}
        return json.dumps(ser, sort_keys=True, separators=(",", ":"))

    def digest(self):
        return hashlib.sha256(self.canonical_key().encode()).hexdigest()

    def __eq__(self, other):
        return isinstance(other, CoxeterMatrix) and \
            self.generators == other.generators and self.m == other.m

    def __hash__(self):
        return hash((self.generators, self.m))

    def __repr__(self):
        return f"CoxeterMatrix({self.generators!r})"


# ---------------------------------------------------------------------------
# diagram classification

FINITE_ORDER = {
    # irreducible finite Coxeter group orders, used as a table cross-check
    "A": lambda n: math.factorial(n + 1),
    "B": lambda n: 2 ** n * math.factorial(n),
    "D": lambda n: 2 ** (n - 1) * math.factorial(n),
    "E6": lambda n: 51840,
    "E7": lambda n: 2903040,
    "E8": lambda n: 696729600,
    "F4": lambda n: 1152,
    "G2": lambda n: 12,
    "H3": lambda n: 120,
    "H4": lambda n: 14400,
}


@dataclass(frozen=True)
class Component:
    label: str          # e.g. "A3", "~A2", "other"
    kind: str           # "finite" | "affine" | "other"
    vertices: tuple     # generator indices in the ambient matrix

    def order(self):
        """Order of a finite component, from its label."""
        lab = self.label
        if lab.startswith("I2("):
            return 2 * int(lab[3:-1])
        if lab in FINITE_ORDER:
            return FINITE_ORDER[lab](0)
        return FINITE_ORDER[lab[0]](int(lab[1:]))


@dataclass(frozen=True)
class Classification:
    """kind "finite": every component finite.  kind "affine": every component
    finite or affine with at least one affine, i.e. the group is infinite and
    virtually abelian (polynomial growth).  Anything else: "other_infinite".
    """
    kind: str
    components: tuple           # of Component

    def is_finite(self):
        return self.kind == "finite"

    def is_affine(self):
        return self.kind == "affine"

    def order(self):
        """Order of a finite parabolic: the product of its component
        orders."""
        if not self.is_finite():
            raise SchemaError("subset does not span a finite parabolic")
        return math.prod(c.order() for c in self.components)


def _adjacency(M, comp):
    adj = {v: [] for v in comp}
    lab = {}
    for i in comp:
        for j in comp:
            if i < j and M.entry(i, j) != 2:
                adj[i].append(j)
                adj[j].append(i)
                lab[(i, j)] = lab[(j, i)] = M.entry(i, j)
    return adj, lab


def _path_order(comp, adj):
    """Vertices of a path in order, or None if not a path."""
    degs = {v: len(adj[v]) for v in comp}
    if any(d > 2 for d in degs.values()):
        return None
    ends = [v for v in comp if degs[v] <= 1]
    if len(comp) == 1:
        return list(comp)
    if len(ends) != 2:
        return None  # cycle
    order = [min(ends)]
    prev = None
    while True:
        nxts = [u for u in adj[order[-1]] if u != prev]
        if not nxts:
            break
        prev = order[-1]
        order.append(nxts[0])
    return order if len(order) == len(comp) else None


def _legs(branch, adj):
    """Leg lengths from a branch vertex of a tree (sorted), or None if a leg
    itself branches."""
    out = []
    for start in adj[branch]:
        length = 1
        prev, cur = branch, start
        while True:
            nxts = [u for u in adj[cur] if u != prev]
            if len(nxts) == 0:
                break
            if len(nxts) > 1:
                return None
            prev, cur = cur, nxts[0]
            length += 1
        out.append(length)
    return sorted(out)


def _finite_label(M, comp):
    """Name of the irreducible finite type of a connected component,
    or None when the component is infinite."""
    n = len(comp)
    adj, lab = _adjacency(M, comp)
    if n == 1:
        return "A1"
    labels = sorted(lab[(i, j)] for i in comp for j in adj[i] if i < j)
    if any(l is inf for l in labels):
        return None
    if n == 2:
        m = labels[0]
        return {3: "A2", 4: "B2", 6: "G2"}.get(m, f"I2({m})")
    nedges = len(labels)
    if nedges >= n:
        return None  # contains a cycle
    high = [l for l in labels if l > 3]
    branches = [v for v in comp if len(adj[v]) >= 3]
    path = _path_order(comp, adj)
    if not high:
        if path:
            return f"A{n}"
        if len(branches) == 1 and len(adj[branches[0]]) == 3:
            legs = _legs(branches[0], adj)
            if legs is None:
                return None
            if legs[:2] == [1, 1]:
                return f"D{n}"
            if legs == [1, 2, 2]:
                return "E6"
            if legs == [1, 2, 3]:
                return "E7"
            if legs == [1, 2, 4]:
                return "E8"
        return None
    if high == [4] and path:
        seq = [lab[(path[k], path[k + 1])] for k in range(n - 1)]
        if seq[0] == 4 or seq[-1] == 4:
            return f"B{n}"
        if n == 4 and seq[1] == 4:
            return "F4"
        return None
    if high == [5] and path:
        seq = [lab[(path[k], path[k + 1])] for k in range(n - 1)]
        if seq[0] == 5 or seq[-1] == 5:
            if n == 3:
                return "H3"
            if n == 4:
                return "H4"
        return None
    return None


def _affine_label(M, comp):
    """Name of the irreducible affine type of a connected component, or None."""
    n = len(comp)
    adj, lab = _adjacency(M, comp)
    edges = [(i, j) for i in comp for j in adj[i] if i < j]
    labels = sorted(lab[e] for e in edges)
    if n == 2:
        return "~A1" if labels == [inf] else None
    if any(l is inf for l in labels):
        return None
    if len(edges) == n:  # one cycle
        if all(len(adj[v]) == 2 for v in comp) and all(l == 3 for l in labels):
            return f"~A{n - 1}"
        return None
    if len(edges) != n - 1:
        return None
    high = [l for l in labels if l > 3]
    branches = [v for v in comp if len(adj[v]) >= 3]
    path = _path_order(comp, adj)
    if path:
        seq = [lab[(path[k], path[k + 1])] for k in range(n - 1)]
        rev = list(reversed(seq))
        if n >= 3 and seq[0] == 4 and seq[-1] == 4 and all(l == 3 for l in seq[1:-1]):
            return f"~C{n - 1}"
        if n == 5 and (seq == [3, 3, 4, 3] or rev == [3, 3, 4, 3]):
            return "~F4"
        if n == 3 and sorted(seq) == [3, 6]:
            return "~G2"
        return None
    if not branches:
        return None
    if not high:
        if len(branches) == 1 and len(adj[branches[0]]) == 4:
            legs = _legs(branches[0], adj)
            if legs == [1, 1, 1, 1]:
                return "~D4"
        if len(branches) == 1 and len(adj[branches[0]]) == 3:
            legs = _legs(branches[0], adj)
            if legs == [2, 2, 2]:
                return "~E6"
            if legs == [1, 3, 3]:
                return "~E7"
            if legs == [1, 2, 5]:
                return "~E8"
        if len(branches) == 2 and all(len(adj[b]) == 3 for b in branches):
            leaves = [v for v in comp if len(adj[v]) == 1]
            if len(leaves) == 4 and all(
                    any(b in adj[l] for b in branches) for l in leaves):
                return f"~D{n - 1}"
        return None
    if high == [4] and len(branches) == 1 and len(adj[branches[0]]) == 3:
        legs = _legs(branches[0], adj)
        if legs is not None and legs[:2] == [1, 1]:
            # the 4 must sit on the far end of the long leg
            leaf_edges_4 = [e for e in edges if lab[e] == 4 and
                            (len(adj[e[0]]) == 1 or len(adj[e[1]]) == 1)]
            short_leaves = [v for v in adj[branches[0]] if len(adj[v]) == 1]
            if len(leaf_edges_4) == 1:
                a, b = leaf_edges_4[0]
                leaf = a if len(adj[a]) == 1 else b
                if leaf not in short_leaves or legs == [1, 1, 1]:
                    return f"~B{n - 1}"
        return None
    return None


def _components(M, subset):
    seen = set()
    comps = []
    sub = set(subset)
    for v in sorted(sub):
        if v in seen:
            continue
        stack, comp = [v], []
        seen.add(v)
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in sub:
                if y not in seen and M.entry(x, y) != 2:
                    seen.add(y)
                    stack.append(y)
        comps.append(tuple(sorted(comp)))
    return comps


def classify_parabolic(M, subset=None):
    """Classify the standard parabolic on a subset of generator indices
    (default: the full system) as finite, affine, or other_infinite."""
    if subset is None:
        subset = range(M.rank)
    subset = sorted(set(subset))
    for i in subset:
        if not 0 <= i < M.rank:
            raise SchemaError(f"generator index {i} out of range")
    comps = []
    for comp in _components(M, subset):
        flab = _finite_label(M, comp)
        if flab is not None:
            comps.append(Component(flab, "finite", comp))
            continue
        alab = _affine_label(M, comp)
        if alab is not None:
            comps.append(Component(alab, "affine", comp))
        else:
            comps.append(Component("other", "other", comp))
    if all(c.kind == "finite" for c in comps):
        kind = "finite"
    elif all(c.kind in ("finite", "affine") for c in comps):
        kind = "affine"
    else:
        kind = "other_infinite"
    return Classification(kind, tuple(comps))


def spherical_subsets(M, whole):
    """{T: Classification} for every spherical T (a frozenset of indices,
    the empty set included) and every minimal non-spherical T, whose
    proper subsets are all spherical, in (size, lex) order: the subsets
    whose maximal proper subsets are spherical, each classified once.
    whole is the classification of the full set, read instead of
    classifying it again."""
    n = M.rank
    if n > MAX_SUBSET_RANK:
        raise ResourceExceeded(f"rank {n} exceeds subset enumeration cap {MAX_SUBSET_RANK}")
    good = {frozenset()}
    reached = {frozenset(): Classification("finite", ())}
    layer = [frozenset()]
    while layer:
        nxt = []
        for T in layer:
            for s in range(n):
                T2 = T | {s}
                if T2 in reached or any(T2 - {x} not in good for x in T2):
                    continue
                cls = reached[T2] = whole if len(T2) == n else \
                    classify_parabolic(M, T2)
                if cls.is_finite():
                    good.add(T2)
                    nxt.append(T2)
        layer = nxt
    return dict(sorted(reached.items(),
                       key=lambda kv: (len(kv[0]), sorted(kv[0]))))
