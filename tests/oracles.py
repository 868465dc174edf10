"""Independent second-route oracles used by the test suite.

Each function recomputes a quantity by a method unrelated to the library
implementation: fraction-free Bareiss elimination for matrix ranks, a
brute-force rewriting search for right-angled canonical forms, canonical
words one letter at a time, plain long division for series coefficients,
the growth series as the reciprocity sum over the product of the
distinct parabolic polynomials, each parabolic found by its cosine form
and enumerated with float reflection matrices, reflection-matrix
enumeration for parabolic finiteness, vertex degrees with Betti numbers
for circle nerves, term-by-term evaluation of a polynomial at a rational
point, the minimal polynomial of 2cos(pi/N) with every Dickson
polynomial built from scratch, vcd as the relative homology of the Davis
chamber and its mirrors ranked by Bareiss elimination, Sturm root
isolation with every sign read from a Fraction value, and hyperbolicity
by classifying all 2^rank subsets rather than the minimal non-spherical
ones, and the building ball by a chamber search that multiplies each
chamber by every generator power.  Deliberately simple and slow.  The rest are checks the library
does not run: d∘d = 0 on a whole complex, the cone test, the rate
comparison bounds, the count side of the pullback norms, and the inverse
of the machine report encoding.  Last, reference copies of the chain maps
boundary, pushforward and pullback as they were before their coefficient
arithmetic was made cheaper (a Fraction(0) seed per face, a NamedTuple
constructor per simplex), which the faster maps must agree with.
"""

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from coxinv.algebraic import cyclotomic, dickson
from coxinv.building import (Simplex, _abs_counts, _counted_interval_sum,
                             _counted_power_sum, append_syllable,
                             erase_exponents, fibre, gate_word, word_gens)
from coxinv.conformal import AffineRank3, CommutingInfinitePair
from coxinv.coxeter import classify_parabolic
from coxinv.elements import (DEFAULT_MAX_SIMPLICES as CAP, Caps, ReflectionRep,
                             commutation_table)
from coxinv.errors import DegenerateWeights, SchemaError
from coxinv.growth import (_p1_deriv, _p1_exact_div, _p1_gcd, _p1_trim,
                           _sturm_chain, layer_class_counts)
from coxinv.homology import SimplicialComplexQ, betti_numbers
from coxinv.report import INF_TOKEN, NEG_INF_TOKEN
from coxinv.system import System


def bareiss_rank(rows):
    """Rank of an integer (or rational) matrix by Bareiss elimination.

    Rationals are cleared to integers first so every intermediate value is
    an exact integer determinant.
    """
    if not rows or not rows[0]:
        return 0
    m = [[Fraction(v) for v in row] for row in rows]
    # clear denominators row by row (does not change the rank)
    cleared = []
    for row in m:
        den = 1
        for v in row:
            den = den * v.denominator // _gcd(den, v.denominator)
        cleared.append([int(v * den) for v in row])
    a = cleared
    nr, nc = len(a), len(a[0])
    rank = 0
    prev = 1
    r = 0
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if a[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, nr):
            for j in range(c + 1, nc):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
        rank += 1
        if r == nr:
            break
    return rank


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def brute_canonical(word, commute):
    """Lex-least fully reduced word equivalent to `word` in a right-angled
    system, by exhaustive search over adjacent commuting swaps and adjacent
    equal-pair deletions.  Exponential; keep words short."""
    word = tuple(word)
    seen = {word}
    frontier = [word]
    best_len = len(word)
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(len(w) - 1):
                a, b = w[i], w[i + 1]
                if a == b:
                    red = w[:i] + w[i + 2:]
                    if red not in seen:
                        seen.add(red)
                        nxt.append(red)
                        best_len = min(best_len, len(red))
                elif commute[a][b]:
                    sw = w[:i] + (b, a) + w[i + 2:]
                    if sw not in seen:
                        seen.add(sw)
                        nxt.append(sw)
        frontier = nxt
    return min(w for w in seen if len(w) == best_len)


def append_letter(word, s, commute):
    """Canonical reduced word of w*s from that of w (right-angled case),
    one generator at a time: the reference for the ball enumeration's
    word kernel.

    Returns (new_word, shorter).  Cancellation: an s occurrence erases when
    everything after it commutes with s.  Otherwise s lands after its last
    non-commuting letter and before the first larger letter, which keeps the
    word lexicographically least among all reduced expressions.
    """
    row = commute[s]
    p0 = 0
    for i in range(len(word) - 1, -1, -1):
        t = word[i]
        if t == s:
            return word[:i] + word[i + 1:], True
        if not row[t]:
            p0 = i + 1
            break
    p = len(word)
    for i in range(p0, len(word)):
        if word[i] > s:
            p = i
            break
    return word[:p] + (s,) + word[p:], False


def eval_frac(poly, point):
    """Exact value of a multivariate PolyQ at a rational point."""
    tot = Fraction(0)
    for e, c in poly.terms.items():
        v = c
        for x, k in zip(point, e):
            v *= Fraction(x) ** k
        tot += v
    return tot


def series_quotient(num, den, depth):
    """Coefficients of num/den to order `depth` by long division.

    num, den: coefficient lists (Fractions or ints), den[0] nonzero.
    """
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    out = []
    for k in range(depth + 1):
        v = num[k] if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            v -= den[j] * out[k - j]
        out.append(v / den[0])
    return out


def _odd_label_classes(M):
    """Generator index -> class index, classes the components of the
    graph of odd finite labels, numbered by their least generator."""
    n = M.rank
    out = [None] * n
    k = 0
    for root in range(n):
        if out[root] is not None:
            continue
        out[root], stack = k, [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                m = M.m[i][j]
                if out[j] is None and m != math.inf and m % 2 == 1:
                    out[j] = k
                    stack.append(j)
        k += 1
    return out


def _two_cos(m):
    return 2.0 if m == math.inf else 2 * math.cos(math.pi / m)


def _positive_definite(M, subset):
    """Sylvester's criterion on the cosine form -cos(pi/m_st) of a
    subset: the standard parabolic is finite iff the form is positive
    definite.  Float leading minors; an affine form has determinant 0."""
    a = [[-_two_cos(M.m[i][j]) / 2 if i != j else 1.0 for j in subset]
         for i in subset]
    n = len(a)
    for k in range(n):
        # Gaussian elimination keeps the leading minors as pivot products
        if a[k][k] <= 1e-9:
            return False
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return True


def _parabolic_count(M, subset, class_of, nclasses):
    """{class vector: element count} of a finite standard parabolic, by a
    tree walk over float reflection matrices: each element other than 1
    is reached once, from w*s with s its least right descent."""
    idx = list(subset)
    r = len(idx)
    c = [[_two_cos(M.m[i][j]) if i != j else 0.0 for j in idx] for i in idx]
    cols = [tuple(1.0 if i == j else 0.0 for i in range(r)) for j in range(r)]

    def descents(cols):
        # w(alpha_t) is a positive or a negative root
        return [t for t in range(r) if sum(cols[t]) < 0]

    zero = (0,) * nclasses
    out = {zero: 1}
    stack = [(cols, zero, [])]
    while stack:
        cols, cv, desc = stack.pop()
        for s in range(r):
            if s in desc:
                continue
            new = [tuple(-x for x in cols[s]) if j == s else
                   tuple(x + c[s][j] * y for x, y in zip(cols[j], cols[s]))
                   for j in range(r)]
            d = descents(new)
            if d[0] != s:
                continue
            k = class_of[idx[s]]
            cv2 = cv[:k] + (cv[k] + 1,) + cv[k + 1:]
            out[cv2] = out.get(cv2, 0) + 1
            stack.append((new, cv2, d))
    return out


def _poly_mul(a, b):
    """Product of two polynomials given as {exponent tuple: coefficient}."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _poly_add(a, b, scale=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + scale * c
    return {e: c for e, c in out.items() if c}


def growth_series_by_distinct_products(M):
    """(numerator, denominator) of the per-class growth series W(t) as
    {exponent tuple: coefficient}, the denominator with constant term 1.

    Every spherical subset is found by the cosine form and enumerated by
    _parabolic_count.  A finite W is its own polynomial; otherwise the sum
    of (-1)^|T| / W_T over the spherical T is accumulated with the product
    of the distinct W_T as denominator, and W(t) = rev(den) / rev(num)."""
    n = M.rank
    class_of = _odd_label_classes(M)
    nclasses = max(class_of) + 1
    zero = (0,) * nclasses
    subsets = [T for k in range(n + 1)
               for T in itertools.combinations(range(n), k)
               if _positive_definite(M, T)]
    if len(subsets[-1]) == n:
        return _parabolic_count(M, range(n), class_of, nclasses), {zero: 1}
    distinct = {}
    for T in subsets:
        P = _parabolic_count(M, T, class_of, nclasses)
        key = tuple(sorted(P.items()))
        c, _ = distinct.get(key, (0, P))
        distinct[key] = (c + (-1) ** len(T), P)
    num, den = {}, {zero: 1}
    for c, P in distinct.values():
        num, den = _poly_add(_poly_mul(num, P), den, c), _poly_mul(den, P)
    top = [max(e[i] for e in itertools.chain(num, den))
           for i in range(nclasses)]
    low = [min(top[i] - e[i] for e in itertools.chain(num, den))
           for i in range(nclasses)]

    def rev(p):
        return {tuple(top[i] - e[i] - low[i] for i in range(nclasses)): c
                for e, c in p.items()}
    W_num, W_den = rev(den), rev(num)
    c0 = Fraction(W_den[zero])
    return ({e: c / c0 for e, c in W_num.items()},
            {e: c / c0 for e, c in W_den.items()})


def expand_quotient(num, den, depth):
    """Coefficients of num/den by total degree through depth, as
    {exponent tuple: coefficient} per degree, by long division; both
    given as {exponent tuple: coefficient} with den(0) = 1."""
    out = []
    for k in range(depth + 1):
        cur = {e: c for e, c in num.items() if sum(e) == k}
        for e, c in den.items():
            d = sum(e)
            if 1 <= d <= k:
                for e2, c2 in out[k - d].items():
                    tgt = tuple(x + y for x, y in zip(e, e2))
                    cur[tgt] = cur.get(tgt, 0) - c * c2
        out.append({e: c for e, c in cur.items() if c})
    return out


def nerve_circle_by_degrees(M):
    """Nerve a triangulated circle, from vertex degrees, edge counts and
    Betti numbers: a 1-dimensional complex on at least three vertices with
    as many edges as vertices, every vertex of degree 2, and b = [1, 1]."""
    N = SimplicialComplexQ([T for T in System(M).sphericals if T], CAP)
    if N.dim != 1:
        return False
    verts = N.k_faces(0)
    edges = N.k_faces(1)
    if len(verts) < 3 or len(edges) != len(verts):
        return False
    deg = {}
    for e in edges:
        for v in e:
            deg[v] = deg.get(v, 0) + 1
    if any(deg.get(v[0], 0) != 2 for v in verts):
        return False
    return betti_numbers(N) == [1, 1]


def hyperbolicity_by_subset_scan(M):
    """(hyperbolic, witness) with every one of the 2^rank subsets
    classified, in (size, lex) order: the least irreducible affine subset
    of rank >= 3, else the least infinite T1 whose commuting generators
    span an infinite parabolic."""
    subsets = [T for r in range(1, M.rank + 1)
               for T in itertools.combinations(range(M.rank), r)]
    for T in subsets:
        cls = classify_parabolic(M, T)
        if len(T) >= 3 and cls.is_affine() and len(cls.components) == 1:
            return False, AffineRank3(T)
    for T1 in subsets:
        if classify_parabolic(M, T1).is_finite():
            continue
        comm = tuple(s for s in range(M.rank) if s not in T1 and
                     all(M.entry(s, t) == 2 for t in T1))
        if comm and not classify_parabolic(M, comm).is_finite():
            return False, CommutingInfinitePair(T1, comm)
    return True, None


def degree_product(degrees):
    """Coefficients of prod_i [d_i]_t, [d]_t = 1 + t + ... + t^(d-1): the
    Poincare polynomial of a finite Coxeter group with these degrees
    (Solomon 1966)."""
    poly = [1]
    for d in degrees:
        out = [0] * (len(poly) + d - 1)
        for i, c in enumerate(poly):
            for j in range(d):
                out[i + j] += c
        poly = out
    return poly


def bn_poincare(n):
    """Two-variable Poincare polynomial of B_n as {(i, j): coefficient}:
    prod_{i=0}^{n-1} [i+1]_s (1 + s^i t), with s marking the generators of
    the A_{n-1} chain and t the generator at the end of the 4-edge
    (Macdonald 1972)."""
    poly = {(0, 0): 1}
    for i in range(n):
        factor = {}
        for a in range(i + 1):
            for e in ((a, 0), (a + i, 1)):
                factor[e] = factor.get(e, 0) + 1
        out = {}
        for (a, b), c in poly.items():
            for (x, y), d in factor.items():
                key = (a + x, b + y)
                out[key] = out.get(key, 0) + c * d
        poly = out
    return poly


def parabolic_is_finite_by_enumeration(M, subset, bound=20000):
    """Finiteness of a standard parabolic checked by enumerating reflection
    matrices until exhaustion or the bound; no diagram tables involved."""
    sub = M.submatrix(subset)
    rep = ReflectionRep(sub)
    seen = {rep.identity}
    frontier = [rep.identity]
    while frontier:
        nxt = []
        for mtx in frontier:
            for s in range(sub.rank):
                m2 = rep.apply_gen(mtx, s)
                if m2 not in seen:
                    seen.add(m2)
                    nxt.append(m2)
                    if len(seen) > bound:
                        return False, len(seen)
        frontier = nxt
    return True, len(seen)


def iterative_gate(word, T, commute):
    """Gate of the coset word * <T> in a right-angled building, syllable
    by syllable: repeatedly drop the rightmost syllable with generator in T
    that commutes with everything to its right, then put the survivors back
    into lexicographically least order.  Rescans after every drop."""
    T = set(T)
    cur = tuple(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(cur) - 1, -1, -1):
            s = cur[i][0]
            movable = all(commute[s][cur[j][0]] for j in range(i + 1, len(cur)))
            if s in T and movable:
                cur = lex_least_trace(cur[:i] + cur[i + 1:], commute)
                changed = True
                break
    return cur


def chamber_search(M, thickness, radius):
    """The chambers of the building ball, sorted by (length, word): a
    breadth-first search that multiplies each chamber by every power of
    every generator through append_syllable and keeps the fresh
    syllables, the words one step longer.  It never looks at a Weyl
    word."""
    commute = commutation_table(M)
    qmod = [q + 1 for q in thickness.per_generator()]
    layer = [()]
    chambers = [()]
    for _ in range(radius):
        nxt = set()
        for w in layer:
            for s in range(M.rank):
                for e in range(1, qmod[s]):
                    w2, delta = append_syllable(w, s, e, commute, qmod)
                    if delta == 1:
                        nxt.add(w2)
        layer = sorted(nxt)
        chambers += layer
    return chambers


def lex_least_trace(syllables, commute):
    """Lexicographically least reordering of a reduced syllable word that
    only swaps commuting neighbours: repeatedly emit the smallest generator
    none of whose non-commuting predecessors is still waiting."""
    rest = list(syllables)
    out = []
    while rest:
        free = [i for i in range(len(rest))
                if all(commute[rest[j][0]][rest[i][0]] for j in range(i))]
        i = min(free, key=lambda k: rest[k][0])
        out.append(rest.pop(i))
    return tuple(out)


def word_matrix(rep, word):
    """Reflection matrix of a word, folded letter by letter through
    rep.apply_gen from the identity."""
    m = rep.identity
    for s in word:
        m = rep.apply_gen(m, s)
    return m


def verify_boundary_squares_to_zero(X):
    """Exact check that the composite boundary map vanishes in every degree."""
    for k in range(1, X.dim + 1):
        kf = X.k_faces(k + 1)
        for f in kf:
            acc = {}
            for i in range(len(f)):
                sub = f[:i] + f[i + 1:]
                si = Fraction(-1 if i % 2 else 1)
                for j in range(len(sub)):
                    sub2 = sub[:j] + sub[j + 1:]
                    sj = Fraction(-1 if j % 2 else 1)
                    acc[sub2] = acc.get(sub2, Fraction(0)) + si * sj
            if any(v != 0 for v in acc.values()):
                return False
    return True


def is_cone(X):
    """True when some vertex of the complex belongs to every maximal face."""
    verts = [f[0] for f in X.k_faces(0)]
    if not verts:
        return False
    maxes = X.maximal_faces()
    return any(all(v in f for f in maxes) for v in verts)


# ---------------------------------------------------------------------------
# vcd on the Davis chamber: relative homology of (K, K^T) for every T

def order_complex(elements, strictly_less, key=None):
    """Simplicial complex of chains of a finite poset.

    strictly_less must be transitive.  Vertices of the result are key(e)
    (default: e itself), which must be unique, hashable and totally
    sortable; pass an explicit key when the poset members are not, e.g.
    frozensets, whose < is only a partial order.
    """
    elems = list(elements)
    key = key or (lambda e: e)
    ids = [key(e) for e in elems]
    if len(set(ids)) != len(ids):
        raise SchemaError("order_complex key is not injective")
    n = len(elems)
    faces = [(v,) for v in ids]
    # grow chains; poset sizes here are small (spherical subsets)
    chains = [[i] for i in range(n)]
    while chains:
        nxt = []
        for ch in chains:
            last = elems[ch[-1]]
            for j in range(n):
                if j in ch:
                    continue
                if strictly_less(last, elems[j]):
                    ext = ch + [j]
                    nxt.append(ext)
                    faces.append(tuple(ids[i] for i in ext))
        chains = nxt
    return SimplicialComplexQ(faces, CAP)


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
        return SimplicialComplexQ(faces, CAP)


def davis_chamber(M):
    """The chamber K as the order complex of the spherical subsets, and the
    mirror K_s as the chains whose members all contain s."""
    sphericals = System(M).sphericals
    X = order_complex(sphericals, lambda a, b: a < b,
                      key=lambda T: tuple(sorted(T)))
    mirrors = {}
    for s in range(M.rank):
        faces = [f for f in X.faces() if all(s in v for v in f)]
        mirrors[s] = SimplicialComplexQ(faces, CAP)
    return DavisChamber(M, X, tuple(sphericals), mirrors)


def relative_betti_numbers(X, A):
    """dim H_k(X, A; Q) for a subcomplex A of X (None for the empty one),
    every boundary rank by bareiss_rank on the dense integer matrix."""
    excluded = set(A.faces()) if A is not None else set()
    if not excluded <= X.faces():
        raise SchemaError("relative subcomplex is not contained in X")
    cells = [[f for f in X.k_faces(k) if f not in excluded]
             for k in range(X.dim + 1)]

    def rank(k):
        # rank of the boundary C_k -> C_{k-1} on the relative chains
        if k <= 0 or k > X.dim or not cells[k] or not cells[k - 1]:
            return 0
        row_of = {f: i for i, f in enumerate(cells[k - 1])}
        m = [[0] * len(cells[k]) for _ in cells[k - 1]]
        for j, f in enumerate(cells[k]):
            for i in range(len(f)):
                r = row_of.get(f[:i] + f[i + 1:])
                if r is not None:
                    m[r][j] = -1 if i % 2 else 1
        return bareiss_rank(m)
    ranks = [rank(k) for k in range(X.dim + 2)]
    return [len(cells[k]) - ranks[k] - ranks[k + 1]
            for k in range(X.dim + 1)]


def vcd_by_davis_chamber(M):
    """(value, spherical_value, witnesses) of the real vcd as the largest n
    with H_n(K, K^T; Q) nonzero, T over all subsets by size, then
    itertools.combinations order; witnesses are (subset, degree,
    spherical) triples."""
    ch = davis_chamber(M)
    spherical_set = set(ch.sphericals)
    hits = []
    for r in range(M.rank + 1):
        for T in itertools.combinations(range(M.rank), r):
            b = relative_betti_numbers(
                ch.complex, ch.mirror_union(T) if T else None)
            top = max((k for k, v in enumerate(b) if v), default=None)
            if top is not None:
                hits.append((T, top, frozenset(T) in spherical_set))
    value = max(deg for _, deg, _ in hits)
    spherical_value = max(deg for _, deg, sph in hits if sph)
    return value, spherical_value, [h for h in hits if h[1] == value]


# ---------------------------------------------------------------------------
# Sturm root isolation with every sign read from a Fraction value

def _eval_fraction(p, x):
    v = Fraction(0)
    for c in reversed(p):
        v = v * x + c
    return v


def _variations_fraction(chain, x):
    signs = [v > 0 for v in (_eval_fraction(q, x) for q in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def smallest_positive_root(poly, hi, tol=Fraction(1, 10 ** 9)):
    """Reference for growth.smallest_positive_root: the same Sturm chain and
    bisection, with the whole chain evaluated in Fraction at every point
    and the variations at the lower end recounted on each count."""
    p = [Fraction(c) for c in poly]
    _p1_trim(p)
    if len(p) <= 1:
        return None
    g = _p1_gcd(p, _p1_deriv(p))
    if len(g) > 1:
        p = _p1_exact_div(p, g)
    chain = _sturm_chain(p)
    hi = Fraction(hi)

    def count_upto(b):
        eps = Fraction(1, 10 ** 12)
        b0 = b
        while _eval_fraction(p, b0) == 0:
            b0 += eps
        lo0 = Fraction(0)
        while _eval_fraction(p, lo0) == 0:
            lo0 += eps
        return _variations_fraction(chain, lo0) - \
            _variations_fraction(chain, b0)

    if count_upto(hi) == 0:
        return None
    lo, b = Fraction(0), hi
    while b - lo > tol:
        mid = (lo + b) / 2
        if _eval_fraction(p, mid) == 0:
            if count_upto(mid) == 1 or count_upto(mid - tol / 2) == 0:
                return (mid, mid)
            b = mid
            continue
        if count_upto(mid) >= 1:
            b = mid
        else:
            lo = mid
    if _eval_fraction(p, b) == 0:
        return (b, b)
    return (lo, b)


def rate_comparison_bounds(system, weights):
    """e(W)/log t_max <= e_t <= e(W)/log t_min for weights > 1."""
    if any(v == 1 for v in weights.values):
        raise DegenerateWeights("comparison bounds require weights > 1")
    e_univ = system.rate(None)
    ltmax = math.log(float(max(weights.values)))
    ltmin = math.log(float(min(weights.values)))
    return (e_univ.bracket[0] / ltmax, e_univ.bracket[1] / ltmin)


def _q_of(thickness, class_vector):
    """q_w = prod_i q_i^k_i for an element of class vector k."""
    out = 1
    for q, k in zip(thickness.values, class_vector):
        out *= q ** k
    return out


def lp_power_sum(values, p):
    """The library's exact power sum of |v|^p, {kernel: coefficient} or
    None, on a list of values rather than on counted |values|."""
    return _counted_power_sum(_abs_counts(values), p)


def interval_power_sum(values, p, prec):
    """The library's interval power sum on a list of values."""
    return _counted_interval_sum(_abs_counts(values), p, prec)


def lp_pullback_partial_sums(M, thickness, p, radius):
    """Partial sums through each radius of sum_w q_w^(1-p): the p-th power
    of the pullback norm of the apartment's chamber indicator, radius by
    radius, from the Weyl class counts.  Exact Fractions for integer p,
    kernel maps for half-integer, floats otherwise."""
    p = Fraction(p)
    counts = layer_class_counts(M, radius, Caps())
    partials = []
    if p.denominator == 1:
        acc = Fraction(0)
        for d in counts:
            for cv, c in d.items():
                acc += c * Fraction(_q_of(thickness, cv)) ** (1 - int(p))
            partials.append(acc)
        return partials
    if p.denominator == 2:
        acc = {}
        for d in counts:
            for cv, c in d.items():
                qw = Fraction(_q_of(thickness, cv))
                # q_w^(1-p) = |1/q_w|^(p-1), again half-integer
                for k, v in lp_power_sum([Fraction(1) / qw], p - 1).items():
                    acc[k] = acc.get(k, Fraction(0)) + c * v
            partials.append({k: v for k, v in acc.items() if v})
        return partials
    acc = 0.0
    for d in counts:
        for cv, c in d.items():
            acc += c * float(_q_of(thickness, cv)) ** float(1 - p)
        partials.append(acc)
    return partials


def decode_json_value(x):
    """Inverse of coxinv.report.encode_json_value on JSON data: the
    infinity tokens become floats again."""
    if x == INF_TOKEN:
        return math.inf
    if x == NEG_INF_TOKEN:
        return -math.inf
    if isinstance(x, dict):
        return {k: decode_json_value(v) for k, v in x.items()}
    if isinstance(x, list):
        return [decode_json_value(v) for v in x]
    return x


def report_from_json(text):
    return decode_json_value(json.loads(text))


def minimal_poly_2cos_pi_over_by_dickson(N):
    """Monic integer minimal polynomial of 2cos(pi/N), low degree first:
    Phi_2N rewritten through z^d(z^j + z^-j) = z^d * D_j(z + 1/z), with
    each D_j built from scratch."""
    if N == 1:
        return [2, 1]  # x + 2, root -2
    phi = cyclotomic(2 * N)
    d = (len(phi) - 1) // 2
    psi = [0] * (d + 1)
    psi[0] = phi[d]
    for j in range(1, d + 1):
        e = phi[d + j]
        if e:
            for i, v in enumerate(dickson(j)):
                psi[i] += e * v
    return psi


# ---------------------------------------------------------------------------
# reference chain maps, kept as they were

def boundary(ball, chain_coeffs):
    """Exact boundary of a chain {Simplex: Fraction}; deleting the bottom
    type re-gates to the next residue."""
    out = {}
    for sx, c in chain_coeffs.items():
        if sx.dim == 0:
            continue
        for i in range(len(sx.chain)):
            sub = sx.chain[:i] + sx.chain[i + 1:]
            if i == 0:
                g = gate_word(sx.gate, sub[0], ball.commute, ball.qmod)
            else:
                g = sx.gate
            face = Simplex(g, sub)
            v = out.get(face, Fraction(0)) + c * (-1 if i % 2 else 1)
            if v:
                out[face] = v
            elif face in out:
                del out[face]
    return out


def pushforward(chain_coeffs):
    """rho_*: erase exponents, map onto the q = 1 apartment ball.

    A pulled-back fiber is a run of one coefficient over one face, so each
    run of equal (face, coefficient) pairs is added once, times its
    length."""
    out = {}
    terms = ((Simplex(erase_exponents(sx.gate), sx.chain), c)
             for sx, c in chain_coeffs.items())
    for (face, c), run in itertools.groupby(terms):
        n = len(list(run))
        v = out.get(face, Fraction(0)) + (c if n == 1 else c * n)
        if v:
            out[face] = v
        elif face in out:
            del out[face]
    return out


def pullback(ball, chain_coeffs):
    """rho^*: spread each apartment simplex over its fiber with weight
    1/q_w; a section of rho_* (rho_* rho^* = identity).

    Simplices with the same Weyl word and chain spread over the same
    chambers, so their coefficients are merged first and each fiber is
    written once, every chamber holding the one shared value."""
    per = ball.thickness.per_generator()
    merged = {}
    for sx, c in chain_coeffs.items():
        key = (word_gens(sx.gate), sx.chain)
        merged[key] = merged.get(key, 0) + c
    out = {}
    for (gens, chain), c in merged.items():
        if not c:
            continue
        share = Fraction(c) / math.prod(per[s] for s in gens)
        for gate in fibre(gens, per):
            out[Simplex(gate, chain)] = share
    return out
