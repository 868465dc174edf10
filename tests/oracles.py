"""Independent second-route oracles used by the test suite.

Each function recomputes a quantity by a method unrelated to the library
implementation: fraction-free Bareiss elimination for matrix ranks, a
brute-force rewriting search for right-angled canonical forms, plain long
division for series coefficients, reflection-matrix enumeration for
parabolic finiteness, vertex degrees with Betti numbers for circle
nerves, term-by-term evaluation of a polynomial at a rational point, and
the minimal polynomial of 2cos(pi/N) with every Dickson polynomial built
from scratch.  Deliberately simple and slow.  The rest are checks
the library does not run: d∘d = 0 on a whole complex, the cone test, the
rate comparison bounds, the count side of the pullback norms, and the
inverse of the machine report encoding.
"""

import json
import math
from fractions import Fraction

from coxinv.algebraic import cyclotomic, dickson
from coxinv.building import lp_power_sum
from coxinv.davis import nerve_complex
from coxinv.elements import ReflectionRep
from coxinv.errors import DegenerateWeights
from coxinv.growth import layer_class_counts
from coxinv.homology import betti_numbers
from coxinv.report import INF_TOKEN, NEG_INF_TOKEN


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


def nerve_circle_by_degrees(M):
    """Nerve a triangulated circle, from vertex degrees, edge counts and
    Betti numbers: a 1-dimensional complex on at least three vertices with
    as many edges as vertices, every vertex of degree 2, and b = [1, 1]."""
    N = nerve_complex(M)
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


def lp_pullback_partial_sums(M, thickness, p, radius, caps=None):
    """Partial sums through each radius of sum_w q_w^(1-p): the p-th power
    of the pullback norm of the apartment's chamber indicator, radius by
    radius, from the Weyl class counts.  Exact Fractions for integer p,
    kernel maps for half-integer, floats otherwise."""
    p = Fraction(p)
    counts, _src = layer_class_counts(M, radius, caps=caps)
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
