"""Independent second-route oracles used by the test suite.

Each function recomputes a quantity by a method unrelated to the library
implementation: fraction-free Bareiss elimination for matrix ranks, a
brute-force rewriting search for right-angled canonical forms, plain long
division for series coefficients, and reflection-matrix enumeration for
parabolic finiteness.  Deliberately simple and slow.
"""

from fractions import Fraction


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
    from coxinv.elements import ReflectionRep

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
