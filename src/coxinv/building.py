"""Right-angled buildings as graph products of cyclic groups.

For a right-angled system (W, S) and a thickness vector q, the graph
product of the groups Z/(q_s + 1) over the commutation graph acts on a
building whose chambers are the group elements; syllable normal forms give
canonical chamber names, and erasing exponents is the retraction rho onto
the base apartment (a copy of W, realized here as the q = 1 building).
A ball is built as rho describes it: the canonical Coxeter words of the
apartment ball, each times its fibre of q_w exponent choices.  The panel
axioms are then checked through the syllable arithmetic (append_syllable
and the gates), which the construction never calls.

Simplices of the geometric realization are chains of nested spherical
residues, identified by (gate chamber, increasing chain of spherical
subsets).  Everything stays exact: coefficients are rationals, and l^p
norm comparisons for integer and half-integer p reduce to rational vectors
over an explicit basis of square roots, whose signs are decided in integer
arithmetic (by the signs of the coefficients, or else by integer square
roots of the kernels scaled by 4^P).  Only other p go through mpmath
intervals, so the default p grid never imports mpmath.
"""

import bisect
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .algebraic import iv_precision
from .elements import blocker_masks, commutation_table, word_children
from .errors import (MarginViolation, NotRightAngled, ResourceExceeded,
                     SchemaError, ThicknessClassError, ValidationMismatch)
from .growth import WeightVector

RADICAL_MAX_PREC = 4096  # largest P of the 2^P sqrt(k) bracket of radical sums
JENSEN_MAX_PREC = 1024   # interval bits before a norm check is indeterminate
CHAIN_SIZE = 5           # simplices per random chain of the battery


class ThicknessVector(WeightVector):
    """Per-conjugacy-class chamber multiplicities q >= 1 (q + 1 chambers
    per panel), exact integers.  A chamber over w carries the weight
    q_w = prod q_s, so the thickness is itself the weight vector of the
    chamber growth."""

    what = "thickness"
    class_error = ThicknessClassError

    @classmethod
    def exact(cls, v):
        q = super().exact(v)
        if q.denominator != 1:
            raise SchemaError(f"thickness must be an integer, got {v!r}")
        return q.numerator


# ---------------------------------------------------------------------------
# syllable normal forms

def append_syllable(word, s, e, commute, qmod):
    """Multiply a canonical syllable word by the generator power (s, e).

    Returns (new_word, delta) with delta in {-1, 0, +1}: a cancellation, an
    exponent merge, or a fresh syllable.  The canonical form is the
    lexicographically least linearization of the commutation trace, exactly
    as for Coxeter words; merges keep the trace shape, deletions rebuild.
    Deleting the last syllable leaves a prefix, which is already canonical:
    a word is the least linearization of its trace exactly when no factor
    b u a has a < b with a commuting with b and with all of u, and a
    prefix has no factor its word lacks.  One backward scan finds both a
    syllable of s to merge with and the last syllable not commuting with
    s (s does not commute with itself), after which a fresh s is placed.
    """
    e %= qmod[s]
    if e == 0:
        return word, 0
    row = commute[s]
    p0 = 0
    for i in range(len(word) - 1, -1, -1):
        t = word[i][0]
        if t == s:
            ne = (word[i][1] + e) % qmod[s]
            if ne == 0:
                if i == len(word) - 1:
                    return word[:i], -1
                return rebuild_word(word[:i] + word[i + 1:], commute, qmod), -1
            return word[:i] + ((s, ne),) + word[i + 1:], 0
        if not row[t]:
            p0 = i + 1
            break
    p = len(word)
    for i in range(p0, len(word)):
        if word[i][0] > s:
            p = i
            break
    return word[:p] + ((s, e),) + word[p:], 1


def rebuild_word(syllables, commute, qmod):
    """Recanonicalize after a deletion: removing a separator can unlock
    merges and reorderings, so fold everything through append_syllable."""
    out = ()
    for s, e in syllables:
        out, _ = append_syllable(out, s, e, commute, qmod)
    return out


def erase_exponents(word):
    return tuple([(s, 1) for s, _e in word])


def word_gens(word):
    return tuple([s for s, _e in word])


def gate_drops(word, T, commute):
    """Indices, right to left, of the syllables that the gate of word * <T>
    drops: one pass that drops each syllable with generator in T that
    commutes with every kept syllable to its right.  A dropped syllable
    commutes with all that follows it once the other drops are gone, so the
    kept syllables form a reduced word of length len(word) - len(drops)."""
    drops = []
    kept = []
    for i in range(len(word) - 1, -1, -1):
        s = word[i][0]
        if s in T:
            row = commute[s]
            for t in kept:
                if not row[t]:
                    break
            else:
                drops.append(i)
                continue
        kept.append(s)
    return drops


def drop_syllables(word, drops, commute, qmod):
    """The word without the syllables at the given indices, recanonicalized
    by one rebuild.  No rebuild when nothing is dropped or when the drops
    are a suffix (drops holds distinct indices, so a smallest index of
    len(word) - len(drops) means exactly the last len(drops)): a prefix of
    a canonical word is canonical."""
    if not drops:
        return word
    if min(drops) == len(word) - len(drops):
        return word[:len(word) - len(drops)]
    gone = set(drops)
    return rebuild_word([syl for i, syl in enumerate(word) if i not in gone],
                        commute, qmod)


def gate_word(word, T, commute, qmod):
    """Minimal-length representative of the coset word * <T>."""
    return drop_syllables(word, gate_drops(word, T, commute), commute, qmod)


# ---------------------------------------------------------------------------
# chamber enumeration

@dataclass
class BuildingBall:
    """All chambers of gallery length <= radius, with the fibration over
    the Weyl ball.  A q = 1 instance is the base apartment itself."""
    M: object
    thickness: ThicknessVector
    radius: int
    chambers: list              # canonical syllable words, sorted by (length, word)
    fibers: dict                # W-word (gens tuple) -> list of chamber words
    commute: tuple
    qmod: tuple                 # per generator: q_s + 1
    spherical_types: frozenset  # sorted generator tuples, () included
    # chain as given -> validated chain, filled by make_simplex
    checked_chains: dict = field(default_factory=dict, compare=False,
                                 repr=False)
    # what random_simplices draws from, made on its first call
    sampling_plan: tuple = field(default=None, compare=False, repr=False)

    def sphere_sizes(self):
        out = [0] * (self.radius + 1)
        for c in self.chambers:
            out[len(c)] += 1
        return out

    def q_of_word(self, w_word):
        per = self.thickness.per_generator()
        out = 1
        for s in w_word:
            out *= per[s]
        return out


def fibre(gens, per):
    """The chambers over the Weyl word gens (a canonical Coxeter word):
    the word with one exponent 1..q_s on each letter, in increasing
    order.  Two syllables of one letter never sit side by side in a
    canonical word, so every such word is a canonical syllable word."""
    return itertools.product(*[[(s, e) for e in range(1, per[s] + 1)]
                               for s in gens])


def building_ball(system, thickness, radius):
    """The ball as the Weyl ball times its fibres, then the two panel
    axioms verified on it: every panel meeting the interior has exactly
    q_s + 1 chambers, and each has a unique gate (its shortest chamber)
    with all others one step longer.

    Layer k holds the fibres over the canonical words of length k, found
    by elements.word_children; each layer is sorted, since the fibres of
    different words interleave.  The system's max_elements caps the
    chamber count, checked as each new Weyl word adds its q_w chambers,
    before any fibre of its layer is built."""
    M, caps = system.M, system.caps
    if not M.is_right_angled():
        raise NotRightAngled("building model requires a right-angled system")
    blockers = blocker_masks(M)
    per = thickness.per_generator()
    chambers = [()]
    fibers = {(): [()]}
    words = [()]
    total = 1
    for _ in range(radius):
        layer = set()
        for w in words:
            for _s, w2 in word_children(w, blockers):
                if w2 not in layer:
                    layer.add(w2)
                    total += math.prod(per[s] for s in w2)
                    if total > caps.max_elements:
                        raise ResourceExceeded(
                            f"building ball exceeds {caps.max_elements} chambers")
        words = sorted(layer)
        new = []
        for w in words:
            fibers[w] = list(fibre(w, per))
            new += fibers[w]
        new.sort()
        chambers += new
    ball = BuildingBall(M, thickness, radius, chambers, fibers,
                        commutation_table(M),
                        tuple(q + 1 for q in per),
                        frozenset(tuple(sorted(T))
                                  for T in system.sphericals))
    _verify_building_axioms(ball)
    return ball


def _verify_building_axioms(ball):
    # fiber over each Weyl word has exactly q_w chambers
    for w_word, fib in ball.fibers.items():
        if len(fib) != ball.q_of_word(w_word):
            raise ValidationMismatch(
                f"fiber over {w_word} has {len(fib)} chambers, "
                f"expected {ball.q_of_word(w_word)}")
    # panels fully inside the ball: q_s + 1 chambers, unique gate
    chamber_set = set(ball.chambers)
    for g in ball.chambers:
        if len(g) + 1 > ball.radius:
            continue
        for s in range(ball.M.rank):
            panel = {g}
            for e in range(1, ball.qmod[s]):
                w2, _d = append_syllable(g, s, e, ball.commute, ball.qmod)
                panel.add(w2)
            if len(panel) != ball.qmod[s]:
                raise ValidationMismatch(
                    f"panel of size {len(panel)} != {ball.qmod[s]}")
            if not panel <= chamber_set:
                raise ValidationMismatch("panel escapes the enumerated ball")
            lengths = sorted(len(x) for x in panel)
            gate = gate_word(g, {s}, ball.commute, ball.qmod)
            if lengths.count(lengths[0]) != 1 or \
                    min(panel, key=len) != gate:
                raise ValidationMismatch("panel gate is not unique")


# ---------------------------------------------------------------------------
# simplices: chains of nested spherical residues

class Simplex(NamedTuple):
    """(gate, chain): the residue chain gate*<T_0> c ... c gate*<T_k>.

    The gate is T_0-reduced; dim = k; vertices (k = 0) with T_0 = () are
    chambers themselves.  A tuple, so hashing and equality run in C; the
    hash is hash((gate, chain)).
    """
    gate: tuple
    chain: tuple                # strictly increasing tuple of sorted tuples

    @property
    def dim(self):
        return len(self.chain) - 1


def make_simplex(ball, word, chain):
    """Canonical simplex from any chamber in the bottom residue.

    chain: iterable of generator subsets, strictly nested.  Raises
    MarginViolation when the top residue cannot be certified inside the
    enumerated radius (length of gate + |top| + 2 > radius); the margin is
    tested on the gate's length before the gate is rebuilt.
    """
    key = tuple(map(tuple, chain))
    checked = ball.checked_chains.get(key)
    if checked is None:
        checked = _check_chain(ball, key)
        ball.checked_chains[key] = checked
    drops = gate_drops(word, checked[0], ball.commute)
    gate_len = len(word) - len(drops)
    if gate_len + len(checked[-1]) + 2 > ball.radius:
        raise MarginViolation(
            f"gate length {gate_len} + top rank {len(checked[-1])} + 2 "
            f"exceeds radius {ball.radius}")
    return Simplex(drop_syllables(word, drops, ball.commute, ball.qmod),
                   checked)


def _check_chain(ball, chain):
    chain = tuple(tuple(sorted(T)) for T in chain)
    if not chain:
        raise SchemaError("empty chain")
    for a, b in zip(chain, chain[1:]):
        if not set(a) < set(b):
            raise SchemaError(f"chain not strictly nested: {a} !< {b}")
    for T in chain:
        if T not in ball.spherical_types:
            raise SchemaError(f"{T} is not spherical")
    return chain


def boundary(ball, chain_coeffs):
    """Exact boundary of a chain {Simplex: coefficient}; deleting the bottom
    type re-gates to the next residue.

    Face i carries the coefficient c for even i and -c for odd i, both
    made once per simplex.  Faces are made by tuple.__new__ on Simplex,
    which skips the Python-level constructor of the NamedTuple."""
    commute, qmod, new = ball.commute, ball.qmod, tuple.__new__
    out = {}
    for (gate, chain), c in chain_coeffs.items():
        if len(chain) == 1 or not c:
            continue
        signed = (c, -c)
        for i in range(len(chain)):
            sub = chain[:i] + chain[i + 1:]
            g = gate_word(gate, sub[0], commute, qmod) if i == 0 else gate
            _add_term(out, new(Simplex, (g, sub)), signed[i & 1])
    return out


def pushforward(chain_coeffs):
    """rho_*: erase exponents, map onto the q = 1 apartment ball.

    A pulled-back fiber is a run of one coefficient over one face, so each
    run of equal (face, coefficient) pairs is added once, times its
    length."""
    new = tuple.__new__
    out = {}
    face = c = None
    n = 0
    for (gate, chain), v in chain_coeffs.items():
        f = new(Simplex, (erase_exponents(gate), chain))
        if f == face and (v is c or v == c):
            n += 1
            continue
        if n:
            _add_term(out, face, c if n == 1 else c * n)
        face, c, n = f, v, 1
    if n:
        _add_term(out, face, c if n == 1 else c * n)
    return out


def _add_term(out, face, v):
    """out[face] += v, the face leaving the chain when the sum cancels; a
    face's first coefficient is stored as it is, with no zero to add to."""
    old = out.get(face)
    if old is not None:
        v += old
    if v:
        out[face] = v
    elif old is not None:
        del out[face]


def pullback(ball, chain_coeffs):
    """rho^*: spread each apartment simplex over its fiber with weight
    1/q_w; a section of rho_* (rho_* rho^* = identity).  The simplices
    lie in the ball, whose fibres are read from ball.fibers.

    Simplices with the same Weyl word and chain spread over the same
    chambers, so their coefficients are merged first and each fiber is
    written once, every chamber holding the one shared value."""
    merged = {}
    for (gate, chain), c in chain_coeffs.items():
        key = (word_gens(gate), chain)
        old = merged.get(key)
        merged[key] = c if old is None else old + c
    new, fibers = tuple.__new__, ball.fibers
    out = {}
    for (gens, chain), c in merged.items():
        if not c:
            continue
        fib = fibers[gens]
        share = Fraction(c) / len(fib)
        for gate in fib:
            out[new(Simplex, (gate, chain))] = share
    return out


# ---------------------------------------------------------------------------
# exact l^p machinery

def _squarefree_split(n):
    """n = a^2 * k with k squarefree; returns (a, k).  Trial division is
    plenty for chain coefficients."""
    a, k = 1, 1
    d = 2
    while d * d <= n:
        cnt = 0
        while n % d == 0:
            n //= d
            cnt += 1
        a *= d ** (cnt // 2)
        if cnt % 2:
            k *= d
        d += 1 if d == 2 else 2
    return a, k * n


def _sqrt_fraction(fr):
    """sqrt(fr) = rational * sqrt(squarefree kernel)."""
    m = fr.numerator * fr.denominator
    a, k = _squarefree_split(m)
    return Fraction(a, fr.denominator), k


def _abs_counts(values):
    """{|v|: multiplicity}.  Runs of one object (a pulled-back fiber shares
    its value) are counted before anything is hashed."""
    counts = {}
    prev, n = None, 0
    for v in values:
        if v is prev:
            n += 1
            continue
        if n:
            a = abs(prev)
            counts[a] = counts.get(a, 0) + n
        prev, n = v, 1
    if n:
        a = abs(prev)
        counts[a] = counts.get(a, 0) + n
    return counts


def _counted_power_sum(counts, p):
    """Sum of |v|^p over {|v|: multiplicity} as {squarefree kernel:
    rational coefficient}, for integer or half-integer p whose numerator
    is at most 1000; None for any other p, which the caller compares by
    certified intervals (an exact power of huge p need never finish).
    Each distinct |v| is raised to the power once."""
    p = Fraction(p)
    if p.numerator > 1000:
        return None
    if p.denominator == 1:
        e = int(p)
        return {1: Fraction(sum(av ** e * n for av, n in counts.items()))}
    if p.denominator != 2:
        return None
    half = (p.numerator - 1) // 2
    out = {}
    for av, n in counts.items():
        if av == 0:
            continue
        av = Fraction(av)
        root_rat, kernel = _sqrt_fraction(av)
        term = av ** half * root_rat * n
        old = out.get(kernel)
        out[kernel] = term if old is None else old + term
    return out or {1: Fraction(0)}


def compare_radical_sums(A, B):
    """Sign of A - B where each side is {squarefree kernel: rational
    coeff}.  Equality is syntactic (square roots of distinct squarefree
    integers are linearly independent over Q), and a difference whose
    coefficients share one sign has that sign.  Otherwise the difference
    times the common denominator D of its coefficients and 2^P is
    bracketed in integers, by isqrt(k 4^P) <= 2^P sqrt(k) <
    isqrt(k 4^P) + 1 on each kernel k, with P doubling from 64 to
    RADICAL_MAX_PREC until the bracket excludes zero."""
    diff = dict(A)
    for k, v in B.items():
        diff[k] = diff.get(k, 0) - v
    terms = [(k, v) for k, v in diff.items() if v]
    if not terms:
        return 0
    if all(v > 0 for _k, v in terms):
        return 1
    if all(v < 0 for _k, v in terms):
        return -1
    den = math.lcm(*(v.denominator for _k, v in terms))
    terms = [(k, v.numerator * (den // v.denominator)) for k, v in terms]
    prec = 64
    while prec <= RADICAL_MAX_PREC:
        lo = hi = 0
        for k, c in terms:
            s = math.isqrt(k << (2 * prec))
            if c > 0:
                lo += c * s
                hi += c * (s + 1)
            else:
                lo += c * (s + 1)
                hi += c * s
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        prec *= 2
    raise ArithmeticError("radical comparison did not separate")


def _counted_interval_sum(counts, p, prec):
    """An interval enclosing the sum of |v|^p over {|v|: multiplicity}."""
    with iv_precision(prec) as iv:
        pv = iv.mpf(Fraction(p).numerator) / iv.mpf(Fraction(p).denominator)
        tot = iv.mpf(0)
        for av, n in counts.items():
            if av == 0:
                continue
            av = Fraction(av)
            x = iv.mpf(av.numerator) / iv.mpf(av.denominator)
            tot += iv.exp(pv * iv.log(x)) * n
        return tot


@dataclass
class JensenResult:
    holds: object          # True | False | None (indeterminate)
    comparison: str        # "equal" | "strict" | "interval" | "indeterminate"
    p: Fraction


def jensen_check(ball, chain_coeffs, p_values):
    """Does ||rho^* rho_* eta||_p <= ||eta||_p hold for this chain?  One
    JensenResult per p in p_values; theta = rho^* rho_* eta and each
    side's {|v|: multiplicity} are built once.

    Exact for integer and half-integer p; otherwise certified intervals,
    with None when the two sides cannot be separated (e.g. equality at
    irrational p).
    """
    p_values = [Fraction(p) for p in p_values]
    if any(p < 1 for p in p_values):
        raise SchemaError("p must be >= 1")
    theta = pullback(ball, pushforward(chain_coeffs))
    clean = {k: v for k, v in chain_coeffs.items() if v}
    if theta == clean:
        return [JensenResult(True, "equal", p) for p in p_values]
    lhs, rhs = _abs_counts(theta.values()), _abs_counts(clean.values())
    return [_compare_norms(lhs, rhs, p) for p in p_values]


def _compare_norms(lhs_counts, rhs_counts, p):
    """The Jensen verdict at p from each side's {|v|: multiplicity}."""
    lhs = _counted_power_sum(lhs_counts, p)
    rhs = _counted_power_sum(rhs_counts, p)
    if lhs is not None and rhs is not None:
        sign = compare_radical_sums(lhs, rhs)
        return JensenResult(sign <= 0, "equal" if sign == 0 else "strict", p)
    prec = 64
    while prec <= JENSEN_MAX_PREC:
        lo = _counted_interval_sum(lhs_counts, p, prec)
        hi = _counted_interval_sum(rhs_counts, p, prec)
        if lo.b < hi.a:
            return JensenResult(True, "interval", p)
        if lo.a > hi.b:
            return JensenResult(False, "interval", p)
        prec *= 2
    return JensenResult(None, "indeterminate", p)


# ---------------------------------------------------------------------------
# critical exponents

@dataclass
class CriticalExponents:
    """p_hom = 1 + e_q and p_cohom = 1 + 1/e_q; e_q = 0 (polynomial
    chamber growth) sends the cohomological exponent to infinity, and a
    thin building (q = 1) has p_hom infinite with p_cohom = 1."""
    p_hom: float
    p_cohom: float
    p_hom_bracket: tuple
    p_cohom_bracket: tuple
    e_q: object            # GrowthRateEstimate | None for thin
    thin: bool


def critical_exponents(system, thickness):
    """The exponents of the building of this thickness, from the System's
    memoised rate; System.exponents memoises them in turn."""
    if thickness.all_one():
        return CriticalExponents(math.inf, 1.0, (math.inf, math.inf),
                                 (1.0, 1.0), None, True)
    e_q = system.rate(thickness)
    lo, hi = e_q.bracket
    if e_q.value == 0.0 and e_q.exact:
        return CriticalExponents(1.0, math.inf, (1.0, 1.0),
                                 (math.inf, math.inf), e_q, False)
    p_hom = 1.0 + e_q.value
    p_cohom = math.inf if e_q.value == 0 else 1.0 + 1.0 / e_q.value
    pc_lo = 1.0 + 1.0 / hi if hi > 0 else math.inf
    pc_hi = math.inf if lo <= 0 else 1.0 + 1.0 / lo
    return CriticalExponents(p_hom, p_cohom, (1.0 + lo, 1.0 + hi),
                             (pc_lo, pc_hi), e_q, False)


# ---------------------------------------------------------------------------
# sampling helpers for the verification battery

def _randbelow(getrandbits, n):
    """random.Random.randrange(n) for n > 0: the same getrandbits calls,
    so the same draws, without randrange's argument handling."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _sampling_plan(ball):
    """(viable, types, bigger, dims) for random_simplices: the length of
    the viable prefix of the chambers, the spherical types by (size,
    tuple), for each type the indices of its strict supersets, and the
    number of dimensions drawn.  Raises ResourceExceeded on an empty
    prefix."""
    viable = bisect.bisect_right(ball.chambers, ball.radius - 2, key=len)
    if not viable:
        raise ResourceExceeded("no margin-valid simplices at this radius")
    sph = sorted(ball.spherical_types, key=lambda t: (len(t), t))
    bigger = [[j for j, U in enumerate(sph) if set(U) > set(T)] for T in sph]
    return viable, sph, bigger, max(3, len(sph[-1]) + 1)


def random_simplices(ball, rng, count):
    """count margin-valid simplices for the test battery, drawn uniformly
    as rng.randrange draws.

    Words come from the viable prefix of the length-sorted chambers, those
    of length <= radius - 2: the gate drops at most one syllable per
    generator of the spherical T_0 (they commute pairwise) and
    |top| >= |T_0|, so no longer chamber passes the margin, and the
    accepted (chamber, chain) pairs keep their distribution.  In the
    prefix the chain (()) always passes, so the loop ends; an empty prefix
    raises ResourceExceeded before any draw.  Each draw is held to the
    exact margin of make_simplex, len(word) - |gate drops| + |top| + 2 <=
    radius, and only a draw that meets it reaches make_simplex.
    Dimensions run over 0 .. max(2, d), d the largest spherical rank.
    The sampling plan is made once per ball and kept on it."""
    plan = ball.sampling_plan
    if plan is None:
        plan = ball.sampling_plan = _sampling_plan(ball)
    viable, sph, bigger, dims = plan
    chambers, radius = ball.chambers, ball.radius
    bits = rng.getrandbits
    out = []
    while len(out) < count:
        word = chambers[_randbelow(bits, viable)]
        k = _randbelow(bits, dims)
        chain = [_randbelow(bits, len(sph))]
        while len(chain) < k + 1:
            above = bigger[chain[-1]]
            if not above:
                break
            chain.append(above[_randbelow(bits, len(above))])
        drops = gate_drops(word, sph[chain[0]], ball.commute)
        if len(word) - len(drops) + len(sph[chain[-1]]) + 2 <= radius:
            out.append(make_simplex(ball, word, [sph[j] for j in chain]))
    return out


def random_chain(ball, rng, size):
    """Random homogeneous-degree chain with small rational coefficients."""
    simplices = random_simplices(ball, rng, size * 3)
    deg = simplices[0].dim
    pool = [s for s in simplices if s.dim == deg]
    out = {}
    for sx in pool[:size]:
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if c:
            out[sx] = out.get(sx, Fraction(0)) + c
    return {k: v for k, v in out.items() if v}


def oracle_battery(system, thickness, radius, p_values, chains, seed):
    """Chain-level identity battery on an explicit building ball.

    Builds the ball (axioms are re-verified during construction), then
    checks on seeded random chains: boundary squared vanishing on both the
    building and its apartment, the retraction section and both boundary
    commutation identities, and the p-norm comparison between a chain and
    its retraction for each requested exponent.  Any failed identity
    raises ValidationMismatch; the return value summarizes what was
    checked and is JSON-ready.  Bad arguments raise SchemaError before
    any ball is built.
    """
    if radius < 0:
        raise SchemaError(f"radius must be >= 0, got {radius}")
    if chains < 1:
        raise SchemaError(f"chains must be >= 1, got {chains}")
    if not p_values or any(Fraction(p) < 1 for p in p_values):
        raise SchemaError("p grid must be non-empty, with every p >= 1")
    ball = building_ball(system, thickness, radius)
    apartment = building_ball(
        system, ThicknessVector.constant(system.M, 1), radius)
    rng = random.Random(seed)
    jensen = {"strict": 0, "equal": 0, "interval": 0, "indeterminate": 0}
    for trial in range(chains):
        ch = random_chain(ball, rng, CHAIN_SIZE)
        if boundary(ball, boundary(ball, ch)) != {}:
            raise ValidationMismatch(f"boundary^2 != 0 on trial {trial}")
        if boundary(apartment, pushforward(ch)) != \
                pushforward(boundary(ball, ch)):
            raise ValidationMismatch(
                f"pushforward does not commute with boundary on trial {trial}")
        for res in jensen_check(ball, ch, p_values):
            if res.holds is False:
                raise ValidationMismatch(
                    f"norm comparison failed at p={res.p} on trial {trial}")
            jensen[res.comparison if res.holds else "indeterminate"] += 1
        ch_ap = random_chain(apartment, rng, CHAIN_SIZE)
        if boundary(apartment, boundary(apartment, ch_ap)) != {}:
            raise ValidationMismatch(
                f"apartment boundary^2 != 0 on trial {trial}")
        up = pullback(ball, ch_ap)
        if pushforward(up) != ch_ap:
            raise ValidationMismatch(
                f"retraction section identity failed on trial {trial}")
        if boundary(ball, up) != \
                pullback(ball, boundary(apartment, ch_ap)):
            raise ValidationMismatch(
                f"pullback does not commute with boundary on trial {trial}")
    return {
        "chambers": len(ball.chambers),
        "apartment_chambers": len(apartment.chambers),
        "sphere_sizes": ball.sphere_sizes(),
        "radius": radius,
        "chains_checked": chains,
        "p_values": [str(p) for p in p_values],
        "seed": seed,
        "jensen": jensen,
        "identities": ["boundary_squared_zero", "pushforward_boundary",
                       "retraction_section", "pullback_boundary",
                       "norm_comparison"],
    }
