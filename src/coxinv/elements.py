"""Group elements and metric balls.

One breadth-first loop enumerates balls in either of two representations
of the elements; both give the same per-length class counts:

* matrix: exact matrices of the geometric reflection representation,
  whose entries lie in the ring Z[2cos(pi/N)] and so have int
  coordinates; works for every system; the descent test is the certified
  sign of each coordinate of the column w(alpha_s).
* word: right-angled systems only; lexicographically least reduced words
  (commutation-trace normal forms), where one backward scan over a word
  finds its right descents and where each other generator lands.

A ball records only the conjugacy-class vector of each element.  For
right-angled systems a counting recurrence over descent sets gives the
per-length class counts to any depth without storing elements; run with
all generators in one class it gives the exact ball sizes from at most
2^rank states per length.  growth.counting_route reads those sizes to
choose the counting route before any per-class layer or ball is built:
BFS to the requested depth when that ball fits the caps, else BFS to the
validation depth as a check of the recurrence.  The source tag ("bfs" or
"recurrence") is therefore a function of the counts and the caps in
force, and the layer cache derives it on every hit instead of storing
it.
"""

import os
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from math import inf

from .algebraic import CycloField
from .errors import NotRightAngled, ResourceExceeded, SchemaError

DEFAULT_MAX_ELEMENTS = 2_000_000
DEFAULT_MAX_SIMPLICES = 50_000


def checked_int(value, least, name):
    """value, an int or its decimal text, as an int >= least; SchemaError
    naming it otherwise."""
    try:
        n = int(value)
    except (TypeError, ValueError):
        raise SchemaError(f"{name} must be an integer, got {value!r}") \
            from None
    if n < least:
        raise SchemaError(f"{name} must be >= {least}, got {n}")
    return n


@dataclass(frozen=True)
class Caps:
    """Resource ceilings; see COXINV_MAX_ELEMENTS / COXINV_MAX_SIMPLICES."""
    max_elements: int = DEFAULT_MAX_ELEMENTS
    max_simplices: int = DEFAULT_MAX_SIMPLICES

    @staticmethod
    def from_env(max_elements=None):
        if max_elements is None:
            max_elements = checked_int(
                os.environ.get("COXINV_MAX_ELEMENTS", DEFAULT_MAX_ELEMENTS),
                1, "COXINV_MAX_ELEMENTS")
        return Caps(max_elements, checked_int(
            os.environ.get("COXINV_MAX_SIMPLICES", DEFAULT_MAX_SIMPLICES),
            1, "COXINV_MAX_SIMPLICES"))


class ReflectionRep:
    """Exact geometric representation of (W, S).

    Matrices are stored as tuples of columns; column j holds the coordinates
    of w(alpha_j) in the simple-root basis, each coordinate a field element.
    """

    def __init__(self, M):
        self.M = M
        self.field = CycloField(M.finite_entry_lcm())
        F = self.field
        n = M.rank
        self.coeff = [[None] * n for _ in range(n)]
        for s in range(n):
            for t in range(n):
                if s == t:
                    continue
                mst = M.entry(s, t)
                self.coeff[s][t] = F.two_cos_pi_over(None if mst is inf else mst)
        zero, one = F.zero, F.one
        self.identity = tuple(
            tuple(one if i == j else zero for i in range(n)) for j in range(n))

    def apply_gen(self, cols, s):
        """Matrix of w*s from the matrix of w (column operations)."""
        F = self.field
        n = self.M.rank
        col_s = cols[s]
        out = []
        for j in range(n):
            if j == s:
                out.append(tuple(F.neg(x) for x in col_s))
                continue
            c = self.coeff[s][j]
            if F.is_zero(c):
                out.append(cols[j])
            else:
                out.append(tuple(F.add(cols[j][i], F.mul(c, col_s[i]))
                                 for i in range(n)))
        return tuple(out)

    def is_descent(self, cols, s):
        """l(ws) < l(w) iff w(alpha_s) has every coordinate <= 0."""
        return all(self.field.sign(x) <= 0 for x in cols[s])


def commutation_table(M):
    n = M.rank
    return [[i != j and M.entry(i, j) == 2 for j in range(n)] for i in range(n)]


def blocker_masks(M):
    """Per generator s, the bitmask of the other generators that do not
    commute with s (right-angled case)."""
    n = M.rank
    return [sum(1 << t for t in range(n) if t != s and M.entry(s, t) != 2)
            for s in range(n)]


def word_children(word, blockers):
    """(s, canonical reduced word of w*s) for each generator s with
    l(ws) > l(w), from the canonical word of w (right-angled case).

    One backward scan finds every right descent and every non-descent's
    floor: s is a descent when an s occurs after every letter that does
    not commute with s, and otherwise s lands after the last such letter
    (its floor) and before the first larger letter past it, which keeps
    the word lexicographically least among all reduced expressions.
    """
    closed = descents = 0
    floor = [0] * len(blockers)
    i = len(word)
    full = (1 << len(blockers)) - 1
    while i and closed != full:
        i -= 1
        t = word[i]
        bit = 1 << t
        if not closed & bit:
            descents |= bit
        fresh = blockers[t] & ~closed
        closed |= fresh | bit
        while fresh:
            low = fresh & -fresh
            floor[low.bit_length() - 1] = i + 1
            fresh ^= low
    n = len(word)
    for s, p in enumerate(floor):
        if descents >> s & 1:
            continue
        # no s lies past the floor of a non-descent s
        while p < n and word[p] < s:
            p += 1
        yield s, word[:p] + (s,) + word[p:]


class BallEnumeration:
    """Breadth-first layers of (W, S) up to a radius.

    layers[k] lists the conjugacy-class vectors of the elements of length
    k, one entry per element.  group_exhausted marks that expansion emptied
    before the radius, i.e. the group is finite and fully enumerated.
    """

    def __init__(self, layers, group_exhausted):
        self.layers = layers
        self.group_exhausted = group_exhausted

    def class_counts(self):
        """Per length: dict class_vector -> element count, keys sorted as
        the layer cache returns them."""
        return [dict(sorted(Counter(layer).items())) for layer in self.layers]


def ball_enumerate(M, radius, caps, backend="auto"):
    """Enumerate the ball of the given radius, one layer at a time.

    A step by a non-descent generator lengthens an element by one, so every
    child of a length-k element has length k + 1 and duplicates can only
    fall inside the new layer: each layer is a dict keyed by the element
    itself, and earlier layers keep only their class vectors.

    All-or-nothing: exceeding caps raises ResourceExceeded without returning
    partial layers, as soon as the element past the cap is recorded.
    """
    if backend == "auto":
        backend = "word" if M.is_right_angled() else "matrix"
    if backend not in ("word", "matrix"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "word" and not M.is_right_angled():
        raise NotRightAngled("word backend requires all entries in {2, inf}")
    if backend == "word":
        blockers = blocker_masks(M)
        identity = ()

        def children(word):
            return word_children(word, blockers)
    else:
        rep = ReflectionRep(M)
        identity = rep.identity

        def children(cols):
            for s in range(M.rank):
                if not rep.is_descent(cols, s):
                    yield s, rep.apply_gen(cols, s)

    class_of = M.class_of()
    zero_cv = (0,) * len(M.conjugacy_classes())
    layer = {identity: zero_cv}
    layers = [[zero_cv]]
    total = 1
    exhausted = False
    for k in range(radius):
        room = caps.max_elements - total
        new = {}
        bumped = {}     # (class vector, class) -> that vector plus one
        for x, cv in layer.items():
            for s, y in children(x):
                if y not in new:
                    key = (cv, class_of[s])
                    if key not in bumped:
                        c = key[1]
                        bumped[key] = cv[:c] + (cv[c] + 1,) + cv[c + 1:]
                    new[y] = bumped[key]
                    if len(new) > room:
                        raise ResourceExceeded(
                            f"ball size exceeds cap {caps.max_elements} "
                            f"at radius {k + 1}")
        if not new:
            exhausted = True
            break
        total += len(new)
        layers.append(list(new.values()))
        layer = new
    return BallEnumeration(layers, exhausted)


def check_layer_width(layer, k, caps):
    """Refuse length k when its counts hold more than max_elements class
    vectors: this bounds the descent recurrence's (descent set, class
    vector) states, and a cached record of the counts replays it."""
    if len(layer) > caps.max_elements:
        raise ResourceExceeded(f"length {k} holds more than "
                               f"{caps.max_elements} class vectors")


def racg_layer_counts(M, depth, caps):
    """Per-length dict {class_vector: count} for a right-angled system via
    the descent-set recurrence, no element storage; check_layer_width
    holds each length against the caps."""
    return _descent_recurrence(M, depth, M.class_of(), caps)


def racg_ball_sizes(M, depth):
    """Ball sizes through lengths 0..depth of a right-angled system: the
    descent-set recurrence with every generator in one class, so at most
    2^rank states per length."""
    layers = _descent_recurrence(M, depth, [0] * M.rank, Caps())
    return list(accumulate(sum(layer.values()) for layer in layers))


def _descent_recurrence(M, depth, class_of, caps):
    """Per-length {class_vector: count}, generator s counted in class
    class_of[s].

    Each element of length k+1 has a unique canonical parent: strip the least
    descent.  So counting states (descent set D, appended letter s) with
    s not in D and s < every commuting member of D counts each element once.
    """
    if not M.is_right_angled():
        raise NotRightAngled("counting recurrence requires a right-angled system")
    n = M.rank
    commute = commutation_table(M)
    # transitions: state bitmask D -> list of (s, D')
    trans = {}

    def succs(D):
        if D in trans:
            return trans[D]
        out = []
        for s in range(n):
            if D >> s & 1:
                continue
            ok = True
            D2 = 1 << s
            for t in range(n):
                if D >> t & 1:
                    if commute[s][t]:
                        if t < s:
                            ok = False
                            break
                        D2 |= 1 << t
            if ok:
                out.append((s, D2))
        trans[D] = out
        return out

    zero = (0,) * (max(class_of, default=0) + 1)
    states = {0: {zero: 1}}
    result = [{zero: 1}]
    for k in range(depth):
        nxt = {}
        layer = {}
        for D, vecs in states.items():
            for s, D2 in succs(D):
                ci = class_of[s]
                tgt = nxt.setdefault(D2, {})
                for cv, cnt in vecs.items():
                    cv2 = cv[:ci] + (cv[ci] + 1,) + cv[ci + 1:]
                    tgt[cv2] = tgt.get(cv2, 0) + cnt
                    layer[cv2] = layer.get(cv2, 0) + cnt
        check_layer_width(layer, k + 1, caps)
        states = nxt
        result.append(layer)
    return result
