"""Group elements and metric balls.

Two interchangeable enumeration backends produce identical ball data:

* matrix backend: elements are exact matrices of the geometric reflection
  representation, whose entries lie in the ring Z[2cos(pi/N)] and so have
  int coordinates; works for every system; the descent test is the
  certified sign of each coordinate of the column w(alpha_s).
* word backend: right-angled systems only; elements are lexicographically
  least reduced words (commutation-trace normal forms), where appending a
  generator is O(length).

The word backend also yields a counting recurrence over descent sets that
extends per-length class-type counts far beyond what explicit enumeration
can store; growth-series code cross-validates it against true BFS layers.
"""

import os
from dataclasses import dataclass, field
from math import inf

from .algebraic import CycloField
from .errors import NotRightAngled, ResourceExceeded

DEFAULT_MAX_ELEMENTS = 2_000_000
DEFAULT_MAX_SIMPLICES = 50_000


@dataclass(frozen=True)
class Caps:
    """Resource ceilings; see COXINV_MAX_ELEMENTS / COXINV_MAX_SIMPLICES."""
    max_elements: int = DEFAULT_MAX_ELEMENTS
    max_simplices: int = DEFAULT_MAX_SIMPLICES

    @staticmethod
    def from_env(max_elements=None, max_simplices=None):
        if max_elements is None:
            max_elements = int(os.environ.get("COXINV_MAX_ELEMENTS", DEFAULT_MAX_ELEMENTS))
        if max_simplices is None:
            max_simplices = int(os.environ.get("COXINV_MAX_SIMPLICES", DEFAULT_MAX_SIMPLICES))
        return Caps(max_elements, max_simplices)


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

    def word_matrix(self, word):
        m = self.identity
        for s in word:
            m = self.apply_gen(m, s)
        return m


def commutation_table(M):
    n = M.rank
    return [[i != j and M.entry(i, j) == 2 for j in range(n)] for i in range(n)]


def append_letter(word, s, commute):
    """Canonical reduced word of w*s from that of w (right-angled case).

    Returns (new_word, shorter).  Cancellation: an s occurrence erases when
    everything after it commutes with s.  Otherwise s lands after its last
    non-commuting letter and before the first larger letter, which keeps the
    word lexicographically least among all reduced expressions.
    """
    row = commute[s]
    for i in range(len(word) - 1, -1, -1):
        t = word[i]
        if t == s:
            return word[:i] + word[i + 1:], True
        if not row[t]:
            break
    p0 = 0
    for i in range(len(word) - 1, -1, -1):
        if not row[word[i]]:
            p0 = i + 1
            break
    p = len(word)
    for i in range(p0, len(word)):
        if word[i] > s:
            p = i
            break
    return word[:p] + (s,) + word[p:], False


@dataclass
class GroupElement:
    """A group element with its canonical data.

    word is a reduced witness (the canonical normal form under the word
    backend); the exact matrix is materialized on first access.
    """
    rep: ReflectionRep
    word: tuple
    length: int
    class_vector: tuple
    descent_mask: int
    _matrix: tuple = field(default=None, repr=False)

    @property
    def matrix(self):
        if self._matrix is None:
            self._matrix = self.rep.word_matrix(self.word)
        return self._matrix

    def descents(self):
        return frozenset(s for s in range(self.rep.M.rank)
                         if self.descent_mask >> s & 1)


class BallEnumeration:
    """Breadth-first layers of (W, S) up to a radius.

    layers[k] is a list of records (key, word, class_vector, descent_mask)
    sorted by key; keys are canonical (normal-form word, or flattened exact
    matrix).  group_exhausted marks that expansion emptied before the radius,
    i.e. the group is finite and fully enumerated.
    """

    def __init__(self, M, radius, layers, group_exhausted, backend):
        self.M = M
        self.radius = radius
        self.layers = layers
        self.group_exhausted = group_exhausted
        self.backend = backend
        self.rep = None

    def layer_sizes(self):
        return [len(l) for l in self.layers]

    def ball_sizes(self):
        out, tot = [], 0
        for l in self.layers:
            tot += len(l)
            out.append(tot)
        return out

    def class_counts(self):
        """Per length: dict class_vector -> element count."""
        out = []
        for layer in self.layers:
            d = {}
            for rec in layer:
                cv = rec[2]
                d[cv] = d.get(cv, 0) + 1
            out.append(d)
        return out

    def elements(self, length=None):
        if self.rep is None:
            self.rep = ReflectionRep(self.M)
        lengths = range(len(self.layers)) if length is None else [length]
        for k in lengths:
            for key, word, cv, mask in self.layers[k]:
                yield GroupElement(self.rep, word, k, cv, mask)


def ball_enumerate(M, radius, caps=None, backend="auto"):
    """Enumerate the ball of the given radius with canonical deduplication.

    All-or-nothing: exceeding caps raises ResourceExceeded without returning
    partial layers.
    """
    caps = caps or Caps.from_env()
    if backend == "auto":
        backend = "word" if M.is_right_angled() else "matrix"
    if backend not in ("word", "matrix"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "word" and not M.is_right_angled():
        raise NotRightAngled("word backend requires all entries in {2, inf}")
    if backend == "word":
        return _ball_words(M, radius, caps)
    return _ball_matrices(M, radius, caps)


def _ball_words(M, radius, caps):
    n = M.rank
    commute = commutation_table(M)
    class_of = M.class_of()
    nclasses = len(M.conjugacy_classes())
    zero_cv = (0,) * nclasses

    layers = [[((), (), zero_cv, 0)]]
    seen = {()}
    total = 1
    frontier = [((), zero_cv)]
    exhausted = False
    for k in range(radius):
        new = {}
        for word, cv in frontier:
            for s in range(n):
                nw, shorter = append_letter(word, s, commute)
                if not shorter and nw not in seen and nw not in new:
                    cv2 = list(cv)
                    cv2[class_of[s]] += 1
                    new[nw] = tuple(cv2)
        if not new:
            exhausted = True
            break
        total += len(new)
        if total > caps.max_elements:
            raise ResourceExceeded(
                f"ball size exceeds cap {caps.max_elements} at radius {k + 1}")
        seen.update(new)
        ordered = sorted(new.items())
        frontier = ordered
        layers.append([(w, w, cv, 0) for w, cv in ordered])

    # descent masks: s is a descent iff appending s shortens
    out_layers = []
    for layer in layers:
        recs = []
        for key, word, cv, _ in layer:
            mask = 0
            for s in range(n):
                _, shorter = append_letter(word, s, commute)
                if shorter:
                    mask |= 1 << s
            recs.append((key, word, cv, mask))
        out_layers.append(recs)
    return BallEnumeration(M, radius, out_layers, exhausted, "word")


def _ball_matrices(M, radius, caps):
    rep = ReflectionRep(M)
    F = rep.field
    n = M.rank
    class_of = M.class_of()
    nclasses = len(M.conjugacy_classes())
    zero_cv = (0,) * nclasses

    def keyof(cols):
        return tuple(x for col in cols for cell in col for x in cell)

    ident = rep.identity
    layers = [[(keyof(ident), (), zero_cv, 0)]]
    seen = {keyof(ident)}
    frontier = [(ident, (), zero_cv)]
    total = 1
    exhausted = False
    masks = {keyof(ident): 0}
    for k in range(radius):
        new = {}
        for cols, word, cv in frontier:
            for s in range(n):
                if rep.is_descent(cols, s):
                    masks[keyof(cols)] |= 1 << s
                    continue
                cols2 = rep.apply_gen(cols, s)
                key2 = keyof(cols2)
                if key2 in seen or key2 in new:
                    continue
                cv2 = list(cv)
                cv2[class_of[s]] += 1
                new[key2] = (cols2, word + (s,), tuple(cv2))
        if not new:
            exhausted = True
            break
        total += len(new)
        if total > caps.max_elements:
            raise ResourceExceeded(
                f"ball size exceeds cap {caps.max_elements} at radius {k + 1}")
        seen.update(new)
        ordered = sorted(new.items())
        for key2, _ in ordered:
            masks[key2] = 0
        frontier = [(cols, word, cv) for _, (cols, word, cv) in ordered]
        layers.append([(key2, word, cv, 0) for key2, (cols, word, cv) in ordered])

    # every expanded element accumulated its full mask; only the final layer
    # (never expanded) needs a direct computation
    out_layers = []
    for k, layer in enumerate(layers):
        recs = []
        for key, word, cv, _ in layer:
            mask = masks.get(key, 0)
            if k == len(layers) - 1 and not exhausted:
                cols = rep.word_matrix(word)
                mask = 0
                for s in range(n):
                    if rep.is_descent(cols, s):
                        mask |= 1 << s
            recs.append((key, word, cv, mask))
        out_layers.append(recs)
    return BallEnumeration(M, radius, out_layers, exhausted, "matrix")


def racg_layer_counts(M, depth, track_classes=False):
    """Per-length counts (optionally per class-type vector) for a
    right-angled system via the descent-set recurrence, no element storage.

    Each element of length k+1 has a unique canonical parent: strip the least
    descent.  So counting states (descent set D, appended letter s) with
    s not in D and s < every commuting member of D counts each element once.
    """
    if not M.is_right_angled():
        raise NotRightAngled("counting recurrence requires a right-angled system")
    n = M.rank
    commute = commutation_table(M)
    class_of = M.class_of()
    nclasses = len(M.conjugacy_classes())
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

    if track_classes:
        zero = (0,) * nclasses
        states = {0: {zero: 1}}
        result = [{zero: 1}]
        for _ in range(depth):
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
            states = nxt
            result.append(layer)
        return result
    states = {0: 1}
    result = [1]
    for _ in range(depth):
        nxt = {}
        for D, cnt in states.items():
            for s, D2 in succs(D):
                nxt[D2] = nxt.get(D2, 0) + cnt
        states = nxt
        result.append(sum(nxt.values()))
    return result
