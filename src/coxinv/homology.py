"""Exact simplicial homology over Q and pseudomanifold analysis.

Simplices are strictly increasing tuples of vertex ids (any sortable,
hashable type).  All ranks come from Gaussian elimination over Fraction,
so Betti numbers are exact integers; the test suite re-derives ranks with
an independent integer (Bareiss) elimination.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import ResourceExceeded, ValidationMismatch


class SimplicialComplexQ:
    """A finite abstract simplicial complex, closed under taking faces.

    The empty simplex is implicit and never stored; the empty complex
    (no vertices) is allowed.
    """

    def __init__(self, faces, max_simplices):
        closed = set()
        stack = []
        for f in faces:
            t = tuple(sorted(set(f)))
            if not t:
                continue
            if t not in closed:
                closed.add(t)
                stack.append(t)
        while stack:
            f = stack.pop()
            if len(closed) > max_simplices:
                raise ResourceExceeded(
                    f"simplicial complex exceeds {max_simplices} simplices")
            if len(f) == 1:
                continue
            for i in range(len(f)):
                sub = f[:i] + f[i + 1:]
                if sub not in closed:
                    closed.add(sub)
                    stack.append(sub)
        self._faces = closed
        self._by_dim = {}
        for f in closed:
            self._by_dim.setdefault(len(f) - 1, []).append(f)
        for k in self._by_dim:
            self._by_dim[k].sort()

    @property
    def dim(self):
        return max(self._by_dim) if self._by_dim else -1

    def k_faces(self, k):
        return self._by_dim.get(k, [])

    def faces(self):
        return self._faces

    def __contains__(self, face):
        return tuple(sorted(face)) in self._faces

    def __len__(self):
        return len(self._faces)

    def maximal_faces(self):
        out = []
        for f in self._faces:
            fs = set(f)
            if not any(fs < set(g) for g in self._faces if len(g) == len(f) + 1):
                out.append(f)
        return sorted(out, key=lambda f: (len(f), f))

    def euler_characteristic(self):
        return sum((-1) ** k * len(fs) for k, fs in self._by_dim.items())


# ---------------------------------------------------------------------------
# exact linear algebra

def rank_fraction(cols, nrows):
    """Rank of a matrix given as a list of sparse columns {row: Fraction}."""
    work = [dict(c) for c in cols if c]
    pivots = {}
    rank = 0
    for col in work:
        cur = dict(col)
        while cur:
            r = min(cur)
            if r in pivots:
                pr = pivots[r]
                factor = cur[r] / pr[r]
                for rr, v in pr.items():
                    nv = cur.get(rr, Fraction(0)) - factor * v
                    if nv:
                        cur[rr] = nv
                    elif rr in cur:
                        del cur[rr]
            else:
                pivots[r] = cur
                rank += 1
                break
    return rank


def boundary_columns(X, k):
    """Sparse columns of the boundary map C_k -> C_{k-1}."""
    kf = X.k_faces(k)
    row_of = {f: i for i, f in enumerate(X.k_faces(k - 1))}
    cols = []
    for f in kf:
        col = {}
        for i in range(len(f)):
            sub = f[:i] + f[i + 1:]
            r = row_of.get(sub)
            if r is not None:
                col[r] = Fraction(-1 if i % 2 else 1)
        cols.append(col)
    return cols, len(row_of), len(kf)


def betti_numbers(X, reduced=False):
    """Betti numbers over Q, absolute or reduced.

    reduced lowers b_0 by one on a nonempty complex.
    """
    d = X.dim
    if d < 0:
        return []
    ranks = {}
    dims = {}
    for k in range(d + 2):
        cols, nrows, ncols = boundary_columns(X, k)
        dims[k] = ncols
        ranks[k] = rank_fraction(cols, nrows)
    out = []
    for k in range(d + 1):
        b = dims[k] - ranks[k] - ranks[k + 1]
        out.append(b)
    if reduced and out:
        out[0] -= 1
    return out


# ---------------------------------------------------------------------------
# pseudomanifold structure

@dataclass
class PMVerdict:
    """Answers for the top-dimensional structure of a complex.

    orientable and fundamental_cycle are None unless the complex is a
    connected pseudomanifold; the orientation verdict is checked against
    the top Betti number, and the fundamental cycle carries integer signs
    and is verified to have exact zero boundary.
    """
    dim: int
    purely_dimensional: bool
    pseudomanifold: bool
    gallery_connected: bool
    orientable: object          # bool | None
    fundamental_cycle: object   # {face: +1/-1} | None

    @property
    def is_pm(self):
        return self.pseudomanifold and self.gallery_connected


def pm_verdict(X):
    d = X.dim
    if d < 0:
        return PMVerdict(-1, False, False, False, None, None)
    top = X.k_faces(d)
    maxes = X.maximal_faces()
    purely = all(len(f) == d + 1 for f in maxes)

    if d == 0:
        # by convention a 0-pseudomanifold is exactly two points
        pseudo = purely and len(top) == 2
        if pseudo:
            a, b = top
            cyc = {a: 1, b: -1}
            return PMVerdict(0, purely, True, True, True, cyc)
        return PMVerdict(0, purely, pseudo, len(top) == 1, None, None)

    # every ridge in exactly two top faces
    ridge_count = {}
    for f in top:
        for i in range(len(f)):
            r = f[:i] + f[i + 1:]
            ridge_count.setdefault(r, []).append(f)
    pseudo = purely and all(len(v) == 2 for v in ridge_count.values())

    # gallery connectivity of the dual graph (through shared ridges)
    adj = {f: set() for f in top}
    for r, fs in ridge_count.items():
        for a in fs:
            for b in fs:
                if a != b:
                    adj[a].add(b)
    connected = False
    if top:
        seen = {top[0]}
        stack = [top[0]]
        while stack:
            cur = stack.pop()
            for nb in adj[cur]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        connected = len(seen) == len(top)

    orientable = None
    cycle = None
    if pseudo and connected:
        orientable, cycle = _propagate_orientation(top, ridge_count)
        # a second route: a connected pseudomanifold is orientable exactly
        # when its top homology over Q is one-dimensional
        b_top = betti_numbers(X)[d]
        if orientable != (b_top == 1):
            raise ValidationMismatch(
                f"orientation propagation says orientable={orientable}, "
                f"but the top Betti number b_{d} is {b_top}")
        if orientable and not _cycle_boundary_is_zero(cycle):
            raise ValidationMismatch("fundamental cycle has nonzero boundary")
    return PMVerdict(d, purely, pseudo, connected, orientable, cycle)


def _ridge_sign(face, ridge):
    i = face.index(next(v for v in face if v not in ridge))
    return -1 if i % 2 else 1


def _propagate_orientation(top, ridge_count):
    sign = {top[0]: 1}
    stack = [top[0]]
    while stack:
        f = stack.pop()
        for i in range(len(f)):
            r = f[:i] + f[i + 1:]
            pair = ridge_count[r]
            g = pair[0] if pair[1] == f else pair[1]
            want = -sign[f] * _ridge_sign(f, r) * _ridge_sign(g, r)
            if g in sign:
                if sign[g] != want:
                    return False, None
            else:
                sign[g] = want
                stack.append(g)
    return True, sign


def _cycle_boundary_is_zero(cycle):
    acc = {}
    for f, s in cycle.items():
        for i in range(len(f)):
            r = f[:i] + f[i + 1:]
            acc[r] = acc.get(r, 0) + s * (-1 if i % 2 else 1)
    return all(v == 0 for v in acc.values())
