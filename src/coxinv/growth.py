"""Weighted growth series and exponents.

The weighted series W(t) = sum_w t_w (one variable per conjugacy class of
generators) is rational: for infinite W,

    sum over finite-parabolic subsets T of (-1)^|T| / W_T(t)  =  1 / W(1/t),

so W is recovered by exact fraction arithmetic and a coefficient reversal.
Each W_T is a product of irreducible component polynomials, and the sum
is taken over the lcm of those factors.
Every constructed series is validated coefficient-by-coefficient against
breadth-first counts before use; a mismatch is a fatal internal error.

The exponential growth rate e_t(W) = limsup (1/n) log #{w : t_w <= e^n} is
computed two independent ways: the smallest positive singularity of the
series (exact rational Sturm isolation, or a certified interval scan along
the substitution curve t -> t^-x for mixed weights), and a regression fit
on the enumerated counting function.  On the curve a monomial of class
vector k becomes w^-x with w = weight_of(k) exact, so the scan evaluates
the denominator as the sum of c_w * w^-x over its monomials merged by w.
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import add

from .algebraic import _int_or_fraction, iv_precision
from .elements import ball_enumerate, racg_ball_sizes, racg_layer_counts
from .errors import (DegenerateWeights, ResourceExceeded, SchemaError,
                     ValidationMismatch)

DEFAULT_VALIDATION_DEPTH = 10
ROOT_TOL = Fraction(1, 10 ** 9)
CURVE_MAX_PREC = 2048   # interval bits before a curve sign is left undecided


# ---------------------------------------------------------------------------
# multivariate polynomials over Q (dict exponent tuple -> int, or Fraction
# when the coefficient is not an integer)

class PolyQ:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if type(c) is not int:
                    c = _int_or_fraction(c)
                if c:
                    self.terms[tuple(e)] = c

    @staticmethod
    def const(nvars, c):
        return PolyQ(nvars, {(0,) * nvars: c})

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return PolyQ(self.nvars, out)

    def scale(self, c):
        c = _int_or_fraction(c)
        return PolyQ(self.nvars, {e: v * c for e, v in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
        return PolyQ(self.nvars, out)

    def max_degrees(self):
        out = [0] * self.nvars
        for e in self.terms:
            for i, v in enumerate(e):
                out[i] = max(out[i], v)
        return out

    def min_degrees(self):
        out = None
        for e in self.terms:
            out = list(e) if out is None else [min(a, b) for a, b in zip(out, e)]
        return out or [0] * self.nvars

    def reversed_by(self, E):
        return PolyQ(self.nvars, {tuple(E[i] - e[i] for i in range(self.nvars)): c
                                  for e, c in self.terms.items()})

    def shift_down(self, g):
        return PolyQ(self.nvars, {tuple(e[i] - g[i] for i in range(self.nvars)): c
                                  for e, c in self.terms.items()})

    def collapse(self):
        """Substitute every variable by a single one."""
        out = {}
        for e, c in self.terms.items():
            k = (sum(e),)
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            elif k in out:
                del out[k]
        return PolyQ(1, out)

    def constant(self):
        return self.terms.get((0,) * self.nvars, 0)

    def __repr__(self):
        return f"PolyQ({self.nvars}, {len(self.terms)} terms)"


# ---------------------------------------------------------------------------
# weights

def exact_rational(v, what):
    """v as a Fraction: an int, a finite float or a rational string such
    as "3/2".  Anything else, a bool included, raises SchemaError."""
    if isinstance(v, bool):
        raise SchemaError(f"{what} must be an exact rational, got {v!r}")
    try:
        return Fraction(v)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise SchemaError(
            f"{what} must be an exact rational, got {v!r}") from None


class WeightVector:
    """Per-conjugacy-class weights >= 1 (exact rationals small enough to
    convert to float).  Subclasses narrow the entries through exact()."""

    what = "weight"
    class_error = SchemaError   # raised for a map not constant on a class

    @classmethod
    def exact(cls, v):
        return exact_rational(v, cls.what)

    def __init__(self, M, class_values):
        what = self.what
        classes = M.conjugacy_classes()
        if len(class_values) != len(classes):
            raise SchemaError(
                f"expected {len(classes)} class {what} values, "
                f"got {len(class_values)}")
        vals = tuple(map(self.exact, class_values))
        if any(v < 1 for v in vals):
            raise SchemaError(f"{what} must be >= 1")
        for raw, v in zip(class_values, vals):
            try:
                float(v)
            except OverflowError:
                raise SchemaError(
                    f"{what} {raw!r} is too large for a float") from None
        self.M = M
        self.values = vals

    @classmethod
    def from_generator_map(cls, M, mapping):
        """Build from a generator-name -> value map, enforcing class
        constancy."""
        class_values = []
        for c in M.conjugacy_classes():
            vals = {cls.exact(mapping[M.generators[i]]) for i in c}
            if len(vals) != 1:
                names = [M.generators[i] for i in c]
                raise cls.class_error(f"{cls.what} must be constant on the "
                                      f"conjugacy class {names}")
            class_values.append(vals.pop())
        return cls(M, class_values)

    @classmethod
    def constant(cls, M, value):
        return cls(M, [value] * len(M.conjugacy_classes()))

    def per_generator(self):
        cls_of = self.M.class_of()
        return [self.values[cls_of[s]] for s in range(self.M.rank)]

    def weight_of(self, class_vec):
        out = Fraction(1)
        for v, k in zip(self.values, class_vec):
            out *= v ** k
        return out

    def is_constant(self):
        return len(set(self.values)) == 1

    def all_one(self):
        return all(v == 1 for v in self.values)


# ---------------------------------------------------------------------------
# enumeration-backed counting (BFS, extended by the descent recurrence)

def ball_sizes(counts):
    """Ball size through each length, from per-length class counts."""
    return list(accumulate(sum(layer.values()) for layer in counts))


def counting_route(M, sizes, caps):
    """How a fresh run under caps obtains the counts whose ball sizes
    through each length are sizes.

    "bfs" when the ball through the last length fits max_elements;
    "recurrence" for a right-angled system whose ball fits only through
    the validation depth.  Otherwise raises ResourceExceeded exactly as
    ball_enumerate does, at the first radius past the cap.
    """
    cap = caps.max_elements
    # like ball_enumerate, never hold the identity against the cap
    past = next((k for k in range(1, len(sizes)) if sizes[k] > cap), None)
    if past is None:
        return "bfs"
    if past > DEFAULT_VALIDATION_DEPTH and M.is_right_angled():
        return "recurrence"
    raise ResourceExceeded(f"ball size exceeds cap {cap} at radius {past}")


def layer_class_counts(M, depth, caps):
    """Per-length dict {class_vector: count} for lengths 0..depth.

    A right-angled system is counted first by the descent-set recurrence
    on element totals, whose exact ball sizes choose the route
    (counting_route) before any per-class layer or ball is built.  The
    per-class recurrence then runs to depth, and BFS to depth on "bfs"
    and to the validation depth on "recurrence"; the two must agree on
    the shared prefix.  Other systems are counted by BFS, which raises
    ResourceExceeded when the ball outgrows the caps.
    """
    if not M.is_right_angled():
        return ball_enumerate(M, depth, caps=caps).class_counts()
    route = counting_route(M, racg_ball_sizes(M, depth), caps)
    rec = racg_layer_counts(M, depth, caps=caps)
    bfs_depth = depth if route == "bfs" else DEFAULT_VALIDATION_DEPTH
    bfs = ball_enumerate(M, bfs_depth, caps=caps).class_counts()
    if rec[:len(bfs)] != bfs:
        raise ValidationMismatch(
            "descent recurrence disagrees with BFS class counts")
    # BFS layers stop at a finite group's longest element, which marks its
    # cache record exhausted; the recurrence counts zeros past it
    return bfs if route == "bfs" else rec


# ---------------------------------------------------------------------------
# rational growth series

@dataclass
class RationalGrowthSeries:
    """W(t) = numerator / denominator in one variable per conjugacy class."""
    numerator: PolyQ
    denominator: PolyQ          # constant term 1
    validated_depth: int

    def expand(self, depth):
        """Series coefficients by total degree: list of {class vector:
        coefficient}."""
        num, den = self.numerator, self.denominator
        assert den.constant() == 1
        # (total degree, exponent, coefficient), lowest total first
        den_rest = sorted((sum(e), e, c) for e, c in den.terms.items()
                          if any(e))
        coeffs = [dict() for _ in range(depth + 1)]
        for e, c in num.terms.items():
            td = sum(e)
            if td <= depth:
                coeffs[td][e] = c
        # in place: each total starts from the numerator's terms and
        # subtracts denominator terms times lower totals, already final
        for total in range(depth + 1):
            cur = coeffs[total]
            for td, e, c in den_rest:
                if td > total:
                    break
                for e2, c2 in coeffs[total - td].items():
                    tgt = tuple(map(add, e, e2))
                    v = cur.get(tgt, 0) - c * c2
                    if v:
                        cur[tgt] = v
                    elif tgt in cur:
                        del cur[tgt]
        return coeffs

    def univariate(self):
        """The series with every class variable set to one t, in lowest
        terms: (numerator, denominator) coefficient lists, lowest degree
        first, each divided by their greatest common divisor and the
        denominator with constant term 1."""
        num, den = ([p.terms.get((k,), 0)
                     for k in range(p.max_degrees()[0] + 1)]
                    for p in (self.numerator.collapse(),
                              self.denominator.collapse()))
        g = _p1_gcd(den, num)
        if len(g) > 1:
            # g(0) != 0 since den(0) = 1
            g = [c / g[0] for c in g]
            num, den = _p1_exact_div(num, g), _p1_exact_div(den, g)
        return num, den


def _parabolic_poly(M, comp, caps):
    """Exact weighted enumeration polynomial of the irreducible finite
    parabolic on a Component, in the ambient class variables."""
    nclasses = len(M.conjugacy_classes())
    idx = comp.vertices
    order = comp.order()
    if order > caps.max_elements:
        raise ResourceExceeded(f"parabolic on {list(idx)} has order {order}")
    sub = M.submatrix(idx)
    ball = ball_enumerate(sub, 4 * order, caps=caps)
    if not ball.group_exhausted:
        raise ValidationMismatch(
            f"enumeration of the parabolic on {list(idx)} of order {order} "
            "did not exhaust it")
    # generators conjugate in W_T are conjugate in W: each class of the
    # parabolic lies in one ambient class
    class_of = M.class_of()
    amb = [class_of[idx[cls[0]]] for cls in sub.conjugacy_classes()]
    out = {}
    for layer in ball.class_counts():
        for cv, c in layer.items():
            e = [0] * nclasses
            for ci, k in enumerate(cv):
                e[amb[ci]] += k
            e = tuple(e)
            out[e] = out.get(e, 0) + c
    return PolyQ(nclasses, out)


def rational_growth_series(system):
    """Weighted growth series, one variable per conjugacy class, as an
    exact rational function validated against the system's counts
    through DEFAULT_VALIDATION_DEPTH (mandatory)."""
    # count first: a ball the caps refuse stops the run before any
    # parabolic is enumerated
    counts, source = system.layer_counts(DEFAULT_VALIDATION_DEPTH)
    series = RationalGrowthSeries(*_growth_fraction(system),
                                  DEFAULT_VALIDATION_DEPTH)
    expanded = series.expand(DEFAULT_VALIDATION_DEPTH)
    for k, layer in enumerate(counts):
        if layer != expanded[k]:
            raise ValidationMismatch(
                f"series expansion disagrees with the {source} counts "
                f"at length {k}")
    return series


def _growth_fraction(system):
    """(numerator, denominator) of W(t), not yet validated: the product
    of the component polynomials for finite W, else the reciprocity
    sum."""
    M, cls = system.M, system.classification
    if not cls.is_finite():
        return _reciprocity(system)
    den = PolyQ.const(len(M.conjugacy_classes()), 1)
    num = den
    for comp in cls.components:
        num = num * _parabolic_poly(M, comp, system.caps)
    return num, den


def _reciprocity(system):
    """(numerator, denominator) of W(t) for infinite W by the reciprocity
    sum over the spherical subsets, the denominator with constant term 1.

    Each W_T is the product of the polynomials W_C of the irreducible
    components C of T, so the sum of (-1)^|T| / W_T is accumulated over
    the lcm of these factors: a factor, one per distinct polynomial,
    enters the lcm to its largest multiplicity in any W_T.  The
    components of each T are the System's classification of T."""
    M = system.M
    nclasses = len(M.conjugacy_classes())
    factors = {}        # polynomial key -> component polynomial
    factor_of = {}      # component vertices -> polynomial key
    signs = Counter()   # factor multiset of a W_T -> sum of (-1)^|T|
    for T in system.sphericals:
        mult = Counter()
        for comp in system.parabolics[T].components:
            v = comp.vertices
            if v not in factor_of:
                poly = _parabolic_poly(M, comp, system.caps)
                factor_of[v] = key = tuple(sorted(poly.terms.items()))
                factors.setdefault(key, poly)
            mult[factor_of[v]] += 1
        signs[frozenset(mult.items())] += -1 if len(T) % 2 else 1
    top = Counter()     # the lcm: a union of multisets keeps the largest
    for k in signs:
        top |= Counter(dict(k))
    powers = {key: [PolyQ.const(nclasses, 1)] for key in top}
    for key, m in top.items():
        for _ in range(m):
            powers[key].append(powers[key][-1] * factors[key])
    # sum over T of (-1)^|T| / W_T = num / den, den the lcm
    num = PolyQ.const(nclasses, 0)
    for k, c in signs.items():
        k = dict(k)
        term = PolyQ.const(nclasses, c)
        for key, m in top.items():
            term = term * powers[key][m - k.get(key, 0)]
        num = num + term
    den = PolyQ.const(nclasses, 1)
    for key, m in top.items():
        den = den * powers[key][m]
    # W(t) = rev(den) / rev(num)
    E = [max(a, b) for a, b in zip(num.max_degrees(), den.max_degrees())]
    W_num = den.reversed_by(E)
    W_den = num.reversed_by(E)
    g = [min(a, b) for a, b in zip(W_num.min_degrees(), W_den.min_degrees())]
    if any(g):
        W_num = W_num.shift_down(g)
        W_den = W_den.shift_down(g)
    c0 = W_den.constant()
    if c0 == 0:
        raise ValidationMismatch("growth series denominator lost its constant term")
    return W_num.scale(Fraction(1) / c0), W_den.scale(Fraction(1) / c0)


# ---------------------------------------------------------------------------
# exact univariate root isolation (Sturm)

def _p1_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _p1_deriv(p):
    return [c * k for k, c in enumerate(p)][1:]


def _p1_rem(a, b):
    a = list(a)
    lead = Fraction(b[-1])      # exact division for int coefficients too
    while len(a) >= len(b) and _p1_trim(a):
        q = a[-1] / lead
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        a.pop()
        _p1_trim(a)
    return a


def _p1_gcd(a, b):
    a, b = list(a), list(b)
    _p1_trim(a), _p1_trim(b)
    while b:
        a, b = b, _p1_rem(a, b)
        _p1_trim(b)
    if a:
        lead = Fraction(a[-1])
        a = [c / lead for c in a]
    return a


def _sturm_chain(p):
    chain = [list(p), _p1_deriv(p)]
    _p1_trim(chain[0]), _p1_trim(chain[1])
    while chain[-1]:
        r = _p1_rem(chain[-2], chain[-1])
        _p1_trim(r)
        if not r:
            break
        chain.append([-c for c in r])
    return [c for c in chain if c]


def _p1_integral(p):
    """p times the positive lcm of its coefficient denominators: integer
    coefficients, the same sign at every point."""
    den = math.lcm(*(Fraction(c).denominator for c in p))
    return [int(c * den) for c in p]


def _sign_at(p, x):
    """Sign of an integer polynomial at a rational x = n/d, from the
    homogenized value sum c_i n^i d^(deg-i), which has the sign of p(x)
    because d > 0."""
    n, d = x.numerator, x.denominator
    v = p[-1]
    dk = 1
    for c in reversed(p[:-1]):
        dk *= d
        v = v * n + c * dk
    return (v > 0) - (v < 0)


def _sign_changes(chain, x, first):
    """Sign variations of the integer Sturm chain at x, given the nonzero
    sign `first` of its leading member there."""
    out = 0
    prev = first
    for p in chain[1:]:
        s = _sign_at(p, x)
        if s:
            out += s != prev
            prev = s
    return out


def smallest_positive_root(poly, hi):
    """Smallest root in (0, hi] of a polynomial given as its coefficient
    list, lowest degree first.

    Returns (lo, hi) as Fractions bracketing the root to width <= ROOT_TOL,
    or the exact root as (r, r), or None.  Exact arithmetic only: the Sturm
    chain is built over the rationals, then each member is scaled to
    integer coefficients, so every sign is read from an integer.
    """
    p = [Fraction(c) for c in poly]
    _p1_trim(p)
    if len(p) <= 1:
        return None
    g = _p1_gcd(p, _p1_deriv(p))
    if len(g) > 1:
        p = _p1_exact_div(p, g)       # squarefree part
    chain = [_p1_integral(q) for q in _sturm_chain(p)]
    top = chain[0]
    hi = Fraction(hi)
    eps = Fraction(1, 10 ** 12)     # shifts endpoints off roots by a safe margin

    def variations(x, s=None):
        # at x, or past it when x is a root; s: top's sign at x, if known
        if s is None:
            s = _sign_at(top, x)
        while s == 0:
            x += eps
            s = _sign_at(top, x)
        return _sign_changes(chain, x, s)

    # 0 itself never counts: growth denominators have den(0) = 1
    v_lo = variations(Fraction(0))

    def count_upto(b, s=None):
        # roots in (0, b]
        return v_lo - variations(b, s)

    if count_upto(hi) == 0:
        return None
    lo, b = Fraction(0), hi
    while b - lo > ROOT_TOL:
        mid = (lo + b) / 2
        s = _sign_at(top, mid)
        if s == 0:
            if count_upto(mid, s) == 1 or count_upto(mid - ROOT_TOL / 2) == 0:
                return (mid, mid)
            b = mid
            continue
        if count_upto(mid, s) >= 1:
            b = mid
        else:
            lo = mid
    if _sign_at(top, b) == 0:
        return (b, b)
    return (lo, b)


# ---------------------------------------------------------------------------
# growth-rate estimation

@dataclass
class GrowthRateEstimate:
    value: float
    method: str                 # "SeriesSingularity" | "EnumerationFit"
    uncertainty: float
    bracket: tuple              # (lo, hi) floats
    exact: bool = False

    def contains(self, x):
        return self.bracket[0] - 1e-15 <= x <= self.bracket[1] + 1e-15


def _series_rate_constant_weight(series, logq):
    """e_t from the smallest positive denominator root when every class has
    the same weight: the curve substitution is univariate."""
    bracket = smallest_positive_root(series.univariate()[1], Fraction(1))
    if bracket is None:
        return GrowthRateEstimate(0.0, "SeriesSingularity", 0.0, (0.0, 0.0),
                                  exact=True)
    lo, hi = bracket
    if lo == hi:
        r = lo
        if r == 1:
            return GrowthRateEstimate(0.0, "SeriesSingularity", 0.0, (0.0, 0.0),
                                      exact=True)
        e_lo = e_hi = -math.log(float(r))
    else:
        e_lo, e_hi = -math.log(float(hi)), -math.log(float(lo))
    e_val = (e_lo + e_hi) / 2
    if logq is not None:
        e_lo, e_hi, e_val = e_lo / logq, e_hi / logq, e_val / logq
    unc = (e_hi - e_lo) / 2
    return GrowthRateEstimate(e_val, "SeriesSingularity", unc, (e_lo, e_hi),
                              exact=(lo == hi))


def _p1_exact_div(a, b):
    a = list(a)
    lead = Fraction(b[-1])
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = a[k + len(b) - 1] / lead
        q[k] = c
        if c:
            for j, y in enumerate(b):
                a[k + j] -= c * y
    assert all(v == 0 for v in a)
    return _p1_trim(q)


def _iv_frac(q):
    import mpmath   # loaded here, not at import: exact-only runs never need it
    iv = mpmath.iv
    return iv.mpf(q.numerator) / iv.mpf(q.denominator)


class CurveTerms:
    """A polynomial restricted to the substitution curve t_i -> t_i^-x.

    The monomial prod t_i^k_i becomes w^-x with w = weights.weight_of(k),
    so the polynomial is the sum of c_w * w^-x over the distinct exact
    weights w, each c_w the exact sum of the coefficients of weight w.
    Zero sums are dropped.  The interval forms of c_w and log w are built
    once per precision.
    """

    def __init__(self, poly, weights):
        acc = {}
        for e, c in poly.terms.items():
            w = weights.weight_of(e)
            acc[w] = acc.get(w, 0) + c
        self.terms = {w: c for w, c in sorted(acc.items()) if c}
        self._iv = {}           # prec -> [(c_w, log w) intervals]

    def iv_terms(self):
        """(c_w, log w) as intervals at the current mpmath.iv precision."""
        import mpmath
        prec = mpmath.iv.prec
        if prec not in self._iv:
            self._iv[prec] = [(_iv_frac(c), mpmath.iv.log(_iv_frac(w)))
                              for w, c in self.terms.items()]
        return self._iv[prec]


def _iv_eval_curve(curve, x, prec):
    """Certified interval value of the sum of c_w * w^-x over curve.terms,
    at a rational x."""
    with iv_precision(prec) as iv:
        xs = _iv_frac(x)
        tot = iv.mpf(0)
        for c, logw in curve.iv_terms():
            tot += c * iv.exp(-xs * logw)
        return tot


def _iv_sign(curve, x):
    prec = 64
    while prec <= CURVE_MAX_PREC:
        v = _iv_eval_curve(curve, x, prec)
        if v > 0:
            return 1
        if v < 0:
            return -1
        prec *= 2
    return 0


def _series_rate_curve(series, weights):
    """Mixed weights: scan the substitution curve for the first denominator
    sign change, certify with interval arithmetic, bisect to 1e-9.

    On the curve t_i -> t_i^-x the denominator is evaluated as the sum of
    c_w * w^-x over its monomials merged by exact weight w (CurveTerms)."""
    den_curve = CurveTerms(series.denominator, weights)
    num_curve = CurveTerms(series.numerator, weights)
    # exact check at x = 0, where every w^-x is 1
    if sum(den_curve.terms.values()) == 0:
        if sum(num_curve.terms.values()) != 0:
            return GrowthRateEstimate(0.0, "SeriesSingularity", 0.0, (0.0, 0.0),
                                      exact=True)
    e_univ = _series_rate_constant_weight(series, None)
    logmin = math.log(float(min(weights.values)))
    xmax = Fraction(int((e_univ.bracket[1] / logmin + 1) * 100), 100) if logmin > 0 else Fraction(2)
    step = Fraction(1, 100)
    x = Fraction(0)
    s_prev = _iv_sign(den_curve, x + step / 10)  # just off zero
    found = None
    while x < xmax:
        x2 = x + step
        s2 = _iv_sign(den_curve, x2)
        if s2 == 0 or s2 != s_prev:
            # root in (x, x2]: check it is not removable
            found = (x, x2)
            break
        x = x2
        s_prev = s2
    if found is None:
        raise ValidationMismatch(
            "no singularity found on the substitution curve within the "
            "comparison bound")
    lo, hi = found
    while hi - lo > ROOT_TOL:
        mid = (lo + hi) / 2
        sm = _iv_sign(den_curve, mid)
        if sm == 0 or sm != s_prev:
            hi = mid
        else:
            lo = mid
    val = float((lo + hi) / 2)
    unc = float(hi - lo) / 2
    return GrowthRateEstimate(val, "SeriesSingularity", unc,
                              (float(lo), float(hi)))


def _solve_normal_equations(A, b):
    """Exact solution of A beta = b for the Gram matrix A = X^T X, with the
    inverse of A, by Gauss-Jordan elimination in Fraction arithmetic.

    The normal equations are always consistent.  When A is singular its
    free coefficients are set to 0, which is still a least-squares
    solution, and the inverse is None.
    """
    n = len(A)
    rows = [list(A[i]) + [b[i]] + [Fraction(int(i == j)) for j in range(n)]
            for i in range(n)]
    pivots = []
    for col in range(n):
        r = next((r for r in range(len(pivots), n) if rows[r][col]), None)
        if r is None:
            continue
        k = len(pivots)
        rows[k], rows[r] = rows[r], rows[k]
        lead = rows[k][col]
        rows[k] = [c / lead for c in rows[k]]
        for i in range(n):
            f = rows[i][col]
            if i != k and f:
                rows[i] = [c - f * p for c, p in zip(rows[i], rows[k])]
        pivots.append(col)
    beta = [Fraction(0)] * n
    for k, col in enumerate(pivots):
        beta[col] = rows[k][n]
    inverse = [row[n + 1:] for row in rows] if len(pivots) == n else None
    return beta, inverse


def _fit_window(points, lo_frac):
    """Least-squares slope of log Q on v, with the regressors 1, v and, as
    the window allows, log v and 1/v; and its standard error.

    The float regressors are converted exactly to Fraction and the normal
    equations solved exactly, so the result is the exact least-squares fit
    of the float data and no conditioning question arises."""
    pts = points[int(len(points) * lo_frac):]
    nregs = 4 if len(pts) >= 8 else (3 if len(pts) >= 5 else 2)
    X, y = [], []
    for v, q in pts:
        row = [1.0, v, math.log(v), 1.0 / v][:nregs]
        X.append([Fraction(x) for x in row])
        y.append(Fraction(math.log(q)))
    cols = range(nregs)
    A = [[sum(r[i] * r[j] for r in X) for j in cols] for i in cols]
    b = [sum(r[i] * yk for r, yk in zip(X, y)) for i in cols]
    beta, inverse = _solve_normal_equations(A, b)
    resid = [yk - sum(c * x for c, x in zip(beta, r)) for r, yk in zip(X, y)]
    dof = max(1, len(y) - nregs)
    if inverse is None:
        se = float("nan")
    else:
        var = sum(e * e for e in resid) / dof * inverse[1][1]
        se = math.sqrt(max(float(var), 0.0))
    return float(beta[1]), se


def enumeration_fit(points):
    """Slope of log Q against v with slowly-varying correction terms.

    points: (v, Q) with v > 0, Q >= 1, complete counts.  The uncertainty sums
    the statistical error and the drift between two fit windows, which is the
    honest dominant term on deterministic data.
    """
    pts = [(v, q) for v, q in points if v > 0 and q >= 1]
    if len(pts) < 3:
        raise DegenerateWeights("too few complete counting points to fit")
    b1, se1 = _fit_window(pts, 0.5)
    b2, _ = _fit_window(pts, 0.25)
    unc = (0.0 if math.isnan(se1) else se1) + abs(b1 - b2)
    return GrowthRateEstimate(b1, "EnumerationFit", unc, (b1 - unc, b1 + unc))


def _product_rate(system, weights):
    """Mixed weights on a reducible system.  W is the product of its
    irreducible components, and each component's weighted series has
    non-negative terms and constant term 1, so the product converges
    exactly when every factor does: the rate is the largest component
    rate.  Finite and affine components grow polynomially, rate 0.  Each
    other component is a System on its submatrix under the same caps,
    weighted by the ambient class of each of its classes."""
    from .system import System     # system.py imports this module
    M = system.M
    class_of = M.class_of()
    rates = []
    for comp in system.classification.components:
        if comp.kind != "other":
            rates.append(GrowthRateEstimate(0.0, "SeriesSingularity", 0.0,
                                            (0.0, 0.0), exact=True))
            continue
        sub = M.submatrix(comp.vertices)
        vals = [weights.values[class_of[comp.vertices[c[0]]]]
                for c in sub.conjugacy_classes()]
        rates.append(System(sub, caps=system.caps).rate(WeightVector(sub, vals)))
    top = max(rates, key=lambda r: r.bracket)
    if all(top.bracket[0] >= r.bracket[1] for r in rates if r is not top):
        return top
    lo = max(r.bracket[0] for r in rates)
    hi = max(r.bracket[1] for r in rates)
    return GrowthRateEstimate((lo + hi) / 2, "SeriesSingularity",
                              (hi - lo) / 2, (lo, hi))


def growth_rate(system, weights):
    """Weighted exponential growth rate e_t(W) from the exact rational
    series; weights None means the unweighted rate e(W).

    The smallest positive singularity is located on the substitution curve
    for non-constant weights, in the series' one-variable form otherwise;
    non-constant weights on a reducible system take the largest rate of
    its components.  System.rate memoises it.
    """
    if weights is not None and weights.all_one():
        raise DegenerateWeights("all weights are 1; the counting function is trivial")
    if system.classification.is_finite():
        return GrowthRateEstimate(0.0, "SeriesSingularity", 0.0, (0.0, 0.0),
                                  exact=True)
    if weights is not None and any(v == 1 for v in weights.values):
        classes = system.M.conjugacy_classes()
        ones = frozenset(i for ci, v in enumerate(weights.values) if v == 1
                         for i in classes[ci])
        if ones not in system.sphericals:
            raise DegenerateWeights(
                "weight 1 on classes spanning an infinite parabolic")
    if weights is not None and not weights.is_constant():
        if len(system.classification.components) > 1:
            return _product_rate(system, weights)
        return _series_rate_curve(system.series, weights)
    logq = None if weights is None else math.log(float(weights.values[0]))
    return _series_rate_constant_weight(system.series, logq)


def enumeration_rate(system, weights, radius):
    """e_t(W) by regression on the counting data through length radius,
    the route that shares no code with the series; weights None means
    e(W)."""
    if weights is not None and any(math.log(v) == 0 for v in weights.values):
        # a class of weight 1 (to float precision) puts elements of
        # every length at one v = log t_w, so no count is complete
        raise DegenerateWeights("degenerate weights: no usable counting function")
    counts, _src = system.layer_counts(radius)
    if weights is None:
        sizes = ball_sizes(counts)
        pts = [(float(k), sizes[k]) for k in range(1, len(sizes))]
        return enumeration_fit(pts)
    # Q(v) counts the elements with log t_w <= v, grouped by the exact
    # weight; it is complete only up to t_min^radius, since heavier
    # elements may have unenumerated peers of larger length
    wmax = min(weights.values) ** radius
    acc = {}
    for layer in counts:
        for cv, c in layer.items():
            w = weights.weight_of(cv)
            if w <= wmax:
                acc[w] = acc.get(w, 0) + c
    ws = sorted(acc)
    pts = list(zip(map(math.log, ws), accumulate(acc[w] for w in ws)))
    return enumeration_fit(pts)


def routes_consistent(rate, fit):
    """Does the regression fit confirm the series rate?  The fit bracket
    already includes its uncertainty, so the rate must lie in it, and a
    bracket straddling 0 cannot confirm a positive rate."""
    return fit.contains(rate.value) and (fit.bracket[0] > 0) == (rate.value > 0)


def classify_convergence(system, weights, x):
    """Does W(t^-x) converge?  Returns 'converges', 'diverges', or
    'boundary' when x falls inside the rate bracket."""
    x = float(x)
    rate = system.rate(weights)
    if x > rate.bracket[1] + 1e-15:
        return "converges"
    if x < rate.bracket[0] - 1e-15:
        return "diverges"
    return "boundary"

