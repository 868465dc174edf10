"""Reference values and output checks that share no code with coxinv.

Every expected number here comes from a closed form, a known constant or
a float root of an explicit formula evaluated in this file:

- growth rates by Steinberg's reciprocity, using the degrees of the finite
  parabolic subgroups (Poincare polynomial prod [d_i]_t) rather than an
  enumeration, or the clique formula for right-angled groups;
- Lehmer's number for the (7,3,2) triangle group;
- chamber counts of right-angled buildings from sphere sizes of the
  apartment, each word of length k carrying q^k chambers.

A check returns a list of error strings; an empty list means the output
is correct.
"""

import functools
import math

PENTAGON_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))
TOL = 1e-12


def _bisect(f, lo, hi):
    flo = f(lo)
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        fm = f(mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo + hi) / 2


def largest_root(f, lo, hi, steps=4000):
    """Largest x in [lo, hi] where f changes sign, scanning down from hi."""
    prev, fprev = hi, f(hi)
    for k in range(1, steps + 1):
        x = hi - (hi - lo) * k / steps
        fx = f(x)
        if (fx > 0) != (fprev > 0):
            return _bisect(f, x, prev)
        prev, fprev = x, fx
    raise ValueError("no sign change")


def lehmer_number():
    coeffs = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)  # x^10 + x^9 - x^7 ...
    return largest_root(lambda x: sum(c * x ** (10 - i)
                                      for i, c in enumerate(coeffs)), 1, 2)


def steinberg_rate(sphericals):
    """e(W) of an infinite Coxeter group from its finite parabolics.

    sphericals: one tuple of degrees per finite parabolic W_T (the empty
    tuple for T = {}), so |T| = len(degrees) and W_T(t) = prod [d]_t.
    Steinberg: 1/W(1/s) = sum_T (-1)^|T| / W_T(s); the radius of
    convergence of W is 1/s0 for the largest zero s0 > 1.
    """
    def g(s):
        tot = 0.0
        for degs in sphericals:
            den = 1.0
            for d in degs:
                den *= sum(s ** i for i in range(d))
            tot += (-1) ** len(degs) / den
        return tot
    return math.log(largest_root(g, 1.0 + 1e-9, 16.0))


def triangle_sphericals(p, q, r):
    return [(), (2,), (2,), (2,), (2, p), (2, q), (2, r)]


# [5,3,4]: a -5- b -3- c -4- d.  Pairs: I2(5), A2, B2 and three A1 x A1;
# triples: H3 (2,6,10), B3 (2,4,6), I2(5) x A1 and A1 x B2.
SPHERICALS_534 = ([(), (2,), (2,), (2,), (2,),
                   (2, 5), (2, 3), (2, 4), (2, 2), (2, 2), (2, 2),
                   (2, 6, 10), (2, 4, 6), (2, 5, 2), (2, 2, 4)])


# e(W) of each reference system, computed on first use so that checking
# costs nothing in the benchmark's set-up time

def e_pentagon():
    return math.log((3 + math.sqrt(5)) / 2)


@functools.cache
def e_triangle_732():
    return math.log(lehmer_number())


@functools.cache
def e_triangle_433():
    return steinberg_rate(triangle_sphericals(4, 3, 3))


@functools.cache
def e_linear_534():
    return steinberg_rate(SPHERICALS_534)


def pentagon_weighted_rate(weights):
    """e_t of the right-angled pentagon with per-generator weights.

    For a right-angled group 1/W(u) = sum over cliques T of the commuting
    graph of prod_{s in T} -u_s/(1+u_s); with u_s = w_s^-x the rate is the
    largest zero in x.
    """
    def f(x):
        y = [w ** -x / (1 + w ** -x) for w in weights]
        return 1 - sum(y) + sum(y[i] * y[j] for i, j in PENTAGON_EDGES)
    return largest_root(f, 1e-6, 8.0)


def _contains(bracket, x, tol=TOL):
    lo, hi = bracket
    return lo - tol <= x <= hi + tol


def _check_rate(growth, expected):
    rate = growth["rate"]
    lo, hi = rate["bracket"]
    errs = []
    if not lo <= rate["value"] <= hi:
        errs.append(f"rate bracket {rate['bracket']} not ordered "
                    f"around {rate['value']}")
    if not _contains(rate["bracket"], expected):
        errs.append(f"rate bracket {rate['bracket']} misses {expected!r}")
    return errs


def check_thickness_report(result, e_w, q):
    """Constant thickness q: e_q = e(W)/log q, p_hom = 1 + e_q,
    p_cohom = confdim = 1 + 1/e_q.  e_w returns e(W)."""
    e_q = e_w() / math.log(q)
    errs = _check_rate(result["growth"], e_q)
    ex = result["building"]["exponents"]
    if not _contains(ex["p_hom_bracket"], 1 + e_q):
        errs.append(f"p_hom bracket {ex['p_hom_bracket']} misses {1 + e_q!r}")
    p_cohom = 1 + 1 / e_q
    if not _contains(ex["p_cohom_bracket"], p_cohom):
        errs.append(f"p_cohom bracket {ex['p_cohom_bracket']} "
                    f"misses {p_cohom!r}")
    # the conformal dimension is printed as a point (lower == upper) at
    # the midpoint of the p_cohom bracket, so it is held to that width
    lo, hi = ex["p_cohom_bracket"]
    cd = result["confdim"]
    if not _contains((cd["lower"], cd["upper"]), p_cohom, tol=hi - lo + TOL):
        errs.append(f"confdim [{cd['lower']}, {cd['upper']}] "
                    f"misses {p_cohom!r}")
    return errs


def check_unweighted_report(result, e_w):
    errs = _check_rate(result["growth"], e_w())
    if result["building"] is not None:
        errs.append("building section without a thickness")
    return errs


def check_weighted_report(result, weights):
    """e(W)/log t_max <= e_t <= e(W)/log t_min, and e_t itself."""
    e_t = pentagon_weighted_rate(weights)
    errs = _check_rate(result["growth"], e_t)
    value = result["growth"]["rate"]["value"]
    lo = e_pentagon() / math.log(max(weights))
    hi = e_pentagon() / math.log(min(weights))
    if not lo <= value <= hi:
        errs.append(f"e_t = {value} outside comparison bounds [{lo}, {hi}]")
    return errs


def check_oracle(result, apartment_spheres, q, radius, chains, n_p):
    """Chamber counts sum_k q^k a_k, and one Jensen verdict per chain and p."""
    errs = []
    want = sum(q ** k * a for k, a in enumerate(apartment_spheres[:radius + 1]))
    if result["chambers"] != want:
        errs.append(f"chambers {result['chambers']} != {want}")
    if result["apartment_chambers"] != sum(apartment_spheres[:radius + 1]):
        errs.append(f"apartment chambers {result['apartment_chambers']}")
    if sum(result["sphere_sizes"]) != result["chambers"]:
        errs.append("sphere sizes do not sum to the chamber count")
    if result["chains_checked"] != chains:
        errs.append(f"chains_checked {result['chains_checked']} != {chains}")
    if sum(result["jensen"].values()) != chains * n_p:
        errs.append(f"jensen tallies {result['jensen']} != {chains} x {n_p}")
    return errs


def pentagon_spheres(radius):
    """Apartment sphere sizes 1, 5, 15, then a_k = 3 a_{k-1} - a_{k-2}."""
    a = [1, 5, 15]
    while len(a) <= radius:
        a.append(3 * a[-1] - a[-2])
    return a


def tree_spheres(radius):
    """Infinite dihedral group: one word of length 0, two of each other."""
    return [1] + [2] * radius
