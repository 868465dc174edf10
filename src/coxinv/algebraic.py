"""Exact arithmetic in the real cyclotomic field Q(2cos(pi/N)).

The minimal polynomial of 2cos(pi/N) is derived at runtime: Phi_2N is built
by exact integer polynomial division of z^2N - 1 by lower cyclotomics, then
rewritten through the basis z^d(z^j + z^-j) = z^d * D_j(z + 1/z) where D_j
are the degree-j Dickson polynomials (D_j(2cos a) = 2cos(ja)).  The result is
checked numerically to 1e-30 before any element arithmetic is allowed, at
60 digits beyond the size of the terms that cancel in that evaluation.
A field for N above MAX_FIELD_N is refused before any polynomial is built.

Field elements are coordinate tuples in the power basis of x = 2cos(pi/N).
The minimal polynomial is monic over Z, so algebraic integers such as every
2cos(pi/m) and every entry of the geometric representation have int
coordinates, and ring operations on them never leave int arithmetic; a
coordinate is a Fraction only where the value is not an integer.  Exact
zero tests are coordinate tests.  The sign of a nonzero element is
certified by integer bounds L_i <= x^i 2^P <= U_i, taken once per
precision P from an interval enclosure of x: the bounds bracket the
element times 2^P, and P doubles until the bracket excludes zero.
"""

import contextlib
import functools
from fractions import Fraction
from math import lcm

from .errors import ResourceExceeded, ValidationMismatch

VALIDATION_DIGITS = 60
# every system whose finite labels have lcm <= 1000 builds its field in a
# few seconds; cyclotomic() builds a list of length 2N
MAX_FIELD_N = 1000
SIGN_START_PREC = 64
SIGN_DOUBLINGS = 12


@contextlib.contextmanager
def iv_precision(prec):
    """mpmath.iv at prec bits inside the block, its precision restored on
    leaving; yields mpmath.iv.  mpmath is loaded here, not at import:
    exact-only runs never need it."""
    import mpmath
    iv = mpmath.iv
    old = iv.prec
    iv.prec = prec
    try:
        yield iv
    finally:
        iv.prec = old


def _poly_divmod_exact(a, b):
    """Quotient of integer polynomials known to divide exactly."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = a[k + len(b) - 1]
        assert c % b[-1] == 0
        q[k] = c // b[-1]
        if q[k]:
            for j, y in enumerate(b):
                a[k + j] -= q[k] * y
    assert all(v == 0 for v in a)
    return q


@functools.cache
def cyclotomic(n):
    """Integer coefficients (low degree first) of Phi_n, memoised: a tuple,
    so no caller can change the stored value."""
    poly = [-1] + [0] * (n - 1) + [1]  # z^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divmod_exact(poly, cyclotomic(d))
    return tuple(poly)


def dickson(k):
    """D_k with D_k(2cos a) = 2cos(ka), as an integer coefficient list."""
    if k == 0:
        return [2]
    prev, cur = [2], [0, 1]
    for _ in range(k - 1):
        nxt = [0] + cur
        for i, v in enumerate(prev):
            nxt[i] -= v
        prev, cur = cur, nxt
    return cur


def minimal_poly_2cos_pi_over(N):
    """Monic integer minimal polynomial of 2cos(pi/N), low degree first."""
    if N == 1:
        return [2, 1]  # x + 2, root -2
    phi = cyclotomic(2 * N)
    deg = len(phi) - 1
    assert deg % 2 == 0
    d = deg // 2
    for j in range(1, d + 1):  # palindromic check
        assert phi[d - j] == phi[d + j]
    psi = [0] * (d + 1)
    psi[0] = phi[d]
    # walk D_j = x*D_{j-1} - D_{j-2} once, from D_0 = 2 and D_1 = x
    prev, cur = [2], [0, 1]
    for j in range(1, d + 1):
        e = phi[d + j]
        if e:
            for i, v in enumerate(cur):
                psi[i] += e * v
        nxt = [0] + cur
        for i, v in enumerate(prev):
            nxt[i] -= v
        prev, cur = cur, nxt
    assert psi[d] == 1
    return psi


def _validate_minpoly(psi, N):
    # |x| <= 2, so no term c_i x^i exceeds |c_i| 2^i: the terms can reach
    # this size and cancel to the residual, which needs its digits on top
    import mpmath   # loaded here, not at import: exact-only runs never need it
    size = sum(abs(c) << i for i, c in enumerate(psi))
    with mpmath.workdps(VALIDATION_DIGITS + len(str(size))):
        x = 2 * mpmath.cos(mpmath.pi / N)
        val = mpmath.polyval([mpmath.mpf(c) for c in reversed(psi)], x)
        if not abs(val) < mpmath.mpf("1e-30"):
            raise ValidationMismatch(f"minimal polynomial failed validation "
                                     f"at N={N}: residual {val}")


def _int_or_fraction(q):
    """q as an int when it is an integer, else as a Fraction."""
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


class CycloField:
    """Q[x]/(psi) with x standing for 2cos(pi/N)."""

    _cache = {}

    def __new__(cls, N):
        if N in cls._cache:
            return cls._cache[N]
        if N > MAX_FIELD_N:
            raise ResourceExceeded(
                f"finite labels with lcm {N} exceed the field bound "
                f"{MAX_FIELD_N}")
        self = super().__new__(cls)
        self.N = N
        self.minpoly = minimal_poly_2cos_pi_over(N)
        _validate_minpoly(self.minpoly, N)
        self.degree = len(self.minpoly) - 1
        # reduction table: x^(d+k) in the power basis, k = 0..d-2; integer
        # because psi is monic
        d = self.degree
        self._red = []
        if d > 1:
            cur = [-c for c in self.minpoly[:-1]]  # x^d
            self._red.append(tuple(cur))
            for _ in range(d - 2):
                shifted = [0] + cur
                top = shifted.pop()
                if top:
                    for i in range(d):
                        shifted[i] -= top * self.minpoly[i]
                cur = shifted
                self._red.append(tuple(cur))
        self.zero = (0,) * d
        self.one = self.from_rational(1)
        self._bounds = {}       # precision P -> (L, U), see _power_bounds
        cls._cache[N] = self
        return self

    def from_rational(self, q):
        v = [0] * self.degree
        v[0] = _int_or_fraction(q)
        return tuple(v)

    def gen(self):
        """Coordinates of 2cos(pi/N) itself."""
        if self.degree == 1:
            # x reduces to the integer root of the monic linear minpoly
            return (-self.minpoly[0],)
        v = [0] * self.degree
        v[1] = 1
        return tuple(v)

    def two_cos_pi_over(self, m):
        """Coordinates of 2cos(pi/m) for finite m dividing N, or of the
        m = inf convention value 2."""
        if m is None:
            return self.from_rational(2)
        assert self.N % m == 0
        coeffs = dickson(self.N // m)
        out = self.zero
        xpow = self.one
        for c in coeffs:
            if c:
                out = self.add(out, self.scale(xpow, c))
            xpow = self.mul(xpow, self.gen())
        return out

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def scale(self, a, c):
        c = _int_or_fraction(c)
        return tuple(x * c for x in a)

    def mul(self, a, b):
        d = self.degree
        if d == 1:
            return (a[0] * b[0],)
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        out = prod[:d]
        for k in range(d, 2 * d - 1):
            c = prod[k]
            if c:
                red = self._red[k - d]
                for i in range(d):
                    out[i] += c * red[i]
        return tuple(out)

    def is_zero(self, a):
        return all(x == 0 for x in a)

    def _power_bounds(self, prec):
        """Integers L_i <= x^i * 2^prec <= U_i for i < degree.

        The powers come from a rigorous interval enclosure of x at
        precision prec; scaling a binary endpoint by 2^prec and rounding
        it to an integer outward are exact operations on its mantissa and
        exponent, so no bound passes through a rounded conversion.
        """
        if prec in self._bounds:
            return self._bounds[prec]
        with iv_precision(prec) as iv:
            from mpmath import libmp
            x = 2 * iv.cos(iv.pi / self.N)
            p = iv.mpf(1)
            L, U = [], []
            for _ in range(self.degree):
                a, b = p._mpi_
                L.append(libmp.to_int(libmp.mpf_shift(a, prec), "f"))
                U.append(libmp.to_int(libmp.mpf_shift(b, prec), "c"))
                p = p * x
        self._bounds[prec] = (L, U)
        return L, U

    def sign(self, a):
        """-1, 0, or 1; exact zero by coordinates, otherwise certified by
        integer bounds on the element times 2^P, doubling P as needed."""
        if self.is_zero(a):
            return 0
        if self.degree == 1:
            return -1 if a[0] < 0 else 1
        den = lcm(*(c.denominator for c in a))
        if den != 1:
            a = [int(c * den) for c in a]
        prec = SIGN_START_PREC
        for _ in range(SIGN_DOUBLINGS):
            L, U = self._power_bounds(prec)
            lo = hi = 0
            for c, l, u in zip(a, L, U):
                if c > 0:
                    lo += c * l
                    hi += c * u
                elif c < 0:
                    lo += c * u
                    hi += c * l
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2
        raise ValidationMismatch(
            "sign refinement failed to converge on a nonzero element")

    def __repr__(self):
        return f"CycloField(N={self.N}, degree={self.degree})"
