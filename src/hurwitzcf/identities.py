"""Exact polynomial identity verification.

Bivariate polynomials in (x, y) with rational coefficients carry the two
summation lemmas, which are checked on integer coefficients scaled by n!;
univariate P_n/Q_n connect every third convergent of the
integer-magic-sum family to a generalized continued fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


class BivarPoly:
    """Sparse bivariate polynomial: {(deg_x, deg_y): nonzero Fraction}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        cleaned = {}
        for key, c in (coeffs or {}).items():
            c = Fraction(c)
            if c:
                cleaned[key] = c
        self.coeffs = cleaned

    @classmethod
    def const(cls, c) -> "BivarPoly":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def x(cls) -> "BivarPoly":
        return cls({(1, 0): Fraction(1)})

    @classmethod
    def y(cls) -> "BivarPoly":
        return cls({(0, 1): Fraction(1)})

    def __add__(self, other):
        if not isinstance(other, BivarPoly):
            other = BivarPoly.const(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, Fraction(0)) + c
        return BivarPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return BivarPoly({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, BivarPoly):
            other = BivarPoly.const(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, BivarPoly):
            other = BivarPoly.const(other)
        out = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return BivarPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, BivarPoly):
            other = BivarPoly.const(other)
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        return f"BivarPoly({self.coeffs!r})"


def _falling(shift: int, k: int) -> dict:
    """(y + shift)_k as integer coefficients {(0, deg_y): c}."""
    coeffs = [1]  # of y^0, y^1, ...
    for j in range(k):
        a = shift - j  # times (y + a): c'_i = a c_i + c_{i-1}
        coeffs = [a * c + c_lo for c, c_lo in zip(coeffs + [0], [0] + coeffs)]
    return {(0, i): c for i, c in enumerate(coeffs)}


def falling_factorial_poly(shift: int, k: int) -> BivarPoly:
    """(y + shift)_k as a polynomial in y."""
    return BivarPoly(_falling(shift, k))


def _add_scaled(acc: dict, poly: dict, dx: int, c: int) -> None:
    """acc += c * x^dx * poly, on integer coefficient dicts."""
    for (i, j), v in poly.items():
        key = (i + dx, j)
        acc[key] = acc.get(key, 0) + c * v


def _nonzero(acc: dict) -> dict:
    return {key: c for key, c in acc.items() if c}


def symbolic_binom(shift: int, k: int) -> BivarPoly:
    """binom(y + shift, k) with symbolic y: (y + shift)_k / k!."""
    if k < 0:
        return BivarPoly()
    return falling_factorial_poly(shift, k) * Fraction(1, math.factorial(k))


@lru_cache(maxsize=None)
def _scaled(n: int, odd: int) -> dict:
    """n! R_n (odd = 0) or n! S_n (odd = 1) as integer coefficients
    {(deg_x, deg_y): c}: sum_k (n!/k!) x^(k+odd) (y+n)_(n-k-odd)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    acc = {}
    for k in range(n + 1 - odd):
        _add_scaled(acc, _falling(n, n - k - odd), k + odd,
                    math.perm(n, n - k))
    return _nonzero(acc)


def _unscaled(n: int, odd: int) -> BivarPoly:
    """R_n or S_n: the scaled form divided by n!."""
    scaled = _scaled(n, odd)
    f = math.factorial(n)
    return BivarPoly({key: Fraction(c, f) for key, c in scaled.items()})


def r_poly(n: int) -> BivarPoly:
    """R_n(x, y) = sum_{k<=n} x^k (y+n)_{n-k} / k!."""
    return _unscaled(n, 0)


def s_poly(n: int) -> BivarPoly:
    """S_n(x, y) = sum_{k<=n-1} x^(k+1) (y+n)_{n-k-1} / k!."""
    return _unscaled(n, 1)


def r_poly_binom_form(n: int) -> BivarPoly:
    """R_n by its original binomial definition:
    (1/n!) sum_k binom(n,k) binom(n+y, n-k) (n-k)!^2 x^k."""
    x = BivarPoly.x()
    acc = BivarPoly()
    xk = BivarPoly.const(1)
    for k in range(n + 1):
        c = Fraction(math.comb(n, k) * math.factorial(n - k) ** 2,
                     math.factorial(n))
        acc = acc + xk * symbolic_binom(n, n - k) * c
        xk = xk * x
    return acc


def s_poly_binom_form(n: int) -> BivarPoly:
    x = BivarPoly.x()
    acc = BivarPoly()
    xk = x
    for k in range(n):
        c = Fraction(math.comb(n, k) * math.factorial(n - k)
                     * math.factorial(n - k - 1), math.factorial(n))
        acc = acc + xk * symbolic_binom(n, n - k - 1) * c
        xk = xk * x
    return acc


def _lemma(n: int, odd: int) -> bool:
    """n! times both sides of the R (odd = 0) or S (odd = 1) lemma, compared
    as integer coefficients:
    sum_m (-1)^(n-m) C(n,m) x^(n-m) m! R_m
        = sum_k n! C(n-k-odd, k) x^(k+odd) (y+n-k)_(n-2k-odd)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    lhs, rhs, f = {}, {}, math.factorial(n)
    for m in range(n + 1):
        _add_scaled(lhs, _scaled(m, odd), n - m,
                    (-1) ** (n - m) * math.comb(n, m))
    for k in range((n - odd) // 2 + 1):
        _add_scaled(rhs, _falling(n - k, n - 2 * k - odd), k + odd,
                    f * math.comb(n - k - odd, k))
    return _nonzero(lhs) == _nonzero(rhs)


def verify_rsum(n: int) -> bool:
    """Lemma: sum_{m<=n} ((-x)^(n-m)/(n-m)!) R_m(x,y)
    = sum_{k<=n/2} ((n-k)!/k!) binom(n+y-k, n-2k) x^k, exactly.
    ((n-k)!/k!) binom(n+y-k, n-2k) = C(n-k, k) (y+n-k)_{n-2k}."""
    return _lemma(n, 0)


def verify_ssum(n: int) -> bool:
    """The companion identity for S_n (powers x^(k+1), width n-2k-1):
    ((n-k-1)!/k!) binom(n+y-k, n-2k-1) = C(n-k-1, k) (y+n-k)_{n-2k-1}."""
    return _lemma(n, 1)


# ---------------------------------------------------------------------------
# univariate P_n, Q_n

UniPoly = list  # list[int], index = degree


def p_poly(n: int) -> UniPoly:
    """P_n(x) = sum_{k<=(n-1)/2} ((n-k-1)!/k!) C(n-k, n-2k-1) x^(k+1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return []
    return [0] + [math.perm(n - k - 1, n - 2 * k - 1)
                  * math.comb(n - k, n - 2 * k - 1)
                  for k in range((n - 1) // 2 + 1)]


def q_poly(n: int) -> UniPoly:
    """Q_n(x) = sum_{k<=n/2} ((n-k)!/k!) C(n-k, n-2k) x^k."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return [math.perm(n - k, n - 2 * k) * math.comb(n - k, n - 2 * k)
            for k in range(n // 2 + 1)]


def eval_unipoly(poly: UniPoly, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def gcf_convergent_check(n: int, x) -> bool:
    """P_n(x)/Q_n(x) equals the generalized continued fraction
    0 + x/(1 + x/(2 + ... + x/n)), by the standard recurrence
    A_i = a_i A_{i-1} + b_i A_{i-2} with a_i = i, b_i = x."""
    if n < 1:
        raise ValueError("n must be >= 1")
    x = Fraction(x)
    num_prev, num = Fraction(1), Fraction(0)   # A_{-1}, A_0 (a_0 = 0)
    den_prev, den = Fraction(0), Fraction(1)
    for i in range(1, n + 1):
        num, num_prev = i * num + x * num_prev, num
        den, den_prev = i * den + x * den_prev, den
    lhs = eval_unipoly(p_poly(n), x) / eval_unipoly(q_poly(n), x)
    return lhs == num / den
