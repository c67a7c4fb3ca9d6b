"""Exact polynomial identity verification.

The bivariate polynomials R_n(x, y) and S_n(x, y) carry the two summation
lemmas.  Both live in one form, scaled by n! to integer coefficients
(``_scaled``), and the lemmas are checked on it.  Univariate P_n/Q_n
connect every third convergent of the integer-magic-sum family to a
generalized continued fraction.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction


def _falling(shift: int, k: int) -> dict:
    """(y + shift)_k as integer coefficients {(0, deg_y): c}."""
    coeffs = [1]  # of y^0, y^1, ...
    for j in range(k):
        a = shift - j  # times (y + a): c'_i = a c_i + c_{i-1}
        coeffs = [a * c + c_lo for c, c_lo in zip(coeffs + [0], [0] + coeffs)]
    return {(0, i): c for i, c in enumerate(coeffs)}


def _add_scaled(acc: dict, poly: dict, dx: int, c: int) -> None:
    """acc += c * x^dx * poly, on integer coefficient dicts."""
    for (i, j), v in poly.items():
        key = (i + dx, j)
        acc[key] = acc.get(key, 0) + c * v


def _nonzero(acc: dict) -> dict:
    return {key: c for key, c in acc.items() if c}


@lru_cache(maxsize=None)
def _scaled(n: int, odd: int) -> dict:
    """n! R_n (odd = 0) or n! S_n (odd = 1) as integer coefficients
    {(deg_x, deg_y): c}: sum_k (n!/k!) x^(k+odd) (y+n)_(n-k-odd).  The one
    form of R_n and S_n; R_n itself is this over n!."""
    if n < 0:
        raise ValueError("n must be >= 0")
    acc = {}
    for k in range(n + 1 - odd):
        _add_scaled(acc, _falling(n, n - k - odd), k + odd,
                    math.perm(n, n - k))
    return _nonzero(acc)


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
    from fractions import Fraction
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
    from fractions import Fraction
    x = Fraction(x)
    num_prev, num = Fraction(1), Fraction(0)   # A_{-1}, A_0 (a_0 = 0)
    den_prev, den = Fraction(0), Fraction(1)
    for i in range(1, n + 1):
        num, num_prev = i * num + x * num_prev, num
        den, den_prev = i * den + x * den_prev, den
    lhs = eval_unipoly(p_poly(n), x) / eval_unipoly(q_poly(n), x)
    return lhs == num / den
