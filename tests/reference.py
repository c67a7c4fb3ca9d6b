"""References written straight from the paper's formulas and definitions,
for the tests only: the package never calls them, and they share no code
with the routes they check.

The test classes here are collected through tests/test_exactnum.py, which
imports them.
"""

import math
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from hurwitzcf.cf_engine import Convergent
from hurwitzcf.hurwitz import CFParams, magic_pairs

F = Fraction


def falling_factorial(x, k: int) -> Fraction:
    """(x)_k = x (x-1) ... (x-k+1); the empty product for k = 0."""
    if k < 0:
        raise ValueError(f"falling factorial needs k >= 0, got {k}")
    acc = Fraction(1)
    x = Fraction(x)
    for j in range(k):
        acc *= x - j
    return acc


def gbinom(x, k: int) -> Fraction:
    """Generalized binomial coefficient: (x)_k / k! for any rational x."""
    if k < 0:
        raise ValueError(f"gbinom needs k >= 0, got {k}")
    return falling_factorial(x, k) / math.factorial(k)


def sigma_rho(params: CFParams) -> tuple[Fraction, Fraction]:
    """The magic sum sigma and rho as reduced Fractions."""
    sigma, rho = magic_pairs(params)
    return Fraction(*sigma), Fraction(*rho)


def convolve(a: list[int], b: list[int]) -> list[int]:
    """The product of two polynomials given as coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def falling_product(shift: int, k: int) -> list[int]:
    """(y + shift)_k as integer coefficients of y^0, y^1, ..., y^k: the
    product of the linear factors y + (shift - j), j < k."""
    return reduce(convolve, ([shift - j, 1] for j in range(k)), [1])


def scaled_rs(n: int, odd: int) -> dict:
    """n! R_n (odd = 0) or n! S_n (odd = 1) as {(deg_x, deg_y): c}, by the
    binomial definitions

        n! R_n = sum_k C(n,k) C(n+y, n-k) (n-k)!^2 x^k,
        n! S_n = sum_k C(n,k) C(n+y, n-k-1) (n-k)! (n-k-1)! x^(k+1),

    with C(n+y, w) w! = (y+n)_w: C(n,k) (n-k)! (y+n)_(n-k-odd) at
    x^(k+odd)."""
    out = {}
    for k in range(n + 1 - odd):
        c = math.comb(n, k) * math.factorial(n - k)
        for j, v in enumerate(falling_product(n, n - k - odd)):
            if v:
                out[k + odd, j] = c * v
    return out


def is_even_set(s) -> bool:
    """True iff s decomposes into maximal runs of even length."""
    elems = sorted(set(s))
    run = 0
    prev = None
    for x in elems:
        if prev is not None and x == prev + 1:
            run += 1
        else:
            if run % 2 == 1:
                return False
            run = 1
        prev = x
    return run % 2 == 0


def naive_euler_mindig(a, n: int) -> Convergent:
    """p_n and q_n of the Euler-Mindig formulas by enumerating every subset
    of {0..n} (and of {1..n}) and keeping those whose complement is an even
    set: the oracle's oracle of cf_engine.euler_mindig.  Exponential in n,
    with no guard."""
    vals = [a(i) for i in range(n + 1)]

    def em_sum(lo: int) -> int:
        universe = list(range(lo, n + 1))
        total = 0
        for mask in range(1 << len(universe)):
            s = [universe[i] for i in range(len(universe)) if mask >> i & 1]
            if is_even_set(set(universe) - set(s)):
                total += math.prod(vals[i] for i in s)
        return total

    return Convergent(n, em_sum(0), em_sum(1))


def plain_convergents(a, n_max: int) -> list[Convergent]:
    """Convergents for n = -1, 0, ..., n_max by the recurrence
    p_n = a_n p_{n-1} + p_{n-2}, q_n = a_n q_{n-1} + q_{n-2}, with the
    product taken at every step, unit terms included."""
    out = [Convergent(-1, 1, 0)]
    p_prev, q_prev = 1, 0
    p, q = a(0), 1
    out.append(Convergent(0, p, q))
    for n in range(1, n_max + 1):
        an = a(n)
        p, p_prev = an * p + p_prev, p
        q, q_prev = an * q + q_prev, q
        out.append(Convergent(n, p, q))
    return out


def double_sum_numerators(params: CFParams, n_max: int) -> list[int]:
    """p_{nd+r-1}, n = 0..n_max, by the compact recurrence as written,

        p_{nd+r-1} = F_{nd+r+1}(a)
                     + sum_{k<n} p_{kd+r-1} (beta0 + beta1 k - a) F_{(n-k)d},

    each weight recomputed inside every later sum."""
    a, b0, b1, d, r = (params.alpha, params.beta0, params.beta1,
                       params.d, params.r)
    fib = [0, 1]
    while len(fib) < n_max * d + r + 2:
        fib.append(a * fib[-1] + fib[-2])
    out: list[int] = []
    for n in range(n_max + 1):
        out.append(fib[n * d + r + 1] + sum(
            out[k] * (b0 + b1 * k - a) * fib[(n - k) * d] for k in range(n)))
    return out


class TestFallingFactorial:
    def test_empty_product(self):
        assert falling_factorial(F(3, 2), 0) == 1

    def test_five_halves_squared_steps(self):
        assert falling_factorial(F(5, 2), 2) == F(15, 4)

    def test_magic_sum_shifted(self):
        # (sigma + n - 1)_n at sigma = 3/2, n = 3: (7/2)(5/2)(3/2)
        sigma = F(3, 2)
        assert falling_factorial(sigma + 2, 3) == F(105, 8)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            falling_factorial(F(1), -1)

    @given(st.fractions(max_denominator=50), st.integers(0, 20),
           st.integers(0, 20))
    def test_composition(self, x, j, k):
        lhs = falling_factorial(x, j + k)
        rhs = falling_factorial(x, j) * falling_factorial(x - j, k)
        assert lhs == rhs


class TestGbinom:
    def test_simple_values(self):
        assert gbinom(F(3, 2), 1) == F(3, 2)
        assert gbinom(F(3, 2), 0) == 1
        assert gbinom(F(5, 2), 2) == F(15, 8)

    def test_matches_integer_binomials(self):
        for m in range(41):
            for k in range(m + 1):
                assert gbinom(F(m), k) == math.comb(m, k)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            gbinom(F(1), -2)
