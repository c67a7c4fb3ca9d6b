"""References written straight from the paper's formulas and definitions,
for the tests only: the package never calls them, and they share no code
with the routes they check.  The paper check wlang_limit_check holds the
package's polynomials against one of them.

The test classes here are collected through tests/test_exactnum.py, which
imports them.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from hurwitzcf import fibpoly
from hurwitzcf.cf_engine import Convergent
from hurwitzcf.hurwitz import CFParams, magic_pairs
from hurwitzcf.identities import eval_unipoly, p_poly, q_poly

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


def lucas_eval(n: int, a: int) -> int:
    """L_n evaluated at q = a: F_{n-1}(a) + F_{n+1}(a), with fib_eval
    looked up on fibpoly at each call, so that a fault planted there
    shows here too."""
    if n < 0:
        raise ValueError("Lucas values are only defined for n >= 0 here")
    return fibpoly.fib_eval(n - 1, a) + fibpoly.fib_eval(n + 1, a)


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


def top_down_first_sum(n: int, p: int, q: int, s: int) -> int:
    """X_n(p) = sum_k s^k C(n-k, k) (p+kq)...(p+(n-1-k)q), term by term
    from the first term down: t_0 = prod_{j<n} (p + jq) and
    t_{k+1} = t_k s (n-2k)(n-2k-1) / ((n-k)(k+1)(p+(n-1-k)q)(p+kq)).
    Every term is an integer, so each division must be exact."""
    t = math.prod(p + j * q for j in range(n))
    total = t
    for k in range(n // 2):
        t, rem = divmod(t * s * (n - 2 * k) * (n - 2 * k - 1),
                        (n - k) * (k + 1) * (p + (n - 1 - k) * q)
                        * (p + k * q))
        if rem:
            raise ArithmeticError(f"term {k + 1} of X_{n} is not an integer")
        total += t
    return total


# Values for the limits' tests, from stdlib decimal, math.isqrt and exact
# Fractions: nothing here calls hurwitzcf.limits or hurwitzcf.exactnum.


def exp_ref(x: int, digits: int) -> Fraction:
    """e^x by stdlib Decimal.exp at ``digits`` significant digits.  Decimal
    rounds exp correctly, so |e^x - exp_ref(x, digits)| < e^x 10^(1-digits)."""
    with localcontext() as ctx:
        ctx.prec = digits
        return Fraction(Decimal(x).exp())


def taylor_ref(x: Fraction, odd: bool, sign: int, digits: int) -> Fraction:
    """sum_k sign^k x^(2k+p) / (2k+p)!, p = 1 if odd, for |x| <= 1: sin and
    cos at sign = -1, sinh and cosh at sign = 1, within 10^-digits.  The
    terms are summed in Decimal at digits + 20 significant digits until one
    is below 10^-(digits+20).  Each term is at most 1/n! and fewer than
    digits + 25 are summed, each with a relative rounding error of a few
    10^-(digits+19); the terms left out fall by a factor 6 each."""
    if abs(x) > 1:
        raise ValueError(f"taylor_ref needs |x| <= 1, got {x}")
    with localcontext() as ctx:
        ctx.prec = digits + 20
        y, eps = Decimal(x.numerator) / x.denominator, Decimal(10) ** -(
            digits + 20)
        n = 1 if odd else 0
        term = total = y if odd else Decimal(1)
        while abs(term) >= eps:
            term = term * sign * y * y / ((n + 1) * (n + 2))
            total += term
            n += 2
        return Fraction(total)


def sqrt_bounds(n: int, bits: int) -> tuple[Fraction, Fraction]:
    """lo <= sqrt(n) < hi = lo + 2^-bits for an integer n >= 0, from
    math.isqrt(n 4^bits)."""
    a = math.isqrt(n << 2 * bits)
    return Fraction(a, 1 << bits), Fraction(a + 1, 1 << bits)


def series_ab_ref(sigma: Fraction, rho: Fraction,
                  digits: int) -> tuple[Fraction, Fraction, Fraction]:
    """(A, B, err): A = 0F1(; sigma; rho) = sum_k a_k with
    a_k = rho^k / (k! (sigma)_k), and B = sum_k k a_k
    (= rho/sigma 0F1(; sigma+1; rho)), for sigma > 0, as exact partial sums
    over k < N, and err < 10^-digits bounding both tails.  The ratio
    a_{k+1}/a_k = rho / ((k+1)(sigma+k)) falls in absolute value, so once it
    is at most 1/2 at N, |a_{N+j}| <= |a_N| 2^-j: A's tail is at most
    2 |a_N| and B's at most (2N + 2) |a_N| = err."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    eps = Fraction(1, 10 ** digits)
    a = b = Fraction(0)
    term, k = Fraction(1), 0
    while True:
        ratio = rho / ((k + 1) * (sigma + k))
        err = (2 * k + 2) * abs(term)
        if 2 * abs(ratio) <= 1 and err < eps:
            return a, b, err
        a, b, term, k = a + term, b + k * term, term * ratio, k + 1


def half_odd_bessel_ref(s: int, n: int, z: Fraction) -> tuple[Fraction,
                                                                 Fraction]:
    """(c, d) with sqrt(pi z/2) X_{n+1/2}(z) = c C + d S for n >= -1, where
    X, C, S are I, cosh z, sinh z (s = 1) or J, cos z, sin z (s = -1): the
    finite sums of DLMF 10.49.2 and 10.49.9 (z j_n(z) and z i_n^(1)(z)),
    with a_k = (n+k)! / (2^k k! (n-k)!), k <= n (a_k(-nu) = a_k(nu), so
    n = -1 has n = 0's a_0 = 1).
    J: sin(z - n pi/2) sum_j (-1)^j a_2j / z^2j
       + cos(z - n pi/2) sum_j (-1)^j a_2j+1 / z^(2j+1);
    I: (e^z sum_k (-1)^k a_k / z^k + (-1)^(n+1) e^-z sum_k a_k / z^k) / 2,
       with e^(+-z) = C +- S."""
    m = n if n >= 0 else -1 - n
    a = [Fraction(math.factorial(m + k),
                  2 ** k * math.factorial(k) * math.factorial(m - k))
         / z ** k for k in range(m + 1)]
    if s == 1:
        alt = sum((-1) ** k * t for k, t in enumerate(a))
        plain = (-1) ** (n + 1) * sum(a)
        return (alt + plain) / 2, (alt - plain) / 2
    even = sum((-1) ** j * t for j, t in enumerate(a[::2]))
    odd = sum((-1) ** j * t for j, t in enumerate(a[1::2]))
    # sin(z - n pi/2), cos(z - n pi/2) as (C, S) rows, by n mod 4
    sin_row, cos_row = {0: ((0, 1), (1, 0)), 1: ((-1, 0), (0, 1)),
                        2: ((0, -1), (-1, 0)), 3: ((1, 0), (0, -1))}[n % 4]
    return (sin_row[0] * even + cos_row[0] * odd,
            sin_row[1] * even + cos_row[1] * odd)


def wlang_limit_check(m: int, n: int, digits: int) -> bool:
    """The paper's generalized continued fraction: P_n(x)/Q_n(x) at
    x = 1/(4 m^2) is within 10^-digits of its limit
    sqrt(x) I_1(2 sqrt(x)) / I_0(2 sqrt(x)) = B/A at sigma = 1, rho = x.
    A >= 1 > B >= 0 and both tails are below err < 1/4, so
    |B/A - b/a| <= err (a + b) / (a (a - err)) <= 4 err."""
    if m < 2:
        raise ValueError("m must be >= 2")
    x = Fraction(1, 4 * m * m)
    lhs = eval_unipoly(p_poly(n), x) / eval_unipoly(q_poly(n), x)
    a, b, err = series_ab_ref(Fraction(1), x, digits + 5)
    return abs(lhs - b / a) + 4 * err < Fraction(1, 10 ** digits)


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


class TestReferences:
    @pytest.mark.parametrize("x", [F(1, 3), F(1, 2), F(1), F(-2, 7),
                                   F(-3, 5)])
    def test_taylor_vs_math(self, x):
        for odd, sign, fn in ((True, -1, math.sin), (False, -1, math.cos),
                              (True, 1, math.sinh), (False, 1, math.cosh)):
            assert abs(float(taylor_ref(x, odd, sign, 20)) - fn(x)) < 1e-15

    def test_taylor_guard(self):
        with pytest.raises(ValueError, match="taylor_ref needs"):
            taylor_ref(F(3, 2), True, -1, 10)

    def test_pythagorean_identity(self):
        s, c = (taylor_ref(F(3, 7), odd, -1, 60) for odd in (True, False))
        assert abs(s * s + c * c - 1) < F(3, 10 ** 60)

    def test_exp_vs_math_and_taylor(self):
        for x in (1, -3, 2):
            assert abs(float(exp_ref(x, 20)) / math.exp(x) - 1) < 1e-15
        # e = cosh 1 + sinh 1: the two references agree
        e = sum(taylor_ref(F(1), odd, 1, 60) for odd in (True, False))
        assert abs(exp_ref(1, 62) - e) < F(3, 10 ** 60)

    # each reference against itself 30 digits deeper, within its stated error
    @pytest.mark.parametrize("digits", [10, 40, 80])
    def test_exp_ref_within_one_unit(self, digits):
        for x in (1, -3, 2):
            deep = exp_ref(x, digits + 30)
            assert abs(exp_ref(x, digits) - deep) < deep / 10 ** (digits - 1)

    @pytest.mark.parametrize("digits", [20, 60, 200])
    def test_taylor_ref_within_its_bound(self, digits):
        for x in (F(1), F(-1), F(1, 3), F(-2, 7)):
            for odd in (True, False):
                for sign in (1, -1):
                    deep = taylor_ref(x, odd, sign, digits + 30)
                    assert abs(taylor_ref(x, odd, sign, digits) - deep) \
                        < F(1, 10 ** digits)

    # sigma half-odd, integer and other; the terms of -25/4 cancel
    @pytest.mark.parametrize("sigma,rho", [
        (F(3, 2), F(1, 16)), (F(7, 2), F(-1, 4)), (F(2), F(1, 9)),
        (F(1, 2), F(-25, 4)), (F(11, 18), F(-1, 324)), (F(1), F(1, 16))])
    def test_series_ab_ref_tails_within_err(self, sigma, rho):
        a, b, err = series_ab_ref(sigma, rho, 30)
        deep_a, deep_b, deep_err = series_ab_ref(sigma, rho, 80)
        assert err < F(1, 10 ** 30)
        assert abs(a - deep_a) <= err + deep_err
        assert abs(b - deep_b) <= err + deep_err

    def test_sqrt_bounds(self):
        lo, hi = sqrt_bounds(2, 100)
        assert lo * lo <= 2 < hi * hi and hi - lo == F(1, 2 ** 100)
        assert sqrt_bounds(16, 3) == (4, F(33, 8))

    def test_series_ab_ref_is_cos_and_sin(self):
        # sigma = 1/2, rho = -x^2/4: A = cos x and B = -(x/2) sin x
        for x in (F(1), F(-2, 3)):
            a, b, err = series_ab_ref(F(1, 2), -x * x / 4, 50)
            assert err < F(1, 10 ** 50)
            s, c = (taylor_ref(x, odd, -1, 60) for odd in (True, False))
            assert abs(a - c) < err + F(1, 10 ** 60)
            assert abs(b + x * s / 2) < err + F(1, 10 ** 60)

    def test_half_odd_bessel_ref_textbook_forms(self):
        # X_{-1/2} = C, X_{1/2} = S, X_{3/2} = s (C - S/z) and
        # X_{5/2} = (3/z^2 + s) S - (3/z) C, for I (s = 1) and J (s = -1)
        for z in (F(2, 7), F(5)):
            for s in (1, -1):
                assert half_odd_bessel_ref(s, -1, z) == (1, 0)
                assert half_odd_bessel_ref(s, 0, z) == (0, 1)
                assert half_odd_bessel_ref(s, 1, z) == (s, -s / z)
                assert half_odd_bessel_ref(s, 2, z) == (-3 / z, 3 / z / z + s)

    @pytest.mark.parametrize("z", [F(3, 4), F(1, 100), F(5)])
    def test_half_odd_bessel_ref_order_recurrence(self, z):
        # X_{n+3/2} = s (X_{n-1/2} - (2n+1)/z X_{n+1/2}), row by row
        for s in (1, -1):
            rows = [half_odd_bessel_ref(s, n, z) for n in range(-1, 41)]
            for lo, mid, hi, n in zip(rows, rows[1:], rows[2:], range(40)):
                assert hi == tuple(s * (x - (2 * n + 1) / z * y)
                                   for x, y in zip(lo, mid)), (s, n)

    def test_series_ab_ref_sigma_refused(self):
        with pytest.raises(ValueError, match="sigma must be positive"):
            series_ab_ref(F(-1, 2), F(1, 4), 10)
