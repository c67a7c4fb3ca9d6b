from fractions import Fraction

import pytest

from hurwitzcf import fibpoly
from hurwitzcf.exactnum import PrecReal
from hurwitzcf.fibpoly import (fib_eval, fib_poly, fib_via_even_sets,
                               lucas_poly)
import reference
from reference import lucas_eval, sqrt_bounds


def fib_generating_check(d: int, r: int, alpha: int, N: int) -> bool:
    """The paper's generating function of the subsequence F_{nd+r+1}(alpha):

    (1 - L_d(a) t + (-1)^d t^2) * sum_{n<=N} F_{nd+r+1}(a) t^n
        = F_{r+1}(a) + (-1)^(r+1) F_{d-r-1}(a) t   (mod t^(N+1)),

    with fibpoly.fib_eval and reference.lucas_eval looked up on their
    modules at each call, so that a fault planted there shows."""
    if N < 1:
        raise ValueError("N must be >= 1")
    a, fib = alpha, fibpoly.fib_eval
    s = [0, 0] + [fib(n * d + r + 1, a) for n in range(N + 1)]
    lucas, sign = reference.lucas_eval(d, a), (-1) ** d
    expect = [fib(r + 1, a), (-1) ** (r + 1) * fib(d - r - 1, a)] \
        + [0] * (N - 1)
    # coefficient n of the product: s_n - L_d s_{n-1} + (-1)^d s_{n-2}
    return all(s[n + 2] - lucas * s[n + 1] + sign * s[n] == want
               for n, want in enumerate(expect))


def test_fib_seed_values():
    assert fib_poly(0) == ()
    assert fib_poly(1) == (1,)
    assert fib_poly(3) == (1, 0, 1)        # q^2 + 1
    assert fib_poly(4) == (0, 2, 0, 1)     # q^3 + 2q


def test_lucas_seed_values():
    assert lucas_poly(0) == (2,)
    assert lucas_poly(1) == (0, 1)
    assert lucas_poly(3) == (0, 3, 0, 1)        # q^3 + 3q
    assert lucas_poly(4) == (2, 0, 4, 0, 1)     # q^4 + 4q^2 + 2


def test_common_recurrence_coefficientwise():
    for fam in (fib_poly, lucas_poly):
        for n in range(2, 51):
            got = list(fam(n))
            want = fibpoly.poly_add(
                fibpoly._shift_q(list(fam(n - 1))), list(fam(n - 2)))
            assert got == want, (fam.__name__, n)


def test_negative_index_extension():
    # F_{-n} = (-1)^(n+1) F_n, so F_{-1} = 1
    assert fib_poly(-1) == (1,)
    for n in range(1, 12):
        expect = fib_poly(n) if n % 2 == 1 else tuple(-c for c in fib_poly(n))
        assert fib_poly(-n) == expect
        assert fib_eval(-n, 3) == (1 if n % 2 == 1 else -1) * fib_eval(n, 3)


def test_deep_index_on_a_cold_cache():
    # built bottom-up: no recursion, so no depth limit
    fib_poly.cache_clear()
    lucas_poly.cache_clear()
    assert sum(fib_poly(3000)) == fib_eval(3000, 1)
    assert sum(lucas_poly(3000)) == lucas_eval(3000, 1)


def test_lucas_reads_the_fibonacci_build(monkeypatch):
    # L_n comes from the pair F_n, F_{n+1} of the bottom-up build, without
    # asking fib_poly for F_{n-1} (below where the build stopped)
    want = [tuple(fibpoly.poly_add(list(fib_poly(n - 1)),
                                   list(fib_poly(n + 1))))
            for n in range(41)]
    fib_poly.cache_clear()
    lucas_poly.cache_clear()

    def refused(n):
        raise AssertionError(f"fib_poly({n}) called")

    monkeypatch.setattr(fibpoly, "fib_poly", refused)
    assert [lucas_poly(n) for n in range(41)] == want


def test_scalar_evaluation_matches_polynomials():
    for n in range(0, 25):
        for a in (1, 2, 5):
            assert fib_eval(n, a) == sum(c * a ** i
                                         for i, c in enumerate(fib_poly(n)))
            assert lucas_eval(n, a) == sum(c * a ** i
                                           for i, c in enumerate(lucas_poly(n)))


def test_eval_examples():
    assert fib_eval(3, 1) == 2
    assert lucas_eval(3, 1) == 4
    assert fib_eval(2, 4) == 4


def test_lucas_from_fib_identity():
    # L_d(a) = a F_d(a) + 2 F_{d-1}(a)
    for d in range(1, 31):
        for a in range(1, 11):
            assert lucas_eval(d, a) == a * fib_eval(d, a) + 2 * fib_eval(d - 1, a)


def test_fib_product_difference_identity():
    # F_r F_d - F_{r+1} F_{d-1} = (-1)^(r+1) F_{d-r-1}
    for d in range(0, 21):
        for r in range(0, d + 1):
            for a in range(1, 6):
                lhs = fib_eval(r, a) * fib_eval(d, a) \
                    - fib_eval(r + 1, a) * fib_eval(d - 1, a)
                assert lhs == (-1) ** (r + 1) * fib_eval(d - r - 1, a)


def interval_ball(lo: Fraction, hi: Fraction, bits: int) -> PrecReal:
    """The interval [lo, hi] as a ball held to ``bits`` bits."""
    return PrecReal._ratio(*((lo + hi) / 2).as_integer_ratio(),
                           *((hi - lo) / 2).as_integer_ratio(), bits)


def test_closed_form_via_characteristic_roots():
    # F_n(q) = (rho1^n - rho2^n)/sqrt(q^2+4), rho1,2 = (q +- sqrt(q^2+4))/2,
    # certified to < 1e-20
    bits = 256
    tol = Fraction(1, 10 ** 20)
    for q in range(1, 7):
        # the root's isqrt bounds as a ball held to 256 bits
        disc = interval_ball(*sqrt_bounds(q * q + 4, bits), bits)
        for n in range(1, 31):
            # rho1^n and rho2^n are monotone in the root, so the ends of
            # its ball span their ranges
            p1, p2 = ([((q + sign * s) / 2) ** n for s in (disc.lo, disc.hi)]
                      for sign in (1, -1))
            approx = interval_ball(p1[0] - max(p2), p1[1] - min(p2),
                                   bits) / disc
            exact = fib_eval(n, q)
            assert abs(approx.value - exact) + approx.err < tol, (q, n)


def test_even_set_form_matches_recurrence():
    for n in range(1, 19):
        assert fib_via_even_sets(n) == fib_poly(n)


def test_even_set_small_cases():
    assert fib_via_even_sets(1) == (1,)
    assert fib_via_even_sets(2) == (0, 1)
    assert fib_via_even_sets(4) == (0, 2, 0, 1)


def test_lucas_dominates_alpha_fib():
    # supports positivity of the magic sum; equality only at d = 1
    for d in range(0, 25):
        for a in range(1, 8):
            lhs, rhs = lucas_eval(d, a), a * fib_eval(d, a)
            assert lhs > rhs if d != 1 else lhs == rhs


@pytest.mark.parametrize("d,r,alpha", [(3, 2, 1), (1, 0, 1), (2, 0, 2),
                                       (4, 3, 3), (2, 1, 5)])
def test_generating_function_check(d, r, alpha):
    assert fib_generating_check(d, r, alpha, 10)


@pytest.mark.parametrize("fault", ["lucas", "seed"])
def test_generating_function_check_can_fail(monkeypatch, fault):
    # L_d off by one, or the seed F_{r+1} off by one
    lucas, fib = reference.lucas_eval, fibpoly.fib_eval
    for d in range(1, 5):
        for r in range(5):
            with monkeypatch.context() as mp:
                if fault == "lucas":
                    mp.setattr(reference, "lucas_eval",
                               lambda n, a: lucas(n, a) + 1)
                else:
                    mp.setattr(fibpoly, "fib_eval",
                               lambda n, a: fib(n, a) + (n == r + 1))
                for alpha in range(1, 4):
                    assert not fib_generating_check(d, r, alpha, 6)


def test_generating_function_rejects_bad_n():
    with pytest.raises(ValueError):
        fib_generating_check(2, 0, 1, 0)
