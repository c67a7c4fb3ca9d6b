"""Rational references written straight from the paper's formulas, for the
tests only: the package computes in integers and never calls them.

The test classes here are collected through tests/test_exactnum.py, which
imports them.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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
