import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from hurwitzcf.exactnum import (PrecReal, falling_factorial, gbinom,
                                to_prec_real)
from hurwitzcf.hurwitz import CFParams
from hurwitzcf.limits import xi_limit

F = Fraction


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


class TestRationalExactness:
    @given(st.fractions(max_denominator=10 ** 6),
           st.fractions(max_denominator=10 ** 6))
    def test_cross_multiplied_sum(self, a, b):
        s = a + b
        assert (s * a.denominator * b.denominator
                == a.numerator * b.denominator + b.numerator * a.denominator)


class TestPrecReal:
    def test_exact_zero(self):
        z = to_prec_real(F(0), 50)
        assert z.value == 0 and z.err == 0

    def test_dyadic_is_exact(self):
        v = to_prec_real(F(7, 4), 10)
        assert v.value == F(7, 4)
        assert v.err == 0

    def test_one_third(self):
        v = to_prec_real(F(1, 3), 5)
        assert abs(v.value - F(1, 3)) <= F(1, 3) * F(1, 10 ** 5)

    @given(st.fractions(max_denominator=1000),
           st.fractions(max_denominator=1000),
           st.fractions(max_denominator=1000))
    def test_bounds_contain_exact_result(self, a, b, c):
        pa, pb, pc = (to_prec_real(x, 8) if x else PrecReal(0)
                      for x in (a, b, c))
        got = pa * pb + pc - pa
        exact = a * b + c - a
        assert abs(got.value - exact) <= got.err

    @given(st.fractions(max_denominator=1000),
           st.fractions(max_denominator=1000))
    @example(F(3), F(66323314785954797080018219, 3))
    @example(F(1), F(39418174802956416133889620, 3))
    def test_doubling_precision_tightens(self, a, b):
        lo = to_prec_real(a, 6) * to_prec_real(b, 6)
        hi = to_prec_real(a, 12) * to_prec_real(b, 12)
        exact = a * b
        assert abs(lo.value - exact) <= lo.err
        assert abs(hi.value - exact) <= hi.err
        assert hi.err <= lo.err

    def test_division_by_zero_interval(self):
        with pytest.raises(ZeroDivisionError):
            PrecReal(1) / PrecReal(F(1, 100), F(1, 10))

    def test_decimal_rendering(self):
        assert PrecReal(F(1, 3)).decimal(6) == "0.333333"
        assert PrecReal(F(-7, 4)).decimal(2) == "-1.75"

    def test_repr(self):
        assert repr(PrecReal(F(-1, 3), F(1, 7))) == "PrecReal(-1/3 ± 1/7)"
        assert repr(PrecReal(3)) == "PrecReal(3 ± 0)"

    def test_repr_beyond_the_str_digit_limit(self):
        # the radius of a 3000-digit ball has a denominator of more than
        # 4300 digits; int(str) stops at that limit, Decimal does not
        v = xi_limit(CFParams(1, 2, 2, 3, 2), 3000)
        center, radius = repr(v)[len("PrecReal("):-1].split(" ± ")
        parts = [int(Decimal(t)) for t in center.split("/")
                 + radius.split("/")]
        assert len(radius.split("/")[1]) > 4300
        assert (F(parts[0], parts[1]), F(parts[2], parts[3])) == \
            (v.value, v.err)

    def test_immutability(self):
        v = PrecReal(1)
        with pytest.raises(AttributeError):
            v.value = 2
