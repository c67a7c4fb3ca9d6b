from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hurwitzcf.cf_engine import convergents
from hurwitzcf.hurwitz import CFParams, denom_stream
from hurwitzcf import identities
from hurwitzcf.identities import (BivarPoly, eval_unipoly,
                                  falling_factorial_poly,
                                  gcf_convergent_check, p_poly, q_poly,
                                  r_poly, r_poly_binom_form, s_poly,
                                  s_poly_binom_form, verify_rsum, verify_ssum)

F = Fraction
X = BivarPoly.x()
Y = BivarPoly.y()


class TestBivarPoly:
    def test_zero_coefficients_dropped(self):
        p = BivarPoly({(1, 0): F(1), (0, 1): F(0)})
        assert p.coeffs == {(1, 0): F(1)}

    def test_ring_operations(self):
        p = (X + Y) * (X - Y)
        assert p == X * X - Y * Y

    def test_scalar_mixing(self):
        assert 2 * X + 1 == X + X + BivarPoly.const(1)


def falling_factorial_product(shift, k):
    """(y + shift)_k as a product of linear BivarPoly factors."""
    acc = BivarPoly.const(1)
    for j in range(k):
        acc = acc * (Y + (shift - j))
    return acc


class TestFallingFactorialPoly:
    def test_matches_product_of_linear_factors(self):
        for shift in range(-3, 13):
            for k in range(13):
                assert falling_factorial_poly(shift, k) == \
                    falling_factorial_product(shift, k), (shift, k)

    def test_examples(self):
        assert falling_factorial_poly(5, 0) == BivarPoly.const(1)
        assert falling_factorial_poly(2, 3) == Y * (Y + 1) * (Y + 2)


class TestRS:
    def test_base_cases(self):
        assert r_poly(0) == BivarPoly.const(1)
        assert s_poly(0) == BivarPoly()

    def test_n1(self):
        assert r_poly(1) == Y + 1 + X
        assert s_poly(1) == X

    def test_binom_form_equivalence(self):
        for n in range(13):
            assert r_poly_binom_form(n) == r_poly(n), n
            assert s_poly_binom_form(n) == s_poly(n), n


class TestSummationLemmas:
    def test_rsum_n1_by_hand(self):
        # sum is -x R_0 + R_1 = y + 1; RHS single term k=0
        assert verify_rsum(1)

    def test_ssum_trivial(self):
        assert verify_ssum(0)

    @pytest.mark.parametrize("n", range(0, 21))
    def test_rsum(self, n):
        assert verify_rsum(n)

    @pytest.mark.parametrize("n", range(0, 21))
    def test_ssum(self, n):
        assert verify_ssum(n)


    # one coefficient of one m! R_m (or m! S_m) off by one: n! times the
    # left side at any n >= m gains +-C(n, m) x^(n-m) times that monomial,
    # so the lemma must fail there
    @pytest.mark.parametrize("odd, verify", [(0, verify_rsum),
                                             (1, verify_ssum)])
    def test_detects_a_perturbed_scaled_coefficient(self, monkeypatch, odd,
                                                    verify):
        right = identities._scaled
        for m in range(odd, 7):
            key = min(right(m, odd))

            def wrong(k, o, m=m, key=key):
                coeffs = dict(right(k, o))
                if (k, o) == (m, odd):
                    coeffs[key] += 1
                return coeffs

            monkeypatch.setattr(identities, "_scaled", wrong)
            for n in range(m, m + 4):
                assert not verify(n), (m, n)
            monkeypatch.undo()
            assert verify(m + 3)


class TestPQ:
    def test_base_cases(self):
        assert q_poly(0) == [F(1)]
        assert p_poly(1) == [F(0), F(1)]

    def test_q2_from_definition(self):
        # k=0: 2! C(2,2) = 2; k=1: (1!/1!) C(1,0) = 1
        assert q_poly(2) == [F(2), F(1)]

    def test_integer_coefficients(self):
        for n in range(15):
            for c in p_poly(n) + q_poly(n):
                assert type(c) is int

    def test_gcf_examples(self):
        assert gcf_convergent_check(1, F(1, 4))
        assert gcf_convergent_check(3, F(1, 16))
        assert gcf_convergent_check(10, F(1))

    @settings(max_examples=40)
    @given(st.integers(1, 25), st.fractions(max_denominator=40))
    def test_gcf_random(self, n, x):
        if x == 0:
            x = F(1, 2)
        assert gcf_convergent_check(n, abs(x))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_every_third_convergent_connection(m):
    # for (1, m-1, m, 3, 2): p_{3n+1} = 2 (2m)^n Q_n(1/(4m^2)) and
    # q_{3n+1} = (2m)^n (2m P_n + Q_n), exactly
    params = CFParams(1, m - 1, m, 3, 2)
    x = F(1, 4 * m * m)
    convs = convergents(denom_stream(params), 31)
    for n in range(11):
        qv = eval_unipoly(q_poly(n), x)
        pv = eval_unipoly(p_poly(n), x)
        ref = convs[3 * n + 2]  # index 3n+1
        assert ref.n == 3 * n + 1
        assert F(ref.p) == 2 * (2 * m) ** n * qv
        assert F(ref.q) == (2 * m) ** n * (2 * m * pv + qv)
