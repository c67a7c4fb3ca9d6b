from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hurwitzcf.cf_engine import convergents
from hurwitzcf.hurwitz import CFParams, denom_stream
from hurwitzcf import identities
from hurwitzcf.identities import (_falling, _scaled, eval_unipoly,
                                  gcf_convergent_check, p_poly, q_poly,
                                  verify_rsum, verify_ssum)

from reference import falling_product, scaled_rs

F = Fraction


class TestFallingFactorialPoly:
    def test_matches_product_of_linear_factors(self):
        for shift in range(-3, 13):
            for k in range(13):
                want = falling_product(shift, k)
                assert _falling(shift, k) == {
                    (0, i): c for i, c in enumerate(want)}, (shift, k)

    def test_examples(self):
        assert _falling(5, 0) == {(0, 0): 1}
        # y (y+1) (y+2) = 2y + 3y^2 + y^3
        assert _falling(2, 3) == {(0, 0): 0, (0, 1): 2, (0, 2): 3, (0, 3): 1}


class TestRS:
    # _scaled(n, 0) is n! R_n and _scaled(n, 1) is n! S_n
    def test_base_cases(self):
        assert _scaled(0, 0) == {(0, 0): 1}
        assert _scaled(0, 1) == {}

    def test_n1(self):
        assert _scaled(1, 0) == {(0, 0): 1, (0, 1): 1, (1, 0): 1}  # y + 1 + x
        assert _scaled(1, 1) == {(1, 0): 1}                        # x

    def test_binom_form_equivalence(self):
        for n in range(13):
            assert _scaled(n, 0) == scaled_rs(n, 0), n
            assert _scaled(n, 1) == scaled_rs(n, 1), n


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
