import hashlib
import inspect
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hurwitzcf import limits
from hurwitzcf.cf_engine import convergents
from hurwitzcf.errors import PrecisionExhausted
from hurwitzcf.exactnum import PrecReal, _split
from hurwitzcf.hurwitz import CFParams, denom_stream, magic_pairs, sigma_tag
from hurwitzcf.limits import (_sum_ratio_series, lehmer_d1, perron_d1,
                              xi_bessel, xi_limit)
from reference import TestReferences  # noqa: F401
from reference import (exp_ref, half_odd_bessel_ref, taylor_ref,
                       wlang_limit_check)

F = Fraction


def overlap(a, b):
    """Two balls describe the same real if their intervals intersect."""
    return a.lo <= b.hi and b.lo <= a.hi


def convergent_bracket(denoms, bound=10 ** 27, count=200):
    """p_N/q_N and p_{N+1}/q_{N+1}, sorted, at the first N < count with
    q_N q_{N+1} > bound.  The limit lies between them, so a ball for it
    must meet this bracket; only the plain recurrence is used, no series."""
    convs = convergents(denoms, count)[1:]
    c, c1 = next((c, c1) for c, c1 in zip(convs, convs[1:])
                 if c.q * c1.q > bound)
    return sorted((F(c.p, c.q), F(c1.p, c1.q)))


def meets(ball, ref, err):
    """The ball meets the interval ref ± err of a reference value."""
    return ball.lo <= ref + err and ref - err <= ball.hi


def kernel_value(t0, ratios, digits):
    """_sum_ratio_series with its unreduced pairs read as values:
    (partial sum, tail bound, terms), without the weighted sum."""
    s_num, _, den, tail_num, _, tail_den, n = _sum_ratio_series(t0, ratios,
                                                                digits)
    return F(s_num, den), F(tail_num, tail_den), n


def ab_series(sigma, rho):
    """[(t0, Ratios)] of A = 0F1(; sigma; rho), from t0 = 1, and of
    B = rho/sigma 0F1(; sigma+1; rho), from t0 = rho/sigma: _0f1's pairs,
    as the limits pass them to the kernel."""
    (p, q), (u, v) = sigma.as_integer_ratio(), rho.as_integer_ratio()
    return [((1, 1), limits._0f1((p, q), (u, v))),
            ((u * q, v * p), limits._0f1((p + q, q), (u, v)))]


def exp_ratios(x):
    """e^x = sum_m x^m / m! from t0 = 1: the ratios x / (m+1), and
    log |t_m / t_0| = m log |x| - log m! in closed form."""
    p, q = x.numerator, x.denominator
    log_x = math.log(abs(p)) - math.log(q)

    def ratio(m):
        return p, q * (m + 1)

    return limits.Ratios(ratio, lambda i, j: [ratio(m) for m in range(i, j)],
                         lambda m: m * log_x - math.lgamma(m + 1))


def arctan_ratios(x: int):
    """arctan(1/x) = sum_n (-1)^n / ((2n+1) x^(2n+1)) from t0 = 1/x: the
    ratios -(2m+1) / (x^2 (2m+3)), below 1/2 in absolute value throughout,
    though growing toward 1/x^2."""
    log_x = math.log(x)

    def ratio(m):
        return -(2 * m + 1), x * x * (2 * m + 3)

    return limits.Ratios(ratio, lambda i, j: [ratio(m) for m in range(i, j)],
                         lambda m: -2 * m * log_x - math.log(2 * m + 1))


def taylor_ball(x, sign, odd, digits):
    """sin, cos (sign -1) or sinh, cosh (sign 1) at x through the kernel:
    x 0F1(; 3/2; sign x^2/4) if odd, else 0F1(; 1/2; sign x^2/4)."""
    p, q = x.as_integer_ratio()
    ratios = limits._0f1((3, 2) if odd else (1, 2), (sign * p * p, 4 * q * q))
    return limits._ball((p, q) if odd else (1, 1), ratios, digits)


def close_to_float(ball, x, tol=1e-12):
    assert ball.err < F(1, 10 ** 13)
    assert abs(float(ball.value) - x) < tol


class TestKernels:
    """The kernel's balls (_ball) on the elementary series."""

    def test_sin_cos_vs_math(self):
        for x in (F(1, 3), F(1, 2), F(1), F(-2, 7)):
            close_to_float(taylor_ball(x, -1, True, 20), math.sin(x))
            close_to_float(taylor_ball(x, -1, False, 20), math.cos(x))

    def test_sinh_cosh_exp_vs_math(self):
        for x in (F(1, 2), F(1), F(-3, 5)):
            close_to_float(taylor_ball(x, 1, True, 20), math.sinh(x))
            close_to_float(taylor_ball(x, 1, False, 20), math.cosh(x))
            close_to_float(limits._ball((1, 1), exp_ratios(x), 20),
                           math.exp(x))

    def test_pythagorean_identity_certified(self):
        x = F(3, 7)
        s, c = taylor_ball(x, -1, True, 30), taylor_ball(x, -1, False, 30)
        # sin x, cos x > 0: their squares are spanned by the balls' ends
        assert s.lo > 0 and c.lo > 0
        lo, hi = s.lo ** 2 + c.lo ** 2, s.hi ** 2 + c.hi ** 2
        assert lo <= 1 <= hi
        assert hi - lo < F(1, 10 ** 25)


class TestSeries:
    def test_rho_zero(self):
        # the kernel stops at m = 0: every ratio is 0, and t_0 of B is 0
        (a0, ra), (b0, rb) = ab_series(F(3, 2), F(0))
        assert kernel_value(a0, ra, 20) == (1, 0, 1)
        assert kernel_value(b0, rb, 20) == (0, 0, 0)

    def test_first_terms_by_hand(self):
        # A = 1 + rho/sigma + rho^2/(2 (sigma+1)_2) + ...
        sigma, rho = F(3, 2), F(1, 16)
        (a, ea, _), (b, eb, _) = (kernel_value(t0, ratios, 30)
                                  for t0, ratios in ab_series(sigma, rho))
        partial = 1 + rho / sigma + rho ** 2 / (2 * (sigma + 1) * sigma)
        assert abs(a - partial) < F(1, 10 ** 4)
        # each tail is below 10^-30 of its sum
        assert b > 0
        assert ea < a * F(1, 10 ** 30) and eb < b * F(1, 10 ** 30)

    def test_negative_rho_alternates(self):
        (a, _, _), (b, _, _) = (kernel_value(t0, ratios, 25)
                                for t0, ratios in ab_series(F(3, 2), F(-1, 4)))
        assert 0 < a < 1
        assert b < 0


def is_pow2(n):
    return n & (n - 1) == 0


def pair(ratio):
    """A Fraction term ratio m -> t_{m+1}/t_m as the kernel's integer pair."""
    def as_pair(m):
        r = F(ratio(m))
        return r.numerator, r.denominator
    return as_pair


def walked(ratio):
    """The kernel's Ratios for a per-term ratio m -> (a, b): its pairs, and
    log |t_m / t_0| summed term by term (-inf once a ratio is 0)."""
    logs = [0.0]

    def log_size(m):
        while len(logs) <= m:
            a, b = ratio(len(logs) - 1)
            logs.append(logs[-1] + (math.log(abs(a)) - math.log(b) if a
                                    else -math.inf))
        return logs[m]

    return limits.Ratios(ratio, lambda i, j: [ratio(m) for m in range(i, j)],
                         log_size)


def summed(t0, ratio, digits):
    """kernel_value for a Fraction t0 and a per-term ratio m -> (a, b)."""
    return kernel_value(t0.as_integer_ratio(), walked(ratio), digits)


def naive_sum(t0, ratio, terms):
    """Term-by-term Fraction sum of the first ``terms`` terms: the oracle
    for the binary-splitting kernel."""
    total = term = F(t0)
    for m in range(terms - 1):
        term *= F(*ratio(m))
        total += term
    return total


def series_a_b(sigma, rho):
    """(t0, ratio) of A and B, as ab_series, with Fraction ratios."""
    return ((F(1), pair(lambda m: rho / ((m + 1) * (sigma + m)))),
            (rho / sigma, pair(lambda m: rho / ((m + 1) * (sigma + m + 1)))))


def taylor(x, odd, sign):
    """(t0, ratio) of sum sign^k x^(2k+p) / (2k+p)!, p = 1 if odd."""
    p = 1 if odd else 0
    return (x if odd else F(1),
            pair(lambda m: sign * x * x / ((2 * m + p + 1) * (2 * m + p + 2))))


# (sigma, rho): half-odd, integer and other sigma, rho of either sign
SIGMA_RHO = [(F(3, 2), F(1, 16)), (F(7, 2), F(-1, 4)), (F(2), F(1, 9)),
             (F(4), F(-1, 4)), (F(5, 3), F(4, 7)), (F(11, 18), F(-1, 324))]
TAYLOR = [taylor(F(1, 2), True, -1), taylor(F(1), False, -1),
          taylor(F(-3, 5), True, 1), taylor(F(2, 3), False, 1),
          (F(1), pair(lambda m: F(-2) / (m + 1)))]
ALL_SERIES = [s for sr in SIGMA_RHO for s in series_a_b(*sr)] + TAYLOR


class TestBinarySplitting:
    @pytest.mark.parametrize("digits", [5, 60, 400])
    @pytest.mark.parametrize("sigma,rho", SIGMA_RHO)
    def test_series_ab_matches_naive_sum(self, sigma, rho, digits):
        for t0, ratio in series_a_b(sigma, rho):
            partial, tail, n = summed(t0, ratio, digits)
            assert partial == naive_sum(t0, ratio, n)
            assert 0 < tail < abs(partial) * F(1, 10 ** digits)
            # every deeper partial sum stays inside the ball
            assert abs(naive_sum(t0, ratio, n + 40) - partial) <= tail

    # the last two cancel, so the kernel re-aims and folds a second time
    @pytest.mark.parametrize("digits", [5, 60, 400])
    @pytest.mark.parametrize("sigma,rho", SIGMA_RHO + [(F(1, 2), F(-25, 4)),
                                                       (F(3, 2), F(-400, 9))])
    def test_weighted_tails_contain_the_true_tails(self, monkeypatch, sigma,
                                                   rho, digits):
        # A = sum_k a_k and B = sum_k k a_k from one weighted split; B's
        # tail |a_N| (N q/(1-q) + q/(1-q)^2) rests on |ratio| falling
        (_, ratio), _ = series_a_b(sigma, rho)
        a, b, den, tail_a, tail_b, tail_den, n = _sum_ratio_series(
            (1, 1), walked(ratio), digits)
        deep = n + 40
        terms = [F(1)]
        for m in range(deep):
            terms.append(terms[-1] * F(*ratio(m)))
        assert F(a, den) == sum(terms[:n])
        assert F(b, den) == sum(k * t for k, t in enumerate(terms[:n]))
        # the true tails, with the terms from t_deep on bounded by the
        # same geometric series at |ratio| <= 1/2
        last = abs(terms[deep])
        true_a = abs(sum(terms[n:deep])) + 2 * last
        true_b = (abs(sum(k * terms[k] for k in range(n, deep)))
                  + (2 * deep + 2) * last)
        assert true_a <= F(tail_a, tail_den)
        assert true_b <= F(tail_b, tail_den)
        # B = rho/sigma 0F1(; sigma+1; rho), summed on its own: the same
        # value within the two tails
        _, (b0, rb) = ab_series(sigma, rho)
        b_alone, tail_alone, _ = kernel_value(b0, rb, digits)
        assert abs(F(b, den) - b_alone) <= F(tail_b, tail_den) + tail_alone
        # each row's ball den (m0 A + m1 B), as _attempt makes it from
        # these sums, holds the deep Fraction sums and is at least den
        # times the row's tail; the quotient by the row (1, 0) holds theirs
        out = a, b, den, tail_a, tail_b, tail_den, n
        balls, row_ball = [], limits._row_ball
        monkeypatch.setattr(limits, "_sum_ratio_series", lambda *_: out)
        monkeypatch.setattr(limits, "_row_ball",
                            lambda *x: balls.append(row_ball(*x)) or balls[-1])
        deep_a = sum(terms[:deep])
        deep_b = sum(k * t for k, t in enumerate(terms[:deep]))
        # the last row's signed tails cancel: only |m0|, |m1| bound it
        for m0, m1 in [(1, 0), (0, 1), (3, -2), (-5, 7), (tail_b, -tail_a)]:
            balls.clear()
            quotient = limits._attempt(
                [(m0, m1), (1, 0)], (sigma.numerator, sigma.denominator),
                (rho.numerator, rho.denominator), digits)
            ball = balls[0]
            assert ball.lo <= den * (m0 * deep_a + m1 * deep_b) <= ball.hi
            assert ball.err >= den * (abs(m0) * F(tail_a, tail_den)
                                      + abs(m1) * F(tail_b, tail_den))
            assert (quotient.lo <= (m0 * deep_a + m1 * deep_b) / deep_a
                    <= quotient.hi)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 300), st.integers(1, 2 ** 300),
           st.integers(1, 2 ** 300))
    @example(0, 7, 3)  # no tail: the radius is still above 0
    @example(3, 5, 2 ** 100)  # a radius of 2^-95
    def test_row_radius_is_a_power_of_two_above_the_tail(self, e, den,
                                                          eden):
        err = limits._row_ball(0, e, den, eden, 64).err  # one bit: exact
        assert err.numerator == 1 or err.denominator == 1
        assert is_pow2(err.numerator) and is_pow2(err.denominator)
        assert err > F(e * den, eden)
        # and no more than three bits loose
        assert not e or err < 8 * F(e * den, eden)

    @pytest.mark.parametrize("series", TAYLOR)
    def test_taylor_matches_naive_sum(self, series):
        t0, ratio = series
        partial, tail, n = summed(t0, ratio, 80)
        assert partial == naive_sum(t0, ratio, n)
        assert abs(naive_sum(t0, ratio, n + 40) - partial) <= tail

    # _ball, perron_d1's rounding of each series into a PrecReal
    @pytest.mark.parametrize("sigma,rho", SIGMA_RHO)
    def test_series_ab_balls_contain_naive_sums(self, sigma, rho):
        for (t0, ratios), (f0, ratio) in zip(ab_series(sigma, rho),
                                             series_a_b(sigma, rho)):
            deep = _sum_ratio_series(t0, ratios, 50)[-1] + 40
            ball = limits._ball(t0, ratios, 50)
            assert ball.lo <= naive_sum(f0, ratio, deep) <= ball.hi

    def test_taylor_kernel_balls_contain_definitions(self):
        def series(x, sign, p, step):  # sum sign^k x^(step k+p)/(step k+p)!
            return sum(F(sign) ** k * x ** (step * k + p)
                       / math.factorial(step * k + p) for k in range(90))
        cases = [(F(1, 2), -1, 1, 2), (F(1), -1, 0, 2), (F(-3, 5), 1, 1, 2),
                 (F(2, 3), 1, 0, 2), (F(-2), 1, 0, 1)]
        for x, sign, p, step in cases:
            ball = (taylor_ball(x, sign, p == 1, 60) if step == 2
                    else limits._ball((1, 1), exp_ratios(x), 60))
            assert ball.lo <= series(x, sign, p, step) <= ball.hi, x
            assert ball.rel_err() < F(1, 10 ** 60)

    def test_cancelling_terms_still_certify(self):
        # exp(-30): terms reach 10^11 while the sum is ~10^-13
        ball = limits._ball((1, 1), exp_ratios(F(-30)), 20)
        assert ball.rel_err() < F(1, 10 ** 20)
        ref = naive_sum(F(1), pair(lambda m: F(-30) / (m + 1)), 200)
        assert ball.lo <= ref <= ball.hi
        # and stdlib Decimal.exp, within e^-30 10^-39
        assert meets(ball, exp_ref(-30, 40), F(1, 10 ** 50))

    def test_terminating_series_is_exact(self):
        def ratio(m):
            return (0, 1) if m == 3 else (1, m + 1)
        assert summed(F(1), ratio, 20) == (F(8, 3), 0, 4)
        assert _sum_ratio_series((0, 1), walked(ratio), 20) \
            == (0, 0, 1, 0, 0, 1, 0)

    def test_non_decaying_series_is_refused(self):
        with pytest.raises(PrecisionExhausted):
            _sum_ratio_series((1, 1), walked(lambda m: (-1, 1)), 5)

    # the kernel takes unreduced pairs (the closed form's are): a common
    # factor must change no value (the unreduced pairs it returns do change)
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10 ** 12), st.sampled_from(range(len(ALL_SERIES))),
           st.sampled_from([5, 60]))
    @example(2, 0, 60)
    @example(10 ** 6, len(ALL_SERIES) - 1, 60)
    def test_scaled_pairs_change_nothing(self, k, index, digits):
        t0, ratio = ALL_SERIES[index]
        scaled = summed(t0, lambda m: tuple(k * x for x in ratio(m)), digits)
        assert scaled == summed(t0, ratio, digits)

    # the stop contract, checked on Fractions: |t_N| (N + 2) is below
    # 2^-k, which must round 10^-(digits+10) down, so k rounded down would
    # fail here
    @pytest.mark.parametrize("digits", [5, 60, 400])
    def test_last_term_is_below_the_stop(self, digits):
        eps = F(1, 10 ** (digits + 10))
        for t0, ratio in ALL_SERIES:
            out = _sum_ratio_series((t0.numerator, t0.denominator),
                                    walked(ratio), digits)
            n = out[-1]  # t_0 .. t_N summed, N = n - 1 >= 1
            total = naive_sum(t0, ratio, n)
            assert total == F(out[0], out[2])
            last = abs(total - naive_sum(t0, ratio, n - 1))
            assert last * (n + 1) < eps * max(abs(total), eps)


def unreduced_0f1(sigma, rho):
    """_0f1's ratios as the pairs (u q, v (m+1)(p + q m)) that it reduces,
    with its estimate."""
    (p, q), (u, v) = sigma, rho

    def ratio(m):
        return u * q, v * (m + 1) * (p + q * m)

    return limits.Ratios(ratio, lambda i, j: [ratio(m) for m in range(i, j)],
                         limits._0f1(sigma, rho).log_size)


FAMILY = [CFParams(a, b0, b1, d, 0) for a in range(1, 5)
          for b0 in (1, 2, 3, 5) for b1 in range(1, 4) for d in range(1, 5)]


class TestReducedRatios:
    @given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6),
           st.integers(1, 10 ** 4), st.integers(-10 ** 6, 10 ** 6),
           st.integers(1, 10 ** 6), st.integers(0, 200))
    @example(3, 2, 6, -1, 144, 0)  # sigma 18/12, rho -1/144
    @example(1, 1, 1, 0, 5, 3)  # rho = 0: the pair (0, 1)
    def test_pairs_are_the_ratios(self, p, q, g, u, v, m):
        sigma, rho = (g * p, g * q), (u, v)
        ratios = limits._0f1(sigma, rho)
        a, b = ratios.pairs(m, m + 3)[0]
        assert ratios.ratio(m) == (a, b)  # the single probe, the same pair
        assert b > 0
        assert F(a, b) == F(u * q * g, v * (m + 1) * (g * p + g * q * m))
        assert unreduced_0f1(sigma, rho).pairs(m, m + 1)[0] == (
            u * q * g, v * (m + 1) * (g * p + g * q * m))

    def test_family_numerators_are_one(self):
        for params in FAMILY:
            (p, q), rho = magic_pairs(params)
            for sigma in ((p, q), (p + q, q)):  # sigma, and sigma + 1
                pairs = limits._0f1(sigma, rho).pairs(0, 40)
                assert {abs(a) for a, _ in pairs} == {1}, params

    @pytest.mark.parametrize("digits", [5, 300])
    def test_same_terms_and_sums_as_unreduced(self, digits):
        for params in FAMILY:
            self.check_against_unreduced(params, digits)

    @staticmethod
    def check_against_unreduced(params, digits):
        sigma, rho = magic_pairs(params)
        got, ref = (_sum_ratio_series((1, 1), ratios, digits)
                    for ratios in (limits._0f1(sigma, rho),
                                   unreduced_0f1(sigma, rho)))
        assert got[-1] == ref[-1]  # terms_used
        # s/den, u/den, and the tails over tail_den
        assert F(got[0], got[2]) == F(ref[0], ref[2])
        assert F(got[1], got[2]) == F(ref[1], ref[2])
        assert F(got[3], got[5]) == F(ref[3], ref[5])
        assert F(got[4], got[5]) == F(ref[4], ref[5])
        # each of the terms_used - 1 ratios' denominators is q times
        # smaller: q g (m+1)(p' + q' m) against v (m+1)(p + q m) =
        # q^2 g (m+1)(p' + q' m), for g = gcd(p, q), p' = p/g, q' = q/g
        assert got[2] * sigma[1] ** (got[-1] - 1) == ref[2]


def reference_walk(t0, ratio, digits):
    """The kernel as it was before N was chosen up front, kept as the
    reference: a per-term walk that sums float logs of the ratios to guess
    the stop on |t_m| (m + 2), then the same exact check, tails and re-aim
    after cancellation.  ratio(m) is a per-term pair."""
    t0n, t0d = t0
    if t0n == 0:
        return 0, 0, 1, 0, 0, 1, 0
    k = -(-332193 * (digits + 10) // 100000)  # 2^-k <= 10^-(digits + 10)
    log_thresh = -(digits + 10) * math.log(10) - 1
    log_t = log_top = math.log(abs(t0n)) - math.log(t0d)
    pairs = []
    P, Q, T, U = 1, 1, 0, 0
    n = m = 0
    while True:
        a, b = ratio(m)
        pairs.append((a, b))
        if not a or (m > 0 and log_t + math.log(m + 2) < log_top + log_thresh
                     and 2 * abs(a) <= b):
            if m > n:
                p2, q2, t2, u2 = _split(pairs, n, m, 0)
                P, Q, T, U = (P * p2, Q * q2, T * q2 + P * t2,
                              U * q2 + P * u2)
                n = m
            s_num, den = t0n * (Q + T), t0d * Q
            last = t0n * P
            weighed = abs(last) * (m + 2)
            if not a or weighed << 2 * k < max(abs(s_num) << k, den):
                c, g = abs(last * a), b - abs(a)
                return (s_num, t0n * U, den, c * g, c * (m * g + b),
                        den * g * g, m + 1)
            if s_num:
                log_top = math.log(abs(s_num)) - math.log(den)
        log_t += math.log(abs(a)) - math.log(b)
        log_top = max(log_top, log_t)
        m += 1
        if m > 100 * (digits + 20):
            raise PrecisionExhausted("series did not certify")


def assert_walk_agrees(t0, ratios, digits):
    result = _sum_ratio_series(t0, ratios, digits)
    assert result == reference_walk(
        t0, lambda m: ratios.pairs(m, m + 1)[0], digits), (t0, digits)


GRID_SIGMAS = [F(1, 2), F(3, 2), F(7, 2), F(5, 3), F(11, 18), F(2), F(40, 3)]
# -25/4 and -400/9: the terms cancel, and the exact check re-aims N
GRID_RHOS = [F(1, 4), F(-1, 4), F(1), F(-1), F(1, 100), F(-1, 36), F(9, 4),
             F(-25, 4), F(-400, 9)]


class TestChosenLength:
    """The kernel picks N from the closed-form term size; the reference walk
    picked it term by term.  Both must return the same seven integers."""

    @pytest.mark.parametrize("digits", [10, 25, 100, 1000])
    def test_series_ab_grid_matches_walk(self, digits):
        for sigma in GRID_SIGMAS:
            for rho in GRID_RHOS:
                # both series: A from t0 = 1, B from t0 = rho / sigma
                for t0, ratios in ab_series(sigma, rho):
                    assert_walk_agrees(t0, ratios, digits)

    @pytest.mark.parametrize("digits", [10, 25, 100, 1000])
    def test_exp_and_arctan_match_walk(self, digits):
        for x in (F(1, 2), F(-3, 5), F(-2), F(-30), F(10), F(7, 3)):
            assert_walk_agrees((1, 1), exp_ratios(x), digits)
        for x in (5, 239):
            assert_walk_agrees((1, x), arctan_ratios(x), digits)

    @settings(max_examples=40, deadline=None)
    @given(st.fractions(F(1, 30), 400, max_denominator=60),
           st.integers(1, 4000),
           st.integers(1, 60), st.sampled_from([1, -1]),
           st.integers(1, 300))
    @example(F(1, 2), 25, 4, -1, 100)  # cos 5: re-aimed once, 61 terms
    @example(F(3, 2), 400, 9, -1, 25)  # re-aimed once, 46 terms
    @example(F(11), 10000, 1, -1, 10)  # re-aimed four times, 293 terms
    def test_random_0f1_matches_walk(self, sigma, u, v, sign, digits):
        for t0, ratios in ab_series(sigma, F(sign * u, v)):
            assert_walk_agrees(t0, ratios, digits)

    @pytest.mark.parametrize("sigma,rho,digits,failed,terms", [
        (F(1, 2), F(-25, 4), 100, 1, 61), (F(3, 2), F(-400, 9), 25, 1, 46),
        (F(11), F(-10000), 10, 4, 293)])
    def test_cancellation_re_aims(self, monkeypatch, sigma, rho, digits,
                                  failed, terms):
        # one fold per exact check: every failed check folds once more
        folds = []
        monkeypatch.setattr(limits, "_split",
                            lambda *a: folds.append(a) or _split(*a))
        ratios = limits._0f1((sigma.numerator, sigma.denominator),
                             (rho.numerator, rho.denominator))
        result = _sum_ratio_series((1, 1), ratios, digits)
        assert len(folds) == failed + 1
        assert result[-1] == terms
        monkeypatch.undo()
        assert result == reference_walk(
            (1, 1), lambda m: ratios.pairs(m, m + 1)[0], digits)

    @pytest.mark.parametrize("sigma", [F(2 ** 41 + 1, 3), F(10 ** 400, 7)])
    def test_huge_sigma_matches_walk(self, sigma):
        # past 2^40 the estimate takes m log sigma for log (sigma)_m
        for rho in (F(1, 4), F(-10 ** 13)):
            for t0, ratios in ab_series(sigma, rho):
                assert_walk_agrees(t0, ratios, 50)

    # sin 10^6 = 10^6 0F1(; 3/2; -10^12/4), and A at sigma = 1, rho = 10^40
    @pytest.mark.parametrize("t0,sigma,rho", [
        ((10 ** 6, 1), (3, 2), (-10 ** 12, 4)),
        ((1, 1), (1, 1), (10 ** 40, 1))],
        ids=["sin 10^6", "rho 10^40"])
    def test_runaway_refused_before_any_pairs(self, monkeypatch, t0, sigma,
                                              rho):
        # the peak lies past 100 (digits + 20) terms: refused from a few
        # single-ratio probes, with no list of pairs and no fold
        probes, runs, folds = [], [], []
        ratios = limits._0f1(sigma, rho)

        def ratio(m):
            probes.append(m)
            return ratios.ratio(m)

        def pairs(i, j):
            runs.append((i, j))
            return ratios.pairs(i, j)

        monkeypatch.setattr(limits, "_split",
                            lambda *a: folds.append(a) or (1, 1, 0, 0))
        with pytest.raises(PrecisionExhausted):
            _sum_ratio_series(t0, limits.Ratios(ratio, pairs,
                                                ratios.log_size), 10)
        assert 0 < len(probes) < 64 and runs == [] and folds == []


class TestCertify:
    def test_digits_below_one_refused(self):
        for digits in (0, -5):
            with pytest.raises(ValueError):
                xi_limit(CFParams(1, 2, 2, 3, 2), digits)

    def test_cap_checked_before_the_first_attempt(self, monkeypatch):
        monkeypatch.setenv("HURWITZ_MAX_PRECISION", "2000")
        calls = []
        monkeypatch.setattr(limits, "_sum_ratio_series",
                            lambda *a, **k: calls.append(a))
        with pytest.raises(PrecisionExhausted):
            xi_limit(CFParams(1, 2, 2, 3, 2), 1000)
        assert calls == []

    def test_whole_precision_doubles_under_the_cap(self, monkeypatch):
        # the extra digits of a walk escalate with the rest, and the cap
        # sees them before every attempt
        monkeypatch.setenv("HURWITZ_MAX_PRECISION", "4000")
        tried = []

        def never(w):
            tried.append(w)
            return PrecReal._ratio(1, 1, 1, 1, 64)  # 1 ± 1: no digit

        with pytest.raises(PrecisionExhausted):
            limits._certify(never, 5, 100)
        assert tried == [115, 230, 460, 920]

    def test_zero_division_retried_at_double_width(self):
        # a divisor ball that holds 0 counts as a failed attempt
        tried, ball = [], PrecReal._ratio(1, 1, 0, 1, 64)

        def divides_by_zero_once(w):
            tried.append(w)
            if len(tried) == 1:
                raise ZeroDivisionError("divisor interval contains zero")
            return ball

        assert limits._certify(divides_by_zero_once, 5) is ball
        assert tried == [15, 30]

    def test_malformed_cap_named_in_the_error(self, monkeypatch):
        monkeypatch.setenv("HURWITZ_MAX_PRECISION", "abc")
        with pytest.raises(ValueError, match="HURWITZ_MAX_PRECISION.*'abc'"):
            xi_limit(CFParams(1, 2, 2, 3, 2), 10)

    def test_e_minus_one_10000_digits_against_decimal(self):
        digits = 10000
        ball = xi_limit(CFParams(1, 2, 2, 3, 2), digits)
        assert ball.rel_err() <= F(1, 10 ** digits)
        with localcontext() as ctx:
            ctx.prec = digits + 30
            ref = F(Decimal(1).exp() - 1)   # within 10^-(digits+28)
        slack = F(1, 10 ** (digits + 28))
        assert ball.lo - slack <= ref <= ball.hi + slack


# every public function of limits that takes digits, called with it
DIGITS_TAKERS = {
    "xi_limit": lambda D: xi_limit(CFParams(1, 2, 2, 3, 2), D),
    "xi_bessel": lambda D: xi_bessel(CFParams(1, 2, 2, 3, 2), D),
    "lehmer_d1": lambda D: lehmer_d1(3, 2, D),
    "perron_d1": lambda D: perron_d1(3, 2, D),
}


def test_digits_takers_are_every_public_kernel():
    public = {name for name, fn in inspect.getmembers(limits,
                                                      inspect.isfunction)
              if not name.startswith("_") and fn.__module__ == limits.__name__
              and "digits" in inspect.signature(fn).parameters}
    assert public == set(DIGITS_TAKERS)


@pytest.mark.parametrize("digits", [0, -3, -30])
@pytest.mark.parametrize("name", list(DIGITS_TAKERS))
def test_digits_below_one_refused_everywhere(name, digits):
    with pytest.raises(ValueError, match=f"digits must be >= 1, got {digits}"):
        DIGITS_TAKERS[name](digits)


@pytest.mark.parametrize("digits", [10.0, True, F(10)])
@pytest.mark.parametrize("name", list(DIGITS_TAKERS))
def test_non_int_digits_refused_everywhere(name, digits):
    with pytest.raises(TypeError, match="digits must be an int, got "
                       + type(digits).__name__):
        DIGITS_TAKERS[name](digits)


# high orders at small arguments, where the walk's rows cancel the most
SMALL_Z_HIGH_ORDER = [(F(81, 2), F(1, 100)), (F(21, 2), F(1, 1000)),
                      (F(41, 2), F(1, 10))]


def half_odd_params(form, nu, z):
    """The tuple whose xi_bessel walks to order nu at z = 2/b1, alpha = 1:
    the I-form at d = 1 (sigma = b0/b1) or the J-form at d = 2, r = 1
    (sigma = (b0 + 2)/b1)."""
    b1 = int(2 / z)
    return (CFParams(1, int(nu * b1), b1, 1, 0) if form == "I"
            else CFParams(1, int(nu * b1) - 2, b1, 2, 1))


def walk_vs_mpmath(s, k, z, dps=60):
    """Check both rows of the walk to order k + 1/2 at z against mpmath:
    sqrt(2/(pi z)) (c C + d S)/den is I (s = 1) or J (s = -1) at orders
    k - 1/2 and k + 1/2, to 40 digits, with the sum formed at dps digits."""
    mpmath = pytest.importorskip("mpmath")
    bessel = mpmath.besseli if s == 1 else mpmath.besselj
    with mpmath.workdps(dps):
        rows = limits._half_odd_walk(s, k, z.as_integer_ratio())
        x = mpmath.mpf(z.numerator) / z.denominator
        C, S = ((mpmath.cosh(x), mpmath.sinh(x)) if s == 1
                else (mpmath.cos(x), mpmath.sin(x)))
        pref = mpmath.sqrt(2 / (mpmath.pi * x)) / rows[2]
        for order, (c, d) in ((2 * k - 1, rows[0]), (2 * k + 1, rows[1])):
            want = bessel(mpmath.mpf(order) / 2, x)
            got = pref * (c * C + d * S)
            assert abs(got - want) <= abs(want) * mpmath.mpf(10) ** -40, \
                (s, order, z)


# orders k + 1/2 of the exact check below: every step of the closed-form
# and mpmath tests, and the long walks past them
DLMF_ORDERS = [*range(14), 30, 81, 101]


def walk_matches_dlmf(s, k, z):
    """Both rows of limits._half_odd_walk to order k + 1/2 at z, over den,
    equal the exact DLMF 10.49 sums of tests/reference.py: no mpmath."""
    (a, b), (c, d), den = limits._half_odd_walk(s, k, z.as_integer_ratio())
    return ((F(a, den), F(b, den)) == half_odd_bessel_ref(s, k - 1, z)
            and (F(c, den), F(d, den)) == half_odd_bessel_ref(s, k, z))


class TestHalfOddBessel:
    # each form is named by its Bessel function: I at odd d, J at even d
    @pytest.mark.parametrize("nu,z", SMALL_Z_HIGH_ORDER)
    @pytest.mark.parametrize("form", ["I", "J"], ids=["bessel_I", "bessel_J"])
    def test_certified_at_small_argument(self, form, nu, z):
        assert xi_bessel(half_odd_params(form, nu, z), 30).rel_err_at_most(30)

    @pytest.mark.parametrize("nu,z", SMALL_Z_HIGH_ORDER)
    def test_small_argument_vs_mpmath(self, nu, z):
        # the rows cancel to about 280 digits at order 81/2, z = 1/100
        for s in (1, -1):
            walk_vs_mpmath(s, int(nu - F(1, 2)), z, 400)

    # orders 81/2, 21/2, 201/2 at z = 1/100, 1/1000, 1/10: the tuples
    # (1, 8100, 200, 1, 0), (1, 21000, 2000, 1, 0), (1, 2010, 20, 1, 0) and
    # (1, 8098, 200, 2, 1), (1, 20998, 2000, 2, 1), (1, 2008, 20, 2, 1)
    @pytest.mark.parametrize("nu,z,digits", [
        (F(81, 2), F(1, 100), 30), (F(21, 2), F(1, 1000), 30),
        (F(201, 2), F(1, 10), 100)])
    @pytest.mark.parametrize("form", ["I", "J"], ids=["bessel_I", "bessel_J"])
    def test_certified_at_the_first_attempt(self, monkeypatch, form, nu, z,
                                            digits):
        params = half_odd_params(form, nu, z)
        (p, g), _ = magic_pairs(params)
        assert (F(p, g), F(2, g)) == (nu, z)
        # the walk's loss is computed before any work: no attempt is wasted
        widths, right = [], limits._certify

        def spy(compute, digits, extra=0):
            return right(lambda w: widths.append(w) or compute(w), digits,
                         extra)

        monkeypatch.setattr(limits, "_certify", spy)
        assert xi_bessel(params, digits).rel_err_at_most(digits)
        assert len(widths) == 1, widths

    def test_order_recurrences(self):
        # the walk's rows at orders -1/2 .. 7/2 are mpmath's I and J
        for k in range(4):
            for s in (1, -1):
                walk_vs_mpmath(s, k, F(3, 4))

    @pytest.mark.parametrize("z", [F(3, 4), F(1, 100), F(2, 7), F(5)])
    def test_walk_rows_vs_dlmf(self, z):
        for k in DLMF_ORDERS:
            for s in (1, -1):
                assert walk_matches_dlmf(s, k, z), (s, k)

    def test_dlmf_check_sees_a_wrong_step(self, monkeypatch):
        # the step j = 30 (order 61/2 to 63/2) takes 61/z + 1/zn: the exact
        # check fails on every longer walk, with mpmath absent
        def wrong(s, k, z):
            zn, zd = z
            a, b, c, d = 1, 0, 0, 1
            for j in range(k):
                m = (2 * j + 1) * zd + (j == 30)
                a, b, c, d = (zn * c, zn * d, s * (zn * a - m * c),
                              s * (zn * b - m * d))
            return (a, b), (c, d), zn ** k

        monkeypatch.setitem(sys.modules, "mpmath", None)
        monkeypatch.setattr(limits, "_half_odd_walk", wrong)
        for z in (F(3, 4), F(1, 100)):
            for s in (1, -1):
                assert walk_matches_dlmf(s, 30, z)
                assert not walk_matches_dlmf(s, 81, z)
                assert not walk_matches_dlmf(s, 101, z)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, -1]), st.integers(0, 20),
           st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
    @example(1, 0, 1, 1)
    def test_walk_determinant(self, s, k, zn, zd):
        # each step multiplies a d - b c by -s zn^2
        (a, b), (c, d), den = limits._half_odd_walk(s, k, (zn, zd))
        assert den == zn ** k
        assert a * d - b * c == (-s) ** k * den * den

    def test_walk_rows_by_hand(self):
        # X_{3/2} = S/z - C for J and C - S/z for I
        for s in (1, -1):
            assert limits._half_odd_walk(s, 1, (3, 2)) \
                == ((0, 3), (3 * s, -2 * s), 3)

    # the closed forms X_nu = sqrt(2/(pi z)) (c C + d S)/den, as the rows
    # (c, d)/den of the walk to order nu
    def test_j_half(self):
        # J_{1/2} = sqrt(2/(pi z)) sin z: the seed row, so xi(1, 1, 6, 2, 0)
        # (J-form, sigma 1/2, z = 1/3) is (cos z - sin z)/sin z
        assert limits._half_odd_walk(-1, 0, (1, 3))[1] == (0, 1)
        v = xi_bessel(CFParams(1, 1, 6, 2, 0), 25)
        s, c = (taylor_ref(F(1, 3), odd, -1, 45) for odd in (True, False))
        assert meets(v, (c - s) / s, F(1, 10 ** 40))

    def test_ratio_is_tanh(self):
        # [b0, 3 b0, 5 b0, ...] = I_{-1/2}(z) / I_{1/2}(z) = cosh z / sinh z
        # at z = 1/b0: xi_bessel's I-form at sigma 1/2
        for b0 in (1, 2, 3):
            v = xi_bessel(CFParams(1, b0, 2 * b0, 1, 0), 25)
            sh, ch = (taylor_ref(F(1, b0), odd, 1, 45)
                      for odd in (True, False))
            assert meets(v, ch / sh, F(1, 10 ** 40)), b0

    def test_i_three_halves_closed_form(self):
        # I_{3/2} at z = 1/2: cosh z - sinh z / z
        assert limits._half_odd_walk(1, 1, (1, 2))[1:] == ((1, -2), 1)

    def test_j_three_halves_closed_form(self):
        # J_{3/2} at z = 2/3: sin z / z - cos z
        (c, d), den = limits._half_odd_walk(-1, 1, (2, 3))[1:]
        assert (F(c, den), F(d, den)) == (-1, F(3, 2))

    def test_j_five_halves_closed_form(self):
        # J_{5/2} at z = 1/2: (3/z^2 - 1) sin z - (3/z) cos z
        assert limits._half_odd_walk(-1, 2, (1, 2))[1:] == ((-6, 11), 1)

    def test_j_seven_halves_closed_form(self):
        # J_{7/2} at z = 1/2: (15/z^3 - 6/z) sin z - (15/z^2 - 1) cos z
        assert limits._half_odd_walk(-1, 3, (1, 2))[1:] == ((-59, 108), 1)

    def test_ratio_vs_elementary(self):
        # Lehmer: [3, 5, 7, ...] = I_{1/2}(1) / I_{3/2}(1), sigma = 3/2,
        # = sinh 1 / (cosh 1 - sinh 1) = (e^2 - 1) / 2
        r = lehmer_d1(3, 2, 25)
        assert meets(r, (exp_ref(2, 40) - 1) / 2, F(1, 10 ** 38))


class TestArithmeticProgression:
    @pytest.mark.parametrize("b0,b1", [(1, 1), (3, 2), (5, 3)])
    def test_lehmer_equals_perron(self, b0, b1):
        a = lehmer_d1(b0, b1, 30)
        b = perron_d1(b0, b1, 30)
        assert overlap(a, b)
        assert abs(a.value - b.value) < F(1, 10 ** 29)
        # both sum the same two series; [b0, b0+b1, b0+2b1, ...] checks them
        lo, hi = convergent_bracket(lambda i: b0 + i * b1, 10 ** 32)
        assert a.lo <= hi and lo <= a.hi
        assert b.lo <= hi and lo <= b.hi

    def test_lehmer_1_1_vs_convergents(self):
        # [1, 2, 3, 4, ...] directly
        convs = convergents(lambda i: i + 1, 25)
        proxy = F(convs[-1].p, convs[-1].q)
        v = lehmer_d1(1, 1, 25)
        assert abs(v.value - proxy) < F(1, 10 ** 20)


class TestXiLimits:
    # references: stdlib Decimal.exp and Decimal Taylor sums at 45 digits,
    # so every quotient below is within 10^-40
    def test_e_minus_one(self):
        v = xi_limit(CFParams(1, 2, 2, 3, 2), 30)
        assert meets(v, exp_ref(1, 45) - 1, F(1, 10 ** 40))

    def test_tan_one(self):
        v = xi_limit(CFParams(1, 1, 2, 2, 1), 30)
        s, c = (taylor_ref(F(1), odd, -1, 45) for odd in (True, False))
        assert meets(v, s / c, F(1, 10 ** 40))

    def test_sinh_family_m2(self):
        # xi(1, 3m-1, 2m, 3, 2) = 2 sinh(1/2m) / (cosh(1/2m) - (2m-1) sinh(1/2m))
        m = 2
        v = xi_limit(CFParams(1, 3 * m - 1, 2 * m, 3, 2), 30)
        sh, ch = (taylor_ref(F(1, 2 * m), odd, 1, 45) for odd in (True, False))
        assert meets(v, 2 * sh / (ch - (2 * m - 1) * sh), F(1, 10 ** 40))

    def test_sin_family_m3(self):
        # xi(1, 3m-2, 2m, 2, 1) = sin(1/m) / (cos(1/m) - (m-1) sin(1/m))
        m = 3
        v = xi_limit(CFParams(1, 3 * m - 2, 2 * m, 2, 1), 30)
        s, c = (taylor_ref(F(1, m), odd, -1, 45) for odd in (True, False))
        assert meets(v, s / (c - (m - 1) * s), F(1, 10 ** 40))

    def test_ugly_m0(self):
        # 4(11 sin(1/2) - 6 cos(1/2)) / (53 cos(1/2) - 97 sin(1/2)), whose
        # denominator is about 0.0127
        v = xi_limit(CFParams(4, 3, 1, 2, 1), 25)
        s, c = (taylor_ref(F(1, 2), odd, -1, 45) for odd in (True, False))
        assert meets(v, 4 * (11 * s - 6 * c) / (53 * c - 97 * s),
                     F(1, 10 ** 40))

    def test_one_quotient_from_one_weighted_sum(self, monkeypatch):
        # no _ratio: each attempt makes one kernel call, which sums A and
        # B, and one ball quotient, the half-odd walk included
        calls = []
        kernel, divide, certify = (limits._sum_ratio_series,
                                   PrecReal.__truediv__, limits._certify)

        def kernel_spy(*args):
            calls.append("sum")
            return kernel(*args)

        def divide_spy(x, y):
            calls.append("/")
            return divide(x, y)

        def certify_spy(compute, digits, extra=0):
            return certify(lambda w: calls.append("attempt") or compute(w),
                           digits, extra)

        def refused(*args):
            raise AssertionError("a limit left the one-quotient route")

        cases = [(xi_limit, (1, 2, 2, 3, 2)),
                 (xi_bessel, (1, 2, 2, 3, 2)),  # sigma 3/2: one walk step
                 (xi_bessel, (4, 3, 1, 2, 1))]  # sigma 7/2, J-form
        for fn, t in cases:
            monkeypatch.setattr(limits, "_sum_ratio_series", kernel_spy)
            monkeypatch.setattr(limits, "_certify", certify_spy)
            monkeypatch.setattr(PrecReal, "__truediv__", divide_spy)
            monkeypatch.setattr(PrecReal, "_ratio", staticmethod(refused))
            calls.clear()
            v = fn(CFParams(*t), 100)
            attempts = calls.count("attempt")
            assert attempts >= 1 and calls == [
                "attempt", "sum", "/"] * attempts, (fn, t)
            monkeypatch.undo()
            lo, hi = convergent_bracket(denom_stream(CFParams(*t)),
                                        10 ** 110)
            assert v.lo <= hi and lo <= v.hi

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 20), st.integers(1, 10),
           st.integers(1, 4), st.integers(0, 5), st.sampled_from([5, 30, 100]))
    @example(1, 10 ** 40, 1, 1, 0, 90)  # 40 integer digits
    def test_contains_the_convergent_bracket(self, alpha, b0, b1, d, r,
                                             digits):
        params = CFParams(alpha, b0, b1, d, r)
        v = xi_limit(params, digits)
        assert v.rel_err_at_most(digits) and v.err <= F(1, 10 ** digits)
        # a bracket narrower than 10^-(2D+10): q_N grows at least like the
        # Fibonacci numbers (10^0.2 a step), so 5 D + 60 convergents reach it
        lo, hi = convergent_bracket(denom_stream(params),
                                    10 ** (2 * digits + 10), 5 * digits + 60)
        assert v.lo <= hi and lo <= v.hi

    def test_limit_sandwiched_by_convergents(self):
        params = CFParams(2, 3, 1, 2, 0)
        v = xi_limit(params, 25)
        convs = convergents(denom_stream(params), 12)
        a, b = convs[-2], convs[-1]
        lo, hi = sorted((F(a.p, a.q), F(b.p, b.q)))
        assert lo < v.lo and v.hi < hi


class TestXiBessel:
    @pytest.mark.parametrize("params", [
        CFParams(1, 2, 2, 3, 2),   # sigma 3/2, I-form
        CFParams(1, 1, 2, 2, 1),   # sigma 3/2, J-form
        CFParams(4, 3, 1, 2, 1),   # sigma 7/2, J-form
        CFParams(1, 5, 4, 3, 2),   # sigma 3/2
        CFParams(1, 1, 1, 3, 2),   # sigma 2 (integer, series path)
        CFParams(3, 1, 1, 2, 0),   # sigma 5/3 (other, series path)
        CFParams(2, 3, 2, 2, 1),   # sigma integer, J-form
    ])
    def test_matches_series_limit(self, params):
        a = xi_bessel(params, 25)
        b = xi_limit(params, 25)
        assert overlap(a, b)
        assert abs(a.value - b.value) < F(1, 10 ** 24)
        # off half-odd sigma a is b; the convergents check both independently
        lo, hi = convergent_bracket(denom_stream(params))
        assert a.lo <= hi and lo <= a.hi
        assert b.lo <= hi and lo <= b.hi


def test_one_walk_per_attempt(monkeypatch):
    # a half-odd attempt walks the order recurrence once on integers and
    # makes one kernel call for both orders sigma - 1 and sigma
    walks, sums = [], []
    walk, kernel = limits._half_odd_walk, limits._sum_ratio_series

    def walk_spy(*args):
        walks.append(args)
        return walk(*args)

    def kernel_spy(*args):
        sums.append(args)
        return kernel(*args)

    monkeypatch.setattr(limits, "_half_odd_walk", walk_spy)
    monkeypatch.setattr(limits, "_sum_ratio_series", kernel_spy)
    for t in ((1, 2, 2, 3, 2), (1, 1, 2, 2, 1), (4, 3, 1, 2, 1)):
        walks.clear()
        sums.clear()
        xi_bessel(CFParams(*t), 25)
        assert len(walks) == 1 and len(sums) == 1, t


def test_rows_formed_once_across_attempts(monkeypatch):
    # the rows do not depend on the working digits: a retried attempt
    # reuses those of the first, with no second walk or transform
    walks, transforms, widths = [], [], []
    walk, transform = limits._half_odd_walk, limits.fib_transform
    attempt = limits._attempt

    def fails_once(rows, sigma, rho, w):
        widths.append(w)
        if len(widths) == 1:
            raise ZeroDivisionError("divisor interval contains zero")
        return attempt(rows, sigma, rho, w)

    monkeypatch.setattr(limits, "_half_odd_walk",
                        lambda *a: walks.append(a) or walk(*a))
    monkeypatch.setattr(limits, "fib_transform",
                        lambda p: transforms.append(p) or transform(p))
    monkeypatch.setattr(limits, "_attempt", fails_once)
    for route, walked in ((xi_limit, 0), (xi_bessel, 1)):
        walks.clear()
        transforms.clear()
        widths.clear()
        route(CFParams(4, 3, 1, 2, 1), 25)
        assert (len(widths), len(transforms), len(walks)) == (2, 1, walked)


def test_walk_never_steps_down(monkeypatch):
    # sigma = k + 1/2 > 0 for every tuple, so every walk has k >= 0
    orders, walk = [], limits._half_odd_walk

    def walk_spy(s, k, z):
        orders.append(k)
        return walk(s, k, z)

    monkeypatch.setattr(limits, "_half_odd_walk", walk_spy)
    tuples = [*half_odd_grid(), *(half_odd_params(form, nu, z)
                                  for nu, z in SMALL_Z_HIGH_ORDER
                                  for form in ("I", "J"))]
    for params in tuples:
        xi_bessel(params, 10)
    assert len(orders) == len(tuples) and min(orders) == 0


class TestWlang:
    # the paper check of tests/reference.py
    def test_holds_at_depth(self):
        assert wlang_limit_check(2, 50, 20)

    def test_fails_at_shallow_depth(self):
        assert not wlang_limit_check(2, 2, 30)

    def test_m_guard(self):
        with pytest.raises(ValueError):
            wlang_limit_check(1, 5, 10)


def test_certified_digits_scale():
    for digits in (10, 40, 80):
        v = xi_limit(CFParams(1, 2, 2, 3, 2), digits)
        assert v.rel_err() <= F(1, 10 ** digits)


# The ten limits of the benchmark's limits-deep workload (every sigma class,
# d = 1..4, both Bessel forms).  LIMITS_GOLDEN is the sha256 of the rendered
# 500-digit xi_limit and xi_bessel of each, then the 25-digit lehmer_d1 and
# perron_d1 for b0 = 1..9, b1 = 1..3, one line each, recorded while every
# ratio was still a Fraction: a change of the summation kernel or of the
# ratio format must leave the text unchanged.
GOLDEN_TUPLES = [(1, 2, 2, 3, 2), (1, 1, 2, 2, 1), (4, 3, 1, 2, 1),
                 (1, 3, 2, 3, 1), (2, 3, 1, 2, 0), (1, 3, 2, 1, 0),
                 (2, 5, 3, 1, 0), (1, 1, 1, 4, 0), (2, 1, 3, 4, 2),
                 (3, 2, 5, 3, 1)]
LIMITS_GOLDEN = \
    "5a96a25c327d42c6e83e405010107988d844038199d038441d7e633a9bb0d75c"


def test_limits_golden_text():
    h = hashlib.sha256()
    for t in GOLDEN_TUPLES:
        for fn in (xi_limit, xi_bessel):
            h.update(fn(CFParams(*t), 500).decimal(500).encode() + b"\n")
    for b0 in range(1, 10):
        for b1 in range(1, 4):
            for fn in (lehmer_d1, perron_d1):
                h.update(fn(b0, b1, 25).decimal(25).encode() + b"\n")
    assert h.hexdigest() == LIMITS_GOLDEN


# The sha256 of the rendered xi_limit and xi_bessel of each GOLDEN_TUPLES
# entry at its digit count in the benchmark's limits-deep workload
# (1000-3000), one line each, recorded while every ball was still an exact
# Fraction center with a Fraction radius: the dyadic balls must leave the
# text unchanged.
LIMITS_DEEP_DIGITS = [3000, 2500, 2000, 2000, 1000, 1500, 1000, 1500, 1000,
                      1500]
LIMITS_DEEP_GOLDEN = \
    "e54be2e8bf6554619363ab47ec65ab6917a5d01e5e0481a80a6a888fd2fe34b6"


def test_limits_deep_golden_text():
    h = hashlib.sha256()
    for t, digits in zip(GOLDEN_TUPLES, LIMITS_DEEP_DIGITS):
        for fn in (xi_limit, xi_bessel):
            h.update(fn(CFParams(*t), digits).decimal(digits).encode()
                     + b"\n")
    assert h.hexdigest() == LIMITS_DEEP_GOLDEN


def test_limits_deep_certify_at_the_first_attempt(monkeypatch):
    # a second attempt would double the time of a limits-deep op
    widths, right = [], limits._certify

    def spy(compute, digits, extra=0):
        tried = []
        widths.append(tried)
        return right(lambda w: tried.append(w) or compute(w), digits, extra)

    monkeypatch.setattr(limits, "_certify", spy)
    for t, digits in zip(GOLDEN_TUPLES, LIMITS_DEEP_DIGITS):
        for fn in (xi_limit, xi_bessel):
            fn(CFParams(*t), digits)
    assert len(widths) == 20
    assert all(len(tried) == 1 for tried in widths), widths


def test_higher_precision_never_loosens_the_ball():
    calls = [(f"{fn.__name__}{t}", lambda D, fn=fn, t=t: fn(CFParams(*t), D))
             for t in GOLDEN_TUPLES for fn in (xi_limit, xi_bessel)]
    # perron_d1 rounds each series into a ball (_ball, PrecReal._ratio)
    calls += [(f"perron_d1{b}", lambda D, b=b: perron_d1(*b, D))
              for b in ((3, 2), (1, 1), (5, 3), (9, 1))]
    for name, call in calls:
        errs = [call(D).err for D in range(5, 61)]
        grew = [D for D, (e, e1) in enumerate(zip(errs, errs[1:]), 6)
                if e1 > e]
        assert grew == [], name


def test_certified_path_takes_no_long_gcd(monkeypatch):
    # Fraction normalises by math.gcd; a dyadic ball needs none.  Every
    # gcd on these routes, rendering included, stays on small parameters.
    long_operands = []
    gcd = math.gcd

    def guarded(*args):
        if any(abs(x).bit_length() > 256 for x in args):
            long_operands.append(max(abs(x).bit_length() for x in args))
        return gcd(*args)

    monkeypatch.setattr(math, "gcd", guarded)
    for t in ((1, 2, 2, 3, 2), (1, 1, 2, 2, 1)):
        for fn in (xi_limit, xi_bessel):
            fn(CFParams(*t), 2000).decimal(2000)
    lehmer_d1(3, 2, 500).decimal(500)
    assert long_operands == []


# The sha256 of the rendered xi_bessel of every half-odd tuple with
# alpha in (1, 2, 4), d = 1..3, r = d - 1 and b0, b1 = 1..12 (113 tuples,
# sigma 1/2 to 25/2, so walks of 0 to 12 steps), at 25, 300 and 1000
# digits, one line each, recorded while each order was walked separately:
# one walk for both orders must leave the text unchanged.
HALF_ODD_GOLDEN = \
    "26bffffb5b2b3b7e3be739522b75f3ac3225e9c713d50b964d49513beb611724"


def half_odd_grid():
    for alpha in (1, 2, 4):
        for d in (1, 2, 3):
            for b0 in range(1, 13):
                for b1 in range(1, 13):
                    params = CFParams(alpha, b0, b1, d, d - 1)
                    if sigma_tag(*magic_pairs(params)[0]) == "half-odd":
                        yield params


def test_half_odd_golden_text():
    grid = list(half_odd_grid())
    assert len(grid) == 113
    h = hashlib.sha256()
    for params in grid:
        for digits in (25, 300, 1000):
            h.update(xi_bessel(params, digits).decimal(digits).encode()
                     + b"\n")
    assert h.hexdigest() == HALF_ODD_GOLDEN
