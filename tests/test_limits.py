import hashlib
import inspect
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hurwitzcf import limits
from hurwitzcf.cf_engine import convergents
from hurwitzcf.errors import PrecisionExhausted, UnsupportedOrder
from hurwitzcf.exactnum import PrecReal, _is_pow2, _split
from hurwitzcf.hurwitz import CFParams, denom_stream, magic_pairs, sigma_tag
from hurwitzcf.limits import (_sum_ratio_series, bessel_I, bessel_J,
                              cos_prec, cosh_prec, exp_prec, lehmer_d1,
                              perron_d1, pi_prec, series_AB, sin_prec,
                              sinh_prec, sqrt_prec, wlang_limit_check,
                              xi_bessel, xi_limit)

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


def close_to_float(ball, x, tol=1e-12):
    assert ball.err < F(1, 10 ** 13)
    assert abs(float(ball.value) - x) < tol


class TestKernels:
    def test_sin_cos_vs_math(self):
        for x in (F(1, 3), F(1, 2), F(1), F(-2, 7)):
            close_to_float(sin_prec(x, 20), math.sin(x))
            close_to_float(cos_prec(x, 20), math.cos(x))

    def test_sinh_cosh_exp_vs_math(self):
        for x in (F(1, 2), F(1), F(-3, 5)):
            close_to_float(sinh_prec(x, 20), math.sinh(x))
            close_to_float(cosh_prec(x, 20), math.cosh(x))
            close_to_float(exp_prec(x, 20), math.exp(x))

    def test_pythagorean_identity_certified(self):
        x = F(3, 7)
        one = sin_prec(x, 30) * sin_prec(x, 30) \
            + cos_prec(x, 30) * cos_prec(x, 30)
        assert one.lo <= 1 <= one.hi
        assert one.err < F(1, 10 ** 25)

    def test_pi(self):
        close_to_float(pi_prec(25), math.pi, 1e-14)

    def test_pi_1000_digits_contains_pi(self):
        mpmath = pytest.importorskip("mpmath")
        ball = pi_prec(1000)
        assert ball.rel_err() < F(1, 10 ** 1000)
        with mpmath.workdps(1100):
            man, exp = (+mpmath.pi).man_exp
        # pi lies within one unit in the last place of mpmath's value
        approx, ulp = F(man) * F(2) ** exp, F(2) ** exp
        assert ball.lo <= approx - ulp and approx + ulp <= ball.hi

    @staticmethod
    def alternating_enclosure(x: int, digits: int):
        """arctan(1/x) as S_M ± e, with e = 1/((2M+3) x^(2M+3)) the first
        omitted term, which bounds an alternating tail of shrinking terms,
        and M the least index with e < 10^-(digits+40)."""
        M = 0
        while (2 * M + 3) * x ** (2 * M + 3) <= 10 ** (digits + 40):
            M += 1
        s = sum(F((-1) ** n, (2 * n + 1) * x ** (2 * n + 1))
                for n in range(M + 1))
        return s, F(1, (2 * M + 3) * x ** (2 * M + 3))

    @pytest.mark.parametrize("digits", [10, 60, 300])
    def test_arctan_and_pi_hold_an_independent_enclosure(self, digits):
        # the kernel's tail |t_N| q / (1 - q) must cover Machin's
        # alternating tail, whose |ratio| grows toward 1/x^2
        for x in (2, 3, 5, 239):
            s, e = self.alternating_enclosure(x, digits)
            ball = limits._arctan_inv(x, digits)
            assert ball.lo <= s - e and s + e <= ball.hi
        (s5, e5), (s239, e239) = (self.alternating_enclosure(x, digits)
                                  for x in (5, 239))
        s, e = 16 * s5 - 4 * s239, 16 * e5 + 4 * e239
        ball = pi_prec(digits)
        assert ball.lo <= s - e and s + e <= ball.hi

    def test_sqrt(self):
        r = sqrt_prec(F(2), 30)
        assert r.lo ** 2 <= 2 <= r.hi ** 2
        assert r.err < F(1, 10 ** 28)
        with pytest.raises(ValueError):
            sqrt_prec(F(-1), 10)


class TestSeries:
    def test_rho_zero(self):
        # the kernel stops at m = 0: every ratio is 0, and t_0 of B is 0
        sv = series_AB(F(3, 2), F(0), 20)
        assert sv.A.value == 1 and sv.B.value == 0
        assert sv.A.err == sv.B.err == 0 and sv.terms_used == 1

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            series_AB(F(-1, 2), F(1, 4), 10)

    def test_first_terms_by_hand(self):
        # A = 1 + rho/sigma + rho^2/(2 (sigma+1)_2) + ...
        sigma, rho = F(3, 2), F(1, 16)
        sv = series_AB(sigma, rho, 30)
        partial = 1 + rho / sigma + rho ** 2 / (2 * (sigma + 1) * sigma)
        assert abs(sv.A.value - partial) < F(1, 10 ** 4)
        # the radius bounds the tail plus the rounding
        assert sv.B.value > 0
        assert sv.A.err < F(1, 10 ** 30) and sv.B.err < F(1, 10 ** 30)

    def test_negative_rho_alternates(self):
        sv = series_AB(F(3, 2), F(-1, 4), 25)
        assert 0 < sv.A.value < 1
        assert sv.B.value < 0


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

    return limits.Ratios(lambda i, j: [ratio(m) for m in range(i, j)],
                         log_size)


def summed(t0, ratio, digits):
    """_sum_ratio_series with its unreduced pairs read as values:
    (partial sum, tail bound, terms)."""
    s_num, den, tail_num, tail_den, n = _sum_ratio_series(
        (t0.numerator, t0.denominator), walked(ratio), digits)
    return F(s_num, den), F(tail_num, tail_den), n


def naive_sum(t0, ratio, terms):
    """Term-by-term Fraction sum of the first ``terms`` terms: the oracle
    for the binary-splitting kernel."""
    total = term = F(t0)
    for m in range(terms - 1):
        term *= F(*ratio(m))
        total += term
    return total


def series_a_b(sigma, rho):
    """(t0, ratio) of the two series behind series_AB."""
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
            (1, 1), walked(ratio), digits, weighted=True)
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
        # B = rho/sigma 0F1(; sigma+1; rho): the same value as series_AB's
        sv = series_AB(sigma, rho, digits)
        assert sv.B.lo - F(tail_b, tail_den) <= F(b, den) \
            <= sv.B.hi + F(tail_b, tail_den)
        # each row's ball den (m0 A + m1 B), from these sums, holds the
        # deep Fraction sums and is at least den times the row's tail
        out = a, b, den, tail_a, tail_b, tail_den, n
        monkeypatch.setattr(limits, "_sum_ratio_series", lambda *_, **k: out)
        # the last row's signed tails cancel: only |m0|, |m1| bound it
        rows = [(1, 0), (0, 1), (3, -2), (-5, 7), (tail_b, -tail_a)]
        balls, row_den = limits._weighted_rows(
            rows, (sigma.numerator, sigma.denominator),
            (rho.numerator, rho.denominator), digits)
        deep_a = sum(terms[:deep])
        deep_b = sum(k * t for k, t in enumerate(terms[:deep]))
        assert row_den == den
        for (m0, m1), ball in zip(rows, balls):
            assert ball.lo <= den * (m0 * deep_a + m1 * deep_b) <= ball.hi
            assert ball.err >= den * (abs(m0) * F(tail_a, tail_den)
                                      + abs(m1) * F(tail_b, tail_den))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 300), st.integers(1, 2 ** 300),
           st.integers(1, 2 ** 300))
    @example(0, 7, 3)  # no tail: the radius is still above 0
    @example(3, 5, 2 ** 100)  # a radius of 2^-95
    def test_row_radius_is_a_power_of_two_above_the_tail(self, e, den,
                                                          eden):
        err = limits._row_ball(0, e, den, eden, 0).err
        assert err.numerator == 1 or err.denominator == 1
        assert _is_pow2(err.numerator) and _is_pow2(err.denominator)
        assert err > F(e * den, eden)
        # and no more than three bits loose
        assert not e or err < 8 * F(e * den, eden)

    @pytest.mark.parametrize("series", TAYLOR)
    def test_taylor_matches_naive_sum(self, series):
        t0, ratio = series
        partial, tail, n = summed(t0, ratio, 80)
        assert partial == naive_sum(t0, ratio, n)
        assert abs(naive_sum(t0, ratio, n + 40) - partial) <= tail

    @pytest.mark.parametrize("sigma,rho", SIGMA_RHO)
    def test_series_ab_balls_contain_naive_sums(self, sigma, rho):
        sv = series_AB(sigma, rho, 50)
        (a0, ra), (b0, rb) = series_a_b(sigma, rho)
        deep = sv.terms_used + 40
        assert sv.A.lo <= naive_sum(a0, ra, deep) <= sv.A.hi
        assert sv.B.lo <= naive_sum(b0, rb, deep) <= sv.B.hi

    def test_taylor_kernel_balls_contain_definitions(self):
        def series(x, sign, p, step):  # sum sign^k x^(step k+p)/(step k+p)!
            return sum(F(sign) ** k * x ** (step * k + p)
                       / math.factorial(step * k + p) for k in range(90))
        cases = [(sin_prec, F(1, 2), -1, 1, 2), (cos_prec, F(1), -1, 0, 2),
                 (sinh_prec, F(-3, 5), 1, 1, 2), (cosh_prec, F(2, 3), 1, 0, 2),
                 (exp_prec, F(-2), 1, 0, 1)]
        for fn, x, sign, p, step in cases:
            ball = fn(x, 60)
            assert ball.lo <= series(x, sign, p, step) <= ball.hi, fn.__name__
            assert ball.rel_err() < F(1, 10 ** 60)

    def test_cancelling_terms_still_certify(self):
        # exp(-30): terms reach 10^11 while the sum is ~10^-13
        ball = exp_prec(F(-30), 20)
        assert ball.rel_err() < F(1, 10 ** 20)
        ref = naive_sum(F(1), pair(lambda m: F(-30) / (m + 1)), 200)
        assert ball.lo <= ref <= ball.hi

    def test_terminating_series_is_exact(self):
        def ratio(m):
            return (0, 1) if m == 3 else (1, m + 1)
        assert summed(F(1), ratio, 20) == (F(8, 3), 0, 4)
        assert _sum_ratio_series((0, 1), walked(ratio), 20) \
            == (0, 1, 0, 1, 0)

    def test_non_decaying_series_is_refused(self):
        with pytest.raises(PrecisionExhausted):
            _sum_ratio_series((1, 1), walked(lambda m: (-1, 1)), 5)

    # the pairs of _0f1 are not reduced: a common factor must change no
    # value (the unreduced pairs it returns do change)
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10 ** 12), st.sampled_from(range(len(ALL_SERIES))),
           st.sampled_from([5, 60]))
    @example(2, 0, 60)
    @example(10 ** 6, len(ALL_SERIES) - 1, 60)
    def test_scaled_pairs_change_nothing(self, k, index, digits):
        t0, ratio = ALL_SERIES[index]
        scaled = summed(t0, lambda m: tuple(k * x for x in ratio(m)), digits)
        assert scaled == summed(t0, ratio, digits)

    # the stop contract, checked on Fractions: 2^-k must round
    # 10^-(digits+10) down, so k rounded down would fail here
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("digits", [5, 60, 400])
    def test_last_term_is_below_the_stop(self, digits, weighted):
        eps = F(1, 10 ** (digits + 10))
        for t0, ratio in ALL_SERIES:
            out = _sum_ratio_series((t0.numerator, t0.denominator),
                                    walked(ratio), digits, weighted)
            n = out[-1]  # t_0 .. t_N summed, N = n - 1 >= 1
            total = naive_sum(t0, ratio, n)
            assert total == F(out[0], out[2] if weighted else out[1])
            last = abs(total - naive_sum(t0, ratio, n - 1))
            assert last * (n + 1 if weighted else 1) < eps * max(abs(total),
                                                                 eps)


def reference_walk(t0, ratio, digits):
    """The kernel as it was before N was chosen up front, kept as the
    reference: a per-term walk that sums float logs of the ratios to guess
    the stop, then the same exact check, tail and re-aim after
    cancellation.  ratio(m) is a per-term pair."""
    t0n, t0d = t0
    if t0n == 0:
        return 0, 1, 0, 1, 0
    k = -(-332193 * (digits + 10) // 100000)  # 2^-k <= 10^-(digits + 10)
    log_thresh = -(digits + 10) * math.log(10) - 1
    log_t = log_top = math.log(abs(t0n)) - math.log(t0d)
    pairs = []
    P, Q, T = 1, 1, 0
    n = m = 0
    while True:
        a, b = ratio(m)
        pairs.append((a, b))
        if not a or (m > 0 and log_t < log_top + log_thresh
                     and 2 * abs(a) <= b):
            if m > n:
                p2, q2, t2 = _split(pairs, n, m)
                P, Q, T = P * p2, Q * q2, T * q2 + P * t2
                n = m
            s_num, den = t0n * (Q + T), t0d * Q
            last = t0n * P
            if not a or abs(last) << 2 * k < max(abs(s_num) << k, den):
                return s_num, den, abs(last * a), den * (b - abs(a)), m + 1
            if s_num:
                log_top = math.log(abs(s_num)) - math.log(den)
        log_t += math.log(abs(a)) - math.log(b)
        log_top = max(log_top, log_t)
        m += 1
        if m > 100 * (digits + 20):
            raise PrecisionExhausted("series did not certify")


def kernel_calls(monkeypatch, call):
    """Run call() and return each (t0, ratios, digits, result) the kernel
    was asked for."""
    seen, right = [], limits._sum_ratio_series

    def spy(t0, ratios, digits):
        result = right(t0, ratios, digits)
        seen.append((t0, ratios, digits, result))
        return result

    monkeypatch.setattr(limits, "_sum_ratio_series", spy)
    call()
    return seen


def assert_walk_agrees(monkeypatch, call):
    calls = kernel_calls(monkeypatch, call)
    assert calls
    for t0, ratios, digits, result in calls:
        def ratio(m):
            return ratios.pairs(m, m + 1)[0]
        assert result == reference_walk(t0, ratio, digits), (t0, digits)


GRID_SIGMAS = [F(1, 2), F(3, 2), F(7, 2), F(5, 3), F(11, 18), F(2), F(40, 3)]
# -25/4 and -400/9: the terms cancel, and the exact check re-aims N
GRID_RHOS = [F(1, 4), F(-1, 4), F(1), F(-1), F(1, 100), F(-1, 36), F(9, 4),
             F(-25, 4), F(-400, 9)]


class TestChosenLength:
    """The kernel picks N from the closed-form term size; the reference walk
    picked it term by term.  Both must return the same five integers."""

    @pytest.mark.parametrize("digits", [10, 25, 100, 1000])
    def test_series_ab_grid_matches_walk(self, monkeypatch, digits):
        for sigma in GRID_SIGMAS:
            for rho in GRID_RHOS:
                # both series: A from t0 = 1, B from t0 = rho / sigma
                assert_walk_agrees(monkeypatch,
                                   lambda: series_AB(sigma, rho, digits))

    @pytest.mark.parametrize("digits", [10, 25, 100, 1000])
    def test_exp_and_arctan_match_walk(self, monkeypatch, digits):
        for x in (F(1, 2), F(-3, 5), F(-2), F(-30), F(10), F(7, 3)):
            assert_walk_agrees(monkeypatch, lambda: exp_prec(x, digits))
        for x in (5, 239):
            assert_walk_agrees(monkeypatch,
                               lambda: limits._arctan_inv(x, digits))

    @settings(max_examples=40, deadline=None)
    @given(st.fractions(F(1, 30), 400, max_denominator=60),
           st.integers(1, 4000),
           st.integers(1, 60), st.sampled_from([1, -1]),
           st.integers(1, 300))
    @example(F(1, 2), 25, 4, -1, 100)  # cos 5: re-aimed once, 60 terms
    @example(F(3, 2), 400, 9, -1, 25)  # re-aimed once, 45 terms
    @example(F(11), 10000, 1, -1, 10)  # re-aimed five times, 290 terms
    def test_random_0f1_matches_walk(self, sigma, u, v, sign, digits):
        rho = F(sign * u, v)
        with pytest.MonkeyPatch.context() as mp:
            assert_walk_agrees(mp, lambda: series_AB(sigma, rho, digits))

    @pytest.mark.parametrize("sigma,rho,digits,failed,terms", [
        (F(1, 2), F(-25, 4), 100, 1, 60), (F(3, 2), F(-400, 9), 25, 1, 45),
        (F(11), F(-10000), 10, 5, 290)])
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
        assert result[4] == terms
        monkeypatch.undo()
        assert result == reference_walk(
            (1, 1), lambda m: ratios.pairs(m, m + 1)[0], digits)

    @pytest.mark.parametrize("sigma", [F(2 ** 41 + 1, 3), F(10 ** 400, 7)])
    def test_huge_sigma_matches_walk(self, monkeypatch, sigma):
        # past 2^40 the estimate takes m log sigma for log (sigma)_m
        for rho in (F(1, 4), F(-10 ** 13)):
            assert_walk_agrees(monkeypatch,
                               lambda: series_AB(sigma, rho, 50))

    @pytest.mark.parametrize("call", [
        lambda: sin_prec(F(10 ** 6), 10),
        lambda: series_AB(F(1), F(10 ** 40), 10)],
        ids=["sin 10^6", "rho 10^40"])
    def test_runaway_refused_before_any_pairs(self, monkeypatch, call):
        # the peak lies past 100 (digits + 20) terms: refused from a few
        # single-ratio probes, with no list of pairs and no fold
        lengths, folds = [], []
        right = limits._sum_ratio_series

        def spy(t0, ratios, digits):
            def pairs(i, j):
                lengths.append(j - i)
                return ratios.pairs(i, j)
            return right(t0, limits.Ratios(pairs, ratios.log_size), digits)

        monkeypatch.setattr(limits, "_sum_ratio_series", spy)
        monkeypatch.setattr(limits, "_split",
                            lambda *a: folds.append(a) or (1, 1, 0))
        with pytest.raises(PrecisionExhausted):
            call()
        assert set(lengths) == {1} and len(lengths) < 64 and folds == []


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
            return PrecReal(1, 1)

        with pytest.raises(PrecisionExhausted):
            limits._certify(never, 5, 100)
        assert tried == [115, 230, 460, 920]

    def test_zero_division_retried_at_double_width(self):
        # a divisor ball that holds 0 counts as a failed attempt
        tried, ball = [], PrecReal(1)

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
    "series_AB": lambda D: series_AB(F(3, 2), F(1, 16), D),
    "sin_prec": lambda D: sin_prec(F(1), D),
    "cos_prec": lambda D: cos_prec(F(1), D),
    "sinh_prec": lambda D: sinh_prec(F(1), D),
    "cosh_prec": lambda D: cosh_prec(F(1), D),
    "exp_prec": lambda D: exp_prec(F(1), D),
    "pi_prec": lambda D: pi_prec(D),
    "sqrt_prec": lambda D: sqrt_prec(F(2), D),
    "bessel_I": lambda D: bessel_I(F(3, 2), F(1, 2), D),
    "bessel_J": lambda D: bessel_J(F(3, 2), F(1, 2), D),
    "xi_limit": lambda D: xi_limit(CFParams(1, 2, 2, 3, 2), D),
    "xi_bessel": lambda D: xi_bessel(CFParams(1, 2, 2, 3, 2), D),
    "lehmer_d1": lambda D: lehmer_d1(3, 2, D),
    "perron_d1": lambda D: perron_d1(3, 2, D),
    "wlang_limit_check": lambda D: wlang_limit_check(2, 5, D),
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


# high orders at small arguments: the walk from the seeds loses more digits
# than the first attempt's extra ones cover
SMALL_Z_HIGH_ORDER = [(F(81, 2), F(1, 100)), (F(21, 2), F(1, 1000)),
                      (F(41, 2), F(1, 10))]


class TestHalfOddBessel:
    @pytest.mark.parametrize("nu,z", SMALL_Z_HIGH_ORDER)
    @pytest.mark.parametrize("fn", [bessel_I, bessel_J])
    def test_certified_at_small_argument(self, fn, nu, z):
        assert fn(nu, z, 30).rel_err_at_most(30)

    @pytest.mark.parametrize("nu,z", SMALL_Z_HIGH_ORDER)
    def test_small_argument_vs_mpmath(self, nu, z):
        mpmath = pytest.importorskip("mpmath")
        for fn, ref in ((bessel_I, mpmath.besseli),
                        (bessel_J, mpmath.besselj)):
            ball = fn(nu, z, 30)
            with mpmath.workdps(60):
                want = ref(mpmath.mpf(nu.numerator) / nu.denominator,
                           mpmath.mpf(z.numerator) / z.denominator)
                got = mpmath.mpf(ball.value.numerator) / ball.value.denominator
                assert abs(got - want) <= abs(want) * mpmath.mpf(10) ** -29


    @pytest.mark.parametrize("nu,z,digits", [
        (F(81, 2), F(1, 100), 30), (F(21, 2), F(1, 1000), 30),
        (F(201, 2), F(1, 10), 100)])
    @pytest.mark.parametrize("fn", [bessel_I, bessel_J])
    def test_certified_at_the_first_attempt(self, monkeypatch, fn, nu, z,
                                            digits):
        # the walk's loss is computed before any work: no attempt is wasted
        widths, right = [], limits._certify

        def spy(compute, digits, extra=0):
            return right(lambda w: widths.append(w) or compute(w), digits,
                         extra)

        monkeypatch.setattr(limits, "_certify", spy)
        assert fn(nu, z, digits).rel_err_at_most(digits)
        assert len(widths) == 1, widths

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, -1]), st.integers(-20, 20),
           st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
    @example(1, 0, 1, 1)
    @example(-1, -20, 7, 3)
    def test_walk_determinant(self, s, k, zn, zd):
        # each step multiplies a d - b c by -s zn^2
        (a, b), (c, d), den = limits._half_odd_walk(s, k, (zn, zd))
        assert den == zn ** abs(k)
        assert a * d - b * c == (-s) ** abs(k) * den * den

    def test_walk_rows_by_hand(self):
        # X_{3/2} = S/z - C for J and C - S/z for I; X_{-3/2} = s S - C/z
        for s in (1, -1):
            assert limits._half_odd_walk(s, 1, (3, 2)) \
                == ((0, 3), (3 * s, -2 * s), 3)
            assert limits._half_odd_walk(s, -1, (3, 2)) \
                == ((-2, 3 * s), (3, 0), 3)

    def test_ratio_is_tanh(self):
        for z in (F(1, 2), F(1), F(2, 3)):
            ratio = bessel_I(F(1, 2), z, 25) / bessel_I(F(-1, 2), z, 25)
            t = sinh_prec(z, 30) / cosh_prec(z, 30)
            assert overlap(ratio, t)

    def test_j_half(self):
        val = bessel_J(F(1, 2), F(1), 25)
        ref = sqrt_prec(2 / pi_prec(30), 30) * sin_prec(F(1), 30)
        assert overlap(val, ref)

    def test_i_three_halves_closed_form(self):
        x = F(1, 2)
        val = bessel_I(F(3, 2), x, 25)
        pref = sqrt_prec(2 / (pi_prec(30) * x), 30)
        ref = pref * (cosh_prec(x, 30) - sinh_prec(x, 30) / x)
        assert overlap(val, ref)

    def test_j_three_halves_closed_form(self):
        x = F(2, 3)
        val = bessel_J(F(3, 2), x, 25)
        pref = sqrt_prec(2 / (pi_prec(30) * x), 30)
        ref = pref * (sin_prec(x, 30) / x - cos_prec(x, 30))
        assert overlap(val, ref)

    def test_j_five_halves_closed_form(self):
        z = F(1, 2)
        val = bessel_J(F(5, 2), z, 25)
        pref = sqrt_prec(2 / (pi_prec(30) * z), 30)
        ref = pref * ((3 / z ** 2 - 1) * sin_prec(z, 30)
                      - (3 / z) * cos_prec(z, 30))
        assert overlap(val, ref)

    def test_j_seven_halves_closed_form(self):
        z = F(1, 2)
        val = bessel_J(F(7, 2), z, 25)
        pref = sqrt_prec(2 / (pi_prec(30) * z), 30)
        ref = pref * ((15 / z ** 3 - 6 / z) * sin_prec(z, 30)
                      - (15 / z ** 2 - 1) * cos_prec(z, 30))
        assert overlap(val, ref)

    def test_order_recurrences(self):
        z = F(3, 4)
        for k in range(-3, 4):
            nu = k + F(1, 2)
            i_next = bessel_I(nu + 1, z, 25)
            i_rec = bessel_I(nu - 1, z, 30) - (2 * nu / z) * bessel_I(nu, z, 30)
            assert overlap(i_next, i_rec), nu
            j_next = bessel_J(nu + 1, z, 25)
            j_rec = (2 * nu / z) * bessel_J(nu, z, 30) - bessel_J(nu - 1, z, 30)
            assert overlap(j_next, j_rec), nu

    def test_integer_order_refused(self):
        with pytest.raises(UnsupportedOrder):
            bessel_I(1, F(1, 2), 10)
        with pytest.raises(UnsupportedOrder):
            bessel_J(F(1, 3), F(1, 2), 10)

    def test_ratio_vs_elementary(self):
        # Lehmer: [3, 5, 7, ...] = I_{1/2}(1) / I_{3/2}(1), sigma = 3/2
        r = lehmer_d1(3, 2, 25)
        ref = bessel_I(F(1, 2), 1, 30) / bessel_I(F(3, 2), 1, 30)
        assert overlap(r, ref)


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
    def test_e_minus_one(self):
        v = xi_limit(CFParams(1, 2, 2, 3, 2), 30)
        e = exp_prec(F(1), 35)
        assert overlap(v, e - 1)

    def test_tan_one(self):
        v = xi_limit(CFParams(1, 1, 2, 2, 1), 30)
        t = sin_prec(F(1), 35) / cos_prec(F(1), 35)
        assert overlap(v, t)

    def test_sinh_family_m2(self):
        # xi(1, 3m-1, 2m, 3, 2) = 2 sinh(1/2m) / (cosh(1/2m) - (2m-1) sinh(1/2m))
        m = 2
        v = xi_limit(CFParams(1, 3 * m - 1, 2 * m, 3, 2), 30)
        x = F(1, 2 * m)
        ref = 2 * sinh_prec(x, 40) \
            / (cosh_prec(x, 40) - (2 * m - 1) * sinh_prec(x, 40))
        assert overlap(v, ref)

    def test_sin_family_m3(self):
        # xi(1, 3m-2, 2m, 2, 1) = sin(1/m) / (cos(1/m) - (m-1) sin(1/m))
        m = 3
        v = xi_limit(CFParams(1, 3 * m - 2, 2 * m, 2, 1), 30)
        x = F(1, m)
        ref = sin_prec(x, 40) / (cos_prec(x, 40) - (m - 1) * sin_prec(x, 40))
        assert overlap(v, ref)

    def test_ugly_m0(self):
        # 4(11 sin(1/2) - 6 cos(1/2)) / (53 cos(1/2) - 97 sin(1/2))
        v = xi_limit(CFParams(4, 3, 1, 2, 1), 25)
        s, c = sin_prec(F(1, 2), 45), cos_prec(F(1, 2), 45)
        ref = 4 * (11 * s - 6 * c) / (53 * c - 97 * s)
        assert overlap(v, ref)

    def test_one_quotient_from_one_weighted_sum(self, monkeypatch):
        # no series_AB, no _ratio: each attempt makes one weighted kernel
        # call and one ball quotient, the half-odd walk included
        calls = []
        kernel, divide, certify = (limits._sum_ratio_series,
                                   PrecReal.__truediv__, limits._certify)

        def kernel_spy(*args, **kwargs):
            calls.append(kwargs)
            return kernel(*args, **kwargs)

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
            monkeypatch.setattr(limits, "series_AB", refused)
            monkeypatch.setattr(PrecReal, "_ratio", staticmethod(refused))
            calls.clear()
            v = fn(CFParams(*t), 100)
            attempts = calls.count("attempt")
            assert attempts >= 1 and calls == [
                "attempt", {"weighted": True}, "/"] * attempts, (fn, t)
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
    # makes one weighted kernel call for both orders sigma - 1 and sigma
    walks, sums = [], []
    walk, kernel = limits._half_odd_walk, limits._sum_ratio_series

    def walk_spy(*args):
        walks.append(args)
        return walk(*args)

    def kernel_spy(*args, **kwargs):
        sums.append(kwargs)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(limits, "_half_odd_walk", walk_spy)
    monkeypatch.setattr(limits, "_sum_ratio_series", kernel_spy)
    for t in ((1, 2, 2, 3, 2), (1, 1, 2, 2, 1), (4, 3, 1, 2, 1)):
        walks.clear()
        sums.clear()
        xi_bessel(CFParams(*t), 25)
        assert len(walks) == 1 and sums == [{"weighted": True}], t


class TestWlang:
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
    calls += [("sin 1", lambda D: sin_prec(F(1), D)),
              ("exp -3", lambda D: exp_prec(F(-3), D)), ("pi", pi_prec),
              ("I_7/2(1/3)", lambda D: bessel_I(F(7, 2), F(1, 3), D))]
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
