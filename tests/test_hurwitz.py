import copy
import fractions
import hashlib
import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hurwitzcf import exactnum, hurwitz
from hurwitzcf.cf_engine import (_last_convergent, convergents, euler_mindig,
                                 eval_finite)
from hurwitzcf.cli import run
from hurwitzcf.errors import NonIntegerResult
from hurwitzcf.fibpoly import fib_eval
from hurwitzcf.hurwitz import (CFParams, _closed_form_sums, _rising,
                               closed_form_convergent, denom_stream,
                               fib_transform, magic_pairs,
                               normalized_numerator, prec_recurrence_p,
                               sigma_tag)
from reference import (double_sum_numerators, falling_factorial, gbinom,
                       lucas_eval, sigma_rho, top_down_first_sum)

E_MINUS_1 = CFParams(1, 2, 2, 3, 2)
TAN_1 = CFParams(1, 1, 2, 2, 1)
UGLY = CFParams(4, 3, 1, 2, 1)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            CFParams(0, 1, 1, 1, 0)
        with pytest.raises(ValueError):
            CFParams(1, 1, 1, 1, -1)

    def test_non_int_fields_rejected(self):
        # a float would leak into the "exact" convergents, and a bool is
        # an int only by accident
        for i, name in enumerate(("alpha", "beta0", "beta1", "d", "r")):
            for bad in (1.0, 2.0, True, False, Fraction(1), "1"):
                args = [1, 2, 2, 3, 2]
                args[i] = bad
                with pytest.raises(TypeError, match=name):
                    CFParams(*args)

    def test_immutable(self):
        for name in ("alpha", "beta0", "beta1", "d", "r"):
            with pytest.raises(AttributeError):
                setattr(E_MINUS_1, name, 3)
            with pytest.raises(AttributeError):
                delattr(E_MINUS_1, name)
        with pytest.raises(AttributeError):
            E_MINUS_1.extra = 1
        assert E_MINUS_1.r == 2

    def test_equality_and_hash_by_value(self):
        twin = CFParams(1, 2, 2, 3, 2)
        assert twin == E_MINUS_1 and twin is not E_MINUS_1
        assert hash(twin) == hash(E_MINUS_1)
        assert len({twin, E_MINUS_1, TAN_1}) == 2
        assert E_MINUS_1 != TAN_1
        assert E_MINUS_1 != (1, 2, 2, 3, 2)  # not a tuple

    def test_repr_asdict_and_copies(self):
        assert repr(E_MINUS_1) == "CFParams(alpha=1, beta0=2, beta1=2, d=3, r=2)"
        assert list(E_MINUS_1.asdict().items()) == [
            ("alpha", 1), ("beta0", 2), ("beta1", 2), ("d", 3), ("r", 2)]
        assert CFParams(beta1=2, r=2, alpha=1, d=3, beta0=2) == E_MINUS_1
        for twin in (pickle.loads(pickle.dumps(E_MINUS_1)),
                     copy.copy(E_MINUS_1), copy.deepcopy(E_MINUS_1)):
            assert twin == E_MINUS_1

    def test_replace_is_checked(self):
        assert E_MINUS_1.replace(r=0) == CFParams(1, 2, 2, 3, 0)
        assert E_MINUS_1.r == 2
        with pytest.raises(ValueError):
            E_MINUS_1.replace(r=-1)
        with pytest.raises(TypeError, match="beta0"):
            E_MINUS_1.replace(beta0=2.0)
        with pytest.raises(TypeError):
            E_MINUS_1.replace(gamma=1)


class TestStream:
    def test_e_minus_one(self):
        s = denom_stream(E_MINUS_1)
        assert [s(i) for i in range(9)] == [1, 1, 2, 1, 1, 4, 1, 1, 6]

    def test_tan_one(self):
        s = denom_stream(TAN_1)
        assert [s(i) for i in range(8)] == [1, 1, 1, 3, 1, 5, 1, 7]

    def test_ugly(self):
        s = denom_stream(UGLY)
        assert [s(i) for i in range(8)] == [4, 3, 4, 4, 4, 5, 4, 6]

    def test_r_zero_starts_at_beta0(self):
        s = denom_stream(CFParams(3, 5, 2, 2, 0))
        assert [s(i) for i in range(5)] == [5, 3, 7, 3, 9]


class TestMagic:
    def test_e_example(self):
        assert magic_pairs(E_MINUS_1) == ((6, 4), (1, 16))
        sigma, rho = magic_pairs(E_MINUS_1)
        assert Fraction(*sigma) == Fraction(3, 2)
        assert Fraction(*rho) == Fraction(1, 16)

    def test_d1_sigma_ignores_alpha(self):
        for alpha in (1, 2, 7):
            sigma, _ = magic_pairs(CFParams(alpha, 3, 2, 1, 0))
            assert Fraction(*sigma) == Fraction(3, 2)

    def test_alpha2_d2(self):
        for b0, b1 in ((1, 1), (3, 2), (5, 4)):
            sigma, _ = magic_pairs(CFParams(2, b0, b1, 2, 0))
            assert Fraction(*sigma) == Fraction(b0 + 1, b1)

    def test_rho_sign_follows_d_parity(self):
        assert Fraction(*magic_pairs(E_MINUS_1)[1]) > 0
        assert Fraction(*magic_pairs(TAN_1)[1]) < 0


class TestSigmaTag:
    @staticmethod
    def reduced_tag(num: int, den: int) -> str:
        q = Fraction(num, den).denominator
        return "integer" if q == 1 else "half-odd" if q == 2 else "other"

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))
    @example(0, 5)
    @example(2, 4)      # unreduced half-odd
    @example(-3, 2)
    @example(6, 4)      # unreduced 3/2
    @example(4, 2)      # unreduced integer
    def test_matches_reduced_fraction(self, num, den):
        assert sigma_tag(num, den) == self.reduced_tag(num, den)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-10 ** 3, 10 ** 3), st.integers(1, 10 ** 3),
           st.integers(2, 10 ** 3))
    def test_common_factor_ignored(self, num, den, k):
        assert sigma_tag(k * num, k * den) == self.reduced_tag(num, den)


class TestFibTransform:
    def test_e_example(self):
        # F_3 = 2, F_0 = 0, F_2 = 1, F_1 = 1 at alpha = 1; g = -F_3 beta1
        assert fib_transform(E_MINUS_1) == ((2, 0), (1, 4))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 8), st.integers(1, 6),
           st.integers(0, 8))
    @example(1, 2, 1, 2)    # r = d
    @example(2, 3, 2, 5)    # r = d + 2
    def test_determinant(self, a, b1, d, r):
        # F_d = F_{r+1} F_{d-r} + F_r F_{d-r-1}, also at negative indices
        (m00, m01), (m10, m11) = fib_transform(CFParams(a, 1, b1, d, r))
        sign = -1 if (d - r) % 2 else 1
        assert m00 * m11 - m01 * m10 == -sign * fib_eval(d, a) ** 2 * b1
        assert all(type(x) is int for x in (m00, m01, m10, m11))


class TestClosedForm:
    def test_e_example_n1(self):
        c = closed_form_convergent(E_MINUS_1, 1)
        assert (c.n, c.p, c.q) == (4, 12, 7)

    def test_e_example_n0(self):
        c = closed_form_convergent(E_MINUS_1, 0)
        assert (c.n, c.p, c.q) == (1, 2, 1)

    def test_r0_gives_formal_minus_first(self):
        c = closed_form_convergent(CFParams(1, 2, 2, 3, 0), 0)
        assert (c.n, c.p, c.q) == (-1, 1, 0)

    def test_tan1_n2(self):
        c = closed_form_convergent(TAN_1, 2)
        ref = convergents(denom_stream(TAN_1), 4)[-1]
        assert (c.p, c.q) == (ref.p, ref.q)


def naive_closed_form_sums(params, n):
    """The two inner sums term by term, straight from their definition."""
    sigma, rho = sigma_rho(params)
    first = sum((Fraction(math.factorial(n - k), math.factorial(k))
                 * gbinom(n + sigma - 1 - k, n - 2 * k) * rho ** k
                 for k in range(n // 2 + 1)), Fraction(0))
    second = sum((Fraction(math.factorial(n - k - 1), math.factorial(k))
                  * gbinom(n + sigma - 1 - k, n - 2 * k - 1) * rho ** (k + 1)
                  for k in range((n - 1) // 2 + 1)), Fraction(0))
    return first, second


def scaled_sums(params, n):
    """q^n first and q^(n+1) second with q = beta1 F_d(alpha), from the
    integer sums the closed form uses; both must divide exactly."""
    (p, q), (s, _) = magic_pairs(params)
    (first, rem), (second, rem2) = _closed_form_sums(n, p, q, s)
    assert rem == rem2 == 0, (params, n)
    return first, s * second


def naive_scaled_sums(params, n):
    first, second = naive_closed_form_sums(params, n)
    q = params.beta1 * fib_eval(params.d, params.alpha)
    return q ** n * first, q ** (n + 1) * second


def split_off_by_one(monkeypatch, sum_name):
    """Make hurwitz's binary splitting return T + 1 (the second sum's) or
    U + 1 (the first sum's): a planted fault."""
    real = hurwitz._split
    at = {"T": 2, "U": 3}[sum_name]

    def split(pairs, i, j, weights):
        got = list(real(pairs, i, j, weights))
        got[at] += 1
        return tuple(got)

    monkeypatch.setattr(hurwitz, "_split", split)


def wrong_weight(monkeypatch, sum_name, i):
    """Make hurwitz's binary splitting see term i of the second sum's
    weights (v) or of the first sum's (w) one too large: a planted fault."""
    real = hurwitz._split
    at = {"v": 0, "w": 1}[sum_name]

    def split(pairs, i0, j, weights):
        weights = [list(x) for x in weights]
        weights[at][i] += 1
        return real(pairs, i0, j, tuple(weights))

    monkeypatch.setattr(hurwitz, "_split", split)


def top_down_sums(n, p, q, s):
    """_closed_form_sums(n, p, q, s) from top_down_first_sum: X_n(p) and
    X_{n-1}(p+q), the latter 0 at n = 0, each with remainder 0."""
    return ((top_down_first_sum(n, p, q, s), 0),
            (top_down_first_sum(n - 1, p + q, q, s) if n else 0, 0))


class TestClosedFormSums:
    @pytest.mark.parametrize("params", [E_MINUS_1, TAN_1, UGLY,
                                        CFParams(2, 5, 3, 4, 1),
                                        CFParams(3, 1, 4, 1, 0)])
    def test_equals_term_by_term_sums(self, params):
        for n in range(41):
            assert scaled_sums(params, n) \
                == naive_scaled_sums(params, n), (params, n)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 8), st.integers(1, 8),
           st.integers(1, 5), st.integers(0, 4), st.integers(0, 60))
    def test_random_guaranteed_params(self, a, b0, b1, d, r, n):
        params = CFParams(a, b0, b1, d, r % d)
        assert scaled_sums(params, n) == naive_scaled_sums(params, n)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 8), st.integers(1, 8),
           st.integers(1, 5), st.integers(0, 10), st.integers(0, 60))
    @example(1, 2, 2, 3, 6, 5)   # r = 2d
    @example(2, 3, 1, 2, 3, 0)   # r >= d at n = 0
    def test_random_params_against_recurrence(self, a, b0, b1, d, r, n):
        # r anywhere in [0, 2d], past the theorem's regime r <= d - 1
        params = CFParams(a, b0, b1, d, r % (2 * d + 1))
        cf = closed_form_convergent(params, n)
        if cf.n < 0:
            assert (cf.p, cf.q) == (1, 0)
        else:
            ref = _last_convergent(denom_stream(params), cf.n)
            assert (cf.p, cf.q) == (ref.p, ref.q), (params, n)

    # both middle-out sums against the first-term-down reference, exact
    # integers on both sides; n = 0, 1 and 2 sum no ratio at all
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 300), st.integers(1, 10 ** 6),
           st.integers(1, 10 ** 4), st.sampled_from((1, -1)))
    @example(0, 6, 4, 1)
    @example(1, 6, 4, 1)
    @example(2, 6, 4, -1)
    @example(3, 10, 4, 1)
    @example(200, 1, 1, -1)
    @example(201, 1, 1, 1)
    def test_middle_out_equals_top_down(self, n, p, q, s):
        assert _closed_form_sums(n, p, q, s) == top_down_sums(n, p, q, s)

    @pytest.mark.parametrize("params", [E_MINUS_1, UGLY])
    @pytest.mark.parametrize("n", [2000, 2001])
    def test_middle_out_equals_top_down_at_depth(self, params, n):
        (p, q), (s, _) = magic_pairs(params)
        assert _closed_form_sums(n, p, q, s) == top_down_sums(n, p, q, s)

    def test_large_index_against_recurrence(self):
        for params in (E_MINUS_1, UGLY):
            cf = closed_form_convergent(params, 1000)
            ref = convergents(denom_stream(params), cf.n)[-1]
            assert (cf.p, cf.q) == (ref.p, ref.q), params

    @pytest.mark.parametrize("n", [3, 5, 120, 201, 3000])
    def test_non_integer_sum_reported_at_any_index(self, monkeypatch, n):
        """A planted T + 1 (U + 1) adds c to the second (first) sum's
        numerator c (v_0 Q + T) (c (w_0 Q + U)), for u_K = c/e, and e Q does
        not divide c: the remainder is nonzero.  At n <= 2 there is no ratio
        (Q = 1), so the guard has nothing to check there.  The message names the input and the sum, not the numbers:
        at n = 3000 these run past the interpreter's 4300-digit limit on
        int-to-str."""
        for sum_name, which in (("T", "second"), ("U", "first")):
            split_off_by_one(monkeypatch, sum_name)
            with pytest.raises(NonIntegerResult,
                               match=f"n={n}: the scaled {which}") as err:
                closed_form_convergent(E_MINUS_1, n)
            assert len(str(err.value)) < 200
            monkeypatch.undo()

    @pytest.mark.parametrize("n", [3, 4, 120, 201])
    @pytest.mark.parametrize("sum_name", ["v", "w"])
    def test_wrong_weight_fails(self, monkeypatch, sum_name, n):
        """A weight one too large at one k moves its sum by u_k, which is
        an integer as often as not, so the remainders need not see it; the
        top-down reference does."""
        (p, q), (s, _) = magic_pairs(E_MINUS_1)
        K = (n - 1) // 2
        wrong_weight(monkeypatch, sum_name, (K + 1) // 2)  # u_{K // 2}
        assert _closed_form_sums(n, p, q, s) != top_down_sums(n, p, q, s)

    def test_non_integer_sum_is_an_internal_error(self, monkeypatch, capsys):
        split_off_by_one(monkeypatch, "U")
        assert run(["conv", "--alpha", "1", "--b0", "2", "--b1", "2",
                    "--d", "3", "--r", "2", "--n", "3000",
                    "--method", "closed"]) == 1
        assert "not an integer" in capsys.readouterr().err

    def test_convergent_side_makes_no_fraction(self, monkeypatch):
        cases = [(E_MINUS_1, 7), (TAN_1, 12), (UGLY, 30),
                 (CFParams(2, 3, 1, 2, 3), 9)]
        closed = [closed_form_convergent(p, n) for p, n in cases]
        normed = [normalized_numerator(p, n, 30) for p, n in cases]

        def no_fraction(*args):
            raise AssertionError("Fraction made on the convergent side")

        # each module imports Fraction where it builds one: patch it at its
        # source
        assert not hasattr(hurwitz, "Fraction")
        assert not hasattr(exactnum, "Fraction")
        monkeypatch.setattr(fractions, "Fraction", no_fraction)
        assert [closed_form_convergent(p, n) for p, n in cases] == closed
        for (p, n), ball in zip(cases, normed):
            again = normalized_numerator(p, n, 30)
            assert (again.m, again.r, again.e) == (ball.m, ball.r, ball.e)


@pytest.mark.parametrize("p, q", [(6, 4), (1, 1), (3, 1), (97, 10 ** 6)])
def test_rising_equals_the_plain_product(p, q):
    for n in range(101):
        assert _rising(p, q, n) == math.prod(p + j * q for j in range(n))
    assert _rising(p, q, 5000) == math.prod(p + j * q for j in range(5000))


class TestPrecRecurrence:
    def test_initial_value(self):
        assert prec_recurrence_p(E_MINUS_1, 0) == [2]  # F_{r+1}(alpha)

    def test_first_block(self):
        assert prec_recurrence_p(E_MINUS_1, 1)[1] == 12

    def test_tan1_matches_recurrence(self):
        ps = prec_recurrence_p(TAN_1, 3)
        convs = convergents(denom_stream(TAN_1), 6)
        assert ps[3] == convs[7].p

    # the weights formed once against the double sum as written; at
    # n_max = 0 the slice of Fibonacci numbers is empty
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 4),
           st.integers(1, 4), st.integers(0, 8), st.integers(0, 12))
    @example(1, 2, 2, 3, 2, 0)
    @example(1, 1, 1, 1, 2, 12)
    @example(3, 1, 2, 4, 8, 12)
    def test_equals_the_double_sum(self, a, b0, b1, d, r, n_max):
        params = CFParams(a, b0, b1, d, r % (2 * d + 1))  # r <= 2d
        assert (prec_recurrence_p(params, n_max)
                == double_sum_numerators(params, n_max))


def _grid(alpha_max=3, beta_max=3, d_max=3):
    for a, b0, b1, d in itertools.product(range(1, alpha_max + 1),
                                          range(1, beta_max + 1),
                                          range(1, beta_max + 1),
                                          range(1, d_max + 1)):
        for r in range(d):
            yield CFParams(a, b0, b1, d, r)


def test_three_way_agreement_small_grid():
    # the full acceptance grid lives in test_acceptance; this is the
    # fast developer loop
    for params in _grid():
        stream = denom_stream(params)
        n_max = 8
        top = max(0, n_max * params.d + params.r - 1)
        convs = convergents(stream, top)
        ps = prec_recurrence_p(params, n_max)
        for n in range(n_max + 1):
            cf = closed_form_convergent(params, n)
            ref = convs[cf.n + 1]
            assert (cf.p, cf.q) == (ref.p, ref.q), (params, n)
            assert ps[n] == ref.p, (params, n)


def test_euler_mindig_at_its_guard():
    # indices 19..22: up to the enumeration guard of the non-naive path
    for params in (E_MINUS_1, TAN_1, UGLY):
        stream = denom_stream(params)
        convs = convergents(stream, 22)
        for idx in range(19, 23):
            em = euler_mindig(stream, idx)
            assert (em.p, em.q) == (convs[idx + 1].p, convs[idx + 1].q)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6),
       st.integers(1, 10 ** 6), st.integers(1, 40), st.integers(0, 5))
@example(10 ** 6, 1, 1, 100, 0)  # the least beta0, at large alpha and d
def test_sigma_positive_and_falling_factorial_positive(a, b0, b1, d, r):
    # magic_pairs' p is the paper's (b0 - a) F_d + L_d, and it is at least
    # F_d + 2 F_{d-1} >= 1, since L_d = a F_d + 2 F_{d-1}: sigma > 0
    params = CFParams(a, b0, b1, d, r)
    (p, _), _ = magic_pairs(params)
    fd = fib_eval(d, a)
    assert p == (b0 - a) * fd + lucas_eval(d, a)
    assert p >= fd + 2 * fib_eval(d - 1, a) >= 1
    sigma, _ = sigma_rho(params)
    assert sigma > 0
    assert falling_factorial(sigma + 99, 100) > 0


def test_experimental_r_at_least_d():
    # closed form with the negative-index convention, checked against the
    # plain recurrence; not covered by the theorem's stated regime
    for params in (CFParams(1, 2, 2, 2, 2), CFParams(2, 3, 1, 2, 3),
                   CFParams(1, 1, 1, 3, 4)):
        stream = denom_stream(params)
        for n in range(0, 6):
            idx = n * params.d + params.r - 1
            cf = closed_form_convergent(params, n)
            ref = convergents(stream, idx)[-1]
            assert (cf.p, cf.q) == (ref.p, ref.q), (params, n)


def test_normalized_numerator_example():
    v = normalized_numerator(E_MINUS_1, 1, 20)
    assert v.value == 2

    # quotient is exact by definition
    v = normalized_numerator(TAN_1, 4, 20)
    sigma, _ = sigma_rho(TAN_1)
    p = prec_recurrence_p(TAN_1, 4)[4]
    expect = p / (Fraction(1 * 2) ** 4 * falling_factorial(sigma + 3, 4))
    assert abs(v.value - expect) <= v.err


# The sha256 of normalized_numerator(params, n, D).decimal(D) over alpha in
# (1, 2, 3), beta0 in (1, 2, 5), beta1 in (1, 2, 3), d and r in (1, 2, 3) and
# (0, 1, 2), n in (1, 5, 40) and D in (10, 30), nested in that order, one
# line each (1458 texts), recorded while the quotient was an exact Fraction
# rounded to nearest: the integer quotient must leave the text unchanged.
NORMALIZED_GOLDEN = \
    "171f24a3d33b0dd6acbe8e46336804c825d71cee1bc3687cf0a0de3f1e2b093c"


def test_normalized_numerator_golden_text():
    h = hashlib.sha256()
    for a, b0, b1, d, r, n, digits in itertools.product(
            (1, 2, 3), (1, 2, 5), (1, 2, 3), (1, 2, 3), (0, 1, 2), (1, 5, 40),
            (10, 30)):
        ball = normalized_numerator(CFParams(a, b0, b1, d, r), n, digits)
        h.update(ball.decimal(digits).encode() + b"\n")
    assert h.hexdigest() == NORMALIZED_GOLDEN


def test_normalized_numerator_refuses_digits_below_one():
    with pytest.raises(ValueError, match="digits must be >= 1"):
        normalized_numerator(E_MINUS_1, 3, 0)


def test_normalized_sequences_tighten():
    # Cauchy-like behavior of the normalized numerators
    for params in (E_MINUS_1, TAN_1):
        vals = []
        for n in (20, 30, 40):
            vals.append(normalized_numerator(params, n, 30).value)
        assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])


def test_convergent_value_approaches_stream_value():
    params = E_MINUS_1
    stream = denom_stream(params)
    cf = closed_form_convergent(params, 10)
    finite = eval_finite([stream(i) for i in range(cf.n + 1)])
    assert Fraction(cf.p, cf.q) == finite
