import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from hurwitzcf import exactnum
from hurwitzcf.exactnum import PrecReal, _divmod, int_text, mantissa_bits
from hurwitzcf.hurwitz import CFParams
from hurwitzcf.limits import xi_limit
# the tests of the rational references, collected here
from reference import TestFallingFactorial, TestGbinom  # noqa: F401

F = Fraction


def rounded(x: Fraction, digits: int) -> PrecReal:
    """x as a ball of mantissa_bits(digits) bits, by PrecReal's one
    rounding rule (center floored, radius rounded up)."""
    return PrecReal._ratio(x.numerator, x.denominator, 0, 1,
                           mantissa_bits(digits))


class TestRationalExactness:
    @given(st.fractions(max_denominator=10 ** 6),
           st.fractions(max_denominator=10 ** 6))
    def test_cross_multiplied_sum(self, a, b):
        s = a + b
        assert (s * a.denominator * b.denominator
                == a.numerator * b.denominator + b.numerator * a.denominator)


LEAF = exactnum._SPLIT_LEAF
# lists long enough that _split(pairs, 0, len) merges a run of LEAF + 1
# ratios, itself two leaves; a drawn i..j may be any shorter run
RATIO_LISTS = st.lists(st.tuples(st.integers(-10 ** 6, 10 ** 6),
                                 st.integers(1, 10 ** 6)),
                       min_size=2 * LEAF + 1, max_size=3 * LEAF)


def two_weight_reference(pairs, i, j, v, w):
    """(P, Q, T, U) of exactnum._split(pairs, i, j, (v, w)) from
    term-by-term Fraction sums: the partial product that ends at ratio k
    is term k + 1 of the series over t_i, weighted v[k + 1] in T and
    w[k + 1] in U."""
    P = math.prod(a for a, _ in pairs[i:j])
    Q = math.prod(b for _, b in pairs[i:j])
    term, T, U = F(1), F(0), F(0)
    for k in range(i, j):
        term *= F(*pairs[k])
        T += v[k + 1] * term
        U += w[k + 1] * term
    return P, Q, T * Q, U * Q


class TestSplit:
    """The two-weight split, the closed form's: any integer weights, 0 and
    negatives included."""

    @given(RATIO_LISTS, st.data())
    @example([], None)
    @example([(3, 5)], None)
    @example([(k - 4, k + 1) for k in range(LEAF)], None)
    @example([(k - 4, k + 1) for k in range(LEAF + 1)], None)
    @example([(k - 4, k + 1) for k in range(2 * LEAF + 1)], None)
    def test_equals_term_by_term_sums(self, pairs, data):
        size = len(pairs) + 1  # a weight for each term, term 0's too
        if data is None:  # j - i: 0, 1, LEAF, LEAF + 1 and 2 LEAF + 1
            i, j, base = 0, len(pairs), 5
            v = [(-1) ** k * (k % 3) for k in range(size)]  # 0, 1, -2, ...
            w = [k * k - 40 for k in range(size)]
        else:
            i = data.draw(st.integers(0, len(pairs)))
            j = data.draw(st.integers(i, len(pairs)))
            base = data.draw(st.integers(0, 10 ** 4))
            v, w = (data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6),
                                       min_size=size, max_size=size))
                    for _ in range(2))
        assert exactnum._split(pairs, i, j, (v, w)) \
            == two_weight_reference(pairs, i, j, v, w)
        # weights 1 and the term's index are limits' base mode
        assert exactnum._split(pairs, i, j, ([1] * size,
                                             range(base, base + size))) \
            == exactnum._split(pairs, i, j, base)


def weighted_reference(pairs, i, j, base):
    """(P, Q, T, U) of exactnum._split(pairs, i, j, base) from term-by-term
    Fraction sums: the partial product that ends at ratio k is term
    base + k + 1 of the series over t_i."""
    P = math.prod(a for a, _ in pairs[i:j])
    Q = math.prod(b for _, b in pairs[i:j])
    term, T, U = F(1), F(0), F(0)
    for k in range(i, j):
        term *= F(*pairs[k])
        T += term
        U += (base + k + 1) * term
    return P, Q, T * Q, U * Q


class TestWeightedSplit:
    @given(RATIO_LISTS, st.integers(0, 10 ** 4), st.data())
    @example([(k - 4, k + 1) for k in range(LEAF)], 5, None)
    @example([(k - 4, k + 1) for k in range(LEAF + 1)], 5, None)
    @example([(k + 1, 2 * k + 3) for k in range(2 * LEAF + 1)], 1000, None)
    def test_equals_term_by_term_sums(self, pairs, base, data):
        if data is None:  # j - i = len(pairs): LEAF, LEAF + 1, 2 LEAF + 1
            i, j = 0, len(pairs)
        else:
            i = data.draw(st.integers(0, len(pairs)))
            j = data.draw(st.integers(i, len(pairs)))
        assert exactnum._split(pairs, i, j, base) \
            == weighted_reference(pairs, i, j, base)


class TestPrecReal:
    def test_exact_zero(self):
        z = rounded(F(0), 50)
        assert z.value == 0 and z.err == 0

    def test_dyadic_is_exact(self):
        v = rounded(F(7, 4), 10)
        assert v.value == F(7, 4)
        assert v.err == 0

    def test_one_third(self):
        v = rounded(F(1, 3), 5)
        assert abs(v.value - F(1, 3)) <= F(1, 3) * F(1, 10 ** 5)

    @given(st.fractions(max_denominator=1000),
           st.fractions(max_denominator=1000).filter(bool))
    @example(F(3), F(66323314785954797080018219, 3))
    @example(F(1), F(39418174802956416133889620, 3))
    def test_doubling_precision_tightens(self, a, b):
        lo = rounded(a, 6) / rounded(b, 6)
        hi = rounded(a, 12) / rounded(b, 12)
        exact = a / b
        assert abs(lo.value - exact) <= lo.err
        assert abs(hi.value - exact) <= hi.err
        assert hi.err <= lo.err

    def test_division_by_zero_interval(self):
        with pytest.raises(ZeroDivisionError):
            rounded(F(1), 8) / ball_at(F(1, 100), F(1, 10), 53)

    def test_decimal_rendering(self):
        assert rounded(F(1, 3), 20).decimal(6) == "0.333333"
        assert rounded(F(-7, 4), 8).decimal(2) == "-1.75"
        # no fractional digits: the integer part, rounded half up
        assert rounded(F(-7, 4), 8).decimal(0) == "-2"
        assert rounded(F(7, 2), 8).decimal(0) == "4"

    def test_repr(self):
        # a dyadic center and radius are held exactly
        assert repr(ball_at(F(-3, 8), F(1, 64), 8)) == \
            "PrecReal(-3/8 ± 1/64)"
        assert repr(rounded(F(3), 8)) == "PrecReal(3 ± 0)"

    def test_repr_beyond_the_str_digit_limit(self):
        # the radius of a 5000-digit ball has a denominator 2^-e of more
        # than 4300 digits; int(str) stops at that limit, Decimal does not
        v = xi_limit(CFParams(1, 2, 2, 3, 2), 5000)
        center, radius = repr(v)[len("PrecReal("):-1].split(" ± ")
        parts = [int(Decimal(t)) for t in center.split("/")
                 + radius.split("/")]
        assert len(radius.split("/")[1]) > 4300
        assert (F(parts[0], parts[1]), F(parts[2], parts[3])) == \
            (v.value, v.err)

    def test_immutability(self):
        v = rounded(F(1), 8)
        with pytest.raises(AttributeError):
            v.value = 2


CUT = exactnum._DIV_CUTOFF


def of_bits(k: int):
    """Integers of exactly k bits (0 for k = 0)."""
    return st.integers(1 << k - 1, (1 << k) - 1) if k else st.just(0)


# around the crossover, at odd lengths (the padding branch), at even
# lengths whose halves are odd, and well above it
BITS = st.one_of(st.integers(1, 3 * CUT),
                 st.sampled_from([CUT - 1, CUT, CUT + 1, 2 * CUT - 1,
                                  2 * CUT + 1, 2 * (CUT + 1), 4 * CUT + 6,
                                  8 * CUT + 3]))


def signed(draw, n: int) -> int:
    return n if draw(st.booleans()) else -n


class TestRecursiveDivision:
    """_divmod is divmod: the same floor quotient and remainder."""

    @given(st.data())
    def test_equals_divmod(self, data):
        b = data.draw(of_bits(data.draw(BITS)))
        a = signed(data.draw, data.draw(of_bits(data.draw(
            st.integers(0, 3 * b.bit_length() + CUT)))))
        assert _divmod(a, b) == divmod(a, b)

    @given(BITS, BITS, st.data())
    def test_exact_quotients(self, qbits, bbits, data):
        q = signed(data.draw, data.draw(of_bits(qbits)))
        b = data.draw(of_bits(bbits))
        assert _divmod(q * b, b) == (q, 0) == divmod(q * b, b)

    @given(st.integers(0, 4 * CUT + 1), st.data())
    def test_powers_of_two_and_one(self, k, data):
        a = signed(data.draw, data.draw(of_bits(data.draw(
            st.integers(0, 2 * k + CUT + 2)))))
        assert _divmod(a, 1 << k) == divmod(a, 1 << k) == (a >> k,
                                                           a & (1 << k) - 1)
        assert _divmod(a, 1) == (a, 0)

    @given(BITS, st.data())
    def test_dividend_below_the_divisor(self, bbits, data):
        b = data.draw(of_bits(max(bbits, 1)))
        a = signed(data.draw, data.draw(st.integers(0, b - 1)))
        assert _divmod(a, b) == divmod(a, b)

    @given(st.integers(CUT, 3 * CUT), st.integers(2, 6), st.data())
    def test_dividend_far_above_the_square(self, bbits, times, data):
        b = data.draw(of_bits(bbits))
        a = signed(data.draw, data.draw(of_bits(times * bbits + CUT)))
        assert _divmod(a, b) == divmod(a, b)

    @given(BITS.filter(lambda n: n >= CUT), st.integers(-3, 3), st.data())
    def test_quotients_at_the_crossover(self, bbits, off, data):
        b = data.draw(of_bits(bbits))
        a = signed(data.draw, data.draw(of_bits(bbits + CUT + off)))
        assert _divmod(a, b) == divmod(a, b)

    @pytest.mark.parametrize("bbits", [CUT + 1, 2 * CUT + 1, 2 * (CUT + 1),
                                       4 * CUT + 6, 8 * CUT + 3])
    def test_odd_lengths_pad(self, bbits):
        # an odd n, or an even n with odd halves: the padding branch
        for a, b in ((4 ** bbits - 1, 2 ** bbits - 1),
                     (4 ** bbits - 2, 2 ** (bbits - 1) + 1),
                     ((2 ** bbits - 3) * 2 ** bbits + 7, 2 ** bbits - 1)):
            assert _divmod(a, b) == divmod(a, b)
            assert _divmod(-a, b) == divmod(-a, b)


def decimal_text(n: int) -> str:
    return format(Decimal(n), "f")


def fraction_text(q: Fraction) -> str:
    num = decimal_text(q.numerator)
    return num if q.denominator == 1 else \
        f"{num}/{decimal_text(q.denominator)}"


LEAF = exactnum._TEXT_LEAF


class TestIntText:
    @pytest.mark.parametrize("n", [0, 1, -1])
    def test_small(self, n):
        assert int_text(n) == str(n) == decimal_text(n)

    @pytest.mark.parametrize("k", [1, 2, LEAF - 1, LEAF, LEAF + 1, 2 * LEAF,
                                   2 * LEAF + 1, 4299, 4300, 4301, 9000])
    def test_powers_of_ten_and_below(self, k):
        for n in (10 ** k, 10 ** k - 1, 10 ** k + 1):
            for x in (n, -n):
                assert int_text(x) == decimal_text(x)
                if k < 4300:
                    assert int_text(x) == str(x)

    @given(st.data())
    def test_lengths_at_the_cuts(self, data):
        # the leaf cut and the interpreter's limit, +- 1 digit
        digits = data.draw(st.sampled_from(
            [LEAF - 1, LEAF, LEAF + 1, 2 * LEAF - 1, 2 * LEAF,
             2 * LEAF + 1, 4299, 4300, 4301]))
        n = signed(data.draw, data.draw(st.integers(10 ** (digits - 1),
                                                    10 ** digits - 1)))
        assert int_text(n) == decimal_text(n)
        if digits <= 4300:
            assert int_text(n) == str(n)

    @given(st.integers(-10 ** 5000, 10 ** 5000))
    def test_equals_decimal(self, n):
        assert int_text(n) == decimal_text(n)

    def test_a_hundred_thousand_digits(self):
        n = 10 ** 99_999 + 7 ** 118_300  # 7^118300 has 99,976 digits
        assert len(decimal_text(n)) == 100_000
        assert int_text(n) == decimal_text(n)
        assert int_text(-n) == "-" + decimal_text(n)

    def test_repr_at_3000_digits(self):
        v = xi_limit(CFParams(1, 2, 2, 3, 2), 3000)
        assert repr(v) == (f"PrecReal({fraction_text(v.value)} ± "
                           f"{fraction_text(v.err)})")


def fraction_decimal(v: Fraction, digits: int) -> str:
    """The exact rendering of a rational with ``digits`` fractional digits,
    rounded half up, in Fraction arithmetic."""
    scaled = abs(v) * 10 ** digits
    q = math.floor(scaled) + (2 * (scaled - math.floor(scaled)) >= 1)
    s = str(q).rjust(digits + 1, "0")
    sign = "-" if v < 0 else ""
    return f"{sign}{s[:-digits]}.{s[-digits:]}" if digits else f"{sign}{s}"


def ball_at(v: Fraction, r: Fraction, prec: int) -> PrecReal:
    """The ball v ± r at prec working bits."""
    v, r = F(v), F(r)
    return PrecReal._ratio(v.numerator, v.denominator, r.numerator,
                           r.denominator, prec)


def dyadics(lo, hi):
    """Rationals n / 2^k in [lo, hi] (lo <= 0): a ball holds them exactly,
    so an exact point can sit on its edge."""
    return st.builds(lambda n, k: F(n, 2 ** k), st.integers(lo, hi),
                     st.integers(0, 20))


PRECS = st.sampled_from([1, 3, 8, 53, 200])
CENTERS = st.one_of(st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                                 max_denominator=10 ** 6),
                    dyadics(-10 ** 6, 10 ** 6))
RADII = st.one_of(st.just(F(0)), st.fractions(min_value=0, max_value=10,
                                               max_denominator=10 ** 6),
                  dyadics(0, 10))
TINY = st.fractions(min_value=-F(1, 10 ** 9), max_value=F(1, 10 ** 9),
                    max_denominator=10 ** 15)


@st.composite
def balls_with_point(draw, center=CENTERS):
    """A ball made from [v - r, v + r] and an exact point x of that
    interval."""
    v, r, prec = draw(center), draw(RADII), draw(PRECS)
    t = draw(st.one_of(st.sampled_from([F(0), F(1)]),
                       st.fractions(min_value=0, max_value=1,
                                    max_denominator=97)))
    return ball_at(v, r, prec), v - r + 2 * r * t


@st.composite
def operand_pairs(draw):
    """Two balls with points; the second is independent of the first, or
    centered within 10^-9 of minus or plus the first point, so that a sum
    or a difference cancels."""
    a, x = draw(balls_with_point())
    kind = draw(st.sampled_from(["independent", "-x", "+x"]))
    if kind == "independent":
        return a, x, draw(balls_with_point())
    near = (-x if kind == "-x" else x) + draw(TINY)
    return a, x, draw(balls_with_point(st.just(near)))


class TestDyadicBall:
    @given(balls_with_point())
    @example((ball_at(F(-1, 3), F(1, 7), 3), F(-1, 3) + F(1, 7)))
    def test_construction_contains_the_interval(self, ball_x):
        ball, x = ball_x
        assert ball.lo <= x <= ball.hi

    # the quotient, a ball's one operation
    @given(operand_pairs())
    @example((ball_at(F(1, 3), 0, 3), F(1, 3),
              (ball_at(F(-1, 3), 0, 3), F(-1, 3))))
    @example((ball_at(F(-7, 3), F(1, 5), 8), F(-7, 3),
              (ball_at(F(7, 3), F(1, 5), 8), F(7, 3) - F(1, 5))))
    @example((ball_at(F(1), F(1, 2), 8), F(3, 2),
              (ball_at(F(1), F(1, 2), 8), F(1, 2))))
    def test_operations_contain_the_exact_result(self, pair):
        a, x, (b, y) = pair
        if b.contains_zero():
            with pytest.raises(ZeroDivisionError):
                a / b
            return
        got = a / b
        assert got.lo <= x / y <= got.hi
        assert got.r >= 0

    @given(CENTERS, RADII, PRECS)
    def test_divisor_containing_zero_is_refused(self, v, r, prec):
        divisor = ball_at(v, abs(v) + r, prec)  # [v - |v| - r, ...] holds 0
        assert divisor.contains_zero()
        for dividend in (ball_at(F(1), 0, 8), ball_at(F(-5, 3), F(1, 9), 53)):
            with pytest.raises(ZeroDivisionError):
                dividend / divisor

    @given(CENTERS, CENTERS, st.integers(2, 200), st.integers(1, 200))
    @example(F(1, 3), F(1, 7), 2, 1)
    @example(F(0), F(3, 65), 2, 1)
    def test_higher_precision_never_looser(self, u, v, prec, more):
        def at(p):
            return ball_at(u, 0, p) / ball_at(v, 0, p)
        try:
            lo = at(prec)
        except ZeroDivisionError:  # a coarse divisor may touch 0
            return
        assert at(prec + more).err <= lo.err

    @given(balls_with_point(), st.integers(0, 60))
    @example((ball_at(F(5, 8), 0, 8), F(5, 8)), 0)
    @example((ball_at(F(-1, 8), 0, 8), F(-1, 8)), 2)
    def test_decimal_is_the_exact_rendering_of_the_center(self, ball_x,
                                                          digits):
        ball, _ = ball_x
        assert ball.decimal(digits) == fraction_decimal(ball.value, digits)

    @given(st.integers(-2 ** 255 + 1, 2 ** 255 - 1), st.integers(0, 2 ** 40),
           st.integers(0, 60), st.sampled_from([-1, 0, 1, "up"]),
           st.integers(1, 40))
    @example(5, 0, 1, -1, 1)  # 5/4 = 1.25, rounded half up to 1.3
    @example(-5, 0, 1, -1, 1)
    @example(-1, 2, 3, 0, 1)  # the ends -0.003 and 0.001 differ in sign
    @example(7, 0, 0, "up", 3)
    def test_decimal_at_every_rounding_shift(self, m, r, digits, at, up):
        # decimal rounds m 5^D at exponent e + D: below 0 (e = -D - 1),
        # at 0 (e = -D) and above 0 (e = -D + 1 and e >= 1)
        e = up if at == "up" else at - digits
        ball = PrecReal._new(m, r, e, 256)  # held exactly
        assert (ball.m, ball.r, ball.e) == (m, r, e)
        text = fraction_decimal(ball.value, digits)
        assert ball.decimal(digits) == text
        ends = {fraction_decimal(ball.lo, digits),
                fraction_decimal(ball.hi, digits)}
        assert ball.decimal(digits, certified=True) == (
            text if ends == {text} else None)

    def test_certified_digits_test_matches_rel_err(self):
        for ball in (ball_at(F(100), F(1), 8),
                     ball_at(F(-1, 3), F(1, 10 ** 6), 80),
                     ball_at(F(1), F(1), 8), ball_at(F(0), 0, 8)):
            rel = ball.rel_err()
            for digits in range(1, 8):
                assert ball.rel_err_at_most(digits) == (
                    rel is not None and rel <= F(1, 10 ** digits))

    @given(st.integers(-10 ** 60, 10 ** 60), st.integers(0, 10 ** 40),
           st.integers(-5, 5), st.integers(1, 40))
    @example(10 ** 7 + 1, 1, 0, 7)  # r 10^D == |m| - r: at the boundary
    @example(-(10 ** 7 + 1), 1, -3, 7)
    @example(10 ** 7, 1, 0, 7)  # one unit short of it
    @example(3 * (10 ** 30 + 1), 3, 2, 30)
    @example(5, 0, 0, 40)  # exact
    @example(0, 0, 0, 1)
    @example(1, 1, 0, 1)  # |m| = r: no relative bound
    def test_rel_err_test_matches_the_fraction(self, m, r, e, digits):
        ball = PrecReal._new(m, r, e, 256)  # held exactly
        rel = ball.rel_err()
        assert ball.rel_err_at_most(digits) == (
            rel is not None and rel <= F(1, 10 ** digits))

    @given(st.integers(1, 12), st.data())
    def test_rel_err_test_at_the_exact_boundary(self, digits, data):
        # r 10^D = |m| - r exactly, and one unit of m to either side
        r = data.draw(st.integers(1, 10 ** 20))
        for dm, holds in ((0, True), (1, True), (-1, False)):
            m = r * (10 ** digits + 1) + dm
            for sign in (1, -1):
                assert PrecReal._new(sign * m, r, 0, 256).rel_err_at_most(
                    digits) is holds


def assert_prec_bits(ball: PrecReal) -> None:
    """|m|, r < 2^prec; at prec 1, 2 bits (a center floored to -1 adds one
    unit to r, so r = 2 can stay)."""
    assert max(abs(ball.m), ball.r).bit_length() <= max(ball.prec, 2)


class TestBallWidth:
    @given(st.integers(-2 ** 300, 2 ** 300), st.integers(0, 2 ** 300),
           st.integers(-40, 40), st.integers(1, 200))
    @example(-(2 ** 10 - 1), 0, 0, 8)  # the center's floor carries
    @example(5, 2 ** 10 - 1, 0, 8)  # the radius's ceiling carries
    @example(1, 2 ** 9 - 1, 0, 8)  # ... and the center's unit on top
    @example(-3, 3, 0, 1)
    def test_new(self, m, r, e, prec):
        ball = PrecReal._new(m, r, e, prec)
        assert_prec_bits(ball)
        assert ball.lo <= exactnum._dyadic(m - r, e)
        assert exactnum._dyadic(m + r, e) <= ball.hi

    @given(CENTERS, RADII, PRECS)
    @example(F(-1023), F(0), 8)
    @example(F(1), F(511), 8)
    def test_ratio(self, v, r, prec):
        assert_prec_bits(ball_at(v, r, prec))

    @given(operand_pairs())
    def test_quotient(self, pair):
        a, _, (b, _) = pair
        if not b.contains_zero():
            assert_prec_bits(a / b)


class TestCertifiedDecimal:
    @given(balls_with_point(), st.integers(0, 30))
    def test_text_only_when_both_ends_render_alike(self, ball_x, digits):
        ball, _ = ball_x
        text = ball.decimal(digits, certified=True)
        ends = [fraction_decimal(v, digits) for v in (ball.lo, ball.hi)]
        if ends[0] == ends[1]:
            assert text == ends[0] == ball.decimal(digits)
        else:
            assert text is None

    def test_a_ball_across_a_rounding_boundary_prints_nothing(self):
        # 1.71825 +- 10^-7: its ends render as 1.7182 and 1.7183
        ball = ball_at(F(171825, 10 ** 5), F(1, 10 ** 7), 128)
        assert ball.decimal(4, certified=True) is None
        assert ball.decimal(3, certified=True) == "1.718"
        assert ball_at(F(-1, 8), 0, 8).decimal(2, certified=True) == "-0.13"
