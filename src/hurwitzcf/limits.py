"""Certified evaluation of the family's limits.

Everything here reduces to exact rational series with rigorous truncation
bounds.  With sigma, rho rational the two series are A = 0F1(; sigma; rho)
and B = rho/sigma 0F1(; sigma+1; rho).  One term ratio, `_0f1`, gives both
as integer pairs, the format of every ratio passed to `_sum_ratio_series`,
together with a closed-form estimate of the size of the terms (lgamma),
from which the kernel chooses the number of terms before summing any.
Every rational on the way to a limit is such a pair (num, den), and
limits come out as dyadic balls (PrecReal), so no Fraction is made.  The
only gcds are `_0f1`'s two per series, which reduce its term ratio once;
every sum and product after it stays unreduced.

One kernel, `_sum_ratio_series`, sums every series: each call gives both
sum_k t_k and its index-weighted sum sum_k k t_k over one denominator, and
stops on the weighted tail.  B's terms are A's terms a_k times their index,
B = sum_k k a_k, so every family limit is one `_attempt`: one binary
splitting gives A and B, and integer rows give (m00 A + m01 B) / (m10 A +
m11 B) as one PrecReal quotient of two balls.  `xi_limit` takes the rows of
`fib_transform`; `xi_bessel` at half-odd sigma folds into them the order
recurrence walked on integers from cosh, sinh (cos, sin), which are A and
s g B at sigma = 1/2: no Gamma evaluator, no pi and no square root exist
here.  `perron_d1`, the oracle of `lehmer_d1`, sums its two series apart
(`_ball`, which reads the unweighted sum of each) and divides the balls.
"""

from __future__ import annotations

import functools
import math
import os
from itertools import repeat
from operator import mul
from typing import Callable, NamedTuple

from .errors import PrecisionExhausted
from .exactnum import PrecReal, _check_digits, _split, mantissa_bits
from .hurwitz import CFParams, fib_transform, magic_pairs, sigma_tag

_TAIL_GUARD_DIGITS = 10

Pair = tuple[int, int]  # the rational num/den, den > 0, not reduced


def _max_precision_bits() -> int:
    text = os.environ.get("HURWITZ_MAX_PRECISION", "131072")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"HURWITZ_MAX_PRECISION must be an integer number "
                         f"of bits, got {text!r}") from None


# ---------------------------------------------------------------------------
# certified rational series (binary splitting)


class Ratios(NamedTuple):
    """A series' term ratios t_{m+1}/t_m, and the size of its terms."""
    ratio: Callable[[int], Pair]  # the ratio m as (a, b)
    pairs: Callable[[int, int], list[Pair]]  # the ratios i..j-1 as (a, b)
    log_size: Callable[[int], float]  # a float estimate of log |t_m / t_0|


def _first(ok: Callable[[int], bool], lo: int, limit: int,
           start: int) -> int:
    """The least m in lo..limit with ok(m), for ok false up to some m and
    true from there on.  start >= lo is a guess: ok is tried there, then at
    galloping steps above it, and the last bracket is bisected.  None (ok
    false at limit, or start > limit) raises PrecisionExhausted."""
    hi, step = start, 1
    while hi > limit or not ok(hi):
        if hi >= limit:
            raise PrecisionExhausted("series did not certify")
        lo, hi, step = hi + 1, min(hi + step, limit), 2 * step
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(mid) else (mid + 1, hi)
    return hi


def _sum_ratio_series(t0: Pair, ratios: Ratios,
                      digits: int) -> tuple[int, ...]:
    """Sum t_0 + t_1 + ... and 0 t_0 + 1 t_1 + 2 t_2 + ..., its terms
    weighted by their index (Haible & Papanikolaou's series with the
    polynomial factor a(n) = n), with certified tail bounds, for the pair
    t0 = (num, den) and t_{m+1} = t_m ratio(m).  Returns (s_num, u_num,
    den, tail_num, u_tail_num, tail_den, terms_used): the partial sums
    s_num/den and u_num/den of t_0 .. t_N and their tail bounds over the
    shared tail_den, unreduced, with terms_used = N + 1.

    ratios.ratio(m) = (a, b) with b > 0 is the integer pair a/b =
    t_{m+1}/t_m (ratios.pairs(i, j) lists ratio(i..j-1), the single
    probes of the search read ratio(m)); it need not be reduced, and
    a = 0 ends the series.  The stop is accepted once |t_N| (N + 2) is
    below 2^-k <= 10^-(digits+guard) relative to the partial sum and
    q = |ratio(N)| <= 1/2.  Tail contract: if |ratio(m)| is nonincreasing
    from N on, as every 0F1 ratio at sigma > 0 is, |t_(N+j)| <= |t_N| q^j,
    so the tails are at most |t_N| q/(1 - q) and |t_N| (N q/(1 - q) +
    q/(1 - q)^2); at q <= 1/2 the latter is at most |t_N| (N + 2), the
    weight of the stop.

    N is chosen before any term is summed.  The peak term is at the first m
    with |ratio(m)| <= 1; from there on, the first m >= 1 whose estimated
    log |t_m| (m + 2) lies below log |t_peak| + log 10^-(digits+guard) - 1
    and whose q <= 1/2 is the candidate.  Galloping and bisection find it,
    first on the estimate alone and then on the ratios from there, so it
    costs a few dozen float operations and a few single ratios.  Its ratios
    are summed by exact binary splitting (exactnum._split), so the sums
    equal the term-by-term sums of the same terms.  The stop condition is
    then checked exactly, by one comparison of integers shifted by k and
    2k bits.  If the terms cancel and it fails, the aim moves below the
    exact partial sum and the search goes on from N + 1, folding only the
    new ratios.  Every search takes N at most 100 (digits + 20) and refuses
    a series that would need more before building any pairs.

    ratios.log_size is a hint only: certification never rests on it.  An
    estimate that is off by more than float rounding costs extra terms,
    extra exact checks or a refusal, never a wrong sum or tail.  For the
    stop to be the first one that the exact conditions allow, |ratio(m)|
    must be nonincreasing (so the peak search and q <= 1/2 are monotone) or
    below 1/2 throughout, and the estimate must decrease from the peak on.
    """
    _check_digits(digits)
    t0n, t0d = t0
    if t0n == 0:
        return 0, 0, 1, 0, 0, 1, 0
    # 2^-k <= 10^-(digits+guard): k rounds up, and 3.32193 > log2 10
    k = -(-332193 * (digits + _TAIL_GUARD_DIGITS) // 100000)
    limit = 100 * (digits + 20)
    # the aim is a factor e below 10^-(digits+guard), e/2 below 2^-k, so
    # the exact check nearly always passes at the first candidate
    log_thresh = -(digits + _TAIL_GUARD_DIGITS) * math.log(10) - 1
    log_t0 = math.log(abs(t0n)) - math.log(t0d)

    ratio = ratios.ratio

    def past_peak(m: int) -> bool:
        a, b = ratio(m)
        return abs(a) <= b

    def below_aim(m: int) -> bool:  # by the estimate of |t_m| (m + 2)
        return (log_t0 + ratios.log_size(m) + math.log(m + 2)
                < log_top + log_thresh)

    def stops(m: int) -> bool:
        a, b = ratio(m)
        return not a or (m > 0 and 2 * abs(a) <= b and below_aim(m))

    lo = _first(past_peak, 0, limit, 0)  # the peak: no stop comes before it
    log_top = log_t0 + ratios.log_size(lo) if lo else log_t0
    P, Q, T, U = 1, 1, 0, 0  # over the ratios folded so far, 0..n-1
    n = 0
    while True:
        # the float search alone, then the exact ratios tried from there
        guess = _first(below_aim, max(lo, 1), limit, max(lo, 1))
        m = _first(stops, lo, limit, max(guess - 1, lo))
        # fold the ratios n..m-1: the partial sums hold t_0 .. t_m
        p2, q2, t2, u2 = _split(ratios.pairs(n, m), 0, m - n, n)
        P, Q, T, U, n = P * p2, Q * q2, T * q2 + P * t2, U * q2 + P * u2, m
        s_num, den = t0n * (Q + T), t0d * Q
        last = t0n * P  # t_m = last / den
        a, b = ratio(m)
        # |t_m| (m + 2) < 2^-k max(|S|, 2^-k), or every term after t_m is 0
        # (the tails below are then 0)
        if not a or abs(last * (m + 2)) << 2 * k < max(abs(s_num) << k, den):
            c, g = abs(last * a), b - abs(a)
            return (s_num, t0n * U, den, c * g, c * (m * g + b), den * g * g,
                    m + 1)
        if s_num:  # the terms cancel: aim below the true partial sum
            log_top = max(math.log(abs(s_num)) - math.log(den),
                          log_t0 + ratios.log_size(m + 1))
        lo = m + 1


def _0f1(sigma: Pair, rho: Pair) -> Ratios:
    """The term ratio of 0F1(; sigma; rho) = sum_m rho^m / (m! (sigma)_m),
    rho / ((m+1)(sigma+m)), for sigma = p/q > 0 and rho = u/v, and
    log |t_m / t_0| = m log |rho| - lgamma(m+1) - log (sigma)_m.

    The pairs are (a, c (m+1)(p' + q' m)): p'/q' is sigma in lowest terms,
    and a/c is u q'/v with h = gcd(u q', v) divided out.  For the family's
    sigma = p/q, rho = +-1/q^2, a = +-1, so binary splitting's products of
    numerators stay +-1, and each denominator is g h = q times smaller than
    v (m+1)(p + q m), for g = gcd(p, q).  The ratios' values, so the sums
    and the stops, are those of the unreduced pairs.  A run of pairs is
    made from two ranges, c (m+1) in steps of c and p' + q' m in steps of
    q' (c, q' >= 1), multiplied by ``map``: no interpreted step per pair.
    A single ratio, as the kernel's search probes it, is one tuple.

    log (sigma)_m is lgamma(sigma+m) - lgamma(sigma).  Above sigma ~ 2^40
    that difference drowns in the rounding of lgamma(sigma) (and past the
    float range sigma has no float), so m log sigma stands in for it; the
    two differ by about m^2 / (2 sigma).  Both read sigma and rho as given."""
    (p, q), (u, v) = sigma, rho
    g = math.gcd(p, q)
    p1, q1 = p // g, q // g
    h = math.gcd(u * q1, v)  # v when u = 0: the pair (0, 1)
    a, c = u * q1 // h, v // h
    # u = 0: every ratio is 0, and the kernel stops at m = 0 unasked
    log_rho = math.log(abs(u)) - math.log(v) if u else -math.inf
    if p.bit_length() - q.bit_length() > 40:
        log_sigma = math.log(p) - math.log(q)

        def log_size(m: int) -> float:
            return m * (log_rho - log_sigma) - math.lgamma(m + 1)
    else:
        s = p / q
        lgamma_s = math.lgamma(s)

        def log_size(m: int) -> float:
            return (m * log_rho - math.lgamma(m + 1) - math.lgamma(m + s)
                    + lgamma_s)

    def ratio(m: int) -> Pair:
        return a, c * (m + 1) * (p1 + q1 * m)

    def pairs(i: int, j: int) -> list[Pair]:
        return list(zip(repeat(a, j - i),
                        map(mul, range(c * (i + 1), c * (j + 1), c),
                            range(p1 + q1 * i, p1 + q1 * j, q1))))

    return Ratios(ratio, pairs, log_size)


def _ball(t0: Pair, ratios: Ratios, digits: int) -> PrecReal:
    """The sum t_0 + t_1 + ... of _sum_ratio_series as a certified ball."""
    s_num, _, den, tail_num, _, tail_den, _ = _sum_ratio_series(
        t0, ratios, digits)
    return PrecReal._ratio(s_num, den, tail_num, tail_den,
                           mantissa_bits(digits))


# ---------------------------------------------------------------------------
# half-odd orders: the Bessel order recurrence on integers


def _half_odd_walk(s: int, k: int, z: Pair) -> tuple[Pair, Pair, int]:
    """The order recurrence of I (s = 1) or J (s = -1) on integers, for
    z = (zn, zd) > 0: ((a, b), (c, d), den) with X_{k-1/2} = (a C + b S)/den
    and X_{k+1/2} = (c C + d S)/den, where C, S = cosh z, sinh z or
    cos z, sin z are X_{-1/2}, X_{1/2} without their sqrt(2/(pi z)).
    Each step X_{j+3/2} = s (X_{j-1/2} - (2j+1)/z X_{j+1/2}) (the Lommel
    polynomials; Watson, Bessel Functions, 9.6) multiplies den by zn, so
    den = zn^k and a d - b c = (-s)^k den^2.  It only steps up: k >= 0, as
    the family's sigma = k + 1/2 is positive."""
    zn, zd = z
    a, b, c, d = 1, 0, 0, 1
    for j in range(k):
        m = (2 * j + 1) * zd
        a, b, c, d = (zn * c, zn * d, s * (zn * a - m * c),
                      s * (zn * b - m * d))
    return (a, b), (c, d), zn ** k


def _walk_digits(k: int, z: Pair) -> int:
    """The extra working digits of the walk to order k + 1/2 (k >= 0), known
    before any work: 10 plus twice log10 (2k - 1)!! (zd/zn)^k (from
    lgamma), the walk's coefficients over den; k is clamped at 2^1000, past
    any precision cap."""
    n, (zn, zd) = min(k, 1 << 1000), z
    nats = (math.lgamma(2 * n + 1) - math.lgamma(n + 1) - n * math.log(2)
            + n * (math.log(zd) - math.log(zn)))
    return max(0, math.ceil(2 * nats / math.log(10))) + 10


# ---------------------------------------------------------------------------
# limits of the family


def _certify(compute: Callable[[int], PrecReal], digits: int,
             extra: int = 0) -> PrecReal:
    """Run compute(w) until the result is certified to 10^-digits relative
    and absolute error, the latter so that the first ``digits`` fractional
    digits are the ball's at any magnitude: w starts at digits + 10 + extra
    working digits and doubles after each failed attempt, or after a
    ZeroDivisionError (PrecReal's quotient by a ball that holds 0).  This is
    the only place that sets a working precision; no attempt runs above
    HURWITZ_MAX_PRECISION bits."""
    _check_digits(digits)
    w = digits + _TAIL_GUARD_DIGITS + extra
    cap = _max_precision_bits()
    while True:
        if mantissa_bits(w) > cap:
            raise PrecisionExhausted(
                f"cannot certify {digits} digits within {cap} bits "
                "(HURWITZ_MAX_PRECISION)")
        try:
            result = compute(w)
        except ZeroDivisionError:
            result = None
        if (result is not None and result.rel_err_at_most(digits)
                and result.abs_err_at_most(digits)):
            return result
        w *= 2


def _row_ball(x: int, e: int, den: int, eden: int, prec: int) -> PrecReal:
    """The ball x ± 2^k at prec bits; 2^k, k = bits(e) + bits(den) -
    bits(eden) + 1, exceeds e den/eden (e >= 0; den, eden > 0): no division."""
    k = e.bit_length() + den.bit_length() - eden.bit_length() + 1
    return PrecReal._new(x << max(-k, 0), 1 << max(k, 0), min(k, 0), prec)


def _attempt(rows, sigma: Pair, rho: Pair, w: int) -> PrecReal:
    """One attempt of any family limit: (m00 A + m01 B) / (m10 A + m11 B)
    for A = 0F1(; sigma; rho) = a/den and B = sum_k k a_k = b/den of one
    split at w digits, with tails ea/eden, eb/eden (sound as |ratio| of 0F1
    falls for every m).  Each row (m0, m1) is the ball den (m0 A + m1 B),
    _row_ball(m0 a + m1 b, |m0| ea + |m1| eb), and den cancels."""
    a, b, den, ea, eb, eden, _ = _sum_ratio_series(
        (1, 1), _0f1(sigma, rho), w)
    x, y = (_row_ball(m0 * a + m1 * b, abs(m0) * ea + abs(m1) * eb, den,
                      eden, mantissa_bits(w)) for m0, m1 in rows)
    return x / y


def xi_limit(params: CFParams, digits: int) -> PrecReal:
    """The limit of the continued fraction, (m00 A + m01 B) / (m10 A + m11 B)
    for the rows of fib_transform and the series of magic_pairs."""
    rows, (sigma, rho) = fib_transform(params), magic_pairs(params)
    return _certify(lambda w: _attempt(rows, sigma, rho, w), digits)


def xi_bessel(params: CFParams, digits: int) -> PrecReal:
    """The limit via the Bessel-function statement: the I-form for odd d,
    the J-form for even d, at z = 2/g, g = beta1 F_d(alpha).  At half-odd
    sigma = k + 1/2 (k >= 0: sigma > 0) the walk's rows over cosh z, sinh z
    (cos z, sin z), A and s g B at sigma = 1/2, give the orders sigma - 1
    and sigma (their sqrt(2/(pi z)) cancels), the latter in place of
    (-1)^(d+1) g B: the attempt takes fib_transform times [[g a, s g^2 b],
    [s c, g d]] at sigma = 1/2.  Off half-odd sigma the value is xi_limit's."""
    (p, g), rho = magic_pairs(params)  # g = beta1 F_d, rho = (s, g^2)
    if sigma_tag(p, g) != "half-odd":
        return xi_limit(params, digits)
    s, k = rho[0], (2 * p - g) // (2 * g)  # s = 1: I, -1: J

    @functools.cache  # formed once, at the first attempt: past the cap check
    def rows() -> list[Pair]:
        (a, b), (c, d), _ = _half_odd_walk(s, k, (2, g))
        return [(g * m0 * a + s * m1 * c, g * (s * g * m0 * b + m1 * d))
                for m0, m1 in fib_transform(params)]

    return _certify(lambda w: _attempt(rows(), (1, 2), rho, w), digits,
                    _walk_digits(k, (2, g)))


def lehmer_d1(beta0: int, beta1: int, digits: int) -> PrecReal:
    """[b0, b0+b1, b0+2b1, ...] = I_{b0/b1-1}(2/b1) / I_{b0/b1}(2/b1)
    (Lehmer 1973): the family at d = 1, where alpha does not occur."""
    return xi_limit(CFParams(1, beta0, beta1, 1, 0), digits)


def perron_d1(beta0: int, beta1: int, digits: int) -> PrecReal:
    """The same arithmetic-progression fraction by Perron's formula,
    b1 sigma 0F1(; sigma; rho) / 0F1(; sigma+1; rho) at sigma = b0/b1,
    rho = 1/b1^2, with each series summed on its own into a ball and the
    balls divided; lehmer_d1 takes one split and one quotient.  The two
    share the series and the kernel, so they are no independent check of
    each other."""
    CFParams(1, beta0, beta1, 1, 0)  # checks beta0, beta1 as lehmer_d1 does
    rho = (1, beta1 * beta1)

    def compute(w: int) -> PrecReal:
        return _ball((beta1, 1), _0f1((beta0, beta1), rho), w) \
            / _ball((beta1, beta0), _0f1((beta0 + beta1, beta1), rho), w)

    return _certify(compute, digits)
