"""Certified evaluation of the family's limits.

Everything here reduces to exact rational series with rigorous truncation
bounds.  With sigma, rho rational the two series are A = 0F1(; sigma; rho)
and B = rho/sigma 0F1(; sigma+1; rho), and cos, sin, cosh, sinh are the same
series at sigma = 1/2, 3/2.  One term ratio, `_0f1`, gives all of them as
integer pairs, the format of every ratio passed to `_sum_ratio_series`.
Limits come out as rational balls (PrecReal).

Bessel functions appear only in Gamma-free ratios or at half-odd orders,
where the order recurrences reduce them to sin/cos/sinh/cosh; no Gamma
evaluator exists anywhere in this package.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Literal

from .errors import PrecisionExhausted, UnsupportedOrder
from .exactnum import PrecReal, _split, mantissa_bits
from .fibpoly import fib_eval
from .hurwitz import CFParams, fib_transform, magic, sigma_tag

_TAIL_GUARD_DIGITS = 10


def _max_precision_bits() -> int:
    text = os.environ.get("HURWITZ_MAX_PRECISION", "131072")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"HURWITZ_MAX_PRECISION must be an integer number "
                         f"of bits, got {text!r}") from None


# ---------------------------------------------------------------------------
# certified rational series (binary splitting)


def _sum_ratio_series(t0: Fraction, ratio: Callable[[int], tuple[int, int]],
                      digits: int) -> tuple[Fraction, Fraction, int]:
    """Sum t0 + t0*ratio(0) + t0*ratio(0)*ratio(1) + ... with a certified
    tail bound.  Returns (partial, tail_bound, terms_used).

    ratio(m) = (a, b) with b > 0 is the integer pair a/b = t_{m+1}/t_m; it
    need not be reduced, and a = 0 ends the series.  Tail contract:
    |ratio(m)| must be nonincreasing from the stop point N on, where N is
    the number of ratios applied (the partial sum holds t_0..t_N).  The stop
    is accepted once |t_N| is below 10^-(digits+guard) relative to the
    partial sum and q = |ratio(N)| <= 1/2; the tail is then at most
    |t_N| q / (1 - q).  A series whose ratio grows in absolute value
    (Machin's arctan) must bound its own tail.

    N is first picked from float log-magnitudes of the terms; that is only a
    hint, and the stop condition is checked in exact arithmetic, extending N
    until it holds.  The partial sum is formed by exact binary splitting
    (Haible & Papanikolaou 1998) with one final division, so it equals the
    term-by-term sum of the same terms.
    """
    if t0 == 0:
        return Fraction(0), Fraction(0), 0
    t0n, t0d = t0.numerator, t0.denominator
    scale = 10 ** (digits + _TAIL_GUARD_DIGITS)
    # the hint aims one factor e below the threshold, so the exact check
    # nearly always passes at the first candidate
    log_thresh = -(digits + _TAIL_GUARD_DIGITS) * math.log(10) - 1
    # log |t_m| and an estimate of log |S|
    log_t = log_top = math.log(abs(t0n)) - math.log(t0d)
    pairs: list[tuple[int, int]] = []  # ratio(m) = a_m / b_m
    P, Q, T = 1, 1, 0  # over the ratios folded so far, 0..n-1
    n = m = 0
    while True:
        a, b = ratio(m)
        pairs.append((a, b))
        if not a or (m > 0 and log_t < log_top + log_thresh
                     and 2 * abs(a) <= b):
            # fold the ratios n..m-1: the partial sum is t_0 .. t_m
            if m > n:
                p2, q2, t2 = _split(pairs, n, m)
                P, Q, T = P * p2, Q * q2, T * q2 + P * t2
                n = m
            s_num, den = t0n * (Q + T), t0d * Q
            last = t0n * P  # t_m = last / den
            # |t_m| < 10^-(digits+guard) * max(|S|, 10^-(digits+guard)),
            # or every term after t_m is 0 (the tail below is then 0)
            if not a or (abs(last) * scale * scale
                         < max(abs(s_num) * scale, den)):
                tail = Fraction(abs(last * a), den * (b - abs(a)))
                return Fraction(s_num, den), tail, m + 1
            if s_num:  # the terms cancel: aim below the true partial sum
                log_top = math.log(abs(s_num)) - math.log(den)
        log_t += math.log(abs(a)) - math.log(b)
        log_top = max(log_top, log_t)
        m += 1
        if m > 100 * (digits + 20):
            raise PrecisionExhausted("series did not certify")


def _0f1(sigma: Fraction, rho: Fraction) -> Callable[[int], tuple[int, int]]:
    """The term ratio of 0F1(; sigma; rho) = sum_m rho^m / (m! (sigma)_m),
    rho / ((m+1)(sigma+m)), as the unreduced integer pair
    (u q, v (m+1)(p + q m)) for sigma = p/q > 0 and rho = u/v."""
    p, q = sigma.numerator, sigma.denominator
    u, v = rho.numerator, rho.denominator
    return lambda m: (u * q, v * (m + 1) * (p + q * m))


def _ball(t0, ratio: Callable[[int], tuple[int, int]],
          digits: int) -> PrecReal:
    """The series of _sum_ratio_series as a certified ball."""
    partial, tail, _ = _sum_ratio_series(Fraction(t0), ratio, digits)
    return PrecReal(partial, tail)


@dataclass(frozen=True)
class SeriesValue:
    A: PrecReal
    B: PrecReal
    terms_used: int
    tail_bound: Fraction


def series_AB(sigma: Fraction, rho: Fraction, digits: int) -> SeriesValue:
    """A = sum_m rho^m / (m! (sigma+m-1)_m) and
    B = sum_m rho^(m+1) / (m! (sigma+m)_(m+1)), certified to the requested
    precision (the terms decay superfactorially for either sign of rho)."""
    sigma = Fraction(sigma)
    rho = Fraction(rho)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if rho == 0:
        return SeriesValue(PrecReal(1), PrecReal(0), 1, Fraction(0))
    a_sum, a_tail, a_terms = _sum_ratio_series(Fraction(1), _0f1(sigma, rho),
                                               digits)
    b_sum, b_tail, b_terms = _sum_ratio_series(rho / sigma,
                                               _0f1(sigma + 1, rho), digits)
    return SeriesValue(PrecReal(a_sum, a_tail), PrecReal(b_sum, b_tail),
                       max(a_terms, b_terms), max(a_tail, b_tail))


# ---------------------------------------------------------------------------
# elementary kernels (certified Taylor sums at rational arguments):
# cos, cosh = 0F1(; 1/2; -+x^2/4) and sin, sinh = x 0F1(; 3/2; -+x^2/4)


def sin_prec(x: Fraction, digits: int) -> PrecReal:
    return _ball(x, _0f1(Fraction(3, 2), -Fraction(x) ** 2 / 4), digits)


def cos_prec(x: Fraction, digits: int) -> PrecReal:
    return _ball(1, _0f1(Fraction(1, 2), -Fraction(x) ** 2 / 4), digits)


def sinh_prec(x: Fraction, digits: int) -> PrecReal:
    return _ball(x, _0f1(Fraction(3, 2), Fraction(x) ** 2 / 4), digits)


def cosh_prec(x: Fraction, digits: int) -> PrecReal:
    return _ball(1, _0f1(Fraction(1, 2), Fraction(x) ** 2 / 4), digits)


def exp_prec(x: Fraction, digits: int) -> PrecReal:
    x = Fraction(x)
    return _ball(1, lambda m: (x.numerator, x.denominator * (m + 1)), digits)


def _arctan_inv(x: int, digits: int) -> PrecReal:
    """arctan(1/x) = sum_n (-1)^n / ((2n+1) x^(2n+1)) for integer x >= 2.

    |ratio| grows toward 1/x^2, outside the geometric tail contract; the
    series alternates with decreasing terms, so the tail is bounded by the
    first omitted term instead."""
    partial, _, n = _sum_ratio_series(
        Fraction(1, x), lambda m: (-(2 * m + 1), x * x * (2 * m + 3)), digits)
    return PrecReal(partial, Fraction(1, (2 * n + 1) * x ** (2 * n + 1)))


def pi_prec(digits: int) -> PrecReal:
    # Machin: pi = 16 arctan(1/5) - 4 arctan(1/239)
    return 16 * _arctan_inv(5, digits) - 4 * _arctan_inv(239, digits)


def sqrt_prec(x, digits: int) -> PrecReal:
    """Certified square root of a nonnegative rational or PrecReal ball."""
    if isinstance(x, PrecReal):
        lo, hi = x.lo, x.hi
    else:
        lo = hi = Fraction(x)
    if lo < 0:
        raise ValueError("square root of a possibly-negative value")
    bits = mantissa_bits(digits)

    def root_lo(v: Fraction) -> Fraction:
        n = v.numerator * v.denominator << (2 * bits)
        return Fraction(math.isqrt(n), v.denominator << bits)

    def root_hi(v: Fraction) -> Fraction:
        n = v.numerator * v.denominator << (2 * bits)
        return Fraction(math.isqrt(n) + 1, v.denominator << bits)

    a, b = root_lo(lo), root_hi(hi)
    return PrecReal((a + b) / 2, (b - a) / 2)


# ---------------------------------------------------------------------------
# half-odd-order Bessel functions (elementary forms)

BesselKind = Literal["I", "J"]


def _half_odd_bracket(kind: BesselKind, k: int, z: Fraction,
                      digits: int) -> PrecReal:
    """The elementary part of I_{k+1/2}(z) or J_{k+1/2}(z), i.e. the value
    without the common sqrt(2/(pi z)) prefactor.

    With s = +1 for I and -1 for J, the seeds at orders -1/2, 1/2 are
    0F1(; 1/2; s z^2/4) and z 0F1(; 3/2; s z^2/4), i.e. (cosh z, sinh z) or
    (cos z, sin z).  The order recurrences X_{j+3/2} = s (X_{j-1/2} -
    (2j+1)/z X_{j+1/2}) and X_{j-3/2} = s X_{j+1/2} + (2j-1)/z X_{j-1/2}
    raise or lower them.
    """
    z = Fraction(z)
    if z == 0:
        raise ValueError("z must be nonzero")
    if kind not in ("I", "J"):
        raise ValueError(f"kind must be 'I' or 'J', got {kind!r}")
    s = 1 if kind == "I" else -1
    w = digits + 2 * abs(k) + 10
    rho = s * z * z / 4
    below = _ball(1, _0f1(Fraction(1, 2), rho), w)
    at = _ball(z, _0f1(Fraction(3, 2), rho), w)  # `at` holds order j + 1/2
    for j in range(k):
        below, at = at, s * (below - Fraction(2 * j + 1) / z * at)
    for j in range(0, k, -1):
        below, at = s * at + Fraction(2 * j - 1) / z * below, below
    return at


def elementary_half_odd(kind: BesselKind, k: int, z: Fraction,
                        digits: int) -> PrecReal:
    """I_{k+1/2}(z) or J_{k+1/2}(z) in closed form, prefactor included."""
    z = Fraction(z)
    if z <= 0:
        raise ValueError("z must be positive")
    w = digits + 10
    pref = sqrt_prec(PrecReal(2) / (pi_prec(w) * z), w)
    return pref * _half_odd_bracket(kind, k, z, w)


def _bessel_half_odd(kind: BesselKind, nu, z, digits: int) -> PrecReal:
    nu = Fraction(nu)
    if sigma_tag(nu.numerator, nu.denominator) != "half-odd":
        raise UnsupportedOrder(
            f"{kind}_{nu} has no elementary standalone form")
    return elementary_half_odd(kind, int(nu - Fraction(1, 2)), z, digits)


def bessel_I(nu, z, digits: int) -> PrecReal:
    """Standalone modified Bessel value; only half-odd orders have an
    elementary form, anything else is refused (ratios go through series_AB
    and never need this)."""
    return _bessel_half_odd("I", nu, z, digits)


def bessel_J(nu, z, digits: int) -> PrecReal:
    return _bessel_half_odd("J", nu, z, digits)


def bessel_ratio_I(sigma: Fraction, rho: Fraction, digits: int) -> PrecReal:
    """I_{sigma-1}(2 sqrt(rho)) / I_sigma(2 sqrt(rho)) for rho a square of a
    rational, via the Gamma-free series identity (= A sqrt(rho) / B)."""
    sigma, rho = Fraction(sigma), Fraction(rho)
    if rho <= 0:
        raise ValueError("rho must be positive")
    root = Fraction(math.isqrt(rho.numerator), math.isqrt(rho.denominator))
    if root * root != rho:
        raise ValueError("rho must be the square of a rational")

    def compute(w: int) -> PrecReal:
        sv = series_AB(sigma, rho, w)
        return sv.A * root / sv.B

    return _certify(compute, digits)


# ---------------------------------------------------------------------------
# limits of the family


def _certify(compute: Callable[[int], PrecReal], digits: int) -> PrecReal:
    """Run compute at escalating working precision until the result is
    certified to 10^-digits relative error.  No attempt runs at a working
    precision above HURWITZ_MAX_PRECISION bits."""
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    target = Fraction(1, 10 ** digits)
    w = digits + _TAIL_GUARD_DIGITS
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
        if result is not None:
            rel = result.rel_err()
            if rel is not None and rel <= target:
                return result
        w *= 2


def xi_limit(params: CFParams, digits: int) -> PrecReal:
    """The limit of the continued fraction, from the two rational series:
    the rows of fib_transform applied to (A, B), divided."""
    sigma, rho = magic(params)
    (m00, m01), (m10, m11) = fib_transform(params)

    def compute(w: int) -> PrecReal:
        sv = series_AB(sigma, rho, w)
        return (m00 * sv.A + m01 * sv.B) / (m10 * sv.A + m11 * sv.B)

    return _certify(compute, digits)


def xi_bessel(params: CFParams, digits: int) -> PrecReal:
    """The limit via the Bessel-function statement: the I-form for odd d,
    the J-form for even d, at the rational argument 2/(beta1 F_d(alpha)).

    Only a half-odd magic sum has a route of its own: the Bessel values of
    orders sigma - 1 and sigma are assembled from the elementary closed
    forms (the sqrt(2/(pi z)) prefactors cancel in the ratio), and the
    bracket of order sigma stands in for (-1)^(d+1) F_d beta1 B in
    fib_transform.  At every other order the Bessel ratio is the series
    ratio, so the value is xi_limit's.
    """
    sigma, _ = magic(params)
    if sigma_tag(sigma.numerator, sigma.denominator) != "half-odd":
        return xi_limit(params, digits)
    a, b1, d = params.alpha, params.beta1, params.d
    fd = fib_eval(d, a)
    z = Fraction(2, b1 * fd)  # = 2 sqrt(|rho|)
    kind: BesselKind = "I" if d % 2 == 1 else "J"
    k_low = int(sigma - Fraction(3, 2))  # order sigma - 1 = k_low + 1/2
    to_b = Fraction(1 if d % 2 == 1 else -1, b1 * fd)
    (m00, m01), (m10, m11) = fib_transform(params)

    def compute(w: int) -> PrecReal:
        low = _half_odd_bracket(kind, k_low, z, w)
        high = to_b * _half_odd_bracket(kind, k_low + 1, z, w)
        return (m00 * low + m01 * high) / (m10 * low + m11 * high)

    return _certify(compute, digits)


def lehmer_d1(beta0: int, beta1: int, digits: int) -> PrecReal:
    """[b0, b0+b1, b0+2b1, ...] = I_{b0/b1-1}(2/b1) / I_{b0/b1}(2/b1)."""
    if beta0 < 1 or beta1 < 1:
        raise ValueError("beta0, beta1 must be >= 1")
    return bessel_ratio_I(Fraction(beta0, beta1), Fraction(1, beta1 * beta1),
                          digits)


def perron_d1(beta0: int, beta1: int, digits: int) -> PrecReal:
    """The same arithmetic-progression fraction by Perron's formula,
    b1 sigma 0F1(; sigma; rho) / 0F1(; sigma+1; rho) at sigma = b0/b1,
    rho = 1/b1^2.  These are the two series behind lehmer_d1 (its A and
    B = rho/sigma 0F1(; sigma+1; rho)), so the two values agree by
    construction and do not check each other."""
    if beta0 < 1 or beta1 < 1:
        raise ValueError("beta0, beta1 must be >= 1")
    sigma = Fraction(beta0, beta1)
    rho = Fraction(1, beta1 * beta1)

    def compute(w: int) -> PrecReal:
        return beta1 * _ball(1, _0f1(sigma, rho), w) \
            / _ball(1 / sigma, _0f1(sigma + 1, rho), w)

    return _certify(compute, digits)


def wlang_limit_check(m: int, n: int, digits: int) -> bool:
    """Compare P_n(x)/Q_n(x) at x = 1/(4 m^2) against
    sqrt(x) I_1(2 sqrt(x))/I_0(2 sqrt(x)) (= B/A at sigma = 1, rho = x)."""
    from .identities import eval_unipoly, p_poly, q_poly
    if m < 2:
        raise ValueError("m must be >= 2")
    x = Fraction(1, 4 * m * m)
    lhs = eval_unipoly(p_poly(n), x) / eval_unipoly(q_poly(n), x)
    sv = series_AB(Fraction(1), x, digits + 5)
    rhs = sv.B / sv.A
    tol = Fraction(1, 10 ** digits)
    return abs(lhs - rhs.value) + rhs.err < tol
