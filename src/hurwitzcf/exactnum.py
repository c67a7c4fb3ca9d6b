"""Exact rational kernels and a certified-error real type.

Integers are Python ints.  On the certified path a rational is an
unreduced integer pair (num, den) with den > 0; ``fractions.Fraction``
appears only in views and at the public edges, and is imported only where
one is built.  ``PrecReal`` is the ball a certified limit comes out as: a
dyadic center m 2^e and a radius r 2^e in integers at a working
precision, rounded so that the ball always contains the true value.  Its
one operation, the quotient of two balls, carries that certification on
without a gcd.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Sequence
    from fractions import Fraction

# Below this many bits of divisor or quotient, _divmod is the built-in
# divmod, and so is each leaf of its recursion.  On random 2n/n-bit
# operands (one core of a 2-core box, Python 3.11.7) it is level with
# divmod up to n = 4300 bits, then 8 % faster at 5100, 29 % at 10,100 and
# 48 % at 20,000; a cutoff of 2000 was 4-21 % slower at n = 2500-4300.
_DIV_CUTOFF = 3000
# int_text's leaves: str() of at most this many digits
_TEXT_LEAF = 600
# _split's leaves, and _rising's in hurwitz: runs of at most this many
# ratios, folded in place.  On one core of a 2-core box (Python 3.11.7,
# best of 30 x 20 calls) a leaf of 32 in place of 8 took the weighted split
# of e - 1 from 269 to 242 us at 3000 digits (522 ratios) and from 71 to
# 57 us at 1000, and the closed form's at n = 201 from 32.0 to 24.9 us;
# leaves of 48 and 64 came within 3 % of 32, and 128 was 4 % faster to 8 %
# slower.
_SPLIT_LEAF = 32


def _divmod(a: int, b: int) -> tuple[int, int]:
    """divmod(a, b) for b > 0, by Burnikel and Ziegler's recursive division
    (Fast Recursive Division, MPI-I-98-1-022, 1998): a is divided in
    chunks of n = bit_length(b) bits, each a 2n-by-n division that splits
    into two 3-by-2 divisions of halves, whose quotients are estimated by
    a division by the top half of b, of half the size, and corrected at
    most twice.  Its cost is that of a few products, which are
    subquadratic, where divmod is quadratic."""
    n = b.bit_length()
    if n < _DIV_CUTOFF or a.bit_length() - n < _DIV_CUTOFF:
        return divmod(a, b)
    if a < 0:  # ~a = -a - 1 >= 0, and floor(a/b) = ~floor(~a/b)
        q, r = _divmod(~a, b)
        return ~q, b + ~r
    mask = (1 << n) - 1
    q = r = 0
    for i in range((a.bit_length() - 1) // n, -1, -1):
        qi, r = _div2n1n(r << n | (a >> i * n) & mask, b, n)
        q = q << n | qi
    return q, r


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for 0 <= a < b 2^n and 2^(n-1) <= b < 2^n.  An odd n
    is padded: a and b shifted up by one bit, the remainder back down."""
    if n < _DIV_CUTOFF:
        return divmod(a, b)
    pad = n & 1
    if pad:
        a, b, n = a << 1, b << 1, n + 1
    half = n >> 1
    mask = (1 << half) - 1
    b1, b2 = b >> half, b & mask
    q1, r = _div3n2n(a >> n, (a >> half) & mask, b, b1, b2, half)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, half)
    return q1 << half | q2, r >> pad


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int,
             n: int) -> tuple[int, int]:
    """divmod(a12 2^n + a3, b) for b = b1 2^n + b2 with 2^(2n-1) <= b,
    a12 < b 2^n and a3 < 2^n: the quotient of a12 by b1, at most 2 too
    large, corrected."""
    if a12 >> n == b1:
        q, r = (1 << n) - 1, a12 - (b1 << n) + b1
    else:
        q, r = _div2n1n(a12, b1, n)
    r = (r << n | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


def int_text(n: int) -> str:
    """Decimal digits of an integer of any length: split at 10^k, k about
    half its digits, by _divmod, down to str() of at most _TEXT_LEAF
    digits, below the interpreter's 4300-digit limit on integer-string
    conversion.  The powers of ten are made inside the call."""
    if n < 0:
        return "-" + int_text(-n)
    # at least its number of digits, as 0.30103 > log10 2
    width = n.bit_length() * 30103 // 100000 + 1
    if width <= _TEXT_LEAF:
        return str(n)
    powers: dict[int, int] = {}

    def text(n: int, width: int) -> str:  # n < 10^width, zero-padded
        if width <= _TEXT_LEAF:
            return str(n).zfill(width)
        k = width >> 1
        if k not in powers:
            powers[k] = 10 ** k
        hi, lo = _divmod(n, powers[k])
        return text(hi, width - k) + text(lo, k)

    return text(n, width).lstrip("0")


def _fraction_text(q: int | Fraction) -> str:
    """str(q) of an int or Fraction, through int_text, so of any length."""
    num = int_text(q.numerator)
    return num if q.denominator == 1 else f"{num}/{int_text(q.denominator)}"


def _split(pairs: list[tuple[int, int]], i: int, j: int,
           weights: int | tuple[Sequence[int], Sequence[int]]
           ) -> tuple[int, int, int, int]:
    """(P, Q, T, U) over ratios i..j-1, with ratio k = a_k/b_k:
    P = prod a_k, Q = prod b_k, and T/Q, U/Q the sums over n = i+1..j of
    the partial products r_i ... r_{n-1}, each times a weight of term n,
    the term that ratio n-1 ends.  ``weights`` is an int base for limits'
    certified series: ratio k is ratio base + k of the whole series, and
    its term, base + k + 1, weighs 1 in T and base + k + 1 in U (Haible &
    Papanikolaou's polynomial factor a(n) = n).  Or it is two sequences
    (v, w) for hurwitz's closed form: term k + 1 weighs v[k + 1] in T and
    w[k + 1] in U (v[0] and w[0], term 0's, are the caller's).

    The one exact summation kernel (binary splitting, Haible & Papanikolaou
    1998): over ratios 0..j-1 of terms t_0 .. t_j with weights x_n, y_n,
    t_0 (x_0 + T/Q) = x_0 t_0 + ... + x_j t_j, and likewise U with y.  A
    balanced product tree whose leaves, runs of up to _SPLIT_LEAF ratios,
    are folded in place: a leaf adds x P to T b and y P to U b, a merge is
    t1 q2 + p1 t2 and u1 q2 + p1 u2."""
    if j - i <= _SPLIT_LEAF:  # folded in place (none: P = Q = 1, T = U = 0)
        P, Q, T, U = 1, 1, 0, 0
        if isinstance(weights, int):
            for n, (a, b) in enumerate(pairs[i:j], weights + i + 1):
                P, Q = P * a, Q * b
                T, U = T * b + P, U * b + n * P
        else:
            v, w = weights
            for (a, b), x, y in zip(pairs[i:j], v[i + 1:j + 1],
                                    w[i + 1:j + 1]):
                P, Q = P * a, Q * b
                T, U = T * b + x * P, U * b + y * P
        return P, Q, T, U
    mid = (i + j) // 2
    p1, q1, t1, u1 = _split(pairs, i, mid, weights)
    p2, q2, t2, u2 = _split(pairs, mid, j, weights)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2, u1 * q2 + p1 * u2


def mantissa_bits(digits: int) -> int:
    # ~3.33 bits per decimal digit, plus guard bits for rounding slack
    return (digits * 10 + 2) // 3 + 64


def _check_digits(digits: int, least: int = 1) -> None:
    if type(digits) is not int:  # bools too: True would certify 1 digit
        raise TypeError(f"digits must be an int, got {type(digits).__name__}")
    if digits < least:
        raise ValueError(f"digits must be >= {least}, got {digits}")


def _shifted_quotient(num: int, den: int, k: int) -> tuple[int, bool]:
    """floor(num 2^k / den) for den > 0, and whether it is inexact."""
    q, rem = _divmod(num << k, den) if k >= 0 else _divmod(num, den << -k)
    return q, rem != 0


def _dyadic(n: int, e: int) -> Fraction:
    from fractions import Fraction  # here only: most runs build none
    return Fraction(n << e) if e >= 0 else Fraction(n, 1 << -e)


class PrecReal:
    """A midpoint-radius ball with a dyadic center: the integers ``m``
    (mantissa), ``r >= 0`` (radius) and ``e`` (exponent) give the interval
    [(m - r) 2^e, (m + r) 2^e], which contains the true value.

    ``prec > 0`` is the working precision in bits (Arb's design, Johansson,
    IEEE TC 2017).  A ball is made by ``_new`` or ``_ratio`` and combined
    only by ``/``, the one operation a certified limit takes: each computes
    its center and radius in integers, then drops the low bits of ``m`` and
    ``r`` beyond ``prec`` bits, the center rounded toward minus infinity
    and the radius up, by one unit for the dropped bits of the center.  A
    quotient takes the larger precision of its operands.

    Immutable.  ``value``, ``err``, ``lo``, ``hi`` and ``rel_err()`` are
    ``Fraction`` views, built only when asked for.
    """

    __slots__ = ("m", "r", "e", "prec")

    @staticmethod
    def _new(m: int, r: int, e: int, prec: int) -> "PrecReal":
        """The ball (m ± r) 2^e, cut to ``prec`` bits: |m|, r < 2^prec.
        A cut whose rounding carries into bit prec (m floored to -2^prec,
        or r rounded up to 2^prec or past it) is made again with one more
        bit dropped, which meets the bound at prec >= 2.  (At prec 1 a
        center floored to -1 leaves r = 2: no cut can make it 1.)"""
        drop = max(m.bit_length(), r.bit_length()) - prec
        if drop > 0:
            for d in (drop, drop + 1):
                rd = -(-r >> d) + (m & ((1 << d) - 1) != 0)
                md = m >> d
                if max(md.bit_length(), rd.bit_length()) <= prec:
                    break
            m, r, e = md, rd, e + d
        ball = object.__new__(PrecReal)
        setattr_ = object.__setattr__
        setattr_(ball, "m", m)
        setattr_(ball, "r", r)
        setattr_(ball, "e", e)
        setattr_(ball, "prec", prec)
        return ball

    @staticmethod
    def _ratio(num: int, den: int, rad_num: int, rad_den: int,
               prec: int) -> "PrecReal":
        """The ball num/den ± rad_num/rad_den (den, rad_den > 0,
        rad_num >= 0) at ``prec`` bits: the center is one shifted floor
        division and the radius is rounded up."""
        top = (num.bit_length() - den.bit_length() if num
               else rad_num.bit_length() - rad_den.bit_length())
        k = prec - 1 - top  # |num/den| 2^k < 2^prec: no second rounding
        m, inexact = _shifted_quotient(num, den, k)
        r = -_shifted_quotient(-rad_num, rad_den, k)[0] + inexact
        return PrecReal._new(m, r, -k, prec)

    def __setattr__(self, *a):
        raise AttributeError("PrecReal is immutable")

    # -- Fraction views ----------------------------------------------------

    @property
    def value(self) -> Fraction:
        return _dyadic(self.m, self.e)

    @property
    def err(self) -> Fraction:
        return _dyadic(self.r, self.e)

    @property
    def lo(self) -> Fraction:
        return _dyadic(self.m - self.r, self.e)

    @property
    def hi(self) -> Fraction:
        return _dyadic(self.m + self.r, self.e)

    def rel_err(self) -> Fraction:
        """Certified relative error bound; inf is represented by None."""
        mag = abs(self.m) - self.r
        if mag <= 0:
            return None
        from fractions import Fraction
        return Fraction(self.r, mag)

    def rel_err_at_most(self, digits: int) -> bool:
        """Whether rel_err() is at most 10^-digits: |m| > r and
        r 10^digits <= |m| - r, decided from bit lengths and multiplied out
        only when those are within a few bits.  2^lo <= 10^digits <= 2^hi
        for lo, hi the floor and ceiling of 3.32192 and 3.32193 digits
        (log2 10 = 3.321928...)."""
        r, mag = self.r, abs(self.m) - self.r
        if mag <= 0 or not r:
            return mag > 0
        lo, hi = 332192 * digits // 100000, -(-332193 * digits // 100000)
        # 2^(bits(r) - 1 + lo) <= r 10^digits < 2^(bits(r) + hi) and
        # 2^(bits(mag) - 1) <= mag < 2^bits(mag)
        if r.bit_length() + hi < mag.bit_length():
            return True
        if r.bit_length() + lo > mag.bit_length():
            return False
        return r * 10 ** digits <= mag

    def abs_err_at_most(self, digits: int) -> bool:
        """Whether err is at most 10^-digits, from bit lengths alone:
        r 2^e < 2^(bits(r) + e), and -(bits(r) + e) >= 3.322 digits puts
        that below 10^-digits (log2 10 = 3.32193...)."""
        return not self.r or -(self.r.bit_length() + self.e) * 1000 \
            >= 3322 * digits

    def contains_zero(self) -> bool:
        return abs(self.m) <= self.r

    # -- the quotient -----------------------------------------------------

    def __truediv__(self, o):
        if not isinstance(o, PrecReal):
            return NotImplemented
        if o.contains_zero():
            raise ZeroDivisionError("divisor interval contains zero")
        prec = max(self.prec, o.prec)
        num, den = (self.m, o.m) if o.m > 0 else (-self.m, -o.m)
        # q = floor(num 2^s / den) of at most prec bits
        s = prec - 1 - max(self.m.bit_length(),
                           self.r.bit_length()) + den.bit_length()
        q, inexact = _shifted_quotient(num, den, s)
        # in units of 2^e: |x/y - q| <= (r 2^s + |t| o.r) / (den - o.r),
        # plus 1 if q is inexact, where t = num 2^s / den and
        # |t| <= |q| + 1 (|t| = |q| if exact); each term rounded up
        low = den - o.r
        r = (-_shifted_quotient(-self.r, low, s)[0]
             - (-(abs(q) + inexact) * o.r // low) + inexact)
        return PrecReal._new(q, r, self.e - o.e - s, prec)

    def __repr__(self):
        return f"PrecReal({_fraction_text(self.value)} ± " \
               f"{_fraction_text(self.err)})"

    # -- rendering ---------------------------------------------------------

    def decimal(self, digits: int, certified: bool = False) -> str | None:
        """Decimal rendering of the center with ``digits`` fractional
        digits, rounded half up: the exact rendering of m 2^e.  With
        ``certified``, None unless both ends (m - r) 2^e and (m + r) 2^e
        render to the same text, so that every printed digit is the
        ball's.  The digits are those of m 10^D 2^e = m 5^D 2^(e+D) for
        D = ``digits``: m (and r) are scaled by 5^D, smaller than 10^D, and
        rounded at exponent e + D."""
        _check_digits(digits, 0)
        scale, e = 5 ** digits, self.e + digits
        m = self.m * scale

        def rounded(n: int) -> tuple[bool, int]:  # sign, |n| 2^e half up
            a = abs(n)
            if e >= 0:
                return n < 0, a << e
            return n < 0, (a >> -e) + ((a >> (-e - 1)) & 1)

        neg, q = rounded(m)
        r = self.r * scale
        if certified and rounded(m - r) != rounded(m + r):
            return None
        sign = "-" if neg else ""
        s = int_text(q).rjust(digits + 1, "0")
        return f"{sign}{s[:-digits]}.{s[-digits:]}" if digits else f"{sign}{s}"
