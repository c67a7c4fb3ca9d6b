"""Exact rational kernels and a certified-error real type.

Integers are Python ints, rationals are ``fractions.Fraction`` (always kept
reduced, positive denominator).  ``PrecReal`` is a ball: an exact rational
center together with a rigorous absolute error bound, so every derived
quantity carries its own certification.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]


def int_text(n: int) -> str:
    """Decimal digits of an integer of any length.  Unlike str(n), the
    Decimal conversion is not bound by the interpreter's 4300-digit limit
    on integer-string conversion."""
    return format(Decimal(n), "f")


def _fraction_text(q: Fraction) -> str:
    """str(q), through int_text, so of any length."""
    num = int_text(q.numerator)
    return num if q.denominator == 1 else f"{num}/{int_text(q.denominator)}"


def falling_factorial(x: Rat, k: int) -> Fraction:
    """(x)_k = x (x-1) ... (x-k+1); the empty product for k = 0."""
    if k < 0:
        raise ValueError(f"falling factorial needs k >= 0, got {k}")
    acc = Fraction(1)
    x = Fraction(x)
    for j in range(k):
        acc *= x - j
    return acc


def gbinom(x: Rat, k: int) -> Fraction:
    """Generalized binomial coefficient: (x)_k / k! for any rational x."""
    if k < 0:
        raise ValueError(f"gbinom needs k >= 0, got {k}")
    return falling_factorial(x, k) / math.factorial(k)


def _split(pairs: list[tuple[int, int]], i: int,
           j: int) -> tuple[int, int, int]:
    """(P, Q, T) over ratios i..j-1, with ratio k = a_k/b_k:
    P = prod a_k, Q = prod b_k and T/Q = sum over n = i+1..j of the
    partial products r_i r_{i+1} ... r_{n-1}.  Balanced product tree.

    The one exact summation kernel (binary splitting, Haible & Papanikolaou
    1998): over ratios 0..j-1, t_0 (1 + T/Q) = t_0 + ... + t_j.  It sums the
    certified series of ``limits`` and the closed form of ``hurwitz``."""
    if j - i == 1:
        a, b = pairs[i]
        return a, b, a
    if j == i:  # no ratios: the sum is t_0 alone
        return 1, 1, 0
    mid = (i + j) // 2
    p1, q1, t1 = _split(pairs, i, mid)
    p2, q2, t2 = _split(pairs, mid, j)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def mantissa_bits(digits: int) -> int:
    # ~3.33 bits per decimal digit, plus guard bits for rounding slack
    return (digits * 10 + 2) // 3 + 64


def _round_to_bits(x: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Round x to a dyadic rational with ~bits significant bits.

    Returns (rounded value, exact rounding error).
    """
    if x == 0:
        return Fraction(0), Fraction(0)
    shift = bits - (x.numerator.bit_length() - x.denominator.bit_length())
    unit = Fraction(2) ** -shift  # spacing of the grid x is rounded to
    rounded = round(x / unit) * unit
    return rounded, abs(x - rounded)


class PrecReal:
    """An exact rational center with a rigorous absolute error bound.

    Immutable.  All arithmetic is conservative: the true value of any
    expression is guaranteed to lie within ``err`` of ``value``.
    """

    __slots__ = ("value", "err")

    def __init__(self, value: Rat, err: Rat = 0):
        value = Fraction(value)
        err = Fraction(err)
        if err < 0:
            raise ValueError("error bound must be nonnegative")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "err", err)

    def __setattr__(self, *a):
        raise AttributeError("PrecReal is immutable")

    # -- interval views ----------------------------------------------------

    @property
    def lo(self) -> Fraction:
        return self.value - self.err

    @property
    def hi(self) -> Fraction:
        return self.value + self.err

    def rel_err(self) -> Fraction:
        """Certified relative error bound; inf is represented by None."""
        mag = abs(self.value) - self.err
        if mag <= 0:
            return None
        return self.err / mag

    def contains_zero(self) -> bool:
        return abs(self.value) <= self.err

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "PrecReal":
        if isinstance(x, PrecReal):
            return x
        return PrecReal(x)

    def __add__(self, other):
        o = self._coerce(other)
        return PrecReal(self.value + o.value, self.err + o.err)

    __radd__ = __add__

    def __neg__(self):
        return PrecReal(-self.value, self.err)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        err = (abs(self.value) * o.err
               + abs(o.value) * self.err
               + self.err * o.err)
        return PrecReal(self.value * o.value, err)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.contains_zero():
            raise ZeroDivisionError("divisor interval contains zero")
        q = self.value / o.value
        denom_floor = abs(o.value) - o.err
        err = (self.err + abs(q) * o.err) / denom_floor
        return PrecReal(q, err)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __abs__(self):
        return PrecReal(abs(self.value), self.err)

    def __repr__(self):
        return f"PrecReal({_fraction_text(self.value)} ± " \
               f"{_fraction_text(self.err)})"

    # -- rounding / rendering ---------------------------------------------

    def decimal(self, digits: int) -> str:
        """Decimal rendering of the center with ``digits`` fractional digits."""
        v = self.value
        sign = "-" if v < 0 else ""
        v = abs(v)
        scaled = v * 10 ** digits
        q = scaled.numerator // scaled.denominator
        # round half up; exactness of the last digit is governed by err
        if 2 * (scaled - q) >= 1:
            q += 1
        s = int_text(q).rjust(digits + 1, "0")
        return f"{sign}{s[:-digits]}.{s[-digits:]}" if digits else f"{sign}{s}"


def to_prec_real(r: Rat, digits: int) -> PrecReal:
    """Render an exact rational as a PrecReal within relative error 10^-digits."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    r = Fraction(r)
    if r == 0:
        return PrecReal(0)
    v, err = _round_to_bits(r, mantissa_bits(digits))
    out = PrecReal(v, err)
    assert err <= abs(r) * Fraction(1, 10 ** digits)
    return out
