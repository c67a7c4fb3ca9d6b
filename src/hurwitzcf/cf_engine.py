"""Simple continued fraction machinery.

A partial-denominator stream is any callable index -> int (a_0 may be any
integer, a_n >= 1 for n >= 1), so infinite quasi-periodic streams plug in
directly.  The recurrence path is the workhorse: each step computes
p_n = a_n p_{n-1} + p_{n-2} and the same for q, as the one addition
p_{n-1} + p_{n-2} when a_n = 1 (two of every three terms of e - 1).  The
Euler-Mindig even-subset formula is kept as an independent oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .errors import IndexTooLarge

if TYPE_CHECKING:
    from fractions import Fraction

DenomStream = Callable[[int], int]

EULER_MINDIG_GUARD = 22


class Convergent(NamedTuple):
    n: int
    p: int
    q: int


def stream_from_list(a: Sequence[int]) -> DenomStream:
    """The stream a_0, a_1, ... of a finite list; a negative index raises
    IndexError rather than counting from the end."""
    a = list(a)

    def stream(i: int) -> int:
        if i < 0:
            raise IndexError(i)
        return a[i]

    return stream


def convergents(a: DenomStream, n_max: int) -> list[Convergent]:
    """Convergents for n = -1, 0, ..., n_max by the standard recurrence
    p_n = a_n p_{n-1} + p_{n-2}, q_n = a_n q_{n-1} + q_{n-2}.

    Each step makes the two new integers and one Convergent: a unit term
    costs one addition each, with no product, and the entry is built by
    tuple.__new__, skipping the Python-level NamedTuple constructor."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    new = tuple.__new__
    p_prev, q_prev = 1, 0
    p, q = a(0), 1
    out = [new(Convergent, (-1, 1, 0)), new(Convergent, (0, p, q))]
    append = out.append
    for n in range(1, n_max + 1):
        an = a(n)
        if an == 1:
            p, p_prev = p + p_prev, p
            q, q_prev = q + q_prev, q
        else:
            p, p_prev = an * p + p_prev, p
            q, q_prev = an * q + q_prev, q
        append(new(Convergent, (n, p, q)))
    return out


def _last_convergent(a: DenomStream, n: int) -> Convergent:
    """The convergent at n alone, by the recurrence of `convergents`
    without keeping the earlier ones: each step keeps only (p_i, p_{i-1})
    and (q_i, q_{i-1}), and a unit term is one addition each."""
    if n < 0:
        raise ValueError("n must be >= 0")
    p_prev, q_prev = 1, 0
    p, q = a(0), 1
    for i in range(1, n + 1):
        ai = a(i)
        if ai == 1:
            p, p_prev = p + p_prev, p
            q, q_prev = q + q_prev, q
        else:
            p, p_prev = ai * p + p_prev, p
            q, q_prev = ai * q + q_prev, q
    return Convergent(n, p, q)


def euler_mindig(a: DenomStream, n: int) -> Convergent:
    """p_n and q_n straight from the even-containment sums of the
    Euler-Mindig formulas.  Exponential in n; guarded."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > EULER_MINDIG_GUARD:
        raise IndexTooLarge(
            f"n={n} exceeds enumeration guard {EULER_MINDIG_GUARD}")
    vals = [a(i) for i in range(n + 1)]

    def em_sum(lo: int) -> int:
        # Walk the even sets of {lo..n} position by position, in batches.
        # prods holds one product (of the elements left out of the set)
        # per partial even set whose next undecided position is i.  From
        # i, an even run i..gap-1 (possibly empty) is in the set and gap is
        # out, for each gap = i, i+2, ... <= n + 1: held[gap] keeps a
        # reference to the batch, not a copy, and gap = n + 1 is the run
        # i..n ending the set.  On leaving i the walk multiplies a_i into
        # every batch held at i in one comprehension; a unit a_i only
        # flattens them.  Products are never merged: one leaf per even set.
        held = [[] for _ in range(n + 2)]
        prods = [1]
        for i in range(lo, n + 1):
            for batches in held[i::2]:
                batches.append(prods)
            v = vals[i]
            if v == 1:
                prods = []
                for b in held[i]:
                    prods += b
            else:
                prods = [p * v for b in held[i] for p in b]
        held[n + 1].append(prods)
        return sum(map(sum, held[n + 1]))

    return Convergent(n, em_sum(0), em_sum(1))


def eval_finite(a: Sequence[int]) -> Fraction:
    """Exact value of the finite continued fraction [a_0, a_1, ..., a_n]."""
    if not a:
        raise ValueError("empty continued fraction")
    from fractions import Fraction
    acc = Fraction(a[-1])
    for x in reversed(a[:-1]):
        acc = x + 1 / acc
    return acc


def shift_check(a: DenomStream, n: int) -> bool:
    """q_n of [a_0, a_1, ...] equals p_{n-1} of the shifted stream
    [a_1, a_2, ...]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    shifted = lambda i: a(i + 1)
    return _last_convergent(a, n).q == _last_convergent(shifted, n - 1).p
