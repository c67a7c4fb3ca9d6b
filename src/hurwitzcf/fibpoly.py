"""Fibonacci and Lucas polynomials.

F_n = q F_{n-1} + F_{n-2}, with seeds F_0 = 0 and F_1 = 1, is the one
recurrence; L_n = F_{n-1} + F_{n+1} = 2 F_{n+1} - q F_n is read off it.
Polynomials are coefficient lists (index = degree, trailing coefficient
nonzero except for the zero polynomial []).
"""

from __future__ import annotations

from functools import lru_cache

IntPoly = list  # list[int], index = degree


def _trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_add(a: IntPoly, b: IntPoly) -> IntPoly:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return _trim(out)


def _shift_q(a: IntPoly) -> IntPoly:
    # multiply by q
    return [0] + a if a else []


# (k, F_k, F_{k+1}) where the last bottom-up build stopped, so that calls
# in increasing n (the poly verb's table) take one step each
_last_build = (0, [], [1])


def _build(n: int) -> tuple:
    """(F_n, F_{n+1}), n >= 0, by the recurrence (no recursion, so no depth
    limit), continuing the last build unless it stopped above n."""
    global _last_build
    k, f, g = _last_build if _last_build[0] <= n else (0, [], [1])
    for _ in range(n - k):  # F_{k+2} = q F_{k+1} + F_k, of degree k + 1
        f, g = g, [x + y for x, y in zip([0] + g, f + [0, 0])]
    _last_build = n, f, g
    return f, g


@lru_cache(maxsize=None)
def fib_poly(n: int) -> tuple:
    """F_n(q); negative indices via F_{-n} = (-1)^{n+1} F_n (recurrence run
    backwards)."""
    if n < 0:
        m = -n
        f = fib_poly(m)
        return f if m % 2 == 1 else tuple(-c for c in f)
    return tuple(_build(n)[0])


@lru_cache(maxsize=None)
def lucas_poly(n: int) -> tuple:
    """L_n(q) = 2 F_{n+1}(q) - q F_n(q), n >= 0, off fib_poly's build."""
    if n < 0:
        raise ValueError("Lucas polynomials are only defined for n >= 0 here")
    f, g = _build(n)
    return tuple(2 * y - x for x, y in zip([0] + f, g))


def fib_eval(n: int, a: int) -> int:
    """F_n evaluated at q = a, by the integer recurrence (no polynomials)."""
    if n < 0:
        v = fib_eval(-n, a)
        return v if (-n) % 2 == 1 else -v
    x, y = 0, 1  # F_0, F_1
    for _ in range(n):
        x, y = y, a * y + x
    return x


def _even_subsets(lo: int, hi: int):
    """All subsets of {lo..hi} that are disjoint unions of even-length runs.

    Yields tuples of elements.  Runs are generated with a mandatory gap after
    each, so every even set appears exactly once.
    """
    if lo > hi:
        yield ()
        return
    # lo excluded
    for rest in _even_subsets(lo + 1, hi):
        yield rest
    # a run of even length starting at lo
    run_end = lo + 1
    while run_end <= hi:
        run = tuple(range(lo, run_end + 1))
        for rest in _even_subsets(run_end + 2, hi):
            yield run + rest
        run_end += 2


def fib_via_even_sets(n: int) -> tuple:
    """F_n(q) by counting even sets: F_n(q) = sum over even S of {1..n-1}
    of q^((n-1)-|S|).  Independent of the recurrence."""
    if n < 1:
        raise ValueError("n must be >= 1")
    coeffs = [0] * n
    for s in _even_subsets(1, n - 1):
        coeffs[(n - 1) - len(s)] += 1
    return tuple(_trim(coeffs))
