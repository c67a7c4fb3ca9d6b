"""References computed apart from the program under test.

Nothing here imports hurwitzcf.  Values come from the standard library's
``decimal`` module and from the partial denominators of the family, written
out again from their definition.  Integers are turned into text through
``decimal`` so that no interpreter limit on integer-to-string conversion is
touched or lifted.
"""

from __future__ import annotations

import itertools
import sys
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction


def int_text(n: int) -> str:
    """Decimal digits of an integer of any length."""
    return format(Decimal(n), "f")


# ---------------------------------------------------------------------------
# the continued fraction, from its definition


def partial_denominators(alpha, beta0, beta1, d, r):
    """r copies of alpha, then beta0, then blocks of d - 1 copies of alpha
    each followed by the next term of beta0 + beta1 k."""
    yield from itertools.repeat(alpha, r)
    for k in itertools.count():
        yield beta0 + beta1 * k
        yield from itertools.repeat(alpha, d - 1)


def convergents(t, upto: int, keep=()):
    """(p, q) at each index in keep, and at upto and upto - 1, from
    p_n = a_n p_{n-1} + p_{n-2} (same for q) with p_{-1} = 1, q_{-1} = 0."""
    want = set(keep) | {upto, upto - 1}
    out = {-1: (1, 0)} if -1 in want else {}
    p0, q0, p1, q1 = 0, 1, 1, 0
    for n, a in enumerate(partial_denominators(*t)):
        if n > upto:
            break
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if n in want:
            out[n] = (p1, q1)
    return out


# hash() of a non-negative int is the int modulo this prime (2^61 - 1 on
# 64-bit builds), computed in one linear pass: the cheapest exact way to
# reduce 20000 big convergents for comparison.
RESIDUE_MODULUS = sys.hash_info.modulus


def convergent_residues(t, upto: int) -> list:
    """(n, p_n mod M, q_n mod M) for n = -1..upto, by the recurrence run
    modulo M = RESIDUE_MODULUS."""
    m = RESIDUE_MODULUS
    out = [(-1, 1, 0)]
    p0, q0, p1, q1 = 0, 1, 1, 0
    for n, a in zip(range(upto + 1), partial_denominators(*t)):
        p0, q0, p1, q1 = p1, q1, (a * p1 + p0) % m, (a * q1 + q0) % m
        out.append((n, p1, q1))
    return out


def bracket(t, digits: int):
    """The first convergents p_N/q_N with q_N q_{N+1} > 10^(digits+5): the
    limit lies within 1/(q_N q_{N+1}) of p_N/q_N.  Returns (p, q, q')."""
    bound = 10 ** (digits + 5)
    p0, q0, p1, q1 = 0, 1, 1, 0
    prev = None
    for a in partial_denominators(*t):
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if prev is not None and prev[1] * q1 > bound:
            return prev[0], prev[1], q1
        prev = (p1, q1)


# ---------------------------------------------------------------------------
# Fibonacci and Lucas numbers / polynomials, and the magic sum sigma


def fib_lucas(n: int, x: int) -> tuple[int, int]:
    """(F_n(x), L_n(x)) for n >= 0."""
    f0, f1 = 0, 1
    for _ in range(n):
        f0, f1 = f1, x * f1 + f0
    return f0, 2 * f1 - x * f0


def fib_poly_coeffs(n: int) -> list[int]:
    """Coefficients (index = degree) of the Fibonacci polynomial F_n(q)."""
    f0, f1 = [], [1]
    for _ in range(n):
        nxt = [0] + f1
        for i, c in enumerate(f0):
            nxt[i] += c
        f0, f1 = f1, nxt
    while f0 and f0[-1] == 0:
        f0.pop()
    return f0


def sigma(t) -> Fraction:
    alpha, beta0, beta1, d, _ = t
    f, lucas = fib_lucas(d, alpha)
    return Fraction((beta0 - alpha) * f + lucas, beta1 * f)


def sigma_tag(s: Fraction) -> str:
    if s.denominator == 1:
        return "integer"
    return "half-odd" if s.denominator == 2 else "other"


def sweep_counts(alpha_max: int, d_max: int, beta_max: int) -> dict:
    """Number of (alpha, beta0, beta1, d) in the sweep box per sigma tag."""
    counts = {"half-odd": 0, "integer": 0, "other": 0}
    for alpha in range(1, alpha_max + 1):
        for d in range(2, d_max + 1):
            f, lucas = fib_lucas(d, alpha)
            for beta1 in range(1, beta_max + 1):
                den = beta1 * f
                for beta0 in range(1, beta_max + 1):
                    num = (beta0 - alpha) * f + lucas
                    if num % den == 0:
                        counts["integer"] += 1
                    elif 2 * num % den == 0:
                        counts["half-odd"] += 1
                    else:
                        counts["other"] += 1
    return counts


# ---------------------------------------------------------------------------
# closed-form limits in decimal arithmetic


def _sin_cos(x: Decimal) -> tuple[Decimal, Decimal]:
    """Taylor sums in the current context (|x| <= 1)."""
    eps = Decimal(10) ** -(getcontext().prec + 2)
    x2 = x * x
    s = term = x
    k = 1
    while abs(term) > eps:
        term = -term * x2 / ((2 * k) * (2 * k + 1))
        s += term
        k += 1
    c = term = Decimal(1)
    k = 1
    while abs(term) > eps:
        term = -term * x2 / ((2 * k - 1) * (2 * k))
        c += term
        k += 1
    return s, c


def e_minus_one() -> Decimal:
    return Decimal(1).exp() - 1


def tan_one() -> Decimal:
    s, c = _sin_cos(Decimal(1))
    return s / c


def ugly() -> Decimal:
    """4 (11 sin 1/2 - 6 cos 1/2) / (53 cos 1/2 - 97 sin 1/2)."""
    s, c = _sin_cos(Decimal(1) / 2)
    return 4 * (11 * s - 6 * c) / (53 * c - 97 * s)


# The worked examples whose limits have closed forms.
CLOSED_FORMS = {
    (1, 2, 2, 3, 2): e_minus_one,
    (1, 1, 2, 2, 1): tan_one,
    (4, 3, 1, 2, 1): ugly,
}


def check_limit_text(t, digits: int, text: str) -> list[str]:
    """A printed limit with ``digits`` fractional digits, certified to
    relative error 10^-digits, must agree with the convergent bracket and,
    for the worked examples, with the closed form."""
    errors = []
    try:
        shown = Decimal(text)
    except ArithmeticError:
        return [f"{t} D={digits}: not a decimal: {text[:40]!r}"]
    if len(text.partition(".")[2]) != digits:
        errors.append(f"{t} D={digits}: printed {text.partition('.')[2]!r:.20}"
                      f" has the wrong number of fractional digits")
    with localcontext() as ctx:
        ctx.prec = digits + 40 + len(text.partition(".")[0])
        unit = Decimal(10) ** -digits
        p, q, q_next = bracket(t, digits)
        near = Decimal(p) / Decimal(q)
        slack = (1 + 2 * abs(near)) * unit
        if abs(shown - near) > slack + 1 / (Decimal(q) * q_next):
            errors.append(f"{t} D={digits}: outside the convergent bracket")
        if t in CLOSED_FORMS:
            ref = CLOSED_FORMS[t]()
            if abs(shown - ref) > slack:
                errors.append(f"{t} D={digits}: differs from the closed form")
    return errors
