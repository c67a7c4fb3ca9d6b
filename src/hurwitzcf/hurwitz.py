"""The quasi-periodic family xi(alpha, beta0, beta1, d, r).

Partial denominators: r copies of alpha, then beta0, then repeating blocks of
d - 1 copies of alpha followed by beta0 + beta1*n for n = 1, 2, ...

Three independent routes to the (nd+r-1)st convergent numerators live here:
the closed form (two integer sums scaled by powers of beta1 F_d, both from
one binary splitting from the middle term outward, whose terms share their
ratios and differ only in their weights), the compact convolution
recurrence, and - via cf_engine - the plain convergent recurrence.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Literal

from .cf_engine import Convergent, DenomStream
from .errors import NonIntegerResult
from .exactnum import (_SPLIT_LEAF, PrecReal, _check_digits, _divmod,
                       _split, mantissa_bits)
from .fibpoly import fib_eval


_FIELDS = ("alpha", "beta0", "beta1", "d", "r")


class CFParams:
    """The five integers of xi(alpha, beta0, beta1, d, r), checked once;
    immutable, compared and hashed by value."""

    __slots__ = _FIELDS
    alpha: int
    beta0: int
    beta1: int
    d: int
    r: int

    def __init__(self, alpha: int, beta0: int, beta1: int, d: int, r: int):
        for name, value in zip(_FIELDS, (alpha, beta0, beta1, d, r)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got "
                                f"{type(value).__name__}")
            object.__setattr__(self, name, value)
        if alpha < 1 or beta0 < 1 or beta1 < 1 or d < 1:
            raise ValueError("alpha, beta0, beta1, d must all be >= 1")
        if r < 0:
            raise ValueError("r must be >= 0")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _astuple(self) -> tuple:
        return self.alpha, self.beta0, self.beta1, self.d, self.r

    def asdict(self) -> dict:
        """The fields by name, in order."""
        return dict(zip(_FIELDS, self._astuple()))

    def replace(self, **changes) -> CFParams:
        """A copy with some fields changed, checked like any new one."""
        return CFParams(**{**self.asdict(), **changes})

    def __eq__(self, other):
        if type(other) is not CFParams:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        return "CFParams(" + ", ".join(
            f"{k}={v!r}" for k, v in self.asdict().items()) + ")"

    def __reduce__(self):  # pickle and copy: rebuild through __init__
        return CFParams, self._astuple()


SigmaTag = Literal["half-odd", "integer", "other"]


def sigma_tag(num: int, den: int) -> SigmaTag:
    """Whether num/den (den >= 1, not necessarily in lowest terms) is an
    integer, half of an odd integer, or neither."""
    if num % den == 0:
        return "integer"
    if 2 * num % den == 0:
        return "half-odd"
    return "other"


def denom_stream(params: CFParams) -> DenomStream:
    a, b0, b1, d, r = (params.alpha, params.beta0, params.beta1,
                       params.d, params.r)

    def stream(i: int) -> int:
        if i < 0:
            raise IndexError(i)
        if i < r:
            return a
        k, off = divmod(i - r, d)
        return b0 + b1 * k if off == 0 else a

    return stream


def magic_pairs(params: CFParams) -> tuple[tuple[int, int], tuple[int, int]]:
    """sigma = p/q and rho = s/q^2 as unreduced pairs (num, den): the scale
    q = beta1 F_d and the sign s = (-1)^(d-1) that every route reads."""
    a, d = params.alpha, params.d
    fd = fib_eval(d, a)
    # p = (beta0 - a) F_d + L_d = beta0 F_d + 2 F_{d-1} >= 1: sigma > 0
    return ((params.beta0 * fd + 2 * fib_eval(d - 1, a), params.beta1 * fd),
            ((-1) ** (d - 1), (params.beta1 * fd) ** 2))


def fib_transform(params: CFParams) -> tuple[tuple[int, int], tuple[int, int]]:
    """((F_{r+1}, g F_{d-r-1}), (F_r, -g F_{d-r})) at alpha, with
    g = (-1)^(d-r) F_d(alpha) beta1: maps the closed form's two sums to
    (p, q) / (F_d beta1)^n, and the series (A, B) to the limit's numerator
    and denominator.  r >= d uses fib_eval's negative indices."""
    a, d, r = params.alpha, params.d, params.r
    g = fib_eval(d, a) * params.beta1 * (-1 if (d - r) % 2 else 1)
    return ((fib_eval(r + 1, a), g * fib_eval(d - r - 1, a)),
            (fib_eval(r, a), -g * fib_eval(d - r, a)))


def _rising(p: int, q: int, n: int) -> int:
    """prod_{j<n} (p + jq) = q^n (sigma)_n at sigma = p/q, an integer: a
    balanced product tree, so that the two halves multiplied last are of
    about the same size.  Its leaves are runs of up to _SPLIT_LEAF factors,
    as exactnum._split's are."""
    def tree(i: int, j: int) -> int:
        if j - i <= _SPLIT_LEAF:
            return math.prod(p + k * q for k in range(i, j))
        mid = (i + j) // 2
        return tree(i, mid) * tree(mid, j)

    return tree(0, n)


def _closed_form_sums(n: int, p: int, q: int,
                      s: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The closed form's scaled sums X_n(p) = q^n first and X_{n-1}(p+q)
    (0 at n = 0) at sigma = p/q, rho = s/q^2, s = +-1, each as (quotient,
    remainder) of its one division; as both are integers, both remainders
    are 0.  X_n(p) = sum_k s^k C(n-k, k) (p+kq)...(p+(n-1-k)q), with
    first = sum_{k<=n/2} ((n-k)!/k!) C(n+sigma-1-k, n-2k) rho^k.

    One binary splitting gives both, from the middle term outward.  Term k
    of X_{n-1}(p+q), k = 0..K = (n-1)//2, is t'_k = s^k C(n-1-k, k)
    (p+(k+1)q)...(p+(n-1-k)q), and term k of X_n(p) is t'_k (n-k)(p+kq) /
    (n-2k); so over u_k = t'_k/(n-2k) the sums weigh u_k by n-2k and by
    (n-k)(p+kq), and X_n(p) adds s^(n/2) at even n.  u_K is s^K at odd n
    and s^K n(2p+nq)/8 at even n, and u_{k-1}/u_k = s (n-k) k (p+kq)
    (p+(n-k)q) / ((n-2k+1)(n-2k+2)): its numerator reuses the weight, and
    the denominators multiply to Q = n!/(n-2K)!, by which each sum is
    divided (by 8Q at even n).  At n <= 2 there is no ratio."""
    if n == 0:
        return (1, 0), (0, 0)
    K = (n - 1) // 2
    # term i is u_k, k = K - i, weighted v[i] = n - 2k and w[i] = (n-k)(p+kq)
    w = [(n - k) * (p + k * q) for k in range(K, -1, -1)]
    v = range(n - 2 * K, n + 1, 2)
    x = range(p + (n - K) * q, p + n * q, q)  # p + (n-k)q, k = K..1
    _, Q, T, U = _split([(s * k * xk * wk, (m + 1) * (m + 2))
                         for k, m, xk, wk in zip(range(K, 0, -1), v, x, w)],
                        0, K, (v, w))
    c, e = (s ** K, 1) if n % 2 else (s ** K * n * (2 * p + n * q), 8)
    first, rem = _divmod(c * (w[0] * Q + U), e * Q)
    second, rem2 = _divmod(c * (v[0] * Q + T), e * Q)
    return (first if n % 2 else first + s ** (n // 2), rem), (second, rem2)


def closed_form_convergent(params: CFParams, n: int) -> Convergent:
    """The convergent at index nd+r-1 from the explicit formula, in
    integers.  The second sum is rho (first at n-1 and sigma+1), so with
    q = beta1 F_d(alpha) the scaled sums are X_n(p) and
    q^(n+1) second = s X_{n-1}(p+q); fib_transform's second column
    carries g = +-q, divided out exactly.  Both sums come from one binary
    splitting from the middle term (_closed_form_sums) and one division
    each by n!/(n-2K)! (8 times that at even n), whose remainders must be
    0: NonIntegerResult otherwise."""
    if n < 0:
        raise ValueError("n must be >= 0")
    (p, q), (s, _) = magic_pairs(params)
    (first, rem), (second, rem2) = _closed_form_sums(n, p, q, s)
    if rem or rem2:
        raise NonIntegerResult(f"{params} n={n}: the scaled "
                               f"{'first' if rem else 'second'} sum is "
                               "not an integer")
    (p1, p2), (q1, q2) = fib_transform(params)
    second *= s
    return Convergent(n * params.d + params.r - 1,
                      p1 * first + p2 // q * second,
                      q1 * first + q2 // q * second)


def prec_recurrence_p(params: CFParams, n_max: int) -> list[int]:
    """Numerators p_{nd+r-1}, n = 0..n_max, by the compact recurrence

    p_{nd+r-1} = F_{nd+r+1}(a)
                 + sum_{k<n} p_{kd+r-1} (beta0 + beta1 k - a) F_{(n-k)d}(a)

    with p_{r-1} = F_{r+1}(a).  The weight p_{kd+r-1} (beta0 + beta1 k - a)
    is formed once, when p_{kd+r-1} is found; step n then sums the n
    products of the weights with F_{nd}, F_{(n-1)d}, ..., F_d: still
    O(n_max^2) big-integer products, and no convergent of cf_engine.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    a, b0, b1, d, r = (params.alpha, params.beta0, params.beta1,
                       params.d, params.r)
    fib = [0, 1]  # F_j(a) for j = 0 .. n_max d + r + 1
    while len(fib) < n_max * d + r + 2:
        fib.append(a * fib[-1] + fib[-2])
    out: list[int] = []
    weights: list[int] = []  # p_{kd+r-1} (b0 + b1 k - a), k < n
    for n in range(n_max + 1):
        p = fib[n * d + r + 1] + sum(map(mul, weights, fib[n * d:0:-d]))
        out.append(p)
        weights.append(p * (b0 + b1 * n - a))
    return out


def normalized_numerator(params: CFParams, n: int, digits: int) -> PrecReal:
    """p_{nd+r-1} / (F_d(a)^n beta1^n (sigma+n-1)_n), rendered to the
    requested precision.  Converges to the series limit as n grows.

    The numerator is the closed form's; with sigma = p/q, q = beta1 F_d(a),
    the denominator is prod_{j<n} (p + jq), an integer."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_digits(digits)
    (p, q), _ = magic_pairs(params)
    return PrecReal._ratio(closed_form_convergent(params, n).p,
                           _rising(p, q, n), 0, 1, mantissa_bits(digits))
