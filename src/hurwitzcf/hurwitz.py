"""The quasi-periodic family xi(alpha, beta0, beta1, d, r).

Partial denominators: r copies of alpha, then beta0, then repeating blocks of
d - 1 copies of alpha followed by beta0 + beta1*n for n = 1, 2, ...

Three independent routes to the (nd+r-1)st convergent numerators live here:
the closed form (exact rational sums scaled back to integers), the compact
convolution recurrence, and - via cf_engine - the plain convergent recurrence.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Literal, NamedTuple

from .cf_engine import Convergent, DenomStream
from .errors import NonIntegerResult
from .exactnum import PrecReal, _split, falling_factorial, to_prec_real
from .fibpoly import fib_eval, lucas_eval


@dataclass(frozen=True)
class CFParams:
    alpha: int
    beta0: int
    beta1: int
    d: int
    r: int

    def __post_init__(self):
        if self.alpha < 1 or self.beta0 < 1 or self.beta1 < 1 or self.d < 1:
            raise ValueError("alpha, beta0, beta1, d must all be >= 1")
        if self.r < 0:
            raise ValueError("r must be >= 0")

    @property
    def guaranteed(self) -> bool:
        # the regime the closed-form theorem is proved for
        return self.r <= self.d - 1

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, s: str) -> "CFParams":
        obj = json.loads(s)
        return cls(obj["alpha"], obj["beta0"], obj["beta1"], obj["d"], obj["r"])


class MagicPair(NamedTuple):
    sigma: Fraction
    rho: Fraction


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


def _magic_pairs(params: CFParams) -> tuple[tuple[int, int], tuple[int, int]]:
    """sigma = (beta0 - a)/beta1 + L_d/(beta1 F_d) and
    rho = (-1)^(d-1)/(beta1 F_d)^2 as unreduced pairs (num, den), den > 0."""
    a, d = params.alpha, params.d
    fd = fib_eval(d, a)
    return (((params.beta0 - a) * fd + lucas_eval(d, a), params.beta1 * fd),
            ((-1) ** (d - 1), (params.beta1 * fd) ** 2))


def magic(params: CFParams) -> MagicPair:
    sigma, rho = _magic_pairs(params)
    return MagicPair(Fraction(*sigma), Fraction(*rho))


def fib_transform(params: CFParams) -> tuple[tuple[int, int], tuple[int, int]]:
    """((F_{r+1}, g F_{d-r-1}), (F_r, -g F_{d-r})) at alpha, with
    g = (-1)^(d-r) F_d(alpha) beta1: maps the closed form's two sums to
    (p, q) / (F_d beta1)^n, and the series (A, B) to the limit's numerator
    and denominator.  r >= d uses fib_eval's negative indices."""
    a, d, r = params.alpha, params.d, params.r
    g = fib_eval(d, a) * params.beta1 * (-1 if (d - r) % 2 else 1)
    return ((fib_eval(r + 1, a), g * fib_eval(d - r - 1, a)),
            (fib_eval(r, a), -g * fib_eval(d - r, a)))


def _closed_form_sums(params: CFParams, n: int) -> tuple[Fraction, Fraction]:
    """The two inner sums of the closed form, as exact rationals.

    first  = sum_{k<=n/2}     ((n-k)!/k!)   C(n+sigma-1-k, n-2k)   rho^k
    second = sum_{k<=(n-1)/2} ((n-k-1)!/k!) C(n+sigma-1-k, n-2k-1) rho^(k+1)
           = rho * (first at n-1 and sigma+1)
    """
    sigma, rho = magic(params)
    second = rho * _first_sum(n - 1, sigma + 1, rho) if n else Fraction(0)
    return _first_sum(n, sigma, rho), second


def _first_sum(n: int, sigma: Fraction, rho: Fraction) -> Fraction:
    """first: t_0 = (sigma)_n (rising) and t_{k+1}/t_k =
    rho (n-2k)(n-2k-1) / ((n-k)(k+1)(n+sigma-1-k)(sigma+k)), an integer
    pair with sigma = p/q and rho = u/v; summed by binary splitting."""
    p, q = sigma.numerator, sigma.denominator
    u, v = rho.numerator, rho.denominator
    t0 = Fraction(math.prod(p + j * q for j in range(n)), q ** n)
    _, Q, T = _split([(u * q * q * (n - 2 * k) * (n - 2 * k - 1),
                       v * (n - k) * (k + 1) * ((n - 1 - k) * q + p)
                       * (k * q + p)) for k in range(n // 2)], 0, n // 2)
    return t0 * Fraction(Q + T, Q)


def closed_form_convergent(params: CFParams, n: int) -> Convergent:
    """The convergent at index nd+r-1 from the explicit formula.

    Both sums are evaluated over exact rationals; the scale factor
    F_d(alpha)^n beta1^n is multiplied back and integrality asserted.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    first, second = _closed_form_sums(params, n)
    scale = Fraction(fib_eval(params.d, params.alpha) * params.beta1) ** n
    (p1, p2), (q1, q2) = fib_transform(params)
    p_rat = scale * (p1 * first + p2 * second)
    q_rat = scale * (q1 * first + q2 * second)
    if p_rat.denominator != 1 or q_rat.denominator != 1:
        raise NonIntegerResult(f"{params} n={n}: {p_rat}, {q_rat}")
    return Convergent(n * params.d + params.r - 1, int(p_rat), int(q_rat))


def prec_recurrence_p(params: CFParams, n_max: int) -> list[int]:
    """Numerators p_{nd+r-1}, n = 0..n_max, by the compact recurrence

    p_{nd+r-1} = F_{nd+r+1}(a)
                 + sum_{k<n} p_{kd+r-1} (beta0 + beta1 k - a) F_{(n-k)d}(a)

    with p_{r-1} = F_{r+1}(a).
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    a, b0, b1, d, r = (params.alpha, params.beta0, params.beta1,
                       params.d, params.r)
    fib = [0, 1]  # F_j(a) for j = 0 .. n_max d + r + 1
    while len(fib) < n_max * d + r + 2:
        fib.append(a * fib[-1] + fib[-2])
    out: list[int] = []
    for n in range(n_max + 1):
        out.append(fib[n * d + r + 1] + sum(
            out[k] * (b0 + b1 * k - a) * fib[(n - k) * d] for k in range(n)))
    return out


def normalized_numerator(params: CFParams, n: int, digits: int) -> PrecReal:
    """p_{nd+r-1} / (F_d(a)^n beta1^n (sigma+n-1)_n), rendered to the
    requested precision.  Converges to the series limit as n grows."""
    if n < 1:
        raise ValueError("n must be >= 1")
    sigma, _ = magic(params)
    p = prec_recurrence_p(params, n)[n]
    fd = fib_eval(params.d, params.alpha)
    denom = Fraction(fd * params.beta1) ** n * falling_factorial(sigma + n - 1, n)
    return to_prec_real(Fraction(p) / denom, digits)
