"""Classification of the magic sum: half-odd, integer, or neither.

The two characterization theorems (d >= 2) are encoded verbatim as case
lists and confirmed against the direct sigma computation by brute force.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import TheoremMismatch, UnsupportedD
from .fibpoly import fib_eval, lucas_eval
from .hurwitz import CFParams, SigmaTag, magic, sigma_tag


@dataclass(frozen=True)
class SigmaClass:
    tag: SigmaTag
    witness: Fraction


def sigma_class(params: CFParams) -> SigmaClass:
    sigma = magic(params).sigma
    return SigmaClass(sigma_tag(sigma), sigma)


# Case lists of the two theorems; r is irrelevant (sigma does not depend on
# it) and d = 1 is out of scope (sigma = beta0/beta1 can be anything).

_HALF_ODD_CASES = (
    ("d=3, alpha=1, (b0+1)/b1 half-odd",
     lambda a, b0, b1, d: d == 3 and a == 1
     and sigma_tag(Fraction(b0 + 1, b1)) == "half-odd"),
    ("d=2, alpha=1, (b0+2)/b1 half-odd",
     lambda a, b0, b1, d: d == 2 and a == 1
     and sigma_tag(Fraction(b0 + 2, b1)) == "half-odd"),
    ("d=2, alpha=2, (b0+1)/b1 half-odd",
     lambda a, b0, b1, d: d == 2 and a == 2
     and sigma_tag(Fraction(b0 + 1, b1)) == "half-odd"),
    ("d=2, alpha=4, (2b0+1)/b1 integer",
     lambda a, b0, b1, d: d == 2 and a == 4
     and sigma_tag(Fraction(2 * b0 + 1, b1)) == "integer"),
)

_INTEGER_CASES = (
    ("d=3, alpha=1, (b0+1)/b1 integer",
     lambda a, b0, b1, d: d == 3 and a == 1
     and sigma_tag(Fraction(b0 + 1, b1)) == "integer"),
    ("d=2, alpha=1, (b0+2)/b1 integer",
     lambda a, b0, b1, d: d == 2 and a == 1
     and sigma_tag(Fraction(b0 + 2, b1)) == "integer"),
    ("d=2, alpha=2, (b0+1)/b1 integer",
     lambda a, b0, b1, d: d == 2 and a == 2
     and sigma_tag(Fraction(b0 + 1, b1)) == "integer"),
)


def _matching_cases(cases, params: CFParams) -> list[int]:
    if params.d < 2:
        raise UnsupportedD("the characterizations assume d >= 2")
    a, b0, b1, d = params.alpha, params.beta0, params.beta1, params.d
    return [i for i, (_, pred) in enumerate(cases) if pred(a, b0, b1, d)]


def theorem61_predicate(params: CFParams) -> bool:
    """True iff sigma must be half of an odd integer, per the case list."""
    return bool(_matching_cases(_HALF_ODD_CASES, params))


def theorem71_predicate(params: CFParams) -> bool:
    """True iff sigma must be an integer, per the case list."""
    return bool(_matching_cases(_INTEGER_CASES, params))


@dataclass
class SweepReport:
    alpha_max: int
    d_max: int
    beta_max: int
    tuples_checked: int = 0
    half_odd_case_hits: list = field(default_factory=list)
    integer_case_hits: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "bounds": {"alpha_max": self.alpha_max, "d_max": self.d_max,
                       "beta_max": self.beta_max},
            "tuples_checked": self.tuples_checked,
            "cases": {
                "half_odd": {_HALF_ODD_CASES[i][0]: c
                             for i, c in enumerate(self.half_odd_case_hits)},
                "integer": {_INTEGER_CASES[i][0]: c
                            for i, c in enumerate(self.integer_case_hits)},
            },
            "mismatches": self.mismatches,
        }


def brute_force_sweep(alpha_max: int, d_max: int, beta_max: int,
                      raise_on_mismatch: bool = True) -> SweepReport:
    """Exhaustively confirm both characterizations on the box
    alpha <= alpha_max, 2 <= d <= d_max, beta0, beta1 <= beta_max."""
    if alpha_max < 2 or d_max < 2 or beta_max < 2:
        raise ValueError("all bounds must be >= 2")
    report = SweepReport(alpha_max, d_max, beta_max,
                         half_odd_case_hits=[0] * len(_HALF_ODD_CASES),
                         integer_case_hits=[0] * len(_INTEGER_CASES))
    fib_lucas = {(a, d): (fib_eval(d, a), lucas_eval(d, a))
                 for a in range(1, alpha_max + 1)
                 for d in range(2, d_max + 1)}
    for a in range(1, alpha_max + 1):
        for d in range(2, d_max + 1):
            fd, ld = fib_lucas[a, d]
            for b1 in range(1, beta_max + 1):
                for b0 in range(1, beta_max + 1):
                    sigma = Fraction((b0 - a) * fd + ld, b1 * fd)
                    tag = sigma_tag(sigma)
                    params = CFParams(a, b0, b1, d, 0)
                    hits61 = _matching_cases(_HALF_ODD_CASES, params)
                    hits71 = _matching_cases(_INTEGER_CASES, params)
                    for i in hits61:
                        report.half_odd_case_hits[i] += 1
                    for i in hits71:
                        report.integer_case_hits[i] += 1
                    ok = ((tag == "half-odd") == bool(hits61)
                          and (tag == "integer") == bool(hits71))
                    report.tuples_checked += 1
                    if not ok:
                        entry = {"alpha": a, "beta0": b0, "beta1": b1,
                                 "d": d, "sigma": str(sigma), "tag": tag}
                        report.mismatches.append(entry)
                        if raise_on_mismatch:
                            raise TheoremMismatch(entry)
    return report
