"""Classification of the magic sum: half-odd, integer, or neither.

The two characterization theorems (d >= 2) are one case table, `_CASES`.
`brute_force_sweep` confirms it one tuple at a time: `hurwitz.sigma_tag` of
the integer pair N/D = (b0 F_d + 2 F_{d-1}) / (b1 F_d), at alpha, must be
the tag claimed by exactly the matching rows, which are tabled by (alpha, d)
once per call.  At an (alpha, d) with no row no theorem claims anything, so
a tuple passes iff D does not divide 2N: one remainder, with `sigma_tag`
called only for a mismatch.  Only F_{d-1}, F_d are carried across d.  The
report counts every tuple of the box and lists each mismatch; none is
raised.  A box whose cost (tuples, weighted by the length of F_d) exceeds
SWEEP_GUARD is refused.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import UnsupportedD
from .exactnum import _ratio_text
from .hurwitz import CFParams, SigmaTag, magic_pairs, sigma_tag

if TYPE_CHECKING:
    from fractions import Fraction

# the most work brute_force_sweep accepts, in tuples at small d (see the
# cost in brute_force_sweep): on one core of a 2-core box, about 0.3 s at
# small d and 1-2 s at large d, where the work on the long F_d dominates
SWEEP_GUARD = 4_000_000


class SigmaClass(NamedTuple):
    tag: SigmaTag
    witness: Fraction


def sigma_class(params: CFParams) -> SigmaClass:
    from fractions import Fraction
    (p, q), _ = magic_pairs(params)
    return SigmaClass(sigma_tag(p, q), Fraction(p, q))


# The tag each theorem claims for sigma -> its case rows (name, d, alpha, c,
# e, want): at this d and alpha, the theorem claims it iff (c*b0 + e)/b1 has
# tag `want`.  r is irrelevant (sigma does not depend on it) and d = 1 is
# out of scope (sigma = beta0/beta1 can be anything).
_CASES = {
    "half-odd": (
        ("d=3, alpha=1, (b0+1)/b1 half-odd", 3, 1, 1, 1, "half-odd"),
        ("d=2, alpha=1, (b0+2)/b1 half-odd", 2, 1, 1, 2, "half-odd"),
        ("d=2, alpha=2, (b0+1)/b1 half-odd", 2, 2, 1, 1, "half-odd"),
        ("d=2, alpha=4, (2b0+1)/b1 integer", 2, 4, 2, 1, "integer"),
    ),
    "integer": (
        ("d=3, alpha=1, (b0+1)/b1 integer", 3, 1, 1, 1, "integer"),
        ("d=2, alpha=1, (b0+2)/b1 integer", 2, 1, 1, 2, "integer"),
        ("d=2, alpha=2, (b0+1)/b1 integer", 2, 2, 1, 1, "integer"),
    ),
}


def _rows_by_cell() -> dict:
    """(alpha, d) -> (claimed tag, row index, c, e, want) of its case rows,
    from `_CASES` as it is at the call."""
    table = {}
    for claim, rows in _CASES.items():
        for i, (_, d, a, c, e, want) in enumerate(rows):
            table.setdefault((a, d), []).append((claim, i, c, e, want))
    return table


def _claims(params: CFParams) -> set:
    if params.d < 2:
        raise UnsupportedD("the characterizations assume d >= 2")
    b0, b1 = params.beta0, params.beta1
    return {claim for claim, _, c, e, want
            in _rows_by_cell().get((params.alpha, params.d), ())
            if sigma_tag(c * b0 + e, b1) == want}


def theorem61_predicate(params: CFParams) -> bool:
    """True iff sigma must be half of an odd integer, per the case table."""
    return "half-odd" in _claims(params)


def theorem71_predicate(params: CFParams) -> bool:
    """True iff sigma must be an integer, per the case table."""
    return "integer" in _claims(params)


class SweepReport(NamedTuple):
    """The box brute_force_sweep checked, the tuples in it, the hits of each
    case row (in `_CASES` order) and the mismatches."""
    alpha_max: int
    d_max: int
    beta_max: int
    tuples_checked: int
    half_odd_case_hits: list
    integer_case_hits: list
    mismatches: list

    def to_dict(self) -> dict:
        return {
            "bounds": {"alpha_max": self.alpha_max, "d_max": self.d_max,
                       "beta_max": self.beta_max},
            "tuples_checked": self.tuples_checked,
            "cases": {key: {row[0]: c for row, c in zip(_CASES[claim], hits)}
                      for key, claim, hits in (
                          ("half_odd", "half-odd", self.half_odd_case_hits),
                          ("integer", "integer", self.integer_case_hits))},
            "mismatches": self.mismatches,
        }


def _mismatch(a: int, b0: int, b1: int, d: int, num: int, den: int) -> dict:
    return {"alpha": a, "beta0": b0, "beta1": b1, "d": d,
            "sigma": _ratio_text(num, den),
            "tag": sigma_tag(num, den)}


def brute_force_sweep(alpha_max: int, d_max: int,
                      beta_max: int) -> SweepReport:
    """Exhaustively confirm both characterizations on the box
    alpha <= alpha_max, 2 <= d <= d_max, beta0, beta1 <= beta_max."""
    bounds = (alpha_max, d_max, beta_max)
    if any(type(x) is not int for x in bounds):
        raise TypeError("alpha_max, d_max, beta_max must be ints, got "
                        + ", ".join(type(x).__name__ for x in bounds))
    if alpha_max < 2 or d_max < 2 or beta_max < 2:
        raise ValueError("all bounds must be >= 2")
    size = alpha_max * (d_max - 1) * beta_max ** 2
    # a tuple works on F_d(alpha), about d log2(alpha) bits long; each
    # 64-bit word of it added about 1/50 of the fixed cost of a tuple
    # tagged by sigma_tag.  The one-remainder tuples keep that weight, so
    # the same boxes are refused.  The weight 1 + bits/3200 is compared
    # unrounded, scaled by 3200.
    cost = size * (3200 + d_max * alpha_max.bit_length())
    if cost > SWEEP_GUARD * 3200:
        raise ValueError(f"{size} tuples up to d = {d_max} (cost "
                         f"{cost // 3200}) exceed SWEEP_GUARD = {SWEEP_GUARD}")
    hits = {claim: [0] * len(rows) for claim, rows in _CASES.items()}
    table, mismatches, betas = _rows_by_cell(), [], range(1, beta_max + 1)
    for a in range(1, alpha_max + 1):
        f1, fd = 1, a  # F_{d-1}, F_d
        for d in range(2, d_max + 1):
            # N = (b0 - a) F_d + L_d = b0 F_d + 2 F_{d-1}
            rows, n0 = table.get((a, d)), 2 * f1  # N at b0 = 0
            if not rows:
                # no theorem claims anything here, so a tuple passes iff
                # sigma is "other": iff D does not divide 2N.  2N runs over
                # an arithmetic progression in b0, the same for every b1,
                # held as a list so that the b0 loop makes no new int.
                twice = list(range(2 * (fd + n0),
                                   2 * ((beta_max + 1) * fd + n0), 2 * fd))
                for b1 in betas:
                    den = b1 * fd
                    for num2 in twice:
                        if not num2 % den:
                            mismatches.append(_mismatch(
                                a, twice.index(num2) + 1, b1, d, num2 // 2,
                                den))
            else:
                for b1 in betas:
                    den = b1 * fd
                    for b0 in betas:
                        num = b0 * fd + n0
                        tag = sigma_tag(num, den)
                        claim = "other"  # claimed by matching rows, or "both"
                        for th, i, c, e, want in rows:
                            if sigma_tag(c * b0 + e, b1) == want:
                                hits[th][i] += 1
                                claim = (th if claim in ("other", th)
                                         else "both")
                        if claim != tag:
                            mismatches.append(
                                _mismatch(a, b0, b1, d, num, den))
            f1, fd = fd, a * fd + f1
    return SweepReport(alpha_max, d_max, beta_max, size, hits["half-odd"],
                       hits["integer"], mismatches)
