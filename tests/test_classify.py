import hashlib
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitzcf import classify
from hurwitzcf.classify import (SWEEP_GUARD, SigmaClass, brute_force_sweep,
                                sigma_class, theorem61_predicate,
                                theorem71_predicate)
from hurwitzcf.cli import run
from hurwitzcf.errors import UnsupportedD
from hurwitzcf.exactnum import _fraction_text
from hurwitzcf.fibpoly import fib_eval
from hurwitzcf.hurwitz import CFParams
from reference import lucas_eval, sigma_rho

F = Fraction


# Reference sweep: the per-tuple Fraction + CFParams + lambda sweep that
# brute_force_sweep replaced, kept verbatim (with its own Fraction tag) to
# check the integer-pair sweep against.

def _fraction_tag(sigma: Fraction) -> str:
    if sigma.denominator == 1:
        return "integer"
    if sigma.denominator == 2:
        return "half-odd"
    return "other"


def _ref_case(d0, a0, c, e, want):
    return lambda a, b0, b1, d: d == d0 and a == a0 \
        and _fraction_tag(Fraction(c * b0 + e, b1)) == want


_REF_HALF_ODD_CASES = [
    ("d=3, alpha=1, (b0+1)/b1 half-odd",
     lambda a, b0, b1, d: d == 3 and a == 1
     and _fraction_tag(Fraction(b0 + 1, b1)) == "half-odd"),
    ("d=2, alpha=1, (b0+2)/b1 half-odd",
     lambda a, b0, b1, d: d == 2 and a == 1
     and _fraction_tag(Fraction(b0 + 2, b1)) == "half-odd"),
    ("d=2, alpha=2, (b0+1)/b1 half-odd",
     lambda a, b0, b1, d: d == 2 and a == 2
     and _fraction_tag(Fraction(b0 + 1, b1)) == "half-odd"),
    ("d=2, alpha=4, (2b0+1)/b1 integer",
     lambda a, b0, b1, d: d == 2 and a == 4
     and _fraction_tag(Fraction(2 * b0 + 1, b1)) == "integer"),
]

_REF_INTEGER_CASES = [
    ("d=3, alpha=1, (b0+1)/b1 integer",
     lambda a, b0, b1, d: d == 3 and a == 1
     and _fraction_tag(Fraction(b0 + 1, b1)) == "integer"),
    ("d=2, alpha=1, (b0+2)/b1 integer",
     lambda a, b0, b1, d: d == 2 and a == 1
     and _fraction_tag(Fraction(b0 + 2, b1)) == "integer"),
    ("d=2, alpha=2, (b0+1)/b1 integer",
     lambda a, b0, b1, d: d == 2 and a == 2
     and _fraction_tag(Fraction(b0 + 1, b1)) == "integer"),
]


def _ref_matching(cases, params):
    a, b0, b1, d = params.alpha, params.beta0, params.beta1, params.d
    return [i for i, (_, pred) in enumerate(cases) if pred(a, b0, b1, d)]


def reference_sweep(alpha_max, d_max, beta_max, half_odd_cases=None,
                    integer_cases=None) -> dict:
    half_odd_cases = half_odd_cases or _REF_HALF_ODD_CASES
    integer_cases = integer_cases or _REF_INTEGER_CASES
    half_hits, int_hits = [0] * len(half_odd_cases), [0] * len(integer_cases)
    checked, mismatches = 0, []
    for a in range(1, alpha_max + 1):
        for d in range(2, d_max + 1):
            fd, ld = fib_eval(d, a), lucas_eval(d, a)
            for b1 in range(1, beta_max + 1):
                for b0 in range(1, beta_max + 1):
                    sigma = Fraction((b0 - a) * fd + ld, b1 * fd)
                    tag = _fraction_tag(sigma)
                    params = CFParams(a, b0, b1, d, 0)
                    hits61 = _ref_matching(half_odd_cases, params)
                    hits71 = _ref_matching(integer_cases, params)
                    for i in hits61:
                        half_hits[i] += 1
                    for i in hits71:
                        int_hits[i] += 1
                    ok = ((tag == "half-odd") == bool(hits61)
                          and (tag == "integer") == bool(hits71))
                    checked += 1
                    if not ok:
                        entry = {"alpha": a, "beta0": b0, "beta1": b1,
                                 "d": d, "sigma": str(sigma), "tag": tag}
                        mismatches.append(entry)
    return {
        "bounds": {"alpha_max": alpha_max, "d_max": d_max,
                   "beta_max": beta_max},
        "tuples_checked": checked,
        "cases": {
            "half_odd": {half_odd_cases[i][0]: c
                         for i, c in enumerate(half_hits)},
            "integer": {integer_cases[i][0]: c
                        for i, c in enumerate(int_hits)},
        },
        "mismatches": mismatches,
    }


class TestSigmaClass:
    def test_half_odd_example(self):
        sc = sigma_class(CFParams(1, 2, 2, 3, 2))
        assert sc == SigmaClass("half-odd", F(3, 2))

    def test_integer_example(self):
        sc = sigma_class(CFParams(1, 1, 1, 3, 2))
        assert sc == SigmaClass("integer", F(2))

    def test_other_example(self):
        sc = sigma_class(CFParams(3, 1, 1, 2, 0))
        assert sc == SigmaClass("other", F(5, 3))


class TestPredicates:
    def test_half_odd_cases(self):
        assert theorem61_predicate(CFParams(1, 2, 2, 3, 2))     # d=3, a=1
        assert theorem61_predicate(CFParams(1, 1, 2, 2, 1))     # d=2, a=1
        assert theorem61_predicate(CFParams(2, 2, 2, 2, 0))     # d=2, a=2
        assert theorem61_predicate(CFParams(4, 3, 1, 2, 1))     # d=2, a=4
        assert not theorem61_predicate(CFParams(3, 1, 1, 2, 0))
        assert not theorem61_predicate(CFParams(1, 1, 1, 3, 2))

    def test_integer_cases(self):
        assert theorem71_predicate(CFParams(1, 1, 1, 3, 2))
        assert theorem71_predicate(CFParams(1, 2, 2, 2, 0))
        assert theorem71_predicate(CFParams(2, 3, 4, 2, 1))
        assert not theorem71_predicate(CFParams(1, 2, 2, 3, 2))
        assert not theorem71_predicate(CFParams(4, 3, 1, 2, 1))

    def test_d1_out_of_scope(self):
        with pytest.raises(UnsupportedD):
            theorem61_predicate(CFParams(1, 1, 1, 1, 0))
        with pytest.raises(UnsupportedD):
            theorem71_predicate(CFParams(1, 1, 1, 1, 0))

    def test_r_irrelevant(self):
        for r in range(3):
            p = CFParams(1, 2, 2, 3, r)
            assert theorem61_predicate(p)
            assert sigma_class(p).witness == F(3, 2)


class TestSweep:
    def test_small_sweep_clean(self):
        report = brute_force_sweep(6, 4, 6)
        assert report.mismatches == []
        assert report.tuples_checked == 6 * 3 * 6 * 6
        assert all(c > 0 for c in report.half_odd_case_hits)
        assert all(c > 0 for c in report.integer_case_hits)

    def test_report_serializes(self):
        d = brute_force_sweep(3, 3, 3).to_dict()
        assert d["mismatches"] == []
        assert len(d["cases"]["half_odd"]) == 4
        assert len(d["cases"]["integer"]) == 3

    def test_report_pinned(self):
        # to_dict, repr and the sigma classes of one small box, pinned
        report = brute_force_sweep(3, 3, 3)
        assert report.to_dict() == {
            "bounds": {"alpha_max": 3, "d_max": 3, "beta_max": 3},
            "tuples_checked": 54,
            "cases": {"half_odd": {"d=3, alpha=1, (b0+1)/b1 half-odd": 1,
                                   "d=2, alpha=1, (b0+2)/b1 half-odd": 2,
                                   "d=2, alpha=2, (b0+1)/b1 half-odd": 1,
                                   "d=2, alpha=4, (2b0+1)/b1 integer": 0},
                      "integer": {"d=3, alpha=1, (b0+1)/b1 integer": 6,
                                  "d=2, alpha=1, (b0+2)/b1 integer": 5,
                                  "d=2, alpha=2, (b0+1)/b1 integer": 6}},
            "mismatches": []}
        assert repr(brute_force_sweep(2, 2, 2)) == (
            "SweepReport(alpha_max=2, d_max=2, beta_max=2, tuples_checked=8, "
            "half_odd_case_hits=[0, 1, 1, 0], integer_case_hits=[0, 3, 3], "
            "mismatches=[])")
        assert report == brute_force_sweep(3, 3, 3)
        classes = [sigma_class(CFParams(a, b0, b1, d, 0))
                   for a in range(1, 4) for d in range(2, 4)
                   for b1 in range(1, 4) for b0 in range(1, 4)]
        assert classes[3] == SigmaClass("half-odd", F(3, 2))
        assert hashlib.sha256(repr(classes).encode()).hexdigest() == (
            "edd60097b752b41cc3d6d214db5981b28f2c9fd04cc66b6133be098223760829")

    def test_report_is_a_named_tuple(self):
        report = brute_force_sweep(2, 2, 2)
        assert isinstance(report, tuple)
        assert report._fields == (
            "alpha_max", "d_max", "beta_max", "tuples_checked",
            "half_odd_case_hits", "integer_case_hits", "mismatches")
        assert report == (2, 2, 2, 8, [0, 1, 1, 0], [0, 3, 3], [])
        with pytest.raises(AttributeError):
            report.tuples_checked = 0

    def test_bounds_guard(self):
        with pytest.raises(ValueError):
            brute_force_sweep(1, 4, 4)

    # (3, 120, 4) checks the F_d, L_d carried across d against fib_eval and
    # lucas_eval at large d
    @pytest.mark.parametrize("box", [(40, 10, 14), (8, 5, 8), (6, 4, 6),
                                     (2, 2, 2), (3, 120, 4)])
    def test_matches_reference_sweep(self, box):
        assert brute_force_sweep(*box).to_dict() == reference_sweep(*box)

    # one row given a wrong `want`, on both sides: the sweeps must report
    # the same mismatches (the integer case row at d=2, alpha=1, and a
    # half-odd row that then overlaps an integer row at d=3, alpha=1)
    @pytest.mark.parametrize("claim, index, want", [
        ("integer", 1, "half-odd"), ("half-odd", 0, "integer")])
    def test_wrong_case_row_matches_reference(self, monkeypatch, claim,
                                              index, want):
        rows = list(classify._CASES[claim])
        name, d, a, c, e, _ = rows[index]
        rows[index] = (name, d, a, c, e, want)
        monkeypatch.setitem(classify._CASES, claim, tuple(rows))
        ref_cases = {"half-odd": list(_REF_HALF_ODD_CASES),
                     "integer": list(_REF_INTEGER_CASES)}
        ref_cases[claim][index] = (name, _ref_case(d, a, c, e, want))
        ref_args = (ref_cases["half-odd"], ref_cases["integer"])

        box = (8, 5, 8)
        got = brute_force_sweep(*box).to_dict()
        assert got["mismatches"]
        assert got == reference_sweep(*box, *ref_args)

    # one row dropped on both sides.  The alpha=4 row is the only one at
    # (4, 2), which then takes the no-row path; (1, 3) keeps its half-odd
    # row when its integer row goes.  Every tuple the dropped row claimed
    # is a mismatch, tagged with its theorem.
    @pytest.mark.parametrize("claim, index, count", [
        ("half-odd", 3, 14), ("integer", 0, 21)])
    def test_dropped_case_row_matches_reference(self, monkeypatch, claim,
                                                index, count):
        rows = classify._CASES[claim]
        _, d, a, *_ = rows[index]
        monkeypatch.setitem(classify._CASES, claim,
                            rows[:index] + rows[index + 1:])
        ref_cases = {"half-odd": list(_REF_HALF_ODD_CASES),
                     "integer": list(_REF_INTEGER_CASES)}
        del ref_cases[claim][index]

        box = (8, 5, 8)
        got = brute_force_sweep(*box).to_dict()
        assert got == reference_sweep(*box, ref_cases["half-odd"],
                                      ref_cases["integer"])
        assert len(got["mismatches"]) == count
        assert {(m["alpha"], m["d"], m["tag"])
                for m in got["mismatches"]} == {(a, d, claim)}

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 12), st.integers(2, 30), st.integers(2, 10))
    def test_random_box_matches_reference_sweep(self, alpha_max, d_max,
                                                beta_max):
        box = (alpha_max, d_max, beta_max)
        assert brute_force_sweep(*box).to_dict() == reference_sweep(*box)

    def test_mismatch_sigma_beyond_the_str_digit_limit(self, monkeypatch):
        # a wrong row at d = 1700, where sigma's denominator has more than
        # 640 digits, the lowest limit the interpreter accepts
        rows = classify._CASES["integer"] + (("wrong", 1700, 2, 1, 0,
                                                "integer"),)
        monkeypatch.setitem(classify._CASES, "integer", rows)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            report = brute_force_sweep(2, 1700, 2)
        finally:
            sys.set_int_max_str_digits(limit)
        wrong = [m for m in report.mismatches if m["d"] == 1700]
        assert len(wrong) == 3  # b0/b1 = 1/1, 2/1, 2/2
        for m in wrong:
            sigma, _ = sigma_rho(CFParams(2, m["beta0"], m["beta1"], 1700, 0))
            assert sigma.denominator > 10 ** 640
            assert m["sigma"] == _fraction_text(sigma)

    def test_size_guard(self, capsys):
        # about 10^12 tuples: refused before any tuple is classified
        box = (10 ** 4, 10 ** 4 + 1, 10 ** 2)
        assert box[0] * (box[1] - 1) * box[2] ** 2 == 10 ** 12
        with pytest.raises(ValueError, match="SWEEP_GUARD"):
            brute_force_sweep(*box)
        assert run(["sweep", "--alpha-max", str(box[0]), "--d-max",
                    str(box[1]), "--beta-max", str(box[2])]) == 2
        assert "SWEEP_GUARD" in capsys.readouterr().err
        # criterion 6's box stays well inside the guard
        assert 10 * 60 * 11 * 20 ** 2 <= SWEEP_GUARD

    # few tuples, but F_d(2) of 50000 and 500000 bits: refused by their
    # cost; (2, 1599, 35) is just under the tuple guard with a weight of
    # 1 + 1599 * 2 / 3200 that must not round down to 1
    @pytest.mark.parametrize("box", [(2, 50000, 2), (2, 500000, 2),
                                     (2, 1599, 35)])
    def test_size_guard_counts_long_integers(self, monkeypatch, capsys, box):
        assert box[0] * (box[1] - 1) * box[2] ** 2 <= SWEEP_GUARD
        calls = []
        monkeypatch.setattr(classify, "_rows_by_cell",
                            lambda *a: calls.append(a) or {})
        with pytest.raises(ValueError, match="SWEEP_GUARD"):
            brute_force_sweep(*box)
        assert run(["sweep", "--alpha-max", str(box[0]), "--d-max",
                    str(box[1]), "--beta-max", str(box[2])]) == 2
        assert "SWEEP_GUARD" in capsys.readouterr().err
        assert calls == []
        brute_force_sweep(2, 2, 2)  # an admitted box tables its rows once
        assert calls == [()]

    # (40, 10, 14) is the bench box, (60, 12, 20) criterion 6's, and
    # (2, 24000, 2) has few tuples with F_d of 24000 bits
    @pytest.mark.parametrize("box", [(40, 10, 14), (60, 12, 20),
                                     (2, 24000, 2)])
    def test_size_guard_admits(self, box):
        report = brute_force_sweep(*box)
        assert report.tuples_checked == box[0] * (box[1] - 1) * box[2] ** 2
        assert report.mismatches == []


class TestStructuralInequalities:
    def test_lucas_between_fib_multiples(self):
        # 0 < L_d(a) - a F_d(a) < F_d(a) for a >= 2, d >= 3: sigma is then
        # never an integer or half-odd multiple of 1/F_d alone
        for a in range(2, 30):
            for d in range(3, 15):
                fd, ld = fib_eval(d, a), lucas_eval(d, a)
                assert 0 < ld - a * fd < fd, (a, d)

    def test_alpha4_d2_two_sigma_odd(self):
        # when d=2, alpha=4: 2 sigma = (2 b0 + 1)/b1, odd whenever integer
        for b0 in range(1, 25):
            for b1 in range(1, 25):
                two_sigma = 2 * sigma_class(CFParams(4, b0, b1, 2, 0)).witness
                assert two_sigma == F(2 * b0 + 1, b1)
                if two_sigma.denominator == 1:
                    assert two_sigma % 2 == 1

    def test_d3_alpha1_gap(self):
        # 0 < 2 F_{d-3}(1) < F_d(1) for 4 <= d <= 40 (golden-ratio growth)
        for d in range(4, 41):
            assert 0 < 2 * fib_eval(d - 3, 1) < fib_eval(d, 1)
