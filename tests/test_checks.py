"""The verify suites pass on the package and report a planted fault.

Each fault is planted on the module attribute that the suite calls; the
independent end-to-end checks stay in test_acceptance.py.
"""

from fractions import Fraction

import pytest

from hurwitzcf import (cf_engine, checks, classify, fibpoly, hurwitz,
                       identities, limits)


@pytest.mark.parametrize("name", list(checks.SUITES))
def test_suite_passes(name):
    assert checks.SUITES[name](8) == []


def _off_by_one(fn):
    def wrong(*args, **kwargs):
        conv = fn(*args, **kwargs)
        return cf_engine.Convergent(conv.n, conv.p + 1, conv.q)
    return wrong


def _wrong_fib_poly(monkeypatch):
    right = fibpoly.fib_poly
    monkeypatch.setattr(fibpoly, "fib_poly",
                        lambda n: right(n) + ((1,) if n == 5 else ()))


def _wrong_euler_mindig(monkeypatch):
    monkeypatch.setattr(cf_engine, "euler_mindig",
                        _off_by_one(cf_engine.euler_mindig))


def _wrong_closed_form(monkeypatch):
    monkeypatch.setattr(hurwitz, "closed_form_convergent",
                        _off_by_one(hurwitz.closed_form_convergent))


def _false_rsum(monkeypatch):
    monkeypatch.setattr(identities, "verify_rsum", lambda n: False)


def _scaled_bessel(monkeypatch):
    right = limits.xi_bessel
    monkeypatch.setattr(limits, "xi_bessel", lambda params, digits: right(
        params, digits) * (1 + Fraction(1, 10 ** 20)))


def _scaled_certify(monkeypatch):
    # a fault every limit route shares: only the convergent bracket sees it
    right = limits._certify
    monkeypatch.setattr(limits, "_certify", lambda *args, **kwargs: right(
        *args, **kwargs) * (1 + Fraction(1, 10 ** 20)))


def _flipped_case_row(monkeypatch):
    first, *rest = classify._CASES["half-odd"]
    monkeypatch.setitem(classify._CASES, "half-odd",
                        (first[:-1] + ("integer",), *rest))


FAULTS = {  # test id: (suite, fault)
    "fibpoly": ("fibpoly", _wrong_fib_poly),
    "cf": ("cf", _wrong_euler_mindig),
    "hurwitz": ("hurwitz", _wrong_closed_form),
    "identities": ("identities", _false_rsum),
    "limits": ("limits", _scaled_bessel),
    "limits-certify": ("limits", _scaled_certify),
    "classify": ("classify", _flipped_case_row),
}


def test_every_suite_has_a_fault():
    suites = [name for name, _ in FAULTS.values()]
    assert list(dict.fromkeys(suites)) == list(checks.SUITES)


@pytest.mark.parametrize("fault_id", list(FAULTS))
def test_suite_reports_a_planted_fault(monkeypatch, fault_id):
    name, fault = FAULTS[fault_id]
    fault(monkeypatch)
    assert checks.SUITES[name](8) != []
