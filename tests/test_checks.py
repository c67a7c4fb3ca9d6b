"""The verify suites pass on the package and report a planted fault.

Each fault is planted on the module attribute that the suite calls; the
independent end-to-end checks stay in test_acceptance.py.
"""

from fractions import Fraction

import pytest

from hurwitzcf import (cf_engine, checks, classify, fibpoly, hurwitz,
                       identities, limits)
from hurwitzcf.exactnum import PrecReal


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


def _false_shift(monkeypatch):
    monkeypatch.setattr(cf_engine, "shift_check", lambda a, n: False)


def _wrong_closed_form(monkeypatch):
    monkeypatch.setattr(hurwitz, "closed_form_convergent",
                        _off_by_one(hurwitz.closed_form_convergent))


def _false_rsum(monkeypatch):
    monkeypatch.setattr(identities, "verify_rsum", lambda n: False)


def _false_ssum(monkeypatch):
    monkeypatch.setattr(identities, "verify_ssum", lambda n: False)


def _false_gcf(monkeypatch):
    monkeypatch.setattr(identities, "gcf_convergent_check", lambda n, x: False)


def _scaled(fn):
    # the ball times 1 + 10^-20, rebuilt from its Fraction views
    def wrong(*args, **kwargs):
        ball = fn(*args, **kwargs)
        v, r = (x * (1 + Fraction(1, 10 ** 20))
                for x in (ball.value, ball.err))
        return PrecReal._ratio(v.numerator, v.denominator, r.numerator,
                               r.denominator, ball.prec)
    return wrong


def _scaled_perron(monkeypatch):
    monkeypatch.setattr(limits, "perron_d1", _scaled(limits.perron_d1))


def _scaled_bessel(monkeypatch):
    monkeypatch.setattr(limits, "xi_bessel", _scaled(limits.xi_bessel))


def _wrong_walk_step(monkeypatch):
    # the last step up takes (2j + 3)/z where (2j + 1)/z belongs
    right = limits._half_odd_walk

    def wrong(s, k, z):
        if k < 1:
            return right(s, k, z)
        (a, b), (c, d), den = right(s, k - 1, z)
        zn, zd = z
        m = (2 * k + 1) * zd
        return ((zn * c, zn * d), (s * (zn * a - m * c), s * (zn * b - m * d)),
                den * zn)

    monkeypatch.setattr(limits, "_half_odd_walk", wrong)


def _scaled_certify(monkeypatch):
    # a fault every limit route shares: only the convergent bracket sees it
    monkeypatch.setattr(limits, "_certify", _scaled(limits._certify))


def _scaled_quotient(monkeypatch):
    # the one attempt that xi_limit and xi_bessel share: they still agree
    monkeypatch.setattr(limits, "_attempt", _scaled(limits._attempt))


def _flipped_case_row(monkeypatch):
    first, *rest = classify._CASES["half-odd"]
    monkeypatch.setitem(classify._CASES, "half-odd",
                        (first[:-1] + ("integer",), *rest))


FAULTS = {  # test id: (suite, fault, a failure it must report)
    "fibpoly": ("fibpoly", _wrong_fib_poly, "F_5 recurrence"),
    "cf": ("cf", _wrong_euler_mindig, "e: Euler-Mindig at n=0"),
    "cf-shift": ("cf", _false_shift, "shift at n="),
    "hurwitz": ("hurwitz", _wrong_closed_form, "d=1, r=0) n=0"),
    "identities": ("identities", _false_rsum, "R-sum at n="),
    "identities-ssum": ("identities", _false_ssum, "S-sum at n="),
    "identities-gcf": ("identities", _false_gcf,
                       "generalized-fraction check at n="),
    "limits": ("limits", _scaled_bessel, "series vs bessel at"),
    "limits-walk": ("limits", _wrong_walk_step, "series vs bessel at"),
    "limits-certify": ("limits", _scaled_certify,
                       "lehmer outside the convergent bracket"),
    "limits-perron": ("limits", _scaled_perron, "lehmer vs perron at"),
    "limits-quotient": ("limits", _scaled_quotient,
                        "series outside the convergent bracket"),
    "classify": ("classify", _flipped_case_row, "'tag': 'integer'"),
}


def test_every_suite_has_a_fault():
    suites = [name for name, _, _ in FAULTS.values()]
    assert list(dict.fromkeys(suites)) == list(checks.SUITES)


@pytest.mark.parametrize("fault_id", list(FAULTS))
def test_suite_reports_a_planted_fault(monkeypatch, fault_id):
    name, fault, message = FAULTS[fault_id]
    fault(monkeypatch)
    assert any(message in fail for fail in checks.SUITES[name](8))
