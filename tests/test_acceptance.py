"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with -s to see them) and enforces
the stated tolerance and runtime budget.
"""

import itertools
import time
from fractions import Fraction

from hurwitzcf.cf_engine import convergents, euler_mindig
from hurwitzcf.classify import brute_force_sweep
from hurwitzcf.fibpoly import fib_eval
from hurwitzcf.hurwitz import (CFParams, closed_form_convergent, denom_stream,
                               normalized_numerator, prec_recurrence_p)
from hurwitzcf.identities import (eval_unipoly, p_poly, q_poly, verify_rsum,
                                  verify_ssum)
from hurwitzcf.limits import lehmer_d1, perron_d1, xi_bessel, xi_limit
from reference import (exp_ref, falling_factorial, series_ab_ref, sigma_rho,
                       taylor_ref, wlang_limit_check)

F = Fraction


def _report(name: str, ok: bool, detail: str = ""):
    tail = f"  ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}: {name}{tail}")
    assert ok, name


def test_criterion_1_e_minus_one():
    t0 = time.time()
    params = CFParams(1, 2, 2, 3, 2)
    v = xi_limit(params, 30)
    # within e 10^-79 (stdlib Decimal.exp), far below 1/q_60^2 ~ 1e-62
    ref, ref_err = exp_ref(1, 80) - 1, F(1, 10 ** 78)
    tol_ok = abs(v.value - ref) + v.err + ref_err < F(1, 10 ** 28)

    convs = convergents(denom_stream(params), 60)
    c = convs[-1]
    assert c.n == 60
    bracket_ok = abs(ref - F(c.p, c.q)) + ref_err < F(1, c.q ** 2)
    elapsed = time.time() - t0
    _report("e-1 limit to 1e-28 and 60th-convergent bracket",
            tol_ok and bracket_ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_2_tan_one():
    t0 = time.time()
    v = xi_limit(CFParams(1, 1, 2, 2, 1), 30)
    # sin 1, cos 1 within 10^-60 each (Decimal Taylor sums), cos 1 > 1/2
    ref = taylor_ref(F(1), True, -1, 60) / taylor_ref(F(1), False, -1, 60)
    ok = abs(v.value - ref) + v.err + F(1, 10 ** 58) < F(1, 10 ** 28)
    elapsed = time.time() - t0
    _report("tan(1) limit to 1e-28", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_3_ugly_example():
    params = CFParams(4, 3, 1, 2, 1)
    v = xi_limit(params, 20)
    # sin, cos within 10^-60 each; 53 c - 97 s is about 0.0127, so the
    # quotient is within 10^-55
    s, c = (taylor_ref(F(1, 2), odd, -1, 60) for odd in (True, False))
    ref = 4 * (11 * s - 6 * c) / (53 * c - 97 * s)
    tol_ok = abs(v.value - ref) + v.err + F(1, 10 ** 55) < F(1, 10 ** 18)

    convs = convergents(denom_stream(params), 11)  # 12 partial denominators
    a, b = convs[-2], convs[-1]
    lo, hi = sorted((F(a.p, a.q), F(b.p, b.q)))
    sandwich_ok = lo < v.lo and v.hi < hi
    _report("closed-form value of [4,3,4,4,4,5,...] to 1e-18 with "
            "12-denominator sandwich", tol_ok and sandwich_ok)


def test_criterion_4_three_way_and_euler_mindig():
    t0 = time.time()
    for a, b0, b1, d in itertools.product(range(1, 5), range(1, 5),
                                          range(1, 5), range(1, 5)):
        for r in range(d):
            params = CFParams(a, b0, b1, d, r)
            stream = denom_stream(params)
            convs = convergents(stream, max(18, 15 * d + r - 1))
            ps = prec_recurrence_p(params, 15)
            for n in range(16):
                cf = closed_form_convergent(params, n)
                ref = convs[cf.n + 1]
                assert (cf.p, cf.q) == (ref.p, ref.q), (params, n)
                assert ps[n] == ref.p, (params, n)
            for idx in range(19):
                em = euler_mindig(stream, idx)
                ref = convs[idx + 1]
                assert (em.p, em.q) == (ref.p, ref.q), (params, idx)
    elapsed = time.time() - t0
    _report("three-way convergent agreement on the full grid plus "
            "Euler-Mindig to index 18", elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_5_identity_suites():
    t0 = time.time()
    sums_ok = all(verify_rsum(n) and verify_ssum(n) for n in range(21))

    pq_ok = True
    for m in (2, 3, 4):
        params = CFParams(1, m - 1, m, 3, 2)
        x = F(1, 4 * m * m)
        convs = convergents(denom_stream(params), 31)
        for n in range(11):
            ref = convs[3 * n + 2]
            pq_ok &= F(ref.p) == 2 * (2 * m) ** n * eval_unipoly(q_poly(n), x)
            pq_ok &= F(ref.q) == (2 * m) ** n * (
                2 * m * eval_unipoly(p_poly(n), x)
                + eval_unipoly(q_poly(n), x))
    elapsed = time.time() - t0
    _report("bivariate summation lemmas n<=20 and every-third-convergent "
            "identities m in {2,3,4}, n<=10",
            sums_ok and pq_ok and elapsed < 30.0, f"{elapsed:.1f}s")


def test_criterion_6_classification_sweep():
    t0 = time.time()
    report = brute_force_sweep(60, 12, 20)
    elapsed = time.time() - t0
    ok = (not report.mismatches
          and all(c > 0 for c in report.half_odd_case_hits)
          and all(c > 0 for c in report.integer_case_hits)
          and elapsed < 60.0)
    _report("classification sweep alpha<=60, d<=12, beta<=20 with all "
            "cases exercised", ok,
            f"{report.tuples_checked} tuples, {elapsed:.1f}s")


# every worked example from the half-odd and integer sections
_EXAMPLES = (
    [CFParams(1, 3 * m - 1, 2 * m, 3, 2) for m in (1, 2, 3)]      # sinh family
    + [CFParams(1, 3 * m - 2, 2 * m, 2, 1) for m in (1, 2, 3)]    # sin family
    + [CFParams(4, 7 * m + 3, 2 * m + 1, 2, 1) for m in (0, 1)]   # sigma 7/2
    + [CFParams(1, m - 1, m, 3, 2) for m in (2, 3, 4)]            # integer sigma
    + [CFParams(1, 1, 1, 3, 2), CFParams(2, 1, 1, 2, 0)]
)


def test_criterion_7_cross_formula_consistency():
    ratio_ok = True
    for b0, b1 in ((1, 1), (3, 2), (5, 3), (7, 4)):
        a = lehmer_d1(b0, b1, 25)
        b = perron_d1(b0, b1, 25)
        ratio_ok &= abs(a.value - b.value) + a.err + b.err < F(1, 10 ** 25)

    xi_ok = bracket_ok = True
    for params in _EXAMPLES:
        u = xi_bessel(params, 25)
        v = xi_limit(params, 25)
        xi_ok &= abs(u.value - v.value) + u.err + v.err < F(1, 10 ** 24)
        # off half-odd sigma u is v, so also check both against the
        # convergents p_N/q_N, p_{N+1}/q_{N+1} that bracket the limit, at
        # the first N with q_N q_{N+1} > 10**27 (no code shared with series)
        convs = convergents(denom_stream(params), 200)[1:]
        c, c1 = next((c, c1) for c, c1 in zip(convs, convs[1:])
                     if c.q * c1.q > 10 ** 27)
        lo, hi = sorted((F(c.p, c.q), F(c1.p, c1.q)))
        bracket_ok &= all(w.lo <= hi and lo <= w.hi for w in (u, v))
    _report("arithmetic-progression fraction by two formulas to 25 digits, "
            "Bessel = series limit on all worked examples, and both inside "
            "the convergent bracket", ratio_ok and xi_ok and bracket_ok)


def test_criterion_8_gcf_limit():
    ok = wlang_limit_check(2, 50, 20) and wlang_limit_check(3, 40, 15)
    _report("generalized-fraction limit check at (m=2,n=50,d=20) and "
            "(m=3,n=40,d=15)", ok)


def _normalized_deviation(params: CFParams, n: int) -> Fraction:
    # limit of the normalized numerator: F_{r+1} A + s F_{d-r-1} F_d b1 B
    sigma, rho = sigma_rho(params)
    A, B, err = series_ab_ref(sigma, rho, 40)
    a, b1, d, r = params.alpha, params.beta1, params.d, params.r
    s = -1 if (d - r) % 2 else 1
    m0 = fib_eval(r + 1, a)
    m1 = s * fib_eval(d - r - 1, a) * fib_eval(d, a) * b1
    lim, lim_err = m0 * A + m1 * B, (abs(m0) + abs(m1)) * err
    p = prec_recurrence_p(params, n)[n]
    fd = fib_eval(d, a)
    norm = F(p) / (F(fd * b1) ** n * falling_factorial(sigma + n - 1, n))
    # the package's 40-digit ball must hold this exact value
    ball = normalized_numerator(params, n, 40)
    assert ball.lo <= norm <= ball.hi, (params, n)
    return abs(norm - lim) + lim_err


def test_criterion_9_normalized_numerator_asymptotics():
    # Known red: for (1,1,2,2,1) the deviation is exactly ~0.20997/n, so at
    # n = 200 it equals 1.0499e-3 and only drops below 1e-3 at n = 210.
    # Everything is exact rational arithmetic (numerator cross-checked against
    # the plain convergent recurrence), so no implementation can meet the
    # stated 1e-3 bound at n = 200 for that parameter tuple; the convergence
    # property itself (deviation shrinking monotonically, e-family within
    # tolerance) does hold.
    ok = True
    details = []
    for params in (CFParams(1, 1, 2, 2, 1), CFParams(1, 2, 2, 3, 2)):
        dev50 = _normalized_deviation(params, 50)
        dev200 = _normalized_deviation(params, 200)
        ok &= dev200 < F(1, 10 ** 3) and dev200 < dev50
        details.append(f"dev@200={float(dev200):.3e} dev@50={float(dev50):.3e}")
    _report("normalized numerators approach the series limit "
            "(closer at n=200 than n=50, within 1e-3)", ok,
            "; ".join(details))
