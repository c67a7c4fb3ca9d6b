"""The deterministic identity suites behind ``hurwitzcf verify``.

Each suite takes ``n_max`` and returns the list of its failures, empty when
every check holds; ``SUITES`` names them in the order ``verify`` runs them.
The suites call the package through module attributes, so a patched
function is the one they check.
"""

from __future__ import annotations

from . import cf_engine, classify, fibpoly, hurwitz, identities, limits


def fibpoly_suite(n_max: int) -> list[str]:
    fails = []
    for n in range(2, n_max + 1):
        for fam, seed in (("F", fibpoly.fib_poly), ("L", fibpoly.lucas_poly)):
            got = seed(n)
            want = tuple(fibpoly.poly_add(
                fibpoly._shift_q(list(seed(n - 1))), list(seed(n - 2))))
            if got != want:
                fails.append(f"{fam}_{n} recurrence")
    for n in range(1, min(n_max, 18) + 1):
        if fibpoly.fib_via_even_sets(n) != fibpoly.fib_poly(n):
            fails.append(f"even-set form of F_{n}")
    return fails


def cf_suite(n_max: int) -> list[str]:
    fails = []
    streams = {
        "e": [2, 1, 2, 1, 1, 4, 1, 1, 6, 1, 1, 8, 1, 1, 10, 1, 1, 12, 1],
        "tan1": [1, 1, 1, 3, 1, 5, 1, 7, 1, 9, 1, 11, 1, 13, 1, 15, 1, 17, 1],
    }
    for name, a in streams.items():
        s = cf_engine.stream_from_list(a)
        convs = cf_engine.convergents(s, len(a) - 1)
        for n in range(min(len(a) - 1, 14) + 1):
            em = cf_engine.euler_mindig(s, n)
            if (em.p, em.q) != (convs[n + 1].p, convs[n + 1].q):
                fails.append(f"{name}: Euler-Mindig at n={n}")
        for n in range(1, len(a) - 1):
            if not cf_engine.shift_check(s, n):
                fails.append(f"{name}: shift at n={n}")
    return fails


def hurwitz_suite(n_max: int) -> list[str]:
    fails = []
    for alpha in (1, 2):
        for d in (1, 2, 3):
            for r in range(d):
                params = hurwitz.CFParams(alpha, 2, 2, d, r)
                ps = hurwitz.prec_recurrence_p(params, n_max)
                stream = hurwitz.denom_stream(params)
                convs = cf_engine.convergents(stream,
                                              max(0, n_max * d + r - 1))
                for n in range(n_max + 1):
                    cf = hurwitz.closed_form_convergent(params, n)
                    idx = n * d + r - 1
                    ref = convs[idx + 1]
                    if (cf.p, cf.q) != (ref.p, ref.q) or ps[n] != ref.p:
                        fails.append(f"{params} n={n}")
    return fails


def identities_suite(n_max: int) -> list[str]:
    from fractions import Fraction
    fails = []
    for n in range(n_max + 1):
        if not identities.verify_rsum(n):
            fails.append(f"R-sum at n={n}")
        if not identities.verify_ssum(n):
            fails.append(f"S-sum at n={n}")
    for n in range(1, min(n_max, 12) + 1):
        if not identities.gcf_convergent_check(n, Fraction(1, 16)):
            fails.append(f"generalized-fraction check at n={n}")
    return fails


def _outside_bracket(params, **values) -> list[str]:
    """The values (balls) that miss the convergent bracket of params: the
    limit lies between p_N/q_N and p_{N+1}/q_{N+1}, taken at the first N
    with q_N q_{N+1} > 10^27.  Only the definition is used: no series."""
    from fractions import Fraction
    a = hurwitz.denom_stream(params)
    n, p0, q0, p1, q1 = 0, 1, 0, a(0), 1  # p_{n-1}, q_{n-1}, p_n, q_n
    while q0 * q1 <= 10 ** 27:
        n += 1
        p0, q0, p1, q1 = p1, q1, a(n) * p1 + p0, a(n) * q1 + q0
    lo, hi = sorted((Fraction(p0, q0), Fraction(p1, q1)))
    return [f"{name} outside the convergent bracket at {params}"
            for name, v in values.items() if not (v.lo <= hi and lo <= v.hi)]


def limits_suite(n_max: int) -> list[str]:
    from fractions import Fraction
    fails = []
    for b0, b1 in ((1, 1), (3, 2), (5, 3)):
        lehmer = limits.lehmer_d1(b0, b1, 25)
        perron = limits.perron_d1(b0, b1, 25)
        if abs(lehmer.value - perron.value) > Fraction(1, 10 ** 24):
            fails.append(f"lehmer vs perron at ({b0},{b1})")
        fails += _outside_bracket(hurwitz.CFParams(1, b0, b1, 1, 0),
                                  lehmer=lehmer, perron=perron)
    # sigma 3/2 (I- and J-form), 1/2 (no walk), 7/2 (three steps up) and
    # 203/2 (a walk of 101 steps)
    for t in ((1, 2, 2, 3, 2), (1, 1, 2, 2, 1), (1, 1, 6, 2, 0),
              (4, 3, 1, 2, 1), (1, 201, 2, 2, 1)):
        params = hurwitz.CFParams(*t)
        a = limits.xi_limit(params, 25)
        b = limits.xi_bessel(params, 25)
        if abs(a.value - b.value) > Fraction(1, 10 ** 24):
            fails.append(f"series vs bessel at {params}")
        fails += _outside_bracket(params, series=a, bessel=b)
    return fails


def classify_suite(n_max: int) -> list[str]:
    return [str(m) for m in classify.brute_force_sweep(8, 5, 8).mismatches]


SUITES = {
    "fibpoly": fibpoly_suite,
    "cf": cf_suite,
    "hurwitz": hurwitz_suite,
    "identities": identities_suite,
    "limits": limits_suite,
    "classify": classify_suite,
}
