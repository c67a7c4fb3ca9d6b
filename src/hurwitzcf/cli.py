"""Command-line front end.

Verbs: conv, limit, classify, sweep, verify, poly.  Big integers are always
serialized as decimal strings in JSON output; all numeric inputs are decimal
integers.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from fractions import Fraction

from . import cf_engine, classify, fibpoly, hurwitz, identities, limits
from .errors import HurwitzError, PrecisionExhausted
from .exactnum import int_text


def _add_param_flags(p: argparse.ArgumentParser):
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--b0", type=int, required=True, help="beta0")
    p.add_argument("--b1", type=int, required=True, help="beta1")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)


def _params(args) -> hurwitz.CFParams:
    return hurwitz.CFParams(args.alpha, args.b0, args.b1, args.d, args.r)


def _cmd_conv(args) -> int:
    params = _params(args)
    n = args.n
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    index = n * params.d + params.r - 1
    if index < 0:  # n = 0 and r = 0
        conv = cf_engine.Convergent(-1, 1, 0)
    elif args.method == "closed":
        conv = hurwitz.closed_form_convergent(params, n)
    elif args.method == "recurrence":
        conv = cf_engine._last_convergent(hurwitz.denom_stream(params), index)
    elif args.method == "euler-mindig":
        conv = cf_engine.euler_mindig(hurwitz.denom_stream(params), index)
    else:  # prec-recurrence
        # q_N of [a_0; a_1, ...] is p_{N-1} of [a_1; a_2, ...], which is
        # again in the family: drop one alpha, or at r = 0 drop beta0
        shifted, m = ((replace(params, r=params.r - 1), n) if params.r else
                      (replace(params, beta0=params.beta0 + params.beta1,
                               r=params.d - 1), n - 1))
        conv = cf_engine.Convergent(
            index, hurwitz.prec_recurrence_p(params, n)[n],
            hurwitz.prec_recurrence_p(shifted, m)[m])
    p, q = int_text(conv.p), int_text(conv.q)
    if args.json:
        print(json.dumps({"params": asdict(params), "index": conv.n,
                          "p": p, "q": q}))
    else:
        print(f"index={conv.n} p={p} q={q}")
    return 0


def _cmd_limit(args) -> int:
    params = _params(args)
    if args.method == "series":
        val = limits.xi_limit(params, args.digits)
    elif args.method == "bessel":
        val = limits.xi_bessel(params, args.digits)
    else:  # elementary: force the half-odd closed-form route
        sigma = hurwitz.magic(params).sigma
        if hurwitz.sigma_tag(sigma.numerator, sigma.denominator) != "half-odd":
            print(f"error: sigma={sigma} is not half of an odd integer; "
                  "no elementary form", file=sys.stderr)
            return 2
        val = limits.xi_bessel(params, args.digits)
    text = val.decimal(args.digits)
    if args.json:
        print(json.dumps({"params": asdict(params),
                          "digits": args.digits, "value": text,
                          "certified": True}))
    else:
        print(f"{text}  ({args.digits} certified digits)")
    return 0


def _cmd_classify(args) -> int:
    params = _params(args)
    sc = classify.sigma_class(params)
    out = {"params": asdict(params), "sigma": str(sc.witness),
           "tag": sc.tag}
    if params.d >= 2:
        out["theorem_half_odd"] = classify.theorem61_predicate(params)
        out["theorem_integer"] = classify.theorem71_predicate(params)
    if args.json:
        print(json.dumps(out))
    else:
        for k, v in out.items():
            print(f"{k}: {v}")
    return 0


def _cmd_sweep(args) -> int:
    report = classify.brute_force_sweep(args.alpha_max, args.d_max,
                                        args.beta_max,
                                        raise_on_mismatch=False)
    doc = report.to_dict()
    if args.json:
        print(json.dumps(doc))
    else:
        print(f"checked {doc['tuples_checked']} tuples")
        for theorem, cases in doc["cases"].items():
            for name, count in cases.items():
                print(f"  [{theorem}] {name}: {count}")
        print(f"mismatches: {len(doc['mismatches'])}")
    return 1 if doc["mismatches"] else 0


def _cmd_poly(args) -> int:
    fam = args.family
    rows = []
    for n in range(args.n_max + 1):
        if fam == "fib":
            coeffs = list(fibpoly.fib_poly(n))
        elif fam == "lucas":
            coeffs = list(fibpoly.lucas_poly(n))
        elif fam == "p":
            coeffs = identities.p_poly(n)
        else:
            coeffs = identities.q_poly(n)
        rows.append([str(c) for c in coeffs])
    if args.json:
        print(json.dumps({"family": fam, "coefficients": rows}))
    else:
        for n, row in enumerate(rows):
            print(f"{fam}[{n}]: {' '.join(row) if row else '0'}")
    return 0


# ---------------------------------------------------------------------------
# verify suites (deterministic, side-effect free)


def _suite_fibpoly(n_max: int) -> list[str]:
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


def _suite_cf(n_max: int) -> list[str]:
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


def _suite_hurwitz(n_max: int) -> list[str]:
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


def _suite_identities(n_max: int) -> list[str]:
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


def _suite_limits(n_max: int) -> list[str]:
    fails = []
    for b0, b1 in ((1, 1), (3, 2), (5, 3)):
        lehmer = limits.lehmer_d1(b0, b1, 25)
        perron = limits.perron_d1(b0, b1, 25)
        if abs(lehmer.value - perron.value) > Fraction(1, 10 ** 24):
            fails.append(f"lehmer vs perron at ({b0},{b1})")
    for params in (hurwitz.CFParams(1, 2, 2, 3, 2),
                   hurwitz.CFParams(1, 1, 2, 2, 1)):
        a = limits.xi_limit(params, 25)
        b = limits.xi_bessel(params, 25)
        if abs(a.value - b.value) > Fraction(1, 10 ** 24):
            fails.append(f"series vs bessel at {params}")
    return fails


def _suite_classify(n_max: int) -> list[str]:
    report = classify.brute_force_sweep(8, 5, 8, raise_on_mismatch=False)
    return [str(m) for m in report.mismatches]


_SUITES = {
    "fibpoly": _suite_fibpoly,
    "cf": _suite_cf,
    "hurwitz": _suite_hurwitz,
    "identities": _suite_identities,
    "limits": _suite_limits,
    "classify": _suite_classify,
}


def _cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    any_fail = False
    for name in names:
        fails = _SUITES[name](args.n_max)
        status = "ok" if not fails else "FAIL"
        print(f"suite {name}: {status}")
        for f in fails:
            any_fail = True
            print(f"  {f}")
    return 1 if any_fail else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hurwitzcf")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("conv", help="one convergent by a chosen method")
    _add_param_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", default="recurrence",
                   choices=["recurrence", "closed", "euler-mindig",
                            "prec-recurrence"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_conv)

    p = sub.add_parser("limit", help="certified digits of the limit")
    _add_param_flags(p)
    p.add_argument("--digits", type=int, required=True)
    p.add_argument("--method", default="series",
                   choices=["series", "bessel", "elementary"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("classify", help="sigma class of one parameter tuple")
    _add_param_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("sweep", help="brute-force theorem confirmation")
    p.add_argument("--alpha-max", type=int, default=20)
    p.add_argument("--d-max", type=int, default=8)
    p.add_argument("--beta-max", type=int, default=10)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="run a deterministic identity suite")
    p.add_argument("--suite", default="all",
                   choices=sorted(_SUITES) + ["all"])
    p.add_argument("--n-max", type=int, default=12)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("poly", help="dump coefficient tables")
    p.add_argument("--family", required=True,
                   choices=["fib", "lucas", "p", "q"])
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_poly)
    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, PrecisionExhausted) as e:
        # bad input, or a request beyond the HURWITZ_MAX_PRECISION cap
        print(f"error: {e}", file=sys.stderr)
        return 2
    except HurwitzError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
