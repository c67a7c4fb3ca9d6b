"""Command-line front end.

Verbs: conv, limit, classify, sweep, verify, poly.  The methods of conv and
limit and the families of poly are tables here, and their --method and
--family choices are the tables' keys; the verify suites are
``checks.SUITES``.  Big integers are always serialized as decimal strings in
JSON output; all numeric inputs are decimal integers.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import cf_engine, checks, classify, fibpoly, hurwitz, identities, limits
from .errors import HurwitzError, IndexTooLarge, PrecisionExhausted
from .exactnum import _fraction_text, _ratio_text, int_text


def _add_param_flags(p: argparse.ArgumentParser):
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--b0", type=int, required=True, help="beta0")
    p.add_argument("--b1", type=int, required=True, help="beta1")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)


def _params(args) -> hurwitz.CFParams:
    return hurwitz.CFParams(args.alpha, args.b0, args.b1, args.d, args.r)


def _print(args, doc: dict, lines) -> None:
    """The JSON document under --json, else the text lines."""
    if args.json:
        import json  # here only: most requests print text
        print(json.dumps(doc))
    else:
        print("\n".join(lines))


def _prec_recurrence(params, n: int, index: int) -> cf_engine.Convergent:
    """p and q both from the compact recurrence: q_N of [a_0; a_1, ...] is
    p_{N-1} of [a_1; a_2, ...], which is again in the family: drop one
    alpha, or at r = 0 drop beta0."""
    shifted, m = ((params.replace(r=params.r - 1), n) if params.r else
                  (params.replace(beta0=params.beta0 + params.beta1,
                                  r=params.d - 1), n - 1))
    return cf_engine.Convergent(index, hurwitz.prec_recurrence_p(params, n)[n],
                                hurwitz.prec_recurrence_p(shifted, m)[m])


def _sigma(params) -> tuple[hurwitz.SigmaTag, str]:
    """sigma's tag and text from its integer pair: classify.sigma_class
    without the Fraction, so that no request but verify imports fractions."""
    (p, q), _ = hurwitz.magic_pairs(params)
    return hurwitz.sigma_tag(p, q), _ratio_text(p, q)


def _elementary(params, digits: int):
    """The half-odd closed-form route; refused at any other sigma."""
    tag, sigma = _sigma(params)
    if tag != "half-odd":
        raise ValueError(f"sigma={sigma} is not half of an odd integer; no "
                         "elementary form")
    return limits.xi_bessel(params, digits)


# The method and family tables.  Each entry looks its function up when
# called, so a patched module attribute is the one that runs.
_CONV = {  # (params, n, index) -> convergent `index`
    "recurrence": lambda params, n, index: cf_engine._last_convergent(
        hurwitz.denom_stream(params), index),
    "closed": lambda params, n, index: hurwitz.closed_form_convergent(
        params, n),
    "euler-mindig": lambda params, n, index: cf_engine.euler_mindig(
        hurwitz.denom_stream(params), index),
    "prec-recurrence": _prec_recurrence,
}
_LIMIT = {  # (params, digits) -> certified ball
    "series": lambda params, digits: limits.xi_limit(params, digits),
    "bessel": lambda params, digits: limits.xi_bessel(params, digits),
    "elementary": _elementary,
}
_POLY = {  # n -> coefficients, low order first
    "fib": lambda n: fibpoly.fib_poly(n),
    "lucas": lambda n: fibpoly.lucas_poly(n),
    "p": lambda n: identities.p_poly(n),
    "q": lambda n: identities.q_poly(n),
}


def _cmd_conv(args) -> int:
    params = _params(args)
    n = args.n
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    index = n * params.d + params.r - 1
    conv = (cf_engine.Convergent(-1, 1, 0) if index < 0  # n = 0 and r = 0
            else _CONV[args.method](params, n, index))
    p, q = int_text(conv.p), int_text(conv.q)
    _print(args, {"params": params.asdict(), "index": conv.n, "p": p, "q": q},
           [f"index={conv.n} p={p} q={q}"])
    return 0


def _cmd_limit(args) -> int:
    params, digits = _params(args), args.digits
    # only digits on which both ends of the ball agree are printed: a ball
    # across a rounding boundary is recomputed at twice the digits, under
    # the precision cap of limits._certify
    while (text := _LIMIT[args.method](params, digits).decimal(
            args.digits, certified=True)) is None:
        digits *= 2
    _print(args, {"params": params.asdict(), "digits": args.digits,
                  "value": text, "certified": True},
           [f"{text}  ({args.digits} certified digits)"])
    return 0


def _cmd_classify(args) -> int:
    params = _params(args)
    tag, sigma = _sigma(params)
    out = {"params": params.asdict(), "sigma": sigma, "tag": tag}
    if params.d >= 2:
        out["theorem_half_odd"] = classify.theorem61_predicate(params)
        out["theorem_integer"] = classify.theorem71_predicate(params)
    _print(args, out, [f"{k}: {v}" for k, v in out.items()])
    return 0


def _cmd_sweep(args) -> int:
    doc = classify.brute_force_sweep(args.alpha_max, args.d_max,
                                     args.beta_max).to_dict()
    _print(args, doc, [
        f"checked {doc['tuples_checked']} tuples",
        *(f"  [{theorem}] {name}: {count}"
          for theorem, cases in doc["cases"].items()
          for name, count in cases.items()),
        f"mismatches: {len(doc['mismatches'])}"])
    return 1 if doc["mismatches"] else 0


def _cmd_poly(args) -> int:
    fam = args.family
    rows = [[_fraction_text(c) for c in _POLY[fam](n)]
            for n in range(args.n_max + 1)]
    _print(args, {"family": fam, "coefficients": rows},
           [f"{fam}[{n}]: {' '.join(row) or '0'}"
            for n, row in enumerate(rows)])
    return 0


def _cmd_verify(args) -> int:
    names = list(checks.SUITES) if args.suite == "all" else [args.suite]
    any_fail = False
    for name in names:
        fails = checks.SUITES[name](args.n_max)
        print(f"suite {name}: {'FAIL' if fails else 'ok'}")
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
    p.add_argument("--method", default="recurrence", choices=list(_CONV))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_conv)

    p = sub.add_parser("limit", help="certified digits of the limit")
    _add_param_flags(p)
    p.add_argument("--digits", type=int, required=True)
    p.add_argument("--method", default="series", choices=list(_LIMIT))
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
                   choices=sorted(checks.SUITES) + ["all"])
    p.add_argument("--n-max", type=int, default=12, help="bounds the fibpoly,"
                   " hurwitz and identities suites (others run fixed cases)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("poly", help="dump coefficient tables")
    p.add_argument("--family", required=True, choices=list(_POLY))
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
        if getattr(args, "n_max", 0) < 0:  # verify and poly
            raise ValueError(f"n-max must be >= 0, got {args.n_max}")
        return args.func(args)
    except (ValueError, IndexTooLarge, PrecisionExhausted) as e:
        # bad input, an index beyond the Euler-Mindig guard, or a request
        # beyond the HURWITZ_MAX_PRECISION cap
        print(f"error: {e}", file=sys.stderr)
        return 2
    except HurwitzError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left early, as `| head -1` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1  # stdout is devnull now, so the flush at exit cannot fail
    sys.exit(code)


if __name__ == "__main__":
    main()
