"""The four workloads: inputs made from the seed, the operations that feed
them to hurwitzcf, and the checks on what comes back.

Inputs are plain tuples made here from ``--seed``; the program only ever
receives those.  The seed jitters sizes by at most two percent and
reorders the operations, so each workload does the same amount of work
whatever the seed, while no two seeds ask for the same values.  Checks
use ``refs`` only, never hurwitzcf.  hurwitzcf is imported inside the
functions that make the operations, so run.py and the self-tests import
this module without loading the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

import refs

WORKLOADS = ("limits-deep", "convergents-deep", "oracles", "cli")


class OpFailed(Exception):
    """An operation did not produce a result (counted in ``failed``)."""


@dataclass
class Op:
    """One operation: ``run`` is the timed call into the program, ``digest``
    reduces its output (untimed) and ``check`` returns error strings."""
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    digest: Callable[[object], object] = lambda result: result


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# limits-deep: certified limits at 1000 to 3000 digits

# (tuple, digits before jitter).  Together they cover every sigma class,
# d = 1..4, and both the I-form (odd d) and the J-form (even d).
LIMIT_CASES = (
    ((1, 2, 2, 3, 2), 3000),  # e - 1: sigma 3/2, d = 3
    ((1, 1, 2, 2, 1), 2500),  # tan 1: sigma 3/2, d = 2
    ((4, 3, 1, 2, 1), 2000),  # sigma 7/2, d = 2
    ((1, 3, 2, 3, 1), 2000),  # integer sigma 2, d = 3
    ((2, 3, 1, 2, 0), 1000),  # integer sigma 4, d = 2
    ((1, 3, 2, 1, 0), 1500),  # sigma 3/2, d = 1
    ((2, 5, 3, 1, 0), 1000),  # sigma 5/3, d = 1
    ((1, 1, 1, 4, 0), 1500),  # sigma 7/3, d = 4
    ((2, 1, 3, 4, 2), 1000),  # sigma 11/18, d = 4
    ((3, 2, 5, 3, 1), 1500),  # sigma 13/25, d = 3
)


def limits_deep_inputs(seed: int) -> list:
    rng = rng_for("limits-deep", seed)
    inputs = [(method, t, digits + rng.randrange(10))
              for t, digits in LIMIT_CASES
              for method in ("xi_limit", "xi_bessel")]
    rng.shuffle(inputs)
    return inputs


def _limit_op(method: str, t, digits: int) -> Op:
    from hurwitzcf import hurwitz, limits
    params = hurwitz.CFParams(*t)
    return Op(f"{method}{t} D={digits}",
              lambda: getattr(limits, method)(params, digits).decimal(digits),
              lambda text: refs.check_limit_text(t, digits, text))


def limits_deep_ops(seed: int) -> list:
    return [_limit_op(*args) for args in limits_deep_inputs(seed)]


# ---------------------------------------------------------------------------
# convergents-deep: exact convergents at large and moderate indices

DEEP_INDEX = (((1, 2, 2, 3, 2), 20000), ((2, 1, 1, 2, 1), 12000))
CLOSED_CASES = ((1, 2, 2, 3, 2), (1, 1, 2, 2, 1), (2, 1, 1, 2, 1),
                (3, 2, 5, 3, 1))
CLOSED_N = (120, 200)
PREC_CASES = (((1, 2, 2, 3, 2), 150), ((2, 1, 1, 2, 1), 150),
              ((3, 2, 5, 3, 1), 140))


def convergents_deep_inputs(seed: int) -> list:
    rng = rng_for("convergents-deep", seed)
    inputs = []
    for t, index in DEEP_INDEX:
        inputs.append(("convergents", t, index + rng.randrange(100)))
    for t in CLOSED_CASES:
        for n in CLOSED_N:
            inputs.append(("closed_form_convergent", t, n + rng.randrange(3)))
    for t, n in PREC_CASES:
        inputs.append(("prec_recurrence_p", t, n + rng.randrange(3)))
    rng.shuffle(inputs)
    return inputs


def _convergents_digest(res) -> tuple:
    """Length, the last two convergents, and every entry modulo
    refs.RESIDUE_MODULUS (which is what hash() of a non-negative int is)."""
    return (len(res), tuple(tuple(c) for c in res[-2:]),
            tuple((c.n, hash(c.p), hash(c.q)) for c in res))


def _check_convergents(t, index, digest) -> list:
    length, tail, residues = digest
    ref = refs.convergents(t, index)
    errors = []
    if length != index + 2:
        errors.append(f"convergents{t} N={index}: {length} entries")
    if list(tail) != [(index - 1, *ref[index - 1]), (index, *ref[index])]:
        errors.append(f"convergents{t} N={index}: last two differ")
    (_, p_prev, q_prev), (_, p_n, q_n) = tail
    if p_n * q_prev - p_prev * q_n != (-1) ** (index + 1):
        errors.append(f"convergents{t} N={index}: determinant is not "
                      f"(-1)^(N+1)")
    m = refs.RESIDUE_MODULUS
    if any((p1 * q0 - p0 * q1 - (-1) ** (n + 1)) % m
           for (_, p0, q0), (n, p1, q1) in zip(residues, residues[1:])):
        errors.append(f"convergents{t} N={index}: determinant identity "
                      "fails at some index")
    if list(residues) != refs.convergent_residues(t, index):
        errors.append(f"convergents{t} N={index}: some entry differs from "
                      "the recurrence")
    return errors


def _check_closed(t, n, conv) -> list:
    index = n * t[3] + t[4] - 1
    want = (index, *refs.convergents(t, index)[index])
    return [] if tuple(conv) == want else [
        f"closed_form_convergent{t} n={n}: differs from the recurrence"]


def _check_prec(t, n, ps) -> list:
    d, r = t[3], t[4]
    indices = [k * d + r - 1 for k in range(n + 1)]
    ref = refs.convergents(t, indices[-1], keep=indices)
    want = [ref[i][0] for i in indices]
    return [] if list(ps) == want else [
        f"prec_recurrence_p{t} n={n}: differs from the recurrence"]


def _prec_op(t, n: int) -> Op:
    from hurwitzcf import hurwitz
    params = hurwitz.CFParams(*t)
    return Op(f"prec_recurrence_p{t} n={n}",
              lambda: hurwitz.prec_recurrence_p(params, n),
              lambda ps: _check_prec(t, n, ps))


def convergents_deep_ops(seed: int) -> list:
    from hurwitzcf import cf_engine, hurwitz
    ops = []
    for kind, t, n in convergents_deep_inputs(seed):
        params = hurwitz.CFParams(*t)
        if kind == "convergents":
            ops.append(Op(
                f"convergents{t} N={n}",
                lambda p=params, n=n: cf_engine.convergents(
                    hurwitz.denom_stream(p), n),
                lambda dg, t=t, n=n: _check_convergents(t, n, dg),
                _convergents_digest))
        elif kind == "closed_form_convergent":
            ops.append(Op(
                f"closed_form_convergent{t} n={n}",
                lambda p=params, n=n: hurwitz.closed_form_convergent(p, n),
                lambda conv, t=t, n=n: _check_closed(t, n, conv)))
        else:
            ops.append(_prec_op(t, n))
    return ops


# ---------------------------------------------------------------------------
# oracles: many small calls

# (index, calls): the index sets a call's cost.  The 40 calls at n = 14
# hold the middle of the cost ranking, so op_p50_ms reads their time
# rather than flipping between two neighbouring sizes.
EM_CALLS = ((8, 10), (11, 10), (14, 40), (16, 15), (17, 15), (18, 10))
WORKED = ((1, 2, 2, 3, 2), (1, 1, 2, 2, 1), (4, 3, 1, 2, 1))
SWEEP_BOX = (40, 10, 14)
SUM_N = 10
# A call's cost follows its index, d and beta1; the seed draws the other
# parameters, so every seed asks for about the same amount of work.
LEHMER_BETA1 = (1, 2, 3, 1, 2, 3)


def _random_tuple(rng, d: int):
    return (rng.randint(1, 4), rng.randint(1, 6), rng.randint(1, 4), d,
            rng.randrange(d))


def oracles_inputs(seed: int) -> list:
    rng = rng_for("oracles", seed)
    inputs = [("euler_mindig", _random_tuple(rng, 1 + k % 4), n)
              for n, calls in EM_CALLS for k in range(calls)]
    inputs += [(f"verify_{s}sum", n) for n in range(SUM_N + 1)
               for s in "rs"]
    inputs.append(("brute_force_sweep", *SWEEP_BOX))
    for b1 in LEHMER_BETA1:
        b0 = rng.randint(1, 9)
        inputs += [("lehmer_d1", b0, b1), ("perron_d1", b0, b1)]
    inputs += [(method, t) for t in WORKED
               for method in ("xi_limit", "xi_bessel")]
    inputs += [("prec_recurrence_p", _random_tuple(rng, d), 32)
               for d in (1, 2, 3, 4)]
    rng.shuffle(inputs)
    return inputs


def _check_sweep(box, digest) -> list:
    alpha_max, d_max, beta_max = box
    checked, half_hits, int_hits, mismatches = digest
    want = refs.sweep_counts(alpha_max, d_max, beta_max)
    errors = []
    if checked != alpha_max * (d_max - 1) * beta_max ** 2:
        errors.append(f"sweep{box}: checked {checked} tuples")
    if mismatches:
        errors.append(f"sweep{box}: {mismatches} mismatches")
    if not all(half_hits) or not all(int_hits):
        errors.append(f"sweep{box}: a theorem case was never hit")
    if (sum(half_hits), sum(int_hits)) != (want["half-odd"], want["integer"]):
        errors.append(f"sweep{box}: case hits {sum(half_hits)}, "
                      f"{sum(int_hits)} differ from the direct count {want}")
    return errors


def _check_em(t, n, conv) -> list:
    want = (n, *refs.convergents(t, n)[n])
    return [] if tuple(conv) == want else [
        f"euler_mindig{t} n={n}: differs from the recurrence"]


def oracles_ops(seed: int) -> list:
    from hurwitzcf import cf_engine, classify, hurwitz, identities, limits
    ops = []
    for kind, *args in oracles_inputs(seed):
        if kind == "euler_mindig":
            t, n = args
            params = hurwitz.CFParams(*t)
            ops.append(Op(
                f"euler_mindig{t} n={n}",
                lambda p=params, n=n: cf_engine.euler_mindig(
                    hurwitz.denom_stream(p), n),
                lambda conv, t=t, n=n: _check_em(t, n, conv)))
        elif kind.startswith("verify_"):
            (n,) = args
            ops.append(Op(
                f"{kind}({n})",
                lambda k=kind, n=n: getattr(identities, k)(n),
                lambda ok, k=kind, n=n: [] if ok is True else [
                    f"{k}({n}) returned {ok!r}"]))
        elif kind == "brute_force_sweep":
            box = tuple(args)
            ops.append(Op(
                f"brute_force_sweep{box}",
                lambda b=box: classify.brute_force_sweep(*b),
                lambda dg, b=box: _check_sweep(b, dg),
                lambda rep: (rep.tuples_checked, tuple(rep.half_odd_case_hits),
                             tuple(rep.integer_case_hits),
                             len(rep.mismatches))))
        elif kind in ("lehmer_d1", "perron_d1"):
            b0, b1 = args
            ops.append(Op(
                f"{kind}({b0},{b1})",
                lambda k=kind, b0=b0, b1=b1:
                    getattr(limits, k)(b0, b1, 25).decimal(25),
                lambda text, b0=b0, b1=b1: refs.check_limit_text(
                    (1, b0, b1, 1, 0), 25, text)))
        elif kind == "prec_recurrence_p":
            ops.append(_prec_op(*args))
        else:
            (t,) = args
            ops.append(_limit_op(kind, t, 25))
    return ops


# ---------------------------------------------------------------------------
# cli: one fresh interpreter per request

E = (1, 2, 2, 3, 2)
TAN = (1, 1, 2, 2, 1)
CLASSIFY_CASES = ((4, 3, 1, 2, 1), (1, 3, 2, 3, 1), (2, 1, 3, 4, 2),
                  (1, 5, 2, 3, 0))
# With d = 2, r = 1 and n = 6 every choice asks for index 12, within the
# Euler-Mindig guard of 22 and at the same cost.
EM_CLI_CASES = ((4, 3, 1, 2, 1), TAN, (2, 3, 1, 2, 1), (1, 4, 3, 2, 1))
SUITES = ("fibpoly", "cf", "hurwitz", "identities", "limits", "classify")

# Both fail today: the program converts integers of more than 4300 digits
# to text (PrecReal.decimal and the conv verb).  Their inputs do not depend
# on the seed, so every round fails them the same way.
FAILING_REQUESTS = (
    ("limit", E, "--digits", "4400"),
    ("conv", E, "--n", "1500"),
)


def _flags(t) -> list:
    return [token for name, value in zip(("alpha", "b0", "b1", "d", "r"), t)
            for token in (f"--{name}", str(value))]


def _light_requests(rng) -> list:
    return [
        ("conv", E, "--n", str(40 + rng.randrange(20))),
        ("conv", TAN, "--n", str(20 + rng.randrange(20)), "--method",
         "closed", "--json"),
        ("conv", rng.choice(EM_CLI_CASES), "--n", "6", "--method",
         "euler-mindig", "--json"),
        ("limit", E, "--digits", str(100 + rng.randrange(20))),
        ("limit", TAN, "--digits", str(200 + rng.randrange(20)), "--method",
         "bessel", "--json"),
        ("classify", rng.choice(CLASSIFY_CASES), "--json"),
        ("poly", None, "--family", "fib", "--n-max", str(8 + rng.randrange(5))),
    ]


def cli_inputs(seed: int) -> list:
    """Requests as (verb, tuple or None, extra flags...): two seeded sets of
    the light requests, the verify suites, then the two failing requests."""
    rng = rng_for("cli", seed)
    inputs = _light_requests(rng) + _light_requests(rng)
    inputs.append(("verify", None, "--suite", "all"))
    rng.shuffle(inputs)
    return inputs + list(FAILING_REQUESTS)


def cli_argv(request) -> list:
    verb, t, *extra = request
    return [verb] + (_flags(t) if t else []) + list(extra)


def _flag(request, name):
    return request[request.index(name) + 1]


def _check_conv(request, out: str) -> list:
    _, t, *extra = request
    n = int(_flag(request, "--n"))
    index = n * t[3] + t[4] - 1
    p, q = refs.convergents(t, index)[index]
    if "--json" in extra:
        doc = json.loads(out)
        got = (doc["index"], doc["p"], doc["q"])
    else:
        fields = dict(f.split("=", 1) for f in out.split())
        got = (int(fields["index"]), fields["p"], fields["q"])
    return [] if got == (index, refs.int_text(p), refs.int_text(q)) else [
        f"conv {cli_argv(request)}: differs from the recurrence"]


def _check_limit(request, out: str) -> list:
    _, t, *extra = request
    digits = int(_flag(request, "--digits"))
    if "--json" in extra:
        doc = json.loads(out)
        text = doc["value"]
        if doc["digits"] != digits or doc["certified"] is not True:
            return [f"limit {cli_argv(request)}: bad JSON fields"]
    else:
        text, _, tail = out.strip().partition("  ")
        if tail != f"({digits} certified digits)":
            return [f"limit {cli_argv(request)}: bad trailer {tail!r}"]
    return refs.check_limit_text(t, digits, text)


def _check_classify(request, out: str) -> list:
    t = request[1]
    doc = json.loads(out)
    s = refs.sigma(t)
    tag = refs.sigma_tag(s)
    want = {"sigma": str(s), "tag": tag,
            "theorem_half_odd": tag == "half-odd",
            "theorem_integer": tag == "integer"}
    got = {k: doc.get(k) for k in want}
    return [] if got == want else [f"classify {t}: {got} != {want}"]


def _check_poly(request, out: str) -> list:
    n_max = int(_flag(request, "--n-max"))
    want = [f"fib[{n}]: " + (" ".join(map(str, refs.fib_poly_coeffs(n)))
                             or "0") for n in range(n_max + 1)]
    return [] if out.splitlines() == want else [
        f"poly --n-max {n_max}: table differs"]


def _check_verify(request, out: str) -> list:
    want = [f"suite {s}: ok" for s in SUITES]
    return [] if out.splitlines() == want else [
        f"verify: {out.splitlines()}"]


CLI_CHECKS = {"conv": _check_conv, "limit": _check_limit,
              "classify": _check_classify, "poly": _check_poly,
              "verify": _check_verify}


def check_cli_output(request, out: str) -> list:
    return CLI_CHECKS[request[0]](request, out)


OPS_BY_WORKLOAD = {"limits-deep": limits_deep_ops,
            "convergents-deep": convergents_deep_ops,
            "oracles": oracles_ops}
