import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hurwitzcf import cf_engine, classify, hurwitz, identities, limits
from hurwitzcf.cli import run
from hurwitzcf.exactnum import PrecReal, _fraction_text, mantissa_bits
from reference import sigma_rho


@pytest.fixture
def out(capsys):
    def read():
        return capsys.readouterr()
    return read


E_FLAGS = ["--alpha", "1", "--b0", "2", "--b1", "2", "--d", "3", "--r", "2"]


class TestConv:
    def test_recurrence(self, out):
        assert run(["conv", *E_FLAGS, "--n", "1"]) == 0
        assert out().out.strip() == "index=4 p=12 q=7"

    @pytest.mark.parametrize("method",
                             ["closed", "euler-mindig", "prec-recurrence"])
    def test_methods_agree(self, out, method):
        assert run(["conv", *E_FLAGS, "--n", "3", "--method", method]) == 0
        assert out().out.strip() == "index=10 p=1720 q=1001"

    def test_json_uses_string_integers(self, out):
        assert run(["conv", *E_FLAGS, "--n", "2", "--json"]) == 0
        doc = json.loads(out().out)
        assert doc["p"] == "122" and doc["q"] == "71"
        assert doc["params"]["beta0"] == 2

    def test_big_index_stays_exact(self, out):
        assert run(["conv", *E_FLAGS, "--n", "40", "--method", "closed"]) == 0
        p = int(out().out.split("p=")[1].split()[0])
        assert p > 10 ** 50

    @pytest.mark.parametrize("t", [(1, 2, 2, 3), (2, 1, 3, 4), (3, 3, 1, 2),
                                   (1, 1, 1, 1)])
    def test_prec_recurrence_across_r(self, out, t):
        # p and q both come from the compact recurrence, q on the tuple
        # shifted by one term; checked against the plain recurrence
        d = t[3]
        for r in range(d):
            params = hurwitz.CFParams(*t, r)
            convs = cf_engine.convergents(hurwitz.denom_stream(params),
                                          8 * d + r - 1)
            flags = ["--alpha", str(t[0]), "--b0", str(t[1]), "--b1",
                     str(t[2]), "--d", str(d), "--r", str(r)]
            for n in range(1, 9):
                assert run(["conv", *flags, "--n", str(n), "--method",
                            "prec-recurrence"]) == 0
                ref = convs[n * d + r]
                assert out().out.strip() \
                    == f"index={ref.n} p={ref.p} q={ref.q}", (r, n)

    def test_prec_recurrence_shift_is_checked(self, out, monkeypatch):
        # the shifted tuple is a new CFParams, built through its checks:
        # one alpha dropped at r > 0, beta0 dropped at r = 0
        built, check = [], hurwitz.CFParams.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs)
            check(self, *args, **kwargs)

        monkeypatch.setattr(hurwitz.CFParams, "__init__", spy)
        for r, shifted in ((2, (1, 2, 2, 3, 1)), (0, (1, 4, 2, 3, 2))):
            flags = E_FLAGS[:-1] + [str(r)]
            built.clear()
            assert run(["conv", *flags, "--n", "4", "--method",
                        "prec-recurrence"]) == 0
            out()
            assert len(built) == 2
            assert tuple(built[1].values()) == shifted

    @pytest.mark.parametrize("method", ["recurrence", "closed",
                                        "euler-mindig", "prec-recurrence"])
    def test_negative_n_refused(self, out, method):
        assert run(["conv", *E_FLAGS, "--n", "-3", "--method", method]) == 2
        assert "n must be >= 0" in out().err

    def test_index_beyond_the_euler_mindig_guard_exit_2(self, out):
        # index 25 is over EULER_MINDIG_GUARD = 22: a refused input
        assert run(["conv", *E_FLAGS, "--n", "8", "--method",
                    "euler-mindig"]) == 2
        assert out() == ("", "error: n=25 exceeds enumeration guard 22\n")

    @pytest.mark.parametrize("method", ["recurrence", "closed",
                                        "euler-mindig", "prec-recurrence"])
    def test_index_minus_one(self, out, method):
        flags = ["--alpha", "1", "--b0", "2", "--b1", "2", "--d", "3",
                 "--r", "0", "--n", "0", "--method", method]
        assert run(["conv", *flags]) == 0
        assert out().out.strip() == "index=-1 p=1 q=0"

    def test_integers_beyond_the_str_digit_limit(self, out):
        # index 4501: p and q have more than 4300 digits
        assert run(["conv", *E_FLAGS, "--n", "1500"]) == 0
        fields = dict(f.split("=") for f in out().out.split())
        assert run(["conv", *E_FLAGS, "--n", "1500", "--json"]) == 0
        doc = json.loads(out().out)
        assert (doc["p"], doc["q"]) == (fields["p"], fields["q"])
        assert len(doc["q"]) > 4300
        ratio = Decimal(doc["p"]) / Decimal(doc["q"])
        assert str(ratio).startswith("1.71828182845904523536")


    # index 30001: the recurrence keeps only the last convergent, so the
    # child's peak memory stays small (it was 532 MB when every convergent
    # was kept); the sha256 of the output was recorded before that change
    @pytest.mark.parametrize("flags, digest", [
        ([],
         "275796be40f272ea4865ca551a54dc5a00cf6f169de095ac145d0930256da45d"),
        (["--json"],
         "bf2649f6f29944536ccf83de0e818183891d4f221e41b2e27ce3ef4f6a2ebac9"),
    ])
    def test_deep_recurrence_memory(self, flags, digest):
        src = str(Path(cf_engine.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        child = subprocess.Popen(
            [sys.executable, "-m", "hurwitzcf.cli", "conv", *E_FLAGS,
             "--n", "10000", *flags], stdout=subprocess.PIPE, env=env)
        text = child.stdout.read()
        child.stdout.close()
        # wait4 gives this child's own rusage; tell Popen it was reaped
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        assert child.returncode == 0
        assert usage.ru_maxrss < 64 * 1024  # kilobytes
        assert hashlib.sha256(text).hexdigest() == digest


class TestLimit:
    def test_more_than_4300_digits(self, out):
        assert run(["limit", *E_FLAGS, "--digits", "4400"]) == 0
        text, trailer = out().out.strip().split("  ")
        assert trailer == "(4400 certified digits)"
        assert text.startswith("1.71828182845904523536")
        assert len(text.split(".")[1]) == 4400

    def test_large_limit_prints_its_certified_digits(self, out):
        # xi ~ 10^40: a relative error of 10^-90 alone left digits 80-90
        # of the printed text wrong while they were called certified
        b0 = 10 ** 40
        assert run(["limit", "--alpha", "1", "--b0", str(b0), "--b1", "1",
                    "--d", "1", "--r", "0", "--digits", "90"]) == 0
        text, trailer = out().out.strip().split("  ")
        assert trailer == "(90 certified digits)"
        # [b0, b0+1, b0+2, ...]: convergents from the definition
        convs = cf_engine.convergents(lambda i: b0 + i, 6)
        (p0, q0), (p1, q1) = [(c.p, c.q) for c in convs[-2:]]
        assert q0 * q1 > 10 ** 200  # a bracket far inside 10^-90
        printed = Fraction(Decimal(text))
        for p, q in ((p0, q0), (p1, q1)):
            assert abs(printed - Fraction(p, q)) <= Fraction(1, 10 ** 90)

    @pytest.mark.parametrize("digits", ["0", "-5"])
    def test_digits_below_one_exit_2(self, out, digits):
        assert run(["limit", *E_FLAGS, "--digits", digits]) == 2
        assert "digits must be >= 1" in out().err

    def test_precision_cap_refused_before_computing(self, out, monkeypatch):
        monkeypatch.setenv("HURWITZ_MAX_PRECISION", "2000")
        monkeypatch.setattr(limits, "_sum_ratio_series", None)
        assert run(["limit", *E_FLAGS, "--digits", "1000"]) == 2
        assert "HURWITZ_MAX_PRECISION" in out().err

    def test_bessel_walk_beyond_the_cap_refused(self, out, monkeypatch):
        # sigma = 10003/2 or 100003/2: the walk's computed loss alone passes
        # the cap, so the request is refused before any walk or series
        cap = limits._max_precision_bits()
        right = limits._sum_ratio_series

        def spy(t0, ratios, digits, **kwargs):
            assert mantissa_bits(digits) <= cap, "series above the cap"
            return right(t0, ratios, digits, **kwargs)

        def walk(*args):
            raise AssertionError("walked before the cap check")

        monkeypatch.setattr(limits, "_sum_ratio_series", spy)
        monkeypatch.setattr(limits, "_half_odd_walk", walk)
        for b0 in ("20001", "200001"):
            assert run(["limit", "--alpha", "1", "--b0", b0, "--b1", "2",
                        "--d", "2", "--r", "1", "--digits", "10",
                        "--method", "bessel"]) == 2
            assert "HURWITZ_MAX_PRECISION" in out().err

    def test_ball_across_a_rounding_boundary_recomputed(self, out,
                                                        monkeypatch):
        # the first ball, 1.71825 +- 10^-7, renders at 4 digits as 1.7182 at
        # one end and 1.7183 at the other: no text is certified from it, and
        # the route is asked again at twice the digits
        asked, right = [], limits.xi_limit

        def route(params, digits):
            asked.append(digits)
            if len(asked) == 1:
                return PrecReal._ratio(171825, 10 ** 5, 1, 10 ** 7, 128)
            return right(params, digits)

        monkeypatch.setattr(limits, "xi_limit", route)
        assert run(["limit", *E_FLAGS, "--digits", "4", "--json"]) == 0
        doc = json.loads(out().out)
        assert asked == [4, 8]
        assert doc["value"] == "1.7183" and doc["certified"] is True

    def test_malformed_precision_cap_exit_2(self, out, monkeypatch):
        monkeypatch.setenv("HURWITZ_MAX_PRECISION", "abc")
        assert run(["limit", *E_FLAGS, "--digits", "10"]) == 2
        err = out().err
        assert "HURWITZ_MAX_PRECISION" in err and "'abc'" in err

    def test_series_digits(self, out):
        assert run(["limit", *E_FLAGS, "--digits", "30"]) == 0
        text = out().out
        assert text.startswith("1.71828182845904523536028747135")

    def test_bessel_json(self, out):
        assert run(["limit", *E_FLAGS, "--digits", "20", "--method", "bessel",
                    "--json"]) == 0
        doc = json.loads(out().out)
        assert doc["certified"] is True
        assert doc["value"].startswith("1.7182818284590452353")

    def test_elementary_requires_half_odd_sigma(self, out):
        flags = ["--alpha", "3", "--b0", "1", "--b1", "1", "--d", "2",
                 "--r", "0"]
        assert run(["limit", *flags, "--digits", "10",
                    "--method", "elementary"]) == 2
        assert "no elementary form" in out().err

    def test_elementary_on_half_odd(self, out):
        assert run(["limit", *E_FLAGS, "--digits", "15",
                    "--method", "elementary"]) == 0
        assert out().out.startswith("1.71828182845904")


class TestClassify:
    def test_half_odd(self, out):
        assert run(["classify", *E_FLAGS, "--json"]) == 0
        doc = json.loads(out().out)
        assert doc["tag"] == "half-odd" and doc["sigma"] == "3/2"
        assert doc["theorem_half_odd"] is True
        assert doc["theorem_integer"] is False

    def test_d1_omits_theorem_fields(self, out):
        flags = ["--alpha", "1", "--b0", "3", "--b1", "2", "--d", "1",
                 "--r", "0"]
        assert run(["classify", *flags, "--json"]) == 0
        doc = json.loads(out().out)
        assert doc["tag"] == "half-odd"
        assert "theorem_half_odd" not in doc

    # the verb reduces sigma's integer pair by its gcd and builds no
    # Fraction; the text must still be the witness's.  (1, 1, 3, 3) has
    # sigma 4/6 = 2/3 and the elementary route refuses it.
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 60), st.integers(1, 60),
           st.integers(1, 40))
    @example(1, 1, 3, 3)
    @example(1, 2, 2, 3)
    def test_sigma_text_is_the_witness(self, alpha, b0, b1, d):
        params = hurwitz.CFParams(alpha, b0, b1, d, 0)
        flags = ["--alpha", str(alpha), "--b0", str(b0), "--b1", str(b1),
                 "--d", str(d), "--r", "0"]
        sc = classify.sigma_class(params)
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            assert run(["classify", *flags, "--json"]) == 0
        doc = json.loads(buf.getvalue())
        assert (doc["sigma"], doc["tag"]) == (_fraction_text(sc.witness),
                                              sc.tag)
        if sc.tag != "half-odd":
            with contextlib.redirect_stderr(io.StringIO()) as err:
                assert run(["limit", *flags, "--digits", "5",
                            "--method", "elementary"]) == 2
            assert f"sigma={doc['sigma']} is not half" in err.getvalue()


    def test_sigma_beyond_the_str_digit_limit(self, out):
        flags = ["--alpha", "10", "--b0", "1", "--b1", "1", "--d", "5000",
                 "--r", "0"]
        assert run(["classify", *flags, "--json"]) == 0
        sigma, _ = sigma_rho(hurwitz.CFParams(10, 1, 1, 5000, 0))
        assert sigma.denominator > 10 ** 4300
        assert json.loads(out().out)["sigma"] == _fraction_text(sigma)


class TestSweep:
    def test_small_sweep(self, out):
        assert run(["sweep", "--alpha-max", "4", "--d-max", "3",
                    "--beta-max", "4", "--json"]) == 0
        doc = json.loads(out().out)
        assert doc["mismatches"] == []
        assert doc["tuples_checked"] == 4 * 2 * 4 * 4

    def test_text_report(self, out):
        assert run(["sweep", "--alpha-max", "3", "--d-max", "3",
                    "--beta-max", "3"]) == 0
        assert "mismatches: 0" in out().out


class TestVerify:
    @pytest.mark.parametrize("suite", ["fibpoly", "cf", "identities"])
    def test_single_suite(self, out, suite):
        assert run(["verify", "--suite", suite, "--n-max", "8"]) == 0
        assert f"suite {suite}: ok" in out().out

    def test_all(self, out):
        assert run(["verify", "--n-max", "6"]) == 0
        text = out().out
        assert text.count(": ok") == 6

    def test_planted_fault_exits_1(self, out, monkeypatch):
        monkeypatch.setattr(identities, "verify_rsum", lambda n: False)
        assert run(["verify", "--suite", "identities", "--n-max", "1"]) == 1
        assert out().out == ("suite identities: FAIL\n  R-sum at n=0\n"
                             "  R-sum at n=1\n")

    @pytest.mark.parametrize("suite", ["all", "fibpoly", "hurwitz"])
    def test_negative_n_max_refused(self, out, suite):
        assert run(["verify", "--suite", suite, "--n-max", "-1"]) == 2
        assert out() == ("", "error: n-max must be >= 0, got -1\n")


class TestPoly:
    def test_fib_table(self, out):
        assert run(["poly", "--family", "fib", "--n-max", "4"]) == 0
        lines = out().out.strip().splitlines()
        assert lines[0] == "fib[0]: 0"
        assert lines[3] == "fib[3]: 1 0 1"   # q^2 + 1, low order first

    def test_q_json(self, out):
        assert run(["poly", "--family", "q", "--n-max", "2", "--json"]) == 0
        doc = json.loads(out().out)
        assert doc["coefficients"][2] == ["2", "1"]

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_negative_n_max_refused(self, out, flags):
        assert run(["poly", "--family", "p", "--n-max", "-2", *flags]) == 2
        assert out() == ("", "error: n-max must be >= 0, got -2\n")

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_coefficients_beyond_the_str_digit_limit(self, out, flags):
        # p_330 has 330! (685 digits) as its x coefficient; with the
        # integer-string limit at its minimum, str() refuses it
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert run(["poly", "--family", "p", "--n-max", "330",
                        *flags]) == 0
        finally:
            sys.set_int_max_str_digits(limit)
        text = out().out
        coefficient = str(math.factorial(330))
        row = (json.loads(text)["coefficients"][330] if flags
               else text.splitlines()[330].split()[1:])
        assert coefficient in row


# Exact output of verbs that the tests above check only in part.
INT_FLAGS = ["--alpha", "1", "--b0", "1", "--b1", "1", "--d", "3", "--r", "2"]
OTHER_FLAGS = ["--alpha", "2", "--b0", "1", "--b1", "3", "--d", "4",
               "--r", "2"]
INT_JSON_PARAMS = '{"alpha": 1, "beta0": 1, "beta1": 1, "d": 3, "r": 2}'
OTHER_JSON_PARAMS = '{"alpha": 2, "beta0": 1, "beta1": 3, "d": 4, "r": 2}'
INT_VALUE = "1.612651283026086290439022549723"      # sigma = 2
OTHER_VALUE = "2.369467348875835312728599188701"    # sigma = 11/18
GOLDEN = [
    (["limit", *INT_FLAGS, "--digits", "30", "--method", "bessel"],
     f"{INT_VALUE}  (30 certified digits)\n"),
    (["limit", *INT_FLAGS, "--digits", "30", "--method", "bessel", "--json"],
     f'{{"params": {INT_JSON_PARAMS}, "digits": 30, "value": "{INT_VALUE}", '
     '"certified": true}\n'),
    (["limit", *OTHER_FLAGS, "--digits", "30", "--method", "bessel"],
     f"{OTHER_VALUE}  (30 certified digits)\n"),
    (["limit", *OTHER_FLAGS, "--digits", "30", "--method", "bessel",
      "--json"],
     f'{{"params": {OTHER_JSON_PARAMS}, "digits": 30, '
     f'"value": "{OTHER_VALUE}", "certified": true}}\n'),
    (["limit", *OTHER_FLAGS, "--digits", "25", "--method", "series",
      "--json"],
     f'{{"params": {OTHER_JSON_PARAMS}, "digits": 25, '
     '"value": "2.3694673488758353127285992", "certified": true}\n'),
    (["classify", *E_FLAGS],
     "params: {'alpha': 1, 'beta0': 2, 'beta1': 2, 'd': 3, 'r': 2}\n"
     "sigma: 3/2\ntag: half-odd\ntheorem_half_odd: True\n"
     "theorem_integer: False\n"),
    (["classify", *OTHER_FLAGS],
     "params: {'alpha': 2, 'beta0': 1, 'beta1': 3, 'd': 4, 'r': 2}\n"
     "sigma: 11/18\ntag: other\ntheorem_half_odd: False\n"
     "theorem_integer: False\n"),
    (["classify", "--alpha", "1", "--b0", "3", "--b1", "2", "--d", "1",
      "--r", "0"],
     "params: {'alpha': 1, 'beta0': 3, 'beta1': 2, 'd': 1, 'r': 0}\n"
     "sigma: 3/2\ntag: half-odd\n"),
    (["poly", "--family", "lucas", "--n-max", "6"],
     "lucas[0]: 2\nlucas[1]: 0 1\nlucas[2]: 2 0 1\nlucas[3]: 0 3 0 1\n"
     "lucas[4]: 2 0 4 0 1\nlucas[5]: 0 5 0 5 0 1\n"
     "lucas[6]: 2 0 9 0 6 0 1\n"),
    (["poly", "--family", "p", "--n-max", "5"],
     "p[0]: 0\np[1]: 0 1\np[2]: 0 2\np[3]: 0 6 1\np[4]: 0 24 6\n"
     "p[5]: 0 120 36 1\n"),
    (["poly", "--family", "lucas", "--n-max", "4", "--json"],
     '{"family": "lucas", "coefficients": [["2"], ["0", "1"], '
     '["2", "0", "1"], ["0", "3", "0", "1"], ["2", "0", "4", "0", "1"]]}\n'),
    (["poly", "--family", "p", "--n-max", "4", "--json"],
     '{"family": "p", "coefficients": [[], ["0", "1"], ["0", "2"], '
     '["0", "6", "1"], ["0", "24", "6"]]}\n'),
]


@pytest.mark.parametrize("argv, expected", GOLDEN,
                         ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_output(out, argv, expected):
    assert run(argv) == 0
    assert out().out == expected


class TestErrors:
    def test_missing_flag_exits_2(self, capsys):
        assert run(["conv", "--alpha", "1"]) == 2
        capsys.readouterr()

    def test_bad_choice_exits_2(self, capsys):
        assert run(["limit", *E_FLAGS, "--digits", "5",
                    "--method", "nope"]) == 2
        capsys.readouterr()

    def test_invalid_params_exit_2(self, out):
        assert run(["conv", "--alpha", "0", "--b0", "1", "--b1", "1",
                    "--d", "1", "--r", "0", "--n", "1"]) == 2
        assert "error:" in out().err

    def test_closed_pipe_exits_1_without_traceback(self):
        # `hurwitzcf poly --family fib --n-max 600 | head -1`: 5.6 MB of
        # text, far past a pipe's buffer, for a reader that leaves after
        # one line
        src = str(Path(cf_engine.__file__).resolve().parents[1])
        child = subprocess.Popen(
            [sys.executable, "-m", "hurwitzcf.cli", "poly", "--family", "fib",
             "--n-max", "600"], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src))
        assert child.stdout.readline() == b"fib[0]: 0\n"
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait() == 1
        assert err == b""


# A pinned corpus: every verb, every method, family and suite, in text and
# --json, the help texts and the error paths.  The sha256 over (argv,
# stdout, stderr, exit code) was recorded before the verbs became
# table-driven; argparse's wording (Python 3.11) is part of it.
def _corpus() -> list:
    tuples = [(1, 2, 2, 3, 2), (1, 1, 2, 2, 1), (1, 1, 1, 3, 2),
              (2, 1, 3, 4, 2), (3, 1, 1, 2, 0), (4, 3, 1, 2, 1),
              (1, 3, 2, 1, 0), (2, 3, 1, 3, 3)]
    requests = []
    for t in tuples:
        flags = [x for name, value in zip(("--alpha", "--b0", "--b1", "--d",
                                           "--r"), t)
                 for x in (name, str(value))]
        for n, method, json_flag in itertools.product(
                ("0", "1", "4"), ("recurrence", "closed", "euler-mindig",
                                  "prec-recurrence"), ([], ["--json"])):
            requests.append(["conv", *flags, "--n", n, "--method", method,
                             *json_flag])
        for method, json_flag in itertools.product(
                ("series", "bessel", "elementary"), ([], ["--json"])):
            requests.append(["limit", *flags, "--digits", "20", "--method",
                             method, *json_flag])
        requests += [["classify", *flags], ["classify", *flags, "--json"]]
    for family, n_max, json_flag in itertools.product(
            ("fib", "lucas", "p", "q"), ("0", "6"), ([], ["--json"])):
        requests.append(["poly", "--family", family, "--n-max", n_max,
                         *json_flag])
    for suite in ("all", "fibpoly", "cf", "hurwitz", "identities", "limits",
                  "classify"):
        requests.append(["verify", "--suite", suite, "--n-max", "4"])
    requests += [
        ["verify"], ["poly", "--family", "q"],
        ["sweep", "--alpha-max", "3", "--d-max", "3", "--beta-max", "3"],
        ["sweep", "--alpha-max", "3", "--d-max", "3", "--beta-max", "3",
         "--json"],
        ["sweep", "--alpha-max", "2", "--d-max", "1599", "--beta-max", "35"],
        ["sweep", "--alpha-max", "1"],
        ["conv", *E_FLAGS, "--n", "-3"],
        ["limit", *E_FLAGS, "--digits", "0"],
        ["limit", *E_FLAGS, "--digits", "5", "--method", "nope"],
        ["conv", *E_FLAGS, "--n", "1", "--method", "nope"],
        ["poly", "--family", "nope"], ["verify", "--suite", "nope"],
        ["conv", "--alpha", "1"], ["limit", *E_FLAGS],
        ["conv", "--alpha", "0", "--b0", "1", "--b1", "1", "--d", "1",
         "--r", "0", "--n", "1"],
        [], ["--help"], ["nope"],
    ]
    requests += [[verb, "--help"] for verb in ("conv", "limit", "classify",
                                                "sweep", "verify", "poly")]
    return requests


CORPUS_FILE = Path(__file__).with_name("cli_corpus.sha256")


def _corpus_lines() -> tuple[list, str]:
    """One line per corpus request: the first 16 hex digits of the sha256
    of json [argv, stdout, stderr, exit code], then the argv as json.
    Run with COLUMNS=80; tests/cli_corpus.sha256 holds these lines."""
    lines, digest = [], hashlib.sha256()
    for argv in _corpus():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = run(argv)
        entry = json.dumps([argv, stdout.getvalue(), stderr.getvalue(),
                            code]).encode()
        digest.update(entry)
        lines.append(f"{hashlib.sha256(entry).hexdigest()[:16]} "
                     f"{json.dumps(argv)}")
    return lines, digest.hexdigest()


def test_pinned_corpus(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal
    lines, digest = _corpus_lines()
    # per request first, so a failure names the first argv that differs
    assert lines == CORPUS_FILE.read_text().splitlines()
    assert len(_corpus()) == 303
    assert digest == (
        "99a80ca1815382ccc7a843e42826a942a8e14ebbc8f7ca94677c5a98d843fed1")
