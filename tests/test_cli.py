import json
from decimal import Decimal

import pytest

from hurwitzcf import limits
from hurwitzcf.cli import run


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

    @pytest.mark.parametrize("method", ["recurrence", "closed",
                                        "euler-mindig", "prec-recurrence"])
    def test_negative_n_refused(self, out, method):
        assert run(["conv", *E_FLAGS, "--n", "-3", "--method", method]) == 2
        assert "n must be >= 0" in out().err

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


class TestLimit:
    def test_more_than_4300_digits(self, out):
        assert run(["limit", *E_FLAGS, "--digits", "4400"]) == 0
        text, trailer = out().out.strip().split("  ")
        assert trailer == "(4400 certified digits)"
        assert text.startswith("1.71828182845904523536")
        assert len(text.split(".")[1]) == 4400

    @pytest.mark.parametrize("digits", ["0", "-5"])
    def test_digits_below_one_exit_2(self, out, digits):
        assert run(["limit", *E_FLAGS, "--digits", digits]) == 2
        assert "digits must be >= 1" in out().err

    def test_precision_cap_refused_before_computing(self, out, monkeypatch):
        monkeypatch.setenv("HURWITZ_MAX_PRECISION", "2000")
        monkeypatch.setattr(limits, "series_AB", None)
        assert run(["limit", *E_FLAGS, "--digits", "1000"]) == 2
        assert "HURWITZ_MAX_PRECISION" in out().err

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
