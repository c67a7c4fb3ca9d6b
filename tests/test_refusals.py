"""Every documented input refusal raises the error it names."""

from fractions import Fraction

import pytest

from hurwitzcf import (cf_engine, classify, fibpoly, hurwitz, identities,
                       limits)
from hurwitzcf.errors import PrecisionExhausted
from hurwitzcf.exactnum import PrecReal

S = cf_engine.stream_from_list([1, 2, 3, 4])
P = hurwitz.CFParams(1, 2, 2, 3, 2)
BALL = PrecReal._ratio(1, 1, 0, 1, 64)

REFUSALS = {  # test id: (call, error, message)
    "stream-from-list": (lambda: cf_engine.stream_from_list([3, 1, 4])(-1),
                         IndexError, "-1"),
    "convergents": (lambda: cf_engine.convergents(S, -1), ValueError,
                    "n_max must be >= 0"),
    "last-convergent": (lambda: cf_engine._last_convergent(S, -1),
                        ValueError, "n must be >= 0"),
    "euler-mindig": (lambda: cf_engine.euler_mindig(S, -1), ValueError,
                     "n must be >= 0"),
    "eval-finite": (lambda: cf_engine.eval_finite([]), ValueError,
                    "empty continued fraction"),
    "shift-check": (lambda: cf_engine.shift_check(S, 0), ValueError,
                    "n must be >= 1"),
    "lucas-poly": (lambda: fibpoly.lucas_poly(-1), ValueError,
                   "only defined for n >= 0"),
    "even-sets": (lambda: fibpoly.fib_via_even_sets(0), ValueError,
                  "n must be >= 1"),
    "denom-stream": (lambda: hurwitz.denom_stream(P)(-1), IndexError, "-1"),
    "closed-form": (lambda: hurwitz.closed_form_convergent(P, -1),
                    ValueError, "n must be >= 0"),
    "prec-recurrence": (lambda: hurwitz.prec_recurrence_p(P, -1),
                        ValueError, "n_max must be >= 0"),
    "normalized-numerator": (
        lambda: hurwitz.normalized_numerator(P, 0, 10), ValueError,
        "n must be >= 1"),
    "rsum": (lambda: identities.verify_rsum(-1), ValueError,
             "n must be >= 0"),
    "p-poly": (lambda: identities.p_poly(-1), ValueError, "n must be >= 0"),
    "q-poly": (lambda: identities.q_poly(-1), ValueError, "n must be >= 0"),
    "gcf": (lambda: identities.gcf_convergent_check(0, Fraction(1, 16)),
            ValueError, "n must be >= 1"),
    # digits is an int: a float fails before the kernel shifts by it, and
    # True is no count of digits
    "digits-float": (lambda: limits.xi_limit(P, 10.0), TypeError,
                     "digits must be an int, got float"),
    "digits-bool": (lambda: limits.xi_limit(P, True), TypeError,
                    "digits must be an int, got bool"),
    # an order of 10^400: the walk's loss, past any float, is still refused
    "bessel-order": (
        lambda: limits.xi_bessel(hurwitz.CFParams(1, 10 ** 400 + 1, 2, 2, 1),
                                 10), PrecisionExhausted,
        "HURWITZ_MAX_PRECISION"),
    "perron": (lambda: limits.perron_d1(0, 1, 10), ValueError,
               "alpha, beta0, beta1, d must all be >= 1"),
    "perron-float": (lambda: limits.perron_d1(2.0, 1, 10), TypeError,
                     "beta0 must be an int, got float"),
    "perron-fraction": (lambda: limits.perron_d1(Fraction(3, 2), 1, 10),
                        TypeError, "beta0 must be an int, got Fraction"),
    "sweep-float": (lambda: classify.brute_force_sweep(40.0, 10, 14),
                    TypeError,
                    "alpha_max, d_max, beta_max must be ints, got float, "
                    "int, int"),
    "sweep-beta-float": (lambda: classify.brute_force_sweep(40, 10, 14.0),
                         TypeError, "must be ints, got int, int, float"),
    "decimal-digits": (lambda: BALL.decimal(-2), ValueError,
                       "digits must be >= 0, got -2"),
    "decimal-float": (lambda: BALL.decimal(5.5), TypeError,
                      "digits must be an int, got float"),
    # a ball's one operation is the quotient of two balls
    "ball-over-int": (lambda: BALL / 2, TypeError, "unsupported operand"),
    "int-times-ball": (lambda: 2 * BALL, TypeError, "unsupported operand"),
    "ball-plus-ball": (lambda: BALL + BALL, TypeError,
                       "unsupported operand"),
    "minus-ball": (lambda: -BALL, TypeError, "bad operand type"),
}


@pytest.mark.parametrize("refusal_id", list(REFUSALS))
def test_refused(refusal_id):
    call, error, message = REFUSALS[refusal_id]
    with pytest.raises(error, match=message):
        call()
