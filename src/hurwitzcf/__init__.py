"""Exact convergents and certified limits of quasi-periodic Hurwitzian
continued fractions built from a repeated constant and one arithmetic
progression."""

from .cf_engine import Convergent, convergents, euler_mindig, eval_finite
from .exactnum import PrecReal
from .hurwitz import CFParams, closed_form_convergent, denom_stream, \
    magic_pairs, prec_recurrence_p
from .limits import lehmer_d1, perron_d1, xi_bessel, xi_limit

__all__ = [
    "CFParams", "Convergent", "PrecReal", "closed_form_convergent",
    "convergents", "denom_stream", "euler_mindig", "eval_finite",
    "lehmer_d1", "magic_pairs", "perron_d1", "prec_recurrence_p",
    "xi_bessel", "xi_limit",
]

__version__ = "0.1.0"
