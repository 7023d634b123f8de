"""Smooth values of integer polynomials, exactly and at desk scale.

Core pieces: exact integer polynomial arithmetic, roots of f modulo prime
powers (Hensel), a segmented sieve for Psi_f(x, y) and per-n largest prime
factors, the Dickman function, closed-form bound coefficients, exact
evaluation of the V/W sum machinery, and the two applications (prime ideals
in real quadratic fields, primitive divisors of n^2 + b).
"""

__version__ = "0.1.0"

from .polyarith import IntPoly, FactoredPoly, parse_poly, build_factored, t0
from .modroots import lift_roots, omega
from .smoothsieve import SmoothTable, psi, pplus_table
from .dickman import rho, martin_prediction
from .bounds import (
    BoundReport,
    gamma_f,
    timofeev_main_term,
    hmyrova_main_term,
    cassels_coeff,
    make_bound_report,
)
from .vwmachinery import (
    VWInstance,
    VWReport,
    vw_prop21,
    vw_prop32,
    lemma31_check,
    lemma41_sums,
)
from .quadfield import (
    QuadContext,
    QuadPrimeClass,
    make_context,
    classify_prime,
    c_alpha,
    verify_prop54,
    windowed_cassels,
)
from .primdiv import (
    r_b,
    n_arctan,
    verify_prop63,
)
