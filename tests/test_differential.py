"""Seeded differential test: the sieve, root counts and P+ tables against
their independent oracles on random polynomials.

f has degree 1-4, coefficients in [-20, 20] and a leading coefficient from
LEADS, so that primes dividing the leading coefficient (where f mod p loses
degree) are hit often.  Polynomials that build_factored rejects (not
primitive, or with a rational root) are skipped.  The P+ tables run in prime
mode, which certifies cofactors for every degree.
"""

import random

import pytest

from polysmooth.modroots import omega, omega_scan
from polysmooth.polyarith import build_factored
from polysmooth.smoothsieve import (
    pplus_oracle,
    pplus_table,
    psi,
    psi_oracle,
    sieve_range,
)

LEADS = (1, 2, 3, -1, 6, 10, 30)
CASES = 24
X = 120
YS = (2, 7, 50, 1000, 10**12)  # 10^12 is past sqrt(max |f|): prime mode
K_MAX = 200
WINDOW = (2001, 2010)
WINDOW_Y = 1000  # between the window's sieve bound and sqrt(max |f|)


def _random_polys(seed, count):
    rng = random.Random(seed)
    polys = []
    while len(polys) < count:
        d = rng.randint(1, 4)
        coeffs = [rng.randint(-20, 20) for _ in range(d)] + [rng.choice(LEADS)]
        try:
            f = build_factored([coeffs])
        except ValueError:
            continue
        polys.append(pytest.param(f, id=f.pretty()))
    return polys


@pytest.mark.parametrize("f", _random_polys(20240601, CASES))
def test_random_polynomial_against_oracles(f):
    for y in YS:
        assert psi(f, X, y).psi == psi_oracle(f, X, y), y
    for k in range(1, K_MAX + 1):
        assert omega(f, k) == omega_scan(f, k), k
    tab = pplus_table(f, X)
    for n in range(1, X + 1):
        assert tab.pplus_of(n) == pplus_oracle(f(n)), n
    # a short window far from 1: prime mode sieves to 2 * count (past degree
    # 1) and certifies the cofactors
    lo, hi = WINDOW
    pplus = [pplus_oracle(f(n)) for n in range(lo, hi + 1)]
    for y in (WINDOW_Y, float("inf")):
        tab = sieve_range(f, lo, hi, y, need_pplus=True)
        assert tab.pplus == pplus, y
        assert [tab.flag(n) for n in range(lo, hi + 1)] == [
            p <= y for p in pplus], y
