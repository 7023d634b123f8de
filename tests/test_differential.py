"""Seeded differential test: the sieve, root counts and P+ tables against
their independent oracles on random polynomials.

f has degree 1-4, coefficients in [-20, 20] and a leading coefficient from
LEADS, so that primes dividing the leading coefficient (where f mod p loses
degree) are hit often.  Polynomials that build_factored rejects (not
primitive, or with a rational root) are skipped.  The P+ tables run in prime
mode, which certifies cofactors for every degree.  A second seeded set of
products checks the log sieve of count mode against prime mode's flags.
"""

import random
from math import isqrt

import pytest

from polysmooth.modroots import omega
from polysmooth.oracles import omega_scan, pplus_oracle, psi_oracle
from polysmooth.polyarith import build_factored
from polysmooth.smoothsieve import coeff_bound, pplus_table, psi, sieve_range

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
def test_random_polynomial_against_oracles(f, pplus_ref):
    for y in YS:
        assert psi(f, X, y).psi == psi_oracle(f, X, y), y
    for k in range(1, K_MAX + 1):
        assert omega(f, k) == omega_scan(f, k), k
    tab = pplus_table(f, X)
    for n in range(1, X + 1):
        assert tab.pplus_of(n) == pplus_oracle(f(n)), n
    # a short window far from 1: prime mode sieves to 2 * count (past degree
    # 1) and certifies the cofactors; |f(n)| may pass pplus_oracle's domain
    lo, hi = WINDOW
    pplus = [pplus_ref(f(n)) for n in range(lo, hi + 1)]
    for y in (WINDOW_Y, float("inf")):
        tab = sieve_range(f, lo, hi, y, need_pplus=True)
        assert [tab.pplus_of(n) for n in range(lo, hi + 1)] == pplus, y
        assert [tab.flag(n) for n in range(lo, hi + 1)] == [
            p <= y for p in pplus], y


LOG_CASES = 16
LOG_WINDOWS = ((0, 300), (3001, 3300))
LOG_YS = (2, 5, 60, 1000)


def _random_products(seed, count):
    """Products of one or two factors of degree 1-2 whose coefficients are
    near powers of 2, 3 and 5 (exponents keep b0 below 2^32 on the windows),
    so that roots mod p^k meet across factors and multiply within one."""
    rng = random.Random(seed)
    polys = []
    while len(polys) < count:
        factors = []
        for _ in range(rng.randint(1, 2)):
            coeffs = [rng.choice((-1, 1)) * rng.choice(
                (2 ** rng.randint(0, 16), 3 ** rng.randint(0, 10),
                 5 ** rng.randint(0, 7))) + rng.randint(-3, 3)
                for _ in range(rng.randint(1, 2))]
            factors.append(coeffs + [1])
        try:
            f = build_factored(factors)
        except ValueError:
            continue
        polys.append(pytest.param(f, id=f.pretty()))
    return polys


@pytest.mark.parametrize("f", _random_products(20261018, LOG_CASES))
def test_log_sieve_against_prime_mode(f):
    for lo, hi in LOG_WINDOWS:
        tab = sieve_range(f, lo, hi, float("inf"), need_pplus=True)
        pplus = [tab.pplus_of(n) for n in range(lo, hi + 1)]
        b0 = isqrt(coeff_bound(f, hi)) + 1
        for y in LOG_YS:
            if y < b0:  # count mode
                tab = sieve_range(f, lo, hi, y)
                assert [tab.flag(n) for n in range(lo, hi + 1)] == [
                    p <= y for p in pplus], (lo, y)
