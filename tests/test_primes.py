import random
from collections import Counter
from itertools import combinations_with_replacement
from math import prod

import pytest

from polysmooth.primes import (_MR_BASES, _MR_PSI, factorize, is_prime,
                               primes_up_to)

N_MAX = 2 * 10**5
ABOVE = (1, 46, 47, 48, 49, 53, 2000, 9998, 9999, 10000, 10001)


def _smallest_factors(n_max):
    """spf[n] = the smallest prime factor of n, for 2 <= n <= n_max."""
    spf = list(range(n_max + 1))
    for p in range(2, int(n_max**0.5) + 1):
        if spf[p] == p:
            for m in range(p * p, n_max + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


SPF = _smallest_factors(N_MAX)


def _brute(n):
    out = Counter()
    while n > 1:
        out[SPF[n]] += 1
        n //= SPF[n]
    return dict(out)


def test_factorize_every_n_up_to_bound():
    for n in range(1, N_MAX + 1):
        assert factorize(n) == _brute(n), n


@pytest.mark.parametrize("above", ABOVE)
def test_factorize_above(above):
    # composite n straight to Pollard-Brent: products of two or three of the
    # first primes past `above` and of primes past the wheel's 10^4 limit,
    # and the square and cube of the first prime past `above`
    first = [p for p in primes_up_to(above + 200) if p > above][:6]
    primes = first + [10007, 999983, 1000003]
    cases = [(first[0],) * 2, (first[0],) * 3]
    for size in (2, 3):
        cases += combinations_with_replacement(primes, size)
    for ps in cases:
        n = prod(ps)
        assert factorize(n, composite=True) == dict(Counter(ps)), ps


# Strong pseudoprimes: psi_12 and psi_13 (Sorenson and Webster, Math. Comp.
# 2017) and 3825123056546413051 to every base up to 31; 561 and 3215031751
# are Carmichael numbers, the second a strong pseudoprime to 2, 3, 5 and 7.
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


@pytest.mark.parametrize("n, want", [
    (PSI_12, False),
    (3825123056546413051, False),
    (561, False),
    (3215031751, False),
    # with 3215031751 = psi_4, 3825123056546413051 = psi_9 = psi_10 = psi_11
    # and psi_12, every psi_k for k <= 12 (OEIS A014233): psi_k passes the
    # first k bases, so is_prime must run at least k + 1
    (2047, False),
    (1373653, False),
    (25326001, False),
    (2152302898747, False),
    (3474749660383, False),
    (341550071728321, False),  # psi_7 = psi_8
    (2**61 - 1, True),
    (2**64 - 59, True),
    (PSI_13 - 168, True),  # the largest prime below psi_13
    (10**30 + 7, False),  # past psi_13, a base still proves it composite
])
def test_is_prime(n, want):
    assert is_prime(n) is want


def test_is_prime_refuses_past_its_proven_range():
    # base 41 does not catch psi_13 itself, and no base catches a prime
    for n in [PSI_13, 2**89 - 1]:
        with pytest.raises(ValueError, match="proven only below"):
            is_prime(n)


def _is_prime_13(n):
    """Miller-Rabin on all thirteen bases whatever n, for odd n > 47 below
    psi_13: the path is_prime took before it chose its bases by n."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_fewest_bases_agree_with_thirteen():
    # a seeded sample of every band [psi_(k-1), psi_k) in which is_prime runs
    # k bases, with the next prime above a few of the samples and the band's
    # ends
    rng = random.Random(20260)
    edges = (49,) + _MR_PSI
    for lo, hi in zip(edges, edges[1:]):
        if lo == hi:
            continue
        sample = [lo, lo + 2, hi - 2, hi - 1]
        sample += [rng.randrange(lo, hi) | 1 for _ in range(200)]
        for n in sample[-10:]:
            while not _is_prime_13(n) and n < hi - 2:
                n += 2
            sample.append(n)
        for n in sample:
            if n % 2 and all(n % p for p in primes_up_to(47)):
                assert is_prime(n) is _is_prime_13(n), n
