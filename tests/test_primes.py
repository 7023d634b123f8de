from collections import Counter
from itertools import combinations_with_replacement

import pytest

from polysmooth.primes import factorize, primes_up_to

N_MAX = 2 * 10**5
N_ABOVE = 2 * 10**4  # per `above`; every n <= N_MAX has its own test
ABOVE = (1, 46, 47, 48, 49, 53, 9998, 9999, 10000, 10001)


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
    # every n <= N_ABOVE whose prime factors all exceed `above`
    for n in range(2, N_ABOVE + 1):
        if SPF[n] > above:
            assert factorize(n, above) == _brute(n), n
    # products of up to three of the first primes past `above`, and of
    # primes past the wheel's 10^4 limit, which leave rho the cofactor
    first = [p for p in primes_up_to(above + 200) if p > above][:8]
    primes = first + [10007, 999983, 1000003]
    for size in (1, 2, 3):
        for ps in combinations_with_replacement(primes, size):
            n = 1
            for p in ps:
                n *= p
            assert factorize(n, above) == dict(Counter(ps)), ps
