"""Shared prime/factorization plumbing: sieve, deterministic Miller-Rabin,
Pollard-Brent rho."""

from bisect import bisect_right
from math import gcd, isqrt

import numpy as np

# The first thirteen primes as witnesses.  psi_k, the least strong
# pseudoprime to the first k of them (Jaeschke, "On strong pseudoprimes to
# several bases", Math. Comp. 1993; Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 2017; OEIS A014233), so
# the first k bases prove every n < psi_k prime.  psi_13 passes all thirteen:
# past it a witness still proves n composite, but passing every base proves
# nothing.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747,
           3474749660383, 341550071728321, 341550071728321,
           3825123056546413051, 3825123056546413051, 3825123056546413051,
           318665857834031151167461, 3317044064679887385961981)
_MR_LIMIT = _MR_PSI[-1]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def primes_up_to(n):
    """All primes <= n by a byte sieve."""
    if n < 2:
        return []
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start::p] = b"\x00" * ((n - start) // p + 1)
    return np.flatnonzero(np.frombuffer(sieve, dtype=np.uint8)).tolist()


def is_prime(n):
    """Deterministic Miller-Rabin on the first k bases for the least k with
    n < psi_k, proven for n < psi_13 = 3317044064679887385961981 (about
    3.3e24).  A larger n that no base proves composite is a ValueError."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[:bisect_right(_MR_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        raise ValueError(f"is_prime is proven only below {_MR_LIMIT}")
    return True


def _pollard_brent(n):
    """One nontrivial factor of composite n (Brent's cycle variant,
    deterministic parameter sweep)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                k += m
                g = gcd(q, n)
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"pollard rho failed on {n}")


def factorize(n, composite=False):
    """Prime factorization of n >= 1 as a dict {p: exponent}.

    A caller that knows n is `composite` says so: after the primes up to 47
    are divided out, n goes straight to Pollard-Brent, with no trial
    division past 47 and no primality test of n itself."""
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    known = n if composite else None
    out = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    if not composite:
        # trial-divide the 6k+-1 wheel a bit further before rho
        d = 49
        while d * d <= n and d < 10000:
            for dd in (d, d + 4):
                while n % dd == 0:
                    out[dd] = out.get(dd, 0) + 1
                    n //= dd
            d += 6
        # no prime below d divides n: (47, 49) holds none, and the wheel
        # tried every 6k+-1 from 49.  So n < d^2 is 1 or prime.
        if d * d > n:
            if n > 1:
                out[n] = out.get(n, 0) + 1
            return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if m != known and is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = isqrt(m)
        if r * r == m:
            stack.extend((r, r))
            continue
        g = _pollard_brent(m)
        stack.extend((g, m // g))
    return out

