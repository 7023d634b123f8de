"""Roots of f modulo primes and prime powers, and the multiplicative
root-counting function omega_f(k).

Per factor, roots mod p use closed forms for degree <= 2 and the
gcd(f, X^p - X) + randomized equal-degree-splitting method for degree >= 3
(seeded deterministically from (f, p)), applied to f reduced mod p, whose
degree drops when p divides the leading coefficient; p = 2 is scanned.
Roots mod p^v come from Hensel lifting, with singular roots scanned level
by level.
"""

import random
from dataclasses import dataclass

import numpy as np

from .primes import factorize, is_prime, sqrt_mod_p
from .polyarith import FactoredPoly

__all__ = ["RootSet", "roots_mod_p", "root_classes", "lift_roots", "omega",
           "omega_factored", "mangoldt", "omega_scan"]

MAX_PRIME = 1 << 32          # primality is checked deterministically below this
MAX_PRIME_POWER = 1 << 64    # p^v magnitude budget for lifting
MAX_OMEGA_K = 1 << 48        # factoring budget for omega


@dataclass(frozen=True)
class RootSet:
    """Sorted solutions of f(u) = 0 (mod p^v)."""

    p: int
    v: int
    residues: tuple

    def __len__(self):
        return len(self.residues)


def _eval_mod(poly, u, m):
    acc = 0
    for c in reversed(poly.coeffs):
        acc = (acc * u + c) % m
    return acc


# ---------------------------------------------------------------- poly mod p

def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pm_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _pm_monic(a, p):
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _pm_rem(a, b, p):
    """a mod b over F_p; b monic."""
    a = a[:]
    db = len(b) - 1
    while len(a) - 1 >= db and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - db
            for i in range(db):
                a[shift + i] = (a[shift + i] - lead * b[i]) % p
        a.pop()
    return _trim(a)


def _pm_gcd(a, b, p):
    a, b = a[:], b[:]
    while b:
        b = _pm_monic(b, p)
        a, b = b, _pm_rem(a, b, p)
    return _pm_monic(a, p) if a else a


def _pm_pow(base, e, mod_poly, p):
    result = [1]
    base = _pm_rem(base, mod_poly, p)
    while e:
        if e & 1:
            result = _pm_rem(_pm_mul(result, base, p), mod_poly, p)
        base = _pm_rem(_pm_mul(base, base, p), mod_poly, p)
        e >>= 1
    return result


def _split_roots(g, p, rng):
    """Split a monic product of distinct linear factors into its roots."""
    deg = len(g) - 1
    if deg == 0:
        return []
    if deg == 1:
        return [(-g[0]) % p]
    while True:
        a = rng.randrange(p)
        h = _pm_pow([a, 1], (p - 1) // 2, g, p)
        if h:
            h = h[:]
            h[0] = (h[0] - 1) % p
            h = _trim(h)
        else:
            h = [p - 1]
        d = _pm_gcd(h, g, p)
        if 0 < len(d) - 1 < deg:
            # g / d: quotient is the complementary factor
            q = _pm_quot(g, d, p)
            return sorted(_split_roots(d, p, rng) + _split_roots(q, p, rng))


def _pm_quot(a, b, p):
    """a / b over F_p for monic b dividing a."""
    a = a[:]
    db = len(b) - 1
    q = [0] * (len(a) - db)
    while len(a) - 1 >= db and a:
        lead = a[-1]
        shift = len(a) - 1 - db
        q[shift] = lead
        if lead:
            for i in range(db + 1):
                a[shift + i] = (a[shift + i] - lead * b[i]) % p
        _trim(a)
    return q


def _roots_general(coeffs, p, rng):
    """Roots over F_p of a reduced poly (lead nonzero mod p, degree >= 1)
    via gcd with X^p - X and equal-degree splitting."""
    f = _pm_monic([c % p for c in coeffs], p)
    if len(f) - 1 == 1:
        return [(-f[0]) % p]
    xp = _pm_pow([0, 1], p, f, p)
    # X^p - X mod f
    xp = xp[:] + [0] * max(0, 2 - len(xp))
    xp[1] = (xp[1] - 1) % p
    g = _pm_gcd(_trim(xp), f, p)
    if not g or len(g) - 1 == 0:
        return []
    return _split_roots(g, p, rng)


def _factor_roots(poly, p, rng_factory):
    """Roots of one irreducible factor mod p."""
    if p == 2:
        return [u for u in range(2) if _eval_mod(poly, u, 2) == 0]
    # reduced mod p; a leading coefficient divisible by p lowers the degree
    cs = _trim([c % p for c in poly.coeffs])
    deg = len(cs) - 1
    if deg == 0:
        return []  # nonzero constant mod p (primitivity excludes 0)
    if deg == 1:
        return [(-cs[0]) * pow(cs[1], p - 2, p) % p]
    if deg == 2:
        c0, c1, c2 = cs
        disc = (c1 * c1 - 4 * c0 * c2) % p
        if disc == 0:
            return [(-c1) * pow(2 * c2, p - 2, p) % p]
        s = sqrt_mod_p(disc, p)
        if s is None:
            return []
        inv = pow(2 * c2, p - 2, p)
        return sorted({(-c1 + s) * inv % p, (-c1 - s) * inv % p})
    return _roots_general(cs, p, rng_factory())


def _roots_of_prime(f, p):
    """roots_mod_p for a p already known to be a prime below MAX_PRIME."""
    cached = f._root_cache.get(p)
    if cached is not None:
        return cached

    def rng_factory():
        return random.Random(f"{f.key()}|{p}")

    roots = set()
    for factor in f.factors:
        roots.update(_factor_roots(factor, p, rng_factory))
    rs = RootSet(p, 1, tuple(sorted(roots)))
    f._root_cache[p] = rs
    return rs


def roots_mod_p(f: FactoredPoly, p: int) -> RootSet:
    """All u (mod p) with f(u) = 0 (mod p), exactly."""
    cached = f._root_cache.get(p)
    if cached is not None:
        return cached
    if p >= MAX_PRIME:
        raise ValueError(f"p={p} exceeds the desk-scale prime bound 2^32")
    if p < 2 or not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    return _roots_of_prime(f, p)


def root_classes(f: FactoredPoly, primes):
    """Every root class of f modulo the given primes, as two int64 arrays
    P, R with f(R[i]) = 0 (mod P[i]), in the order of `primes`.

    `primes` is an ascending list of primes, as primes_up_to returns it;
    only its bound is checked, not the primality of each entry.
    """
    if primes and primes[-1] >= MAX_PRIME:
        raise ValueError(f"p={primes[-1]} exceeds the desk-scale prime bound 2^32")
    P, R = [], []
    for p in primes:
        residues = _roots_of_prime(f, p).residues
        P.extend([p] * len(residues))
        R.extend(residues)
    return np.array(P, dtype=np.int64), np.array(R, dtype=np.int64)


def lift_roots(f: FactoredPoly, p: int, v: int) -> RootSet:
    """All u (mod p^v) with f(u) = 0 (mod p^v), by Hensel lifting.

    Simple roots (f'(u) != 0 mod p) lift uniquely; singular roots are
    scanned through the p candidates u + t*p^k at each level.
    """
    if v < 1:
        raise ValueError("v must be >= 1")
    if p**v > MAX_PRIME_POWER:
        raise ValueError(f"p^v = {p}^{v} exceeds the magnitude budget 2^64")
    base = roots_mod_p(f, p)
    if v == 1:
        return base
    cached = f._lift_cache.get((p, v))
    if cached is not None:
        return cached
    fpoly = f.product
    fprime = f.derivative()
    start = 1
    roots = list(base.residues)
    for k in range(v - 1, 1, -1):
        hit = f._lift_cache.get((p, k))
        if hit is not None:
            start, roots = k, list(hit.residues)
            break
    mod_k = p**start
    for k in range(start, v):
        mod_next = mod_k * p
        nxt = []
        for u in roots:
            fp_u = _eval_mod(fprime, u, p)
            if fp_u:
                fu = _eval_mod(fpoly, u, mod_next)
                t = (-(fu // mod_k)) * pow(fp_u, -1, p) % p
                nxt.append(u + t * mod_k)
            else:
                for t in range(p):
                    cand = u + t * mod_k
                    if _eval_mod(fpoly, cand, mod_next) == 0:
                        nxt.append(cand)
        roots = nxt
        mod_k = mod_next
        rs = RootSet(p, k + 1, tuple(sorted(roots)))
        f._lift_cache[(p, k + 1)] = rs
    return f._lift_cache[(p, v)]


def omega_factored(f: FactoredPoly, fact: dict) -> int:
    """omega_f of the integer with prime factorization `fact`."""
    result = 1
    for p, e in fact.items():
        result *= len(lift_roots(f, p, e))
        if result == 0:
            return 0
    return result


def omega(f: FactoredPoly, k: int) -> int:
    """omega_f(k) = #{u mod k : f(u) = 0 mod k}, via multiplicativity over
    the prime factorization of k.  omega_f(1) = 1."""
    if k == 0:
        raise ValueError("omega_f(0) is undefined")
    if k < 0:
        raise ValueError("k must be >= 1")
    if k > MAX_OMEGA_K:
        raise ValueError(f"k={k} exceeds the factoring budget 2^48")
    if k == 1:
        return 1
    return omega_factored(f, factorize(k))


def omega_scan(f, k):
    """Independent oracle: count roots of f mod k by evaluating f at every
    residue, one int64 Horner pass over 0..k-1 reduced mod k at each step
    (k < 2^31 keeps every product below 2^62)."""
    if not 1 <= k < 1 << 31:
        raise ValueError("omega_scan needs 1 <= k < 2^31")
    poly = f.product if isinstance(f, FactoredPoly) else f
    r = np.arange(k, dtype=np.int64)
    acc = np.zeros(k, dtype=np.int64)
    for c in reversed(poly.coeffs):
        acc *= r
        acc += c % k
        acc %= k
    return int(np.count_nonzero(acc == 0))


def mangoldt(k: int):
    """(p, v) when k = p^v is a prime power (so Lambda(k) = log p), else
    None as the zero marker."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return None
    fact = factorize(k)
    if len(fact) == 1:
        ((p, v),) = fact.items()
        return (p, v)
    return None
