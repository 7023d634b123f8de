"""Exact Psi_f(x, y) and per-n largest prime factors of f(n) by a segmented
sieve over root classes.

Per segment the cofactor r[n] = |f(n)| is divided to full multiplicity by
every prime p <= y along the arithmetic progressions n = u (mod p), u a root
of f mod p.  n is y-smooth iff the cofactor ends at 1 (P+(0) = +inf keeps
f(n) = 0 non-smooth; f(n) = +-1 is always smooth).

When y reaches b0 = isqrt(max |f|) + 1, or P+ is asked for, the sieve runs in
prime mode: it divides out only the primes up to a bound B <= b0, chosen by
a cost rule from the window length, and certifies what is left.  Every prime
factor of a cofactor c exceeds B, so c <= B^2 is 1 or a prime; a larger c is
tested by is_prime and, if composite, split by largest_prime_factor.  P+ is
then exact and flags become P+ <= y.  The 2^32 domain check applies to b0,
so every certified cofactor is below 2^64.
"""

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import exp, isqrt, log

import numpy as np

from .polyarith import FactoredPoly
from .primes import is_prime, largest_prime_factor, primes_up_to
from .modroots import MAX_PRIME, root_classes

__all__ = ["SmoothTable", "psi", "pplus_table", "psi_oracle", "smooth_bound",
           "sieve_range"]

# n sieved per segment.  A count-only sieve holds one segment: a few int64
# arrays of this length, or one object array past 2^63.  Smaller segments
# pay more often for the per-segment pass over the root classes.
SEGMENT = 1 << 16

# Prime mode sieves the primes up to B = 2 * count instead of b0 when certifying
# every n is estimated to cost less than finding the roots of f mod each prime
# in (B, b0].  Microseconds per item, from a measured sweep (CHANGES.md):
CERT_US = 200  # one n near 1e12: is_prime on its cofactor, rho if composite
ROOT_US = 14  # one prime, every factor of degree <= 2 (closed forms)
ROOT_US_GCD = 200  # one prime, some factor of degree >= 3 (the gcd path)

_INT64_LIMIT = 1 << 63


@dataclass
class SmoothTable:
    """Per-n smoothness data for f(n), n in [lo, hi], plus the count psi."""

    f: FactoredPoly
    lo: int
    hi: int
    y: float
    flags: bytearray
    psi: int
    pplus: list = None

    def flag(self, n):
        return bool(self.flags[n - self.lo])

    def pplus_of(self, n):
        if self.pplus is None:
            raise ValueError("table was built without pplus")
        return self.pplus[n - self.lo]


def coeff_bound(f, height):
    """sum |a_i| height^i >= max |f(n)| over |n| <= height."""
    poly = f.product if isinstance(f, FactoredPoly) else f
    h = max(1, abs(height))
    return sum(abs(c) * h**i for i, c in enumerate(poly.coeffs))


def iroot(n, k):
    """Largest integer r with r^k <= n (integer Newton; no float overflow)."""
    if n < 0:
        raise ValueError("negative radicand")
    if k < 1:
        raise ValueError("k must be >= 1")
    if n == 0:
        return 0
    if k == 1:
        return n
    r = 1 << (n.bit_length() + k - 1) // k  # r^k >= n
    while True:
        nxt = ((k - 1) * r + n // r ** (k - 1)) // k
        if nxt >= r:
            break
        r = nxt
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def smooth_bound(x, u):
    """x^(1/u) as the smoothness bound for psi(x, x^(1/u)).

    For u with a small exact rational representation (every test grid value),
    the bound is the exact integer floor of x^(1/u):  p <= x^(b/a)  iff
    p^a <= x^b.  Irrational-looking u falls back to extended-precision float;
    a bound past the float range (tiny u), exact or not, is inf, which admits
    every prime, as x^(1/u) does for every |f(n)| below it.
    """
    if not 0 < u < float("inf"):
        raise ValueError("u must be positive and finite")
    fr = Fraction(u).limit_denominator(64)
    if float(fr) == float(u) and fr.numerator <= 64:
        a, b = fr.numerator, fr.denominator
        y = iroot(x**b, a)
        return y if y <= sys.float_info.max else float("inf")
    try:
        return exp(log(x) / u)
    except OverflowError:
        return float("inf")


def eval_range(poly, n0, count):
    """f(n0), ..., f(n0+count-1) exactly, as a numpy array.

    When coeff_bound over the range is below 2^63, every value and every
    Horner partial fits in int64, and the array is int64 by Horner on
    np.arange.  Otherwise it is an object array of Python ints from integer
    forward differences.
    """
    if count <= 0:
        return np.zeros(0, dtype=np.int64)
    if coeff_bound(poly, max(abs(n0), abs(n0 + count - 1))) < _INT64_LIMIT:
        n = np.arange(n0, n0 + count, dtype=np.int64)
        vals = np.full(count, poly.coeffs[-1], dtype=np.int64)
        for c in reversed(poly.coeffs[:-1]):
            vals *= n
            vals += c
        return vals
    d = poly.degree
    # difference table at n0
    row = [poly(n0 + i) for i in range(d + 1)]
    diffs = []
    for _ in range(d + 1):
        diffs.append(row[0])
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
    out = []
    append = out.append
    for _ in range(count):
        append(diffs[0])
        for i in range(d):
            diffs[i] += diffs[i + 1]
    return np.array(out, dtype=object)


def _sieve_segment(f, seg_lo, seg_len, P, R, need_best):
    """|f(n)| over the segment with every p in P divided out to full
    multiplicity along its root class R, and, with need_best, the largest
    such p per n (1 where none divides)."""
    vals = eval_range(f.product, seg_lo, seg_len)
    np.abs(vals, out=vals)
    best = np.ones(seg_len, dtype=np.int64) if need_best else None
    # P ascends; a class of p < seg_len hits the segment along a strided
    # view, a class of larger p at most once
    small = int(np.searchsorted(P, seg_len))
    for p, u in zip(P[:small].tolist(), R[:small].tolist()):
        first = (u - seg_lo) % p
        sub = vals[first::p]
        sub //= p  # p | f(n) on the whole class
        again = np.flatnonzero(sub % p == 0)
        again = again[sub[again] != 0]  # f(n) = 0 stays 0
        while again.size:
            sub[again] //= p
            again = again[sub[again] % p == 0]
        if need_best:
            best[first::p] = p
    if small < len(P):
        first = (R[small:] - seg_lo) % P[small:]
        hit = first < seg_len
        idx, ph = first[hit], P[small:][hit]
        if need_best:
            np.maximum.at(best, idx, ph)
        ph = ph.astype(vals.dtype)  # ufunc.at without a cast
        while idx.size:
            np.floor_divide.at(vals, idx, ph)
            left = vals[idx]
            again = (left % ph == 0) & (left != 0)
            idx, ph = idx[again], ph[again]
    return vals, best


def _aggregate(vals, best, y, bound):
    """Per-n smooth flags and, in prime mode, P+ of a segment sieved by every
    prime up to `bound`.

    Outside prime mode (best is None) n is smooth iff its cofactor is 1, and
    P+ is None.  In prime mode every prime factor of a cofactor c exceeds
    bound: c <= bound^2 is 1 or prime, and a larger c is certified here.  P+
    is P+(c) for c > 1, else the largest sieved prime.  y is compared exactly
    through floor(y), never through a float cast of P+.  At f(n) = 0 the P+
    entry is meaningless and the flag is false.
    """
    if best is None:
        return vals == 1, None
    pv = np.where(vals > 1, vals, best)
    square = bound * bound
    if pv.dtype != object:  # keep the bound an int64 operand
        square = min(square, _INT64_LIMIT - 1)
    for i in np.flatnonzero(vals > square).tolist():
        c = int(vals[i])
        if not is_prime(c):
            pv[i] = largest_prime_factor(c, above=bound, composite=True)
    ok = vals != 0
    if y != float("inf"):
        ylim = int(y)
        if pv.dtype != object:  # keep ylim an int64 operand
            ylim = min(ylim, _INT64_LIMIT - 1)
        ok &= pv <= ylim
    return ok, pv


def _prime_bound(f, count, b0):
    """The sieve bound B of prime mode over `count` values: 2 * count when
    certifying every n is estimated to cost less than finding roots mod each
    prime in (2 * count, b0], else b0.  The prime counts are estimated as
    n / log n; the rule depends on (f, count, b0) only, never on timing."""
    small = 2 * count
    if small >= b0:
        return b0
    per_root = ROOT_US_GCD if max(f.degrees) >= 3 else ROOT_US
    saved = (b0 / log(b0) - small / log(small)) * per_root
    return small if count * CERT_US < saved else b0


def sieve_range(f, lo, hi, y, *, need_pplus=False, segment_size=SEGMENT):
    """SmoothTable for n in [lo, hi] (lo >= 0).

    `y` is the smoothness bound (real).  When y reaches b0 = isqrt(max |f|)
    + 1, or with need_pplus whatever y is, the sieve runs in prime mode: it
    sieves the primes up to B <= b0 (_prime_bound) and certifies each
    cofactor left above B^2, and the table carries exact P+(|f(n)|) per n
    with need_pplus.  A prime bound of 2^32 or more is a domain error; in
    prime mode that bound is b0, not B.

    Each segment is one numpy kernel: int64 while coeff_bound stays below
    2^63, exact Python ints in an object array past it.
    """
    if lo < 0:
        raise ValueError("range must start at a nonnegative integer")
    if not y >= 1:
        raise ValueError("y must be >= 1")
    if segment_size < 1:
        raise ValueError("segment_size must be >= 1")
    count = hi - lo + 1
    if count <= 0:
        return SmoothTable(f, lo, hi, y, bytearray(), 0,
                           pplus=[] if need_pplus else None)
    mbound = coeff_bound(f, max(abs(lo), abs(hi)))
    b0 = isqrt(mbound) + 1  # least bound with b0^2 > max |f(n)|
    prime_mode = need_pplus or y >= b0  # before flooring: y may be infinite
    effective = b0 if prime_mode else int(y)  # floor for y >= 1
    if effective >= MAX_PRIME:
        raise ValueError(f"prime bound {effective} reaches the desk-scale "
                         "limit 2^32")
    bound = _prime_bound(f, count, b0) if prime_mode else effective
    P, R = root_classes(f, primes_up_to(bound))

    flags = bytearray(count)
    pplus = [] if need_pplus else None
    total = 0
    for seg_lo in range(lo, hi + 1, segment_size):
        seg_len = min(segment_size, hi - seg_lo + 1)
        vals, best = _sieve_segment(f, seg_lo, seg_len, P, R, prime_mode)
        ok, pv = _aggregate(vals, best, y, bound)
        flags[seg_lo - lo:seg_lo - lo + seg_len] = ok.tobytes()
        total += int(np.count_nonzero(ok))
        if need_pplus:
            seg_pplus = pv.tolist()
            for i in np.flatnonzero(vals == 0).tolist():
                seg_pplus[i] = float("inf")
            pplus.extend(seg_pplus)
    return SmoothTable(f, lo, hi, y, flags, total, pplus=pplus)


def psi(f, x, y):
    """Exact Psi_f(x, y): the number of n in [1, x] with f(n) y-smooth."""
    if x < 1:
        raise ValueError("x must be >= 1")
    return sieve_range(f, 1, x, y)


def pplus_table(f, x):
    """SmoothTable over [1, x] carrying exact P+(|f(n)|) for every n
    (P+(0) = inf, P+(+-1) = 1); its flags mark every n with f(n) != 0."""
    if x < 1:
        raise ValueError("x must be >= 1")
    return sieve_range(f, 1, x, float("inf"), need_pplus=True)


def psi_oracle(f, x, y):
    """Independent brute-force Psi_f(x, y) by trial division of each |f(n)|."""
    if x > 10**5:
        raise ValueError("oracle scale is x <= 1e5")
    if x < 1:
        return 0
    count = 0
    for n in range(1, x + 1):
        v = abs(f(n))
        if v == 0:
            continue
        d = 2
        while d <= y and d * d <= v:
            while v % d == 0:
                v //= d
            d += 1 if d == 2 else 2
        if v == 1 or v <= y:
            count += 1
    return count


def pplus_oracle(value):
    """Oracle-side P+ via generic factorization (trial + deterministic
    Miller-Rabin + rho); independent of the sieve path."""
    return largest_prime_factor(value)
