"""Exact Psi_f(x, y) and per-n largest prime factors of f(n) by a segmented
sieve over root classes.

Per segment the cofactor r[n] = |f(n)| is divided to full multiplicity by
every prime p <= y along the arithmetic progressions n = u (mod p), u a root
of f mod p.  n is y-smooth iff the cofactor ends at 1 (P+(0) = +inf keeps
f(n) = 0 non-smooth; f(n) = +-1 is always smooth).  When y exceeds
isqrt(max |f|) the sieve switches to cofactor-primality mode: any surviving
cofactor is prime, so P+ is known exactly and flags become P+ <= y.
"""

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import exp, isqrt, log

from .polyarith import FactoredPoly
from .primes import largest_prime_factor, primes_up_to
from .modroots import roots_mod_p

__all__ = ["SmoothTable", "psi", "pplus_table", "psi_oracle", "smooth_bound",
           "sieve_range"]

# n sieved per segment.  A count-only sieve holds one segment of Python ints;
# 2^16 keeps that to a few MB, and smaller segments start to pay for the
# per-segment pass over the root classes.
SEGMENT = 1 << 16


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
    """[f(n0), ..., f(n0+count-1)] exactly, by integer forward differences."""
    d = poly.degree
    if count <= 0:
        return []
    if count <= d + 1:
        return [poly(n0 + i) for i in range(count)]
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
    return out


def _sieve_segment(f, seg_lo, seg_len, roots, need_best):
    vals = [abs(v) for v in eval_range(f.product, seg_lo, seg_len)]
    best = [1] * seg_len if need_best else None
    for p, residues in roots:
        for u in residues:
            i = (u - seg_lo) % p
            while i < seg_len:
                v = vals[i]
                if v:
                    v //= p
                    while v % p == 0:
                        v //= p
                    vals[i] = v
                    if need_best:
                        best[i] = p
                i += p
    return vals, best


def sieve_range(f, lo, hi, y, *, need_pplus=False, segment_size=SEGMENT):
    """SmoothTable for n in [lo, hi] (lo >= 0).

    `y` is the smoothness bound (real).  With need_pplus the sieve runs in
    cofactor-primality mode whatever y is, and the table carries exact
    P+(|f(n)|) per n.

    Each hit divides out the prime to full multiplicity; sieving prime powers
    through lifted root classes instead would save the inner division loop
    and is the one optimization hook left open here.
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
    primes = primes_up_to(effective)
    roots = []
    for p in primes:
        rs = roots_mod_p(f, p)
        if rs.residues:
            roots.append((p, rs.residues))

    need_best = need_pplus or prime_mode
    flags = bytearray(count)
    pplus = [0] * count if need_pplus else None
    total = 0
    pos = 0
    for seg_lo in range(lo, hi + 1, segment_size):
        seg_len = min(segment_size, hi - seg_lo + 1)
        vals, best = _sieve_segment(f, seg_lo, seg_len, roots, need_best)
        for i in range(seg_len):
            v = vals[i]
            if v == 0:
                ok = False
                pv = float("inf")
            elif prime_mode:
                pv = v if v > 1 else best[i]
                ok = pv <= y
            else:
                ok = v == 1
                pv = None
            if ok:
                flags[pos] = 1
                total += 1
            if need_pplus:
                pplus[pos] = pv
            pos += 1
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
