"""Exact Psi_f(x, y) and per-n largest prime factors of f(n) by a segmented
sieve: one plan (_plan) of the root classes of each factor g of f mod every
p^k, lifted by modroots.lift_classes in uint64 lanes below 2^32, one kernel
per quantity, and one step (_settle_deep) for the exact v_p where a higher
power of p may still divide g(n).

Flags (count mode, y < b0 = isqrt(max |f|) + 1 and no P+ asked for) come
from a log sieve: log p is added at each hit of a class of p <= y, so the
sum at n is log of the y-smooth part of |f(n)|.  n is smooth iff the sum
reaches log |f(n)| - (log 2)/2: a non-smooth n leaves a cofactor R >= 2
unsieved, so it falls short by log R >= log 2.  |f(n)| is evaluated in
float64 and stated error bounds (_log_values) keep the test exact; n near a
real root, where the float value is not trusted, is evaluated exactly.
f(n) = 0 is never smooth; f(n) = +-1 always is.

P+ (prime mode, y >= b0 or P+ asked for) comes from division: each hit of a
class of p <= B = min(2 * count, b0) divides |f(n)| by p, for a window of
count values, and what is left is certified.
Every prime factor of a cofactor c exceeds B, so c <= B^2 is 1 or a prime; a
larger c is tested by Miller-Rabin (is_prime) and, if composite, split by
Pollard-Brent (factorize).  P+ is then exact and flags become P+ <= y.  The
2^32 domain check applies to b0, so every certified cofactor is below 2^64.

Both kernels split the plan by how often a class hits a segment (_dense): a
class of q below 1/64 of the segment length is sieved along a strided view,
and every other class through one gathered pass over all their hits
(_hits): np.bincount adds the logs, unbuffered np.floor_divide.at and
np.maximum.at divide and keep the largest p, so two primes that hit one n
both count.
"""

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import exp, inf, isqrt, log

import numpy as np

from .polyarith import FactoredPoly
from .primes import factorize, is_prime, primes_up_to
from .modroots import MAX_PRIME, MAX_PRIME_POWER, lift_classes, root_classes
# bench/oracles.py imports psi_oracle from this module
from .oracles import psi_oracle

__all__ = ["SmoothTable", "psi", "pplus_table", "smooth_bound", "sieve_range"]

# n sieved per segment.  A count-only sieve holds one segment: a few float64
# arrays of this length.  Smaller segments pay more often for the
# per-segment pass over the root classes.
SEGMENT = 1 << 16

_INT64_LIMIT = 1 << 63

# The log sieve.  A non-smooth n falls short of log |f(n)| by at least
# log 2; the test leaves half of that to float error (_log_flags).
_LOG_MARGIN = log(2) / 2
_UNIT_ROUNDOFF = 2.0**-53
# A float |f(n)| is used only where Horner's error bound is below this share
# of it, so its log is off by less than -log(1 - 2^-10) < 0.001.
_NEAR_ROOT = 2.0**-10
# Past this coefficient bound float values could overflow: every n of the
# segment is evaluated exactly.
_FLOAT_LIMIT = 1 << 1000
# Values of 2^_LOG_BITS or more are a domain error: past them the float sum
# of logs could drift by 0.001 (_log_flags).
_LOG_BITS = 1 << 20
# Bound on q for lifting a singular root mod q: it lifts to p classes at once
_MAX_CLASSES = 256
# A class that hits a segment this many times or more is sieved along a
# strided view; two numpy calls per class and segment cost less than its
# hits in the gathered pass.  Below it the gathered pass costs less.
_DENSE_HITS = 64


@dataclass
class SmoothTable:
    """Per-n smoothness data for f(n), n in [lo, hi], plus the count psi.

    `flags` is a bool array.  `pplus`, when built, holds P+(|f(n)|): int64
    when coeff_bound(f, hi) < 2^63 (eval_range's rule), else an object array
    of Python ints.  P+(0) is stored as 0, which no other value takes
    (P+(+-1) = 1); pplus_of reads it as inf.
    """

    f: FactoredPoly
    lo: int
    hi: int
    y: float
    flags: np.ndarray
    psi: int
    pplus: np.ndarray = None

    def _index(self, n):
        # a negative index would read the columns from the end
        if not self.lo <= n <= self.hi:
            raise ValueError(f"n = {n} is outside the table's window "
                             f"[{self.lo}, {self.hi}]")
        return n - self.lo

    def flag(self, n):
        return bool(self.flags[self._index(n)])

    def pplus_of(self, n):
        if self.pplus is None:
            raise ValueError("table was built without pplus")
        return int(self.pplus[self._index(n)]) or inf


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
    """f(n0), ..., f(n0+count-1) exactly, as a numpy array, by Horner.

    When coeff_bound over the range is below 2^63, every value and every
    Horner partial fits in int64, and the array is int64.  Otherwise the
    same Horner runs on an object array of Python ints.
    """
    if count <= 0:
        return np.zeros(0, dtype=np.int64)
    fits = coeff_bound(poly, max(abs(n0), abs(n0 + count - 1))) < _INT64_LIMIT
    n = np.arange(n0, n0 + count, dtype=np.int64 if fits else object)
    vals = np.full(count, poly.coeffs[-1], dtype=n.dtype)
    for c in reversed(poly.coeffs[:-1]):
        vals *= n
        vals += c
    return vals


def _dense(Q, seg_len):
    """The classes, a prefix of the plan sorted by q, that the kernels sieve
    along a strided view: those of q < seg_len / _DENSE_HITS, which hit the
    segment at least _DENSE_HITS times.  Every other class goes through one
    gathered pass (_hits)."""
    return int(np.searchsorted(Q, -(-seg_len // _DENSE_HITS)))


def _hits(Q, R, seg_lo, seg_len, start):
    """Every hit n = seg_lo + i of the classes Q[start:], R[start:] in the
    segment, as arrays (c, i) of the class's index into Q and the offset."""
    Q, R = Q[start:], R[start:]
    first = (R - seg_lo) % Q
    cls = (first < seg_len).nonzero()[0]
    cls = np.repeat(cls, (seg_len - 1 - first[cls]) // Q[cls] + 1)
    pos = first[cls] + (np.arange(cls.size) - cls.searchsorted(cls)) * Q[cls]
    return cls + start, pos


def _sieve_segment(f, seg_lo, seg_len, P, Q, R, deep):
    """|f(n)| over the segment with every p of the plan divided out to full
    multiplicity (once at each hit of a class, then by _settle_deep), and
    the largest such p per n (1 where none divides)."""
    vals = eval_range(f.product, seg_lo, seg_len)
    np.abs(vals, out=vals)
    best = np.ones(seg_len, dtype=np.int64)
    dense = _dense(Q, seg_len)
    for p, q, r in zip(P[:dense].tolist(), Q[:dense].tolist(),
                       R[:dense].tolist()):
        first = (r - seg_lo) % q
        sub = vals[first::q]
        sub //= p
        np.maximum(best[first::q], p, out=best[first::q])
    # unbuffered: classes of two primes that hit one n both divide it
    cls, pos = _hits(Q, R, seg_lo, seg_len, dense)
    ph = P[cls]
    np.maximum.at(best, pos, ph)
    np.floor_divide.at(vals, pos, ph.astype(vals.dtype))
    _settle_deep(P, Q, R, deep, seg_lo, seg_len, vals)
    return vals, best


def _aggregate(vals, best, y, bound):
    """Per-n smooth flags and P+ of a segment sieved by every prime up to
    `bound`.

    Every prime factor of a cofactor c exceeds bound: c <= bound^2 is 1 or
    prime, and a larger c is certified here.  P+ is P+(c) for c > 1, else
    the largest sieved prime.  y is compared exactly through floor(y), never
    through a float cast of P+.  At f(n) = 0 the P+ entry is 0 (SmoothTable)
    and the flag is false.
    """
    pv = np.where(vals > 1, vals, best)
    square = bound * bound
    if pv.dtype != object:  # keep the bound an int64 operand
        square = min(square, _INT64_LIMIT - 1)
    for i in np.flatnonzero(vals > square).tolist():
        c = int(vals[i])
        if not is_prime(c):
            pv[i] = max(factorize(c, composite=True))
    ok = vals != 0
    pv[~ok] = 0
    if y != float("inf"):
        ylim = int(y)
        if pv.dtype != object:  # keep ylim an int64 operand
            ylim = min(ylim, _INT64_LIMIT - 1)
        ok &= pv <= ylim
    return ok, pv


def _plan(f, primes, lo, hi):
    """The classes both kernels sieve over [lo, hi], 0 <= lo: int64 arrays
    P, Q, R sorted by Q, one per root r of a factor g of f mod q = p^k, and
    deep = (gs, DG, DI), the factors and, per class past which p^(k+1) may
    divide g(n), the factor's index and the class's index into P, Q, R.
    lift_classes lifts a class while q < hi - lo + 1 (past it, it hits
    [lo, hi] once at most), q p < 2^32 and q p <= max |g(n)|, a singular
    one while q <= _MAX_CLASSES."""
    count = min(hi - lo + 1, MAX_PRIME)
    gs = [part.product for part in f.parts()]
    levels, deep, size = [], [], 0
    for i, part in enumerate(f.parts()):
        top = min(coeff_bound(gs[i], hi), MAX_PRIME_POWER - 1)  # >= |g(n)|
        P, R = (a.view(np.uint64) for a in root_classes(part, primes))
        limit = np.minimum(np.minimum((MAX_PRIME - 1) // P, top // P),
                           count - 1)
        for lane, Q, roots, capped in lift_classes(gs[i], P, R, limit,
                                                   _MAX_CLASSES):
            levels.append((P[lane], Q, roots))
            stop = (capped & (Q * P[lane] <= top)).nonzero()[0]
            deep.append((np.full_like(stop, i), stop + size))
            size += roots.size
    # every entry is below 2^32: the uint64 bits read as int64; each list,
    # up to a class per prime, is dropped as soon as it is joined
    P, Q, R = (np.concatenate(a).view(np.int64) for a in zip(*levels))
    del levels
    order = np.argsort(Q, kind="stable")
    rank = np.empty_like(order)  # a class's index into the sorted plan
    rank[order] = np.arange(order.size)
    DG, DI = (np.concatenate(a) for a in zip(*deep))
    deep = (gs, DG, rank[DI])
    del rank, DI
    return P[order], Q[order], R[order], deep


def _settle_deep(P, Q, R, deep, seg_lo, seg_len, vals=None):
    """The exact v_p at every hit n = seg_lo + i of a deep class, as arrays
    (i, p, v): of g(n) / q per class and hit in count mode; in prime mode, of
    the cofactor the classes left in `vals`, which is divided out in place,
    one entry per (n, p) as deep classes of two factors may hit one n."""
    gs, DG, DI = deep
    cls, pos = _hits(Q[DI], R[DI], seg_lo, seg_len, 0)
    if not cls.size:
        return pos, pos, pos
    fac, cls = DG[cls], DI[cls]
    p = P[cls]
    if vals is None:  # Horner in int64 is exact by eval_range's rule
        big = max(coeff_bound(g, seg_lo + seg_len - 1) for g in gs)
        n = (pos + seg_lo).astype(np.int64 if big < _INT64_LIMIT else object)
        w = np.zeros_like(n)
        for i, g in enumerate(gs):
            at = fac == i
            w[at] = np.polyval(g.coeffs[::-1], n[at]) // Q[cls[at]]
    else:
        p, pos = np.divmod(np.unique(p * seg_len + pos), seg_len)
        w = vals[pos]
    ph = p.astype(w.dtype)
    v = np.zeros(w.size, dtype=np.int64)
    live = (w != 0).nonzero()[0]
    while (live := live[w[live] % ph[live] == 0]).size:
        w[live] //= ph[live]
        v[live] += 1
    if vals is not None:
        np.floor_divide.at(vals, pos, ph ** v.astype(w.dtype))
    return pos, p, v


def _log_values(poly, seg_lo, seg_len):
    """log |f(n)| for n in [seg_lo, seg_lo + seg_len), +inf where f(n) = 0.

    Horner in float64, on coefficients rounded once and n rounded twice
    (seg_lo + i), is off by at most gamma_{4d+2} * S with S =
    coeff_bound(poly, seg_hi) >= sum |a_i| n^i and gamma_m = m u / (1 - m u),
    u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., 5.1).  E = 2 (4d + 2) u S bounds it.
    Where the float value F exceeds 2^10 E, |log F - log |f(n)|| < 0.001;
    elsewhere (near a real root of f, at f(n) = 0, or in a segment whose
    coefficient bound reaches _FLOAT_LIMIT) f(n) is evaluated exactly and
    its log taken from the integer.  np.log is within a few ulp.
    """
    bound = coeff_bound(poly, seg_lo + seg_len - 1)
    if bound < _FLOAT_LIMIT:
        n = np.arange(seg_len, dtype=np.float64)
        n += seg_lo
        *rest, lead = poly.coeffs  # degree >= 1
        vals = n * float(lead)
        vals += float(rest[-1])
        for c in reversed(rest[:-1]):
            vals *= n
            vals += float(c)
        np.abs(vals, out=vals)
        err = 2 * (4 * poly.degree + 2) * _UNIT_ROUNDOFF * float(bound)
        exact = np.flatnonzero(vals <= err / _NEAR_ROOT).tolist()
        with np.errstate(divide="ignore"):
            logs = np.log(vals, out=vals)
    else:
        logs = np.empty(seg_len)
        exact = range(seg_len)
    for i in exact:
        v = abs(poly(seg_lo + i))
        logs[i] = log(v) if v else inf
    return logs


def _log_flags(f, seg_lo, seg_len, P, Q, R, deep):
    """Smooth flags of a segment by the log sieve over the plan (_plan).

    The sum at n is log of the y-smooth part of |f(n)|: min(v_p(g(n)), k)
    terms log p from the levels of (g, p), plus the rest of v_p(g(n)),
    counted exactly, at the hits of a deep class.  It has m <= 2 log2 |f(n)|
    terms, each log p within an ulp, so in any order of summation its float
    error is below 2 m u log |f(n)| < 0.001 for |f(n)| < 2^_LOG_BITS.  With
    _log_values' 0.001 both stay far inside the (log 2)/2 margin: the test
    is exact.
    """
    acc = np.zeros(seg_len)
    dense = _dense(Q, seg_len)
    for q, r, lp in zip(Q[:dense].tolist(), R[:dense].tolist(),
                        np.log(P[:dense]).tolist()):
        acc[(r - seg_lo) % q::q] += lp
    cls, pos = _hits(Q, R, seg_lo, seg_len, dense)
    acc += np.bincount(pos, weights=np.log(P[cls]), minlength=seg_len)
    pos, p, v = _settle_deep(P, Q, R, deep, seg_lo, seg_len)
    np.add.at(acc, pos, v * np.log(p))
    return acc >= _log_values(f.product, seg_lo, seg_len) - _LOG_MARGIN


def sieve_range(f, lo, hi, y, *, need_pplus=False, segment_size=SEGMENT):
    """SmoothTable for n in [lo, hi] (lo >= 0).

    `y` is the smoothness bound (real).  When y reaches b0 = isqrt(max |f|)
    + 1, or with need_pplus whatever y is, the sieve runs in prime mode: it
    divides out the primes up to B = min(2 * count, b0), certifies each
    cofactor left above B^2, and the table carries exact P+(|f(n)|) per n
    with need_pplus.  Otherwise the flags come from the log sieve over every
    p <= y.  A prime bound of 2^32 or more is a domain error; in prime mode
    that bound is b0, not B.
    """
    if lo < 0:
        raise ValueError("range must start at a nonnegative integer")
    if not y >= 1:
        raise ValueError("y must be >= 1")
    if segment_size < 1:
        raise ValueError("segment_size must be >= 1")
    count = hi - lo + 1
    if count <= 0:
        return SmoothTable(f, lo, hi, y, np.zeros(0, dtype=bool), 0,
                           pplus=np.zeros(0, dtype=np.int64)
                           if need_pplus else None)
    mbound = coeff_bound(f, max(abs(lo), abs(hi)))
    b0 = isqrt(mbound) + 1  # least bound with b0^2 > max |f(n)|
    prime_mode = need_pplus or y >= b0  # before flooring: y may be infinite
    effective = b0 if prime_mode else int(y)  # floor for y >= 1
    if effective >= MAX_PRIME:
        raise ValueError(f"prime bound {effective} reaches the desk-scale "
                         "limit 2^32")
    if not prime_mode and mbound.bit_length() > _LOG_BITS:
        raise ValueError("values reach 2^(2^20), past the exact range of "
                         "the log sieve")
    bound = min(2 * count, b0) if prime_mode else effective
    plan = _plan(f, primes_up_to(bound), lo, hi)

    flags = np.zeros(count, dtype=bool)
    pplus = None
    if need_pplus:
        pplus = np.zeros(count, dtype=np.int64 if mbound < _INT64_LIMIT
                         else object)
    for seg_lo in range(lo, hi + 1, segment_size):
        seg_len = min(segment_size, hi - seg_lo + 1)
        seg = slice(seg_lo - lo, seg_lo - lo + seg_len)
        if prime_mode:
            vals, best = _sieve_segment(f, seg_lo, seg_len, *plan)
            flags[seg], pv = _aggregate(vals, best, y, bound)
            if need_pplus:
                pplus[seg] = pv
        else:
            flags[seg] = _log_flags(f, seg_lo, seg_len, *plan)
    return SmoothTable(f, lo, hi, y, flags, int(np.count_nonzero(flags)),
                       pplus=pplus)


def psi(f, x, y):
    """Exact Psi_f(x, y): the number of n in [1, x] with f(n) y-smooth."""
    if x < 1:
        raise ValueError("x must be >= 1")
    return sieve_range(f, 1, x, y)


def pplus_table(f, x):
    """SmoothTable over [1, x] carrying exact P+(|f(n)|) for every n
    (P+(+-1) = 1; P+(0) = inf, stored as 0); its flags mark every n with
    f(n) != 0."""
    if x < 1:
        raise ValueError("x must be >= 1")
    return sieve_range(f, 1, x, float("inf"), need_pplus=True)

