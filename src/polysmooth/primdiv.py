"""Primitive divisors of n^2 + b and arctangent irreducibility.

n^2 + b has a primitive divisor (some d > 1 coprime to every earlier term
m^2 + b, 1 <= m < n) iff P+(|n^2 + b|) >= 2n, or n is prime and n | b.
A prime d | n^2 + b divides m^2 + b iff m = +-n (mod d), and such an m in
[1, n) exists (n - d or d - n) iff d < 2n and d != n; d = n divides n^2 + b
iff n | b.  (_quad_poly keeps every m^2 + b nonzero.)  For n > |b| the rule
is the criterion P+ > 2n; the dump columns mark n <= |b| as "direct" and
flag where the criterion alone would disagree.  arctan n is irreducible iff the
rule holds for b = 1, which keeps N(x) = R_1(x) exactly.
"""

from dataclasses import dataclass
from math import inf, isqrt, log

import numpy as np

from .polyarith import build_factored
from .primes import factorize
from .smoothsieve import _segments, pplus_table

__all__ = ["r_b", "rb_table", "n_arctan", "verify_prop63", "RBResult",
           "RBTable", "Prop63Report"]

MAX_X = 10**8
MAX_ABS_B = 10**6


def _quad_poly(b, x):
    """t^2 + b, once b and x are checked.  |n^2 + b| <= 10^16 + 10^6 < 2^63
    for n <= x, so its P+ is int64."""
    if abs(b) > MAX_ABS_B:
        raise ValueError(f"|b|={abs(b)} exceeds the bound {MAX_ABS_B}")
    if b <= 0:
        r = isqrt(-b)
        if r * r == -b:
            raise ValueError(f"-b = {-b} is an integer square (hypothesis of "
                             f"the primitive-divisor criterion fails)")
    if x < 1:
        raise ValueError("x must be >= 1")
    if x > MAX_X:
        raise ValueError(f"x={x} exceeds the sieve budget {MAX_X}")
    return build_factored([[b, 0, 1]])


def _primitive(b, lo, pplus):
    """The n = lo, lo + 1, ... of a P+ column and whether n^2 + b has a
    primitive divisor: P+ >= 2n, or n is prime and n | b.  No n^2 + b is 0
    (_quad_poly): no entry is the P+(0) sentinel."""
    n = np.arange(lo, lo + pplus.size)
    has = pplus >= 2 * n
    for p in factorize(abs(b)):
        if lo <= p < lo + n.size:
            has[p - lo] = True
    return n, has


def _counts(b, x):
    """R_b(x) and Psi_f(x, x) for f = t^2 + b (the n with P+(|f(n)|) <= x),
    reduced from one pass over the P+ segments."""
    r = ps = 0
    for lo, _, pv in _segments(_quad_poly(b, x), 1, x, inf, True):
        r += int(np.count_nonzero(_primitive(b, lo, pv)[1]))
        ps += int(np.count_nonzero(pv <= x))
    return r, ps


@dataclass
class RBResult:
    """R_b(x), counted a segment at a time: no per-n column is held."""

    b: int
    x: int
    count: int

    @property
    def ratio(self):
        return self.count / self.x if self.x else 0.0


@dataclass
class RBTable:
    """R_b(x)'s per-n P+ column, n = 1..x, from pplus_table: rb --dump."""

    b: int
    pplus: np.ndarray

    def dump_columns(self, lo=0, hi=None):
        """The rows n = lo+1..hi as named columns: b, n, pplus,
        has_primitive (the rule of r_b), method ("direct" for n <= |b|,
        else "criterion") and criterion_mismatch (a direct n on which
        P+ > 2n alone would disagree)."""
        pplus = self.pplus[lo:hi]
        n, has = _primitive(self.b, lo + 1, pplus)
        direct = n <= abs(self.b)
        return {"b": np.full(n.size, self.b), "n": n, "pplus": pplus,
                "has_primitive": has,
                "method": np.where(direct, "direct", "criterion"),
                "criterion_mismatch": direct & (has != (pplus > 2 * n))}


def r_b(b: int, x: int) -> RBResult:
    """Exact R_b(x): the number of n in [1, x] with a primitive divisor of
    n^2 + b, by the rule applied to each segment of one sieve's P+."""
    return RBResult(b=b, x=x, count=_counts(b, x)[0])


def rb_table(b: int, x: int) -> RBTable:
    """The per-n P+ table of t^2 + b over [1, x], for rb --dump."""
    return RBTable(b=b, pplus=pplus_table(_quad_poly(b, x), x).pplus)


@dataclass
class NArctanResult:
    x: int
    count: int
    n1_by_definition: bool = True  # n = 1 counted by the definition, not the criterion


def n_arctan(x: int) -> NArctanResult:
    """N(x): the number of n <= x with arctan n irreducible, which is R_1(x):
    for b = 1 the rule above is P+(n^2+1) > 2n for n >= 2, and counts n = 1."""
    return NArctanResult(x=x, count=r_b(1, x).count)


@dataclass
class Prop63Report:
    b: int
    x: int
    r_b: int
    x_minus_psi: int
    residual: int
    ratio_normalized: float  # r log x / (x log log x)
    r_over_x: float


def verify_prop63(b: int, x: int) -> Prop63Report:
    """R_b(x) against x - Psi_f(x, x) for f = t^2 + b, both counted in one
    pass over the P+ segments (_counts)."""
    if x < 100:
        raise ValueError("x must be >= 100")
    count, ps = _counts(b, x)
    r = abs(count - (x - ps))
    return Prop63Report(b=b, x=x, r_b=count, x_minus_psi=x - ps, residual=r,
                        ratio_normalized=r * log(x) / (x * log(log(x))),
                        r_over_x=r / x)
