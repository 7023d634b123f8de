"""Primitive divisors of n^2 + b and arctangent irreducibility.

n^2 + b has a primitive divisor (some d > 1 coprime to every earlier term
m^2 + b, 1 <= m < n) iff P+(|n^2 + b|) >= 2n, or n is prime and n | b.
A prime d | n^2 + b divides m^2 + b iff m = +-n (mod d), and such an m in
[1, n) exists (n - d or d - n) iff d < 2n and d != n; d = n divides n^2 + b
iff n | b.  (_check_b keeps every m^2 + b nonzero.)  For n > |b| the rule is
the criterion P+ > 2n; the dump columns mark n <= |b| as "direct" and flag
where the criterion alone would disagree.  arctan n is irreducible iff the
rule holds for b = 1, which keeps N(x) = R_1(x) exactly.
"""

from dataclasses import dataclass
from math import isqrt, log

import numpy as np

from .polyarith import build_factored
from .primes import factorize
from .smoothsieve import pplus_table

__all__ = [
    "r_b",
    "n_arctan",
    "verify_prop63",
    "RBResult",
    "Prop63Report",
]

MAX_X = 10**8
MAX_ABS_B = 10**6


def _check_b(b):
    if abs(b) > MAX_ABS_B:
        raise ValueError(f"|b|={abs(b)} exceeds the bound {MAX_ABS_B}")
    if b <= 0:
        r = isqrt(-b)
        if r * r == -b:
            raise ValueError(
                f"-b = {-b} is an integer square (hypothesis of the "
                f"primitive-divisor criterion fails)"
            )


def _quad_poly(b):
    return build_factored([[b, 0, 1]])  # t^2 + b


@dataclass
class RBResult:
    """R_b(x) and its per-n columns for n = 1..x: P+(|n^2 + b|) (int64) and
    whether n^2 + b has a primitive divisor (bool)."""

    b: int
    x: int
    count: int
    pplus: np.ndarray
    has_primitive: np.ndarray

    @property
    def ratio(self):
        return self.count / self.x if self.x else 0.0

    def dump_columns(self, lo=0, hi=None):
        """The rows n = lo+1..hi of the per-n table as named columns: b, n,
        pplus, has_primitive, method ("direct" for n <= |b|, else
        "criterion") and criterion_mismatch (a direct n on which P+ > 2n
        alone would disagree)."""
        pplus = self.pplus[lo:hi]
        has = self.has_primitive[lo:hi]
        n = np.arange(lo + 1, lo + 1 + pplus.size)
        direct = n <= abs(self.b)
        return {"b": np.full(n.size, self.b), "n": n, "pplus": pplus,
                "has_primitive": has,
                "method": np.where(direct, "direct", "criterion"),
                "criterion_mismatch": direct & (has != (pplus > 2 * n))}


def r_b(b: int, x: int) -> RBResult:
    """Exact R_b(x): the number of n in [1, x] with a primitive divisor of
    n^2 + b, from one sieved P+ table, held as an int64 column
    (|n^2 + b| <= 10^16 + 10^6 < 2^63)."""
    _check_b(b)
    if x < 1:
        raise ValueError("x must be >= 1")
    if x > MAX_X:
        raise ValueError(f"x={x} exceeds the sieve budget {MAX_X}")
    pplus = pplus_table(_quad_poly(b), x).pplus
    # every n^2 + b is nonzero (_check_b): no entry is the P+(0) sentinel
    has = pplus >= np.arange(2, 2 * x + 1, 2)  # P+ >= 2n
    # the other way to qualify: n itself prime and n | b
    for n in factorize(abs(b)):
        if n <= x:
            has[n - 1] = True
    return RBResult(b=b, x=x, count=int(np.count_nonzero(has)), pplus=pplus,
                    has_primitive=has)


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
    """R_b(x) against x - Psi_f(x, x) for f = t^2 + b, both counted from one
    P+ table: Psi_f(x, x) is the number of n with P+(|f(n)|) <= x."""
    if x < 100:
        raise ValueError("x must be >= 100")
    res = r_b(b, x)
    ps = int(np.count_nonzero(res.pplus <= x))
    r = abs(res.count - (x - ps))
    return Prop63Report(
        b=b,
        x=x,
        r_b=res.count,
        x_minus_psi=x - ps,
        residual=r,
        ratio_normalized=r * log(x) / (x * log(log(x))),
        r_over_x=r / x,
    )
