"""Prime-ideal counting in real quadratic fields Q(sqrt(m)) for squarefree
m = 2, 3 (mod 4), where the ring of integers is Z[sqrt(m)] and the ideal
denominator of (sqrt(m)) is trivial.

Prime ideals above p exist here only as (p, root-class) tags: an odd split p
gives two classes n = -u, u (mod p) from u^2 = m (mod p); ramified p | 2m
gives one; inert p never divides n^2 - m.  The count c_alpha(x) of n whose
ideal (n + sqrt(m)) has a prime divisor shared with no other (k + sqrt(m)),
k <= x, therefore reduces to a largest-prime-factor threshold test per n,
which the root-class sieve answers exactly.
"""

from dataclasses import dataclass
from math import inf, isqrt, log

import numpy as np

from .modroots import lift_table
from .polyarith import FactoredPoly, build_factored
from .primes import factorize, is_prime
from .smoothsieve import _segments

__all__ = [
    "QuadContext",
    "QuadPrimeClass",
    "make_context",
    "classify_prime",
    "classify_primes",
    "c_alpha",
    "windowed_cassels",
    "verify_prop54",
    "CAlphaResult",
    "Prop54Report",
]

MAX_WINDOW_END = 10**6 + 10


@dataclass(frozen=True)
class QuadContext:
    """alpha = sqrt(m) with minimal polynomial t^2 - m, field discriminant
    4m, and trivial ideal denominator."""

    m: int
    f: FactoredPoly
    disc: int
    ideal_denominator_norm: int = 1


def make_context(m: int) -> QuadContext:
    if m < 2:
        raise ValueError("m must be >= 2")
    if m % 4 not in (2, 3):
        raise ValueError("m must be 2 or 3 (mod 4) so that O_K = Z[sqrt(m)]")
    r = isqrt(m)
    if r * r == m:
        raise ValueError("m must not be a square")
    if any(e > 1 for e in factorize(m).values()):
        raise ValueError("m must be squarefree")
    f = build_factored([[-m, 0, 1]])  # t^2 - m
    return QuadContext(m=m, f=f, disc=4 * m)


@dataclass(frozen=True)
class QuadPrimeClass:
    """Splitting data of a rational prime: the root classes are the residues
    u with u^2 = m (mod p), and membership in P_K (first degree and
    unambiguous) holds exactly for split primes."""

    p: int
    kind: str  # split | inert | ramified
    roots: tuple
    in_P_K: bool


def classify_primes(ctx: QuadContext, primes) -> list:
    """The QuadPrimeClass of every prime of `primes`, in order, from one
    lift_table call; the primes are not checked prime."""
    table = lift_table(ctx.f, [(p, 1) for p in primes])
    kinds = ["ramified" if ctx.disc % p == 0 else
             "split" if table[p, 1] else "inert" for p in primes]
    return [QuadPrimeClass(p, kind, table[p, 1], kind == "split")
            for p, kind in zip(primes, kinds)]


def classify_prime(ctx: QuadContext, p: int) -> QuadPrimeClass:
    """classify_primes for one p, once p is checked prime."""
    if p < 2 or not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    return classify_primes(ctx, [p])[0]


@dataclass
class CAlphaResult:
    m: int
    x: int
    count: int
    witnesses: np.ndarray  # (n, P+) rows, int64, per counted n
    include_zero: bool = False
    lo: int = 1


def _unique_classes(lo, pp, exclusion_lo, exclusion_hi):
    """The n of the P+ segment pp (n = lo, lo + 1, ...) such that some prime
    p | n^2 - m has its class n (mod p) free of any other k in
    [exclusion_lo, exclusion_hi], as (n, P+) rows.

    The class of n mod p contains another excluded k iff p <= n - exclusion_lo
    or p <= exclusion_hi - n, so the test is P+(|n^2 - m|) > threshold; the
    sieve gives exact P+ per n.  P+ = 1 marks a unit n^2 - m = +-1, which no
    prime ideal divides (n^2 - m is never 0: m is no square).
    """
    n = np.arange(lo, lo + pp.size)
    hit = pp > np.maximum(np.maximum(n - exclusion_lo, exclusion_hi - n), 1)
    return np.column_stack((n[hit], pp[hit]))


def c_alpha(ctx: QuadContext, x: int) -> CAlphaResult:
    """The number of n in [1, x] such that some prime ideal divides
    (n + sqrt(m)) and divides no other (k + sqrt(m)), 1 <= k <= x."""
    if x < 1:
        raise ValueError("x must be >= 1")
    return windowed_cassels(ctx, 0, x, include_zero=False)


def _window_segments(ctx, N, M):
    """The sieve's exact P+(|n^2 - m|) segments for n in (N, N+M]."""
    if M < 0:
        raise ValueError("M must be >= 0")
    if N < 0:
        raise ValueError("N must be >= 0")
    if N + M > MAX_WINDOW_END:
        raise ValueError(f"window end {N + M} exceeds the oracle-grade "
                         f"bound {MAX_WINDOW_END}")
    return _segments(ctx.f, N + 1, N + M, inf, True)


def windowed_cassels(ctx: QuadContext, N: int, M: int,
                     include_zero: bool = True) -> CAlphaResult:
    """Count n in (N, N+M] whose ideal (n + sqrt(m)) has a prime divisor
    dividing no (k + sqrt(m)) for k in [0, N+M] (k from 1 with
    include_zero=False), k != n: the witness rows of each segment, joined."""
    k0 = 0 if include_zero else 1
    wit = np.concatenate([np.zeros((0, 2), dtype=np.int64)]
                         + [_unique_classes(lo, pv, k0, N + M)
                            for lo, _, pv in _window_segments(ctx, N, M)])
    return CAlphaResult(m=ctx.m, x=N + M, count=len(wit), witnesses=wit,
                        include_zero=include_zero, lo=N + 1)


@dataclass
class Prop54Report:
    m: int
    x: int
    c_alpha: int
    x_minus_psi: int
    residual: int
    ratio_rlogx_over_x: float
    r_over_x: float


def verify_prop54(ctx: QuadContext, x: int) -> Prop54Report:
    """c_alpha(x) against x - Psi_f(x, x) for f = t^2 - m, both counted from
    one pass over the P+ segments (Psi_f(x, x) is the number of n with
    P+(|f(n)|) <= x), with the residual normalized by x/log x (the
    error-term shape, constant not explicit)."""
    if x < 1:
        raise ValueError("x must be >= 1")
    c = ps = 0
    for lo, _, pv in _window_segments(ctx, 0, x):
        c += len(_unique_classes(lo, pv, 1, x))
        ps += int(np.count_nonzero(pv <= x))
    r = abs(c - (x - ps))
    return Prop54Report(m=ctx.m, x=x, c_alpha=c, x_minus_psi=x - ps,
                        residual=r, ratio_rlogx_over_x=r * log(x) / x,
                        r_over_x=r / x)
