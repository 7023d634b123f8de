"""Primitive divisors of n^2 + b and arctangent irreducibility.

For n > |b| the criterion P+(n^2 + b) > 2n decides primitivity; the boundary
n <= |b| falls back to the definition (some prime divisor of n^2 + b coprime
to every earlier nonzero m^2 + b).  arctan n is irreducible iff the same
criterion holds, with n = 1 settled by the definition (the empty relation
makes arctan 1 irreducible even though P+(2) = 2 is not > 2), which keeps
N(x) = R_1(x) exactly.
"""

from dataclasses import dataclass
from math import isqrt, log

from .polyarith import build_factored
from .primes import factorize
from .smoothsieve import pplus_oracle, pplus_table, psi

__all__ = [
    "PrimDivRecord",
    "has_primitive_divisor",
    "r_b",
    "n_arctan",
    "verify_prop63",
    "RBResult",
    "Prop63Report",
]

MAX_X = 10**8
MAX_ABS_B = 10**6


@dataclass(frozen=True)
class PrimDivRecord:
    b: int
    n: int
    pplus: int
    has_primitive: bool
    method: str  # criterion | direct
    criterion_mismatch: bool = False


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


def _direct_primitive(b, n, pplus):
    """Definition scan over prime divisors d of n^2 + b against all nonzero
    earlier terms m^2 + b, 1 <= m < n."""
    a_n = abs(n * n + b)
    if a_n <= 1:
        return False
    for d in factorize(a_n):
        if all((m * m + b) % d != 0 for m in range(1, n) if m * m + b != 0):
            return True
    return False


def has_primitive_divisor(b: int, n: int) -> PrimDivRecord:
    """Whether n^2 + b has a divisor d > 1 coprime to every earlier nonzero
    term; criterion P+ > 2n for n > |b|, definition scan at the boundary."""
    _check_b(b)
    if n < 1:
        raise ValueError("n must be >= 1")
    pplus = pplus_oracle(n * n + b)
    if n > abs(b):
        return PrimDivRecord(b, n, pplus, pplus > 2 * n, "criterion")
    has = _direct_primitive(b, n, pplus)
    return PrimDivRecord(
        b, n, pplus, has, "direct",
        criterion_mismatch=has != (pplus > 2 * n),
    )


@dataclass
class RBResult:
    b: int
    x: int
    count: int
    records: list = None  # filled on request

    @property
    def ratio(self):
        return self.count / self.x if self.x else 0.0


def r_b(b: int, x: int, collect_records: bool = False) -> RBResult:
    """Exact R_b(x): the number of n in [1, x] with a primitive divisor of
    n^2 + b; sieve-backed for n > |b|, definition scan below."""
    _check_b(b)
    if x < 1:
        raise ValueError("x must be >= 1")
    if x > MAX_X:
        raise ValueError(f"x={x} exceeds the sieve budget {MAX_X}")
    records = [] if collect_records else None
    count = 0
    boundary = min(abs(b), x)
    for n in range(1, boundary + 1):
        rec = has_primitive_divisor(b, n)
        if rec.has_primitive:
            count += 1
        if collect_records:
            records.append(rec)
    if x > abs(b):
        f = _quad_poly(b)
        table = pplus_table(f, x, 2 * x + abs(b))
        for n in range(abs(b) + 1, x + 1):
            pp = table.pplus_of(n)
            has = pp > 2 * n
            if has:
                count += 1
            if collect_records:
                records.append(PrimDivRecord(b, n, pp, has, "criterion"))
    return RBResult(b=b, x=x, count=count, records=records)


@dataclass
class NArctanResult:
    x: int
    count: int
    n1_by_definition: bool = True  # n = 1 counted by the definition, not the criterion


def n_arctan(x: int) -> NArctanResult:
    """N(x): the number of n <= x with arctan n irreducible, via the
    P+(n^2+1) > 2n criterion for n >= 2 and the definition at n = 1."""
    if x < 1:
        raise ValueError("x must be >= 1")
    if x > MAX_X:
        raise ValueError(f"x={x} exceeds the sieve budget {MAX_X}")
    count = 1  # n = 1: irreducible by the empty relation
    if x >= 2:
        f = _quad_poly(1)
        table = pplus_table(f, x, 2 * x + 1)
        for n in range(2, x + 1):
            if table.pplus_of(n) > 2 * n:
                count += 1
    return NArctanResult(x=x, count=count)


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
    """R_b(x) against x - Psi_f(x, x) for f = t^2 + b; the two sides come
    from independent runs (criterion counting vs. smooth counting)."""
    if x < 100:
        raise ValueError("x must be >= 100")
    count = r_b(b, x).count
    ps = psi(_quad_poly(b), x, x).psi
    r = abs(count - (x - ps))
    return Prop63Report(
        b=b,
        x=x,
        r_b=count,
        x_minus_psi=x - ps,
        residual=r,
        ratio_normalized=r * log(x) / (x * log(log(x))),
        r_over_x=r / x,
    )
