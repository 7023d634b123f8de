"""Closed-form bound coefficients: the improvement factor gamma_f(u), the
main-term coefficient it multiplies, the Timofeev and Hmyrova comparators,
and the quadratic-field count coefficient.

All formulas are evaluated in 36-digit decimal arithmetic and returned as
floats, so every identity below holds far inside the 1e-12 gates.
"""

from dataclasses import dataclass
from decimal import (MAX_EMAX, MIN_EMIN, Context, Decimal, Overflow,
                     localcontext)
from math import exp, log, sqrt

__all__ = [
    "gamma_f",
    "thm11_in_range",
    "timofeev_main_term",
    "hmyrova_main_term",
    "cassels_coeff",
    "BoundReport",
    "make_bound_report",
]

# 36 digits over decimal's widest exponent range: u^[u] stays finite for u
# below about 10^17, and a quotient past the float range gives 0.0
_CONTEXT = Context(prec=36, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _dec(x):
    return Decimal(x) if isinstance(x, (int, Decimal)) else Decimal(float(x))


def gamma_f(d, g, u):
    """gamma_f(u) = 1/2 + (2g+1)/(16du) + sqrt((2g+1)/(16du) + ((2g+1)/(16du))^2)."""
    if d < 2:
        raise ValueError("gamma_f requires total degree d >= 2")
    if g < 1 or g > d:
        raise ValueError("factor count g must satisfy 1 <= g <= d")
    if not 1 <= u < float("inf"):
        raise ValueError("u must be finite and >= 1")
    with localcontext(_CONTEXT):
        t = _dec(2 * g + 1) / (_dec(16) * _dec(d) * _dec(u))
        val = Decimal(1) / 2 + t + (t + t * t).sqrt()
    return float(val)


def _floor_u(u):
    m = int(u)
    return m if m <= u else m - 1


def _main_coeff(d, g, u):
    """g^[u] / (d (d-1)^([u]-1) u^[u]) in decimal; g is an int or a
    Decimal."""
    m = _floor_u(u)
    with localcontext(_CONTEXT):
        try:
            return _dec(g) ** m / (_dec(d) * _dec(d - 1) ** (m - 1)
                                   * _dec(u) ** m)
        except Overflow:
            raise ValueError(f"u = {u}: u^[u] passes the decimal limit "
                             f"10^{MAX_EMAX}") from None


def thm11_in_range(x, u):
    """The main theorem's stated u-range: 1 <= u <= sqrt(log x)/log log x,
    empty where log log x <= 0 (x <= e)."""
    lx = log(x)
    return lx > 1 and 1 <= u <= sqrt(lx) / log(lx)


def timofeev_main_term(d, g, u, eps):
    """(g+eps)^[u] / (d (d-1)^([u]-1) u^[u])."""
    if not 1 <= u < float("inf"):
        raise ValueError("u must be finite and >= 1")
    if not 0 <= eps < float("inf"):
        raise ValueError("eps must be finite and >= 0")
    with localcontext(_CONTEXT):
        return float(_main_coeff(d, _dec(g) + _dec(eps), u))


def hmyrova_main_term(u):
    """exp(-u log(u/e)) with the constant c(f) normalized to 1; applies to
    irreducible f only (flagged in BoundReport, never enforced here)."""
    if u <= 0:
        raise ValueError("u must be positive")
    return exp(-u * log(u / exp(1)))


def cassels_coeff(d):
    """1 - 1/(2d) - 3/(16d^2) - (1/d) sqrt(3/(16d) + (3/(16d))^2); equals
    1 - gamma_f(d, 1, 1)/d."""
    if d < 2:
        raise ValueError("cassels_coeff requires d >= 2")
    with localcontext(_CONTEXT):
        dd = _dec(d)
        t = _dec(3) / (16 * dd)
        val = 1 - 1 / (2 * dd) - _dec(3) / (16 * dd * dd) - (t + t * t).sqrt() / dd
    return float(val)


@dataclass
class BoundReport:
    """Every closed-form coefficient at one (d, g, u) point, with the range
    and applicability flags recorded rather than silently enforced."""

    d: int
    g: int
    u: float
    m: int
    gamma: float
    thm11_main: float
    timofeev_main: float
    timofeev_eps: float
    hmyrova_main: float
    hmyrova_applicable: bool
    cassels: float
    x: float = None
    thm11_main_x: float = None
    thm11_u_in_range: bool = None


def make_bound_report(d, g, u, eps=0.0, x=None):
    if x is not None and not 1 <= x < float("inf"):
        raise ValueError("x must be finite and >= 1")
    gamma = gamma_f(d, g, u)
    with localcontext(_CONTEXT):
        coeff = float(_dec(gamma) * _main_coeff(d, g, u))
    rep = BoundReport(
        d=d,
        g=g,
        u=float(u),
        m=_floor_u(u),
        gamma=gamma,
        thm11_main=coeff,
        timofeev_main=timofeev_main_term(d, g, u, eps),
        timofeev_eps=eps,
        hmyrova_main=hmyrova_main_term(u),
        hmyrova_applicable=g == 1,
        cassels=cassels_coeff(d) if g == 1 else None,
    )
    if x is not None:
        rep.x = float(x)
        with localcontext(_CONTEXT):
            rep.thm11_main_x = float(_dec(coeff) * _dec(x))
        rep.thm11_u_in_range = thm11_in_range(x, u)
    return rep
