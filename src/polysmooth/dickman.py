"""The Dickman function rho(u) and the product prediction for polynomial
smooth-value densities.

[0,1] is exactly 1 and [1,2] is exactly 1 - log(u).  On [k, k+1],
2 <= k < 20, rho is a 40-term Legendre series in xi = 2(u - k) - 1, read
from the generated table `_rho_series.SERIES`: the fixed point of
u*rho(u) = integral_{u-1}^{u} rho(t) dt (a contraction of factor
<= 1/(2k)) built from the series below it on 64 Gauss-Legendre nodes, so
the evaluation error is far below the 1e-10 target.  The builder lives
in tests/test_dickman.py, which checks the table against a fresh build;

    PYTHONPATH=src python tests/test_dickman.py

rewrites the table.  Being committed, the table fixes rho's bits: they
do not depend on the summation order of the BLAS that runs a build's
projections.  Series are evaluated by a pure-Python Clenshaw recurrence
that repeats numpy's legval step for step, on a float or on a whole grid
at once.

The independent cross-check, a fixed-step RK4 solver of
u*rho'(u) = -rho(u-1) (step 1e-5), is rho_rk4_oracle in `oracles`.
"""

from math import log

import numpy as np

from ._rho_series import SERIES

# bench/oracles.py imports rho_rk4_oracle from this module
from .oracles import rho_rk4_oracle

__all__ = ["rho", "rho_grid", "martin_prediction", "U_MAX"]

U_MAX = 20.0
_N_COEF = 40    # Legendre series length per unit interval

# Clenshaw constants of numpy's legval: the recurrence step that folds in
# coefficient j uses (j+1)/(j+2) and (2j+3)/(j+2).
_CLEN_A = [(j + 1) / (j + 2) for j in range(_N_COEF)]
_CLEN_B = [(2 * j + 3) / (j + 2) for j in range(_N_COEF)]


def _series_eval(coef, x):
    """The Legendre series coef (at least 2 and at most _N_COEF + 1 terms)
    at x, a float or an ndarray, by the Clenshaw recurrence of numpy's
    legval, operation for operation, so every value has the same bits."""
    c0 = coef[-2]
    c1 = coef[-1]
    for j in range(len(coef) - 3, -1, -1):
        c0, c1 = coef[j] - c1 * _CLEN_A[j], c0 + c1 * x * _CLEN_B[j]
    return c0 + c1 * x


def rho(u):
    """Dickman rho(u) for 0 <= u <= 20, absolute accuracy well below 1e-10.

    Exact closed forms on [0,1] (rho = 1) and [1,2] (rho = 1 - log u)."""
    uf = float(u)
    if uf < 0:
        raise ValueError("rho is undefined for u < 0")
    if uf > U_MAX:
        raise ValueError(f"u={u} exceeds the table range [0, {U_MAX}]")
    if uf <= 1.0:
        return 1.0
    if uf <= 2.0:
        return 1.0 - log(uf)
    k = min(int(uf), int(U_MAX) - 1)
    return _series_eval(SERIES[k - 2], 2.0 * (uf - k) - 1.0)


def rho_grid(us):
    """rho at every point of the array-like us, as a float ndarray whose
    values are bit for bit those of rho: one Clenshaw pass per unit
    interval over the points that fall in it."""
    u = np.asarray(us, dtype=float)
    if not np.all((u >= 0) & (u <= U_MAX)):  # NaN fails too
        raise ValueError(f"rho_grid needs every u in [0, {U_MAX}]")
    out = np.ones_like(u)
    # math.log, as rho takes it: np.log differs from it in the last bit
    # at some points
    sel = (u > 1.0) & (u <= 2.0)
    out[sel] = [1.0 - log(v) for v in u[sel].tolist()]
    for k in range(2, int(U_MAX)):
        # the points rho sends to the series on [k, k+1]
        sel = u > 2.0 if k == 2 else u >= k
        if k < U_MAX - 1:
            sel &= u < k + 1
        if sel.any():
            out[sel] = _series_eval(SERIES[k - 2], 2.0 * (u[sel] - k) - 1.0)
    return out


def martin_prediction(degrees, u):
    """prod_j rho(d_j * u): the conjectured density of u-smooth-parameter
    values for a polynomial with irreducible factor degrees d_j."""
    if not degrees:
        raise ValueError("empty degree list")
    for d in degrees:
        if d < 1:
            raise ValueError("degrees must be >= 1")
    out = 1.0
    for d in degrees:
        out *= rho(d * u)
    return out

