"""The Dickman function rho(u) and the product prediction for polynomial
smooth-value densities.

rho is advanced one unit interval at a time through the integral identity
u*rho(u) = integral_{u-1}^{u} rho(t) dt: on [k, k+1] the solution is the
fixed point of a contraction (factor <= 1/(2k)) and is represented by a
Legendre series built on Gauss-Legendre nodes, so the evaluation error is
far below the 1e-10 target.  [0,1] is exactly 1 and [1,2] is exactly
1 - log(u).  A series is built on the first rho call that needs it, from
the series below it, so a process pays only for the intervals it reads.
Series are evaluated by a pure-Python Clenshaw recurrence that repeats
numpy's legval step for step, on a float or on a whole grid at once.

The independent cross-check, a fixed-step RK4 solver of
u*rho'(u) = -rho(u-1) (step 1e-5), is rho_rk4_oracle in `oracles`.
"""

from math import log

import numpy as np
from numpy.polynomial import legendre as L

# bench/oracles.py imports rho_rk4_oracle from this module
from .oracles import rho_rk4_oracle

__all__ = ["rho", "rho_grid", "martin_prediction", "U_MAX"]

U_MAX = 20.0
_N_COEF = 40    # Legendre series length per unit interval
_N_NODES = 64   # Gauss-Legendre nodes for projection

_nodes, _weights = L.leggauss(_N_NODES)
_vander = L.legvander(_nodes, _N_COEF - 1)
_proj = (_vander * _weights[:, None]).T * (np.arange(_N_COEF) + 0.5)[:, None]


def _project(vals):
    """Legendre coefficients of the interpolant through Gauss nodes."""
    return _proj @ vals


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


def _antiderivative(coef):
    """Coefficients of F(xi) = integral_{-1}^{xi} series, a list: numpy's
    legint (constant fixed at 0 by F(0) = 0), then shifted to F(-1) = 0,
    in numpy's order of operations."""
    n = len(coef)
    ic = [0.0] * (n + 1)
    ic[0] = coef[0] * 0
    ic[1] = coef[0]
    ic[2] = coef[1] / 3
    for j in range(2, n):
        t = coef[j] / (2 * j + 1)
        ic[j + 1] = t
        ic[j - 1] -= t
    ic[0] += 0 - _series_eval(ic, 0)
    ic[0] -= _series_eval(ic, -1.0)
    return ic


# Legendre series of rho on [k, k+1], 1 <= k < U_MAX, each built on first
# use and stored as a list of floats.
_series = {}


def _get_series(k):
    """Build, store and return the series on [k, k+1] from the one on
    [k-1, k]; [1, 2] projects the closed form 1 - log(u)."""
    if k == 1:
        u1 = 1.0 + (_nodes + 1.0) / 2.0
        _series[1] = _project(1.0 - np.log(u1)).tolist()
        return _series[1]
    prev = _coef(k - 1)
    prev_anti = _antiderivative(prev)
    total_prev = _series_eval(prev_anti, 1.0)
    # A(xi) = 1/2 * integral_{xi}^{1} L_{k-1}
    a_vals = 0.5 * (total_prev - _series_eval(prev_anti, _nodes))
    u_vals = k + (_nodes + 1.0) / 2.0
    rho_k = _series_eval(prev, 1.0)
    vals = np.full(_N_NODES, rho_k)
    # tol is below one ulp of the largest node value, so the loop ends at an
    # exact fixed point or an exact cycle (or at the 400-step cap)
    tol = rho_k * 1e-17
    iterates = [vals]
    seen = {vals.tobytes(): 0}
    for i in range(400):
        cur_anti = _antiderivative(_project(vals).tolist())
        new_vals = (a_vals + 0.5 * _series_eval(cur_anti, _nodes)) / u_vals
        if np.max(np.abs(new_vals - vals)) < tol:
            vals = new_vals
            break
        j = seen.setdefault(new_vals.tobytes(), i + 1)
        if j <= i:
            # iterate i+1 repeats iterate j: from j on the iterates cycle
            # with period i+1-j, and the tolerance test above sees only
            # pairs it has rejected, so keep the iterate step 400 would
            vals = iterates[j + (400 - j) % (i + 1 - j)]
            break
        iterates.append(new_vals)
        vals = new_vals
    _series[k] = _project(vals).tolist()
    return _series[k]


def _coef(k):
    """The series on [k, k+1], built on first use."""
    coef = _series.get(k)
    return _get_series(k) if coef is None else coef


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
    return _series_eval(_coef(k), 2.0 * (uf - k) - 1.0)


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
            out[sel] = _series_eval(_coef(k), 2.0 * (u[sel] - k) - 1.0)
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

