"""Tests of rho, and the builder of its committed series table: run as a
script,

    PYTHONPATH=src python tests/test_dickman.py

it rebuilds the table and rewrites src/polysmooth/_rho_series.py."""

from math import log, nextafter
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import legendre as L

from polysmooth._rho_series import SERIES
from polysmooth.dickman import (
    _N_COEF,
    U_MAX,
    _series_eval,
    martin_prediction,
    rho,
    rho_grid,
)
from polysmooth.oracles import delay_residual, rho_rk4_oracle


def test_rho_closed_forms():
    assert rho(0.0) == 1.0
    assert rho(0.5) == 1.0
    assert rho(1.0) == 1.0
    assert abs(rho(2.0) - (1 - log(2))) < 1e-15
    for u in np.linspace(1.0, 2.0, 501):
        assert abs(rho(float(u)) - (1 - log(u))) <= 1e-10


def test_rho_domain_errors():
    with pytest.raises(ValueError):
        rho(-0.1)
    with pytest.raises(ValueError):
        rho(U_MAX + 0.01)


def test_rho_against_rk4_oracle():
    grid, vals = rho_rk4_oracle(u_max=10.0)
    idx = np.arange(0, len(grid), 1250)  # every 0.0125
    for i in idx:
        assert abs(rho(float(grid[i])) - vals[i]) <= 1e-8, grid[i]
    # frozen spot value computed by the dual-method pair
    assert abs(rho(3.0) - 0.048608388291) < 1e-9


def test_delay_ode_residual():
    # mesh midpoints (dyadic): central differences must not straddle the
    # integer knots where higher derivatives of rho jump
    u = 1 + 1 / 32
    while u <= 19.9:
        assert abs(delay_residual(u)) <= 1e-8, u
        u += 1 / 16


def test_rho_decreasing_positive():
    prev = 1.0
    for u in np.arange(1.0 + 1 / 64, U_MAX + 1e-9, 1 / 64):
        v = rho(float(u))
        assert 0 < v < prev
        prev = v


def test_martin_prediction():
    assert martin_prediction([1], 1) == 1.0
    assert abs(martin_prediction([2], 1) - (1 - log(2))) < 1e-12
    assert abs(martin_prediction([1, 1], 2) - (1 - log(2)) ** 2) < 1e-12
    assert abs(martin_prediction([2], 2) - rho(4)) < 1e-15
    with pytest.raises(ValueError):
        martin_prediction([], 1)
    with pytest.raises(ValueError):
        martin_prediction([2], 11)  # 22 > U_MAX


def _numpy_antiderivative(c):
    ic = L.legint(c)
    ic[0] -= L.legval(-1.0, ic)
    return ic


# The table's builder.  Picard iteration of u*rho(u) = integral_{u-1}^{u}
# rho(t) dt on [k, k+1] acts on rho's values at the Gauss-Legendre nodes,
# starting from the series on [k-1, k]; [1, 2] projects 1 - log(u).  It
# runs to an exact fixed point or the 400-step cap: k = 3, 10 and 19 end
# in an exact 2-cycle, where the cap picks the iterate kept.
_nodes, _weights = L.leggauss(64)
_proj = ((L.legvander(_nodes, _N_COEF - 1) * _weights[:, None]).T
         * (np.arange(_N_COEF) + 0.5)[:, None])


def _project(vals):
    """Legendre coefficients of the interpolant through the Gauss nodes."""
    return _proj @ vals


def _numpy_series():
    """{k: the series of rho on [k, k+1]} for k = 1..19, as ndarrays."""
    nodes = _nodes
    out = {1: _project(1.0 - np.log(1.0 + (nodes + 1.0) / 2.0))}
    for k in range(2, int(U_MAX)):
        prev_anti = _numpy_antiderivative(out[k - 1])
        a_vals = 0.5 * (L.legval(1.0, prev_anti) - L.legval(nodes, prev_anti))
        u_vals = k + (nodes + 1.0) / 2.0
        rho_k = L.legval(1.0, out[k - 1])
        vals = np.full(len(nodes), rho_k)
        for _ in range(400):
            cur_anti = _numpy_antiderivative(_project(vals))
            new_vals = (a_vals + 0.5 * L.legval(nodes, cur_anti)) / u_vals
            done = np.max(np.abs(new_vals - vals)) < rho_k * 1e-17
            vals = new_vals
            if done:
                break
        out[k] = _project(vals)
    return out


_TABLE = Path(__file__).resolve().parents[1] / "src/polysmooth/_rho_series.py"


def _series_module(series):
    """The text of the table module for series {k: coefficients}."""
    lines = [
        '"""Legendre series of Dickman\'s rho, generated by',
        "tests/test_dickman.py: do not edit.  Regenerate with",
        "",
        "    PYTHONPATH=src python tests/test_dickman.py",
        "",
        "SERIES[k - 2], k = 2..19, holds the coefficients of rho on [k, k+1]",
        "in the Legendre polynomials of xi = 2(u - k) - 1, written by repr,",
        'which reads back the same float."""',
        "",
        "SERIES = (",
    ]
    for k in range(2, int(U_MAX)):
        lines.append(f"    (  # [{k}, {k + 1}]")
        lines += [f"        {c!r}," for c in series[k].tolist()]
        lines.append("    ),")
    lines.append(")")
    return "\n".join(lines) + "\n"


def test_series_table_matches_numpy_build():
    # a change of the BLAS summation order in _project moves coefficients
    # by up to about 1e-14 of a series' largest, so no bitwise check here
    want = _numpy_series()
    assert len(SERIES) == int(U_MAX) - 2
    for k, row in enumerate(SERIES, start=2):
        scale = np.max(np.abs(want[k]))
        assert len(row) == _N_COEF, k
        assert np.max(np.abs(np.array(row) - want[k])) <= 1e-13 * scale, k


def test_series_table_agrees_at_the_knots():
    # rho is continuous: each series ends where the next one starts, and
    # [2, 3] starts at the closed form's 1 - log 2.  The build leaves gaps
    # of 1.2e-12 (k = 2) growing to 3.5e-12 (k = 19) of rho at the knot
    ends = [1.0 - log(2.0)] + [_series_eval(c, 1.0) for c in SERIES]
    starts = [_series_eval(c, -1.0) for c in SERIES]
    for k, (end, start) in enumerate(zip(ends, starts), start=2):
        assert abs(start - end) <= 1e-11 * end, k


def test_clenshaw_matches_numpy_bitwise():
    rng = np.random.default_rng(20240601)
    vectors = [rng.standard_normal(40) * 10.0 ** rng.integers(-20, 3)
               for _ in range(50)]
    vectors += [np.array(c) for c in SERIES]
    xs = np.concatenate([rng.uniform(-1.0, 1.0, 64), [-1.0, 0.0, 1.0]])
    for c in vectors:
        cl = c.tolist()
        assert _series_eval(cl, xs).tobytes() == L.legval(xs, c).tobytes()
        assert ([_series_eval(cl, x).hex() for x in xs.tolist()]
                == [float(L.legval(x, c)).hex() for x in xs.tolist()])


def test_rho_grid_equals_scalar_rho_bitwise():
    # the CLI's 0.001 grid (np.log and math.log differ on (1, 2] there),
    # each knot and 1 ulp either side, and unsorted random points
    us = [i * 0.001 for i in range(20001)]
    for k in range(1, int(U_MAX) + 1):
        us += [nextafter(k, 0.0), float(k), nextafter(k, U_MAX)]
    us += np.random.default_rng(3).uniform(0.0, U_MAX, 2000).tolist()
    assert ([v.hex() for v in rho_grid(us).tolist()]
            == [rho(u).hex() for u in us])
    assert rho_grid([]).shape == (0,)
    for bad in ([-0.1], [1.0, U_MAX + 0.01], [float("nan")]):
        with pytest.raises(ValueError):
            rho_grid(bad)


if __name__ == "__main__":
    _TABLE.write_text(_series_module(_numpy_series()))
