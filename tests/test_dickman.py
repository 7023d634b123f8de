from math import log, nextafter

import numpy as np
import pytest
from numpy.polynomial import legendre as L

from polysmooth import dickman
from polysmooth.dickman import (
    U_MAX,
    _antiderivative,
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


def test_rho_independent_of_build_order(monkeypatch):
    grid = [2 + i / 10 for i in range(180)]  # 2.0 .. 19.9
    monkeypatch.setattr(dickman, "_series", {})
    assert rho(2.5) > 0 and sorted(dickman._series) == [1, 2]
    monkeypatch.setattr(dickman, "_series", {})
    down = {u: repr(rho(u)) for u in reversed(grid)}
    monkeypatch.setattr(dickman, "_series", {})
    up = {u: repr(rho(u)) for u in grid}
    assert down == up


def _numpy_antiderivative(c):
    ic = L.legint(c)
    ic[0] -= L.legval(-1.0, ic)
    return ic


def _numpy_series():
    """The rho series built with numpy's legval and legint: the oracle for
    the pure-Python Clenshaw build."""
    nodes, project = dickman._nodes, dickman._project
    out = {1: project(1.0 - np.log(1.0 + (nodes + 1.0) / 2.0))}
    for k in range(2, int(U_MAX)):
        prev_anti = _numpy_antiderivative(out[k - 1])
        a_vals = 0.5 * (L.legval(1.0, prev_anti) - L.legval(nodes, prev_anti))
        u_vals = k + (nodes + 1.0) / 2.0
        rho_k = L.legval(1.0, out[k - 1])
        vals = np.full(len(nodes), rho_k)
        for _ in range(400):
            cur_anti = _numpy_antiderivative(project(vals))
            new_vals = (a_vals + 0.5 * L.legval(nodes, cur_anti)) / u_vals
            done = np.max(np.abs(new_vals - vals)) < rho_k * 1e-17
            vals = new_vals
            if done:
                break
        out[k] = project(vals)
    return out


def test_clenshaw_and_antiderivative_match_numpy_bitwise():
    rng = np.random.default_rng(20240601)
    vectors = [rng.standard_normal(40) * 10.0 ** rng.integers(-20, 3)
               for _ in range(50)]
    vectors += [np.array(dickman._coef(k)) for k in range(1, int(U_MAX))]
    xs = np.concatenate([rng.uniform(-1.0, 1.0, 64), [-1.0, 0.0, 1.0]])
    for c in vectors:
        cl = c.tolist()
        assert _series_eval(cl, xs).tobytes() == L.legval(xs, c).tobytes()
        assert ([_series_eval(cl, x).hex() for x in xs.tolist()]
                == [float(L.legval(x, c)).hex() for x in xs.tolist()])
        assert (np.array(_antiderivative(cl)).tobytes()
                == _numpy_antiderivative(c).tobytes())


def test_series_match_numpy_build_bitwise(monkeypatch):
    monkeypatch.setattr(dickman, "_series", {})
    want = _numpy_series()
    for k in range(1, int(U_MAX)):
        assert np.array(dickman._coef(k)).tobytes() == want[k].tobytes(), k


def test_series_build_stops_at_fixed_point_or_cycle(monkeypatch):
    # k = 3, 10 and 19 fall into an exact 2-cycle: run to the 400-step cap,
    # k = 1..19 make 1404 antiderivatives (the bits of the iterate kept are
    # checked by test_series_match_numpy_build_bitwise)
    calls = []

    def counted(coef):
        calls.append(1)
        return _antiderivative(coef)

    monkeypatch.setattr(dickman, "_series", {})
    monkeypatch.setattr(dickman, "_antiderivative", counted)
    for k in range(1, int(U_MAX)):
        dickman._coef(k)
    assert len(calls) <= 300


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
