from math import log

import numpy as np
import pytest

from polysmooth import dickman
from polysmooth.dickman import (
    U_MAX,
    delay_residual,
    martin_prediction,
    rho,
    rho_rk4_oracle,
)


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
