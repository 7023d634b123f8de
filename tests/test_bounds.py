from decimal import Decimal, localcontext
from math import exp, sqrt

import pytest

from polysmooth.polyarith import build_factored
from polysmooth import bounds
from polysmooth.bounds import (
    cassels_coeff,
    gamma_f,
    hmyrova_main_term,
    make_bound_report,
    thm11_in_range,
    timofeev_main_term,
)

GAMMA_211 = (19 + sqrt(105)) / 32  # = 0.913967...


def test_gamma_paper_value():
    assert abs(gamma_f(2, 1, 1) - GAMMA_211) < 1e-12


def test_gamma_derived_value():
    # independent evaluation: sqrt(3/64 + (3/64)^2) = sqrt(201)/64
    assert abs(gamma_f(4, 1, 1) - (0.5 + 3 / 64 + sqrt(201) / 64)) < 1e-14
    assert abs(gamma_f(4, 1, 1) - 0.768397607481) < 1e-11


def test_gamma_limit():
    # gamma - 1/2 = t + sqrt(t + t^2) ~ sqrt((2g+1)/(16du)): an O(u^-1/2)
    # rate, so the 1e-5 gate is hit around u = 1e12 (not 1e6; see ledger)
    assert gamma_f(2, 1, 10**6) - 0.5 < 1e-3
    assert gamma_f(2, 1, 10**12) - 0.5 < 1e-5
    t = 3 / (32 * 10**6)
    expected = t + sqrt(t + t * t)
    assert abs((gamma_f(2, 1, 10**6) - 0.5) - expected) < 1e-15


def test_gamma_domain():
    for bad in [(1, 1, 1), (2, 0, 1), (2, 3, 1), (2, 1, 0.5)]:
        with pytest.raises(ValueError):
            gamma_f(*bad)


def test_gamma_monotonicity_grid():
    for d in range(2, 11):
        for g in range(1, d + 1):
            last_u = None
            for u in [1, 2, 3, 5, 10]:
                v = gamma_f(d, g, u)
                if last_u is not None:
                    assert v < last_u  # decreasing in u
                last_u = v
    for u in [1, 2, 5]:
        for g in [1, 2]:
            vals = [gamma_f(d, g, u) for d in range(max(2, g), 11)]
            assert vals == sorted(vals, reverse=True)  # decreasing in d
        for d in [4, 8]:
            vals = [gamma_f(d, g, u) for g in range(1, d + 1)]
            assert vals == sorted(vals)  # increasing in g


def test_gamma_below_one_when_nonlinear():
    # g < d forces (2g+1)/(16du) < 1/8 and gamma < 1
    for d in range(2, 11):
        for g in range(1, d):
            for u in [1, 1.5, 2, 10]:
                assert (2 * g + 1) / (16 * d * u) < 1 / 8
                assert gamma_f(d, g, u) < 1


def test_gamma_irreducible_cap():
    for d in range(2, 30):
        for u in [1, 1.5, 2, 5, 10]:
            assert gamma_f(d, 1, u) <= GAMMA_211 + 1e-15


def test_thm11_main_term():
    f = build_factored(["t^2+1"])
    v = make_bound_report(f.d, f.g, 1, x=10**6).thm11_main_x
    assert abs(v - GAMMA_211 / 2 * 10**6) < 1e-3
    assert abs(v - 456983.64) < 1.0
    with pytest.raises(ValueError):
        make_bound_report(1, 1, 1, x=10**6)  # d = 1: no theorem
    assert thm11_in_range(10**6, 1)
    assert not thm11_in_range(10**6, 2)  # sqrt(log 1e6)/loglog 1e6 = 1.42


def test_thm11_range_is_empty_up_to_e():
    # log log x <= 0 for x <= e: no u qualifies, and no log of 0 is taken
    for x in [1, 2, 2.718281828459045]:
        assert not thm11_in_range(x, 1), x
    assert thm11_in_range(10**4, 1)


def test_timofeev():
    assert abs(timofeev_main_term(2, 1, 1, 0) - 0.5) < 1e-15
    ratio = (make_bound_report(2, 1, 1, x=1).thm11_main_x
             / timofeev_main_term(2, 1, 1, 0))
    assert abs(ratio - GAMMA_211) < 1e-12
    assert abs(timofeev_main_term(3, 2, 2, 0.1) - 0.18375) < 1e-12


@pytest.mark.parametrize("eps", [-0.1, float("nan"), float("inf")])
def test_timofeev_rejects_eps_outside_its_domain(eps):
    with pytest.raises(ValueError, match="eps must be finite and >= 0"):
        timofeev_main_term(2, 1, 1, eps)


def test_hmyrova():
    assert abs(hmyrova_main_term(exp(1)) - 1.0) < 1e-12
    assert hmyrova_main_term(10) < 1


def test_cassels_values():
    c2 = cassels_coeff(2)
    assert abs(c2 - 0.543016394282) < 1e-11  # = 1 - (19+sqrt(105))/64
    assert c2 > 0.543
    assert abs(cassels_coeff(3) - 0.726601966133) < 1e-11
    assert cassels_coeff(10**6) > 0.999999
    with pytest.raises(ValueError):
        cassels_coeff(1)


def test_cassels_gamma_identity():
    for d in range(2, 101):
        assert abs(cassels_coeff(d) - (1 - gamma_f(d, 1, 1) / d)) <= 1e-12


def test_bound_report():
    rep = make_bound_report(2, 1, 1, eps=0.0, x=10**6)
    assert rep.m == 1
    assert abs(rep.gamma - GAMMA_211) < 1e-12
    assert rep.hmyrova_applicable
    assert rep.thm11_u_in_range
    assert abs(rep.thm11_main_x - 456983.64) < 1.0
    rep2 = make_bound_report(3, 2, 2.5)
    assert rep2.m == 2
    assert not rep2.hmyrova_applicable
    assert rep2.cassels is None


def test_bound_report_products_in_36_digits():
    # both products are rounded in the module's 36-digit context, not in
    # the caller's (a 6-digit context would otherwise show through)
    for d, g, u, x in [(2, 1, 1, 10**6), (3, 2, 2.5, 10**9),
                       (6, 4, 7.3, 123456789)]:
        with localcontext(bounds._CONTEXT):
            main = float(Decimal(gamma_f(d, g, u))
                         * bounds._main_coeff(d, g, u))
            main_x = float(Decimal(main) * Decimal(x))
        for prec in (6, 28):
            with localcontext() as ctx:
                ctx.prec = prec
                rep = make_bound_report(d, g, u, x=x)
            assert (rep.thm11_main, rep.thm11_main_x) == (main, main_x)
