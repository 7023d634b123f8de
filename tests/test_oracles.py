"""The oracles of `polysmooth.oracles`: the P+ oracle against sympy's
factorint, its domain and conventions, and for each oracle a planted wrong
answer that it rejects.

Each planted answer comes from breaking one piece of library code the
quantity depends on (monkeypatch) and leaving the oracle alone, so the
check also shows that the oracle does not run through that piece.
"""

import importlib.util
import random
from math import inf
from pathlib import Path

import pytest
from sympy import factorint

from polysmooth import (dickman, modroots, oracles, primdiv, quadfield,
                        smoothsieve, vwmachinery)
from polysmooth.dickman import rho
from polysmooth.modroots import omega
from polysmooth.oracles import (
    PPLUS_ORACLE_LIMIT,
    _enumerate_smooth,
    _oomega,
    _oracle_split,
    _oracle_v_w,
    _primitive_definition_oracle,
    _windowed_oracle,
    delay_residual,
    omega_scan,
    pplus_oracle,
    psi_oracle,
    rho_rk4_oracle,
    trial_factorize,
)
from polysmooth.polyarith import build_factored
from polysmooth.primdiv import r_b
from polysmooth.primes import factorize, primes_up_to
from polysmooth.quadfield import make_context, windowed_cassels
from polysmooth.smoothsieve import psi, sieve_range
from polysmooth.vwmachinery import VWInstance, vw_prop21, vw_prop32

BENCH_ORACLES = Path(__file__).resolve().parent.parent / "bench" / "oracles.py"


def test_bench_imports_resolve_to_the_oracles():
    spec = importlib.util.spec_from_file_location("bench_oracles",
                                                  BENCH_ORACLES)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.psi_oracle is oracles.psi_oracle
    assert bench.omega_scan is oracles.omega_scan
    assert bench.rho_rk4_oracle is oracles.rho_rk4_oracle


# ------------------------------------------------------- the P+ oracle

def _sample(seed, count):
    """Values of 1 to 14 digits, about as many of each length, and the
    edges: small values, squares of primes near sqrt of the bound (the last
    prime trial division tries), products of two large primes, the bound."""
    rng = random.Random(seed)
    vals = [rng.randrange(10 ** (d - 1), 10**d)
            for d in (rng.randint(1, 14) for _ in range(count))]
    return vals + [2, 3, 4, 8, 9, 25, 49, 9999991**2, 9999973 * 9999991,
                   999983 * 99999989, 2**46, PPLUS_ORACLE_LIMIT]


def test_pplus_oracle_matches_factorint():
    for v in _sample(20261019, 400):
        want = factorint(v)
        assert trial_factorize(v) == want, v
        assert pplus_oracle(v) == pplus_oracle(-v) == max(want, default=1), v


def test_pplus_oracle_conventions_and_domain():
    assert pplus_oracle(0) == inf
    assert pplus_oracle(1) == pplus_oracle(-1) == 1
    assert trial_factorize(1) == {}
    for v in (PPLUS_ORACLE_LIMIT + 1, -(PPLUS_ORACLE_LIMIT + 1), 10**30):
        with pytest.raises(ValueError, match="oracle"):
            pplus_oracle(v)
    for v in (0, -5):
        with pytest.raises(ValueError, match="oracle"):
            trial_factorize(v)


def test_pplus_oracle_rejects_a_wrong_cofactor_split(monkeypatch):
    # t^2 - 10 on a short window: prime mode sieves to B = 600 and splits
    # composite cofactors above B^2 with factorize.  A split that loses the
    # largest prime changes the table, and the oracle, which never calls
    # factorize, sees it.
    f, lo, hi = build_factored(["t^2-10"]), 999001, 999300
    want = [pplus_oracle(f(n)) for n in range(lo, hi + 1)]

    def table():
        return sieve_range(f, lo, hi, float("inf"), need_pplus=True)

    assert table().pplus.tolist() == want

    def wrong_split(n, composite=False):
        fact = factorize(n, composite)
        if len(fact) > 1:
            del fact[max(fact)]
        return fact

    monkeypatch.setattr(smoothsieve, "factorize", wrong_split)
    assert table().pplus.tolist() != want


# ------------------------------------------ the other oracles, one each

def _drop_largest_prime(monkeypatch):
    """The sieve's prime table loses its largest prime."""
    monkeypatch.setattr(smoothsieve, "primes_up_to",
                        lambda n: primes_up_to(n)[:-1])


def test_psi_oracle_rejects_a_missing_prime(monkeypatch):
    f = build_factored(["t^2+1"])
    assert psi(f, 1000, 13).psi == psi_oracle(f, 1000, 13)
    _drop_largest_prime(monkeypatch)
    assert psi(f, 1000, 13).psi != psi_oracle(f, 1000, 13)


def test_enumerate_smooth_rejects_a_missing_prime(monkeypatch):
    t = build_factored(["t"])
    assert psi(t, 10**4, 100).psi == _enumerate_smooth(10**4, 100)
    _drop_largest_prime(monkeypatch)
    assert psi(t, 10**4, 100).psi != _enumerate_smooth(10**4, 100)


def test_omega_scan_rejects_a_lost_lifted_root(monkeypatch):
    f = build_factored(["t^2+1"])
    ks = range(1, 201)
    want = [omega_scan(f, k) for k in ks]
    assert [omega(f, k) for k in ks] == want
    lift = modroots.lift_classes
    # the last class of every level above the first is lost
    monkeypatch.setattr(modroots, "lift_classes",
                        lambda *args: [level if k == 0 else
                                       tuple(a[:-1] for a in level)
                                       for k, level in enumerate(lift(*args))])
    assert [omega(f, k) for k in ks] != want


def test_rho_rk4_oracle_rejects_a_shifted_rho():
    grid, vals = rho_rk4_oracle(u_max=5.0)
    us = grid[::1000].tolist()

    def worst(fn):
        return max(abs(fn(u) - v) for u, v in zip(us, vals[::1000].tolist()))

    assert worst(rho) <= 1e-8
    assert worst(lambda u: rho(u + 1e-6)) > 1e-8


def test_delay_residual_rejects_an_offset_rho(monkeypatch):
    us = [3 + 1 / 32, 7 + 1 / 32, 15 + 1 / 32]
    assert max(abs(delay_residual(u)) for u in us) <= 1e-8
    monkeypatch.setattr(dickman, "rho", lambda u: rho(u) + 1e-7)
    assert min(abs(delay_residual(u)) for u in us) > 1e-8


def _close(got, want):
    return all(abs(g - w) <= 1e-9 * max(1.0, abs(w))
               for g, w in zip(got, want))


def test_oracle_v_w_rejects_a_wrong_smooth_set(monkeypatch):
    # sieving to y - 1 = 12 drops the n whose f(n) is 13-smooth only
    f, x, z, y = build_factored(["t^2+1"]), 100, 25, 13
    want = _oracle_v_w(f, x, z, y)

    def got():
        rep = vw_prop21(VWInstance(f, x, z, y))
        return rep.V, rep.W

    assert _close(got(), want)
    monkeypatch.setattr(vwmachinery, "sieve_range",
                        lambda f, lo, hi, y, **kw:
                        sieve_range(f, lo, hi, y - 1, **kw))
    assert not _close(got(), want)


def test_oracle_split_rejects_a_wrong_root_count(monkeypatch):
    f, x, z, y = build_factored(["t^2+1"]), 200, 60, 6
    _, _, v_minus, w_minus = _oracle_split(f, x, z, y, 2)
    want = v_minus + w_minus

    def got():
        rep = vw_prop32(VWInstance(f, x, z, y, depth=2))
        return rep.v_minus + rep.w_minus

    assert _close(got(), want)
    table = vwmachinery.lift_table
    # every root listed twice: every omega_f doubles
    monkeypatch.setattr(vwmachinery, "lift_table",
                        lambda f, powers: {pv: 2 * roots for pv, roots
                                           in table(f, powers).items()})
    assert not _close(got(), want)


def test_oomega_counts_roots_without_the_library(monkeypatch):
    # above 3 * 10^4 the tails' root counts are lifted by their definition:
    # a broken modroots.omega is never reached
    def broken(f, k):
        raise AssertionError("the oracle called modroots.omega")

    monkeypatch.setattr(modroots, "omega", broken)
    for factors in (["t^2+1"], ["t^2+7"], ["t^3-2"], ["t", "t^2+1"]):
        f = build_factored(factors)
        for k in (32768, 59049, 64800, 390625, 823543, 1048576, 1081080):
            assert _oomega.__wrapped__(f, k) == omega_scan(f, k), (factors, k)
    with pytest.raises(ValueError, match="above 3e4"):
        _oomega.__wrapped__(f, 2 * 30011)


def test_windowed_oracle_rejects_a_lost_witness(monkeypatch):
    ctx, N, M = make_context(2), 100, 50
    want = _windowed_oracle(2, N, M, True)
    got = windowed_cassels(ctx, N, M)
    assert got.count == want
    n = int(got.witnesses[0, 0])

    def witness_lost(*args, **kwargs):
        tab = sieve_range(*args, **kwargs)
        tab.pplus[n - tab.lo] = 1
        return tab

    monkeypatch.setattr(quadfield, "sieve_range", witness_lost)
    assert windowed_cassels(ctx, N, M).count != want


def test_primitive_definition_oracle_rejects_a_wrong_flag(monkeypatch):
    want = [_primitive_definition_oracle(1, n) for n in range(1, 31)]
    assert r_b(1, 30).has_primitive.tolist() == want
    n = max(i for i, has in enumerate(want, 1) if has)
    table = primdiv.pplus_table

    def divisor_lost(f, x):
        tab = table(f, x)
        tab.pplus[n - 1] = 1
        return tab

    monkeypatch.setattr(primdiv, "pplus_table", divisor_lost)
    assert r_b(1, 30).has_primitive.tolist() != want
