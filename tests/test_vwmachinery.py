"""The V/W implementation checked term by term against the literal
nested-loop transcriptions of the displayed formulas in
`polysmooth.oracles`.

The oracles enumerate prime powers independently, test divisibility by
evaluating f(n) mod k directly, decide smoothness through P+ by trial
division (not the sieve), and count roots by residue scan for small
moduli.
"""

from collections import Counter
from itertools import product
from math import fsum, lcm as _lcm, log, prod, sqrt

import pytest

from polysmooth import vwmachinery
from polysmooth.modroots import lift_table, omega, omega_grid
from polysmooth.oracles import (
    _oomega,
    _opp,
    _oracle_split,
    _oracle_v_w,
    _osmooth,
)
from polysmooth.polyarith import build_factored
from polysmooth.primes import factorize, primes_up_to
from polysmooth.smoothsieve import sieve_range
from polysmooth.vwmachinery import (
    _ROOT,
    VWInstance,
    _counted,
    _counter,
    _pairs,
    _prime_powers,
    _smooth_walk,
    _tail_sum,
    _walk,
    _window,
    lemma31_check,
    lemma41_sums,
    vw_depth_pair,
    vw_prop21,
    vw_prop32,
)

T2P1 = build_factored(["t^2+1"])
T2M2 = build_factored(["t^2-2"])
T_T2P1 = build_factored(["t", "t^2+1"])
MIXED = build_factored(["t+1", "t^2+2"])
T3P2 = build_factored(["t^3+2"])
# omega(2^e) = 1, 2, 2, 4, 4, 8, 8 for e <= 7, then 0: lcm(2^e, 2^v) and
# 2^(e+v) give different omega past h = 60
T2M128 = build_factored(["t^2-128"])


def test_prop21_matches_literal_oracle():
    cases = [
        (T2P1, 50, 10, 10),
        (T2P1, 80, 20, 13),
        (T2M2, 60, 12, 8),
        (T_T2P1, 50, 9, 6),
        (MIXED, 40, 8, 5),
        (T_T2P1, 100, 25, 20),  # W has off-diagonal pairs with nonzero counts
    ]
    for f, x, z, y in cases:
        rep = vw_prop21(VWInstance(f, x, z, y))
        V, W = _oracle_v_w(f, x, z, y)
        assert abs(rep.V - V) <= 1e-9 * max(1, abs(V)), (f, x, z, y)
        assert abs(rep.W - W) <= 1e-9 * max(1, abs(W)), (f, x, z, y)


def test_prop21_at_y_past_fx_matches_literal_oracle():
    # sqrt(y) >= f(x): W's pool is every prime power <= f(x), as at y = inf,
    # and only the pairs with lcm <= f(x) can divide a value in the window
    for f, x, z in [(T2P1, 20, 5), (T_T2P1, 8, 3), (MIXED, 8, 3)]:
        y = f(x) ** 2
        rep = vw_prop21(VWInstance(f, x, z, y))
        V, W = _oracle_v_w(f, x, z, y)
        assert rep.W > 0, f
        assert abs(rep.V - V) <= 1e-9 * max(1, abs(V)), f
        assert abs(rep.W - W) <= 1e-9 * max(1, abs(W)), f


def test_pairs_equal_brute_force_filter():
    pool = _prime_powers(500, primes_up_to(60), lambda p: True)
    for limit in [500, 360, 97, 64, 12]:
        sub = [e for e in pool if e[0] <= limit]
        want = Counter()
        for i, (k1, p1, _, lp1) in enumerate(sub):
            for k2, p2, _, lp2 in sub[i:]:
                lcm = _lcm(k1, k2)
                if lcm <= limit:
                    weight = lp1 * lp2
                    want[lcm, weight if k1 == k2 else 2 * weight] += 1
        got = Counter((lcm, weight) for _, lcm, weight in _pairs(sub, limit))
        assert got == want, limit
        assert all(prod(p**v for p, v in fact.items()) == lcm
                   for fact, lcm, _ in _pairs(sub, limit)), limit


def test_prop21_verdicts_and_chain():
    # the proposition guarantees (2.1); (2.2) must follow whenever lhs > 0
    count_nonzero = 0
    for f in [T2P1, T2M2, T_T2P1]:
        for x, z in [(60, 12), (100, 25), (200, 40)]:
            for y in [5, 10, 20, 50]:
                rep = vw_prop21(VWInstance(f, x, z, y))
                assert rep.verdict_2_1
                assert rep.verdict_2_2
                if rep.lhs > 0:
                    count_nonzero += 1
                    assert rep.lhs < rep.V + sqrt(rep.lhs) * sqrt(rep.W)
                    assert rep.lhs < rep.V + rep.W / 2 + sqrt(
                        rep.V * rep.W + rep.W**2 / 4
                    )
    assert count_nonzero >= 10


def test_prop21_empty_lhs_vacuous():
    # t^2+1 has very sparse 2-smooth values: (z, x] window with none
    rep = vw_prop21(VWInstance(T2P1, 30, 10, 2))
    assert rep.lhs == 0
    assert rep.vacuous
    assert rep.verdict_2_1 and rep.verdict_2_2


def test_prop21_scale_guard():
    with pytest.raises(ValueError):
        vw_prop21(VWInstance(T2P1, 2 * 10**4, 10, 5))
    with pytest.raises(ValueError):
        VWInstance(T2P1, 50, 1, 5)  # z <= T_0 = 2


def test_prop32_depth1_matches_literal_oracle():
    for f, x, z, y in [(T2P1, 50, 10, 10), (T2M2, 60, 14, 8)]:
        rep = vw_prop32(VWInstance(f, x, z, y, depth=1))
        v_plus, w_plus, (v1m,), (w1m,) = _oracle_split(f, x, z, y, 1)
        assert abs(rep.v_plus - v_plus) <= 1e-9 * max(1, v_plus)
        assert abs(rep.w_plus - w_plus) <= 1e-9 * max(1, w_plus)
        assert abs(rep.v_minus[0] - v1m) <= 1e-9 * max(1, v1m)
        assert abs(rep.w_minus[0] - w1m) <= 1e-9 * max(1, w1m)
        assert abs(rep.V - (rep.v_plus + sum(rep.v_minus))) < 1e-12
        assert abs(rep.W - (rep.w_plus + sum(rep.w_minus))) < 1e-12


def test_prop32_depth1_sandwiches_prop21():
    # The m=1 split is an upper-bound relaxation of the Prop 2.1 pair:
    # the "+" parts agree on k <= h and the tails dominate.
    for f, x, z, y in [(T2P1, 50, 10, 10), (T2M2, 60, 14, 8), (T_T2P1, 50, 9, 6)]:
        r21 = vw_prop21(VWInstance(f, x, z, y))
        r32 = vw_prop32(VWInstance(f, x, z, y, depth=1))
        assert r32.v_plus <= r21.V + 1e-12
        assert r21.V <= r32.V + 1e-12
        assert r32.w_plus <= r21.W + 1e-12
        assert r21.W <= r32.W + 1e-12


def test_prop32_depth2_matches_literal_oracle():
    f, x, z, y = T2P1, 200, 60, 6
    rep = vw_prop32(VWInstance(f, x, z, y, depth=2))
    v2p, w2p, v_minus, w_minus = _oracle_split(f, x, z, y, 2)
    assert abs(rep.v_plus - v2p) <= 1e-9 * max(1, v2p)
    assert abs(rep.v_minus[1] - v_minus[1]) <= 1e-9 * max(1, v_minus[1])
    assert abs(rep.w_plus - w2p) <= 1e-9 * max(1, w2p)
    assert abs(rep.w_minus[1] - w_minus[1]) <= 1e-9 * max(1, w_minus[1])
    assert len(rep.v_minus) == 2 and len(rep.w_minus) == 2
    assert rep.verdict_2_1 and rep.verdict_2_2


def test_prop32_depth3_matches_literal_oracle():
    f, x, z, y = T_T2P1, 100, 25, 20
    rep = vw_prop32(VWInstance(f, x, z, y, depth=3))
    v_plus, w_plus, v_minus, w_minus = _oracle_split(f, x, z, y, 3)
    got = [rep.v_plus, rep.w_plus, *rep.v_minus, *rep.w_minus]
    want = [v_plus, w_plus, *v_minus, *w_minus]
    assert len(got) == len(want) == 8
    assert all(w > 0 for w in want)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-9 * max(1, w)


def test_prop32_monotone_relations():
    # strict with nonzero sums
    for f, x, z, y in [(T2P1, 200, 60, 50), (T2M2, 150, 40, 50), (MIXED, 120, 25, 20)]:
        rep1, rep2 = vw_depth_pair(VWInstance(f, x, z, y, depth=1))
        assert rep1.v_plus > 0
        assert rep1.v_plus < rep2.v_plus + rep2.v_minus[-1]
        assert rep1.w_plus < rep2.w_plus + rep2.w_minus[-1]
        assert rep1.monotone_v and rep1.monotone_w
        assert rep2.depth == 2
    # sparse windows, including the fully degenerate 0 < 0 convention
    for f, x, z, y in [(T2P1, 200, 60, 6), (T2M2, 200, 55, 6)]:
        rep1, rep2 = vw_depth_pair(VWInstance(f, x, z, y, depth=1))
        assert rep1.monotone_v and rep1.monotone_w, (f, x, z, y)


def test_prop32_requires_fz_above_x():
    # f(z) = 101 > x fails for x = 150
    with pytest.raises(ValueError):
        vw_prop32(VWInstance(T2P1, 150, 10, 5))


def test_lemma31_examples():
    res = lemma31_check(VWInstance(T2P1, 100, 40, 7), kappa=2)
    assert res.verdict
    assert res.lhs >= 0 and res.rhs >= 0
    # kappa = h: head sum only over lambda = 1, i.e. empty (Lambda(1)=0)
    inst = VWInstance(T2P1, 100, 40, 7)
    res = lemma31_check(inst, kappa=inst.h)
    assert res.head_sum == 0.0
    assert res.verdict


def test_lemma31_literal_oracle():
    f, x, z, y = T2P1, 100, 40, 7
    kappa = 2
    fx, h = f(x), x - z
    log_fzx = log(f(z)) - log(x)
    smooth = _osmooth(f, x, z, y)
    lhs = sum(1 for n in smooth if f(n) % kappa == 0)
    head = fsum(
        log(p) * sum(1 for n in smooth if f(n) % (kappa * lam) == 0)
        for lam, p in _opp(fx, 1, y)
        if lam * kappa <= h
    )
    tail = fsum(
        log(p) * _oomega(f, kappa * lam)
        for lam, p in _opp(fx, 1, y)
        if lam * kappa > h
    )
    rhs = (head + tail) / log_fzx
    res = lemma31_check(VWInstance(f, x, z, y), kappa)
    assert res.lhs == lhs
    assert abs(res.rhs - rhs) <= 1e-9 * max(1, rhs)
    assert res.verdict == (lhs < rhs)


def test_lemma31_verdict_across_grid():
    for f in [T2P1, T2M2, T_T2P1]:
        inst = VWInstance(f, 120, 30, 8)
        if f(30) <= 120:
            continue
        for kappa in [1, 2, 3, 5, 8, 90]:
            res = lemma31_check(inst, kappa)
            assert res.verdict, (f, kappa)


def test_lemma31_kappa_range():
    inst = VWInstance(T2P1, 100, 40, 7)
    with pytest.raises(ValueError):
        lemma31_check(inst, 0)
    with pytest.raises(ValueError):
        lemma31_check(inst, 61)


def test_lemma41_direct_summation_oracle():
    T = build_factored(["t"])
    res = lemma41_sums(T, 10**4, 10**4)
    # omega_t == 1: s1 = sum over prime powers p^v <= x of log p / p^v
    expect = fsum(
        log(p) / k
        for k, p in _opp(10**4, 1, 10**4)
    )
    assert abs(res.s1 - expect) < 1e-9
    assert abs(res.res1) <= 3  # calibrated band vs log y
    res2 = lemma41_sums(T2P1, 10**4, 10**2)
    expect2 = fsum(
        log(p) / k * omega(T2P1, k)
        for k, p in _opp(10**4, 1, 10**2)
    )
    assert abs(res2.s1 - expect2) < 1e-9
    assert abs(res2.res1) < 5


def test_lemma41_no_primes_below_2():
    res = lemma41_sums(T2P1, 100, 1.5)
    assert res.s1 == res.s2 == res.s3 == res.s4 == 0.0


def test_lemma41_scale_guard():
    with pytest.raises(ValueError):
        lemma41_sums(T2P1, 10**7 + 1, 10)


@pytest.mark.parametrize("y", [float("inf"), float("nan"), 0.5, 0, -3])
def test_lemma41_rejects_y_outside_its_domain(y):
    with pytest.raises(ValueError, match="^y must be finite and >= 1$"):
        lemma41_sums(T2P1, 100, y)


def test_lemma41_comparators_and_residuals():
    from dataclasses import asdict

    res = lemma41_sums(T2P1, 1000, 50)
    logy = log(50)
    assert (res.g, res.x, res.y) == (1, 1000, 50.0)
    assert (res.comp1, res.comp2, res.comp3) == \
        (logy, 1 / 2 * logy, 1 / 2 * logy * logy)
    assert res.comp4 == 50.0 * log(1000) / logy
    for i in range(1, 5):
        rec = asdict(res)
        assert rec[f"res{i}"] == rec[f"s{i}"] - rec[f"comp{i}"]
    # y in [1, 2): no primes, and no log y to compare with
    res = lemma41_sums(T2P1, 100, 1)
    assert res.comp1 == res.comp4 == res.res4 == 0.0


def _omega_sum(f, terms):
    """fsum of weight * omega_f(k) over the (weight, k) terms, each omega_f
    from a fresh factorization of its k (one omega_grid call)."""
    return fsum(w * om for (w, _), om
                in zip(terms, omega_grid(f, [k for _, k in terms])))


def _literal_tail(f, heads, pool, h):
    """The "-" tail tuple by tuple: every head times every pool entry that
    escapes h, zero terms included."""
    return _omega_sum(f, [(weight * lp, mod * k)
                          for _, mod, weight in heads
                          for k, _, _, lp in pool
                          if mod * k > h])


def _roots(f, pool, h):
    """The root table _tail_sum reads, as _window builds it: f mod every
    power p^v <= h * max k of the pool's primes."""
    primes = sorted({p for _, p, _, _ in pool})
    top = _prime_powers(h * pool[-1][0], primes, lambda p: True)
    return lift_table(f, ((p, v) for _, p, v, _ in top))


def _pools(f, x, z, y):
    primes = primes_up_to(int(min(y, f(x))))
    return (_prime_powers(x - z, primes, lambda p: True),
            _prime_powers(f(x), primes, lambda p: True))


@pytest.mark.parametrize("f", [T2P1, T2M2, T3P2, T_T2P1, T2M128],
                         ids=["t^2+1", "t^2-2", "t^3+2", "t(t^2+1)", "t^2-128"])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_prop32_tails_equal_literal_tails_exactly(f, depth):
    x, z, y = 120, 60, 20
    h = x - z
    rep = vw_prop32(VWInstance(f, x, z, y, depth=depth))
    pool_y_h, pool_y_fx = _pools(f, x, z, y)
    roots = _roots(f, pool_y_fx, h)
    log_fz = log(f(z))
    log_fzx = log_fz - log(x)
    for i in range(1, depth + 1):
        heads = list(_walk(_ROOT, pool_y_h, h, i - 1))
        tail = _literal_tail(f, heads, pool_y_fx, h)
        assert _tail_sum(roots, heads, pool_y_fx, h) == tail
        assert rep.v_minus[i - 1] == tail / (log_fz * log_fzx ** (i - 1))
        if i == 1:
            tail = _omega_sum(f, [(lp1 * lp2, _lcm(k1, k2))
                                  for k1, _, _, lp1 in pool_y_fx
                                  for k2, _, _, lp2 in pool_y_fx
                                  if _lcm(k1, k2) > h])
        else:
            heads = list(_walk(_pairs(pool_y_h, h), pool_y_h, h, i - 2))
            tail = _literal_tail(f, heads, pool_y_fx, h)
            assert _tail_sum(roots, heads, pool_y_fx, h) == tail
        assert rep.w_minus[i - 1] == tail / (log_fz * log_fz * log_fzx ** (i - 1))
    assert all(v > 0 for v in rep.v_minus + rep.w_minus)


def test_lemma31_tail_equals_literal_tail_exactly():
    f, x, z, y = T2P1, 100, 40, 30
    inst = VWInstance(f, x, z, y)
    h = inst.h
    _, pool = _pools(f, x, z, y)
    log_fzx = log(f(z)) - log(x)
    for kappa in [1, 2, 4, 6, 25, h]:
        head = [(factorize(kappa), kappa, 1.0)]
        res = lemma31_check(inst, kappa)
        assert res.tail_sum == _literal_tail(f, head, pool, h) / log_fzx, kappa


def test_tail_sum_edge_heads_exactly():
    # t^2+1: omega(2) = 1, omega(4) = omega(3) = 0, omega(5^e) = 2
    f, h = T2P1, 50
    pool = _prime_powers(10**4, primes_up_to(30), lambda p: True)
    roots = _roots(f, pool, h)
    heads = [
        ({2: 1}, 2, 0.5),  # h // mod = 25 = 5^2: 2 * 25 = h stays inside
        ({3: 1}, 3, 1.25),  # omega 0
        ({2: 2}, 4, 1.0),  # omega 0 through the prime 2 the pool shares
        ({5: 1}, 5, 2.0),  # shares 5: omega(5^(1+v)) = 2, not omega(5) omega(5^v) = 4
        ({2: 1, 5: 1}, 10, 0.75),  # shares 2 (omega(2^(1+v)) = 0) and 5
        ({13: 1}, 13, 1.5),
    ]
    for head in heads:
        want = _literal_tail(f, [head], pool, h)
        assert _tail_sum(roots, [head], pool, h) == want, head
        assert (want == 0) == (omega(f, head[1]) == 0), head
    assert _tail_sum(roots, heads, pool, h) == _literal_tail(f, heads, pool, h)
    assert _tail_sum(roots, [], pool, h) == 0.0


# ------------------------------------------------ the "+" sums, unpruned
#
# Every ordered tuple, zero counts included, each count by f(n) % mod over
# the flagged n.  fsum rounds the exact sum, so the walks that stop at their
# first zero and count each modulus once must give the same bits.

POLYS = [T2P1, T2M2, T3P2, T_T2P1, T2M128]
POLY_IDS = ["t^2+1", "t^2-2", "t^3+2", "t(t^2+1)", "t^2-128"]
# psi > 0 for each f in the first two; no smooth value in the third
PLUS_WINDOWS = [(120, 60, 100), (100, 25, 50), (150, 100, 11)]


def _flagged(f, x, z, y):
    table = sieve_range(f, z + 1, x, y)
    return [n for n, smooth in zip(range(z + 1, x + 1), table.flags) if smooth]


def _literal_plus(f, smooth, firsts, pool, bound, steps):
    """fsum of weight * #{n in smooth : mod | f(n)} over every first
    (mod, weight) times every ordered `steps`-tuple of the pool, with the
    product <= bound; weights multiply left to right, as the walks do."""
    terms = []
    for mod0, w0 in firsts:
        for rest in product(pool, repeat=steps):
            mod, weight = mod0, w0
            for k, _, _, lp in rest:
                mod, weight = mod * k, weight * lp
            if mod <= bound:
                terms.append(weight * sum(f(n) % mod == 0 for n in smooth))
    return fsum(terms)


def _ordered_pairs(pool, bound):
    """Every ordered pair (k1, k2) of the pool, as (lcm, lp1 lp2) with the
    lcm <= bound."""
    return [(_lcm(k1, k2), lp1 * lp2)
            for k1, _, _, lp1 in pool for k2, _, _, lp2 in pool
            if _lcm(k1, k2) <= bound]


@pytest.mark.parametrize("f", POLYS, ids=POLY_IDS)
@pytest.mark.parametrize("window", PLUS_WINDOWS)
def test_plus_sums_equal_unpruned_sums_exactly(f, window):
    x, z, y = window
    h, fx = x - z, f(x)
    smooth = _flagged(f, x, z, y)
    assert (len(smooth) == 0) == (window == PLUS_WINDOWS[-1])
    primes = primes_up_to(int(min(y, fx)))
    log_fz = log(f(z))
    log_fzx = log_fz - log(x)

    inst = VWInstance(f, x, z, y)
    rep = vw_prop21(inst)
    big = _prime_powers(fx, primes, lambda p: p * p > y)
    small = _prime_powers(fx, primes, lambda p: p * p <= y)
    assert rep.V == _literal_plus(f, smooth, [(1, 1.0)], big, fx, 1) / log_fz
    pairs = _ordered_pairs(small, fx)
    assert rep.W == (_literal_plus(f, smooth, pairs, [], fx, 0)
                     / (log_fz * log_fz))

    pool_y_h = _prime_powers(h, primes, lambda p: True)
    pool_v1 = _prime_powers(h, primes, lambda p: p * p > y)
    pool_sq_h = _prime_powers(h, primes, lambda p: p * p <= y)
    pairs = _ordered_pairs(pool_sq_h, h)
    for m in (1, 2, 3):
        rep = vw_prop32(VWInstance(f, x, z, y, depth=m))
        firsts = [(k, lp) for k, _, _, lp in pool_v1]
        v_plus = _literal_plus(f, smooth, firsts, pool_y_h, h, m - 1)
        assert rep.v_plus == v_plus / (log_fz * log_fzx ** (m - 1)), m
        w_plus = _literal_plus(f, smooth, pairs, pool_y_h, h, m - 1)
        assert rep.w_plus == w_plus / (log_fz * log_fz * log_fzx ** (m - 1)), m

    pool_y_fx = _prime_powers(fx, primes, lambda p: True)
    for kappa in [1, 2, 4, 5, 6, 10, 25, h]:
        res = lemma31_check(inst, kappa)
        assert res.lhs == sum(f(n) % kappa == 0 for n in smooth), kappa
        head_sum = _literal_plus(f, smooth, [(kappa, 1.0)], pool_y_fx, h, 1)
        assert res.head_sum == head_sum / log_fzx, kappa


def test_plus_windows_reach_nonzero_off_diagonal_pairs():
    # the exact "+" test above doubles some pair of distinct prime powers
    # with a nonzero count, in W and in W_m^+
    found = set()
    for f in POLYS:
        for x, z, y in PLUS_WINDOWS:
            smooth = _flagged(f, x, z, y)
            primes = primes_up_to(int(min(y, f(x))))
            for bound, name in [(f(x), "W"), (x - z, "w_plus")]:
                pool = _prime_powers(bound, primes, lambda p: p * p <= y)
                if any(k1 != k2 and _lcm(k1, k2) <= bound
                       and any(f(n) % _lcm(k1, k2) == 0 for n in smooth)
                       for k1, _, _, _ in pool for k2, _, _, _ in pool):
                    found.add(name)
    assert found == {"W", "w_plus"}


@pytest.fixture
def counted_moduli(monkeypatch):
    """The modulus of every `_count_smooth` call, in call order."""
    moduli = []
    count_smooth = vwmachinery._count_smooth

    def spy(roots, fact, table):
        moduli.append(prod(p**e for p, e in fact.items()))
        return count_smooth(roots, fact, table)

    monkeypatch.setattr(vwmachinery, "_count_smooth", spy)
    return moduli


def test_plus_walks_count_each_modulus_once(counted_moduli):
    for f in POLYS:
        for x, z, y in PLUS_WINDOWS:
            inst = VWInstance(f, x, z, y)
            runs = [lambda: vw_prop21(inst)]
            runs += [lambda m=m: vw_prop32(VWInstance(f, x, z, y, depth=m))
                     for m in (1, 2, 3)]
            runs += [lambda k=k: lemma31_check(inst, k) for k in (1, 6, 25)]
            for run in runs:
                counted_moduli.clear()
                run()
                assert counted_moduli, (f, x)
                assert max(Counter(counted_moduli).values()) == 1, (f, x)


def test_plus_walks_of_a_window_without_smooth_values_are_empty(
        counted_moduli):
    x, z, y = PLUS_WINDOWS[-1]
    h = x - z
    for f in POLYS:
        inst = VWInstance(f, x, z, y, depth=3)
        fx, table, primes, roots = _window(inst)
        assert table.psi == 0
        count = _counter(roots, table)
        pool = _prime_powers(h, primes, lambda p: True)
        assert _counted(count, pool) == []
        assert list(_smooth_walk(count, _ROOT, pool, h, 3)) == []
        assert list(_smooth_walk(count, _pairs(pool, h), pool, h, 2)) == []
        # the depth-3 split counts the window itself and the pool entries,
        # never a tuple of two or more of them
        counted_moduli.clear()
        rep = vw_prop32(inst)
        assert rep.v_plus == rep.w_plus == 0.0
        assert 1 in counted_moduli
        assert set(counted_moduli) <= {1, *(k for k, _, _, _ in pool)}
