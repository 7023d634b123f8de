import signal
from math import inf, isqrt, prod

import numpy as np
import pytest

from polysmooth import smoothsieve
from polysmooth.cli import main
from polysmooth.oracles import pplus_oracle, psi_oracle
from polysmooth.polyarith import build_factored
from polysmooth.primes import factorize, primes_up_to
from polysmooth.smoothsieve import (
    SEGMENT,
    _aggregate,
    coeff_bound,
    eval_range,
    iroot,
    pplus_table,
    psi,
    sieve_range,
    smooth_bound,
)

T = build_factored(["t"])
T2P1 = build_factored(["t^2+1"])
T2M2 = build_factored(["t^2-2"])
T_T2P1 = build_factored(["t", "t^2+1"])
MIXED = build_factored(["t+1", "t^2+2"])

ALL_POLYS = [T, T2P1, T2M2, T_T2P1, MIXED]


@pytest.fixture(autouse=True)
def _deadline():
    """Fail a test instead of hanging when a sieve loop does not end (a
    repeat-division loop that let f(n) = 0 in would never end)."""
    def expire(signum, frame):
        raise AssertionError("no result within 60 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def test_eval_range_matches_horner():
    # from n0 = 2^63 - 250 the window crosses 2^63: n itself is a Python int
    for n0 in (7, 2**63 - 250):
        for f in ALL_POLYS:
            vals = eval_range(f.product, n0, 500)
            assert vals.tolist() == [f(n) for n in range(n0, n0 + 500)]


def test_iroot():
    assert iroot(10**12, 2) == 10**6
    assert iroot(10**12 - 1, 2) == 10**6 - 1
    assert iroot(8, 3) == 2
    assert iroot(7, 3) == 1


def test_smooth_bound_exact_rationals():
    assert smooth_bound(10**6, 2) == 1000
    assert smooth_bound(10**6, 1.5) == 10**4
    assert smooth_bound(10**6, 1) == 10**6
    assert smooth_bound(999, 2) == 31  # 31^2 = 961 <= 999 < 1024


def test_psi_examples():
    assert psi(T, 10, 3).psi == 7  # {1,2,3,4,6,8,9}
    assert psi(T2P1, 10, 5).psi == 4  # {1,2,3,7}
    assert psi(T2P1, 10, 200).psi == 10  # y exceeds max f(n) = 101


def test_psi_oracle_examples():
    assert psi_oracle(T, 100, 5) == 34
    assert psi_oracle(T2P1, 10, 5) == 4
    assert psi_oracle(T2P1, 0, 5) == 0


@pytest.mark.parametrize("f", ALL_POLYS)
def test_psi_matches_oracle_small(f):
    x = 300
    for y in [1, 2, 3, 5, 10, 50, x, x * x]:
        assert psi(f, x, y).psi == psi_oracle(f, x, y), (f, y)


def test_pplus_examples():
    tab = pplus_table(T2P1, 10)
    assert tab.pplus_of(7) == 5  # 50 = 2 * 5^2
    assert tab.pplus_of(9) == 41  # 82 = 2 * 41
    assert tab.pplus.dtype == np.int64
    tab = pplus_table(T2M2, 1)
    assert tab.pplus_of(1) == 1  # f(1) = -1


def test_lookups_outside_the_window_raise():
    # n < lo must not index the columns from the end (pplus_of(0) on the
    # [1, 10] table would read P+(f(10)) = 101)
    for tab in (pplus_table(T2P1, 10), sieve_range(T2P1, 5, 12, 50,
                                                   need_pplus=True)):
        for n in (tab.lo - 1, 0, tab.hi + 1):
            with pytest.raises(ValueError, match=rf"\[{tab.lo}, {tab.hi}\]"):
                tab.flag(n)
            with pytest.raises(ValueError, match=rf"\[{tab.lo}, {tab.hi}\]"):
                tab.pplus_of(n)
        assert tab.pplus_of(tab.lo) == pplus_oracle(T2P1(tab.lo))
        assert tab.pplus_of(tab.hi) == pplus_oracle(T2P1(tab.hi))


@pytest.mark.parametrize("f", ALL_POLYS)
def test_pplus_matches_oracle(f):
    x = 200
    tab = pplus_table(f, x)
    for n in range(1, x + 1):
        assert tab.pplus_of(n) == pplus_oracle(f(n)), (f, n)


def test_zero_value_never_smooth(capsys):
    f = build_factored(["t-5", "t^2+1"])
    tab = psi(f, 10, 10**9)
    assert not tab.flag(5)  # f(5) = 0, P+(0) = +inf
    assert tab.flag(4)
    tab = pplus_table(f, 10)
    assert tab.pplus[5 - 1] == 0  # the stored sentinel
    assert tab.pplus_of(5) == float("inf")
    argv = ["psi", "--factors", "[[-5,1],[1,0,1]]", "--x", "6", "--y", "10",
            "--dump"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[5] == "5,0,inf,0"


def test_unit_values_always_smooth():
    tab = psi(T2M2, 2, 1)  # f(1) = -1: P+(-1) = 1 <= 1
    assert tab.flag(1)
    assert not tab.flag(2)  # f(2) = 2 not 1-smooth


# Windows with thousands of root classes on both sides of the kernels'
# density split (q < segment length / 64 goes along strided views, the rest
# through one gathered pass), and many hits of distinct primes on one n.
# b0 = 200001 on [1, 2e5] for t^2+1, so y = 200000 runs the log sieve; at
# y = 1000 the last strided class at SEGMENT is p = 997, so a class sieved
# twice would pass values with a cofactor prime in (1000, 997 * sqrt(2)).
@pytest.mark.parametrize("factors, hi, y, need_pplus, segs", [
    (["t^2+1"], 500, 20, False, [8, 64, SEGMENT, 1 << 20]),
    (["t", "t^2+1"], 400, 10**4, True, [8, 64, SEGMENT, 1 << 20]),
    (["t^2+1"], 2 * 10**5, inf, True, [97, 4096, SEGMENT, 1 << 20]),
    (["t", "t^2+1"], 2 * 10**5, inf, True, [97, 4096, SEGMENT, 1 << 20]),
    (["t^2+1"], 2 * 10**5, 1000, False, [97, 4096, SEGMENT, 1 << 20]),
    (["t^2+1"], 2 * 10**5, 2 * 10**5, False, [97, 4096, SEGMENT, 1 << 20]),
], ids=["count-500", "pplus-400", "pplus-t2p1-2e5", "pplus-t-t2p1-2e5",
        "count-t2p1-y1000", "count-t2p1-below-b0"])
def test_segment_independence(factors, hi, y, need_pplus, segs, pplus_ref):
    # every segment size gives the flags of one prime-mode table, whose P+
    # column is checked against the oracle at both ends of the window
    f = build_factored(factors)
    base = sieve_range(f, 1, hi, y, need_pplus=True)
    ends = [*range(1, 151), *range(hi - 149, hi + 1)]
    assert [base.pplus_of(n) for n in ends] == [pplus_ref(f(n)) for n in ends]
    for seg in segs:
        tab = sieve_range(f, 1, hi, y, need_pplus=need_pplus,
                          segment_size=seg)
        assert tab.psi == base.psi, seg
        assert np.array_equal(tab.flags, base.flags), seg
        if need_pplus:
            assert np.array_equal(tab.pplus, base.pplus), seg


def test_segment_size_not_dividing_range():
    # 900 values in segments of 7: the last segment holds 4; y = 10^7 takes
    # the cofactor-primality path
    for y in [13, 10**7]:
        whole = sieve_range(T2P1, 101, 1000, y)
        tab = sieve_range(T2P1, 101, 1000, y, segment_size=7)
        assert tab.psi == whole.psi
        assert np.array_equal(tab.flags, whole.flags)


def test_segment_size_must_be_positive():
    for seg in [0, -3]:
        with pytest.raises(ValueError, match="segment_size must be >= 1"):
            sieve_range(T, 1, 10, 5, segment_size=seg)


def test_monotone_in_x_and_y():
    vals = [psi(T2P1, x, 10).psi for x in [50, 100, 200, 400]]
    assert vals == sorted(vals)
    vals = [psi(T2P1, 200, y).psi for y in [2, 5, 10, 100, 10**5]]
    assert vals == sorted(vals)


def test_sieve_range_window():
    tab = sieve_range(T2P1, 101, 200, 13)
    count = sum(1 for n in range(101, 201) if psi_oracle(T2P1, n, 13) - psi_oracle(T2P1, n - 1, 13) == 1)
    assert tab.psi == count


QUARTIC = build_factored(["t^4+t+1"])


def _smooth_flags(f, lo, hi, y):
    """Whether f(n) is nonzero and y-smooth for each n in [lo, hi], by the
    definition: dividing out every prime up to y leaves 1.  These windows'
    values pass pplus_oracle's domain, and factoring them whole (sympy)
    costs seconds where y-smoothness needs only the primes up to y."""
    primes = primes_up_to(int(y))
    flags = []
    for n in range(lo, hi + 1):
        v = abs(f(n))
        for p in primes:
            while v and v % p == 0:
                v //= p
        flags.append(v == 1)
    return flags


@pytest.mark.parametrize("lo, hi, dtype", [(54700, 55000, np.int64),
                                           (55200, 55500, object)])
def test_kernel_either_side_of_int64_limit(lo, hi, dtype):
    # coeff_bound(t^4+t+1, 55000) < 2^63 <= coeff_bound(t^4+t+1, 55200)
    assert eval_range(QUARTIC.product, lo, hi - lo + 1).dtype == dtype
    assert sieve_range(QUARTIC, lo, hi, 1000, need_pplus=True).pplus.dtype \
        == dtype
    for y in [13, 1000]:
        want = _smooth_flags(QUARTIC, lo, hi, y)
        # one segment strides every p < 301; segments of 7 gather p >= 7
        for seg in [SEGMENT, 7]:
            tab = sieve_range(QUARTIC, lo, hi, y, segment_size=seg)
            assert [tab.flag(n) for n in range(lo, hi + 1)] == want, (y, seg)
            assert tab.psi == sum(want)


def test_object_window_with_a_zero_of_f():
    f = build_factored(["t-55300", "t^3+2"])
    assert eval_range(f.product, 55290, 21).dtype == object
    for y in [13, 1000]:
        for seg in [SEGMENT, 7]:
            tab = sieve_range(f, 55290, 55310, y, segment_size=seg)
            assert not tab.flag(55300)
            assert tab.psi == sum(_smooth_flags(f, 55290, 55310, y))


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_prime_mode_compares_y_exactly(dtype):
    # P+ = 2^53 + 1 rounds to 2^53 as a float64; it is not 2^53-smooth
    vals = np.array([2**53 + 1, 1, 0, 2**53], dtype=dtype)
    best = np.array([3, 2**31 - 1, 5, 7], dtype=np.int64)
    # a sieve bound whose square exceeds every entry: nothing is certified
    bound = 2**27
    ok, pv = _aggregate(vals, best, 2.0**53, bound)
    assert ok.tolist() == [False, True, False, True]
    assert pv.tolist()[:2] == [2**53 + 1, 2**31 - 1]
    for y in [2.0**70, float("inf")]:
        ok, _ = _aggregate(vals, best, y, bound)
        assert ok.tolist() == [True, True, False, True]


def _certified_composite(f, lo, hi, bound):
    """Some n in [lo, hi] whose cofactor after sieving to `bound` exceeds
    bound^2 and is composite, by the oracle's factorization of f(n)."""
    for n in range(lo, hi + 1):
        v = abs(f(n))
        if v > 1:
            big = [(p, e) for p, e in factorize(v).items() if p > bound]
            cof = prod(p**e for p, e in big)
            if cof > bound * bound and sum(e for _, e in big) > 1:
                return n
    return None


# Short windows past n = 1, one per degree: prime mode sieves to B = 2 * count
# there and certifies the cofactors left above B^2.
@pytest.mark.parametrize("poly, lo, hi", [
    (["t^2-10"], 999001, 999300),
    (["t+1", "t^2+2"], 99901, 100000),
    (["t^3+2"], 4901, 5000),
    (["t^4+t+1"], 401, 500),
])
def test_prime_mode_window_certifies_cofactors(poly, lo, hi, pplus_ref):
    f = build_factored(poly)
    b0 = isqrt(coeff_bound(f, hi)) + 1
    bound = 2 * (hi - lo + 1)  # = min(2 * count, b0)
    assert bound < b0
    assert _certified_composite(f, lo, hi, bound) is not None
    pplus = [pplus_ref(f(n)) for n in range(lo, hi + 1)]
    for y in [float("inf"), 10 * bound]:  # 10 * bound lies in (B, b0)
        tab = sieve_range(f, lo, hi, y, need_pplus=True)
        assert [tab.pplus_of(n) for n in range(lo, hi + 1)] == pplus, y
        want = [p <= y for p in pplus]
        assert [tab.flag(n) for n in range(lo, hi + 1)] == want, y
        assert tab.psi == sum(want)
        # without need_pplus: prime mode at y = inf, every prime up to y at
        # y < b0
        assert np.array_equal(sieve_range(f, lo, hi, y).flags, tab.flags), y


def test_prime_mode_sieves_to_twice_the_window(monkeypatch):
    # prime mode sieves the primes up to B = min(2 * count, b0)
    seen = []

    def recording(n):
        seen.append(n)
        return primes_up_to(n)

    monkeypatch.setattr(smoothsieve, "primes_up_to", recording)
    f = build_factored(["t^3+2"])  # b0 = 31623 on [1, 1000]
    want = [pplus_oracle(f(n)) for n in range(1, 1001)]
    assert sieve_range(f, 1, 1000, 1e9).psi == sum(p <= 1e9 for p in want)
    tab = sieve_range(f, 1, 1000, 1e9, need_pplus=True)
    assert seen == [2000, 2000]
    assert tab.pplus.tolist() == want
    seen.clear()
    tab = pplus_table(T2P1, 1000)
    assert seen == [1001]  # b0
    assert tab.pplus.tolist() == [pplus_oracle(n * n + 1)
                                  for n in range(1, 1001)]


def test_prime_mode_past_int64_certifies_cofactors(pplus_ref):
    # values past 2^63 (object arrays): b0 is about 3e9, below the 2^32
    # limit; sieving every prime up to b0 would build a 3 GB prime table
    lo, hi = 55200, 55300
    b0 = isqrt(coeff_bound(QUARTIC, hi)) + 1
    assert 2 * (hi - lo + 1) < b0  # B = min(2 * count, b0) = 2 * count
    tab = sieve_range(QUARTIC, lo, hi, 1e18, need_pplus=True)
    pplus = [pplus_ref(QUARTIC(n)) for n in range(lo, hi + 1)]
    assert tab.pplus.dtype == object
    assert [tab.pplus_of(n) for n in range(lo, hi + 1)] == pplus
    assert [tab.flag(n) for n in range(lo, hi + 1)] == [p <= 10**18
                                                       for p in pplus]


def _smooth(v, y):
    """|v| is y-smooth, by trial division by every d <= y (v = 0 is not)."""
    v = abs(v)
    if v == 0:
        return False
    for d in range(2, y + 1):
        while v % d == 0:
            v //= d
    return v == 1


# Count mode decides flags by the log sieve.  Each window stresses one of its
# exact steps; every y is below b0, so none of them runs in prime mode.  The
# windows whose b0 is below 2^32 also run in prime mode, whose division
# kernel settles the same kind of deep classes, and P+ is checked per n.
M = 2**27 + 1


@pytest.mark.parametrize("factors, lo, hi, ys", [
    # t (t + 2^20): the factors share their root mod 2^k up to k = 20
    ([[0, 1], [2**20, 1]], 0, 3000, [2, 100]),
    # Psi = 1 through -f(5) = 2^70 alone: v_2 past the last level sieved,
    # counted exactly
    ([[-5 - 2**70, 1]], 1, 10, [2]),
    # f(7) = 0 is never smooth, however many levels hit it
    ([[-7, 1]], 0, 30, [2, 5]),
    # 17^2 classes mod 17^4 pass the class cap; f(289) = 17^4 * 290
    ([[17**6, 0, 1]], 1, 6000, [29]),
    # 257 | disc is lifted no further; f(257) = 2 * 257^2
    ([[257**2, 0, 1]], 1, 3000, [2, 257]),
    # a coefficient past 2^53: f(M) = 3 is 0 in float64 Horner
    ([[3 - M * M, 0, 1]], M - 50, M + 50, [2, 3]),
    # coefficients past the float range; f(7) = 2^1400
    ([[10**400, 1]], 1, 50, [5]),
    ([[2**1400 - 7, 1]], 1, 50, [2]),
    # values past 2^63
    (["t^4+t+1"], 55200, 55500, [13, 1000]),
    # deep classes of p = 2 of both factors hit n = 2^21 and n = 2^25,
    # where f(n) = 3 * 2^41 and 3 * 11 * 2^45
    ([[0, 1], [2**20, 1]], 2**21 - 50, 2**21 + 50, [2, 3]),
    ([[0, 1], [2**20, 1]], 2**25 - 500, 2**25 + 500, [2, 11]),
])
def test_log_sieve_exact_steps(factors, lo, hi, ys, pplus_ref):
    f = build_factored(factors)
    b0 = isqrt(coeff_bound(f, hi)) + 1
    for y in ys:
        assert y < b0
        want = [_smooth(f(n), y) for n in range(lo, hi + 1)]
        tab = sieve_range(f, lo, hi, y)
        assert [tab.flag(n) for n in range(lo, hi + 1)] == want, y
        assert tab.psi == sum(want)
    if b0 < 2**32:
        tab = sieve_range(f, lo, hi, y, need_pplus=True)
        assert [tab.pplus_of(n) for n in range(lo, hi + 1)] == [
            pplus_ref(f(n)) for n in range(lo, hi + 1)]


def test_log_sieve_range_is_a_domain_limit():
    f = build_factored([[2**(1 << 20), 1]])  # values past 2^(2^20)
    with pytest.raises(ValueError, match="exact range of the log sieve"):
        psi(f, 10, 2)
