import random
import time
import tracemalloc
from collections import defaultdict
from itertools import islice
from math import gcd, prod

import numpy as np
import pytest

from polysmooth import modroots
from polysmooth.polyarith import IntPoly, build_factored
from polysmooth.modroots import (
    lift_roots,
    lift_table,
    omega,
    omega_grid,
    root_classes,
)
from polysmooth.oracles import omega_scan
from polysmooth.primes import factorize, is_prime, primes_up_to
from polysmooth.smoothsieve import _plan, psi

T2P1 = build_factored(["t^2+1"])
T2M2 = build_factored(["t^2-2"])
T_T2P1 = build_factored(["t", "t^2+1"])
CUBIC = build_factored(["t^3-2"])
QUARTIC = build_factored(["t^4+1"])
MIXED = build_factored(["t+1", "t^2+2"])


# ------------------------------------------- the scalar reference over F_p
#
# One prime at a time in Python ints: closed forms for degree <= 2
# (Tonelli-Shanks square roots), gcd(f, X^p - X) and equal-degree splitting
# seeded from (f, p) for degree >= 3, on f reduced mod p; p = 2 is scanned.
# The batch in root_classes must agree with it on every prime.

def _eval_mod(poly, u, m):
    acc = 0
    for c in reversed(poly.coeffs):
        acc = (acc * u + c) % m
    return acc


def legendre(a, p):
    """Legendre symbol (a/p) for odd prime p, in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def sqrt_mod_p(a, p):
    """One square root of a modulo an odd prime p (Tonelli-Shanks),
    or None if a is a non-residue."""
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, x = 0, t
        while x != 1:
            x = x * x % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return r


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pm_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _pm_monic(a, p):
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _pm_rem(a, b, p):
    """a mod b over F_p; b monic."""
    a = a[:]
    db = len(b) - 1
    while len(a) - 1 >= db and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - db
            for i in range(db):
                a[shift + i] = (a[shift + i] - lead * b[i]) % p
        a.pop()
    return _trim(a)


def _pm_gcd(a, b, p):
    a, b = a[:], b[:]
    while b:
        b = _pm_monic(b, p)
        a, b = b, _pm_rem(a, b, p)
    return _pm_monic(a, p) if a else a


def _pm_pow(base, e, mod_poly, p):
    result = [1]
    base = _pm_rem(base, mod_poly, p)
    while e:
        if e & 1:
            result = _pm_rem(_pm_mul(result, base, p), mod_poly, p)
        base = _pm_rem(_pm_mul(base, base, p), mod_poly, p)
        e >>= 1
    return result


def _split_roots(g, p, rng):
    """Split a monic product of distinct linear factors into its roots."""
    deg = len(g) - 1
    if deg == 0:
        return []
    if deg == 1:
        return [(-g[0]) % p]
    while True:
        a = rng.randrange(p)
        h = _pm_pow([a, 1], (p - 1) // 2, g, p)
        if h:
            h = h[:]
            h[0] = (h[0] - 1) % p
            h = _trim(h)
        else:
            h = [p - 1]
        d = _pm_gcd(h, g, p)
        if 0 < len(d) - 1 < deg:
            # g / d: quotient is the complementary factor
            q = _pm_quot(g, d, p)
            return sorted(_split_roots(d, p, rng) + _split_roots(q, p, rng))


def _pm_quot(a, b, p):
    """a / b over F_p for monic b dividing a."""
    a = a[:]
    db = len(b) - 1
    q = [0] * (len(a) - db)
    while len(a) - 1 >= db and a:
        lead = a[-1]
        shift = len(a) - 1 - db
        q[shift] = lead
        if lead:
            for i in range(db + 1):
                a[shift + i] = (a[shift + i] - lead * b[i]) % p
        _trim(a)
    return q


def _roots_general(coeffs, p, rng):
    """Roots over F_p of a reduced poly (lead nonzero mod p, degree >= 1)
    via gcd with X^p - X and equal-degree splitting."""
    f = _pm_monic([c % p for c in coeffs], p)
    if len(f) - 1 == 1:
        return [(-f[0]) % p]
    xp = _pm_pow([0, 1], p, f, p)
    # X^p - X mod f
    xp = xp[:] + [0] * max(0, 2 - len(xp))
    xp[1] = (xp[1] - 1) % p
    g = _pm_gcd(_trim(xp), f, p)
    if not g or len(g) - 1 == 0:
        return []
    return _split_roots(g, p, rng)


def _factor_roots(poly, p, rng_factory):
    """Roots of one irreducible factor mod p."""
    if p == 2:
        return [u for u in range(2) if _eval_mod(poly, u, 2) == 0]
    # reduced mod p; a leading coefficient divisible by p lowers the degree
    cs = _trim([c % p for c in poly.coeffs])
    deg = len(cs) - 1
    if deg == 0:
        return []  # nonzero constant mod p (primitivity excludes 0)
    if deg == 1:
        return [(-cs[0]) * pow(cs[1], p - 2, p) % p]
    if deg == 2:
        c0, c1, c2 = cs
        disc = (c1 * c1 - 4 * c0 * c2) % p
        if disc == 0:
            return [(-c1) * pow(2 * c2, p - 2, p) % p]
        s = sqrt_mod_p(disc, p)
        if s is None:
            return []
        inv = pow(2 * c2, p - 2, p)
        return sorted({(-c1 + s) * inv % p, (-c1 - s) * inv % p})
    return _roots_general(cs, p, rng_factory())


def _scalar_roots(f, p):
    """The sorted roots of f mod p by the scalar path."""

    def rng_factory():
        return random.Random(f"{f.key()}|{p}")

    roots = set()
    for factor in f.factors:
        roots.update(_factor_roots(factor, p, rng_factory))
    return tuple(sorted(roots))


# --------------------------------------- the scalar reference for lifting
#
# One root at a time in Python ints, the lifter lift_classes replaced.  For
# a root u mod p^k, f(u + t p^k) = f(u) + t p^k f'(u) (mod p^(k+1)).  So a
# simple root (f'(u) != 0 mod p) lifts to the one t that solves it, and a
# singular root lifts to all p classes u + t p^k when p^(k+1) divides f(u),
# and to none otherwise.

def _scalar_lift(f, p):
    """The roots of f mod p, p^2, ..., each level a sorted tuple, without
    end: level 1 from _scalar_roots, level v + 1 from level v."""
    fpoly, fprime = f.product, f.product.derivative()
    roots, mod_k = _scalar_roots(f, p), p
    while True:
        yield roots
        mod_next = mod_k * p
        nxt = []
        for u in roots:
            fu = _eval_mod(fpoly, u, mod_next)
            fp_u = _eval_mod(fprime, u, p)
            if fp_u:
                nxt.append(u + (-(fu // mod_k)) * pow(fp_u, -1, p) % p * mod_k)
            elif fu == 0:
                nxt.extend(range(u, mod_next, mod_k))
        roots, mod_k = tuple(sorted(nxt)), mod_next


def test_roots_mod_p_examples():
    assert lift_roots(T2P1, 5, 1) == (2, 3)
    assert lift_roots(T2P1, 3, 1) == ()
    assert lift_roots(T2P1, 2, 1) == (1,)


def test_roots_mod_p_rejects_composite():
    with pytest.raises(ValueError):
        lift_roots(T2P1, 10, 1)
    with pytest.raises(ValueError):
        lift_roots(T2P1, 1 << 33, 1)


def _scan_roots(f, p):
    return tuple(u for u in range(p) if f(u) % p == 0)


def _by_prime(P, R):
    """root_classes' arrays as {p: tuple of its roots}."""
    got = defaultdict(list)
    for p, r in zip(P.tolist(), R.tolist()):
        got[p].append(r)
    return {p: tuple(rs) for p, rs in got.items()}


@pytest.mark.parametrize("f", [T2P1, T2M2, T_T2P1, CUBIC, QUARTIC, MIXED])
def test_roots_agree_with_scan_oracle(f):
    primes = primes_up_to(1000)
    got = _by_prime(*root_classes(f, primes))
    for p in primes:
        assert got.get(p, ()) == _scan_roots(f, p), (f, p)
    # the one-lane wrapper on both sides of SCAN
    for p in (2, 251, 257):
        assert lift_roots(f, p, 1) == _scan_roots(f, p), (f, p)


# leading coefficients 6, 10, 12, 30, 65537, 70, 9, 6, 10 and 30: mod a prime
# dividing the leading coefficient, f has lower degree (the last two keep
# degree 3, so the gcd path runs at the reduced degree)
LEAD_POLYS = [[1, 3, 6], [3, 0, 10], [1, 1, 1, 12], [7, 0, 0, 30],
              [1, 3, 65537], [3, 1, 0, 0, 70], [2, 0, 9], [1, 0, 0, 2, 6],
              [1, 1, 0, 1, 10], [1, 0, 0, 1, 0, 30]]


@pytest.mark.parametrize("coeffs", LEAD_POLYS)
def test_roots_when_p_divides_leading_coefficient(coeffs):
    f = build_factored([coeffs])
    primes = primes_up_to(3000) + [65537]
    # one batch for every prime; the primes of the lead once more, one lane
    # at a time
    got = _by_prime(*root_classes(f, primes))
    for p in primes:
        assert got.get(p, ()) == _scan_roots(f, p), (coeffs, p)
    for p in [2, *factorize(coeffs[-1])]:
        assert lift_roots(f, p, 1) == _scan_roots(f, p), (coeffs, p)


def test_roots_deterministic_across_fresh_objects():
    # equal-degree splitting is seeded from f: fresh instances agree
    # (the primes below SCAN are scanned, so most of these run in lanes)
    a = build_factored(["t^5+t^2+1"])  # no rational root
    b = build_factored(["t^5+t^2+1"])
    primes = primes_up_to(2000)
    Pa, Ra = root_classes(a, primes)
    Pb, Rb = root_classes(b, primes)
    assert Pa.tolist() == Pb.tolist() and Ra.tolist() == Rb.tolist()


def test_lift_roots_examples():
    assert lift_roots(T2P1, 5, 2) == (7, 18)
    assert lift_roots(T2P1, 2, 2) == ()
    t = build_factored(["t"])
    for p, v in [(3, 4), (7, 3), (2, 10)]:
        assert lift_roots(t, p, v) == (0,)


def test_lift_roots_scan_oracle():
    cases = [(f, p, 4) for f in [T2P1, T2M2, T_T2P1, CUBIC]
             for p in [2, 3, 5, 7, 11, 13]]
    # every root singular: t^2 + 3^10 has 3^[v/2] roots mod 3^v for v <= 8,
    # and t^2 + 2^6 has 2^[v/2] mod 2^v up to v = 7 and none above
    cases += [(build_factored(["t^2+59049"]), 3, 8),
              (build_factored(["t^2+64"]), 2, 12)]
    for f, p, top in cases:
        for v in range(1, top + 1):
            mod = p**v
            expect = tuple(u for u in range(mod) if f(u) % mod == 0)
            assert lift_roots(f, p, v) == expect, (f, p, v)


def test_omega_of_a_singular_prime_square_needs_no_scan():
    # 0 is a double root mod p = 10000019, and p^2 does not divide f(0) = -p,
    # so it lifts to no root mod p^2: one evaluation, not p
    p = 10000019
    f = build_factored([[-p, 0, 1]])
    start = time.perf_counter()
    assert omega(f, p * p) == 0
    assert time.perf_counter() - start < 1.0


def test_lift_budget():
    with pytest.raises(ValueError):
        lift_roots(T2P1, 2, 65)


def test_root_store_domain_errors():
    f = build_factored(["t^2+1"])
    p32 = (1 << 32) + 15  # the least prime above 2^32
    for p, v, msg in [(5, 0, "v must be >= 1"), (5, -1, "v must be >= 1"),
                      (2, 65, "budget 2\\^64"), (3, 41, "budget 2\\^64"),
                      (10, 1, "p=10 is not prime"), (10, 2, "p=10 is not prime"),
                      (1, 1, "p=1 is not prime"), (p32, 1, "bound 2\\^32"),
                      ((1 << 32) - 1, 1, "not prime")]:
        with pytest.raises(ValueError, match=msg):
            lift_roots(f, p, v)
    # the largest prime is checked, wherever it stands: a lane of p >= 2^32
    # would overflow its uint64 products
    for primes in ([2, 3, p32], [p32, 5]):
        with pytest.raises(ValueError,
                           match="exceeds the desk-scale prime bound 2\\^32"):
            root_classes(f, primes)
    with pytest.raises(ValueError, match="k must be >= 1"):
        omega(f, -3)


def test_lift_roots_levels_match_the_scalar_lifter():
    # every level, the first too, is found afresh on each call: repeated
    # calls agree, and each level is the scalar lifter's
    f = build_factored(["t^3+2", "t^2+7"])
    for p in (2, 3, 5, 7, 11, 101, 103, 251, 257):
        want = list(islice(_scalar_lift(f, p), 3))
        assert [lift_roots(f, p, v) for v in (1, 2, 3)] == want, p
        assert lift_roots(f, p, 1) == want[0], p


@pytest.mark.parametrize("factors", [["t^2+1"], ["t", "t^2+1"]])
def test_f_holds_nothing_per_prime_after_a_sieve(factors):
    # the roots mod the 9592 primes below 10^5 live only in the sieve's own
    # arrays: once its table is dropped, f holds a few KB
    psi(build_factored(factors), 10, 10)  # numpy's lazy imports, loaded once
    f = build_factored(factors)
    tracemalloc.start()
    try:
        table = psi(f, 10**5, 10**5)
        del table
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 100_000, held


def test_omega_examples():
    assert omega(T2P1, 10) == 2
    assert omega(T2P1, 4) == 0
    assert omega(T2P1, 1) == 1
    assert omega(T_T2P1, 1) == 1
    with pytest.raises(ValueError):
        omega(T2P1, 0)
    with pytest.raises(ValueError):
        omega(T2P1, (1 << 48) + 1)


def test_omega_matches_scan():
    for f in [T2P1, T2M2, T_T2P1, CUBIC]:
        for k in range(1, 400):
            assert omega(f, k) == omega_scan(f, k), (f, k)


def test_omega_scan_counts_residues_literally():
    # coefficients past 2^63 are reduced mod k before the int64 pass
    big = IntPoly([10**30 + 7, -3, 5, 2**70])
    for f in [T2P1.product, CUBIC.product, big]:
        for k in [1, 2, 3, 4, 97, 360, 65521, 65536]:
            want = sum(1 for u in range(k) if f(u) % k == 0)
            assert omega_scan(f, k) == want, (f, k)
    for k in (0, 1 << 31):
        with pytest.raises(ValueError):
            omega_scan(T2P1, k)


def test_omega_multiplicative_small():
    for f in [T2P1, T2M2, T_T2P1]:
        table = {k: omega(f, k) for k in range(1, 2001)}
        for a in range(1, 2001):
            for b in range(1, 2000 // a + 1):
                if gcd(a, b) == 1:
                    assert table[a * b] == table[a] * table[b]


def test_huxley_bound():
    # omega_f(p^v) <= d * p^(theta(p)/2), compared exactly via squares
    for f in [T2P1, T2M2, T_T2P1, MIXED]:
        theta = factorize(f.discriminant_abs)
        for p in primes_up_to(100):
            tp = theta.get(p, 0)
            for v in range(1, 5):
                w = len(lift_roots(f, p, v))
                assert w * w <= f.d * f.d * p**tp, (f, p, v)
                assert w * w <= f.d * f.d * f.discriminant_abs


def test_hensel_stability():
    # p not dividing Delta_f: omega(p^v) == omega(p) for all v
    for f in [T2P1, T2M2, T_T2P1, CUBIC]:
        for p in primes_up_to(100):
            if f.discriminant_abs % p == 0:
                continue
            w1 = len(lift_roots(f, p, 1))
            for v in range(2, 5):
                assert len(lift_roots(f, p, v)) == w1


def test_lemma42_inequality_small():
    # omega_f(prod p_i^v_i) <= (d sqrt(Delta))^(m-|S|) * prod_{j in S} omega_f(p_j^v_j)
    f = T_T2P1
    delta = f.discriminant_abs
    primes = [2, 3, 5, 7]
    tuples = [
        [(2, 1), (2, 2)],
        [(2, 1), (3, 1)],
        [(2, 2), (5, 1), (5, 2)],
        [(3, 1), (3, 1), (7, 2)],
        [(2, 1), (3, 2), (5, 1)],
    ]
    for tup in tuples:
        fact = {}
        for p, v in tup:
            fact[p] = fact.get(p, 0) + v
        from polysmooth.modroots import omega_factored

        lhs = omega_factored(f, fact)
        s_idx = [j for j, (p, _) in enumerate(tup) if delta % p != 0]
        m = len(tup)
        rhs_prod = 1
        for j in s_idx:
            p, v = tup[j]
            rhs_prod *= len(lift_roots(f, p, v))
        # compare lhs <= (d sqrt(Delta))^(m-|S|) * rhs_prod via squaring
        k = m - len(s_idx)
        assert lhs * lhs <= (f.d * f.d * delta) ** k * rhs_prod * rhs_prod, tup


# ------------------------------------------------ batched roots vs the scalar path

PRIMES_2E5 = primes_up_to(200_000)
# the ten largest primes below 2^32: products of residues come near 2^64
TOP_PRIMES = [p for p in range((1 << 32) - 1, (1 << 32) - 400, -2) if is_prime(p)][:10][::-1]


def _assert_batch_matches_scalar(factors, primes):
    f = build_factored(factors)
    P, R = root_classes(f, primes)
    assert P.dtype == R.dtype == np.int64
    assert (np.diff(P) >= 0).all()  # in the order of `primes`
    got = _by_prime(P, R)
    table = lift_table(f, [(p, 1) for p in primes])
    for p in primes:
        want = _scalar_roots(f, p)
        assert got.get(p, ()) == want, (factors, p)
        assert table[p, 1] == want, (factors, p)
    _assert_one_lane_matches_scalar(f)


def _assert_one_lane_matches_scalar(f):
    # the one-lane wrapper: p = 2, the primes of the lead, both sides of
    # SCAN and the largest prime below 2^32
    lead = prod(g.coeffs[-1] for g in f.factors)
    for p in {2, 251, 257, TOP_PRIMES[-1], *factorize(abs(lead))}:
        assert lift_roots(f, p, 1) == _scalar_roots(f, p), (f, p)


def _random_factors(rng):
    """1 to 3 distinct factors of degree 1 to 4, coefficients in [-50, 50],
    accepted by build_factored."""
    while True:
        factors = []
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 4)
            factors.append([rng.randint(-50, 50) for _ in range(deg)]
                           + [rng.choice([-1, 1]) * rng.randint(1, 50)])
        try:
            build_factored(factors)
        except ValueError:
            continue
        return factors


# ------------------------------------ root counts without finding the roots
#
# deg gcd(f mod p, t^p - t) is the number of distinct roots of f mod p.
# t^p mod (f mod p) is found by square-and-multiply in int64 lanes, one lane
# per prime, and each gcd by the scalar reference's Euclid.  A lane holds
# residues below p, so for p below 2e5 and degree <= 12 every sum of
# products stays below 2^63.

def _lanes_mulmod(a, b, m, P):
    """a b mod (m, p) per lane, for a and b of degree below d = deg m and m
    monic."""
    d = m.shape[1] - 1
    out = np.zeros((len(P), 2 * d - 1), dtype=np.int64)
    for i in range(d):
        out[:, i:i + d] += a[:, i:i + 1] * b
    out %= P[:, None]
    for i in range(2 * d - 2, d - 1, -1):
        out[:, i - d:i] -= out[:, i:i + 1] % P[:, None] * m[:, :d]
    return out[:, :d] % P[:, None]


def _lanes_times_t(a, m, P):
    """a t mod (m, p) per lane."""
    top = a[:, -1:]
    shifted = np.concatenate([np.zeros_like(top), a[:, :-1]], axis=1)
    return (shifted - top * m[:, :-1]) % P[:, None]


def _coeffs_mod(f, P):
    """The coefficients of f, lowest first, mod each prime of P: a row per
    prime."""
    coeffs = np.array(f.product.coeffs, dtype=object)
    return (coeffs[None, :] % P[:, None]).astype(np.int64)


def _frobenius_root_counts(C, P):
    """deg gcd(f mod p, t^p - t) for each prime of P, from C = f mod p (a
    row per prime); the lanes of each degree of f mod p run together (a
    prime of the lead lowers it)."""
    assert C.any(axis=1).all()  # f is primitive
    deg = C.shape[1] - 1 - np.argmax(C[:, ::-1] != 0, axis=1)
    counts = np.zeros(len(P), dtype=np.int64)
    for d in np.unique(deg[deg > 0]):
        at = np.flatnonzero(deg == d)
        Pd = P[at]
        inv = np.array([pow(c, -1, p) for c, p in zip(C[at, d].tolist(),
                                                       Pd.tolist())])
        m = C[at, :d + 1] * inv[:, None] % Pd[:, None]
        one = np.zeros((len(at), d), dtype=np.int64)
        one[:, 0] = 1
        t = _lanes_times_t(one, m, Pd)
        r = one
        for bit in range(int(Pd.max()).bit_length() - 1, -1, -1):
            r = _lanes_mulmod(r, r, m, Pd)
            odd = (Pd >> bit & 1 == 1)[:, None]
            r = np.where(odd, _lanes_times_t(r, m, Pd), r)
        frob = ((r - t) % Pd[:, None]).tolist()  # t^p - t mod (m, p)
        for j, mj, hj, p in zip(at, m.tolist(), frob, Pd.tolist()):
            counts[j] = len(_pm_gcd(mj, _trim(hj), p)) - 1
    return counts


def _assert_batch_roots_sound_and_complete(factors, primes):
    """root_classes on sorted primes below 2e5 without the scalar root
    finder: each batch root is a root below p, the roots of a prime are
    sorted and distinct (one numpy pass), and there are as many as f has
    mod p.  The one-lane wrapper is checked against the scalar reference
    on a few primes."""
    f = build_factored(factors)
    P, R = root_classes(f, primes)
    assert P.dtype == R.dtype == np.int64
    assert ((0 <= R) & (R < P)).all()
    primes = np.array(primes, dtype=np.int64)
    at = np.searchsorted(primes, P)
    assert (primes[at] == P).all()
    C = _coeffs_mod(f, primes)
    value = np.zeros_like(R)
    for c in C.T[::-1]:
        value = (value * R + c[at]) % P
    assert not value.any()
    same = P[1:] == P[:-1]
    assert (P[1:] >= P[:-1]).all() and (R[1:][same] > R[:-1][same]).all()
    counts = np.bincount(at, minlength=len(primes))
    assert (counts == _frobenius_root_counts(C, primes)).all()
    _assert_one_lane_matches_scalar(f)


def test_batch_roots_random_factors():
    # every prime below 2e5
    _assert_batch_roots_sound_and_complete(
        _random_factors(random.Random(0)), PRIMES_2E5)


@pytest.mark.parametrize("seed", range(1, 7))
def test_batch_roots_more_random_factors(seed):
    _assert_batch_roots_sound_and_complete(
        _random_factors(random.Random(seed)), primes_up_to(20_000))


# p | lead: 6t^2 + 5t + 1 = (2t + 1)(3t + 1), 6t^2 + 5t + 2, 10^30 t^2 + 1;
# p | disc and roots shared across factors: t^2 + 1 with t + 2 mod 5 and
# with t^2 - 7 mod 2 and 3; t(t + 1); a coefficient of 10^30
SPECIAL_FACTORS = [
    [[1, 2], [1, 3]],
    [[2, 5, 6]],
    [[1, 0, 10**30]],
    [[1, 0, 1], [2, 1], [-7, 0, 1]],
    [[0, 1], [1, 1]],
    [[10**30, 0, 1]],
]
# the same with a cubic, quartic or quintic factor, whose scalar roots cost
# more: primes up to 3e4 hold every p | lead and p | disc here; 10t^4 + t^3
# + t + 1 and 30t^5 + t^3 + 1 drop to degree 3 mod a prime of the lead
SPECIAL_GCD_FACTORS = [
    [[1, 1, 1], [-1, 1], [7, 0, 0, 2]],
    [[10**30 + 7, 3, 0, 1]],
    [[1, 3, 0, 0, 6], [5, 0, 2]],
    [[-3, 0, 0, 1], [5, -3, 0, 1]],
    [[1, 1, 0, 1, 10]],
    [[1, 0, 0, 1, 0, 30]],
]


@pytest.mark.parametrize("factors", SPECIAL_FACTORS)
def test_batch_roots_special_lanes(factors):
    _assert_batch_roots_sound_and_complete(factors, PRIMES_2E5)


@pytest.mark.parametrize("factors", SPECIAL_GCD_FACTORS)
def test_batch_roots_special_lanes_gcd_path(factors):
    _assert_batch_roots_sound_and_complete(factors, primes_up_to(30_000))


@pytest.mark.parametrize("text", ["t^2+1", "t^2-2", "t^3+2", "t^4+t+1"])
def test_batch_roots_near_2_32(text):
    assert len(TOP_PRIMES) == 10 and TOP_PRIMES[-1] < 1 << 32
    _assert_batch_matches_scalar([text], TOP_PRIMES)


# primes with many levels below 2^32, and the largest below 2^16, whose
# level 2 comes near 2^32
LIFT_PRIMES = primes_up_to(200) + [65497, 65519, 65521]


@pytest.mark.parametrize("factors", [
    *(_random_factors(random.Random(seed)) for seed in range(7)),
    *SPECIAL_FACTORS])
def test_batch_lift_matches_lift_roots(factors):
    # over a window longer than 2^32 the sieve's plan lifts every class
    # while q p < 2^32, a singular one while q <= 256: each level a prime's
    # classes reach together must be the scalar lifter's, simple roots and
    # singular ones (all p classes above a root, or none)
    for part in build_factored(factors).parts():
        P, Q, R, (_, _, DI) = _plan(part, LIFT_PRIMES, 0, 2**40)
        DP, DQ = P[DI], Q[DI]
        levels = defaultdict(list)
        for p, q, r in zip(P.tolist(), Q.tolist(), R.tolist()):
            levels[p, q].append(r)
        stopped = set(zip(DP.tolist(), DQ.tolist()))
        for p in LIFT_PRIMES:
            q, k = p, 1
            for want in _scalar_lift(part, p):
                assert tuple(sorted(levels[p, q])) == want, (factors, p, k)
                if (p, q) in stopped or not levels[p, q] or q * p >= 2**32:
                    break
                q, k = q * p, k + 1


@pytest.mark.parametrize("factors", SPECIAL_FACTORS)
def test_lift_table_matches_the_scalar_lifter(factors):
    # every level p^v <= 2^48 of every prime of LIFT_PRIMES, up to one
    # holding more than 4096 roots: past 2^32 (7^12, 2^40, 3^30 and the
    # like) the lanes hold Python ints; the counts are omega's
    f = build_factored(factors)
    want, tops = {}, []
    for p in LIFT_PRIMES:
        for v, roots in enumerate(_scalar_lift(f, p), 1):
            want[p, v] = roots
            if p ** (v + 1) > 2**48 or len(roots) > 4096:
                break
        tops.append((p, v))
    assert lift_table(f, tops) == want
    ks = [p**v for p, v in want]
    assert omega_grid(f, ks) == [len(roots) for roots in want.values()]
    assert [lift_roots(f, p, v) for p, v in tops] == [want[pv] for pv in tops]


def test_root_classes_overlapping_calls_agree():
    f = build_factored(["t^3+2", "t^2+7"])
    P, R = root_classes(f, primes_up_to(1000))
    want = [(p, r) for p in primes_up_to(1000)
            for r in _scalar_roots(f, p)]
    assert list(zip(P.tolist(), R.tolist())) == want
    # a call on part of the same primes, across SCAN, finds the same classes
    part = primes_up_to(300)[40:70]
    Pp, Rp = root_classes(f, part)
    assert list(zip(Pp.tolist(), Rp.tolist())) == [
        (p, r) for p, r in want if p in part]
    assert root_classes(f, [])[0].size == 0


def test_root_classes_runs_in_lane_blocks(monkeypatch):
    # 3245 primes up to 3e4 at 1000 lanes a block: four blocks, the last
    # short, joined in order, once for root_classes and once for lift_table
    # (then one lane per lift_roots call)
    monkeypatch.setattr(modroots, "LANE_BLOCK", 1000)
    sizes = []
    batch = modroots._batch_roots
    monkeypatch.setattr(modroots, "_batch_roots",
                        lambda f, ps: sizes.append(len(ps)) or batch(f, ps))
    _assert_batch_matches_scalar(["t^3+2", "t^2+7"], primes_up_to(30_000))
    assert sizes[:8] == [1000, 1000, 1000, 245] * 2
    assert set(sizes[8:]) == {1}


def test_omega_grid_matches_omega():
    small, big = list(range(1, 3000)), [65536, 2**31 - 1, (1 << 32) - 5]
    for factors in (["t^2+1"], ["t^3+2"], ["t", "t^2+1"]):
        f = build_factored(factors)
        want = ([omega_scan(f, k) for k in small]
                + [omega(f, k) for k in big])
        assert omega_grid(build_factored(factors), small + big) == want
    # a prime factor past 2^32 is refused as omega refuses it
    with pytest.raises(ValueError, match="2\\^32"):
        omega_grid(T2P1, [5, (1 << 32) + 15])


def _omega_by_scan(factors, n):
    """omega_f(k) for k = 1..n from omega_scan at every prime power q <= n,
    multiplied over a smallest-prime-factor table (CRT)."""
    f = build_factored(factors)
    spf = np.zeros(n + 1, dtype=np.int64)
    for p in primes_up_to(n)[::-1]:
        spf[p::p] = p
    local, want = {}, [0, 1]
    for k in range(2, n + 1):
        p = q = int(spf[k])
        while k // q % p == 0:
            q *= p
        if q not in local:
            local[q] = omega_scan(f, q)
        want.append(local[q] * want[k // q])
    return want[1:]


@pytest.mark.parametrize("factors", [["t^2+1"], ["t^3+2"], ["t", "t+1"]])
def test_omega_grid_matches_scan_up_to_3e4(factors):
    # B = min(isqrt(3e4), 3e4) = 173: most k leave the pass with a prime
    # cofactor, and no k goes to factorize
    n = 30_000
    assert omega_grid(build_factored(factors), range(1, n + 1)) == \
        _omega_by_scan(factors, n)


def test_omega_grid_duplicates_and_cofactors_past_b():
    # B = min(isqrt(max k), 8) = 8.  65521 * 65519 (times 2^10) is a
    # cofactor below 2^32 that factorize splits; 65521 * (2^32 - 5) is
    # just below 2^48 and takes omega itself; 1000003 is a prime cofactor
    ks = [1, 1, 10, 10, 65521 * 65519 << 10, 65521 * ((1 << 32) - 5),
          6 * 1000003, 1]
    assert ks[5] < 1 << 48
    for factors in (["t^2+1"], ["t^2-2"], ["t", "t+1"]):
        want = [omega(build_factored(factors), k) for k in ks]
        assert omega_grid(build_factored(factors), ks) == want
    assert omega_grid(T2P1, [1]) == [1] and omega_grid(T2P1, []) == []


def test_omega_grid_cofactors_past_b_skip_trial_division(monkeypatch):
    # t^2+1 over 300 products of two numbers in [10^5, 10^6): B = 300, and
    # a cofactor of (B+1)^2 or more is a prime, told by is_prime, or a
    # composite split by factorize with no trial division
    rng = random.Random(20261019)
    ks = [rng.randrange(10**5, 10**6) * rng.randrange(10**5, 10**6)
          for _ in range(300)]
    want = [omega(T2P1, k) for k in ks]
    cofactors = [prod(p**e for p, e in factorize(k).items() if p > 300)
                 for k in ks]
    past = [c for c in cofactors if 301**2 <= c < 1 << 32]
    composite = [c for c in past if not is_prime(c)]
    assert 0 < len(composite) < len(past)
    seen = []
    split = modroots.factorize
    monkeypatch.setattr(modroots, "factorize",
                        lambda n, composite=False:
                        seen.append(composite) or split(n, composite))
    assert omega_grid(build_factored(["t^2+1"]), ks) == want
    # omega itself factors the k whose cofactor reaches 2^32
    assert seen.count(True) == len(composite)
    assert seen.count(False) == sum(c >= 1 << 32 for c in cofactors)


@pytest.mark.parametrize("ks, error", [
    # the checks of every k come first, in grid order
    ([4294967357, 0], "omega_f\\(0\\) is undefined"),
    ([4294967357 * 2, -3], "k must be >= 1"),
    ([4294967357, (1 << 48) + 1], "factoring budget 2\\^48"),
    # then the first k whose product meets a prime past 2^32 while nonzero
    ([3 * 4294967357, 2 * 4294967357, 4294967357 + 4], "p=4294967357 "),
])
def test_omega_grid_errors_in_grid_order(ks, error):
    with pytest.raises(ValueError, match=error):
        omega_grid(T2P1, ks)
