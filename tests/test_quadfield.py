from collections import defaultdict

import pytest

from polysmooth.modroots import lift_roots
from polysmooth.oracles import _windowed_oracle, pplus_oracle
from polysmooth.primes import factorize, primes_up_to
from polysmooth.quadfield import (
    MAX_WINDOW_END,
    c_alpha,
    classify_prime,
    classify_primes,
    make_context,
    verify_prop54,
    windowed_cassels,
)

CTX2 = make_context(2)
CTX3 = make_context(3)
CTX6 = make_context(6)


def test_make_context_validation():
    for bad in [1, 4, 5, 9, 12, 8]:
        # 4, 9: squares; 5: 1 mod 4; 12, 8: not squarefree; 1: too small
        with pytest.raises(ValueError):
            make_context(bad)
    assert CTX2.disc == 8
    assert CTX6.disc == 24
    assert CTX2.f.product.coeffs == (-2, 0, 1)
    assert CTX2.ideal_denominator_norm == 1


def test_classify_prime_examples():
    cls = classify_prime(CTX2, 7)
    assert cls.kind == "split" and cls.roots == (3, 4) and cls.in_P_K

    cls = classify_prime(CTX2, 2)
    assert cls.kind == "ramified" and not cls.in_P_K

    cls = classify_prime(CTX2, 5)
    assert cls.kind == "inert" and cls.roots == ()

    with pytest.raises(ValueError):
        classify_prime(CTX2, 9)


def test_classify_prime_root_property():
    for ctx in [CTX2, CTX3, CTX6]:
        batch = classify_primes(ctx, primes_up_to(500))
        for p, cls in zip(primes_up_to(500), batch):
            assert cls == classify_prime(ctx, p)
            for u in cls.roots:
                assert (u * u - ctx.m) % p == 0
            if cls.kind == "split":
                u1, u2 = cls.roots
                assert u1 != u2 and (u1 + u2) % p == 0
            assert cls.in_P_K == (cls.kind == "split")


def test_inert_primes_never_divide():
    for ctx in [CTX2, CTX3, CTX6]:
        inert = [p for p in primes_up_to(500)
                 if classify_prime(ctx, p).kind == "inert"]
        for p in inert:
            assert all((n * n - ctx.m) % p for n in range(p))


def _c_alpha_oracle(m, x, lo_exclusion=1):
    """Direct (prime, class) uniqueness enumeration over [lo_exclusion, x]."""
    classes = defaultdict(list)
    for k in range(lo_exclusion, x + 1):
        v = abs(k * k - m)
        if v <= 1:
            continue
        for p in factorize(v):
            classes[(p, k % p)].append(k)
    qualifying = set()
    for (p, c), members in classes.items():
        if len(members) == 1:
            qualifying.add(members[0])
    return sum(1 for n in qualifying if n >= 1)


def test_c_alpha_examples():
    assert c_alpha(CTX2, 1).count == 0  # (1 + sqrt 2) is a unit
    assert c_alpha(CTX2, 2).count == 1
    assert c_alpha(CTX2, 3).count == 2


def test_c_alpha_against_oracle():
    for ctx in [CTX2, CTX3, CTX6]:
        for x in [5, 17, 60, 200]:
            got = c_alpha(ctx, x)
            assert got.count == _c_alpha_oracle(ctx.m, x), (ctx.m, x)
            assert len(got.witnesses) == got.count
            for n, p in got.witnesses.tolist():
                assert (n * n - ctx.m) % p == 0
                # the class n mod p is a root class of t^2 - m
                cls = n % p
                assert (cls * cls - ctx.m) % p == 0
                # the witness ideal divides no other (k + sqrt m), k <= x
                assert p > max(n - 1, x - n)


def test_c_alpha_scale_guard():
    with pytest.raises(ValueError):
        c_alpha(CTX2, MAX_WINDOW_END + 1)


def test_windowed_cassels_oracle():
    for ctx in [CTX2, CTX3]:
        for N, M in [(0, 30), (100, 50), (37, 80)]:
            for inc0 in [True, False]:
                got = windowed_cassels(ctx, N, M, include_zero=inc0)
                assert got.count == _windowed_oracle(ctx.m, N, M, inc0), (ctx.m, N, M, inc0)


def test_windowed_matches_c_alpha_definitionally():
    # (m=2, N=0, M=x) with exclusion from k=1 is exactly c_alpha(x)
    for x in [10, 50, 120]:
        assert windowed_cassels(CTX2, 0, x, include_zero=False).count == \
            c_alpha(CTX2, x).count


def test_windowed_empty():
    assert windowed_cassels(CTX2, 100, 0).count == 0


def test_lemma52_dual_path_small():
    # A: exists rational p > x with p | n^2 - m
    # B: exists split prime p > x whose class contains n (i.e. p | n^2 - m,
    #    classified split, n = +-u mod p)
    x = 300
    for ctx in [CTX2, CTX3, CTX6]:
        assert x > 2 * ctx.m
        facts = {n: factorize(abs(n * n - ctx.m)) for n in range(1, 1001)
                 if abs(n * n - ctx.m) > 1}
        big = sorted({p for fact in facts.values() for p in fact if p > x})
        classes = dict(zip(big, classify_primes(ctx, big)))
        for n, fact in facts.items():
            path_a = pplus_oracle(abs(n * n - ctx.m)) > x
            path_b = False
            for p in fact:
                if p <= x:
                    continue
                cls = classes[p]
                assert cls.kind == "split"  # p > 2m cannot ramify, never inert
                assert n % p in cls.roots or (-n) % p in cls.roots
                path_b = True
            assert path_a == path_b, (ctx.m, n)


def test_lemma53_congruence_classes():
    # v_p(n^2 - m) >= v with the class pinned mod p  <=>  n lies in the
    # Hensel-lifted root class mod p^v (odd split p: simple roots)
    for ctx, p in [(CTX2, 7), (CTX2, 17), (CTX3, 11), (CTX6, 5)]:
        if classify_prime(ctx, p).kind != "split":
            continue
        for v in [1, 2, 3]:
            mod = p**v
            lifted = lift_roots(ctx.f, p, v)
            assert len(lifted) == 2
            for n in range(1, 4000):
                in_class = n % mod in lifted
                divides = (n * n - ctx.m) % mod == 0
                assert in_class == divides, (ctx.m, p, v, n)


def test_norm_identity():
    # |n + sqrt(m)| * |n - sqrt(m)| = |f(n)| with A_f = 1
    from math import sqrt

    for ctx in [CTX2, CTX3, CTX6]:
        s = sqrt(ctx.m)
        for n in range(1, 1001):
            lhs = abs(n + s) * abs(n - s)
            rhs = abs(n * n - ctx.m)
            assert abs(lhs - rhs) <= 1e-6 * max(1.0, rhs)


def test_prop54_shape():
    rep = verify_prop54(CTX2, 1000)
    assert rep.residual == abs(rep.c_alpha - rep.x_minus_psi)
    assert rep.residual >= 0
    assert rep.ratio_rlogx_over_x <= 4.0
