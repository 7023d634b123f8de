import numpy as np
import pytest

from polysmooth.oracles import _primitive_definition_oracle
from polysmooth.primdiv import (
    n_arctan,
    r_b,
    verify_prop63,
)
from polysmooth.primes import factorize


def _first_occurrence_flags(b, x):
    """Definition oracle at scale: n has a primitive divisor iff some prime
    of n^2 + b appears in no earlier term, i.e. first occurs at n.

    (A composite primitive divisor would hand each of its primes the same
    coprimality, so primes decide; this matches the literal scan, which the
    small-range test below pins.)"""
    first_seen = {}
    for m in range(1, x + 1):
        for p in factorize(abs(m * m + b)):
            first_seen.setdefault(p, m)
    return [
        abs(n * n + b) > 1
        and any(first_seen[p] == n for p in factorize(abs(n * n + b)))
        for n in range(1, x + 1)
    ]


def test_examples():
    has = r_b(1, 7).has_primitive
    assert has[1]  # P+(5) = 5 > 4
    assert not has[2]  # arctan 3 reducible
    assert not has[6]  # 50 = 2 * 5^2


def test_hypothesis_violation():
    with pytest.raises(ValueError):
        r_b(-4, 10)
    with pytest.raises(ValueError):
        r_b(0, 10)


def test_n1_definition_vs_criterion():
    row = {k: c[0] for k, c in r_b(1, 1).dump_columns().items()}
    assert row["has_primitive"]  # A_1 = 2, empty earlier-term relation
    assert row["method"] == "direct"
    assert row["criterion_mismatch"]  # P+(2) = 2 is not > 2


def test_first_occurrence_oracle_matches_literal_scan():
    for b in [1, 3, -2]:
        flags = _first_occurrence_flags(b, 150)
        for n in range(1, 151):
            assert flags[n - 1] == _primitive_definition_oracle(b, n), (b, n)


def test_criterion_matches_definition():
    # every n <= 2000, past |b| (the criterion) and up to it (n prime and
    # n | b also decides): negative b, and b with many prime divisors
    for b in [1, 2, 3, 5, -2, -6, 30, -30, 210, -399, 2000]:
        flags = _first_occurrence_flags(b, 2000)
        res = r_b(b, 2000)
        for n in range(1, 2001):
            assert res.has_primitive[n - 1] == flags[n - 1], (b, n)
        assert r_b(b, 2000).count == res.count == sum(flags), b


def test_boundary_direct_method():
    for b in [3, 5, 7, -2, -3, -6]:
        cols = r_b(b, abs(b) + 1).dump_columns()
        assert cols["method"][-1] == "criterion"
        for n in range(1, abs(b) + 1):
            assert cols["n"][n - 1] == n
            assert cols["method"][n - 1] == "direct"
            assert cols["has_primitive"][n - 1] == \
                _primitive_definition_oracle(b, n), (b, n)


def test_r1_of_10():
    res = r_b(1, 10)
    assert res.count == 7
    members = (np.flatnonzero(res.has_primitive) + 1).tolist()
    assert members == [1, 2, 4, 5, 6, 9, 10]


def test_r_b_definition_oracle():
    for b in [1, 2, -2]:
        for x in [10, 50, 200]:
            expect = sum(1 for n in range(1, x + 1)
                         if _primitive_definition_oracle(b, n))
            assert r_b(b, x).count == expect, (b, x)


def test_n_arctan_examples():
    assert n_arctan(10).count == 7
    assert n_arctan(3).count == 2  # n = 1, 2; arctan 3 reducible


def test_n_equals_r1():
    res = r_b(1, 2000)
    # N(x) = R_1(x) for every x <= 2000: the prefix counts of R_1's column
    count = 0
    for n, has in enumerate(res.has_primitive.tolist(), 1):
        count += has
        if n % 97 == 0 or n <= 20:
            assert n_arctan(n).count == count, n
    assert n_arctan(2000).count == count == res.count


def test_prop63_shape():
    rep = verify_prop63(1, 1000)
    assert rep.residual == abs(rep.r_b - rep.x_minus_psi)
    assert rep.r_over_x < 0.5


def test_degenerate_range_below_b():
    res = r_b(100, 5)
    assert len(res.has_primitive) == 5
    assert all(m == "direct" for m in res.dump_columns()["method"])
