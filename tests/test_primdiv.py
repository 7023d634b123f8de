import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polysmooth
from polysmooth.oracles import _primitive_definition_oracle
from polysmooth.primdiv import (
    n_arctan,
    r_b,
    rb_table,
    verify_prop63,
)
from polysmooth.primes import factorize


def _has_primitive(b, x):
    """The per-n flags of r_b's rule, from the rb --dump table."""
    return rb_table(b, x).dump_columns()["has_primitive"]


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
    has = _has_primitive(1, 7)
    assert has[1]  # P+(5) = 5 > 4
    assert not has[2]  # arctan 3 reducible
    assert not has[6]  # 50 = 2 * 5^2


def test_hypothesis_violation():
    with pytest.raises(ValueError):
        r_b(-4, 10)
    with pytest.raises(ValueError):
        r_b(0, 10)


def test_n1_definition_vs_criterion():
    row = {k: c[0] for k, c in rb_table(1, 1).dump_columns().items()}
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
        assert _has_primitive(b, 2000).tolist() == flags, b
        assert r_b(b, 2000).count == sum(flags), b


def test_boundary_direct_method():
    for b in [3, 5, 7, -2, -3, -6]:
        cols = rb_table(b, abs(b) + 1).dump_columns()
        assert cols["method"][-1] == "criterion"
        for n in range(1, abs(b) + 1):
            assert cols["n"][n - 1] == n
            assert cols["method"][n - 1] == "direct"
            assert cols["has_primitive"][n - 1] == \
                _primitive_definition_oracle(b, n), (b, n)


def test_r1_of_10():
    assert r_b(1, 10).count == 7
    members = (np.flatnonzero(_has_primitive(1, 10)) + 1).tolist()
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
    # N(x) = R_1(x) for every x <= 2000: the prefix counts of R_1's column
    count = 0
    for n, has in enumerate(_has_primitive(1, 2000).tolist(), 1):
        count += has
        if n % 97 == 0 or n <= 20:
            assert n_arctan(n).count == count, n
    assert n_arctan(2000).count == count == r_b(1, 2000).count


def test_prop63_shape():
    rep = verify_prop63(1, 1000)
    assert rep.residual == abs(rep.r_b - rep.x_minus_psi)
    assert rep.r_over_x < 0.5


def test_degenerate_range_below_b():
    cols = rb_table(100, 5).dump_columns()
    assert len(cols["has_primitive"]) == 5
    assert all(m == "direct" for m in cols["method"])


def test_r_b_leaves_numpy_ma_unimported():
    # the prime-mode sieve's deep hits are deduplicated by a sort: on numpy
    # 2.x, np.unique's first plain call imports numpy.ma, 9-15 ms
    code = ("import sys\n"
            "from polysmooth.primdiv import r_b\n"
            "print('numpy.ma' in sys.modules)\n"
            "assert r_b(-18, 10**5).count == 69530\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(polysmooth.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    if out.startswith("True"):
        pytest.skip("numpy 1.x imports numpy.ma with numpy")
    assert out == "False\nFalse\n"
