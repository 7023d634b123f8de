import json
import time
from itertools import product

import pytest

from polysmooth import polyarith
from polysmooth.polyarith import (
    MAX_DEGREE,
    IntPoly,
    _cauchy_bound,
    _has_rational_root,
    _no_roots_beyond,
    build_factored,
    discriminant,
    parse_poly,
    resultant,
    t0,
)


def test_parse_json_array():
    f = parse_poly("[1,0,1]")
    assert f.coeffs == (1, 0, 1)
    assert f.degree == 2


def test_parse_symbolic():
    assert parse_poly("t^2-2").coeffs == (-2, 0, 1)
    assert parse_poly("t").coeffs == (0, 1)
    assert parse_poly("2t^3 - 4t + 7").coeffs == (7, -4, 0, 2)
    assert parse_poly("-t+3").coeffs == (3, -1)
    assert parse_poly("t**2+1").coeffs == (1, 0, 1)
    assert parse_poly("5").coeffs == (5,)


def test_parse_rejects_garbage():
    for bad in ["[0]", "0", "", "t^-2", "x^2", "1.5t", "[1, 2.5]"]:
        with pytest.raises(ValueError):
            parse_poly(bad)


def test_degree_limit():
    assert parse_poly(f"t^{MAX_DEGREE}+t+1").degree == MAX_DEGREE
    start = time.perf_counter()
    for bad in [f"t^{MAX_DEGREE + 1}", "t^10000000"]:
        with pytest.raises(ValueError, match="exceeds the degree limit"):
            parse_poly(bad)
    assert time.perf_counter() - start < 1.0  # no list of 10^7 coefficients
    # the total degree of the product counts, in any input form
    assert build_factored([f"t^{MAX_DEGREE - 1}+t+1", [1, 1]]).d == MAX_DEGREE
    for bad in ([f"t^{MAX_DEGREE}+t+1", [1, 1]], [[1] * (MAX_DEGREE + 2)],
                [parse_poly(json.dumps([1] * (MAX_DEGREE + 2)))]):
        with pytest.raises(ValueError, match="exceeds the degree limit"):
            build_factored(bad)


def test_eval_exact():
    assert parse_poly("t^2+1")(3) == 10
    assert parse_poly("t^2-2")(1) == -1
    assert parse_poly("[1,3,2]")(4) == 45  # (2t+1)(t+1) expanded
    # no overflow at any magnitude
    big = parse_poly("t^3+t+1")(10**30)
    assert big == 10**90 + 10**30 + 1


def test_eval_periodicity():
    # f(a + b*k) == f(a) (mod k)
    for f in [parse_poly("t^2+1"), parse_poly("2t^3-4t+7")]:
        for k in range(1, 12):
            for a in range(-5, 6):
                for b in range(-3, 4):
                    assert (f(a + b * k) - f(a)) % k == 0


def test_discriminant_closed_forms():
    # disc(a t^2 + b t + c) = b^2 - 4ac
    for a, b, c in [(1, 0, 1), (1, 0, -2), (2, 3, 1), (3, -5, 7)]:
        assert discriminant(IntPoly([c, b, a])) == b * b - 4 * a * c
    # disc(t^3 + p t + q) = -4p^3 - 27q^2
    for p, q in [(1, 0), (0, -2), (2, 3), (-1, 1)]:
        assert discriminant(IntPoly([q, p, 0, 1])) == -4 * p**3 - 27 * q * q


def test_disc_multiplicativity():
    # disc(FG) = disc(F) disc(G) Res(F,G)^2, checked against the direct value
    cases = [
        (parse_poly("t"), parse_poly("t^2+1")),
        (parse_poly("t+1"), parse_poly("t^2+2")),
        (parse_poly("t^2-2"), parse_poly("t^2+3")),
    ]
    for F, G in cases:
        lhs = discriminant(F * G)
        rhs = discriminant(F) * discriminant(G) * resultant(F, G) ** 2
        assert lhs == rhs


def test_build_factored_examples():
    fp = build_factored(["t^2+1"])
    assert (fp.g, fp.d, fp.discriminant_abs) == (1, 2, 4)
    assert fp.statuses == ("proven",)

    fp = build_factored(["t", "t^2+1"])
    assert (fp.g, fp.d, fp.discriminant_abs) == (2, 3, 4)
    assert fp.product.coeffs == (0, 1, 0, 1)

    with pytest.raises(ValueError):
        build_factored(["t^2-1"])  # rational roots +-1


def test_parts_reuse_the_discriminants_of_the_build(monkeypatch):
    calls = []
    counted = polyarith.discriminant
    monkeypatch.setattr(polyarith, "discriminant",
                        lambda f: calls.append(f) or counted(f))
    fp = build_factored(["t^3+2", "t^2+1", "t+5"])
    parts = fp.parts()
    assert len(calls) == 3  # one per factor, all in the build
    assert [part.discriminant_abs for part in parts] == [108, 4, 1]
    # resultants 5, 123 and 26 of the pairs, squared
    assert fp.discriminant_abs == 108 * 4 * 5**2 * 123**2 * 26**2


def test_build_factored_validation():
    with pytest.raises(ValueError):
        build_factored([])
    with pytest.raises(ValueError):
        build_factored(["t", "t"])
    with pytest.raises(ValueError):
        build_factored(["2t+2"])  # content 2
    with pytest.raises(ValueError):
        build_factored(["t^3-8"])  # root 2
    # degree >= 4 without rational roots: accepted but flagged
    fp = build_factored(["t^4+1"])
    assert fp.statuses == ("asserted",)


def test_quadratic_rational_root_by_discriminant():
    for text in ["6t^2+5t+1", "t^2+t"]:  # roots -1/2, -1/3; 0, -1
        with pytest.raises(ValueError, match="rational root"):
            build_factored([text])
    assert build_factored(["t^2-2"]).statuses == ("proven",)
    # constant terms no divisor walk can afford: a 31-digit prime, and
    # 963761198400 with 6720 divisors against its equal lead, in degree 2
    # and 3
    for coeffs in ([10**30 + 57, 1, 1], [963761198400, 1, 963761198400],
                   [10**30 + 57, 0, 0, 1], [963761198400, 1, 0, 963761198400]):
        start = time.perf_counter()
        assert build_factored([coeffs]).statuses == ("proven",)
        assert time.perf_counter() - start < 1.0


def _rational_roots_scan(cs):
    """Any rational root of the polynomial with coefficients cs (lowest
    degree first), searched literally over p/q with q | lead and p | a0;
    0 is one when a0 = 0."""
    a0, lead, d = cs[0], cs[-1], len(cs) - 1
    if a0 == 0:
        return True
    return any(sum(c * p**i * q ** (d - i) for i, c in enumerate(cs)) == 0
               for q in range(1, abs(lead) + 1) if lead % q == 0
               for p0 in range(1, abs(a0) + 1) if a0 % p0 == 0
               for p in (p0, -p0))


def test_quadratic_rational_root_matches_divisor_scan():
    for a in range(1, 7):
        for b in range(-8, 9):
            for c in range(-8, 9):
                want = _rational_roots_scan([c, b, a])
                assert _has_rational_root(IntPoly([c, b, a])) == want, (c, b, a)


@pytest.mark.parametrize("degree, box", [(3, 4), (4, 3), (5, 2)])
def test_rational_root_matches_divisor_scan(degree, box):
    rng = range(-box, box + 1)
    for lower in product(rng, repeat=degree):
        for lead in range(1, box + 1):
            cs = [*lower, lead]
            assert _has_rational_root(IntPoly(cs)) == _rational_roots_scan(cs), cs


def test_rational_root_between_two_sign_changes_of_the_derivative():
    # f' changes sign twice between two adjacent integers next to the root
    # 0, so the root is found only if the cuts of f' stay among f's
    f = IntPoly([0, -26, -50, 12, -25, 37, 23, -41, 1])
    assert _has_rational_root(f)
    for g in (f.taylor_shift(7), f - 1):
        assert _has_rational_root(g) == _rational_roots_scan(g.coeffs), g


def test_build_factored_sign_normalization():
    fp = build_factored(["-t^2-1"])
    assert fp.factors[0].coeffs == (1, 0, 1)


def _t0_oracle_valid(f, T, window=200):
    """Scan check: on integers in (T, T+window], f strictly increasing and > 1."""
    prev = None
    for n in range(T + 1, T + window + 1):
        v = f(n)
        if v <= 1:
            return False
        if prev is not None and v <= prev:
            return False
        prev = v
    return True


@pytest.mark.parametrize(
    "text,expected",
    [("t^2+1", 2), ("t^2-2", 2), ("t-10", 11)],
)
def test_t0_examples(text, expected):
    f = parse_poly(text)
    T = t0(f)
    assert T == expected
    assert _t0_oracle_valid(f, T)


def test_t0_is_minimal_on_examples():
    # t-10: T=10 already fails (f(10.5) < 1 and f(11)=1 at the integer scan)
    f = parse_poly("t-10")
    assert not _t0_oracle_valid(f, 10)


def test_t0_monotone_window():
    # eq. (2.3) shape: f(n1) > f(n2) > 1 for n1 > n2 > t0
    for text in ["t^2+1", "t^2-2", "2t^3-4t+7", "t^4-3t^2+1"]:
        f = parse_poly(text)
        T = t0(f)
        assert _t0_oracle_valid(f, T, window=500)


def test_t0_sign_flip():
    f = parse_poly("-t^2-1")
    assert t0(-f) == 2
    with pytest.raises(ValueError):
        t0(f)
    with pytest.raises(ValueError):
        t0(parse_poly("5"))


def _t0_scan(g):
    """The linear scan t0 once was: the least c in [2, top] whose shifted
    derivative and g - 1 have no sign variation, else top."""
    gp, gm1 = g.derivative(), g - 1
    top = max(2, _cauchy_bound(gp), _cauchy_bound(gm1))
    for c in range(2, top + 1):
        if _no_roots_beyond(gp, c) and _no_roots_beyond(gm1, c):
            return c
    return top


# every polynomial the test suites build, as factors or products, and a
# few far roots
T0_POLYS = [
    "t", "t+1", "2t+2", "t-5", "t-10", "t-55300", "t^2+1", "t^2+2", "t^2+3",
    "t^2-1", "t^2-2", "t^2-10", "t^3+2", "t^3-2", "t^3-8", "t^3+t+1",
    "2t^3-4t+7", "t^4+1", "t^4+t+1", "t^4-3t^2+1", "t^5+t^2+1",
    "[1,3,6]", "[3,0,10]", "[1,1,1,12]", "[7,0,0,30]", "[1,3,65537]",
    "[3,1,0,0,70]", "[2,0,9]", "[1,0,0,2,6]", "[-2,3,1]", "[-10000,0,1]",
    "[-10000,1]", "[5,-300,0,1]",
]


@pytest.mark.parametrize("text", T0_POLYS)
def test_t0_bisection_matches_scan(text):
    g = parse_poly(text)
    assert t0(g) == _t0_scan(g)


def test_t0_bisection_on_products_and_flipped_sign():
    for factors in (["t", "t^2+1"], ["t+1", "t^2+2"], ["t^2+1", "t-10"]):
        f = build_factored(factors)
        assert t0(f) == _t0_scan(f.product)
    g = parse_poly("-t^2+5t-1")
    assert t0(-g) == _t0_scan(-g)


def test_t0_far_root_is_fast():
    g = parse_poly("t-1000000000000")
    start = time.perf_counter()
    assert t0(g) == 10**12 + 1
    assert time.perf_counter() - start < 1.0
