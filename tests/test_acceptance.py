"""The acceptance gate: every criterion at its stated tolerance, one
pass/fail line printed per criterion (run with -s to see them live).

Criterion 4 compares the exact Psi(10^6, 10^3) with de Bruijn's Lambda(x, y),
the Dickman prediction at that finite x; the tests of `_debruijn_lambda` pin
the comparator itself.
"""

from math import floor

from polysmooth import acceptance


def _run(cid):
    entry = next(e for e in acceptance._CRITERIA if e[0] == cid)
    _, name, fn = entry
    passed, details = fn(quick=False)
    line = f"criterion {cid:>2}: {'PASS' if passed else 'FAIL'} - {name}"
    print(line)
    print(f"  details: {details}")
    return passed, details


def test_criterion_1_closed_forms():
    passed, details = _run(1)
    assert passed, details


def test_criterion_2_dickman():
    passed, details = _run(2)
    assert passed, details


def test_criterion_3_sieve_oracle():
    passed, details = _run(3)
    assert passed, details


def test_criterion_4_dickman_consistency_at_scale():
    passed, details = _run(4)
    assert passed, (
        f"sieve Psi(1e6,1e3) = {details['psi']}, enumeration = "
        f"{details['psi_enum']}; |ratio - Lambda/x| = "
        f"{abs(details['debruijn_lambda_residual']):.5f} against the stated "
        f"{details['stated_tolerance']}"
    )


def test_debruijn_lambda_is_floor_x_when_y_at_least_x():
    # u <= 1: rho = 1 throughout and every integer up to x counts
    for x, y in [(1000, 1000), (1000, 2000), (1234.5, 5000)]:
        assert acceptance._debruijn_lambda(x, y) == floor(x)


def test_debruijn_lambda_quadrature_converged():
    # (1e6, 300) puts rho's knot at u = 2 inside a unit interval, at t = 11.1
    for x, y in [(10**6, 10**3), (10**6, 300)]:
        low = acceptance._debruijn_lambda(x, y, order=10) / x
        high = acceptance._debruijn_lambda(x, y, order=20) / x
        assert abs(low - high) <= 1e-12


def test_criterion_5_thm11_monitor():
    passed, details = _run(5)
    assert passed, details


def test_criterion_6_vw_machinery():
    passed, details = _run(6)
    assert passed, details


def test_criterion_7_omega_suite():
    passed, details = _run(7)
    assert passed, details


def test_criterion_8_quadfield_bridge():
    passed, details = _run(8)
    assert passed, details


def test_criterion_9_applications():
    passed, details = _run(9)
    assert passed, details


def test_criterion_10_determinism(capsys):
    passed, details = _run(10)
    assert passed, details
    # the nested verify runs must not print their tables
    assert "verify: ALL PASS" not in capsys.readouterr().out
