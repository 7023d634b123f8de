"""The acceptance suite: every criterion with its stated tolerance, runnable
via `polysmooth verify` or the pytest gate.

Each criterion returns a CriterionResult with the measurements that decided
it.  Criterion 4 compares the exact Psi(10^6, 10^3) with the Dickman
prediction at that finite x, de Bruijn's Lambda(x, y), not with its
x -> infinity limit rho(2): the count sits 0.0374 above rho(2) and 0.0038
above Lambda/x, and its record splits that gap into de Bruijn's terms.
The quick level drives the same code paths at reduced scale and skips the
10^6-scale criteria (4, 5) and the determinism double-run (10).
"""

import contextlib
import io
import os
import random
import tempfile
import time
from dataclasses import dataclass
from math import ceil, floor, fsum, log, prod, sqrt

import numpy as np
from numpy.polynomial.legendre import leggauss

from .bounds import cassels_coeff, gamma_f, make_bound_report
from .dickman import rho
from .modroots import lift_table, omega_grid
from .oracles import (
    _enumerate_smooth,
    _oracle_split,
    _oracle_v_w,
    _primitive_definition_oracle,
    _windowed_oracle,
    delay_residual,
    omega_scan,
    pplus_oracle,
    psi_oracle,
    rho_rk4_oracle,
)
from .polyarith import build_factored
from .primes import factorize, primes_up_to
from .primdiv import n_arctan, r_b, rb_table, verify_prop63
from .quadfield import (
    c_alpha,
    classify_primes,
    make_context,
    verify_prop54,
    windowed_cassels,
)
from .smoothsieve import SEGMENT, pplus_table, psi, sieve_range, smooth_bound
from .vwmachinery import VWInstance, lemma31_check, vw_depth_pair, vw_prop21, vw_prop32

GAMMA_211 = (19 + sqrt(105)) / 32


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    seconds: float
    details: dict


def _poly(label):
    return build_factored(_POLY_SPECS[label])


_POLY_SPECS = {
    "t": ["t"],
    "t^2+1": ["t^2+1"],
    "t^2-2": ["t^2-2"],
    "t(t^2+1)": ["t", "t^2+1"],
    "(t+1)(t^2+2)": ["t+1", "t^2+2"],
}


# --------------------------------------------------------------- criterion 1

def criterion_1(quick=False):
    details = {}
    ok = True
    g211 = gamma_f(2, 1, 1)
    details["gamma_2_1_1"] = g211
    details["gamma_target"] = GAMMA_211
    ok &= abs(g211 - GAMMA_211) <= 1e-12
    c2 = cassels_coeff(2)
    details["cassels_2"] = c2
    ok &= c2 > 0.543
    worst = max(
        abs(cassels_coeff(d) - (1 - gamma_f(d, 1, 1) / d)) for d in range(2, 101)
    )
    details["identity_max_err"] = worst
    ok &= worst <= 1e-12
    return ok, details


# --------------------------------------------------------------- criterion 2

def criterion_2(quick=False):
    details = {}
    ok = True
    steps = 128 if quick else 512
    worst = max(
        abs(rho(1 + i / steps) - (1 - log(1 + i / steps))) for i in range(steps + 1)
    )
    details["closed_form_max_err"] = worst
    ok &= worst <= 1e-10

    umax = 5.0 if quick else 10.0
    grid, vals = rho_rk4_oracle(u_max=umax)
    stride = 1000  # compare every 0.01
    worst = max(
        abs(rho(float(grid[i])) - float(vals[i]))
        for i in range(0, len(grid), stride)
    )
    details["solver_agreement_max_err"] = worst
    ok &= worst <= 1e-8

    res_worst = 0.0
    u = 1 + 1 / 32  # mesh midpoints: dyadic, never an integer knot
    top = 10.0 if quick else 19.9
    while u <= top:
        res_worst = max(res_worst, abs(delay_residual(u)))
        u += 1 / 16
    details["delay_residual_max"] = res_worst
    ok &= res_worst <= 1e-8
    return ok, details


# --------------------------------------------------------------- criterion 3

def criterion_3(quick=False):
    details = {}
    ok = True
    x = 300 if quick else 2000
    y_grid = [1, 2, 3, 5, 10, 50, x, x * x]
    mismatches = 0
    for label in _POLY_SPECS:
        f = _poly(label)
        oracle_pp = [pplus_oracle(f(n)) for n in range(1, x + 1)]
        tab_pp = pplus_table(f, x)
        if [tab_pp.pplus_of(n) for n in range(1, x + 1)] != oracle_pp:
            mismatches += 1
        for y in y_grid:
            table = sieve_range(f, 1, x, y)
            expect = [f(n) != 0 and oracle_pp[n - 1] <= y
                      for n in range(1, x + 1)]
            if not np.array_equal(table.flags, expect):
                mismatches += 1
        # spot-check the count oracle too
        if psi(f, min(x, 300), 10) != psi_oracle(f, min(x, 300), 10):
            mismatches += 1
    details["x"] = x
    details["polys"] = len(_POLY_SPECS)
    details["y_grid"] = y_grid
    details["mismatches"] = mismatches
    ok &= mismatches == 0
    return ok, details


# --------------------------------------------------------------- criterion 4

EULER_GAMMA = 0.5772156649015329


def _debruijn_lambda(x, y, order=10):
    """de Bruijn's Lambda(x, y) = x * integral rho(u - v) d([y^v]/y^v), the
    Dickman prediction at finite x (Psi = Lambda (1 + o(1)), Saias 1989),
    from rho and integer floors only.  Needs 2 <= y and log x/log y <= 20.

    With t = y^v and u = log x/log y,
        Lambda/x = sum_{m <= x} rho(u - log m/log y)/m
                   - integral_1^x rho(u - log t/log y) [t]/t^2 dt.
    rho is 1 for t >= x/y, and with rho = 1 throughout the right side is
    exactly [x]/x (each unit interval's integral is 1/(k+1) and telescopes
    against the sum).  So only 1 - rho over t < x/y is left:
        Lambda = [x] - x * (sum_{m < x/y} (1 - rho)/m
                            - integral_1^{x/y} (1 - rho) [t]/t^2 dt),
    the integral by `order`-point Gauss-Legendre on each unit interval, cut
    at x/y and at every knot x/y^j of rho, where it is not smooth."""
    top = x / y
    log_y = log(y)

    def gap(t):
        return 1.0 - rho(log(x / t) / log_y)

    cuts = {float(k) for k in range(1, ceil(top))} | {top}
    cuts |= {x / y**j for j in range(2, ceil(log(x) / log_y))}
    cuts = sorted(c for c in cuts if 1 <= c <= top)
    nodes, weights = leggauss(order)
    terms = []
    for a, b in zip(cuts, cuts[1:]):
        half = (b - a) / 2
        for s, w in zip(nodes, weights):
            t = a + half * (1 + s)
            terms.append(w * half * gap(t) * floor(a) / (t * t))
    series = fsum(gap(m) / m for m in range(1, ceil(top)))
    return floor(x) - x * (series - fsum(terms))


def criterion_4(quick=False):
    # x = y^2: u = 2.  The count is checked twice (sieve and enumeration) and
    # compared with Lambda(x, y)/x at the stated 0.02 tolerance; rho(2) and
    # the second-order estimate rho(u) + (1 - gamma) rho(u-1)/log x are
    # recorded to show where the gap to the limit comes from.
    x, y, u = 10**6, 10**3, 2.0
    f = _poly("t")
    count = psi(f, x, y)
    enum = _enumerate_smooth(x, y)
    ratio = count / x
    rho2 = rho(u)
    lam = _debruijn_lambda(x, y) / x
    second = rho2 + (1 - EULER_GAMMA) * rho(u - 1) / log(x)
    details = {
        "psi": count,
        "psi_enum": enum,
        "ratio": ratio,
        "rho_2": rho2,
        "abs_diff": abs(ratio - rho2),
        "second_order_ratio": second,
        "second_order_residual": ratio - second,
        "debruijn_lambda_ratio": lam,
        "debruijn_lambda_residual": ratio - lam,
        "stated_tolerance": 0.02,
    }
    return enum == count and abs(ratio - lam) <= 0.02, details


# --------------------------------------------------------------- criterion 5

def criterion_5(quick=False):
    details = {"ratios": {}}
    ok = True
    f = _poly("t^2+1")
    x = 10**6
    psi_full = psi(f, x, x)
    main_1 = make_bound_report(f.d, f.g, 1, x=x).thm11_main_x
    details["psi_x_x"] = psi_full
    details["thm11_main_u1"] = main_1
    details["ratios"]["1"] = psi_full / main_1
    ok &= psi_full < main_1
    for u in (1.5, 2.0):
        y = smooth_bound(x, u)
        count = psi(f, x, y)
        main = make_bound_report(f.d, f.g, u, x=x).thm11_main_x
        ratio = count / main
        details["ratios"][str(u)] = ratio
        details[f"psi_u{u}"] = count
        ok &= ratio < 1.2
    return ok, details


# ------------------------------------------------- criterion 6 (V/W oracle)

def criterion_6(quick=False):
    details = {}
    ok = True
    if quick:
        polys = ["t^2+1", "t^2-2"]
        xz_grid = [(60, 12), (100, 25)]
        y_grid = [5, 10, 20]
    else:
        polys = list(_POLY_SPECS)[1:]  # the four d >= 2 polynomials
        xz_grid = [(60, 12), (100, 25), (150, 40), (200, 50)]
        y_grid = [5, 10, 20, 50]
    n_instances = 0
    n_nonzero = 0
    worst_rel = 0.0
    lemma31_all = True
    for label in polys:
        f = _poly(label)
        for x, z in xz_grid:
            for y in y_grid:
                inst = VWInstance(f, x, z, y)
                rep = vw_prop21(inst)
                n_instances += 1
                if rep.lhs > 0:
                    n_nonzero += 1
                    ok &= rep.lhs < rep.V + sqrt(rep.lhs) * sqrt(rep.W)
                ok &= rep.verdict_2_1 and rep.verdict_2_2
                V, W = _oracle_v_w(f, x, z, y)
                for got, want in [(rep.V, V), (rep.W, W)]:
                    rel = abs(got - want) / max(1.0, abs(want))
                    worst_rel = max(worst_rel, rel)
                if f(z) > x:
                    for kappa in (2, 3):
                        res = lemma31_check(inst, kappa)
                        lemma31_all &= res.verdict
    ok &= worst_rel <= 1e-9
    ok &= lemma31_all

    if quick:
        depth_grid = [
            ("t(t^2+1)", 100, 25, 20),  # nonzero sums, small pools
            ("t^2-2", 200, 55, 6),      # degenerate 0 < 0 convention
        ]
    else:
        depth_grid = [
            # strict relations with nonzero sums
            ("t^2+1", 200, 60, 50),
            ("t^2-2", 150, 40, 50),
            ("t(t^2+1)", 150, 40, 50),
            ("(t+1)(t^2+2)", 150, 30, 50),
            # sparse-smooth windows, including the degenerate 0 < 0 convention
            ("t^2+1", 200, 60, 6),
            ("t(t^2+1)", 100, 25, 5),
            ("t^2-2", 200, 55, 6),
        ]
    monotone_all = True
    for label, x, z, y in depth_grid:
        rep1, rep2 = vw_depth_pair(VWInstance(_poly(label), x, z, y, depth=1))
        monotone_all &= rep1.monotone_v and rep1.monotone_w
        ok &= rep2.verdict_2_1 and rep2.verdict_2_2
    ok &= monotone_all

    oracle2_worst = 0.0
    for label, x, z, y in depth_grid[:1 if quick else 2]:
        f = _poly(label)
        rep = vw_prop32(VWInstance(f, x, z, y, depth=2))
        v2p, w2p, v_minus, w_minus = _oracle_split(f, x, z, y, 2)
        for got, want in [
            (rep.v_plus, v2p),
            (rep.v_minus[1], v_minus[1]),
            (rep.w_plus, w2p),
            (rep.w_minus[1], w_minus[1]),
        ]:
            oracle2_worst = max(
                oracle2_worst, abs(got - want) / max(1.0, abs(want))
            )
    ok &= oracle2_worst <= 1e-9

    details.update(
        instances=n_instances,
        nonzero_lhs=n_nonzero,
        oracle_worst_rel=worst_rel,
        depth2_oracle_worst_rel=oracle2_worst,
        lemma31_all=lemma31_all,
        monotone_all=monotone_all,
    )
    if not quick:
        ok &= n_instances >= 50
    return ok, details


# --------------------------------------------------------------- criterion 7

def criterion_7(quick=False):
    details = {}
    ok = True
    prod_cap = 2000 if quick else 10**4
    sample_n = 200 if quick else 2000
    polys = ["t^2+1", "t^2-2", "t(t^2+1)"]
    from math import gcd

    mult_fail = 0
    for label in polys:
        f = _poly(label)
        ks = range(1, prod_cap + 1)
        table = dict(zip(ks, omega_grid(f, ks)))
        for a in range(1, prod_cap + 1):
            for b in range(1, prod_cap // a + 1):
                if gcd(a, b) == 1 and table[a * b] != table[a] * table[b]:
                    mult_fail += 1
        rng = random.Random(f"mult|{label}")
        pairs = [(rng.randrange(1, 10**4 + 1), rng.randrange(1, 10**4 + 1))
                 for _ in range(sample_n)]
        oms = omega_grid(f, [k for a, b in pairs if gcd(a, b) == 1
                             for k in (a, b, a * b)])
        mult_fail += sum(oms[i + 2] != oms[i] * oms[i + 1]
                         for i in range(0, len(oms), 3))
    details["multiplicativity_failures"] = mult_fail
    ok &= mult_fail == 0

    p_top = 200 if quick else 1000
    hensel_fail = huxley_fail = 0
    for label in polys + ["(t+1)(t^2+2)"]:
        f = _poly(label)
        delta = f.discriminant_abs
        theta = factorize(delta)
        primes = primes_up_to(p_top)
        roots = lift_table(f, [(p, 4) for p in primes])
        for p in primes:
            w1 = len(roots[p, 1])
            tp = theta.get(p, 0)
            for v in range(1, 5):
                w = len(roots[p, v])
                if w * w > f.d * f.d * p**tp or w * w > f.d * f.d * delta:
                    huxley_fail += 1
                if delta % p != 0 and w != w1:
                    hensel_fail += 1
    details["hensel_failures"] = hensel_fail
    details["huxley_failures"] = huxley_fail
    ok &= hensel_fail == 0 and huxley_fail == 0

    # Lemma 4.2 on the exhaustive grid: prime powers p <= 50, v <= 3, m <= 3
    from itertools import combinations_with_replacement

    pp_primes = primes_up_to(50)
    pps = [(p, v) for p in pp_primes for v in (1, 2, 3)]
    m_top = 2 if quick else 3
    l42_fail = 0
    n_tuples = 0
    scan_fail = 0
    for label in polys:
        f = _poly(label)
        # a tuple's exponent of p is at most 3 m_top
        roots = lift_table(f, [(p, 3 * m_top) for p in pp_primes])
        delta = f.discriminant_abs
        scan_candidates = []
        for m in range(1, m_top + 1):
            for tup in combinations_with_replacement(pps, m):
                n_tuples += 1
                fact = {}
                for p, v in tup:
                    fact[p] = fact.get(p, 0) + v
                lhs = prod(len(roots[pe]) for pe in fact.items())
                s_idx = [j for j, (p, _) in enumerate(tup) if delta % p != 0]
                rhs_prod = 1
                for j in s_idx:
                    p, v = tup[j]
                    rhs_prod *= len(roots[p, v])
                k = m - len(s_idx)
                if lhs * lhs > (f.d * f.d * delta) ** k * rhs_prod * rhs_prod:
                    l42_fail += 1
                modulus = 1
                for p, e in fact.items():
                    modulus *= p**e
                if modulus <= 10**5:
                    scan_candidates.append((modulus, lhs))
        rng = random.Random(f"l42|{label}")
        take = 10 if quick else 40
        for modulus, lhs in rng.sample(
            scan_candidates, min(take, len(scan_candidates))
        ):
            if omega_scan(f, modulus) != lhs:
                scan_fail += 1
    details["lemma42_tuples"] = n_tuples
    details["lemma42_failures"] = l42_fail
    details["scan_oracle_failures"] = scan_fail
    ok &= l42_fail == 0 and scan_fail == 0
    return ok, details


# --------------------------------------------------------------- criterion 8

def criterion_8(quick=False):
    details = {}
    ok = True
    ctx2 = make_context(2)
    small = [c_alpha(ctx2, x).count for x in (1, 2, 3)]
    details["c_alpha_1_2_3"] = small
    ok &= small == [0, 1, 2]

    n_top = 500 if quick else 10**4
    xthr = 500 if quick else 10**4
    dual_fail = 0
    for m in (2, 3, 6):
        ctx = make_context(m)
        table = pplus_table(ctx.f, n_top)
        facts = {n: factorize(abs(n * n - m)) for n in range(1, n_top + 1)
                 if abs(n * n - m) > 1}
        big = sorted({p for fact in facts.values() for p in fact if p > xthr})
        classes = dict(zip(big, classify_primes(ctx, big)))
        for n, fact in facts.items():
            path_a = table.pplus_of(n) > xthr
            path_b = False
            for p in fact:
                if p > xthr:
                    cls = classes[p]
                    if cls.kind != "split" or n % p not in {
                        (-u) % p for u in cls.roots
                    } | set(cls.roots):
                        dual_fail += 1
                    path_b = True
            if path_a != path_b:
                dual_fail += 1
    details["lemma52_failures"] = dual_fail
    ok &= dual_fail == 0

    xs = (10**3, 10**4) if quick else (10**3, 10**4, 10**5)
    ratios = []
    rx = []
    for x in xs:
        rep = verify_prop54(ctx2, x)
        ratios.append(rep.ratio_rlogx_over_x)
        rx.append(rep.r_over_x)
    details["prop54_ratio_rlogx_x"] = ratios
    details["prop54_r_over_x"] = rx
    ok &= all(r <= 4.0 for r in ratios)
    ok &= all(rx[i] > rx[i + 1] for i in range(len(rx) - 1))

    window_fail = 0
    for N, M in [(0, 30), (100, 50), (37, 80)]:
        for inc0 in (True, False):
            got = windowed_cassels(ctx2, N, M, include_zero=inc0).count
            want = _windowed_oracle(2, N, M, inc0)
            if got != want:
                window_fail += 1
    for x in (10, 50, 120):
        if windowed_cassels(ctx2, 0, x, include_zero=False).count != \
                c_alpha(ctx2, x).count:
            window_fail += 1
    details["window_oracle_failures"] = window_fail
    ok &= window_fail == 0

    if not quick:
        smoke = windowed_cassels(ctx2, 10**6, 1)
        details["thm56_smoke_N1e6_M1"] = smoke.count
        ok &= smoke.count in (0, 1)
    return ok, details


# --------------------------------------------------------------- criterion 9

def criterion_9(quick=False):
    details = {}
    ok = True
    res10 = r_b(1, 10)
    oracle10 = sum(1 for n in range(1, 11) if _primitive_definition_oracle(1, n))
    details["r1_10"] = res10.count
    ok &= res10.count == 7 == oracle10

    x_eq = 2000 if quick else 10**4
    rb_has = rb_table(1, x_eq).dump_columns()["has_primitive"]
    f1 = _poly("t^2+1")
    table = pplus_table(f1, x_eq)
    per_n_fail = 0
    count_arc = 0
    for n in range(1, x_eq + 1):
        arc_flag = True if n == 1 else table.pplus_of(n) > 2 * n
        if arc_flag:
            count_arc += 1
        if arc_flag != rb_has[n - 1]:
            per_n_fail += 1
    details["n_eq_r1_per_n_failures"] = per_n_fail
    ok &= per_n_fail == 0
    ok &= n_arctan(x_eq).count == count_arc

    if not quick:
        ratios = {}
        rep_chain = {x: verify_prop63(1, x) for x in (10**4, 10**5, 10**6)}
        r1_1e6 = rep_chain[10**6].r_b / 10**6
        ratios["1"] = r1_1e6
        ok &= 0.5377 < r1_1e6 < 0.86
        threshold = cassels_coeff(2)
        ok &= r1_1e6 > threshold
        for b in (2, 3):
            rb_ratio = r_b(b, 10**6).count / 10**6
            ratios[str(b)] = rb_ratio
            ok &= rb_ratio > threshold
        details["rb_1e6_ratios"] = ratios
        details["cassels_threshold"] = threshold
        rx = [rep_chain[x].r_over_x for x in (10**4, 10**5, 10**6)]
        details["prop63_r_over_x"] = rx
        details["prop63_normalized"] = [
            rep_chain[x].ratio_normalized for x in (10**4, 10**5, 10**6)
        ]
        ok &= all(rx[i] > rx[i + 1] for i in range(len(rx) - 1))
    return ok, details


# -------------------------------------------------------------- criterion 10

def criterion_10(quick=False):
    # Two quick verify runs must write the same bytes, and the sieve must not
    # depend on the segment size: every per-n field the --dump CSV prints,
    # and the count at a larger x.  The nested runs print their own tables;
    # those are captured, not shown.
    from . import cli

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(list(argv))

    def read(path):
        with open(path, "rb") as fh:
            return fh.read()

    details = {}
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"verify{i}.jsonl") for i in range(2)]
        rcs = [run("verify", "--level", "quick", "--out", p) for p in paths]
        blobs = [read(p) for p in paths]
        details["verify_rc"] = rcs
        details["bytes"] = [len(b) for b in blobs]
        ok &= blobs[0] == blobs[1]
        ok &= rcs == [0, 0]

    f = build_factored(["t^2+1"])
    sizes = (16384, SEGMENT)
    # x = 50000 is three full segments of 16384 and a partial fourth
    y = smooth_bound(50000, 2)
    a, b = (sieve_range(f, 1, 50000, y, need_pplus=True, segment_size=s)
            for s in sizes)
    details["dump_tables_equal"] = (a.psi == b.psi
                                    and np.array_equal(a.flags, b.flags)
                                    and np.array_equal(a.pplus, b.pplus))
    ok &= details["dump_tables_equal"]

    y = smooth_bound(200000, 2)
    counts = [sieve_range(f, 1, 200000, y, segment_size=s).psi for s in sizes]
    details["psi_equal"] = counts[0] == counts[1]
    ok &= details["psi_equal"]
    return ok, details


_CRITERIA = [
    (1, "closed-form exactness (gamma, cassels, identity)", criterion_1),
    (2, "Dickman rho: closed form, dual solvers, delay residual", criterion_2),
    (3, "sieve == oracle (psi flags and pplus)", criterion_3),
    (4, "Dickman consistency at scale (stated 0.02 tolerance)", criterion_4),
    (5, "Theorem 1.1 empirical monitor", criterion_5),
    (6, "V/W machinery vs literal oracles, monotone, lemma 3.1", criterion_6),
    (7, "omega suite: multiplicativity, Hensel, Huxley, lemma 4.2", criterion_7),
    (8, "quadratic-field bridge", criterion_8),
    (9, "applications: R_b, N(x), prop 6.3 trend", criterion_9),
    (10, "determinism across runs and segment sizes", criterion_10),
]

_QUICK_SET = {1, 2, 3, 6, 7, 8, 9}


def run_all(level="full"):
    """Run the acceptance criteria; quick level = reduced scales, skipping
    the 10^6-scale criteria (4, 5) and the determinism double-run (10)."""
    quick = level == "quick"
    results = []
    for cid, name, fn in _CRITERIA:
        if quick and cid not in _QUICK_SET:
            continue
        start = time.time()
        passed, details = fn(quick=quick)
        results.append(
            CriterionResult(
                cid=cid,
                name=name,
                passed=bool(passed),
                seconds=time.time() - start,
                details=details,
            )
        )
    return results
