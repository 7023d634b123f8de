"""The four benchmark workloads as lists of `polysmooth` CLI queries.

A query is a dict with `argv` (the CLI arguments), `key` (the identity its
pinned output is stored under) and, for some, `check` (which library oracle
its records are compared with after the timed pass).

The seed picks, for every polynomial slot, one of FAMILY variants
f(t + s), s = 0 .. FAMILY-1, of a fixed base polynomial.  A shift keeps the
degree mix and every root count omega_f(p^k), so root discovery, lifting and
the sieve's hit density do the same work for every seed, while every answer
changes.  Because the family is finite, the expected output of every variant
is pinned in expected.json, so every seed is checked against the reference
commit's outputs, not only the default one.  BENCHMARK.json says why each
workload exists.
"""

import hashlib
import json
import random
from math import comb
from pathlib import Path

FAMILY = 16

OUT_DIR = Path(__file__).resolve().parent / "out"

WORKLOADS = ("sieve-smooth", "prime-mode", "vw-depth", "analytic")

# Base polynomials, coefficients lowest degree first.
T = [0, 1]
T2_1 = [1, 0, 1]
T2_M2 = [-2, 0, 1]
T3_2 = [2, 0, 0, 1]
T4_T_1 = [1, 1, 0, 0, 1]

# rb --b and calpha --m take a parameter, not a polynomial: their families
# are sixteen values of the same size class.
RB_B = (-2, -3, -5, -6, -7, -8, -10, -11, -12, -13, -14, -15, -17, -18,
        -19, -20)
CALPHA_M = (2, 3, 6, 7, 10, 11, 14, 15, 19, 22, 23, 26, 30, 31, 34, 35)

# Sizes per scale.  "full" is what the benchmark measures; "toy" is the
# self-test's scale.
SIZES = {
    "full": {
        "psi_t_x": 1_000_000, "sieve_x": 300_000,
        "pm_u1_x": 200_000, "rb_x": 100_000, "arctan_x": 100_000,
        "calpha_n": 250_000, "cubic_x": 1000, "dump_x": 30_000,
        "vw": ((2000, 1000, 100), (9000, 8000, 50), (300, 200, 100)),
        "omega_k": 10_000, "dickman_step": 0.001, "bound_u": 80,
    },
    "toy": {
        "psi_t_x": 10_000, "sieve_x": 5_000,
        "pm_u1_x": 3_000, "rb_x": 2_000, "arctan_x": 2_000,
        "calpha_n": 5_000, "cubic_x": 100, "dump_x": 500,
        "vw": ((300, 100, 30), (300, 150, 40), (60, 30, 30)),
        "omega_k": 300, "dickman_step": 0.05, "bound_u": 8,
    },
}


def shifted(coeffs, s):
    """Coefficients of f(t + s) for f given lowest degree first."""
    out = [0] * len(coeffs)
    for i, c in enumerate(coeffs):
        for j in range(i + 1):
            out[j] += c * comb(i, j) * s ** (i - j)
    return out


def _factors(*polys):
    return json.dumps(polys, separators=(",", ":"))


def _q(argv, check=None, key=None):
    q = {"argv": [str(a) for a in argv], "key": key or " ".join(map(str, argv))}
    if check:
        q["check"] = check
    return q


def _sieve_smooth(pick, z):
    s1, s2, s3, s4 = pick(), pick(), pick(), pick()
    x = z["sieve_x"]
    return [
        # fixed: Psi_t(1e6, 1e3) = 344299 is the oracle-confirmed anchor
        _q(["psi", "--poly", "t", "--x", z["psi_t_x"], "--u", 2],
           check="psi_t"),
        _q(["psi", "--factors", _factors(shifted(T2_1, s1)), "--x", x,
            "--u", 2]),
        _q(["psi", "--factors", _factors(shifted(T3_2, s2)), "--x", x,
            "--u", 3]),
        _q(["psi", "--factors", _factors(shifted(T, s3), shifted(T2_1, s3)),
            "--x", x, "--u", 2]),
        # coeff_bound(f, x) >= 2^63: keeps the exact big-integer path measured
        _q(["psi", "--factors", _factors(shifted(T4_T_1, s4)), "--x", x,
            "--y", 1000]),
    ]


def _prime_mode(pick, z):
    s1, s2, s3, s4, s5, s6 = (pick() for _ in range(6))
    return [
        _q(["psi", "--factors", _factors(shifted(T2_1, s1)),
            "--x", z["pm_u1_x"], "--u", 1]),
        _q(["rb", "--b", RB_B[s2], "--x", z["rb_x"]]),
        _q(["arctan", "--x", z["arctan_x"] + s3], check="arctan"),
        _q(["calpha", "--m", CALPHA_M[s4], "--window",
            f"{z['calpha_n']},10"]),
        _q(["psi", "--factors", _factors(shifted(T3_2, s5)),
            "--x", z["cubic_x"], "--y", "1e9"]),
        _q(["psi", "--factors", _factors(shifted(T2_1, s6)),
            "--x", z["dump_x"], "--y", 1000, "--dump", "--format", "csv"]),
    ]


def vw_specs(s, z):
    """The vw-depth instance grid; one shift s for the whole grid.  (x, z, y)
    per base: depth 3 on both quadratics and the cubic, then prop21 and the
    depth-2 split with the recursion lemma on the first quadratic."""
    (xa, za, ya), (xb, zb, yb), (xc, zc, yc) = z["vw"]
    t2_1, t2_m2, t3_2 = ([shifted(b, s)] for b in (T2_1, T2_M2, T3_2))
    return [
        {"factors": t2_1, "x": xa, "z": za, "y": ya, "depth": 3},
        {"factors": t2_m2, "x": xb, "z": zb, "y": yb, "depth": 3},
        {"factors": t3_2, "x": xc, "z": zc, "y": yc, "depth": 3},
        {"factors": t2_1, "x": xa, "z": za, "y": ya},
        {"factors": t2_1, "x": xa, "z": za, "y": ya, "depth": 2, "kappa": 6},
    ]


def _vw_depth(pick, z):
    specs = vw_specs(pick(), z)
    grid = json.dumps(specs, sort_keys=True, separators=(",", ":"))
    path = OUT_DIR / f"vw-{hashlib.sha256(grid.encode()).hexdigest()[:16]}.json"
    q = _q(["vw-verify", "--config", path], check="vw",
           key="vw-verify --config " + grid)
    q["config"] = specs
    return [q]


def _analytic(pick, z):
    ks = ",".join(str(k) for k in range(1, z["omega_k"] + 1))
    n_u = z["bound_u"]
    us = ",".join(f"{1 + i / 20:g}" for i in range(n_u))
    s1, s2 = pick(), pick()
    return [
        _q(["dickman", "--u-max", 20, "--step", z["dickman_step"]],
           check="rho"),
        _q(["omega", "--factors", _factors(shifted(T2_1, s1)), "--k", ks],
           check="omega", key=f"omega {shifted(T2_1, s1)} k<={z['omega_k']}"),
        _q(["omega", "--factors", _factors(shifted(T3_2, s2)), "--k", ks],
           check="omega", key=f"omega {shifted(T3_2, s2)} k<={z['omega_k']}"),
        _q(["bound", "--d", "2,3,4,5,6", "--g", "1,2", "--u", us]),
    ]


_QUERY_LISTS = {
    "sieve-smooth": _sieve_smooth,
    "prime-mode": _prime_mode,
    "vw-depth": _vw_depth,
    "analytic": _analytic,
}


def queries(workload, seed, scale="full"):
    """The query list of `workload` for `seed`.  A query carrying `config`
    reads it from its --config path, which the worker writes first."""
    if workload not in _QUERY_LISTS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}|{seed}")
    return _QUERY_LISTS[workload](lambda: rng.randrange(FAMILY), SIZES[scale])


def all_variants(workload, scale):
    """Every query any seed can produce: the family member s uses shift s
    (and the s-th parameter) in every slot, and each slot depends on its own
    pick only."""
    out = {}
    for s in range(FAMILY):
        for q in _QUERY_LISTS[workload](lambda: s, SIZES[scale]):
            out[q["key"]] = q
    return list(out.values())
