"""Checks of query outputs against the library's independent oracles.

They run once per benchmark run, after the timed pass, and return a list of
failure messages (empty when the output agrees).
"""

import json

from polysmooth.dickman import rho_rk4_oracle
from polysmooth.modroots import omega_scan
from polysmooth.polyarith import build_factored
from polysmooth.primdiv import r_b
from polysmooth.smoothsieve import psi_oracle

# Psi_t(10^6, 10^3), confirmed by the sieve and a direct enumeration of the
# 1000-smooth integers up to 10^6; psi_oracle only reaches x = 10^5.
PSI_T_1E6_1E3 = 344299

RK4_STEP = 1e-5
RHO_TOL = 1e-8
SAMPLES = 40


def _records(text):
    return [json.loads(line) for line in text.splitlines()]


def _arg(q, flag):
    return q["argv"][q["argv"].index(flag) + 1]


def _stride(n):
    return max(1, n // SAMPLES)


def _psi_t(q, recs):
    (rec,) = recs
    x, y = rec["x"], rec["y"]
    if (x, y) == (10**6, 1000.0):
        want = PSI_T_1E6_1E3
    else:
        want = psi_oracle(build_factored([[0, 1]]), x, y)
    return [] if rec["psi"] == want else [f"Psi_t({x}, {y}) = {rec['psi']}, oracle {want}"]


def _arctan(q, recs):
    (rec,) = recs
    want = r_b(1, rec["x"]).count
    return [] if rec["count"] == want else [f"N({rec['x']}) = {rec['count']} != R_1 = {want}"]


def _vw(q, recs):
    bad = []
    for rec, spec in zip(recs, q["config"]):
        f = build_factored(spec["factors"])
        x, z, y = spec["x"], spec["z"], spec["y"]
        want = psi_oracle(f, x, y) - psi_oracle(f, z, y)
        if rec["lhs"] != want:
            bad.append(f"vw lhs {rec['lhs']} != oracle {want} on {spec}")
    if len(recs) != len(q["config"]):
        bad.append(f"{len(recs)} vw records for {len(q['config'])} instances")
    return bad


def _omega(q, recs):
    f = build_factored(json.loads(_arg(q, "--factors")))
    bad = []
    for rec in recs[::_stride(len(recs))] + recs[-1:]:
        want = omega_scan(f, rec["k"])
        if rec["omega"] != want:
            bad.append(f"omega({rec['k']}) = {rec['omega']}, omega_scan {want}")
    return bad


def _rho(q, recs):
    (rec,) = recs
    grid, vals = rho_rk4_oracle(u_max=10.0, step=RK4_STEP)
    points = [p for p in rec["grid"] if 1.0 <= p["u"] <= 10.0]
    bad = []
    for p in points[::_stride(len(points))]:
        want = vals[round((p["u"] - 1.0) / RK4_STEP)]
        if abs(p["rho"] - want) > RHO_TOL:
            bad.append(f"rho({p['u']}) = {p['rho']}, rk4 {want}")
    return bad


CHECKS = {"psi_t": _psi_t, "arctan": _arctan, "vw": _vw, "omega": _omega,
          "rho": _rho}


def check(q, text):
    return CHECKS[q["check"]](q, _records(text))
