"""The literal forms: every quantity the library computes, computed again
from its definition, for the acceptance suite and the tests.

- pplus_oracle: P+(v) by trial division by every prime up to sqrt|v|
  (trial_factorize), one numpy remainder pass per value.  It uses nothing
  of primes.py but the prime table (primes_up_to): the certifier of the
  sieve's cofactors (is_prime, Pollard-Brent) is not on its path.  Its
  domain is |v| <= PPLUS_ORACLE_LIMIT = 10^14; past it, a ValueError.
- psi_oracle: Psi_f(x, y) by trial division of every |f(n)|, n <= 10^5.
- omega_scan: omega_f(k) by evaluating f at every residue mod k.
- rho_rk4_oracle and delay_residual: rho by fixed-step RK4 on the delay
  equation, and the residual of the library's rho in that equation.
- _enumerate_smooth: the y-smooth integers up to x, one by one.
- _oracle_v_w and _oracle_split: the V/W sums transcribed tuple by tuple,
  with omega_f of the tails' moduli counted by _oomega.
- _windowed_oracle and _primitive_definition_oracle: the Cassels window
  count and primitive divisors of n^2 + b, from their definitions.

At module level this imports only numpy, the standard library,
primes_up_to and polyarith, since library modules re-export some oracles
by name.  delay_residual evaluates the library's rho and imports it when
called.
"""

import functools
from collections import defaultdict
from itertools import product
from math import fsum, gcd, inf, isqrt, log, prod, sqrt

import numpy as np

from .polyarith import FactoredPoly
from .primes import primes_up_to

PPLUS_ORACLE_LIMIT = 10**14


@functools.cache
def _trial_primes(bits):
    """The primes below 2^bits as an int64 array.  bits <= 24 under
    PPLUS_ORACLE_LIMIT, so at most 24 tables, about 17 MB in all."""
    return np.array(primes_up_to((1 << bits) - 1), dtype=np.int64)


def trial_factorize(v):
    """{p: e} for 1 <= v <= PPLUS_ORACLE_LIMIT by trial division: every
    prime up to isqrt(v) that divides v is found in one numpy remainder
    pass and divided out, and what is left is 1 or a prime."""
    if not 1 <= v <= PPLUS_ORACLE_LIMIT:
        raise ValueError(f"trial division is the oracle for 1 <= v <= "
                         f"{PPLUS_ORACLE_LIMIT}, got {v}")
    r = isqrt(v)
    P = _trial_primes(r.bit_length())
    P = P[:np.searchsorted(P, r, side="right")]
    out = {}
    for p in P[v % P == 0].tolist():
        e = 0
        while v % p == 0:
            v //= p
            e += 1
        out[p] = e
    if v > 1:
        out[v] = 1
    return out


def pplus_oracle(value):
    """P+(|value|) by trial division (trial_factorize), with P+(+-1) = 1
    and P+(0) = inf; |value| past PPLUS_ORACLE_LIMIT is a ValueError."""
    v = abs(value)
    if v == 0:
        return inf
    if v == 1:
        return 1
    return max(trial_factorize(v))


def psi_oracle(f, x, y):
    """Independent brute-force Psi_f(x, y) by trial division of each |f(n)|."""
    if x > 10**5:
        raise ValueError("oracle scale is x <= 1e5")
    if x < 1:
        return 0
    count = 0
    for n in range(1, x + 1):
        v = abs(f(n))
        if v == 0:
            continue
        d = 2
        while d <= y and d * d <= v:
            while v % d == 0:
                v //= d
            d += 1 if d == 2 else 2
        if v == 1 or v <= y:
            count += 1
    return count


def omega_scan(f, k):
    """Independent oracle: count roots of f mod k by evaluating f at every
    residue, one int64 Horner pass over 0..k-1 reduced mod k at each step
    (k < 2^31 keeps every product below 2^62)."""
    if not 1 <= k < 1 << 31:
        raise ValueError("omega_scan needs 1 <= k < 2^31")
    poly = f.product if isinstance(f, FactoredPoly) else f
    r = np.arange(k, dtype=np.int64)
    acc = np.zeros(k, dtype=np.int64)
    for c in reversed(poly.coeffs):
        acc *= r
        acc += c % k
        acc %= k
    return int(np.count_nonzero(acc == 0))


def rho_rk4_oracle(u_max=10.0, step=1e-5):
    """Independent cross-check solver: classical fixed-step RK4 applied to
    rho'(u) = -rho(u-1)/u from u = 1 (for this right-hand side, independent
    of rho(u), the RK4 stages collapse to Simpson increments; off-grid delay
    lookups use 4-point interpolation, error ~ step^4).

    Returns (grid, values) covering [1, u_max].
    """
    m = int(round(1.0 / step))
    if abs(m * step - 1.0) > 1e-12:
        raise ValueError("step must divide 1")
    kmax = int(round(u_max)) - 1
    grids = [np.linspace(1.0, 2.0, m + 1)]
    # [1,2] solved by the same march from rho(1) = 1 with rho(t-1) = 1:
    g_full = -1.0 / grids[0]
    g_half = -1.0 / (grids[0][:-1] + step / 2.0)
    inc = (step / 6.0) * (g_full[:-1] + 4.0 * g_half + g_full[1:])
    sol = np.empty(m + 1)
    sol[0] = 1.0
    sol[1:] = 1.0 + np.cumsum(inc)
    solutions = [sol]
    for k in range(1, kmax):
        grid = np.linspace(k + 1.0, k + 2.0, m + 1)
        prev_sol = solutions[-1]
        # delayed values at grid points: exactly the previous grid
        delayed_full = prev_sol
        # delayed values at half-steps: 4-point midpoint interpolation
        dmid = np.empty(m)
        dmid[1:-1] = (-delayed_full[0:-3] + 9.0 * delayed_full[1:-2]
                      + 9.0 * delayed_full[2:-1] - delayed_full[3:]) / 16.0
        dmid[0] = (5.0 * delayed_full[0] + 15.0 * delayed_full[1]
                   - 5.0 * delayed_full[2] + delayed_full[3]) / 16.0
        dmid[-1] = (delayed_full[-4] - 5.0 * delayed_full[-3]
                    + 15.0 * delayed_full[-2] + 5.0 * delayed_full[-1]) / 16.0
        g_full = -delayed_full / grid
        g_half = -dmid / (grid[:-1] + step / 2.0)
        inc = (step / 6.0) * (g_full[:-1] + 4.0 * g_half + g_full[1:])
        sol = np.empty(m + 1)
        sol[0] = solutions[-1][-1]
        sol[1:] = sol[0] + np.cumsum(inc)
        grids.append(grid)
        solutions.append(sol)
    return np.concatenate([g[:-1] for g in grids] + [grids[-1][-1:]]), \
        np.concatenate([s[:-1] for s in solutions] + [solutions[-1][-1:]])


def delay_residual(u, delta=1e-4):
    """u*rho'(u) + rho(u-1) with rho' by central differences."""
    from .dickman import rho  # dickman imports this module

    d = (rho(u + delta) - rho(u - delta)) / (2.0 * delta)
    return u * d + rho(u - 1.0)


def _enumerate_smooth(x, y):
    """Number of y-smooth n <= x (1 included), by depth-first enumeration of
    the products of primes <= y taken in non-decreasing order."""
    ps = primes_up_to(y)

    def count(limit, i):
        total = 1
        for j in range(i, len(ps)):
            if ps[j] > limit:
                break
            total += count(limit // ps[j], j)
        return total

    return count(x, 0)


# ------------------------------------------------------------ V/W sums

def _opp(limit, lo_excl, hi_incl):
    out = []
    for p in primes_up_to(int(hi_incl)):
        if p <= lo_excl or p > hi_incl:
            continue
        k = p
        while k <= limit:
            out.append((k, p))
            k *= p
    return out


def _osmooth(f, x, z, y):
    return {n for n in range(z + 1, x + 1)
            if f(n) != 0 and pplus_oracle(f(n)) <= y}


@functools.cache
def _oomega(f, k):
    """omega_f(k) from its definition.  Up to 3 * 10^4 by omega_scan; above
    it k is split by trial_factorize, the roots mod each prime p | k are
    found by scanning all p residues, the roots mod p^(j+1) by testing the
    p candidates r + t p^j above each root r mod p^j with exact f(n), and
    the counts are multiplied.  The moduli of the V/W tails have every
    prime factor at most y, so a prime factor above 3 * 10^4 is a
    ValueError."""
    if k <= 3 * 10**4:
        return omega_scan(f, k)
    count = 1
    for p, e in trial_factorize(k).items():
        if p > 3 * 10**4:
            raise ValueError(f"k = {k} has a prime factor p = {p} above 3e4")
        roots = [u for u in range(p) if f(u) % p == 0]
        for j in range(1, e):
            q = p**j
            roots = [u for r in roots for u in range(r, q * p, q)
                     if f(u) % (q * p) == 0]
        count *= len(roots)
    return count


def _oracle_v_w(f, x, z, y):
    fx, log_fz = f(x), log(f(z))
    smooth = _osmooth(f, x, z, y)
    V = fsum(
        log(p) * sum(1 for n in smooth if f(n) % k == 0)
        for k, p in _opp(fx, sqrt(y), y)
    ) / log_fz
    sq = _opp(fx, 1, sqrt(y))
    W = fsum(
        log(p1) * log(p2)
        * sum(1 for n in smooth if f(n) % (max(k1, k2) if p1 == p2 else k1 * k2) == 0)
        for k1, p1 in sq
        for k2, p2 in sq
    ) / log_fz**2
    return V, W


def _oracle_split(f, x, z, y, m):
    """Literal depth-m split (V_m^+, W_m^+, [V_1^- .. V_m^-],
    [W_1^- .. W_m^-]): every sum over all ordered tuples of the pools, the
    logs multiplied left to right.  A V tuple's modulus is k1 k2 ...; a W
    tuple's is lcm(k1, k2) k3 ...."""
    fx, h = f(x), x - z
    log_fz = log(f(z))
    log_fzx = log_fz - log(x)
    smooth = _osmooth(f, x, z, y)
    big, sq = _opp(h, sqrt(y), y), _opp(h, 1, sqrt(y))
    yh, yfx = _opp(h, 1, y), _opp(fx, 1, y)

    def v_mod(tup):
        return prod(k for k, _ in tup)

    def w_mod(tup):
        (k1, p1), (k2, p2), *rest = tup
        return (max(k1, k2) if p1 == p2 else k1 * k2) * v_mod(rest)

    def term(tup, value):
        return prod([log(p) for _, p in tup] + [value])

    def count(mod):
        return sum(1 for n in smooth if f(n) % mod == 0)

    def plus(pools, mod):
        return fsum(term(t, count(mod(t))) for t in product(*pools)
                    if mod(t) <= h)

    def minus(pools, mod, inner):
        return fsum(term(t, _oomega(f, mod(t))) for t in product(*pools)
                    if inner(t) and mod(t) > h)

    def inside(mod):
        return lambda t: mod(t[:-1]) <= h

    v_plus = plus([big] + [yh] * (m - 1), v_mod) / (log_fz * log_fzx ** (m - 1))
    w_plus = plus([sq, sq] + [yh] * (m - 1), w_mod) / (
        log_fz**2 * log_fzx ** (m - 1))
    v_minus = [
        minus([yh] * (i - 1) + [yfx], v_mod, inside(v_mod))
        / (log_fz * log_fzx ** (i - 1))
        for i in range(1, m + 1)
    ]
    w_minus = [minus([yfx, yfx], w_mod, lambda t: True) / log_fz**2] + [
        minus([yh] * i + [yfx], w_mod, inside(w_mod))
        / (log_fz**2 * log_fzx ** (i - 1))
        for i in range(2, m + 1)
    ]
    return v_plus, w_plus, v_minus, w_minus


# --------------------------------------------------------- applications

def _windowed_oracle(m, N, M, include_zero):
    lo = 0 if include_zero else 1
    classes = defaultdict(list)
    for k in range(lo, N + M + 1):
        v = abs(k * k - m)
        if v <= 1:
            continue
        for p in trial_factorize(v):
            classes[(p, k % p)].append(k)
    count = 0
    for n in range(N + 1, N + M + 1):
        v = abs(n * n - m)
        if v <= 1:
            continue
        if any(classes[(p, n % p)] == [n] for p in trial_factorize(v)):
            count += 1
    return count


def _primitive_definition_oracle(b, n):
    a_n = abs(n * n + b)
    if a_n <= 1:
        return False
    for d in range(2, a_n + 1):
        if a_n % d:
            continue
        if all(gcd(d, m * m + b) == 1 for m in range(1, n) if m * m + b != 0):
            return True
    return False
