"""Roots of f modulo primes and prime powers, and the multiplicative
root-counting function omega_f(k).

Roots mod p come from one finder, root_classes, which runs over a whole
list of primes at once, one uint64 numpy lane per prime.  Each factor is
reduced mod p, and the lanes run grouped by the reduced degree, which
drops where p divides the leading coefficient: closed forms for degree
<= 2, and gcd(f, X^p - X) with randomized equal-degree splitting for degree
>= 3.  p < SCAN is scanned.  Every level p^k, k >= 2, comes from one lifter,
lift_classes, which Hensel lifts whole levels of classes at once: the
sieve's plan lifts each factor, and lift_table lifts f for every (p, v) a
caller of omega, the V/W sums or the acceptance suite asks for in one call;
nothing is cached.
"""

import random
from itertools import groupby
from math import isqrt, prod
from operator import itemgetter

import numpy as np

from .primes import factorize, is_prime, primes_up_to
from .polyarith import FactoredPoly
# bench/oracles.py imports omega_scan from this module
from .oracles import omega_scan

__all__ = ["root_classes", "omega", "omega_grid", "omega_factored"]

MAX_PRIME = 1 << 32          # primality is checked deterministically below this
MAX_PRIME_POWER = 1 << 64    # p^v magnitude budget for lifting
MAX_OMEGA_K = 1 << 48        # factoring budget for omega
# primes per _batch_roots call: bounds the lanes' memory (the degree >= 3
# kernel holds about 460 bytes per lane at its peak)
LANE_BLOCK = 1 << 15
# primes below this are scanned, all residues in one Horner pass: for the
# primes up to 100 cold root_classes takes 0.10 ms against 0.96 ms in lanes
# for t^2+1 (0.16 against 1.89 ms for t^3+2); at 2^10 the primes up to 1000
# of t^2+1 take 3.0 ms against 1.2 ms (2-core VM)
SCAN = 1 << 8


# ------------------------------------------------------------------- lanes
#
# The batch keeps one prime per lane.  A residue is a uint64 below p < 2^32,
# so a product of two residues is below 2^64 and is reduced at once.  Lane
# arrays meet only uint64 arrays and non-negative Python ints: numpy turns
# uint64 mixed with a signed integer into float64, which loses exactness
# past 2^53.  A polynomial per lane is a 2-D array, one row per coefficient,
# lowest degree first; a monic modulus of degree d is passed as the rows N
# of -f_0, ..., -f_(d-1), so X^d = sum N_i X^i.

def _lanes_mod(c, P):
    """The integer c mod p in every lane, whatever the size of c: its 32-bit
    limbs are folded in from the top, each partial below 2^64."""
    m = abs(c)
    r = np.zeros_like(P)
    for shift in range((m.bit_length() - 1) // 32 * 32, -1, -32):
        r = ((r << 32) + ((m >> shift) & 0xFFFFFFFF)) % P
    return (P - r) % P if c < 0 else r


def _pow(base, E, P):
    """base^E mod p per lane, by left-to-right square-and-multiply over the
    bits of the per-lane exponent E."""
    r = np.ones_like(P)
    less = base - 1  # wraps at 0
    for bit in range(int(E.max(initial=0)).bit_length() - 1, -1, -1):
        r = r * r % P
        # base where the bit is set, else 1
        r = r * (((E >> bit) & 1) * less + 1) % P
    return r


def _inverse(x, P):
    """x^-1 mod p per lane (Fermat), for x != 0 mod p."""
    return _pow(x, P - 2, P)


def _squarings(x, K, P):
    """x^(2^K) mod p per lane, for a per-lane count K; a lane drops out of
    the loop as soon as its count is done."""
    x = x.copy()
    idx = np.flatnonzero(K > 0)
    y, P, K = x[idx], P[idx], K[idx]
    while idx.size:
        y, K = y * y % P, K - 1
        done = K == 0
        x[idx[done]] = y[done]
        keep = ~done
        idx, y, P, K = idx[keep], y[keep], P[keep], K[keep]
    return x


def _non_residues(P):
    """The least quadratic non-residue z mod p per lane (p odd), with no
    exponentiation mod p.  z is prime (a product of residues is a residue),
    so the candidates are 2, then the odd primes q in turn, each tried on
    the lanes still open: (2/p) = -1 iff p = 3, 5 (mod 8), and by quadratic
    reciprocity (q/p) = (p/q), negated where p = q = 3 (mod 4), with (p/q)
    read from the squares mod q.  Every odd prime has a prime non-residue
    below sqrt(p) + 1, so the loop ends before q reaches p; below 2^32 the
    largest is 97, at p = 2929911599 (OEIS A000229)."""
    Z = np.zeros_like(P)
    Z[((P & 7) == 3) | ((P & 7) == 5)] = 2
    idx = np.flatnonzero(Z == 0)
    q = 3
    while idx.size:
        if all(q % d for d in range(3, isqrt(q) + 1, 2)):
            square = np.zeros(q, dtype=bool)
            square[np.arange(q) ** 2 % q] = True
            Pi = P[idx]
            r = Pi % q
            hit = ~square[r]  # (p/q) = -1; p = q has r = 0, a square
            if q & 3 == 3:
                hit ^= ((Pi & 3) == 3) & (r != 0)
            Z[idx[hit]] = q
            idx = idx[~hit]
        q += 2
    return Z


def _sqrt(D, P):
    """A square root of D mod p per lane (p odd) by Tonelli-Shanks, and
    whether D is a square.  One exponentiation over every lane gives
    D^((Q+1)/2) and D^Q, p - 1 = Q 2^S with Q odd; only the lanes where D^Q
    != 1 need a non-residue z (Shanks, "Five number-theoretic algorithms",
    1973), which _non_residues finds without exponentiating mod p, and one
    more exponentiation gives their z^Q.  Only the lanes that still need
    work stay in each loop, so a lane with a long power of 2 in p - 1 costs
    only itself."""
    X = P - 1
    low = X & (~X + 1)  # 2^S, whose log2 is exact
    Q, S = X // low, np.log2(low).astype(np.uint64)
    w = _pow(D, Q >> 1, P)  # D^((Q-1)/2)
    root = D * w % P  # D^((Q+1)/2): the root wherever D^Q = 1 or D = 0
    T = root * w % P  # D^Q
    ok = (_squarings(T, S - 1, P) == 1) | (D == 0)  # Euler's criterion
    idx = np.flatnonzero(ok & (T != 1) & (D != 0))
    P, M, T, R = P[idx], S[idx], T[idx], root[idx]
    C = _pow(_non_residues(P), Q[idx], P)
    while idx.size:
        # least I >= 1 with T^(2^I) = 1; I < M since T^(2^(M-1)) = 1
        I, x, live = np.zeros_like(P), T, np.arange(idx.size)
        while live.size:
            x = x * x % P[live]
            I[live] += 1
            left = x != 1
            live, x = live[left], x[left]
        b = _squarings(C, M - I - 1, P)
        R, C = R * b % P, b * b % P
        T, M = T * C % P, I
        done = T == 1
        root[idx[done]] = R[done]
        keep = ~done
        idx, P, T, R, C, M = (idx[keep], P[keep], T[keep], R[keep], C[keep],
                              M[keep])
    return root, ok


def _monic_roots(G, P, rng):
    """Roots of the monic polynomials G (rows g_0, ..., g_k = 1) per lane, as
    (lane, root) arrays.  Degree 1 and 2 are closed forms; a G of degree
    k >= 3 must be a product of k distinct linear factors, and is split by
    Cantor-Zassenhaus: gcd(G, (X + a)^((p-1)/2) - 1), with a = r mod p for
    a random 64-bit r per round, splits the lanes where it has degree
    strictly between 0 and k, and the rest draw again."""
    k = G.shape[0] - 1
    if k == 1:
        return np.arange(P.size), (P - G[0]) % P
    if k == 2:
        # X^2 + bX + c: (-b +- sqrt(b^2 - 4c)) / 2, with 1/2 = (p + 1)/2
        c, b = G[0], G[1]
        s, ok = _sqrt((b * b % P + P - 4 * c % P) % P, P)
        half = (P + 1) >> 1
        r1 = (P - b + s) % P * half % P
        r2 = (2 * P - b - s) % P * half % P
        idx = np.flatnonzero(ok)
        return np.concatenate([idx, idx]), np.concatenate([r1[idx], r2[idx]])
    N = (P - G[:-1]) % P
    lanes, roots = [], []
    todo = np.arange(P.size)
    while todo.size:
        Pt = P[todo]
        a = _lanes_mod(rng.getrandbits(64), Pt)
        h = _xpow(a, (Pt - 1) >> 1, N[:, todo], Pt)
        h[0] = (h[0] + Pt - 1) % Pt
        g, dg = _gcd(G[:, todo], h, Pt)
        for j in range(1, k):
            sel = np.flatnonzero(dg == j)
            if not sel.size:
                continue
            Ps = Pt[sel]
            d = g[:j + 1, sel] * _inverse(g[j, sel], Ps) % Ps
            for piece in (d, _quotient(G[:, todo[sel]], d, Ps)):
                pl, pr = _monic_roots(piece, Ps, rng)
                lanes.append(todo[sel[pl]])
                roots.append(pr)
        todo = todo[(dg == 0) | (dg == k)]
    return np.concatenate(lanes), np.concatenate(roots)


def _quotient(A, B, P):
    """A / B per lane for monic B dividing A."""
    j = B.shape[0] - 1
    A = A.copy()
    Q = np.empty((A.shape[0] - j, P.size), dtype=np.uint64)
    for i in range(A.shape[0] - j - 1, -1, -1):
        Q[i] = q = A[i + j]
        for t in range(j):
            A[i + t] = (A[i + t] + P - q * B[t] % P) % P
    return Q


def _sqrmod(A, N, P):
    """A^2 mod the monic modulus N per lane (A and N have d rows)."""
    d = N.shape[0]
    C = [0] * (2 * d - 1)
    for i in range(d):
        C[2 * i] = C[2 * i] + A[i] * A[i] % P
        for j in range(i + 1, d):
            C[i + j] = C[i + j] + 2 * (A[i] * A[j] % P)
    return _reduce(C, N, P)


def _reduce(C, N, P):
    """The rows C (degree <= 2d - 2, each a sum of a few residues) mod the
    monic modulus N, reduced."""
    d = N.shape[0]
    for k in range(len(C) - 1, d - 1, -1):
        top = C[k] % P
        for i in range(d):
            C[k - d + i] = C[k - d + i] + top * N[i] % P
    return np.array([c % P for c in C[:d]])


def _xpow(a, E, N, P):
    """(X + a)^E mod the monic modulus N per lane, left to right over the
    bits of E.  Multiplying by X + a costs d products; a lane whose bit is
    not yet set stays at 1."""
    d = N.shape[0]
    r = np.zeros((d, P.size), dtype=np.uint64)
    r[0] = 1
    for bit in range(int(E.max(initial=0)).bit_length() - 1, -1, -1):
        r = _sqrmod(r, N, P)
        set_ = ((E >> bit) & 1).astype(bool)
        if set_.any():
            # (X + a) r = X r + a r, and X^d = N
            xr = _reduce([0, *r], N, P)
            r = np.where(set_, (xr + a * r % P) % P, r)
    return r


def _degree(A):
    """Degree per lane of the rows A, -1 for the zero polynomial."""
    nz = A != 0
    return np.where(nz.any(axis=0),
                    A.shape[0] - 1 - np.argmax(nz[::-1], axis=0), -1)


def _gcd(A, B, P):
    """gcd(A, B) over F_p per lane, up to a unit, as rows padded to A's
    shape, and its degree per lane (-1 if both are zero).  B has no more
    rows than A.  Euclid without inverses: the leading term of the larger
    is cancelled by lc(B) A - lc(A) X^s B, which keeps the gcd."""
    A = A.copy()
    B = np.concatenate([B, np.zeros((A.shape[0] - B.shape[0], P.size),
                                    dtype=np.uint64)])
    g = np.zeros_like(A)
    dg = np.full(P.size, -1)
    idx = np.arange(P.size)
    da, db = _degree(A), _degree(B)
    rows = np.arange(A.shape[0])[:, None]
    while True:
        swap = da < db
        A, B = np.where(swap, B, A), np.where(swap, A, B)
        da, db = np.where(swap, db, da), np.where(swap, da, db)
        done = db < 0
        g[:, idx[done]] = A[:, done]
        dg[idx[done]] = da[done]
        keep = ~done
        if not keep.any():
            return g, dg
        idx, A, B, da, db, P = (idx[keep], A[:, keep], B[:, keep], da[keep],
                                db[keep], P[keep])
        lanes = np.arange(idx.size)
        la, lb = A[da, lanes], B[db, lanes]
        src = rows - (da - db)
        shifted = np.take_along_axis(B, np.maximum(src, 0), axis=0) * (src >= 0)
        A = (lb * A % P + P - la * shifted % P) % P
        da = _degree(A)


def _gcd_roots(G, P, rng):
    """Roots of the monic polynomials G (rows g_0, ..., g_d = 1, d >= 3) per
    lane, as (lane, root) arrays: they are the roots of gcd(G, X^p - X), a
    product of distinct linear factors."""
    N = (P - G[:-1]) % P
    xp = _xpow(np.zeros_like(P), P, N, P)
    xp[1] = (xp[1] + P - 1) % P
    g, dg = _gcd(G, xp, P)
    lanes, roots = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.uint64)]
    for k in range(1, G.shape[0]):
        sel = np.flatnonzero(dg == k)
        if sel.size:
            Ps = P[sel]
            pl, pr = _monic_roots(g[:k + 1, sel] * _inverse(g[k, sel], Ps) % Ps,
                                  Ps, rng)
            lanes.append(sel[pl])
            roots.append(pr)
    return np.concatenate(lanes), np.concatenate(roots)


def _factor_lanes(cs, P, rng):
    """Roots of one factor mod every lane of P (p odd), as (lane, root)
    arrays; cs are its coefficient rows mod p.  A lane's degree is its
    highest nonzero row, below the factor's where p divides the leading
    coefficient; the lanes of each degree run together, and degree 0 has
    no roots."""
    deg = _degree(cs)
    lanes, roots = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.uint64)]
    for d in range(1, cs.shape[0]):
        sel = np.flatnonzero(deg == d)
        if not sel.size:
            continue
        Ps, G = P[sel], cs[:d + 1, sel]
        if (G[d] != 1).any():
            G = G * _inverse(G[d], Ps) % Ps
        pl, pr = (_monic_roots if d <= 2 else _gcd_roots)(G, Ps, rng)
        lanes.append(sel[pl])
        roots.append(pr)
    return np.concatenate(lanes), np.concatenate(roots)


def _batch_roots(f, P):
    """The roots of f mod every prime of the uint64 array P, as int64 arrays
    (lane, root) sorted by lane and then root, each root once.

    A lane p < SCAN is scanned: f is evaluated at every residue mod p.  The
    splitting constants of the other lanes are drawn from a generator
    seeded with f.
    """
    lane = np.repeat(np.flatnonzero(P < SCAN), P[P < SCAN].astype(np.intp))
    U = (np.arange(lane.size) - lane.searchsorted(lane)).astype(np.uint64)
    Pu, v = P[lane], np.zeros_like(U)
    for c in reversed(f.product.coeffs):
        v = (v * U + _lanes_mod(c, Pu)) % Pu
    lanes, roots = [lane[v == 0]], [U[v == 0].astype(np.int64)]
    big = np.flatnonzero(P >= SCAN)
    if big.size:
        rng = random.Random(f.key())
        for factor in f.factors:
            cs = np.array([_lanes_mod(c, P[big]) for c in factor.coeffs])
            pl, pr = _factor_lanes(cs, P[big], rng)
            lanes.append(big[pl])
            roots.append(pr.astype(np.int64))
    # a root shared by two factors, or a double root, appears once
    keys = np.sort((np.concatenate(lanes) << 32) | np.concatenate(roots))
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    return keys >> 32, keys & 0xFFFFFFFF


def root_classes(f: FactoredPoly, primes):
    """Every root class of f modulo the given primes, as two int64 arrays
    P, R with f(R[i]) = 0 (mod P[i]), in the order of `primes` and sorted
    within each prime.

    `primes` is an ascending sequence of primes, as primes_up_to returns
    it, turned into one array; only its largest is checked, not the
    primality of each entry.  The roots come from _batch_roots, in blocks of
    LANE_BLOCK primes; none is kept.
    """
    P = np.asarray(primes)
    if (top := P.max(initial=0)) >= MAX_PRIME:
        raise ValueError(f"p={top} exceeds the desk-scale prime bound 2^32")
    P = P.astype(np.int64, copy=False)
    lanes, roots = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    U = P.view(np.uint64)
    for start in range(0, P.size, LANE_BLOCK):
        lane, root = _batch_roots(f, U[start:start + LANE_BLOCK])
        lanes.append(lane + start)
        roots.append(root)
    return P[np.concatenate(lanes)], np.concatenate(roots)


def lift_classes(g, P, R, limit, singular=None):
    """The root classes of the polynomial g mod every p^k above its level-1
    classes P, R (root_classes' answer for g, viewed as uint64): one (lane, Q,
    R, capped) per level k >= 1, with each class's index into P, q = p^k,
    the roots, and whether the class stopped at its limit.  A class lifts
    to q p while q <= limit[lane], a singular one while q <= singular too.

    By g(r + t q) = g(r) + t q g'(r) (mod q p), a simple root takes Newton's
    t, with g'(r)^-1 mod p found once per lane, and a singular root all p
    classes where q p divides g(r), else none.  Lanes are uint64 while
    q p < 2^32, on g reduced once mod the largest power of p below 2^32, so
    Horner's partials stay below 2^64; past that they hold Python ints."""
    levels = [(np.arange(P.size), P, R, np.ones(P.size, dtype=bool))]
    lane = np.flatnonzero(P <= limit)  # the lanes that may lift
    if not lane.size:
        return levels
    P, R, limit = P[lane], R[lane], limit[lane]
    M = P ** (32 / np.log2(P)).astype(np.uint64)  # 2^32 at p = 2
    M = np.where(M >= MAX_PRIME, M // P, M)
    C = np.array([_lanes_mod(c, M) for c in g.coeffs])
    D = np.zeros_like(P)  # g'(r) mod p
    for k in range(len(C) - 1, 0, -1):
        D = (D * R + k * (C[k] % P) % P) % P
    INV = np.where(D > 0, _inverse(D, P), 0)  # 0 marks a singular root
    if singular is not None:
        limit = np.where(INV > 0, limit, np.minimum(limit, singular))
    levels[0][3][lane] = P > limit
    Q = P
    while (go := (Q <= limit).nonzero()[0]).size:
        C, INV, P, Q, R, lane, limit = (C[:, go], INV[go], P[go], Q[go],
                                        R[go], lane[go], limit[go])
        m = Q * P
        if m.dtype != object and m.max() >= MAX_PRIME:
            INV, P, Q, R, m = (a.astype(object) for a in (INV, P, Q, R, m))
            C = np.array(g.coeffs, dtype=object)[:, None].repeat(m.size, 1)
        v = C[-1] % m
        for c in C[-2::-1]:
            v = (v * R + c) % m
        # a simple root takes Newton's t, a singular one all t, as ranks,
        # or none
        n = np.where(INV > 0, 1, (v == 0) * P).astype(np.intp)
        src = np.repeat(np.arange(n.size), n)
        T = ((P - v // Q) * INV % P)[src] + (
            np.arange(src.size) - src.searchsorted(src)).astype(Q.dtype)
        R = R[src] + T * Q[src]
        C, INV, P, Q, lane, limit = (C[:, src], INV[src], P[src], m[src],
                                     lane[src], limit[src])
        levels.append((lane, Q, R, Q > limit))
    return levels


def lift_table(f: FactoredPoly, powers) -> dict:
    """{(p, v): the sorted roots of f mod p^v, as a tuple} for every prime p
    of the (p, v) pairs of `powers` and every v up to the largest asked for
    it, from one root_classes call and one lift_classes pass.  p is not
    checked prime."""
    top = {}
    for p, v in powers:
        top[p] = max(top.get(p, 0), v)
    P, R = root_classes(f, sorted(top))
    limit = np.array([p ** (top[p] - 1) for p in P.tolist()], dtype=np.uint64)
    table = dict.fromkeys(((p, v) for p in top for v in range(1, top[p] + 1)),
                          ())
    for v, (lane, _, roots, _) in enumerate(lift_classes(
            f.product, P.view(np.uint64), R.view(np.uint64), limit), 1):
        # a level lists its classes by lane, so by prime
        for p, group in groupby(zip(P[lane].tolist(), roots.tolist()),
                                key=itemgetter(0)):
            table[p, v] = tuple(sorted(r for _, r in group))
    return table


def omega_factored(f: FactoredPoly, fact: dict) -> int:
    """omega_f of the integer with prime factorization `fact`.  A prime past
    MAX_PRIME (omega's k <= 2^48 has one at most, its largest) is refused
    only where the rest gives a nonzero count."""
    small = [(p, e) for p, e in fact.items() if p < MAX_PRIME]
    table = lift_table(f, small)
    result = prod(len(table[pe]) for pe in small)
    if result and len(small) < len(fact):
        root_classes(f, [max(fact)])  # refuses it
    return result


def _check_modulus(k):
    """Refuse a modulus k that omega does not accept."""
    if k == 0:
        raise ValueError("omega_f(0) is undefined")
    if k < 0:
        raise ValueError("k must be >= 1")
    if k > MAX_OMEGA_K:
        raise ValueError(f"k={k} exceeds the factoring budget 2^48")


def omega(f: FactoredPoly, k: int) -> int:
    """omega_f(k) = #{u mod k : f(u) = 0 mod k}, via multiplicativity over
    the prime factorization of k.  omega_f(1) = 1."""
    _check_modulus(k)
    return omega_factored(f, factorize(k))


def omega_grid(f: FactoredPoly, ks) -> list:
    """omega_f(k) for every k of `ks`, in order, as omega gives it.

    Every k is checked first.  The grid is then factored in one numpy pass:
    the primes up to B = min(isqrt(max k), len(ks)) are divided out of
    every k, and a row leaves the pass once its cofactor c is below p^2,
    so c is 1 or a prime.  A cofactor left at (B+1)^2 or more is tested by
    is_prime and, if composite, split by factorize with no trial division:
    the pass has divided out every prime up to B.  A cofactor of 2^32 or
    more may hold a prime past MAX_PRIME: that k takes omega itself, after
    the rest and in grid order, so it fails, or gives 0 first, exactly as
    omega does.  The roots mod every
    other prime power p^e of the grid come from one lift_table call, and
    omega_f(k) is the product of their counts.
    """
    ks = list(ks)
    for k in ks:
        _check_modulus(k)
    n = len(ks)
    if not n:
        return []
    cof = np.array(ks, dtype=np.int64)
    B = min(isqrt(max(ks)), n)
    rows, ps, es = [], [], []  # per prime p <= B: the rows p divides, p, e
    live = np.arange(n)
    for p in primes_up_to(B):
        live = live[cof[live] >= p * p]
        hit = live[cof[live] % p == 0]
        e = np.zeros(hit.size, dtype=np.int64)
        at = np.arange(hit.size)
        while at.size:
            cof[hit[at]] //= p
            e[at] += 1
            at = at[cof[hit[at]] % p == 0]
        rows.append(hit)
        ps.append(np.full(hit.size, p, dtype=np.int64))
        es.append(e)
    alone = np.flatnonzero((cof > 1) & (cof < min((B + 1) ** 2, MAX_PRIME)))
    rows.append(alone)
    ps.append(cof[alone])
    es.append(np.ones(alone.size, dtype=np.int64))
    big = np.flatnonzero(cof >= MAX_PRIME)
    for i in np.flatnonzero((cof >= (B + 1) ** 2) & (cof < MAX_PRIME)).tolist():
        c = int(cof[i])
        fact = {c: 1} if is_prime(c) else factorize(c, composite=True)
        rows.append(np.full(len(fact), i))
        ps.append(np.fromiter(fact, dtype=np.int64, count=len(fact)))
        es.append(np.fromiter(fact.values(), dtype=np.int64, count=len(fact)))
    rows, ps, es = (np.concatenate(a) for a in (rows, ps, es))
    # e <= 48 (k <= 2^48), so p * 64 + e keys a prime power
    powers, which = np.unique(ps * 64 + es, return_inverse=True)
    powers = [(q >> 6, q & 63) for q in powers.tolist()]
    table = lift_table(f, powers)
    counts = np.array([len(table[pe]) for pe in powers], dtype=np.int64)
    omegas = np.ones(n, dtype=np.int64)
    np.multiply.at(omegas, rows, counts[which])
    for i in big.tolist():
        omegas[i] = omega(f, ks[i])
    return omegas.tolist()

