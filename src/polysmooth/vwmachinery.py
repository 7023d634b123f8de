"""Exact evaluation of the V/W sum machinery on desk-scale instances.

V and W are the Cauchy-Schwarz parameters that bound the count of n in
(z, x] with f(n) y-smooth:  lhs < V + sqrt(lhs) sqrt(W), hence
lhs < V + W/2 + sqrt(VW + W^2/4).  The depth-m refinement splits each of V, W
into a "+" part (multiple sums over prime-power tuples with product <= h,
inner counts smooth-restricted) and tail "-" parts (products escaping h,
bounded through the root-count omega_f).

Every "+" sum is a walk over ordered prime-power tuples (`_smooth_walk`)
closed by the smooth count of the tuple's modulus.  The walk stops at its
first zero: if no smooth f(n) in the window is divisible by `mod`, none is
divisible by a multiple of it, so a pool entry, head or child whose count is
0 is dropped with everything that would extend it, and a window without a
smooth value walks no tuple at all.  The counts come from one memoised
counter per window (`_counter`), keyed by the modulus, which fixes its
factorisation, so each modulus is counted once however many tuples or sums
reach it.  Every "-" tail is closed by `_tail_sum`: per head, one numpy
product over the slice of the k-sorted pool that escapes h, with
omega_f(head * k) = omega_f(head) omega_f(k) except for the few k whose
prime divides the head; W_1^-'s heads are the single prime powers, joined to
k by lcm.  The heads themselves are walked over the pool entries with
omega_f(p^v) > 0 only: a root mod p^(e+v) is a root mod p^v, so any other
head has omega_f(head) = 0 and only zero terms.  The symmetric pair sums of
W enumerate each pair k1 <= k2 with lcm inside their bound once, with the
off-diagonal weight doubled (`_pairs`).  All terms accumulate via
math.fsum, which rounds the exact sum, so neither doubling (exact) nor term
order nor the zero terms dropped by either pruning change a bit against the
ordered tuple-by-tuple sum.  The literal forms of the sums are in
`oracles`.
"""

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from math import fsum, inf, log, prod, sqrt

import numpy as np

from .modroots import lift_table
from .polyarith import FactoredPoly, t0 as compute_t0
from .primes import factorize, primes_up_to
from .smoothsieve import sieve_range

__all__ = [
    "VWInstance",
    "VWReport",
    "Lemma31Result",
    "Lemma41Sums",
    "vw_prop21",
    "vw_prop32",
    "vw_depth_pair",
    "lemma31_check",
    "lemma41_sums",
]

MAX_X = 10**4
MAX_FX = 10**8
MAX_DEPTH = 3
MAX_LEMMA41_X = 10**7


@dataclass(frozen=True)
class VWInstance:
    """One evaluation instance: x > z > T_0(f), h = x - z, smoothness
    bound y, recursion depth."""

    f: FactoredPoly
    x: int
    z: int
    y: float
    depth: int = 1

    def __post_init__(self):
        T = compute_t0(self.f)
        if not (self.x > self.z > T):
            raise ValueError(
                f"need x > z > T_0(f) = {T}, got x={self.x}, z={self.z}"
            )
        if self.y < 1:
            raise ValueError("y must be >= 1")
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ValueError(f"depth must be in [1, {MAX_DEPTH}]")

    @property
    def h(self):
        return self.x - self.z


@dataclass
class VWReport:
    """Exact totals, the depth split, and the inequality verdicts.

    Verdicts treat lhs = 0 as a vacuous pass (the paper's strict
    inequalities degenerate to 0 < 0 on empty counts)."""

    lhs: int
    V: float
    W: float
    v_plus: float
    w_plus: float
    v_minus: list
    w_minus: list
    verdict_2_1: bool
    verdict_2_2: bool
    vacuous: bool
    depth: int
    method: str
    t0: int
    monotone_v: bool = None
    monotone_w: bool = None


@dataclass
class Lemma31Result:
    kappa: int
    lhs: int
    rhs: float
    head_sum: float
    tail_sum: float
    verdict: bool
    vacuous: bool
    t0: int


@dataclass
class Lemma41Sums:
    x: int
    y: float
    s1: float  # sum Lambda(k) omega(k) / k,  P+(k) <= y
    s2: float  # same over sqrt(y) < P+(k) <= y
    s3: float  # sum (2 log k - Lambda(k)) Lambda(k) omega(k) / k
    s4: float  # sum Lambda(k) omega(k)
    comp1: float  # g log y
    comp2: float  # g/2 log y
    comp3: float  # g/2 log^2 y
    comp4: float  # y log x / log y
    res1: float  # s_i - comp_i
    res2: float
    res3: float
    res4: float
    g: int


def _window(inst):
    """(f(x), the sieved window (z, x], the primes up to min(y, f(x)), the
    roots of f mod their powers up to h f(x)) after the desk-scale checks:
    _crt_roots reads them up to f(x), _tail_sum counts them up to h f(x)."""
    f, x, z, y = inst.f, inst.x, inst.z, inst.y
    if x > MAX_X:
        raise ValueError(f"x={x} exceeds the desk-scale bound {MAX_X}")
    fx = f(x)
    if fx > MAX_FX:
        raise ValueError(f"f(x)={fx} exceeds the desk-scale bound {MAX_FX}")
    table = sieve_range(f, z + 1, x, y)
    primes = primes_up_to(int(min(y, fx)))
    pool = _prime_powers(inst.h * fx, primes, lambda p: True)
    return fx, table, primes, lift_table(f, ((p, v) for _, p, v, _ in pool))


def _prime_powers(limit, primes, pred):
    """(k, p, v, log p) for prime powers k = p^v <= limit with pred(p), in
    increasing k."""
    out = []
    for p in primes:
        if p > limit:
            break
        if not pred(p):
            continue
        lp = log(p)
        k = p
        v = 1
        while k <= limit:
            out.append((k, p, v, lp))
            k *= p
            v += 1
    out.sort()
    return out


def _crt_roots(roots_of, fact):
    """(modulus, residues mod modulus) of f = 0 for a factored modulus."""
    mod = 1
    roots = [0]
    for p, e in fact.items():
        rs = roots_of[p, e]
        pe = p**e
        if not rs:
            return mod * pe, []
        if mod == 1:
            roots = list(rs)
        else:
            minv = pow(mod, -1, pe)
            roots = [
                r1 + mod * (((r2 - r1) * minv) % pe)
                for r1 in roots
                for r2 in rs
            ]
        mod *= pe
    return mod, roots


def _count_smooth(roots, fact, table):
    """#{lo <= n <= hi : K | f(n), f(n) y-smooth} for K = prod p^e."""
    mod, roots = _crt_roots(roots, fact)
    lo, flags = table.lo, table.flags
    return sum(int(np.count_nonzero(flags[(r - lo) % mod::mod])) for r in roots)


def _times(fact, p, v):
    """fact with p^v multiplied in (a new dict)."""
    return {**fact, p: fact.get(p, 0) + v}


def _pairs(pool, limit):
    """(fact, lcm, weight) for the pairs k1 <= k2 of the k-sorted `pool` with
    lcm(k1, k2) <= limit; every entry of `pool` is <= limit.

    Two powers of one prime have lcm max(k1, k2) and always pair; for two
    primes lcm = k1 k2, so k2 runs only up to limit // k1, found by
    bisection.  The ordered pair sums visit (k1, k2) and (k2, k1) with equal
    terms, so each off-diagonal pair stands for both with its weight doubled
    (exact in floating point, and fsum rounds the exact sum)."""
    ks = [k for k, _, _, _ in pool]
    powers = {}  # p -> the indices of its powers in pool
    for i, (_, p, _, _) in enumerate(pool):
        powers.setdefault(p, []).append(i)
    for i, (k1, p1, v1, lp1) in enumerate(pool):
        stop = max(i, bisect_right(ks, limit // k1))
        for j in chain(range(i, stop), (j for j in powers[p1] if j >= stop)):
            k2, p2, v2, lp2 = pool[j]
            if p1 == p2:
                fact, lcm = {p1: max(v1, v2)}, max(k1, k2)
            else:
                fact, lcm = {p1: v1, p2: v2}, k1 * k2
            weight = lp1 * lp2
            yield fact, lcm, weight if k1 == k2 else 2 * weight


def _extend(heads, pool, h):
    """Each (fact, mod, weight) head times one prime power k of the k-sorted
    `pool` with mod * k <= h; the weight takes the factor log p."""
    for fact, mod, weight in heads:
        top = h // mod
        for k, p, v, lp in pool:
            if k > top:
                break
            yield _times(fact, p, v), mod * k, weight * lp


def _walk(heads, pool, h, steps):
    """The heads extended by `steps` ordered prime powers of the k-sorted
    `pool`, keeping the product <= h."""
    for _ in range(steps):
        heads = _extend(heads, pool, h)
    return heads


def _counter(roots, table):
    """count(fact, mod) = #{n in the table : f(n) smooth, mod | f(n)} for
    mod = prod p^e over fact, by one `_count_smooth` call per modulus."""
    memo = {}

    def count(fact, mod):
        c = memo.get(mod)
        if c is None:
            c = memo[mod] = _count_smooth(roots, fact, table)
        return c

    return count


def _counted(count, pool):
    """The entries p^v of `pool` that divide some smooth f(n) of the
    window."""
    return [e for e in pool if count({e[1]: e[2]}, e[0])]


def _smooth_walk(count, heads, pool, h, steps):
    """`_walk` stopped at its first zero: the heads, the entries of the
    k-sorted `pool` and the children whose count is 0 are dropped, as no
    smooth f(n) is divisible by a multiple of a modulus dividing none."""
    pool = _counted(count, pool)
    heads = (t for t in heads if count(t[0], t[1]))
    for _ in range(steps):
        heads = (t for t in _extend(heads, pool, h) if count(t[0], t[1]))
    return heads


def _smooth_sum(count, tuples):
    """fsum of weight * count(fact, mod) over the (fact, mod, weight)
    tuples."""
    return fsum(weight * count(fact, mod) for fact, mod, weight in tuples)


def _rooted(roots, pool):
    """The entries p^v of `pool` with omega_f(p^v) > 0."""
    return [e for e in pool if roots[e[1], e[2]]]


def _tail_sum(roots, heads, pool, h, lcm=False):
    """fsum of weight * log p * omega_f(mod * k) over the (fact, mod, weight)
    heads and the prime powers k = p^v of the k-sorted `pool` with
    mod * k > h.  With `lcm`, every head is one prime power q^e and the
    modulus is lcm(mod, k): a k = q^v joins the head as q^max(e, v), with a
    term only where that exceeds h (below the escaping slice, lcm <= mod * k
    <= h).

    Each term is fl(fl(weight * log p) * omega), as in the tuple-by-tuple
    sum.  A root mod p^(e+v) is a root mod p^e and mod p^v, so pool entries
    with omega_f(p^v) = 0 and heads with omega_f(head) = 0 reach only zero
    terms, which add nothing to the exact sum that fsum rounds; both are
    skipped."""
    pool = _rooted(roots, pool)
    ks = [k for k, _, _, _ in pool]
    lps = np.array([lp for _, _, _, lp in pool])
    oms = np.array([len(roots[p, v]) for _, p, v, _ in pool], dtype=np.int64)
    at = {}  # p -> [(index in pool, v)]
    for i, (_, p, v, _) in enumerate(pool):
        at.setdefault(p, []).append((i, v))

    def terms():
        for fact, mod, weight in heads:
            om_head = prod(len(roots[pe]) for pe in fact.items())
            if not om_head:
                continue
            s = bisect_right(ks, h // mod)  # the k with mod * k > h
            om = om_head * oms[s:]
            for q, e in fact.items():  # k = q^v: omega(head / q^e) omega(q^(e+v))
                rest = om_head // len(roots[q, e])
                for i, v in at.get(q, ()):
                    if i < s:
                        continue
                    if lcm and max(mod, ks[i]) <= h:
                        om[i - s] = 0
                    else:
                        ev = max(e, v) if lcm else e + v
                        om[i - s] = rest * len(roots[q, ev])
            yield ((weight * lps[s:]) * om).tolist()

    return fsum(chain.from_iterable(terms()))


_ROOT = (({}, 1, 1.0),)


def vw_prop21(inst: VWInstance) -> VWReport:
    """Exact V and W of the initial (depth-free) inequality.

    V sums Lambda(k) times smooth-restricted divisor counts over prime powers
    k <= f(x) with sqrt(y) < P+(k) <= y; W is the analogous double sum over
    P+(k_i) <= sqrt(y) with modulus lcm(k1, k2).
    """
    fx, table, primes, roots = _window(inst)
    f, y = inst.f, inst.y
    count = _counter(roots, table)
    log_fz = log(f(inst.z))
    big = _prime_powers(fx, primes, lambda p: p * p > y)
    small = _prime_powers(fx, primes, lambda p: p * p <= y)
    V = _smooth_sum(count, _smooth_walk(count, _ROOT, big, fx, 1)) / log_fz
    # f is increasing past T_0, so no f(n) in the window exceeds f(x): a
    # pair with lcm > f(x) counts nothing
    pairs = _pairs(_counted(count, small), fx)
    W = _smooth_sum(count, pairs) / (log_fz * log_fz)
    return _finish_report(table.psi, V, W, V, W, [], [], 1, "prop21", inst)


def _finish_report(lhs, V, W, v_plus, w_plus, v_minus, w_minus, depth, method, inst):
    vacuous = lhs == 0
    if vacuous:
        v21 = v22 = True
    else:
        v21 = lhs < V + sqrt(lhs) * sqrt(W)
        v22 = lhs < V + W / 2 + sqrt(V * W + W * W / 4)
    return VWReport(
        lhs=lhs,
        V=V,
        W=W,
        v_plus=v_plus,
        w_plus=w_plus,
        v_minus=v_minus,
        w_minus=w_minus,
        verdict_2_1=v21,
        verdict_2_2=v22,
        vacuous=vacuous,
        depth=depth,
        method=method,
        t0=compute_t0(inst.f),
    )


def vw_prop32(inst: VWInstance) -> VWReport:
    """Exact depth-m split V = V_m^+ + sum_i V_i^-, W = W_m^+ + sum_i W_i^-.

    Requires f(z) > x.  Tuples are ordered; the first index of V_m^+ carries
    the sqrt(y) < P+ <= y constraint, the first two of W_m^+ carry
    P+ <= sqrt(y), and every tail sum relaxes to P+ <= y with the inner count
    bounded by omega_f of the full product.
    """
    fx, table, primes, roots = _window(inst)
    f, x, z, y, m = inst.f, inst.x, inst.z, inst.y, inst.depth
    fz = f(z)
    if fz <= x:
        raise ValueError(f"depth recursion requires f(z) > x, got f(z)={fz}")
    h = inst.h
    log_fz = log(fz)
    log_fzx = log_fz - log(x)

    pool_y_h = _prime_powers(h, primes, lambda p: True)
    pool_v1 = _prime_powers(h, primes, lambda p: p * p > y)
    pool_sq_h = _prime_powers(h, primes, lambda p: p * p <= y)
    pool_y_fx = _prime_powers(fx, primes, lambda p: True)

    count = _counter(roots, table)
    v_heads = _smooth_walk(count, _ROOT, pool_v1, h, 1)
    v_plus = _smooth_sum(
        count, _smooth_walk(count, v_heads, pool_y_h, h, m - 1)
    ) / (log_fz * log_fzx ** (m - 1))
    w_heads = _pairs(_counted(count, pool_sq_h), h)
    w_plus = _smooth_sum(
        count, _smooth_walk(count, w_heads, pool_y_h, h, m - 1)
    ) / (log_fz * log_fz * log_fzx ** (m - 1))

    # V_i^-: i - 1 prime powers inside h, the i-th escaping it.  W_i^-: the
    # pair and k_3 .. k_i inside h, k_{i+1} escaping; W_1^-'s pair escapes,
    # a tail over the single prime powers as heads, joined by lcm.  A head
    # with omega_f(p^v) = 0 at any entry has omega_f(head) = 0 (for a pair,
    # omega_f(lcm) = 0), so only the pool entries with roots make heads.
    rooted_h = _rooted(roots, pool_y_h)
    v_minus = []
    w_minus = []
    for i in range(1, m + 1):
        heads = _walk(_ROOT, rooted_h, h, i - 1)
        v_minus.append(_tail_sum(roots, heads, pool_y_fx, h)
                       / (log_fz * log_fzx ** (i - 1)))
        if i == 1:
            heads = [({p: v}, k, lp)
                     for k, p, v, lp in _rooted(roots, pool_y_fx)]
            tail = _tail_sum(roots, heads, pool_y_fx, h, lcm=True)
        else:
            heads = _walk(_pairs(rooted_h, h), rooted_h, h, i - 2)
            tail = _tail_sum(roots, heads, pool_y_fx, h)
        w_minus.append(tail / (log_fz * log_fz * log_fzx ** (i - 1)))

    V = v_plus + fsum(v_minus)
    W = w_plus + fsum(w_minus)
    return _finish_report(table.psi, V, W, v_plus, w_plus, v_minus, w_minus, m,
                          "prop32", inst)


def vw_depth_pair(inst: VWInstance):
    """Reports at depth m and m+1 with the monotone relations
    V_m^+ < V_{m+1}^+ + V_{m+1}^- (and the W analogue) filled in.

    The strict relations inherit the empty-sum convention: when both sides
    are empty (0 < 0, e.g. no y-smooth values anywhere near the window) the
    verdict is a vacuous pass."""
    rep = vw_prop32(inst)
    nxt_inst = VWInstance(inst.f, inst.x, inst.z, inst.y, inst.depth + 1)
    nxt = vw_prop32(nxt_inst)
    rhs_v = nxt.v_plus + nxt.v_minus[-1]
    rhs_w = nxt.w_plus + nxt.w_minus[-1]
    rep.monotone_v = rep.v_plus < rhs_v or rep.v_plus == rhs_v == 0.0
    rep.monotone_w = rep.w_plus < rhs_w or rep.w_plus == rhs_w == 0.0
    return rep, nxt


def lemma31_check(inst: VWInstance, kappa: int) -> Lemma31Result:
    """One application of the recursion inequality: the smooth-restricted
    count of n with kappa | f(n) against the two-term lambda sum."""
    fx, table, primes, roots = _window(inst)
    f, x, z, h = inst.f, inst.x, inst.z, inst.h
    if not 1 <= kappa <= h:
        raise ValueError(f"kappa must lie in [1, h] = [1, {h}]")
    fz = f(z)
    if fz <= x:
        raise ValueError("lemma requires f(z) > x")
    kfact = factorize(kappa)
    roots.update(lift_table(f, kfact.items()))  # a prime of kappa past y
    count = _counter(roots, table)
    lhs = count(kfact, kappa)
    log_fzx = log(fz) - log(x)
    pool = _prime_powers(fx, primes, lambda p: True)
    head = ((kfact, kappa, 1.0),)
    tuples = _smooth_walk(count, head, pool, h, 1)
    head_sum = _smooth_sum(count, tuples) / log_fzx
    tail_sum = _tail_sum(roots, head, pool, h) / log_fzx
    rhs = head_sum + tail_sum
    vacuous = lhs == 0
    return Lemma31Result(
        kappa=kappa,
        lhs=lhs,
        rhs=rhs,
        head_sum=head_sum,
        tail_sum=tail_sum,
        verdict=True if vacuous else lhs < rhs,
        vacuous=vacuous,
        t0=compute_t0(f),
    )


def lemma41_sums(f: FactoredPoly, x: int, y) -> Lemma41Sums:
    """The four Lambda * omega_f partial sums over prime powers k <= x with
    P+(k) <= y, next to their stated comparators."""
    if x > MAX_LEMMA41_X:
        raise ValueError(f"x={x} exceeds the bound {MAX_LEMMA41_X}")
    if x < 1:
        raise ValueError("x must be >= 1")
    if not 1 <= y < inf:  # nan fails too
        raise ValueError("y must be finite and >= 1")
    t1, t2, t3, t4 = [], [], [], []
    pool = _prime_powers(x, primes_up_to(min(int(y), x)), lambda p: True)
    roots = lift_table(f, ((p, v) for _, p, v, _ in pool))
    for k, p, v, lp in pool:
        w = len(roots[p, v])
        if w:
            t1.append(lp * w / k)
            if p * p > y:
                t2.append(lp * w / k)
            t3.append((2 * v - 1) * lp * lp * w / k)
            t4.append(lp * w)
    s1, s2, s3, s4 = fsum(t1), fsum(t2), fsum(t3), fsum(t4)
    g = f.g
    logy = log(y) if y >= 2 else 0.0
    comp1, comp2, comp3 = g * logy, g / 2 * logy, g / 2 * logy * logy
    comp4 = float(y) * log(x) / logy if logy > 0 else 0.0
    return Lemma41Sums(x=x, y=float(y), s1=s1, s2=s2, s3=s3, s4=s4,
                       comp1=comp1, comp2=comp2, comp3=comp3, comp4=comp4,
                       res1=s1 - comp1, res2=s2 - comp2, res3=s3 - comp3,
                       res4=s4 - comp4, g=g)
