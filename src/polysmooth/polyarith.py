"""Exact integer polynomial arithmetic, validated factored input, and the
monotonicity threshold t0.

Polynomials are dense integer coefficient tuples, lowest degree first.  A
FactoredPoly is a product of distinct irreducible factors f_1 ... f_g; its
absolute discriminant is assembled multiplicatively from per-factor
discriminants and pairwise resultants.
"""

import json
import re
from math import gcd, prod
from numbers import Integral

__all__ = [
    "IntPoly",
    "FactoredPoly",
    "parse_poly",
    "build_factored",
    "t0",
    "resultant",
    "discriminant",
]

# the largest total degree: a dense degree-64 f with 2-digit coefficients
# takes 1-4 s to build (rational root test, discriminant), degree 80 about 8 s
MAX_DEGREE = 64


class IntPoly:
    """Dense integer polynomial in t, lowest-degree-first coefficients.

    The zero polynomial is rejected; the leading coefficient is nonzero by
    construction.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            raise ValueError("zero polynomial")
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def lead(self):
        return self.coeffs[-1]

    def __call__(self, n):
        """Exact f(n) by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    def derivative(self):
        if self.degree == 0:
            raise ValueError("derivative of a constant is the zero polynomial")
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self):
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def taylor_shift(self, a):
        """Coefficients of f(t + a), exactly (synthetic division)."""
        cs = list(self.coeffs)
        n = len(cs)
        for j in range(n - 1):
            for i in range(n - 2, j - 1, -1):
                cs[i] += a * cs[i + 1]
        return IntPoly(cs)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([other * c for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, int):
            cs = list(self.coeffs)
            cs[0] -= other
            return IntPoly(cs)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return IntPoly([x - y for x, y in zip(a, b)])

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPoly({self.pretty()!r})"

    def pretty(self):
        """Human form like 't^2-2' (highest degree first)."""
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "t" if i == 1 else f"t^{i}"
                body = var if mag == 1 else f"{mag}{var}"
            parts.append(sign + body)
        return "".join(parts)


_TERM_RE = re.compile(r"^(?:(\d+)\*?)?(t(?:(?:\^|\*\*)(\d+))?)?$")


def parse_poly(text):
    """Parse a polynomial from a JSON coefficient array (lowest degree
    first) or a symbolic ASCII string in the variable t, e.g. 't^2+1'."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial input")
    if s.startswith("["):
        try:
            data = json.loads(s)
        except json.JSONDecodeError as e:
            raise ValueError(f"bad coefficient array: {e}") from None
        if not isinstance(data, list) or not data:
            raise ValueError("coefficient array must be a nonempty list")
        for c in data:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"non-integer coefficient {c!r}")
        return IntPoly(data)
    # symbolic: split into signed terms
    s = s.replace(" ", "")
    chunks = s.replace("-", "+-").split("+")
    coeffs = {}
    seen_term = False
    for chunk in chunks:
        if chunk == "":
            continue
        neg = chunk.startswith("-")
        if neg:
            chunk = chunk[1:]
        m = _TERM_RE.match(chunk)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ValueError(f"cannot parse term {chunk!r} in {text!r}")
        coeff = int(m.group(1)) if m.group(1) is not None else 1
        if m.group(2) is None:
            exp = 0
        else:
            exp = int(m.group(3)) if m.group(3) is not None else 1
        coeffs[exp] = coeffs.get(exp, 0) + (-coeff if neg else coeff)
        seen_term = True
    if not seen_term:
        raise ValueError(f"no terms found in {text!r}")
    if max(coeffs) > MAX_DEGREE:  # before the coefficient list is allocated
        raise ValueError(f"t^{max(coeffs)} exceeds the degree limit {MAX_DEGREE}")
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return IntPoly(out)  # raises on the zero polynomial


def _det_bareiss(rows):
    """Exact integer determinant by fraction-free Gaussian elimination."""
    m = [row[:] for row in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[-1][-1]


def resultant(f, g):
    """Res(f, g) over the integers via the Sylvester matrix."""
    df, dg = f.degree, g.degree
    if df == 0:
        return f.coeffs[0] ** dg
    if dg == 0:
        return g.coeffs[0] ** df
    n = df + dg
    fa = list(reversed(f.coeffs))
    ga = list(reversed(g.coeffs))
    rows = []
    for i in range(dg):
        rows.append([0] * i + fa + [0] * (n - df - 1 - i))
    for i in range(df):
        rows.append([0] * i + ga + [0] * (n - dg - 1 - i))
    return _det_bareiss(rows)


def discriminant(f):
    """disc(f) = (-1)^(d(d-1)/2) Res(f, f') / lead(f); exact integer."""
    d = f.degree
    if d == 0:
        raise ValueError("discriminant of a constant")
    if d == 1:
        return 1
    res = resultant(f, f.derivative())
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    q, r = divmod(sign * res, f.lead)
    if r != 0:
        raise ArithmeticError("resultant not divisible by leading coefficient")
    return q


def _cuts(g, lo, hi):
    """Sorted integers from lo to hi with no real root of g strictly between
    two neighbours 2 or more apart.  They hold the cuts of g', so g is
    monotone between two such neighbours, and a sign change of g there is
    one root, bracketed by bisection between two adjacent integers."""
    if g.degree == 0:
        return [lo, hi]
    cuts = _cuts(g.derivative(), lo, hi)
    out = set(cuts)
    vals = [g(c) for c in cuts]
    for a, b, ga, gb in zip(cuts, cuts[1:], vals, vals[1:]):
        if ga * gb < 0:
            while b - a > 1:
                m = (a + b) // 2
                a, b = (m, b) if g(m) * ga > 0 else (a, m)
            out.update((a, b))
    return sorted(out)


def _has_rational_root(f):
    """Rational root test.  r is a root of f iff z = lead*r is an integer
    root of the monic h(z) = lead^(d-1) f(z/lead), and every such z has
    |z| < 1 + max |h_i| (Cauchy); each one is among the cuts of h."""
    d, lead = f.degree, f.lead
    h = IntPoly([c * lead ** (d - 1 - i) for i, c in enumerate(f.coeffs[:-1])]
                + [1])
    top = 1 + max(abs(c) for c in h.coeffs[:-1])
    return any(h(z) == 0 for z in _cuts(h, -top, top))


class FactoredPoly:
    """A product of distinct irreducible factors over Z[t], with total degree
    d, factor count g, and absolute discriminant.

    The rational root test proves factors of degree <= 3 irreducible;
    higher degrees pass it and are accepted with the status "asserted".
    """

    __slots__ = (
        "factors",
        "degrees",
        "g",
        "d",
        "discriminant_abs",
        "statuses",
        "product",
        "_t0",
        "_factor_discs",
    )

    def __init__(self, factors, degrees, g, d, disc_abs, statuses, product,
                 factor_discs):
        self.factors = factors
        self.degrees = degrees
        self.g = g
        self.d = d
        self.discriminant_abs = disc_abs
        self.statuses = statuses
        self.product = product
        self._factor_discs = factor_discs
        self._t0 = None

    def __call__(self, n):
        return self.product(n)

    def __eq__(self, other):
        return isinstance(other, FactoredPoly) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"FactoredPoly({self.pretty()!r})"

    def pretty(self):
        if self.g == 1:
            return self.factors[0].pretty()
        return "".join(f"({f.pretty()})" for f in self.factors)

    def key(self):
        """Stable string key: it seeds root_classes' splitting, so every
        call on f or on a fresh instance of it makes the same draws."""
        return "|".join(",".join(map(str, f.coeffs)) for f in self.factors)

    def parts(self):
        """One single-factor FactoredPoly per factor, each with the
        discriminant build_factored found for it; (self,) when there is one
        factor."""
        if self.g == 1:
            return (self,)
        return tuple(
            FactoredPoly((f,), (f.degree,), 1, f.degree, disc, (status,), f,
                         (disc,))
            for f, status, disc in zip(self.factors, self.statuses,
                                       self._factor_discs))


def build_factored(factors):
    """Validate a factor list and assemble a FactoredPoly.

    disc(FG) = disc(F) disc(G) Res(F, G)^2 is applied pairwise, so the total
    discriminant never requires expanding-then-factoring.  Rejects duplicate
    factors, non-primitive factors, a total degree above MAX_DEGREE, and any
    factor of degree >= 2 with a rational root (found by bisection, with no
    coefficient factored).
    """
    if not isinstance(factors, (list, tuple)):
        raise ValueError("factors must be a list of factors")
    if not factors:
        raise ValueError("empty factor list")
    polys = []
    for item in factors:
        if isinstance(item, IntPoly):
            f = item
        elif isinstance(item, str):
            f = parse_poly(item)
        elif isinstance(item, (list, tuple)) and all(
                isinstance(c, Integral) and not isinstance(c, bool)
                for c in item):
            f = IntPoly(item)
        else:
            raise ValueError(f"factor {item!r} is not a list of integer "
                             "coefficients")
        if f.degree < 1:
            raise ValueError(f"constant factor {f.pretty()}")
        if f.lead < 0:
            f = -f
        if f.content() != 1:
            raise ValueError(f"factor {f.pretty()} is not primitive")
        polys.append(f)
    if len(set(polys)) != len(polys):
        raise ValueError("duplicate factor")
    d = sum(f.degree for f in polys)
    if d > MAX_DEGREE:
        raise ValueError(f"total degree {d} exceeds the degree limit {MAX_DEGREE}")
    statuses = []
    for f in polys:
        if f.degree == 1:
            statuses.append("proven")
        elif _has_rational_root(f):
            raise ValueError(f"factor {f.pretty()} has a rational root (reducible)")
        elif f.degree <= 3:
            statuses.append("proven")
        else:
            statuses.append("asserted")
    discs = tuple(abs(discriminant(f)) for f in polys)
    disc_total = prod(discs)
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            disc_total *= resultant(polys[i], polys[j]) ** 2
    if disc_total == 0:
        raise ValueError("vanishing discriminant: factors share a root")
    product = polys[0]
    for f in polys[1:]:
        product = product * f
    return FactoredPoly(
        factors=tuple(polys),
        degrees=tuple(f.degree for f in polys),
        g=len(polys),
        d=d,
        disc_abs=disc_total,
        statuses=tuple(statuses),
        product=product,
        factor_discs=discs,
    )


def _cauchy_bound(f):
    """Integer B with every real root of f strictly below B."""
    if f.degree == 0:
        return 2
    lead = abs(f.lead)
    m = max(abs(c) for c in f.coeffs[:-1])
    return 2 + (m + lead - 1) // lead


def _sign_variations(coeffs):
    v = 0
    last = 0
    for c in coeffs:
        if c == 0:
            continue
        if last and (c > 0) != (last > 0):
            v += 1
        last = c
    return v


def _no_roots_beyond(f, shift):
    """True when f has no real root in (shift, inf): Descartes' rule applied
    to f(t + shift) with zero sign variations."""
    return _sign_variations(f.taylor_shift(shift).coeffs) == 0


def t0(f):
    """Least integer T >= 2 (up to Descartes conservativeness) such that
    f is strictly increasing and > 1 on the open ray (T, inf).

    A candidate c is certified exactly by zero Descartes sign variations of
    the shifted derivative and of f - 1.  The test is monotone in c: a
    polynomial h(t + c) with positive leading coefficient and no sign
    variation has every coefficient >= 0, and shifting such a polynomial by
    any s > 0 keeps every coefficient >= 0, so h(t + c + s) passes too.
    The least passing c in [2, top], with top the Cauchy root bound, is
    therefore found by bisection; top is returned when none passes.
    """
    g = f.product if isinstance(f, FactoredPoly) else f
    if g.degree == 0:
        raise ValueError("constant polynomial has no threshold")
    if g.lead < 0:
        raise ValueError("polynomial does not tend to +infinity")
    if isinstance(f, FactoredPoly) and f._t0 is not None:
        return f._t0
    gp = g.derivative()
    gm1 = g - 1
    # the least passing candidate lies in [lo, hi], or none does and hi = top
    lo, hi = 2, max(2, _cauchy_bound(gp), _cauchy_bound(gm1))
    while lo < hi:
        mid = (lo + hi) // 2
        if _no_roots_beyond(gp, mid) and _no_roots_beyond(gm1, mid):
            hi = mid
        else:
            lo = mid + 1
    result = lo
    if isinstance(f, FactoredPoly):
        f._t0 = result
    return result
