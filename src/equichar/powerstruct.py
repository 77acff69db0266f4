"""Power structures on 1 + t·R[[t]] via lambda-ring factorization.

Every series with unit constant term factors uniquely as a product of
lambda-series prod_i lambda_{b_i}(t^i); raising to a ring exponent m
rescales every factor exponent to m·b_i.  The construction satisfies the
power structure axioms exactly, so the randomized axiom checks validate the
factorization engine rather than approximate identities.

Series live in mark coordinates.  The mark map A(G) -> Z^n is an injective
ring map with entry-wise product, so a series over A(G) is n integer
columns (Z is A(1): one column), and one over A(G)[L^(1/D)] is n columns of
{e: int} Laurent polynomials in L^(1/D) over one least D.  Every series has
constant term 1 and is held only by its log columns h = t·f'/f, one per
mark: products add them, integer powers scale them, and t -> c·t^r puts
r·h_m·c^m on t^(r·m).  Columns are rebuilt from the logs (`exp_column`)
only to pack the coefficients for rendering, JSON and hashing.
At a class K, lambda_b(t^i) is prod_d (1 - t^(i·d))^(-n_d) over the n_d
orbits of size d of K on b, so its t^(i·r) log coefficient is i·psi^r_K(b),
psi^r_K(b) = sum_(d|r) d·n_d, with L^q·b putting L^(q·r) on it; psi^r is
an integer matrix on marks (`BurnsideRing.adams`).  The factor entries b_i
are read off the logs once per series, each checked integral over the
basis by back-substitution (for an L-extended b_i, one pass over its
per-class Laurent columns covers every exponent, and no (e, c) `pairs` are
built), and `power` multiplies m's entries into them at each mark; a
non-integral value raises, as does any inexact division.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from .burnside import BurnsideElement, BurnsideRing
from .errors import UsageError, check_budget, check_int, exact_div
from .groups import check_order

TRUNCATION_LIMIT = 200   # series degree N taken by the CLI and the law checks


# ---------------------------------------------------------------------------
# columns and coefficient-ring handles

def log_coeff(factors, j: int) -> dict:
    """The t^j coefficient {e: int} of t·f'/f, f the product of factors
    (1 - L^e t^s)^(-n) over the items ((e, s), n): sum_(s|j) n·s·L^(e·j/s)."""
    out: dict = {}
    for (e, s), n in factors:
        if j % s == 0:
            out[e * (j // s)] = out.get(e * (j // s), 0) + n * s
    return out


def log_column(ring, a) -> list:
    """[h_1..h_N] with t·a'/a = sum h_m t^m, for a column with a_0 = 1."""
    minus, h = [ring.div(x, -1) for x in a], []
    for j in range(1, len(a)):   # j·a_j = sum_{m=1..j} h_m·a_(j-m)
        h.append(ring.dot([a[j]] + h,
                          [ring.entry({0: j})] + minus[j - 1:0:-1]))
    return h


def exp_column(ring, g) -> list:
    """The column f with f_0 = 1 and t·f'/f = sum g_m t^m, g = [g_1..g_N];
    j·f_j = sum_{m=1..j} g_m·f_(j-m) is divisible by j as f is integral."""
    f = [ring.one_entry]
    for j in range(1, len(g) + 1):
        f.append(ring.div(ring.dot(g[:j], f[::-1]), j))
    return f


class IntRing:
    """Exact integers; single lambda-generator 1 with zeta = 1/(1-t).  Z is
    A(1): one column of the integer entries A(G) shares.  Every handle has
    zero, one, label, n, the entry ops one_entry, zero_entry, dot, axpy,
    div, entry and add_psi (k·psi^r(xs) added at pos of each mark column,
    L-exponents times r), and entries, element and check_products."""

    zero, one, label, n = 0, 1, "Z", 1
    one_entry, zero_entry = 1, 0
    dot = staticmethod(lambda xs, ys: sum(map(mul, xs, ys)))
    axpy = staticmethod(lambda x, k, y: x + k * y)
    div = staticmethod(exact_div)   # x / j, which must be exact
    entry = staticmethod(lambda poly: poly.get(0, 0))
    check_products = staticmethod(lambda: None)
    element = staticmethod(lambda D, entries: entries[0])

    @staticmethod
    def entries(c) -> tuple:
        if type(c) is not int:
            raise UsageError(f"not an integer: {type(c).__name__}")
        return 1, [c]

    @staticmethod
    def add_psi(cols, pos: int, k: int, xs, r: int) -> None:
        cols[0][pos] += k * xs[0]


INT_RING = IntRing()


class BurnsideCoeffRing(IntRing):
    """Handle for A(G), whose lambda-generators are the basis classes; a
    coefficient's column entries are its marks."""

    def __init__(self, bring: BurnsideRing):
        self.bring, self.n = bring, bring.n
        self.zero, self.one = bring.zero, bring.unit
        self.label = f"A({bring.group.label})"
        self.check_products = bring.check_products

    def entries(self, c) -> tuple:
        self.one._check(c)
        return 1, list(c.marks())

    def element(self, D, entries):
        return self.bring.from_marks(entries)

    def add_psi(self, cols, pos: int, k: int, xs, r: int) -> None:
        for h, row in zip(cols, self.bring.adams(r)):
            h[pos] += k * sum([u * xs[M] for M, u in row])


def burnside_coeff_ring(bring: BurnsideRing) -> BurnsideCoeffRing:
    if "coeff_ring" not in bring._memo:
        bring._memo["coeff_ring"] = BurnsideCoeffRing(bring)
    return bring._memo["coeff_ring"]


# ---------------------------------------------------------------------------
# truncated series

def _lift(entries, k: int) -> list:
    """Entries with each L-exponent times k (k = 1 for integer entries)."""
    return entries if k == 1 else \
        [{e * k: c for e, c in x.items()} for x in entries]


def least_denominator(D: int, cols) -> tuple:
    """D and columns of {e: c} entries over L^(1/D), both divided by g =
    gcd(D, every e), which stops at the first e coprime to D; integer
    entries come with D = 1 and stay as they are."""
    g = D
    for e in (e for h in cols for x in h for e in x) if D > 1 else ():
        g = gcd(g, e)
        if g == 1:
            break
    return (D, cols) if g == 1 else (D // g, [
        [{e // g: c for e, c in x.items()} for x in h] for h in cols])


class TruncatedSeries:
    """1 + c_1 t + ... + c_N t^N over a coefficient-ring handle, held as
    one log column [h_1..h_N] per mark over one least exponent denominator
    D (see the module doc); all arithmetic is exact and eagerly truncated
    at N."""

    __slots__ = ("ring", "N", "D", "logs", "_coeffs", "_factors")

    def __init__(self, ring, coeffs):
        ring.check_products()   # once per ring, before any column product
        coeffs = tuple(coeffs)
        parts = [ring.entries(c) for c in coeffs]
        D = lcm(1, *(d for d, _ in parts))
        cols = list(zip(*(_lift(es, D // d) for d, es in parts)))
        if not cols or any(col[0] != ring.one_entry for col in cols):
            raise UsageError("a series needs constant coefficient 1")
        self._set(ring, D, [log_column(ring, a) for a in cols])
        self._coeffs = coeffs

    @classmethod
    def from_logs(cls, ring, D: int, logs) -> TruncatedSeries:
        """The series with these log columns [h_1..h_N], one per mark."""
        ring.check_products()
        out = cls.__new__(cls)
        out._set(ring, D, logs)
        return out

    def _set(self, ring, D: int, logs) -> None:
        D, logs = least_denominator(D, logs)
        self.ring, self.D, self.N, self.logs = ring, D, len(logs[0]), logs
        self._coeffs = self._factors = None

    @property
    def coeffs(self) -> tuple:
        """The coefficients as ring elements, packed on first use from the
        columns `exp_column` rebuilds (back-substituted over the basis, so
        checked integral)."""
        if self._coeffs is None:
            cols = [exp_column(self.ring, h) for h in self.logs]
            self._coeffs = tuple(self.ring.element(self.D, list(es))
                                 for es in zip(*cols))
        return self._coeffs

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries) and
                self.ring is other.ring and self.N == other.N and
                self.D == other.D and self.logs == other.logs)

    def __hash__(self) -> int:
        return hash(self.coeffs)

    @staticmethod
    def one(ring, N: int) -> TruncatedSeries:
        return TruncatedSeries.from_logs(
            ring, 1, [[ring.zero_entry] * N for _ in range(ring.n)])

    def is_one(self) -> bool:
        return self == TruncatedSeries.one(self.ring, self.N)

    def mul(self, other: TruncatedSeries) -> TruncatedSeries:
        if self.ring is not other.ring or self.N != other.N:
            raise UsageError("series over different rings or truncations")
        D, r = lcm(self.D, other.D), self.ring
        return TruncatedSeries.from_logs(r, D, [
            [r.axpy(x, 1, y) for x, y in zip(a, b)]
            for a, b in zip(self._at(D), other._at(D))])

    def invert(self) -> TruncatedSeries:
        return self.pow_int(-1)

    def pow_int(self, n: int) -> TruncatedSeries:
        """A^n for any integer n: n times the logs."""
        r = self.ring
        return TruncatedSeries.from_logs(r, self.D, [
            [r.axpy(r.zero_entry, n, x) for x in h] for h in self.logs])

    def substitute(self, c, r: int) -> TruncatedSeries:
        """t -> c * t^r.  At each mark, with x the entry of c, the logs of
        f(x·t^r) are r·sum h_m x^m t^(r·m)."""
        check_int("substitution power", r, 1)
        ring = self.ring
        Dc, cs = ring.entries(ring.one * c)
        D, logs = lcm(self.D, Dc), []
        for h, x in zip(self._at(D), _lift(cs, D // Dc)):
            out, p = [ring.zero_entry] * self.N, ring.one_entry
            for m in range(1, self.N // r + 1):
                p = ring.dot((p,), (x,))
                out[r * m - 1] = ring.axpy(ring.zero_entry, r,
                                           ring.dot((p,), (h[m - 1],)))
            logs.append(out)
        return TruncatedSeries.from_logs(ring, D, logs)

    def truncate(self, M: int) -> TruncatedSeries:
        check_int("truncation", M, 0)
        if M > self.N:
            raise UsageError(f"cannot extend truncation {self.N} to {M}")
        return TruncatedSeries.from_logs(self.ring, self.D,
                                         [h[:M] for h in self.logs])

    def map_coeffs(self, ring, f) -> TruncatedSeries:
        return TruncatedSeries(ring, map(f, self.coeffs))

    def _at(self, D: int) -> list:
        """This series' logs with exponents over D."""
        return self.logs if D == self.D else \
            [_lift(h, D // self.D) for h in self.logs]

    def __repr__(self) -> str:
        return f"<series N={self.N} over {getattr(self.ring, 'label', '?')}>"


# ---------------------------------------------------------------------------
# lambda factorization and the power operation

def lambda_term(ring, c, i: int, N: int) -> TruncatedSeries:
    """lambda_c(t^i) truncated at N, in closed form (see the module doc)."""
    check_int("lambda-term power", i, 1)
    check_int("truncation", N, 0)
    D, xs = ring.entries(c)
    return _reconstruct(ring, D, [(i, xs)], N)


def _reconstruct(ring, D: int, factors, N: int) -> TruncatedSeries:
    """prod_i lambda_{b_i}(t^i) from the items (i, entries of b_i over D),
    written as log columns: b_i puts i·psi^r(b_i) on t^(i·r)."""
    logs = [[ring.zero_entry] * N for _ in range(ring.n)]
    for i, xs in factors:
        if any(xs):
            for r in range(1, N // i + 1):
                ring.add_psi(logs, i * r - 1, i, xs, r)
    return TruncatedSeries.from_logs(ring, D, logs)


def _factor_walk(A: TruncatedSeries) -> tuple:
    """The entries over A.D of the b_i with A = prod_i lambda_{b_i}(t^i),
    and the b_i, each checked integral: h_i is i times b_i's entry plus the
    lambda-terms of b_1..b_(i-1).  Only the column lists are copied."""
    ring, N = A.ring, A.N
    hs, entries = [list(h) for h in A.logs], []
    for i in range(1, N + 1):
        entries.append([ring.div(h[i - 1], i) for h in hs])
        for r in range(2, N // i + 1):   # divide lambda_{b_i}(t^i) out
            ring.add_psi(hs, i * r - 1, -i, entries[-1], r)
    return entries, [ring.element(A.D, xs) for xs in entries]


def _factors(A: TruncatedSeries) -> tuple:
    """A's factor entries and elements, walked once per series."""
    if A._factors is None:
        A._factors = _factor_walk(A)
    return A._factors


def lambda_factorize(A: TruncatedSeries) -> list:
    """Exponents b_1..b_N with A = prod_i lambda_{b_i}(t^i)."""
    return list(_factors(A)[1])


def power(A: TruncatedSeries, m) -> TruncatedSeries:
    """A^m for a ring exponent m: the factor exponents m·b_i, multiplied
    entry by entry at each mark; an integer m stands for m·1, and an m
    from another coefficient ring is refused."""
    ring = A.ring
    Dm, ms = ring.entries(m * ring.one if type(m) is int else m)
    D = lcm(A.D, Dm)
    ms = _lift(ms, D // Dm)
    return _reconstruct(ring, D, [
        (i, [ring.dot((x,), (y,)) for x, y in zip(_lift(xs, D // A.D), ms)])
        for i, xs in enumerate(_factors(A)[0], start=1)], A.N)


# ---------------------------------------------------------------------------
# Macdonald right-hand side

def exponent_tuples(k: int, N: int):
    """(r_1..r_k, product r_1...r_k, weight prod_{j>=2} r_j^(j-1)) over all
    tuples of positive integers with product at most N; k=0 yields the
    single empty tuple ((), 1, 1)."""
    def rec(rs, prod, weight):
        if len(rs) == k:
            yield rs, prod, weight
            return
        r = 1
        while prod * r <= N:
            yield from rec(rs + (r,), prod * r, weight * r ** len(rs))
            r += 1
    yield from rec((), 1, 1)


def check_truncation(N: int) -> None:
    """Refuse a truncation N that is not an integer >= 0 or is above
    TRUNCATION_LIMIT, before work."""
    check_int("truncation", N, 0)
    check_budget("truncation N", N, TRUNCATION_LIMIT)


def rhs_base_series(k: int, N: int) -> TruncatedSeries:
    """prod (1 - t^{r_1...r_k})^{r_2 r_3^2 ... r_k^{k-1}} over the integers."""
    factors = [((0, a), -e) for _, a, e in exponent_tuples(k, N)]
    return TruncatedSeries.from_logs(INT_RING, 1, [[
        INT_RING.entry(log_coeff(factors, j)) for j in range(1, N + 1)]])


def rhs_theorem1(m, k: int, N: int) -> TruncatedSeries:
    """The Macdonald right-hand side: the base product raised to -m under
    the power structure of m's ring (integers or a Burnside ring)."""
    check_order(k)
    check_int("truncation", N, 0)
    base = rhs_base_series(k, N)
    if type(m) is int:
        return power(base, -m)
    if isinstance(m, BurnsideElement):   # n·[G/G] has every mark n
        ring = burnside_coeff_ring(m.ring)
        return power(TruncatedSeries.from_logs(ring, 1, base.logs * ring.n),
                     -m)
    raise UsageError(f"unsupported exponent type {type(m).__name__}")
