"""Power structures on 1 + t·R[[t]] via lambda-ring factorization.

Every series with unit constant term factors uniquely as a product of
lambda-series prod_i lambda_{b_i}(t^i); raising to a ring exponent m
rescales every factor exponent to m·b_i.  The construction satisfies the
power structure axioms exactly, so the randomized axiom checks validate the
factorization engine rather than approximate identities.

Series live in mark coordinates.  The mark map A(G) -> Z^n is an injective
ring map with entry-wise product, so a series over A(G) is n integer
columns (Z is A(1): one column), and one over A(G)[L^(1/D)] is n columns of
{e: int} Laurent polynomials in L^(1/D) over one least D; +, * and
substitution act one column at a time.  At a class K, lambda_x(t^i) is
prod_d (1 - t^(i·d))^(-n_d) over the n_d orbits of size d of K on x, and
L^q·x puts L^(q·d) on t^(i·d), so columns are built, inverted and factored
through their log-derivatives t·f'/f.  Ring elements are packed from the
columns only when observed (`coeffs`, rendering, JSON) and for the factor
exponents b_i, whose basis coordinates give the orbit counts; packing
back-substitutes over the basis, so a non-integral value raises.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from operator import floordiv, mul

from .burnside import BurnsideElement, BurnsideRing, burnside_ring, class_of
from .errors import InvariantViolation, ResourceLimitError, UsageError
from .gsets import BiSet, biset_from_single_action

GEOMETRIC_CONFIG_BUDGET = 200_000


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


def binomial_column(ring, factors, N: int) -> list:
    """The product of (1 - L^e t^s)^(-n) over the items ((e, s), n) of
    factors to t^N, as one column of the ring handle's entries."""
    return exp_column(ring, [ring.entry(log_coeff(factors, j))
                             for j in range(1, N + 1)])


def orbit_factors(ring, terms, g: int) -> list[dict]:
    """{(e, s): n} per class K: the factors (1 - L^e t^s)^(-n) of the product
    of lambda_x(L^e t^(i/g)) over the triples (e, x, i) in terms.  If K has
    n_d orbits of size d on x, they put (1 - L^(e·d) t^(i·d/g))^(-n_d)."""
    counts = ring.bring.orbit_counts()
    factors = [{} for _ in range(ring.n)]
    for e, x, i in terms:
        for h, c in enumerate(x.coeffs):
            for f, row in zip(factors, counts[h] if c else ()):
                for d, m in row.items():
                    key = e * d, i // g * d
                    f[key] = f.get(key, 0) + c * m
    return factors


class IntRing:
    """Exact integers; single lambda-generator 1 with zeta = 1/(1-t).  Z is
    A(1): one column of the integer entries A(G) shares.  Every handle has
    zero, one, label, n, the entry ops one_entry, zero_entry, dot, div and
    entry, and entries, element, factors and check_products."""

    zero, one, label, n = 0, 1, "Z", 1
    one_entry, zero_entry = 1, 0
    div = staticmethod(floordiv)
    dot = staticmethod(lambda xs, ys: sum(map(mul, xs, ys)))
    entry = staticmethod(lambda poly: poly.get(0, 0))
    check_products = staticmethod(lambda: None)
    entries = staticmethod(lambda c: (1, [c]))
    element = staticmethod(lambda D, entries: entries[0])

    @staticmethod
    def factors(terms, g, D=1):   # the i in terms are distinct
        return D, [{(0, i // g): c for c, i in terms}]


INT_RING = IntRing()


class BurnsideCoeffRing(IntRing):
    """Handle for A(G), whose lambda-generators are the basis classes; a
    coefficient's column entries are its marks."""

    def __init__(self, bring: BurnsideRing):
        self.bring, self.n = bring, bring.n
        self.zero, self.one = bring.zero, bring.unit
        self.label = f"A({bring.group.label})"
        self.check_products = bring.check_products

    entries = staticmethod(lambda c: (1, list(c.marks())))

    def element(self, D, entries):
        return self.bring.from_marks(entries)

    def factors(self, terms, g, D=1):
        return D, orbit_factors(self, [(0, c, i) for c, i in terms], g)


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


class TruncatedSeries:
    """c_0 + c_1 t + ... + c_N t^N over a coefficient-ring handle, held as
    one column per mark (see the module doc) over one least exponent
    denominator D; all arithmetic is exact and eagerly truncated at N."""

    __slots__ = ("ring", "N", "D", "cols", "_coeffs")

    def __init__(self, ring, coeffs):
        coeffs = tuple(coeffs)
        parts = [ring.entries(c) for c in coeffs]
        D = lcm(1, *(d for d, _ in parts))
        cols = zip(*(_lift(es, D // d) for d, es in parts))
        self._set(ring, D, [list(col) for col in cols], len(coeffs) - 1)
        self._coeffs = coeffs

    @classmethod
    def from_columns(cls, ring, D: int, cols) -> TruncatedSeries:
        out = cls.__new__(cls)
        out._set(ring, D, cols, len(cols[0]) - 1)
        return out

    def _set(self, ring, D: int, cols, N: int) -> None:
        ring.check_products()   # once per ring, before any column product
        g = gcd(D, *(e for col in cols for x in col for e in x)) \
            if D > 1 else 1
        if g > 1:
            D, cols = D // g, [[{e // g: c for e, c in x.items()}
                                for x in col] for col in cols]
        self.ring, self.D, self.cols, self.N = ring, D, cols, N
        self._coeffs = None

    @property
    def coeffs(self) -> tuple:
        """The coefficients as ring elements, packed from the columns on
        first use (back-substituted over the basis, so checked integral)."""
        if self._coeffs is None:
            self._coeffs = tuple(self.ring.element(self.D, list(es))
                                 for es in zip(*self.cols))
        return self._coeffs

    def __getitem__(self, i: int):
        return self.coeffs[i]

    def __eq__(self, other):
        return isinstance(other, TruncatedSeries) and \
            self.ring is other.ring and self.N == other.N and \
            self.D == other.D and self.cols == other.cols

    def __hash__(self) -> int:
        return hash(self.coeffs)

    @staticmethod
    def one(ring, N: int) -> TruncatedSeries:
        return TruncatedSeries.from_columns(ring, 1, [
            [ring.one_entry] + [ring.zero_entry] * N for _ in range(ring.n)])

    def is_one(self) -> bool:
        return self == TruncatedSeries.one(self.ring, self.N)

    def mul(self, other: TruncatedSeries) -> TruncatedSeries:
        if self.ring is not other.ring or self.N != other.N:
            raise UsageError("series over different rings or truncations")
        D, dot = lcm(self.D, other.D), self.ring.dot
        return TruncatedSeries.from_columns(self.ring, D, [
            [dot(a[:j + 1], b[j::-1]) for j in range(self.N + 1)]
            for a, b in zip(self._cols_at(D), other._cols_at(D))])

    def invert(self) -> TruncatedSeries:
        return self.pow_int(-1)

    def pow_int(self, n: int) -> TruncatedSeries:
        """A^n for any integer n, from n·t·A'/A; needs a_0 = 1."""
        r = self.ring
        if any(col[0] != r.one_entry for col in self.cols):
            raise UsageError("integer powers need constant coefficient 1")
        k = r.entry({0: n})
        return TruncatedSeries.from_columns(r, self.D, [exp_column(
            r, [r.dot((h,), (k,)) for h in log_column(r, a)])
            for a in self.cols])

    def substitute(self, c, r: int) -> TruncatedSeries:
        """t -> c * t^r."""
        if r < 1:
            raise UsageError(f"substitution power must be >= 1, got {r}")
        ring = self.ring
        Dc, cs = ring.entries(ring.one * c)
        D, cols = lcm(self.D, Dc), []
        for a, x in zip(self._cols_at(D), _lift(cs, D // Dc)):
            out, p = [ring.zero_entry] * (self.N + 1), ring.one_entry
            for i in range(self.N // r + 1):
                out[i * r], p = ring.dot((p,), (a[i],)), ring.dot((p,), (x,))
            cols.append(out)
        return TruncatedSeries.from_columns(ring, D, cols)

    def truncate(self, M: int) -> TruncatedSeries:
        if M > self.N:
            raise UsageError(f"cannot extend truncation {self.N} to {M}")
        return TruncatedSeries.from_columns(
            self.ring, self.D, [col[:M + 1] for col in self.cols])

    def map_coeffs(self, ring, f) -> TruncatedSeries:
        return TruncatedSeries(ring, map(f, self.coeffs))

    def _cols_at(self, D: int) -> list:
        return self.cols if D == self.D else \
            [_lift(col, D // self.D) for col in self.cols]

    def __repr__(self) -> str:
        return f"<series N={self.N} over {getattr(self.ring, 'label', '?')}>"


# ---------------------------------------------------------------------------
# lambda factorization and the power operation

def zeta_series(ring, key, N: int, step: int = 1) -> TruncatedSeries:
    """zeta(t^step) to t^N of 1 in Z (key None) or of [G/H_key] in A(G)."""
    return lambda_term(ring, ring.one if key is None
                       else ring.bring.basis(key), step, N)


def lambda_term(ring, c, i: int, N: int) -> TruncatedSeries:
    """lambda_c(t^i) truncated at N, in closed form (see the module doc)."""
    if i < 1:
        raise UsageError(f"lambda-term power must be >= 1, got {i}")
    return lambda_reconstruct(ring, [ring.zero] * (i - 1) + [c], N)


def lambda_reconstruct(ring, bs, N: int) -> TruncatedSeries:
    """prod_i lambda_{b_i}(t^i).  Every t-degree is a multiple of the gcd g
    of the i with b_i nonzero, so each column is built in t^g."""
    terms = [(b, i) for i, b in enumerate(bs, start=1) if b]
    g = gcd(*(i for _, i in terms)) or 1
    D, factors = ring.factors(terms, g)
    cols = []
    for f in factors:
        col = [ring.zero_entry] * (N + 1)
        col[::g] = binomial_column(ring, f.items(), N // g)
        cols.append(col)
    return TruncatedSeries.from_columns(ring, D, cols)


def lambda_factorize(A: TruncatedSeries) -> list:
    """Exponents b_1..b_N with A = prod_i lambda_{b_i}(t^i), read off each
    column's log-derivative h = t·A'/A: h_i is the t^i log-coefficient of
    the lambda-terms of b_1..b_(i-1) plus i times b_i's entry.  Each b_i is
    back-substituted from its marks, so it is checked integral."""
    ring, N, D = A.ring, A.N, A.D
    if any(col[0] != ring.one_entry for col in A.cols):
        raise UsageError("factorization needs constant coefficient 1")
    hs = [log_column(ring, a) for a in A.cols]
    one, minus_one, out = ring.one_entry, ring.entry({0: -1}), []
    for i in range(1, N + 1):
        out.append(ring.element(D, [ring.div(h[i - 1], i) for h in hs]))
        for h, f in zip(hs, ring.factors([(out[-1], i)], 1, D)[1]):
            for j in range(i + 1, N + 1):   # divide lambda_{b_i}(t^i) out
                h[j - 1] = ring.dot((h[j - 1], ring.entry(
                    log_coeff(f.items(), j))), (one, minus_one))
    return out


def power(A: TruncatedSeries, m) -> TruncatedSeries:
    """A^m for a ring exponent m: rescale the lambda factorization."""
    return lambda_reconstruct(A.ring, [m * b for b in lambda_factorize(A)],
                              A.N)


# ---------------------------------------------------------------------------
# oracles

def integer_power_oracle(A: TruncatedSeries, m: int) -> TruncatedSeries:
    """Closed multinomial formula for (1 + sum a_i t^i)^m over the integers:
    the t^k coefficient is sum over partitions {i: k_i} of k of
    m(m-1)...(m - sum k_i + 1) / prod k_i! * prod a_i^{k_i}."""
    if A.ring is not INT_RING:
        raise UsageError("integer power oracle works over the integer ring")
    if A.coeffs[0] != 1:
        raise UsageError("oracle needs constant coefficient 1")
    N = A.N
    out = [1] + [0] * N
    for k in range(1, N + 1):
        total = Fraction(0)
        for counts in _partition_counts(k):
            s = sum(counts.values())
            ff = 1
            for j in range(s):
                ff *= (m - j)
            term = Fraction(ff)
            for part, cnt in counts.items():
                term /= factorial(cnt)
                term *= A.coeffs[part] ** cnt
            total += term
        if total.denominator != 1:
            raise InvariantViolation("multinomial coefficient not integral")
        out[k] = int(total)
    return TruncatedSeries(INT_RING, tuple(out))


def _partition_counts(k: int):
    """Partitions of k as {part: multiplicity} dicts, parts non-increasing."""
    def rec(remaining, max_part, acc):
        if remaining == 0:
            yield dict(acc)
            return
        for part in range(min(remaining, max_part), 0, -1):
            acc[part] = acc.get(part, 0) + 1
            yield from rec(remaining - part, part, acc)
            if acc[part] == 1:
                del acc[part]
            else:
                acc[part] -= 1
    yield from rec(k, k, {})


def geometric_power_oracle(a_sets: list[BiSet], M: BiSet, N: int,
                           budget: int = GEOMETRIC_CONFIG_BUDGET
                           ) -> TruncatedSeries:
    """(1 + [A_1]t + ... + [A_j]t^j)^{[M]} computed from configuration
    spaces: the t^k coefficient is the class of the G-set of pairs
    (finite subset K of M, labeling K -> union A_i) of total weight k."""
    if not a_sets:
        raise UsageError("need at least one coefficient G-set")
    G = M.gB
    for A in a_sets:
        if not _same_b_group(A, M):
            raise UsageError("coefficient sets and M must share the B-side group")
    bring = burnside_ring(G)
    ring = burnside_coeff_ring(bring)
    coeffs = [ring.one]
    for k in range(1, N + 1):
        configs = _weight_configs(a_sets, M, k, budget)
        if not configs:
            coeffs.append(ring.zero)
            continue
        rank = {c: i for i, c in enumerate(configs)}
        perms = []
        for j, _ in enumerate(G.generators):
            img = []
            for c in configs:
                moved = tuple(sorted(
                    (M.actB[j][mp], i, a_sets[i - 1].actB[j][a])
                    for (mp, i, a) in c))
                img.append(rank[moved])
            perms.append(tuple(img))
        X = biset_from_single_action(len(configs), G, perms)
        coeffs.append(class_of(X))
    return TruncatedSeries(ring, tuple(coeffs))


def _weight_configs(a_sets, M, k, budget):
    """All configurations of total weight k, canonically sorted."""
    out = []

    def rec(pos, weight, acc):
        if len(out) > budget:
            raise ResourceLimitError("geometric power configurations",
                                     size=len(out), budget=budget)
        if pos == M.size:
            if weight == k:
                out.append(tuple(acc))
            return
        rec(pos + 1, weight, acc)  # leave the point unused
        for i, A in enumerate(a_sets, start=1):
            if weight + i > k:
                continue
            for a in range(A.size):
                acc.append((pos, i, a))
                rec(pos + 1, weight + i, acc)
                acc.pop()

    rec(0, 0, [])
    out.sort()
    return out


def _same_b_group(X: BiSet, Y: BiSet) -> bool:
    from .groups import same_group
    return same_group(X.gB, Y.gB)


# ---------------------------------------------------------------------------
# Macdonald right-hand side

def exponent_tuples(k: int, N: int):
    """(product r_1...r_k, weight prod_{j>=2} r_j^(j-1)) over all tuples of
    positive integers with product at most N; k=0 yields the single empty
    tuple (1, 1)."""
    def rec(depth, prod, weight):
        if depth == k:
            yield prod, weight
            return
        r = 1
        while prod * r <= N:
            yield from rec(depth + 1, prod * r, weight * r ** depth)
            r += 1
    yield from rec(0, 1, 1)


def rhs_base_series(k: int, N: int) -> TruncatedSeries:
    """prod (1 - t^{r_1...r_k})^{r_2 r_3^2 ... r_k^{k-1}} over the integers."""
    factors = [((0, a), -e) for a, e in exponent_tuples(k, N)]
    return TruncatedSeries.from_columns(INT_RING, 1,
                               [binomial_column(INT_RING, factors, N)])


def rhs_theorem1(m, k: int, N: int) -> TruncatedSeries:
    """The Macdonald right-hand side: the base product raised to -m under
    the power structure of m's ring (integers or a Burnside ring)."""
    if k < 0:
        raise UsageError(f"order must be >= 0, got {k}")
    base = rhs_base_series(k, N)
    if isinstance(m, int):
        return power(base, -m)
    if isinstance(m, BurnsideElement):   # n·[G/G] has every mark n
        ring = burnside_coeff_ring(m.ring)
        return power(TruncatedSeries.from_columns(ring, 1, base.cols * ring.n),
                     -m)
    raise UsageError(f"unsupported exponent type {type(m).__name__}")
