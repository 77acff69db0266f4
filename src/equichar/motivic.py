"""Burnside coefficients extended by rational powers of a formal symbol L.

Elements of A(G)[L^{±1/D}] are finite sums of L^q * (Burnside class) with
qD integral.  An element holds its least D and integer pairs (e, c) meaning
L^(e/D) * c, so + and * add integers over lcm(D1, D2); exponents are
`Fraction`s only where they enter or leave (`lext`, `L`, `terms`, rendering
and shifts) and in the slopes `laurent_terms` bounds a power by.  The
lambda-structure extends the Burnside one by the scaling rule
zeta_{L^q b}(t) = zeta_b(L^q t), which makes the substitution law
(A(L^s t))^m = (A(t))^m |_{t -> L^s t} hold for the factorization power.

Geometric classes (of varieties, quotients, fixed loci) are never computed
here: orbifold data carry user-supplied classes and shifts, and this module
only does the exact ring and series bookkeeping on top of them.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, gcd, lcm

from .burnside import BurnsideElement, BurnsideRing
from .errors import UsageError, check_budget, check_int, parse_fraction
from .groups import FiniteGroup, check_order
from .powerstruct import (INT_RING, TruncatedSeries, exponent_tuples,
                          lambda_term, log_coeff, power)

LAURENT_PRODUCT_BUDGET = 10 ** 8   # term products rebuilding an L-power


# ---------------------------------------------------------------------------
# the extended ring

class LExtElement:
    """Finite sum of L^(e/D) * c with c in A(G), held as D and integer
    pairs (e, c): sorted by e, no zero c, gcd(D, every e) = 1, and D = 1
    for zero."""

    __slots__ = ("ring", "D", "pairs")

    def __init__(self, ring: BurnsideRing, D: int, pairs: tuple):
        self.ring, self.D, self.pairs = ring, D, pairs

    @property
    def terms(self) -> tuple:
        """The (Fraction exponent, coefficient) pairs."""
        return tuple((Fraction(e, self.D), c) for e, c in self.pairs)

    def __eq__(self, other):
        return isinstance(other, LExtElement) and self.ring is other.ring \
            and self.D == other.D and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash((self.D, self.pairs))

    def _lift(self, D: int) -> tuple:
        k = D // self.D
        return self.pairs if k == 1 else \
            tuple((e * k, c) for e, c in self.pairs)

    def __add__(self, other: LExtElement) -> LExtElement:
        self._check(other)
        D = lcm(self.D, other.D)
        return _normal(self.ring, D, self._lift(D) + other._lift(D))

    def __neg__(self) -> LExtElement:
        return LExtElement(self.ring, self.D,
                           tuple((e, -c) for e, c in self.pairs))

    def __sub__(self, other: LExtElement) -> LExtElement:
        return self + (-other)

    def __mul__(self, other):
        if type(other) is int:
            return _normal(self.ring, self.D,
                           [(e, other * c) for e, c in self.pairs])
        self._check(other)
        D = lcm(self.D, other.D)
        return _normal(self.ring, D, [(e + f, c * d)
                                      for e, c in self._lift(D)
                                      for f, d in other._lift(D)])

    def __rmul__(self, other):
        if type(other) is int:
            return self * other
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self.pairs)

    def render(self) -> str:
        if not self.pairs:
            return "0"
        parts = []
        for q, c in self.terms:
            if q == 0:
                parts.append(c.render())
            else:
                head = "L" if q == 1 else \
                    (f"L^{q}" if q.denominator == 1 else f"L^({q})")
                if c == self.ring.unit:
                    parts.append(head)
                else:
                    parts.append(f"{head}*({c.render()})")
        return " + ".join(parts)

    def _check(self, other) -> None:
        if not isinstance(other, LExtElement) or other.ring is not self.ring:
            raise UsageError("mixed L-extended rings")

    def __repr__(self) -> str:
        return f"<LExt {self.render()}>"


def _normal(bring: BurnsideRing, D: int, pairs) -> LExtElement:
    """L^(e/D)-pairs merged by e, zeros dropped, sorted, D made minimal."""
    acc: dict = {}
    for e, c in pairs:
        prev = acc.get(e)
        acc[e] = c if prev is None else prev + c
    out = sorted((e, c) for e, c in acc.items() if c)
    g = gcd(D, *[e for e, _ in out]) if D > 1 else 1
    if g > 1:
        out = [(e // g, c) for e, c in out]
    return LExtElement(bring, D // g, tuple(out))


def lext(bring: BurnsideRing, pairs) -> LExtElement:
    """The element sum of L^q * c over (rational q, c) pairs."""
    pairs = [(parse_fraction(q), c) for q, c in pairs]
    D = lcm(*(q.denominator for q, _ in pairs))
    return _normal(bring, D, [(q.numerator * (D // q.denominator), c)
                              for q, c in pairs])


def embed(x: BurnsideElement) -> LExtElement:
    """A Burnside class at exponent zero."""
    if not isinstance(x, BurnsideElement):
        raise UsageError(f"cannot embed {type(x).__name__}")
    return _normal(x.ring, 1, ((0, x),))


def L(bring: BurnsideRing, q=1) -> LExtElement:
    return lext(bring, ((q, bring.unit),))


def specialize_L(a: LExtElement) -> BurnsideElement:
    """The ring map L -> 1 onto A(G)."""
    return sum((c for _, c in a.pairs), a.ring.zero)


# ---------------------------------------------------------------------------
# lambda-structure handle for the series engine

class LExtCoeffRing:
    """Generators are pairs (exponent q, basis class index); lambda-terms
    follow the scaling rule zeta_{L^q b}(t) = zeta_b(L^q t).  A
    coefficient's column entry at class K is the Laurent polynomial
    {e: mark at K} in L^(1/D)."""

    one_entry, zero_entry = {0: 1}, {}

    def __init__(self, bring: BurnsideRing):
        self.bring, self.n = bring, bring.n
        self.zero, self.one = lext(bring, ()), embed(bring.unit)
        self.label = f"A({bring.group.label})[L^Q]"
        self.check_products = bring.check_products

    div = staticmethod(lambda x, j: {e: INT_RING.div(c, j)
                                      for e, c in x.items()})
    entry = staticmethod(lambda p: {e: c for e, c in p.items() if c})

    @staticmethod
    def dot(xs, ys) -> dict:
        """sum of x*y over paired {e: int} Laurent polynomials."""
        acc: dict = {}
        for x, y in zip(xs, ys):
            for e, c in x.items():
                for f, d in y.items():
                    acc[e + f] = acc.get(e + f, 0) + c * d
        return {e: c for e, c in acc.items() if c}

    def entries(self, c: LExtElement):
        self.one._check(c)
        return c.D, [self.entry({e: x.marks()[k] for e, x in c.pairs})
                     for k in range(self.n)]

    def element(self, D: int, entries) -> LExtElement:
        es = sorted(set().union(*entries))   # no entry holds a zero
        g = gcd(D, *es)
        return LExtElement(self.bring, D // g, tuple(
            (e // g, self.bring.from_marks([x.get(e, 0) for x in entries]))
            for e in es))

    def add_psi(self, cols, pos: int, k: int, xs, r: int) -> None:
        for h, row in zip(cols, self.bring.adams(r)):
            acc = dict(h[pos])   # copied: entries may be shared
            for M, u in row:
                for e, c in xs[M].items():
                    acc[e * r] = acc.get(e * r, 0) + k * u * c
            h[pos] = {e: c for e, c in acc.items() if c}

    @staticmethod
    def axpy(x: dict, k: int, y: dict) -> dict:
        out = dict(x)
        for e, c in y.items():
            out[e] = out.get(e, 0) + k * c
        return {e: c for e, c in out.items() if c}


def lext_coeff_ring(bring: BurnsideRing) -> LExtCoeffRing:
    if "lext_coeff_ring" not in bring._memo:
        bring._memo["lext_coeff_ring"] = LExtCoeffRing(bring)
    return bring._memo["lext_coeff_ring"]


def zeta_L(b: LExtElement, N: int) -> TruncatedSeries:
    """zeta of a single generator L^q*[G/H]: coefficient of t^k is
    L^{qk} * class_of(S^k(G/H)), the lambda-term of the generator."""
    if len(b.pairs) != 1:
        raise UsageError("zeta_L needs a single L^q*[G/H] generator")
    c = b.pairs[0][1]
    if sorted(c.coeffs) != [0] * (c.ring.n - 1) + [1]:
        raise UsageError("zeta_L needs a single L^q*[G/H] generator")
    return lambda_term(lext_coeff_ring(b.ring), b, 1, N)


def laurent_terms(A: TruncatedSeries, m: LExtElement) -> list:
    """Bounds T_0..T_N on the Laurent terms an entry of A^m holds at each
    degree.  Over D = lcm(A.D, m.D), A's t^i log entries, and so its
    factor entries b_i, have exponents within i·[lo, hi]; m's lie within
    [u, v]; and lambda_{L^q b}(t^i) puts r·q on t^(i·r).  So the t^j
    exponents of A^m lie within [j·lo + min(u, j·u), j·hi + max(v, j·v)]."""
    D = lcm(A.D, m.D)
    slopes = [Fraction(e * (D // A.D), i) for h in A.logs
              for i, x in enumerate(h, start=1) for e in x]
    if not slopes or not m.pairs:   # A^m = 1
        return [1] * (A.N + 1)
    lo, hi = min(slopes), max(slopes)
    u, v = (e * (D // m.D) for e in (m.pairs[0][0], m.pairs[-1][0]))
    return [1] + [floor(j * hi + max(v, j * v)) -
                  ceil(j * lo + min(u, j * u)) + 1
                  for j in range(1, A.N + 1)]


def check_laurent_products(A: TruncatedSeries, m: LExtElement) -> None:
    """Refuse A^m, before any work, when rebuilding its coefficients from
    its logs could take more than LAURENT_PRODUCT_BUDGET products of
    Laurent terms: at each of the n marks, the t^j entry sums g_i·f_(j-i)
    over i = 1..j, at most T_i·T_(j-i) term products (`laurent_terms`)."""
    T = laurent_terms(A, m)
    products = A.ring.n * sum(T[i] * T[j - i] for j in range(1, A.N + 1)
                              for i in range(1, j + 1))
    check_budget(f"Laurent-term products of the power at N = {A.N}, "
                 "LAURENT_PRODUCT_BUDGET", products, LAURENT_PRODUCT_BUDGET)


# ---------------------------------------------------------------------------
# shifts

def read_weights(weights, k: int) -> tuple:
    """The k weights phi_1..phi_k as Fractions; any other count is refused."""
    weights = tuple(weights)
    if len(weights) != k:
        raise UsageError(f"need {k} weights, got {len(weights)}")
    return tuple(map(parse_fraction, weights))


def phi_k(rs, phis) -> Fraction:
    """phi_1(r_1 - 1) + phi_2 r_1 (r_2 - 1) + ... +
    phi_k r_1...r_{k-1} (r_k - 1)."""
    rs = tuple(rs)
    for r in rs:
        check_int("phi_k index", r, 1)
    return _phi(rs, read_weights(phis, len(rs)))


def _phi(rs: tuple, phis: tuple) -> Fraction:
    """phi_k of positive indices rs and read weights phis."""
    total, prefix = Fraction(0), 1
    for r, p in zip(rs, phis):
        total += p * prefix * (r - 1)
        prefix *= r
    return total


# ---------------------------------------------------------------------------
# orbifold data

class OrbifoldDatum:
    """Order-k stratum data: each stratum is (commuting-tuple label,
    user-supplied quotient class, rational shift).  Labels must be commuting
    k-tuples of the acting group's element indices; the coefficient Burnside
    ring is carried for validation.  Classes never come from geometry here."""

    __slots__ = ("group", "bring", "k", "weights", "strata")

    def __init__(self, group: FiniteGroup, bring: BurnsideRing, k: int,
                 weights: tuple, strata: tuple):
        check_order(k)
        self.group, self.bring, self.k = group, bring, k
        self.weights = read_weights(weights, k)
        norm = []
        for tup, cls, shift in strata:
            if not isinstance(cls, LExtElement) or cls.ring is not bring:
                raise UsageError("stratum class not in the datum's ring")
            tup = tuple(tup)
            _check_tuple_label(group, tup, k)
            norm.append((tup, cls, parse_fraction(shift)))
        self.strata = tuple(norm)
        if all(p >= 0 for p in self.weights):
            for _, _, shift in self.strata:
                if shift < 0:
                    raise UsageError(
                        f"negative shift {shift} with non-negative weights")


def orbifold_class_from_datum(datum: OrbifoldDatum) -> LExtElement:
    """Sum over strata of quotientClass * L^shift."""
    return sum((cls * L(datum.bring, shift) for _, cls, shift in datum.strata),
               lext(datum.bring, ()))


def _check_tuple_label(G: FiniteGroup, tup: tuple, k: int) -> None:
    """A label is any commuting k-tuple of element indices: every such
    tuple lies in some class, so any member of a class names it."""
    if len(tup) != k:
        raise UsageError(f"unknown tuple-class label {tup}: wrong length")
    if not all(type(g) is int and 0 <= g < G.order for g in tup):
        raise UsageError(f"unknown tuple-class label {tup}: bad indices")
    for i, g in enumerate(tup):
        for h in tup[i + 1:]:
            if G.mul(g, h) != G.mul(h, g):
                raise UsageError(
                    f"unknown tuple-class label {tup}: entries do not commute")


# ---------------------------------------------------------------------------
# Macdonald right-hand side with L-weights

def rhs_theorem2(m, k: int, d, weights=None, N: int = 6) -> TruncatedSeries:
    """prod over r_1..r_k with product <= N of
    (1 - L^{Phi_k(r)d/2} t^{r_1...r_k})^{r_2 r_3^2 ... r_k^{k-1}},
    raised to -m under the L-extended power structure."""
    check_order(k)
    check_int("truncation", N, 0)
    d = parse_fraction(d)
    if d < 0:
        raise UsageError(f"dimension must be >= 0, got {d}")
    weights = read_weights((1,) * k if weights is None else weights, k)
    if isinstance(m, BurnsideElement):
        m = embed(m)
    if not isinstance(m, LExtElement):
        raise UsageError(f"unsupported exponent type {type(m).__name__}")
    ring = lext_coeff_ring(m.ring)
    # every mark of L^q·[G/G] is L^q, so all columns are the one product
    shifts = [(_phi(rs, weights) * d / 2, prod, weight)
              for rs, prod, weight in exponent_tuples(k, N)]
    D = lcm(*(q.denominator for q, _, _ in shifts))
    factors = [((q.numerator * D // q.denominator, prod), -w)
               for q, prod, w in shifts]
    h = [ring.entry(log_coeff(factors, j)) for j in range(1, N + 1)]
    return power(TruncatedSeries.from_logs(ring, D, [h] * ring.n), -m)
