"""Burnside coefficients extended by rational powers of a formal symbol L.

Elements of A(G)[L^{±1/D}] are finite sums of L^q * (Burnside class) with
qD integral.  An element holds its least D and integer pairs (e, c) meaning
L^(e/D) * c, so + and * add integers over lcm(D1, D2); exponents are
`Fraction`s only where they enter or leave (`lext`, `L`, `terms`, rendering,
shifts and ages).  The lambda-structure extends the Burnside one by the scaling
rule zeta_{L^q b}(t) = zeta_b(L^q t), which makes the substitution law
(A(L^s t))^m = (A(t))^m |_{t -> L^s t} hold for the factorization power.

Geometric classes (of varieties, quotients, fixed loci) are never computed
here: orbifold data carry user-supplied classes and shifts, and this module
only does the exact ring and series bookkeeping on top of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .burnside import BurnsideElement, BurnsideRing, burnside_ring
from .errors import UsageError
from .euler import tuple_class_strata
from .gsets import BiSet
from .groups import FiniteGroup
from .powerstruct import (TruncatedSeries, binomial_column, lambda_term,
                          orbit_factors, power)

TUPLE_LABEL_BUDGET = 100_000


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
        if isinstance(other, int):
            return _normal(self.ring, self.D,
                           [(e, other * c) for e, c in self.pairs])
        self._check(other)
        D = lcm(self.D, other.D)
        return _normal(self.ring, D, [(e + f, c * d)
                                      for e, c in self._lift(D)
                                      for f, d in other._lift(D)])

    def __rmul__(self, other):
        if isinstance(other, int):
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
    pairs = [(Fraction(q), c) for q, c in pairs]
    D = lcm(*(q.denominator for q, _ in pairs))
    return _normal(bring, D, [(q.numerator * (D // q.denominator), c)
                              for q, c in pairs])


def embed(x, bring: BurnsideRing | None = None) -> LExtElement:
    """A Burnside class (or integer, given a ring) at exponent zero."""
    if isinstance(x, BurnsideElement):
        return lext(x.ring, ((Fraction(0), x),))
    if isinstance(x, int):
        if bring is None:
            raise UsageError("embedding an integer needs a Burnside ring")
        return lext(bring, ((Fraction(0), x * bring.unit),))
    raise UsageError(f"cannot embed {type(x).__name__}")


def L(bring: BurnsideRing, q=1) -> LExtElement:
    return lext(bring, ((Fraction(q), bring.unit),))


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

    div = staticmethod(lambda x, j: {e: c // j for e, c in x.items()})
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
        return c.D, [self.entry({e: x.marks()[k] for e, x in c.pairs})
                     for k in range(self.n)]

    def element(self, D: int, entries) -> LExtElement:
        return _normal(self.bring, D, [
            (e, self.bring.from_marks([x.get(e, 0) for x in entries]))
            for e in set().union(*entries)])

    def factors(self, terms, g: int, D: int = 1):   # over lcm(D, each c.D)
        D = lcm(D, *(c.D for c, _ in terms))
        return D, orbit_factors(self, [(e * (D // c.D), x, i) for c, i in terms
                                       for e, x in c.pairs], g)


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


def power_L(A: TruncatedSeries, m) -> TruncatedSeries:
    """Factorization power over the L-extended coefficients."""
    if not isinstance(A.ring, LExtCoeffRing):
        raise UsageError("power_L expects a series over an L-extended ring")
    if isinstance(m, BurnsideElement):
        m = embed(m)
    if not isinstance(m, LExtElement):
        raise UsageError(f"unsupported exponent type {type(m).__name__}")
    return power(A, m)


# ---------------------------------------------------------------------------
# ages and shifts

def age(angles) -> Fraction:
    """Sum of the eigenvalue angles theta_j, each in [0, 1)."""
    total = Fraction(0)
    for theta in angles:
        theta = Fraction(theta)
        if not 0 <= theta < 1:
            raise UsageError(f"angle {theta} outside [0, 1)")
        total += theta
    return total


def phi_k(rs, phis) -> Fraction:
    """phi_1(r_1 - 1) + phi_2 r_1 (r_2 - 1) + ... +
    phi_k r_1...r_{k-1} (r_k - 1)."""
    rs = tuple(rs)
    phis = tuple(Fraction(p) for p in phis)
    if len(rs) != len(phis):
        raise UsageError(f"{len(rs)} indices vs {len(phis)} weights")
    total = Fraction(0)
    prefix = 1
    for r, p in zip(rs, phis):
        if r < 1:
            raise UsageError(f"indices must be >= 1, got {r}")
        total += p * prefix * (r - 1)
        prefix *= r
    return total


# ---------------------------------------------------------------------------
# orbifold data

@dataclass(frozen=True)
class OrbifoldDatum:
    """Order-k stratum data: each stratum is (commuting-tuple label,
    user-supplied quotient class, rational shift).  The acting group and
    the coefficient Burnside ring are carried for validation; classes are
    never derived from geometry here."""

    group: FiniteGroup
    bring: BurnsideRing
    k: int
    weights: tuple
    strata: tuple  # ((g-index tuple, LExtElement, Fraction shift), ...)

    def __post_init__(self):
        if self.k < 0:
            raise UsageError(f"order must be >= 0, got {self.k}")
        if len(self.weights) != self.k:
            raise UsageError(f"need {self.k} weights, got {len(self.weights)}")
        object.__setattr__(self, "weights",
                           tuple(Fraction(p) for p in self.weights))
        norm = []
        for tup, cls, shift in self.strata:
            if not isinstance(cls, LExtElement) or cls.ring is not self.bring:
                raise UsageError("stratum class not in the datum's ring")
            norm.append((tuple(tup), cls, Fraction(shift)))
        object.__setattr__(self, "strata", tuple(norm))
        if all(p >= 0 for p in self.weights):
            for _, _, shift in self.strata:
                if shift < 0:
                    raise UsageError(
                        f"negative shift {shift} with non-negative weights")


def orbifold_class_from_datum(datum: OrbifoldDatum) -> LExtElement:
    """Sum over strata of quotientClass * L^shift, after checking every
    stratum label is a genuine commuting-tuple class of the group."""
    total = lext(datum.bring, ())
    for tup, cls, shift in datum.strata:
        _check_tuple_label(datum.group, tup, datum.k)
        total = total + cls * L(datum.bring, shift)
    return total


def _check_tuple_label(G: FiniteGroup, tup, k: int) -> None:
    from .groups import commuting_tuple_classes
    if len(tup) != k:
        raise UsageError(f"unknown tuple-class label {tup}: wrong length")
    if not all(isinstance(g, int) and 0 <= g < G.order for g in tup):
        raise UsageError(f"unknown tuple-class label {tup}: bad indices")
    for i, g in enumerate(tup):
        for h in tup[i + 1:]:
            if G.mul(g, h) != G.mul(h, g):
                raise UsageError(
                    f"unknown tuple-class label {tup}: entries do not commute")
    reps = {t.entries for t, _ in
            commuting_tuple_classes(G, k, TUPLE_LABEL_BUDGET)}
    # walk the simultaneous-conjugation orbit until a class representative
    # shows up; commuting tuples always reach one
    seen = {tuple(tup)}
    frontier = [tuple(tup)]
    while frontier:
        if seen & reps:
            return
        nxt = []
        for t in frontier:
            for s in G.generators:
                image = tuple(G.conj(g, s) for g in t)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    raise UsageError(f"unknown tuple-class label {tup}")


def datum_from_biset(X: BiSet, k: int, weights=None) -> OrbifoldDatum:
    """Shift-zero datum whose strata are the commuting-tuple-class pieces of
    the order-k equivariant characteristic; its total class is the L-free
    embedding of chi_k_equivariant(X, k)."""
    if weights is None:
        weights = (1,) * k
    bring = burnside_ring(X.gB)
    strata = tuple((tup.entries, embed(piece, bring), Fraction(0))
                   for tup, piece in tuple_class_strata(X, k))
    return OrbifoldDatum(X.gO, bring, k, tuple(weights), strata)


# ---------------------------------------------------------------------------
# Macdonald right-hand side with L-weights

def rhs_theorem2(m, k: int, d, weights=None, N: int = 6) -> TruncatedSeries:
    """prod over r_1..r_k with product <= N of
    (1 - L^{Phi_k(r)d/2} t^{r_1...r_k})^{r_2 r_3^2 ... r_k^{k-1}},
    raised to -m under the L-extended power structure."""
    if k < 1:
        raise UsageError(f"order must be >= 1, got {k}")
    d = Fraction(d)
    if d < 0:
        raise UsageError(f"dimension must be >= 0, got {d}")
    if weights is None:
        weights = (1,) * k
    weights = tuple(Fraction(p) for p in weights)
    if len(weights) != k:
        raise UsageError(f"need {k} weights, got {len(weights)}")
    if isinstance(m, BurnsideElement):
        m = embed(m)
    if not isinstance(m, LExtElement):
        raise UsageError(f"unsupported exponent type {type(m).__name__}")
    ring = lext_coeff_ring(m.ring)
    # every mark of L^q·[G/G] is L^q, so all columns are the one product
    shifts = [(phi_k(rs, weights) * d / 2, prod, weight)
              for rs, prod, weight in _index_tuples(k, N)]
    D = lcm(*(q.denominator for q, _, _ in shifts))
    col = binomial_column(ring, [((q.numerator * D // q.denominator, prod), -w)
                                 for q, prod, w in shifts], N)
    return power(TruncatedSeries.from_columns(ring, D, [col] * ring.n), -m)


def _index_tuples(k: int, N: int):
    """(r_1..r_k, product, prod_{j>=2} r_j^{j-1}) with product <= N."""
    def rec(depth, rs, prod, weight):
        if depth == k:
            yield tuple(rs), prod, weight
            return
        r = 1
        while prod * r <= N:
            rs.append(r)
            yield from rec(depth + 1, rs, prod * r, weight * r ** depth)
            rs.pop()
            r += 1
    yield from rec(0, [], 1, 1)
