"""Burnside coefficients extended by rational powers of a formal symbol L.

Elements of A(G)[L^{±1/D}] are finite sums of L^q * (Burnside class) with
qD integral.  An element is held at its marks, as a Burnside element and a
series column are: its least D, to which `LExtElement` reduces any D it is
built with, and, per subgroup class, a Laurent polynomial {e: mark} in
L^(1/D), so +, - and * run mark by mark over lcm(D1, D2) through the
handle's `axpy` and `dot`.  Its basis coefficients are back-substituted
in one pass over every exponent when read (`coeffs`), which is how a
series' factor is checked integral, and its pairs (e, c), meaning
L^(e/D) * c, are built from them only to be read (`pairs`, `terms`).
Exponents are `Fraction`s only where they enter or leave (`lext`, `L`,
`terms`, rendering and shifts) and in the slopes `laurent_terms` bounds a
power by.  The lambda-structure extends the Burnside one by the scaling
rule zeta_{L^q b}(t) = zeta_b(L^q t), which makes the substitution law
(A(L^s t))^m = (A(t))^m |_{t -> L^s t} hold for the factorization power.

Geometric classes (of varieties, quotients, fixed loci) are never computed
here: orbifold data carry user-supplied classes and shifts, and this module
only does the exact ring and series bookkeeping on top of them.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, lcm

from .burnside import BurnsideElement, BurnsideRing
from .errors import (UsageError, check_budget, check_int, exact_div,
                     parse_fraction)
from .groups import FiniteGroup, check_order
from .powerstruct import (INT_RING, TruncatedSeries, _lift, exponent_tuples,
                          lambda_term, least_denominator, log_coeff, power)

LAURENT_PRODUCT_BUDGET = 10 ** 8   # term products rebuilding an L-power


# ---------------------------------------------------------------------------
# the extended ring

class LExtElement:
    """Finite sum of L^(e/D) * c with c in A(G), held at its marks: D and
    cols, per class a Laurent polynomial {e: mark} with no zero entry, never
    mutated.  The constructor takes any D and reduces it to the least one
    (`least_denominator`), so gcd(D, every e) = 1 and D = 1 for zero.
    `coeffs`, per class {e: basis coefficient}, is back-substituted on
    first read and kept, as `BurnsideElement.coeffs` is, and `pairs`, the
    (e, c) sorted by e with no zero c, is built from it when read."""

    __slots__ = ("ring", "D", "cols", "_coeffs", "_pairs")

    def __init__(self, ring: BurnsideRing, D: int, cols):
        D, (cols,) = least_denominator(D, (cols,))
        self.ring, self.D, self.cols = ring, D, tuple(cols)
        self._coeffs = self._pairs = None

    @property
    def coeffs(self) -> tuple:
        """Per class, {e: coefficient of [G/H]}, by one back-substitution
        over the table of marks for every exponent at once."""
        if self._coeffs is None:
            rows, down = self.ring.marks_rows, self.ring._down_sets()
            residue, out = [dict(x) for x in self.cols], [{}] * self.ring.n
            for i, row in reversed([*enumerate(rows)]):
                q = out[i] = {e: exact_div(r, row[i], "a basis coefficient")
                              for e, r in residue[i].items() if r}
                for j in down[i][:-1] if q else ():   # the classes below i
                    x, mark = residue[j], row[j]
                    for e, c in q.items():
                        x[e] = x.get(e, 0) - c * mark
            self._coeffs = tuple(out)
        return self._coeffs

    @property
    def pairs(self) -> tuple:
        if self._pairs is None:
            self._pairs = tuple(
                (e, BurnsideElement(
                    self.ring, tuple(x.get(e, 0) for x in self.cols),
                    tuple(x.get(e, 0) for x in self.coeffs)))
                for e in sorted(set().union(*self.cols)))
        return self._pairs

    @property
    def terms(self) -> tuple:
        """The (Fraction exponent, coefficient) pairs."""
        return tuple((Fraction(e, self.D), c) for e, c in self.pairs)

    def __eq__(self, other):
        return isinstance(other, LExtElement) and self.ring is other.ring \
            and self.D == other.D and self.cols == other.cols

    def __hash__(self) -> int:
        return hash((self.D, *map(frozenset, map(dict.items, self.cols))))

    def _over(self, other) -> tuple:
        """lcm(D1, D2) and both elements' columns over it, zipped."""
        self._check(other)
        D = lcm(self.D, other.D)
        return D, zip(_lift(self.cols, D // self.D),
                      _lift(other.cols, D // other.D))

    def __add__(self, other: LExtElement, k: int = 1) -> LExtElement:
        D, xys = self._over(other)
        return LExtElement(self.ring, D, [LExtCoeffRing.axpy(x, k, y)
                                          for x, y in xys])

    def __neg__(self) -> LExtElement:
        return self * -1

    def __sub__(self, other: LExtElement) -> LExtElement:
        return self.__add__(other, -1)

    def __mul__(self, other):
        if type(other) is int:
            return LExtElement(self.ring, self.D, [
                LExtCoeffRing.axpy({}, other, x) for x in self.cols])
        D, xys = self._over(other)
        self.ring.check_products()
        return LExtElement(self.ring, D, [LExtCoeffRing.dot((x,), (y,))
                                          for x, y in xys])

    def __rmul__(self, other):
        return self * other if type(other) is int else NotImplemented

    def __bool__(self) -> bool:
        return any(self.cols)

    def render(self) -> str:
        parts = []
        for q, c in self.terms:
            head = "L" if q == 1 else \
                (f"L^{q}" if q.denominator == 1 else f"L^({q})")
            parts.append(c.render() if q == 0 else head if c == self.ring.unit
                         else f"{head}*({c.render()})")
        return " + ".join(parts) or "0"

    def _check(self, other) -> None:
        if not isinstance(other, LExtElement) or other.ring is not self.ring:
            raise UsageError("mixed L-extended rings")

    def __repr__(self) -> str:
        return f"<LExt {self.render()}>"


def lext(bring: BurnsideRing, pairs) -> LExtElement:
    """The element sum of L^q * c over (rational q, c in bring) pairs."""
    pairs = [(parse_fraction(q), c) for q, c in pairs]
    D = lcm(*(q.denominator for q, _ in pairs))
    cols = [{} for _ in range(bring.n)]
    for q, c in pairs:
        if not isinstance(c, BurnsideElement) or c.ring is not bring:
            raise UsageError("elements of different Burnside rings")
        e = q.numerator * (D // q.denominator)
        for x, mark in zip(cols, c.marks()):
            x[e] = x.get(e, 0) + mark
    return LExtElement(bring, D, [LExtCoeffRing.entry(x) for x in cols])


def embed(x: BurnsideElement) -> LExtElement:
    """A Burnside class at exponent zero."""
    if not isinstance(x, BurnsideElement):
        raise UsageError(f"cannot embed {type(x).__name__}")
    return LExtElement(x.ring, 1, [{0: m} if m else {} for m in x.marks()])


def L(bring: BurnsideRing, q=1) -> LExtElement:
    return lext(bring, ((q, bring.unit),))


def specialize_L(a: LExtElement) -> BurnsideElement:
    """The ring map L -> 1 onto A(G)."""
    return a.ring.from_marks([sum(x.values()) for x in a.cols])


# ---------------------------------------------------------------------------
# lambda-structure handle for the series engine

class LExtCoeffRing:
    """Generators are pairs (exponent q, basis class index); lambda-terms
    follow the scaling rule zeta_{L^q b}(t) = zeta_b(L^q t).  A
    coefficient's column entries are its `cols`."""

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
        """sum of x*y over paired {e: int} Laurent polynomials; a single
        pair with a one-term side, L^e times a mark, is a shift."""
        if len(xs) == 1:
            x, y = (ys[0], xs[0]) if len(ys[0]) == 1 else (xs[0], ys[0])
            if len(x) == 1:
                [(e, c)] = x.items()
                return {e + f: c * d for f, d in y.items()}
        acc: dict = {}
        for x, y in zip(xs, ys):
            for e, c in x.items():
                for f, d in y.items():
                    acc[e + f] = acc.get(e + f, 0) + c * d
        return {e: c for e, c in acc.items() if c}

    def entries(self, c: LExtElement):
        self.one._check(c)
        return c.D, c.cols

    def element(self, D: int, entries) -> LExtElement:
        out = LExtElement(self.bring, D, entries)
        out.coeffs   # one pass checks every exponent integral; no `pairs`
        return out

    def add_psi(self, cols, pos: int, k: int, xs, r: int) -> None:
        if r == 1:   # psi^1 is the identity, U^1 = I
            for h, x in zip(cols, xs):
                if x:
                    h[pos] = self.axpy(h[pos], k, x)
            return
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
    if [sorted(c.coeffs) for _, c in b.pairs] != [[0] * (b.ring.n - 1) + [1]]:
        raise UsageError("zeta_L needs a single L^q*[G/H] generator")
    return lambda_term(lext_coeff_ring(b.ring), b, 1, N)


def laurent_terms(coeffs, m: LExtElement) -> list:
    """Bounds T_0..T_N on the Laurent terms an entry of A^m holds at each
    degree, for A the series with coefficients coeffs = c_0..c_N.  Each of
    c_j and A's t^j log entry is a polynomial in the other (j·c_j = sum
    h_i·c_(j-i)), so over D = lcm(m.D, every c_j.D) both have exponents
    within j·[lo, hi] for the same least and greatest slopes, and so do
    A's factor entries b_j; m's lie within [u, v]; and lambda_{L^q b}(t^i)
    puts r·q on t^(i·r).  So the t^j exponents of A^m lie within
    [j·lo + min(u, j·u), j·hi + max(v, j·v)]."""
    D = lcm(m.D, *(c.D for c in coeffs))
    slopes = [Fraction(e * (D // c.D), j) for j, c in enumerate(coeffs)
              if j for x in c.cols for e in x]
    es = [e * (D // m.D) for x in m.cols for e in x]
    if not slopes or not es:   # A^m = 1
        return [1] * len(coeffs)
    lo, hi, u, v = min(slopes), max(slopes), min(es), max(es)
    return [1] + [floor(j * hi + max(v, j * v)) -
                  ceil(j * lo + min(u, j * u)) + 1
                  for j in range(1, len(coeffs))]


def check_laurent_products(coeffs, m: LExtElement) -> None:
    """Refuse A^m, for A the series with coefficients coeffs = c_0..c_N,
    before any series work, when rebuilding its coefficients from its logs
    could take more than LAURENT_PRODUCT_BUDGET products of Laurent terms:
    at each of the n marks, the t^j entry sums g_i·f_(j-i) over i = 1..j,
    at most T_i·T_(j-i) term products (`laurent_terms`)."""
    T, N = laurent_terms(coeffs, m), len(coeffs) - 1
    products = m.ring.n * sum(T[i] * T[j - i] for j in range(1, N + 1)
                              for i in range(1, j + 1))
    check_budget(f"Laurent-term products of the power at N = {N}, "
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
