"""Power structures on 1 + t·R[[t]] via lambda-ring factorization.

Every series with unit constant term factors uniquely as a product of
lambda-series prod_i lambda_{b_i}(t^i); raising to a ring exponent m
rescales every factor exponent to m·b_i.  The construction satisfies the
power structure axioms exactly, so the randomized axiom checks validate the
factorization engine rather than approximate identities.

Lambda-terms come from orbit counts: if x in A(G) has n_{K,d} orbits of
size d under a class K, the mark at K of lambda_x(t^i) is prod_d
(1 - t^(i·d))^(-n_{K,d}), over Z it is (1 - t^i)^(-c), and a term L^q·x of
A(G)[L^Q] puts L^(q·d) on each t^(i·d).  Each mark vector is checked
integral over the basis by `BurnsideRing.from_marks`.

Coefficients are exact integers, Burnside elements or L-extended elements,
and the engine uses their own + - * with `not c` as the zero test.  A ring
handle supplies only what an element cannot tell: zero, one, a label and
the coefficients of a lambda-term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .burnside import BurnsideElement, BurnsideRing, burnside_ring, class_of
from .errors import InvariantViolation, ResourceLimitError, UsageError
from .gsets import BiSet, biset_from_single_action

GEOMETRIC_CONFIG_BUDGET = 200_000


# ---------------------------------------------------------------------------
# lambda-terms and coefficient-ring handles

def binomial_product(factors, N: int) -> list[dict]:
    """prod over ((e, s), n) of (1 - L^e t^s)^(-n) to t^N, one {e: int} per
    degree: a factor's t^(sk) term is n(n+1)...(n+k-1)/k! L^(ek), any n."""
    out = [{0: 1}] + [{} for _ in range(N)]
    for (e, s), n in factors:
        b, new = 1, [dict(p) for p in out]
        for k in range(1, N // s + 1):
            b = b * (n + k - 1) // k
            for src, dst in zip(out, new[s * k:]):
                for x, v in src.items():
                    dst[x + e * k] = dst.get(x + e * k, 0) + b * v
        out = new
    return out


def lambda_marks(bring: BurnsideRing, terms, i: int, N: int) -> list[dict]:
    """lambda_c(t^i) for c = sum of L^e·x over the pairs (e, x) in terms,
    as one {e: element of A(G)} dict per degree."""
    factors = [{} for _ in range(bring.n)]
    for e, x in terms:
        for h, c in enumerate(x.coeffs):
            for f, row in zip(factors, bring.orbit_counts()[h] if c else ()):
                for d, m in row.items():
                    f[e * d, i * d] = f.get((e * d, i * d), 0) + c * m
    cols = [binomial_product(f.items(), N) for f in factors]
    return [{e: bring.from_marks([col[j].get(e, 0) for col in cols])
             for e in set().union(*(col[j] for col in cols))}
            for j in range(N + 1)]


class IntRing:
    """Exact integers; single lambda-generator 1 with zeta = 1/(1-t)."""

    zero = 0
    one = 1
    label = "Z"

    @staticmethod
    def lambda_coeffs(c, i, N):
        return tuple(p.get(0, 0) for p in binomial_product([((0, i), c)], N))


INT_RING = IntRing()


class BurnsideCoeffRing:
    """Handle for A(G), whose lambda-generators are the basis classes."""

    def __init__(self, bring: BurnsideRing):
        self.bring = bring
        self.zero = bring.zero
        self.one = bring.unit
        self.label = f"A({bring.group.label})"

    def lambda_coeffs(self, c, i, N):
        return tuple(p.get(0, self.zero)
                     for p in lambda_marks(self.bring, [(0, c)], i, N))


def burnside_coeff_ring(bring: BurnsideRing) -> BurnsideCoeffRing:
    if "coeff_ring" not in bring._memo:
        bring._memo["coeff_ring"] = BurnsideCoeffRing(bring)
    return bring._memo["coeff_ring"]


# ---------------------------------------------------------------------------
# truncated series

@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c_0..c_N over a coefficient-ring handle; all arithmetic
    is exact and eagerly truncated at N."""

    ring: object
    coeffs: tuple

    @property
    def N(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, i: int):
        return self.coeffs[i]

    @staticmethod
    def one(ring, N: int) -> TruncatedSeries:
        return TruncatedSeries(ring, (ring.one,) + (ring.zero,) * N)

    def is_one(self) -> bool:
        return self.coeffs[0] == self.ring.one and not any(self.coeffs[1:])

    def mul(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check(other)
        r = self.ring
        n = self.N
        out = []
        for j in range(n + 1):
            acc = r.zero
            for i in range(j + 1):
                a, b = self.coeffs[i], other.coeffs[j - i]
                if not a or not b:
                    continue
                acc = acc + a * b
            out.append(acc)
        return TruncatedSeries(r, tuple(out))

    def invert(self) -> TruncatedSeries:
        r = self.ring
        if self.coeffs[0] != r.one:
            raise UsageError("inversion needs constant coefficient 1")
        out = [r.one]
        for j in range(1, self.N + 1):
            acc = r.zero
            for i in range(1, j + 1):
                if not self.coeffs[i]:
                    continue
                acc = acc + self.coeffs[i] * out[j - i]
            out.append(-acc)
        return TruncatedSeries(r, tuple(out))

    def pow_int(self, n: int) -> TruncatedSeries:
        base = self if n >= 0 else self.invert()
        n = abs(n)
        result = TruncatedSeries.one(self.ring, self.N)
        while n:
            if n & 1:
                result = result.mul(base)
            base = base.mul(base)
            n >>= 1
        return result

    def substitute(self, c, r: int) -> TruncatedSeries:
        """t -> c * t^r."""
        if r < 1:
            raise UsageError(f"substitution power must be >= 1, got {r}")
        ring = self.ring
        out = [ring.zero] * (self.N + 1)
        cpow = ring.one
        for i in range(self.N + 1):
            if i * r > self.N:
                break
            out[i * r] = cpow * self.coeffs[i]
            cpow = cpow * c
        return TruncatedSeries(ring, tuple(out))

    def truncate(self, M: int) -> TruncatedSeries:
        if M > self.N:
            raise UsageError(f"cannot extend truncation {self.N} to {M}")
        return TruncatedSeries(self.ring, self.coeffs[:M + 1])

    def map_coeffs(self, ring, f) -> TruncatedSeries:
        return TruncatedSeries(ring, tuple(f(c) for c in self.coeffs))

    def _check(self, other: TruncatedSeries) -> None:
        if self.ring is not other.ring or self.N != other.N:
            raise UsageError("series over different rings or truncations")

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
    return TruncatedSeries(ring, ring.lambda_coeffs(c, i, N))


def lambda_factorize(A: TruncatedSeries) -> list:
    """Exponents b_1..b_N with A = prod_i lambda_{b_i}(t^i); unique because
    each step matches the lowest-degree coefficient and divides out."""
    ring = A.ring
    if A.coeffs[0] != ring.one:
        raise UsageError("factorization needs constant coefficient 1")
    residual = A
    out = []
    for i in range(1, A.N + 1):
        b = residual.coeffs[i]
        out.append(b)
        if b:
            # lambda_{-b}(t^i) is the exact inverse of lambda_b(t^i)
            residual = residual.mul(lambda_term(ring, -b, i, A.N))
    if not residual.is_one():
        raise InvariantViolation("lambda factorization left a residual")
    return out


def lambda_reconstruct(ring, bs, N: int) -> TruncatedSeries:
    out = TruncatedSeries.one(ring, N)
    for i, b in enumerate(bs, start=1):
        if b:
            out = out.mul(lambda_term(ring, b, i, N))
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
    return TruncatedSeries(INT_RING, tuple(
        p.get(0, 0) for p in binomial_product(factors, N)))


def rhs_theorem1(m, k: int, N: int) -> TruncatedSeries:
    """The Macdonald right-hand side: the base product raised to -m under
    the power structure of m's ring (integers or a Burnside ring)."""
    if k < 0:
        raise UsageError(f"order must be >= 0, got {k}")
    base = rhs_base_series(k, N)
    if isinstance(m, int):
        return power(base, -m)
    if isinstance(m, BurnsideElement):
        ring = burnside_coeff_ring(m.ring)
        lifted = base.map_coeffs(ring, lambda n: n * ring.one)
        return power(lifted, -m)
    raise UsageError(f"unsupported exponent type {type(m).__name__}")
