"""Brute-force routes that the package no longer takes, kept as oracles.

The series engine reads λ-terms off orbit counts; these rebuild them the
old way, from classes of symmetric powers of coset spaces and integer
powers of zeta series.  L-extended elements hold integer exponents over a
common denominator; the references here merge them on `Fraction` keys.
The package multiplies series one mark column at a time; `ElementSeries`
is the element-wise engine it replaced, which multiplies the coefficients
with their own + - *."""

import random
import time
from fractions import Fraction
from math import lcm

from equichar.burnside import class_of
from equichar.errors import ResourceLimitError, UsageError
from equichar.groups import (Subgroup, _reduce_generators, closure,
                             subgroup_lattice)
from equichar.gsets import symmetric_power
from equichar.harness import DegreeCheck, VerificationReport
from equichar.motivic import LExtElement, lext, lext_coeff_ring
from equichar.powerstruct import (INT_RING, TruncatedSeries,
                                  binomial_column, integer_power_oracle,
                                  orbit_factors, power)


def symmetric_power_class(R, i, k):
    """class_of(S^k(G/H_i)), the t^k coefficient of zeta_{[G/H_i]}."""
    return class_of(symmetric_power(R.coset_biset(i), k))


def lambda_oracle(ring, c, i, N):
    """lambda_c(t^i) as the product over generator coordinates n of c of
    zeta(t^i)^n, each zeta built from symmetric-power classes."""
    if ring is INT_RING:
        gens = [(None, c)]
    elif isinstance(c, LExtElement):
        gens = [((q, h), n) for q, b in c.terms
                for h, n in enumerate(b.coeffs)]
    else:
        gens = list(enumerate(c.coeffs))
    out = ElementSeries.one(ring, N)
    for key, n in gens:
        if not n:
            continue
        coeffs = [ring.zero] * (N + 1)
        for j in range(N // i + 1):
            if ring is INT_RING:
                coeffs[i * j] = 1
            elif isinstance(key, tuple):
                q, h = key
                coeffs[i * j] = lext(ring.bring, (
                    (q * j, symmetric_power_class(ring.bring, h, j)),))
            else:
                coeffs[i * j] = symmetric_power_class(ring.bring, key, j)
        out = out.mul(ElementSeries(ring, coeffs).pow_int(n))
    return out


def lambda_marks(ring, terms, i, N):
    """lambda_c(t^i) for c = sum of L^e·x over the pairs (e, x) in terms,
    one column of the handle's entries per class K, built in t itself."""
    return [binomial_column(ring, f.items(), N) for f in
            orbit_factors(ring, [(e, x, i) for e, x in terms], 1)]


def _pack(bring, cols, j):
    """(exponent, element) pairs of degree j of lambda_marks columns."""
    return [(e, bring.from_marks([col[j].get(e, 0) for col in cols]))
            for e in set().union(*(col[j] for col in cols))]


def lambda_coeffs_reference(ring, c, i, N):
    """lambda_c(t^i) packed into ring elements one degree at a time."""
    if ring is INT_RING:
        return tuple(binomial_column(INT_RING, [((0, i), c)], N))
    bring = ring.bring
    if isinstance(c, LExtElement):
        cols = lambda_marks(ring, c.terms, i, N)
        return tuple(lext(bring, _pack(bring, cols, j))
                     for j in range(N + 1))
    cols = lambda_marks(ring, [(0, c)], i, N)
    return tuple(bring.from_marks([col[j] for col in cols])
                 for j in range(N + 1))


def lext_reference(pairs):
    """(D, terms) of the sum of L^q * c over (rational q, c) pairs, merged
    on `Fraction` keys: terms sorted by q with no zero c, D the lcm of the
    denominators."""
    acc = {}
    for q, c in pairs:
        q = Fraction(q)
        acc[q] = acc[q] + c if q in acc else c
    terms = tuple(sorted((q, c) for q, c in acc.items() if c))
    return lcm(1, *(q.denominator for q, _ in terms)), terms


def lext_lambda_reference(bring, terms, i, N):
    """lambda_c(t^i) for c = sum of L^q * x over (Fraction q, x) terms, with
    the orbit-count route run on `Fraction` exponents, one (D, terms) per
    degree."""
    cols = lambda_marks(lext_coeff_ring(bring), terms, i, N)
    return [lext_reference(_pack(bring, cols, j)) for j in range(N + 1)]


def exponent_coeff(a, q):
    """The coefficient of L^q in an L-extended element."""
    return dict(a.terms).get(Fraction(q), a.ring.zero)


# ---------------------------------------------------------------------------
# the element-wise series engine

class ElementSeries:
    """Coefficients c_0..c_N as ring elements, multiplied with their own
    + - * and `not c` as the zero test; eagerly truncated at N."""

    def __init__(self, ring, coeffs):
        self.ring, self.coeffs = ring, tuple(coeffs)

    @property
    def N(self):
        return len(self.coeffs) - 1

    @staticmethod
    def one(ring, N):
        return ElementSeries(ring, (ring.one,) + (ring.zero,) * N)

    def is_one(self):
        return self.coeffs[0] == self.ring.one and not any(self.coeffs[1:])

    def mul(self, other):
        r = self.ring
        out = []
        for j in range(self.N + 1):
            acc = r.zero
            for i in range(j + 1):
                a, b = self.coeffs[i], other.coeffs[j - i]
                if a and b:
                    acc = acc + a * b
            out.append(acc)
        return ElementSeries(r, out)

    def invert(self):
        r = self.ring
        if self.coeffs[0] != r.one:
            raise UsageError("inversion needs constant coefficient 1")
        out = [r.one]
        for j in range(1, self.N + 1):
            acc = r.zero
            for i in range(1, j + 1):
                if self.coeffs[i]:
                    acc = acc + self.coeffs[i] * out[j - i]
            out.append(-acc)
        return ElementSeries(r, out)

    def pow_int(self, n):
        base = self if n >= 0 else self.invert()
        result = ElementSeries.one(self.ring, self.N)
        for _ in range(abs(n)):
            result = result.mul(base)
        return result

    def substitute(self, c, r):
        """t -> c * t^r."""
        ring = self.ring
        out = [ring.zero] * (self.N + 1)
        cpow = ring.one
        for i in range(self.N // r + 1):
            out[i * r] = cpow * self.coeffs[i]
            cpow = cpow * c
        return ElementSeries(ring, out)

    def truncate(self, M):
        return ElementSeries(self.ring, self.coeffs[:M + 1])


def lambda_term_reference(ring, c, i, N):
    return ElementSeries(ring, lambda_coeffs_reference(ring, c, i, N))


def factorize_reference(A):
    """b_1..b_N with A = prod_i lambda_{b_i}(t^i), matched degree by
    degree on elements."""
    residual, out = A, []
    for i in range(1, A.N + 1):
        b = residual.coeffs[i]
        out.append(b)
        if b:
            residual = residual.mul(lambda_term_reference(A.ring, -b, i, A.N))
    assert residual.is_one()
    return out


def power_reference(A, m):
    out = ElementSeries.one(A.ring, A.N)
    for i, b in enumerate(factorize_reference(A), start=1):
        if m * b:
            out = out.mul(lambda_term_reference(A.ring, m * b, i, A.N))
    return out


# ---------------------------------------------------------------------------
# commuting tuples by brute force

def commuting_tuples_naive(G, k, budget=2_000_000):
    """All commuting k-tuples by brute force (test oracle for small groups)."""
    out = []

    def extend(prefix, pool):
        if len(prefix) == k:
            out.append(prefix)
            if len(out) > budget:
                raise ResourceLimitError("commuting tuples",
                                         size=len(out), budget=budget)
            return
        for g in pool:
            sub = [h for h in pool if G.mul(g, h) == G.mul(h, g)]
            extend(prefix + (g,), sub)

    extend((), list(G.elements()))
    return out


def commuting_tuple_classes_naive(G, k):
    """Orbits of commuting k-tuples under conjugation by every group element;
    quadratic test oracle."""
    tuples = commuting_tuples_naive(G, k)
    index = {t: i for i, t in enumerate(tuples)}
    parent = list(range(len(tuples)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for t, i in index.items():
        for g in G.elements():
            u = tuple(G.conj(x, g) for x in t)
            j = find(index[u])
            ri = find(i)
            if ri != j:
                parent[max(ri, j)] = min(ri, j)
    groups = {}
    for t, i in index.items():
        groups.setdefault(find(i), []).append(t)
    out = [(min(ts), len(ts)) for ts in groups.values()]
    out.sort()
    return out


def subgroups_up_to_conjugacy(G):
    """Canonical subgroup-class representatives; trivial first, G last."""
    return list(subgroup_lattice(G).classes)


def subgroup_from_generators(G, gens):
    """Closure plus greedy reduction to a small generating set."""
    elems = closure(G, gens)
    _, small = _reduce_generators(G, gens, len(elems))
    return Subgroup(G, elems, small)


def element_order(G, g):
    n, x = 1, g
    while x != 0:
        x = G.mul(x, g)
        n += 1
    return n


# ---------------------------------------------------------------------------
# randomized check of the factorization power over Z

def verify_integer_oracle(trials: int = 200, N: int = 8,
                          seed: int = 0) -> VerificationReport:
    """Factorization power against the closed multinomial formula."""
    rng = random.Random(seed)
    t0 = time.perf_counter()
    good = 0
    for _ in range(trials):
        A = TruncatedSeries(INT_RING, tuple(
            [1] + [rng.randint(-4, 4) for _ in range(N)]))
        m = rng.randint(-6, 6)
        good += power(A, m) == integer_power_oracle(A, m)
    report = VerificationReport(
        "integer-oracle", {"trials": trials, "N": N, "seed": seed})
    report.degrees.append(DegreeCheck(
        1, "factorization power = multinomial formula",
        f"{good}/{trials} trials", good == trials,
        (time.perf_counter() - t0) * 1000))
    return report
