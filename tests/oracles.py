"""Brute-force routes that the package no longer takes, kept as oracles.

The series engine writes λ-terms as log columns through integer Adams
matrices on marks; these rebuild them two other ways: from classes of
symmetric powers of coset spaces and integer powers of zeta series, and
as products of binomial columns (1 - L^e t^s)^(-n) over the orbit counts
of `orbit_counts` (`orbit_factors`, `binomial_column`).
L-extended elements hold integer exponents over a common denominator; the
references here merge them on `Fraction` keys.
The package multiplies series one mark column at a time; `ElementSeries`
is the element-wise engine it replaced, which multiplies the coefficients
with their own + - *.  `validate_group` checks the group axioms on a flat
Cayley table of G.mul products (the package builds such a table only for
a subgroup lattice, and there row from row, relying on the associativity
checked here), and `validate_subgroup` checks a subgroup's closure by all
|H|² products.  `wreath_power_images` applies the wreath action to one
encoded n-tuple at a time, where the package builds each generator's
images as digit sums.

Independent power oracles: a closed multinomial formula over the integers
(`integer_power_oracle`) and a configuration-space enumeration over A(G)
(`geometric_power_oracle`), which refuses more than 2·10^5 configurations
of one weight (`GEOMETRIC_CONFIG_BUDGET`).  `datum_from_biset` reads a
shift-zero orbifold datum off a biset's commuting-tuple strata, and `age`
sums eigenvalue angles.
The test-only G-set constructors live here too: `product`,
`disjoint_union`, `empty_biset`, `point_biset`, `coset_biset`, the
coset space G/H built by group multiplication, on which an orbit search
is the reference for `orbit_counts`, the whole table of the counts the
package reads off the subgroup lattice only below each class, and
`transitive_bisets`, one biset (G_O × G_B)/K of every orbit type."""

import itertools
import random
import time
from fractions import Fraction
from math import factorial, lcm

from equichar.burnside import burnside_ring, class_of
from equichar.errors import InvariantViolation, ResourceLimitError, UsageError
from equichar.euler import tuple_class_strata
from equichar.groups import (FiniteGroup, Subgroup, _reduce_generators,
                             closure, subgroup_lattice)
from equichar.groups import product as group_product
from equichar.gsets import BiSet, biset_from_single_action, symmetric_power
from equichar.harness import DegreeCheck, VerificationReport
from equichar.motivic import (LExtElement, OrbifoldDatum, embed, lext,
                              lext_coeff_ring)
from equichar.powerstruct import (INT_RING, TruncatedSeries,
                                  burnside_coeff_ring, exp_column, log_coeff,
                                  power)

GEOMETRIC_CONFIG_BUDGET = 200_000


def binomial_column(ring, factors, N):
    """The product of (1 - L^e t^s)^(-n) over the items ((e, s), n) of
    factors to t^N, as one column of the ring handle's entries."""
    return exp_column(ring, [ring.entry(log_coeff(factors, j))
                             for j in range(1, N + 1)])


def orbit_counts(R):
    """counts[h][k][d]: the number of K-orbits of size d on G/H_h for the
    class K = H_k, for every pair of classes of the Burnside ring R."""
    return [[R._orbits(h, k) for k in range(R.n)] for h in range(R.n)]


def orbit_factors(ring, terms, g):
    """{(e, s): n} per class K: the factors (1 - L^e t^s)^(-n) of the product
    of lambda_x(L^e t^(i/g)) over the triples (e, x, i) in terms.  If K has
    n_d orbits of size d on x, they put (1 - L^(e·d) t^(i·d/g))^(-n_d)."""
    counts = orbit_counts(ring.bring)
    factors = [{} for _ in range(ring.n)]
    for e, x, i in terms:
        for h, c in enumerate(x.coeffs):
            for f, row in zip(factors, counts[h] if c else ()):
                for d, m in row.items():
                    key = e * d, i // g * d
                    f[key] = f.get(key, 0) + c * m
    return factors


def _coset_action(G: FiniteGroup, K) -> tuple[int, list[tuple[int, ...]]]:
    """The number of cosets gK of the subgroup K, in order of their least
    element, and each generator of G's permutation of them."""
    reps: list[int] = []   # the least element of each coset gK
    index: dict[int, int] = {}
    for g in G.elements():
        if g not in index:
            index.update((G.mul(g, k), len(reps)) for k in K.elements)
            reps.append(g)
    return len(reps), [tuple(index[G.mul(s, r)] for r in reps)
                       for s in G.generators]


def coset_biset(ring, i: int) -> BiSet:
    """The transitive G-set G/H_i (B side), its points the cosets in
    order of their least element."""
    size, perms = _coset_action(ring.group, ring.lattice.classes[i])
    return biset_from_single_action(size, ring.group, perms, side="B")


def transitive_bisets(gO: FiniteGroup, gB: FiniteGroup) -> list[BiSet]:
    """(G_O × G_B)/K for one K per class of subgroups of the product, so
    one biset of every orbit type: the product's first generators, G_O's,
    act on the O side and the rest on the B side.  Each is validated."""
    P = group_product(gO.descriptor, gB.descriptor)
    split = len(gO.generators)
    out = []
    for K in subgroup_lattice(P).classes:
        size, perms = _coset_action(P, K)
        X = BiSet(size, gO, gB, perms[:split], perms[split:])
        X.validate()
        out.append(X)
    return out


def symmetric_power_class(R, i, k):
    """class_of(S^k(G/H_i)), the t^k coefficient of zeta_{[G/H_i]}."""
    return class_of(symmetric_power(coset_biset(R, i), k))


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
# group axioms by brute force

def validate_group(G, samples=100_000, exhaustive_limit=256, seed=0):
    """Identity, inverses and associativity (exhaustive below the limit via
    a flat Cayley table, randomized triples above); generators must
    generate."""
    for a in list(G.elements())[:exhaustive_limit]:
        if G.mul(0, a) != a or G.mul(a, 0) != a:
            raise InvariantViolation(f"identity fails at {a}")
        if G.mul(a, G.inv(a)) != 0 or G.mul(G.inv(a), a) != 0:
            raise InvariantViolation(f"inverse fails at {a}")
    if G.order <= exhaustive_limit:
        t = [tuple(G.mul(a, b) for b in G.elements()) for a in G.elements()]
        # row a·b lists (a·b)·x; a's row read through b's lists a·(b·x)
        if any(t[ab] != tuple(row[x] for x in t[b])
               for row in t for b, ab in enumerate(row)):
            raise InvariantViolation("associativity fails")
    else:
        rng = random.Random(seed)
        for _ in range(samples):
            a = rng.randrange(G.order)
            b = rng.randrange(G.order)
            c = rng.randrange(G.order)
            if G.mul(G.mul(a, b), c) != G.mul(a, G.mul(b, c)):
                raise InvariantViolation(f"associativity fails at {(a, b, c)}")
    G._word_table  # raises if generators do not generate


def validate_subgroup(H):
    """H's elements contain the identity and are closed under inverses and
    products, and its stored generators generate exactly them."""
    G, s = H.parent, set(H.elements)
    if G.identity not in s:
        raise InvariantViolation("subgroup lacks identity")
    for a in H.elements:
        if G.inv(a) not in s:
            raise InvariantViolation("subgroup not closed under inverse")
        for b in H.elements:
            if G.mul(a, b) not in s:
                raise InvariantViolation("subgroup not closed under product")
    if closure(G, H.generators) != H.elements:
        raise InvariantViolation("stored generators do not generate subgroup")


# ---------------------------------------------------------------------------
# commuting tuples by brute force

def conj(G, x, g):
    """g^-1 x g, from G's own products."""
    return G.mul(G.mul(G.inv(g), x), g)


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
            u = tuple(conj(G, x, g) for x in t)
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
    _, small = _reduce_generators(G.mul, gens, len(elems))
    return Subgroup(G, elems, small)


def encode_tuple(tup, radix):
    """The point of X^n holding the n-tuple tup: its base-|X| numeral."""
    x = 0
    for v in tup:
        x = x * radix + v
    return x


def wreath_power_images(W, g, inner_act, radix):
    """Images of all points of X^n, |X| = radix, under g = (a,σ) of
    W = G≀S_n by ((a,σ)·x)_i = a_i·x_{σ⁻¹(i)}; inner_act(a, v) is the
    action of G on X."""
    vec, r = W.decode(g)
    sigma_inv = W.top.inverse_perms[r]
    return [encode_tuple([inner_act(vec[i], t[sigma_inv[i]])
                          for i in range(W.n)], radix)
            for t in itertools.product(range(radix), repeat=W.n)]


def element_order(G, g):
    n, x = 1, g
    while x != 0:
        x = G.mul(x, g)
        n += 1
    return n


# ---------------------------------------------------------------------------
# power structures by closed formula and by configuration spaces

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


def geometric_power_oracle(a_sets: list[BiSet], M: BiSet, N: int
                           ) -> TruncatedSeries:
    """(1 + [A_1]t + ... + [A_j]t^j)^{[M]} computed from configuration
    spaces: the t^k coefficient is the class of the G-set of pairs
    (finite subset K of M, labeling K -> union A_i) of total weight k."""
    if not a_sets:
        raise UsageError("need at least one coefficient G-set")
    G = M.gB
    for A in a_sets:
        if A.gB is not G:
            raise UsageError("coefficient sets and M must share the B-side group")
    bring = burnside_ring(G)
    ring = burnside_coeff_ring(bring)
    coeffs = [ring.one]
    for k in range(1, N + 1):
        configs = _weight_configs(a_sets, M, k)
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


def _weight_configs(a_sets, M, k):
    """All configurations of total weight k, canonically sorted."""
    out = []

    def rec(pos, weight, acc):
        if len(out) > GEOMETRIC_CONFIG_BUDGET:
            raise ResourceLimitError("geometric power configurations",
                                     size=len(out),
                                     budget=GEOMETRIC_CONFIG_BUDGET)
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


# ---------------------------------------------------------------------------
# G-sets and orbifold data built by hand

def product(X: BiSet, Y: BiSet) -> BiSet:
    """Cartesian product with both diagonal actions."""
    _require_same_groups(X, Y)
    size = X.size * Y.size

    def lifted(xacts, yacts):
        out = []
        for xa, ya in zip(xacts, yacts):
            out.append(tuple(xa[p] * Y.size + ya[q]
                             for p in range(X.size) for q in range(Y.size)))
        return out

    actO = lifted(X.actO, Y.actO)
    actB = lifted(X.actB, Y.actB)
    return BiSet(size, X.gO, X.gB, actO, actB)


def disjoint_union(X: BiSet, Y: BiSet) -> BiSet:
    _require_same_groups(X, Y)
    size = X.size + Y.size

    def shifted(xacts, yacts):
        return [tuple(xa) + tuple(q + X.size for q in ya)
                for xa, ya in zip(xacts, yacts)]

    actO = shifted(X.actO, Y.actO)
    actB = shifted(X.actB, Y.actB)
    return BiSet(size, X.gO, X.gB, actO, actB)


def empty_biset(gO: FiniteGroup, gB: FiniteGroup) -> BiSet:
    return BiSet(0, gO, gB,
                 [()] * len(gO.generators), [()] * len(gB.generators))


def point_biset(gO: FiniteGroup, gB: FiniteGroup) -> BiSet:
    return BiSet(1, gO, gB,
                 [(0,)] * len(gO.generators), [(0,)] * len(gB.generators))


def _require_same_groups(X: BiSet, Y: BiSet) -> None:
    if X.gO is not Y.gO or X.gB is not Y.gB:
        raise UsageError("operands carry different groups")


def age(angles) -> Fraction:
    """Sum of the eigenvalue angles theta_j, each in [0, 1)."""
    total = Fraction(0)
    for theta in angles:
        theta = Fraction(theta)
        if not 0 <= theta < 1:
            raise UsageError(f"angle {theta} outside [0, 1)")
        total += theta
    return total


def datum_from_biset(X: BiSet, k: int, weights=None) -> OrbifoldDatum:
    """Shift-zero datum whose strata are the commuting-tuple-class pieces of
    the order-k equivariant characteristic; its total class is the L-free
    embedding of chi_k_equivariant(X, k)."""
    if weights is None:
        weights = (1,) * k
    bring = burnside_ring(X.gB)
    strata = tuple((tup, embed(piece), Fraction(0))
                   for tup, piece in tuple_class_strata(X, k))
    return OrbifoldDatum(X.gO, bring, k, tuple(weights), strata)


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
