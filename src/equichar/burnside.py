"""The Burnside ring A(G) of a finite group.

The canonical basis is [G/H], one class per conjugacy class of subgroups.
The mark homomorphism x -> (|x^H|)_H is an injective ring map A(G) -> Z^n,
so an element is stored by its mark vector and +, -, integer scaling and *
work entry by entry.  The table of marks is lower triangular with positive
diagonal in the canonical order, so the basis coefficients are recovered by
exact integer back-substitution, which runs only when they are observed
(`coeffs`, `render`, JSON output) and for `from_marks`.  Every quotient is
taken by `exact_div`, so one that is not an integer raises
`InvariantViolation`.  Before the first product in a ring, the product of
every pair of basis mark rows is back-substituted once; integral results
for all pairs make every product in the ring integral, so a wrong table
cannot pass silently.  Row K vanishes off K's down-set, the classes
subconjugate to K (checked closed under ⊆), and so do the solves below.

The marks come from containment alone.  The g with H^g ⊆ K number
|N_G(H)| = |G| / #conjugates(H) per conjugate of H inside K, and each
fixed coset gK holds |K| of them, so

    |(G/K)^H| = |G| · #{H' ~ H : H' ⊆ K} / (#conjugates(H) · |K|)
              = |G| · #{K' ~ K : H ⊆ K'} / (#conjugates(K) · |K|),

as #conjugates(K)·#{H' ⊆ K} and #conjugates(H)·#{K' ⊇ H} both count the
pairs H' ⊆ K' of conjugates.  The second count tests H's generators against
each conjugate of K in the lattice's index.

The K-orbits of each size on G/H are counted from the same lists (double
cosets, tom Dieck, LNM 766): the coset gH has K-orbit size
[K : K ∩ gHg^-1], and each conjugate of H fixes |G| / (#conjugates(H)·|H|)
cosets.  `adams(r)` solves from the counts, by forward substitution over the
table of marks, the integer matrix U^r taking marks to the orbit sums
psi^r_K = sum_(d|r) d·n_d that λ-terms are written in (see `powerstruct`).
psi^r_K reads a G-set through its restriction to K only, and every orbit
size divides |G|, so U^r = U^(gcd(r, |G|)) with row K on K's down-set.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property
from itertools import chain, compress

from .cells import CellSpace
from .errors import InvariantViolation, UsageError, check_budget, exact_div
from .gsets import BiSet
from .groups import FiniteGroup, SubgroupLattice, subgroup_lattice

MARKS_CLASS_BUDGET = 1024  # subgroup classes: the table holds n² marks


class BurnsideRing:
    """A(G) with the table of marks precomputed over the canonical basis."""

    def __init__(self, G: FiniteGroup, lattice: SubgroupLattice):
        self.group = G
        self.lattice = lattice
        self.n = len(lattice.classes)
        check_budget("table of marks", self.n, MARKS_CLASS_BUDGET)
        self.ksets = [K.element_set() for K in lattice.classes]
        for i, kset in enumerate(self.ksets):
            if lattice.class_index.get(kset) != i:
                raise InvariantViolation(f"class {i} is not indexed as itself")
        if len(set(lattice.class_index.values())) != self.n:
            raise InvariantViolation("class index names a class not listed")
        # per class, the element sets of its conjugates, as the index holds
        self.conjugates = [[] for _ in range(self.n)]
        for elements, i in lattice.class_index.items():
            self.conjugates[i].append(elements)
        held = [(H.order, frozenset(H.generators)) for H in lattice.classes]
        self.marks_rows = tuple(self._marks_row(i, held)
                                for i in range(self.n))
        for i, row in enumerate(self.marks_rows):
            if row[i] <= 0 or any(row[j] for j in range(i + 1, self.n)):
                raise InvariantViolation("table of marks is not lower triangular")
        self._products_checked = False
        self._memo: dict = {}

    def _marks_row(self, i: int, held) -> tuple[int, ...]:
        """|(G/K)^H| for K the i-th class and every class H, from the
        conjugates of K that hold H's generators; held[j] is the j-th
        class's (order, generator set), and the row is 0 from the first
        class above |K|."""
        conj, k = self.conjugates[i], held[i][0]
        row = []
        for order, gens in held:
            if order > k:  # classes ascend by order: none further lies in K
                break
            holding = 0 if k % order else sum(map(gens.issubset, conj))
            row.append(holding and exact_div(self.group.order * holding,
                                             len(conj) * k, "a mark"))
        return tuple(row) + (0,) * (self.n - len(row))

    # -- elements ------------------------------------------------------------

    def element(self, coeffs) -> BurnsideElement:
        coeffs = tuple(coeffs)
        for c in coeffs:  # bools too, as a JSON true is no coefficient
            if type(c) is not int:
                raise UsageError(f"coefficients must be integers, got {c!r}")
        if len(coeffs) != self.n:
            raise UsageError(f"need {self.n} coefficients, got {len(coeffs)}")
        marks = [0] * self.n
        for c, row in zip(coeffs, self.marks_rows):
            if c:
                marks = [m + c * r for m, r in zip(marks, row)]
        return BurnsideElement(self, tuple(marks), coeffs)

    def basis(self, i: int) -> BurnsideElement:
        if type(i) is not int or not 0 <= i < self.n:
            raise UsageError(f"index must name one of the {self.n} basis "
                             f"classes, got {i!r}")
        return self.element(tuple(1 if j == i else 0 for j in range(self.n)))

    @cached_property   # elements are never mutated, so one is shared
    def zero(self) -> BurnsideElement:
        return self.element((0,) * self.n)

    @cached_property
    def unit(self) -> BurnsideElement:
        """[G/G]: the one-point G-set."""
        return self.basis(self.n - 1)

    def from_marks(self, marks) -> BurnsideElement:
        """The element with these marks, checked to lie in A(G) at once."""
        marks = tuple(marks)
        if len(marks) != self.n:
            raise UsageError(f"need {self.n} marks, got {len(marks)}")
        return BurnsideElement(self, marks, self.back_substitute(marks))

    def back_substitute(self, marks) -> tuple[int, ...]:
        """Basis coefficients of a mark vector; exactness is an invariant."""
        residue, down = list(marks), self._down_sets()
        coeffs = [0] * self.n
        for i in range(self.n - 1, -1, -1):
            if residue[i]:
                row = self.marks_rows[i]
                q = coeffs[i] = exact_div(residue[i], row[i],
                                          "a basis coefficient")
                for j in down[i]:
                    residue[j] -= q * row[j]
        return tuple(coeffs)

    def check_products(self) -> None:
        """Back-substitute the product of every pair of basis mark rows
        j <= i on down(j), off which it and each row it subtracts vanish.
        Products are integer combinations of these, so once they are
        integral every product in the ring is."""
        if self._products_checked:
            return
        rows, down = self.marks_rows, self._down_sets()
        for i in range(self.n):
            for j in range(i + 1):
                residue = {m: rows[i][m] * rows[j][m] for m in down[j]}
                for h in reversed(down[j]):
                    q = exact_div(residue[h], rows[h][h],
                                  "a basis coefficient of a product")
                    for m in down[h] if q else ():
                        residue[m] -= q * rows[h][m]
        self._products_checked = True

    def basis_name(self, i: int) -> str:
        if i == self.n - 1:
            return "[G/G]"
        if i == 0:
            return "[G/e]"
        return f"[G/H{i}]"

    def _orbits(self, h: int, k: int) -> Counter:
        """{d: the number of K-orbits of size d on G/H_h}, for K = H_k."""
        conj, kset = self.conjugates[h], self.ksets[k]
        share = exact_div(self.group.order, len(conj) * len(self.ksets[h]),
                          "cosets per conjugate")
        orbits = Counter()
        for meet, m in Counter(len(kset & c) for c in conj).items():
            d = exact_div(len(kset), meet, "an orbit size")
            orbits[d] = exact_div(share * m, d, "an orbit count")
        return orbits

    def _down_sets(self) -> list[tuple[int, ...]]:
        """down[i]: the classes below class i, where row i is nonzero."""
        if "down" not in self._memo:
            down = [tuple(compress(range(self.n), row))
                    for row in self.marks_rows]
            for i, d in enumerate(down):
                if not set(d).issuperset(chain(*map(down.__getitem__, d))):
                    raise InvariantViolation(
                        f"the classes below class {i} are not closed under ⊆")
            self._memo["down"] = down
        return self._memo["down"]

    def adams(self, r: int) -> list[tuple]:
        """Row K of U^r: the (M, u) with psi^r_K(x) = sum u·mark_M(x), where
        psi^r_K(x) = sum_(d|r) d·n_d counts the n_d K-orbits of size d on x.
        Solved once per gcd(r, |G|), row K on down(K), by forward
        substitution over the table of marks; a remainder raises."""
        r = math.gcd(r, self.group.order)
        key = ("adams", r)
        if key not in self._memo:
            down, rows, out = self._down_sets(), self.marks_rows, []
            for K in range(self.n):
                u = [0] * self.n  # rows[h] · u = psi^r_K(G/H_h), h <= K
                for h in down[K]:
                    psi = sum(d * c for d, c in self._orbits(h, K).items()
                              if r % d == 0)
                    u[h] = exact_div(psi - sum(  # u vanishes off down(h)
                        rows[h][M] * u[M] for M in down[h]), rows[h][h],
                        "an Adams matrix entry")
                out.append(tuple((M, u[M]) for M in down[K] if u[M]))
            self._memo[key] = out
        return self._memo[key]

    def __repr__(self) -> str:
        return f"<BurnsideRing A({self.group.label}) rank={self.n}>"


class BurnsideElement:
    """An element of A(G), held by its mark vector.

    Arithmetic works on the marks entry by entry.  `coeffs`, the
    coordinates over the basis [G/H], is computed by back-substitution on
    first access and then kept."""

    __slots__ = ("ring", "_marks", "_coeffs")

    def __init__(self, ring: BurnsideRing, marks: tuple[int, ...],
                 coeffs: tuple[int, ...] | None = None):
        self.ring = ring
        self._marks = marks
        self._coeffs = coeffs

    def marks(self) -> tuple[int, ...]:
        return self._marks

    @property
    def coeffs(self) -> tuple[int, ...]:
        if self._coeffs is None:
            self._coeffs = self.ring.back_substitute(self._marks)
        return self._coeffs

    def _check(self, other) -> None:
        if not isinstance(other, BurnsideElement) or \
                other.ring is not self.ring:
            raise UsageError("elements of different Burnside rings")

    def __eq__(self, other):
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        return self.ring is other.ring and self._marks == other._marks

    def __hash__(self) -> int:
        return hash(self._marks)

    def __add__(self, other: BurnsideElement) -> BurnsideElement:
        self._check(other)
        return BurnsideElement(self.ring, tuple(
            a + b for a, b in zip(self._marks, other._marks)))

    def __neg__(self) -> BurnsideElement:
        return BurnsideElement(self.ring, tuple(-a for a in self._marks))

    def __sub__(self, other: BurnsideElement) -> BurnsideElement:
        return self + (-other)

    def __mul__(self, other):
        if type(other) is int:
            return BurnsideElement(self.ring,
                                   tuple(other * a for a in self._marks))
        self._check(other)
        self.ring.check_products()
        return BurnsideElement(self.ring, tuple(
            a * b for a, b in zip(self._marks, other._marks)))

    def __rmul__(self, other):
        if type(other) is int:
            return self.__mul__(other)
        return NotImplemented

    def __bool__(self) -> bool:
        return any(self._marks)

    def render(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            name = self.ring.basis_name(i)
            terms.append(name if c == 1 else f"{c}*{name}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"<A({self.ring.group.label}) {self.render()}>"


def burnside_ring(G: FiniteGroup) -> BurnsideRing:
    if "burnside_ring" not in G.memo:
        G.memo["burnside_ring"] = BurnsideRing(G, subgroup_lattice(G))
    return G.memo["burnside_ring"]


def _require_b_set(X: BiSet) -> None:
    if X.gO.order != 1 and any(p != tuple(range(X.size)) for p in X.actO):
        raise UsageError("O-side action must be trivial; quotient it away first")


def class_of(X: BiSet) -> BurnsideElement:
    """Decompose a finite B-side G-set into the basis of orbit types."""
    _require_b_set(X)
    ring = burnside_ring(X.gB)
    return ring.from_marks([len(X.fixed("B", H.generators, range(X.size)))
                            for H in ring.lattice.classes])


def chi_equivariant(X: BiSet | CellSpace) -> BurnsideElement:
    """Equivariant Euler characteristic in A(G_B): the class of a finite
    B-side G-set, and for a cell space the sum of its cells' classes, each
    with the sign (-1)^dim."""
    if isinstance(X, CellSpace):
        return X.signed_sum(class_of, burnside_ring(X.gB).zero)
    return class_of(X)
