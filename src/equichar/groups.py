"""Finite groups on dense integer indices, identity always at index 0.

Groups are built structurally (cyclic, symmetric, dihedral, product, wreath,
permutation closure).  A wreath product within WREATH_TABLE_BUDGET multiplies
by lookups in three factor tables built with it; other products stay
structural.  Each conjugacy class is walked once, as its orbit under the
generators with a witness u and its inverse at each point; its least
member's centralizer, the stabilizer, is rebuilt at once from Schreier
generators u·s·w^-1 that read those inverses, and the orbit is dropped.
A Subgroup keeps its classes, centralizers and commuting-tuple classes in
its own memo; whole_subgroup(G), the one cached on G, is the root.  A
commuting k-tuple is a plain tuple of element indices whose classes recurse
over classes and centralizers, so every representative commutes.

Subgroups grow by Dimino's coset extension: <H, g> is H's element list
followed by whole right cosets H·x, one product per new element.  The
subgroup lattice is searched over conjugacy-class representatives only:
each representative R is extended by one cyclic generator g per double
coset R·g·R outside it, and a subgroup not met before has its whole
conjugacy class indexed, up to SUBGROUP_BUDGET subgroups.  Only the lattice
builds a flat Cayley table, of order at most CAYLEY_TABLE_LIMIT, and drops it.

Budgets are module constants, read when the guarded work starts.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import cached_property

from .errors import InvariantViolation, ResourceLimitError, UsageError

SUBGROUP_BUDGET = 4096      # subgroups a lattice may index
CAYLEY_TABLE_LIMIT = 1024   # group order for the lattice's Cayley table
PERM_CLOSURE_BUDGET = 250_000
SYMMETRIC_DEGREE_LIMIT = 8  # 8! = 40320 permutations materialized
WREATH_TABLE_BUDGET = 1 << 21  # cells of a wreath product's factor tables
TUPLE_CLASS_BUDGET = 1_000_000  # commuting-tuple classes of one order
ELEMENT_BUDGET = 1_000_000  # elements a group may enumerate


class FiniteGroup:
    """Group on indices 0..order-1; subclasses provide mul and inv."""

    def __init__(self, order: int, generators: tuple[int, ...], label: str,
                 descriptor: dict | None = None):
        self.order = order
        self.identity = 0
        self.generators = tuple(generators)
        self.label = label
        self.descriptor = descriptor
        self._cache: dict = {}

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def elements(self) -> range:
        return range(self.order)

    # -- word machinery: BFS spanning tree over right multiplication --------

    def _require_enumerable(self) -> None:  # before anything is allocated
        if self.order > ELEMENT_BUDGET:
            raise ResourceLimitError(f"element enumeration of {self.label}",
                                     size=self.order, budget=ELEMENT_BUDGET)

    @cached_property
    def _word_table(self) -> tuple[list[tuple[int, int]], list[int]]:
        """prev[y] = (x, i) with y = x·gens[i], and nodes lists x before y."""
        self._require_enumerable()
        prev: list[tuple[int, int] | None] = [None] * self.order
        prev[0] = (-1, -1)
        nodes = [0]
        for x in nodes:  # grows breadth-first
            for i, s in enumerate(self.generators):
                y = self.mul(x, s)
                if prev[y] is None:
                    prev[y] = (x, i)
                    nodes.append(y)
        if len(nodes) != self.order:
            raise InvariantViolation(
                f"generators do not generate {self.label}")
        return prev, nodes  # type: ignore[return-value]

    def word(self, g: int) -> tuple[int, ...]:
        """Generator positions w with g = gens[w0]·gens[w1]·...·gens[w-1]."""
        prev = self._word_table[0]
        out = []
        while g != 0:
            g, i = prev[g]
            out.append(i)
        out.reverse()
        return tuple(out)

    def images(self, perms, size: int) -> list[list[int]]:
        """out[g][p] = g·p for every element g, when generator i acts on
        0..size-1 by perms[i]: one pass over the word tree, as the images
        of x·s are x's images read through s's permutation."""
        prev, nodes = self._word_table
        out = [list(range(size))] + [None] * (self.order - 1)
        for y in nodes[1:]:
            x, i = prev[y]
            out[y] = list(map(out[x].__getitem__, perms[i]))
        return out

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label} order={self.order}>"


class CyclicGroup(FiniteGroup):
    def __init__(self, n: int, label: str | None = None,
                 descriptor: dict | None = None):
        if n <= 0:
            raise UsageError(f"cyclic group needs n >= 1, got {n}")
        gens = (1,) if n > 1 else ()
        super().__init__(n, gens, label or f"C{n}",
                         descriptor or {"type": "cyclic", "n": n})
        self.n = n

    def mul(self, a: int, b: int) -> int:
        return (a + b) % self.n

    def inv(self, a: int) -> int:
        return (-a) % self.n


class DihedralGroup(FiniteGroup):
    """Order 2n; element f*n + r is rotation r followed by optional flip f."""

    def __init__(self, n: int):
        if n <= 0:
            raise UsageError(f"dihedral group needs n >= 1, got {n}")
        self.n = n
        if n == 1:
            gens: tuple[int, ...] = (1,)
        else:
            gens = (1, n)
        super().__init__(2 * n, gens, f"D{n}", {"type": "dihedral", "n": n})

    def mul(self, a: int, b: int) -> int:
        n = self.n
        f1, r1 = divmod(a, n)
        f2, r2 = divmod(b, n)
        r = (r1 - r2) % n if f1 else (r1 + r2) % n
        return (f1 ^ f2) * n + r

    def inv(self, a: int) -> int:
        n = self.n
        f, r = divmod(a, n)
        return a if f else (-r) % n


class ProductGroup(FiniteGroup):
    """Direct product, mixed-radix indexing with the last factor fastest."""

    def __init__(self, factors: tuple[FiniteGroup, ...],
                 descriptor: dict | None = None):
        self.factors = tuple(factors)
        order = 1
        for f in self.factors:
            order *= f.order
        self._radices = tuple(f.order for f in self.factors)
        gens = []
        for pos, f in enumerate(self.factors):
            for s in f.generators:
                vec = [0] * len(self.factors)
                vec[pos] = s
                gens.append(self._encode(vec))
        label = "x".join(f.label for f in self.factors) if self.factors else "triv"
        super().__init__(order, tuple(gens), label, descriptor)

    def _encode(self, vec) -> int:
        x = 0
        for v, r in zip(vec, self._radices):
            x = x * r + v
        return x

    def _decode(self, x: int) -> list[int]:
        out = [0] * len(self._radices)
        for i in range(len(self._radices) - 1, -1, -1):
            x, out[i] = divmod(x, self._radices[i])
        return out

    def mul(self, a: int, b: int) -> int:
        va, vb = self._decode(a), self._decode(b)
        return self._encode([f.mul(x, y)
                             for f, x, y in zip(self.factors, va, vb)])

    def inv(self, a: int) -> int:
        return self._encode([f.inv(x)
                             for f, x in zip(self.factors, self._decode(a))])


class PermGroup(FiniteGroup):
    """Closure of explicit permutation generators; elements sorted lexicographically."""

    def __init__(self, degree: int, gen_perms: list[tuple[int, ...]],
                 descriptor: dict | None = None):
        ident = tuple(range(degree))
        for p in gen_perms:
            if len(p) != degree or sorted(p) != list(range(degree)):
                raise UsageError(f"not a permutation of degree {degree}: {p}")
        elems = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for x in frontier:
                for s in gen_perms:
                    y = tuple(x[j] for j in s)  # x∘s
                    if y not in elems:
                        elems.add(y)
                        if len(elems) > PERM_CLOSURE_BUDGET:
                            raise ResourceLimitError(
                                "permutation closure", size=len(elems),
                                budget=PERM_CLOSURE_BUDGET)
                        nxt.append(y)
            frontier = nxt
        self._index(degree, tuple(sorted(elems)), gen_perms,
                    f"perm{degree}:{len(elems)}", descriptor)

    def _index(self, degree: int, perms: tuple[tuple[int, ...], ...],
               gen_perms, label: str, descriptor: dict | None) -> None:
        """Rank the lexicographically sorted perms and name the generators."""
        self.degree = degree
        self.perms = perms
        self.rank = {p: i for i, p in enumerate(perms)}
        FiniteGroup.__init__(self, len(perms),
                             tuple(self.rank[p] for p in gen_perms),
                             label, descriptor)

    @cached_property
    def inverse_perms(self) -> tuple[tuple[int, ...], ...]:
        out = []
        for p in self.perms:
            q = [0] * self.degree
            for i, pi in enumerate(p):
                q[pi] = i
            out.append(tuple(q))
        return tuple(out)

    def mul(self, a: int, b: int) -> int:
        pa, pb = self.perms[a], self.perms[b]
        return self.rank[tuple(pa[j] for j in pb)]

    def inv(self, a: int) -> int:
        return self.rank[self.inverse_perms[a]]


class SymmetricGroup(PermGroup):
    """S_n on permutation ranks, lexicographic order; identity is rank 0."""

    def __init__(self, n: int):
        if n < 0:
            raise UsageError(f"symmetric group needs n >= 0, got {n}")
        if n > SYMMETRIC_DEGREE_LIMIT:
            raise ResourceLimitError(
                f"symmetric group degree {n}",
                size=n, budget=SYMMETRIC_DEGREE_LIMIT)
        gens = []
        if n >= 2:
            swap = (1, 0) + tuple(range(2, n))
            cycle = tuple(range(1, n)) + (0,)
            gens = [swap] if cycle == swap else [swap, cycle]
        self._index(n, tuple(itertools.permutations(range(n))), gens,
                    f"S{n}", {"type": "symmetric", "n": n})


class WreathGroup(FiniteGroup):
    """G ≀ S_n: pairs (vector of n inner elements, permutation of n slots).

    Index = vector-code * n! + permutation rank.  Multiplication follows
    (a,σ)(b,τ) = (a·(b∘σ⁻¹), στ) so the natural action on n-tuples is a left
    action: ((a,σ)·x)_i = a_i · x_{σ⁻¹(i)}.

    Within WREATH_TABLE_BUDGET cells the product is three lookups in tables
    built once: top[σ][τ] ranks στ, shift[σ][b] codes b∘σ⁻¹ and base[a][c]
    codes a·c coordinatewise; larger groups use the structural formula.
    """

    _VEC_LIMIT = 200_000

    def __init__(self, inner: FiniteGroup, n: int,
                 descriptor: dict | None = None):
        if n < 0:
            raise UsageError(f"wreath product needs n >= 0, got {n}")
        self.inner = inner
        self.n = n
        self.top = SymmetricGroup(n)
        self.nfact = self.top.order
        order = inner.order ** n * self.nfact
        m = inner.order
        # dense digit tables keep mul cheap for the sizes we enumerate over
        self._vecs: tuple[tuple[int, ...], ...] | None = None
        self._vec_rank: dict[tuple[int, ...], int] | None = None
        if m ** n <= self._VEC_LIMIT:
            self._vecs = tuple(itertools.product(range(m), repeat=n))
            self._vec_rank = {v: i for i, v in enumerate(self._vecs)}
        # flat inner multiplication/inverse tables keep mul allocation-light
        self._itab: list[int] | None = None
        self._iinv: list[int] | None = None
        if m <= 64:
            self._itab = [inner.mul(a, b) for a in range(m) for b in range(m)]
            self._iinv = [inner.inv(a) for a in range(m)]
        gens = []
        if n > 0:
            for s in inner.generators:
                vec = [0] * n
                vec[0] = s
                gens.append(self.encode(vec, 0))
            zero = [0] * n
            for t in self.top.generators:
                gens.append(self.encode(zero, t))
        label = f"{inner.label}wrS{n}"
        super().__init__(order, tuple(gens), label, descriptor)
        fits = self.nfact ** 2 + order + m ** (2 * n) <= WREATH_TABLE_BUDGET
        self._tables = self._factor_tables() if fits else None

    def _factor_tables(self):
        """(top, shift, base) as lists of rows; see the class docstring."""
        n, m, inner, top = self.n, self.inner.order, self.inner, self.top
        # permutations(σ) lists σ∘τ for every τ, in rank order
        tops = [[top.rank[p] for p in itertools.permutations(pa)]
                for pa in top.perms]
        # digit j of b lands in slot σ(j), of weight m^(n-1-σ(j))
        shifts = [list(map(sum, itertools.product(
            *(range(0, m * w, w) for w in (m ** (n - 1 - i) for i in pa)))))
            for pa in top.perms]
        codes = list(range(m ** n))  # one shared int object per code
        base = [[0]]
        for k in range(n):  # each pass prefixes a coordinate of weight m^k
            size = m ** k
            base = [[codes[p + x]
                     for p in [inner.mul(a, c) * size for c in range(m)]
                     for x in base[rest]]
                    for a in range(m) for rest in range(size)]
        return tops, shifts, base

    def _vec_of(self, q: int) -> tuple[int, ...]:
        if self._vecs is not None:
            return self._vecs[q]
        m = self.inner.order
        out = [0] * self.n
        for i in range(self.n - 1, -1, -1):
            q, out[i] = divmod(q, m)
        return tuple(out)

    def _vec_code(self, vec) -> int:
        if self._vec_rank is not None:
            return self._vec_rank[tuple(vec)]
        m = self.inner.order
        x = 0
        for v in vec:
            x = x * m + v
        return x

    def encode(self, vec, perm_rank: int) -> int:
        return self._vec_code(vec) * self.nfact + perm_rank

    def decode(self, x: int) -> tuple[tuple[int, ...], int]:
        """(inner vector, top permutation rank)."""
        q, r = divmod(x, self.nfact)
        return self._vec_of(q), r

    def mul(self, a: int, b: int) -> int:
        tables = self._tables
        if tables is None:
            return self._mul_structural(a, b)
        top, shift, base = tables
        nf = self.nfact
        qa, ra = divmod(a, nf)
        qb, rb = divmod(b, nf)
        return base[qa][shift[ra][qb]] * nf + top[ra][rb]

    def _mul_structural(self, a: int, b: int) -> int:
        """The product from the vectors and permutations themselves."""
        nf = self.nfact
        qa, ra = divmod(a, nf)
        qb, rb = divmod(b, nf)
        va, vb = self._vec_of(qa), self._vec_of(qb)
        top = self.top
        pa = top.perms[ra]
        pa_inv = top.inverse_perms[ra]
        itab, m = self._itab, self.inner.order
        if itab is not None:
            w = tuple(itab[va[i] * m + vb[pa_inv[i]]] for i in range(self.n))
        else:
            imul = self.inner.mul
            w = tuple(imul(va[i], vb[pa_inv[i]]) for i in range(self.n))
        pb = top.perms[rb]
        rc = top.rank[tuple(pa[j] for j in pb)]
        return self._vec_code(w) * nf + rc

    def inv(self, a: int) -> int:
        q, r = divmod(a, self.nfact)
        v = self._vec_of(q)
        p = self.top.perms[r]
        iinv = self._iinv
        if iinv is not None:
            w = tuple(iinv[v[p[i]]] for i in range(self.n))
        else:
            w = tuple(self.inner.inv(v[p[i]]) for i in range(self.n))
        return self._vec_code(w) * self.nfact + self.top.inv(r)


# ---------------------------------------------------------------------------
# descriptors

_GROUP_CACHE: dict[str, FiniteGroup] = {}


def make_group(descriptor: dict) -> FiniteGroup:
    """Build (and cache) a group from a JSON-style descriptor.

    Supported: {"type": "trivial"}, {"type": "cyclic", "n": k},
    {"type": "symmetric", "n": k}, {"type": "dihedral", "n": k},
    {"type": "product", "factors": [d, ...]},
    {"type": "perm", "degree": d, "generators": [[...], ...]},
    {"type": "wreath", "inner": d, "n": k}.
    """
    if not isinstance(descriptor, dict) or "type" not in descriptor:
        raise UsageError(f"bad group descriptor: {descriptor!r}")
    key = json.dumps(descriptor, sort_keys=True)
    if key in _GROUP_CACHE:
        return _GROUP_CACHE[key]
    kind = descriptor["type"]
    if kind == "trivial":
        g: FiniteGroup = CyclicGroup(1, label="triv",
                                     descriptor={"type": "trivial"})
    elif kind == "cyclic":
        g = CyclicGroup(_int_field(descriptor, "n", minimum=1))
    elif kind == "symmetric":
        g = SymmetricGroup(_int_field(descriptor, "n", minimum=0))
    elif kind == "dihedral":
        g = DihedralGroup(_int_field(descriptor, "n", minimum=1))
    elif kind == "product":
        factors = descriptor.get("factors")
        if not isinstance(factors, list):
            raise UsageError("product descriptor needs a 'factors' list")
        g = ProductGroup(tuple(make_group(f) for f in factors), descriptor)
    elif kind == "perm":
        degree = _int_field(descriptor, "degree", minimum=0)
        gens = descriptor.get("generators")
        if not is_int_lists(gens):
            raise UsageError("perm descriptor needs a 'generators' list "
                             "of integer lists")
        g = PermGroup(degree, [tuple(p) for p in gens], descriptor)
    elif kind == "wreath":
        n = _int_field(descriptor, "n", minimum=0)
        inner = make_group(descriptor.get("inner"))
        g = WreathGroup(inner, n, descriptor)
    else:
        raise UsageError(f"unknown group type {kind!r}")
    _GROUP_CACHE[key] = g
    return g


def _int_field(d: dict, name: str, minimum: int) -> int:
    v = d.get(name)
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        raise UsageError(f"descriptor field {name!r} must be an integer >= {minimum}")
    return v


def is_int_lists(v) -> bool:
    """Whether a JSON value is a list of lists of integers."""
    return isinstance(v, list) and all(
        isinstance(p, list) and all(type(x) is int for x in p) for p in v)


def trivial_group() -> FiniteGroup:
    return make_group({"type": "trivial"})


def cyclic(n: int) -> FiniteGroup:
    return make_group({"type": "cyclic", "n": n})


def symmetric(n: int) -> FiniteGroup:
    return make_group({"type": "symmetric", "n": n})


def dihedral(n: int) -> FiniteGroup:
    return make_group({"type": "dihedral", "n": n})


def product(*descriptors: dict) -> FiniteGroup:
    return make_group({"type": "product", "factors": list(descriptors)})


def wreath(inner: FiniteGroup, n: int) -> FiniteGroup:
    if inner.descriptor is not None:
        return make_group({"type": "wreath", "inner": inner.descriptor, "n": n})
    return WreathGroup(inner, n)


# ---------------------------------------------------------------------------
# subgroups

class Subgroup:
    """Subgroup of a parent group: sorted element indices plus a small
    generating set (at most log2 of the order after reduction), and a memo
    of its classes, centralizers and tuple classes that == and hash skip."""

    __slots__ = ("parent", "elements", "generators", "memo")

    def __init__(self, parent: FiniteGroup, elements: tuple, generators: tuple):
        self.parent, self.elements = parent, elements
        self.generators = generators
        self.memo: dict = {}

    def __eq__(self, other) -> bool:
        return isinstance(other, Subgroup) and (
            self.parent, self.elements, self.generators) == (
            other.parent, other.elements, other.generators)

    def __hash__(self) -> int:
        return hash((self.parent, self.elements, self.generators))

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_set(self) -> frozenset[int]:
        return frozenset(self.elements)


def closure(G: FiniteGroup, gens) -> tuple[int, ...]:
    """Sorted element tuple of the subgroup generated by gens."""
    return tuple(sorted(_reduce_generators(G.mul, gens, G.order)[0]))


def extend_subgroup(mul, elements, gens, g: int) -> list[int]:
    """Elements of <H, g>, where H = <gens> has the given element list and
    mul is the group's product (G.mul, or lookups in its table).

    Dimino's right-coset extension: the result lists H's elements first and
    then whole cosets H·x.  A coset representative x times a generator s
    that falls outside the list opens the coset H·(xs), so the list ends
    closed under right multiplication by every generator.  Costs one
    product per new element plus one per coset and generator.
    """
    base = tuple(elements)
    seen = set(base)
    if g in seen:
        return list(base)
    gens = tuple(gens) + (g,)
    out = list(base)

    def add_coset(y: int) -> None:
        coset = [mul(h, y) for h in base]
        seen.update(coset)
        out.extend(coset)

    add_coset(g)
    pos = len(base)
    while pos < len(out):
        x = out[pos]  # stands for its coset, as H·x·s = H·(xs)
        for s in gens:
            xs = mul(x, s)
            if xs not in seen:
                add_coset(xs)
        pos += len(base)
    return out


def whole_subgroup(G: FiniteGroup) -> Subgroup:
    if "whole" not in G._cache:
        G._require_enumerable()
        G._cache["whole"] = Subgroup(G, tuple(range(G.order)), G.generators)
    return G._cache["whole"]


def _reduce_generators(mul, candidates, target: int
                       ) -> tuple[list[int], tuple[int, ...]]:
    """Elements and generators of the subgroup grown from the candidates
    under the product mul, stopping once it has target elements; each kept
    generator at least doubles the closure, so at most log2(target) survive."""
    small: list[int] = []
    current = [0]
    members = {0}
    for c in candidates:
        if c in members:
            continue
        current = extend_subgroup(mul, current, small, c)
        members.update(current)
        small.append(c)
        if len(current) == target:
            break
    return current, tuple(small)


# ---------------------------------------------------------------------------
# conjugacy

def conjugacy_classes(G: FiniteGroup) -> list[list[int]]:
    """Partition of all element indices; the identity class comes first and
    classes are ordered by their minimal member."""
    return conjugacy_classes_in(whole_subgroup(G))


def conjugacy_classes_in(H: Subgroup) -> list[list[int]]:
    """Conjugacy classes of the subgroup H, as sorted parent-index lists;
    each least member's centralizer is built from the orbit just walked."""
    if "classes" not in H.memo:
        gens = [(s, H.parent.inv(s)) for s in H.generators]
        seen: set[int] = set()
        out = []
        for x0 in H.elements:
            if x0 not in seen:
                orbit = _conjugation_orbit(H.parent, gens, x0)
                H.memo.setdefault(("cent", x0), _stabilizer(H, gens, orbit))
                seen.update(orbit)
                out.append(sorted(orbit))
        H.memo["classes"] = out
    return H.memo["classes"]


def _conjugation_orbit(G: FiniteGroup, gens, g: int) -> dict:
    """The conjugacy class of g under the generator pairs gens = [(s, s^-1)]
    as an insertion-ordered dict x -> (u, u^-1) with u^-1 g u = x, walked
    breadth-first."""
    mul = G.mul
    orbit = {g: (0, 0)}
    queue = [g]
    for x in queue:  # grows as the orbit does
        u, ui = orbit[x]
        for s, si in gens:
            y = mul(mul(si, x), s)
            if y not in orbit:
                orbit[y] = (mul(u, s), mul(si, ui))
                queue.append(y)
    return orbit


def centralizer(G: FiniteGroup, entries: tuple[int, ...]) -> Subgroup:
    """Centralizer of a commuting tuple of element indices."""
    H = whole_subgroup(G)
    for g in entries:
        H = centralizer_in(H, g)
    return H


def centralizer_in(H: Subgroup, g: int) -> Subgroup:
    """C_H(g) for g in H, with a small generating set; a g that is not a
    class's least member walks its own orbit."""
    key = ("cent", g)
    if key not in H.memo:
        gens = [(s, H.parent.inv(s)) for s in H.generators]
        H.memo[key] = _stabilizer(H, gens,
                                  _conjugation_orbit(H.parent, gens, g))
    return H.memo[key]


def _stabilizer(H: Subgroup, gens, orbit: dict) -> Subgroup:
    """C_H(g) for the first point g of its orbit under the pairs gens,
    rebuilt from Schreier generators that read the orbit's witness
    inverses, stopping at the known order |H|/|orbit|.  A central g gets H
    itself back."""
    target, rem = divmod(H.order, len(orbit))
    if rem:
        raise InvariantViolation("orbit size does not divide subgroup order")
    if target == H.order:
        return H
    mul = H.parent.mul
    # u·s carries g to s^-1 x s, as does that point's witness
    schreier = (mul(mul(u, s), orbit[mul(mul(si, x), s)][1])
                for x, (u, _) in orbit.items() for s, si in gens)
    elems, small = _reduce_generators(mul, schreier, target)
    if len(elems) != target:
        raise InvariantViolation(
            "Schreier generators failed to reach stabilizer")
    return Subgroup(H.parent, tuple(sorted(elems)), small)


# ---------------------------------------------------------------------------
# commuting tuples

def commuting_tuple_classes(G: FiniteGroup, k: int
                            ) -> list[tuple[tuple[int, ...], int]]:
    """Orbit representatives of commuting k-tuples of element indices under
    simultaneous conjugation, with orbit sizes.  k=0 yields the single
    empty tuple."""
    if k < 0:
        raise UsageError(f"tuple order must be >= 0, got {k}")
    return _ctuple_classes(whole_subgroup(G), k)


def _ctuple_classes(H: Subgroup, k: int) -> list[tuple[tuple[int, ...], int]]:
    if k == 0:
        return [((), 1)]
    key = ("tuples", k)
    if key in H.memo:
        return H.memo[key]
    out = []
    for cls in conjugacy_classes_in(H):
        g = cls[0]
        C = centralizer_in(H, g)
        for rest, size in _ctuple_classes(C, k - 1):
            out.append(((g,) + rest, len(cls) * size))
            if len(out) > TUPLE_CLASS_BUDGET:
                raise ResourceLimitError("commuting tuple classes",
                                         size=len(out),
                                         budget=TUPLE_CLASS_BUDGET)
    H.memo[key] = out
    return out


# ---------------------------------------------------------------------------
# subgroup lattice

class SubgroupLattice:
    """Conjugacy classes of subgroups in canonical order: ascending order,
    then lexicographically smallest conjugate element tuple."""

    __slots__ = ("group", "classes", "class_index")

    def __init__(self, group: FiniteGroup, classes: tuple[Subgroup, ...],
                 class_index: dict[frozenset[int], int]):
        self.group, self.classes, self.class_index = group, classes, class_index

    def index_of(self, elements: frozenset[int]) -> int:
        try:
            return self.class_index[elements]
        except KeyError:
            raise UsageError("element set is not a subgroup of the group") from None


def subgroup_lattice(G: FiniteGroup) -> SubgroupLattice:
    """Every subgroup of G, indexed by its conjugacy class."""
    if G.order > CAYLEY_TABLE_LIMIT:
        raise ResourceLimitError("subgroup lattice multiplication table",
                                 size=G.order, budget=CAYLEY_TABLE_LIMIT)
    if "lattice" in G._cache:
        return G._cache["lattice"]
    rows = _table_rows(G)  # every product below is a lookup in it
    mul = lambda a, b: rows[a][b]
    # x -> s^-1 x s for each generator s: conjugating a subgroup is lookups
    conj = [[rows[y][s] for y in rows[G.inv(s)]] for s in G.generators]
    class_index: dict[frozenset[int], int] = {}
    orbits: list[list[frozenset[int]]] = []
    queue: list[tuple[list[int], tuple[int, ...]]] = []

    def found(elements: list[int], gens: tuple[int, ...]) -> None:
        """Index a new subgroup's whole conjugacy class and queue it."""
        fs = frozenset(elements)
        if fs in class_index:
            return
        idx = len(orbits)
        class_index[fs] = idx
        orbit = [fs]
        for cur in orbit:  # grows until closed under conjugation
            for perm in conj:
                img = frozenset(perm[x] for x in cur)
                if img not in class_index:
                    class_index[img] = idx
                    orbit.append(img)
        orbits.append(orbit)
        if len(class_index) > SUBGROUP_BUDGET:
            raise ResourceLimitError("subgroup enumeration",
                                     size=len(class_index),
                                     budget=SUBGROUP_BUDGET)
        queue.append((elements, gens))

    # every K > 1 is <M, g> for a maximal M < K and any g in K \ M; with
    # M = R^x for a queued representative R, K^(x^-1) = <R, x g x^-1>, so
    # extending the representatives by cyclic generators reaches each class;
    # as <R, r·g·r'> = <R, g> for r, r' in R, one g per double coset R·g·R
    # suffices, and `covered` holds R and each double coset extended so far
    found([0], ())
    cyclic_gens = _cyclic_generators(rows)
    for elements, gens in queue:  # grows as classes are found
        covered = set(elements)
        for g in cyclic_gens:
            if g not in covered:
                found(extend_subgroup(mul, elements, gens, g), gens + (g,))
                gR = list(map(rows[g].__getitem__, elements))
                for r in elements:
                    covered.update(map(rows[r].__getitem__, gR))
    # canonical order: (order, lexicographically least conjugate), reindexed
    canon = [min(tuple(sorted(m)) for m in orbit) for orbit in orbits]
    order = sorted(range(len(orbits)),
                   key=lambda i: (len(canon[i]), canon[i]))
    remap = {old: new for new, old in enumerate(order)}
    reps = tuple(Subgroup(G, canon[i],
                          _reduce_generators(mul, canon[i], len(canon[i]))[1])
                 for i in order)
    lat = SubgroupLattice(G, reps,
                          {fs: remap[i] for fs, i in class_index.items()})
    G._cache["lattice"] = lat
    return lat


def _table_rows(G: FiniteGroup) -> list[list[int]]:
    """rows[a][b] = a·b.  A generator's row takes |G| products; every other
    row is read off its parent's in the breadth-first word tree, through
    the generator's row, as (x·s)·b = x·(s·b)."""
    gen_rows = [[G.mul(s, b) for b in G.elements()] for s in G.generators]
    rows = [list(G.elements())] + [None] * (G.order - 1)
    queue = [0]
    for x in queue:  # _word_table's tree, found by lookups, not products
        row = rows[x]
        for s, srow in zip(G.generators, gen_rows):
            y = row[s]
            if rows[y] is None:
                rows[y] = [row[c] for c in srow]
                queue.append(y)
    return rows


def _cyclic_generators(rows: list[list[int]]) -> list[int]:
    """The least generator of every cyclic subgroup, in increasing order."""
    out: list[int] = []
    generating: set[int] = set()
    for g in range(len(rows)):
        if g in generating:  # its cyclic subgroup has a smaller generator
            continue
        powers = [0]
        x = g
        while x != 0:
            powers.append(x)
            x = rows[x][g]
        n = len(powers)
        generating.update(powers[k] for k in range(1, n)
                          if math.gcd(k, n) == 1)
        out.append(g)
    return out
