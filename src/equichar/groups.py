"""Finite groups on dense integer indices, identity always at index 0.

Groups are built structurally (cyclic, symmetric, dihedral, product, wreath,
permutation closure).  A wreath product within WREATH_TABLE_BUDGET multiplies
by lookups in three factor tables built with it; other products stay
structural, and only validate_group makes a flat Cayley table.  Conjugacy
classes and centralizers come from one walk of an element's conjugation
orbit under the generators: a class is the orbit, and a centralizer is its
stabilizer, rebuilt from Schreier generators over the orbit's witnesses.
No element scan tests commutation, and commuting tuples recurse over both.

Subgroups grow by Dimino's coset extension: <H, g> is H's element list
followed by whole right cosets H·x, one product per new element.  The
subgroup lattice is searched over conjugacy-class representatives only:
each representative is extended by every cyclic generator outside it, and
a subgroup not met before has its whole conjugacy class indexed at once.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

from .errors import InvariantViolation, ResourceLimitError, UsageError

SUBGROUP_BUDGET = 1024      # subgroup-lattice enumeration cap
PERM_CLOSURE_BUDGET = 250_000
SYMMETRIC_DEGREE_LIMIT = 8  # 8! = 40320 permutations materialized
WREATH_TABLE_BUDGET = 1 << 21  # cells of a wreath product's factor tables


class FiniteGroup:
    """Group on indices 0..order-1; subclasses provide mul and inv."""

    def __init__(self, order: int, generators: tuple[int, ...], label: str,
                 descriptor: dict | None = None):
        self.order = order
        self.identity = 0
        self.generators = tuple(generators)
        self.label = label
        self.descriptor = descriptor
        self._words: list[tuple[int, int]] | None = None
        self._cache: dict = {}

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def conj(self, x: int, g: int) -> int:
        """g^-1 x g."""
        return self.mul(self.mul(self.inv(g), x), g)

    def elements(self) -> range:
        return range(self.order)

    # -- word machinery: BFS spanning tree over right multiplication --------

    def _word_table(self) -> list[tuple[int, int]]:
        if self._words is None:
            prev: list[tuple[int, int] | None] = [None] * self.order
            prev[0] = (-1, -1)
            frontier = [0]
            while frontier:
                nxt = []
                for x in frontier:
                    for i, s in enumerate(self.generators):
                        y = self.mul(x, s)
                        if prev[y] is None:
                            prev[y] = (x, i)
                            nxt.append(y)
                frontier = nxt
            if any(p is None for p in prev):
                raise InvariantViolation(
                    f"generators do not generate {self.label}")
            self._words = prev  # type: ignore[assignment]
        return self._words  # type: ignore[return-value]

    def word(self, g: int) -> tuple[int, ...]:
        """Generator positions w with g = gens[w0]·gens[w1]·...·gens[w-1]."""
        prev = self._word_table()
        out = []
        while g != 0:
            g, i = prev[g]
            out.append(i)
        out.reverse()
        return tuple(out)

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
                 descriptor: dict | None = None,
                 budget: int = PERM_CLOSURE_BUDGET):
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
                        nxt.append(y)
            if len(elems) > budget:
                raise ResourceLimitError("permutation closure",
                                         size=len(elems), budget=budget)
            frontier = nxt
        self._index(degree, tuple(sorted(elems)), gen_perms,
                    f"perm{degree}:{len(elems)}", descriptor)

    def _index(self, degree: int, perms: tuple[tuple[int, ...], ...],
               gen_perms, label: str, descriptor: dict | None) -> None:
        """Rank the lexicographically sorted perms and name the generators."""
        self.degree = degree
        self.perms = perms
        self.rank = {p: i for i, p in enumerate(perms)}
        self._inv_perms: tuple[tuple[int, ...], ...] | None = None
        FiniteGroup.__init__(self, len(perms),
                             tuple(self.rank[p] for p in gen_perms),
                             label, descriptor)

    def inverse_perms(self) -> tuple[tuple[int, ...], ...]:
        if self._inv_perms is None:
            out = []
            for p in self.perms:
                q = [0] * self.degree
                for i, pi in enumerate(p):
                    q[pi] = i
                out.append(tuple(q))
            self._inv_perms = tuple(out)
        return self._inv_perms

    def mul(self, a: int, b: int) -> int:
        pa, pb = self.perms[a], self.perms[b]
        return self.rank[tuple(pa[j] for j in pb)]

    def inv(self, a: int) -> int:
        return self.rank[self.inverse_perms()[a]]


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
                gens.append(self._encode(vec, 0))
            zero = [0] * n
            for t in self.top.generators:
                gens.append(self._encode(zero, t))
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

    def _encode(self, vec, perm_rank: int) -> int:
        return self._vec_code(vec) * self.nfact + perm_rank

    def decode(self, x: int) -> tuple[tuple[int, ...], int]:
        """(inner vector, top permutation rank)."""
        q, r = divmod(x, self.nfact)
        return self._vec_of(q), r

    def encode(self, vec, perm_rank: int) -> int:
        return self._encode(vec, perm_rank)

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
        pa_inv = top.inverse_perms()[ra]
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


class SubgroupGroup(FiniteGroup):
    """A subgroup repackaged as a standalone group on local indices."""

    def __init__(self, parent: FiniteGroup, elements: tuple[int, ...],
                 generators: tuple[int, ...]):
        elements = tuple(sorted(elements))
        if not elements or elements[0] != parent.identity:
            raise UsageError("subgroup must contain the identity")
        self.parent = parent
        self.to_parent = elements
        self.to_local = {e: i for i, e in enumerate(elements)}
        gens = tuple(self.to_local[g] for g in generators)
        super().__init__(len(elements), gens,
                         f"sub{len(elements)}of{parent.label}")

    def mul(self, a: int, b: int) -> int:
        return self.to_local[self.parent.mul(self.to_parent[a], self.to_parent[b])]

    def inv(self, a: int) -> int:
        return self.to_local[self.parent.inv(self.to_parent[a])]


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
    cached = _GROUP_CACHE.get(key)
    if cached is not None:
        return cached
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


def same_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    if a is b:
        return True
    return (a.descriptor is not None and a.descriptor == b.descriptor)


# ---------------------------------------------------------------------------
# subgroups

@dataclass(frozen=True)
class Subgroup:
    """Subgroup of a parent group: sorted element indices plus a small
    generating set (at most log2 of the order after reduction)."""

    parent: FiniteGroup
    elements: tuple[int, ...]
    generators: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_set(self) -> frozenset[int]:
        return frozenset(self.elements)

    def as_group(self) -> SubgroupGroup:
        return SubgroupGroup(self.parent, self.elements, self.generators)

    def validate(self) -> None:
        s = set(self.elements)
        if self.parent.identity not in s:
            raise InvariantViolation("subgroup lacks identity")
        for a in self.elements:
            if self.parent.inv(a) not in s:
                raise InvariantViolation("subgroup not closed under inverse")
            for b in self.elements:
                if self.parent.mul(a, b) not in s:
                    raise InvariantViolation("subgroup not closed under product")
        if closure(self.parent, self.generators) != self.elements:
            raise InvariantViolation("stored generators do not generate subgroup")


def closure(G: FiniteGroup, gens) -> tuple[int, ...]:
    """Sorted element tuple of the subgroup generated by gens."""
    elements: list[int] = [G.identity]
    done: list[int] = []
    for g in gens:
        elements = extend_subgroup(G, elements, done, g)
        done.append(g)
    return tuple(sorted(elements))


def extend_subgroup(G: FiniteGroup, elements, gens, g: int) -> list[int]:
    """Elements of <H, g>, where H = <gens> has the given element list.

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
        coset = [G.mul(h, y) for h in base]
        seen.update(coset)
        out.extend(coset)

    add_coset(g)
    pos = len(base)
    while pos < len(out):
        x = out[pos]  # stands for its coset, as H·x·s = H·(xs)
        for s in gens:
            xs = G.mul(x, s)
            if xs not in seen:
                add_coset(xs)
        pos += len(base)
    return out


def whole_subgroup(G: FiniteGroup) -> Subgroup:
    h = G._cache.get("whole")
    if h is None:
        h = Subgroup(G, tuple(range(G.order)), G.generators)
        G._cache["whole"] = h
    return h


def _reduce_generators(G: FiniteGroup, candidates, target: int
                       ) -> tuple[list[int], tuple[int, ...]]:
    """Elements and generators of the subgroup grown from the candidates,
    stopping once it has target elements; each kept generator at least
    doubles the closure, so at most log2(target) survive."""
    small: list[int] = []
    current = [G.identity]
    members = {G.identity}
    for c in candidates:
        if c in members:
            continue
        current = extend_subgroup(G, current, small, c)
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
    """Conjugacy classes of the subgroup H, as sorted parent-index lists."""
    key = ("classes", H.elements)
    cached = H.parent._cache.get(key)
    if cached is not None:
        return cached
    seen: set[int] = set()
    out: list[list[int]] = []
    for x0 in H.elements:
        if x0 not in seen:
            cls = sorted(_conjugation_orbit(H, x0))
            seen.update(cls)
            out.append(cls)
    H.parent._cache[key] = out
    return out


def _conjugation_orbit(H: Subgroup, g: int) -> dict[int, int]:
    """The H-conjugacy class of g as an insertion-ordered dict x -> u with
    u^-1 g u = x, walked breadth-first under H's generators."""
    G = H.parent
    gens = [(s, G.inv(s)) for s in H.generators]
    orbit = {g: G.identity}
    queue = [g]
    for x in queue:  # grows as the orbit does
        u = orbit[x]
        for s, si in gens:
            y = G.mul(G.mul(si, x), s)
            if y not in orbit:
                orbit[y] = G.mul(u, s)
                queue.append(y)
    return orbit


def centralizer(G: FiniteGroup, tup) -> Subgroup:
    """Centralizer of a commuting tuple (or single element, or iterable)."""
    if isinstance(tup, CommutingTuple):
        entries = tup.entries
    elif isinstance(tup, int):
        entries = (tup,)
    else:
        entries = tuple(tup)
    H = whole_subgroup(G)
    for g in entries:
        H = centralizer_in(H, g)
    return H


def centralizer_in(H: Subgroup, g: int) -> Subgroup:
    """C_H(g) for g in H, with a small generating set.

    Orbit-stabilizer: the conjugation orbit of g is walked with transversal
    witnesses, and the stabilizer is rebuilt from Schreier generators,
    stopping as soon as the known order |H|/|orbit| is reached.  A central
    g (the identity among them) gets H itself back.
    """
    G = H.parent
    key = ("cent", H.elements, g)
    cached = G._cache.get(key)
    if cached is not None:
        return cached
    orbit = _conjugation_orbit(H, g)
    target, rem = divmod(H.order, len(orbit))
    if rem:
        raise InvariantViolation("orbit size does not divide subgroup order")
    if target == H.order:
        sub = H
    else:
        gens = [(s, G.inv(s)) for s in H.generators]
        # u·s carries g to s^-1 x s, as does that point's witness
        schreier = (G.mul(G.mul(u, s), G.inv(orbit[G.mul(G.mul(si, x), s)]))
                    for x, u in orbit.items() for s, si in gens)
        elems, small = _reduce_generators(G, schreier, target)
        if len(elems) != target:
            raise InvariantViolation(
                "Schreier generators failed to reach stabilizer")
        sub = Subgroup(G, tuple(sorted(elems)), small)
    G._cache[key] = sub
    return sub


# ---------------------------------------------------------------------------
# commuting tuples

@dataclass(frozen=True)
class CommutingTuple:
    """Pairwise-commuting element indices of a parent group."""

    parent: FiniteGroup
    entries: tuple[int, ...]

    def __post_init__(self):
        G = self.parent
        es = self.entries
        for i in range(len(es)):
            for j in range(i + 1, len(es)):
                if G.mul(es[i], es[j]) != G.mul(es[j], es[i]):
                    raise UsageError(f"entries {es[i]},{es[j]} do not commute")

    def __len__(self) -> int:
        return len(self.entries)


def commuting_tuple_classes(G: FiniteGroup, k: int,
                            budget: int = 1_000_000
                            ) -> list[tuple[CommutingTuple, int]]:
    """Orbit representatives of commuting k-tuples under simultaneous
    conjugation, with orbit sizes.  k=0 yields the single empty tuple."""
    if k < 0:
        raise UsageError(f"tuple order must be >= 0, got {k}")
    raw = _ctuple_classes(whole_subgroup(G), k, budget)
    return [(CommutingTuple(G, t), size) for t, size in raw]


def _ctuple_classes(H: Subgroup, k: int,
                    budget: int) -> list[tuple[tuple[int, ...], int]]:
    if k == 0:
        return [((), 1)]
    key = ("ctuples", H.elements, k)
    cached = H.parent._cache.get(key)
    if cached is not None:
        return cached
    out: list[tuple[tuple[int, ...], int]] = []
    for cls in conjugacy_classes_in(H):
        g = cls[0]
        C = centralizer_in(H, g)
        for rest, size in _ctuple_classes(C, k - 1, budget):
            out.append(((g,) + rest, len(cls) * size))
            if len(out) > budget:
                raise ResourceLimitError("commuting tuple classes",
                                         size=len(out), budget=budget)
    H.parent._cache[key] = out
    return out


# ---------------------------------------------------------------------------
# subgroup lattice

@dataclass(frozen=True)
class SubgroupLattice:
    """Conjugacy classes of subgroups in canonical order: ascending order,
    then lexicographically smallest conjugate element tuple."""

    group: FiniteGroup
    classes: tuple[Subgroup, ...]
    class_index: dict[frozenset[int], int]

    def index_of(self, elements: frozenset[int]) -> int:
        try:
            return self.class_index[elements]
        except KeyError:
            raise UsageError("element set is not a subgroup of the group") from None


def subgroup_lattice(G: FiniteGroup,
                     budget: int = SUBGROUP_BUDGET) -> SubgroupLattice:
    """Every subgroup of G, indexed by its conjugacy class."""
    if G.order > budget:
        raise ResourceLimitError("subgroup enumeration",
                                 size=G.order, budget=budget)
    cached = G._cache.get("lattice")
    if cached is not None:
        return cached
    # x -> s^-1 x s for each generator s: conjugating a subgroup is lookups
    conj = [tuple(G.conj(x, s) for x in G.elements()) for s in G.generators]
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
        queue.append((elements, gens))

    # every K > 1 is <M, g> for a maximal M < K and any g in K \ M; with
    # M = R^x for a queued representative R, K^(x^-1) = <R, x g x^-1>, so
    # extending the representatives by cyclic generators reaches each class
    found([G.identity], ())
    cyclic_gens = _cyclic_generators(G)
    for elements, gens in queue:  # grows as classes are found
        members = set(elements)
        for g in cyclic_gens:
            if g not in members:
                found(extend_subgroup(G, elements, gens, g), gens + (g,))
    # canonical order: (order, lexicographically least conjugate), reindexed
    canon = [min(tuple(sorted(m)) for m in orbit) for orbit in orbits]
    order = sorted(range(len(orbits)),
                   key=lambda i: (len(canon[i]), canon[i]))
    remap = {old: new for new, old in enumerate(order)}
    reps = tuple(Subgroup(G, canon[i],
                          _reduce_generators(G, canon[i], len(canon[i]))[1])
                 for i in order)
    lat = SubgroupLattice(G, reps,
                          {fs: remap[i] for fs, i in class_index.items()})
    G._cache["lattice"] = lat
    return lat


def _cyclic_generators(G: FiniteGroup) -> list[int]:
    """The least generator of every cyclic subgroup, in increasing order."""
    out: list[int] = []
    generating: set[int] = set()
    for g in G.elements():
        if g in generating:  # its cyclic subgroup has a smaller generator
            continue
        powers = [G.identity]
        x = g
        while x != G.identity:
            powers.append(x)
            x = G.mul(x, g)
        n = len(powers)
        generating.update(powers[k] for k in range(1, n)
                          if math.gcd(k, n) == 1)
        out.append(g)
    return out


# ---------------------------------------------------------------------------
# validation

def validate_group(G: FiniteGroup, samples: int = 100_000,
                   exhaustive_limit: int = 256, seed: int = 0) -> None:
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
        import random
        rng = random.Random(seed)
        for _ in range(samples):
            a = rng.randrange(G.order)
            b = rng.randrange(G.order)
            c = rng.randrange(G.order)
            if G.mul(G.mul(a, b), c) != G.mul(a, G.mul(b, c)):
                raise InvariantViolation(f"associativity fails at {(a, b, c)}")
    G._word_table()  # raises if generators do not generate
