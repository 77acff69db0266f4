"""Finite groups on dense integer indices, identity always at index 0.

Groups are built structurally (cyclic, symmetric, dihedral, product, wreath,
permutation closure).  A wreath product within WREATH_TABLE_BUDGET multiplies
by lookups in three factor tables built with it; other products stay
structural.  Each conjugacy class is walked once, as its orbit under the
generators with a witness u and its inverse at each point; its least
member's centralizer is one the walk holds, or is built from Schreier
generators u·s·w^-1 that read those inverses, and the orbit is dropped.
A group keeps one Subgroup per element set in its memo, so subgroups
compare by identity and equal centralizers share one memo of classes,
centralizers and tuple classes; whole_subgroup(G) is the root.  A
commuting k-tuple is a plain tuple of element indices whose classes recurse
over classes and centralizers, so every representative commutes.

Words come from one breadth-first tree of left multiplication, kept with the
generator rows s·x that found it.  images, the one walk down that tree,
maps a whole set under every element as bytes padded to 256 (up to 256
points, each one translate of its parent's map) or lists (above), with
the image call for that kind.  The subgroup lattice's Cayley table, of
order at most CAYLEY_TABLE_LIMIT, is images of the left-regular action,
and each set it maps (a coset, a conjugate, a double coset) is one image
call through a row or conjugation table.  Subgroups grow by Dimino's
coset extension: <H, g> is H's elements and whole left cosets x·H.
The subgroup lattice is searched over conjugacy-class representatives by
Neubüser's cyclic extension: each R is extended by a g of prime power order
p^a with g^p in R that normalizes R, or that lies with R in G^∞ (a K that is
not perfect is <M, g> for a normal M of prime index; a perfect K lies in
G^∞), except inside an indexed K ⊇ R of prime index and once per double
coset R·g·R; a subgroup not met before has its whole conjugacy class
indexed with conjugators, up to SUBGROUP_BUDGET subgroups, and its least
conjugate is generated by the conjugated chain that found it.

Budgets are module constants, read when the guarded work starts.
"""

from __future__ import annotations

import itertools
import json
import math
import weakref
from array import array
from functools import cached_property

from .errors import (InvariantViolation, UsageError, check_budget, check_int,
                     check_perm, exact_div)

SUBGROUP_BUDGET = 4096      # subgroups a lattice may index
CAYLEY_TABLE_LIMIT = 1024   # group order for the lattice's Cayley table
PERM_CLOSURE_BUDGET = 250_000
SYMMETRIC_DEGREE_LIMIT = 8  # 8! = 40320 permutations materialized
WREATH_TABLE_BUDGET = 1 << 21  # cells of a wreath product's factor tables
TUPLE_CLASS_BUDGET = 1_000_000  # commuting-tuple classes of one order
ELEMENT_BUDGET = 1_000_000  # elements a group may enumerate
ORDER_LIMIT = 100   # the order-k recursions here and above go k deep


def check_order(k: int) -> None:
    """Refuse an order k that is not an integer >= 0 or is above
    ORDER_LIMIT, before any work."""
    check_int("order", k, 0)
    check_budget("order k", k, ORDER_LIMIT)


class FiniteGroup:
    """Group on indices 0..order-1; subclasses provide mul."""

    def __init__(self, order: int, generators: tuple[int, ...], label: str,
                 descriptor: dict | None = None):
        self.order = order
        self.identity = 0
        self.generators = tuple(generators)
        self.label = label
        self.descriptor = descriptor
        self.memo: dict = {}

    def elements(self) -> range:
        return range(self.order)

    def inv(self, g: int) -> int:
        """The last power of g before the identity: order(g) products, so
        callers invert a subgroup's few generators only."""
        x = g
        for _ in range(self.order):
            x, last = self.mul(x, g), x
            if x == 0:
                return last
        raise InvariantViolation(f"no power of {g} within order {self.order} "
                                 f"is the identity of {self.label}")

    # -- word machinery: BFS spanning tree over left multiplication ---------

    def _require_enumerable(self) -> None:  # before anything is allocated
        check_budget(f"element enumeration of {self.label}", self.order,
                     ELEMENT_BUDGET)

    @cached_property
    def _word_table(self) -> tuple[list, list, list[int], list[array]]:
        """(parent, letter, nodes, rows): rows[i][x] = gens[i]·x span the
        tree y = gens[letter[y]]·parent[y], nodes listing parents first."""
        self._require_enumerable()
        rows = [array("l", [self.mul(s, x) for x in range(self.order)])
                for s in self.generators]
        parent, letter = [0] + [None] * (self.order - 1), [None] * self.order
        nodes = [0]
        for x in nodes:  # grows breadth-first
            for i, row in enumerate(rows):
                y = row[x]
                if parent[y] is None:
                    parent[y], letter[y] = x, i
                    nodes.append(y)
        if len(nodes) != self.order:
            raise InvariantViolation(
                f"generators do not generate {self.label}")
        return parent, letter, nodes, rows

    def word(self, g: int) -> tuple[int, ...]:
        """Generator positions w with g = gens[w0]·gens[w1]·...·gens[w-1]."""
        parent, letter = self._word_table[:2]
        out = []
        while g != 0:
            out.append(letter[g])
            g = parent[g]
        return tuple(out)

    def images(self, perms, size: int) -> tuple[list, object]:
        """(maps, image) when generator i acts on 0..size-1 by perms[i]:
        maps[g][p] = g·p, one pass down the word tree (s·x maps by s after
        x), and image(points, m) sends points through a map m.  A byte holds
        0..255: up to 256 points a map is bytes padded to 256 by the points
        it fixes, and image is one translate; above 256, a list."""
        parent, letter, nodes, _ = self._word_table
        maps = [None] * self.order
        if size > 256:
            image = lambda points, m: list(map(m.__getitem__, points))
            steps = [list(p).__getitem__ for p in perms]
            maps[0] = list(range(size))
            for y in nodes[1:]:  # mapped inline: no Python call per node
                maps[y] = list(map(steps[letter[y]], maps[parent[y]]))
        else:
            image = bytes.translate
            steps = [bytes([*p, *range(size, 256)]) for p in perms]
            maps[0] = bytes(range(256))
            for y in nodes[1:]:
                maps[y] = maps[parent[y]].translate(steps[letter[y]])
        return maps, image

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label} order={self.order}>"


class CyclicGroup(FiniteGroup):
    def __init__(self, n: int, label: str | None = None,
                 descriptor: dict | None = None):
        check_int("cyclic group n", n, 1)
        gens = (1,) if n > 1 else ()
        super().__init__(n, gens, label or f"C{n}",
                         descriptor or {"type": "cyclic", "n": n})
        self.n = n

    def mul(self, a: int, b: int) -> int:
        return (a + b) % self.n


class DihedralGroup(FiniteGroup):
    """Order 2n; element f*n + r is rotation r followed by optional flip f."""

    def __init__(self, n: int):
        check_int("dihedral group n", n, 1)
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


def digits_to_index(digits, radices) -> int:
    """The mixed-radix index of digits over radices, last digit fastest."""
    x = 0
    for d, r in zip(digits, radices):
        x = x * r + d
    return x


def index_to_digits(x: int, radices) -> tuple[int, ...]:
    """The digits of index x over radices, last digit fastest."""
    out = []
    for r in reversed(radices):
        x, d = divmod(x, r)
        out.append(d)
    return tuple(reversed(out))


class ProductGroup(FiniteGroup):
    """Direct product, mixed-radix indexing with the last factor fastest."""

    def __init__(self, factors: tuple[FiniteGroup, ...],
                 descriptor: dict | None = None):
        self.factors = tuple(factors)
        r = self._radices = tuple(f.order for f in self.factors)
        gens = [digits_to_index([0] * pos + [s] + [0] * (len(r) - 1 - pos), r)
                for pos, f in enumerate(self.factors) for s in f.generators]
        label = "x".join(f.label for f in self.factors) if self.factors else "triv"
        super().__init__(math.prod(r), tuple(gens), label, descriptor)

    def mul(self, a: int, b: int) -> int:
        r = self._radices
        return digits_to_index([f.mul(x, y) for f, x, y in zip(
            self.factors, index_to_digits(a, r), index_to_digits(b, r))], r)


class PermGroup(FiniteGroup):
    """Closure of explicit permutation generators; elements sorted lexicographically."""

    def __init__(self, degree: int, gen_perms: list[tuple[int, ...]],
                 descriptor: dict | None = None):
        check_int("permutation group degree", degree, 0)
        if not isinstance(gen_perms, (list, tuple)):
            raise UsageError("permutation generators must be a list, "
                             f"got {gen_perms!r}")
        for p in gen_perms:
            check_perm(p, degree)
        gen_perms = tuple(map(tuple, gen_perms))
        elems = [tuple(range(degree))]
        seen = set(elems)
        for x in elems:  # grows breadth-first
            for s in gen_perms:
                y = tuple(map(x.__getitem__, s))  # x∘s
                if y not in seen:
                    seen.add(y)
                    check_budget("permutation closure", len(seen),
                                 PERM_CLOSURE_BUDGET)
                    elems.append(y)
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

    def mul(self, a: int, b: int) -> int:
        return self.rank[tuple(map(self.perms[a].__getitem__,
                                   self.perms[b]))]


class SymmetricGroup(PermGroup):
    """S_n on permutation ranks, lexicographic order; identity is rank 0."""

    def __init__(self, n: int):
        check_int("symmetric group n", n, 0)
        check_budget(f"symmetric group degree {n}", n, SYMMETRIC_DEGREE_LIMIT)
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
    codes a·c coordinatewise.  Larger groups use the structural formula,
    which writes a_σ(j)·b_j into slot σ(j) with the inner group's mul.
    """

    _VEC_LIMIT = 200_000

    def __init__(self, inner: FiniteGroup, n: int,
                 descriptor: dict | None = None):
        check_int("wreath product n", n, 0)
        self.inner = inner
        self.n = n
        self.top = SymmetricGroup(n)
        self.nfact = self.top.order
        order = inner.order ** n * self.nfact
        m = inner.order
        self._radices = (m,) * n
        # dense digit tables keep mul cheap for the sizes we enumerate over
        self._vecs: tuple[tuple[int, ...], ...] | None = None
        self._vec_rank: dict[tuple[int, ...], int] | None = None
        if m ** n <= self._VEC_LIMIT:
            self._vecs = tuple(itertools.product(range(m), repeat=n))
            self._vec_rank = {v: i for i, v in enumerate(self._vecs)}
        gens = [self.encode([s] + [0] * (n - 1), 0)
                for s in (inner.generators if n else ())]
        gens += [self.encode([0] * n, t) for t in self.top.generators]
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
        table = [[inner.mul(a, c) for c in range(m)] for a in range(m)]
        codes = list(range(m ** n))  # one shared int object per code
        base = [[0]]
        for k in range(n):  # each pass prefixes a coordinate of weight m^k
            size = m ** k
            base = [[codes[p + x] for p in [ac * size for ac in table[a]]
                     for x in base[rest]]
                    for a in range(m) for rest in range(size)]
        return tops, shifts, base

    def _vec_of(self, q: int) -> tuple[int, ...]:
        if self._vecs is not None:
            return self._vecs[q]
        return index_to_digits(q, self._radices)

    def _vec_code(self, vec) -> int:
        if self._vec_rank is not None:
            return self._vec_rank[tuple(vec)]
        return digits_to_index(vec, self._radices)

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
        imul = self.inner.mul
        w = [0] * self.n
        for j, i in enumerate(self.top.perms[ra]):  # slot σ(j): a_σ(j)·b_j
            w[i] = imul(va[i], vb[j])
        return self._vec_code(w) * nf + self.top.mul(ra, rb)


# ---------------------------------------------------------------------------
# descriptors

_GROUP_CACHE = weakref.WeakValueDictionary()  # key -> group, while held


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
    g: FiniteGroup | None = _GROUP_CACHE.get(key)
    if g is not None:
        return g
    kind = descriptor["type"]
    if kind == "trivial":
        g = CyclicGroup(1, label="triv", descriptor={"type": "trivial"})
    elif kind == "cyclic":
        g = CyclicGroup(descriptor.get("n"))
    elif kind == "symmetric":
        g = SymmetricGroup(descriptor.get("n"))
    elif kind == "dihedral":
        g = DihedralGroup(descriptor.get("n"))
    elif kind == "product":
        factors = descriptor.get("factors")
        if not isinstance(factors, list):
            raise UsageError("product descriptor needs a 'factors' list")
        g = ProductGroup(tuple(make_group(f) for f in factors), descriptor)
    elif kind == "perm":
        g = PermGroup(descriptor.get("degree"), descriptor.get("generators"),
                      descriptor)
    elif kind == "wreath":
        g = WreathGroup(make_group(descriptor.get("inner")),
                        descriptor.get("n"), descriptor)
    else:
        raise UsageError(f"unknown group type {kind!r}")
    _GROUP_CACHE[key] = g
    return g


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
    """A parent group's subgroup: sorted element indices, a small generating
    set (at most log2 of the order after reduction) and a memo; subgroup()
    builds one per element set, so subgroups compare by identity."""

    __slots__ = ("parent", "elements", "generators", "memo")

    def __init__(self, parent: FiniteGroup, elements: tuple, generators: tuple):
        self.parent, self.elements = parent, elements
        self.generators = generators
        self.memo: dict = {}

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_set(self) -> frozenset[int]:
        return frozenset(self.elements)


def closure(G: FiniteGroup, gens) -> tuple[int, ...]:
    """Sorted element tuple of the subgroup generated by gens."""
    return tuple(sorted(_reduce_generators(G.mul, gens, G.order)[0]))


def extend_subgroup(rows, image, elements, gens, g: int):
    """Elements of <H, g>, where H = <gens> has the given elements, rows[x]
    is x's map, rows[x][y] = x·y, and image(points, rows[x]) sends a set
    of the elements' kind (a list, or bytes) to x·points.  Dimino's coset
    extension: H's elements, then whole left cosets x·H; a generator s
    times a coset representative x that falls outside the list opens
    (s·x)·H, so the list ends closed under left multiplication.  One
    product per new element plus one per coset and generator."""
    seen = set(elements)
    steps = [rows[s] for s in (*gens, g)]
    out, pos = elements[:], 0  # += extends a list copy, or makes new bytes
    while pos < len(out):
        x = out[pos]  # stands for its coset, as s·(x·H) = (s·x)·H
        for step in steps if pos else steps[-1:]:  # H's own gens keep H
            sx = step[x]
            if sx not in seen:
                coset = image(elements, rows[sx])
                seen.update(coset)
                out += coset
        pos += len(elements)
    return out


def subgroup(G: FiniteGroup, elements: tuple, generators: tuple) -> Subgroup:
    """G.memo[elements], built with the first call's generators."""
    if elements not in G.memo:
        G.memo[elements] = Subgroup(G, elements, generators)
    return G.memo[elements]


def whole_subgroup(G: FiniteGroup) -> Subgroup:
    if "whole" not in G.memo:
        G._require_enumerable()
        G.memo["whole"] = subgroup(G, tuple(range(G.order)), G.generators)
    return G.memo["whole"]


class _Left:
    """_Left(mul, x)[y] = mul(x, y): x's map, for a group without a table."""

    def __init__(self, mul, x):
        self.mul, self.x = mul, x

    def __getitem__(self, y):
        return self.mul(self.x, y)


def _reduce_generators(mul, candidates, target: int
                       ) -> tuple[list[int], tuple[int, ...]]:
    """Elements and generators of the subgroup grown from the candidates
    under the product mul, stopping once it has target elements; each kept
    generator at least doubles the closure, so at most log2(target) survive."""
    small: list[int] = []
    current = [0]
    members = {0}
    rows = _Left(_Left, mul)  # rows[x] = _Left(mul, x)
    image = lambda points, m: list(map(mul, itertools.repeat(m.x), points))
    for c in candidates:
        if c in members:
            continue
        current = extend_subgroup(rows, image, current, small, c)
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
    each least member's centralizer is found among H and those this walk
    built, or else built from the orbit just walked."""
    if "classes" not in H.memo:
        gens = [(s, H.parent.inv(s)) for s in H.generators]
        seen: set[int] = set()
        out, held = [], {H.order: [H]}
        for x0 in H.elements:
            if x0 not in seen:
                orbit = _conjugation_orbit(H.parent, gens, x0)
                if ("cent", x0) not in H.memo:
                    H.memo[("cent", x0)] = _stabilizer(H, gens, orbit, held)
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
                                  _conjugation_orbit(H.parent, gens, g),
                                  {H.order: [H]})
    return H.memo[key]


def _stabilizer(H: Subgroup, gens, orbit: dict, held: dict) -> Subgroup:
    """C_H(g) for the first point g of its orbit under the pairs gens.
    A subgroup of H in held[|H|/|orbit|] whose generators commute with g is
    C_H(g), as it has its order; else C_H(g) is rebuilt from Schreier
    generators that read the orbit's witness inverses, stopping at that
    order, and joins held."""
    target = exact_div(H.order, len(orbit), "a centralizer order")
    mul, g = H.parent.mul, next(iter(orbit))
    for C in held.setdefault(target, []):
        if all(mul(g, s) == mul(s, g) for s in C.generators):
            return C
    # u·s carries g to s^-1 x s, as does that point's witness
    schreier = (mul(mul(u, s), orbit[mul(mul(si, x), s)][1])
                for x, (u, _) in orbit.items() for s, si in gens)
    elems, small = _reduce_generators(mul, schreier, target)
    if len(elems) != target:
        raise InvariantViolation(
            "Schreier generators failed to reach stabilizer")
    held[target].append(subgroup(H.parent, tuple(sorted(elems)), small))
    return held[target][-1]


# ---------------------------------------------------------------------------
# commuting tuples

def commuting_tuple_classes(G: FiniteGroup, k: int
                            ) -> list[tuple[tuple[int, ...], int]]:
    """Orbit representatives of commuting k-tuples of element indices under
    simultaneous conjugation, with orbit sizes.  k=0 yields the single
    empty tuple."""
    check_order(k)
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
            check_budget("commuting tuple classes", len(out),
                         TUPLE_CLASS_BUDGET)
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


def subgroup_lattice(G: FiniteGroup) -> SubgroupLattice:
    """Every subgroup of G, indexed by its conjugacy class."""
    check_budget("subgroup lattice multiplication table", G.order,
                 CAYLEY_TABLE_LIMIT)
    if "lattice" in G.memo:
        return G.memo["lattice"]
    rows, image = G.images(G._word_table[3], G.order)  # a·b = rows[a][b]
    gens, invs = G.generators, [rows[s].index(0) for s in G.generators]
    # x -> s^-1 (x s) for each generator s: column s, and any padding, of
    # the rows' own kind sent through row s^-1
    kind = type(rows[0])
    conj = [image(kind([*(row[s] for row in rows), *rows[0][G.order:]]),
                  rows[si]) for s, si in zip(gens, invs)]
    class_index: dict[frozenset[int], int] = {}
    orbits: list[tuple[list, list, tuple[int, ...]]] = []
    by_order: dict[int, list[frozenset[int]]] = {}
    queue: list[tuple] = []  # (elements, chain) of each class found

    def found(elements, chain: tuple[int, ...]) -> list:
        """The conjugates of <chain>, a new class indexed and queued."""
        fs = frozenset(elements)
        if fs in class_index:
            return orbits[class_index[fs]][0]
        idx = class_index[fs] = len(orbits)
        orbit, sets, witness = [fs], [elements], [(0, 0)]
        for cur, (u, ui) in zip(sets, witness):  # grow until closed
            for perm, s, si in zip(conj, gens, invs):
                img = image(cur, perm)
                key = frozenset(img)
                if key not in class_index:
                    class_index[key] = idx
                    orbit.append(key)
                    sets.append(img)
                    witness.append((rows[u][s], rows[si][ui]))
        orbits.append((orbit, witness, chain))
        by_order.setdefault(len(fs), []).extend(orbit)
        check_budget("subgroup enumeration", len(class_index),
                     SUBGROUP_BUDGET)
        queue.append((elements, chain))
        return orbit

    # R is extended by a zuppo g (least generator of a cyclic subgroup of
    # order p^a) with g^p in R only if g normalizes R (g·r·g^-1 in R for r
    # in R's chain) or R and g lie in G^∞.  Each K > 1 is reached as <M, g>,
    # M < K reached before, g in K \ M (any generator of <g> serves):
    # - K not perfect has a normal M of prime index q; for any element
    #   outside M, its q-part g normalizes M, has g^q in M and gives K;
    # - K perfect lies in G^∞, as do its maximal M and its p-elements g
    #   with g^p in M, one of which gives K (K's p-elements generate it; of
    #   the p-powers of one outside M, take the last outside M).
    # Both hold for <M^x, g^x> (G^∞ is normal), so with M = R^x for a
    # queued R, K^(x^-1) = <R, x g x^-1> is one of them.  `covered` holds
    # g with <R, g> indexed: each indexed K ⊇ R of prime index (R is
    # maximal in K) and each double coset R·g·R extended
    found(rows[0][:1], ())  # the identity row begins with the identity
    zuppos = _prime_power_generators(rows)
    primes = {p for _, p, _, _ in zuppos}
    residual = _perfect_residual(rows, image, conj, gens)
    for elements, chain in queue:  # grows as classes are found
        rset, n = frozenset(elements), len(elements)
        inside = rset <= residual
        covered = set(elements)
        for p in primes:
            covered.update(*filter(rset.issubset, by_order.get(n * p, ())))
        for g, _, gp, gi in zuppos:
            if gp not in rset or g in covered:
                continue
            if not (inside and g in residual) and any(
                    rows[rows[g][r]][gi] not in rset for r in chain):
                continue
            K = extend_subgroup(rows, image, elements, chain, g)
            conjugates = found(K, chain + (g,))
            if len(K) // n in primes:
                covered.update(*filter(rset.issubset, conjugates))
                continue
            gR = image(elements, rows[g])
            for r in elements:  # R·g·R
                covered.update(image(gR, rows[r]))
    # canonical order: (order, least conjugate), generated by conjugated chain
    reps = []
    for orbit, witness, chain in orbits:
        least, (u, ui) = min(zip(map(sorted, orbit), witness))
        reps.append(subgroup(G, tuple(least),
                             tuple(rows[rows[ui][s]][u] for s in chain)))
    order = sorted(range(len(reps)),
                   key=lambda i: (reps[i].order, reps[i].elements))
    remap = {old: new for new, old in enumerate(order)}
    lat = SubgroupLattice(G, tuple(reps[i] for i in order),
                          {fs: remap[i] for fs, i in class_index.items()})
    G.memo["lattice"] = lat
    return lat


def _perfect_residual(rows, image, conj, gens) -> frozenset[int]:
    """G^∞, the last term of the derived series, on the Cayley rows: D' is
    the normal closure in G (conj: x -> s^-1·x·s for G's generators s) of
    the commutators of D's generators, taken until it stops shrinking."""
    size, chain = len(rows), gens
    while True:
        inv = {a: rows[a].index(0) for a in chain}
        todo = [rows[rows[a][b]][rows[inv[a]][inv[b]]]  # a b a^-1 b^-1
                for a, b in itertools.combinations(chain, 2)]
        derived, members, new_chain = rows[0][:1], {0}, []
        for c in todo:  # grows by the conjugates of each generator taken
            if c not in members:
                derived = extend_subgroup(rows, image, derived, new_chain, c)
                members.update(derived)
                new_chain.append(c)
                todo.extend(perm[c] for perm in conj)
        if len(derived) == size:
            return frozenset(derived)
        size, chain = len(derived), new_chain


def _prime_power_generators(rows: list) -> list[tuple]:
    """(g, p, g^p, g^-1) for the least generator g of every cyclic subgroup
    of prime power order p^a > 1, in increasing order of g."""
    out: list[tuple] = []
    generating: set[int] = set()
    for g in range(1, len(rows)):
        if g in generating:  # its cyclic subgroup has a smaller generator
            continue
        powers, x = [0], g
        while x != 0:
            powers.append(x)
            x = rows[x][g]
        n = len(powers)
        generating.update(powers[k] for k in range(1, n)
                          if math.gcd(k, n) == 1)
        p = next(d for d in range(2, n + 1) if n % d == 0)
        if pow(p, n, n) == 0:  # n divides p^n: n is a power of p
            out.append((g, p, powers[p % n], powers[-1]))
    return out
