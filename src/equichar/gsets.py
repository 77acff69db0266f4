"""Finite sets with two commuting group actions.

A BiSet carries a left action of an "orbifold side" group gO and a left
action of a "Burnside side" group gB, stored as one permutation per group
generator.  BiSet.act maps just the points a scan keeps along an element's
word, and BiSet.fixed and BiSet.orbits_on are built on it; only the
averaging oracle and validate map the whole set under every element, by the
one word-tree walk, FiniteGroup.images, in bytes or list maps as it picks.

A fixed set X^g under the centralizer C(g) is not a BiSet of its own: it is
a tuple of the parent's point indices acted on by a parent-indexed
Subgroup, and quotient_by takes such a pair directly.
"""

from __future__ import annotations

import itertools
from math import comb

from .errors import (InvariantViolation, UsageError, check_budget, check_int,
                     check_perm)
from .groups import (
    FiniteGroup,
    Subgroup,
    trivial_group,
    whole_subgroup,
    wreath,
)

POINT_BUDGET = 1_000_000
# cells the homomorphism check's maps hold, per side: order·max(points, 256)
HOM_CHECK_BUDGET = 2_000_000


class BiSet:
    """Points 0..size-1 with commuting gO (O side) and gB (B side) actions."""

    def __init__(self, size: int, gO: FiniteGroup, gB: FiniteGroup,
                 actO, actB):
        check_int("size", size, 0)
        for side, G, perms in (("O", gO, actO), ("B", gB, actB)):
            if not isinstance(perms, (list, tuple)):
                raise UsageError(f"act{side} must be a list, got {perms!r}")
            if len(perms) != len(G.generators):
                raise UsageError(f"need {len(G.generators)} {side}-side "
                                 f"permutations, got {len(perms)}")
            for p in perms:
                check_perm(p, size)
        self.size = size
        self.gO = gO
        self.gB = gB
        self.actO = tuple(map(tuple, actO))
        self.actB = tuple(map(tuple, actB))

    def _side(self, side: str):
        if side == "O":
            return self.gO, self.actO
        if side == "B":
            return self.gB, self.actB
        raise UsageError(f"side must be 'O' or 'B', not {side!r}")

    def act(self, side: str, g: int, points) -> list[int]:
        """Images of the given points under element g of the chosen side's
        group: g's generator word applied right to left."""
        group, gens = self._side(side)
        out = list(points)
        for i in reversed(group.word(g)):
            out = list(map(gens[i].__getitem__, out))
        return out

    def fixed(self, side: str, elements, points) -> tuple[int, ...]:
        """The given points fixed by every one of the given elements."""
        kept = tuple(points)
        for g in elements:
            kept = tuple(p for p, q in zip(kept, self.act(side, g, kept))
                         if p == q)
        return kept

    def orbits_on(self, side: str, generators, points) -> list[list[int]]:
        """Orbits of the given points under the subgroup generated by the
        given element indices, in order of first point met; each sorted.
        Only the given points, closed under the generators, are mapped."""
        points = tuple(points)
        gen_maps = [dict(zip(points, self.act(side, g, points)))
                    for g in generators]
        seen: set[int] = set()
        out: list[list[int]] = []
        for p0 in points:
            if p0 in seen:
                continue
            orb = [p0]
            seen.add(p0)
            for p in orb:  # grows as the orbit does
                for m in gen_maps:
                    q = m[p]
                    if q not in seen:
                        seen.add(q)
                        orb.append(q)
            orb.sort()
            out.append(orb)
        return out

    def validate(self) -> None:
        """Commutation of the two actions, and the generator assignments
        extending to group homomorphisms: every Cayley relation s·x is
        checked on the whole set, and a side whose maps would hold more
        than HOM_CHECK_BUDGET cells is refused: a bytes map holds 256
        whatever the point count, a list map one per point."""
        for a in self.actO:
            for b in self.actB:
                if any(a[b[p]] != b[a[p]] for p in range(self.size)):
                    raise InvariantViolation("O and B actions do not commute")
        for side in ("O", "B"):
            group, gens = self._side(side)
            group._require_enumerable()
            check_budget(f"{side}-side homomorphism check map cells, "
                         "HOM_CHECK_BUDGET", group.order * max(self.size, 256),
                         HOM_CHECK_BUDGET)
            maps, image = group.images(gens, self.size)
            steps = list(zip(group.generators, gens, group._word_table[3]))
            for x in group.elements():
                for s, perm, row in steps:  # row[x] = s·x, as the tree has it
                    # x = 0 checks maps[s] is perm; then it stands for perm
                    if (maps[row[x]] != image(maps[x], maps[s]) if x else
                            list(maps[s][:self.size]) != list(perm)):
                        raise InvariantViolation(
                            f"{side}-side action is not a homomorphism at "
                            f"({x}, {s})")

    def __repr__(self) -> str:
        return (f"<BiSet size={self.size} O={self.gO.label} "
                f"B={self.gB.label}>")


def biset_from_single_action(size: int, G: FiniteGroup, perms,
                             side: str = "B") -> BiSet:
    """One-sided wrapper: the other side carries the trivial group."""
    triv = trivial_group()
    if side == "B":
        return BiSet(size, triv, G, (), perms)
    if side == "O":
        return BiSet(size, G, triv, perms, ())
    raise UsageError(f"side must be 'O' or 'B', not {side!r}")


def quotient_by(X: BiSet, K: Subgroup | None = None,
                points=None) -> BiSet:
    """K-orbit space (K a subgroup of the O side; default the whole group)
    with the induced B action; the O side is trivialized.  points, when
    given, is a K- and B-invariant subset, and only it is quotiented."""
    if K is None:
        K = whole_subgroup(X.gO)
    elif K.parent is not X.gO:
        raise UsageError("subgroup belongs to a different group than the O side")
    orbs = X.orbits_on("O", K.generators,
                       range(X.size) if points is None else points)
    orbit_of = {p: i for i, orb in enumerate(orbs) for p in orb}
    actB = []
    for j, _ in enumerate(X.gB.generators):
        old = X.actB[j]
        actB.append(tuple(orbit_of[old[orb[0]]] for orb in orbs))
    return BiSet(len(orbs), trivial_group(), X.gB, (), actB)


def symmetric_power(X: BiSet, k: int) -> BiSet:
    """Unordered k-element multisets with both diagonal actions; more than
    POINT_BUDGET of them is refused before any is listed."""
    check_int("symmetric power k", k, 0)
    size = comb(X.size + k - 1, k) if X.size else 0
    check_budget("symmetric power points", size, POINT_BUDGET)
    points = list(itertools.combinations_with_replacement(range(X.size), k))
    rank = {t: i for i, t in enumerate(points)}

    def lifted(side: str, gen_index: int):
        base = (X.actO if side == "O" else X.actB)[gen_index]
        return tuple(rank[tuple(sorted(base[p] for p in t))] for t in points)

    actO = [lifted("O", i) for i in range(len(X.gO.generators))]
    actB = [lifted("B", i) for i in range(len(X.gB.generators))]
    return BiSet(len(points), X.gO, X.gB, actO, actB)


def wreath_power(X: BiSet, n: int) -> BiSet:
    """X^n with the wreath product gO≀S_n acting on the O side
    ((a,σ)·x)_i = a_i·x_{σ⁻¹(i)} and gB acting diagonally; more than
    POINT_BUDGET points is refused before the wreath group is built."""
    check_int("wreath power n", n, 0)
    if n == 1:
        return X
    size = X.size ** n
    check_budget("wreath power points", size, POINT_BUDGET)
    W = wreath(X.gO, n)
    radix = X.size
    points = range(radix)
    weights = [radix ** (n - 1 - i) for i in range(n)]

    def digit_sums(columns):
        # the points of X^n are the base-|X| numerals in order, and
        # columns[j][v] is what digit v of coordinate j adds to the image
        return tuple(map(sum, itertools.product(*columns)))

    actO = []
    for g in W.generators:
        vec, r = W.decode(g)
        inner = [X.act("O", a, points) for a in vec]
        # ((a,σ)·x)_i = a_i·x_{σ⁻¹(i)}: coordinate j lands in slot σ(j)
        actO.append(digit_sums([inner[i][v] * weights[i] for v in points]
                               for i in W.top.perms[r]))
    actB = [digit_sums([base[v] * w for v in points] for w in weights)
            for base in X.actB]
    return BiSet(size, W, X.gB, actO, actB)
