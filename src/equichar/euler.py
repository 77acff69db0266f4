"""The hierarchy of orbifold and higher-order Euler characteristics.

Order k is defined by the recursion

    chi^(k)(X, G) = sum over conjugacy classes [g] of chi^(k-1)(X^g, C_G(g)),
    chi^(0)(X, G) = chi(X/G),

and the equivariant refinement replaces the base case by the equivariant
characteristic of the quotient in A(G_B).  Two independent evaluation routes
are kept: the centralizer recursion (production) and direct enumeration over
commuting tuples / averaging over commuting tuples (oracles, gated to small
groups); cross-checking is opt-in and any disagreement is fatal.
"""

from __future__ import annotations

from .burnside import BurnsideElement, BurnsideRing, burnside_ring, class_of
from .cells import CellSpace
from .errors import InvariantViolation, UsageError, check_budget, exact_div
from .groups import (
    Subgroup,
    centralizer,
    centralizer_in,
    check_order,
    commuting_tuple_classes,
    conjugacy_classes_in,
    whole_subgroup,
)
from .gsets import BiSet, quotient_by

ORACLE_GROUP_LIMIT = 400  # averaging / tuple-form oracles stay below this


def _require_trivial_b(X) -> None:
    if X.gB.order != 1:
        raise UsageError("this characteristic needs a trivial B side; "
                         "use the equivariant variant instead")


# ---------------------------------------------------------------------------
# production recursion over (fixed subset, acting subgroup)

def _rec_equivariant(X: BiSet, S: tuple[int, ...], H: Subgroup, k: int,
                     ring: BurnsideRing, memo: dict) -> BurnsideElement:
    if not S:
        return ring.zero
    key = (S, H, k)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if k == 0:
        res = class_of(quotient_by(X, H, S))  # S/H as a B-side G_B-set
    else:
        res = ring.zero
        for cls in conjugacy_classes_in(H):
            g = cls[0]
            Sg = X.fixed("O", (g,), S)
            C = centralizer_in(H, g)
            res = res + _rec_equivariant(X, Sg, C, k - 1, ring, memo)
    memo[key] = res
    return res


# ---------------------------------------------------------------------------
# oracle routes

def tuple_class_strata(X: BiSet, k: int):
    """(tuple class rep, chi^{G_B}(X^phi / C(phi))) for every commuting
    k-tuple class [phi] of the O-side group; zero pieces are kept so callers
    see one stratum per class."""
    check_budget("tuple-form oracle", X.gO.order, ORACLE_GROUP_LIMIT)
    tuples = commuting_tuple_classes(X.gO, k)  # refuses a bad k first
    ring, out = burnside_ring(X.gB), []
    for tup, _ in tuples:
        S = X.fixed("O", tup, range(X.size))
        piece = ring.zero if not S else \
            class_of(quotient_by(X, centralizer(X.gO, tup), S))
        out.append((tup, piece))
    return out


def chi_k_equivariant_tuples(X: BiSet, k: int) -> BurnsideElement:
    """Direct form: sum over commuting k-tuple classes [phi] of
    chi^{G_B}(X^phi / C(phi)).  Oracle, gated to small O-side groups."""
    return sum((piece for _, piece in tuple_class_strata(X, k)),
               burnside_ring(X.gB).zero)


def chi_k_averaging(X: BiSet, k: int) -> int:
    """Averaging form: (1/|G|) * sum over pairwise-commuting (k+1)-tuples of
    |X^tuple|.  Oracle, gated to small O-side groups; integrality asserted."""
    check_order(k)
    G = X.gO
    check_budget("averaging oracle", G.order, ORACLE_GROUP_LIMIT)
    perms = G.images(X.actO, X.size)[0]

    def rec(pool: list[int], S: list[int], depth: int) -> int:
        if depth == 0:
            return len(S)
        total = 0
        for g in pool:
            sub_pool = [h for h in pool if G.mul(g, h) == G.mul(h, g)]
            Sg = [p for p in S if perms[g][p] == p]
            total += rec(sub_pool, Sg, depth - 1)
        return total

    return exact_div(rec(list(G.elements()), list(range(X.size)), k + 1),
                     G.order, "the averaging sum over |G|")


# ---------------------------------------------------------------------------
# public hierarchy

def chi_k_equivariant(X: BiSet | CellSpace, k: int,
                      cross_check: bool = False) -> BurnsideElement:
    """Order-k equivariant Euler characteristic in A(G_B)."""
    check_order(k)
    if isinstance(X, CellSpace):
        return X.signed_sum(lambda F: chi_k_equivariant(F, k, cross_check),
                            burnside_ring(X.gB).zero)
    ring = burnside_ring(X.gB)
    value = _rec_equivariant(X, tuple(range(X.size)), whole_subgroup(X.gO),
                             k, ring, {})
    if cross_check and X.gO.order <= ORACLE_GROUP_LIMIT:
        other = chi_k_equivariant_tuples(X, k)
        if other != value:
            raise InvariantViolation(
                f"recursion {value.render()} != tuple form {other.render()} "
                f"(k={k}, O side {X.gO.label})")
    return value


def chi_k(X: BiSet | CellSpace, k: int,
          cross_check: bool = False) -> int:
    """Order-k Euler characteristic (trivial B side): chi^(0) is the orbit
    count of the quotient and order k recurses over centralizers."""
    check_order(k)
    _require_trivial_b(X)
    if isinstance(X, CellSpace):
        return X.signed_sum(lambda F: chi_k(F, k, cross_check), 0)
    value = chi_k_equivariant(X, k).coeffs[0]
    if cross_check and X.gO.order <= ORACLE_GROUP_LIMIT:
        other = chi_k_averaging(X, k)
        if other != value:
            raise InvariantViolation(
                f"recursion {value} != averaging form {other} (k={k})")
    return value


def chi_orb(X: BiSet | CellSpace,
            cross_check: bool = False) -> int:
    """Orbifold Euler characteristic: sum over conjugacy classes [g] of
    chi(X^g / C(g)); equal to the commuting-pair average."""
    return chi_k(X, 1, cross_check)
