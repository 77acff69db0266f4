import pytest

from equichar.burnside import burnside_ring
from equichar.cells import CellSpace
from equichar import euler
from equichar.errors import InvariantViolation, ResourceLimitError
from equichar.euler import (chi_k, chi_k_averaging, chi_k_equivariant,
                            chi_k_equivariant_tuples, chi_orb,
                            tuple_class_strata)
from equichar.groups import cyclic, dihedral, make_group, symmetric
from equichar.gsets import (BiSet, biset_from_single_action, trivial_group,
                            wreath_power)
from oracles import empty_biset, point_biset


def o_regular(G):
    perms = [tuple(G.mul(s, x) for x in range(G.order)) for s in G.generators]
    return biset_from_single_action(G.order, G, perms, side="O")


def o_point(G):
    return point_biset(G, trivial_group())


def test_chi_orb_point_s3():
    # number of conjugacy classes of S3
    assert chi_orb(o_point(symmetric(3))) == 3


def test_chi_k_point_s3_hierarchy():
    pt = o_point(symmetric(3))
    values = [chi_k(pt, k) for k in range(4)]
    assert values == [1, 3, 8, 21]


def test_chi_k_point_counts_commuting_tuple_classes():
    for G in (cyclic(4), dihedral(3), symmetric(3)):
        pt = o_point(G)
        for k in (0, 1, 2):
            assert chi_k(pt, k) == chi_k_averaging(pt, k)


def test_chi_k_free_action_is_one():
    """A free G-set of size |G| contributes exactly 1 at every order."""
    X = o_regular(symmetric(3))
    for k in range(4):
        assert chi_k(X, k) == 1


def test_chi_orb_swap_set():
    Z2 = cyclic(2)
    X = biset_from_single_action(3, Z2, [(1, 0, 2)], side="O")
    # identity: 3 points / 2 orbits; flip: 1 fixed point / 1 orbit
    assert chi_orb(X) == 3


def test_chi_0_is_orbit_count():
    S3 = symmetric(3)
    perms = [tuple(S3.mul(s, x) for x in range(6)) for s in S3.generators]
    X = biset_from_single_action(6, S3, perms, side="O")
    assert chi_k(X, 0) == 1
    Y = biset_from_single_action(3, S3, [(1, 0, 2), (1, 2, 0)], side="O")
    assert chi_k(Y, 0) == 1


def test_chi_k_equivariant_biregular_z2():
    Z2 = cyclic(2)
    Z2b = make_group({"type": "cyclic", "n": 2})
    X = BiSet(4, Z2, Z2b, ((2, 3, 0, 1),), ((1, 0, 3, 2),))
    R = burnside_ring(Z2b)
    assert chi_k_equivariant(X, 0) == R.basis(0)
    assert chi_k_equivariant(X, 1) == R.basis(0)


def test_chi_k_equivariant_translation_biset():
    """Z/2 acting on itself on both sides: the O-quotient is a B-fixed
    point, so every order gives the unit class."""
    Z2 = cyclic(2)
    Z2b = make_group({"type": "cyclic", "n": 2})
    X = BiSet(2, Z2, Z2b, ((1, 0),), ((1, 0),))
    R = burnside_ring(Z2b)
    for k in range(3):
        assert chi_k_equivariant(X, k) == R.unit


def test_dual_paths_agree_on_zoo():
    """Recursive centralizer path vs direct commuting-tuple path."""
    Z2 = cyclic(2)
    S3 = symmetric(3)
    zoo = [
        o_point(S3),
        o_regular(S3),
        biset_from_single_action(3, S3, [(1, 0, 2), (1, 2, 0)], side="O"),
        o_regular(dihedral(4)),
        biset_from_single_action(3, Z2, [(1, 0, 2)], side="O"),
    ]
    for X in zoo:
        for k in (0, 1, 2):
            assert chi_k_equivariant(X, k, cross_check=False) == \
                chi_k_equivariant_tuples(X, k)


def test_averaging_matches_on_zoo():
    Z2 = cyclic(2)
    S3 = symmetric(3)
    zoo = [o_point(S3), o_regular(S3),
           biset_from_single_action(3, Z2, [(1, 0, 2)], side="O")]
    for X in zoo:
        for k in (0, 1, 2):
            assert chi_k(X, k, cross_check=False) == chi_k_averaging(X, k)


def test_cross_check_flag_paths(monkeypatch):
    pt = o_point(symmetric(3))
    assert chi_k(pt, 1, cross_check=True) == 3
    assert chi_k(pt, 1) == 3
    # the oracle runs only when asked for, and a disagreement is fatal
    monkeypatch.setattr(euler, "chi_k_averaging", lambda X, k: -1)
    assert chi_k(pt, 1) == 3
    with pytest.raises(InvariantViolation):
        chi_k(pt, 1, cross_check=True)


def test_chi_k_on_cellspace():
    Z2 = cyclic(2)
    T = trivial_group()
    verts = BiSet(3, Z2, T, ((1, 0, 2),), ())
    edges = BiSet(2, Z2, T, ((1, 0),), ())
    X = CellSpace(((0, verts), (1, edges)))
    # chi(X)=1, chi(X^sigma)=1; orbifold: (quotient chi 1+... )
    assert chi_k(X, 0, cross_check=True) == 1
    assert chi_orb(X, cross_check=True) == 2
    # circle with flip: two swapped vertices, two swapped edges, no fixed cell
    flip = BiSet(2, Z2, T, ((1, 0),), ())
    circle = CellSpace(((0, flip), (1, flip)))
    empty = CellSpace(((0, empty_biset(Z2, T)),))
    point = CellSpace(((0, point_biset(Z2, T)),))
    for Y, chi0, orb in ((circle, 0, 0), (empty, 0, 0), (point, 1, 2)):
        assert chi_k(Y, 0, cross_check=True) == chi0
        assert chi_orb(Y, cross_check=True) == orb


def test_chi_1_hand_expansions():
    S3 = symmetric(3)
    # natural action: e -> 1 orbit, transposition -> 1 fixed orbit,
    # 3-cycle -> no fixed points
    X = biset_from_single_action(3, S3, [(1, 0, 2), (1, 2, 0)], side="O")
    assert chi_orb(X, cross_check=True) == 2
    # sign action on {0,1} + fixed point: e -> 2, transposition -> 1,
    # 3-cycle -> 3 (its centralizer acts trivially on the 3 fixed points)
    Y = biset_from_single_action(3, S3, [(1, 0, 2), (0, 1, 2)], side="O")
    assert chi_orb(Y, cross_check=True) == 6


def test_tuple_class_strata_cover_all_classes():
    S3 = symmetric(3)
    X = o_regular(S3)
    strata = tuple_class_strata(X, 1)
    assert len(strata) == 3  # one per conjugacy class
    total = burnside_ring(X.gB).zero
    for _, piece in strata:
        total = total + piece
    assert total == chi_k_equivariant(X, 1, cross_check=False)


def test_oracle_budget_gate():
    G = make_group({"type": "wreath",
                    "inner": {"type": "symmetric", "n": 3}, "n": 3})
    X = point_biset(G, trivial_group())
    with pytest.raises(ResourceLimitError):
        chi_k_averaging(X, 1)


def test_theorem1_small_wreath_z2():
    """Degrees 0..3 of the wreath-power series for the regular Z/2-set
    count partitions: 1, 1, 2, 3."""
    X = o_regular(cyclic(2))
    expected = [1, 1, 2, 3]
    for n, e in enumerate(expected):
        P = wreath_power(X, n)
        assert chi_k(P, 1, cross_check=False) == e


def test_chi_2_wreath_matches_macdonald_coefficient():
    """t^2 coefficient 4 for k=2 (frozen from the closed product)."""
    X = o_regular(cyclic(2))
    P = wreath_power(X, 2)
    assert chi_k(P, 2, cross_check=False) == 4


def test_cardinality_of_chi_0_equals_orbit_chi():
    Z2 = cyclic(2)
    X = biset_from_single_action(4, Z2, [(1, 0, 3, 2)], side="O")
    assert chi_k_equivariant(X, 0, cross_check=True).marks()[0] == \
        chi_k(biset_from_single_action(4, Z2, [(1, 0, 3, 2)], side="O"), 0,
              cross_check=True)
