import pytest

from equichar.errors import UsageError
from equichar.cells import CellSpace, chi
from equichar.groups import SymmetricGroup, cyclic, symmetric, trivial_group
from equichar.gsets import biset_from_single_action
from oracles import empty_biset, point_biset


def regular(G):
    perms = [tuple(G.mul(s, x) for x in range(G.order)) for s in G.generators]
    return biset_from_single_action(G.order, G, perms, side="O")


def circle_with_flip():
    """Two vertices + two edges, Z/2 swapping the halves."""
    Z2 = cyclic(2)
    verts = biset_from_single_action(2, Z2, [(1, 0)], side="O")
    edges = biset_from_single_action(2, Z2, [(1, 0)], side="O")
    return CellSpace(((0, verts), (1, edges)))


def test_chi_signed_count():
    X = circle_with_flip()
    assert chi(X) == 0


def test_chi_of_biset_is_cardinality():
    assert chi(regular(symmetric(3))) == 6


def test_cells_must_share_groups():
    Z2 = cyclic(2)
    a = biset_from_single_action(1, Z2, [(0,)], side="O")
    b = biset_from_single_action(1, cyclic(3), [(0,)], side="O")
    with pytest.raises(UsageError):
        CellSpace(((0, a), (1, b)))


def test_cells_over_equal_but_distinct_groups_rejected():
    """Groups are the same only when they are one object: an S3 built
    directly is not the cached S3, so the cell space is refused when it
    is built rather than when its Burnside elements meet."""
    a = regular(symmetric(3))
    b = regular(SymmetricGroup(3))
    with pytest.raises(UsageError, match="cells carry different groups"):
        CellSpace(((0, a), (1, b)))


def test_negative_dimension_rejected():
    """Dimensions must be non-negative integers, not merely convertible."""
    Z2 = cyclic(2)
    a = biset_from_single_action(1, Z2, [(0,)], side="O")
    for d in (-1, 1.5, "0", True):
        with pytest.raises(UsageError, match="integer >= 0"):
            CellSpace(((d, a),))


def test_interval_with_swap():
    """Segment subdivided at the midpoint, flip swapping the halves:
    3 vertices (endpoints swapped, midpoint fixed), 2 swapped edges."""
    Z2 = cyclic(2)
    verts = biset_from_single_action(3, Z2, [(1, 0, 2)], side="O")
    edges = biset_from_single_action(2, Z2, [(1, 0)], side="O")
    X = CellSpace(((0, verts), (1, edges)))
    assert chi(X) == 1


def test_empty_space():
    Z2, T = cyclic(2), trivial_group()
    X = CellSpace(((0, empty_biset(Z2, T)),))
    assert chi(X) == 0


def test_point_space():
    Z2, T = cyclic(2), trivial_group()
    X = CellSpace(((0, point_biset(Z2, T)),))
    assert chi(X) == 1
