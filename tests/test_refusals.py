"""Input refusals of the library calls that no other test reaches: each
case is refused with UsageError, and its message names the fault."""

import pytest

from equichar.burnside import burnside_ring
from equichar.cells import CellSpace
from equichar.errors import UsageError
from equichar.groups import (CyclicGroup, DihedralGroup, SymmetricGroup,
                             WreathGroup, commuting_tuple_classes, cyclic,
                             symmetric, whole_subgroup)
from equichar.gsets import (BiSet, biset_from_single_action, quotient_by,
                            symmetric_power, wreath_power)
from equichar.motivic import L, OrbifoldDatum, embed
from equichar.powerstruct import rhs_theorem1

C2 = cyclic(2)
R2, R3 = burnside_ring(C2), burnside_ring(symmetric(3))
FLIP = biset_from_single_action(2, C2, [(1, 0)], side="O")

REFUSALS = [
    ("cyclic", lambda: CyclicGroup(0), "cyclic group needs n >= 1"),
    ("dihedral", lambda: DihedralGroup(0), "dihedral group needs n >= 1"),
    ("symmetric", lambda: SymmetricGroup(-1), "symmetric group needs n >= 0"),
    ("wreath", lambda: WreathGroup(C2, -1), "wreath product needs n >= 0"),
    ("tuple-order", lambda: commuting_tuple_classes(C2, -1),
     "tuple order must be >= 0, got -1"),
    ("b-perms", lambda: BiSet(2, C2, C2, [(1, 0)], []),
     "need 1 B-side permutations, got 0"),
    ("act-side", lambda: FLIP.act("X", 1, [0]), "side must be 'O' or 'B'"),
    ("single-side", lambda: biset_from_single_action(2, C2, [(1, 0)], "X"),
     "side must be 'O' or 'B'"),
    ("quotient", lambda: quotient_by(FLIP, whole_subgroup(cyclic(3))),
     "subgroup belongs to a different group"),
    ("symmetric-power", lambda: symmetric_power(FLIP, -1),
     "symmetric power needs k >= 0"),
    ("wreath-power", lambda: wreath_power(FLIP, -1),
     "wreath power needs n >= 0"),
    ("no-cells", lambda: CellSpace([]), "at least one cell"),
    ("cell-not-biset", lambda: CellSpace([(0, "point")]),
     "cells must be \\(dim, BiSet\\) pairs"),
    ("element-length", lambda: R2.element((1,)), "need 2 coefficients, got 1"),
    ("datum-order", lambda: OrbifoldDatum(C2, R2, -1, (), ()),
     "order must be >= 0, got -1"),
    ("datum-ring", lambda: OrbifoldDatum(C2, R2, 1, (1,), (
        ((0,), embed(R3.unit), 0),)), "stratum class not in the datum's ring"),
    ("rhs-exponent", lambda: rhs_theorem1("m", 1, 3),
     "unsupported exponent type str"),
    ("embed", lambda: embed(3), "cannot embed int"),
]


@pytest.mark.parametrize("call, match", [c[1:] for c in REFUSALS],
                         ids=[c[0] for c in REFUSALS])
def test_input_is_refused(call, match):
    with pytest.raises(UsageError, match=match):
        call()


@pytest.mark.parametrize("x", [R2.unit, L(R2, 1)], ids=["burnside", "lext"])
def test_ring_elements_meet_plain_numbers_only_as_integers(x):
    assert (x == 1) is False
    with pytest.raises(TypeError):
        2.5 * x
