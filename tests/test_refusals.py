"""Input refusals of the library calls that no other test reaches: each
case is refused with UsageError, and its message names the fault; an order
past ORDER_LIMIT is refused with ResourceLimitError before any work; every
ResourceLimitError is raised by errors.check_budget."""

import ast
import pathlib

import pytest

import equichar.errors as errors_mod
from equichar.burnside import burnside_ring
from equichar.cells import CellSpace
from equichar.errors import ResourceLimitError, UsageError, check_budget
from equichar.euler import chi_k_averaging, chi_k_equivariant_tuples
from equichar.groups import (CyclicGroup, DihedralGroup, SymmetricGroup,
                             WreathGroup, commuting_tuple_classes, cyclic,
                             symmetric, trivial_group, whole_subgroup)
from equichar.gsets import (BiSet, biset_from_single_action, quotient_by,
                            symmetric_power, wreath_power)
from equichar.motivic import L, OrbifoldDatum, embed
from equichar.powerstruct import rhs_theorem1

C2 = cyclic(2)
R2, R3 = burnside_ring(C2), burnside_ring(symmetric(3))
FLIP = biset_from_single_action(2, C2, [(1, 0)], side="O")
TRIV3 = BiSet(3, trivial_group(), trivial_group(), (), ())

REFUSALS = [
    ("cyclic", lambda: CyclicGroup(0), "cyclic group needs n >= 1"),
    ("dihedral", lambda: DihedralGroup(0), "dihedral group needs n >= 1"),
    ("symmetric", lambda: SymmetricGroup(-1), "symmetric group needs n >= 0"),
    ("wreath", lambda: WreathGroup(C2, -1), "wreath product needs n >= 0"),
    ("tuple-order", lambda: commuting_tuple_classes(C2, -1),
     "order must be >= 0, got -1"),
    ("averaging-order", lambda: chi_k_averaging(TRIV3, -1),
     "order must be >= 0, got -1"),
    ("averaging-order-flip", lambda: chi_k_averaging(FLIP, -1),
     "order must be >= 0, got -1"),
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
    ("element-float", lambda: R2.element((1.5, 2)),
     "coefficients must be integers, got 1.5"),
    ("element-str", lambda: R2.element((1, "2")),
     "coefficients must be integers, got '2'"),
    ("element-bool", lambda: R2.element((True, 0)),
     "coefficients must be integers, got True"),
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


@pytest.mark.parametrize("call, k", [
    (chi_k_averaging, -1), (chi_k_averaging, 3000),
    (lambda X, k: commuting_tuple_classes(X.gO, k), 5000),
    (chi_k_equivariant_tuples, 5000)],
    ids=["averaging-negative", "averaging", "tuples", "equivariant-tuples"])
def test_an_order_outside_the_limit_is_refused_before_any_work(call, k):
    """These recursions go k deep: past ORDER_LIMIT they ended in a
    RecursionError, and at k = -1 the averaging form answered.  The groups
    are built here, and neither has a word table or memo entry after."""
    gO, gB = CyclicGroup(2), CyclicGroup(1)
    X = BiSet(2, gO, gB, [(1, 0)], [])
    error = UsageError if k < 0 else ResourceLimitError
    with pytest.raises(error, match="order"):
        call(X, k)
    for G in (gO, gB):
        assert not G.memo and "_word_table" not in vars(G)


@pytest.mark.parametrize("x", [R2.unit, L(R2, 1)], ids=["burnside", "lext"])
def test_ring_elements_meet_plain_numbers_only_as_integers(x):
    assert (x == 1) is False
    with pytest.raises(TypeError):
        2.5 * x


def test_a_budget_admits_its_own_value():
    check_budget("x", 5, 5)
    with pytest.raises(ResourceLimitError) as e:
        check_budget("x", 6, 5)
    assert str(e.value) == "x (size 6 exceeds budget 5)"
    assert e.value.size == 6 and e.value.budget == 5


def test_check_budget_is_the_only_place_a_budget_error_is_made():
    """One rule for every budget: the package constructs ResourceLimitError
    only inside errors.check_budget."""
    src = pathlib.Path(errors_mod.__file__).parent
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}

    def calls(tree):
        return [c for c in ast.walk(tree) if isinstance(c, ast.Call) and
                getattr(c.func, "id", getattr(c.func, "attr", "")) ==
                "ResourceLimitError"]
    (check,) = [f for f in ast.walk(trees["errors.py"])
                if isinstance(f, ast.FunctionDef) and f.name == "check_budget"]
    assert [c for tree in trees.values() for c in calls(tree)] == \
        calls(check) and len(calls(check)) == 1
