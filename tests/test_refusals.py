"""Input refusals of the library calls that no other test reaches: each
case is refused with UsageError, and its message names the fault; an order
past ORDER_LIMIT is refused with ResourceLimitError before any work; every
ResourceLimitError is raised by errors.check_budget, every "integer >= m"
refusal by errors.check_int, and every exact quotient is taken by
errors.exact_div.  The library checks every value it is given, so io and
the CLI read rationals only through it."""

import ast
import pathlib
import re

import pytest

import equichar.errors as errors_mod
from equichar.burnside import burnside_ring
from equichar.cells import CellSpace
from equichar.errors import ResourceLimitError, UsageError, check_budget
from equichar.euler import chi_k, chi_k_averaging, chi_k_equivariant_tuples
from equichar.groups import (CyclicGroup, DihedralGroup, PermGroup,
                             SymmetricGroup, WreathGroup,
                             commuting_tuple_classes, cyclic, symmetric,
                             trivial_group, whole_subgroup)
from equichar.gsets import (BiSet, biset_from_single_action, quotient_by,
                            symmetric_power, wreath_power)
from equichar.harness import verify_axioms, verify_lemma1, verify_props12
from equichar.motivic import L, OrbifoldDatum, embed, lext, phi_k, rhs_theorem2
from equichar.powerstruct import (INT_RING, TruncatedSeries, lambda_term,
                                  power, rhs_theorem1)

C2 = cyclic(2)
R2, R3 = burnside_ring(C2), burnside_ring(symmetric(3))
FLIP = biset_from_single_action(2, C2, [(1, 0)], side="O")
TRIV3 = BiSet(3, trivial_group(), trivial_group(), (), ())
SERIES_Z = TruncatedSeries(INT_RING, (1, 2, 3))

REFUSALS = [
    ("cyclic", lambda: CyclicGroup(0),
     "cyclic group n must be an integer >= 1, got 0"),
    ("dihedral", lambda: DihedralGroup(0),
     "dihedral group n must be an integer >= 1, got 0"),
    ("symmetric", lambda: SymmetricGroup(-1),
     "symmetric group n must be an integer >= 0, got -1"),
    ("wreath", lambda: WreathGroup(C2, -1),
     "wreath product n must be an integer >= 0, got -1"),
    ("tuple-order", lambda: commuting_tuple_classes(C2, -1),
     "order must be an integer >= 0, got -1"),
    ("averaging-order", lambda: chi_k_averaging(TRIV3, -1),
     "order must be an integer >= 0, got -1"),
    ("averaging-order-flip", lambda: chi_k_averaging(FLIP, -1),
     "order must be an integer >= 0, got -1"),
    ("b-perms", lambda: BiSet(2, C2, C2, [(1, 0)], []),
     "need 1 B-side permutations, got 0"),
    ("act-side", lambda: FLIP.act("X", 1, [0]), "side must be 'O' or 'B'"),
    ("single-side", lambda: biset_from_single_action(2, C2, [(1, 0)], "X"),
     "side must be 'O' or 'B'"),
    ("quotient", lambda: quotient_by(FLIP, whole_subgroup(cyclic(3))),
     "subgroup belongs to a different group"),
    ("symmetric-power", lambda: symmetric_power(FLIP, -1),
     "symmetric power k must be an integer >= 0, got -1"),
    ("wreath-power", lambda: wreath_power(FLIP, -1),
     "wreath power n must be an integer >= 0, got -1"),
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
     "order must be an integer >= 0, got -1"),
    ("datum-ring", lambda: OrbifoldDatum(C2, R2, 1, (1,), (
        ((0,), embed(R3.unit), 0),)), "stratum class not in the datum's ring"),
    ("rhs-exponent", lambda: rhs_theorem1("m", 1, 3),
     "unsupported exponent type str"),
    ("embed", lambda: embed(3), "cannot embed int"),
    ("int-coefficient-bool", lambda: TruncatedSeries(INT_RING, (True, 2)),
     "not an integer: bool"),
    ("int-power-bool", lambda: power(SERIES_Z, True), "not an integer: bool"),
    ("rhs-exponent-bool", lambda: rhs_theorem1(True, 1, 3),
     "unsupported exponent type bool"),
    ("burnside-times-bool", lambda: R2.unit * True,
     "elements of different Burnside rings"),
    ("lext-times-bool", lambda: L(R2, 1) * True, "mixed L-extended rings"),
]

# A permutation is a list or tuple of ints listing each of 0..n-1 once: a
# bool or a float equal to an index is no index.
REFUSALS += [
    (f"{name}-{kind}", call, f"^{re.escape(message)}$")
    for kind, perms, message in [
        ("bool", [(True, False)],
         "not a permutation of 2 points: entry 0 is a bool"),
        ("float", [(1.0, 0.0)],
         "not a permutation of 2 points: entry 0 is a float"),
        ("not-a-list", [5], "not a permutation of 2 points: int, not a list"),
        ("length", [(0,)], "not a permutation of 2 points: length 1"),
        ("repeat", [(0, 0)], "not a permutation of 2 points: 1 is missing")]
    for name, call in [
        ("biset-perm", lambda perms=perms: BiSet(2, C2, trivial_group(),
                                                 perms, ())),
        ("perm-group-generator", lambda perms=perms: PermGroup(2, perms))]]
REFUSALS += [
    ("biset-act-not-a-list", lambda: BiSet(2, C2, trivial_group(), 5, ()),
     "^actO must be a list, got 5$"),
    ("perm-group-generators-not-a-list", lambda: PermGroup(2, 5),
     "^permutation generators must be a list, got 5$"),
]
REFUSALS += [
    (f"basis-{i}", lambda i=i: R2.basis(i),
     f"^index must name one of the 2 basis classes, got {i!r}$")
    for i in (2, -1, True)]

# Every check_int site, as (id, call of the checked integer, what the
# message names, least value admitted).  Each refuses an int below the
# least value, a float and a bool; an id that REFUSALS already has is
# there with its int below the least value.
INT_SITES = [
    ("cyclic", CyclicGroup, "cyclic group n", 1),
    ("dihedral", DihedralGroup, "dihedral group n", 1),
    ("symmetric", SymmetricGroup, "symmetric group n", 0),
    ("wreath", lambda n: WreathGroup(C2, n), "wreath product n", 0),
    ("perm", lambda d: PermGroup(d, []), "permutation group degree", 0),
    ("tuple-order", lambda k: commuting_tuple_classes(C2, k), "order", 0),
    ("chi-k", lambda k: chi_k(TRIV3, k), "order", 0),
    ("averaging-order", lambda k: chi_k_averaging(TRIV3, k), "order", 0),
    ("datum-order", lambda k: OrbifoldDatum(C2, R2, k, (), ()), "order", 0),
    ("rhs2-order", lambda k: rhs_theorem2(embed(R2.unit), k, 0), "order", 1),
    ("size", lambda n: BiSet(n, C2, C2, [], []), "size", 0),
    ("symmetric-power", lambda k: symmetric_power(FLIP, k),
     "symmetric power k", 0),
    ("wreath-power", lambda n: wreath_power(FLIP, n), "wreath power n", 0),
    ("dim", lambda d: CellSpace([(d, FLIP)]), "cell dimension", 0),
    ("lemma1-N", lambda N: verify_lemma1(FLIP, N), "truncation", 0),
    ("axioms-N", lambda N: verify_axioms("int", 1, N), "truncation", 1),
    ("axioms-trials", lambda t: verify_axioms("int", t, 1), "trials", 1),
    ("props12-N", lambda N: verify_props12(1, N), "truncation", 0),
    ("props12-trials", lambda t: verify_props12(t, 1), "trials", 1),
    ("phi-index", lambda r: phi_k((r,), (1,)), "phi_k index", 1),
    ("substitute", lambda r: SERIES_Z.substitute(1, r), "substitution power",
     1),
    ("lambda-term", lambda i: lambda_term(INT_RING, 1, i, 2),
     "lambda-term power", 1),
    ("lambda-term-N", lambda N: lambda_term(INT_RING, 1, 1, N),
     "truncation", 0),
    ("truncate", SERIES_Z.truncate, "truncation", 0),
    ("rhs1-N", lambda N: rhs_theorem1(1, 1, N), "truncation", 0),
    ("rhs2-N", lambda N: rhs_theorem2(embed(R2.unit), 1, 0, None, N),
     "truncation", 0),
]
OLD_IDS = {c[0] for c in REFUSALS}
REFUSALS += [
    (f"{name}-{kind}", lambda call=call, v=v: call(v),
     f"^{re.escape(f'{what} must be an integer >= {least}, got {v!r}')}$")
    for name, call, what, least in INT_SITES
    for kind, v in (("below", least - 1), ("float", least + 1.5),
                    ("bool", True))
    if not (kind == "below" and name in OLD_IDS)]

# A rational from a caller is an int, a Fraction or a "p/q" string: a float
# would become a binary fraction and a bool an integer.
REFUSALS += [
    (name, call, f"^bad rational {re.escape(repr(v))}$")
    for v in (0.1, True)
    for name, call in [
        (f"L-{v}", lambda v=v: L(R2, v)),
        (f"lext-{v}", lambda v=v: lext(R2, ((v, R2.unit),))),
        (f"phi-weight-{v}", lambda v=v: phi_k((2,), (v,))),
        (f"datum-weight-{v}", lambda v=v: OrbifoldDatum(C2, R2, 1, (v,), ())),
        (f"datum-shift-{v}", lambda v=v: OrbifoldDatum(
            C2, R2, 1, (1,), (((0,), embed(R2.unit), v),))),
        (f"rhs2-dimension-{v}",
         lambda v=v: rhs_theorem2(embed(R2.unit), 1, v)),
        (f"rhs2-weight-{v}",
         lambda v=v: rhs_theorem2(embed(R2.unit), 1, 1, (v,))),
        (f"props12-weight-{v}",
         lambda v=v: verify_props12(1, 1, weights=(v, 1))),
    ]]


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


@pytest.mark.parametrize("x", [R2.unit, L(R2, 1)], ids=["burnside", "lext"])
def test_a_bool_is_no_integer_scalar(x):
    """True * x has no product, as 2.5 * x has none; x * True is refused
    by the ring check (a REFUSALS row)."""
    with pytest.raises(TypeError):
        True * x


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


def test_check_int_is_the_only_place_an_integer_bound_is_refused():
    """One rule for every "integer >= m": outside errors.py, no UsageError
    is raised straight under an if that compares a name with an integer
    constant.  Only the two sign checks of rationals are exempt; a range
    check such as 0 <= idx < n names both its bounds and is not one."""
    exempt = {("rhs_theorem2", "d"), ("OrbifoldDatum", "shift")}
    src = pathlib.Path(errors_mod.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        if path.name == "errors.py":
            continue
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.If) or not any(
                        isinstance(s, ast.Raise) and
                        isinstance(s.exc, ast.Call) and
                        getattr(s.exc.func, "id", "") == "UsageError"
                        for s in node.body):
                    continue
                for c in ast.walk(node.test):
                    if isinstance(c, ast.Compare) and len(c.ops) == 1:
                        sides = (c.left, c.comparators[0])
                        names = [x.id for x in sides
                                 if isinstance(x, ast.Name)]
                        if names and any(
                                isinstance(x, ast.Constant) and
                                type(x.value) is int for x in sides):
                            found.add((getattr(top, "name", path.name),
                                       names[0]))
    assert found == exempt


def test_io_and_cli_read_rationals_only_through_the_library():
    """A rational is parsed by the library call it is handed to: io.py
    never calls parse_fraction, and cli.py only in _parse_weights, whose
    message adds the --weights prefix."""
    src = pathlib.Path(errors_mod.__file__).parent
    callers = set()
    for name in ("io.py", "cli.py"):
        for top in ast.parse((src / name).read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(
                        node.func, "id", getattr(node.func, "attr", "")) == \
                        "parse_fraction":
                    callers.add((name, getattr(top, "name", None)))
    assert callers == {("cli.py", "_parse_weights")}


def test_exact_div_is_the_only_place_a_quotient_is_checked():
    """One rule for every exact quotient: outside errors.py, no function
    both calls divmod and raises InvariantViolation, so a remainder that
    means a wrong table or series is refused by errors.exact_div."""
    src = pathlib.Path(errors_mod.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "errors.py":
            continue
        for f in ast.walk(ast.parse(path.read_text())):
            if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = {getattr(c.func, "id", getattr(c.func, "attr", ""))
                     for c in ast.walk(f) if isinstance(c, ast.Call)}
            if "divmod" in names and "InvariantViolation" in names:
                found.append(f"{path.name}:{f.name}")
    assert found == []


def test_a_wrong_weight_count_is_refused_in_one_wording():
    """A datum, Theorem 2's product and phi_k read weights alike."""
    for call in (lambda w: OrbifoldDatum(C2, R2, 2, w, ()),
                 lambda w: rhs_theorem2(embed(R2.unit), 2, 0, w, 2),
                 lambda w: phi_k((1, 2), w)):
        for weights in ((1,), (1, 2, 3)):
            with pytest.raises(UsageError, match=f"^need 2 weights, got "
                                                 f"{len(weights)}$"):
                call(weights)
