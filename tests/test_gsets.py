import inspect

import pytest
from hypothesis import given, settings, strategies as st

from equichar.errors import InvariantViolation, ResourceLimitError, UsageError
from equichar.groups import (CommutingTuple, centralizer, cyclic, dihedral,
                             make_group, symmetric, trivial_group)
from equichar.gsets import (POINT_BUDGET, BiSet, biset_from_single_action,
                            disjoint_union, empty_biset, fixed_set,
                            point_biset, product, quotient_by,
                            symmetric_power, wreath_power)
from oracles import subgroup_from_generators


def regular_biset(G, side="O"):
    perms = [tuple(G.mul(s, x) for x in range(G.order)) for s in G.generators]
    return biset_from_single_action(G.order, G, perms, side=side)


def biregular(G):
    """G acting on itself by left (O) and inverse-right (B) translation."""
    actO = [tuple(G.mul(s, x) for x in range(G.order)) for s in G.generators]
    actB = [tuple(G.mul(x, G.inv(s)) for x in range(G.order))
            for s in G.generators]
    return BiSet(G.order, G, G, actO, actB)


def test_validate_accepts_biregular():
    for G in (cyclic(2), cyclic(6), symmetric(3), dihedral(4)):
        biregular(G).validate()


def test_validate_rejects_noncommuting_actions():
    S3 = symmetric(3)
    # both sides act by left translation: s*(x*b) != (s*x)*b in general
    actO = [tuple(S3.mul(s, x) for x in range(6)) for s in S3.generators]
    X = BiSet(6, S3, S3, actO, actO)
    with pytest.raises(InvariantViolation):
        X.validate()


def test_validate_rejects_non_permutation():
    Z2 = cyclic(2)
    with pytest.raises(UsageError):
        BiSet(2, Z2, trivial_group(), ((0, 0),), ())


def test_validate_rejects_wrong_generator_count():
    Z2 = cyclic(2)
    with pytest.raises(UsageError):
        BiSet(2, Z2, trivial_group(), (), ())


def test_act_by_word_matches_generator_perms():
    S3 = symmetric(3)
    X = regular_biset(S3)
    for g in range(6):
        p = X.perm("O", g)
        assert sorted(p) == list(range(6))
        for x in range(6):
            assert p[x] == S3.mul(g, x)


def test_orbits_regular_set_is_transitive():
    S3 = symmetric(3)
    X = regular_biset(S3)
    assert X.orbits_on("O", S3.generators, range(X.size)) == [list(range(6))]


def test_orbits_on_subset():
    Z2 = cyclic(2)
    X = biset_from_single_action(4, Z2, [(1, 0, 2, 3)], side="O")
    orbs = X.orbits_on("O", Z2.generators, (0, 1, 3))
    assert orbs == [[0, 1], [3]]


def test_fixed_set_of_identity_is_everything():
    S3 = symmetric(3)
    X = regular_biset(S3)
    F = fixed_set(X, (0,))
    assert F.size == X.size
    assert F.gO.order == 6  # centralizer of identity is the whole group


def test_fixed_set_centralizer_action():
    S3 = symmetric(3)
    X = biset_from_single_action(3, S3, [(1, 0, 2), (1, 2, 0)], side="O")
    t = S3.generators[0]  # a transposition fixing one point
    F = fixed_set(X, (t,))
    assert F.size == 1
    assert F.gO.order == 2  # centralizer of a transposition in S3


def test_fixed_set_b_action_survives():
    Z2 = cyclic(2)
    X = biregular(Z2)
    F = fixed_set(X, (1,))
    assert F.size == 0


def test_quotient_regular_is_point():
    S3 = symmetric(3)
    X = regular_biset(S3)
    Q = quotient_by(X)
    assert Q.size == 1
    assert Q.gO.order == 1


def test_quotient_by_subgroup():
    S3 = symmetric(3)
    X = regular_biset(S3)
    H = subgroup_from_generators(S3, [S3.generators[0]])
    Q = quotient_by(X, H)
    assert Q.size == 3


def test_quotient_preserves_b_action():
    Z2 = cyclic(2)
    Z2b = make_group({"type": "cyclic", "n": 2})
    # 4 points (a,b): O flips a, B flips b
    X = BiSet(4, Z2, Z2b, ((2, 3, 0, 1),), ((1, 0, 3, 2),))
    Q = quotient_by(X)
    assert Q.size == 2
    assert Q.perm("B", 1) == (1, 0)


def test_symmetric_power_sizes():
    Z2 = cyclic(2)
    X = regular_biset(Z2)
    for k, size in ((0, 1), (1, 2), (2, 3), (3, 4)):
        assert symmetric_power(X, k).size == size


def test_symmetric_power_action_sorts_multisets():
    Z2 = cyclic(2)
    X = regular_biset(Z2)
    S2 = symmetric_power(X, 2)
    assert S2.labels == ((0, 0), (0, 1), (1, 1))
    assert S2.perm("O", 1) == (2, 1, 0)


def test_wreath_power_structure():
    Z2 = cyclic(2)
    X = regular_biset(Z2)
    P = wreath_power(X, 3)
    assert P.size == 8
    assert P.gO.order == 2 ** 3 * 6
    P.validate()


def test_wreath_power_agrees_with_generator_fold():
    """Direct-action hooks must agree with folding generator words."""
    S3 = symmetric(3)
    X = biset_from_single_action(3, S3, [(1, 0, 2), (1, 2, 0)], side="O")
    P = wreath_power(X, 2)
    W = P.gO
    plain = BiSet(P.size, W, P.gB, P.actO, P.actB)
    for g in range(0, W.order, 7):
        assert P.perm("O", g) == plain.perm("O", g)


def test_wreath_power_degree_zero_and_one():
    Z2 = cyclic(2)
    X = regular_biset(Z2)
    assert wreath_power(X, 1) is X
    P0 = wreath_power(X, 0)
    assert P0.size == 1 and P0.gO.order == 1


def test_wreath_power_point_budget():
    Z2 = cyclic(2)
    X = biset_from_single_action(10, Z2, [tuple(range(10))], side="O")
    with pytest.raises(ResourceLimitError):
        wreath_power(X, 7, max_points=10 ** 6)


def test_symmetric_power_point_budget():
    """The multiset count comb(size + k - 1, k) is checked against the
    budget, 10^6 by default, before any multiset is listed."""
    X = biset_from_single_action(100, cyclic(2), [tuple(range(100))],
                                 side="O")
    with pytest.raises(ResourceLimitError, match="symmetric power") as e:
        symmetric_power(X, 2, max_points=5049)
    assert e.value.size == 5050 and e.value.budget == 5049
    assert symmetric_power(X, 2, max_points=5050).size == 5050
    default = inspect.signature(symmetric_power).parameters["max_points"]
    assert default.default == POINT_BUDGET == 10 ** 6


def test_product_and_disjoint_union():
    Z2 = cyclic(2)
    X = regular_biset(Z2)
    P = product(X, X)
    assert P.size == 4
    assert P.perm("O", 1) == (3, 2, 1, 0)
    U = disjoint_union(X, X)
    assert U.size == 4
    assert U.perm("O", 1) == (1, 0, 3, 2)


def test_group_mismatch_rejected():
    X = regular_biset(cyclic(2))
    Y = regular_biset(cyclic(3))
    with pytest.raises(UsageError):
        product(X, Y)
    with pytest.raises(UsageError):
        disjoint_union(X, Y)


def test_empty_and_point():
    Z2, T = cyclic(2), trivial_group()
    assert empty_biset(Z2, T).size == 0
    P = point_biset(Z2, T)
    assert P.size == 1
    assert P.act("O", 1, 0) == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.data())
def test_fixed_point_counts_conjugation_invariant(n, data):
    """|X^g| is a class function."""
    G = dihedral(n)
    X = regular_biset(G)
    g = data.draw(st.integers(min_value=0, max_value=G.order - 1))
    h = data.draw(st.integers(min_value=0, max_value=G.order - 1))
    count = sum(1 for p in range(X.size) if X.act("O", g, p) == p)
    conj = G.conj(g, h)
    count2 = sum(1 for p in range(X.size) if X.act("O", conj, p) == p)
    assert count == count2


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2, 3, 4, 6]), st.integers(min_value=0, max_value=3))
def test_burnside_orbit_count_lemma(n, k):
    """#orbits * |G| = sum over g of |X^g|, on symmetric powers."""
    G = cyclic(n)
    X = symmetric_power(regular_biset(G), k)
    orbit_count = len(X.orbits_on("O", G.generators, range(X.size)))
    total = sum(sum(1 for p in range(X.size) if X.act("O", g, p) == p)
                for g in range(G.order))
    assert orbit_count * G.order == total


def test_fixed_set_shares_supplied_subgroup():
    S3 = symmetric(3)
    X = regular_biset(S3)
    C = centralizer(S3, CommutingTuple(S3, (S3.generators[0],))).as_group()
    F = fixed_set(X, (S3.generators[0],), sub_group=C)
    assert F.gO is C
