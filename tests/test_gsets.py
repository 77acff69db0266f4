import pytest
from hypothesis import given, settings, strategies as st

from equichar.errors import InvariantViolation, ResourceLimitError, UsageError
from equichar.groups import (FiniteGroup, cyclic, dihedral, make_group,
                             symmetric, trivial_group)
from equichar.gsets import (POINT_BUDGET, BiSet, biset_from_single_action,
                            quotient_by, symmetric_power, wreath_power)
import equichar.gsets as gsets_mod
from oracles import (conj, disjoint_union, empty_biset, point_biset, product,
                     subgroup_from_generators, wreath_power_images)


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


def test_homomorphism_check_is_exhaustive():
    """Every Cayley relation s·x is checked on the whole set.  A side with
    no generators has none, the natural S3-set with a C2 B side passes,
    and the variant that sends S3's 3-cycle to a transposition is refused.
    C4 acting on 3 points by a 3-cycle breaks only the one Cayley edge
    outside the word tree 0 -> 1 -> 2 -> 3, namely 1·3 = 0."""
    triv, S3 = trivial_group(), symmetric(3)
    BiSet(3, triv, triv, (), ()).validate()
    BiSet(3, S3, cyclic(2), [(1, 0, 2), (1, 2, 0)], [(0, 1, 2)]).validate()
    with pytest.raises(InvariantViolation,
                       match="O-side action is not a homomorphism"):
        BiSet(3, S3, triv, [(1, 0, 2), (0, 2, 1)], ()).validate()
    with pytest.raises(InvariantViolation,
                       match=r"^B-side action is not a homomorphism "
                             r"at \(3, 1\)$"):
        BiSet(3, triv, cyclic(4), (), [(1, 2, 0)]).validate()


def test_homomorphism_check_above_its_budget_is_refused(monkeypatch):
    """Map cells above HOM_CHECK_BUDGET are refused with the constant
    named, before any element's images are built.  On 3 points each of
    S3's 6 maps is bytes padded to 256, so the check holds 6·256 cells."""
    def no_walk(*args):
        raise AssertionError("images built above the budget")

    monkeypatch.setattr(gsets_mod, "HOM_CHECK_BUDGET", 6 * 256 - 1)
    monkeypatch.setattr(FiniteGroup, "images", no_walk)
    X = BiSet(3, symmetric(3), trivial_group(), [(1, 0, 2), (1, 2, 0)], ())
    with pytest.raises(ResourceLimitError,
                       match=r"^O-side homomorphism check map cells, "
                             r"HOM_CHECK_BUDGET "
                             r"\(size 1536 exceeds budget 1535\)$"):
        X.validate()


def test_validate_rejects_wrong_generator_count():
    Z2 = cyclic(2)
    with pytest.raises(UsageError):
        BiSet(2, Z2, trivial_group(), (), ())


def test_act_by_word_matches_generator_perms():
    """act maps exactly the points it is given, in their order, and on
    the whole set gives a permutation."""
    S3 = symmetric(3)
    X = regular_biset(S3)
    subsets = ([], [4], [5, 0, 3], range(1, 6, 2), range(6))
    for g in range(6):
        assert sorted(X.act("O", g, range(6))) == list(range(6))
        for points in subsets:
            assert X.act("O", g, points) == [S3.mul(g, x) for x in points]


def test_fixed_keeps_points_fixed_by_every_element():
    """fixed scans only the points it is given and keeps their order."""
    Z2 = cyclic(2)
    X = BiSet(4, Z2, Z2, ((1, 0, 2, 3),), ((0, 1, 3, 2),))
    assert X.fixed("O", (1,), range(4)) == (2, 3)
    assert X.fixed("O", (1,), (3, 0, 2)) == (3, 2)
    assert X.fixed("O", (0, 1), range(4)) == (2, 3)
    assert X.fixed("B", (1,), X.fixed("O", (1,), range(4))) == ()
    assert X.fixed("O", (), (1, 0)) == (1, 0)


def test_orbits_regular_set_is_transitive():
    S3 = symmetric(3)
    X = regular_biset(S3)
    assert X.orbits_on("O", S3.generators, range(X.size)) == [list(range(6))]


def test_orbits_on_subset():
    Z2 = cyclic(2)
    X = biset_from_single_action(4, Z2, [(1, 0, 2, 3)], side="O")
    orbs = X.orbits_on("O", Z2.generators, (0, 1, 3))
    assert orbs == [[0, 1], [3]]


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
    assert Q.act("B", 1, range(Q.size)) == [1, 0]


def test_symmetric_power_sizes():
    Z2 = cyclic(2)
    X = regular_biset(Z2)
    for k, size in ((0, 1), (1, 2), (2, 3), (3, 4)):
        assert symmetric_power(X, k).size == size


def test_symmetric_power_action_sorts_multisets():
    Z2 = cyclic(2)
    X = regular_biset(Z2)
    S2 = symmetric_power(X, 2)
    assert S2.act("O", 1, range(S2.size)) == [2, 1, 0]


def test_wreath_power_structure():
    Z2 = cyclic(2)
    X = regular_biset(Z2)
    P = wreath_power(X, 3)
    assert P.size == 8
    assert P.gO.order == 2 ** 3 * 6
    P.validate()


def test_wreath_power_agrees_with_generator_fold():
    """Every element of W = G≀S_n acts on X^n as the defining formula
    ((a,σ)·x)_i = a_i·x_{σ⁻¹(i)} says, with G acting on itself by left
    multiplication and n-tuples encoded one at a time."""
    for G, n in ((symmetric(3), 2), (cyclic(3), 3)):
        P = wreath_power(regular_biset(G), n)
        W = P.gO
        for g in W.elements():
            assert P.act("O", g, range(P.size)) == \
                wreath_power_images(W, g, G.mul, G.order)


def test_wreath_power_degree_zero_and_one():
    Z2 = cyclic(2)
    X = regular_biset(Z2)
    assert wreath_power(X, 1) is X
    P0 = wreath_power(X, 0)
    assert P0.size == 1 and P0.gO.order == 1


def test_wreath_power_point_budget(monkeypatch):
    """10^7 points pass POINT_BUDGET, 10^6; the budget is read when the
    power is built, so lowering the constant lowers the bar."""
    Z2 = cyclic(2)
    X = biset_from_single_action(10, Z2, [tuple(range(10))], side="O")
    with pytest.raises(ResourceLimitError) as e:
        wreath_power(X, 7)
    assert (e.value.size, e.value.budget) == (10 ** 7, POINT_BUDGET)
    monkeypatch.setattr(gsets_mod, "POINT_BUDGET", 99)
    with pytest.raises(ResourceLimitError, match="wreath power points"):
        wreath_power(X, 2)


def test_symmetric_power_point_budget(monkeypatch):
    """The multiset count comb(size + k - 1, k) is checked against
    POINT_BUDGET, 10^6, before any multiset is listed."""
    assert POINT_BUDGET == 10 ** 6
    X = biset_from_single_action(100, cyclic(2), [tuple(range(100))],
                                 side="O")
    monkeypatch.setattr(gsets_mod, "POINT_BUDGET", 5049)
    with pytest.raises(ResourceLimitError, match="symmetric power") as e:
        symmetric_power(X, 2)
    assert e.value.size == 5050 and e.value.budget == 5049
    monkeypatch.setattr(gsets_mod, "POINT_BUDGET", 5050)
    assert symmetric_power(X, 2).size == 5050


def test_product_and_disjoint_union():
    Z2 = cyclic(2)
    X = regular_biset(Z2)
    P = product(X, X)
    assert P.size == 4
    assert P.act("O", 1, range(P.size)) == [3, 2, 1, 0]
    U = disjoint_union(X, X)
    assert U.size == 4
    assert U.act("O", 1, range(U.size)) == [1, 0, 3, 2]


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
    assert P.fixed("O", (1,), range(P.size)) == (0,)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.data())
def test_fixed_point_counts_conjugation_invariant(n, data):
    """|X^g| is a class function."""
    G = dihedral(n)
    X = regular_biset(G)
    g = data.draw(st.integers(min_value=0, max_value=G.order - 1))
    h = data.draw(st.integers(min_value=0, max_value=G.order - 1))
    count = len(X.fixed("O", (g,), range(X.size)))
    count2 = len(X.fixed("O", (conj(G, g, h),), range(X.size)))
    assert count == count2


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2, 3, 4, 6]), st.integers(min_value=0, max_value=3))
def test_burnside_orbit_count_lemma(n, k):
    """#orbits * |G| = sum over g of |X^g|, on symmetric powers."""
    G = cyclic(n)
    X = symmetric_power(regular_biset(G), k)
    orbit_count = len(X.orbits_on("O", G.generators, range(X.size)))
    total = sum(len(X.fixed("O", (g,), range(X.size)))
                for g in range(G.order))
    assert orbit_count * G.order == total
