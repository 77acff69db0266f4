import json
import math
import pathlib
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import equichar.burnside as burnside_mod
from equichar.burnside import (BurnsideRing, burnside_ring, chi_equivariant,
                               class_of)
from equichar.cells import CellSpace
from equichar.errors import InvariantViolation, ResourceLimitError, UsageError
from equichar.groups import (SubgroupLattice, SymmetricGroup, cyclic,
                             dihedral, make_group, subgroup_lattice, symmetric)
from equichar.gsets import BiSet, biset_from_single_action, trivial_group
from oracles import (coset_biset, disjoint_union, empty_biset,
                     mackey_mismatches, orbit_counts, point_biset, product,
                     symmetric_power_class)


def b_regular(G):
    perms = [tuple(G.mul(s, x) for x in range(G.order)) for s in G.generators]
    return biset_from_single_action(G.order, G, perms, side="B")


def test_marks_z2():
    rows = [list(r) for r in burnside_ring(cyclic(2)).marks_rows]
    assert rows == [[2, 0], [1, 1]]


def test_marks_s3():
    rows = [list(r) for r in burnside_ring(symmetric(3)).marks_rows]
    assert rows == [[6, 0, 0, 0], [3, 1, 0, 0], [2, 0, 2, 0], [1, 1, 1, 1]]


GOLDEN_GROUPS = [(case["name"], case["group"]) for case in json.loads(
    (pathlib.Path(__file__).parent / "golden_marks.json").read_text())]
A6 = {"type": "perm", "degree": 6,
      "generators": [[1, 2, 0, 3, 4, 5], [0, 2, 3, 4, 5, 1]]}


@pytest.mark.parametrize("desc", [desc for _, desc in GOLDEN_GROUPS] + [
    A6, {"type": "symmetric", "n": 6},
    {"type": "wreath", "inner": {"type": "cyclic", "n": 2}, "n": 4},
], ids=[name for name, _ in GOLDEN_GROUPS] + ["A6", "S6", "C2wrS4"])
def test_marks_obey_the_mackey_product_formula(desc):
    """Every product of two basis rows of the table of marks is the marks
    of the sum Mackey's formula gives from the lattice's subgroups; the
    golden groups include S5."""
    assert mackey_mismatches(burnside_ring(make_group(desc))) == []


def test_mackey_formula_catches_a_mark_check_products_passes():
    """Adding 1 to S5's mark of [G/G] at class 17 leaves every product of
    basis rows integral, so check_products passes the table; Mackey's
    formula finds the two products the change breaks."""
    G = symmetric(5)
    ring = BurnsideRing(G, subgroup_lattice(G))
    assert mackey_mismatches(ring) == []
    rows = [list(row) for row in ring.marks_rows]
    rows[18][17] += 1
    ring.marks_rows = tuple(map(tuple, rows))
    ring.check_products()
    assert mackey_mismatches(ring) == [(18, 17), (18, 18)]


def test_marks_lower_triangular_positive_diagonal():
    for G in (cyclic(4), cyclic(6), dihedral(4), symmetric(3)):
        rows = [list(r) for r in burnside_ring(G).marks_rows]
        n = len(rows)
        for i in range(n):
            assert rows[i][i] > 0
            assert all(rows[i][j] == 0 for j in range(i + 1, n))


@pytest.mark.parametrize("desc, subgroups, classes", [
    ({"type": "wreath", "inner": {"type": "cyclic", "n": 2}, "n": 4},
     1659, 193),
    ({"type": "symmetric", "n": 6}, 1455, 56),
], ids=["C2wrS4", "S6"])
def test_large_tables_of_marks_build(desc, subgroups, classes):
    ring = burnside_ring(make_group(desc))
    assert (len(ring.lattice.class_index), ring.n) == (subgroups, classes)


def test_marks_class_budget(monkeypatch):
    """The table of marks is n x n over the n classes of subgroups, so
    MARKS_CLASS_BUDGET bounds n: S4's 11 classes pass a budget of 11 and
    are refused under 10."""
    monkeypatch.setattr(burnside_mod, "MARKS_CLASS_BUDGET", 10)
    with pytest.raises(ResourceLimitError,
                       match=r"table of marks \(size 11 exceeds budget 10\)"):
        burnside_ring(SymmetricGroup(4))  # a fresh instance: nothing cached
    monkeypatch.setattr(burnside_mod, "MARKS_CLASS_BUDGET", 11)
    assert burnside_ring(SymmetricGroup(4)).n == 11


def test_basis_names():
    R = burnside_ring(symmetric(3))
    assert R.basis_name(0) == "[G/e]"
    assert R.basis_name(R.n - 1) == "[G/G]"
    T = burnside_ring(trivial_group())
    assert T.basis_name(0) == "[G/G]"


def test_unit_and_regular():
    R = burnside_ring(symmetric(3))
    assert R.unit.marks() == (1, 1, 1, 1)
    assert R.basis(0).marks() == (6, 0, 0, 0)


def test_unit_and_zero_are_built_once():
    R = burnside_ring(symmetric(3))
    assert R.unit is R.unit and R.zero is R.zero
    assert R.unit == R.basis(R.n - 1) and R.unit.coeffs == (0, 0, 0, 1)
    assert R.zero.marks() == (0, 0, 0, 0) and R.zero.coeffs == (0, 0, 0, 0)


def test_ring_arithmetic_via_marks():
    R = burnside_ring(symmetric(3))
    e = R.basis(0)
    assert (e * e) == 6 * e
    h1, h2 = R.basis(1), R.basis(2)
    assert (h1 * h2) == R.basis(0)
    assert (h1 + h2 - h2) == h1
    assert (2 * h1) == (h1 * 2)


def test_unit_is_multiplicative_identity():
    R = burnside_ring(dihedral(4))
    for i in range(R.n):
        assert R.unit * R.basis(i) == R.basis(i)


def test_from_marks_roundtrip():
    R = burnside_ring(symmetric(3))
    x = R.element([3, -1, 2, 5])
    assert R.from_marks(x.marks()) == x


def test_from_marks_rejects_non_realizable():
    R = burnside_ring(cyclic(2))
    # marks (1, 1) is the unit; (1, 2) violates the congruence
    with pytest.raises(Exception):
        R.from_marks((1, 2))


def test_from_marks_refuses_another_length():
    """A mark vector has one entry per subgroup class: a longer one is not
    read as its first n entries, nor a shorter one left to an IndexError."""
    R = burnside_ring(symmetric(3))
    for marks in ([6, 0, 0, 0, 0], [1, 1, 1], []):
        with pytest.raises(UsageError,
                           match=f"^need 4 marks, got {len(marks)}$"):
            R.from_marks(marks)


def test_class_of_transitive_sets():
    G = symmetric(3)
    R = burnside_ring(G)
    for i in range(R.n):
        X = coset_biset(R, i)
        assert class_of(X) == R.basis(i)


def test_class_of_swap_set():
    Z2 = cyclic(2)
    R = burnside_ring(Z2)
    X = biset_from_single_action(3, Z2, [(1, 0, 2)], side="B")
    assert class_of(X) == R.basis(0) + R.unit


def test_class_of_is_additive_and_multiplicative():
    Z2 = cyclic(2)
    R = burnside_ring(Z2)
    X = b_regular(Z2)
    Y = biset_from_single_action(3, Z2, [(1, 0, 2)], side="B")
    assert class_of(disjoint_union(X, Y)) == class_of(X) + class_of(Y)
    assert class_of(product(X, Y)) == class_of(X) * class_of(Y)


PRODUCT_GROUPS = [
    {"type": "symmetric", "n": 3},
    {"type": "dihedral", "n": 4},
    {"type": "wreath", "inner": {"type": "cyclic", "n": 2}, "n": 2},
]


def random_b_set(data, R):
    """A disjoint union of one to three transitive sets G/H."""
    orbits = data.draw(st.lists(st.integers(0, R.n - 1), min_size=1,
                                max_size=3))
    X = coset_biset(R, orbits[0])
    for i in orbits[1:]:
        X = disjoint_union(X, coset_biset(R, i))
    return X


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_class_of_product_matches_product_of_classes(data):
    """Product by marks against the class of the product G-set; the
    product's coefficients come from back-substitution."""
    R = burnside_ring(make_group(data.draw(st.sampled_from(PRODUCT_GROUPS))))
    X, Y = random_b_set(data, R), random_b_set(data, R)
    assert class_of(product(X, Y)).coeffs == \
        (class_of(X) * class_of(Y)).coeffs


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_coeffs_round_trip_and_equal_values_hash_equally(data):
    R = burnside_ring(make_group(data.draw(st.sampled_from(PRODUCT_GROUPS))))
    c = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=R.n,
                                 max_size=R.n)))
    x = R.element(c)
    assert x.coeffs == c
    assert R.from_marks(x.marks()).coeffs == c
    for y in (x + R.zero, x * R.unit, R.from_marks(x.marks())):
        assert y.coeffs == c and y == x and hash(y) == hash(x)


def test_table_not_closed_under_products_fails_first_product():
    """Triangular with positive diagonal, but [G/H1]^2 has marks (1, 4),
    which are not integral over the basis."""
    G = cyclic(2)
    R = BurnsideRing(G, subgroup_lattice(G))
    R.marks_rows = ((2, 0), (1, 2))
    with pytest.raises(InvariantViolation):
        R.basis(1) * R.basis(1)


def test_class_of_requires_b_side_action():
    S3 = symmetric(3)
    perms = [tuple(S3.mul(s, x) for x in range(6)) for s in S3.generators]
    X = biset_from_single_action(6, S3, perms, side="O")
    with pytest.raises(UsageError):
        class_of(X)


def test_cardinality_hom():
    R = burnside_ring(symmetric(3))
    x = 2 * R.basis(1) + R.unit
    assert x.marks()[0] == 2 * 3 + 1
    Y = biset_from_single_action(3, cyclic(2), [(1, 0, 2)], side="B")
    assert class_of(Y).marks()[0] == 3


def test_symmetric_power_classes_regular_z2():
    R = burnside_ring(cyclic(2))
    expected = [R.unit, R.basis(0), R.basis(0) + R.unit, 2 * R.basis(0),
                2 * R.basis(0) + R.unit]
    for k, e in enumerate(expected):
        assert symmetric_power_class(R, 0, k) == e


def test_chi_equivariant_biset_strata():
    Z2 = cyclic(2)
    R = burnside_ring(Z2)
    X = biset_from_single_action(3, Z2, [(1, 0, 2)], side="B")
    assert chi_equivariant(X) == R.basis(0) + R.unit


def test_chi_equivariant_cells_signed():
    Z2 = cyclic(2)
    T = trivial_group()
    verts = biset_from_single_action(2, T, [], side="O")
    # B side regular on both cells
    verts = BiSet(2, T, Z2, (), ((1, 0),))
    edges = BiSet(2, T, Z2, (), ((1, 0),))
    X = CellSpace(((0, verts), (1, edges)))
    assert chi_equivariant(X) == burnside_ring(Z2).zero
    Y = CellSpace(((1, edges),))
    assert chi_equivariant(Y) == -burnside_ring(Z2).basis(0)


def test_chi_equivariant_empty_and_point():
    Z2 = cyclic(2)
    R = burnside_ring(Z2)
    assert chi_equivariant(empty_biset(trivial_group(), Z2)) == R.zero
    assert chi_equivariant(point_biset(trivial_group(), Z2)) == R.unit


def test_mark_hom_is_ring_map():
    R = burnside_ring(dihedral(4))
    x = R.element([1, -2, 0, 3, 0, 1, 0, 0][:R.n])
    y = R.element([0, 1, 1, -1, 2, 0, 0, 0][:R.n])
    mx, my, mxy = x.marks(), y.marks(), (x * y).marks()
    assert mxy == tuple(a * b for a, b in zip(mx, my))
    assert (x + y).marks() == tuple(a + b for a, b in zip(mx, my))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 4, 6]),
       st.lists(st.integers(min_value=-4, max_value=4), min_size=1,
                max_size=8))
def test_marks_injective(n, coeffs):
    R = burnside_ring(cyclic(n))
    x = R.element((coeffs * R.n)[:R.n])
    if x.marks() == R.zero.marks():
        assert x == R.zero


def test_effective_marks_monotone_under_subgroups():
    """|X^K| >= |X^H| when K is subconjugate to H, for effective classes."""
    G = symmetric(3)
    R = burnside_ring(G)
    rows = R.marks_rows
    # basis order is by subgroup size, and the trivial subgroup is first:
    # every column-0 mark dominates the others in its row
    for i in range(R.n):
        assert rows[i][0] == max(rows[i])


def test_mixed_ring_arithmetic_rejected():
    x = burnside_ring(cyclic(2)).unit
    y = burnside_ring(cyclic(3)).unit
    with pytest.raises(UsageError):
        _ = x + y


def test_render():
    R = burnside_ring(cyclic(2))
    assert (2 * R.basis(0) + R.unit).render() == "2*[G/e] + [G/G]"
    assert R.zero.render() == "0"


def mark_by_coset_scan(G, K, H) -> int:
    """|(G/K)^H| = number of cosets gK with g^-1 H g contained in K."""
    kset = set(K.elements)
    count = 0
    seen: set[int] = set()
    for g in G.elements():
        if g in seen:
            continue
        seen.update(G.mul(g, k) for k in K.elements)
        gi = G.inv(g)
        if all(G.mul(G.mul(gi, h), g) in kset for h in H.generators):
            count += 1
    return count


@pytest.mark.parametrize("desc", [
    {"type": "symmetric", "n": 4},
    {"type": "dihedral", "n": 4},
    {"type": "wreath", "inner": {"type": "cyclic", "n": 2}, "n": 3},
    {"type": "wreath", "inner": {"type": "symmetric", "n": 3}, "n": 2},
], ids=["S4", "D4", "C2wrS3", "S3wrS2"])
def test_marks_match_coset_scan(desc):
    G = make_group(desc)
    R = burnside_ring(G)
    classes = R.lattice.classes
    assert [list(row) for row in R.marks_rows] == [
        [mark_by_coset_scan(G, K, H) for H in classes] for K in classes]


def test_lattice_missing_a_conjugate_is_rejected():
    G = SymmetricGroup(3)
    lat = subgroup_lattice(G)
    # drop one of the three transposition subgroups that is not the
    # representative: the containment count no longer divides evenly
    rep = lat.classes[1].element_set()
    gone = next(fs for fs, i in lat.class_index.items()
                if i == 1 and fs != rep)
    index = {fs: i for fs, i in lat.class_index.items() if fs != gone}
    with pytest.raises(InvariantViolation):
        BurnsideRing(G, SubgroupLattice(G, lat.classes, index))


def test_lattice_index_naming_an_unlisted_class_is_rejected():
    G = SymmetricGroup(3)
    lat = subgroup_lattice(G)
    index = {**lat.class_index, frozenset((0, 99)): len(lat.classes)}
    with pytest.raises(InvariantViolation, match="names a class not listed"):
        BurnsideRing(G, SubgroupLattice(G, lat.classes, index))


def test_lattice_out_of_canonical_order_is_rejected():
    """With S3's order-3 class listed before its order-2 class, the row of
    the order-2 class stops at the larger class before its own diagonal."""
    G = SymmetricGroup(3)
    lat = subgroup_lattice(G)
    assert [H.order for H in lat.classes] == [1, 2, 3, 6]
    swap = (0, 2, 1, 3)
    index = {fs: swap[i] for fs, i in lat.class_index.items()}
    classes = tuple(lat.classes[i] for i in swap)
    with pytest.raises(InvariantViolation, match="not lower triangular"):
        BurnsideRing(G, SubgroupLattice(G, classes, index))


C2_DESC = {"type": "cyclic", "n": 2}
ADAMS_GROUPS = {
    "S3": {"type": "symmetric", "n": 3},
    "D4": {"type": "dihedral", "n": 4},
    "C2wrS2": {"type": "wreath", "inner": C2_DESC, "n": 2},
    "S4": {"type": "symmetric", "n": 4},
    "C2^3": {"type": "product", "factors": [C2_DESC] * 3},
    "C12": {"type": "cyclic", "n": 12},
}


@pytest.mark.parametrize("desc", ADAMS_GROUPS.values(), ids=ADAMS_GROUPS)
def test_adams_matrices_give_orbit_counts(desc):
    """U^r takes the marks of every basis class G/H_h to
    psi^r_K(G/H_h) = sum_(d|r) d·n_d over the K-orbits counted by
    `orbit_counts`, at every class K; U^1 is the identity."""
    R = burnside_ring(make_group(desc))
    counts, n = orbit_counts(R), R.n
    assert R.adams(1) == [((K, 1),) for K in range(n)]
    for r in range(1, 9):
        U = R.adams(r)
        for h, marks in enumerate(R.marks_rows):
            assert [sum(u * marks[M] for M, u in row) for row in U] == \
                [sum(d * c for d, c in counts[h][K].items() if r % d == 0)
                 for K in range(n)]


def dense_adams(R, r):
    """U^r for this r itself, by forward substitution over the whole table
    of marks and every class's orbit counts."""
    counts, out = orbit_counts(R), []
    for K in range(R.n):
        u = []
        for h, row in enumerate(R.marks_rows):
            psi = sum(d * c for d, c in counts[h][K].items() if r % d == 0)
            q, rem = divmod(psi - sum(a * b for a, b in zip(row, u)), row[h])
            assert rem == 0
            u.append(q)
        out.append(tuple((M, c) for M, c in enumerate(u) if c))
    return out


@pytest.mark.parametrize("desc", ADAMS_GROUPS.values(), ids=ADAMS_GROUPS)
def test_adams_matrices_depend_on_r_through_its_gcd_with_the_order(desc):
    """Every K-orbit size divides |G|, so U^r solved directly over the whole
    table equals U^(gcd(r, |G|)), which is what `adams` solves on the
    down-sets and keeps."""
    R = burnside_ring(make_group(desc))
    for r in range(1, 61):
        assert dense_adams(R, r) == R.adams(math.gcd(r, R.group.order)) \
            == R.adams(r)


@pytest.mark.parametrize("desc", ADAMS_GROUPS.values(), ids=ADAMS_GROUPS)
def test_adams_matrices_reject_a_corrupted_mark(desc):
    """Raising any one diagonal mark by 1 leaves some psi^r off the integer
    span of the marks, so the forward substitution meets a remainder."""
    G = make_group(desc)
    lattice = subgroup_lattice(G)
    for h in range(len(lattice.classes)):
        R = BurnsideRing(G, lattice)
        rows = [list(row) for row in R.marks_rows]
        rows[h][h] += 1
        R.marks_rows = tuple(map(tuple, rows))
        with pytest.raises(InvariantViolation):
            for r in range(1, 9):
                R.adams(r)


def test_down_sets_not_closed_under_inclusion_raise():
    """Row 2 of this corrupted C4 table is nonzero at class 1 but not at
    class 0, which lies below class 1: the solves on down-sets refuse it
    as an invariant, not with a KeyError."""
    R = BurnsideRing(cyclic(4), subgroup_lattice(cyclic(4)))
    R.marks_rows = ((4, 0, 0), (2, 2, 0), (0, 1, 1))
    for solve in (lambda: R.adams(2), R.check_products):
        with pytest.raises(InvariantViolation, match="not closed under ⊆"):
            solve()


def _refusal(solve) -> str | None:
    """The message of the InvariantViolation solve() raises, or None."""
    try:
        solve()
    except InvariantViolation as e:
        return str(e)
    return None


@pytest.mark.parametrize("desc", ADAMS_GROUPS.values(), ids=ADAMS_GROUPS)
def test_closure_check_refuses_as_back_substitution_does(desc):
    """Raise one mark by 1 or by |G|, on the diagonal or off it on a
    down-set, so the down-sets stay as they are: check_products refuses
    the table exactly when the integer back_substitute refuses the marks of
    some product of basis rows j <= i, and names a product when it does.
    Every +1 on these groups is refused and most +|G| are not."""
    G = make_group(desc)
    lattice = subgroup_lattice(G)
    outcomes = set()
    for h, row in enumerate(burnside_ring(G).marks_rows):
        for k, delta in ((k, d) for k, mark in enumerate(row) if mark
                         for d in (1, G.order)):
            R = BurnsideRing(G, lattice)
            rows = [list(r) for r in R.marks_rows]
            rows[h][k] += delta
            R.marks_rows = rows = tuple(map(tuple, rows))
            expected = any(_refusal(lambda: R.back_substitute(
                [a * b for a, b in zip(rows[i], rows[j])]))
                for i in range(R.n) for j in range(i + 1))
            message = _refusal(R.check_products)
            assert (message is not None) == expected, (h, k, delta)
            assert message is None or \
                message.startswith("a basis coefficient of a product")
            outcomes.add(expected)
    assert outcomes == {True, False}


ORBIT_GROUPS = {
    "S4": {"type": "symmetric", "n": 4},
    "D4": {"type": "dihedral", "n": 4},
    "C2wrS3": {"type": "wreath", "inner": C2_DESC, "n": 3},
    "S3wrS2": {"type": "wreath", "inner": {"type": "symmetric", "n": 3},
               "n": 2},
    "S5": {"type": "symmetric", "n": 5},
    "S6": {"type": "symmetric", "n": 6},
}


@pytest.mark.parametrize("desc", ORBIT_GROUPS.values(), ids=ORBIT_GROUPS)
def test_orbit_counts_match_the_coset_spaces(desc):
    """The counts read off the conjugate lists are the K-orbit sizes an
    orbit search finds on the coset space G/H_h, for every pair of classes,
    and the K-orbits of size 1 number the mark of K on G/H_h."""
    R = burnside_ring(make_group(desc))
    counts = orbit_counts(R)
    for h in range(R.n):
        X = coset_biset(R, h)
        for k, K in enumerate(R.lattice.classes):
            assert counts[h][k] == Counter(map(len, X.orbits_on(
                "B", K.generators, range(X.size))))
            assert counts[h][k][1] == R.marks_rows[h][k]


@pytest.mark.parametrize("desc", ORBIT_GROUPS.values(), ids=ORBIT_GROUPS)
def test_lattice_representatives_generators_close_to_them(desc):
    """Each representative's generators, its conjugated extension chain,
    close under right products to exactly its element tuple, and each of
    them at least doubles the subgroup grown so far, so there are at most
    log2|H| of them."""
    G = make_group(desc)
    for H in subgroup_lattice(G).classes:
        grown, frontier = {G.identity}, [G.identity]
        while frontier:
            frontier = [y for y in {G.mul(x, s) for x in frontier
                                    for s in H.generators} if y not in grown]
            grown.update(frontier)
        assert tuple(sorted(grown)) == H.elements
        assert 2 ** len(H.generators) <= H.order


def test_orbit_counts_multiply_no_group_elements(monkeypatch):
    """Once the lattice is built, a ring's orbit counts take no product
    in the group: they are read off the conjugate lists."""
    G = SymmetricGroup(4)  # a fresh instance: no lattice or ring cached
    R = BurnsideRing(G, subgroup_lattice(G))
    calls = []

    def counted(a, b, mul=G.mul):
        calls.append((a, b))
        return mul(a, b)
    monkeypatch.setattr(G, "mul", counted, raising=False)
    counts = orbit_counts(R)
    assert [sum(c.values()) for c in counts[0]] == \
        [G.order // K.order for K in R.lattice.classes]
    assert calls == []


def test_orbit_counts_reject_a_lost_conjugate():
    """S3's class of order-2 subgroups has 3 conjugates; with one lost from
    the ring's list, each would fix 6/(2·2) cosets, not an integer."""
    G = SymmetricGroup(3)
    R = BurnsideRing(G, subgroup_lattice(G))
    assert [len(c) for c in R.conjugates] == [1, 3, 1, 1]
    R.conjugates[1].pop()
    with pytest.raises(InvariantViolation,
                       match="cosets per conjugate is not an integer: 6/4"):
        orbit_counts(R)
