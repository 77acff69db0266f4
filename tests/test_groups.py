"""Group construction, conjugacy, subgroup-lattice and commuting-tuple tests."""

from __future__ import annotations

import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equichar.errors import InvariantViolation, ResourceLimitError, UsageError
from equichar.groups import (
    CommutingTuple,
    FiniteGroup,
    WreathGroup,
    centralizer,
    closure,
    centralizer_in,
    commuting_tuple_classes,
    conjugacy_classes,
    cyclic,
    dihedral,
    extend_subgroup,
    make_group,
    subgroup_lattice,
    symmetric,
    trivial_group,
    validate_group,
    whole_subgroup,
    wreath,
)
import equichar.groups as groups_mod
from oracles import (commuting_tuple_classes_naive, commuting_tuples_naive,
                     element_order, subgroup_from_generators,
                     subgroups_up_to_conjugacy)

SMALL_DESCRIPTORS = [
    {"type": "trivial"},
    {"type": "cyclic", "n": 2},
    {"type": "cyclic", "n": 6},
    {"type": "symmetric", "n": 3},
    {"type": "dihedral", "n": 4},
    {"type": "product", "factors": [{"type": "cyclic", "n": 2},
                                    {"type": "cyclic", "n": 2}]},
    {"type": "wreath", "inner": {"type": "cyclic", "n": 2}, "n": 2},
    {"type": "perm", "degree": 4,
     "generators": [[1, 0, 2, 3], [1, 2, 3, 0]]},
    {"type": "wreath", "inner": {"type": "cyclic", "n": 3}, "n": 3},
    {"type": "wreath", "inner": {"type": "symmetric", "n": 3}, "n": 2},
]


@pytest.mark.parametrize("desc", SMALL_DESCRIPTORS)
def test_make_group_is_a_group(desc):
    g = make_group(desc)
    validate_group(g)
    assert g.identity == 0


class TableLoop(FiniteGroup):
    """A multiplication given by its table, with identity 0."""

    def __init__(self, table):
        super().__init__(len(table), tuple(range(1, len(table))), "loop")
        self.table = table

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.table[a].index(0)


def test_validate_group_rejects_non_associative_multiplication():
    """A loop of order 5: a Latin square with identity 0 and every element
    its own inverse, which no group of order 5 has."""
    loop = TableLoop(((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
                      (3, 2, 4, 0, 1), (4, 3, 1, 2, 0)))
    with pytest.raises(InvariantViolation, match="associativity"):
        validate_group(loop)


def test_validate_group_runs_without_numpy():
    src = pathlib.Path(groups_mod.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = ("import sys\n"
            "sys.modules['numpy'] = None\n"
            "import equichar\n"
            "from equichar.groups import make_group, validate_group\n"
            "validate_group(make_group({'type': 'symmetric', 'n': 4}))\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_make_group_orders():
    assert trivial_group().order == 1
    assert cyclic(5).order == 5
    assert symmetric(3).order == 6
    assert dihedral(4).order == 8
    assert make_group({"type": "perm", "degree": 4,
                       "generators": [[1, 0, 2, 3], [1, 2, 3, 0]]}).order == 24


def test_make_group_rejects_bad_input():
    with pytest.raises(UsageError):
        make_group({"type": "cyclic", "n": 0})
    with pytest.raises(UsageError):
        make_group({"type": "wreath", "inner": {"type": "cyclic", "n": 2}, "n": -1})
    with pytest.raises(UsageError):
        make_group({"type": "perm", "degree": 3, "generators": [[1, 0]]})
    with pytest.raises(UsageError):
        make_group({"type": "nope"})


def test_make_group_caches_by_descriptor():
    assert make_group({"type": "symmetric", "n": 3}) is symmetric(3)


def test_wreath_order():
    assert wreath(cyclic(2), 3).order == 2 ** 3 * 6
    assert wreath(symmetric(3), 4).order == 31104


def test_wreath_semidirect_structure():
    w = wreath(cyclic(2), 2)  # dihedral of order 8
    validate_group(w)
    # base vector part is normal: conjugating a pure vector stays a pure vector
    for x in range(w.order):
        vec, r = w.decode(x)
        if r != 0:
            continue
        for g in range(w.order):
            _, rr = w.decode(w.conj(x, g))
            assert rr == 0


@pytest.mark.parametrize("inner,n", [(cyclic(2), 3), (symmetric(3), 2),
                                     (cyclic(3), 3), (cyclic(3), 0),
                                     (symmetric(3), 1)],
                         ids=["C2wrS3", "S3wrS2", "C3wrS3", "C3wrS0",
                              "S3wrS1"])
def test_wreath_tables_match_structural_product(inner, n):
    w = WreathGroup(inner, n)
    assert w._tables is not None
    pairs = [(a, b) for a in range(w.order) for b in range(w.order)]
    assert ([w.mul(a, b) for a, b in pairs]
            == [w._mul_structural(a, b) for a, b in pairs])


def test_wreath_tables_match_structural_product_s3_wr_s4():
    w = WreathGroup(symmetric(3), 4)
    assert w._tables is not None  # 24^2 + 31104 + 1296^2 cells
    rng = random.Random(7)
    pairs = [(rng.randrange(w.order), rng.randrange(w.order))
             for _ in range(20_000)]
    assert ([w.mul(a, b) for a, b in pairs]
            == [w._mul_structural(a, b) for a, b in pairs])


def test_wreath_table_budget_is_inclusive(monkeypatch):
    cells = 6 ** 2 + 48 + 8 ** 2  # C2 wr S3: n!^2 + |W| + V^2
    monkeypatch.setattr(groups_mod, "WREATH_TABLE_BUDGET", cells)
    assert WreathGroup(cyclic(2), 3)._tables is not None
    monkeypatch.setattr(groups_mod, "WREATH_TABLE_BUDGET", cells - 1)
    w = WreathGroup(cyclic(2), 3)
    assert w._tables is None
    validate_group(w)


def test_wreath_over_table_budget_multiplies_structurally():
    w = WreathGroup(symmetric(4), 3)  # V^2 = 24^6, about 1.9e8 cells
    assert w._tables is None
    validate_group(w, samples=5_000)


def test_conjugacy_classes_s3():
    cc = conjugacy_classes(symmetric(3))
    assert [len(c) for c in cc] == [1, 3, 2]
    assert cc[0] == [0]


def test_conjugacy_classes_abelian_are_singletons():
    cc = conjugacy_classes(cyclic(4))
    assert cc == [[0], [1], [2], [3]]


@pytest.mark.parametrize("desc", SMALL_DESCRIPTORS)
def test_conjugacy_classes_partition(desc):
    g = make_group(desc)
    cc = conjugacy_classes(g)
    seen = sorted(x for c in cc for x in c)
    assert seen == list(range(g.order))
    assert cc[0][0] == 0
    # closed under conjugation
    for c in cc:
        s = set(c)
        for x in c:
            for h in range(g.order):
                assert g.conj(x, h) in s


@given(st.integers(min_value=1, max_value=12))
@settings(max_examples=25, deadline=None)
def test_dihedral_class_count_matches_formula(n):
    # classic count: (n+3)/2 rounded classes for odd n, n/2+3 for even n
    cc = conjugacy_classes(dihedral(n))
    expected = (n + 3) // 2 if n % 2 else n // 2 + 3
    if n <= 2:  # abelian degenerate cases
        expected = 2 * n
    assert len(cc) == expected


def test_centralizer_examples():
    s3 = symmetric(3)
    transposition = conjugacy_classes(s3)[1][0]
    c = centralizer(s3, transposition)
    assert c.order == 2
    rotation = conjugacy_classes(s3)[2][0]
    assert centralizer(s3, rotation).order == 3
    assert centralizer(s3, CommutingTuple(s3, ())).order == 6


@pytest.mark.parametrize("desc", SMALL_DESCRIPTORS)
def test_centralizer_matches_scan(desc):
    g = make_group(desc)
    whole = whole_subgroup(g)
    for cls in conjugacy_classes(g):
        x = cls[0]
        want = tuple(h for h in range(g.order)
                     if g.mul(h, x) == g.mul(x, h))
        got = centralizer_in(whole, x)
        assert got.elements == want
        assert got.order * len(cls) == g.order


def _scan_centralizer(H, x):
    G = H.parent
    return tuple(h for h in H.elements if G.mul(h, x) == G.mul(x, h))


def _reps_and_others(H, rng):
    """H's class representatives, then up to 50 seeded other elements."""
    reps = [cls[0] for cls in groups_mod.conjugacy_classes_in(H)]
    others = sorted(set(H.elements) - set(reps))
    return reps + rng.sample(others, min(50, len(others)))


@pytest.mark.parametrize("inner, n", [(symmetric(3), 2), (cyclic(3), 4)],
                         ids=["S3wrS2", "C3wrS4"])
def test_orbit_stabilizer_centralizer_matches_scan(inner, n):
    """Orders 72 and 1944: every class representative, seeded other
    elements, and the same inside a proper subgroup."""
    w = wreath(inner, n)
    rng = random.Random(5)
    whole = whole_subgroup(w)
    reps = [cls[0] for cls in conjugacy_classes(w)]
    H = max((centralizer_in(whole, x) for x in reps),
            key=lambda C: (C.order < w.order, C.order))
    assert 1 < H.order < w.order
    for K in (whole, H):
        for x in _reps_and_others(K, rng):
            got = centralizer_in(K, x)
            assert got.elements == _scan_centralizer(K, x)
            assert closure(w, got.generators) == got.elements


def test_central_elements_centralize_the_whole_subgroup():
    w = wreath(cyclic(2), 3)
    whole = whole_subgroup(w)
    assert centralizer_in(whole, w.identity) is whole
    assert centralizer_in(whole, w.encode((1, 1, 1), 0)) is whole


def test_commuting_tuple_rejects_non_commuting():
    s3 = symmetric(3)
    t = conjugacy_classes(s3)[1][0]
    r = conjugacy_classes(s3)[2][0]
    assert s3.mul(t, r) != s3.mul(r, t)
    with pytest.raises(UsageError):
        CommutingTuple(s3, (t, r))


def test_commuting_tuple_classes_s3():
    s3 = symmetric(3)
    pairs = commuting_tuple_classes(s3, 2)
    assert len(pairs) == 8
    assert sum(size for _, size in pairs) == 18
    singles = commuting_tuple_classes(s3, 1)
    assert len(singles) == 3
    assert commuting_tuple_classes(s3, 0) == [(CommutingTuple(s3, ()), 1)]


def test_commuting_tuple_classes_z2():
    z2 = cyclic(2)
    pairs = commuting_tuple_classes(z2, 2)
    assert len(pairs) == 4
    assert sum(size for _, size in pairs) == 4


@pytest.mark.parametrize("desc", SMALL_DESCRIPTORS)
@pytest.mark.parametrize("k", [1, 2])
def test_commuting_tuple_classes_match_naive(desc, k):
    g = make_group(desc)
    if g.order > 24:
        pytest.skip("naive oracle capped at order 24")
    fast = commuting_tuple_classes(g, k)
    naive = commuting_tuple_classes_naive(g, k)
    assert sum(s for _, s in fast) == len(commuting_tuples_naive(g, k))
    assert sorted(s for _, s in fast) == sorted(s for _, s in naive)
    # representatives lie in matching orbits: conjugate each fast rep to a naive rep
    naive_reps = {t for t, _ in naive}
    for tup, _ in fast:
        orbit = {tuple(g.conj(x, h) for x in tup.entries)
                 for h in range(g.order)}
        assert orbit & naive_reps


def test_subgroups_up_to_conjugacy_z2():
    subs = subgroups_up_to_conjugacy(cyclic(2))
    assert [h.order for h in subs] == [1, 2]


def test_subgroups_up_to_conjugacy_s3():
    subs = subgroups_up_to_conjugacy(symmetric(3))
    assert [h.order for h in subs] == [1, 2, 3, 6]
    assert subs[0].elements == (0,)
    assert subs[-1].order == 6


def test_subgroups_up_to_conjugacy_c6():
    subs = subgroups_up_to_conjugacy(cyclic(6))
    assert [h.order for h in subs] == [1, 2, 3, 6]


def test_subgroup_lattice_canonical_order_and_index():
    s3 = symmetric(3)
    lat = subgroup_lattice(s3)
    orders = [h.order for h in lat.classes]
    assert orders == sorted(orders)
    # the index covers every subgroup, including non-representative conjugates
    transpositions = conjugacy_classes(s3)[1]
    idxs = {lat.index_of(frozenset((0, t))) for t in transpositions}
    assert idxs == {1}
    with pytest.raises(UsageError):
        lat.index_of(frozenset((0, 1, 3)))


def test_subgroup_budget():
    with pytest.raises(ResourceLimitError):
        subgroup_lattice(wreath(symmetric(3), 2), budget=32)


def test_subgroup_validate_and_as_group():
    s3 = symmetric(3)
    h = subgroup_from_generators(s3, (3,))
    h.validate()
    hg = h.as_group()
    validate_group(hg)
    assert hg.order == 3
    # local multiplication mirrors the parent
    for a in range(hg.order):
        for b in range(hg.order):
            assert hg.to_parent[hg.mul(a, b)] == s3.mul(hg.to_parent[a],
                                                        hg.to_parent[b])


def test_wreath_s3_s4_classes_and_oracle():
    w = wreath(symmetric(3), 4)
    cc = conjugacy_classes(w)
    assert sum(len(c) for c in cc) == w.order
    # cross-oracle: classes of G wr S_n are multipartitions, i.e. the
    # coefficient of x^n in P(x)^(number of classes of G)
    assert len(cc) == _multipartition_count(3, 4) == 51


def _multipartition_count(classes: int, n: int) -> int:
    parts = [1] + [0] * n
    for k in range(1, n + 1):  # partition generating function, truncated
        for j in range(k, n + 1):
            parts[j] += parts[j - k]
    coeff = [1] + [0] * n
    for _ in range(classes):
        coeff = [sum(coeff[i] * parts[j - i] for i in range(j + 1))
                 for j in range(n + 1)]
    return coeff[n]


def test_word_evaluation():
    s3 = symmetric(3)
    for g in range(s3.order):
        acc = 0
        for i in s3.word(g):
            acc = s3.mul(acc, s3.generators[i])
        assert acc == g


def test_element_order():
    s3 = symmetric(3)
    assert element_order(s3, 0) == 1
    assert {element_order(s3, g) for g in range(6)} == {1, 2, 3}


@given(st.integers(min_value=1, max_value=30))
@settings(max_examples=30, deadline=None)
def test_cyclic_subgroup_count_is_divisor_count(n):
    subs = subgroups_up_to_conjugacy(cyclic(n))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    assert [h.order for h in subs] == divisors


S4 = {"type": "symmetric", "n": 4}
D4 = {"type": "dihedral", "n": 4}
C2WRS3 = {"type": "wreath", "inner": {"type": "cyclic", "n": 2}, "n": 3}


def bfs_closure(G, gens) -> frozenset[int]:
    """The subgroup generated by gens, by breadth-first right products."""
    seen = {G.identity}
    frontier = [G.identity]
    while frontier:
        frontier = [y for y in {G.mul(x, s) for x in frontier for s in gens}
                    if y not in seen]
        seen.update(frontier)
    return frozenset(seen)


def all_subgroups_by_upward_closure(G) -> set[frozenset[int]]:
    """Every subgroup: close each one found against every cyclic subgroup,
    starting from the trivial group."""
    cyclic_gens = {bfs_closure(G, (g,)): g for g in G.elements()}.values()
    gens_for = {frozenset((G.identity,)): ()}
    queue = list(gens_for)
    for fs in queue:
        for g in cyclic_gens:
            if g not in fs:
                gens = gens_for[fs] + (g,)
                nfs = bfs_closure(G, gens)
                if nfs not in gens_for:
                    gens_for[nfs] = gens
                    queue.append(nfs)
    return set(gens_for)


@pytest.mark.parametrize("desc", [S4, D4, C2WRS3],
                         ids=["S4", "D4", "C2wrS3"])
def test_lattice_matches_upward_closure(desc):
    G = make_group(desc)
    assert set(subgroup_lattice(G).class_index) == \
        all_subgroups_by_upward_closure(G)


@pytest.mark.parametrize("desc", [{"type": "symmetric", "n": 3}, S4, D4,
                                  C2WRS3],
                         ids=["S3", "S4", "D4", "C2wrS3"])
def test_lattice_indexes_every_conjugate(desc):
    G = make_group(desc)
    lat = subgroup_lattice(G)
    conjugates = set()
    for i, K in enumerate(lat.classes):
        for g in G.elements():
            c = frozenset(G.conj(x, g) for x in K.elements)
            assert lat.class_index[c] == i
            conjugates.add(c)
    assert conjugates == set(lat.class_index)


@given(st.sampled_from([S4, D4, C2WRS3]),
       st.lists(st.integers(min_value=0, max_value=47), max_size=4))
@settings(max_examples=40, deadline=None)
def test_coset_extension_matches_bfs(desc, picks):
    G = make_group(desc)
    gens = [p % G.order for p in picks]
    assert frozenset(closure(G, gens)) == bfs_closure(G, gens)
    if gens:
        H = list(closure(G, gens[:-1]))
        K = extend_subgroup(G, H, gens[:-1], gens[-1])
        assert K[:len(H)] == H and len(set(K)) == len(K)
        assert frozenset(K) == bfs_closure(G, gens)
