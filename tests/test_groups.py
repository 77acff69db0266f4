"""Group construction, conjugacy, subgroup-lattice and commuting-tuple tests."""

from __future__ import annotations

import ast
import os
import pathlib
import random
import subprocess
import sys
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equichar.burnside import BurnsideRing, burnside_ring
from equichar.errors import InvariantViolation, ResourceLimitError, UsageError
from equichar.euler import chi_k_equivariant
from equichar.groups import (
    CyclicGroup,
    FiniteGroup,
    Subgroup,
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
    whole_subgroup,
    wreath,
)
import equichar.groups as groups_mod
from equichar.gsets import BiSet, biset_from_single_action, wreath_power
from oracles import (biregular, commuting_tuple_classes_naive,
                     commuting_tuples_naive, conj, element_order,
                     subgroup_from_generators, subgroups_up_to_conjugacy,
                     validate_group, validate_subgroup)

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
    {"type": "dihedral", "n": 1},  # D1, of order 2, has one generator
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


def test_validate_group_rejects_non_associative_multiplication():
    """A loop of order 5: a Latin square with identity 0 and every element
    its own inverse, which no group of order 5 has."""
    loop = TableLoop(((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
                      (3, 2, 4, 0, 1), (4, 3, 1, 2, 0)))
    with pytest.raises(InvariantViolation, match="associativity"):
        validate_group(loop)


class AddMod6(FiniteGroup):
    """Z/6 by addition, generated by 1: a subclass that provides mul only."""

    def __init__(self):
        super().__init__(6, (1,), "Z6")

    def mul(self, a, b):
        return (a + b) % 6


def test_a_group_given_by_mul_alone_matches_cyclic_6():
    """Inverses come from powers of mul, so classes, commuting pairs, the
    subgroup lattice and the table of marks need nothing else."""
    G, C6 = AddMod6(), cyclic(6)
    assert [G.inv(g) for g in G.elements()] == [0, 5, 4, 3, 2, 1]
    assert conjugacy_classes(G) == conjugacy_classes(C6)
    assert commuting_tuple_classes(G, 2) == commuting_tuple_classes(C6, 2)
    lat, lat6 = subgroup_lattice(G), subgroup_lattice(C6)
    assert [(H.elements, H.generators) for H in lat.classes] == \
        [(H.elements, H.generators) for H in lat6.classes]
    assert lat.class_index == lat6.class_index
    assert BurnsideRing(G, lat).marks_rows == BurnsideRing(C6, lat6).marks_rows


class Absorbing(FiniteGroup):
    """x·y = x or y: no power of 1 is the identity, so this is no group."""

    def __init__(self):
        super().__init__(3, (1, 2), "absorbing")

    def mul(self, a, b):
        return a or b


def test_inv_refuses_an_element_whose_powers_miss_the_identity():
    with pytest.raises(InvariantViolation,
                       match="no power of 1 within order 3 is the identity "
                             "of absorbing"):
        Absorbing().inv(1)


def test_finite_group_is_the_only_class_that_defines_inv():
    """One inverse for every group: no package class overrides
    FiniteGroup.inv with a closed form of its own."""
    src = pathlib.Path(groups_mod.__file__).parent
    owners = [f"{path.name}:{cls.name}" for path in sorted(src.glob("*.py"))
              for cls in ast.walk(ast.parse(path.read_text()))
              if isinstance(cls, ast.ClassDef)
              for f in cls.body
              if isinstance(f, ast.FunctionDef) and f.name == "inv"]
    assert owners == ["groups.py:FiniteGroup"]


def test_subgroups_are_built_by_one_constructor_and_compare_by_identity():
    """Subgroup has no value equality, and the package calls Subgroup(...)
    only inside subgroup(), which keeps one object per element set."""
    assert not {"__eq__", "__hash__"} & set(vars(Subgroup))
    src = pathlib.Path(groups_mod.__file__).parent
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}

    def calls(tree):
        return [c for c in ast.walk(tree) if isinstance(c, ast.Call) and
                getattr(c.func, "id", getattr(c.func, "attr", "")) ==
                "Subgroup"]
    (ctor,) = [f for f in ast.walk(trees["groups.py"])
               if isinstance(f, ast.FunctionDef) and f.name == "subgroup"]
    assert [c for tree in trees.values() for c in calls(tree)] == \
        calls(ctor) and len(calls(ctor)) == 1


def test_validate_group_runs_without_numpy():
    src = pathlib.Path(groups_mod.__file__).parents[1]
    tests = pathlib.Path(__file__).parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), str(tests), os.environ.get("PYTHONPATH")])))
    code = ("import sys\n"
            "sys.modules['numpy'] = None\n"
            "import equichar\n"
            "from equichar.groups import make_group\n"
            "from oracles import validate_group\n"
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
            _, rr = w.decode(conj(w, x, g))
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


def _wreath_act(w, g, x):
    """((a,σ)·x)_i = a_i·x_{σ⁻¹(i)} on an n-tuple x of inner elements."""
    vec, r = w.decode(g)
    back = sorted(range(w.n), key=w.top.perms[r].__getitem__)  # σ⁻¹
    return tuple(w.inner.mul(vec[i], x[back[i]]) for i in range(w.n))


@pytest.mark.parametrize("inner,n", [(symmetric(5), 2), (cyclic(7), 7)],
                         ids=["S5wrS2", "C7wrS7"])
def test_wreath_second_paths_multiply_as_the_action_says(inner, n):
    """Over the table budget the structural product calls the inner
    group's own mul, and inv takes powers of the product; above _VEC_LIMIT
    base vectors are coded by divmod.  Sampled products still act as the
    composite, and codes round-trip."""
    w = WreathGroup(inner, n)
    assert w._tables is None
    assert (w._vecs is None) == (inner.order ** n > w._VEC_LIMIT)
    rng = random.Random(5)
    for _ in range(200):
        a, b = rng.randrange(w.order), rng.randrange(w.order)
        x = tuple(rng.randrange(inner.order) for _ in range(n))
        assert w.encode(*w.decode(a)) == a
        assert _wreath_act(w, w.mul(a, b), x) == \
            _wreath_act(w, a, _wreath_act(w, b, x))
        assert w.mul(a, w.inv(a)) == 0


def test_wreath_of_a_group_without_descriptor():
    inner = WreathGroup(cyclic(2), 2)  # built directly: no descriptor
    w = wreath(inner, 2)
    assert inner.descriptor is None and w.descriptor is None
    assert (w.order, w.label) == (8 ** 2 * 2, "C2wrS2wrS2")
    validate_group(w)


def test_generators_that_do_not_generate_are_caught():
    G = CyclicGroup(4)
    G.generators = (2,)  # generates {0, 2} only
    with pytest.raises(InvariantViolation, match="do not generate C4"):
        G.word(1)


@pytest.mark.parametrize("elements,match", [
    ((0, 1, 2, 3), "centralizer order is not an integer: 4/3"),
    (tuple(range(6)) * 2, "Schreier generators failed")],
    ids=["order-4", "order-12"])
def test_centralizer_of_a_miscounted_subgroup_is_caught(elements, match):
    """S3's generators with a wrong element list: the 3 conjugates of the
    transposition 1 divide no order 4, and of order 12 they leave a
    centralizer of order 4 that the Schreier generators, which reach only
    the true one of order 2, fall short of."""
    G = symmetric(3)
    assert G.inv(1) == 1 and len(conjugacy_classes(G)[1]) == 3
    with pytest.raises(InvariantViolation, match=match):
        centralizer_in(Subgroup(G, elements, G.generators), 1)


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
                assert conj(g, x, h) in s


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
    c = centralizer(s3, (transposition,))
    assert c.order == 2
    rotation = conjugacy_classes(s3)[2][0]
    assert centralizer(s3, (rotation,)).order == 3
    assert centralizer(s3, ()).order == 6


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


@pytest.mark.parametrize("inner, n", [(symmetric(3), 2), (cyclic(3), 4)],
                         ids=["S3wrS2", "C3wrS4"])
def test_orbit_stabilizer_centralizer_matches_scan(inner, n):
    """Orders 72 and 1944, then the largest proper centralizer in each:
    every class representative, whose centralizer the class walk built
    from its orbit, and 50 seeded other elements, which walk their own
    orbits.  No orbit outlives its walk."""
    w = WreathGroup(inner, n)  # a fresh instance: nothing cached yet
    rng = random.Random(5)
    K = whole_subgroup(w)
    for _ in range(2):
        reps = [cls[0] for cls in groups_mod.conjugacy_classes_in(K)]
        assert sorted(key[1] for key in K.memo if key[0] == "cent") == reps
        others = sorted(set(K.elements) - set(reps))
        for x in reps + rng.sample(others, min(50, len(others))):
            got = centralizer_in(K, x)
            assert got.elements == _scan_centralizer(K, x)
            assert closure(w, got.generators) == got.elements
        assert all(key == "classes" or key[0] == "cent" for key in K.memo)
        K = max((centralizer_in(K, x) for x in reps),
                key=lambda C: (C.order < w.order, C.order))
        assert 1 < K.order < w.order


def test_each_class_is_walked_once(monkeypatch):
    """chi_k_equivariant at k = 2 on the 8-point C2≀S3-set (the regular
    C2-set's third wreath power) walks each class of each subgroup it
    recurses into once, as a representative's centralizer is built from
    its orbit in the class walk.  inv runs once per generator of a subgroup
    in its class walk, never in a centralizer build or the Schreier loop.
    Walking each orbit again for the centralizer and inverting each
    Schreier witness took 48 walks and 240 inv calls; keeping each orbit
    for a later centralizer build took 24 walks and 74 inv calls."""
    w = WreathGroup(cyclic(2), 3)  # a fresh instance: nothing cached
    regular = biset_from_single_action(2, cyclic(2), [(1, 0)], side="O")
    X = BiSet(8, w, trivial_group(), wreath_power(regular, 3).actO, ())
    calls = {"walk": 0, "inv": 0}

    def walk(*args, inner=groups_mod._conjugation_orbit):
        calls["walk"] += 1
        return inner(*args)

    def inv(a, inner=w.inv):
        calls["inv"] += 1
        return inner(a)
    monkeypatch.setattr(groups_mod, "_conjugation_orbit", walk)
    monkeypatch.setattr(w, "inv", inv, raising=False)
    assert chi_k_equivariant(X, 2).render() == "8*[G/G]"
    walked, stack = [], [whole_subgroup(w)]
    while stack:  # every subgroup whose classes the recursion took
        H = stack.pop()
        if "classes" in H.memo and all(H is not K for K in walked):
            walked.append(H)
            cents = [C for key, C in H.memo.items() if key[0] == "cent"]
            assert len(cents) == len(H.memo["classes"])
            stack += [C for C in cents if C is not H]
    assert calls["walk"] == sum(len(H.memo["classes"]) for H in walked) == 24
    assert calls["inv"] == sum(len(H.generators) for H in walked) == 8
    assert all(key == "classes" or key[0] == "cent"
               for H in walked for key in H.memo)


def test_central_elements_centralize_the_whole_subgroup():
    w = wreath(cyclic(2), 3)
    whole = whole_subgroup(w)
    assert centralizer_in(whole, w.identity) is whole
    assert centralizer_in(whole, w.encode((1, 1, 1), 0)) is whole


def test_equal_centralizers_are_one_subgroup():
    """D200's 103 classes have 4 distinct centralizers: the whole group
    (of the identity and rotation 100), the rotations, and one group of
    order 4 per flip class.  Each is one object with one memo; one object
    per class held each rotation class's 200 indices again, a count that
    grows as the order squared."""
    G = groups_mod.DihedralGroup(200)  # a fresh instance: nothing cached
    whole = whole_subgroup(G)
    conjugacy_classes(G)
    cents = [C for key, C in whole.memo.items() if key[0] == "cent"]
    assert len(cents) == 103 and len({id(C) for C in cents}) == 4
    assert centralizer_in(whole, 1) is centralizer_in(whole, 2)
    assert centralizer_in(whole, 2).elements == tuple(range(200))


def test_the_class_walk_builds_only_centralizers_it_does_not_hold(
        monkeypatch):
    """A subgroup of H with C_H(g)'s order whose generators commute with g
    is C_H(g): D200's class walk takes H for its 2 central classes, and the
    rotations, built for rotation 1, for the other 98 rotation classes, so
    it builds 3 centralizers where rebuilding each took 101.  Every class
    keeps the centralizer object, and its generators, of a rebuild."""
    calls = []

    def reduce_(*args, inner=groups_mod._reduce_generators):
        calls.append(args[2])
        return inner(*args)
    monkeypatch.setattr(groups_mod, "_reduce_generators", reduce_)
    G = groups_mod.DihedralGroup(200)  # a fresh instance: nothing cached
    whole = whole_subgroup(G)
    classes = conjugacy_classes(G)
    assert calls == [200, 4, 4]
    assert [len(cls) for cls in classes] == [1] + [2] * 99 + [1, 100, 100]
    cents = [whole.memo[("cent", cls[0])] for cls in classes]
    assert cents[0] is cents[100] is whole
    assert all(C is cents[1] for C in cents[1:100])
    assert [(C.order, C.generators) for C in cents[1:2] + cents[101:]] == [
        (200, (1,)), (4, (200, 300)), (4, (201, 301))]
    for cls, C in zip(classes, cents):
        assert C.elements == _scan_centralizer(whole, cls[0])


def _results(G, ring_first: bool):
    """Classes, centralizers, pair classes, k = 2 on the biregular G x G set
    and G's ring, with the ring built before the rest or after it."""
    ring = burnside_ring(G) if ring_first else None
    whole = whole_subgroup(G)
    classes = conjugacy_classes(G)
    cents = [centralizer_in(whole, cls[0]).elements for cls in classes]
    pairs = commuting_tuple_classes(G, 2)
    chi = chi_k_equivariant(biregular(G, G), 2)
    ring = ring or burnside_ring(G)
    return whole.generators, (
        classes, cents, pairs, chi.marks(), chi.render(), ring.marks_rows,
        [K.elements for K in ring.lattice.classes])


@pytest.mark.parametrize("build", [
    lambda: groups_mod.SymmetricGroup(3),
    lambda: WreathGroup(CyclicGroup(2), 3)], ids=["S3", "C2wrS3"])
def test_results_do_not_depend_on_which_call_built_a_subgroup(build):
    """A subgroup keeps its first caller's generators: built first, the
    lattice names the whole group by its chain, not by G's generators.
    Nothing read off either differs."""
    (gens_a, a), (gens_b, b) = _results(build(), True), _results(build(), False)
    assert gens_a != gens_b and a == b


def test_commuting_tuple_classes_s3():
    s3 = symmetric(3)
    pairs = commuting_tuple_classes(s3, 2)
    assert len(pairs) == 8
    assert sum(size for _, size in pairs) == 18
    singles = commuting_tuple_classes(s3, 1)
    assert len(singles) == 3
    assert commuting_tuple_classes(s3, 0) == [((), 1)]


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
        orbit = {tuple(conj(g, x, h) for x in tup)
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
    idxs = {lat.class_index[frozenset((0, t))] for t in transpositions}
    assert idxs == {1}


def test_subgroup_budget(monkeypatch):
    """The Cayley-table refusal names the limit and comes before any
    product or table row; within the limit the lattice's only products are
    the generator rows of its table."""
    monkeypatch.setattr(groups_mod, "CAYLEY_TABLE_LIMIT", 32)
    G = WreathGroup(symmetric(3), 2)  # a fresh instance: no lattice cached
    calls = []

    def counted(a, b, mul=G.mul):
        calls.append((a, b))
        return mul(a, b)
    monkeypatch.setattr(G, "mul", counted, raising=False)
    with pytest.raises(ResourceLimitError,
                       match="subgroup lattice multiplication table") as e:
        subgroup_lattice(G)
    assert e.value.budget == 32 and e.value.size == 72
    assert "exceeds budget 32" in str(e.value)
    assert calls == []
    monkeypatch.setattr(groups_mod, "CAYLEY_TABLE_LIMIT", 72)
    subgroup_lattice(G)
    assert len(calls) == len(G.generators) * G.order


def _c2_power(n):
    return make_group({"type": "product",
                       "factors": [{"type": "cyclic", "n": 2}] * n})


def test_subgroup_count_budget(monkeypatch):
    """SUBGROUP_BUDGET counts the subgroups the lattice indexes, not the
    group order: C2^n has 1, 2, 5, 16, 67, 374, 2825 subgroups for
    n <= 6 (OEIS A006116), and C2^7, of order 128 but with 29,212
    subgroups, is refused once the count passes the budget."""
    counts = [len(subgroup_lattice(_c2_power(n)).class_index)
              for n in range(7)]
    assert counts == [1, 2, 5, 16, 67, 374, 2825]
    budget = groups_mod.SUBGROUP_BUDGET
    with pytest.raises(ResourceLimitError, match="subgroup enumeration") as e:
        subgroup_lattice(_c2_power(7))
    assert e.value.size == budget + 1 and e.value.budget == budget
    monkeypatch.setattr(groups_mod, "SUBGROUP_BUDGET", 373)
    C2_5 = groups_mod.ProductGroup((cyclic(2),) * 5)  # no lattice cached
    with pytest.raises(ResourceLimitError, match="size 374 exceeds budget 373"):
        subgroup_lattice(C2_5)


TABLE_FAMILIES = [
    lambda: cyclic(6),
    lambda: dihedral(5),
    lambda: make_group({"type": "product", "factors": [
        {"type": "cyclic", "n": 2}, {"type": "symmetric", "n": 3}]}),
    lambda: make_group({"type": "perm", "degree": 5,
                        "generators": [[1, 2, 3, 4, 0], [4, 3, 2, 1, 0]]}),
    lambda: WreathGroup(symmetric(3), 2),
]


def _lattice_table(G, monkeypatch):
    """The Cayley table subgroup_lattice builds for G, caught as G.images
    returns it."""
    tables, images = [], G.images

    def caught(perms, size):
        tables.append(images(perms, size))
        return tables[-1]
    monkeypatch.setattr(G, "images", caught, raising=False)
    monkeypatch.delitem(G.memo, "lattice", raising=False)
    subgroup_lattice(G)
    (table,) = tables
    return table


@pytest.mark.parametrize("build", TABLE_FAMILIES,
                         ids=["cyclic", "dihedral", "product", "perm",
                              "wreath-tables"])
def test_table_rows_match_mul(build, monkeypatch):
    """The lattice's table is read off the word tree through its generator
    rows, which relies on associativity; every cell must still be the
    group's own product."""
    G = build()
    assert _lattice_table(G, monkeypatch) == [
        [G.mul(a, b) for b in G.elements()] for a in G.elements()]


@pytest.mark.parametrize("build", TABLE_FAMILIES,
                         ids=["cyclic", "dihedral", "product", "perm",
                              "wreath-tables"])
def test_images_match_act_and_table_rows(build, monkeypatch):
    """One walk of the word tree gives every element's map of the whole
    set, as act gives it by applying the element's word letter by letter.
    On the regular action it is the lattice's Cayley table."""
    G = build()
    gen_rows = [[G.mul(s, b) for b in G.elements()] for s in G.generators]
    X = BiSet(G.order, G, trivial_group(), gen_rows, ())
    images = G.images(gen_rows, G.order)
    assert images == [X.act("O", g, G.elements()) for g in G.elements()]
    assert images == _lattice_table(G, monkeypatch)


def test_images_match_act_on_a_wreath_power():
    """S3 acting on itself from both sides, squared: S3≀S2 (order 72) on
    the O side and S3 diagonally on the B side, over 36 points."""
    S3 = symmetric(3)
    actO = [[S3.mul(s, x) for x in S3.elements()] for s in S3.generators]
    actB = [[S3.mul(x, S3.inv(s)) for x in S3.elements()]
            for s in S3.generators]
    P = wreath_power(BiSet(6, S3, S3, actO, actB), 2)
    P.validate()
    for side, group, perms in (("O", P.gO, P.actO), ("B", P.gB, P.actB)):
        images = group.images(perms, P.size)
        assert images == [P.act(side, g, range(P.size))
                          for g in group.elements()]


def test_table_rows_match_structural_wreath_mul(monkeypatch):
    monkeypatch.setattr(groups_mod, "WREATH_TABLE_BUDGET", 0)
    G = WreathGroup(cyclic(3), 2)
    assert G._tables is None
    assert _lattice_table(G, monkeypatch) == [
        [G.mul(a, b) for b in G.elements()] for a in G.elements()]


@pytest.mark.parametrize("build, products", [
    (lambda: groups_mod.SymmetricGroup(4), 48),
    (lambda: WreathGroup(cyclic(2), 3), 144),
    (lambda: WreathGroup(symmetric(3), 2), 216),
    (lambda: groups_mod.SymmetricGroup(5), 240),
], ids=["S4", "C2wrS3", "S3wrS2", "S5"])
def test_marks_build_products(monkeypatch, build, products):
    """A fresh group's table of marks multiplies only to grow its word
    tree, one product per element and generator; every other product is a
    lookup in the Cayley table read off that tree."""
    G = build()
    calls = []

    def counted(a, b, mul=G.mul):
        calls.append((a, b))
        return mul(a, b)
    monkeypatch.setattr(G, "mul", counted, raising=False)
    BurnsideRing(G, subgroup_lattice(G))
    assert len(calls) == len(G.generators) * G.order == products


@pytest.mark.parametrize("n, classes, subgroups",
                         [(4, 11, 30), (5, 19, 156), (6, 56, 1455)])
def test_symmetric_lattice_counts(n, classes, subgroups):
    """Conjugacy classes of subgroups and all subgroups of S_n, as listed in
    OEIS A000638 and A005432."""
    lat = subgroup_lattice(symmetric(n))
    assert len(lat.classes) == classes
    assert len(lat.class_index) == subgroups


A5 = {"type": "perm", "degree": 5,
      "generators": [[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]]}
A6 = {"type": "perm", "degree": 6,
      "generators": [[1, 2, 0, 3, 4, 5], [0, 2, 3, 4, 5, 1]]}


@pytest.mark.parametrize("desc, classes, subgroups",
                         [(A5, 9, 59), (A6, 22, 501)], ids=["A5", "A6"])
def test_alternating_lattice_counts(desc, classes, subgroups):
    """Conjugacy classes of subgroups and all subgroups of A5 and A6.
    Neither has a subgroup of prime index, so every class above the
    trivial group's is reached inside the perfect residual G^∞ = G."""
    lat = subgroup_lattice(make_group(desc))
    assert len(lat.classes) == classes
    assert len(lat.class_index) == subgroups


@pytest.mark.parametrize("build, order", [
    (lambda: groups_mod.SymmetricGroup(4), 1),
    (lambda: WreathGroup(cyclic(2), 3), 1),
    (lambda: WreathGroup(symmetric(3), 2), 1),
    (lambda: groups_mod.SymmetricGroup(5), 60),
    (lambda: groups_mod.SymmetricGroup(6), 360),
    (lambda: groups_mod.PermGroup(6, [tuple(p) for p in A6["generators"]]),
     360),
], ids=["S4", "C2wrS3", "S3wrS2", "S5", "S6", "A6"])
def test_the_lattice_reads_the_perfect_residual(monkeypatch, build, order):
    """G^∞, the last term of the derived series, is trivial for solvable
    groups, the even permutations for S5 and S6, and all of A6."""
    seen = []

    def residual(*args, inner=groups_mod._perfect_residual):
        seen.append(inner(*args))
        return seen[-1]
    monkeypatch.setattr(groups_mod, "_perfect_residual", residual)
    G = build()  # a fresh instance: no lattice cached
    subgroup_lattice(G)
    assert len(seen) == 1 and len(seen[0]) == order
    if order > 1:  # S5, S6 and A6: the even permutations
        assert seen[0] == {i for i, p in enumerate(G.perms) if _is_even(p)}


def _is_even(perm) -> bool:
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return inversions % 2 == 0


def test_perm_closure_budget(monkeypatch):
    """The closure stops at the first element past the budget."""
    monkeypatch.setattr(groups_mod, "PERM_CLOSURE_BUDGET", 50)
    monkeypatch.setattr(groups_mod, "_GROUP_CACHE", {})
    s5 = {"type": "perm", "degree": 5,
          "generators": [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]}
    with pytest.raises(ResourceLimitError, match="permutation closure") as e:
        make_group(s5)
    assert e.value.budget == 50 and e.value.size == 51


def test_tuple_class_budget(monkeypatch):
    """S3 has 8 classes of commuting pairs; the sixth trips a budget of 5.
    A fresh group, since a cached result skips the count."""
    monkeypatch.setattr(groups_mod, "TUPLE_CLASS_BUDGET", 5)
    with pytest.raises(ResourceLimitError,
                       match="commuting tuple classes") as e:
        commuting_tuple_classes(groups_mod.SymmetricGroup(3), 2)
    assert e.value.size == 6 and e.value.budget == 5


def test_a_group_keeps_one_subgroup_per_element_set():
    """subgroup() hands back the object G holds for an element set, with
    its first generators and its memo; a Subgroup built outside it equals
    only itself."""
    s3 = groups_mod.SymmetricGroup(3)
    whole = whole_subgroup(s3)
    groups_mod.conjugacy_classes_in(whole)
    again = groups_mod.subgroup(s3, whole.elements, whole.generators[:1])
    assert again is whole and again.generators == s3.generators
    assert again.memo
    other = groups_mod.Subgroup(s3, whole.elements, whole.generators)
    assert other != whole and not other.memo
    assert len({whole, again, other}) == 2


def test_subgroup_validate():
    s3 = symmetric(3)
    h = subgroup_from_generators(s3, (3,))
    validate_subgroup(h)


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
S3WRS2 = {"type": "wreath", "inner": {"type": "symmetric", "n": 3}, "n": 2}
C2_4 = {"type": "product", "factors": [{"type": "cyclic", "n": 2}] * 4}
D6XC2 = {"type": "product", "factors": [{"type": "dihedral", "n": 6},
                                        {"type": "cyclic", "n": 2}]}
C3WRS2 = {"type": "wreath", "inner": {"type": "cyclic", "n": 3}, "n": 2}


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


@pytest.mark.parametrize("desc", [S4, D4, C2WRS3, S3WRS2, C2_4, D6XC2,
                                  C3WRS2, A5],
                         ids=["S4", "D4", "C2wrS3", "S3wrS2", "C2^4", "D6xC2",
                              "C3wrS2", "A5"])
def test_lattice_matches_upward_closure(desc):
    G = make_group(desc)
    assert set(subgroup_lattice(G).class_index) == \
        all_subgroups_by_upward_closure(G)


@pytest.mark.parametrize("build, lattice, reduce", [
    (lambda: groups_mod.SymmetricGroup(4), 14, 0),
    (lambda: WreathGroup(cyclic(2), 3), 36, 0),
], ids=["S4", "C2wrS3"])
def test_lattice_extension_count(monkeypatch, build, lattice, reduce):
    """Each class representative R is extended only by prime-power-order
    cyclic generators g with g^p in R that normalize R or lie with R in
    G^∞, skipping every g in an indexed K ⊇ R of prime index and all but
    one g per double coset R·g·R, and the representatives' generators are
    read off the extension chains: the lattice's own calls to
    extend_subgroup, G^∞'s among them, and those under _reduce_generators
    are pinned.  Extending R by every such g, normalizing R or not, made
    18 and 84 lattice calls; by every cyclic generator outside it, 132 and
    895; the double-coset cover alone made 43 and 206, plus 19 and 65
    calls that re-derived the representatives' generators."""
    counts = {"lattice": 0, "reduce": 0}
    depth = [0]

    def extend(*args, inner=groups_mod.extend_subgroup):
        counts["reduce" if depth[0] else "lattice"] += 1
        return inner(*args)

    def reduce_(*args, inner=groups_mod._reduce_generators):
        depth[0] += 1
        try:
            return inner(*args)
        finally:
            depth[0] -= 1
    monkeypatch.setattr(groups_mod, "extend_subgroup", extend)
    monkeypatch.setattr(groups_mod, "_reduce_generators", reduce_)
    subgroup_lattice(build())  # a fresh instance: no lattice cached
    assert counts == {"lattice": lattice, "reduce": reduce}


@pytest.mark.parametrize("desc", [{"type": "symmetric", "n": 3}, S4, D4,
                                  C2WRS3],
                         ids=["S3", "S4", "D4", "C2wrS3"])
def test_lattice_indexes_every_conjugate(desc):
    G = make_group(desc)
    lat = subgroup_lattice(G)
    conjugates = set()
    for i, K in enumerate(lat.classes):
        for g in G.elements():
            c = frozenset(conj(G, x, g) for x in K.elements)
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
        K = extend_subgroup(partial(partial, G.mul), H, gens[:-1], gens[-1])
        assert K[:len(H)] == H and len(set(K)) == len(K)
        assert frozenset(K) == bfs_closure(G, gens)
