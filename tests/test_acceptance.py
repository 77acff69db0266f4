"""Acceptance gate: one test per acceptance criterion, exact equality
throughout, with the stated wall-clock bounds.  Each criterion prints a
single pass/fail line (visible with -s or on failure)."""

import time

from equichar import harness
from equichar.burnside import burnside_ring, class_of
from equichar.euler import (chi_k, chi_k_averaging, chi_k_equivariant,
                            chi_k_equivariant_tuples)
from equichar.groups import (WreathGroup, conjugacy_classes, cyclic,
                             make_group, symmetric, trivial_group)
from equichar.gsets import BiSet, biset_from_single_action, wreath_power
from equichar.harness import (verify_axioms, verify_lemma1, verify_props12,
                              verify_theorem1)
from equichar.powerstruct import TruncatedSeries, burnside_coeff_ring, power
from oracles import (biregular, coset_biset, disjoint_union, empty_biset,
                     geometric_power_oracle, verify_integer_oracle)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


# -- fixtures ----------------------------------------------------------------

def o_regular(GO, GB):
    """Left-regular O action; GB acts trivially on the same points."""
    actO = [tuple(GO.mul(s, x) for x in range(GO.order))
            for s in GO.generators]
    actB = [tuple(range(GO.order)) for _ in GB.generators]
    return BiSet(GO.order, GO, GB, actO, actB)


SWAP = (1, 0, 2)
STAY = (0, 1, 2)
# which generators act by the swap on the 3-point set, per group label
SWAP_GENS = {"triv": [], "C2": [SWAP], "C3": [STAY], "S3": [SWAP, STAY]}


def swap3(GO, GB):
    """Three points; each side acts through its sign-like quotient by
    swapping the first two points (groups without one act trivially)."""
    return BiSet(3, GO, GB, SWAP_GENS[GO.label], SWAP_GENS[GB.label])


def b_set(G, perms, size):
    return biset_from_single_action(size, G, perms, side="B")


def b_regular(G):
    perms = [tuple(G.mul(s, x) for x in range(G.order))
             for s in G.generators]
    return b_set(G, perms, G.order)


# -- criteria ----------------------------------------------------------------

def test_criterion_1_partition_series():
    t0 = time.perf_counter()
    GO = cyclic(2)
    X = o_regular(GO, trivial_group())
    r = verify_theorem1(X, 1, 4)
    seq = [chi_k_equivariant(wreath_power(X, n), 1).marks()[0]
           for n in range(5)]
    elapsed = time.perf_counter() - t0
    ok = r.passed and seq == [1, 1, 2, 3, 5] and elapsed < 10
    _report(1, ok, f"partition numbers {seq}, {elapsed:.2f}s")


def test_criterion_2_theorem1_grid():
    t0 = time.perf_counter()
    group_os = [cyclic(2), cyclic(3), symmetric(3)]
    group_bs = [trivial_group(), cyclic(2)]
    cells = 0
    for GO in group_os:
        for GB in group_bs:
            for name, build in (("regular", o_regular),
                                ("biregular", biregular),
                                ("swap3", swap3)):
                X = build(GO, GB)
                for k in (1, 2):
                    N = 4  # every wreath order here is <= 5*10^4
                    r = verify_theorem1(X, k, N)
                    assert r.passed, (GO.label, GB.label, name, k,
                                      [(d.n, d.lhs, d.rhs) for d in r.degrees
                                       if not d.equal])
                    cells += 1
    # documented spot value: Z2 x Z2 biregular, k=1, t^2 coefficient
    X = biregular(cyclic(2), cyclic(2))
    el = chi_k_equivariant(wreath_power(X, 2), 1)
    assert el.render() == "2*[G/e] + [G/G]"
    # empty set: both sides are the constant series 1
    r = verify_theorem1(empty_biset(cyclic(2), cyclic(2)), 1, 3)
    assert r.passed and all(d.rhs in ("[G/G]", "0") for d in r.degrees)
    elapsed = time.perf_counter() - t0
    ok = cells == 36 and elapsed < 600
    _report(2, ok, f"{cells} grid cells, {elapsed:.1f}s")


def test_criterion_3_lemma1_five_sets():
    t0 = time.perf_counter()
    Z2, S3 = cyclic(2), symmetric(3)
    sets = [
        b_regular(Z2),
        b_set(Z2, [(0, 1)], 2),             # trivial 2-point action
        b_set(Z2, [SWAP], 3),               # swap two of three points
        b_regular(S3),
        b_set(S3, [(1, 0, 2), (1, 2, 0)], 3),  # natural 3-point action
    ]
    for X in sets:
        r = verify_lemma1(X, 5)
        assert r.passed, (X.gB.label, X.size)
    # documented value: trivial 2-point set gives the binomial series
    r = verify_lemma1(sets[1], 5)
    assert [d.lhs for d in r.degrees] == \
        ["[G/G]"] + [f"{n + 1}*[G/G]" for n in range(1, 6)]
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30
    _report(3, ok, f"5 G-sets to N=5, {elapsed:.2f}s")


def _effective_exponents(ring, max_size):
    """All iso classes of G-sets of total size <= max_size: multisets of
    transitive classes, as concrete disjoint unions."""
    sizes = [coset_biset(ring, i).size for i in range(ring.n)]

    def rec(start, room):
        yield []
        for i in range(start, ring.n):
            if sizes[i] <= room:
                for rest in rec(i, room - sizes[i]):
                    yield [i] + rest
    for combo in rec(0, max_size):
        if not combo:
            continue
        M = coset_biset(ring, combo[0])
        for i in combo[1:]:
            M = disjoint_union(M, coset_biset(ring, i))
        yield M


def test_criterion_4_oracle_equivalences():
    t0 = time.perf_counter()
    r = verify_integer_oracle(trials=200, N=8, seed=20260817)
    assert r.passed

    descriptors = [
        {"type": "trivial"},
        {"type": "cyclic", "n": 2},
        {"type": "cyclic", "n": 3},
        {"type": "cyclic", "n": 4},
        {"type": "product", "factors": [{"type": "cyclic", "n": 2},
                                        {"type": "cyclic", "n": 2}]},
        {"type": "cyclic", "n": 5},
        {"type": "cyclic", "n": 6},
        {"type": "symmetric", "n": 3},
    ]
    checked = 0
    for desc in descriptors:
        G = make_group(desc)
        ring = burnside_ring(G)
        coeff = burnside_coeff_ring(ring)
        pt = coset_biset(ring, ring.n - 1)
        small = next((coset_biset(ring, i) for i in range(ring.n - 1, -1, -1)
                      if 1 < coset_biset(ring, i).size <= 3), pt)
        for a_sets in ([pt], [small], [pt, small]):
            N = 4
            coeffs = [coeff.one] + [class_of(A) for A in a_sets]
            coeffs += [coeff.zero] * (N + 1 - len(coeffs))
            A = TruncatedSeries(coeff, tuple(coeffs))
            for M in _effective_exponents(ring, 4):
                geo = geometric_power_oracle(a_sets, M, N)
                assert geo.coeffs == power(A, class_of(M)).coeffs, \
                    (G.label, M.size, [x.size for x in a_sets])
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 300
    _report(4, ok, f"200 integer trials + {checked} geometric cases, "
                   f"{elapsed:.1f}s")


def test_criterion_5_axioms_all_rings():
    t0 = time.perf_counter()
    details = []
    ok = True
    for ring_name in ("int", "burnside", "lext"):
        r = verify_axioms(ring_name, trials=100, N=6, seed=20260817)
        ok = ok and r.passed
        details.append(f"{ring_name}:{'ok' if r.passed else 'FAIL'}")
    elapsed = time.perf_counter() - t0
    _report(5, ok, f"{', '.join(details)}, {elapsed:.1f}s")


def test_criterion_6_dual_path_agreement():
    t0 = time.perf_counter()
    Z2, S3 = cyclic(2), symmetric(3)
    pt = BiSet(1, S3, trivial_group(), [(0,), (0,)], [])
    zoo = [
        pt,
        o_regular(S3, trivial_group()),
        swap3(S3, trivial_group()),
        biregular(Z2, Z2),
        o_regular(S3, cyclic(2)),
    ]
    pairs = 0
    for X in zoo:
        for k in (0, 1, 2):
            rec = chi_k_equivariant(X, k, cross_check=False)
            tup = chi_k_equivariant_tuples(X, k)
            assert rec == tup, (X.size, k)
            if X.gB.order == 1:
                assert rec.marks()[0] == chi_k_averaging(X, k)
            pairs += 1
    assert chi_k(pt, 1, cross_check=False) == 3
    assert chi_k_averaging(pt, 1) == 3
    assert chi_k(pt, 2, cross_check=False) == 8
    assert chi_k_averaging(pt, 2) == 8
    elapsed = time.perf_counter() - t0
    _report(6, True, f"{pairs} dual-path pairs, pt/S3 values 3 and 8, "
                     f"{elapsed:.2f}s")


def test_criterion_7_scaling_laws():
    t0 = time.perf_counter()
    r = verify_props12(trials=100, N=5, seed=20260817)
    assert len(r.degrees) == 4
    degeneration = r.degrees[3]
    elapsed = time.perf_counter() - t0
    ok = r.passed and degeneration.equal
    _report(7, ok, f"4 law families over 100 inputs, d=0 degeneration "
                   f"included, {elapsed:.1f}s")


def _multipartition_count(classes: int, n: int) -> int:
    """Tuples of partitions, one per class, with sizes summing to n."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            p[total] += p[total - part]

    def comp(slots, total):
        if slots == 1:
            return p[total]
        return sum(p[a] * comp(slots - 1, total - a)
                   for a in range(total + 1))
    return comp(classes, n)


def test_criterion_8_wreath_class_count():
    inner = symmetric(3)
    base_classes = len(conjugacy_classes(inner))
    W = WreathGroup(inner, 4)  # fresh object, no cached class data
    t0 = time.perf_counter()
    count = len(conjugacy_classes(W))
    elapsed = time.perf_counter() - t0
    expected = _multipartition_count(base_classes, 4)
    ok = count == 51 == expected and W.order == 31104 and elapsed < 5
    _report(8, ok, f"{count} classes of order-{W.order} wreath product "
                   f"in {elapsed:.2f}s, oracle {expected}")
