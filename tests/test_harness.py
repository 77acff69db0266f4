"""Degree-by-degree verification reports."""

import json

import pytest

from equichar.errors import ResourceLimitError, UsageError
from equichar.groups import cyclic, trivial_group
from equichar.gsets import BiSet
from equichar import harness
from oracles import verify_integer_oracle


def reg_b(n):
    """Regular B-side action of Z/n, trivial O side."""
    G = cyclic(n)
    perms = [tuple(G.mul(g, x) for x in range(n)) for g in G.generators]
    return BiSet(n, trivial_group(), G, actO=[], actB=perms)


def test_lemma1_partition_like_sequence():
    r = harness.verify_lemma1(reg_b(2), 4)
    assert r.passed
    assert [d.lhs for d in r.degrees] == [
        "[G/G]", "[G/e]", "[G/e] + [G/G]", "2*[G/e]", "2*[G/e] + [G/G]"]


def test_theorem1_regular_set():
    r = harness.verify_theorem1(reg_b(2), 1, 4, cross_check=True)
    assert r.passed
    assert [d.lhs for d in r.degrees] == [
        "[G/G]", "[G/e]", "2*[G/e] + [G/G]", "5*[G/e]", "9*[G/e] + 2*[G/G]"]


def test_theorem1_mismatch_is_reported_not_raised():
    # doctor the RHS by checking a wrong degree: simplest honest route is
    # to confirm the report machinery flags inequality, via a fake report
    from equichar.harness import DegreeCheck, VerificationReport
    r = VerificationReport("x", {})
    r.degrees.append(DegreeCheck(0, "1", "1", True))
    r.degrees.append(DegreeCheck(1, "2", "3", False))
    assert not r.passed
    assert "FAIL" in r.render()
    assert r.to_json()["pass"] is False


def test_theorem1_budget():
    with pytest.raises(ResourceLimitError):
        harness.verify_theorem1(reg_b(2), 1, 6, max_wreath=100)
    with pytest.raises(ResourceLimitError):
        harness.verify_theorem1(reg_b(2), 1, 3, max_points=7)


def test_lemma1_budget():
    with pytest.raises(ResourceLimitError):
        harness.verify_lemma1(reg_b(3), 5, max_points=10)


def test_report_json_shape_and_timings():
    r = harness.verify_lemma1(reg_b(2), 2)
    plain = r.to_json()
    assert set(plain) == {"identity", "params", "degrees", "pass"}
    assert all(set(d) == {"n", "lhs", "rhs", "equal"}
               for d in plain["degrees"])
    timed = r.to_json(timings=True)
    assert all("ms" in d for d in timed["degrees"])
    # deterministic serialization modulo timings
    assert json.dumps(plain, sort_keys=True) == \
        json.dumps(harness.verify_lemma1(reg_b(2), 2).to_json(),
                   sort_keys=True)


@pytest.mark.parametrize("ring", ["int", "burnside", "lext"])
def test_axioms_small(ring):
    r = harness.verify_axioms(ring, trials=5, N=4, seed=11)
    assert r.passed
    assert len(r.degrees) == 5


def test_axioms_unknown_ring():
    with pytest.raises(UsageError):
        harness.verify_axioms("rational")


def test_axioms_seed_reproducible():
    a = harness.verify_axioms("int", trials=8, N=5, seed=3).to_json()
    b = harness.verify_axioms("int", trials=8, N=5, seed=3).to_json()
    assert a == b


def test_props12_small():
    r = harness.verify_props12(trials=6, N=4, seed=2)
    assert r.passed
    assert len(r.degrees) == 4


def test_props12_with_weights():
    r = harness.verify_props12(trials=3, N=3, seed=5, weights=(2, 1))
    assert r.passed


def test_integer_oracle_report():
    r = verify_integer_oracle(trials=25, N=6, seed=9)
    assert r.passed


def test_negative_arguments_rejected():
    with pytest.raises(UsageError):
        harness.verify_theorem1(reg_b(2), -1, 3)
    with pytest.raises(UsageError):
        harness.verify_lemma1(reg_b(2), -2)
