"""Degree-by-degree verification reports."""

import json
from fractions import Fraction

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


def test_trials_budget_is_checked_before_any_draw(monkeypatch):
    """trials·(N + 5)^3 up to TRIAL_BUDGET is admitted, one more trial is
    refused, and the defaults pass."""
    harness.check_trials(harness.TRIAL_BUDGET // 1331, 6)
    harness.check_trials(100, 6)
    monkeypatch.setattr(harness, "_random_series", None)
    for verify, N in ((lambda *a: harness.verify_axioms("lext", *a), 6),
                      (harness.verify_props12, 5)):
        with pytest.raises(ResourceLimitError, match=r"trials · \(N \+ 5\)"):
            verify(harness.TRIAL_BUDGET // (N + 5) ** 3 + 1, N)


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


def test_props12_records_its_weights_only_when_given():
    r = harness.verify_props12(trials=2, N=3, seed=5,
                               weights=(Fraction(1, 2), 1))
    assert r.passed and r.params["weights"] == ["1/2", "1"]
    assert "weights" not in harness.verify_props12(trials=2, N=3).params


@pytest.mark.parametrize("weights", [(), (1,), (1, 2, 3)])
def test_props12_refuses_other_weight_counts_before_any_draw(
        monkeypatch, weights):
    """Only two weights are used (k = 1 and 2), so any other count is
    refused up front: not after every other law has run, and not by
    checking a prefix of them."""
    calls, power_L = [], harness.power_L
    monkeypatch.setattr(harness, "power_L",
                        lambda *a: calls.append(a) or power_L(*a))
    with pytest.raises(UsageError,
                       match=f"need 2 weights, got {len(weights)}"):
        harness.verify_props12(trials=2, N=3, weights=weights)
    assert calls == []


def test_integer_oracle_report():
    r = verify_integer_oracle(trials=25, N=6, seed=9)
    assert r.passed


def test_negative_arguments_rejected():
    with pytest.raises(UsageError):
        harness.verify_theorem1(reg_b(2), -1, 3)
    with pytest.raises(UsageError):
        harness.verify_lemma1(reg_b(2), -2)


def reg_o(n):
    """Regular O-side action of Z/n, trivial B side."""
    G = cyclic(n)
    perms = [tuple(G.mul(g, x) for x in range(n)) for g in G.generators]
    return BiSet(n, G, trivial_group(), actO=perms, actB=[])


def test_theorem1_point_budget_checked_before_any_work(monkeypatch):
    """C3 on 3 points has 3^5 = 243 points at degree 5: a budget of 100
    stops the run before the first characteristic is computed, and the
    error names the degree."""
    calls = []
    monkeypatch.setattr(harness, "chi_k_equivariant",
                        lambda *a, **kw: calls.append(a))
    with pytest.raises(ResourceLimitError,
                       match="wreath power points at degree 5") as e:
        harness.verify_theorem1(reg_o(3), 1, 5, max_points=100)
    assert (e.value.size, e.value.budget) == (243, 100)
    assert calls == []


def test_theorem1_cross_check_skips_oracle_above_limit(monkeypatch):
    """Above ORACLE_GROUP_LIMIT the tuple oracle is skipped, not refused:
    for C3 on 3 points at N = 4 it runs on the exponent's group and the
    wreath groups of degrees 0-3, but not on C3≀S4 (order 1944).  The
    report lists the degrees it ran on; without the flag it lists none."""
    from equichar import euler
    orders = []
    oracle = euler.chi_k_equivariant_tuples

    def spy(X, k):
        orders.append(X.gO.order)
        return oracle(X, k)
    monkeypatch.setattr(euler, "chi_k_equivariant_tuples", spy)
    report = harness.verify_theorem1(reg_o(3), 1, 4, cross_check=True)
    assert report.passed and len(report.degrees) == 5
    assert orders == [3, 1, 3, 18, 162]
    assert 3 ** 4 * 24 > euler.ORACLE_GROUP_LIMIT
    assert report.params["cross_checked"] == [0, 1, 2, 3]
    plain = harness.verify_theorem1(reg_o(3), 1, 4)
    assert "cross_checked" not in plain.params
    assert plain.to_json() == {**report.to_json(), "params": {
        k: v for k, v in report.params.items() if k != "cross_checked"}}
