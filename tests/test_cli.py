"""Command-line behavior: verbs, formats, exit codes, determinism."""

import hashlib
import json
import os
import pathlib
import runpy
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from equichar import cli, gsets, harness, powerstruct
from equichar.cli import main
from equichar.errors import InvariantViolation, ResourceLimitError
from equichar.groups import make_group

S3 = {"type": "symmetric", "n": 3}
Z2 = {"type": "cyclic", "n": 2}
TRIV = {"type": "trivial"}


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)
    return write


@pytest.fixture
def s3_point(files):
    return files("pt.json", {"size": 1, "gO": S3, "gB": TRIV,
                             "actO": [[0], [0]], "actB": []})


@pytest.fixture
def z2_reg(files):
    return files("reg.json", {"size": 2, "gO": TRIV, "gB": Z2,
                              "actO": [], "actB": [[1, 0]]})


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_twice_cleanly(capsys, *argv):
    """Exit 0, 1 or 2, no traceback, and the same stdout on a second run."""
    first = run(capsys, *argv)
    again = run(capsys, *argv)
    assert first[0] in (0, 1, 2)
    assert "Traceback" not in first[2]
    assert again[:2] == first[:2]


def test_group_show(capsys, files):
    code, out, _ = run(capsys, "group", "show", "--input",
                       files("g.json", S3))
    assert code == 0 and out.strip() == "S3: order 6, 2 generators"


def test_group_classes_json(capsys, files):
    code, out, _ = run(capsys, "group", "classes", "--input",
                       files("g.json", S3), "--format", "json")
    assert code == 0
    assert json.loads(out) == {"count": 3, "sizes": [1, 3, 2],
                               "representatives": [0, 1, 3]}


def test_group_subgroups_and_marks(capsys, files):
    g = files("g.json", S3)
    code, out, _ = run(capsys, "group", "subgroups", "--input", g)
    assert code == 0 and out.splitlines()[0] == "[G/e]: order 1 index 6"
    code, out, _ = run(capsys, "group", "marks", "--input", g,
                       "--format", "json")
    assert json.loads(out)["marks"] == [[6, 0, 0, 0], [3, 1, 0, 0],
                                        [2, 0, 2, 0], [1, 1, 1, 1]]


def test_chi_family(capsys, s3_point):
    assert run(capsys, "chi", "--input", s3_point)[:2] == (0, "1\n")
    assert run(capsys, "chi-orb", "--input", s3_point)[:2] == (0, "3\n")
    assert run(capsys, "chi-k", "--k", "1", "--input", s3_point)[:2] \
        == (0, "3\n")
    assert run(capsys, "chi-k", "--k", "2", "--input", s3_point)[:2] \
        == (0, "8\n")


def test_chi_k_eq(capsys, z2_reg):
    code, out, _ = run(capsys, "chi-k-eq", "--k", "1", "--input", z2_reg,
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"basis": ["[G/e]", "[G/G]"], "coeffs": [1, 0]}


def test_chi_on_cellspace(capsys, files):
    flip = {"size": 2, "gO": Z2, "gB": TRIV, "actO": [[1, 0]], "actB": []}
    p = files("cs.json", {"cells": [{"dim": 0, "biset": flip},
                                    {"dim": 1, "biset": flip}]})
    assert run(capsys, "chi", "--input", p)[:2] == (0, "0\n")


def test_chi_k_eq_on_cellspace(capsys, files):
    """A free C2 0-cell counts 1 and a trivial C2 1-cell on two points
    counts 2 + 2 at k = 1, so the signed sum is -3 copies of the point."""
    free = {"size": 2, "gO": Z2, "gB": TRIV, "actO": [[1, 0]], "actB": []}
    fixed = {"size": 2, "gO": Z2, "gB": TRIV, "actO": [[0, 1]], "actB": []}
    p = files("cs.json", {"cells": [{"dim": 0, "biset": free},
                                    {"dim": 1, "biset": fixed}]})
    assert run(capsys, "chi-k-eq", "--k", "1", "--input", p) == \
        (0, "-3*[G/G]\n", "")


def test_chi_k_refuses_a_nontrivial_b_side(capsys, z2_reg):
    assert run(capsys, "chi-k", "--k", "1", "--input", z2_reg) == (
        1, "", "error: this characteristic needs a trivial B side; use the "
        "equivariant variant instead\n")


def test_an_internal_invariant_violation_exits_1_without_traceback(
        capsys, files, monkeypatch):
    def corrupt(G):
        raise InvariantViolation("a corrupted table")
    monkeypatch.setattr(cli, "conjugacy_classes", corrupt)
    p = files("s3.json", S3)
    assert run(capsys, "group", "classes", "--input", p) == (
        1, "", "internal invariant violated: a corrupted table\n")


@pytest.mark.filterwarnings("ignore:'equichar.cli' found in sys.modules")
def test_python_dash_m_runs_the_cli(capsys, files, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["equichar", "group", "show", "--input",
                                      files("s3.json", S3)])
    with pytest.raises(SystemExit) as e:
        runpy.run_module("equichar.cli", run_name="__main__")
    assert e.value.code == 0
    assert capsys.readouterr().out == "S3: order 6, 2 generators\n"


@pytest.mark.parametrize("identity", ["theorem1", "lemma1"])
def test_verify_refuses_cellspace_naming_file(capsys, files, identity):
    """A cell space is no input for the brute-force identities: one error
    line names the file, and no traceback."""
    flip = {"size": 2, "gO": Z2, "gB": TRIV, "actO": [[1, 0]], "actB": []}
    p = files("cs.json", {"cells": [{"dim": 0, "biset": flip}]})
    k = ("--k", "1") if identity == "theorem1" else ()
    code, out, err = run(capsys, "verify", identity, "--input", p,
                         "--N", "1", *k)
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err == (f"error: {p}: {identity} verification needs a finite "
                   f"set, not a cell space\n")


def test_power_int(capsys, files):
    p = files("p.json", {"ring": "int", "series": [1, 1], "exponent": -1})
    code, out, _ = run(capsys, "power", "--input", p, "--N", "4")
    assert code == 0
    assert out.strip() == "1 + -1*t + t^2 + -1*t^3 + t^4"


def test_power_burnside_json(capsys, files):
    p = files("p.json", {"ring": {"burnside": Z2},
                         "series": [{"coeffs": [0, 1]}, {"coeffs": [1, 0]}],
                         "exponent": {"coeffs": [1, 0]}})
    code, out, _ = run(capsys, "power", "--input", p, "--N", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == ["[G/G]", "2*[G/e]", "[G/e] + 2*[G/G]"]


def test_power_refuses_a_ring_naming_both_burnside_and_lext(capsys, files):
    """A "ring" object with both keys names no one coefficient ring: one
    error line with the path, where an extra unknown key is ignored."""
    p = files("p.json", {"ring": {"burnside": Z2, "lext": Z2},
                         "series": [{"coeffs": [0, 1]}],
                         "exponent": {"coeffs": [0, 1]}})
    code, out, err = run(capsys, "power", "--input", p, "--N", "1")
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err == f"error: {p}: ring names both \"burnside\" and \"lext\"\n"
    q = files("q.json", {"ring": {"burnside": Z2, "note": 1},
                         "series": [{"coeffs": [0, 1]}],
                         "exponent": {"coeffs": [0, 1]}})
    assert run(capsys, "power", "--input", q, "--N", "1")[0] == 0


def test_zeta_plain_and_scaled(capsys, files):
    p = files("z.json", {"group": Z2, "index": 0})
    code, out, _ = run(capsys, "zeta", "--input", p, "--N", "3")
    assert code == 0
    assert out.strip() == \
        "[G/G] + [G/e]*t + ([G/e] + [G/G])*t^2 + 2*[G/e]*t^3"
    p2 = files("z2.json", {"group": Z2, "index": 0, "exp": "1/2"})
    code, out, _ = run(capsys, "zeta", "--input", p2, "--N", "2")
    assert code == 0
    assert "L^(1/2)" in out


def test_orbifold_class(capsys, files):
    p = files("d.json", {
        "gO": S3, "gB": Z2, "k": 1, "weights": ["1"],
        "strata": [
            {"tuple": [0],
             "class": {"D": 1, "terms": [{"exp": 0, "coeffs": [1, 0]}]},
             "shift": 0},
            {"tuple": [2],
             "class": {"D": 1, "terms": [{"exp": 0, "coeffs": [0, 1]}]},
             "shift": "1/2"}]})
    code, out, _ = run(capsys, "orbifold-class", "--input", p)
    assert code == 0 and out.strip() == "[G/e] + L^(1/2)"


def _one_stratum(cls):
    return {"gO": S3, "gB": Z2, "k": 1, "weights": ["1"],
            "strata": [{"tuple": [2], "class": cls}]}


@pytest.mark.parametrize("D", [2, 0, -1, True, "1", 1.0, None])
def test_orbifold_class_checks_supplied_D(capsys, files, D):
    """A class's "D", when given, must be the int its exponents need."""
    cls = {"D": D, "terms": [{"exp": 0, "coeffs": [0, 1]}]}
    code, out, err = run(capsys, "orbifold-class", "--input",
                         files("d.json", _one_stratum(cls)))
    assert code == 1 and out == "" and err.startswith("error: ")
    assert '"D" must be 1' in err and "Traceback" not in err
    cls = {"D": 2, "terms": [{"exp": "-1/2", "coeffs": [0, 1]}]}
    code, out, _ = run(capsys, "orbifold-class", "--input",
                       files("d.json", _one_stratum(cls)))
    assert code == 0 and out.strip() == "L^(-1/2)"


@pytest.mark.parametrize("gO, k, tup", [
    (Z2, 1, [True]),       # a JSON boolean is not an index
    (S3, 1, [False]),
    (S3, 1, [1.0]),
    (S3, 1, ["1"]),
    (S3, 1, [6]),          # out of range
    (S3, 1, [-1]),
    (S3, 1, [1, 2]),       # wrong length
    (S3, 2, [1]),
    (S3, 2, [1, 2]),       # entries do not commute
])
def test_orbifold_class_rejects_bad_tuple_labels(capsys, files, gO, k, tup):
    """A label must be k commuting integer indices into the O-side group;
    anything else exits 1 with one error line naming the file."""
    cls = {"terms": [{"exp": 0, "coeffs": [0, 1]}]}
    path = files("d.json", {"gO": gO, "gB": Z2, "k": k, "weights": [1] * k,
                            "strata": [{"tuple": tup, "class": cls,
                                        "shift": "1/2"}]})
    code, out, err = run(capsys, "orbifold-class", "--input", path)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}: unknown tuple-class label")
    assert err.count("\n") == 1


def test_verify_lemma1_text(capsys, z2_reg):
    code, out, _ = run(capsys, "verify", "lemma1", "--input", z2_reg,
                       "--N", "4")
    assert code == 0
    assert "PASS (5/5 checks)" in out


def test_verify_text_has_wall_clock_only_with_timings(capsys, z2_reg):
    argv = ("verify", "lemma1", "--input", z2_reg, "--N", "4")
    code, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert code == 0 and out1 == out2 and " ms]" not in out1
    code, timed, _ = run(capsys, *argv, "--timings")
    assert code == 0
    assert all(line.endswith(" ms]") for line in timed.splitlines()
               if line.startswith("  n="))


def test_verify_theorem1_json_deterministic(capsys, z2_reg):
    argv = ("verify", "theorem1", "--input", z2_reg, "--k", "1",
            "--N", "3", "--format", "json")
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    report = json.loads(out1)
    assert report["pass"] is True
    assert [d["n"] for d in report["degrees"]] == [0, 1, 2, 3]
    assert all("ms" not in d for d in report["degrees"])
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_lemma1_point_budget_exits_1(capsys, files):
    """S^5 of 40 points has comb(44, 5) > 10^6 points: the default budget
    stops lemma1 before any symmetric power is built."""
    x = files("x.json", {"size": 40, "gO": TRIV, "gB": TRIV,
                         "actO": [], "actB": []})
    code, out, err = run(capsys, "verify", "lemma1", "--input", x,
                         "--N", "6")
    assert code == 1 and out == ""
    assert err.startswith("error: symmetric power") and "budget 1000000" in err


def test_symmetric_degree_limit_exits_1(capsys, files):
    """S9 would list 9! permutations; the degree limit 8 refuses it, and
    the error names the input file it came from."""
    with pytest.raises(ResourceLimitError,
                       match="symmetric group degree") as e:
        make_group({"type": "symmetric", "n": 9})
    assert e.value.size == 9 and e.value.budget == 8
    s9 = {"type": "symmetric", "n": 9}
    group = files("s9.json", s9)
    biset = files("x.json", {"size": 1, "gO": s9, "gB": TRIV,
                             "actO": [[0], [0]], "actB": []})
    for path, argv in ((group, ("group", "show")),
                       (biset, ("chi-k", "--k", "1"))):
        code, out, err = run(capsys, *argv, "--input", path)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: symmetric group degree 9")
        assert "exceeds budget 8" in err


def test_verify_timings_flag(capsys, z2_reg):
    code, out, _ = run(capsys, "verify", "lemma1", "--input", z2_reg,
                       "--N", "2", "--format", "json", "--timings")
    assert code == 0
    assert all("ms" in d for d in json.loads(out)["degrees"])


def test_verify_axioms_and_props(capsys):
    code, out, _ = run(capsys, "verify", "axioms", "--ring", "int",
                       "--trials", "10", "--N", "4")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "verify", "props12", "--trials", "3",
                       "--N", "3", "--weights", "1/2,1")
    assert code == 0 and "PASS" in out


def test_props12_weights_are_two_and_reported(capsys):
    code, out, _ = run(capsys, "verify", "props12", "--trials", "2", "--N",
                       "3", "--weights", "1/2,1", "--format", "json")
    assert code == 0 and json.loads(out)["params"]["weights"] == ["1/2", "1"]
    for raw in ("1", "1,2,3"):
        code, out, err = run(capsys, "verify", "props12", "--trials", "2",
                             "--weights", raw)
        n = raw.count(",") + 1
        assert (code, out, err) == (1, "", f"error: need 2 weights, got {n}\n")


def test_theorem1_lists_cross_checked_degrees_only_on_request(capsys, files):
    path = files("c3.json", {"size": 3, "gO": {"type": "cyclic", "n": 3},
                             "gB": TRIV, "actO": [[1, 2, 0]], "actB": []})
    argv = ("verify", "theorem1", "--k", "1", "--N", "4", "--input", path,
            "--format", "json")
    code, out, _ = run(capsys, *argv, "--cross-check")
    checked = json.loads(out)
    assert code == 0 and checked["params"].pop("cross_checked") == [0, 1, 2, 3]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out) == checked


def test_verification_failure_exits_2(capsys, z2_reg, monkeypatch):
    from equichar import harness as h
    from equichar.harness import DegreeCheck, VerificationReport

    def fake(*a, **kw):
        r = VerificationReport("lemma1", {})
        r.degrees.append(DegreeCheck(0, "1", "2", False))
        return r
    monkeypatch.setattr(h, "verify_lemma1", fake)
    code, out, _ = run(capsys, "verify", "lemma1", "--input", z2_reg,
                       "--N", "1")
    assert code == 2
    assert "FAIL" in out


def test_usage_errors_exit_1(capsys, tmp_path, s3_point):
    code, _, err = run(capsys, "nonsense")
    assert code == 1 and "invalid choice" in err
    code, _, err = run(capsys, "chi", "--input", str(tmp_path / "nope.json"))
    assert code == 1 and "no such file" in err
    code, _, err = run(capsys, "chi-k", "--k", "-2", "--input", s3_point)
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _, err = run(capsys, "chi", "--input", str(bad))
    assert code == 1 and "malformed JSON" in err


def test_unreadable_input_exits_1(capsys, tmp_path):
    """A directory, bytes that are not UTF-8 text, or arrays nested past
    the interpreter's recursion limit exit 1 with one error line naming
    the path, not a traceback."""
    raw = tmp_path / "raw.json"
    raw.write_bytes(b"\xff\xfe{}")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for path, why in ((tmp_path, "cannot read"), (raw, "malformed JSON"),
                      (deep, "malformed JSON")):
        code, out, err = run(capsys, "chi", "--input", str(path))
        assert code == 1 and out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {path}: {why}")


def test_chi_has_no_cross_check_flag(capsys, s3_point):
    """chi has no second route to check against, so the flag is refused
    rather than ignored; the verbs that have one still take it."""
    code, out, err = run(capsys, "chi", "--input", s3_point, "--cross-check")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --cross-check" in err
    code, out, _ = run(capsys, "chi-orb", "--input", s3_point, "--cross-check")
    assert code == 0 and out.strip() == "3"


def test_cross_check_skip_is_reported(capsys, files):
    """Above ORACLE_GROUP_LIMIT (400) a requested cross-check is skipped:
    a point under S6 (order 720) prints one stderr line naming the limit,
    with the same stdout and exit code as without the flag."""
    path = files("s6pt.json", {"size": 1, "gO": {"type": "symmetric", "n": 6},
                               "gB": TRIV, "actO": [[0], [0]], "actB": []})
    for verb in (("chi-orb",), ("chi-k", "--k", "1"), ("chi-k-eq", "--k", "2")):
        plain = run(capsys, *verb, "--input", path)
        assert plain[0] == 0 and plain[2] == ""
        code, out, err = run(capsys, *verb, "--input", path, "--cross-check")
        assert (code, out) == plain[:2]
        assert err == ("note: cross-check skipped: O-side group order 720 "
                       "exceeds the oracle limit 400\n")


def test_cross_check_that_ran_names_its_oracle(capsys, s3_point):
    """Within ORACLE_GROUP_LIMIT a requested cross-check runs: chi-orb and
    chi-k name the averaging form and chi-k-eq the tuple form, in one
    stderr line, with the same stdout and exit code as without the flag."""
    for verb, form in ((("chi-orb",), "averaging form"),
                       (("chi-k", "--k", "2"), "averaging form"),
                       (("chi-k-eq", "--k", "2"), "tuple form")):
        plain = run(capsys, *verb, "--input", s3_point)
        assert plain[0] == 0 and plain[2] == ""
        code, out, err = run(capsys, *verb, "--input", s3_point,
                             "--cross-check")
        assert (code, out) == plain[:2]
        assert err == f"note: cross-checked against the {form} oracle\n"


def test_group_marks_refuses_many_subgroups_quickly(capsys, files):
    """C2^7 has order 128 but 29,212 subgroups; the lattice counts what it
    indexes and stops past SUBGROUP_BUDGET, well inside a second."""
    path = files("c2_7.json", {"type": "product", "factors": [Z2] * 7})
    t0 = time.perf_counter()
    code, out, err = run(capsys, "group", "marks", "--input", path)
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (1, "")
    assert err == ("error: subgroup enumeration "
                   "(size 4097 exceeds budget 4096)\n")


def test_verbs_refuse_to_enumerate_a_huge_group_quickly(capsys, files):
    """C7≀S7 has order 4,150,656,720; it is built and shown, but listing
    its elements (the word table behind every act, or the whole subgroup
    behind its classes) stops at ELEMENT_BUDGET before anything is
    allocated."""
    c7s7 = {"type": "wreath", "inner": {"type": "cyclic", "n": 7}, "n": 7}
    group = files("c7s7.json", c7s7)
    point = files("c7s7pt.json", {"size": 1, "gO": c7s7, "gB": TRIV,
                                  "actO": [[0]] * 3, "actB": []})
    assert run(capsys, "group", "show", "--input", group) == \
        (0, "C7wrS7: order 4150656720, 3 generators\n", "")
    limit = ("element enumeration of C7wrS7 "
             "(size 4150656720 exceeds budget 1000000)\n")
    for argv, err in ((("chi", "--input", point), f"error: {point}: {limit}"),
                      (("chi-orb", "--input", point),
                       f"error: {point}: {limit}"),
                      (("group", "classes", "--input", group),
                       f"error: {limit}")):
        t0 = time.perf_counter()
        assert run(capsys, *argv) == (1, "", err)
        assert time.perf_counter() - t0 < 1


def test_a_non_action_is_refused_quickly(capsys, files):
    """C5000 acting by one 7-cycle is not an action, as 7 does not divide
    5000: one walk of the word tree finds the one broken Cayley relation,
    4999·1 = 0.  On 500 points the check would hold 2.5·10^6 list map
    cells, and HOM_CHECK_BUDGET refuses it instead, as it does C_1,000,000
    swapping 2 points, whose bytes maps would hold 256 cells each."""
    def seven_cycle(size):
        perm = [1, 2, 3, 4, 5, 6, 0] + list(range(7, size))
        return {"size": size, "gO": {"type": "cyclic", "n": 5000},
                "gB": TRIV, "actO": [perm], "actB": []}
    small = files("c5000_300.json", seven_cycle(300))
    large = files("c5000_500.json", seven_cycle(500))
    huge = files("c1m_2.json", {"size": 2, "gB": TRIV, "actB": [],
                                "gO": {"type": "cyclic", "n": 10 ** 6},
                                "actO": [[1, 0]]})
    limit = "O-side homomorphism check map cells, HOM_CHECK_BUDGET"
    for path, err in (
            (small, "bad biset: O-side action is not a homomorphism "
                    "at (4999, 1)"),
            (large, f"{limit} (size 2500000 exceeds budget 2000000)"),
            (huge, f"{limit} (size 256000000 exceeds budget 2000000)")):
        t0 = time.perf_counter()
        assert run(capsys, "chi-orb", "--input", path) == \
            (1, "", f"error: {path}: {err}\n")
        assert time.perf_counter() - t0 < 2


def test_an_order_above_the_limit_is_refused_quickly(capsys, files):
    """The order-k recursions go k deep, so an order above ORDER_LIMIT is
    refused before any work rather than ending in a RecursionError."""
    c3 = files("c3.json", {"size": 3, "gO": {"type": "cyclic", "n": 3},
                           "gB": TRIV, "actO": [[1, 2, 0]], "actB": []})
    err = "error: order k (size 1000 exceeds budget 100)\n"
    for argv in (("chi-k",), ("chi-k-eq",),
                 ("verify", "theorem1", "--N", "2")):
        t0 = time.perf_counter()
        assert run(capsys, *argv, "--input", c3, "--k", "1000") == \
            (1, "", err)
        assert time.perf_counter() - t0 < 1


def test_budget_violation_exits_1(capsys, monkeypatch, z2_reg):
    """A budget changes only with its constant: lowered to 100, the
    low-order wreath limit refuses S5 (120 elements) with exit 1."""
    monkeypatch.setattr(harness, "WREATH_LIMIT_LOW_ORDER", 100)
    assert run(capsys, "verify", "theorem1", "--input", z2_reg,
               "--k", "1", "--N", "6") == (
        1, "", "error: wreath group order at degree 5 "
               "(size 120 exceeds budget 100)\n")


@pytest.mark.parametrize("argv", [
    ("theorem1", "--k", "1", "--max-wreath", "100"),
    ("theorem1", "--k", "1", "--max-points", "100"),
    ("lemma1", "--max-points", "100"),
])
def test_budget_override_flags_are_gone(capsys, z2_reg, argv):
    """No verb takes a flag that overrides a budget: one is a usage
    error, exit 1, with no traceback."""
    identity, *rest = argv
    code, out, err = run(capsys, "verify", identity, "--input", z2_reg,
                         "--N", "2", *rest)
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.startswith("error: unrecognized arguments: --max-")


@pytest.mark.parametrize("n, k, N, limit, order", [
    (4, 2, 5, 50_000, 122_880),   # WREATH_LIMIT_HIGH_ORDER
    (2, 1, 7, 400_000, 645_120),  # WREATH_LIMIT_LOW_ORDER
], ids=["high-order", "low-order"])
def test_theorem1_default_wreath_budgets(capsys, files, n, k, N, limit,
                                         order):
    """Without --max-wreath, C_n acting regularly is refused at the first
    degree whose wreath group passes the default for its order k, before
    any wreath group is built: C4 ≀ S5 has 4^5·5! elements, C2 ≀ S7
    2^7·7!."""
    x = files("reg.json", {"size": n, "gO": {"type": "cyclic", "n": n},
                           "gB": TRIV, "actO": [[*range(1, n), 0]],
                           "actB": []})
    t0 = time.perf_counter()
    assert run(capsys, "verify", "theorem1", "--input", x, "--k", str(k),
               "--N", str(N)) == (
        1, "", f"error: wreath group order at degree {N} "
               f"(size {order} exceeds budget {limit})\n")
    assert time.perf_counter() - t0 < 5


def test_theorem1_point_budget_names_degree(capsys, monkeypatch, files):
    """C3 on 3 points has 243 points at degree 5: a POINT_BUDGET of 100
    stops the run up front and says at which degree."""
    monkeypatch.setattr(gsets, "POINT_BUDGET", 100)
    x = files("c3.json", {"size": 3, "gO": {"type": "cyclic", "n": 3},
                          "gB": TRIV, "actO": [[1, 2, 0]], "actB": []})
    code, out, err = run(capsys, "verify", "theorem1", "--input", x,
                         "--k", "1", "--N", "5")
    assert code == 1 and out == ""
    assert err == ("error: wreath power points at degree 5 "
                   "(size 243 exceeds budget 100)\n")


C2000 = {"type": "cyclic", "n": 2000}   # over the subgroup-lattice budget
INPUT_ERRORS = [
    (("group", "show"), {"type": "cyclic", "n": "2"}),
    (("chi-k", "--k", "1"), {"size": 2, "gO": Z2, "gB": TRIV,
                             "actO": [[1, 0]]}),
    (("power", "--N", "2"), {"ring": "int", "series": [1, "2"],
                             "exponent": 1}),
    (("power", "--N", "2"), {"series": [2, 1], "exponent": 1}),
    (("power", "--N", "2"), [1, 2]),
    (("power", "--N", "2"), {"ring": "real", "series": [1], "exponent": 1}),
    (("power", "--N", "2"), {"ring": "int", "series": [], "exponent": 1}),
    (("power", "--N", "2"), {"ring": {"burnside": C2000},
                             "series": [{"coeffs": [1]}],
                             "exponent": {"coeffs": [1]}}),
    (("zeta", "--N", "2"), {"group": Z2, "index": 2}),
    (("zeta", "--N", "2"), {"group": C2000, "index": 0}),
    (("orbifold-class",), {"gO": S3, "gB": Z2, "k": "1", "weights": [],
                           "strata": []}),
    (("orbifold-class",), {"gO": TRIV, "gB": C2000, "k": 1,
                           "weights": [1], "strata": []}),
    (("orbifold-class",), {"gO": Z2, "gB": TRIV, "k": -1, "weights": [],
                           "strata": []}),
    (("orbifold-class",), {"gO": Z2, "gB": TRIV, "k": 1, "weights": "1",
                           "strata": []}),
    (("orbifold-class",), {"gO": Z2, "gB": TRIV, "k": 1, "weights": [1],
                           "strata": [{"tuple": 0, "class": {"terms": []}}]}),
    (("chi",), {"cells": 3}),
    (("group", "show"), {"type": "product"}),
    (("verify", "theorem1", "--k", "1", "--N", "2"),
     {"size": 2, "gO": Z2, "gB": TRIV, "actO": [[0, 0]], "actB": []}),
    (("chi-orb",), {"size": 2, "gO": Z2, "gB": TRIV, "actO": 5,
                    "actB": []}),
    (("chi-orb",), {"size": 2, "gO": Z2, "gB": TRIV, "actO": [[1.0, 0.0]],
                    "actB": []}),
    (("group", "show"), {"type": "perm", "degree": 2, "generators": 5}),
    (("group", "show"),
     {"type": "perm", "degree": 2, "generators": [[1.0, 0.0]]}),
    (("power", "--N", "2"), {"ring": {"burnside": Z2},
                             "series": [{"coeffs": [0.5, 1]}],
                             "exponent": {"coeffs": [1, 0]}}),
    (("power", "--N", "2"), {"ring": {"lext": Z2},
                             "series": [{"terms": [{"exp": 0.5,
                                                    "coeffs": [0, 1]}]}],
                             "exponent": {"terms": []}}),
    (("zeta", "--N", "2"), {"group": Z2, "index": 1, "exp": 0.5}),
    (("orbifold-class",), {"gO": Z2, "gB": TRIV, "k": 1, "weights": [0.5],
                           "strata": []}),
    (("orbifold-class",), {"gO": Z2, "gB": TRIV, "k": 1, "weights": [1],
                           "strata": [{"tuple": [0], "shift": True,
                                       "class": {"terms": []}}]}),
]


@pytest.mark.parametrize("argv, obj", INPUT_ERRORS, ids=[
    "group-field", "chi-k-field", "power-field", "power-unit",
    "power-not-an-object", "power-ring-name", "power-empty-series",
    "power-ring-budget", "zeta-field", "zeta-ring-budget",
    "orbifold-class-field", "orbifold-class-ring-budget",
    "orbifold-class-negative-k", "orbifold-class-weights",
    "orbifold-class-tuple", "chi-cells", "group-product-factors",
    "theorem1-field", "biset-act-not-a-list", "biset-float-perm",
    "perm-generators-not-a-list", "perm-float-generator",
    "power-float-coeff", "power-float-exp", "zeta-float-exp",
    "orbifold-class-float-weight", "orbifold-class-bool-shift"])
def test_input_errors_name_the_file_once(capsys, files, argv, obj):
    """An error raised while an input file is read, budget errors of the
    rings it names included, is one line that names the file once."""
    path = files("in.json", obj)
    code, out, err = run(capsys, *argv, "--input", path)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert err.count(path) == 1


def test_flag_errors_do_not_name_the_file(capsys, files):
    """Flags are checked before the input is read, and say which flag."""
    path = files("in.json", {"ring": "int", "series": [1], "exponent": 1})
    code, out, err = run(capsys, "power", "--N", "-1", "--input", path)
    assert code == 1 and out == ""
    assert err == "error: truncation must be an integer >= 0, got -1\n"
    code, out, err = run(capsys, "verify", "props12", "--trials", "1",
                         "--weights", "1,x")
    assert code == 1 and out == ""
    assert err == "error: --weights: bad rational 'x'\n"


@pytest.mark.parametrize("argv, err", [
    (("verify", "theorem1", "--k", "1", "--N", "-1"),
     "error: truncation must be an integer >= 0, got -1\n"),
    (("verify", "theorem1", "--k", "-1", "--N", "2"),
     "error: order must be an integer >= 0, got -1\n"),
    (("verify", "lemma1", "--N", "-1"),
     "error: truncation must be an integer >= 0, got -1\n"),
    (("power", "--N", "-1"), "error: truncation must be an integer >= 0, got -1\n"),
], ids=["theorem1-N", "theorem1-k", "lemma1-N", "power-N"])
def test_negative_order_or_truncation_has_one_message(capsys, files, argv,
                                                      err):
    """A negative k or N is refused by the one check that guards it, so
    every verb words it the same way."""
    obj = ({"ring": "int", "series": [1, 2], "exponent": 3}
           if argv[0] == "power" else
           {"size": 1, "gO": TRIV, "gB": TRIV, "actO": [], "actB": []})
    assert run(capsys, *argv, "--input", files("in.json", obj)) == (1, "", err)


@pytest.mark.parametrize("argv, obj", [
    (("group", "show"), {"type": "wreath", "n": 2}),
    (("group", "show"),
     {"type": "perm", "degree": 2, "generators": [[1, "0"]]}),
    (("chi-orb",), {"size": 2, "gO": Z2, "gB": TRIV, "actO": 5,
                    "actB": []}),
    (("power", "--N", "2"), {"ring": {"burnside": Z2},
                             "series": [{"coeffs": 5}],
                             "exponent": {"coeffs": [1, 0]}}),
    (("power", "--N", "2"), {"ring": {"lext": Z2}, "series": [{"terms": 3}],
                             "exponent": {"terms": []}}),
    (("power", "--N", "2"), {"ring": {"burnside": Z2},
                             "series": [{"coeffs": [0, 1]}],
                             "exponent": {"coeffs": [True, 0]}}),
    (("zeta", "--N", "2"), {"group": Z2, "index": True}),
])
def test_malformed_input_exits_1(capsys, files, argv, obj):
    code, out, err = run(capsys, *argv, "--input", files("bad.json", obj))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


FLIP = {"size": 2, "gO": Z2, "gB": TRIV, "actO": [[1, 0]], "actB": []}


def test_a_long_bad_permutation_is_refused_in_one_short_line(capsys, files):
    """The message names the first missing point, not the whole list."""
    path = files("big.json", {"size": 1000, "gO": Z2, "gB": TRIV,
                              "actO": [[0] * 1000], "actB": []})
    code, out, err = run(capsys, "chi", "--input", path)
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert err.startswith("error: ") and len(err.encode()) < 200
    assert "not a permutation of 1000 points: 1 is missing" in err


@pytest.mark.parametrize("key, value", [
    ("size", True), ("size", -3), ("size", 2.0), ("size", "2"),
    ("dim", 1.5), ("dim", "0"), ("dim", True),
])
def test_size_and_dim_must_be_integers(capsys, files, key, value):
    """A biset size or cell dimension that is not an integer >= 0 (a bool,
    float, string or negative number) exits 1 naming the file."""
    if key == "size":
        obj = {"size": value, "gO": TRIV, "gB": Z2, "actO": [], "actB": [[0]]}
        verbs = (("chi",), ("verify", "theorem1", "--k", "1", "--N", "2"))
    else:
        obj = {"cells": [{"dim": value, "biset": FLIP}]}
        verbs = (("chi",),)
    path = files("bad.json", obj)
    for argv in verbs:
        code, out, err = run(capsys, *argv, "--input", path)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}:")
        assert "must be an integer >= 0" in err


@pytest.mark.parametrize("argv", [
    ("power", "--N", "-1"),
    ("zeta", "--N", "-3"),
    ("verify", "axioms", "--ring", "int", "--N", "0"),
    ("verify", "axioms", "--ring", "int", "--N", "-1"),
    ("verify", "axioms", "--ring", "int", "--trials", "-1"),
    ("verify", "props12", "--N", "-2"),
    ("verify", "props12", "--trials", "0"),
])
def test_bad_truncation_or_trials_exits_1(capsys, files, argv):
    """Negative truncations, and trial counts or truncations too small for
    the randomized laws, are usage errors rather than tracebacks, empty
    results or vacuous passes."""
    inputs = {"power": {"ring": "int", "series": [1, 2], "exponent": 3},
              "zeta": {"group": Z2, "index": 1}}
    if argv[0] in inputs:
        argv += ("--input", files("in.json", inputs[argv[0]]))
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_a_truncation_above_the_limit_is_refused_quickly(capsys, files):
    """An --N above TRUNCATION_LIMIT is refused before any series work,
    and the error names no file.  On one point every symmetric and wreath
    power has one point, so no point budget stops verify lemma1 or
    verify theorem1 first."""
    power_in = files("p.json", {"ring": "int", "series": [1, 2],
                                "exponent": 3})
    zeta_in = files("z.json", {"group": Z2, "index": 1})
    point = files("pt.json", {"size": 1, "gO": TRIV, "gB": TRIV,
                              "actO": [], "actB": []})
    err = "error: truncation N (size 100000 exceeds budget 200)\n"
    for argv in (("power", "--input", power_in),
                 ("zeta", "--input", zeta_in),
                 ("verify", "lemma1", "--input", point),
                 ("verify", "theorem1", "--input", point, "--k", "1"),
                 ("verify", "axioms", "--ring", "int"),
                 ("verify", "props12")):
        t0 = time.perf_counter()
        assert run(capsys, *argv, "--N", "100000") == (1, "", err)
        assert time.perf_counter() - t0 < 1


def test_an_l_extended_power_above_the_budget_is_refused_quickly(
        capsys, files, monkeypatch):
    """On the S3 input of the L-extended goldens, whose t^j entries hold
    up to 6j + 1 Laurent terms, N = 100 would take over a minute; it is
    refused from the parsed coefficients while the input is read, so the
    error names the file, before any log column is built."""
    case = next(c for c in GOLDEN_LEXT if c["name"] == "power-lext-S3-text")
    path = files("in.json", case["input"])
    logs = []
    monkeypatch.setattr(powerstruct, "log_column",
                        lambda *a: logs.append(a) or [])
    t0 = time.perf_counter()
    assert run(capsys, "power", "--input", path, "--N", "100") == (
        1, "", f"error: {path}: Laurent-term products of the power at "
        "N = 100, LAURENT_PRODUCT_BUDGET (size 620079400 exceeds budget "
        "100000000)\n")
    assert time.perf_counter() - t0 < 1
    assert logs == []


def test_trials_above_the_budget_are_refused_quickly(capsys):
    """--trials times the cost of one trial at --N has a limit, checked
    before any draw."""
    for argv, cost in ((("verify", "axioms", "--ring", "lext"), 11 ** 3),
                       (("verify", "props12"), 10 ** 3)):
        t0 = time.perf_counter()
        err = (f"error: trials · (N + 5)^3 (size {10 ** 6 * cost} "
               "exceeds budget 2000000)\n")
        assert run(capsys, *argv, "--trials", "1000000") == (1, "", err)
        assert time.perf_counter() - t0 < 1


def test_importing_the_cli_generates_no_code():
    """A cold `import equichar.cli` loads neither dataclasses nor inspect:
    both generate code or pull in ast, dis and tokenize at start-up."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = ("import equichar.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_lemma1_on_s3_three_points(capsys, files):
    """Points with isotropy a non-representative conjugate are classified."""
    x = files("s3set.json", {"size": 3, "gO": TRIV, "gB": S3, "actO": [],
                             "actB": [[1, 0, 2], [1, 2, 0]]})
    code, out, err = run(capsys, "verify", "lemma1", "--input", x, "--N", "2")
    assert code == 0 and err == ""
    assert "PASS (3/3 checks)" in out


JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                 st.text(max_size=2), st.just([]), st.just({}))
SMALL_N = st.one_of(st.integers(-1, 3), JUNK)
LEAF_GROUPS = st.one_of(
    st.just({"type": "trivial"}),
    st.builds(lambda t, n: {"type": t, "n": n},
              st.sampled_from(["cyclic", "symmetric", "dihedral", "nope"]),
              SMALL_N),
    st.builds(lambda d, gens: {"type": "perm", "degree": d,
                               "generators": gens},
              SMALL_N,
              st.one_of(JUNK, st.lists(
                  st.lists(st.one_of(st.integers(0, 2), st.just("0")),
                           max_size=3), max_size=2))),
    st.dictionaries(st.sampled_from(["type", "n", "inner", "factors"]),
                    JUNK, max_size=3),
    JUNK,
)
GROUPS = st.recursive(
    LEAF_GROUPS,
    lambda inner: st.one_of(
        st.builds(lambda i, n: {"type": "wreath", "inner": i, "n": n},
                  inner, SMALL_N),
        st.builds(lambda fs: {"type": "product", "factors": fs},
                  st.one_of(JUNK, st.lists(inner, max_size=2)))),
    max_leaves=2)
ACTIONS = st.one_of(JUNK, st.lists(st.one_of(
    st.permutations([0, 1, 2]), st.lists(st.integers(-1, 3), max_size=3),
    st.lists(st.just("1"), max_size=2)), max_size=2))
BISETS = st.one_of(
    st.fixed_dictionaries({"size": st.one_of(st.integers(-1, 3), JUNK),
                           "gO": GROUPS, "gB": GROUPS,
                           "actO": ACTIONS, "actB": ACTIONS}),
    st.fixed_dictionaries({"size": st.just(3),
                           "gO": st.just(TRIV), "gB": GROUPS,
                           "actO": st.just([]), "actB": ACTIONS}),
    st.dictionaries(st.sampled_from(["size", "gO", "gB", "actO", "actB",
                                     "cells"]), JUNK, max_size=4),
    JUNK,
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(group=GROUPS, biset=BISETS)
def test_cli_fuzz_exit_codes(capsys, tmp_path, group, biset):
    """Generated descriptors never crash: exit 0, 1 or 2, no traceback,
    and the same JSON stdout on a second run."""
    g, x = tmp_path / "g.json", tmp_path / "x.json"
    g.write_text(json.dumps(group))
    x.write_text(json.dumps(biset))
    for argv in (("group", "marks", "--input", str(g), "--format", "json"),
                 ("verify", "lemma1", "--input", str(x), "--N", "1",
                  "--format", "json")):
        run_twice_cleanly(capsys, *argv)


BAD = st.sampled_from([None, True, 3, "x", [], {}])
RANKED_GROUPS = [(TRIV, 1), (Z2, 2), (S3, 4)]   # group, rank of A(G)


def rarely_bad(strategy):
    """The strategy, replaced by a malformed value one time in four."""
    return st.sampled_from([strategy] * 3 + [BAD]).flatmap(lambda s: s)


EXPONENTS = rarely_bad(st.sampled_from([0, 1, "1/2", "-1", "x", "1/0"]))


def _coeffs(n):
    return rarely_bad(st.lists(st.integers(-2, 2), min_size=n, max_size=n))


def _burnside_values(n):
    return rarely_bad(st.fixed_dictionaries({"coeffs": _coeffs(n)}))


def _lext_values(n):
    term = rarely_bad(st.fixed_dictionaries({"exp": EXPONENTS,
                                             "coeffs": _coeffs(n)}))
    return rarely_bad(st.fixed_dictionaries(
        {"terms": rarely_bad(st.lists(term, max_size=2))}))


def _power_inputs(kind, group, n):
    value = {"int": rarely_bad(st.integers(-2, 2)),
             "burnside": _burnside_values(n),
             "lext": _lext_values(n)}[kind]
    unit = [0] * (n - 1) + [1]
    one = {"int": 1, "burnside": {"coeffs": unit},
           "lext": {"terms": [{"exp": 0, "coeffs": unit}]}}[kind]
    ring = "int" if kind == "int" else {kind: group}
    return rarely_bad(st.fixed_dictionaries({
        "ring": rarely_bad(st.just(ring)),
        "series": rarely_bad(st.lists(value, max_size=2).map(
            lambda tail: [one] + tail)),
        "exponent": value}))


def _datums(gO, gB, n, k):
    stratum = rarely_bad(st.fixed_dictionaries({
        "tuple": rarely_bad(st.lists(st.integers(-1, 5) | st.just(True),
                                     min_size=k, max_size=k)),
        "class": _lext_values(n), "shift": EXPONENTS}))
    return rarely_bad(st.fixed_dictionaries({
        "gO": rarely_bad(st.just(gO)), "gB": st.just(gB),
        "k": rarely_bad(st.just(k)),
        "weights": rarely_bad(st.lists(st.sampled_from(["1", "1/2", "-1"]),
                                       min_size=k, max_size=k)),
        "strata": rarely_bad(st.lists(stratum, max_size=2))}))


POWER_INPUTS = st.tuples(
    st.sampled_from(["int", "burnside", "lext"]),
    st.sampled_from(RANKED_GROUPS)).flatmap(
        lambda kg: _power_inputs(kg[0], *kg[1]))
ZETA_INPUTS = st.sampled_from(RANKED_GROUPS).flatmap(
    lambda gn: rarely_bad(st.fixed_dictionaries(
        {"group": rarely_bad(st.just(gn[0])),
         "index": rarely_bad(st.integers(-1, gn[1]))},
        optional={"exp": EXPONENTS})))
ORDERS = st.integers(-1, 3)
DATUMS = st.tuples(
    st.sampled_from([TRIV, Z2, S3]), st.sampled_from(RANKED_GROUPS),
    st.integers(0, 2)).flatmap(
        lambda t: _datums(t[0], t[1][0], t[1][1], t[2]))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(series=POWER_INPUTS, datum=DATUMS, n=ORDERS)
def test_cli_fuzz_ring_inputs(capsys, tmp_path, series, datum, n):
    """Generated series over the int, Burnside and L-extended rings and
    generated orbifold data never crash, as in test_cli_fuzz_exit_codes."""
    p, d = tmp_path / "p.json", tmp_path / "d.json"
    p.write_text(json.dumps(series))
    d.write_text(json.dumps(datum))
    for argv in (("power", "--input", str(p), "--N", str(n)),
                 ("orbifold-class", "--input", str(d))):
        run_twice_cleanly(capsys, *argv, "--format", "json")


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(zeta=ZETA_INPUTS, biset=BISETS, n=ORDERS, k=ORDERS)
def test_cli_fuzz_zeta_and_chi(capsys, tmp_path, zeta, biset, n, k):
    """Generated zeta inputs, and generated bisets for the chi verbs, never
    crash, as in test_cli_fuzz_exit_codes."""
    z, x = tmp_path / "z.json", tmp_path / "x.json"
    z.write_text(json.dumps(zeta))
    x.write_text(json.dumps(biset))
    for argv in (("zeta", "--input", str(z), "--N", str(n)),
                 ("chi", "--input", str(x)),
                 ("chi-orb", "--input", str(x)),
                 ("chi-k", "--input", str(x), "--k", str(k)),
                 ("chi-k-eq", "--input", str(x), "--k", str(k))):
        run_twice_cleanly(capsys, *argv, "--format", "json")


GOLDEN_MARKS = json.loads(
    (pathlib.Path(__file__).parent / "golden_marks.json").read_text())


@pytest.mark.parametrize("case", GOLDEN_MARKS, ids=lambda c: c["name"])
def test_group_marks_golden(capsys, files, case):
    """`group marks --format json` is byte-identical to the output saved
    before the subgroup search and the marks were rewritten."""
    code, out, _ = run(capsys, "group", "marks", "--format", "json",
                       "--input", files("g.json", case["group"]))
    assert code == 0 and out == case["stdout"]


def test_group_marks_c2_wreath_s4_digest(capsys, files):
    """C2≀S4's 115 KB table of marks hashes as it did before each class
    representative was extended once per double coset."""
    code, out, _ = run(capsys, "group", "marks", "--format", "json",
                       "--input", files("g.json", {"type": "wreath",
                                                   "inner": Z2, "n": 4}))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c38157794e5a9a6f026557f2bb9cb75e12048315ddb155131315e8f38a2b54a2")


@pytest.mark.parametrize("group, digest", [
    ({"type": "symmetric", "n": 6},
     "ebdf2805f69b7317beee37c35482a8cc21a5e3eaa8f15d76bc57f0b17b242304"),
    ({"type": "perm", "degree": 6,
      "generators": [[1, 2, 0, 3, 4, 5], [0, 2, 3, 4, 5, 1]]},
     "ee4f84fb3761376b43fa274698003e128a5e7feadf007adab257bf478c577b1d"),
], ids=["S6", "A6"])
def test_group_marks_digest_of_groups_with_a_perfect_residual(
        capsys, files, group, digest):
    """The tables of marks of S6 and A6, whose perfect residuals are A6,
    hash as they did while every class representative was extended by
    every element of prime power order, normalizing it or not."""
    code, out, _ = run(capsys, "group", "marks", "--format", "json",
                       "--input", files("g.json", group))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


GOLDEN_POWER = json.loads(
    (pathlib.Path(__file__).parent / "golden_power.json").read_text())


@pytest.mark.parametrize("case", GOLDEN_POWER, ids=lambda c: c["name"])
def test_power_and_zeta_golden(capsys, files, case):
    """`power` and `zeta` with `--format json` are byte-identical to the
    output saved while lambda-terms were still built from symmetric powers
    and integer powers of zeta series."""
    code, out, _ = run(capsys, case["verb"], "--format", "json",
                       "--N", str(case["N"]),
                       "--input", files("in.json", case["input"]))
    assert code == 0 and out == case["stdout"]


GOLDEN_LEXT = json.loads(
    (pathlib.Path(__file__).parent / "golden_lext.json").read_text())


@pytest.mark.parametrize("case", GOLDEN_LEXT, ids=lambda c: c["name"])
def test_lext_golden(capsys, files, case):
    """`power`, `zeta`, `orbifold-class` and the L-extended verifiers print
    byte-for-byte what they printed while exponents were stored as
    `Fraction`s."""
    argv = list(case["argv"])
    if case["input"] is not None:
        argv += ["--input", files("in.json", case["input"])]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == case["stdout"]
