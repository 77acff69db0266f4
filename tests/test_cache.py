"""Reuse of computed tables of marks: rings and lattices are kept in memory
per group object, recomputed for a new one, and never written to disk.  A
descriptor names one group object for as long as anything holds it."""

import gc
import os

import pytest

from equichar.burnside import BurnsideRing, burnside_ring, class_of
from equichar.cli import main
from equichar.errors import InvariantViolation
from equichar.groups import (SubgroupLattice, SymmetricGroup, cyclic,
                             make_group, subgroup_lattice,
                             symmetric)
import equichar.groups as groups_mod
from equichar.gsets import BiSet, biset_from_single_action
from equichar.harness import verify_theorem1


def fresh_s3():
    """An S3 of its own, so no test empties the shared group's caches."""
    return SymmetricGroup(3)


def test_digest_is_stable_and_group_sensitive():
    # a group is known by its descriptor: equal descriptors share one object
    # and one table of marks, different ones do not
    a = symmetric(3)
    b = make_group({"type": "symmetric", "n": 3})
    c = cyclic(6)
    assert a is b and a is not c
    assert burnside_ring(a) is burnside_ring(b)
    assert burnside_ring(a).marks_rows != burnside_ring(c).marks_rows


def test_memory_cache_wins():
    G = fresh_s3()
    R1 = burnside_ring(G)
    assert burnside_ring(G) is R1
    assert R1.lattice is subgroup_lattice(G)
    # the lattice is kept as well, and the ring reuses it
    assert BurnsideRing(G, subgroup_lattice(G)).lattice is R1.lattice


def test_no_dir_means_no_files(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HOME", str(tmp_path))
    R = burnside_ring(fresh_s3())
    assert R.n == 4
    (tmp_path / "g.json").write_text('{"type": "symmetric", "n": 4}')
    assert main(["group", "marks", "--input", "g.json"]) == 0
    capsys.readouterr()
    assert os.listdir(tmp_path) == ["g.json"]


def test_reloaded_lattice_indexes_every_conjugate():
    # a new object of the same group, as in a new process, gets a lattice
    # of its own that indexes exactly the same subgroups
    R1 = burnside_ring(symmetric(3))
    G = fresh_s3()
    R2 = burnside_ring(G)
    assert R2 is not R1
    assert R2.lattice.class_index == R1.lattice.class_index
    assert R2.marks_rows == R1.marks_rows
    X = BiSet(3, make_group({"type": "trivial"}), G,
              actO=[], actB=[(1, 0, 2), (1, 2, 0)])
    assert class_of(X).render() == "[G/H1]"


def test_stored_marks_are_not_trusted():
    G = fresh_s3()
    R1 = burnside_ring(G)
    # one edited lower-triangular entry: |(G/C3)^C2| = 2
    R1.marks_rows = ((6, 0, 0, 0), (3, 1, 0, 0), (2, 2, 2, 0), (1, 1, 1, 1))
    # a ring built on the same lattice counts its marks again
    R = BurnsideRing(G, R1.lattice)
    assert R.marks_rows == ((6, 0, 0, 0), (3, 1, 0, 0), (2, 0, 2, 0),
                            (1, 1, 1, 1))
    assert (R.basis(2) * R.basis(1)).render() == "[G/e]"


@pytest.mark.parametrize("edit", [
    lambda classes: classes.__setitem__(2, classes[1]),  # a class twice
    lambda classes: classes.pop(1),                       # a class missing
    lambda classes: classes.pop(0),                       # no trivial class
])
def test_bad_class_list_rejected(edit):
    G = fresh_s3()
    lat = subgroup_lattice(G)
    classes = list(lat.classes)
    edit(classes)
    with pytest.raises(InvariantViolation):
        BurnsideRing(G, SubgroupLattice(G, tuple(classes), lat.class_index))


@pytest.fixture
def group_cache(monkeypatch):
    """An empty descriptor cache of the package's own kind, so groups that
    other tests hold do not show in it."""
    cache = type(groups_mod._GROUP_CACHE)()
    monkeypatch.setattr(groups_mod, "_GROUP_CACHE", cache)
    return cache


def test_a_dropped_group_leaves_the_descriptor_cache(group_cache):
    d = {"type": "cyclic", "n": 5}
    G = make_group(d)
    burnside_ring(G)  # derived structure hangs off G, in a cycle through it
    gc.collect()
    assert make_group(d) is G and len(group_cache) == 1
    del G
    gc.collect()
    assert len(group_cache) == 0
    assert make_group(d).order == 5


def test_verify_theorem1_keeps_no_group_alive(group_cache):
    """C3's regular 3-point set at k = 1, N = 4 builds C3, its wreath
    powers and the trivial B side; once the input goes, so do they."""
    X = biset_from_single_action(3, make_group({"type": "cyclic", "n": 3}),
                                 [(1, 2, 0)], side="O")
    assert verify_theorem1(X, 1, 4).passed
    assert len(group_cache) > 0
    del X
    gc.collect()
    assert len(group_cache) == 0
