"""Reuse of computed tables of marks: rings and lattices are kept in memory
per group object, recomputed for a new one, and never written to disk."""

import os

import pytest

from equichar.burnside import BurnsideRing, burnside_ring, class_of
from equichar.cli import main
from equichar.errors import InvariantViolation
from equichar.groups import (SubgroupLattice, SymmetricGroup, cyclic,
                             make_group, subgroup_lattice,
                             symmetric)
from equichar.gsets import BiSet


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
