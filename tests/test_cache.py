"""Disk cache for tables of marks: digesting, eviction, revalidation."""

import json
import os

import pytest

from equichar import cache
from equichar.burnside import burnside_ring, class_of
from equichar.groups import SymmetricGroup, cyclic, make_group, symmetric
from equichar.gsets import BiSet


def fresh_s3():
    """An S3 of its own, so no test empties the shared group's caches."""
    return SymmetricGroup(3)


def test_resolve_cache_dir(monkeypatch):
    monkeypatch.delenv(cache.ENV_VAR, raising=False)
    assert cache.resolve_cache_dir("/x") == "/x"
    assert cache.resolve_cache_dir(None) is None
    monkeypatch.setenv(cache.ENV_VAR, "/from-env")
    assert cache.resolve_cache_dir(None) == "/from-env"
    assert cache.resolve_cache_dir("/explicit") == "/explicit"


def test_digest_is_stable_and_group_sensitive():
    a = cache.group_digest(symmetric(3))
    b = cache.group_digest(make_group({"type": "symmetric", "n": 3}))
    c = cache.group_digest(cyclic(6))
    assert a == b and a != c


def test_save_then_load_roundtrip(tmp_path):
    d = str(tmp_path)
    R1 = cache.cached_burnside_ring(symmetric(3), d)
    assert len(os.listdir(d)) == 1
    G = fresh_s3()
    R2 = cache.cached_burnside_ring(G, d)
    assert R2.marks_rows == R1.marks_rows
    assert [c.elements for c in R2.lattice.classes] == \
        [c.elements for c in R1.lattice.classes]
    # the reloaded lattice must classify actions identically
    X = BiSet(3, make_group({"type": "trivial"}), G,
              actO=[], actB=[(1, 0, 2), (1, 2, 0)])
    assert class_of(X).render() == "[G/H1]"


def test_memory_cache_wins(tmp_path):
    G = fresh_s3()
    R1 = cache.cached_burnside_ring(G, str(tmp_path))
    assert cache.cached_burnside_ring(G, str(tmp_path)) is R1
    # even with no directory the in-memory entry is reused
    assert cache.cached_burnside_ring(G, None) is R1


def test_no_dir_means_no_files(tmp_path):
    R = cache.cached_burnside_ring(fresh_s3(), None)
    assert R.n == 4
    assert os.listdir(tmp_path) == []


def test_version_mismatch_evicts(tmp_path):
    d = str(tmp_path)
    cache.cached_burnside_ring(symmetric(3), d)
    path = os.path.join(d, os.listdir(d)[0])
    payload = json.load(open(path))
    payload["version"] = cache.CACHE_VERSION + 1
    json.dump(payload, open(path, "w"))
    assert cache.load_ring(fresh_s3(), d) is None
    assert os.listdir(d) == []


def test_fingerprint_mismatch_rejected(tmp_path):
    d = str(tmp_path)
    cache.cached_burnside_ring(symmetric(3), d)
    path = os.path.join(d, os.listdir(d)[0])
    payload = json.load(open(path))
    payload["fingerprint"] = [5, 5]
    json.dump(payload, open(path, "w"))
    assert cache.load_ring(fresh_s3(), d) is None


def test_corrupt_entry_ignored(tmp_path):
    d = str(tmp_path)
    cache.cached_burnside_ring(symmetric(3), d)
    path = os.path.join(d, os.listdir(d)[0])
    with open(path, "w") as fh:
        fh.write("{broken")
    assert cache.load_ring(fresh_s3(), d) is None
    # and the public entry point falls back to recomputing
    R = cache.cached_burnside_ring(fresh_s3(), d)
    assert R.n == 4


def test_missing_dir_created(tmp_path):
    d = str(tmp_path / "nested" / "cache")
    cache.cached_burnside_ring(symmetric(3), d)
    assert len(os.listdir(d)) == 1


def test_reloaded_lattice_indexes_every_conjugate(tmp_path):
    d = str(tmp_path)
    R1 = cache.cached_burnside_ring(symmetric(3), d)
    R2 = cache.cached_burnside_ring(fresh_s3(), d)
    assert R2.lattice.class_index == R1.lattice.class_index


def test_stored_marks_are_not_trusted(tmp_path):
    d = str(tmp_path)
    cache.cached_burnside_ring(symmetric(3), d)
    path = os.path.join(d, os.listdir(d)[0])
    payload = json.load(open(path))
    # one edited lower-triangular entry: |(G/C3)^C2| = 2
    payload["marks"] = [[6, 0, 0, 0], [3, 1, 0, 0], [2, 2, 2, 0],
                        [1, 1, 1, 1]]
    json.dump(payload, open(path, "w"))
    R = cache.cached_burnside_ring(fresh_s3(), d)
    assert (R.basis(2) * R.basis(1)).render() == "[G/e]"


@pytest.mark.parametrize("edit", [
    lambda classes: classes.__setitem__(2, classes[1]),  # a class twice
    lambda classes: classes.pop(1),                       # a class missing
    lambda classes: classes.pop(0),                       # no trivial class
])
def test_bad_class_list_rejected(tmp_path, edit):
    d = str(tmp_path)
    cache.cached_burnside_ring(symmetric(3), d)
    path = os.path.join(d, os.listdir(d)[0])
    payload = json.load(open(path))
    edit(payload["classes"])
    json.dump(payload, open(path, "w"))
    assert cache.load_ring(fresh_s3(), d) is None

