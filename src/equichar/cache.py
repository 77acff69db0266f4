"""Disk cache for subgroup lattices.

Entries are keyed by a digest of the sorted Cayley table, carry a format
version, and are revalidated on load against a recomputed fingerprint
(group order, conjugacy class count).  An entry stores only generators of
the subgroup class representatives.  On load the lattice is rebuilt from
them by conjugation and checked to reach every subgroup, and the table of
marks is recomputed, so an entry can spare the subgroup search but never
change a result.  Writes go through a temp file and an atomic replace so
concurrent runs never see partial entries.

The cache directory comes from the --cache-dir flag or the EQUICHAR_CACHE
environment variable; with neither set, caching is off.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

from .burnside import BurnsideRing, burnside_ring
from .groups import (TABLE_LIMIT, FiniteGroup, classify_subgroups, closure,
                     conjugacy_classes, cyclic_subgroups, is_int_lists)

CACHE_VERSION = 2
ENV_VAR = "EQUICHAR_CACHE"


def resolve_cache_dir(explicit: str | None) -> str | None:
    return explicit if explicit is not None else os.environ.get(ENV_VAR)


def group_digest(G: FiniteGroup) -> str | None:
    """Canonical hash of the multiplication table; None when the group is
    too large to tabulate (such groups are not cached)."""
    if G.order > TABLE_LIMIT:
        return None
    h = hashlib.sha256()
    h.update(f"order={G.order};".encode())
    for row in G.cayley_table():
        h.update(bytes(str(row), "ascii"))
    return h.hexdigest()


def _fingerprint(G: FiniteGroup) -> list[int]:
    return [G.order, len(conjugacy_classes(G))]


def _entry_path(cache_dir: str, digest: str) -> str:
    return os.path.join(cache_dir, f"marks-{digest[:24]}.json")


def _atomic_write(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_ring(ring: BurnsideRing, cache_dir: str) -> bool:
    digest = group_digest(ring.group)
    if digest is None:
        return False
    payload = {
        "version": CACHE_VERSION,
        "digest": digest,
        "fingerprint": _fingerprint(ring.group),
        "classes": [list(K.generators) for K in ring.lattice.classes],
    }
    _atomic_write(_entry_path(cache_dir, digest), payload)
    return True


def load_ring(G: FiniteGroup, cache_dir: str) -> BurnsideRing | None:
    digest = group_digest(G)
    if digest is None:
        return None
    path = _entry_path(cache_dir, digest)
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict) or \
            payload.get("version") != CACHE_VERSION:
        try:
            os.unlink(path)  # stale format: evict
        except OSError:
            pass
        return None
    if payload.get("digest") != digest:
        return None
    if payload.get("fingerprint") != _fingerprint(G):
        return None
    classes = payload.get("classes")
    if not is_int_lists(classes) or not all(
            0 <= g < G.order for gens in classes for g in gens):
        return None
    lattice = classify_subgroups(
        G, [frozenset(closure(G, gens)) for gens in classes])
    if len(lattice.classes) != len(classes):
        return None
    # complete: holding the trivial subgroup and closed under joining any
    # cyclic subgroup, the classes reach every subgroup
    index, cyclic_gens = lattice.class_index, cyclic_subgroups(G).values()
    if frozenset((G.identity,)) not in index or any(
            frozenset(closure(G, K.generators + (g,))) not in index
            for K in lattice.classes for g in cyclic_gens
            if g not in K.elements):
        return None
    return BurnsideRing(G, lattice)


def cached_burnside_ring(G: FiniteGroup,
                         cache_dir: str | None) -> BurnsideRing:
    """The Burnside ring, loaded from disk when a valid entry exists and
    saved after computing otherwise.  In-memory caching still applies."""
    ring = G._cache.get("burnside_ring")
    if ring is not None:
        if cache_dir is not None:
            digest = group_digest(G)
            if digest is not None and \
                    not os.path.exists(_entry_path(cache_dir, digest)):
                save_ring(ring, cache_dir)
        return ring
    if cache_dir is None:
        return burnside_ring(G)
    ring = load_ring(G, cache_dir)
    if ring is not None:
        G._cache.setdefault("lattice", ring.lattice)
        return G._cache.setdefault("burnside_ring", ring)
    ring = burnside_ring(G)
    save_ring(ring, cache_dir)
    return ring
