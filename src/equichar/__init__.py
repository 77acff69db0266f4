"""Exact Euler-characteristic arithmetic for finite group actions.

The pieces, roughly in dependency order:

- groups:     finite groups as multiplication oracles (cyclic, symmetric,
              dihedral, products, wreath products), conjugacy machinery,
              subgroup lattices.
- gsets:      finite sets with two commuting group actions, orbits, fixed
              sets, quotients, symmetric and wreath powers.
- cells:      finite equivariant cell structures with signed counting.
- burnside:   the Burnside ring A(G) via tables of marks; equivariant
              Euler characteristics valued in it.
- euler:      orbifold and higher-order characteristics over commuting
              tuples, with independent averaging oracles.
- powerstruct: power structures on 1 + t*R[[t]] through lambda-ring
              factorization; Macdonald right-hand sides.
- motivic:    the coefficient extension by rational powers of L, weighted
              orbifold classes, and the L-weighted product formula.
- harness:    degree-by-degree verification reports.
- cli:        the `equichar` command.

The names in `__all__` load on first use, each importing only its own
module, so `import equichar` alone no longer makes submodules available
as attributes; use `import equichar.<module>`.

Test-only second routes (power oracles, orbifold data read off a biset,
G-set products, unions, points and empty sets) live in `tests/oracles.py`.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "burnside": ("BurnsideElement", "BurnsideRing", "burnside_ring",
                 "chi_equivariant", "class_of"),
    "cells": ("CellSpace", "chi"),
    "errors": ("InvariantViolation", "ResourceLimitError", "UsageError"),
    "euler": ("chi_k", "chi_k_averaging", "chi_k_equivariant",
              "chi_k_equivariant_tuples", "chi_orb"),
    "groups": ("FiniteGroup", "Subgroup", "commuting_tuple_classes",
               "conjugacy_classes", "cyclic", "dihedral", "make_group",
               "product", "subgroup_lattice", "symmetric", "trivial_group",
               "wreath"),
    "gsets": ("BiSet", "biset_from_single_action", "symmetric_power",
              "wreath_power"),
    "harness": ("VerificationReport", "verify_axioms", "verify_lemma1",
                "verify_props12", "verify_theorem1"),
    "motivic": ("L", "LExtElement", "OrbifoldDatum", "embed", "lext",
                "orbifold_class_from_datum", "phi_k", "rhs_theorem2",
                "specialize_L", "zeta_L"),
    "powerstruct": ("TruncatedSeries", "lambda_factorize", "power",
                    "rhs_theorem1"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    """Import the module that defines a public name, on first use only."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
