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

The second routes that only the tests take (the multinomial and
configuration-space power oracles, orbifold data read off a biset, and
products, unions, points and empty sets of G-sets) live in
`tests/oracles.py`, not here.
"""

from __future__ import annotations

from .burnside import (BurnsideElement, BurnsideRing, burnside_ring,
                       chi_equivariant, class_of)
from .cells import CellSpace, chi
from .errors import InvariantViolation, ResourceLimitError, UsageError
from .euler import (chi_k, chi_k_averaging, chi_k_equivariant,
                    chi_k_equivariant_tuples, chi_orb)
from .groups import (FiniteGroup, Subgroup, commuting_tuple_classes,
                     conjugacy_classes, cyclic, dihedral, make_group,
                     product, subgroup_lattice, symmetric, trivial_group,
                     wreath)
from .gsets import (BiSet, biset_from_single_action, symmetric_power,
                    wreath_power)
from .harness import (VerificationReport, verify_axioms, verify_lemma1,
                      verify_props12, verify_theorem1)
from .motivic import (L, LExtElement, OrbifoldDatum, embed, lext,
                      orbifold_class_from_datum, phi_k, power_L, rhs_theorem2,
                      specialize_L, zeta_L)
from .powerstruct import TruncatedSeries, lambda_factorize, power, rhs_theorem1

__version__ = "0.1.0"

__all__ = [
    "BiSet", "BurnsideElement", "BurnsideRing", "CellSpace", "FiniteGroup",
    "InvariantViolation", "L", "LExtElement", "OrbifoldDatum",
    "ResourceLimitError", "Subgroup", "TruncatedSeries", "UsageError",
    "VerificationReport", "biset_from_single_action", "burnside_ring",
    "chi", "chi_equivariant", "chi_k", "chi_k_averaging",
    "chi_k_equivariant", "chi_k_equivariant_tuples", "chi_orb", "class_of",
    "commuting_tuple_classes", "conjugacy_classes", "cyclic", "dihedral",
    "embed", "lambda_factorize", "lext", "make_group",
    "orbifold_class_from_datum", "phi_k", "power", "power_L", "product",
    "rhs_theorem1", "rhs_theorem2", "specialize_L", "subgroup_lattice",
    "symmetric", "symmetric_power", "trivial_group", "verify_axioms",
    "verify_lemma1", "verify_props12", "verify_theorem1", "wreath",
    "wreath_power", "zeta_L",
]
