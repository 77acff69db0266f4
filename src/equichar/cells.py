"""Equivariant cell spaces: finite lists of (dimension, BiSet) cells.

The only topological data kept is the cell dimension; every invariant in the
package depends on a cell only through the sign (-1)^dim and the two actions
on its index set.  Products of cell spaces are not modeled; spaces enter
multiplicative identities through their BiSet cells.
"""

from __future__ import annotations

from .errors import UsageError
from .gsets import BiSet


class CellSpace:
    """Cells (dim, F) over one shared pair of acting groups."""

    def __init__(self, cells):
        cells = tuple(cells)
        if not cells:
            raise UsageError("cell space needs at least one cell")
        for d, F in cells:
            if type(d) is not int or d < 0:
                raise UsageError(
                    f"cell dimension must be an integer >= 0, got {d!r}")
            if not isinstance(F, BiSet):
                raise UsageError("cells must be (dim, BiSet) pairs")
        first = cells[0][1]
        for _, F in cells[1:]:
            if F.gO is not first.gO or F.gB is not first.gB:
                raise UsageError("cells carry different groups")
        self.cells = cells
        self.gO = first.gO
        self.gB = first.gB

    def signed_sum(self, f, zero):
        """zero plus the sum of (-1)^dim · f(F) over the cells (dim, F)."""
        return sum(((-1) ** d * f(F) for d, F in self.cells), zero)

    def __repr__(self) -> str:
        return f"<CellSpace {len(self.cells)} cells O={self.gO.label} B={self.gB.label}>"


def chi(X: CellSpace | BiSet) -> int:
    """Euler characteristic: signed point count for cell spaces, cardinality
    for bare finite sets."""
    if isinstance(X, BiSet):
        return X.size
    return X.signed_sum(lambda F: F.size, 0)

