"""Shared exception types.  Every ResourceLimitError is raised by
check_budget, so each budget admits its own value and each refusal names
what was refused, its size and the budget."""

from __future__ import annotations


class UsageError(ValueError):
    """Bad input: malformed descriptor, mismatched groups, invalid argument."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed an explicit budget; carries the offending size."""

    def __init__(self, message: str, size: int, budget: int):
        super().__init__(f"{message} (size {size} exceeds budget {budget})")
        self.size = size
        self.budget = budget


def check_budget(what: str, size: int, budget: int) -> None:
    """Refuse size above budget as ResourceLimitError(what, size, budget)."""
    if size > budget:
        raise ResourceLimitError(what, size, budget)


class InvariantViolation(RuntimeError):
    """Internal consistency failure (dual-path disagreement, non-integral solve)."""
