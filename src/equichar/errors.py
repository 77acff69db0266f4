"""Shared exception types and the checks that raise them.  Every
ResourceLimitError is raised by check_budget, so each budget admits its own
value and each refusal names what was refused, its size and the budget.
Every "integer >= m" refusal (an order, degree, size, dimension, power,
truncation or trial count) is raised by check_int in one wording,
"<what> must be an integer >= <m>, got <value>", which a bool or a float
never passes.  parse_fraction reads a caller's rational, refusing bools and
floats too."""

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


def check_int(what: str, v, minimum: int) -> None:
    """Refuse v unless it is an int (not a bool) of at least minimum."""
    if type(v) is not int or v < minimum:
        raise UsageError(f"{what} must be an integer >= {minimum}, got {v!r}")


def parse_fraction(v) -> Fraction:
    """v as a Fraction: an int, a Fraction or a string such as "1/2".
    fractions is imported here, so the Burnside ring alone never loads it."""
    from fractions import Fraction
    if isinstance(v, Fraction):
        return v
    if type(v) is int or isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            pass
    raise UsageError(f"bad rational {v!r}")


class InvariantViolation(RuntimeError):
    """Internal consistency failure (dual-path disagreement, non-integral solve)."""
