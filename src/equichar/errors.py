"""Shared exception types and the checks that raise them.  Every
ResourceLimitError is raised by check_budget, so each budget admits its own
value and each refusal names what was refused, its size and the budget.
Every "integer >= m" refusal (an order, degree, size, dimension, power,
truncation or trial count) is raised by check_int in one wording,
"<what> must be an integer >= <m>, got <value>", which a bool or a float
never passes.  check_perm refuses a permutation of a set or group action,
and parse_fraction reads a caller's rational, both refusing bools and
floats too.  The library entry points call these on the values they are
given, so io checks only the shape of its JSON.  Every
quotient that must be exact (a mark, a basis coefficient, an Adams entry, a
centralizer order, an averaged count, a series coefficient) is taken by
exact_div, which refuses a non-integral one as InvariantViolation
"<what> is not an integer: a/b"."""

from __future__ import annotations

from operator import countOf


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


def check_perm(p, n: int) -> None:
    """Refuse p unless it is a list or tuple of ints (not bools) that lists
    each of 0..n-1 once; the type test is one pass in C.  The message names
    the first fault by a type, a length, a position or a missing point, so
    it stays short whatever p holds."""
    if not isinstance(p, (list, tuple)):
        fault = f"{type(p).__name__}, not a list"
    elif len(p) != n:
        fault = f"length {len(p)}"
    elif countOf(map(type, p), int) != n:
        i = next(i for i, v in enumerate(p) if type(v) is not int)
        fault = f"entry {i} is a {type(p[i]).__name__}"
    elif set(p) != set(range(n)):
        fault = f"{min(set(range(n)).difference(p))} is missing"
    else:
        return
    raise UsageError(f"not a permutation of {n} points: {fault}")


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


def exact_div(a: int, b: int, what: str = "a quotient") -> int:
    """a / b, which must be an integer."""
    q, rem = divmod(a, b)
    if rem:
        raise InvariantViolation(f"{what} is not an integer: {a}/{b}")
    return q
