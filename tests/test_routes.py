"""The two sides of Theorem 1 and of Lemma 1 share only ring arithmetic.

Each identity is checked by two independent routes: the power-structure
series on one side, fixed-set scans of wreath or symmetric powers on the
other.  A change that let one side call the other would make the check
compare a route with itself.  So each side runs under `sys.setprofile`,
with the shared caches (the Burnside ring, its product check and the
exponent m) built first, and the package functions both sides call must
lie in SHARED: Burnside element construction and the checks of
`errors.py`.  Functions are keyed by code object, as
`tools/trace_lines.py` keys them.  A name added to SHARED is recorded
in CHANGES.md.

The props12 laws are left out: each law compares two orders of the same
series operations, so both of its sides call `power` by design."""

import pathlib
import sys

import pytest

from equichar.burnside import burnside_ring, chi_equivariant, class_of
from equichar.euler import chi_k_equivariant
from equichar.groups import cyclic, symmetric
from equichar.gsets import (biset_from_single_action, symmetric_power,
                            wreath_power)
from equichar.powerstruct import rhs_theorem1
from oracles import biregular

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src" / "equichar")

SHARED = {
    "BurnsideElement.__init__", "BurnsideElement._check",
    "BurnsideRing._down_sets", "BurnsideRing.back_substitute",
    "BurnsideRing.from_marks",
    "check_budget", "check_int", "exact_div", "check_order",
}


def _called(side) -> set:
    """The code objects of the package that side() calls."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(SRC):
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        side()
    finally:
        sys.setprofile(None)
    return seen


def _theorem1():
    """biregular(S3, C2), k = 1, N = 3."""
    X = biregular(symmetric(3), cyclic(2))
    m = chi_k_equivariant(X, 1)
    return (X, lambda: rhs_theorem1(m, 1, 3).coeffs,
            lambda: [chi_k_equivariant(wreath_power(X, n), 1)
                     for n in range(4)])


def _lemma1():
    """S3 on its three points, N = 4."""
    X = biset_from_single_action(3, symmetric(3), [(1, 0, 2), (1, 2, 0)],
                                 side="B")
    m = chi_equivariant(X)
    return (X, lambda: rhs_theorem1(m, 0, 4).coeffs,
            lambda: [class_of(symmetric_power(X, n)) for n in range(5)])


@pytest.mark.parametrize("case", [_theorem1, _lemma1],
                         ids=["theorem1", "lemma1"])
def test_the_sides_of_an_identity_share_only_ring_arithmetic(case):
    X, series_side, scan_side = case()
    burnside_ring(X.gB).check_products()
    series, scans = _called(series_side), _called(scan_side)
    assert series and scans
    shared = {code.co_qualname for code in series & scans}
    assert shared <= SHARED, f"shared: {sorted(shared - SHARED)}"
