"""Identity verification: brute-force left-hand sides against the series
engine, coefficient by coefficient, with budgets on the enumerations.

A report never raises on a mismatch; inequality is recorded per degree and
surfaces as a failing report (the CLI turns that into exit code 2).  Budget
violations raise, since they mean the requested computation was not done.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from math import comb, factorial

from . import gsets
from .burnside import burnside_ring, chi_equivariant, class_of
from .errors import UsageError, check_budget, check_int
from .euler import ORACLE_GROUP_LIMIT, chi_k_equivariant
from .groups import SYMMETRIC_DEGREE_LIMIT, check_order, cyclic, symmetric
from .gsets import BiSet, symmetric_power, wreath_power
from .motivic import (L, LExtCoeffRing, LExtElement, embed, lext_coeff_ring,
                      read_weights, rhs_theorem2, specialize_L, zeta_L)
from .powerstruct import (INT_RING, TruncatedSeries, burnside_coeff_ring,
                          check_truncation, power, rhs_theorem1)

WREATH_LIMIT_HIGH_ORDER = 50_000   # k >= 2
WREATH_LIMIT_LOW_ORDER = 400_000   # k <= 1
TRIAL_BUDGET = 2_000_000   # trials·(N + 5)^3 for the randomized law checks
# the law checks' groups, held here so that their rings outlive one check
_S3, _C2 = symmetric(3), cyclic(2)


class DegreeCheck:
    __slots__ = ("n", "lhs", "rhs", "equal", "ms")

    def __init__(self, n: int, lhs: str, rhs: str, equal: bool, ms=0.0):
        self.n, self.lhs, self.rhs, self.equal, self.ms = n, lhs, rhs, equal, ms


class VerificationReport:
    __slots__ = ("identity", "params", "degrees")

    def __init__(self, identity: str, params: dict):
        self.identity, self.params, self.degrees = identity, params, []

    @property
    def passed(self) -> bool:
        return all(d.equal for d in self.degrees)

    def to_json(self, timings: bool = False) -> dict:
        degrees = []
        for d in self.degrees:
            row = {"n": d.n, "lhs": d.lhs, "rhs": d.rhs, "equal": d.equal}
            if timings:
                row["ms"] = round(d.ms, 1)
            degrees.append(row)
        return {"identity": self.identity, "params": self.params,
                "degrees": degrees, "pass": self.passed}

    def render(self, timings: bool = False) -> str:
        lines = [f"identity: {self.identity}"]
        for key in sorted(self.params):
            lines.append(f"  {key} = {self.params[key]}")
        width = max([len(d.lhs) for d in self.degrees] + [3])
        for d in self.degrees:
            mark = "ok " if d.equal else "FAIL"
            line = (f"  n={d.n:<3} {mark} lhs={d.lhs:<{width}} "
                    f"rhs={d.rhs:<{width}}")
            lines.append(f"{line} [{d.ms:.1f} ms]" if timings
                         else line.rstrip())
        good = sum(d.equal for d in self.degrees)
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"{verdict} ({good}/{len(self.degrees)} checks)")
        return "\n".join(lines)


def check_trials(trials: int, N: int) -> None:
    """Refuse trials·(N + 5)^3, about a trial's cost with its fixed part,
    above TRIAL_BUDGET, before any work."""
    check_budget("trials · (N + 5)^3", trials * (N + 5) ** 3, TRIAL_BUDGET)


def _tally(report, label, unit, outcomes) -> None:
    """Append how many outcomes hold, timed over drawing and checking."""
    t0 = time.perf_counter()
    results = [bool(ok) for ok in outcomes]
    good = sum(results)
    report.degrees.append(DegreeCheck(
        len(report.degrees) + 1, label, f"{good}/{len(results)} {unit}",
        good == len(results), (time.perf_counter() - t0) * 1000))


def _degree_checks(identity, params, m, k, N, lhs_of) -> VerificationReport:
    """lhs_of(n) against the degree-n coefficient of rhs_theorem1(m, k, N)
    for n = 0..N, each degree timed over its left side and the compare."""
    rhs = rhs_theorem1(m, k, N)
    report = VerificationReport(
        identity, {**params, "N": N, "exponent": m.render()})
    for n in range(N + 1):
        t0 = time.perf_counter()
        lhs, rhs_el = lhs_of(n), rhs.coeffs[n]
        report.degrees.append(DegreeCheck(
            n, lhs.render(), rhs_el.render(), lhs == rhs_el,
            (time.perf_counter() - t0) * 1000))
    return report


def verify_theorem1(X: BiSet, k: int, N: int,
                    cross_check: bool = False) -> VerificationReport:
    """Wreath-power coefficients of the order-k characteristic against the
    factorization-engine series, degree by degree in A(G_B).  The order,
    the truncation and every degree are checked against ORDER_LIMIT,
    TRUNCATION_LIMIT, the wreath-order limit for k, the symmetric degree
    limit and gsets.POINT_BUDGET before any work.  With cross_check,
    params["cross_checked"] lists the degrees whose wreath group is small
    enough for the tuple-form oracle to run."""
    check_order(k)
    check_truncation(N)
    wreath_limit = (WREATH_LIMIT_HIGH_ORDER if k >= 2
                    else WREATH_LIMIT_LOW_ORDER)
    for n in range(N + 1):
        check_budget(f"wreath group order at degree {n}",
                     X.gO.order ** n * factorial(n), wreath_limit)
        check_budget(f"symmetric group degree {n}", n, SYMMETRIC_DEGREE_LIMIT)
        check_budget(f"wreath power points at degree {n}", X.size ** n,
                     gsets.POINT_BUDGET)
    report = _degree_checks(
        "theorem1", {"k": k, "gO": X.gO.label, "gB": X.gB.label,
                     "size": X.size},
        chi_k_equivariant(X, k, cross_check=cross_check), k, N,
        lambda n: chi_k_equivariant(wreath_power(X, n), k,
                                    cross_check=cross_check))
    if cross_check:
        report.params["cross_checked"] = [
            n for n in range(N + 1)
            if X.gO.order ** n * factorial(n) <= ORACLE_GROUP_LIMIT]
    return report


def verify_lemma1(X: BiSet, N: int) -> VerificationReport:
    """Symmetric-power classes against (1 - t)^{-chi^G(X)} in A(G_B).  The
    truncation and every degree's point count are checked against
    TRUNCATION_LIMIT and gsets.POINT_BUDGET before any work."""
    check_truncation(N)
    for n in range(N + 1):
        check_budget(f"symmetric power size at degree {n}",
                     comb(X.size + n - 1, n) if X.size else 0,
                     gsets.POINT_BUDGET)
    return _degree_checks("lemma1", {"gB": X.gB.label, "size": X.size},
                          chi_equivariant(X), 0, N,
                          lambda n: class_of(symmetric_power(X, n)))


# -- randomized law checks ---------------------------------------------------

def _axiom_rings(name: str):
    if name == "int":
        return INT_RING, None
    if name == "burnside":
        return burnside_coeff_ring(burnside_ring(_S3)), burnside_ring(_S3)
    if name == "lext":
        return lext_coeff_ring(burnside_ring(_C2)), burnside_ring(_C2)
    raise UsageError(f"unknown ring {name!r}; pick int, burnside, or lext")


def _random_element(rng, ring, bring):
    if ring is INT_RING:
        return rng.randint(-4, 4)
    burn = bring.element([rng.randint(-2, 2) for _ in range(bring.n)])
    if isinstance(ring, LExtCoeffRing):   # L^(e/2)·burn, at its marks
        e = rng.choice((0, 1, 2, -1))
        return LExtElement(bring, 2, [{e: m} if m else {}
                                      for m in burn.marks()])
    return burn


def _random_series(rng, ring, bring, N):
    return TruncatedSeries(ring, tuple(
        [ring.one] + [_random_element(rng, ring, bring) for _ in range(N)]))


def verify_axioms(ring_name: str, trials: int = 100, N: int = 6,
                  seed: int = 0) -> VerificationReport:
    """Randomized exact check of the four power-structure axioms plus
    finite determinacy over the chosen coefficient ring."""
    check_int("truncation", N, 1)
    check_int("trials", trials, 1)
    check_truncation(N)
    check_trials(trials, N)
    ring, bring = _axiom_rings(ring_name)
    rng = random.Random(seed)

    def determinacy(A, B, m, n):
        j = rng.randint(0, N - 1)
        bumped = list(A.coeffs)
        for i in range(j + 1, N + 1):
            bumped[i] = bumped[i] + _random_element(rng, ring, bring)
        Bp = TruncatedSeries(ring, tuple(bumped))
        return power(A, m).truncate(j) == power(Bp, m).truncate(j)

    laws = [
        ("(A*B)^m = A^m * B^m",
         lambda A, B, m, n: power(A.mul(B), m) ==
         power(A, m).mul(power(B, m))),
        ("A^(m+n) = A^m * A^n",
         lambda A, B, m, n: power(A, m + n) ==
         power(A, m).mul(power(A, n))),
        ("(A^m)^n = A^(mn)",
         lambda A, B, m, n: power(power(A, m), n) == power(A, m * n)),
        ("A^0 = 1, A^1 = A, 1^m = 1",
         lambda A, B, m, n: power(A, ring.zero).is_one()
         and power(A, ring.one) == A
         and power(TruncatedSeries.one(ring, N), m).is_one()),
        ("determinacy: A^m mod t^j fixed by A mod t^j", determinacy),
    ]
    report = VerificationReport(
        "axioms", {"ring": ring_name, "trials": trials, "N": N, "seed": seed})
    for label, law in laws:
        _tally(report, label, "trials",
               (law(_random_series(rng, ring, bring, N),
                    _random_series(rng, ring, bring, N),
                    _random_element(rng, ring, bring),
                    _random_element(rng, ring, bring))
                for _ in range(trials)))
    return report


def verify_props12(trials: int = 100, N: int = 5, seed: int = 0,
                   weights=None) -> VerificationReport:
    """Scaling laws of the L-extension: the substitution law for powers,
    the zeta scaling rule, the L -> 1 specialization, and the weightless
    degeneration of the L-weighted Macdonald product, with the given two
    weights when there are any."""
    check_int("trials", trials, 1)
    check_truncation(N)
    if weights is not None:
        weights = read_weights(weights, 2)
    check_trials(trials, N)
    bring = burnside_ring(_S3)
    ring = lext_coeff_ring(bring)
    plain = burnside_coeff_ring(bring)
    rng = random.Random(seed)
    report = VerificationReport(
        "props12", {"trials": trials, "N": N, "seed": seed,
                    "ring": f"A({bring.group.label})[L^Q]"})
    if weights is not None:
        report.params["weights"] = list(map(str, weights))

    shifts = [L(bring, s) for s in (Fraction(1, 2), Fraction(1), Fraction(2))]

    def draws():
        for _ in range(trials):
            yield (_random_series(rng, ring, bring, N),
                   _random_element(rng, ring, bring))

    def zeta_scalings():
        for b in map(embed, map(bring.basis, range(bring.n))):
            zeta = zeta_L(b, N)
            for Ls in shifts:
                yield zeta_L(Ls * b, N) == zeta.substitute(Ls, 1)

    _tally(report, "(A(L^s t))^m = (A(t))^m | t->L^s t", "trials",
           (power(A.substitute(Ls, 1), m) == power(A, m).substitute(Ls, 1)
            for Ls, (A, m) in zip(itertools.cycle(shifts), draws())))
    _tally(report, "zeta_{L^s b}(t) = zeta_b(L^s t)", "generators",
           zeta_scalings())
    _tally(report, "L -> 1 commutes with the power", "trials",
           (power(A, m).map_coeffs(plain, specialize_L) ==
            power(A.map_coeffs(plain, specialize_L), specialize_L(m))
            for A, m in draws()))

    def degenerations():
        for k in (1, 2):
            w = weights[:k] if weights else None
            for _ in range(max(1, trials // 10)):
                m = bring.element([rng.randint(-2, 2) for _ in range(bring.n)])
                t2 = rhs_theorem2(embed(m), k, 0, w, N)
                yield all(c == embed(e) for c, e in zip(
                    t2.coeffs, rhs_theorem1(m, k, N).coeffs))

    _tally(report, "d=0 L-weighted product = plain product", "cases",
           degenerations())
    return report

