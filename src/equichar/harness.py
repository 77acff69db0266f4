"""Identity verification: brute-force left-hand sides against the series
engine, coefficient by coefficient, with budgets on the enumerations.

A report never raises on a mismatch; inequality is recorded per degree and
surfaces as a failing report (the CLI turns that into exit code 2).  Budget
violations raise, since they mean the requested computation was not done.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

from .burnside import burnside_ring, chi_equivariant, class_of
from .errors import ResourceLimitError, UsageError
from .euler import chi_k_equivariant
from .groups import cyclic, symmetric
from .gsets import POINT_BUDGET, BiSet, symmetric_power, wreath_power
from .motivic import (L, LExtCoeffRing, embed, lext, lext_coeff_ring,
                      power_L, rhs_theorem2, specialize_L, zeta_L)
from .powerstruct import (INT_RING, TruncatedSeries, burnside_coeff_ring,
                          power, rhs_theorem1)

WREATH_LIMIT_HIGH_ORDER = 50_000   # k >= 2
WREATH_LIMIT_LOW_ORDER = 400_000   # k <= 1


@dataclass
class DegreeCheck:
    n: int
    lhs: str
    rhs: str
    equal: bool
    ms: float = 0.0


@dataclass
class VerificationReport:
    identity: str
    params: dict
    degrees: list[DegreeCheck] = field(default_factory=list)

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


def default_wreath_limit(k: int) -> int:
    return WREATH_LIMIT_HIGH_ORDER if k >= 2 else WREATH_LIMIT_LOW_ORDER


def _check(n, lhs_el, rhs_el, t0) -> DegreeCheck:
    return DegreeCheck(n, lhs_el.render(), rhs_el.render(),
                       lhs_el == rhs_el, (time.perf_counter() - t0) * 1000)


def verify_theorem1(X: BiSet, k: int, N: int,
                    max_wreath: int | None = None,
                    max_points: int = POINT_BUDGET,
                    cross_check: bool = False) -> VerificationReport:
    """Wreath-power coefficients of the order-k characteristic against the
    factorization-engine series, degree by degree in A(G_B)."""
    if k < 0 or N < 0:
        raise UsageError("order and truncation must be >= 0")
    if max_wreath is None:
        max_wreath = default_wreath_limit(k)
    for n in range(N + 1):
        worder = X.gO.order ** n * factorial(n)
        if worder > max_wreath:
            raise ResourceLimitError(f"wreath group order at degree {n}",
                                     size=worder, budget=max_wreath)
    m = chi_k_equivariant(X, k, cross_check=cross_check)
    rhs = rhs_theorem1(m, k, N)
    report = VerificationReport(
        "theorem1",
        {"k": k, "N": N, "gO": X.gO.label, "gB": X.gB.label,
         "size": X.size, "exponent": m.render()})
    for n in range(N + 1):
        t0 = time.perf_counter()
        lhs = chi_k_equivariant(wreath_power(X, n, max_points=max_points), k,
                                cross_check=cross_check)
        report.degrees.append(_check(n, lhs, rhs.coeffs[n], t0))
    return report


def verify_lemma1(X: BiSet, N: int,
                  max_points: int = POINT_BUDGET) -> VerificationReport:
    """Symmetric-power classes against (1 - t)^{-chi^G(X)} in A(G_B)."""
    if N < 0:
        raise UsageError("truncation must be >= 0")
    for n in range(N + 1):
        pts = comb(X.size + n - 1, n) if X.size else 0
        if pts > max_points:
            raise ResourceLimitError(f"symmetric power size at degree {n}",
                                     size=pts, budget=max_points)
    m = chi_equivariant(X)
    rhs = rhs_theorem1(m, 0, N)
    report = VerificationReport(
        "lemma1", {"N": N, "gB": X.gB.label, "size": X.size,
                   "exponent": m.render()})
    for n in range(N + 1):
        t0 = time.perf_counter()
        lhs = class_of(symmetric_power(X, n, max_points=max_points))
        report.degrees.append(_check(n, lhs, rhs.coeffs[n], t0))
    return report


# -- randomized law checks ---------------------------------------------------

def _axiom_rings(name: str):
    if name == "int":
        return INT_RING, None
    if name == "burnside":
        return burnside_coeff_ring(burnside_ring(symmetric(3))), \
            burnside_ring(symmetric(3))
    if name == "lext":
        return lext_coeff_ring(burnside_ring(cyclic(2))), \
            burnside_ring(cyclic(2))
    raise UsageError(f"unknown ring {name!r}; pick int, burnside, or lext")


def _random_element(rng, ring, bring):
    if ring is INT_RING:
        return rng.randint(-4, 4)
    burn = bring.element([rng.randint(-2, 2) for _ in range(bring.n)])
    if isinstance(ring, LExtCoeffRing):
        q = rng.choice((Fraction(0), Fraction(1, 2), Fraction(1),
                        Fraction(-1, 2)))
        return lext(bring, ((q, burn),))
    return burn


def _random_series(rng, ring, bring, N):
    return TruncatedSeries(ring, tuple(
        [ring.one] + [_random_element(rng, ring, bring) for _ in range(N)]))


def verify_axioms(ring_name: str, trials: int = 100, N: int = 6,
                  seed: int = 0) -> VerificationReport:
    """Randomized exact check of the four power-structure axioms plus
    finite determinacy over the chosen coefficient ring."""
    if N < 1 or trials < 1:
        raise UsageError("axioms need N >= 1 and trials >= 1")
    ring, bring = _axiom_rings(ring_name)
    rng = random.Random(seed)
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
        ("determinacy: A^m mod t^j fixed by A mod t^j",
         None),
    ]
    report = VerificationReport(
        "axioms", {"ring": ring_name, "trials": trials, "N": N, "seed": seed})
    for idx, (label, law) in enumerate(laws, start=1):
        t0 = time.perf_counter()
        good = 0
        for _ in range(trials):
            A = _random_series(rng, ring, bring, N)
            B = _random_series(rng, ring, bring, N)
            m = _random_element(rng, ring, bring)
            n = _random_element(rng, ring, bring)
            if law is not None:
                good += bool(law(A, B, m, n))
                continue
            j = rng.randint(0, N - 1)
            bumped = list(A.coeffs)
            for i in range(j + 1, N + 1):
                bumped[i] = bumped[i] + _random_element(rng, ring, bring)
            Bp = TruncatedSeries(ring, tuple(bumped))
            good += power(A, m).truncate(j) == power(Bp, m).truncate(j)
        report.degrees.append(DegreeCheck(
            idx, label, f"{good}/{trials} trials", good == trials,
            (time.perf_counter() - t0) * 1000))
    return report


def verify_props12(trials: int = 100, N: int = 5, seed: int = 0,
                   weights=None) -> VerificationReport:
    """Scaling laws of the L-extension: the substitution law for powers,
    the zeta scaling rule, the L -> 1 specialization, and the weightless
    degeneration of the L-weighted Macdonald product."""
    if N < 0 or trials < 1:
        raise UsageError("props12 needs N >= 0 and trials >= 1")
    bring = burnside_ring(symmetric(3))
    ring = lext_coeff_ring(bring)
    plain = burnside_coeff_ring(bring)
    rng = random.Random(seed)
    report = VerificationReport(
        "props12", {"trials": trials, "N": N, "seed": seed,
                    "ring": f"A({bring.group.label})[L^Q]"})

    t0 = time.perf_counter()
    good = 0
    svals = (Fraction(1, 2), Fraction(1), Fraction(2))
    for i in range(trials):
        s = svals[i % len(svals)]
        A = _random_series(rng, ring, bring, N)
        m = _random_element(rng, ring, bring)
        good += power_L(A.substitute(L(bring, s), 1), m) == \
            power_L(A, m).substitute(L(bring, s), 1)
    report.degrees.append(DegreeCheck(
        1, "(A(L^s t))^m = (A(t))^m | t->L^s t", f"{good}/{trials} trials",
        good == trials, (time.perf_counter() - t0) * 1000))

    t0 = time.perf_counter()
    good = total = 0
    for i in range(bring.n):
        for s in svals:
            b = embed(bring.basis(i))
            total += 1
            good += zeta_L(L(bring, s) * b, N) == \
                zeta_L(b, N).substitute(L(bring, s), 1)
    report.degrees.append(DegreeCheck(
        2, "zeta_{L^s b}(t) = zeta_b(L^s t)", f"{good}/{total} generators",
        good == total, (time.perf_counter() - t0) * 1000))

    t0 = time.perf_counter()
    good = 0
    for _ in range(trials):
        A = _random_series(rng, ring, bring, N)
        m = _random_element(rng, ring, bring)
        good += power_L(A, m).map_coeffs(plain, specialize_L) == \
            power(A.map_coeffs(plain, specialize_L), specialize_L(m))
    report.degrees.append(DegreeCheck(
        3, "L -> 1 commutes with the power", f"{good}/{trials} trials",
        good == trials, (time.perf_counter() - t0) * 1000))

    t0 = time.perf_counter()
    good = total = 0
    for k in (1, 2):
        w = tuple(weights)[:k] if weights else None
        for _ in range(max(1, trials // 10)):
            m = bring.element([rng.randint(-2, 2) for _ in range(bring.n)])
            t2 = rhs_theorem2(embed(m), k, 0, w, N)
            t1 = rhs_theorem1(m, k, N)
            total += 1
            good += all(specialize_L(c) == e and
                        all(e == 0 for e, _ in c.pairs)
                        for c, e in zip(t2.coeffs, t1.coeffs))
    report.degrees.append(DegreeCheck(
        4, "d=0 L-weighted product = plain product", f"{good}/{total} cases",
        good == total, (time.perf_counter() - t0) * 1000))
    return report

