"""Series held as mark columns against the element-wise engine of
`oracles.py`, over Z, A(S3), A(C2wrS2) and A(C2)[L^Q], plus the guards the
column engine keeps: integrality, the table-of-marks product check, and
one value per series whatever route built it."""

import random
from fractions import Fraction as F

import pytest

from equichar.burnside import BurnsideElement, BurnsideRing, burnside_ring
from equichar.errors import InvariantViolation
from equichar.groups import cyclic, make_group, subgroup_lattice, symmetric
from equichar.motivic import L, LExtCoeffRing, embed, lext, lext_coeff_ring
from equichar.powerstruct import (INT_RING, BurnsideCoeffRing,
                                  TruncatedSeries, burnside_coeff_ring,
                                  lambda_factorize, power)
from oracles import ElementSeries, factorize_reference, power_reference

C2 = burnside_ring(cyclic(2))
C2WRS2 = make_group({"type": "wreath", "inner": {"type": "cyclic", "n": 2},
                     "n": 2})
RINGS = {
    "Z": INT_RING,
    "A(S3)": burnside_coeff_ring(burnside_ring(symmetric(3))),
    "A(C2wrS2)": burnside_coeff_ring(burnside_ring(C2WRS2)),
    "A(C2)[L^Q]": lext_coeff_ring(C2),
}
CASES = [(name, N) for name in RINGS for N in (0, 1, 6)]
IDS = [f"{name}-N{N}" for name, N in CASES]


def rand_coeff(rng, ring):
    """Zero about a quarter of the time; coordinates in [-2, 2], and
    L-exponents with denominators in {1, 2, 3}."""
    if rng.random() < 0.25:
        return ring.zero
    if ring is INT_RING:
        return rng.randint(-3, 3)
    bring = ring.bring

    def x():
        return bring.element([rng.randint(-2, 2) for _ in range(bring.n)])

    if isinstance(ring, LExtCoeffRing):
        return lext(bring, [(F(rng.randint(-4, 4), rng.choice((1, 2, 3))),
                             x()) for _ in range(rng.randint(1, 3))])
    return x()


def rand_series(rng, ring, N, unit=True):
    """The same coefficients as a column series and an element series."""
    coeffs = [ring.one if unit else rand_coeff(rng, ring)] + \
        [rand_coeff(rng, ring) for _ in range(N)]
    return TruncatedSeries(ring, coeffs), ElementSeries(ring, coeffs)


def assert_same(got, ref):
    assert isinstance(got, TruncatedSeries)
    assert got.coeffs == ref.coeffs
    again = TruncatedSeries(got.ring, ref.coeffs)
    assert got == again and hash(got) == hash(again)
    assert (got.D, got.cols) == (again.D, again.cols)


@pytest.mark.parametrize("name,N", CASES, ids=IDS)
def test_arithmetic_matches_element_engine(name, N):
    ring = RINGS[name]
    rng = random.Random(f"{name}-{N}")
    for _ in range(6):
        A, a = rand_series(rng, ring, N)
        B, b = rand_series(rng, ring, N, unit=False)
        assert_same(A.mul(B), a.mul(b))
        assert_same(B.mul(A), b.mul(a))
        assert_same(A.invert(), a.invert())
        for n in (-3, -1, 0, 2, 3):
            assert_same(A.pow_int(n), a.pow_int(n))
        for r in (1, 2, 3):
            c = rand_coeff(rng, ring)
            assert_same(A.substitute(c, r), a.substitute(c, r))
            assert_same(B.substitute(c, r), b.substitute(c, r))
        for M in range(N + 1):
            assert_same(B.truncate(M), b.truncate(M))


@pytest.mark.parametrize("name,N", CASES, ids=IDS)
def test_factorize_and_power_match_element_engine(name, N):
    ring = RINGS[name]
    rng = random.Random(f"{name}-{N}-power")
    for _ in range(4):
        A, a = rand_series(rng, ring, N)
        assert lambda_factorize(A) == factorize_reference(a)
        for m in (rand_coeff(rng, ring), ring.zero, ring.one,
                  -rand_coeff(rng, ring)):
            assert_same(power(A, m), power_reference(a, m))


@pytest.mark.parametrize("s", [F(1, 2), F(1, 3), F(-2, 3), 1, 2])
def test_substitute_L_scaling_matches_element_engine(s):
    ring = RINGS["A(C2)[L^Q]"]
    rng = random.Random(7)
    for _ in range(5):
        A, a = rand_series(rng, ring, 6)
        for c in (L(C2, s), L(C2, s) * embed(C2.regular)):
            assert_same(A.substitute(c, 1), a.substitute(c, 1))
            assert_same(A.substitute(c, 2), a.substitute(c, 2))


@pytest.mark.parametrize("degree", [1, 3])
def test_non_integral_mark_column_fails_factorization(degree):
    """Marks (1, 0) on A(C2) would need half of [G/e]: the factor exponent
    built from that column is not integral over the basis."""
    bad = BurnsideElement(C2, (1, 0))
    for ring, x in ((burnside_coeff_ring(C2), bad),
                    (lext_coeff_ring(C2), lext(C2, [(F(1, 2), bad)]))):
        coeffs = [ring.one] + [ring.zero] * 4
        coeffs[degree] = x
        A = TruncatedSeries(ring, coeffs)
        with pytest.raises(InvariantViolation):
            lambda_factorize(A)
        with pytest.raises(InvariantViolation):
            TruncatedSeries.from_columns(ring, A.D, A.cols).coeffs


def test_broken_table_caught_before_first_column_product():
    """Triangular with positive diagonal, but [G/H1]^2 has marks (1, 4),
    which are not integral over the basis."""
    G = cyclic(2)
    R = BurnsideRing(G, subgroup_lattice(G))
    R.marks_rows = ((2, 0), (1, 2))
    for ring in (BurnsideCoeffRing(R), LExtCoeffRing(R)):
        with pytest.raises(InvariantViolation):
            TruncatedSeries(ring, (ring.one, ring.one))
        with pytest.raises(InvariantViolation):
            TruncatedSeries.one(ring, 3)
    assert not R._products_checked


def test_equal_values_are_equal_series_with_equal_hashes():
    ring = RINGS["A(C2)[L^Q]"]
    one, half = ring.one, L(C2, F(1, 2))
    X = TruncatedSeries(ring, (one, one, ring.zero))
    twice = X.substitute(half, 1).substitute(half, 1)
    direct = TruncatedSeries(ring, (one, L(C2, 1), ring.zero))
    assert twice == X.substitute(L(C2, 1), 1) == direct
    assert twice.D == 1 and hash(twice) == hash(direct)
    plus = TruncatedSeries(ring, (one, half, ring.zero))
    minus = TruncatedSeries(ring, (one, -half, ring.zero))
    square = plus.mul(minus)
    assert square == TruncatedSeries(ring, (one, ring.zero, -L(C2, 1)))
    assert square.D == 1
    third = TruncatedSeries(ring, (one, one, L(C2, F(1, 3))))
    assert third.D == 3 and third.truncate(1).D == 1
    assert third.truncate(1) == TruncatedSeries(ring, (one, one))
    assert len({twice, direct, square, plus, minus, third,
                third.truncate(1), TruncatedSeries(ring, (one, one))}) == 6
    S3 = RINGS["A(S3)"]
    x = S3.bring.basis(1)
    Y = TruncatedSeries(S3, (S3.one, x))
    assert Y.mul(Y) == TruncatedSeries(S3, (S3.one, x + x)) and \
        hash(Y.mul(Y)) == hash(TruncatedSeries(S3, (S3.one, x + x)))
    assert TruncatedSeries(INT_RING, (1, 2)) != Y
