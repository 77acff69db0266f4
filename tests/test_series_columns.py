"""Series held as log columns against the element-wise engine of
`oracles.py`, over Z, A(S3), A(C2wrS2) and A(C2)[L^Q], plus the guards the
column engine keeps: integrality, exact division, the table-of-marks
product check, one value per series whatever route built it, and no
column rebuilt except to read the coefficients."""

import random
from fractions import Fraction as F

import pytest

from equichar.burnside import BurnsideElement, BurnsideRing, burnside_ring
from equichar.errors import InvariantViolation, UsageError
from equichar.groups import cyclic, make_group, subgroup_lattice, symmetric
from equichar.motivic import L, LExtCoeffRing, embed, lext, lext_coeff_ring
from equichar import powerstruct
from equichar.powerstruct import (INT_RING, BurnsideCoeffRing,
                                  TruncatedSeries, burnside_coeff_ring,
                                  exp_column, lambda_factorize, power)
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


def rand_series(rng, ring, N):
    """The same unit coefficients as a log-held and an element series."""
    coeffs = [ring.one] + [rand_coeff(rng, ring) for _ in range(N)]
    return TruncatedSeries(ring, coeffs), ElementSeries(ring, coeffs)


def assert_same(got, ref):
    assert isinstance(got, TruncatedSeries)
    assert got.coeffs == ref.coeffs
    again = TruncatedSeries(got.ring, ref.coeffs)
    assert got == again and hash(got) == hash(again)


@pytest.mark.parametrize("name,N", CASES, ids=IDS)
def test_arithmetic_matches_element_engine(name, N):
    ring = RINGS[name]
    rng = random.Random(f"{name}-{N}")
    for _ in range(6):
        A, a = rand_series(rng, ring, N)
        B, b = rand_series(rng, ring, N)
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


@pytest.mark.parametrize("name,N", CASES, ids=IDS)
def test_log_held_series_mix_with_other_forms(name, N):
    """Outputs of power and pow_int multiply, compare, truncate, hash,
    substitute and factor like series built from their coefficients."""
    ring = RINGS[name]
    rng = random.Random(f"{name}-{N}-logs")
    for _ in range(3):
        A, a = rand_series(rng, ring, N)
        C, c = rand_series(rng, ring, N)
        m, x = rand_coeff(rng, ring), rand_coeff(rng, ring)
        P, Q = power(A, m), A.pow_int(-2)
        p, q = power_reference(a, m), a.pow_int(-2)
        assert (P == Q) == (p.coeffs == q.coeffs) and P == power(A, m)
        assert lambda_factorize(P) == factorize_reference(p)
        assert_same(P.mul(Q), p.mul(q))
        for M in range(N + 1):
            assert_same(P.truncate(M), p.truncate(M))
        assert P == TruncatedSeries(ring, p.coeffs) and \
            TruncatedSeries(ring, q.coeffs) == Q
        assert hash(power(A, m)) == hash(TruncatedSeries(ring, p.coeffs))
        assert_same(P.mul(C), p.mul(c))
        assert_same(C.mul(Q), c.mul(q))
        for r in (1, 2):
            assert_same(P.substitute(x, r), p.substitute(x, r))


@pytest.mark.parametrize("name", RINGS)
def test_only_the_coefficients_rebuild_columns(name, monkeypatch):
    """Products, powers, substitution, truncation, comparison,
    factorization and the power structure stay in logs; reading the
    coefficients rebuilds one column per mark, once."""
    ring = RINGS[name]
    rng = random.Random(f"{name}-one-form")
    (A, _), (B, _) = rand_series(rng, ring, 6), rand_series(rng, ring, 6)
    m, c = ring.one + rand_coeff(rng, ring), ring.one + rand_coeff(rng, ring)
    calls, real = [], powerstruct.exp_column
    monkeypatch.setattr(powerstruct, "exp_column",
                        lambda *args: calls.append(args) or real(*args))
    P, Q = power(A, m), B.pow_int(-1)
    outs = [P.mul(Q), P.pow_int(2), P.substitute(c, 2), P.truncate(3),
            power(P, m)]
    assert outs[0] == Q.mul(P)
    lambda_factorize(outs[0])
    assert calls == []
    for X in outs:
        X.coeffs, X.coeffs
    assert len(calls) == ring.n * len(outs)


def test_division_is_exact():
    """No handle floors: a remainder would mean a wrong log column."""
    with pytest.raises(InvariantViolation):
        exp_column(INT_RING, [0, 1])
    for ring, x, y in ((RINGS["A(S3)"], 6, 3),
                       (RINGS["A(C2)[L^Q]"], {1: 6, -2: -4}, {1: 3, -2: -2})):
        assert ring.div(x, 2) == y
        with pytest.raises(InvariantViolation):
            ring.div(ring.axpy(x, 1, ring.one_entry), 2)


@pytest.mark.parametrize("s", [F(1, 2), F(1, 3), F(-2, 3), 1, 2])
def test_substitute_L_scaling_matches_element_engine(s):
    ring = RINGS["A(C2)[L^Q]"]
    rng = random.Random(7)
    for _ in range(5):
        A, a = rand_series(rng, ring, 6)
        for c in (L(C2, s), L(C2, s) * embed(C2.basis(0))):
            assert_same(A.substitute(c, 1), a.substitute(c, 1))
            assert_same(A.substitute(c, 2), a.substitute(c, 2))


@pytest.mark.parametrize("degree", [1, 3])
def test_non_integral_mark_column_fails_factorization(degree):
    """Marks (1, 0) on A(C2) would need half of [G/e]: the factor exponent
    built from that column is not integral over the basis, so factoring
    the series raises, and so does every power of it, by the unit or by
    [G/e], whose multiples of that factor would be integral.  An
    L-extended coefficient whose first exponent is integral and whose
    second is not raises too: the check reaches every exponent."""
    bad = BurnsideElement(C2, (1, 0))
    lring, G_e = lext_coeff_ring(C2), embed(C2.basis(0))
    for ring, x, m in ((burnside_coeff_ring(C2), bad, C2.basis(0)),
                       (lring, lext(C2, [(F(1, 2), bad)]), G_e),
                       (lring, lext(C2, [(0, C2.basis(0)), (F(1, 2), bad)]),
                        G_e)):
        coeffs = [ring.one] + [ring.zero] * 4
        coeffs[degree] = x
        A = TruncatedSeries(ring, coeffs)
        with pytest.raises(InvariantViolation):
            lambda_factorize(A)
        with pytest.raises(InvariantViolation):
            TruncatedSeries.from_logs(ring, A.D, A.logs).coeffs
        for exponent in (ring.one, m):
            with pytest.raises(InvariantViolation):
                power(TruncatedSeries(ring, coeffs), exponent)


def test_lext_factors_are_checked_without_pairs():
    """A factor walk checks each L-extended b_i integral and builds no
    `pairs`; they are built only when read, and match the element
    engine's factors."""
    rng = random.Random("lext-factor-pairs")
    A, a = rand_series(rng, RINGS["A(C2)[L^Q]"], 6)
    factors = lambda_factorize(A)
    assert all(b._pairs is None for b in factors)
    assert [b.pairs for b in factors] == \
        [b.pairs for b in factorize_reference(a)]


@pytest.mark.parametrize("name", RINGS)
def test_each_series_is_factored_once(name, monkeypatch):
    """A series walks its factors once, however often it is raised or
    factored; a power is factored again from its own logs, carries no
    factors of its input, and no walk writes into a shared entry."""
    ring = RINGS[name]
    rng = random.Random(f"{name}-walks")
    walked, real = [], powerstruct._factor_walk
    monkeypatch.setattr(powerstruct, "_factor_walk",
                        lambda A: walked.append(A) or real(A))
    (A, a), (B, _) = rand_series(rng, ring, 6), rand_series(rng, ring, 6)
    m, n = ring.one + rand_coeff(rng, ring), rand_coeff(rng, ring)
    logs = [[dict(x) if isinstance(x, dict) else x for x in h]
            for h in A.logs]
    power(A, m), power(A, n)
    assert lambda_factorize(A) == factorize_reference(a)
    assert len(walked) == 1 and walked[0] is A
    assert A.logs == logs and ring.zero_entry in (0, {})
    walked.clear()
    P = power(B, m)
    assert P._factors is None
    power(P, n)
    assert len(walked) == 2 and walked[0] is B and walked[1] is P


def test_power_takes_integers_and_refuses_other_rings():
    """An integer exponent m is m·1; an exponent, or a coefficient, from
    another ring is refused, not read off marks of another length."""
    S3 = burnside_ring(symmetric(3))
    for ring, other in ((RINGS["A(S3)"], C2.unit),
                        (lext_coeff_ring(S3), embed(C2.unit))):
        rng = random.Random(f"{ring.label}-int")
        A, _ = rand_series(rng, ring, 4)
        for m in (-2, 0, 3):
            assert power(A, m) == power(A, m * ring.one) == A.pow_int(m)
        with pytest.raises(UsageError):
            power(A, other)
        with pytest.raises(UsageError):
            TruncatedSeries(ring, (ring.one, other))


def test_every_handle_has_the_one_fused_adams_op():
    """Each handle adds k·psi^r into a column position itself; none keeps
    the separate psi op beside it."""
    for cls in (type(INT_RING), BurnsideCoeffRing, LExtCoeffRing):
        assert callable(vars(cls).get("add_psi"))
        assert not hasattr(cls, "psi")


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
