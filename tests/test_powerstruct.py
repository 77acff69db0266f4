import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from equichar.burnside import burnside_ring, class_of
from equichar.errors import ResourceLimitError, UsageError
from equichar.groups import cyclic, make_group, symmetric
from equichar.gsets import biset_from_single_action, symmetric_power
from equichar.powerstruct import (INT_RING, TruncatedSeries,
                                  burnside_coeff_ring, exponent_tuples,
                                  lambda_factorize, lambda_term, power,
                                  rhs_base_series, rhs_theorem1)
from equichar.motivic import lext, lext_coeff_ring
import oracles
from oracles import (geometric_power_oracle, integer_power_oracle,
                     lambda_oracle, symmetric_power_class)

int_coeffs = st.lists(st.integers(min_value=-4, max_value=4), min_size=6,
                      max_size=6)


def iseries(coeffs):
    return TruncatedSeries(INT_RING, (1,) + tuple(coeffs))


def b_regular(G):
    perms = [tuple(G.mul(s, x) for x in range(G.order)) for s in G.generators]
    return biset_from_single_action(G.order, G, perms, side="B")


# -- series arithmetic -------------------------------------------------------

def test_mul_and_invert():
    A = iseries([1, 0, 0, 0, 0, 0])  # 1 + t
    B = A.invert()
    assert B.coeffs == (1, -1, 1, -1, 1, -1, 1)
    assert A.mul(B).is_one()


def test_invert_requires_unit_constant():
    """A series has constant term 1, so every series can be inverted."""
    for coeffs in ((2, 1, 0), ()):
        with pytest.raises(UsageError, match="constant coefficient 1"):
            TruncatedSeries(INT_RING, coeffs)


def test_pow_int_matches_repeated_mul():
    A = iseries([2, -1, 3, 0, 1, -2])
    P = TruncatedSeries.one(INT_RING, 6)
    for n in range(5):
        assert A.pow_int(n).coeffs == P.coeffs
        P = P.mul(A)
    assert A.pow_int(-2).coeffs == A.invert().mul(A.invert()).coeffs


def test_substitute():
    A = iseries([1, 1, 0, 0, 0, 0])
    B = A.substitute(-1, 2)
    assert B.coeffs == (1, 0, -1, 0, 1, 0, 0)
    with pytest.raises(UsageError):
        A.substitute(1, 0)


def test_truncate():
    A = iseries([1, 2, 3, 4, 5, 6])
    assert A.truncate(3).coeffs == (1, 1, 2, 3)
    with pytest.raises(UsageError):
        A.truncate(9)


def test_mismatched_series_rejected():
    A = iseries([1, 0, 0, 0, 0, 0])
    B = TruncatedSeries(INT_RING, (1, 0))
    with pytest.raises(UsageError):
        A.mul(B)


# -- factorization and power -------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(int_coeffs)
def test_lambda_factorize_reconstruct_roundtrip(coeffs):
    A = iseries(coeffs)
    out = TruncatedSeries.one(INT_RING, A.N)
    for i, b in enumerate(lambda_factorize(A), start=1):
        out = out.mul(lambda_term(INT_RING, b, i, A.N))
    assert out.coeffs == A.coeffs


def test_lambda_factorize_needs_unit_constant():
    with pytest.raises(UsageError):
        lambda_factorize(TruncatedSeries(INT_RING, (0, 1)))


def test_integer_zeta_is_geometric_series():
    z = lambda_term(INT_RING, 1, 1, 5)
    assert z.coeffs == (1,) * 6


def test_lambda_term_binomial():
    # lambda_{-1}(t) = 1 - t, lambda_2(t) = (1-t)^{-2}
    assert lambda_term(INT_RING, -1, 1, 4).coeffs == (1, -1, 0, 0, 0)
    assert lambda_term(INT_RING, 2, 1, 4).coeffs == (1, 2, 3, 4, 5)


def test_lambda_term_needs_positive_power():
    for i in (0, -1):
        with pytest.raises(UsageError):
            lambda_term(INT_RING, 1, i, 4)


@settings(max_examples=60, deadline=None)
@given(int_coeffs, int_coeffs,
       st.integers(min_value=-5, max_value=5),
       st.integers(min_value=-5, max_value=5))
def test_axioms_over_integers(ca, cb, m, n):
    A, B = iseries(ca), iseries(cb)
    assert power(A.mul(B), m).coeffs == power(A, m).mul(power(B, m)).coeffs
    assert power(A, m + n).coeffs == power(A, m).mul(power(A, n)).coeffs
    assert power(power(A, m), n).coeffs == power(A, m * n).coeffs
    assert power(A, 1).coeffs == A.coeffs
    assert power(A, 0).is_one()


@settings(max_examples=40, deadline=None)
@given(int_coeffs, st.integers(min_value=-5, max_value=5),
       st.integers(min_value=0, max_value=5))
def test_finite_determinacy(coeffs, m, j):
    """Coefficients up to t^j of A^m depend only on A up to t^j."""
    A = iseries(coeffs)
    perturbed = list(A.coeffs)
    for i in range(j + 1, A.N + 1):
        perturbed[i] += 7
    B = TruncatedSeries(INT_RING, tuple(perturbed))
    assert power(A, m).truncate(j).coeffs == power(B, m).truncate(j).coeffs


@settings(max_examples=50, deadline=None)
@given(int_coeffs, st.integers(min_value=-6, max_value=6))
def test_integer_oracle_agrees(coeffs, m):
    A = iseries(coeffs)
    assert power(A, m).coeffs == integer_power_oracle(A, m).coeffs


def test_integer_power_matches_ordinary_power():
    A = iseries([3, -2, 1, 0, 0, 4])
    for m in range(-3, 4):
        assert power(A, m).coeffs == A.pow_int(m).coeffs


# -- Burnside coefficients ---------------------------------------------------

def test_burnside_power_unit_exponent_cases():
    R = burnside_ring(cyclic(2))
    ring = burnside_coeff_ring(R)
    A = TruncatedSeries(ring, (ring.one, R.basis(0), R.zero, R.zero))
    assert power(A, R.unit).coeffs == A.coeffs
    assert power(A, R.zero).is_one()


def test_kapranov_zeta_from_power():
    """(1-t)^{-[G/e]} over A(Z/2) is the symmetric-power series."""
    R = burnside_ring(cyclic(2))
    out = rhs_theorem1(R.basis(0), 0, 4)
    assert out.coeffs == tuple(symmetric_power_class(R, 0, k)
                               for k in range(5))


def test_kapranov_coefficient_property():
    """t^k coefficient of (1-t)^{-[X]} is [S^k X] for a non-basis set."""
    Z2 = cyclic(2)
    R = burnside_ring(Z2)
    X = biset_from_single_action(3, Z2, [(1, 0, 2)], side="B")
    out = rhs_theorem1(class_of(X), 0, 4)
    for k in range(5):
        assert out.coeffs[k] == class_of(symmetric_power(X, k))


ORACLE_GROUPS = [  # descriptor, highest degree checked
    ({"type": "symmetric", "n": 3}, 6),
    ({"type": "dihedral", "n": 4}, 6),
    ({"type": "wreath", "inner": {"type": "cyclic", "n": 2}, "n": 2}, 6),
    ({"type": "symmetric", "n": 4}, 4),
]


@pytest.mark.parametrize("desc,N", ORACLE_GROUPS,
                         ids=["S3", "D4", "C2wrS2", "S4"])
def test_closed_form_zeta_matches_symmetric_powers(desc, N):
    """zeta_{[G/H]} read off orbit counts equals the classes of the
    symmetric powers S^j(G/H), for every basis class."""
    R = burnside_ring(make_group(desc))
    ring = burnside_coeff_ring(R)
    for i in range(R.n):
        assert lambda_term(ring, R.basis(i), 1, N).coeffs == tuple(
            symmetric_power_class(R, i, j) for j in range(N + 1))


def test_closed_form_lambda_terms_match_zeta_powers():
    """lambda_c(t^i) equals the product of oracle zeta(t^i)^n over the
    coordinates n of c, negative ones included, over Z, A(G) and
    A(G)[L^Q] with exponents +-1/2."""
    rng = random.Random(3)
    for c in range(-3, 4):
        for i in (1, 2, 3):
            assert lambda_term(INT_RING, c, i, 6).coeffs == \
                lambda_oracle(INT_RING, c, i, 6).coeffs
    for G in (cyclic(2), symmetric(3), make_group(ORACLE_GROUPS[1][0])):
        R = burnside_ring(G)
        plain, ext = burnside_coeff_ring(R), lext_coeff_ring(R)
        for _ in range(8):
            i = rng.randint(1, 3)
            x = R.element([rng.randint(-2, 2) for _ in range(R.n)])
            assert lambda_term(plain, x, i, 5).coeffs == \
                lambda_oracle(plain, x, i, 5).coeffs
            y = lext(R, [(q, R.element([rng.randint(-2, 2)
                                       for _ in range(R.n)]))
                         for q in (Fraction(-1, 2), 0, Fraction(1, 2))
                         if rng.random() < 0.7])
            assert lambda_term(ext, y, i, 5).coeffs == \
                lambda_oracle(ext, y, i, 5).coeffs


def test_cardinality_specializes_burnside_power():
    """Applying the cardinality homomorphism coefficientwise turns a
    Burnside power into the integer power."""
    R = burnside_ring(symmetric(3))
    ring = burnside_coeff_ring(R)
    rng = random.Random(3)
    for _ in range(10):
        coeffs = [ring.one] + [R.element([rng.randint(-2, 2)
                                          for _ in range(R.n)])
                               for _ in range(5)]
        A = TruncatedSeries(ring, tuple(coeffs))
        m = R.element([rng.randint(-2, 2) for _ in range(R.n)])
        lifted = power(A, m)
        ints = TruncatedSeries(INT_RING,
                               tuple(c.marks()[0] for c in A.coeffs))
        assert tuple(c.marks()[0] for c in lifted.coeffs) == \
            power(ints, m.marks()[0]).coeffs


def test_axioms_over_burnside_ring():
    R = burnside_ring(symmetric(3))
    ring = burnside_coeff_ring(R)
    rng = random.Random(11)

    def els():
        return R.element([rng.randint(-2, 2) for _ in range(R.n)])

    for _ in range(20):
        A = TruncatedSeries(ring, tuple([ring.one] +
                                        [els() for _ in range(5)]))
        B = TruncatedSeries(ring, tuple([ring.one] +
                                        [els() for _ in range(5)]))
        m, n = els(), els()
        assert power(A.mul(B), m).coeffs == \
            power(A, m).mul(power(B, m)).coeffs
        assert power(A, m + n).coeffs == power(A, m).mul(power(A, n)).coeffs
        assert power(power(A, m), n).coeffs == power(A, m * n).coeffs


# -- geometric oracle --------------------------------------------------------

def test_geometric_oracle_agrees_with_power():
    Z2 = cyclic(2)
    R = burnside_ring(Z2)
    ring = burnside_coeff_ring(R)
    reg = b_regular(Z2)
    swap3 = biset_from_single_action(3, Z2, [(1, 0, 2)], side="B")
    pt = biset_from_single_action(1, Z2, [(0,)], side="B")
    for a_sets, M in (([reg], reg), ([swap3], reg), ([pt, reg], swap3)):
        N = 4
        geo = geometric_power_oracle(a_sets, M, N)
        coeffs = [ring.one] + [class_of(A) for A in a_sets]
        coeffs += [ring.zero] * (N + 1 - len(coeffs))
        assert geo.coeffs == power(TruncatedSeries(ring, tuple(coeffs)),
                                   class_of(M)).coeffs


def test_geometric_oracle_budget(monkeypatch):
    Z2 = cyclic(2)
    big = biset_from_single_action(12, Z2,
                                   [tuple(range(12))], side="B")
    monkeypatch.setattr(oracles, "GEOMETRIC_CONFIG_BUDGET", 50)
    with pytest.raises(ResourceLimitError):
        geometric_power_oracle([big], big, 6)


def test_geometric_oracle_rejects_mixed_groups():
    a = b_regular(cyclic(2))
    m = b_regular(cyclic(3))
    with pytest.raises(UsageError):
        geometric_power_oracle([a], m, 3)


# -- Macdonald right-hand side -----------------------------------------------

def test_exponent_tuples_k0_k1_k2():
    def pairs_of(k, N):
        return sorted((prod, weight) for _, prod, weight in exponent_tuples(k, N))

    assert pairs_of(0, 5) == [(1, 1)]
    assert pairs_of(1, 4) == [(1, 1), (2, 1), (3, 1), (4, 1)]
    pairs = pairs_of(2, 4)
    assert pairs == [(1, 1), (2, 1), (2, 2), (3, 1), (3, 3),
                     (4, 1), (4, 2), (4, 4)]


def test_rhs_base_euler_product():
    base = rhs_base_series(1, 8)
    # prod (1 - t^r) = 1 - t - t^2 + t^5 + t^7 + ... (pentagonal numbers)
    assert base.coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0)


def test_rhs_theorem1_partition_numbers():
    out = rhs_theorem1(1, 1, 8)
    assert out.coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22)


def test_rhs_theorem1_k2_unit():
    assert rhs_theorem1(1, 2, 2).coeffs == (1, 1, 4)


def test_rhs_theorem1_k0_binomials():
    assert rhs_theorem1(2, 0, 5).coeffs == (1, 2, 3, 4, 5, 6)


def test_rhs_theorem1_negative_order_rejected():
    with pytest.raises(UsageError):
        rhs_theorem1(1, -1, 3)
    with pytest.raises(ResourceLimitError, match="exceeds budget 100"):
        rhs_theorem1(1, 1200, 2)   # not a RecursionError


def test_rhs_theorem1_burnside_exponent():
    R = burnside_ring(cyclic(2))
    out = rhs_theorem1(R.basis(0), 1, 3)
    # prod_r zeta_{[G/e]}(t^r): hand-expanded low coefficients
    z = [symmetric_power_class(R, 0, k) for k in range(4)]
    assert out.coeffs[0] == R.unit
    assert out.coeffs[1] == z[1]
    assert out.coeffs[2] == z[2] + z[1]
    assert out.coeffs[3] == z[3] + z[1] * z[1] + z[1]
