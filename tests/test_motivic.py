import random
import time
from fractions import Fraction as F

import pytest

from equichar import motivic
from equichar.burnside import burnside_ring
from equichar.errors import ResourceLimitError, UsageError
from equichar.euler import chi_k_equivariant
from equichar.groups import cyclic, make_group, symmetric
from equichar.gsets import BiSet, biset_from_single_action
from equichar.motivic import (L, OrbifoldDatum, embed, lext, lext_coeff_ring,
                              orbifold_class_from_datum, phi_k, rhs_theorem2,
                              specialize_L, zeta_L)
from equichar.powerstruct import (TruncatedSeries, burnside_coeff_ring, power,
                                  rhs_theorem1)
from oracles import (age, datum_from_biset, empty_biset, exponent_coeff,
                     symmetric_power_class)

Z2 = cyclic(2)
RZ2 = burnside_ring(Z2)
S3 = symmetric(3)
RS3 = burnside_ring(S3)


def rand_element(rng, ring, bring):
    qs = [F(0), F(1, 2), F(1), F(2), F(-1, 2)]
    return lext(bring, [(rng.choice(qs),
                         bring.element([rng.randint(-2, 2)
                                        for _ in range(bring.n)]))
                        for _ in range(rng.randint(0, 3))])


def rand_series(rng, ring, bring, N):
    return TruncatedSeries(ring, tuple(
        [ring.one] + [rand_element(rng, ring, bring) for _ in range(N)]))


# -- ring arithmetic ---------------------------------------------------------

def test_half_powers_multiply():
    assert L(RZ2, F(1, 2)) * L(RZ2, F(1, 2)) == L(RZ2, 1)


def test_bilinearity():
    x, y = RZ2.basis(0), RZ2.basis(1)
    lhs = (L(RZ2, F(1, 3)) * embed(x)) * (L(RZ2, F(1, 2)) * embed(y))
    assert lhs == L(RZ2, F(5, 6)) * embed(x * y)


def test_cancellation():
    a = embed(RZ2.basis(0)) + L(RZ2, 1)
    assert a - L(RZ2, 1) == embed(RZ2.basis(0))
    assert not a - a


def test_denominator_is_minimal_lcm():
    assert L(RZ2, F(1, 2)).D == 2
    assert (L(RZ2, F(1, 2)) * L(RZ2, F(1, 2))).D == 1
    assert (L(RZ2, F(1, 2)) + L(RZ2, F(1, 3))).D == 6


def test_mixed_rings_rejected():
    with pytest.raises(UsageError):
        _ = L(RZ2, 1) + L(RS3, 1)


def test_integer_scalars():
    a = L(RZ2, F(1, 2))
    assert 2 * a == a + a
    assert not 0 * a


def test_render():
    a = embed(RZ2.basis(0)) + L(RZ2, F(1, 2)) + L(RZ2, 2) * embed(RZ2.basis(0))
    assert a.render() == "[G/e] + L^(1/2) + L^2*([G/e])"
    assert lext(RZ2, ()).render() == "0"


def test_exponent_coeff():
    a = embed(RZ2.basis(0)) + L(RZ2, F(1, 2))
    assert exponent_coeff(a, F(1, 2)) == RZ2.unit
    assert exponent_coeff(a, 0) == RZ2.basis(0)
    assert exponent_coeff(a, 5) == RZ2.zero


def test_specialize_L():
    a = L(RZ2, F(1, 2)) + L(RZ2, 1) * embed(RZ2.basis(0))
    assert specialize_L(a) == RZ2.unit + RZ2.basis(0)


# -- zeta and the scaling rules ----------------------------------------------

def test_zeta_of_half_power_of_L():
    z = zeta_L(L(RZ2, F(1, 2)), 4)
    for k in range(5):
        assert z.coeffs[k] == L(RZ2, F(k, 2))


def test_zeta_of_plain_class_is_kapranov():
    z = zeta_L(embed(RZ2.basis(0)), 4)
    for k in range(5):
        assert z.coeffs[k] == embed(symmetric_power_class(RZ2, 0, k))


def test_zeta_scaled_regular_set():
    z = zeta_L(L(RZ2, 1) * embed(RZ2.basis(0)), 4)
    assert z.coeffs[2] == L(RZ2, 2) * embed(symmetric_power_class(RZ2, 0, 2))


def test_zeta_L_matches_symmetric_powers():
    """The t^j coefficient of zeta_{L^q [G/H]} is L^(qj) [S^j(G/H)]."""
    for q in (F(0), F(1, 2), F(1)):
        for i in range(RS3.n):
            z = zeta_L(L(RS3, q) * embed(RS3.basis(i)), 5)
            assert z.coeffs == tuple(
                lext(RS3, ((q * j, symmetric_power_class(RS3, i, j)),))
                for j in range(6))


def test_zeta_L_rejects_non_generators():
    with pytest.raises(UsageError):
        zeta_L(embed(RZ2.basis(0)) + L(RZ2, 1), 3)
    with pytest.raises(UsageError):
        zeta_L(embed(2 * RZ2.basis(0)), 3)


def test_proposition2_every_generator():
    """zeta_{L b}(t) = zeta_b(L t) for each basis generator."""
    for bring in (RZ2, RS3):
        for i in range(bring.n):
            b = embed(bring.basis(i))
            lhs = zeta_L(L(bring, 1) * b, 5)
            rhs = zeta_L(b, 5).substitute(L(bring, 1), 1)
            assert lhs.coeffs == rhs.coeffs


def test_proposition1_substitution_law():
    """(A(L^s t))^m = (A(t))^m |_{t -> L^s t} for s in {1/2, 1, 2}."""
    ring = lext_coeff_ring(RS3)
    rng = random.Random(7)
    for s in (F(1, 2), F(1), F(2)):
        for _ in range(8):
            A = rand_series(rng, ring, RS3, 5)
            m = rand_element(rng, ring, RS3)
            lhs = power(A.substitute(L(RS3, s), 1), m)
            rhs = power(A, m).substitute(L(RS3, s), 1)
            assert lhs.coeffs == rhs.coeffs


def test_power_L_unit_exponent():
    ring = lext_coeff_ring(RZ2)
    rng = random.Random(2)
    A = rand_series(rng, ring, RZ2, 5)
    assert power(A, ring.one).coeffs == A.coeffs


def test_specialization_commutes_with_power():
    ring = lext_coeff_ring(RS3)
    plain = burnside_coeff_ring(RS3)
    rng = random.Random(13)
    for _ in range(10):
        A = rand_series(rng, ring, RS3, 5)
        m = rand_element(rng, ring, RS3)
        specialized = power(A, m).map_coeffs(plain, specialize_L)
        direct = power(A.map_coeffs(plain, specialize_L), specialize_L(m))
        assert specialized.coeffs == direct.coeffs


def test_power_L_rejects_plain_ring():
    from equichar.powerstruct import INT_RING
    A = TruncatedSeries(INT_RING, (1, 1, 0))
    with pytest.raises(UsageError):
        power(A, L(RZ2, 1))


# -- ages and shifts ---------------------------------------------------------

def test_age_values():
    assert age([F(1, 2), F(1, 2)]) == 1
    assert age([]) == 0
    assert age([F(1, 3), F(2, 3)]) == 1


def test_age_range_errors():
    with pytest.raises(UsageError):
        age([1])
    with pytest.raises(UsageError):
        age([F(-1, 2)])


def test_phi_k_values():
    assert phi_k((1, 1, 1), (5, 7, 9)) == 0
    assert phi_k((3,), (1,)) == 2
    assert phi_k((2, 3), (1, 1)) == 5
    assert phi_k((2, 3), (F(1, 2), 1)) == F(9, 2)


def test_phi_k_errors():
    with pytest.raises(UsageError):
        phi_k((1, 2), (1,))
    with pytest.raises(UsageError):
        phi_k((0,), (1,))


# -- orbifold data -----------------------------------------------------------

def test_datum_line_with_involution():
    datum = OrbifoldDatum(Z2, RZ2, 1, (1,), (
        ((0,), L(RZ2, 1), F(0)),
        ((1,), embed(RZ2.unit), F(1, 2)),
    ))
    assert orbifold_class_from_datum(datum) == L(RZ2, 1) + L(RZ2, F(1, 2))


def test_datum_validation_errors():
    with pytest.raises(UsageError):
        OrbifoldDatum(Z2, RZ2, 1, (1, 1), ())  # wrong weight count
    with pytest.raises(UsageError):
        OrbifoldDatum(Z2, RZ2, 1, (1,), (
            ((0,), embed(RZ2.unit), F(-1, 2)),))  # negative shift
    # negative weights make negative shifts legal
    OrbifoldDatum(Z2, RZ2, 1, (-1,), (((0,), embed(RZ2.unit), F(-1, 2)),))


def test_unknown_tuple_labels():
    with pytest.raises(UsageError):
        orbifold_class_from_datum(OrbifoldDatum(S3, RZ2, 2, (1, 1), (
            ((1, 2), embed(RZ2.unit), F(0)),)))  # non-commuting pair
    with pytest.raises(UsageError):
        orbifold_class_from_datum(OrbifoldDatum(S3, RZ2, 1, (1,), (
            ((9,), embed(RZ2.unit), F(0)),)))  # out of range
    with pytest.raises(UsageError):
        orbifold_class_from_datum(OrbifoldDatum(S3, RZ2, 2, (1, 1), (
            ((1,), embed(RZ2.unit), F(0)),)))  # wrong length


def test_datum_accepts_non_representative_labels():
    """Any member of a conjugation orbit names the class."""
    reps = [g for g in range(6) if S3.mul(g, g) == 0 and g != 0]
    assert len(reps) == 3  # all transpositions
    for g in reps:
        datum = OrbifoldDatum(S3, RS3, 1, (1,), (
            ((g,), embed(RS3.unit), F(0)),))
        assert orbifold_class_from_datum(datum) == embed(RS3.unit)


def test_datum_from_biset_matches_hierarchy():
    Z2b = make_group({"type": "cyclic", "n": 2})
    X = BiSet(4, Z2, Z2b, ((2, 3, 0, 1),), ((1, 0, 3, 2),))
    for k in (0, 1, 2):
        datum = datum_from_biset(X, k)
        assert orbifold_class_from_datum(datum) == \
            embed(chi_k_equivariant(X, k, cross_check=True))


def test_datum_from_biset_oracle_limit():
    """The strata come from the tuple-form oracle, which refuses an O side
    of order above ORACLE_GROUP_LIMIT = 400."""
    pt = biset_from_single_action(1, symmetric(6), [(0,)] * 2, side="O")
    with pytest.raises(ResourceLimitError, match="tuple-form oracle") as e:
        datum_from_biset(pt, 1)
    assert e.value.size == 720 and e.value.budget == 400


def test_datum_from_biset_point_and_empty():
    pt = biset_from_single_action(1, S3, [(0,)] * 2, side="O")
    d = datum_from_biset(pt, 2)
    assert orbifold_class_from_datum(d) == \
        embed(chi_k_equivariant(pt, 2, cross_check=True))
    e = datum_from_biset(empty_biset(Z2, cyclic(3)), 1)
    assert not orbifold_class_from_datum(e)


# -- Theorem 2 right-hand side -----------------------------------------------

def test_rhs_theorem2_line_coefficients():
    out = rhs_theorem2(embed(RZ2.unit), 1, 2, (1,), 4)
    assert out.coeffs[0] == embed(RZ2.unit)
    assert out.coeffs[1] == embed(RZ2.unit)
    assert out.coeffs[2] == embed(RZ2.unit) + L(RZ2, 1)


def test_rhs_theorem2_degenerations():
    m = RS3.element([1, -1, 2, 0])
    t1 = rhs_theorem1(m, 2, 4)
    for series in (rhs_theorem2(embed(m), 2, 0, None, 4),
                   rhs_theorem2(embed(m), 2, 6, (0, 0), 4)):
        for c, expected in zip(series.coeffs, t1.coeffs):
            assert specialize_L(c) == expected
            assert all(q == 0 for q, _ in c.terms)


def test_rhs_theorem2_order_zero_degenerates_to_theorem1():
    """At k = 0 the only exponent tuple is the empty one, with Phi_0 = 0:
    every coefficient is at L^0, whatever d, and is Theorem 1's."""
    m = RS3.element([1, -1, 2, 0])
    t1 = rhs_theorem1(m, 0, 4)
    for d in (0, 1, 2):
        series = rhs_theorem2(embed(m), 0, d, None, 4)
        for c, expected in zip(series.coeffs, t1.coeffs, strict=True):
            assert specialize_L(c) == expected
            assert all(q == 0 for q, _ in c.terms)


def test_rhs_theorem2_argument_errors():
    with pytest.raises(UsageError):
        rhs_theorem2(embed(RZ2.unit), -1, 2, None, 3)
    with pytest.raises(UsageError):
        rhs_theorem2(embed(RZ2.unit), 1, -2, None, 3)
    with pytest.raises(UsageError):
        rhs_theorem2(embed(RZ2.unit), 2, 2, (1,), 3)
    with pytest.raises(UsageError):
        rhs_theorem2("x", 1, 2, None, 3)
    t0 = time.perf_counter()  # refused before the k-deep recursion
    with pytest.raises(ResourceLimitError):
        rhs_theorem2(embed(RZ2.unit), 1200, 0, None, 2)
    assert time.perf_counter() - t0 < 1


def test_rhs_theorem2_reads_each_rational_once(monkeypatch):
    """d and the two weights, each read once: not once per exponent tuple
    (66 of them at N = 20), and embed's exponent 0 is no rational to read."""
    calls, parse = [], motivic.parse_fraction
    monkeypatch.setattr(motivic, "parse_fraction",
                        lambda v: calls.append(v) or parse(v))
    rhs_theorem2(embed(RZ2.unit), 2, 1, None, 20)
    assert len(calls) <= 4


def test_rhs_theorem2_accepts_burnside_exponent():
    out = rhs_theorem2(RZ2.unit, 1, 2, None, 3)
    assert out.coeffs[0] == embed(RZ2.unit)
