"""Integer exponents over D in A(G)[L^(1/D)]: normal form, agreement with
the `Fraction`-keyed reference merge, no `Fraction` in the arithmetic, and
elements held at their marks."""

import copy
import random
from fractions import Fraction as F
from math import gcd

import pytest

from equichar import motivic
from equichar.burnside import (BurnsideElement, BurnsideRing,
                               burnside_ring)
from equichar.errors import InvariantViolation, UsageError
from equichar.groups import cyclic, subgroup_lattice, symmetric
from equichar.motivic import L, embed, lext, lext_coeff_ring, specialize_L
from equichar.powerstruct import (TruncatedSeries, exp_column, lambda_term,
                                  lambda_factorize, power)
from oracles import lext_lambda_reference, lext_reference

RINGS = {"C2": burnside_ring(cyclic(2)), "S3": burnside_ring(symmetric(3))}


def rand_pairs(rng, bring):
    """Up to four (exponent, class) pairs with denominators in
    {1, 2, 3, 4, 6}, repeated exponents and zero classes included."""
    return [(F(rng.randint(-8, 8), rng.choice((1, 2, 3, 4, 6))),
             bring.element([rng.randint(-2, 2) for _ in range(bring.n)]))
            for _ in range(rng.randint(0, 4))]


def assert_normal(a):
    es = [e for e, _ in a.pairs]
    assert type(a.D) is int and a.D >= 1
    assert all(type(e) is int for e in es)
    assert es == sorted(set(es))
    assert all(c for _, c in a.pairs)
    assert gcd(a.D, *es) == 1   # minimal D, and D = 1 for zero


def assert_matches(a, ref):
    assert_normal(a)
    assert (a.D, a.terms) == ref


@pytest.mark.parametrize("name", sorted(RINGS))
def test_arithmetic_matches_fraction_reference(name):
    bring = RINGS[name]
    rng = random.Random(17)
    for _ in range(150):
        p, q = rand_pairs(rng, bring), rand_pairs(rng, bring)
        a, b = lext(bring, p), lext(bring, q)
        assert_matches(a, lext_reference(p))
        ta, tb = a.terms, b.terms
        assert_matches(a + b, lext_reference(ta + tb))
        assert_matches(a - b, lext_reference(
            ta + tuple((r, -c) for r, c in tb)))
        assert_matches(-a, lext_reference((r, -c) for r, c in ta))
        assert_matches(a * b, lext_reference(
            (r + s, c * d) for r, c in ta for s, d in tb))
        n = rng.randint(-3, 3)
        assert_matches(n * a, lext_reference((r, n * c) for r, c in ta))


@pytest.mark.parametrize("name", sorted(RINGS))
def test_lambda_coeffs_match_fraction_reference(name):
    bring = RINGS[name]
    ring = lext_coeff_ring(bring)
    rng = random.Random(23)
    for _ in range(12):
        a = lext(bring, rand_pairs(rng, bring))
        for i in (1, 2, 3):
            got = lambda_term(ring, a, i, 4).coeffs
            for c in got:
                assert_normal(c)
            assert [(c.D, c.terms) for c in got] == \
                lext_lambda_reference(bring, a.terms, i, 4)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_laurent_terms_bound_every_entry_of_the_power(name):
    """No entry of A^m, nor of its logs, holds more Laurent terms at t^j
    than `laurent_terms` allows, over random exponents of both signs."""
    bring = RINGS[name]
    ring = lext_coeff_ring(bring)
    rng = random.Random(29)
    for _ in range(40):
        N = rng.randint(1, 6)
        coeffs = [lext(bring, rand_pairs(rng, bring))
                  for _ in range(rng.randint(1, N))]
        coeffs += [ring.zero] * (N - len(coeffs))
        A = TruncatedSeries(ring, [ring.one] + coeffs)
        m = lext(bring, rand_pairs(rng, bring))
        T = motivic.laurent_terms([ring.one] + coeffs, m)
        out = power(A, m).logs
        for col in [exp_column(ring, h) for h in out] + [[{}] + h
                                                        for h in out]:
            assert all(len(x) <= t for x, t in zip(col, T))


def test_equal_elements_hash_alike():
    R = RINGS["C2"]
    one = L(R, F(1, 2)) * L(R, F(1, 2))
    assert one == L(R, 1) and one.D == 1 and one.pairs == ((1, R.unit),)
    assert hash(one) == hash(L(R, 1))
    a = embed(R.basis(0)) + L(R, F(1, 3))
    back = a + L(R, F(1, 2)) - L(R, F(1, 2))
    assert back == a and hash(back) == hash(a) and back.D == 3
    zero = a - a
    assert zero == lext(R, ()) and zero.D == 1 and \
        hash(zero) == hash(lext(R, ()))
    assert len({one, L(R, 1), back, a, zero, lext(R, ())}) == 3


def test_no_fraction_in_arithmetic(monkeypatch):
    """+, -, * and power over prebuilt L-extended series never build a
    `Fraction`: the module's name for it raises while they run."""
    bring = RINGS["S3"]
    ring = lext_coeff_ring(bring)
    rng = random.Random(5)
    els = [lext(bring, rand_pairs(rng, bring)) for _ in range(8)]
    A = TruncatedSeries(ring, (ring.one,) + tuple(els[:4]))
    B = TruncatedSeries(ring, (ring.one,) + tuple(els[4:]))
    m = els[0] + L(bring, F(1, 6))
    sums = [a + b for a in els for b in els]
    diffs = [a - b for a in els for b in els]
    prods = [a * b for a in els for b in els]
    series = (A.mul(B), power(A, m), power(B, -m), A.pow_int(-2))

    def boom(*args):
        raise AssertionError("Fraction used in L-extended arithmetic")

    monkeypatch.setattr(motivic, "Fraction", boom)
    with pytest.raises(AssertionError):
        L(bring, 1).terms
    assert [a + b for a in els for b in els] == sums
    assert [a - b for a in els for b in els] == diffs
    assert [a * b for a in els for b in els] == prods
    assert (A.mul(B), power(A, m), power(B, -m), A.pow_int(-2)) == series


def test_arithmetic_runs_on_marks_alone(monkeypatch):
    """+, -, integer scaling and * never back-substitute, add or multiply
    a Burnside element: the pairs of an element are read only when asked
    for, and then once."""
    bring = RINGS["S3"]
    rng = random.Random(37)
    els = [lext(bring, rand_pairs(rng, bring)) for _ in range(6)]
    expected = [(a + b, a - b, a * b, -a, 3 * a) for a in els for b in els]

    def boom(*args):
        raise AssertionError("a Burnside element in L-extended arithmetic")

    with monkeypatch.context() as patch:
        for name in ("__add__", "__sub__", "__mul__", "__neg__"):
            patch.setattr(BurnsideElement, name, boom)
        patch.setattr(BurnsideRing, "from_marks", boom)
        patch.setattr(BurnsideRing, "back_substitute", boom)
        got = [(a + b, a - b, a * b, -a, 3 * a) for a in els for b in els]
    assert got == expected
    assert all(x._pairs is None for row in got for x in row)
    x = got[7][2]
    assert x.pairs is x.pairs and x._pairs is x.pairs


def test_columns_are_never_mutated():
    """No element's columns, and no shared entry of the handle, change
    under element arithmetic, series building, powers, factorization and
    substitution, including elements read back off a series."""
    bring = RINGS["S3"]
    ring = lext_coeff_ring(bring)
    rng = random.Random(41)
    els = [lext(bring, rand_pairs(rng, bring)) for _ in range(6)]
    els += [ring.one, ring.zero, L(bring, F(1, 2))]
    A = TruncatedSeries(ring, [ring.one] + els[:4])
    read = list(power(A, els[4]).coeffs) + lambda_factorize(A)
    els += read
    before = copy.deepcopy([x.cols for x in els])
    for a in els:
        for b in els[:6]:
            a + b, a - b, a * b, -a, 2 * a, specialize_L(a), a.pairs
    B = TruncatedSeries(ring, [ring.one] + read[1:5])
    B.mul(A).coeffs, power(B, els[5]).coeffs, lambda_factorize(B)
    A.substitute(els[-1], 2).coeffs, lambda_term(ring, els[8], 2, 4).coeffs
    assert [x.cols for x in els] == before
    assert (ring.one_entry, ring.zero_entry) == ({0: 1}, {})


def test_lext_refuses_a_class_of_another_ring():
    """A class of A(S3) is no coefficient of A(C2)[L^Q], nor is an integer
    or an L-extended element: each is refused, not summed."""
    C2, S3 = RINGS["C2"], RINGS["S3"]
    for c in (S3.basis(0), 1, L(C2, 1)):
        with pytest.raises(UsageError,
                           match="^elements of different Burnside rings$"):
            lext(C2, [(0, c)])
    assert lext(C2, [(0, C2.basis(0))]).render() == "[G/e]"


def test_element_products_check_the_table_first():
    """On a table of marks not closed under products, a product of two
    L-extended elements raises, even where its own marks back-substitute
    integrally ([G/e]^2 = 2·[G/e])."""
    G = cyclic(2)
    R = BurnsideRing(G, subgroup_lattice(G))
    R.marks_rows = ((2, 0), (1, 2))
    half, b = L(R, F(1, 2)), embed(R.basis(0))
    for x, y in ((half, half), (b, b)):
        with pytest.raises(InvariantViolation):
            x * y
    assert not R._products_checked
