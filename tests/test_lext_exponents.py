"""Integer exponents over D in A(G)[L^(1/D)]: normal form, agreement with
the `Fraction`-keyed reference merge, and no `Fraction` in the arithmetic."""

import random
from fractions import Fraction as F
from math import gcd

import pytest

from equichar import motivic
from equichar.burnside import burnside_ring
from equichar.groups import cyclic, symmetric
from equichar.motivic import L, embed, lext, lext_coeff_ring
from equichar.powerstruct import (TruncatedSeries, exp_column, lambda_term,
                                  power)
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
        T = motivic.laurent_terms(A, m)
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
