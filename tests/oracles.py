"""Brute-force routes that the package no longer takes, kept as oracles.

The series engine reads λ-terms off orbit counts; these rebuild them the
old way, from classes of symmetric powers of coset spaces and integer
powers of zeta series.  L-extended elements hold integer exponents over a
common denominator; the references here merge them on `Fraction` keys."""

from fractions import Fraction
from math import lcm

from equichar.burnside import class_of
from equichar.gsets import symmetric_power
from equichar.motivic import LExtElement, lext
from equichar.powerstruct import INT_RING, TruncatedSeries, lambda_marks


def symmetric_power_class(R, i, k):
    """class_of(S^k(G/H_i)), the t^k coefficient of zeta_{[G/H_i]}."""
    return class_of(symmetric_power(R.coset_biset(i), k))


def lambda_oracle(ring, c, i, N):
    """lambda_c(t^i) as the product over generator coordinates n of c of
    zeta(t^i)^n, each zeta built from symmetric-power classes."""
    if ring is INT_RING:
        gens = [(None, c)]
    elif isinstance(c, LExtElement):
        gens = [((q, h), n) for q, b in c.terms
                for h, n in enumerate(b.coeffs)]
    else:
        gens = list(enumerate(c.coeffs))
    out = TruncatedSeries.one(ring, N)
    for key, n in gens:
        if not n:
            continue
        coeffs = [ring.zero] * (N + 1)
        for j in range(N // i + 1):
            if ring is INT_RING:
                coeffs[i * j] = 1
            elif isinstance(key, tuple):
                q, h = key
                coeffs[i * j] = lext(ring.bring, (
                    (q * j, symmetric_power_class(ring.bring, h, j)),))
            else:
                coeffs[i * j] = symmetric_power_class(ring.bring, key, j)
        out = out.mul(TruncatedSeries(ring, tuple(coeffs)).pow_int(n))
    return out


def lext_reference(pairs):
    """(D, terms) of the sum of L^q * c over (rational q, c) pairs, merged
    on `Fraction` keys: terms sorted by q with no zero c, D the lcm of the
    denominators."""
    acc = {}
    for q, c in pairs:
        q = Fraction(q)
        acc[q] = acc[q] + c if q in acc else c
    terms = tuple(sorted((q, c) for q, c in acc.items() if c))
    return lcm(1, *(q.denominator for q, _ in terms)), terms


def lext_lambda_reference(bring, terms, i, N):
    """lambda_c(t^i) for c = sum of L^q * x over (Fraction q, x) terms, with
    the orbit-count route run on `Fraction` exponents, one (D, terms) per
    degree."""
    return [lext_reference(p.items())
            for p in lambda_marks(bring, terms, i, N)]
