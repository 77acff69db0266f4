"""Every object's repr: the text a debugger or a failing assert shows."""

from fractions import Fraction

from equichar.burnside import burnside_ring
from equichar.cells import CellSpace
from equichar.groups import symmetric
from equichar.gsets import biset_from_single_action
from equichar.motivic import L, embed, lext_coeff_ring
from equichar.powerstruct import INT_RING, TruncatedSeries


def test_every_repr_names_its_object():
    G = symmetric(3)
    R = burnside_ring(G)
    X = biset_from_single_action(3, G, [[1, 0, 2], [1, 2, 0]])
    lring = lext_coeff_ring(R)
    assert [repr(x) for x in (
        G, X, CellSpace([(0, X), (1, X)]), R, R.basis(1) + R.unit,
        TruncatedSeries(INT_RING, [1, 2, 3]),
        TruncatedSeries(lring, [lring.one, L(R)]),
        L(R, Fraction(1, 2)) + L(R, 2) * embed(R.basis(0)))] == [
        "<SymmetricGroup S3 order=6>",
        "<BiSet size=3 O=triv B=S3>",
        "<CellSpace 2 cells O=triv B=S3>",
        "<BurnsideRing A(S3) rank=4>",
        "<A(S3) [G/H1] + [G/G]>",
        "<series N=2 over Z>",
        "<series N=1 over A(S3)[L^Q]>",
        "<LExt L^(1/2) + L^2*([G/e])>"]
