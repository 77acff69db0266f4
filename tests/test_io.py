"""JSON schema loaders and renderers."""

import json

import pytest

from equichar import errors, io
from equichar.burnside import burnside_ring
from equichar.cells import CellSpace
from equichar.errors import UsageError
from equichar.groups import make_group, symmetric
from equichar.gsets import BiSet
from equichar.motivic import lext, orbifold_class_from_datum
from equichar.powerstruct import rhs_theorem1

Z2 = {"type": "cyclic", "n": 2}
TRIV = {"type": "trivial"}
S3 = {"type": "symmetric", "n": 3}
NAT3 = {"size": 3, "gO": S3, "gB": TRIV,
        "actO": [[1, 0, 2], [1, 2, 0]], "actB": []}


def test_load_json_missing_file(tmp_path):
    with pytest.raises(UsageError, match="no such file"):
        io.load_json(str(tmp_path / "absent.json"))


def test_load_json_malformed(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(UsageError, match="malformed JSON"):
        io.load_json(str(p))


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_group_from_json(tmp_path):
    G = io.read(_write(tmp_path, "g.json", S3), make_group)
    assert (G.label, G.order) == ("S3", 6)


def test_group_from_json_bad_descriptor_names_path(tmp_path):
    with pytest.raises(UsageError, match="g.json"):
        io.read(_write(tmp_path, "g.json", {"type": "nonsense"}), make_group)


def test_biset_roundtrip():
    X = io.biset_from_json(NAT3)
    assert (X.size, X.gO.descriptor, X.gB.descriptor) == (3, S3, TRIV)
    assert [list(p) for p in X.actO] == NAT3["actO"]
    assert [list(p) for p in X.actB] == NAT3["actB"]
    assert X.gO.label == "S3"


def test_biset_from_json_invalid_action_names_path(tmp_path):
    bad = dict(NAT3, actO=[[1, 0, 2], [0, 2, 1]])
    with pytest.raises(UsageError, match="x.json"):
        io.read(_write(tmp_path, "x.json", bad), io.biset_from_json)


def test_biset_missing_field():
    with pytest.raises(UsageError, match="missing field 'size'"):
        io.biset_from_json({"gO": S3})


def test_cellspace_and_dispatch():
    flip2 = {"size": 2, "gO": Z2, "gB": TRIV, "actO": [[1, 0]], "actB": []}
    cobj = {"cells": [{"dim": 0, "biset": flip2}, {"dim": 1, "biset": flip2}]}
    CS = io.cellspace_from_json(cobj)
    assert len(CS.cells) == 2
    assert isinstance(io.space_from_json(cobj), CellSpace)
    assert isinstance(io.space_from_json(NAT3), BiSet)


def test_burnside_element_roundtrip():
    R = burnside_ring(symmetric(3))
    el = R.element([2, 0, 1, -1])
    enc = io.burnside_to_json(el)
    assert enc["basis"] == ["[G/e]", "[G/H1]", "[G/H2]", "[G/G]"]
    assert io.burnside_from_json(enc, R) == el


def test_burnside_element_wrong_length():
    R = burnside_ring(symmetric(3))
    with pytest.raises(UsageError, match="need 4 coefficients, got 2"):
        io.burnside_from_json({"coeffs": [1, 2]}, R)


def test_parse_fraction():
    from fractions import Fraction
    assert errors.parse_fraction("3/2") == Fraction(3, 2)
    assert errors.parse_fraction(2) == Fraction(2)
    with pytest.raises(UsageError):
        errors.parse_fraction(True)
    with pytest.raises(UsageError):
        errors.parse_fraction("x/y")


def test_format_fraction():
    from fractions import Fraction
    assert io.format_fraction(Fraction(1, 2)) == "1/2"
    assert io.format_fraction(Fraction(4, 2)) == 2


def test_lext_roundtrip():
    from fractions import Fraction
    R = burnside_ring(make_group(Z2))
    a = lext(R, ((Fraction(1, 2), R.basis(0)), (Fraction(0), R.unit)))
    enc = io.lext_to_json(a)
    assert enc["D"] == 2
    assert enc["terms"][0] == {"exp": 0, "coeffs": [0, 1]}
    assert enc["terms"][1] == {"exp": "1/2", "coeffs": [1, 0]}
    assert io.lext_from_json(enc, R) == a


def test_datum_from_json():
    dobj = {"gO": S3, "gB": Z2, "k": 1, "weights": ["1"],
            "strata": [
                {"tuple": [0],
                 "class": {"D": 1, "terms": [{"exp": 0, "coeffs": [1, 0]}]},
                 "shift": 0},
                {"tuple": [2],
                 "class": {"D": 1, "terms": [{"exp": 0, "coeffs": [0, 1]}]},
                 "shift": "1/2"},
            ]}
    D = io.datum_from_json(dobj)
    assert D.k == 1 and len(D.strata) == 2
    assert orbifold_class_from_datum(D).render() == "[G/e] + L^(1/2)"


def test_render_series_int():
    A = rhs_theorem1(1, 1, 4)
    assert io.render_series(A, str) == "1 + t + 2*t^2 + 3*t^3 + 5*t^4"
    assert io.series_to_json(A, str) == ["1", "1", "2", "3", "5"]


def test_render_series_skips_zeros_and_parenthesizes():
    from equichar.powerstruct import INT_RING, TruncatedSeries
    A = TruncatedSeries(INT_RING, (1, 0, -2))
    assert io.render_series(A, str) == "1 + -2*t^2"
    R = burnside_ring(make_group(Z2))
    from equichar.powerstruct import burnside_coeff_ring
    ring = burnside_coeff_ring(R)
    B = TruncatedSeries(ring, (R.unit, R.basis(0) + R.unit))
    out = io.render_series(B, lambda c: c.render())
    assert out == "[G/G] + ([G/e] + [G/G])*t"
