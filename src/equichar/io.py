"""JSON loading and rendering for the CLI.

Schemas:
  group:     {"type": "symmetric", "n": 3}, ...
  biset:     {"size": m, "gO": <group>, "gB": <group>,
              "actO": [[perm per generator]], "actB": [[...]]}
  cellspace: {"cells": [{"dim": 1, "biset": <biset>}, ...]}
  element:   {"basis": ["[G/e]", ...], "coeffs": [...]}
  L-element: {"D": 2, "terms": [{"exp": "1/2", "coeffs": [...]}, ...]}
  datum:     {"gO": <group>, "gB": <group>, "k": 1, "weights": ["1"],
              "strata": [{"tuple": [...], "class": <L-element>,
                          "shift": "1/2"}]}

Rationals travel as strings ("1/2") or integers.  All loaders raise
UsageError with the offending file path in the message.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .burnside import BurnsideElement, BurnsideRing, burnside_ring
from .cells import CellSpace
from .errors import ResourceLimitError, UsageError
from .groups import FiniteGroup, is_int_lists, make_group
from .gsets import BiSet
from .motivic import LExtElement, OrbifoldDatum, lext
from .powerstruct import TruncatedSeries


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"{path}: no such file")
    except json.JSONDecodeError as e:
        raise UsageError(f"{path}: malformed JSON: {e}")


def _field(obj, name, path):
    if not isinstance(obj, dict) or name not in obj:
        raise UsageError(f"{path}: missing field {name!r}")
    return obj[name]


def parse_fraction(v, path) -> Fraction:
    try:
        if isinstance(v, bool):
            raise ValueError
        if isinstance(v, (int, str)):
            return Fraction(v)
    except (ValueError, ZeroDivisionError):
        pass
    raise UsageError(f"{path}: bad rational {v!r}")


def format_fraction(q: Fraction):
    return int(q) if q.denominator == 1 else str(q)


# -- groups and spaces -------------------------------------------------------

def group_from_json(obj, path) -> FiniteGroup:
    try:
        return make_group(obj)
    except (UsageError, ResourceLimitError) as e:
        raise UsageError(f"{path}: {e}")


def biset_from_json(obj, path) -> BiSet:
    size = _field(obj, "size", path)
    gO = group_from_json(_field(obj, "gO", path), path)
    gB = group_from_json(_field(obj, "gB", path), path)
    actO = _field(obj, "actO", path)
    actB = _field(obj, "actB", path)
    if not (is_int_lists(actO) and is_int_lists(actB)):
        raise UsageError(f"{path}: actO and actB must be lists of "
                         f"integer lists")
    try:
        X = BiSet(size, gO, gB, actO, actB)
        X.validate()
    except Exception as e:
        raise UsageError(f"{path}: bad biset: {e}")
    return X


def cellspace_from_json(obj, path) -> CellSpace:
    raw = _field(obj, "cells", path)
    if not isinstance(raw, list):
        raise UsageError(f"{path}: \"cells\" must be a list")
    cells = []
    for cell in raw:
        dim = _field(cell, "dim", path)
        cells.append((dim, biset_from_json(_field(cell, "biset", path), path)))
    try:
        return CellSpace(tuple(cells))
    except Exception as e:
        raise UsageError(f"{path}: bad cell space: {e}")


def space_from_json(obj, path):
    """A biset or, when the object has a "cells" key, a cell space."""
    if isinstance(obj, dict) and "cells" in obj:
        return cellspace_from_json(obj, path)
    return biset_from_json(obj, path)


# -- ring elements -----------------------------------------------------------

def burnside_to_json(x: BurnsideElement) -> dict:
    ring = x.ring
    return {"basis": [ring.basis_name(i) for i in range(ring.n)],
            "coeffs": list(x.coeffs)}


def burnside_from_json(obj, ring: BurnsideRing, path) -> BurnsideElement:
    coeffs = _field(obj, "coeffs", path)
    if not isinstance(coeffs, list) or len(coeffs) != ring.n or \
            not all(type(c) is int for c in coeffs):
        raise UsageError(f"{path}: need {ring.n} integer coefficients")
    return ring.element(coeffs)


def lext_to_json(a: LExtElement) -> dict:
    return {"D": a.D,
            "terms": [{"exp": format_fraction(q), "coeffs": list(c.coeffs)}
                      for q, c in a.terms]}


def lext_from_json(obj, ring: BurnsideRing, path) -> LExtElement:
    terms = _field(obj, "terms", path)
    if not isinstance(terms, list):
        raise UsageError(f"{path}: \"terms\" must be a list")
    pairs = []
    for term in terms:
        q = parse_fraction(_field(term, "exp", path), path)
        pairs.append((q, burnside_from_json(term, ring, path)))
    el = lext(ring, pairs)
    if "D" in obj and (type(obj["D"]) is not int or obj["D"] != el.D):
        raise UsageError(f"{path}: \"D\" must be {el.D}, not {obj['D']!r}")
    return el


def datum_from_json(obj, path) -> OrbifoldDatum:
    gO = group_from_json(_field(obj, "gO", path), path)
    gB = group_from_json(_field(obj, "gB", path), path)
    bring = burnside_ring(gB)
    k = _field(obj, "k", path)
    if isinstance(k, bool) or not isinstance(k, int):
        raise UsageError(f"{path}: \"k\" must be an integer")
    weights = _field(obj, "weights", path)
    raw_strata = _field(obj, "strata", path)
    if not isinstance(weights, list) or not isinstance(raw_strata, list):
        raise UsageError(f"{path}: \"weights\" and \"strata\" must be lists")
    weights = tuple(parse_fraction(w, path) for w in weights)
    strata = []
    for s in raw_strata:
        tup = _field(s, "tuple", path)
        if not isinstance(tup, list):
            raise UsageError(f"{path}: a stratum's \"tuple\" must be a list")
        cls = lext_from_json(_field(s, "class", path), bring, path)
        shift = parse_fraction(s.get("shift", 0), path)
        strata.append((tup, cls, shift))
    try:
        return OrbifoldDatum(gO, bring, k, weights, tuple(strata))
    except UsageError as e:
        raise UsageError(f"{path}: {e}")


# -- series ------------------------------------------------------------------

def render_series(A: TruncatedSeries, render_coeff) -> str:
    parts = []
    for i, c in enumerate(A.coeffs):
        body = render_coeff(c)
        if body == "0":
            continue
        if " + " in body or " - " in body.lstrip("-"):
            body = f"({body})"
        if i == 0:
            parts.append(body)
        elif i == 1:
            parts.append(f"{body}*t" if body != "1" else "t")
        else:
            parts.append(f"{body}*t^{i}" if body != "1" else f"t^{i}")
    return " + ".join(parts) if parts else "0"


def series_to_json(A: TruncatedSeries, coeff_to_json) -> list:
    return [coeff_to_json(c) for c in A.coeffs]
