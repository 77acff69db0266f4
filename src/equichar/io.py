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

Rationals travel as strings ("1/2") or integers.  Loaders take decoded
JSON and name no file: `read` opens an input file and names it once in any
UsageError or ResourceLimitError raised while it is loaded or parsed.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .burnside import BurnsideElement, BurnsideRing, burnside_ring
from .cells import CellSpace
from .errors import InvariantViolation, ResourceLimitError, UsageError
from .groups import is_int_lists, make_group
from .gsets import BiSet
from .motivic import LExtElement, OrbifoldDatum, lext
from .powerstruct import TruncatedSeries


def read(path: str, parse):
    """parse(load_json(path)), with the path prefixed once to any usage
    or budget error raised while loading or parsing."""
    try:
        return parse(load_json(path))
    except (UsageError, ResourceLimitError) as e:
        raise UsageError(f"{path}: {e}") from e


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise UsageError("no such file")
    except OSError as e:
        raise UsageError(f"cannot read: {e.strerror}")
    except (ValueError, RecursionError) as e:  # also undecodable or deep
        raise UsageError(f"malformed JSON: {e}")


def _field(obj, name):
    if not isinstance(obj, dict) or name not in obj:
        raise UsageError(f"missing field {name!r}")
    return obj[name]


def parse_fraction(v) -> Fraction:
    try:
        if isinstance(v, bool):
            raise ValueError
        if isinstance(v, (int, str)):
            return Fraction(v)
    except (ValueError, ZeroDivisionError):
        pass
    raise UsageError(f"bad rational {v!r}")


def format_fraction(q: Fraction):
    return int(q) if q.denominator == 1 else str(q)


# -- groups and spaces -------------------------------------------------------

def biset_from_json(obj) -> BiSet:
    size = _field(obj, "size")
    gO = make_group(_field(obj, "gO"))
    gB = make_group(_field(obj, "gB"))
    actO = _field(obj, "actO")
    actB = _field(obj, "actB")
    if not (is_int_lists(actO) and is_int_lists(actB)):
        raise UsageError("actO and actB must be lists of integer lists")
    try:
        X = BiSet(size, gO, gB, actO, actB)
        X.validate()
    except (UsageError, InvariantViolation) as e:
        raise UsageError(f"bad biset: {e}")
    return X


def cellspace_from_json(obj) -> CellSpace:
    raw = _field(obj, "cells")
    if not isinstance(raw, list):
        raise UsageError("\"cells\" must be a list")
    cells = []
    for cell in raw:
        dim = _field(cell, "dim")
        cells.append((dim, biset_from_json(_field(cell, "biset"))))
    try:
        return CellSpace(tuple(cells))
    except UsageError as e:
        raise UsageError(f"bad cell space: {e}")


def space_from_json(obj):
    """A biset or, when the object has a "cells" key, a cell space."""
    if isinstance(obj, dict) and "cells" in obj:
        return cellspace_from_json(obj)
    return biset_from_json(obj)


# -- ring elements -----------------------------------------------------------

def burnside_to_json(x: BurnsideElement) -> dict:
    ring = x.ring
    return {"basis": [ring.basis_name(i) for i in range(ring.n)],
            "coeffs": list(x.coeffs)}


def burnside_from_json(obj, ring: BurnsideRing) -> BurnsideElement:
    coeffs = _field(obj, "coeffs")
    if not isinstance(coeffs, list) or len(coeffs) != ring.n or \
            not all(type(c) is int for c in coeffs):
        raise UsageError(f"need {ring.n} integer coefficients")
    return ring.element(coeffs)


def lext_to_json(a: LExtElement) -> dict:
    return {"D": a.D,
            "terms": [{"exp": format_fraction(q), "coeffs": list(c.coeffs)}
                      for q, c in a.terms]}


def lext_from_json(obj, ring: BurnsideRing) -> LExtElement:
    terms = _field(obj, "terms")
    if not isinstance(terms, list):
        raise UsageError("\"terms\" must be a list")
    pairs = []
    for term in terms:
        q = parse_fraction(_field(term, "exp"))
        pairs.append((q, burnside_from_json(term, ring)))
    el = lext(ring, pairs)
    if "D" in obj and (type(obj["D"]) is not int or obj["D"] != el.D):
        raise UsageError(f"\"D\" must be {el.D}, not {obj['D']!r}")
    return el


def datum_from_json(obj) -> OrbifoldDatum:
    gO = make_group(_field(obj, "gO"))
    gB = make_group(_field(obj, "gB"))
    bring = burnside_ring(gB)
    k = _field(obj, "k")
    if isinstance(k, bool) or not isinstance(k, int):
        raise UsageError("\"k\" must be an integer")
    weights = _field(obj, "weights")
    raw_strata = _field(obj, "strata")
    if not isinstance(weights, list) or not isinstance(raw_strata, list):
        raise UsageError("\"weights\" and \"strata\" must be lists")
    weights = tuple(parse_fraction(w) for w in weights)
    strata = []
    for s in raw_strata:
        tup = _field(s, "tuple")
        if not isinstance(tup, list):
            raise UsageError("a stratum's \"tuple\" must be a list")
        cls = lext_from_json(_field(s, "class"), bring)
        shift = parse_fraction(s.get("shift", 0))
        strata.append((tup, cls, shift))
    return OrbifoldDatum(gO, bring, k, weights, tuple(strata))


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
