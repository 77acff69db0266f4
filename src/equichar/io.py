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
  power:     {"ring": "int" | {"burnside": <group>} | {"lext": <group>},
              "series": [<int|element|L-element>, ...], "exponent": <same>}
  zeta:      {"group": <group>, "index": 0, "exp": "1/2"}; "exp" defaults to 0

Rationals travel as strings ("1/2") or integers.  Loaders take decoded
JSON and check only its shape, that a field is present and a list is a
list: every value is checked by the library constructor it is handed to,
and a power input against LAURENT_PRODUCT_BUDGET before its series is
built.  They name no file: `read` opens an input file and names it once in
any UsageError or ResourceLimitError raised while it is loaded or parsed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import partial

from .burnside import BurnsideElement, BurnsideRing, burnside_ring
from .cells import CellSpace
from .errors import InvariantViolation, ResourceLimitError, UsageError
from .groups import make_group
from .gsets import BiSet
from .motivic import (L, LExtElement, OrbifoldDatum, check_laurent_products,
                      embed, lext, lext_coeff_ring)
from .powerstruct import INT_RING, TruncatedSeries, burnside_coeff_ring


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


def _list(obj, name):
    value = _field(obj, name)
    if not isinstance(value, list):
        raise UsageError(f'"{name}" must be a list')
    return value


def format_fraction(q: Fraction):
    return int(q) if q.denominator == 1 else str(q)


# -- groups and spaces -------------------------------------------------------

def biset_from_json(obj) -> BiSet:
    size = _field(obj, "size")
    gO = make_group(_field(obj, "gO"))
    gB = make_group(_field(obj, "gB"))
    actO = _field(obj, "actO")
    actB = _field(obj, "actB")
    try:
        X = BiSet(size, gO, gB, actO, actB)
        X.validate()
    except (UsageError, InvariantViolation) as e:
        raise UsageError(f"bad biset: {e}")
    return X


def cellspace_from_json(obj) -> CellSpace:
    cells = []
    for cell in _list(obj, "cells"):
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


def finite_set_from_json(obj, identity: str):
    """A biset input; a cell space is refused as input to the identity."""
    X = space_from_json(obj)
    if isinstance(X, CellSpace):
        raise UsageError(f"{identity} verification needs a finite set, "
                         f"not a cell space")
    return X


# -- ring elements -----------------------------------------------------------

def burnside_to_json(x: BurnsideElement) -> dict:
    ring = x.ring
    return {"basis": [ring.basis_name(i) for i in range(ring.n)],
            "coeffs": list(x.coeffs)}


def burnside_from_json(obj, ring: BurnsideRing) -> BurnsideElement:
    return ring.element(_list(obj, "coeffs"))


def lext_to_json(a: LExtElement) -> dict:
    return {"D": a.D,
            "terms": [{"exp": format_fraction(q), "coeffs": list(c.coeffs)}
                      for q, c in a.terms]}


def lext_from_json(obj, ring: BurnsideRing) -> LExtElement:
    el = lext(ring, [(_field(term, "exp"), burnside_from_json(term, ring))
                     for term in _list(obj, "terms")])
    if "D" in obj and (type(obj["D"]) is not int or obj["D"] != el.D):
        raise UsageError(f"\"D\" must be {el.D}, not {obj['D']!r}")
    return el


def datum_from_json(obj) -> OrbifoldDatum:
    gO = make_group(_field(obj, "gO"))
    gB = make_group(_field(obj, "gB"))
    bring = burnside_ring(gB)
    k = _field(obj, "k")
    weights = _list(obj, "weights")
    strata = []
    for s in _list(obj, "strata"):
        tup = _list(s, "tuple")
        cls = lext_from_json(_field(s, "class"), bring)
        strata.append((tup, cls, s.get("shift", 0)))
    return OrbifoldDatum(gO, bring, k, weights, tuple(strata))


def zeta_input_from_json(obj) -> LExtElement:
    """The generator L^exp * [G/H_index] of a zeta input."""
    bring = burnside_ring(make_group(_field(obj, "group")))
    b = embed(bring.basis(_field(obj, "index")))
    return L(bring, obj.get("exp", 0)) * b


# -- series ------------------------------------------------------------------

def power_input_from_json(obj, N):
    """A power input's series padded or cut to t^N, its exponent, and the
    renderer of its coefficient ring; an L-extended power is checked
    against LAURENT_PRODUCT_BUDGET before the series is built."""
    if not isinstance(obj, dict):
        raise UsageError("expected a JSON object")
    choice = obj.get("ring", "int")
    render = lambda c: c.render()
    if isinstance(choice, dict) and "burnside" in choice and "lext" in choice:
        raise UsageError("ring names both \"burnside\" and \"lext\"")
    if choice == "int":
        def parse(v):
            INT_RING.entries(v)   # refuses all but an int
            return v
        ring, render = INT_RING, str
    elif isinstance(choice, dict) and "burnside" in choice:
        bring = burnside_ring(make_group(choice["burnside"]))
        ring = burnside_coeff_ring(bring)
        parse = partial(burnside_from_json, ring=bring)
    elif isinstance(choice, dict) and "lext" in choice:
        bring = burnside_ring(make_group(choice["lext"]))
        ring = lext_coeff_ring(bring)
        parse = partial(lext_from_json, ring=bring)
    else:
        raise UsageError("ring must be \"int\", {\"burnside\": <group>}, "
                         "or {\"lext\": <group>}")
    raw = _list(obj, "series")
    if not raw:
        raise UsageError("\"series\" must be a nonempty list")
    coeffs = [parse(v) for v in raw][:N + 1]
    coeffs += [ring.zero] * (N + 1 - len(coeffs))
    m = parse(_field(obj, "exponent"))
    if isinstance(m, LExtElement):
        check_laurent_products(coeffs, m)
    return TruncatedSeries(ring, tuple(coeffs)), m, render


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
