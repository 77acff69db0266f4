"""Command-line front end.

Exit codes: 0 on success, 2 when a verification ran and failed, 1 for
usage errors (bad flags, malformed input files, budget violations).

Output is deterministic for a fixed (input, seed): text and JSON reports
omit wall-clock milliseconds unless --timings is passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from . import harness, io
from .burnside import burnside_ring
from .cells import CellSpace
from .cells import chi as cells_chi
from .errors import InvariantViolation, ResourceLimitError, UsageError
from .euler import ORACLE_GROUP_LIMIT, chi_k, chi_k_equivariant
from .groups import conjugacy_classes, make_group
from .motivic import (L, LExtElement, check_laurent_products, embed,
                      lext_coeff_ring, orbifold_class_from_datum, zeta_L)
from .powerstruct import (INT_RING, TruncatedSeries, burnside_coeff_ring,
                          check_truncation, power)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract reserves 2 for
    verification failures, so route parse errors through UsageError."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    p = _Parser(prog="equichar",
                description="Exact equivariant Euler characteristics, "
                            "power structures, and identity verification.")
    sub = p.add_subparsers(dest="verb", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=("text", "json"), default="text")

    g = sub.add_parser("group", help="inspect a finite group")
    g.add_argument("action", choices=("show", "classes", "subgroups", "marks"))
    g.add_argument("--input", required=True)
    add_format(g)

    for verb, takes_k in (("chi", False), ("chi-orb", False),
                          ("chi-k", True), ("chi-k-eq", True)):
        sp = sub.add_parser(verb)
        sp.add_argument("--input", required=True)
        if takes_k:
            sp.add_argument("--k", type=int, required=True)
        elif verb == "chi-orb":  # the orbifold characteristic is order 1
            sp.set_defaults(k=1)
        if verb != "chi":  # the plain characteristic has no second route
            sp.add_argument("--cross-check", action="store_true")
        add_format(sp)

    sp = sub.add_parser("power", help="raise a series to a ring-element power")
    sp.add_argument("--input", required=True)
    sp.add_argument("--N", type=int, required=True)
    add_format(sp)

    sp = sub.add_parser("zeta", help="zeta series of a single generator")
    sp.add_argument("--input", required=True)
    sp.add_argument("--N", type=int, required=True)
    add_format(sp)

    sp = sub.add_parser("orbifold-class")
    sp.add_argument("--input", required=True)
    add_format(sp)

    v = sub.add_parser("verify", help="check an identity degree by degree")
    vsub = v.add_subparsers(dest="identity", required=True)

    t1 = vsub.add_parser("theorem1")
    t1.add_argument("--input", required=True)
    t1.add_argument("--k", type=int, required=True)
    t1.add_argument("--N", type=int, required=True)
    t1.add_argument("--cross-check", action="store_true")

    l1 = vsub.add_parser("lemma1")
    l1.add_argument("--input", required=True)
    l1.add_argument("--N", type=int, required=True)

    ax = vsub.add_parser("axioms")
    ax.add_argument("--ring", choices=("int", "burnside", "lext"),
                    required=True)
    ax.add_argument("--trials", type=int, default=100)
    ax.add_argument("--N", type=int, default=6)
    ax.add_argument("--seed", type=int, default=0)

    pr = vsub.add_parser("props12")
    pr.add_argument("--trials", type=int, default=100)
    pr.add_argument("--N", type=int, default=5)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--weights", default=None,
                    help="comma-separated rationals, e.g. 1/2,1")

    for vp in (t1, l1, ax, pr):
        add_format(vp)
        vp.add_argument("--timings", action="store_true")
    return p


def _emit(args, text_value, json_value) -> None:
    if args.format == "json":
        print(json.dumps(json_value, sort_keys=True))
    else:
        print(text_value)


def _note_cross_check(args, X, form: str) -> None:
    """After a requested cross-check: the oracle it ran, or why not."""
    if not args.cross_check:
        return
    print(f"note: cross-check skipped: O-side group order {X.gO.order} "
          f"exceeds the oracle limit {ORACLE_GROUP_LIMIT}"
          if X.gO.order > ORACLE_GROUP_LIMIT else
          f"note: cross-checked against the {form} oracle", file=sys.stderr)


# -- verb handlers -----------------------------------------------------------

def _cmd_group(args) -> int:
    G = io.read(args.input, make_group)
    if args.action == "show":
        _emit(args,
              f"{G.label}: order {G.order}, {len(G.generators)} generators",
              {"label": G.label, "order": G.order,
               "generators": len(G.generators)})
        return 0
    if args.action == "classes":
        classes = conjugacy_classes(G)
        sizes = [len(c) for c in classes]
        _emit(args, f"{len(classes)} conjugacy classes, sizes {sizes}",
              {"count": len(classes), "sizes": sizes,
               "representatives": [c[0] for c in classes]})
        return 0
    ring = burnside_ring(G)
    if args.action == "subgroups":
        rows = [{"name": ring.basis_name(i),
                 "order": ring.lattice.classes[i].order,
                 "index": G.order // ring.lattice.classes[i].order}
                for i in range(ring.n)]
        _emit(args,
              "\n".join(f"{r['name']}: order {r['order']} index {r['index']}"
                        for r in rows),
              rows)
        return 0
    # marks
    names = [ring.basis_name(i) for i in range(ring.n)]
    text = "\n".join(f"{names[i]:>8} " +
                     " ".join(f"{v:>4}" for v in row)
                     for i, row in enumerate(ring.marks_rows))
    _emit(args, text, {"basis": names,
                       "marks": [list(r) for r in ring.marks_rows]})
    return 0


def _cmd_chi(args) -> int:
    value = cells_chi(io.read(args.input, io.space_from_json))
    _emit(args, str(value), value)
    return 0


def _cmd_chi_k(args) -> int:
    X = io.read(args.input, io.space_from_json)
    value = chi_k(X, args.k, cross_check=args.cross_check)
    _note_cross_check(args, X, "averaging form")
    _emit(args, str(value), value)
    return 0


def _cmd_chi_k_eq(args) -> int:
    X = io.read(args.input, io.space_from_json)
    el = chi_k_equivariant(X, args.k, cross_check=args.cross_check)
    _note_cross_check(args, X, "tuple form")
    _emit(args, el.render(), io.burnside_to_json(el))
    return 0


def _series_input(obj, N):
    """A power input's series padded or cut to t^N, its exponent, and the
    renderer of its coefficient ring."""
    if not isinstance(obj, dict):
        raise UsageError("expected a JSON object")
    choice = obj.get("ring", "int")
    render = lambda c: c.render()
    if choice == "int":
        def parse(v):
            if isinstance(v, bool) or not isinstance(v, int):
                raise UsageError("integer coefficient expected")
            return v
        ring, render = INT_RING, str
    elif isinstance(choice, dict) and "burnside" in choice:
        bring = burnside_ring(make_group(choice["burnside"]))
        ring = burnside_coeff_ring(bring)
        parse = partial(io.burnside_from_json, ring=bring)
    elif isinstance(choice, dict) and "lext" in choice:
        bring = burnside_ring(make_group(choice["lext"]))
        ring = lext_coeff_ring(bring)
        parse = partial(io.lext_from_json, ring=bring)
    else:
        raise UsageError("ring must be \"int\", {\"burnside\": <group>}, "
                         "or {\"lext\": <group>}")
    raw = obj.get("series")
    if not isinstance(raw, list) or not raw:
        raise UsageError("\"series\" must be a nonempty list")
    coeffs = [parse(v) for v in raw][:N + 1]
    coeffs += [ring.zero] * (N + 1 - len(coeffs))
    return (TruncatedSeries(ring, tuple(coeffs)),
            parse(io._field(obj, "exponent")), render)


def _zeta_input(obj):
    """The generator L^exp * [G/H_index] of a zeta input."""
    bring = burnside_ring(make_group(io._field(obj, "group")))
    idx = io._field(obj, "index")
    if type(idx) is not int or not 0 <= idx < bring.n:
        raise UsageError(f"index must name one of the {bring.n} basis classes")
    q = io.parse_fraction(obj["exp"]) if "exp" in obj else 0
    return L(bring, q) * embed(bring.basis(idx))


def _cmd_power(args) -> int:
    check_truncation(args.N)
    A, m, render = io.read(args.input, partial(_series_input, N=args.N))
    if isinstance(m, LExtElement):
        check_laurent_products(A, m)
    out = power(A, m)
    _emit(args, io.render_series(out, render),
          io.series_to_json(out, render))
    return 0


def _cmd_zeta(args) -> int:
    check_truncation(args.N)
    out = zeta_L(io.read(args.input, _zeta_input), args.N)
    render = lambda c: c.render()
    _emit(args, io.render_series(out, render),
          io.series_to_json(out, render))
    return 0


def _cmd_orbifold_class(args) -> int:
    datum = io.read(args.input, io.datum_from_json)
    el = orbifold_class_from_datum(datum)
    _emit(args, el.render(), io.lext_to_json(el))
    return 0


def _parse_weights(raw):
    if raw is None:
        return None
    try:
        return tuple(io.parse_fraction(part.strip())
                     for part in raw.split(","))
    except UsageError as e:
        raise UsageError(f"--weights: {e}") from e


def _finite_set(obj, identity: str):
    """A biset input; a cell space is refused as input to the identity."""
    X = io.space_from_json(obj)
    if isinstance(X, CellSpace):
        raise UsageError(f"{identity} verification needs a finite set, "
                         f"not a cell space")
    return X


def _cmd_verify(args) -> int:
    if args.identity in ("theorem1", "lemma1"):
        X = io.read(args.input, partial(_finite_set, identity=args.identity))
    if args.identity == "theorem1":
        report = harness.verify_theorem1(X, args.k, args.N,
                                         cross_check=args.cross_check)
    elif args.identity == "lemma1":
        report = harness.verify_lemma1(X, args.N)
    elif args.identity == "axioms":
        report = harness.verify_axioms(args.ring, args.trials, args.N,
                                       args.seed)
    else:
        report = harness.verify_props12(args.trials, args.N, args.seed,
                                        weights=_parse_weights(args.weights))
    if args.format == "json":
        print(json.dumps(report.to_json(timings=args.timings),
                         sort_keys=True))
    else:
        print(report.render(timings=args.timings))
    return 0 if report.passed else 2


_HANDLERS = {
    "group": _cmd_group,
    "chi": _cmd_chi,
    "chi-orb": _cmd_chi_k,
    "chi-k": _cmd_chi_k,
    "chi-k-eq": _cmd_chi_k_eq,
    "power": _cmd_power,
    "zeta": _cmd_zeta,
    "orbifold-class": _cmd_orbifold_class,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _HANDLERS[args.verb](args)
    except (UsageError, ResourceLimitError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InvariantViolation as e:
        print(f"internal invariant violated: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
