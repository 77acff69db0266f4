"""Command-line front end.

Exit codes: 0 on success, 2 when a verification ran and failed, 1 for
usage errors (bad flags, malformed input files, budget violations).

Each verb handler returns (text, JSON value, exit code).  `main` alone
writes stdout, once, in the --format asked for, and every `error:` line;
notes, such as which cross-check ran, go to stderr.

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
from .cells import chi as cells_chi
from .errors import (InvariantViolation, ResourceLimitError, UsageError,
                     parse_fraction)
from .euler import ORACLE_GROUP_LIMIT, chi_k, chi_k_equivariant
from .groups import conjugacy_classes, make_group
from .motivic import orbifold_class_from_datum, zeta_L
from .powerstruct import check_truncation, power


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


def _note_cross_check(args, X, form: str) -> None:
    """After a requested cross-check: the oracle it ran, or why not."""
    if not args.cross_check:
        return
    print(f"note: cross-check skipped: O-side group order {X.gO.order} "
          f"exceeds the oracle limit {ORACLE_GROUP_LIMIT}"
          if X.gO.order > ORACLE_GROUP_LIMIT else
          f"note: cross-checked against the {form} oracle", file=sys.stderr)


# -- verb handlers: each returns (text, JSON value, exit code) ----------------

def _cmd_group(args) -> tuple:
    G = io.read(args.input, make_group)
    if args.action == "show":
        return (f"{G.label}: order {G.order}, {len(G.generators)} generators",
                {"label": G.label, "order": G.order,
                 "generators": len(G.generators)}, 0)
    if args.action == "classes":
        classes = conjugacy_classes(G)
        sizes = [len(c) for c in classes]
        return (f"{len(classes)} conjugacy classes, sizes {sizes}",
                {"count": len(classes), "sizes": sizes,
                 "representatives": [c[0] for c in classes]}, 0)
    ring = burnside_ring(G)
    if args.action == "subgroups":
        rows = [{"name": ring.basis_name(i),
                 "order": ring.lattice.classes[i].order,
                 "index": G.order // ring.lattice.classes[i].order}
                for i in range(ring.n)]
        return ("\n".join(f"{r['name']}: order {r['order']} index {r['index']}"
                          for r in rows), rows, 0)
    # marks
    names = [ring.basis_name(i) for i in range(ring.n)]
    text = "\n".join(f"{names[i]:>8} " +
                     " ".join(f"{v:>4}" for v in row)
                     for i, row in enumerate(ring.marks_rows))
    return text, {"basis": names,
                  "marks": [list(r) for r in ring.marks_rows]}, 0


def _cmd_chi(args) -> tuple:
    value = cells_chi(io.read(args.input, io.space_from_json))
    return str(value), value, 0


def _cmd_chi_k(args) -> tuple:
    X = io.read(args.input, io.space_from_json)
    value = chi_k(X, args.k, cross_check=args.cross_check)
    _note_cross_check(args, X, "averaging form")
    return str(value), value, 0


def _cmd_chi_k_eq(args) -> tuple:
    X = io.read(args.input, io.space_from_json)
    el = chi_k_equivariant(X, args.k, cross_check=args.cross_check)
    _note_cross_check(args, X, "tuple form")
    return el.render(), io.burnside_to_json(el), 0


def _cmd_power(args) -> tuple:
    check_truncation(args.N)
    A, m, render = io.read(args.input,
                           partial(io.power_input_from_json, N=args.N))
    out = power(A, m)
    return io.render_series(out, render), io.series_to_json(out, render), 0


def _cmd_zeta(args) -> tuple:
    check_truncation(args.N)
    out = zeta_L(io.read(args.input, io.zeta_input_from_json), args.N)
    render = lambda c: c.render()
    return io.render_series(out, render), io.series_to_json(out, render), 0


def _cmd_orbifold_class(args) -> tuple:
    el = orbifold_class_from_datum(io.read(args.input, io.datum_from_json))
    return el.render(), io.lext_to_json(el), 0


def _parse_weights(raw):
    if raw is None:
        return None
    try:
        return tuple(parse_fraction(part.strip())
                     for part in raw.split(","))
    except UsageError as e:
        raise UsageError(f"--weights: {e}") from e


def _cmd_verify(args) -> tuple:
    if args.identity in ("theorem1", "lemma1"):
        X = io.read(args.input, partial(io.finite_set_from_json,
                                       identity=args.identity))
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
    return (report.render(timings=args.timings),
            report.to_json(timings=args.timings), 0 if report.passed else 2)


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
        text, value, code = _HANDLERS[args.verb](args)
    except (UsageError, ResourceLimitError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InvariantViolation as e:
        print(f"internal invariant violated: {e}", file=sys.stderr)
        return 1
    print(json.dumps(value, sort_keys=True) if args.format == "json"
          else text)
    return code


if __name__ == "__main__":
    sys.exit(main())
