"""Command line entry point: compute, check, enumerate, and emit tables.

Exit codes: 0 success or all checks passed, 1 a property violation was
found, 2 usage or input error.  All sampling is driven by (seed, trial
index) through the documented generator, so identical invocations print
identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import checks, homotopes
from .fields import FieldSyntaxError, field_from_spec
from .gamma import gamma_global
from .involutions import (InvolutionError, cayley_table, census_report,
                          group_of_torsor, isotropic_census, ortho_involution,
                          torsor_G)
from .matrices import format_matrix, parse_matrix
from .reports import CheckConfig
from .subspaces import (enumerate_subspaces, span, standard_forms,
                        subspace_to_json)

FORM_NAMES = ("symplectic", "split", "diag")
BRIDGE_TOKENS = ("prop41", "thm33", "thm37")


class UsageError(ValueError):
    """Bad command input; reported on stderr with exit code 2."""


def _check_config(args):
    """The sampling options of `check` and `bridge` as a CheckConfig."""
    return CheckConfig(exhaustive=args.exhaustive, trials=args.trials,
                       seed=args.seed)


def _field(spec):
    if not spec:
        raise UsageError("a field is required (try --field f5 or rat)")
    try:
        return field_from_spec(spec)
    except FieldSyntaxError as exc:
        raise UsageError(str(exc))


def _parse_matrix(text, field, ncols=None):
    try:
        return parse_matrix(text, field, ncols=ncols)
    except (FieldSyntaxError, ValueError) as exc:
        raise UsageError("bad matrix literal %r: %s" % (text, exc))


def _parse_subspace(text, field, ambient=None):
    m = _parse_matrix(text, field, ncols=ambient)
    if ambient is not None and m.ncols != ambient:
        raise UsageError("literal %r has ambient %d, expected %d"
                         % (text, m.ncols, ambient))
    return span(m.ncols, m)


def _emit(lines, args):
    """Write the lines to --out or stdout; 0, the exit code of success."""
    text = "".join(line + "\n" for line in lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _json_line(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _emit_reports(reports, args):
    _emit([r.to_json() for r in reports], args)
    return 0 if all(r.passed for r in reports) else 1


def _emit_table(elements, unit, table, args):
    """A Cayley table: TSV rows, or one JSON object with elements and unit."""
    if args.format == "tsv":
        lines = ["\t".join(str(v) for v in row) for row in table]
    else:
        lines = [_json_line({"elements": elements, "unit": unit,
                             "table": [list(row) for row in table]})]
    return _emit(lines, args)


# -- commands ----------------------------------------------------------------


def _cmd_gamma(args):
    field = _field(args.field)
    ambient = args.ambient
    subs = {}
    for name in ("x", "a", "y", "b", "z"):
        text = getattr(args, name)
        if text is None:
            raise UsageError("gamma needs all five of --x --a --y --b --z")
        subs[name] = _parse_subspace(text, field, ambient)
    ambients = {s.ambient for s in subs.values()}
    if len(ambients) != 1:
        raise UsageError("mismatched ambient dimensions %s"
                         % sorted(ambients))
    result = gamma_global(subs["x"], subs["a"], subs["y"], subs["b"],
                          subs["z"])
    return _emit([_json_line(subspace_to_json(result))], args)


def _cmd_check(args):
    if args.list:
        return _emit(["%s\t%s\t%s" % row for row in checks.list_suites()],
                     args)
    if not args.suite:
        raise UsageError("check needs --suite <name> or --list")
    field = _field(args.field)
    if args.ambient is None:
        raise UsageError("check needs --ambient")
    cc = _check_config(args)
    if args.suite == "all":
        reports = checks.run_all(field, args.ambient, cc)
    else:
        if args.suite not in checks.SUITES:
            raise UsageError("unknown suite %r; try: check --list"
                             % args.suite)
        try:
            reports = checks.run_suite(args.suite, field, args.ambient, cc)
        except checks.SuiteNotApplicable as exc:
            raise UsageError("suite %s: %s" % (args.suite, exc))
    return _emit_reports(reports, args)


def _form_for(args, field):
    return standard_forms(field, args.n)[args.form]


def _cmd_lagrangian(args):
    field = _field(args.field)
    if field.size is None:
        raise UsageError("lagrangian enumeration needs a finite field")
    form = _form_for(args, field)
    if args.count:
        return _emit([str(len(isotropic_census(form)))], args)
    if args.list:
        return _emit([_json_line(subspace_to_json(s))
                      for s in isotropic_census(form)], args)
    return _emit_reports([census_report(form)], args)


def _cmd_gtable(args):
    field = _field(args.field)
    if field.size is None:
        raise UsageError("gtable enumeration needs a finite field")
    form = _form_for(args, field)
    try:
        inv = ortho_involution(form)
    except InvolutionError as exc:
        raise UsageError(str(exc))
    a = _parse_subspace(args.a, field, form.ambient)
    carrier, product = torsor_G(inv, a)
    if not carrier:
        raise UsageError("the torsor carrier at this parameter is empty")
    unit = carrier[0]
    if args.unit:
        unit = _parse_subspace(args.unit, field, form.ambient)
    try:
        view = group_of_torsor(carrier, unit)
    except ValueError as exc:
        raise UsageError(str(exc))
    return _emit_table([subspace_to_json(s) for s in view.elements],
                       view.index(view.unit), cayley_table(view, product),
                       args)


def _family(args, field):
    if args.A is None:
        raise UsageError("homotope needs --A <matrix>")
    param = _parse_matrix(args.A, field, ncols=args.n)
    if param.nrows != args.n or param.ncols != args.n:
        raise UsageError("--A must be %d x %d here" % (args.n, args.n))
    try:
        return homotopes.classical_family(args.family, field, param)
    except ValueError as exc:
        raise UsageError(str(exc))


def _cmd_homotope(args):
    field = _field(args.field)
    fam = _family(args, field)
    if args.hull_check:
        return _emit_reports([homotopes.check_hull_closure(fam)], args)
    if field.size is None:
        raise UsageError("member enumeration needs a finite field")
    members = homotopes.members(fam)
    if args.members:
        return _emit([format_matrix(m) for m in members], args)
    if args.table:
        h = fam.hom
        index = {m: i for i, m in enumerate(members)}
        table = [[index[h.product(x, y)] for y in members] for x in members]
        return _emit_table([format_matrix(m) for m in members],
                           index[h.zero], table, args)
    raise UsageError("homotope needs one of --members, --table, --hull-check")


def _cmd_bridge(args):
    field = _field(args.field or "fp:5")
    try:
        if args.check == "thm37":
            report = homotopes.graph_star_roundtrip(field, args.n,
                                                    _check_config(args))
        else:
            param = (homotopes.bridge_param(args.family, field, args.n)
                     if args.A is None
                     else _parse_matrix(args.A, field, ncols=args.n))
            report = (homotopes.family_table_bridge(args.family, field, param)
                      if args.check == "prop41"
                      else homotopes.unitary_transport_bridge(field, param))
    except (ValueError, FieldSyntaxError) as exc:
        raise UsageError(str(exc))
    return _emit_reports([report], args)


def _cmd_enumerate(args):
    field = _field(args.field)
    try:
        subs = list(enumerate_subspaces(field, args.ambient, dim=args.dim))
    except FieldSyntaxError as exc:
        raise UsageError(str(exc))
    if args.count:
        return _emit([str(len(subs))], args)
    return _emit([_json_line(subspace_to_json(s)) for s in subs], args)


# -- argument parsing --------------------------------------------------------


def _add_field(p, required=False):
    p.add_argument("--field", required=required,
                   help="field spec: rat, gauss, fp:<p>, fp2:<p>, f<q>")


def _int_at_least(text, low):
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(
            "expected an integer of at least %d, got %r" % (low, text))
    return value


def _positive_int(text):
    """argparse type for --trials: zero or fewer cases would pass vacuously."""
    return _int_at_least(text, 1)


def _non_negative_int(text):
    """argparse type for --ambient and --n: a size below 0 means nothing."""
    return _int_at_least(text, 0)


def _add_sampling(p):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--exhaustive", action="store_true",
                   help="enumerate every case instead of sampling")
    g.add_argument("--trials", type=_positive_int, default=200,
                   help="number of sampled cases (default 200)")
    p.add_argument("--seed", type=int, default=0,
                   help="64-bit seed; case i is drawn from (seed, i)")


def _add_output(p):
    p.add_argument("--out", default="", help="write output to this file")
    p.add_argument("--format", choices=("json", "tsv"), default="json",
                   help="table output format (reports are always JSON)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="torsorlab",
        description="Exact subspace geometry: pentary products, involutions,"
                    " deformed matrix groups, and their law checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="evaluate the pentary product")
    _add_field(p, required=True)
    p.add_argument("--ambient", type=_non_negative_int, default=None,
                   help="ambient dimension (needed for 0 literals)")
    for name in ("x", "a", "y", "b", "z"):
        p.add_argument("--" + name, help="basis rows, e.g. \"1,0;0,1\"")
    _add_output(p)
    p.set_defaults(handler=_cmd_gamma)

    p = sub.add_parser("check", help="run a named law suite")
    p.add_argument("--suite", help="suite name, or: all")
    p.add_argument("--list", action="store_true",
                   help="list suites with the invariants they validate")
    _add_field(p)
    p.add_argument("--ambient", type=_non_negative_int, default=None)
    _add_sampling(p)
    _add_output(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("lagrangian",
                       help="enumerate middle-dimension isotropic subspaces")
    p.add_argument("--form", required=True, choices=FORM_NAMES)
    p.add_argument("--n", type=_non_negative_int, required=True,
                   help="half ambient; the form lives on K^(2n)")
    _add_field(p, required=True)
    p.add_argument("--list", action="store_true",
                   help="print one subspace JSON per line")
    p.add_argument("--count", action="store_true",
                   help="print only how many there are")
    _add_output(p)
    p.set_defaults(handler=_cmd_lagrangian)

    p = sub.add_parser("gtable",
                       help="Cayley table of a fixed-subspace torsor")
    p.add_argument("--form", required=True, choices=FORM_NAMES)
    p.add_argument("--n", type=_non_negative_int, required=True)
    _add_field(p, required=True)
    p.add_argument("--a", required=True,
                   help="torsor parameter subspace, basis rows")
    p.add_argument("--unit", default="",
                   help="unit element (default: first carrier element)")
    _add_output(p)
    p.set_defaults(handler=_cmd_gtable)

    p = sub.add_parser("homotope",
                       help="members and tables of a deformed matrix family")
    p.add_argument("--family", required=True,
                   choices=homotopes.FAMILY_NAMES)
    p.add_argument("--n", type=_non_negative_int, required=True)
    _add_field(p, required=True)
    p.add_argument("--A", help="deformation parameter matrix")
    p.add_argument("--members", action="store_true")
    p.add_argument("--table", action="store_true")
    p.add_argument("--hull-check", dest="hull_check", action="store_true")
    _add_output(p)
    p.set_defaults(handler=_cmd_homotope)

    p = sub.add_parser("bridge",
                       help="chart bridges between torsors and matrix groups")
    p.add_argument("--check", required=True, choices=BRIDGE_TOKENS)
    p.add_argument("--family", default="o", choices=("o", "sp"))
    p.add_argument("--n", type=_non_negative_int, default=1)
    _add_field(p)
    p.add_argument("--A", help="symmetric (o) or antisymmetric (sp) matrix")
    _add_sampling(p)
    _add_output(p)
    p.set_defaults(handler=_cmd_bridge)

    p = sub.add_parser("enumerate", help="list subspaces of K^n")
    _add_field(p, required=True)
    p.add_argument("--ambient", type=_non_negative_int, required=True)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--count", action="store_true")
    _add_output(p)
    p.set_defaults(handler=_cmd_enumerate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print("torsorlab: %s" % exc, file=sys.stderr)
        return 2
    except FieldSyntaxError as exc:
        print("torsorlab: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
