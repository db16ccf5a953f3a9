"""Command line entry point: compute, check, enumerate, and emit tables.

Exit codes: 0 success or all checks passed, 1 a property violation was
found, 2 usage or input error.  All sampling is driven by (seed, trial
index) through the documented generator, so identical invocations print
identical bytes.

Each bad input is refused once, by the first layer that can see it.
argparse refuses bad types, missing required options and conflicting
options.  The library refuses bad field specs, bad literals and
enumerations of an infinite field or past `ENUMERATION_LIMIT`; `main`
reports its `FieldSyntaxError` as it reports a `UsageError`, and a handler
passes on the library's other `ValueError`s as `UsageError`s only around
the calls that refuse input.  A handler checks by hand only what neither
can see, such as a `--dim` outside the ambient or a unit outside the
torsor carrier.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import checks, homotopes
from .fields import FieldSyntaxError, field_from_spec
from .gamma import gamma_global
from .involutions import (cayley_table, census_report, isotropic_census,
                          ortho_involution, torsor_G)
from .matrices import format_matrix, parse_matrix
from .reports import CheckConfig, json_line
from .subspaces import FORMS, enumerate_subspaces, span, subspace_to_json

BRIDGE_TOKENS = ("prop41", "thm33", "thm37")
SAMPLING = ("exhaustive", "trials", "seed")


class UsageError(ValueError):
    """Bad command input; reported on stderr with exit code 2."""


def _sampling(args):
    """The sampling options given to `check` or `bridge`, by name."""
    return {name: getattr(args, name) for name in SAMPLING
            if getattr(args, name) is not None}


def _check_config(args):
    """The sampling options given, over CheckConfig's defaults."""
    return CheckConfig(**_sampling(args))


def _field(spec):
    if not spec:
        raise UsageError("a field is required (try --field f5 or rat)")
    return field_from_spec(spec)


def _parse_matrix(text, field, ncols=None):
    try:
        return parse_matrix(text, field, ncols=ncols)
    except ValueError as exc:
        raise UsageError("bad matrix literal %r: %s" % (text, exc))


def _parse_subspace(text, field, ambient=None):
    return span(_parse_matrix(text, field, ncols=ambient))


def _emit(lines, args):
    """Write the lines to --out or stdout; 0, the exit code of success.

    A write error on either exits 2.  After one on stdout, stdout is pointed
    at the null device, so that the interpreter's flush of what is still
    buffered cannot fail again at exit.
    """
    text = "".join(line + "\n" for line in lines)
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if args.out:
            raise UsageError("cannot write --out: %s" % exc)
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        raise UsageError("cannot write stdout: %s" % exc)
    return 0


def _emit_reports(reports, args):
    _emit([r.to_json() for r in reports], args)
    return 0 if all(r.passed for r in reports) else 1


def _emit_table(elements, unit, table, args):
    """A Cayley table: TSV rows, or one JSON object with elements and unit."""
    if args.format == "tsv":
        lines = ["\t".join(str(v) for v in row) for row in table]
    else:
        lines = [json_line({"elements": elements, "unit": unit,
                             "table": [list(row) for row in table]})]
    return _emit(lines, args)


# -- commands ----------------------------------------------------------------


def _cmd_gamma(args):
    field = _field(args.field)
    subs = [_parse_subspace(getattr(args, name), field, args.ambient)
            for name in ("x", "a", "y", "b", "z")]
    ambients = {s.ambient for s in subs}
    if len(ambients) != 1:
        raise UsageError("mismatched ambient dimensions %s"
                         % sorted(ambients))
    return _emit([json_line(subspace_to_json(gamma_global(*subs)))], args)


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


def _cmd_lagrangian(args):
    form = FORMS[args.form](_field(args.field), args.n)
    if args.count:
        return _emit([str(len(isotropic_census(form)))], args)
    if args.list:
        return _emit([json_line(subspace_to_json(s))
                      for s in isotropic_census(form)], args)
    return _emit_reports([census_report(form)], args)


def _cmd_gtable(args):
    field = _field(args.field)
    form = FORMS[args.form](field, args.n)
    inv = ortho_involution(form)
    a = _parse_subspace(args.a, field, form.ambient)
    carrier = torsor_G(inv, a)
    if not carrier:
        raise UsageError("the torsor carrier at this parameter is empty")
    unit = carrier[0]
    if args.unit:
        unit = _parse_subspace(args.unit, field, form.ambient)
        if unit not in carrier:
            raise UsageError("unit must lie in the carrier")
    return _emit_table([subspace_to_json(s) for s in carrier],
                       carrier.index(unit),
                       cayley_table(carrier, unit, a, inv(a)), args)


def _cmd_homotope(args):
    field = _field(args.field)
    param = _parse_matrix(args.A, field, ncols=args.n)
    # classical_family refuses a parameter that is not square or does not
    # fit the family; main reports all_matrices' FieldSyntaxError itself
    try:
        fam = homotopes.classical_family(args.family, param)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.hull_check:
        return _emit_reports([homotopes.check_hull_closure(fam)], args)
    members = homotopes.members(fam)
    if args.members:
        return _emit([format_matrix(m) for m in members], args)
    index = {m: i for i, m in enumerate(members)}
    table = [[index[fam.product(x, y)] for y in members] for x in members]
    return _emit_table([format_matrix(m) for m in members],
                       index[fam.zero], table, args)


def _cmd_bridge(args):
    if args.check != "prop41" and args.family != "o":
        raise UsageError("--family selects the prop41 table only")
    if args.check == "thm37" and args.A is not None:
        raise UsageError("--A sets the prop41 and thm33 parameter only")
    sampled = _sampling(args)
    if args.check != "thm37" and sampled:
        raise UsageError("--%s samples thm37 only; %s sweeps its whole carrier"
                         % (next(iter(sampled)), args.check))
    field = _field(args.field or "fp:5")
    if args.check == "thm37":
        return _emit_reports([homotopes.graph_star_roundtrip(
            field, args.n, _check_config(args))], args)
    param = (homotopes.bridge_param(args.family, field, args.n)
             if args.A is None else _parse_matrix(args.A, field, ncols=args.n))
    try:
        report = (homotopes.family_table_bridge(args.family, param)
                  if args.check == "prop41"
                  else homotopes.unitary_transport_bridge(param))
    except ValueError as exc:
        raise UsageError(str(exc))
    return _emit_reports([report], args)


def _cmd_enumerate(args):
    field = _field(args.field)
    if args.dim is not None and not 0 <= args.dim <= args.ambient:
        raise UsageError("--dim must be in 0..%d, got %d"
                         % (args.ambient, args.dim))
    subs = list(enumerate_subspaces(field, args.ambient, dim=args.dim))
    if args.count:
        return _emit([str(len(subs))], args)
    return _emit([json_line(subspace_to_json(s)) for s in subs], args)


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


def _seed(text):
    """argparse type for --seed: SplitMix64 takes seeds modulo 2**64."""
    value = _int_at_least(text, 0)
    if value >= 1 << 64:
        raise argparse.ArgumentTypeError(
            "expected an integer below 2**64, got %r" % text)
    return value


def _add_sampling(p):
    """Options left out stay None, so `bridge` can tell them from defaults."""
    g = p.add_mutually_exclusive_group()
    g.add_argument("--exhaustive", action="store_true", default=None,
                   help="enumerate every case instead of sampling")
    g.add_argument("--trials", type=_positive_int,
                   help="number of sampled cases (default 200)")
    p.add_argument("--seed", type=_seed,
                   help="64-bit seed; case i is drawn from (seed, i)")


def _add_output(p, table=False):
    p.add_argument("--out", default="", help="write output to this file")
    if table:
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
        p.add_argument("--" + name, required=True,
                       help="basis rows, e.g. \"1,0;0,1\"")
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
    p.add_argument("--form", required=True, choices=FORMS)
    p.add_argument("--n", type=_non_negative_int, required=True,
                   help="half ambient; the form lives on K^(2n)")
    _add_field(p, required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--list", action="store_true",
                   help="print one subspace JSON per line")
    g.add_argument("--count", action="store_true",
                   help="print only how many there are")
    _add_output(p)
    p.set_defaults(handler=_cmd_lagrangian)

    p = sub.add_parser("gtable",
                       help="Cayley table of a fixed-subspace torsor")
    p.add_argument("--form", required=True, choices=FORMS)
    p.add_argument("--n", type=_non_negative_int, required=True)
    _add_field(p, required=True)
    p.add_argument("--a", required=True,
                   help="torsor parameter subspace, basis rows")
    p.add_argument("--unit", default="",
                   help="unit element (default: first carrier element)")
    _add_output(p, table=True)
    p.set_defaults(handler=_cmd_gtable)

    p = sub.add_parser("homotope",
                       help="members and tables of a deformed matrix family")
    p.add_argument("--family", required=True,
                   choices=homotopes.FAMILIES)
    p.add_argument("--n", type=_non_negative_int, required=True)
    _add_field(p, required=True)
    p.add_argument("--A", required=True,
                   help="deformation parameter matrix")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--members", action="store_true")
    g.add_argument("--table", action="store_true")
    g.add_argument("--hull-check", dest="hull_check", action="store_true")
    _add_output(p, table=True)
    p.set_defaults(handler=_cmd_homotope)

    p = sub.add_parser("bridge",
                       help="chart bridges between torsors and matrix groups")
    p.add_argument("--check", required=True, choices=BRIDGE_TOKENS)
    p.add_argument("--family", default="o",
                   choices=homotopes.BRIDGE_FAMILIES,
                   help="family of the prop41 table")
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
    """Run one command; returns its exit code, argparse's included."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.handler(args)
    except (UsageError, FieldSyntaxError) as exc:
        print("torsorlab: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
