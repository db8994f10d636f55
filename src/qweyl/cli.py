"""Command-line front end: normalize, apply, act, verify.

Every subcommand pins the algebra with --variant and --rank.  verify
runs one named check suite (or all of them) and emits a deterministic
text or JSON report; the exit code is 0 when nothing failed, 1 when
any check failed, and 2 on usage or parse errors.
"""

import argparse
import sys

from . import iqg, operators, polymod, report, weyl
from .parser import ParseError, parse
from .satake import VARIANT_KINDS, Variant

SUITES = (
    "weyl-relations",
    "endo-well-defined",
    "braid",
    "omega-commute",
    "phi-relations",
    "intertwine",
    "module-homomorphism",
    "tcal",
    "iu-module",
)

APPLY_OPS = ("T", "tau", "omega", "psi", "Omega", "Psi", "phi")

# Input bounds.  Every element carries one entry per oscillator index, so an
# unbounded rank could exhaust memory before any work starts; the module
# suites walk all (degree + 1)^(rank + 1) points of the exponent grid.
MAX_RANK = 64
MODULE_SUITES = ("module-homomorphism", "tcal", "iu-module")
MAX_GRID_POINTS = 10**6


def _build_argparser():
    ap = argparse.ArgumentParser(
        prog="qweyl",
        description="Exact computations in the modified q-Weyl algebra.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--variant", choices=VARIANT_KINDS, required=True)
        p.add_argument("--rank", type=int, required=True)

    p = sub.add_parser("normalize", help="canonical form of an algebra expression")
    p.add_argument("expr")
    common(p)

    p = sub.add_parser("apply", help="apply a braid operator or morphism")
    p.add_argument("expr")
    common(p)
    p.add_argument("--op", choices=APPLY_OPS, required=True)
    p.add_argument("--i", type=int, default=None, help="braid index for T and tau")
    p.add_argument("--e", type=int, choices=(1, -1), default=1)
    p.add_argument("--kind", choices=operators.BRAID_KINDS, default="prime")

    p = sub.add_parser("act", help="act by an algebra element on a polynomial")
    p.add_argument("expr")
    common(p)
    p.add_argument("--on", required=True, metavar="POLY")
    p.add_argument("--alphabet", choices=("weyl", "iqg"), default="weyl")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITES + ("all",))
    common(p)
    p.add_argument("--e", type=int, choices=(1, -1), default=1)
    p.add_argument("--degree", type=int, default=6)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    return ap


def suite_checks(name, v, e, degree):
    if name == "weyl-relations":
        return weyl.check_weyl_relations(v)
    if name == "endo-well-defined":
        return operators.check_well_defined(v, e)
    if name == "braid":
        return operators.check_braid_suite(v, e)
    if name == "omega-commute":
        return operators.check_omega_commutes(v, e)
    if name == "phi-relations":
        return iqg.check_phi_relations(v)
    if name == "intertwine":
        return iqg.check_intertwine(v, e)
    if name == "module-homomorphism":
        return polymod.check_module_homomorphism(v, degree)
    if name == "tcal":
        return polymod.check_tcal_suite(v, e, degree)
    if name == "iu-module":
        return polymod.check_iu_module(v, e, degree)
    raise ValueError("unknown suite %r" % (name,))


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _run_verify(args, v):
    names = SUITES if args.suite == "all" else (args.suite,)
    if args.degree < 1:
        print("degree must be at least 1", file=sys.stderr)
        return 2
    side, dim = args.degree + 1, v.rank + 1
    if set(names) & set(MODULE_SUITES) and (
        side > MAX_GRID_POINTS or side**dim > MAX_GRID_POINTS
    ):
        print(
            "module grid of %d^%d points exceeds the limit of %d"
            % (side, dim, MAX_GRID_POINTS),
            file=sys.stderr,
        )
        return 2
    checks = []
    for name in names:
        checks.extend(suite_checks(name, v, args.e, args.degree))
    rep = report.make_report(args.suite, v, checks, e=args.e)
    text = report.report_json(rep) if args.format == "json" else report.report_text(rep)
    _emit(text, args.out)
    return 0 if report.failed_count(rep) == 0 else 1


def _run_apply(args, v):
    op = args.op
    if op in ("T", "tau") and args.i is None:
        print("--i is required for --op %s" % op, file=sys.stderr)
        return 2
    if op in ("T", "omega", "psi"):
        elem = parse(args.expr, "weyl", v)
        if op == "T":
            spec = operators.braid_op(v, args.i, args.e, args.kind)
        elif op == "omega":
            spec = operators.omega_op(v)
        else:
            spec = operators.psi_op(v)
        print(spec.apply(elem))
        return 0
    expr = parse(args.expr, "iqg", v)
    if op == "phi":
        print(iqg.phi(v, expr))
        return 0
    if op == "tau":
        subst = iqg.tau_subst(v, args.i, args.e, args.kind)
    elif op == "Omega":
        subst = iqg.omega_subst(v)
    else:
        subst = iqg.psi_subst(v)
    print(iqg.iexpr_str(subst.apply(expr)))
    return 0


def main(argv=None):
    ap = _build_argparser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as err:
        return err.code if err.code is not None else 0
    if args.rank > MAX_RANK:
        print("rank exceeds the limit of %d" % MAX_RANK, file=sys.stderr)
        return 2
    try:
        v = Variant(args.variant, args.rank)
    except ValueError as err:
        print(str(err), file=sys.stderr)
        return 2
    try:
        if args.command == "normalize":
            print(parse(args.expr, "weyl", v))
            return 0
        if args.command == "apply":
            return _run_apply(args, v)
        if args.command == "act":
            poly = parse(args.on, "poly", v)
            if args.alphabet == "weyl":
                elem = parse(args.expr, "weyl", v)
            else:
                elem = iqg.phi(v, parse(args.expr, "iqg", v))
            print(polymod.act(v, elem, poly))
            return 0
        return _run_verify(args, v)
    except (ParseError, ValueError) as err:
        print(str(err), file=sys.stderr)
        return 2


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
