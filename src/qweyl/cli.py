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

# Each suite's checks for (v, e, degree).  The rows look their suite up at
# call time, so a wrapper or patch on the module function applies.
SUITES = {
    "weyl-relations": lambda v, e, degree: weyl.check_weyl_relations(v),
    "endo-well-defined": lambda v, e, degree: operators.check_well_defined(v, e),
    "braid": lambda v, e, degree: operators.check_braid_suite(v, e),
    "omega-commute": lambda v, e, degree: operators.check_omega_commutes(v, e),
    "phi-relations": lambda v, e, degree: iqg.check_phi_relations(v),
    "intertwine": lambda v, e, degree: iqg.check_intertwine(v, e),
    "module-homomorphism": lambda v, e, degree: polymod.check_module_homomorphism(
        v, degree
    ),
    "tcal": lambda v, e, degree: polymod.check_tcal_suite(v, e, degree),
    "iu-module": lambda v, e, degree: polymod.check_iu_module(v, e, degree),
}

# Each apply operator: the alphabet its input is parsed in, and its result on
# the parsed input x given (v, args).
APPLY_OPS = {
    "T": ("weyl", lambda v, a, x: operators.braid_op(v, a.i, a.e, a.kind).apply(x)),
    "tau": ("iqg", lambda v, a, x: iqg.tau_subst(v, a.i, a.e, a.kind).apply(x)),
    "omega": ("weyl", lambda v, a, x: operators.omega_op(v).apply(x)),
    "psi": ("weyl", lambda v, a, x: operators.psi_op(v).apply(x)),
    "Omega": ("iqg", lambda v, a, x: iqg.omega_subst(v).apply(x)),
    "Psi": ("iqg", lambda v, a, x: iqg.psi_subst(v).apply(x)),
    "phi": ("iqg", lambda v, a, x: iqg.phi(v, x)),
}

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
    p.add_argument("suite", choices=(*SUITES, "all"))
    common(p)
    p.add_argument("--e", type=int, choices=(1, -1), default=1)
    p.add_argument("--degree", type=int, default=6)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    return ap


def suite_checks(name, v, e, degree):
    checks = SUITES.get(name)
    if checks is None:
        raise ValueError("unknown suite %r" % (name,))
    return checks(v, e, degree)


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
    if args.op in ("T", "tau") and args.i is None:
        print("--i is required for --op %s" % args.op, file=sys.stderr)
        return 2
    alphabet, result = APPLY_OPS[args.op]
    print(result(v, args, parse(args.expr, alphabet, v)))
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
