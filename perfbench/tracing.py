"""Per-layer spans and counts for one traced pass over qweyl.

Every function in TARGETS is wrapped at every place qweyl binds it: the
defining module, each module that imported the name (``from .scalars import
qpow`` makes ``polymod.qpow`` a binding of its own), the package namespace,
and class aliases such as ``QScalar.__rmul__ = __mul__``.  Wrapping only the
defining module would silently miss the calls made through the other names.

Each wrapped call is a span.  Its self time is its duration minus the
duration of the wrapped calls it made, and a layer's self time is the sum
over its spans.  A pass closes millions of spans, so they are folded into
per-span totals as they close rather than kept one by one.
"""

import functools
import sys
import time

# (module, attribute, span, observer).  A span is "<layer>.<part>", the layer
# being the qweyl module that defines the function; the observer, if any,
# sees each call's arguments and result.
TARGETS = (
    ("scalars", "QScalar.__init__", "scalars.arith", None),
    ("scalars", "QScalar.__neg__", "scalars.arith", None),
    ("scalars", "QScalar.__add__", "scalars.add", None),
    ("scalars", "QScalar.__sub__", "scalars.arith", None),
    ("scalars", "QScalar.__rsub__", "scalars.arith", None),
    ("scalars", "QScalar.__mul__", "scalars.mul", "mul"),
    ("scalars", "QScalar.inv", "scalars.arith", None),
    ("scalars", "QScalar.__truediv__", "scalars.arith", None),
    ("scalars", "QScalar.__rtruediv__", "scalars.arith", None),
    ("scalars", "QScalar.__pow__", "scalars.arith", None),
    ("scalars", "QScalar.bar", "scalars.arith", None),
    ("scalars", "p_gcd", "scalars.gcd", "gcd"),
    ("scalars", "qpow", "scalars.const", None),
    ("scalars", "qint", "scalars.const", None),
    ("scalars", "qfact", "scalars.const", None),
    ("scalars", "qdoublefact", "scalars.const", None),
    ("scalars", "from_frac", "scalars.const", None),
    ("weyl", "reduce_word", "weyl.reduce_word", "terms"),
    ("weyl", "reduce_expr", "weyl.normal_form", None),
    ("weyl", "_append_right", "weyl.normal_form", None),
    ("weyl", "_append_left", "weyl.normal_form", None),
    ("weyl", "WeylElement.__mul__", "weyl.elem_mul", "terms"),
    ("weyl", "WeylElement.__add__", "weyl.elem", None),
    ("weyl", "WeylElement.__sub__", "weyl.elem", None),
    ("weyl", "WeylElement.__rsub__", "weyl.elem", None),
    ("weyl", "WeylElement.__neg__", "weyl.elem", None),
    ("weyl", "WeylElement.__rmul__", "weyl.elem", None),
    ("weyl", "WeylElement.__pow__", "weyl.elem", None),
    ("weyl", "WeylElement.scale", "weyl.elem", None),
    ("weyl", "EndoSpec.apply", "weyl.subst", "subst"),
    ("weyl", "EndoSpec.apply_free", "weyl.subst", "subst"),
    ("weyl", "relation_instances", "weyl.suite", None),
    ("weyl", "check_weyl_relations", "weyl.suite", None),
    ("weyl", "check_well_defined_one", "weyl.suite", None),
    ("expressions", "FreeExpr.__add__", "expressions.arith", None),
    ("expressions", "FreeExpr.__sub__", "expressions.arith", None),
    ("expressions", "FreeExpr.__rsub__", "expressions.arith", None),
    ("expressions", "FreeExpr.__neg__", "expressions.arith", None),
    ("expressions", "FreeExpr.__mul__", "expressions.free_mul", None),
    ("expressions", "FreeExpr.__rmul__", "expressions.arith", None),
    ("expressions", "FreeExpr.__pow__", "expressions.arith", None),
    ("expressions", "FreeExpr.scale", "expressions.arith", None),
    ("expressions", "qcomm", "expressions.arith", None),
    ("operators", "braid_op", "operators.table", None),
    ("operators", "omega_op", "operators.table", None),
    ("operators", "psi_op", "operators.table", None),
    ("operators", "_mword", "operators.word", None),
    ("operators", "check_well_defined", "operators.suite", None),
    ("operators", "check_braid_suite", "operators.suite", None),
    ("operators", "check_omega_commutes", "operators.suite", None),
    ("iqg", "fuse", "iqg.fuse", None),
    ("iqg", "ISubst.apply", "iqg.subst", "subst"),
    ("iqg", "phi", "iqg.table", None),
    ("iqg", "phi_table", "iqg.table", None),
    ("iqg", "tau_subst", "iqg.table", None),
    ("iqg", "omega_subst", "iqg.table", None),
    ("iqg", "psi_subst", "iqg.table", None),
    ("iqg", "iu_relation_instances", "iqg.suite", None),
    ("iqg", "check_phi_relations", "iqg.suite", None),
    ("iqg", "check_intertwine", "iqg.suite", None),
    ("polymod", "act", "polymod.act", None),
    ("polymod", "tcal", "polymod.tcal", None),
    ("polymod", "act_letter", "polymod.act_letter", None),
    ("polymod", "act_word", "polymod.poly", None),
    ("polymod", "PolyElement.__add__", "polymod.poly", None),
    ("polymod", "PolyElement.__radd__", "polymod.poly", None),
    ("polymod", "PolyElement.__sub__", "polymod.poly", None),
    ("polymod", "PolyElement.__neg__", "polymod.poly", None),
    ("polymod", "PolyElement.__mul__", "polymod.poly", None),
    ("polymod", "PolyElement.scale", "polymod.poly", None),
    ("polymod", "check_module_homomorphism", "polymod.suite", None),
    ("polymod", "check_tcal_suite", "polymod.suite", None),
    ("polymod", "check_iu_module", "polymod.suite", None),
    ("parser", "parse", "parser.parse", None),
    ("report", "equality_check", "report.check", "equality"),
    ("report", "aggregate_check", "report.check", "aggregate"),
    ("report", "skipped_check", "report.check", None),
    ("report", "make_report", "report.render", None),
    ("report", "report_json", "report.render", None),
    ("report", "report_text", "report.render", None),
    ("cli", "main", "cli.main", None),
    ("cli", "suite_checks", "cli.suite", None),
)


def _owners():
    """Every qweyl module and every class they define, with a label."""
    owners = []
    for mname, mod in sorted(sys.modules.items()):
        if mname != "qweyl" and not mname.startswith("qweyl."):
            continue
        label = mname.split(".", 1)[1] if "." in mname else mname
        owners.append((mod, label))
        for val in list(vars(mod).values()):
            if isinstance(val, type) and val.__module__ == mname:
                owners.append((val, "%s.%s" % (label, val.__name__)))
    return owners


def _pure_qpow_den(x):
    """True for an int or a QScalar whose denominator is a power of q."""
    den = getattr(x, "den", None)
    if den is None:
        return isinstance(x, int)
    return den[-1] == 1 and den.count(0) == len(den) - 1


class Tracer:
    def __init__(self):
        self.site_calls = {}  # "module.name" or "module.Class.name" -> calls
        self.site_span = {}
        self.site_fn = {}
        self.self_s = {}  # span -> seconds not covered by nested spans
        self.tally = dict.fromkeys(
            (
                "mul_scalar",
                "mul_qpow_den",
                "gcd_trivial",
                "terms_sum",
                "terms_n",
                "iqg_subst",
                "instances",
            ),
            0,
        )
        # Time spent in nested spans, one entry per open span; entry 0
        # collects the spans opened at top level.
        self._stack = [0.0]

    def install(self):
        """Wrap every target at each of its binding sites."""
        import qweyl  # noqa: F401  (the package must be imported first)

        owners = _owners()
        for modname, attr, span, observer in TARGETS:
            owner = sys.modules["qweyl." + modname]
            cls_name, _, name = attr.rpartition(".")
            if cls_name:
                owner = vars(owner)[cls_name]
            fn = vars(owner)[name]
            observe = getattr(self, "_observe_" + observer) if observer else None
            for obj, label in owners:
                for key, val in list(vars(obj).items()):
                    if val is fn:
                        site = "%s.%s" % (label, key)
                        setattr(obj, key, self._wrap(fn, span, site, observe))

    def _wrap(self, fn, span, site, observe):
        sites = self.site_calls
        selfs = self.self_s
        stack = self._stack
        clock = time.perf_counter
        sites[site] = 0
        self.site_span[site] = span
        self.site_fn[site] = fn
        selfs.setdefault(span, 0.0)

        def traced(*args, **kwargs):
            sites[site] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                selfs[span] += dt - stack.pop()
                stack[-1] += dt
            if observe is not None:
                observe(args, out)
            return out

        return functools.wraps(fn)(traced)

    def _observe_mul(self, args, out):
        a, b = args
        if out is NotImplemented:
            return
        self.tally["mul_scalar"] += 1
        if _pure_qpow_den(a) and _pure_qpow_den(b):
            self.tally["mul_qpow_den"] += 1

    def _observe_gcd(self, args, out):
        if out == (1,):
            self.tally["gcd_trivial"] += 1

    def _observe_terms(self, args, out):
        terms = getattr(out, "terms", None)
        if terms is not None:
            self.tally["terms_sum"] += len(terms)
            self.tally["terms_n"] += 1

    def _observe_subst(self, args, out):
        # Substitutions the iqg layer builds: the ISubst tables tau, Omega
        # and Psi, and phi with its fused composites (EndoSpecs "phi...").
        if args[0].label.startswith(("phi", "tau", "Omega", "Psi")):
            self.tally["iqg_subst"] += 1

    def _observe_equality(self, args, out):
        self.tally["instances"] += 1

    def _observe_aggregate(self, args, out):
        if out.status == "pass":
            self.tally["instances"] += int(out.lhs.split()[2])  # "agree on N instances"

    def calls(self, span):
        return sum(n for s, n in self.site_calls.items() if self.site_span[s] == span)

    def layer_self(self, layer):
        return sum(t for s, t in self.self_s.items() if s.split(".")[0] == layer)

    def metrics(self, wall):
        """Per-layer metrics of the pass just traced, which took ``wall`` seconds."""
        from qweyl import polymod

        c, t, st = self.calls, self.tally, self.self_s
        gcd_calls = c("scalars.gcd")
        return {
            "scalars.mul_calls": c("scalars.mul"),
            "scalars.add_calls": c("scalars.add"),
            "scalars.gcd_calls": gcd_calls,
            "scalars.gcd_trivial_share": t["gcd_trivial"] / gcd_calls if gcd_calls else 0.0,
            "scalars.mul_qpow_den_share": (
                t["mul_qpow_den"] / t["mul_scalar"] if t["mul_scalar"] else 0.0
            ),
            "scalars.self_s": self.layer_self("scalars"),
            "weyl.reduce_word_calls": c("weyl.reduce_word"),
            "weyl.elem_mul_calls": c("weyl.elem_mul"),
            "weyl.normal_form_self_s": (
                st["weyl.reduce_word"] + st["weyl.normal_form"] + st["weyl.elem_mul"]
            ),
            "weyl.subst_calls": c("weyl.subst"),
            "weyl.subst_self_s": st["weyl.subst"],
            "weyl.terms_out_mean": t["terms_sum"] / t["terms_n"] if t["terms_n"] else 0.0,
            "weyl.self_s": self.layer_self("weyl"),
            "expressions.free_mul_calls": c("expressions.free_mul"),
            "expressions.self_s": self.layer_self("expressions"),
            "operators.table_builds": c("operators.table"),
            "operators.self_s": self.layer_self("operators"),
            "iqg.fuse_calls": c("iqg.fuse"),
            "iqg.fuse_self_s": st["iqg.fuse"],
            "iqg.subst_apply_calls": t["iqg_subst"],
            "iqg.self_s": self.layer_self("iqg"),
            "polymod.act_calls": c("polymod.act"),
            "polymod.act_self_s": st["polymod.act"],
            "polymod.tcal_calls": c("polymod.tcal"),
            "polymod.tcal_self_s": st["polymod.tcal"],
            "polymod.act_letter_calls": c("polymod.act_letter"),
            "polymod.act_cache_entries": sum(len(d) for d in polymod._ACT_CACHE.values()),
            "polymod.self_s": self.layer_self("polymod"),
            "parser.parse_calls": c("parser.parse"),
            "parser.self_s": self.layer_self("parser"),
            "report.checks": c("report.check"),
            "report.instances": t["instances"],
            "report.self_s": self.layer_self("report"),
            "cli.self_s": self.layer_self("cli"),
            "trace.unattributed_s": wall - self._stack[0],
        }
