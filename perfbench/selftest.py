"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the seed moves only normalize-words, that BENCHMARK.json names
exactly the metrics the driver prints, and that tracing is complete and
harmless: the wrappers see every call of the functions they wrap, traced
reports keep the reference digests, and per-layer counts repeat exactly.
Runs two traced passes of each workload and one profiled pass in-process,
about a minute.
"""

import cProfile
import json
import os
import re
import sys
import unittest

import run
import tracing
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Bindings made by "from .x import y" and by class aliases; a wrapper on the
# defining module alone would miss every call made through these.
IMPORTED_BINDINGS = (
    "polymod.qpow",
    "polymod.qint",
    "polymod.reduce_word",
    "polymod.aggregate_check",
    "operators.reduce_word",
    "operators.qpow",
    "operators.aggregate_check",
    "operators.check_well_defined_one",
    "iqg.reduce_word",
    "iqg.qcomm",
    "iqg.equality_check",
    "weyl.qpow",
    "weyl.equality_check",
    "scalars.QScalar.__rmul__",
    "scalars.QScalar.__radd__",
)


def traced_passes():
    out = {}
    for name in workloads.NAMES:
        job = dict(workloads.job(name, workloads.DEFAULT_SEED), trace=True)
        out[name] = (job, [run.run_worker(job) for _ in range(2)])
    return out


class Seeds(unittest.TestCase):
    def test_normalize_words_inputs_follow_the_seed(self):
        a = workloads.normalize_words_items(7)
        self.assertEqual(a, workloads.normalize_words_items(7))
        self.assertNotEqual(a, workloads.normalize_words_items(8))

    def test_fixed_matrices_ignore_the_seed(self):
        for name in ("module-grid", "algebra-suites"):
            self.assertEqual(workloads.job(name, 1), workloads.job(name, 2))


class BenchmarkFile(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            self.spec = json.load(fh)

    def test_names_are_well_formed(self):
        for group in ("workloads", "end_to_end", "per_layer"):
            for entry in self.spec[group]:
                self.assertRegex(entry["name"], NAME)

    def test_names_match_the_driver(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(workloads.NAMES))
        for group, printed in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            self.assertEqual({m["name"]: m["unit"] for m in self.spec[group]}, printed)


class Tracing(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.passes = traced_passes()

    def results(self):
        for name, (job, results) in self.passes.items():
            for res in results:
                self.assertIsNotNone(res, name)
            yield name, job, results

    def test_traced_reports_match_the_reference(self):
        ref = run.load_reference()
        for name, job, results in self.results():
            for res in results:
                self.assertEqual(run.failures(job, res, workloads.DEFAULT_SEED, ref), 0, name)

    def test_counts_repeat_exactly(self):
        for name, job, (a, b) in self.results():
            counts = {k: v for k, v in a["layers"].items() if not k.endswith("_s")}
            self.assertEqual(counts, {k: b["layers"][k] for k in counts}, name)

    def test_workloads_do_what_they_were_chosen_for(self):
        for name, job, results in self.results():
            self.assertEqual(workloads.layer_violations(name, results[0]["layers"]), [], name)

    def test_wrappers_see_every_call(self):
        # cProfile counts every call of a function's code object however it
        # was reached; the wrappers must have seen exactly as many.
        sys.path.insert(0, run.SRC)
        import qweyl
        from qweyl import cli, parser, weyl

        import worker

        tracer = tracing.Tracer()
        tracer.install()
        idle = worker.Probe(enabled=False)
        prof = cProfile.Profile()
        prof.enable()
        for name in workloads.NAMES:
            job = workloads.job(name, workloads.DEFAULT_SEED)
            if "ops" in job:
                worker.run_verify_ops(cli, job["ops"], idle)
            else:
                worker.run_words(parser, weyl, worker.prepare_words(qweyl, job["items"]), idle)
        3 * qweyl.qpow(1)  # the two alias bindings no workload reaches
        1 + qweyl.qpow(1)
        prof.disable()
        profiled = {e.code: e.callcount for e in prof.getstats()}
        wrapped = {}
        for site, fn in tracer.site_fn.items():
            wrapped[fn] = wrapped.get(fn, 0) + tracer.site_calls[site]
        self.assertEqual(len(wrapped), len(tracing.TARGETS))
        for fn, calls in wrapped.items():
            self.assertEqual(calls, profiled.get(fn.__code__, 0), fn.__qualname__)
        for site in IMPORTED_BINDINGS:
            self.assertGreater(tracer.site_calls[site], 0, site)


if __name__ == "__main__":
    unittest.main()
