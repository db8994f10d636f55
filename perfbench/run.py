"""qweyl benchmark driver: cold-process workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload module-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 10
    python3 perfbench/run.py --record-reference

Run from anywhere; the checkout is the directory above this file and the
package is imported from its src/.  A run is a closed loop with one client:
it starts one cold worker process (worker.py) at a time, each paying for
interpreter start, ``import qweyl`` and empty caches as a ``qweyl verify``
user does, and keeps starting them until --seconds is used up.

--trace 0 reports the end-to-end metrics, as medians over the workers:
  wall_s          time to verdict of one pass, set-up excluded
  setup_s         spawn to qweyl imported and inputs ready
  peak_rss_mb     the worker's own peak RSS
  verified_share  1 - failed_share: operations that passed / attempted
wall_s and setup_s are seconds at reference host speed: each worker's times
are multiplied by the speed its probe measured (worker.Probe), because the
raw times on a shared host drift by a third between minutes.  The raw
medians are printed alongside.
An operation is one report or one expression.  It fails on a non-zero exit,
a report sha256 other than the one recorded in reference.json, or a left
normal form that differs from the right one (and, at the default seed, a
digest of the rendered normal forms other than the recorded one).

--trace 1 spends half the time on untraced workers, then runs two traced
workers (tracing.py) and reports the per-layer metrics of the first.  Both
must produce the reference digests and exactly the same counts.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exit code 2 without a result when the checkout has no package.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")

MIN_WORKERS = 3
WORKER_TIMEOUT = 150

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verified_share": "share",
}

PER_LAYER = {
    "scalars.mul_calls": "count",
    "scalars.add_calls": "count",
    "scalars.gcd_calls": "count",
    "scalars.gcd_trivial_share": "share",
    "scalars.mul_qpow_den_share": "share",
    "scalars.self_s": "s",
    "weyl.reduce_word_calls": "count",
    "weyl.elem_mul_calls": "count",
    "weyl.normal_form_self_s": "s",
    "weyl.subst_calls": "count",
    "weyl.subst_self_s": "s",
    "weyl.terms_out_mean": "terms",
    "weyl.self_s": "s",
    "expressions.free_mul_calls": "count",
    "expressions.self_s": "s",
    "operators.table_builds": "count",
    "operators.self_s": "s",
    "iqg.fuse_calls": "count",
    "iqg.fuse_self_s": "s",
    "iqg.subst_apply_calls": "count",
    "iqg.self_s": "s",
    "polymod.act_calls": "count",
    "polymod.act_self_s": "s",
    "polymod.tcal_calls": "count",
    "polymod.tcal_self_s": "s",
    "polymod.act_letter_calls": "count",
    "polymod.act_cache_entries": "count",
    "polymod.self_s": "s",
    "parser.parse_calls": "count",
    "parser.self_s": "s",
    "report.checks": "count",
    "report.instances": "count",
    "report.self_s": "s",
    "cli.self_s": "s",
}
PER_LAYER.update({"cli.suite_s.%s" % s: "s" for s in workloads.SUITES})
PER_LAYER.update({"trace.overhead_s": "s", "trace.unattributed_s": "s"})


def run_worker(job):
    """Run one cold worker on ``job``; returns its result, or None if it died."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    # Import from cached bytecode, as an installed package does, whatever the
    # caller's environment says: compiling the sources doubles set-up time.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        text=True,
    )
    try:
        out, err = proc.communicate(json.dumps(job), timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("worker timed out after %d s" % WORKER_TIMEOUT, file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("worker exited %d:\n%s" % (proc.returncode, err[-2000:]), file=sys.stderr)
        return None
    res = json.loads(out.splitlines()[-1])
    res["setup_s"] = res["ready"] - spawned
    return res


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def failures(job, res, seed, ref):
    """Number of the job's operations that failed in this worker's pass."""
    if "items" in job:
        total = len(job["items"])
        if res is None:
            return total
        want = ref["normalize-words"]
        if seed == want["seed"] and len(job["items"]) == want["count"]:
            if res["sha256"] != want["sha256"]:
                return total
        return res["mismatches"]
    if res is None:
        return len(job["ops"])
    want = ref[job["workload"]]
    return sum(
        1
        for op, got in zip(job["ops"], res["ops"])
        if got["rc"] != 0 or got["sha256"] != want.get(op["key"])
    )


def suite_split(job, res):
    """Seconds per verify suite in one worker's pass (all 0 for expressions)."""
    split = dict.fromkeys(workloads.SUITES, 0.0)
    for op, got in zip(job.get("ops", ()), res.get("ops", ())):
        split[op["argv"][1]] += got["s"]
    return split


class Run:
    """Workers of one run and the bookkeeping of their operations."""

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.job = workloads.job(name, seed)
        self.ops_per_pass = len(self.job.get("ops") or self.job["items"])
        self.ref = load_reference()
        self.attempted = 0
        self.failed = 0
        self.samples = []

    def one(self, trace=False):
        job = dict(self.job, trace=trace)
        res = run_worker(job)
        self.attempted += self.ops_per_pass
        self.failed += failures(job, res, self.seed, self.ref)
        return res

    def untraced(self, seconds):
        start = time.monotonic()
        while True:
            res = self.one()
            if res is not None:
                self.samples.append(res)
            passes = self.attempted // self.ops_per_pass
            elapsed = time.monotonic() - start
            if passes >= MIN_WORKERS and elapsed * (passes + 1) / passes > seconds:
                break
        if not self.samples:
            raise SystemExit("no worker finished; nothing to measure")

    def median(self, key):
        return statistics.median(s[key] for s in self.samples)


def end_to_end(run):
    return {
        "wall_s": statistics.median(s["wall_s"] * s["speed"] for s in run.samples),
        "setup_s": statistics.median(s["setup_s"] * s["speed"] for s in run.samples),
        "peak_rss_mb": statistics.median(s["rss_kb"] * 1024 / 1e6 for s in run.samples),
        "verified_share": 1.0 - run.failed / run.attempted,
    }


def per_layer(run, problems):
    traced = [run.one(trace=True) for _ in range(2)]
    if None in traced:
        raise SystemExit("a traced worker died; no per-layer metrics")
    m, again = traced[0]["layers"], traced[1]["layers"]
    for k in m:
        if not k.endswith("_s") and m[k] != again[k]:
            problems.append("%s differs between two traced passes: %r vs %r" % (k, m[k], again[k]))
    problems.extend(workloads.layer_violations(run.name, m))
    splits = [suite_split(run.job, s) for s in run.samples]
    for suite in workloads.SUITES:
        m["cli.suite_s.%s" % suite] = statistics.median(sp[suite] for sp in splits)
    m["trace.overhead_s"] = traced[0]["wall_s"] - run.median("wall_s")
    return m


def measure(name, seed, seconds, trace):
    """One benchmark run; returns the result object printed as the last line."""
    run = Run(name, seed)
    problems = []
    if trace:
        run.untraced(seconds / 2)
        metrics, units = per_layer(run, problems), PER_LAYER
    else:
        run.untraced(seconds)
        metrics, units = end_to_end(run), END_TO_END
    for p in problems:
        print("%s: %s" % (name, p), file=sys.stderr)
    print(
        "%s seed=%d: %d cold workers, %d operations, %d failed"
        % (name, seed, len(run.samples), run.attempted, run.failed)
    )
    if not trace:
        print(
            "  raw medians: wall %.4g s, setup %.4g s; host speed %.3f"
            % (run.median("wall_s"), run.median("setup_s"), run.median("speed"))
        )
    printed = dict(metrics, failed_share=run.failed / run.attempted)
    for k, unit in dict(units, failed_share="share").items():
        print("  %-34s %14.6g %s" % (k, printed[k], unit))
    return {
        "correct": run.failed == 0 and not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def record_reference():
    """Write reference.json from one pass of each workload at the default seed."""
    ref = {}
    for name in workloads.NAMES:
        job = workloads.job(name, workloads.DEFAULT_SEED)
        res = run_worker(dict(job, trace=False))
        if res is None:
            raise SystemExit("%s: worker died" % name)
        if "items" in job:
            if res["mismatches"]:
                raise SystemExit("%s: %d left/right mismatches" % (name, res["mismatches"]))
            ref[name] = {
                "seed": workloads.DEFAULT_SEED,
                "count": len(job["items"]),
                "sha256": res["sha256"],
            }
            continue
        ref[name] = {}
        for op, got in zip(job["ops"], res["ops"]):
            if got["rc"] != 0:
                raise SystemExit("%s: exit %r" % (op["key"], got["rc"]))
            ref[name][op["key"]] = got["sha256"]
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % REFERENCE)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qweyl", "__init__.py")):
        print("no qweyl package under %s" % SRC, file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {n: measure(n, args.seed, args.seconds, args.trace) for n in names}
    last = results[names[0]] if len(names) == 1 else results
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
