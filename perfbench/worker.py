"""One cold benchmark worker: a fresh interpreter that runs one pass of a job.

Reads a job (see workloads.job) as JSON on stdin, imports qweyl, prepares the
inputs, then runs every operation once and prints one JSON line:

- ready: time.monotonic() when set-up finished (the parent took the same
  clock before spawning, so the difference is the set-up time);
- wall_s: wall time of the operations, probe time excluded;
- speed: the host speed the probe measured during the pass (see Probe);
- rss_kb: the process's own peak RSS;
- what the operations produced: per report its exit code, sha256 and time,
  or for expressions the number of left/right mismatches and a digest of the
  rendered normal forms;
- with "trace" set, the per-layer metrics and per-binding-site call counts
  (a traced pass runs no probe).

The parent puts the checkout's src/ on PYTHONPATH.
"""

import gc
import hashlib
import io
import json
import resource
import sys
import time
from contextlib import redirect_stdout

REFERENCE_LOOP_N = 20000
REFERENCE_LOOP_S = 0.02  # nominal time of one reference loop: speed 1.0
PROBE_EVERY_S = 0.15


def reference_loop():
    """Fixed pure-Python work with qweyl's mix of tuple, dict and int traffic."""
    d = {}
    for i in range(REFERENCE_LOOP_N):
        k = (i & 63, i % 7)
        a = (i, i + 1, i + 2)
        b = tuple(x * 3 - 1 for x in a)
        d[k] = d.get(k, 0) + b[1] * a[2]
    return d


class Probe:
    """Host speed, sampled between operations with the reference loop.

    On a shared host other tenants slow this CPU by up to half for tens of
    seconds at a time.  The reference loop slows with it, so times scaled
    by ``speed`` (nominal loop time / measured loop time) stay steady where
    raw times do not.  The loop never calls qweyl, so no change to the
    program under test can move it.  The collector is off while it runs, so
    a large heap left by the program cannot slow it either.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.spent = 0.0
        self.runs = 0
        self.due = 0.0

    def between_ops(self):
        if self.enabled and time.perf_counter() >= self.due:
            self.run()

    def run(self):
        gc.disable()
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        gc.enable()
        self.spent += t1 - t0
        self.runs += 1
        self.due = t1 + PROBE_EVERY_S

    def speed(self):
        return REFERENCE_LOOP_S * self.runs / self.spent if self.runs else 1.0


def run_verify_ops(cli, ops, probe):
    out = []
    for op in ops:
        probe.between_ops()
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(buf):
                rc = cli.main(op["argv"])
        except Exception as err:  # an operation that raises counts as failed
            rc = repr(err)
        dt = time.perf_counter() - t0
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        out.append({"rc": rc, "sha256": digest, "s": dt})
    return {"ops": out}


def prepare_words(qweyl, items):
    variants = {}
    prepared = []
    for it in items:
        key = (it["kind"], it["rank"])
        if key not in variants:
            variants[key] = qweyl.Variant(*key)
        c = it["coeff"]
        if c[0] == "qpow":
            coeff = qweyl.qpow(c[1])
        elif c[0] == "frac":
            coeff = qweyl.from_frac(c[1], c[2])
        else:
            coeff = 1
        word = tuple((name, idx) for name, idx in it["word"])
        prepared.append((it["text"], variants[key], word, coeff))
    return prepared


def run_words(parser, weyl, prepared, probe):
    h = hashlib.sha256()
    mismatches = 0
    for text, v, word, coeff in prepared:
        probe.between_ops()
        try:
            left = parser.parse(text, "weyl", v)
            right = weyl.reduce_word(v, word, coeff, strategy="right")
            rendered = str(left)
            ok = left == right
        except Exception as err:  # an expression that raises counts as failed
            rendered, ok = "error: %r" % (err,), False
        h.update(rendered.encode() + b"\n")
        mismatches += not ok
    return {"mismatches": mismatches, "sha256": h.hexdigest()}


def main():
    job = json.load(sys.stdin)
    import qweyl
    from qweyl import cli, parser, weyl

    prepared = prepare_words(qweyl, job["items"]) if "items" in job else None
    ready = time.monotonic()

    tracer = None
    if job.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    probe = Probe(enabled=tracer is None)
    probe.between_ops()
    t0 = time.perf_counter()
    spent0 = probe.spent
    if prepared is None:
        result = run_verify_ops(cli, job["ops"], probe)
    else:
        result = run_words(parser, weyl, prepared, probe)
    wall = time.perf_counter() - t0 - (probe.spent - spent0)
    if probe.enabled:
        probe.run()

    result.update(
        ready=ready,
        wall_s=wall,
        speed=probe.speed(),
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer is not None:
        result["layers"] = tracer.metrics(wall)
        result["sites"] = tracer.site_calls
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
