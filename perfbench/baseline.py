"""One-off baseline of ``qweyl verify all`` for each (variant, rank, degree, e) cell.

    python3 perfbench/baseline.py

Writes perfbench/baseline.json.  Cells: both variants at ranks 1-3 with
degree 6, and at rank 4 with degree 2, each for e = +1 and e = -1.  Every cell
runs in its own cold worker, one at a time, and records the raw wall time of
the verdict, the worker's peak RSS, the host speed its probe measured (see
worker.Probe), the exit code and the report's sha256.  Not part of the gated
benchmark: the whole grid takes a few minutes.
"""

import json
import os
import platform

import run
import workloads

CELLS = [(kind, rank, 6) for kind in ("jmath", "imath") for rank in (1, 2, 3)]
CELLS += [(kind, 4, 2) for kind in ("jmath", "imath")]
OUT = os.path.join(run.HERE, "baseline.json")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    rows = []
    for kind, rank, degree in CELLS:
        for e in (1, -1):
            op = workloads.verify_op("all", kind, rank, e, degree)
            res = run.run_worker({"workload": "baseline", "ops": [op], "trace": False})
            if res is None:
                raise SystemExit("%s: worker died" % op["key"])
            got = res["ops"][0]
            row = {
                "cell": op["key"],
                "exit": got["rc"],
                "wall_s": round(res["wall_s"], 3),
                "peak_rss_mb": round(res["rss_kb"] * 1024 / 1e6, 1),
                "host_speed": round(res["speed"], 3),
                "sha256": got["sha256"],
            }
            print(json.dumps(row), flush=True)
            rows.append(row)
    doc = {
        "command": "python3 perfbench/baseline.py",
        "host": {
            "cpu": cpu_model(),
            "cores": os.cpu_count(),
            "python": platform.python_version(),
        },
        "cells": rows,
    }
    with open(OUT, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print("wrote %s" % OUT)


if __name__ == "__main__":
    main()
