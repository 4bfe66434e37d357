#!/usr/bin/env python3
"""Summarize walkbench runs of one commit into BENCH_<short-sha>.json.

    python3 tools/bench_file.py [--runs walkbench/out] [--commit REV]
                                [--tier1-s SECONDS] [--out-dir .]

Reads every per-run JSON that ``walkbench/run.py`` writes as
``<workload>-s<seed>-t<trace>-p<pid>.json`` in the runs directory, and
writes ``BENCH_<short-sha>.json`` with the machine, the commit, and per
workload the seeds, the operation counts and the median and quartiles
(q1, q3) of every metric over the runs that report it.  Untraced runs give
the end-to-end metrics, traced runs (``--trace 1``) the per-layer ones.
``--tier1-s`` records the wall time of the tier-1 test run.  The file
records timings; it asserts none.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_NAME = re.compile(r"^(?P<workload>.+)-s(?P<seed>\d+)-t(?P<trace>[01])-p\d+\.json$")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def machine():
    import numpy
    import scipy

    return {
        "platform": platform.platform(),
        "cpu": _cpu_model(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def quartiles(values):
    """(q1, median, q3), inclusive quartiles; one value is its own quartiles."""
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return q1, med, q3


def load_runs(runs_dir):
    runs = []
    for path in sorted(Path(runs_dir).glob("*.json")):
        m = RUN_NAME.match(path.name)
        if m is None:
            continue
        body = json.loads(path.read_text(encoding="utf-8"))
        runs.append((m["workload"], int(m["seed"]), int(m["trace"]), body))
    return runs


def summarize(runs):
    by_workload = defaultdict(list)
    for workload, seed, trace, body in runs:
        by_workload[workload].append((seed, trace, body))
    out = {}
    for workload, items in sorted(by_workload.items()):
        values, units = defaultdict(list), {}
        for _, _, body in items:
            for name, metric in body["metrics"].items():
                values[name].append(metric["value"])
                units[name] = metric["unit"]
        metrics = {}
        for name in sorted(values):
            q1, med, q3 = quartiles(values[name])
            metrics[name] = {"median": med, "q1": q1, "q3": q3,
                             "runs": len(values[name]), "unit": units[name]}
        out[workload] = {
            "seeds": {f"trace{t}": sorted(s for s, tr, _ in items if tr == t)
                      for t in (0, 1)},
            "correct": all(body["correct"] for _, _, body in items),
            "attempted": sum(body["attempted"] for _, _, body in items),
            "failed": sum(body["failed"] for _, _, body in items),
            "metrics": metrics,
        }
    return out


def short_sha(rev):
    proc = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", default=str(ROOT / "walkbench" / "out"),
                   help="directory of walkbench per-run JSON files")
    p.add_argument("--commit", default="HEAD", help="the commit that was measured")
    p.add_argument("--tier1-s", type=float, default=None,
                   help="wall time of the tier-1 test run, in seconds")
    p.add_argument("--out-dir", default=str(ROOT))
    args = p.parse_args(argv)

    runs = load_runs(args.runs)
    if not runs:
        print(f"bench_file: no walkbench runs in {args.runs}", file=sys.stderr)
        return 2
    sha = short_sha(args.commit)
    payload = {"commit": sha, "machine": machine(), "tier1_wall_s": args.tier1_s,
               "workloads": summarize(runs)}
    path = Path(args.out_dir) / f"BENCH_{sha}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
