"""Self-test of the benchmark at a small ("smoke") size.

    python3 walkbench/selftest.py

Checks that
  * every workload prints every metric that BENCHMARK.json names, with its
    unit, in both trace modes, and reports no failed operation;
  * the correctness checks reject a deliberately shifted closed form, both
    point by point and in aggregate;
  * cli_solve_disk_many writes byte-identical CSVs on two runs with the
    same seed;
  * ball10_a1.2 returns the same Estimate with one thread as with
    nproc threads, under any chunking;
  * the benchmark exits non-zero without a result where there are no
    sources to run.
Takes about a minute; exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import run
import workloads as wl

SEED = 3


def _check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        sys.exit(1)


def check_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    _check(sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS),
           "BENCHMARK.json lists exactly the workloads of workloads.py")
    for name in sorted(wl.WORKLOADS):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name,
                 "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
                 "--smoke"],
                capture_output=True, text=True, timeout=300)
            _check(proc.returncode == 0, f"{name} --trace {trace} exits 0")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            _check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                   f"{name} --trace {trace} prints the four result keys")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            _check(got == want, f"{name} --trace {trace} prints every {group} metric "
                   "with its unit, and no other")
            _check(all(math.isfinite(v["value"]) for v in res["metrics"].values()),
                   f"{name} --trace {trace} metric values are finite")
            _check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{name} --trace {trace} is correct with no failed operation")


def check_shifted_closed_form(fracwos):
    w = wl.WORKLOADS["cli_solve_disk_many"]
    inputs = wl.make_inputs(w, SEED, smoke=True)
    _, results = run.CliRunner(fracwos, w, inputs, "selftest-shift").run_round(1)
    _check(all(isinstance(r, wl.PointResult) for r in results),
           "cli_solve_disk_many returns an estimate for every point")
    exact = w.exact(inputs.points)
    fails = [wl.point_failure(r, e, inputs.num_paths) for r, e in zip(results, exact)]
    _check(all(f is None for f in fails) and wl.aggregate_failure(results, exact) is None,
           "the true closed form passes the point and aggregate checks")
    fails = [wl.point_failure(r, e + 0.5, inputs.num_paths) for r, e in zip(results, exact)]
    _check(all(f is not None for f in fails),
           "a closed form shifted by 0.5 fails the per-point z-limit at every point")
    shifted = [e + 3.0 * r.stderr for r, e in zip(results, exact)]
    fails = [wl.point_failure(r, e, inputs.num_paths) for r, e in zip(results, shifted)]
    _check(all(f is None for f in fails)
           and wl.aggregate_failure(results, shifted) is not None,
           "a closed form shifted by 3 stderr passes every point but fails "
           "the aggregate chi-square test")


def check_cli_bytes(fracwos):
    w = wl.WORKLOADS["cli_solve_disk_many"]
    inputs = wl.make_inputs(w, SEED, smoke=True)
    blobs = []
    for tag in ("selftest-bytes-a", "selftest-bytes-b"):
        runner = run.CliRunner(fracwos, w, inputs, tag)
        runner.run_round(1)
        blobs.append((runner.dir / "solve_estimates.csv").read_bytes())
    _check(blobs[0] == blobs[1], "cli_solve_disk_many writes byte-identical CSVs "
           "on two runs with the same seed")


def check_ball10_threads(fracwos):
    w = wl.WORKLOADS["ball10_a1.2"]
    inputs = wl.make_inputs(w, SEED, smoke=True)
    runner = run.EngineRunner(fracwos, w, inputs)
    config = runner.config(1)
    est = fracwos.engine.estimate_point
    x = inputs.points[0]
    base = est(runner.problem, config, runner.constants, x, threads=1)
    nproc = len(os.sched_getaffinity(0))
    for chunk in (inputs.num_paths // 4, inputs.num_paths // 2):
        one = est(runner.problem, config, runner.constants, x, threads=1, chunk_paths=chunk)
        many = est(runner.problem, config, runner.constants, x, threads=max(2, nproc),
                   chunk_paths=chunk)
        _check(one == base and many == base,
               f"ball10_a1.2: same Estimate with 1 and {max(2, nproc)} threads "
               f"at {chunk} paths per chunk")


def check_fails_without_sources():
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "disk_ic_a1.9",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    _check(proc.returncode != 0 and not proc.stdout.strip(),
           "without src/ the benchmark exits non-zero and prints no result")


def main():
    fracwos = run._import_fracwos()
    check_shifted_closed_form(fracwos)
    check_cli_bytes(fracwos)
    check_ball10_threads(fracwos)
    check_fails_without_sources()
    check_metrics_printed()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
