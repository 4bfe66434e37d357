"""Benchmark of the fracwos walk: one workload, one run, one JSON line.

    python3 walkbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  The run repeats whole rounds of the
workload's point estimates until ``--seconds`` are used up, checks every
estimate against a closed form written out in ``workloads.py``, and prints
as its last line of standard output

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
rounds alternate between untraced and traced, and the metrics are the
per-layer ones from the traced rounds (see README.md).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up is timed this many times, each in a process forked from one fresh
# interpreter after its imports and before any set-up, and the median is
# reported: make_constants caches its quadrature rules and scipy loads
# parts of itself on first use, so only a cold call shows what a user of
# `fracwos solve` pays.
SETUP_REPEATS = 15
# Paths per point of the untimed first round, which pays lazy first-call costs.
WARMUP_PATHS = 128


def _import_fracwos():
    if not (SRC / "fracwos" / "__init__.py").is_file():
        print(f"walkbench: no fracwos package under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import fracwos
    import fracwos.cli  # noqa: F401 - the package __init__ does not import it

    return fracwos


# ---------------------------------------------------------------------------
# running one round


class EngineRunner:
    """Calls engine.estimate_point once per point of the round."""

    def __init__(self, fracwos, w, inputs):
        self.fw, self.w, self.inputs = fracwos, w, inputs
        self.case = fracwos.oracle.make_case(w.case, w.alpha)
        self.constants = fracwos.kernels.make_constants(w.n, w.alpha)
        self.problem = self.case.problem()
        self.traced_problem = None

    def config(self, round_index, num_paths=None):
        return self.fw.engine.WalkConfig(
            epsilon=wl.EPSILON, num_paths=num_paths or self.inputs.num_paths,
            seed=self.inputs.walk_seed(round_index))

    def run_round(self, round_index, traced=False, num_paths=None):
        """-> (wall seconds, [PointResult or failure reason per point])"""
        problem = self.traced_problem if traced else self.problem
        config = self.config(round_index, num_paths)
        out = []
        t0 = time.perf_counter()
        for x in self.inputs.points:
            try:
                e = self.fw.engine.estimate_point(problem, config, self.constants, x)
            except Exception as exc:  # noqa: BLE001 - an operation that raised fails
                out.append(f"raised {type(exc).__name__}: {exc}")
                continue
            out.append(wl.PointResult(e.mean, e.stderr, e.mean_steps,
                                      e.n_paths, e.n_dropped))
        return time.perf_counter() - t0, out


class CliRunner:
    """Calls cli.main once per round on a config listing every point."""

    HEADER = ["x1", "x2", "mean", "stderr", "steps_mean", "n_paths"]

    def __init__(self, fracwos, w, inputs, tag):
        self.fw, self.w, self.inputs = fracwos, w, inputs
        self.dir = OUT / tag
        self.dir.mkdir(parents=True, exist_ok=True)
        self.prefix = self.dir / "solve"

    def _write_config(self, round_index, num_paths):
        path = self.dir / "config.json"
        body = {
            "case": {"name": self.w.case, "alpha": self.w.alpha},
            "points": {"type": "list", "values": self.inputs.points.tolist()},
            "walk": {"epsilon": wl.EPSILON, "num_paths": num_paths,
                     "seed": self.inputs.walk_seed(round_index)},
            "output": str(self.prefix),
        }
        path.write_text(json.dumps(body), encoding="utf-8")
        return path

    def run_round(self, round_index, traced=False, num_paths=None):
        num_paths = num_paths or self.inputs.num_paths
        config = self._write_config(round_index, num_paths)
        csv_path = Path(f"{self.prefix}_estimates.csv")
        if csv_path.exists():
            csv_path.unlink()
        t0 = time.perf_counter()
        rc = self.fw.cli.main(["solve", "--config", str(config)])
        wall = time.perf_counter() - t0
        k = len(self.inputs.points)
        if rc != 0 or not csv_path.exists():
            return wall, [f"fracwos solve exited {rc}"] * k
        return wall, self._read(csv_path, k)

    def _read(self, csv_path, k):
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != self.HEADER or len(rows) != k + 1:
            return ["malformed estimates CSV"] * k
        out = []
        for x, row in zip(self.inputs.points, rows[1:]):
            if len(row) != len(self.HEADER):
                out.append("CSV row of the wrong length")
                continue
            try:
                vals = [float(v) for v in row]
            except ValueError:
                out.append("non-numeric CSV value")
                continue
            if not all(math.isfinite(v) for v in vals):
                out.append("non-finite CSV value")
            elif vals[:2] != list(x):
                out.append("CSV coordinates differ from the configured point")
            else:
                n_paths = int(vals[5])
                out.append(wl.PointResult(vals[2], vals[3], vals[4], n_paths,
                                          self.inputs.num_paths - n_paths))
        return out


def make_runner(fracwos, w, inputs, tag):
    if w.via_cli:
        return CliRunner(fracwos, w, inputs, tag)
    return EngineRunner(fracwos, w, inputs)


# ---------------------------------------------------------------------------
# checks and bookkeeping


class Tally:
    """Operations attempted and failed, and why the run is not correct."""

    def __init__(self, w, inputs):
        self.exact = w.exact(inputs.points)
        self.num_paths = inputs.num_paths
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reasons = []
        self.chi2 = []  # (sum z^2, points, max |z|) of each round

    def check_round(self, results):
        """Count the round's operations; return the results that passed."""
        good, exact = [], []
        for res, ex in zip(results, self.exact):
            self.attempted += 1
            why = res if isinstance(res, str) else wl.point_failure(res, ex, self.num_paths)
            if why is None:
                good.append(res)
                exact.append(ex)
            else:
                self.failed += 1
                self.reasons.append(f"operation failed: {why}")
        z = [abs(r.mean - e) / r.stderr for r, e in zip(good, exact)]
        self.chi2.append((sum(v * v for v in z), len(z), max(z, default=0.0)))
        why = wl.aggregate_failure(good, exact)
        if why is not None:
            self.correct = False
            self.reasons.append(f"round not correct: {why}")
        return good


def _round_figures(wall, good):
    paths = sum(r.n_paths for r in good)
    steps = sum(r.mean_steps * r.n_paths for r in good)
    var_sum = sum(r.stderr**2 * r.n_paths for r in good)
    return {
        "paths_per_s": paths / wall,
        "path_steps_per_s": steps / wall,
        "time_to_stderr_1e-3_s": wall / paths * var_sum / 1e-6,
    }


def _timed_rounds(runner, tally, seconds, modes):
    """Run whole rounds, cycling through ``modes``, while they fit.

    Round i of each cycle of modes uses walk seed i + 1 (the warm-up uses
    0), so the modes of one cycle walk the same paths.  A new round starts
    only if the median round so far would still end within ``seconds``; at
    least one round of each mode runs.  Returns a list of
    (mode, wall, passing results) per round."""
    rounds = []
    start = time.perf_counter()
    while True:
        mode = modes[len(rounds) % len(modes)]
        wall, results = mode(runner, 1 + len(rounds) // len(modes))
        rounds.append((mode, wall, tally.check_round(results)))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r[1] for r in rounds)
        if len(rounds) >= len(modes) and elapsed + typical > seconds:
            return rounds


def _peak_rss_mib():
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kib + child_kib) / 1024.0


def _setup_seconds(w):
    """Median cold set-up time (make_case + make_constants); the import
    time of the interpreter that forks the set-ups is not counted."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", w.name,
         "--setup-child"],
        capture_output=True, text=True, timeout=120, check=True)
    return statistics.median(json.loads(proc.stdout.strip().splitlines()[-1]))


def _setup_child(fracwos, w):
    """Print, as a JSON list, the time of SETUP_REPEATS cold set-ups, each
    in its own forked process so that no cache carries over."""
    times = []
    for _ in range(SETUP_REPEATS):
        rfd, wfd = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(rfd)
                t0 = time.perf_counter()
                fracwos.oracle.make_case(w.case, w.alpha)
                fracwos.kernels.make_constants(w.n, w.alpha)
                os.write(wfd, repr(time.perf_counter() - t0).encode())
            finally:
                os._exit(0)
        os.close(wfd)
        with os.fdopen(rfd, "rb") as fh:
            reply = fh.read()
        _, status = os.waitpid(pid, 0)
        if status != 0 or not reply:
            raise RuntimeError(f"set-up process ended with status {status}")
        times.append(float(reply))
    print(json.dumps(times))


# ---------------------------------------------------------------------------
# the two kinds of run


def measure(fracwos, w, inputs, seconds, tag):
    runner = make_runner(fracwos, w, inputs, tag)
    tally = Tally(w, inputs)
    runner.run_round(0, num_paths=WARMUP_PATHS)
    rounds = _timed_rounds(runner, tally, seconds, [lambda r, i: r.run_round(i)])
    peak = _peak_rss_mib()
    per_round = [_round_figures(wall, good) for _, wall, good in rounds if good]
    metrics = {}
    for name, unit in [("paths_per_s", "paths/s"), ("path_steps_per_s", "steps/s"),
                       ("time_to_stderr_1e-3_s", "s")]:
        vals = [f[name] for f in per_round]
        metrics[name] = {"value": statistics.median(vals) if vals else 0.0,
                         "unit": unit}
    metrics["setup_s"] = {"value": _setup_seconds(w), "unit": "s"}
    metrics["peak_rss_mib"] = {"value": peak, "unit": "MiB"}
    detail = {"round_walls_s": [wall for _, wall, _ in rounds]}
    return tally, metrics, detail


def measure_traced(fracwos, w, inputs, seconds, tag):
    t0 = time.perf_counter()
    fracwos.kernels.make_constants(w.n, w.alpha)  # cold: the first in this process
    make_constants_s = time.perf_counter() - t0
    runner = make_runner(fracwos, w, inputs, tag)
    tally = Tally(w, inputs)
    tracer = Tracer()
    if isinstance(runner, EngineRunner):
        runner.traced_problem = tracer.wrap_fields(runner.case).problem()
    runner.run_round(0, num_paths=WARMUP_PATHS)

    def untraced(r, i):
        return r.run_round(i)

    def traced(r, i):
        tracer.install(fracwos)
        try:
            return r.run_round(i, traced=True)
        finally:
            tracer.remove()

    rounds = _timed_rounds(runner, tally, seconds, [untraced, traced])
    walls_u = [wall for mode, wall, _ in rounds if mode is untraced]
    walls_t = [wall for mode, wall, _ in rounds if mode is traced]
    metrics = layer_metrics(tracer, len(walls_t), sum(walls_t))
    metrics["kernels.make_constants_s"] = {"value": make_constants_s, "unit": "s"}
    # an untraced and a traced round of one cycle walk the same paths
    metrics["trace.overhead"] = {
        "value": statistics.median(t / u for u, t in zip(walls_u, walls_t)),
        "unit": "ratio"}
    detail = {"untraced_walls_s": walls_u, "traced_walls_s": walls_t}
    return tally, metrics, detail


def layer_metrics(tracer, n_rounds, traced_wall):
    self_s, calls, counts = tracer.totals()
    steps = counts["engine.estimate_point.steps"]
    paths = counts["engine.estimate_point.paths"]

    def ratio(a, b):
        return a / b if b else 0.0

    def per_round(name):
        return ratio(self_s[name], n_rounds)

    u = "sampling.StreamBatch.uniforms"
    d = "geometry.dist_boundary"
    x = "sampling.exit_radius_from_uniform"
    a = "sampling.interior_accept_prob"
    m = {
        f"{u}.self_s": (per_round(u), "s/round"),
        f"{u}.blocks_per_s": (ratio(counts[f"{u}.blocks"], self_s[u]), "blocks/s"),
        f"{u}.blocks_per_step": (ratio(counts[f"{u}.blocks"], steps), "blocks/step"),
        f"{u}.rows_per_call": (ratio(counts[f"{u}.rows"], calls[u]), "rows/call"),
        "sampling.StreamBatch.normals.self_s":
            (per_round("sampling.StreamBatch.normals"), "s/round"),
        f"{x}.self_s": (per_round(x), "s/round"),
        f"{x}.per_s": (ratio(counts[f"{x}.evals"], self_s[x]), "1/s"),
        f"{a}.self_s": (per_round(a), "s/round"),
        f"{a}.evals_per_step": (ratio(counts[f"{a}.evals"], steps), "evals/step"),
        f"{d}.self_s": (per_round(d), "s/round"),
        f"{d}.rows_per_s": (ratio(counts[f"{d}.rows"], self_s[d]), "rows/s"),
        f"{d}.rows_per_step": (ratio(counts[f"{d}.rows"], steps), "rows/step"),
        "geometry.contains.self_s": (per_round("geometry.contains"), "s/round"),
        "geometry.project_boundary.rows_per_path":
            (ratio(counts["geometry.project_boundary.rows"], paths), "rows/path"),
        "field.f.self_s": (per_round("field.f"), "s/round"),
        "field.g.self_s": (per_round("field.g"), "s/round"),
        "engine.estimate_point.self_s": (per_round("engine.estimate_point"), "s/round"),
        "engine.steps_per_path": (ratio(steps, paths), "steps/path"),
        "cli.main.self_s": (per_round("cli.main"), "s/round"),
        "trace.round_s": (ratio(traced_wall, n_rounds), "s/round"),
        "trace.accounted_share": (ratio(sum(self_s.values()), traced_wall), "ratio"),
    }
    return {k: {"value": v, "unit": unit} for k, (v, unit) in m.items()}


# ---------------------------------------------------------------------------
# entry point


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="a fraction of the work, for the self-test")
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    fracwos = _import_fracwos()
    w = wl.WORKLOADS[args.workload]
    if args.setup_child:
        _setup_child(fracwos, w)
        return 0
    inputs = wl.make_inputs(w, args.seed, smoke=args.smoke)
    tag = f"{w.name}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    run = measure_traced if args.trace else measure
    tally, metrics, detail = run(fracwos, w, inputs, args.seconds, tag)
    for why in tally.reasons:
        print(why, file=sys.stderr)
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{tag}.json").write_text(
        json.dumps({**result, "workload": w.name, "seed": args.seed,
                    "reasons": tally.reasons, "chi2_per_round": tally.chi2,
                    **detail}, indent=2) + "\n",
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
