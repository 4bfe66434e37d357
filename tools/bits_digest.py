#!/usr/bin/env python3
"""Print the walk's result bits, one line per result, for a same-bits check.

    python3 tools/bits_digest.py > digest.txt

Run from the root of a source checkout; the package is imported from
``src/``.  A change that keeps every result bit prints the same lines, so
an empty ``diff`` of the output at two commits is the evidence.  It prints

* for every case of ``oracle.CASE_NAMES``, alpha in ALPHAS and epsilon in
  EPSILONS, on POINTS ``random_interior`` points (seed POINT_SEED, margin
  MARGIN): ``float.hex`` of mean, variance, stderr and mean_steps of each
  point's estimate, walked at the full wavefront width with PATHS paths per
  point and at width 7 (``engine._WAVEFRONT`` patched) with NARROW_PATHS;
  a wavefront of 7 rows pays the per-step numpy overhead for few rows, so
  it walks fewer paths to keep the whole run near a minute;
* ``run_path`` of path 17 from the first point of each of those runs;
* ``StreamBatch.uniforms`` across the Philox tile edges: the rows whose
  blocks meet an edge in full, and a blake2b digest of every draw.
"""

from __future__ import annotations

import hashlib
import sys
import warnings
from pathlib import Path
from unittest.mock import patch

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fracwos import engine, oracle, sampling  # noqa: E402
from fracwos.kernels import make_constants  # noqa: E402

ALPHAS = (0.5, 1.0, 1.9)
EPSILONS = (1e-6, 0.05)
POINTS = 3
POINT_SEED = 20261019
MARGIN = 0.1
PATHS = 4000
NARROW_PATHS = 100
WALK_SEED = 7
PATH_IDX = 17


def _hex(*values):
    return " ".join(float(v).hex() for v in values)


def estimates():
    for name in oracle.CASE_NAMES:
        for alpha in ALPHAS:
            case = oracle.make_case(name, alpha)
            problem = case.problem()
            k = make_constants(case.n, alpha)
            pts = case.domain.random_interior(POINTS, POINT_SEED, margin=MARGIN)
            for eps in EPSILONS:
                tag = f"{name} alpha={alpha} eps={eps:g}"
                for width, paths in ((engine._WAVEFRONT, PATHS), (7, NARROW_PATHS)):
                    cfg = engine.WalkConfig(epsilon=eps, num_paths=paths, seed=WALK_SEED)
                    with patch.object(engine, "_WAVEFRONT", width):
                        est = engine.estimate_field(problem, cfg, k, pts)
                    for p, e in enumerate(est):
                        print(f"{tag} width={width} paths={paths} point={p} "
                              f"{_hex(e.mean, e.variance, e.stderr, e.mean_steps)}")
                cfg = engine.WalkConfig(epsilon=eps, num_paths=PATHS, seed=WALK_SEED)
                r = engine.run_path(problem, cfg, k, pts[0], PATH_IDX)
                print(f"{tag} run_path={PATH_IDX} {_hex(r.score)} steps={r.steps} "
                      f"exit={_hex(*r.exit_point)} shell={r.stopped_in_shell}")


def uniforms():
    rows = sampling._TILE_BLOCKS + 37
    for m in (1, 4, 12, 21):
        batch = sampling.StreamBatch(11, np.arange(rows) * 5 + 3, np.arange(rows) % 4)
        batch.uniforms(np.arange(0, rows, 3), 9)  # mixed starting positions
        u = batch.uniforms(np.arange(rows), m)
        nblocks = -(-m // 4)
        edges = range(0, rows * nblocks, sampling._TILE_BLOCKS)
        near = sorted({r for e in edges for r in ((e - 1) // nblocks, e // nblocks)
                       if 0 <= r < rows})
        for r in near:
            print(f"uniforms m={m} row={r} {_hex(*u[r])}")
        digest = hashlib.blake2b(u.tobytes(), digest_size=16).hexdigest()
        print(f"uniforms m={m} all={digest} position={int(batch.position.sum())}")


def main():
    warnings.simplefilter("ignore")
    estimates()
    uniforms()


if __name__ == "__main__":
    main()
