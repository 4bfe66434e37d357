#!/usr/bin/env python3
"""Print the walk's result bits, one line per result, for a same-bits check.

    python3 tools/bits_digest.py > digest.txt

Run from the root of a source checkout; the package is imported from
``src/``.  A change that keeps every result bit prints the same lines, so
an empty ``diff`` of the output at two commits is the evidence.  The
recorded output is ``tests/data/bits_digest.txt``, which
``tests/test_bits_digest.py`` compares against in tier-1; a change that
moves bits re-records it with

    python3 tools/bits_digest.py > tests/data/bits_digest.txt

and declares the move.  It prints

* a header line, ``# numpy <version> scipy <version>``: the results'
  last bits depend on both;
* for every case of ``oracle.CASE_NAMES``, alpha in ALPHAS and epsilon in
  EPSILONS, on POINTS ``random_interior`` points (seed POINT_SEED, margin
  MARGIN): ``float.hex`` of mean, variance, stderr and mean_steps of each
  point's estimate, walked at the full wavefront width with PATHS paths per
  point and at width 7 (``engine._WAVEFRONT`` patched) with NARROW_PATHS;
  a wavefront of 7 rows pays the per-step numpy overhead for few rows, so
  it walks fewer paths to keep the whole run near a minute;
* ``run_path`` of path 17 from the first point of each of those runs;
* the step cap: for each of CAP_CASES and each max_steps in CAP_STEPS, at
  both widths of the walk above and each epsilon in EPSILONS, ``float.hex``
  of each estimate's mean, variance, stderr and mean_steps and its
  n_dropped (or the RuntimeError of a run with a point whose every path
  dropped),
  then, for paths 0 to CAP_RUNS - 1 from the first point, the
  ``run_path`` realization or ``StepCapExceeded``;
* ``StreamBatch.uniforms`` across the Philox tile edges: the rows whose
  blocks meet an edge in full, and a blake2b digest of every draw; then
  one draw of 8 (_TILE_BLOCKS + 9) words per row on three rows with high
  key, substream and position words: the two blocks at each tile cut and
  a blake2b digest;
* ``cli.main``, in process, on each of CLI_RUNS in a temp directory: the
  exit code, and a blake2b digest of every CSV and of every summary JSON
  with ``wall_time_s`` dropped and the temp directory cut from its paths;
  then the exit code and stderr of each of BAD_CONFIGS;
* for each of DOMAINS, on the rows of ``_geometry_rows``: blake2b digests
  of ``_locate``'s membership, of its distance on the rows inside at least
  MIN_DIST from the boundary, and of ``project_boundary``;
* for every case of ``oracle.CASE_NAMES`` at each alpha in ALPHAS, on a
  cloud of FIELD_ROWS rows (``_field_rows``): blake2b digests of f, g and
  ``u_exact`` evaluated on the whole cloud in one call;
* the CLI's named fields of inline cases (``cli._builtin_field``) that are
  not constants, on the cloud of each of INLINE_FIELD_CASES: a blake2b
  digest of the values;
* for each of KERNEL_BALLS at each alpha in ALPHAS: blake2b digests of
  ``poisson_kernel`` and ``green_function`` on a batch of KERNEL_ROWS
  point pairs, and ``float.hex`` of each on one single pair.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path
from unittest.mock import patch

import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fracwos import cli, engine, oracle, sampling  # noqa: E402
from fracwos.geometry import (  # noqa: E402
    AnnulusDomain,
    BallDomain,
    BoxDomain,
    HexagonDomain,
    LShapeDomain,
)
from fracwos.kernels import green_function, make_constants, poisson_kernel  # noqa: E402

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


CAP_CASES = (("disk_inverse_cubic", 1.9), ("ball10_constant_source", 1.2),
             ("lshape_gaussian", 1.0))
CAP_STEPS = (1, 3)
CAP_RUNS = 8


def step_cap():
    for name, alpha in CAP_CASES:
        case = oracle.make_case(name, alpha)
        problem = case.problem()
        k = make_constants(case.n, alpha)
        pts = case.domain.random_interior(POINTS, POINT_SEED, margin=MARGIN)
        for max_steps, eps in ((m, e) for m in CAP_STEPS for e in EPSILONS):
            tag = f"cap {name} alpha={alpha} eps={eps:g} max_steps={max_steps}"
            for width, paths in ((engine._WAVEFRONT, PATHS), (7, NARROW_PATHS)):
                cfg = engine.WalkConfig(epsilon=eps, num_paths=paths, seed=WALK_SEED,
                                        max_steps=max_steps)
                try:
                    with patch.object(engine, "_WAVEFRONT", width):
                        est = engine.estimate_field(problem, cfg, k, pts)
                except RuntimeError as err:
                    print(f"{tag} width={width} {err}")
                    continue
                for p, e in enumerate(est):
                    print(f"{tag} width={width} point={p} "
                          f"{_hex(e.mean, e.variance, e.stderr, e.mean_steps)} "
                          f"dropped={e.n_dropped}")
            cfg = engine.WalkConfig(epsilon=eps, num_paths=PATHS, seed=WALK_SEED,
                                    max_steps=max_steps)
            for i in range(CAP_RUNS):
                try:
                    r = engine.run_path(problem, cfg, k, pts[0], i)
                except engine.StepCapExceeded:
                    print(f"{tag} run_path={i} StepCapExceeded")
                    continue
                print(f"{tag} run_path={i} {_hex(r.score)} steps={r.steps} "
                      f"exit={_hex(*r.exit_point)} shell={r.stopped_in_shell}")


def uniforms():
    rows = sampling._TILE_BLOCKS + 37
    for m in (1, 8, 12, 21):
        batch = sampling.StreamBatch(11, np.arange(rows) * 5 + 3, np.arange(rows) % 4)
        batch.uniforms(np.arange(0, rows, 3), 17)  # mixed starting positions
        u = batch.uniforms(np.arange(rows), m)
        nblocks = -(-m // 8)
        edges = range(0, rows * nblocks, sampling._TILE_BLOCKS)
        near = sorted({r for e in edges for r in ((e - 1) // nblocks, e // nblocks)
                       if 0 <= r < rows})
        for r in near:
            print(f"uniforms m={m} row={r} {_hex(*u[r])}")
        digest = hashlib.blake2b(u.tobytes(), digest_size=16).hexdigest()
        print(f"uniforms m={m} all={digest} position={int(batch.position.sum())}")
    # high key, counter and position words; each row longer than a tile
    batch = sampling.StreamBatch(0xABCDEF, [5, 2**64 - 3, 77], [0, 9, 2**40])
    batch.position = np.uint64(2**62) + batch.substreams
    nblocks = sampling._TILE_BLOCKS + 9
    u = batch.uniforms(np.arange(3), 8 * nblocks)
    for e in range(sampling._TILE_BLOCKS, 3 * nblocks, sampling._TILE_BLOCKS):
        for r, j in (divmod(e - 1, nblocks), divmod(e, nblocks)):
            print(f"uniforms high row={r} block={j} {_hex(*u[r, 8 * j:8 * j + 8])}")
    digest = hashlib.blake2b(u.tobytes(), digest_size=16).hexdigest()
    print(f"uniforms high all={digest} position={[int(p) for p in batch.position]}")


_HEXAGON = {"domain": {"type": "hexagon", "circumradius": 1.2, "center": [0.1, 0.0]},
            "n": 2, "alpha": 1.3, "f": "constant_source", "g": "one"}
_LSHAPE = {"domain": {"type": "lshape"}, "n": 2, "alpha": 1.0,
           "f": "constant_source", "g": "zero"}
_LIST = {"type": "list", "values": [[0.0, 0.0], [0.5, 0.1], [-0.2, -0.6]]}
_WALK = {"epsilon": 1e-6, "num_paths": 1000, "seed": 5}

# (name, command, config without "output"); the L-shape grid has exterior,
# shell and walked nodes
CLI_RUNS = [
    ("solve_registry", "solve", {
        "case": {"name": "disk_inverse_cubic", "alpha": 1.5},
        "points": {"type": "random", "count": 4, "seed": 3}, "walk": _WALK}),
    ("solve_hexagon", "solve", {"case": _HEXAGON, "points": _LIST, "walk": _WALK}),
    ("convergence", "convergence", {
        "case": "disk_constant_source", "alphas": [0.7, 1.5],
        "path_ladder": [100, 300, 1000], "points": _LIST, "walk": {"seed": 2}}),
    ("steps", "steps", {
        "case": "disk_constant_source", "alphas": [0.6, 1.4],
        "points": {"type": "random", "count": 5, "seed": 3},
        "walk": {"num_paths": 500, "seed": 1}}),
    ("field_lshape", "field", {
        "case": _LSHAPE, "points": {"type": "grid", "resolution": 7, "margin": 0.1},
        "walk": {"epsilon": 0.2, "num_paths": 300, "seed": 4}}),
]

# configs every version refuses with the same message
BAD_CONFIGS = [
    ("solve", {"case": "no_such_case", "points": _LIST, "walk": _WALK}),
    ("solve", {"case": {**_LSHAPE, "n": "two"}, "points": _LIST, "walk": _WALK}),
    ("solve", {"case": {**_LSHAPE, "g": "none"}, "points": _LIST, "walk": _WALK}),
    ("solve", {"case": {**_HEXAGON, "domain": {"type": "hexagon", "circumradius": "1"}},
               "points": _LIST, "walk": _WALK}),
    ("solve", {"case": {**_HEXAGON, "domain": {"type": "box", "lo": [1.0, 0.0],
                                               "hi": [0.0, 1.0]}},
               "points": _LIST, "walk": _WALK}),
    ("solve", {"case": "disk_constant_source", "points": _LIST,
               "walk": {**_WALK, "num_paths": 2.5}}),
    ("solve", {"case": "disk_constant_source", "walk": _WALK,
               "points": {"type": "list", "values": [[2.0, 0.0]]}}),
    ("solve", {"case": "disk_constant_source", "walk": _WALK,
               "points": {"type": "list", "values": []}}),
    ("solve", {"case": "disk_constant_source", "walk": _WALK, "extra": 1,
               "points": _LIST}),
    ("steps", {"case": "disk_constant_source", "alphas": [1.0, 0.01], "points": _LIST,
               "walk": _WALK}),
    ("convergence", {"case": "annulus_oscillatory", "path_ladder": [10, 20],
                     "points": {"type": "random", "count": 2, "seed": 0}}),
    ("convergence", {"case": "disk_constant_source", "path_ladder": [10, 2.5],
                     "points": _LIST}),
    ("field", {"case": "disk_constant_source", "points": _LIST, "walk": _WALK}),
    ("field", {"case": "disk_constant_source", "walk": _WALK,
               "points": {"type": "grid", "resolution": 3, "margin": "0.1"}}),
]


def _blake(data):
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _run_cli(tmp, name, command, body):
    """Exit code and stderr of cli.main on body, written to <tmp>/<name>."""
    out = Path(tmp) / name
    config = Path(tmp) / f"{name}.json"
    config.write_text(json.dumps({**body, "output": str(out / "run")}), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main([command, "--config", str(config)])
    return rc, err.getvalue().replace(tmp, "<tmp>"), out


def cli_outputs():
    with tempfile.TemporaryDirectory() as tmp:
        for name, command, body in CLI_RUNS:
            rc, err, out = _run_cli(tmp, name, command, body)
            print(f"cli {name} exit={rc} stderr={err!r}")
            for path in sorted(out.glob("*")):
                data = path.read_bytes()
                if path.suffix == ".json":
                    summary = json.loads(data)
                    del summary["wall_time_s"]
                    data = json.dumps(summary, sort_keys=True).replace(tmp, "<tmp>").encode()
                print(f"cli {name} {path.name} {_blake(data)}")
        for i, (command, body) in enumerate(BAD_CONFIGS):
            rc, err, out = _run_cli(tmp, f"bad{i}", command, body)
            print(f"cli bad{i} {command} exit={rc} stderr={err!r} made_dir={out.exists()}")


# the domains of tests/test_geometry.py::_all_domains, copied so that the
# output of one commit does not move when a later commit edits that list
DOMAINS = [
    BallDomain(np.zeros(2), 1.0),
    BallDomain(np.array([1.0, -2.0, 0.5]), 2.5),
    BallDomain(np.zeros(10), 1.0),
    BoxDomain([-5.0, -0.5], [5.0, 0.5]),
    BoxDomain([-1.0, -1.0, -1.0], [1.0, 2.0, 3.0]),
    LShapeDomain(),
    AnnulusDomain(np.sqrt(0.3), 1.0),
    HexagonDomain(1.0),
    HexagonDomain(2.0, center=(1.0, 1.0)),
]
CLOUD = 20000
CLOUD_SEED = 1414
# distances below this are left out: there a change of formula may move the
# last bits (the L-shape's closed form against its segment loop, below 2.2e-8)
MIN_DIST = 1e-7


def _geometry_rows(dom):
    """A cloud over the bounding box grown by 10% on each side, with
    normal noise of scale 1e-3 so that its coordinates carry bits below the
    2^-52 lattice of numpy's uniform draws; then, for the cloud's inside
    rows x with nearest boundary point p, the rows p +- t (x - p) for t in
    1e-1, 1e-4, 1e-7 and 1e-10."""
    rng = np.random.default_rng(CLOUD_SEED)
    lo, hi = dom.bounding_box()
    grow = 0.1 * (hi - lo)
    cloud = rng.uniform(lo - grow, hi + grow, (CLOUD, dom.n))
    cloud += 1e-3 * rng.standard_normal((CLOUD, dom.n))
    x = cloud[dom._locate(cloud)[0]]
    p = dom.project_boundary(x)
    near = [p + s * t * (x - p) for t in (1e-1, 1e-4, 1e-7, 1e-10) for s in (1.0, -1.0)]
    return np.concatenate([cloud, *near])


def geometry():
    for dom in DOMAINS:
        pts = _geometry_rows(dom)
        inside, dist = dom._locate(pts)
        far = inside & (dist >= MIN_DIST)
        print(f"geometry {type(dom).__name__}{dom.n} rows={len(pts)} "
              f"inside={int(inside.sum())} far={int(far.sum())} "
              f"membership={_blake(inside.tobytes())} dist={_blake(dist[far].tobytes())} "
              f"project={_blake(dom.project_boundary(pts).tobytes())}")


FIELD_ROWS = 2000
FIELD_SEED = 1732


def _field_rows(case):
    """A cloud over the case's bounding box grown by 10% on each side, with
    the normal noise of _geometry_rows so that its coordinates carry bits
    below the 2^-52 lattice of numpy's uniform draws."""
    rng = np.random.default_rng(FIELD_SEED)
    lo, hi = case.domain.bounding_box()
    grow = 0.1 * (hi - lo)
    cloud = rng.uniform(lo - grow, hi + grow, (FIELD_ROWS, case.n))
    return cloud + 1e-3 * rng.standard_normal((FIELD_ROWS, case.n))


def fields():
    for name in oracle.CASE_NAMES:
        for alpha in ALPHAS:
            case = oracle.make_case(name, alpha)
            pts = _field_rows(case)
            digests = " ".join(
                f"{label}={'-' if fn is None else _blake(np.asarray(fn(pts)).tobytes())}"
                for label, fn in (("f", case.f), ("g", case.g), ("u_exact", case.u_exact)))
            print(f"fields {name} alpha={alpha} rows={FIELD_ROWS} {digests}")


INLINE_FIELDS = ("gaussian", "inverse_cubic")
INLINE_FIELD_CASES = ("disk_constant_source", "ball10_constant_source")


def inline_fields():
    for name in INLINE_FIELD_CASES:
        case = oracle.make_case(name)
        pts = _field_rows(case)
        for field in INLINE_FIELDS:
            fn = cli._builtin_field(field, case.n, 1.0)
            print(f"inline_fields {field} n={case.n} rows={FIELD_ROWS} "
                  f"{_blake(np.asarray(fn(pts)).tobytes())}")


KERNEL_BALLS = (BallDomain(np.array([0.3, -0.2]), 1.5),
                BallDomain(np.array([1.0, -2.0, 0.5]), 2.5))
KERNEL_ROWS = 2000
KERNEL_SEED = 2718


def _ball_rows(ball, rng, lo, hi):
    """KERNEL_ROWS points of the ball at radii in (lo, hi) times its radius."""
    v = rng.standard_normal((KERNEL_ROWS, ball.n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    s = rng.uniform(lo, hi, KERNEL_ROWS)
    return ball.center + (ball.radius * s)[:, None] * v


def kernels():
    for ball in KERNEL_BALLS:
        rng = np.random.default_rng(KERNEL_SEED)
        x = _ball_rows(ball, rng, 0.0, 0.99)
        y = _ball_rows(ball, rng, 0.0, 0.99)
        z = _ball_rows(ball, rng, 1.01, 5.0)
        for alpha in ALPHAS:
            k = make_constants(ball.n, alpha)
            tag = f"kernels n={ball.n} alpha={alpha}"
            for label, fn, other in (("poisson", poisson_kernel, z),
                                     ("green", green_function, y)):
                batch = _blake(np.asarray(fn(ball, x, other, k)).tobytes())
                print(f"{tag} {label} rows={KERNEL_ROWS} {batch} "
                      f"single={_hex(fn(ball, x[0], other[0], k))}")


def main():
    print(f"# numpy {np.__version__} scipy {scipy.__version__}")
    warnings.simplefilter("ignore")
    estimates()
    step_cap()
    uniforms()
    cli_outputs()
    geometry()
    fields()
    inline_fields()
    kernels()


if __name__ == "__main__":
    main()
