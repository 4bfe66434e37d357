"""The benchmark's workloads: inputs made from a seed, closed forms, checks.

A workload is a list of point estimates (one *round*) that the benchmark
repeats until its time is up.  Every input -- the start points and each
round's walk seed -- is a pure function of the benchmark seed.  The start
points are laid out so that the work per round barely depends on that
seed: fixed radii with seeded directions on the balls, seeded jitter around
fixed points on the L-shape, and stratified radii for the CLI point list.
Each round draws fresh paths: the time of a round depends on its longest
paths (the lockstep tail), and a median over rounds of different paths is
steadier than one tail repeated.

The closed forms below are written out here on purpose and do not call
``ExactCase.u_exact``: a change to the program cannot move the reference.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Per-point limit on |mean - exact| / stderr.  For an unbiased estimator the
# false-alarm rate per point is about 2e-9, so a change that only reorders
# the random stream does not trip it.
Z_LIMIT = 6.0
# Two-sided tail probability below which the aggregate sum of z^2 over a
# round (chi-square with one degree of freedom per point) is rejected.
CHI2_P_LIMIT = 1e-6

EPSILON = 1e-6


def _inverse_cubic(pts):
    return (1.0 + np.sum(pts * pts, axis=1)) ** -1.5


def _gaussian(pts):
    return np.exp(-np.sum(pts * pts, axis=1))


def _bump(alpha):
    def u(pts):
        return (1.0 - np.sum(pts * pts, axis=1)) ** (alpha / 2.0)

    return u


@dataclass(frozen=True)
class Workload:
    """One workload: the case, its points and path counts, and how it runs.

    ``via_cli`` workloads call ``cli.main`` once per round on a config that
    lists every point; the others call ``engine.estimate_point`` per point.
    """

    name: str
    case: str
    alpha: float
    n: int
    num_points: int
    num_paths: int
    exact: Callable
    points: Callable  # (rng, num_points) -> (num_points, n) array
    via_cli: bool = False


def _ball_points(radii, n):
    """Points at fixed radii from the origin, in seeded directions."""

    def make(rng, count):
        r = np.asarray(radii[:count], dtype=float)
        z = rng.standard_normal((count, n))
        return r[:, None] * z / np.linalg.norm(z, axis=1, keepdims=True)

    return make


_LSHAPE_BASE = np.array([[-0.5, -0.5], [0.5, -0.5], [-0.5, 0.5]])


def _lshape_points(rng, count):
    return _LSHAPE_BASE[:count] + rng.uniform(-0.05, 0.05, (count, 2))


def _stratified_disk(rng, count):
    # area-uniform on |x| < 0.9, one point per equal-area ring, so the
    # spread of the total work across seeds is small
    u = (np.arange(count) + rng.uniform(0.0, 1.0, count)) / count
    r = 0.9 * np.sqrt(u)
    th = rng.uniform(0.0, 2.0 * np.pi, count)
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)


WORKLOADS = {
    w.name: w
    for w in [
        Workload("disk_ic_a1.9", "disk_inverse_cubic", 1.9, 2,
                 num_points=1, num_paths=10000,
                 exact=_inverse_cubic, points=_ball_points([0.5], 2)),
        Workload("lshape_gauss_a1.0", "lshape_gaussian", 1.0, 2,
                 num_points=3, num_paths=20000,
                 exact=_gaussian, points=_lshape_points),
        Workload("ball10_a1.2", "ball10_constant_source", 1.2, 10,
                 num_points=1, num_paths=65536,
                 exact=_bump(1.2), points=_ball_points([0.5], 10)),
        Workload("cli_solve_disk_many", "disk_inverse_cubic", 1.0, 2,
                 num_points=8, num_paths=20000,
                 exact=_inverse_cubic, points=_stratified_disk, via_cli=True),
    ]
}

# Sizes for the self-test: same code paths, a fraction of the work.
SMOKE = {
    "disk_ic_a1.9": (1, 256),
    "lshape_gauss_a1.0": (3, 1024),
    "ball10_a1.2": (1, 2048),
    "cli_solve_disk_many": (8, 256),
}


@dataclass(frozen=True)
class Inputs:
    points: np.ndarray
    num_paths: int
    key: tuple  # (benchmark seed, CRC-32 of the workload name)

    def walk_seed(self, round_index: int) -> int:
        """The walk seed of one round."""
        ss = np.random.SeedSequence([*self.key, round_index])
        return int(np.random.default_rng(ss).integers(0, 2**63))


def make_inputs(w: Workload, seed: int, smoke: bool = False) -> Inputs:
    """The workload's points and walk seeds, a pure function of ``seed``."""
    # salted by the name alone, so adding or renaming another workload
    # leaves this one's inputs as they were
    key = (seed, zlib.crc32(w.name.encode()))
    rng = np.random.default_rng(np.random.SeedSequence(list(key)))
    count, paths = SMOKE[w.name] if smoke else (w.num_points, w.num_paths)
    return Inputs(w.points(rng, count), paths, key)


# ---------------------------------------------------------------------------
# checks


@dataclass
class PointResult:
    """What one operation returned, as far as the checks need it."""

    mean: float
    stderr: float
    mean_steps: float
    n_paths: int
    n_dropped: int


def point_failure(res: PointResult, exact: float, num_paths: int) -> str | None:
    """Why one point estimate fails, or None when it passes."""
    vals = (res.mean, res.stderr, res.mean_steps)
    if not all(math.isfinite(v) for v in vals):
        return "non-finite mean, stderr or steps"
    if res.n_dropped != 0 or res.n_paths != num_paths:
        return f"{res.n_dropped} dropped paths, {res.n_paths} of {num_paths} kept"
    if res.mean_steps < 1.0:
        return f"mean_steps {res.mean_steps} < 1"
    if not res.stderr > 0.0:
        return "stderr is not positive"
    z = (res.mean - exact) / res.stderr
    if abs(z) > Z_LIMIT:
        return f"z = {z:.2f} exceeds {Z_LIMIT}"
    return None


def aggregate_failure(results, exact) -> str | None:
    """Chi-square test on the z-scores of the points that passed alone."""
    # imported here: scipy.stats pulls in modules that fracwos's own set-up
    # would otherwise load, and set-up is timed cold, in processes forked
    # from a fresh interpreter
    from scipy import stats

    z = np.array([(r.mean - e) / r.stderr for r, e in zip(results, exact)])
    if z.size == 0:
        return None
    q = float(np.sum(z * z))
    upper = stats.chi2.sf(q, z.size)
    lower = stats.chi2.cdf(q, z.size)
    if min(upper, lower) < CHI2_P_LIMIT / 2.0:
        return f"sum z^2 = {q:.2f} over {z.size} points (p = {min(upper, lower):.2e})"
    return None
