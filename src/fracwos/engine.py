"""Walk-on-spheres solver: path generation, scoring, aggregation, diagnostics.

A path started at x0 iterates

    r_k    = dist_boundary(x_k)
    Y_h{k+1} ~ interior law on B(x_k, r_k)          (only when f is given)
    x_{k+1} = x_k + gamma * theta                    (heavy-tailed jump)
    acc    += r_k^alpha * zeta_unit * f(Y_{k+1})

and stops when the jump lands outside the domain (score = acc + g(x_{k+1}))
or inside the epsilon-shell along the boundary (score = acc + g(projected
point)).  The estimate at x0 is the sample mean of the path scores.  A
third ending guards the run time: a path still walking after max_steps
steps is dropped, with no g, and left out of the estimate (n_dropped).

Reproducibility contract: path i at start point x0 draws from the addressed
stream (seed, stream_id = i, substream = hash(x0)) from counter 0.  Each
step makes one StreamBatch.uniforms call and reads a fixed layout of the
uniforms it returns, the step's words; with d = 2 * ceil(n/2), the words
of n Box-Muller normals:

    ux, ut, uv                    interior radius, 3 words        (f given)
    interior direction            d words                         (f given)
    exit direction                d words
    exit radius                   1 word

A block gives 8 uniforms, so a step consumes ceil((2d + 4) / 8) blocks
with a source f and ceil((d + 1) / 8) without: one block on the disk and
the L-shape either way, and 3 or 2 on the 10-d ball.  A path's counter is
never rewound or skipped.  A constant source (ConstantField) reads no Y:
its term is r_k^alpha * zeta_unit * value and its step draws the words of
the f = None walk, so it walks the f = None trajectory.

The walk is one wavefront of rows (_walk).  Each row holds one (point,
path) pair, with the pair's own stream id and substream, and the pairs are
issued in the flat order k = p * num_paths + i.  A step walks only the
rows still walking and reads each path's ending from its own masks: out of
the domain, in the shell, or at the step cap inside.  Those paths are
yielded with their scores, and their rows are refilled with the next
pending pairs, from that point's start and counter 0.  So a path
replays bit-identically alone (run_path), at any wavefront width and next
to any other points.  Each point's scores land in a full array indexed by
path and are summed in path-index order once its last path ends, which
keeps the reduction independent of the width as well.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.special as sc

from . import sampling
from .geometry import Domain
from .kernels import KernelConstants, _check_alpha, _check_integer, _check_real

__all__ = [
    "ConstantField",
    "ProblemSpec",
    "WalkConfig",
    "PathRealization",
    "Estimate",
    "StepCapExceeded",
    "check_starts",
    "run_path",
    "estimate_point",
    "estimate_field",
    "step_bound",
    "error_metric",
]

_WAVEFRONT = 16384  # rows walked in lockstep


class StepCapExceeded(RuntimeError):
    """A path exceeded max_steps without leaving the domain."""


@dataclass(frozen=True)
class ConstantField:
    """The batch field x -> value: f(pts) returns an (m,) array of value.

    Any caller can use it as a plain field.  As the source of a walk it lets
    the walk skip the interior sample, whose value nothing reads: the walk
    draws no interior words and follows the trajectory of the f = None walk
    (see the module docstring)."""

    value: float

    def __post_init__(self):
        _check_real(self.value, "value")
        object.__setattr__(self, "value", float(self.value))

    def __call__(self, pts):
        return np.full(np.atleast_2d(pts).shape[0], self.value)


@dataclass(frozen=True)
class ProblemSpec:
    """The problem: exponent alpha, source f on the domain, exterior data g.

    f and g are batch fields: each takes an (m, n) array of points and
    returns an (m,) array of values.  f is evaluated in the domain (None
    means f == 0); g is evaluated on the complement, boundary included, and
    must be evaluable arbitrarily far out because the jump law is
    heavy-tailed.  A ConstantField source spares the walk its interior
    sample (see the module docstring).
    """

    n: int
    alpha: float
    f: Optional[Callable]
    g: Callable
    domain: Domain

    def __post_init__(self):
        _check_integer(self.n, "n")
        if self.n != self.domain.n:
            raise ValueError("problem dimension disagrees with the domain")
        _check_alpha(self.alpha)
        if self.g is None:
            raise ValueError("exterior data g is required (a field of zeros for g = 0)")


@dataclass(frozen=True)
class WalkConfig:
    """Run parameters: shell width, path count, seed, safety caps."""

    epsilon: float
    num_paths: int
    seed: int
    max_steps: int = 1_000_000

    def __post_init__(self):
        _check_real(self.epsilon, "epsilon")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.epsilon == np.inf:
            raise ValueError("epsilon must be finite")
        for name in ("num_paths", "seed", "max_steps"):
            _check_integer(getattr(self, name), name)
        if self.num_paths < 1:
            raise ValueError("num_paths must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass(frozen=True)
class PathRealization:
    score: float
    steps: int
    exit_point: np.ndarray
    stopped_in_shell: bool


@dataclass(frozen=True)
class Estimate:
    """Aggregated Monte Carlo estimate at one point.

    variance is the unbiased sample variance (N-1 denominator; 0.0 when a
    single path survives), stderr = sqrt(variance / n_paths); stderr stays
    finite when variance is inf, beyond the float range.  n_dropped
    counts paths discarded at the step cap and n_nonfinite paths whose
    score is not finite (an overflow of f or g); both are excluded from all
    moments, mean_steps included.
    """

    mean: float
    variance: float
    stderr: float
    n_paths: int
    mean_steps: float
    n_dropped: int = 0
    n_nonfinite: int = 0


class _FieldEval:
    """Calls a batch field once per (m, n) point array and checks that it
    returns shape (m,); the field's own exceptions propagate untouched."""

    def __init__(self, fn):
        self._fn = fn

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.asarray(self._fn(pts), dtype=float)
        if out.shape != (pts.shape[0],):
            raise ValueError("field returned a wrong-shaped batch")
        return out


def _check_consistency(problem: ProblemSpec, constants: KernelConstants):
    if constants.n != problem.n or constants.alpha != problem.alpha:
        raise ValueError("constants were built for a different (n, alpha)")


def _unit_rows(z):
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _walk(problem, config, constants, starts, span=None):
    """Walk the (point, path) pairs k = p * num_paths + i for k in range(*span),
    by default every pair of every start point, on a wavefront of at most
    _WAVEFRONT rows; path i of start point p draws from the stream
    (seed, i, point_substream(starts[p])).

    A generator: after each step it yields (k, score, steps, dropped,
    exit_pt, shell) for the paths that ended, one array entry per path, and
    then refills their rows with the next pending pairs in k order.  A path
    that exits or stops in the shell scores its source sum plus g at its
    exit point or boundary projection.  A path dropped at the step cap gets
    no g: its score is its source sum, its exit point the inside point
    where it stopped, and its shell flag False."""
    dom = problem.domain
    n, alpha = problem.n, problem.alpha
    N = config.num_paths
    zeta_unit = constants.zeta_unit
    # a constant source is never called: its term is added without a Y
    constant = problem.f.value if isinstance(problem.f, ConstantField) else None
    f = None if problem.f is None or constant is not None else _FieldEval(problem.f)
    g = _FieldEval(problem.g)

    # the step's words (module docstring): [ux, ut, uv, Y's direction] with
    # f, then the exit direction and the exit radius
    dir_words = 2 * -(-n // 2)
    exit_dir = 3 + dir_words if f is not None else 0
    exit_word = exit_dir + dir_words

    nxt, stop = span if span is not None else (0, starts.shape[0] * N)
    subs = np.array([sampling.point_substream(p) for p in starts], dtype=np.uint64)
    r0 = dom.dist_boundary(starts)

    m = min(_WAVEFRONT, stop - nxt)
    batch = sampling.StreamBatch(config.seed, np.zeros(m, dtype=np.uint64))
    # per row: its pair, step count, ball radius, source sum and position
    pair, steps = np.zeros((2, m), dtype=np.int64)
    r_all, acc = np.zeros((2, m))
    x = np.zeros((m, n))

    def refill(rows):
        """Start the next pending pairs on rows; returns the rows started."""
        nonlocal nxt
        if nxt == stop:  # the tail: every pair has been issued
            return rows[:0]
        rows = rows[: stop - nxt]
        k = np.arange(nxt, nxt + rows.size)
        nxt += rows.size
        p, i = np.divmod(k, N)
        pair[rows] = k
        x[rows] = starts[p]
        r_all[rows] = r0[p]
        acc[rows] = 0.0
        steps[rows] = 0
        batch.stream_ids[rows] = i
        batch.substreams[rows] = subs[p]
        batch.position[rows] = 0
        return rows

    li = refill(np.arange(m))  # the walking rows
    while li.size:
        xa = x[li]
        r = r_all[li]

        u = batch.uniforms(li, exit_word + 1)
        if f is not None:
            s = sampling.interior_radius_from_uniforms(n, alpha, u[:, 0], u[:, 1], u[:, 2])
            ydir = _unit_rows(sampling.box_muller(u[:, 3:], n))
            y = xa + (r * s)[:, None] * ydir
            acc[li] += (r**alpha) * zeta_unit * f(y)
        elif constant is not None:
            acc[li] += (r**alpha) * zeta_unit * constant

        theta = _unit_rows(sampling.box_muller(u[:, exit_dir:], n))
        gamma = sampling.exit_radius_from_uniform(r, alpha, u[:, exit_word])
        del u
        xnew = xa + gamma[:, None] * theta
        steps[li] += 1

        inside, d = dom._locate(xnew)
        shell = inside & (d < config.epsilon)
        go = inside & ~shell
        dropped = go & (steps[li] >= config.max_steps)
        end = ~go | dropped
        # an ended row is refilled or never read again
        x[li] = xnew
        r_all[li] = d
        if end.any():
            ended = li[end]
            pt, shell, dropped = xnew[end], shell[end], dropped[end]
            if shell.any():
                pt[shell] = dom.project_boundary(pt[shell])
            score = acc[ended]
            hit = ~dropped
            if hit.any():
                score[hit] += g(pt[hit])
            yield pair[ended], score, steps[ended], dropped, pt, shell
            li = np.concatenate([li[~end], refill(ended)])


def check_starts(problem, config, points) -> np.ndarray:
    """Check an (m, n) batch of start points before any walk.

    Raises ValueError naming the first point that lies outside the domain
    or inside the epsilon-shell; returns the points as a float array."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != problem.n:
        raise ValueError(f"start points must have shape (m, {problem.n}), "
                         f"got {pts.shape}")
    inside, d = problem.domain._locate(pts)
    bad = ~inside | (d < config.epsilon)
    if np.any(bad):
        i = int(np.argmax(bad))
        where = "inside the epsilon-shell" if inside[i] else "outside the domain"
        raise ValueError(f"point {i} {pts[i].tolist()} lies {where}")
    return pts


def run_path(problem, config, constants, x0, path_idx: int) -> PathRealization:
    """Run a single path; bit-identical to path path_idx of estimate_point.
    path_idx is an integer in [0, 2^63 - 1): the walk numbers its paths,
    up to path_idx + 1 of them, in int64."""
    _check_integer(path_idx, "path_idx")
    if not 0 <= path_idx < 2**63 - 1:
        raise ValueError(f"path_idx must be in [0, 2^63 - 1), got {path_idx!r}")
    path_idx = int(path_idx)
    _check_consistency(problem, constants)
    start = check_starts(problem, config, np.reshape(x0, (1, -1)))
    # the one pair k = path_idx of a single point with path_idx + 1 paths
    one = dataclasses.replace(config, num_paths=path_idx + 1)
    _, score, steps, dropped, exit_pt, shell = next(
        _walk(problem, one, constants, start, (path_idx, path_idx + 1)))
    if dropped[0]:
        raise StepCapExceeded(f"path {path_idx} exceeded {config.max_steps} steps")
    return PathRealization(
        score=float(score[0]),
        steps=int(steps[0]),
        exit_point=exit_pt[0],
        stopped_in_shell=bool(shell[0]),
    )


def _reduce(config, scores, steps, dropped) -> Estimate:
    """The Estimate of one point from its paths' arrays in path-index order."""
    N = config.num_paths
    nonfinite = ~dropped & ~np.isfinite(scores)
    keep = ~dropped & ~nonfinite
    n_kept = int(keep.sum())
    n_drop = int(dropped.sum())
    n_bad = int(nonfinite.sum())
    if n_drop:
        warnings.warn(
            f"{n_drop} of {N} paths hit max_steps={config.max_steps} and were dropped",
            RuntimeWarning,
        )
    if n_bad:
        warnings.warn(
            f"{n_bad} of {N} paths scored a non-finite value and were excluded",
            RuntimeWarning,
        )
    if n_kept == 0:
        raise RuntimeError(
            f"no estimate available: {n_drop} paths hit the step cap and "
            f"{n_bad} scored a non-finite value"
        )

    kept = scores[keep]
    mean = float(np.sum(kept) / n_kept)
    var = stderr = 0.0
    if n_kept > 1:
        # the scores scaled by s = 2^-e, 2^e > max |score|: a power of two scales
        # exactly, so the moments keep every bit where the unscaled ones are
        # finite, and stderr stays finite where variance overflows to inf
        s = math.ldexp(1.0, -max(0, math.frexp(float(np.max(np.abs(kept))))[1]))
        z = np.multiply(kept, s, out=kept)
        z -= np.sum(z) / n_kept
        zvar = float(np.sum(np.square(z, out=z)) / (n_kept - 1))
        var = zvar / s / s
        stderr = math.sqrt(zvar / n_kept) / s
    return Estimate(
        mean=mean,
        variance=var,
        stderr=stderr,
        n_paths=n_kept,
        mean_steps=float(steps[keep].mean()),
        n_dropped=n_drop,
        n_nonfinite=n_bad,
    )


def estimate_point(problem, config, constants, x0) -> Estimate:
    """Monte Carlo estimate of the solution at x0 from num_paths paths:
    estimate_field on the one point."""
    return estimate_field(problem, config, constants, np.reshape(x0, (1, -1)))[0]


def estimate_field(problem, config, constants, points: Sequence) -> list[Estimate]:
    """Independent estimates at several points, walked in one wavefront of
    at most _WAVEFRONT rows.

    Point p uses substream = hash(point), so results are independent of
    evaluation order and duplicated points reproduce identical estimates.
    Each point's scores land in a full array indexed by path and are reduced
    once its last path ends, so the result is the same for any wavefront
    width.  All points are validated up front."""
    _check_consistency(problem, constants)
    pts = check_starts(problem, config, points)
    N = config.num_paths
    out = [None] * pts.shape[0]
    open_points = {}  # p -> [scores, steps, dropped, paths still walking]

    for k, score, steps, dropped, _, _ in _walk(problem, config, constants, pts):
        p, i = np.divmod(k, N)
        for q in np.unique(p).tolist():
            at = p == q
            slot = open_points.setdefault(q, [np.empty(N), np.empty(N, dtype=np.int64),
                                              np.empty(N, dtype=bool), N])
            slot[0][i[at]] = score[at]
            slot[1][i[at]] = steps[at]
            slot[2][i[at]] = dropped[at]
            slot[3] -= int(np.count_nonzero(at))
            if slot[3] == 0:
                del open_points[q]
                out[q] = _reduce(config, *slot[:3])
    return out


def step_bound(n: int, alpha: float, r: float, epsilon: float):
    """Analytic walk-length diagnostic for a ball domain of radius r.

    Returns (p_star, q_star, bound) with, for I the regularized incomplete
    Beta with parameters (alpha/2, 1 - alpha/2),

        p_star = 1 - I_{eps^2/r^2}
        q_star = I_{(r-eps)^2/r^2}
        bound  = 1 + q_star / (1 - p_star)^2

    (the prefactor pi^(n/2)/Gamma(n/2) * c_tilde times the complete Beta
    B(alpha/2, 1-alpha/2) is 1 by the reflection formula, so n drops out).
    1 - p_star enters the bound as I_{eps^2/r^2} itself, never by
    subtraction from 1.  bound is an upper bound on the expected number of
    steps; it is loose (the underlying comparison walk uses smaller balls
    than the solver).  Where the tail's square underflows to 0, the bound
    is inf."""
    if not 0 < epsilon < r < np.inf:
        raise ValueError("need 0 < epsilon < r")
    alpha = _check_alpha(alpha)
    a, b = alpha / 2.0, 1.0 - alpha / 2.0
    tail = float(sc.betainc(a, b, (epsilon / r) ** 2))
    q_star = float(sc.betainc(a, b, ((r - epsilon) / r) ** 2))
    return 1.0 - tail, q_star, (1.0 + q_star / tail**2 if tail**2 > 0.0 else np.inf)


def error_metric(estimates, exact):
    """Aggregate deviation of estimates from reference values.

    Returns (scaled_error, rmse): scaled_error = (1/N) * sqrt(sum d^2) is
    the convention used in the experiment tables (it decays like the
    per-point error divided by sqrt(N)); rmse = sqrt(mean d^2) is the
    standard root mean square error."""
    est = np.asarray(estimates, dtype=float)
    ref = np.asarray(exact, dtype=float)
    if est.shape != ref.shape or est.ndim != 1 or est.size < 1:
        raise ValueError("estimates and exact must be equal-length 1-d vectors")
    d2 = np.sum((est - ref) ** 2)
    n = est.size
    return float(np.sqrt(d2) / n), float(np.sqrt(d2 / n))
