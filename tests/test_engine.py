"""Walk driver: scoring identities, reproducibility, caps, diagnostics.

The sharpest checks exploit two degeneracies of a ball domain started at
its center: every path exits in exactly one step (the jump radius is never
smaller than the ball radius), so with f = 0 the score is exactly g at the
exit point, and with a constant source the accumulated term is the same
deterministic number for every path.  Both give bit-level expectations
with zero Monte Carlo noise.
"""

import dataclasses
import functools
import math
import warnings
from unittest.mock import patch

import exit_reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracwos import engine, sampling
from fracwos.engine import (
    Estimate,
    ProblemSpec,
    StepCapExceeded,
    WalkConfig,
    _FieldEval,
    _walk,
    error_metric,
    estimate_field,
    estimate_point,
    run_path,
    step_bound,
)
from fracwos.geometry import BallDomain, HexagonDomain, LShapeDomain
from fracwos.kernels import make_constants


def _const_field(c):
    def field(pts):
        pts = np.atleast_2d(pts)
        return np.full(pts.shape[0], c)

    return field


def _ball_problem(n, alpha, radius=1.0, f=None, g=None):
    dom = BallDomain(np.zeros(n), radius)
    if g is None:
        g = _const_field(0.0)
    return ProblemSpec(n=n, alpha=alpha, f=f, g=g, domain=dom)


# ---------------------------------------------------------------------------
# exact scoring identities (no Monte Carlo noise)


def test_constant_exterior_data_scores_exactly():
    # f = 0, g = 7: every score is the constant, every center path exits in
    # one step
    prob = _ball_problem(2, 1.2, g=_const_field(7.0))
    cfg = WalkConfig(epsilon=1e-6, num_paths=500, seed=3)
    k = make_constants(2, 1.2)
    est = estimate_point(prob, cfg, k, np.zeros(2))
    assert est.mean == 7.0
    assert est.variance == 0.0
    assert est.stderr == 0.0
    assert est.mean_steps == 1.0
    assert est.n_paths == 500
    assert est.n_dropped == 0


def test_constant_source_center_identity():
    # from the center of a ball of radius R the single accumulated source
    # term is R^alpha * zeta_unit * f, so f = 1/zeta_unit scores R^alpha
    n, alpha, R = 2, 0.8, 2.0
    k = make_constants(n, alpha)
    prob = _ball_problem(n, alpha, radius=R, f=_const_field(1.0 / k.zeta_unit))
    cfg = WalkConfig(epsilon=1e-6, num_paths=200, seed=11)
    est = estimate_point(prob, cfg, k, np.zeros(n))
    assert abs(est.mean - R**alpha) <= 1e-12
    assert est.stderr <= 1e-12
    assert est.mean_steps == 1.0


def test_single_path_matches_run_path():
    prob = _ball_problem(2, 1.0, f=_const_field(0.5), g=_const_field(1.0))
    cfg = WalkConfig(epsilon=1e-4, num_paths=1, seed=21)
    k = make_constants(2, 1.0)
    x0 = np.array([0.3, -0.2])
    pr = run_path(prob, cfg, k, x0, 0)
    est = estimate_point(prob, cfg, k, x0)
    assert est.mean == pr.score
    assert est.variance == 0.0
    assert est.mean_steps == float(pr.steps)
    assert not prob.domain.contains(pr.exit_point) or pr.stopped_in_shell


def test_run_path_takes_an_integer_path_index():
    prob = _ball_problem(2, 1.0, g=_const_field(1.0))
    cfg = WalkConfig(epsilon=1e-4, num_paths=1, seed=21)
    k = make_constants(2, 1.0)
    x0 = np.array([0.3, -0.2])
    for bad in (True, 1.5, 2.0):
        with pytest.raises(ValueError, match="path_idx must be an integer"):
            run_path(prob, cfg, k, x0, bad)
    for bad in (-1, 2**63 - 1, 2**64, np.uint64(2**64 - 1)):
        with pytest.raises(ValueError, match=r"path_idx must be in \[0, 2\^63 - 1\)"):
            run_path(prob, cfg, k, x0, bad)
    # numpy integers replay the same path; the largest index walks
    a, b = run_path(prob, cfg, k, x0, np.uint64(1)), run_path(prob, cfg, k, x0, 1)
    assert a.steps == b.steps and np.array_equal(a.exit_point, b.exit_point)
    assert run_path(prob, cfg, k, x0, 2**63 - 2).score == 1.0


# ---------------------------------------------------------------------------
# reproducibility


def test_estimate_invariant_under_chunking_and_threads():
    prob = ProblemSpec(
        n=2,
        alpha=1.2,
        f=_const_field(0.3),
        g=_const_field(0.0),
        domain=LShapeDomain(),
    )
    cfg = WalkConfig(epsilon=1e-4, num_paths=300, seed=5)
    k = make_constants(2, 1.2)
    x0 = np.array([0.4, -0.3])
    base = estimate_point(prob, cfg, k, x0)
    for width in (7, 64):
        with patch.object(engine, "_WAVEFRONT", width):
            other = estimate_point(prob, cfg, k, x0)
        assert other.mean == base.mean
        assert other.variance == base.variance
        assert other.stderr == base.stderr
        assert other.mean_steps == base.mean_steps


def test_paths_replay_individually():
    prob = _ball_problem(2, 0.9, f=_const_field(1.0))
    cfg = WalkConfig(epsilon=1e-5, num_paths=8, seed=17)
    k = make_constants(2, 0.9)
    x0 = np.array([0.25, 0.1])
    scores = [run_path(prob, cfg, k, x0, i).score for i in range(8)]
    est = estimate_point(prob, cfg, k, x0)
    assert est.mean == float(np.sum(np.array(scores)) / 8.0)


def _poly_source(pts):
    pts = np.atleast_2d(pts)
    return 1.0 + pts[:, 0] - 0.5 * pts[:, -1] ** 2


def _bounded_exterior(pts):
    pts = np.atleast_2d(pts)
    return 1.0 / (1.0 + np.sum(pts * pts, axis=1))


# (domain, n, alpha, with source, start point, num_paths, wavefront width;
# None walks all paths in one wavefront)
_GOLDEN_CASES = {
    "disk_a0.3": (BallDomain(np.zeros(2), 1.0), 2, 0.3, True, [0.3, -0.2], 256, None),
    "disk_a1.0": (BallDomain(np.zeros(2), 1.0), 2, 1.0, True, [0.3, -0.2], 256, None),
    "disk_a1.9": (BallDomain(np.zeros(2), 1.0), 2, 1.9, True, [0.3, -0.2], 256, None),
    "disk_nof_a1.5": (BallDomain(np.zeros(2), 1.0), 2, 1.5, False, [0.6, 0.1], 256, None),
    "lshape_a1.0": (LShapeDomain(), 2, 1.0, True, [-0.4, 0.5], 256, None),
    "ball10_a1.2": (BallDomain(np.zeros(10), 1.0), 10, 1.2, True, [0.3] + [0.0] * 9, 300, 128),
    # the ends of the alpha range and higher n, where the interior radius's
    # exponents 1/alpha and 2/(n - 2 + alpha) are at their extremes
    "disk_a0.05": (BallDomain(np.zeros(2), 1.0), 2, 0.05, True, [0.3, -0.2], 256, None),
    "disk_a1.95": (BallDomain(np.zeros(2), 1.0), 2, 1.95, True, [0.3, -0.2], 256, None),
    "ball3_a1.9": (BallDomain(np.zeros(3), 1.0), 3, 1.9, True, [0.3, -0.2, 0.1], 256, None),
    "ball10_a1.9": (BallDomain(np.zeros(10), 1.0), 10, 1.9, True, [0.3] + [0.0] * 9, 300, 128),
}

# float.hex of (mean, variance, mean_steps) of estimate_point, then
# (score, steps) of run_path(..., 17).  The walk's random layout is part of
# its contract: any change to these values is a deliberate stream break.
_GOLDEN = {
    "ball10_a1.2": ("0x1.2e01f7c4d84bbp-1", "0x1.39e6e1e78890dp-5", "0x1.ca06d3a06d3a0p+2", "0x1.638db70f1296ap-1", 5),
    "ball10_a1.9": ("0x1.1a4db94352793p-1", "0x1.2d1281df9712dp-8", "0x1.26b4e81b4e81bp+6", "0x1.25daf69b55043p-1", 33),
    "ball3_a1.9": ("0x1.5808a9be9cf36p-1", "0x1.df3d029e8e909p-7", "0x1.3bb0000000000p+4", "0x1.147db26d9b3eap-1", 1),
    "disk_a0.05": ("0x1.456e23b4e3ab8p+0", "0x1.15e583c37e3acp-6", "0x1.0600000000000p+0", "0x1.3e4275d6efc9fp+0", 1),
    "disk_a0.3": ("0x1.3f9c61d0f452dp+0", "0x1.de78790c2080cp-4", "0x1.3000000000000p+0", "0x1.1eb1b0564bc08p+0", 1),
    "disk_a1.0": ("0x1.f71dc81050d31p-1", "0x1.2e59a0a849202p-3", "0x1.2d00000000000p+1", "0x1.20cf1da609cbep-1", 2),
    "disk_a1.9": ("0x1.7983340582dbfp-1", "0x1.ba744f1eded1fp-6", "0x1.4600000000000p+3", "0x1.efb6e4c386cb2p-2", 2),
    "disk_a1.95": ("0x1.7975006632f86p-1", "0x1.d8db6e9f6a311p-6", "0x1.6c20000000000p+3", "0x1.138e096cdeb7ap-1", 2),
    "disk_nof_a1.5": ("0x1.bc33fb8069dc5p-2", "0x1.7fa382796e1bep-7", "0x1.4ec0000000000p+2", "0x1.1a43f1b7fedb2p-2", 2),
    "lshape_a1.0": ("0x1.3581483f9a3c6p-1", "0x1.d0041bb2f4abfp-4", "0x1.6280000000000p+1", "0x1.3d8b6f70da8eep-2", 1),
}


def _golden_run(name):
    dom, n, alpha, with_f, x0, num_paths, width = _GOLDEN_CASES[name]
    prob = ProblemSpec(
        n=n,
        alpha=alpha,
        f=_poly_source if with_f else None,
        g=_bounded_exterior,
        domain=dom,
    )
    cfg = WalkConfig(epsilon=1e-4, num_paths=num_paths, seed=2024)
    k = make_constants(n, alpha)
    x0 = np.array(x0, dtype=float)
    with patch.object(engine, "_WAVEFRONT", width or num_paths):
        est = estimate_point(prob, cfg, k, x0)
    path = run_path(prob, cfg, k, x0, 17)
    return (
        est.mean.hex(),
        est.variance.hex(),
        est.mean_steps.hex(),
        path.score.hex(),
        path.steps,
    )


@pytest.mark.parametrize("name", sorted(_GOLDEN_CASES))
def test_golden_stream(name):
    assert _golden_run(name) == _GOLDEN[name]
    # with betaincinv as the exit law's inverse, for the exit radius and for
    # the interior radius's X alike, the walk reads the same uniforms: every
    # step count stays and the scores move by the table's error only
    with patch.object(sampling, "exit_radius_from_uniform",
                      exit_reference.exit_radius_from_uniform), \
            patch.object(sampling, "interior_radius_from_uniforms",
                         exit_reference.interior_radius_from_uniforms):
        mean, var, steps, score, path_steps = _golden_run(name)
    want = _GOLDEN[name]
    assert (steps, path_steps) == (want[2], want[4])
    for got, ref in ((mean, want[0]), (var, want[1]), (score, want[3])):
        got, ref = float.fromhex(got), float.fromhex(ref)
        assert abs(got - ref) <= 1e-10 * abs(ref), (got, ref)


# the replay contract on the disk at alpha = 1.9 with a source
_REPLAY_N = 40
_REPLAY_PROB = ProblemSpec(n=2, alpha=1.9, f=_poly_source, g=_bounded_exterior,
                           domain=BallDomain(np.zeros(2), 1.0))
_REPLAY_CFG = WalkConfig(epsilon=1e-4, num_paths=_REPLAY_N, seed=77)
_REPLAY_X0 = np.array([0.3, -0.2])
_REPLAY_K = make_constants(2, 1.9)


@functools.cache
def _replay_base():
    return estimate_point(_REPLAY_PROB, _REPLAY_CFG, _REPLAY_K, _REPLAY_X0)


@settings(max_examples=10, deadline=None)
@given(chunk=st.integers(1, _REPLAY_N), i=st.integers(0, _REPLAY_N - 1))
def test_replay_under_any_chunking(chunk, i):
    with patch.object(engine, "_WAVEFRONT", chunk):
        est = estimate_point(_REPLAY_PROB, _REPLAY_CFG, _REPLAY_K, _REPLAY_X0)
    assert est == _replay_base()
    # path i alone equals path i inside a wavefront of width chunk over its chunk
    a = i - i % chunk
    with patch.object(engine, "_WAVEFRONT", chunk):
        landed = [batch[:3] for batch in _walk(_REPLAY_PROB, _REPLAY_CFG, _REPLAY_K,
                                               _REPLAY_X0[None, :],
                                               (a, min(a + chunk, _REPLAY_N)))]
    pairs, scores, steps = (np.concatenate(col) for col in zip(*landed))
    at = np.flatnonzero(pairs == i)[0]
    path = run_path(_REPLAY_PROB, _REPLAY_CFG, _REPLAY_K, _REPLAY_X0, i)
    assert path.score == scores[at]
    assert path.steps == steps[at]


def test_hexagon_paths_replay_at_any_width():
    # the hexagon's queries are element-wise, so its paths are the same bits
    # alone (run_path), in a wavefront of 7 rows and in one of 16384
    prob = ProblemSpec(n=2, alpha=1.5, f=_poly_source, g=_bounded_exterior,
                       domain=HexagonDomain(1.0))
    cfg = WalkConfig(epsilon=1e-4, num_paths=400, seed=5)
    k = make_constants(2, 1.5)
    x0 = np.array([0.3, 0.1])
    walks = []
    for width in (1, 7, 16384):
        with patch.object(engine, "_WAVEFRONT", width):
            landed = [batch[:3] for batch in _walk(prob, cfg, k, x0[None, :])]
        pairs, scores, steps = (np.concatenate(col) for col in zip(*landed))
        # every pair is yielded exactly once
        assert np.array_equal(np.sort(pairs), np.arange(cfg.num_paths))
        order = np.argsort(pairs)
        walks.append((scores[order], steps[order]))
    scores, steps = walks[0]
    for other in walks[1:]:
        assert np.array_equal(other[0], scores) and np.array_equal(other[1], steps)
    for i in (0, 17, 399):
        path = run_path(prob, cfg, k, x0, i)
        assert (path.score, path.steps) == (scores[i], steps[i])
    with patch.object(engine, "_WAVEFRONT", 7):
        narrow = estimate_point(prob, cfg, k, x0)
    assert narrow == estimate_point(prob, cfg, k, x0)


def test_duplicate_points_reproduce_identical_estimates():
    prob = _ball_problem(2, 1.4)
    cfg = WalkConfig(epsilon=1e-5, num_paths=50, seed=9)
    k = make_constants(2, 1.4)
    p = np.array([0.2, 0.3])
    q = np.array([-0.4, 0.0])
    ests = estimate_field(prob, cfg, k, [p, q, p])
    assert ests[0] == ests[2]
    assert ests[0] != ests[1]
    # evaluation order does not matter either
    swapped = estimate_field(prob, cfg, k, [q, p])
    assert swapped[1] == ests[0]
    assert swapped[0] == ests[1]


# estimate_field's wavefront: the same Estimates, bit for bit, for any width,
# any order of the points and a duplicated point
_FIELD_N = 12
_FIELD_PROB = ProblemSpec(n=2, alpha=1.9, f=_poly_source, g=_bounded_exterior,
                          domain=LShapeDomain())
_FIELD_CFG = WalkConfig(epsilon=1e-4, num_paths=_FIELD_N, seed=31)
_FIELD_K = make_constants(2, 1.9)
_FIELD_PTS = np.array([[0.4, -0.3], [-0.5, 0.5], [-0.2, -0.6]])


def _bits(est):
    return (est.mean.hex(), est.variance.hex(), est.stderr.hex(), est.mean_steps.hex(),
            est.n_paths, est.n_dropped, est.n_nonfinite)


@functools.cache
def _field_base():
    ests = estimate_field(_FIELD_PROB, _FIELD_CFG, _FIELD_K, _FIELD_PTS)
    return [_bits(e) for e in ests]


@settings(max_examples=12, deadline=None)
@given(order=st.permutations(range(3)), dup=st.integers(0, 2), data=st.data())
def test_field_is_the_same_under_any_width_and_point_order(order, dup, data):
    idx = list(order) + [dup]
    width = data.draw(st.integers(1, _FIELD_N * len(idx)), label="width")
    with patch.object(engine, "_WAVEFRONT", width):
        ests = estimate_field(_FIELD_PROB, _FIELD_CFG, _FIELD_K, _FIELD_PTS[idx])
    assert [_bits(e) for e in ests] == [_field_base()[j] for j in idx]


# ---------------------------------------------------------------------------
# a ConstantField source skips the interior sample: it walks the f = None
# trajectory

_CONST = 0.7312
_CONST_N = 24
# domain and start point
_CONST_DOMAINS = {
    "disk": (BallDomain(np.zeros(2), 1.0), [0.3, -0.2]),
    "lshape": (LShapeDomain(), [-0.4, 0.5]),
    "ball10": (BallDomain(np.zeros(10), 1.0), [0.3] + [0.0] * 9),
    "ball3_off": (BallDomain(np.array([0.5, -0.25, 1.0]), 0.8), [0.7, -0.1, 1.2]),
}


def _path_bits(path):
    return (path.score.hex(), path.steps, path.exit_point.tobytes(),
            path.stopped_in_shell)


def _walk_paths(problem, cfg, k, x0, width):
    """Each path's (score, steps, exit point, shell flag), in path order, of
    a walk on a wavefront of width rows, and the uniforms calls it made and
    the Philox blocks they drew."""
    with patch.object(engine, "_WAVEFRONT", width), \
            patch.object(sampling.StreamBatch, "uniforms", autospec=True,
                         side_effect=sampling.StreamBatch.uniforms) as uniforms:
        landed = list(_walk(problem, cfg, k, x0[None, :]))
    blocks = sum(len(idx) * -(-m // 8) for (_, idx, m), _ in uniforms.call_args_list)
    pairs, scores, steps, _, exit_pt, shell = (np.concatenate(col) for col in zip(*landed))
    order = np.argsort(pairs)
    return (scores[order], steps[order], exit_pt[order], shell[order]), uniforms.call_count, blocks


@pytest.mark.parametrize("n", [2, 3, 10])
def test_a_step_is_one_uniforms_call_of_fixed_words(n):
    # with a sampled source a step reads 3 + 2d + 1 words, d = 2 ceil(n/2),
    # in one call; a lone row makes one call per step, and no block is drawn
    # that the step does not consume
    alpha = 1.3
    prob = ProblemSpec(n=n, alpha=alpha, f=_poly_source, g=_bounded_exterior,
                       domain=BallDomain(np.zeros(n), 1.0))
    cfg = WalkConfig(epsilon=1e-4, num_paths=16, seed=12)
    x0 = np.full(n, 0.4 / np.sqrt(n))
    walk, calls, blocks = _walk_paths(prob, cfg, make_constants(n, alpha), x0, 1)
    steps = int(walk[1].sum())
    assert steps > cfg.num_paths
    assert calls == steps
    assert blocks == -(-(4 + 2 * 2 * -(-n // 2)) // 8) * steps


@pytest.mark.parametrize("n", [2, 10])
def test_a_walk_advances_position_by_its_blocks(n):
    # a block gives 8 words, so a path of s steps that reads w words a step
    # leaves its counter at s * ceil(w / 8): 3 + 2d + 1 words with a sampled
    # source, d + 1 with a constant one or none, d = 2 ceil(n/2)
    alpha = 1.9
    d = 2 * -(-n // 2)
    k = make_constants(n, alpha)
    cfg = WalkConfig(epsilon=1e-4, num_paths=40, seed=7)
    x0 = np.full(n, 0.2 / np.sqrt(n))
    made = []

    class Recording(sampling.StreamBatch):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    for f, words in ((_poly_source, 2 * d + 4), (engine.ConstantField(2.0), d + 1),
                     (None, d + 1)):
        prob = ProblemSpec(n=n, alpha=alpha, f=f, g=_bounded_exterior,
                           domain=BallDomain(np.zeros(n), 1.0))
        for i in (0, 39):
            made.clear()
            with patch.object(sampling, "StreamBatch", Recording):
                path = run_path(prob, cfg, k, x0, i)
            assert path.steps > 1
            assert made[0].position.tolist() == [path.steps * -(-words // 8)]


def test_constant_field_generates_no_interior_direction():
    # a ConstantField(c) source draws only the exit words, ceil((2 ceil(n/2)
    # + 1) / 8) blocks per step, and walks the f = None walk's paths bit for
    # bit: the same steps, exit points and shell flags, and at c = 0 the
    # same scores.  Each walk is the same at wavefront widths 1, 7 and 16384,
    # and run_path replays its paths.
    for name, (dom, x0) in sorted(_CONST_DOMAINS.items()):
        x0 = np.array(x0)
        for alpha in (0.5, 1.0, 1.9):
            k = make_constants(dom.n, alpha)
            for epsilon in (1e-6, 0.05):
                cfg = WalkConfig(epsilon=epsilon, num_paths=_CONST_N, seed=41)
                case = (name, alpha, epsilon)
                walks = {}
                for c in (None, _CONST, 0.0):
                    f = None if c is None else engine.ConstantField(c)
                    prob = ProblemSpec(n=dom.n, alpha=alpha, f=f, g=_bounded_exterior,
                                       domain=dom)
                    walk, _, blocks = _walk_paths(prob, cfg, k, x0, 16384)
                    steps = int(walk[1].sum())
                    assert blocks == -(-(2 * -(-dom.n // 2) + 1) // 8) * steps, case
                    for width in (1, 7):
                        other, calls, _ = _walk_paths(prob, cfg, k, x0, width)
                        assert all(np.array_equal(a, b) for a, b in zip(other, walk)), case
                        assert width > 1 or calls == steps, case
                    for i in (0, 17, _CONST_N - 1):
                        got = _path_bits(run_path(prob, cfg, k, x0, i))
                        want = (walk[0][i].hex(), int(walk[1][i]), walk[2][i].tobytes(),
                                bool(walk[3][i]))
                        assert got == want, (case, c, i)
                    walks[c] = walk
                none, const, zero = walks[None], walks[_CONST], walks[0.0]
                for w in (const, zero):
                    assert all(np.array_equal(a, b) for a, b in zip(w[1:], none[1:])), case
                assert zero[0].tobytes() == none[0].tobytes(), case
                assert np.all(const[0] > none[0]), case  # c > 0 adds to every score


@pytest.mark.parametrize("epsilon", [1e-6, 0.05])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.9])
@pytest.mark.parametrize("name", sorted(_CONST_DOMAINS))
def test_constant_field_matches_a_plain_callable(name, alpha, epsilon):
    # a ConstantField(c) walk and a plain callable returning c take different
    # trajectories, but they estimate the same solution: with zero exterior
    # data every score is the interior term alone, and the two means agree
    # within 4 combined standard errors (about 1% of the mean at 4000 paths)
    dom, x0 = _CONST_DOMAINS[name]
    k = make_constants(dom.n, alpha)
    cfg = WalkConfig(epsilon=epsilon, num_paths=4000, seed=41)
    plain, const = (
        estimate_point(ProblemSpec(n=dom.n, alpha=alpha, f=f, g=_const_field(0.0), domain=dom),
                       cfg, k, np.array(x0))
        for f in (_const_field(_CONST), engine.ConstantField(_CONST)))
    assert plain.mean > 0.0 and plain.n_dropped == const.n_dropped == 0
    assert abs(const.mean - plain.mean) <= 4.0 * math.hypot(plain.stderr, const.stderr)


def test_constant_field_is_a_batch_field():
    f = engine.ConstantField(2)
    assert f.value == 2.0 and isinstance(f.value, float)
    out = f(np.zeros((5, 3)))
    assert out.dtype == np.float64 and np.array_equal(out, np.full(5, 2.0))
    assert f(np.zeros(3)).shape == (1,)
    assert f == engine.ConstantField(2.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.value = 3.0


# ---------------------------------------------------------------------------
# sanity on a known solution


def test_disk_value_within_error_bars():
    # unit disk, constant source tuned so u(x) = (1 - |x|^2)^(alpha/2)
    n, alpha = 2, 1.0
    k = make_constants(n, alpha)
    prob = _ball_problem(n, alpha, f=_const_field(1.0 / k.zeta_unit))
    cfg = WalkConfig(epsilon=1e-5, num_paths=4000, seed=29)
    x0 = np.array([0.5, 0.0])
    est = estimate_point(prob, cfg, k, x0)
    exact = (1.0 - 0.25) ** (alpha / 2.0)
    assert abs(est.mean - exact) <= max(4.0 * est.stderr, 5e-3)
    assert est.mean_steps >= 1.0


# ---------------------------------------------------------------------------
# step cap handling


def test_step_cap_drops_paths_with_warning():
    prob = ProblemSpec(
        n=2,
        alpha=1.5,
        f=None,
        g=_const_field(2.0),
        domain=LShapeDomain(),
    )
    k = make_constants(2, 1.5)
    x0 = np.array([0.5, -0.5])
    loose = WalkConfig(epsilon=1e-4, num_paths=64, seed=41, max_steps=10_000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        full = estimate_point(prob, loose, k, x0)
    assert full.n_dropped == 0
    # some of these 64 paths need more than one step, some exit immediately
    steps = np.array(
        [run_path(prob, loose, k, x0, i).steps for i in range(64)], dtype=int
    )
    assert np.any(steps == 1) and np.any(steps > 1)

    tight = WalkConfig(epsilon=1e-4, num_paths=64, seed=41, max_steps=1)
    with pytest.warns(RuntimeWarning, match="hit max_steps"):
        est = estimate_point(prob, tight, k, x0)
    assert est.n_dropped == int(np.sum(steps > 1))
    assert est.n_paths == int(np.sum(steps == 1))
    # dropped paths leave the moments of the surviving ones intact
    surviving = [
        run_path(prob, loose, k, x0, i).score for i in range(64) if steps[i] == 1
    ]
    assert est.mean == float(np.sum(np.array(surviving)) / len(surviving))

    idx = int(np.argmax(steps > 1))
    with pytest.raises(StepCapExceeded):
        run_path(prob, tight, k, x0, idx)


def test_dropped_paths_are_yielded_where_they_stopped():
    # a path dropped at the step cap gets no g: it is yielded once, with its
    # source sum as score (0.0 here, without f), shell False and the point
    # where it stopped, inside the ball and at least epsilon from its boundary
    dom = BallDomain(np.array([3.0, 0.0]), 1.0)
    prob = ProblemSpec(n=2, alpha=1.5, f=None, g=engine.ConstantField(0.0), domain=dom)
    cfg = WalkConfig(epsilon=1e-6, num_paths=200, seed=3, max_steps=1)
    landed = list(_walk(prob, cfg, make_constants(2, 1.5), np.array([[3.2, 0.1]])))
    k, score, steps, dropped, exit_pt, shell = map(np.concatenate, zip(*landed))
    assert np.array_equal(np.sort(k), np.arange(200))
    assert np.all(steps == 1)
    assert 0 < dropped.sum() < 200
    inside, d = dom._locate(exit_pt[dropped])
    assert np.all(inside) and np.all(d >= cfg.epsilon)
    assert not np.any(shell[dropped])
    assert np.all(score[dropped] == 0.0)


def test_all_paths_capped_is_an_error():
    # alpha near 2 keeps the jumps short, so with max_steps = 1 and this seed
    # none of the four paths manages to leave the domain
    prob = ProblemSpec(
        n=2, alpha=1.9, f=None, g=_const_field(0.0), domain=LShapeDomain()
    )
    k = make_constants(2, 1.9)
    cfg = WalkConfig(epsilon=1e-9, num_paths=4, seed=1, max_steps=1)
    x0 = np.array([0.5, -0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(RuntimeError, match="step cap"):
            estimate_point(prob, cfg, k, x0)


def test_nonfinite_scores_are_counted_and_excluded():
    # from the centre every path exits in one step; g is infinite on the
    # right half-plane, so those scores are excluded and the rest are 1
    def g(pts):
        return np.where(pts[:, 0] > 0.0, np.inf, 1.0)

    prob = _ball_problem(2, 1.2, g=g)
    cfg = WalkConfig(epsilon=1e-6, num_paths=200, seed=5)
    k = make_constants(2, 1.2)
    with pytest.warns(RuntimeWarning, match="non-finite"):
        est = estimate_point(prob, cfg, k, np.zeros(2))
    right = sum(run_path(prob, cfg, k, np.zeros(2), i).exit_point[0] > 0.0
                for i in range(200))
    assert 0 < right < 200
    assert est.n_nonfinite == right
    assert est.n_paths == 200 - right
    assert (est.mean, est.variance, est.mean_steps) == (1.0, 0.0, 1.0)
    assert est.n_dropped == 0

    prob = _ball_problem(2, 1.2, g=lambda pts: np.full(pts.shape[0], np.nan))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(RuntimeError, match="200 scored a non-finite value"):
            estimate_point(prob, cfg, k, np.zeros(2))


def test_overflowing_exterior_data_leaves_a_finite_mean():
    # g = |x|^24 overflows far out, where the heavy-tailed jump can land
    prob = _ball_problem(2, 0.3, g=lambda pts: np.sum(pts * pts, axis=1) ** 12)
    cfg = WalkConfig(epsilon=1e-6, num_paths=20000, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # numpy's overflow warnings
        est = estimate_point(prob, cfg, make_constants(2, 0.3), np.array([0.2, 0.1]))
    assert est.n_nonfinite > 0
    assert np.isfinite(est.mean)
    assert est.n_paths + est.n_nonfinite == 20000


def test_overflowing_variance_gives_a_finite_stderr():
    # every score is finite (the largest is about 1.4e256), but their squared
    # deviations overflow; the variance itself, about 1.0e509, is beyond the
    # float range.  The figures are those of exact rational arithmetic on the
    # walk's scores
    prob = _ball_problem(2, 0.3, g=lambda pts: np.sum(pts * pts, axis=1) ** 12)
    cfg = WalkConfig(epsilon=1e-6, num_paths=2000, seed=0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = estimate_point(prob, cfg, make_constants(2, 0.3), np.array([0.2, 0.1]))
    assert [str(w.message) for w in caught] == [
        "the variance of 2000 scores overflows; stderr was computed from the "
        "scores scaled by their largest magnitude"
    ]
    assert (est.n_paths, est.n_nonfinite, est.n_dropped) == (2000, 0, 0)
    assert est.variance == math.inf
    assert est.stderr == pytest.approx(7.2440e252, rel=1e-3)
    assert est.mean == pytest.approx(7.2440e252, rel=1e-3)


# ---------------------------------------------------------------------------
# analytic step diagnostic


def test_step_bound_frozen_value():
    p_star, q_star, bound = step_bound(2, 1.0, 1.0, 1e-6)
    assert 0.0 < p_star < 1.0
    assert 0.0 < q_star < 1.0
    # reference value from mpmath at 50 digits
    assert bound == pytest.approx(2465179658618.3186, rel=1e-13)
    # at alpha = 1, I_x(1/2, 1/2) = (2/pi) asin(sqrt(x)).  The bound divides
    # by the tail 1 - p_star = I_{eps^2/r^2} itself: p_star, a double near 1,
    # keeps only about ten significant digits of that tail
    tail = 2.0 / math.pi * math.asin(1e-6)
    assert 1.0 - p_star == pytest.approx(tail, rel=1e-9)
    assert bound == pytest.approx(1.0 + q_star / tail**2, rel=1e-15)


def test_step_bound_monotone_in_epsilon():
    bounds = [step_bound(2, 1.2, 1.0, eps)[2] for eps in (1e-2, 1e-4, 1e-6)]
    assert bounds[0] < bounds[1] < bounds[2]


def test_step_bound_validation():
    with pytest.raises(ValueError):
        step_bound(2, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        step_bound(2, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        step_bound(2, 1.0, 0.5, 0.7)
    with pytest.raises(ValueError):
        step_bound(2, 2.0, 1.0, 1e-3)
    # the range every other entry point accepts, [ALPHA_MIN, ALPHA_MAX]
    for alpha in (0.01, 1.99):
        with pytest.raises(ValueError, match="alpha"):
            step_bound(2, alpha, 1.0, 1e-3)


def test_step_bound_underflow_and_nonfinite():
    # (eps/r)^2 underflows to 0 in the first two, the tail's square in the
    # third, and the bound overflows in the fourth: each bound is inf
    for args in ((2, 1.0, 1.0, 1e-200), (2, 1.0, 1e300, 1.0), (3, 1.95, 1.0, 1e-155),
                 (2, 1.0, 1.0, 1e-160)):
        assert step_bound(*args) == (1.0, 1.0, math.inf)
    for r, eps in ((math.inf, 1.0), (math.inf, math.inf), (1.0, math.nan), (math.nan, 0.5)):
        with pytest.raises(ValueError, match="need 0 < epsilon < r"):
            step_bound(2, 1.0, r, eps)


# ---------------------------------------------------------------------------
# error metric


def test_error_metric_hand_case():
    scaled, rmse = error_metric([1.0, 1.0], [1.5, 0.5])
    assert scaled == pytest.approx(math.sqrt(0.5) / 2.0, rel=1e-15)
    assert rmse == 0.5
    scaled1, rmse1 = error_metric([2.0], [2.0])
    assert scaled1 == 0.0 and rmse1 == 0.0


def test_error_metric_validation():
    with pytest.raises(ValueError):
        error_metric([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        error_metric([[1.0]], [[1.0]])
    with pytest.raises(ValueError):
        error_metric([], [])


# ---------------------------------------------------------------------------
# input validation


def test_problem_spec_validation():
    dom = BallDomain(np.zeros(2), 1.0)
    g = _const_field(0.0)
    with pytest.raises(ValueError):
        ProblemSpec(n=3, alpha=1.0, f=None, g=g, domain=dom)
    with pytest.raises(ValueError):
        ProblemSpec(n=2, alpha=2.0, f=None, g=g, domain=dom)
    with pytest.raises(ValueError):
        ProblemSpec(n=2, alpha=0.0, f=None, g=g, domain=dom)
    with pytest.raises(ValueError, match="0.05"):  # below the kernels' range
        ProblemSpec(n=2, alpha=0.01, f=None, g=g, domain=dom)
    with pytest.raises(ValueError):
        ProblemSpec(n=2, alpha=1.0, f=None, g=None, domain=dom)
    # alpha is a real number: no string, no bool
    for bad in ("1.0", True, None, [1.0]):
        with pytest.raises(ValueError, match="alpha must be a real number"):
            ProblemSpec(n=2, alpha=bad, f=None, g=g, domain=dom)
    # Python and numpy reals are reals
    for good in (1, np.float64(1.5), np.float32(0.5), np.int64(1)):
        assert ProblemSpec(n=2, alpha=good, f=None, g=g, domain=dom).alpha == good


def test_walk_config_validation():
    ok = dict(epsilon=1e-6, num_paths=10, seed=0)
    WalkConfig(**ok)
    with pytest.raises(ValueError):
        WalkConfig(epsilon=0.0, num_paths=10, seed=0)
    with pytest.raises(ValueError):
        WalkConfig(epsilon=1e-6, num_paths=0, seed=0)
    with pytest.raises(ValueError):
        WalkConfig(epsilon=1e-6, num_paths=10, seed=-1)
    with pytest.raises(ValueError):
        WalkConfig(epsilon=1e-6, num_paths=10, seed=2**64)
    with pytest.raises(ValueError):
        WalkConfig(epsilon=1e-6, num_paths=10, seed=0, max_steps=0)
    # counts and the seed are integers: no bool, no float, integral or not
    for field, bad in (("seed", 1.5), ("seed", True), ("num_paths", 200.0),
                       ("num_paths", True), ("max_steps", 2.5), ("max_steps", False)):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            WalkConfig(**{**ok, field: bad})
    # numpy integers are integers
    cfg = WalkConfig(epsilon=1e-6, num_paths=np.int64(10), seed=np.uint64(2**64 - 1),
                     max_steps=np.int32(5))
    assert cfg.num_paths == 10 and cfg.seed == 2**64 - 1 and cfg.max_steps == 5
    # epsilon is a finite positive real: no bool, no string
    for bad in (True, "1e-6", None):
        with pytest.raises(ValueError, match="epsilon must be a real number"):
            WalkConfig(**{**ok, "epsilon": bad})
    with pytest.raises(ValueError, match="epsilon must be finite"):
        WalkConfig(**{**ok, "epsilon": math.inf})
    with pytest.raises(ValueError, match="epsilon must be positive"):
        WalkConfig(**{**ok, "epsilon": math.nan})
    for good in (1, np.float64(1e-3), np.float32(0.5)):
        assert WalkConfig(**{**ok, "epsilon": good}).epsilon == good


def test_start_point_validation():
    prob = _ball_problem(2, 1.0)
    cfg = WalkConfig(epsilon=1e-2, num_paths=10, seed=0)
    k = make_constants(2, 1.0)
    with pytest.raises(ValueError, match="outside the domain"):
        estimate_point(prob, cfg, k, np.array([2.0, 0.0]))
    with pytest.raises(ValueError, match="epsilon-shell"):
        estimate_point(prob, cfg, k, np.array([0.995, 0.0]))
    with pytest.raises(ValueError, match="shape"):
        estimate_point(prob, cfg, k, np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError, match="different"):
        estimate_point(prob, cfg, make_constants(3, 1.0), np.zeros(2))
    with pytest.raises(ValueError, match="different"):
        estimate_point(prob, cfg, make_constants(2, 1.1), np.zeros(2))
    # a batch is checked whole, before any walk, naming the first bad point
    with pytest.raises(ValueError, match=r"point 2 \[2.0, 0.0\] lies outside the domain"):
        estimate_field(prob, cfg, k, [[0.0, 0.0], [0.5, 0.0], [2.0, 0.0], [0.995, 0.0]])
    with pytest.raises(ValueError, match=r"point 1 \[0.995, 0.0\] lies inside the epsilon"):
        estimate_field(prob, cfg, k, [[0.0, 0.0], [0.995, 0.0]])


def test_field_errors_propagate_from_one_batch_call():
    calls = []

    def broken(pts):
        calls.append(np.shape(pts))
        raise KeyError("bug inside the field")

    with pytest.raises(KeyError, match="bug inside the field"):
        _FieldEval(broken)(np.zeros((5, 2)))
    assert calls == [(5, 2)]

    prob = _ball_problem(2, 1.0, f=broken)
    cfg = WalkConfig(epsilon=1e-4, num_paths=16, seed=0)
    calls.clear()
    with pytest.raises(KeyError, match="bug inside the field"):
        estimate_point(prob, cfg, make_constants(2, 1.0), np.array([0.3, 0.0]))
    assert calls == [(16, 2)]


def test_field_wrong_shape_is_an_error():
    def scalar_field(x):
        return float(np.sum(x))

    for fn in (scalar_field, lambda pts: np.zeros((pts.shape[0], 1))):
        with pytest.raises(ValueError, match="wrong-shaped"):
            _FieldEval(fn)(np.zeros((3, 2)))
    one = _FieldEval(lambda pts: np.ones(pts.shape[0]))
    assert one(np.zeros(2)).shape == (1,)


def test_estimate_is_a_plain_record():
    est = Estimate(mean=1.0, variance=0.0, stderr=0.0, n_paths=3, mean_steps=1.0)
    assert est.n_dropped == 0
    assert est.n_nonfinite == 0
