"""Counter-based random streams and the two jump distributions.

The Philox rounds (_philox_rounds, on lanes built by hand) are checked word
for word against the three Random123 philox4x64-10 known-answer vectors and
numpy.random.Philox.  StreamBatch.uniforms, the one entry the walk draws
through, is checked against numpy's words across tile cuts, with per-row
keys and high counter words.  The distributional tests
draw through what the walk runs (StreamBatch, box_muller,
exit_radius_from_uniform, and interior_radius_from_uniforms on three words
of each path's stream, as a step reads them) at moderate sample sizes; the
full 1e5-draw KS battery lives in the acceptance suite.
"""

from unittest.mock import patch

import exit_reference
import numpy as np
import pytest
import scipy.special as sc
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Philox
from zeta_reference import gauss_jacobi_rule

from fracwos import kernels, sampling
from fracwos.engine import _unit_rows
from fracwos.geometry import BallDomain
from fracwos.sampling import (
    _TILE_BLOCKS,
    StreamBatch,
    _philox_rounds,
    _store_unit_open,
    box_muller,
    exit_radius_from_uniform,
    interior_radius_from_uniforms,
    point_substream,
)

# 1% KS critical coefficient: D_N < 1.6276 / sqrt(N)
_KS_1PCT = 1.6276


# ---------------------------------------------------------------------------
# Philox block function


def _philox_words(counter, key):
    """Philox4x64-10 words (w0, w1, w2, w3) of each block -> (T, 4) uint64,
    from _philox_rounds on lanes built by hand: counter is (c0, c1, c2, c3)
    and key (k0, k1), each word a length-T sequence."""
    c = np.array(counter, dtype=np.uint64)
    a, b = _philox_rounds(c[0::2].copy(), c[1::2].copy(), np.array(key, dtype=np.uint64))
    return np.stack((a[0], b[0], a[1], b[1]), axis=1)


# the Random123 philox4x64-10 known-answer vectors: counter, key, words
_KAT = [
    ((0, 0, 0, 0), (0, 0),
     (0x16554D9ECA36314C, 0xDB20FE9D672D0FDC, 0xD7E772CEE186176B, 0x7E68B68AEC7BA23B)),
    ((2**64 - 1,) * 4, (2**64 - 1,) * 2,
     (0x87B092C3013FE90B, 0x438C3C67BE8D0224, 0x9CC7D7C69CD777B6, 0xA09CAEBF594F0BA0)),
    ((0x243F6A8885A308D3, 0x13198A2E03707344, 0xA4093822299F31D0, 0x082EFA98EC4E6C89),
     (0x452821E638D01377, 0xBE5466CF34E90C6C),
     (0xA528F45403E61D95, 0x38C72DBD566E9788, 0xA5A1610E72FD18B5, 0x57BD43B5E52B7FE6)),
]


def test_philox_random123_known_answer():
    # each vector alone, then all three as the lanes of one call
    for counter, key, words in _KAT:
        got = _philox_words([[c] for c in counter], [[k] for k in key])
        assert [int(w) for w in got[0]] == list(words), hex(counter[0])
    got = _philox_words(list(zip(*(c for c, _, _ in _KAT))),
                        list(zip(*(k for _, k, _ in _KAT))))
    assert [[int(w) for w in row] for row in got] == [list(w) for _, _, w in _KAT]


def test_philox_matches_numpy_blocks():
    # numpy advances the counter before emitting, so its first block is
    # ours at counter0 + 1; c2 and c3 are set, the top bit of c2 too
    k0, k1 = 0xDEADBEEF, 0x12345
    c2, c3 = 2**63 + 5, 2**64 - 2
    ref = Philox(counter=np.array([7, 9, c2, c3], dtype=np.uint64),
                 key=np.array([k0, k1], dtype=np.uint64)).random_raw(8)
    got = _philox_words([[8, 9], [9, 9], [c2, c2], [c3, c3]], [[k0, k0], [k1, k1]])
    assert [int(w) for w in got.ravel()] == [int(v) for v in ref]


def test_philox_vectorized_counter_axis():
    # a lane of blocks equals the blocks one at a time, on either side of
    # the constant-copy cut in _philox_rounds; c0 wraps past 2^64 - 1
    for blocks in (5, _TILE_BLOCKS // 2 + 1):
        c0 = np.arange(blocks, dtype=np.uint64) + np.uint64(2**64 - 3)
        ones = np.ones(blocks, dtype=np.uint64)
        out = _philox_words([c0, 3 * ones, 0 * ones, 7 * ones], [11 * ones, 13 * ones])
        for i in sorted({0, 2, 3, blocks // 2, blocks - 1}):
            single = _philox_words([[c0[i]], [3], [0], [7]], [[11], [13]])
            assert np.array_equal(out[i], single[0])


def _numpy_words(c0, c1, k0, k1, nblocks):
    """numpy.random.Philox words of the blocks at counters (c0 + j, c1, 0, 0),
    j < nblocks: numpy advances its 256-bit counter before each block."""
    total = ((int(c1) << 64) + int(c0) - 1) % 2**256
    counter = [(total >> (64 * i)) & (2**64 - 1) for i in range(4)]
    key = np.array([int(k0), int(k1)], dtype=np.uint64)
    return Philox(counter=np.array(counter, dtype=np.uint64), key=key).random_raw(4 * nblocks)


def _unit_open(words):
    """Two uniforms per uint64 word, its low 32-bit half first: (h + 1/2) 2^-32."""
    halves = np.stack((words & np.uint64(0xFFFFFFFF), words >> np.uint64(32)), axis=-1)
    return (halves.reshape(-1) + 0.5) * 0.5**32


@pytest.mark.parametrize("rows, nblocks", [(3, _TILE_BLOCKS // 2 + 5), (2, _TILE_BLOCKS + 9)])
def test_philox_2d_counter_array_spanning_tiles(rows, nblocks):
    # more blocks than one tile, cut between rows and within a row, drawn
    # through uniforms; keys k1, substreams c1 and positions 2^62 + c1 are
    # one per row, with high words
    k1 = [5, 2**64 - 3, 77][:rows]
    c1 = [0, 9, 2**40][:rows]
    batch = StreamBatch(0xABCDEF, k1, c1)
    batch.position = np.uint64(2**62) + batch.substreams
    got = batch.uniforms(np.arange(rows), 8 * nblocks)
    assert got.shape == (rows, 8 * nblocks)
    for i in range(rows):
        ref = _numpy_words(2**62 + c1[i], c1[i], 0xABCDEF, k1[i], nblocks)
        assert np.array_equal(got[i], _unit_open(ref))
    assert np.array_equal(batch.position, np.uint64(2**62 + nblocks) + batch.substreams)


@pytest.mark.parametrize("m", [4, 12])
def test_uniforms_rows_not_a_multiple_of_the_tile(m):
    rows = _TILE_BLOCKS + 37
    batch = StreamBatch(seed=123, stream_ids=np.arange(rows) * 3 + 1, substreams=8)
    got = batch.uniforms(np.arange(rows), m)
    assert got.shape == (rows, m)
    for i in list(range(0, rows, 997)) + [rows - 1]:
        ref = _unit_open(_numpy_words(0, 8, 123, 3 * i + 1, -(-m // 8)))
        assert np.array_equal(got[i], ref[:m])
    assert np.all(batch.position == -(-m // 8))


def test_uniforms_mixed_per_row_positions():
    batch = StreamBatch(seed=5, stream_ids=[10, 11, 12, 13, 14], substreams=[0, 1, 2, 3, 4])
    batch.uniforms(np.array([1, 3]), 17)  # 3 blocks
    batch.uniforms(np.array([3, 4]), 1)  # 1 block
    batch.uniforms(np.array([2]), 80)  # 10 blocks
    start = batch.position.copy()
    assert start.tolist() == [0, 3, 10, 4, 1]
    got = batch.uniforms(np.arange(5), 15)
    for i in range(5):
        ref = _unit_open(_numpy_words(start[i], i, 5, 10 + i, 2))
        assert np.array_equal(got[i], ref[:15])
    assert np.array_equal(batch.position, start + 2)


@pytest.mark.parametrize("m", [1, 3, 4, 8])
def test_one_block_uniforms_on_a_row_subset_spanning_tiles(m):
    # a one-block request takes the gathered per-row words as they are; a
    # reversed subset of rows at mixed positions, over more than one tile
    rows = _TILE_BLOCKS + 37
    total = 2 * rows + 1
    ids, subs = np.arange(total) * 7 + 2, np.arange(total) % 5
    batch = StreamBatch(seed=99, stream_ids=ids, substreams=subs)
    batch.uniforms(np.arange(0, total, 3), 17)  # 3 blocks on every third row
    idx = np.arange(1, total, 2)[::-1]
    start = batch.position.copy()
    got = batch.uniforms(idx, m)
    assert got.shape == (rows, m)
    for j in list(range(0, rows, 499)) + [_TILE_BLOCKS - 1, _TILE_BLOCKS, rows - 1]:
        i = idx[j]
        ref = _unit_open(_numpy_words(start[i], subs[i], 99, ids[i], 1))
        assert np.array_equal(got[j], ref[:m])
    assert np.array_equal(batch.position[idx], start[idx] + 1)
    assert np.array_equal(batch.position[0::2], start[0::2])  # rows not drawn


def test_uniforms_of_no_rows_or_no_draws():
    batch = StreamBatch(seed=4, stream_ids=np.arange(6), substreams=1)
    batch.uniforms([1, 4], 6)
    start = batch.position.copy()
    assert batch.uniforms(np.array([], dtype=np.intp), 5).shape == (0, 5)
    assert batch.uniforms([], 9).shape == (0, 9)
    assert batch.uniforms(np.arange(6), 0).shape == (6, 0)
    assert np.array_equal(batch.position, start)


@pytest.mark.parametrize("m", [1, 7])
def test_uniforms_take_a_list_of_rows(m):
    rows = [5, 0, 3, 2]
    a, b = (StreamBatch(seed=8, stream_ids=np.arange(6) + 40, substreams=2) for _ in range(2))
    for s in (a, b):
        s.uniforms([0, 5], 9)  # mixed starting positions
    assert np.array_equal(a.uniforms(rows, m), b.uniforms(np.array(rows, dtype=np.intp), m))
    assert np.array_equal(a.position, b.position)


# ---------------------------------------------------------------------------
# streams


def _stream(seed, stream_id, substream=0):
    """Uniforms from one addressed stream: a StreamBatch of a single path."""
    batch = StreamBatch(seed, [stream_id], substream)
    return lambda m: batch.uniforms([0], m)[0]


def test_stream_replay_is_exact():
    a = StreamBatch(seed=42, stream_ids=[7], substreams=3)
    b = StreamBatch(seed=42, stream_ids=[7], substreams=3)
    for m in (13, 6):
        assert np.array_equal(a.uniforms([0], m), b.uniforms([0], m))


def test_streams_with_different_addresses_differ():
    base = _stream(0, 0)(8)
    assert not np.array_equal(base, _stream(1, 0)(8))
    assert not np.array_equal(base, _stream(0, 1)(8))
    assert not np.array_equal(base, _stream(0, 0, substream=1)(8))


def test_uniforms_live_in_the_open_interval():
    u = _stream(3, 5)(4096)
    assert np.all((u > 0.0) & (u < 1.0))


def test_words_map_to_the_ends_of_the_open_interval_low_half_first():
    # 0 and 2^64 - 1 give the two ends, 2^-33 and 1 - 2^-33, exactly; a
    # word's low 32-bit half gives its first uniform
    words = np.array([0, 2**64 - 1, 1, 2**32, 2**63 + 2**31], dtype=np.uint64)
    u = np.empty((5, 2))
    _store_unit_open(u, words)
    assert u[0].tolist() == [0.5**33, 0.5**33]
    assert u[1].tolist() == [1.0 - 0.5**33, 1.0 - 0.5**33]
    assert u[2].tolist() == [1.5 * 0.5**32, 0.5**33]
    assert u[3].tolist() == [0.5**33, 1.5 * 0.5**32]
    assert u[4].tolist() == [0.5 + 0.5**33, 0.5 + 0.5**33]
    assert np.array_equal(u.ravel(), _unit_open(words))
    # the largest uniform's Box-Muller radius is not 0 (an n = 2 direction
    # of 0/0), and the smallest one's is sqrt(66 log 2), about 6.8
    z = box_muller(u[:2].reshape(1, 4), 4)
    assert np.all(np.isfinite(_unit_rows(z[:, 2:])))
    assert z[0, 0] == pytest.approx(np.sqrt(66.0 * np.log(2.0)), rel=1e-14)
    assert np.max(np.abs(z)) < 6.8


def test_batch_addressing_matches_single_streams():
    # a path draws the same numbers whether it runs alone or in a batch,
    # and no matter which other paths are addressed alongside it
    batch = StreamBatch(seed=9, stream_ids=[100, 200, 300], substreams=4)
    got = batch.uniforms(np.array([0, 2]), 5)
    batch.uniforms(np.array([1]), 3)  # advance only the middle path
    got2 = batch.uniforms(np.array([0, 2]), 2)
    for row, sid in ((0, 100), (1, 300)):
        solo = _stream(9, sid, substream=4)
        assert np.array_equal(got[row], solo(5))
        # 5 uniforms consumed 1 counter block (8 slots); replaying the
        # solo stream reproduces the batch continuation
        assert np.array_equal(got2[row], solo(2))


def test_position_counts_blocks():
    s = StreamBatch(0, [0])
    s.uniforms([0], 1)
    assert s.position[0] == 1
    s.uniforms([0], 9)  # two more blocks
    assert s.position[0] == 3


def test_normals_are_standard():
    z = box_muller(StreamBatch(17, [0]).uniforms([0], 40_000), 40_000)[0]
    assert z.shape == (40_000,)
    assert abs(z.mean()) < 4.0 / np.sqrt(40_000)
    assert abs(z.std() - 1.0) < 0.02


# ---------------------------------------------------------------------------
# directions


def _directions(n, seed, size):
    """Directions on S^(n-1) as the walk draws them: n Box-Muller normals
    per path, normalized."""
    idx = np.arange(size)
    u = StreamBatch(seed, idx).uniforms(idx, 2 * -(-n // 2))
    return _unit_rows(box_muller(u, n))


def test_unit_direction_shapes_and_norms():
    assert _directions(3, 1, 1).shape == (1, 3)
    D = _directions(5, 2, 400)
    assert D.shape == (400, 5)
    assert np.allclose(np.linalg.norm(D, axis=1), 1.0, atol=1e-12)


def test_unit_direction_coordinate_moments_high_dim():
    # uniform on S^(n-1): E[x_i] = 0, E[x_i^2] = 1/n
    n, N = 10, 20_000
    D = _directions(n, 5, N)
    assert np.all(np.abs(D.mean(axis=0)) < 4.0 / np.sqrt(n * N))
    assert np.all(np.abs((D**2).mean(axis=0) - 1.0 / n) < 0.002)


def test_unit_direction_planar_angles_uniform():
    # chi-square over 8 octants, 1% critical value for 7 dof is 18.48
    D = _directions(2, 23, 16_000)
    angles = np.arctan2(D[:, 1], D[:, 0])
    counts, _ = np.histogram(angles, bins=8, range=(-np.pi, np.pi))
    expected = 16_000 / 8
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < 18.48


# ---------------------------------------------------------------------------
# exit radius


def test_exit_radius_cdf_round_trip():
    # F(gamma(u)) = 1 - u by construction.  Parametrized through
    # x = (r/gamma)^2 over gamma <= 1e3 r: past that, 1 - x rounds to 1
    # in double and the complement-form CDF saturates (for small alpha
    # most of the law lives out there, but no KS statistic can see it).
    x = np.concatenate([np.geomspace(1e-6, 0.5, 80), np.linspace(0.5, 1 - 1e-6, 80)])
    r = 2.5
    for alpha in (0.05, 0.4, 1.0, 1.6, 1.95):
        u = sc.betainc(alpha / 2.0, 1.0 - alpha / 2.0, x)  # stable direction
        gamma = r / np.sqrt(x)
        back = kernels.exit_radius_cdf(gamma, r, alpha)
        assert np.max(np.abs(back - (1.0 - u))) < 1e-9
        # and the sampler transform inverts the same u
        g2 = exit_radius_from_uniform(r, alpha, u)
        assert np.max(np.abs(g2 - gamma) / gamma) < 1e-8


def test_exit_radius_exceeds_ball_and_scales():
    g = exit_radius_from_uniform(0.7, 1.2, _stream(3, 1)(5000))
    assert np.all(g > 0.7)
    # pure scale family: the transform at radius r is r times radius 1
    u = np.linspace(0.01, 0.99, 11)
    assert np.allclose(
        exit_radius_from_uniform(3.0, 0.8, u),
        3.0 * exit_radius_from_uniform(1.0, 0.8, u),
        rtol=1e-14,
    )


def test_exit_radius_median_alpha_one():
    # alpha = 1: F(r sqrt(2)) = 1 - (2/pi) arcsin(1/sqrt(2)) = 1/2
    assert abs(kernels.exit_radius_cdf(np.sqrt(2.0), 1.0, 1.0) - 0.5) < 1e-12
    g = exit_radius_from_uniform(1.0, 1.0, _stream(11, 0)(40_000))
    assert abs(np.median(g) - np.sqrt(2.0)) < 0.005 * np.sqrt(2.0)


def test_exit_radius_small_alpha_underflow_clamp():
    # tiny uniforms would underflow the Beta inverse to 0 for small alpha;
    # the clamp keeps the jump finite
    g = exit_radius_from_uniform(1.0, 0.1, np.array([1e-280, 1e-320]))
    assert np.all(np.isfinite(g))
    assert np.all(g <= 1e151)


def test_exit_radius_ks_moderate():
    for alpha in (0.4, 1.0, 1.6):
        N = 20_000
        g = exit_radius_from_uniform(1.0, alpha, _stream(29, int(alpha * 10))(N))
        u = np.sort(kernels.exit_radius_cdf(g, 1.0, alpha))
        k = np.arange(1, N + 1)
        d = max(np.max(k / N - u), np.max(u - (k - 1) / N))
        assert d < _KS_1PCT / np.sqrt(N), alpha


def test_sample_exit_point_radial_law():
    # one jump from the center as the walk makes it: exit direction from the
    # first words of a path's draw, exit radius from the first word of the
    # next block
    ball = BallDomain(np.array([1.0, -2.0]), 0.5)
    idx = np.arange(2000)
    u = StreamBatch(7, idx).uniforms(idx, 8)
    gamma = exit_radius_from_uniform(ball.radius, 1.1, u[:, 4])
    pts = ball.center + gamma[:, None] * _unit_rows(box_muller(u, 2))
    r = np.linalg.norm(pts - ball.center, axis=1)
    assert np.all(r > 0.5)
    u = np.sort(kernels.exit_radius_cdf(r, 0.5, 1.1))
    k = np.arange(1, 2001)
    d = max(np.max(k / 2000 - u), np.max(u - (k - 1) / 2000))
    assert d < _KS_1PCT / np.sqrt(2000)


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(0.05, 1.95),
    r=st.floats(1e-3, 1e3),
    k=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64),
)
def test_exit_table_against_betaincinv(alpha, r, k):
    # uniforms of the generator's lattice and its two ends, the ends of a
    # 53-bit lattice past them, and two far below where the 1e-300 clamp on
    # x holds
    u = np.empty((len(k), 2))
    _store_unit_open(u, np.array(k, dtype=np.uint64))
    u = np.sort(np.concatenate([u.ravel(), [0.5**33, 1.0 - 0.5**33, 0.5**54,
                                            1.0 - 0.5**53, 1e-280, 1e-320]]))
    got = exit_radius_from_uniform(r, alpha, u)
    ref = exit_reference.exit_radius_from_uniform(r, alpha, u)
    assert np.max(np.abs(got / ref - 1.0)) <= 1e-11
    assert np.all(np.diff(got) <= 0.0)  # gamma does not increase with u
    # x rounds to 1 near u = 1 (betaincinv's too), and then gamma = r
    assert np.all((got >= r) & (got <= r * 1.000001e150))
    # alpha = 1 is betaincinv itself
    one = exit_radius_from_uniform(r, 1.0, u)
    assert one.tobytes() == exit_reference.exit_radius_from_uniform(r, 1.0, u).tobytes()


def test_exit_table_build_checks_its_tolerance():
    with patch.object(sampling, "_EXIT_TABLE_TOL", 1e-18):
        with pytest.raises(RuntimeError, match="exit table"):
            sampling._exit_table.__wrapped__(0.7)


@pytest.mark.parametrize("alpha", [0.3, 1.9])
def test_exit_inverse_rows_do_not_depend_on_the_batch(alpha):
    # a row's (x, 1 - x) is the same alone, in a batch on one side of u*
    # (the other side skipped) and in a batch on both sides; no rows, no pair
    table = sampling._exit_table(alpha)
    ustar = table[0]
    u = np.array([0.5**54, ustar / 2, ustar, np.nextafter(ustar, 1.0),
                  (1.0 + ustar) / 2, 1.0 - 0.5**53])
    x, y = sampling._exit_inverse(table, u)
    for rows in ([0], [4], [0, 1, 2], [3, 4, 5]):
        xs, ys = sampling._exit_inverse(table, u[rows])
        assert xs.tobytes() == x[rows].tobytes() and ys.tobytes() == y[rows].tobytes()
    assert all(v.shape == (0,) for v in sampling._exit_inverse(table, u[:0]))


def test_alpha_one_exit_inverse_is_betaincinv_bit_for_bit():
    # at alpha = 1 the exit law is the arcsine law, x = sin^2(pi u / 2), and
    # 1 - x is sin^2(pi (1 - u) / 2); both equal scipy's betaincinv(1/2, 1/2)
    # bit for bit at the ends of a 53-bit lattice, at the generator's two
    # ends and on a fixed sample
    idx = np.arange(4)
    u = np.concatenate([[0.5**54, 1.0 - 0.5**53, 0.5**33, 1.0 - 0.5**33],
                        StreamBatch(8, idx, 3).uniforms(idx, 50_000).ravel()])
    x, one_minus_x = sampling._beta_inverse(1.0, u)
    assert x.tobytes() == sc.betaincinv(0.5, 0.5, u).tobytes()
    assert one_minus_x.tobytes() == sc.betaincinv(0.5, 0.5, 1.0 - u).tobytes()
    # the 53-bit top end keeps 1 - x = (pi/2)^2 2^-106 to rounding, where
    # 1 - x by subtraction would read 0
    assert one_minus_x[1] == pytest.approx((np.pi / 2.0) ** 2 * 0.5**106, rel=1e-15)
    assert 1.0 - x[1] == 0.0


# ---------------------------------------------------------------------------
# interior radius


def _interior_cdf(s_sorted, n, alpha, m=96):
    """Quadrature CDF of the radial law s^(alpha-1) w(s) / Z.

    Scaling t = s*tau turns int_0^s t^(alpha-1) w(t) dt into
    s^alpha * int_0^1 tau^(alpha-1) w(s tau) dtau, one Gauss-Jacobi rule
    for every threshold."""
    tau, wt = gauss_jacobi_rule(m, alpha - 1.0)
    w = kernels.interior_radial_weight(
        np.clip(s_sorted[:, None] * tau[None, :], 1e-300, 1 - 1e-16), n, alpha
    )
    part = s_sorted**alpha * np.sum(wt[None, :] * w, axis=1)
    full_w = kernels.interior_radial_weight(np.clip(tau, 1e-300, 1 - 1e-16), n, alpha)
    return part / float(np.sum(wt * full_w))


def _interior_cdf_closed_form(s, n, alpha):
    """F(s) = s^alpha I_{1-s^2}(a, b) B(a, b) / B(n/2, a) + I_{s^2}(n/2, a),
    a = alpha/2, b = (n - alpha)/2: the radial law's CDF, by parts."""
    a, b = alpha / 2.0, (n - alpha) / 2.0
    return (s**alpha * sc.betainc(a, b, 1.0 - s * s) * sc.beta(a, b) / sc.beta(n / 2.0, a)
            + sc.betainc(n / 2.0, a, s * s))


@pytest.mark.parametrize("alpha", [0.05, 1.0, 1.95])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 10])
def test_interior_transform_matches_the_closed_form_cdf(n, alpha):
    # KS at 1% against the closed-form CDF on fixed streams
    N = 50_000
    idx = np.arange(N)
    u = StreamBatch(2026, idx, 1000 * n + round(100 * alpha)).uniforms(idx, 3)
    s = interior_radius_from_uniforms(n, alpha, u[:, 0], u[:, 1], u[:, 2])
    assert np.all((s >= 0.0) & (s < 1.0))
    f = np.sort(_interior_cdf_closed_form(np.sort(s), n, alpha))
    k = np.arange(1, N + 1)
    d = max(np.max(k / N - f), np.max(f - (k - 1) / N))
    assert d < _KS_1PCT / np.sqrt(N)
    # the generator's two ends and those of a 53-bit lattice for each word,
    # and for X also the first 1000 words of the sample, keep S in [0, 1)
    # and T in (0, 1]; at alpha = 1, x and 1 - x are rounded apart and may
    # sum past 1
    ends = np.array([0.5**33, 1.0 - 0.5**33, 0.5**54, 1.0 - 0.5**53])
    ux, ut, uv = (e.ravel() for e in np.meshgrid(np.concatenate([ends, u[:1000, 0]]),
                                                 ends, ends, indexing="ij"))
    t = sampling._interior_t(n, alpha, ux, ut)
    assert np.all((t > 0.0) & (t <= 1.0))
    s = interior_radius_from_uniforms(n, alpha, ux, ut, uv)
    assert np.all((s >= 0.0) & (s < 1.0))


def test_interior_radius_ks_moderate():
    for n, alpha in [(2, 0.4), (3, 1.0), (10, 1.6)]:
        N = 20_000
        idx = np.arange(N)
        s = interior_radius_from_uniforms(
            n, alpha, *StreamBatch(31, idx, n * 100).uniforms(idx, 3).T)
        assert np.all((s > 0.0) & (s < 1.0))
        u = np.sort(_interior_cdf(np.sort(s), n, alpha))
        k = np.arange(1, N + 1)
        d = max(np.max(k / N - u), np.max(u - (k - 1) / N))
        assert d < _KS_1PCT / np.sqrt(N), (n, alpha)


def test_sample_interior_point_stays_inside():
    # the source point of one step as the walk places it:
    # center + (radius * s) * direction
    ball = BallDomain(np.array([0.5, 0.5, 0.0]), 2.0)
    idx = np.arange(500)
    batch = StreamBatch(13, idx)
    s = interior_radius_from_uniforms(3, 0.9, *batch.uniforms(idx, 3).T)
    ydir = _unit_rows(box_muller(batch.uniforms(idx, 4), 3))
    pts = ball.center + (ball.radius * s)[:, None] * ydir
    assert np.all(ball.contains(pts))


# ---------------------------------------------------------------------------
# substream labels


def test_point_substream_is_stable_and_normalizes_zero():
    assert point_substream(np.zeros(2)) == 1041621211125469266
    assert point_substream(np.array([-0.0, 0.0])) == point_substream(np.zeros(2))
    assert point_substream([1.0, 2.0]) != point_substream([2.0, 1.0])
    assert 0 <= point_substream(np.ones(10)) < 2**64
