"""Counter-based random streams and the transforms the walk applies to them.

The random plumbing is a vectorized Philox4x64-10 counter-based generator
(same keyed algorithm as numpy.random.Philox, validated against it in the
tests).  Streams are addressed, not seeded: a draw is a pure function of

    (seed, stream_id, substream, block position)

so paths replay identically no matter how they are batched or scheduled.
The solver keys stream_id by path index and substream by a hash of the
evaluation point, which makes whole-field runs order-independent and
duplicate points bit-identical.  _philox_rounds runs the ten rounds in place
on (2, T) lanes A = (c0, c2), B = (c1, c3) and key (k0, k1), which
StreamBatch.uniforms fills from its flat block list, _TILE_BLOCKS at a time.

* ``StreamBatch`` - one addressed stream per path, each with its own block
  counter; ``uniforms`` draws whole blocks for a subset of the paths.  Each
  64-bit word gives two uniforms, its low 32-bit half first, so a block
  gives 8, each (h + 1/2) 2^-32 for a half h: every uniform lies in
  [2^-33, 1 - 2^-33] and is exact in double.
* ``box_muller`` - standard normals from pairs of uniforms; the walk
  normalizes n of them to a uniform direction on the sphere.  The radius
  sqrt(-2 log u) is at most sqrt(66 log 2), about 6.8, and never 0.
* ``exit_radius_from_uniform`` - the heavy-tailed jump distance out of a
  ball, gamma = r * x^(-1/2) with x = I^(-1)(u; alpha/2, 1-alpha/2).  (The
  jump CDF is F(gamma) = 1 - I_{r^2/gamma^2}(alpha/2, 1-alpha/2); inverting
  the complement with u uniform is equivalent because 1-u is also uniform.
  The tail is P(gamma > G) ~ G^(-alpha), the stable index.)  The drawn
  tail stops at the smallest uniform, 2^-33: the longest jump is the
  quantile at u = 2^-33, not at 2^-54 as with 53-bit uniforms.  At alpha = 1
  x is the arcsine law's sin^2(pi u / 2).  At alpha != 1 it comes from a
  per-alpha table (Devroye 1986, ch. II), built on first use and cached:
  with a = alpha/2, b = 1 - a and u* = I_{1/2}(a, b), it holds x for
  u <= u* and 1 - x above, whichever is <= 1/2, each as w * G(w) where
  w = (u a B(a, b))^(1/a) (resp. 1 - u, b) is the leading power law of that
  tail and G a Chebyshev polynomial in w.  The build checks the table
  against betaincinv between its nodes and over the whole u range, and
  raises RuntimeError if the relative error of gamma exceeds
  _EXIT_TABLE_TOL = 1e-11.
* ``interior_radius_from_uniforms`` - the interior (source) radius, whose
  density on (0, 1) is s^(alpha-1) w(s) / Z with w(s) = I_{1-s^2}(a, b'),
  a = alpha/2 and b' = (n-alpha)/2, drawn exactly from three uniforms
  (Devroye 1986, ch. IX).  The density is the s-marginal of

      p(s, t) = alpha s^(alpha-1) t^(-a) * t^(n/2-1) (1-t)^(a-1) / B(n/2, a)

  on s^2 < t < 1: integrating t out gives alpha B(a, b') / B(n/2, a) times
  s^(alpha-1) w(s), since n/2 - a = b'.  So T ~ Beta(n/2, a) and, given T,
  S = sqrt(T) V^(1/alpha) with V uniform.  T is drawn through its
  complement, 1 - T ~ Beta(a, n/2), the product of X ~ Beta(a, 1-a), the
  exit law's own variate, and 1 - U^(1/c) ~ Beta(1, c) with
  c = n/2 - 1 + a > 0 (a product of Beta(a, b1) and Beta(a + b1, b2)
  variates is Beta(a, b1 + b2)): T = (1 - X) + X U^(1/c), a sum of two
  non-negative terms, with 1 - X read from the side of the exit inverse
  that holds it, never by subtraction.
"""

from __future__ import annotations

import functools
import hashlib
import math
import sys

import numpy as np
import scipy.special as sc
from numpy.polynomial import chebyshev

__all__ = [
    "StreamBatch",
    "box_muller",
    "exit_radius_from_uniform",
    "interior_radius_from_uniforms",
    "point_substream",
]

# Philox4x64 round constants (Random123 / numpy.random.Philox).
_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = np.uint64(0x9E3779B97F4A7C15)
_W1 = np.uint64(0xBB67AE8584CAA73B)

# 0-d arrays, not numpy scalars: ufuncs take them with less overhead
_MASK32 = np.array(0xFFFFFFFF, dtype=np.uint64)
_SH32 = np.array(32, dtype=np.uint64)
# the (low, high) halves of a uint64 word in a view of it as two uint32
_LOW_FIRST = slice(None) if sys.byteorder == "little" else slice(None, None, -1)

# The two multiplied lanes (c0 * M0, c2 * M1) run as one (2, blocks) array;
# _CONSTS stacks the (2, 1) columns M, its high and low halves, and W.
_M = np.array([[_M0], [_M1]])
_CONSTS = np.stack((_M, _M >> _SH32, _M & _MASK32, np.array([[_W0], [_W1]])))

# Blocks generated per pass of the round loop: temporaries stay in cache and
# memory stays flat however many blocks a call asks for.
_TILE_BLOCKS = 8192

# Smallest exit-radius quantile kept after inverting the incomplete Beta.
# For small alpha the inverse underflows to exactly 0 at tiny u (the true
# quantile behaves like u^(2/alpha)), which would send the jump to literal
# infinity; clamping keeps the point finite (|jump| <= r * 1e150) without
# measurably distorting the law.
_MIN_INV_BETA = 1e-300

# The exit-law table at alpha != 1: the degree of its Chebyshev polynomial
# on each side of u*, and the largest relative error of gamma against
# betaincinv that its build accepts.  Degree 14 fits G to about 1e-13 over
# the whole alpha range, where rounding in log and exp sets the floor.
_EXIT_TABLE_DEGREE = 14
_EXIT_TABLE_TOL = 1e-11


def _philox_rounds(a, b, key):
    """Philox4x64-10 in place on the (2, T) uint64 lanes a = (c0, c2),
    b = (c1, c3) and key = (k0, k1) -> (A, B) = (words 0, 2), (words 1, 3).

    Per round A' = reversed(mulhi(A, M)) ^ B ^ K and B' = reversed(A * M),
    the high half from four 32-bit partial products.  B is carried as
    l = reversed(B), the last A * M, so A' = reversed(mulhi(A, M) ^ l) ^ K.
    Every ufunc writes into scratch made once; all but that xor take
    contiguous lanes of one shape, numpy's cheapest dispatch, and up to
    _TILE_BLOCKS // 2 blocks the (2, 1) constants are copied to (2, T) for
    it too (on a full tile the copies cost more traffic than they save)."""
    l, x, t, u = np.empty((4,) + a.shape, dtype=np.uint64)
    l[...] = b[::-1]
    s = b
    m, m_hi, m_lo, w = (_CONSTS if a.shape[1] > _TILE_BLOCKS // 2
                        else np.repeat(_CONSTS, a.shape[1], axis=2))
    for rnd in range(10):
        if rnd > 0:
            key += w
        np.multiply(a, m, out=s)
        np.bitwise_and(a, _MASK32, out=x)
        hi = np.right_shift(a, _SH32, out=a)
        np.multiply(x, m_hi, out=t)
        x *= m_lo
        t += np.right_shift(x, _SH32, out=x)
        np.multiply(hi, m_lo, out=u)
        u += np.bitwise_and(t, _MASK32, out=x)
        hi *= m_hi
        hi += np.right_shift(t, _SH32, out=t)
        hi += np.right_shift(u, _SH32, out=u)
        hi ^= l
        a = np.bitwise_xor(hi[::-1], key, out=l)
        l, s = s, hi
    return a, l[::-1]


def _store_unit_open(dst, words):
    """Write each uint64 word as two float64 uniforms on the open interval
    (0, 1), its low 32-bit half first: h maps to (h + 1/2) 2^-32, which is
    exact in double and lies in [2^-33, 1 - 2^-33].  words is contiguous
    along its last axis, and dst has the shape words.shape + (2,)."""
    halves = words.view(np.uint32).reshape(words.shape + (2,))
    np.multiply(halves[..., _LOW_FIRST], 0.5**32, out=dst)
    dst += 0.5**33


class StreamBatch:
    """Per-path Philox streams with independent block counters.

    One instance manages P streams keyed (seed, stream_id[i]) with counter
    words (position[i], substream[i], 0, 0).  Draws address a subset of
    paths by index and advance only those counters, so a path consumes
    the same randomness whether it runs alone or inside any batch.
    """

    def __init__(self, seed: int, stream_ids, substreams=0):
        stream_ids = np.atleast_1d(np.asarray(stream_ids, dtype=np.uint64))
        self.seed = np.uint64(seed)
        self.stream_ids = stream_ids
        self.substreams = np.broadcast_to(
            np.asarray(substreams, dtype=np.uint64), stream_ids.shape
        ).copy()
        self.position = np.zeros(stream_ids.shape, dtype=np.uint64)

    def uniforms(self, idx, m: int):
        """Draw m uniforms in (0,1) for each path in idx -> (len(idx), m):
        block j of row i has counter (position[i] + j, substreams[i], 0, 0)
        and key (seed, stream_ids[i]), and its words w0..w3 give the row's
        uniforms 8j..8j+7, two per word (_store_unit_open).  The blocks run
        _TILE_BLOCKS at a time; a block's words do not depend on the tiling."""
        idx = np.asarray(idx, dtype=np.intp)
        nblocks = -(-m // 8)
        pos, sub, ids = self.position[idx], self.substreams[idx], self.stream_ids[idx]
        c0 = pos
        if nblocks != 1:
            c0 = (pos[:, None] + np.arange(nblocks, dtype=np.uint64)).ravel()
            sub, ids = np.repeat(sub, nblocks), np.repeat(ids, nblocks)
        # (block, word, half), the words w0..w3 of a block gathered from the
        # lanes a = (w0, w2) and b = (w1, w3) so that the halves convert in
        # one contiguous pass
        out = np.empty((c0.shape[0], 4, 2))
        for lo in range(0, c0.shape[0], _TILE_BLOCKS):
            t = slice(lo, lo + _TILE_BLOCKS)
            a, b, key = np.empty((3, 2, c0[t].shape[0]), dtype=np.uint64)
            a[0], a[1] = c0[t], 0
            b[0], b[1] = sub[t], 0
            key[0], key[1] = self.seed, ids[t]
            a, b = _philox_rounds(a, b, key)
            words = np.empty((a.shape[1], 4), dtype=np.uint64)
            words[:, 0::2], words[:, 1::2] = a.T, b.T
            _store_unit_open(out[t], words)
        self.position[idx] = pos + np.uint64(nblocks)
        return out.reshape(idx.shape[0], 8 * nblocks)[:, :m]


def box_muller(u, m: int):
    """The first m standard normals from uniforms u of shape (rows, >= m):
    Box-Muller on consecutive pairs (u[:, 2k], u[:, 2k + 1])."""
    npairs = -(-m // 2)
    rad = np.sqrt(-2.0 * np.log(u[:, 0 : 2 * npairs : 2]))
    ang = (2.0 * np.pi) * u[:, 1 : 2 * npairs : 2]
    z = np.empty((u.shape[0], 2 * npairs))
    z[:, 0::2] = rad * np.cos(ang)
    z[:, 1::2] = rad * np.sin(ang)
    return z[:, :m]


def _exit_side(side, v):
    """y = w G(w) on one side of an exit table, at tail probabilities v."""
    e, log_eb, scale, coef = side
    w = np.exp((np.log(v) + log_eb) / e)
    z = w * scale - 1.0
    g = np.full(z.shape, coef[-1])
    for c in coef[-2::-1]:
        g *= z
        g += c
    return w * g


def _exit_inverse(table, u):
    """(x, 1 - x) for x = I^(-1)(u; a, b) from an exit table: x = w G(w) for
    u <= u*, and 1 - x = w G(w) at tail probability 1 - u above it; the
    other of the pair is 1 minus the one that is at most 1/2.  A side that
    no u falls on is skipped: in a narrow step one nearly always is."""
    u = np.asarray(u, dtype=float)
    ustar, sides = table
    x, y = np.empty((2,) + u.shape)
    lower = u <= ustar
    if lower.any():
        x[lower] = _exit_side(sides[0], u[lower])
        y[lower] = 1.0 - x[lower]
    if not lower.all():
        upper = ~lower
        y[upper] = _exit_side(sides[1], 1.0 - u[upper])
        x[upper] = 1.0 - y[upper]
    return x, y


def _jump_radius(r, x):
    """gamma = r / sqrt(x) for a Beta quantile x, clamped at _MIN_INV_BETA."""
    return r / np.sqrt(np.maximum(x, _MIN_INV_BETA))


@functools.lru_cache(maxsize=64)
def _exit_table(alpha: float):
    """The certified inverse of the exit law at alpha != 1, built on first use.

    With a = alpha/2, b = 1 - a, I^(-1)(v; e, f) for (e, f) = (a, b) on
    v = u <= u* and (b, a) on v = 1 - u < 1 - u* is its leading power law
    w = (v e B)^(1/e) times G(w), analytic in w, interpolated at the
    Chebyshev nodes of w in [0, w(u*)].  The table is checked against
    betaincinv between its nodes and on a log-spaced sweep of u and 1 - u
    down to 2^-54 and 2^-53, past the generator's 2^-33 at either end;
    RuntimeError if gamma is off by more than _EXIT_TABLE_TOL relative
    anywhere."""
    a = alpha / 2.0
    b = 1.0 - a
    ustar = float(sc.betainc(a, b, 0.5))
    sides = []
    for e, f, vstar in ((a, b, ustar), (b, a, 1.0 - ustar)):
        log_eb = math.log(math.pi * e / math.sin(math.pi * e))  # log(e B(e, f))
        wmax = math.exp((math.log(vstar) + log_eb) / e)

        def g_at(z, e=e, f=f, log_eb=log_eb, wmax=wmax):
            w = (z + 1.0) * (wmax / 2.0)
            return sc.betaincinv(e, f, np.exp(e * np.log(w) - log_eb)) / w

        coef = chebyshev.cheb2poly(chebyshev.chebinterpolate(g_at, _EXIT_TABLE_DEGREE))
        coef.flags.writeable = False
        sides.append((e, log_eb, 2.0 / wmax, coef))
    table = (ustar, tuple(sides))

    # between the nodes (down to, not at, w = 0) and the sweep, both sides
    d = _EXIT_TABLE_DEGREE + 1
    z = np.cos(np.pi * np.arange(4 * d) / (4 * d))
    v = [np.exp(e * np.log((z + 1.0) / scale) - log_eb) for e, log_eb, scale, _ in sides]
    u = np.concatenate([
        v[0], 1.0 - v[1],
        np.geomspace(0.5**54, ustar, 64), 1.0 - np.geomspace(0.5**53, 1.0 - ustar, 64),
    ])
    ref = _jump_radius(1.0, sc.betaincinv(a, b, u))
    err = float(np.max(np.abs(_jump_radius(1.0, _exit_inverse(table, u)[0]) / ref - 1.0)))
    if not err <= _EXIT_TABLE_TOL:
        raise RuntimeError(
            f"the exit table at alpha={alpha} is off betaincinv by {err:.3g} "
            f"relative in gamma, over the tolerance {_EXIT_TABLE_TOL:g}"
        )
    return table


def _arcsine_inverse(u):
    """x = I^(-1)(u; 1/2, 1/2) = sin^2(pi u / 2), the exit law at alpha = 1."""
    return np.sin(np.asarray(u, dtype=float) * (np.pi / 2.0)) ** 2


def _beta_inverse(alpha: float, u):
    """(x, 1 - x) for x = I^(-1)(u; alpha/2, 1-alpha/2): the arcsine law's
    sin^2(pi u / 2) and sin^2(pi (1 - u) / 2) at alpha = 1, the certified
    table (_exit_table) at alpha != 1."""
    if alpha == 1.0:
        return _arcsine_inverse(u), _arcsine_inverse(1.0 - np.asarray(u, dtype=float))
    return _exit_inverse(_exit_table(float(alpha)), u)


def exit_radius_from_uniform(r, alpha: float, u):
    """Map uniforms in (0,1) to jump distances; pure transform, broadcasts.
    It reads x alone, which at alpha = 1 spares the complement."""
    x = _arcsine_inverse(u) if alpha == 1.0 else _exit_inverse(_exit_table(float(alpha)), u)[0]
    return _jump_radius(r, x)


def _interior_t(n: int, alpha: float, ux, ut):
    """T = (1 - X) + X * ut^(1/c) ~ Beta(n/2, alpha/2), in (0, 1], with
    X = I^(-1)(ux; alpha/2, 1-alpha/2) and c = (n - 2 + alpha)/2."""
    x, one_minus_x = _beta_inverse(alpha, ux)
    t = one_minus_x + x * ut ** (2.0 / (n - 2.0 + alpha))
    # at alpha = 1 the two of the pair are rounded apart, and their sum may pass 1
    return np.minimum(t, 1.0)


def interior_radius_from_uniforms(n: int, alpha: float, ux, ut, uv):
    """Map three uniforms in (0,1) per draw to interior radii in [0, 1):
    S = sqrt(T) * uv^(1/alpha), T from ux and ut (_interior_t; see the
    module docstring).  Pure transform, broadcasts."""
    return np.sqrt(_interior_t(n, alpha, ux, ut)) * uv ** (1.0 / alpha)


def point_substream(x) -> int:
    """Stable 64-bit substream label for an evaluation point.

    Hashes the float64 bytes of the coordinates (with -0.0 normalized to
    +0.0) so that equal points always share their random streams.
    """
    x = np.ascontiguousarray(np.asarray(x, dtype=float) + 0.0)
    h = hashlib.blake2b(x.tobytes(), digest_size=8)
    return int.from_bytes(h.digest(), "little")
