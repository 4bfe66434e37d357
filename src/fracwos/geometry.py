"""Domain primitives: membership, exact boundary distance, nearest projection.

All domains are open sets (boundary points are OUTSIDE), because the walk
treats any point of the complement as absorbing: the exterior datum g is
evaluated there.  Distances are exact closed forms per shape, which is
what keeps the inscribed-ball radii honest; projections return a nearest
boundary point with deterministic lexicographic tie-breaking.

A domain implements one query for both questions a walk step asks of a
landing point, ``_locate(pts) -> (inside, dist)``: membership, and the
boundary distance of the rows inside, from one pass.  Membership is its own
result, not ``dist > 0``: the L-shape's distance to its cut quadrant
underflows to 0.0 at interior points such as (-1e-200, 0.5).

Every query accepts a single point of shape (n,) or a batch (m, n) and
returns scalars or (m,) / (m, n) arrays accordingly.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Domain",
    "BallDomain",
    "BoxDomain",
    "LShapeDomain",
    "AnnulusDomain",
    "HexagonDomain",
]


class Domain:
    """Interface: contains / dist_boundary / project_boundary / bounding_box.

    A concrete domain implements _locate and _project on (m, n) float
    arrays, and bounding_box() -> (lo, hi), the axis-aligned box used for
    grids and sampling, as fresh float arrays.  _locate(pts) returns
    (inside, dist): each row's open-set membership, and its boundary
    distance where inside (other rows may hold any value).  Membership is
    explicit because a distance can underflow to 0.0 at an interior point
    (the L-shape's, at (-1e-200, 0.5))."""

    n: int

    def _locate(self, pts):
        raise NotImplementedError

    def _project(self, pts):
        raise NotImplementedError

    def _coerce(self, x):
        """x as (m, n) rows, and whether it was one point; other shapes are refused."""
        pts = np.asarray(x, dtype=float)
        if pts.ndim not in (1, 2) or pts.shape[-1] != self.n:
            raise ValueError(f"expected points in R^{self.n}, got shape {pts.shape}")
        return np.atleast_2d(pts), pts.ndim == 1

    def contains(self, x):
        """Open-set membership; boundary points report False."""
        pts, single = self._coerce(x)
        inside = self._locate(pts)[0]
        return bool(inside[0]) if single else inside

    def dist_boundary(self, x):
        """Exact Euclidean distance from an interior point to the boundary."""
        pts, single = self._coerce(x)
        inside, d = self._locate(pts)
        if not np.all(inside):
            raise ValueError("dist_boundary requires interior points")
        return float(d[0]) if single else d

    def project_boundary(self, x):
        """A nearest boundary point; exact ties break to the lexicographically
        smallest coordinate vector."""
        pts, single = self._coerce(x)
        proj = self._project(pts)
        return proj[0] if single else proj

    def random_interior(self, count: int, seed: int, margin: float = 0.0):
        """count points uniform on {x : dist_boundary(x) > margin}, rejection
        sampled from the bounding box with a fixed-seed numpy generator."""
        rng = np.random.default_rng(seed)
        lo, hi = self.bounding_box()
        out = np.empty((count, self.n))
        have = 0
        for _ in range(10_000):
            cand = rng.uniform(lo, hi, size=(max(4 * count, 64), self.n))
            ok, d = self._locate(cand)
            if margin > 0.0:
                ok &= d > margin
            cand = cand[ok]
            take = min(count - have, cand.shape[0])
            out[have : have + take] = cand[:take]
            have += take
            if have == count:
                return out
        raise RuntimeError("interior sampling kept missing the domain; margin too large?")


def _lex_smallest(cands, dists):
    """Per row: among candidates attaining the minimal distance, pick the
    lexicographically smallest point.  cands (m, K, n), dists (m, K).

    Ties are detected with a few-ulp relative slack so that geometrically
    symmetric candidates whose distances round differently still count as
    tied."""
    m, K, n = cands.shape
    eps16 = 16.0 * np.finfo(float).eps
    dmin = dists.min(axis=1, keepdims=True)
    active = dists <= dmin + eps16 * np.maximum(1.0, np.abs(dmin))
    for d in range(n):
        coord = np.where(active, cands[:, :, d], np.inf)
        best = coord.min(axis=1, keepdims=True)
        active &= coord <= best + eps16 * np.maximum(1.0, np.abs(best))
    first = np.argmax(active, axis=1)
    return cands[np.arange(m), first]


def _dot(x, c):
    """x @ c for (m, 2) rows x, column by column: a matrix product sums in an
    order that depends on the row count, and a point's bits must not."""
    return x[:, 0] * c[0] + x[:, 1] * c[1]


def _segment_distance(pts, a, b):
    """Distance and nearest point from pts (m,2) to the segment [a, b]."""
    ab = b - a
    t = np.clip(_dot(pts - a, ab) / float(ab @ ab), 0.0, 1.0)
    foot = a + t[:, None] * ab
    d = np.linalg.norm(pts - foot, axis=1)
    return d, foot


def _project_polygon(pts, verts):
    """A nearest point of the closed polygon with vertices verts (K, 2), in
    order, to each row of pts (m, 2), with _lex_smallest's tie-breaking."""
    cands = np.empty((pts.shape[0], len(verts), 2))
    dists = np.empty((pts.shape[0], len(verts)))
    for kk, (a, b) in enumerate(zip(verts, np.roll(verts, -1, axis=0))):
        dists[:, kk], cands[:, kk, :] = _segment_distance(pts, a, b)
    return _lex_smallest(cands, dists)


class BallDomain(Domain):
    """Open ball {|x - center| < radius}."""

    def __init__(self, center, radius: float):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        if self.center.ndim != 1:
            raise ValueError("center must be a flat coordinate vector")
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        self.n = self.center.shape[0]

    def _locate(self, pts):
        r = np.linalg.norm(pts - self.center[None, :], axis=1)
        return r < self.radius, self.radius - r

    def _project(self, pts):
        rel = pts - self.center[None, :]
        r = np.linalg.norm(rel, axis=1)
        out = np.empty_like(pts)
        deg = r == 0.0
        safe = ~deg
        out[safe] = self.center[None, :] + self.radius * rel[safe] / r[safe, None]
        if np.any(deg):
            # center: every boundary point is nearest; lexicographic smallest
            # is center - radius * e1
            p = self.center.copy()
            p[0] -= self.radius
            out[deg] = p
        return out

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius


class BoxDomain(Domain):
    """Open axis-aligned box prod_i (lo_i, hi_i)."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValueError("lo/hi must be flat vectors of equal length")
        if not np.all(self.lo < self.hi):
            raise ValueError("box requires lo < hi per axis")
        self.n = self.lo.shape[0]

    def _locate(self, pts):
        # a - b > 0 exactly when a > b in IEEE arithmetic, and NaN fails both
        d = np.minimum(pts - self.lo, self.hi - pts).min(axis=1)
        return d > 0.0, d

    def _project(self, pts):
        m = pts.shape[0]
        cands = np.empty((m, 2 * self.n, self.n))
        dists = np.empty((m, 2 * self.n))
        for ax in range(self.n):
            for side, bound in enumerate((self.lo[ax], self.hi[ax])):
                kk = 2 * ax + side
                cands[:, kk, :] = np.clip(pts, self.lo, self.hi)
                cands[:, kk, ax] = bound
                dists[:, kk] = np.linalg.norm(pts - cands[:, kk, :], axis=1)
        return _lex_smallest(cands, dists)

    def bounding_box(self):
        return self.lo.copy(), self.hi.copy()


class LShapeDomain(Domain):
    """The square (-1,1)^2 with the closed quadrant [0,1]x[0,1] removed.

    Boundary polygon (-1,-1) (1,-1) (1,0) (0,0) (0,1) (-1,1); the corner at
    the origin is re-entrant.
    """

    _VERTS = np.array(
        [[-1.0, -1.0], [1.0, -1.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [-1.0, 1.0]]
    )

    def __init__(self):
        self.n = 2

    def _locate(self, pts):
        # the smaller of the gap to the square and the distance to the cut
        # quadrant [0,1]^2
        a = np.abs(pts)
        inside = np.all(a < 1.0, axis=1) & np.any(pts < 0.0, axis=1)
        quadrant = np.linalg.norm(np.maximum(-pts, 0.0), axis=1)
        return inside, np.minimum(1.0 - a.max(axis=1), quadrant)

    def _project(self, pts):
        return _project_polygon(pts, self._VERTS)

    def bounding_box(self):
        return np.array([-1.0, -1.0]), np.array([1.0, 1.0])


class AnnulusDomain(Domain):
    """Open annulus {inner < |x - center| < outer}."""

    def __init__(self, inner: float, outer: float, center=(0.0, 0.0)):
        if not 0 < inner < outer:
            raise ValueError("annulus requires 0 < inner < outer")
        self.inner = float(inner)
        self.outer = float(outer)
        self.center = np.asarray(center, dtype=float)
        if self.center.ndim != 1:
            raise ValueError("center must be a flat coordinate vector")
        self.n = self.center.shape[0]

    def _locate(self, pts):
        r = np.linalg.norm(pts - self.center[None, :], axis=1)
        inside = (r > self.inner) & (r < self.outer)
        return inside, np.minimum(r - self.inner, self.outer - r)

    def _project(self, pts):
        rel = pts - self.center[None, :]
        r = np.linalg.norm(rel, axis=1)
        deg = r == 0.0
        if np.any(deg):
            # center of the hole: tie along the whole inner circle, and the
            # lexicographically smallest point sits at angle pi
            rel = rel.copy()
            rel[deg, 0] = -1.0
        u = rel / np.where(deg, 1.0, r)[:, None]
        cands = np.stack(
            [
                self.center[None, :] + self.inner * u,
                self.center[None, :] + self.outer * u,
            ],
            axis=1,
        )
        dists = np.stack([r - self.inner, self.outer - r], axis=1)
        return _lex_smallest(cands, dists)

    def bounding_box(self):
        return self.center - self.outer, self.center + self.outer


class HexagonDomain(Domain):
    """Open regular hexagon, circumradius R, centered at `center`.

    Orientation: vertices on the x-axis at (+-R, 0), so the top and bottom
    edges are horizontal and the hexagon is inscribed in [-R, R]^2.  Edge
    normals point at 30 + 60k degrees; the inradius is R*sqrt(3)/2.
    """

    def __init__(self, circumradius: float = 1.0, center=(0.0, 0.0)):
        if not circumradius > 0:
            raise ValueError("circumradius must be positive")
        self.circumradius = float(circumradius)
        self.center = np.asarray(center, dtype=float)
        if self.center.shape != (2,):
            raise ValueError("center must be a flat coordinate vector of length 2")
        self.n = 2
        ang = np.deg2rad(30.0 + 60.0 * np.arange(6))
        self._normals = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        self.inradius = self.circumradius * np.sqrt(3.0) / 2.0
        vang = np.deg2rad(60.0 * np.arange(6))
        self._verts = self.center[None, :] + self.circumradius * np.stack(
            [np.cos(vang), np.sin(vang)], axis=1
        )

    def _max_support(self, pts):
        # the largest of the six (x - center) . normal
        rel = pts - self.center
        s = _dot(rel, self._normals[0])
        for c in self._normals[1:]:
            np.maximum(s, _dot(rel, c), out=s)
        return s

    def _locate(self, pts):
        # interior distance to a convex polygon is the minimal edge-line gap
        s = self._max_support(pts)
        return s < self.inradius, self.inradius - s

    def _project(self, pts):
        # segment projection stays correct for exterior queries too, where the
        # perpendicular foot of the nearest edge line can fall past a vertex
        return _project_polygon(pts, self._verts)

    def bounding_box(self):
        return self.center - self.circumradius, self.center + self.circumradius
