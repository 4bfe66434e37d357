"""Domain primitives: membership, exact boundary distance, projection.

Projection ties (symmetric points) must break deterministically to the
lexicographically smallest boundary point; several hand cases pin that
behaviour because the solver's shell stopping depends on it being stable
across runs and platforms.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracwos.geometry import (
    AnnulusDomain,
    BallDomain,
    BoxDomain,
    HexagonDomain,
    LShapeDomain,
)

SQ3_2 = math.sqrt(3.0) / 2.0


def _all_domains():
    return [
        BallDomain(np.zeros(2), 1.0),
        BallDomain(np.array([1.0, -2.0, 0.5]), 2.5),
        BallDomain(np.zeros(10), 1.0),
        BoxDomain([-5.0, -0.5], [5.0, 0.5]),
        BoxDomain([-1.0, -1.0, -1.0], [1.0, 2.0, 3.0]),
        LShapeDomain(),
        AnnulusDomain(math.sqrt(0.3), 1.0),
        HexagonDomain(1.0),
        HexagonDomain(2.0, center=(1.0, 1.0)),
    ]


@pytest.mark.parametrize("dom", _all_domains(), ids=lambda d: type(d).__name__ + str(d.n))
def test_projection_distance_consistency(dom):
    pts = dom.random_interior(200, seed=7)
    assert np.all(dom.contains(pts))
    d = dom.dist_boundary(pts)
    proj = dom.project_boundary(pts)
    assert np.all(d > 0)
    gap = np.linalg.norm(pts - proj, axis=1)
    assert np.max(np.abs(gap - d)) <= 1e-9
    # projections land on the boundary up to rounding; on curved boundaries
    # the rounded point may fall a few ulp inside, so test the distance, not
    # open-set membership
    inside = dom.contains(proj)
    if np.any(inside):
        assert np.max(dom.dist_boundary(proj[inside])) <= 1e-9


@pytest.mark.parametrize("dom", _all_domains(), ids=lambda d: type(d).__name__ + str(d.n))
@given(seed=st.integers(0, 2**32 - 1), t=st.floats(1e-3, 1.0))
@settings(max_examples=25, deadline=None)
def test_projection_properties_at_drawn_points(dom, seed, t):
    # drawn interior points x, and x_t = p + t (x - p) on the segment to
    # their projection p: x_t lies in the open ball B(x, d), so inside the
    # domain, at distance t d from the boundary
    pts = dom.random_interior(16, seed=seed)
    pts = np.concatenate([pts, dom.project_boundary(pts) * (1.0 - t) + pts * t])
    assert np.all(dom.contains(pts))
    d = dom.dist_boundary(pts)
    assert np.all(d > 0)
    proj = dom.project_boundary(pts)
    assert np.max(np.abs(np.linalg.norm(pts - proj, axis=1) - d)) <= 1e-9
    # on the boundary up to rounding: outside, or within 1e-9 of it
    inside = dom.contains(proj)
    if np.any(inside):
        assert np.max(dom.dist_boundary(proj[inside])) <= 1e-9


def _boundary_rows(dom):
    """Exact boundary points of dom: each one is outside the open set."""
    if isinstance(dom, BallDomain):
        return dom.center + dom.radius * np.eye(dom.n)[[0, -1]] * [[1.0], [-1.0]]
    if isinstance(dom, BoxDomain):
        axis = np.arange(dom.n)
        mid = (dom.lo + dom.hi) / 2.0
        return np.stack([np.where(axis == 0, dom.lo, mid), np.where(axis == dom.n - 1, dom.hi, mid)])
    if isinstance(dom, LShapeDomain):
        return np.array([[0.0, 0.5], [0.5, 0.0], [0.0, 0.0], [1.0, -0.5], [-1.0, 0.3]])
    if isinstance(dom, AnnulusDomain):
        return dom.center + np.array([[dom.outer, 0.0], [0.0, -dom.outer], [dom.inner, 0.0]])
    # the hexagon's bottom edge: center_y - inradius is exact at these centers
    return dom.center + np.array([[0.0, -dom.inradius]])


@pytest.mark.parametrize("dom", _all_domains(), ids=lambda d: type(d).__name__ + str(d.n))
def test_queries_do_not_depend_on_the_batch(dom):
    # a point's membership, distance and projection are the same bits in a
    # batch of any size, which the walk's replay at any wavefront width needs
    lo, hi = dom.bounding_box()
    pts = np.random.default_rng(4).uniform(lo - 0.1, hi + 0.1, size=(20000, dom.n))
    inside = dom.contains(pts)
    dist = np.full(pts.shape[0], np.nan)
    dist[inside] = dom.dist_boundary(pts[inside])
    proj = dom.project_boundary(pts)
    # the walk's one query gives the public queries' bits
    loc_in, loc_d = dom._locate(pts)
    assert np.array_equal(loc_in, inside)
    assert np.array_equal(loc_d[inside], dist[inside])
    for size in (1, 2, 3, 7, 16, 100):
        for a in range(0, 700, size):
            rows = slice(a, a + size)
            assert np.array_equal(dom.contains(pts[rows]), inside[rows])
            assert np.array_equal(dom.project_boundary(pts[rows]), proj[rows])
            ins = inside[rows]
            if np.any(ins):
                assert np.array_equal(dom.dist_boundary(pts[rows][ins]), dist[rows][ins])
            sub_in, sub_d = dom._locate(pts[rows])
            assert np.array_equal(sub_in, ins)
            assert np.array_equal(sub_d[ins], dist[rows][ins])

    # edge rows: a non-finite coordinate and an exact boundary point are outside
    x0 = dom.random_interior(1, seed=0)[0]
    edge = np.concatenate([np.tile(x0, (3, 1)), _boundary_rows(dom)])
    edge[:3, 0] = [np.nan, np.inf, -np.inf]
    assert not np.any(dom._locate(edge)[0])
    assert not np.any(dom.contains(edge))
    if isinstance(dom, LShapeDomain):
        # the distance underflows to 0.0, yet the point is inside
        p = np.array([[-1e-200, 0.5]])
        loc_in, loc_d = dom._locate(p)
        assert loc_in.tolist() == [True] and loc_d.tolist() == [0.0]
        assert dom.contains(p[0]) and dom.dist_boundary(p[0]) == 0.0


@pytest.mark.parametrize("dom", _all_domains(), ids=lambda d: type(d).__name__ + str(d.n))
def test_bounding_box_contains_domain(dom):
    lo, hi = dom.bounding_box()
    pts = dom.random_interior(200, seed=11)
    assert np.all(pts >= lo[None, :] - 1e-12)
    assert np.all(pts <= hi[None, :] + 1e-12)


def test_exterior_distance_raises():
    for dom, outside in [
        (BallDomain(np.zeros(2), 1.0), [2.0, 0.0]),
        (BoxDomain([-1, -1], [1, 1]), [0.0, 1.5]),
        (LShapeDomain(), [0.5, 0.5]),
        (AnnulusDomain(0.5, 1.0), [0.0, 0.0]),
        (HexagonDomain(1.0), [1.0, 1.0]),
    ]:
        with pytest.raises(ValueError):
            dom.dist_boundary(np.asarray(outside, dtype=float))


@pytest.mark.parametrize("dom", _all_domains(), ids=lambda d: type(d).__name__ + str(d.n))
def test_queries_refuse_arrays_of_three_or_more_axes(dom):
    # a (3, 2, n) stack of one interior point is neither a point nor a batch
    x = np.broadcast_to(dom.random_interior(1, seed=5)[0], (3, 2, dom.n))
    for query in (dom.contains, dom.dist_boundary, dom.project_boundary):
        with pytest.raises(ValueError, match=rf"expected points in R\^{dom.n}"):
            query(x)


def test_random_interior_margin():
    dom = LShapeDomain()
    pts = dom.random_interior(300, seed=3, margin=0.05)
    assert np.all(dom.dist_boundary(pts) > 0.05)
    with pytest.raises(RuntimeError):
        dom.random_interior(10, seed=0, margin=10.0)


# ---------------------------------------------------------------------------
# ball


def test_ball_hand_values():
    dom = BallDomain(np.array([1.0, 2.0]), 3.0)
    assert dom.contains(np.array([2.0, 2.0]))
    assert abs(dom.dist_boundary(np.array([2.0, 2.0])) - 2.0) < 1e-15
    assert np.allclose(dom.project_boundary(np.array([2.0, 2.0])), [4.0, 2.0])
    # center: every boundary point ties; lexicographic pick is center - r e1
    assert np.allclose(dom.project_boundary(np.array([1.0, 2.0])), [-2.0, 2.0])
    lo, hi = dom.bounding_box()
    assert np.allclose(lo, [-2.0, -1.0]) and np.allclose(hi, [4.0, 5.0])


@given(t=st.floats(0.01, 0.99), th=st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=50, deadline=None)
def test_ball_projection_is_radial(t, th):
    dom = BallDomain(np.zeros(2), 2.0)
    p = 2.0 * t * np.array([math.cos(th), math.sin(th)])
    proj = dom.project_boundary(p)
    assert abs(np.linalg.norm(proj) - 2.0) < 1e-12
    assert abs(dom.dist_boundary(p) - 2.0 * (1.0 - t)) < 1e-12


# ---------------------------------------------------------------------------
# box


def test_box_hand_values():
    dom = BoxDomain([-5.0, -0.5], [5.0, 0.5])
    p = np.array([1.0, 0.2])
    assert abs(dom.dist_boundary(p) - 0.3) < 1e-15
    assert np.allclose(dom.project_boundary(p), [1.0, 0.5])
    assert not dom.contains(np.array([5.0, 0.0]))  # open at the face


def test_box_center_tie_breaks_lexicographically():
    dom = BoxDomain([-1.0, -1.0], [1.0, 1.0])
    assert np.allclose(dom.project_boundary(np.zeros(2)), [-1.0, 0.0])


def test_box_validation():
    with pytest.raises(ValueError):
        BoxDomain([0.0, 0.0], [1.0, 0.0])


# ---------------------------------------------------------------------------
# L-shape


def test_lshape_membership():
    dom = LShapeDomain()
    assert dom.contains(np.array([-0.5, 0.5]))
    assert dom.contains(np.array([0.5, -0.5]))
    assert not dom.contains(np.array([0.5, 0.5]))  # removed quadrant
    assert not dom.contains(np.array([0.0, 0.5]))  # its closed edge
    assert not dom.contains(np.array([0.0, 0.0]))  # re-entrant corner


def test_lshape_projection_near_reentrant_corner():
    dom = LShapeDomain()
    p = np.array([-0.1, 0.1])
    assert abs(dom.dist_boundary(p) - 0.1) < 1e-15
    assert np.allclose(dom.project_boundary(p), [0.0, 0.1])
    # diagonal approach: nearest boundary point is the corner itself
    q = np.array([-0.1, -0.1])
    assert abs(dom.dist_boundary(q) - math.sqrt(0.02)) < 1e-15
    assert np.allclose(dom.project_boundary(q), [0.0, 0.0])


def test_lshape_deep_interior_tie():
    dom = LShapeDomain()
    p = np.array([-0.5, -0.5])
    assert abs(dom.dist_boundary(p) - 0.5) < 1e-15
    # ties with the bottom wall; smaller x1 wins
    assert np.allclose(dom.project_boundary(p), [-1.0, -0.5])


def _lshape_six_segments(pts):
    """The L-shape as a polygon: membership from the square and the closed
    cut quadrant, distance as the least of the six clipped segment
    projections, on the rows inside."""
    in_square = np.all((pts > -1.0) & (pts < 1.0), axis=1)
    inside = in_square & ~((pts[:, 0] >= 0.0) & (pts[:, 1] >= 0.0))
    own = pts[inside]
    verts = LShapeDomain._VERTS
    dists = []
    for a, b in zip(verts, np.roll(verts, -1, axis=0)):
        ab = b - a
        t = ((own[:, 0] - a[0]) * ab[0] + (own[:, 1] - a[1]) * ab[1]) / float(ab @ ab)
        foot = a + np.clip(t, 0.0, 1.0)[:, None] * ab
        dists.append(np.linalg.norm(own - foot, axis=1))
    d = np.zeros(pts.shape[0])
    d[inside] = np.min(dists, axis=0)
    return inside, d


def _lshape_adversarial_rows(m, seed):
    """Rows whose coordinates carry bits below 2^-52, unlike numpy's uniform
    draws: walk-like landings (a jump of any scale from trigonometric
    directions), points within 1e-16 to 1e-1 of each edge on both sides,
    the re-entrant corner down to 1e-320, and every pair of special values."""
    rng = np.random.default_rng(seed)
    th = rng.uniform(0.0, 2.0 * np.pi, (2, m))
    unit = np.stack([np.cos(th), np.sin(th)], axis=2)
    jump = np.exp(-rng.uniform(0.0, 45.0, m))
    rows = [rng.uniform(-1.1, 1.1, (m, 2)) + jump[:, None] * unit[0]]
    verts = LShapeDomain._VERTS
    for a, b in zip(verts, np.roll(verts, -1, axis=0)):
        t = rng.uniform(-0.05, 1.05, m) * (1.0 + math.sqrt(2.0) * 2.0**-45)
        normal = np.array([a[1] - b[1], b[0] - a[0]]) / np.linalg.norm(b - a)
        gap = 10.0 ** rng.uniform(-16.0, -1.0, m) * rng.choice([-1.0, 1.0], m)
        rows.append(a + t[:, None] * (b - a) + (gap * np.cos(th[1]))[:, None] * normal)
    rows.append(10.0 ** rng.uniform(-320.0, -1.0, m)[:, None] * unit[1])
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0, 0.5, -0.5, 1e-300, -1e-300,
               5e-324, -5e-324, np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0), -0.3]
    xx, yy = np.meshgrid(special, special)
    rows.append(np.stack([xx.ravel(), yy.ravel()], axis=1))
    return np.concatenate(rows)


def test_lshape_closed_form_matches_six_segments():
    # membership is the same on every row; the distance is the same bits
    # wherever it is at least 2.2e-8, and below that the segment loop's foot
    # a + t ab, which misses the point by up to 2.2e-16, inflates it, so
    # there the two agree to 2.2e-16 absolute
    pts = _lshape_adversarial_rows(20000, seed=14)
    with np.errstate(invalid="ignore"):
        ref_in, ref_d = _lshape_six_segments(pts)
        inside, d = LShapeDomain()._locate(pts)
    assert np.array_equal(inside, ref_in)
    assert 0.3 * len(pts) < np.count_nonzero(inside) < 0.7 * len(pts)
    far = inside & (ref_d >= 2.2e-8)
    assert np.array_equal(d[far], ref_d[far])
    near = inside & ~far
    assert np.count_nonzero(near) > 1000
    assert np.max(np.abs(d[near] - ref_d[near])) <= 2.2e-16


# ---------------------------------------------------------------------------
# annulus


def test_annulus_membership_and_projection():
    dom = AnnulusDomain(math.sqrt(0.3), 1.0)
    inner = math.sqrt(0.3)
    assert dom.contains(np.array([0.8, 0.0]))
    assert not dom.contains(np.array([0.5, 0.0]))  # inside the hole
    assert abs(dom.dist_boundary(np.array([0.8, 0.0])) - 0.2) < 1e-15
    assert np.allclose(dom.project_boundary(np.array([0.8, 0.0])), [1.0, 0.0])
    p = np.array([0.6, 0.0])
    assert abs(dom.dist_boundary(p) - (0.6 - inner)) < 1e-15
    assert np.allclose(dom.project_boundary(p), [inner, 0.0])
    # equidistant radius: the inner foot is lexicographically smaller
    mid = np.array([(inner + 1.0) / 2.0, 0.0])
    assert np.allclose(dom.project_boundary(mid), [inner, 0.0])


def test_annulus_hole_center_projection_degenerate():
    dom = AnnulusDomain(0.5, 1.0)
    # no direction is defined at the hole center; the tie resolves to the
    # lexicographically smallest inner-circle point
    assert np.allclose(dom.project_boundary(np.zeros(2)), [-0.5, 0.0])


def test_annulus_validation():
    with pytest.raises(ValueError):
        AnnulusDomain(1.0, 0.5)
    with pytest.raises(ValueError):
        AnnulusDomain(0.0, 1.0)
    with pytest.raises(ValueError, match="center"):
        AnnulusDomain(0.3, 1.0, center=[[0.0, 0.0]])
    with pytest.raises(ValueError, match="center"):
        AnnulusDomain(0.3, 1.0, center=0.0)


# ---------------------------------------------------------------------------
# hexagon


def test_hexagon_membership_and_inradius():
    dom = HexagonDomain(1.0)
    assert dom.contains(np.zeros(2))
    assert abs(dom.dist_boundary(np.zeros(2)) - SQ3_2) < 1e-15
    assert dom.contains(np.array([0.99, 0.0]))  # vertices lie at distance 1
    assert not dom.contains(np.array([0.9, 0.5]))


def test_hexagon_face_projection_tie():
    dom = HexagonDomain(1.0)
    p = np.array([0.9, 0.0])
    # equidistant from the two faces meeting at the vertex (1, 0); the
    # lexicographic rule picks the lower foot
    assert abs(dom.dist_boundary(p) - 0.1 * SQ3_2) < 1e-12
    assert np.allclose(dom.project_boundary(p), [0.975, -0.05 * SQ3_2], atol=1e-12)


def test_hexagon_center_six_way_tie():
    dom = HexagonDomain(1.0)
    assert np.allclose(
        dom.project_boundary(np.zeros(2)), [-0.75, -0.5 * SQ3_2], atol=1e-12
    )


def test_hexagon_exterior_projection_clips_to_vertex():
    dom = HexagonDomain(1.0)
    assert np.allclose(dom.project_boundary(np.array([2.0, 0.0])), [1.0, 0.0])


def test_hexagon_validation():
    with pytest.raises(ValueError, match="circumradius"):
        HexagonDomain(0.0)
    for center in ((0.0,), (0.0, 0.0, 0.0), [[0.0, 0.0]], 0.0):
        with pytest.raises(ValueError, match="center"):
            HexagonDomain(1.0, center=center)


def test_hexagon_shifted_and_scaled():
    dom = HexagonDomain(2.0, center=(1.0, 1.0))
    assert dom.contains(np.array([1.0, 1.0]))
    assert abs(dom.dist_boundary(np.array([1.0, 1.0])) - 2.0 * SQ3_2) < 1e-14
    # the box is the square around the circumscribed circle, not the tight hull
    lo, hi = dom.bounding_box()
    assert np.allclose(lo, [-1.0, -1.0])
    assert np.allclose(hi, [3.0, 3.0])
    # a vertex of the shifted hexagon sits at center + (R, 0)
    assert np.allclose(dom.project_boundary(np.array([4.0, 1.0])), [3.0, 1.0])
