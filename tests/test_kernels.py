"""Ball kernels, their constants, and the jump-distance law.

The exit-radius CDF is pinned against a direct adaptive quadrature of the
Poisson kernel's radial marginal (scipy's endpoint-weighted rule, no
incomplete-Beta machinery involved), which fixes the Beta parameter order
from first principles.
"""

import math

import numpy as np
import pytest
from beta_reference import BetaParams, beta, inc_beta
from scipy.integrate import quad

from fracwos.geometry import BallDomain
from fracwos.kernels import (
    ALPHA_MAX,
    ALPHA_MIN,
    exit_radius_cdf,
    green_function,
    interior_radial_weight,
    make_constants,
    poisson_kernel,
    zeta_center,
)


def _sphere_area(n):
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _zeta_closed_form(n, alpha):
    # Gamma(n/2) / (2^alpha Gamma(1+alpha/2) Gamma((n+alpha)/2))
    return math.gamma(n / 2.0) / (
        2.0**alpha * math.gamma(1.0 + alpha / 2.0) * math.gamma((n + alpha) / 2.0)
    )


# ---------------------------------------------------------------------------
# constants


def test_constants_hand_values_planar_alpha_one():
    k = make_constants(2, 1.0)
    assert abs(k.c_tilde - 1.0 / math.pi**2) < 1e-15
    assert abs(k.c_hat - 1.0 / (2.0 * math.pi**2)) < 1e-15
    assert abs(k.beta_full - math.pi) < 1e-13
    assert abs(k.zeta_unit - 2.0 / math.pi) < 1e-15


# pairs at which the former Gauss-Jacobi ladder for zeta_unit did not converge
_LADDER_FAILURES = [(2, 0.16), (2, 0.22), (2, 0.23), (2, 0.25), (2, 0.31), (3, 0.22), (3, 0.25)]


def test_zeta_unit_against_closed_form():
    pairs = [(n, a) for n in (2, 3, 5, 10, 50) for a in (ALPHA_MIN, 0.4, 1.0, 1.6, ALPHA_MAX)]
    for n, alpha in pairs + _LADDER_FAILURES:
        k = make_constants(n, alpha)
        ref = _zeta_closed_form(n, alpha)
        assert abs(k.zeta_unit - ref) <= 1e-13 * max(1.0, ref), (n, alpha)


def test_constants_validation():
    with pytest.raises(ValueError):
        make_constants(1, 1.0)
    with pytest.raises(ValueError):
        make_constants(2, 0.01)
    with pytest.raises(ValueError):
        make_constants(2, 1.99)


def test_ball_geom_validation():
    # the kernels take their ball as a BallDomain
    with pytest.raises(ValueError):
        BallDomain(np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        BallDomain(np.zeros((2, 2)), 1.0)
    assert BallDomain(np.zeros(4), 2.0).n == 4


# ---------------------------------------------------------------------------
# Poisson kernel


def test_poisson_kernel_center_formula():
    # from the center the kernel collapses to
    # C~ * (r^2/(|z|^2-r^2))^(alpha/2) * |z|^(-n)
    for n, alpha, r in [(2, 0.7, 1.0), (3, 1.3, 2.0), (10, 1.0, 0.5)]:
        ball = BallDomain(np.zeros(n), r)
        k = make_constants(n, alpha)
        z = np.zeros(n)
        z[0] = 1.7 * r
        got = poisson_kernel(ball, np.zeros(n), z, k)
        s2 = (1.7 * r) ** 2
        ref = k.c_tilde * (r**2 / (s2 - r**2)) ** (alpha / 2.0) * s2 ** (-n / 2.0)
        assert abs(got - ref) <= 1e-14 * ref


def test_poisson_kernel_rigid_motion_invariance():
    k = make_constants(2, 1.2)
    ball = BallDomain(np.zeros(2), 1.0)
    x = np.array([0.3, -0.2])
    z = np.array([1.1, 0.9])
    ref = poisson_kernel(ball, x, z, k)
    th = 0.83
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    shift = np.array([4.0, -7.0])
    ball2 = BallDomain(shift, 1.0)
    got = poisson_kernel(ball2, rot @ x + shift, rot @ z + shift, k)
    assert abs(got - ref) <= 1e-12 * ref


def test_poisson_kernel_scaling():
    # P_r(x, z) = r^(-n) P_1(x/r, z/r)
    k = make_constants(3, 0.9)
    x = np.array([0.1, 0.2, -0.3])
    z = np.array([0.8, -0.9, 1.0])
    r = 2.5
    p1 = poisson_kernel(BallDomain(np.zeros(3), 1.0), x, z, k)
    pr = poisson_kernel(BallDomain(np.zeros(3), r), r * x, r * z, k)
    assert abs(pr - p1 / r**3) <= 1e-12 * p1


def test_poisson_kernel_domain_errors():
    k = make_constants(2, 1.0)
    ball = BallDomain(np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        poisson_kernel(ball, np.array([1.0, 0.0]), np.array([2.0, 0.0]), k)
    with pytest.raises(ValueError):
        poisson_kernel(ball, np.array([0.5, 0.0]), np.array([0.9, 0.0]), k)


def test_kernels_refuse_points_of_another_dimension():
    k = make_constants(2, 1.0)
    ball = BallDomain(np.zeros(2), 1.0)
    inner, outer = np.array([0.2, 0.1]), np.array([2.0, 0.0])
    inner3, outer3 = np.array([0.1, 0.0, 0.0]), np.array([2.0, 0.0, 0.0])
    for fn, x, y in ((poisson_kernel, inner3, outer), (poisson_kernel, inner, outer3),
                     (green_function, inner3, inner), (green_function, inner, inner3)):
        with pytest.raises(ValueError, match=r"expected points in R\^2"):
            fn(ball, x, y, k)


def test_kernels_refuse_arrays_of_three_or_more_axes():
    k = make_constants(2, 1.0)
    ball = BallDomain(np.zeros(2), 1.0)
    inner, outer = np.full((3, 2, 2), 0.1), np.full((3, 2, 2), 2.0)
    for fn, x, y in ((poisson_kernel, inner, outer), (poisson_kernel, inner[0, 0], outer),
                     (green_function, inner, inner[0, 0])):
        with pytest.raises(ValueError, match=r"expected points in R\^2"):
            fn(ball, x, y, k)


# ---------------------------------------------------------------------------
# Green function


def test_green_function_dual_route():
    # complement evaluation vs the textbook subtraction form through the
    # independently tested unregularized inc_beta
    rng = np.random.default_rng(5)
    for n, alpha in [(2, 0.4), (2, 1.6), (3, 1.0), (10, 1.3)]:
        k = make_constants(n, alpha)
        ball = BallDomain(np.zeros(n), 1.0)
        p = BetaParams((n - alpha) / 2.0, alpha / 2.0)
        for _ in range(25):
            # scale the cube edge with dimension so the points stay inside
            # the unit ball
            x = rng.uniform(-0.8, 0.8, n) / math.sqrt(n)
            y = rng.uniform(-0.8, 0.8, n) / math.sqrt(n)
            if np.allclose(x, y):
                continue
            d2 = float(np.sum((x - y) ** 2))
            rho = d2 / ((1 - x @ x) * (1 - y @ y) + d2)
            ref = (
                k.c_hat
                * d2 ** ((alpha - n) / 2.0)
                * (beta(p.a, p.b) - inc_beta(rho, p))
            )
            got = green_function(ball, x, y, k)
            assert abs(got - ref) <= 1e-10 * max(1.0, ref), (n, alpha)


def test_green_function_symmetry_and_scaling():
    k = make_constants(3, 1.1)
    ball = BallDomain(np.zeros(3), 1.0)
    x = np.array([0.2, 0.1, -0.4])
    y = np.array([-0.3, 0.5, 0.0])
    gxy = green_function(ball, x, y, k)
    gyx = green_function(ball, y, x, k)
    assert abs(gxy - gyx) <= 1e-13 * gxy
    # Q_r(x, y) = r^(alpha-n) Q_1(x/r, y/r)
    r = 3.0
    gr = green_function(BallDomain(np.zeros(3), r), r * x, r * y, k)
    assert abs(gr - gxy * r ** (k.alpha - 3)) <= 1e-12 * gr


def test_green_function_vanishes_toward_boundary():
    k = make_constants(2, 1.0)
    ball = BallDomain(np.zeros(2), 1.0)
    x = np.array([0.2, 0.0])
    vals = [
        green_function(ball, x, np.array([t, 0.6]), k)
        for t in (0.0, 0.4, 0.7, 0.79, 0.7999)
    ]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # for alpha = 1 the decay near the boundary goes like the square root of
    # the boundary gap, so the tail sample is small but not tiny
    assert vals[-1] < 0.05 * vals[0]


def test_green_function_singularity_guard():
    k = make_constants(2, 1.0)
    ball = BallDomain(np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        green_function(ball, np.array([0.1, 0.2]), np.array([0.1, 0.2]), k)
    with pytest.raises(ValueError):
        green_function(ball, np.array([1.0, 0.0]), np.array([0.1, 0.2]), k)


# ---------------------------------------------------------------------------
# exit-radius law


def _exit_mass_by_quadrature(gamma, r, n, alpha):
    """P(r < |jump| <= gamma) integrated directly from the Poisson kernel.

    Radially, with w = s^2, the shell mass is
        C~ sigma_{n-1} r^alpha int (w - r^2)^(-alpha/2) / (2w) dw,
    which scipy's 'alg'-weighted adaptive rule handles exactly at the
    singular endpoint."""
    k = make_constants(n, alpha)
    pre = k.c_tilde * _sphere_area(n) * r**alpha
    val, err = quad(
        lambda w: pre / (2.0 * w),
        r * r,
        gamma * gamma,
        weight="alg",
        wvar=(-alpha / 2.0, 0.0),
        epsabs=1e-13,
        epsrel=1e-12,
    )
    assert err < 1e-9
    return val


def test_exit_radius_cdf_matches_poisson_kernel_mass():
    # independent derivation of the law, no Beta functions involved;
    # this is what fixes the (alpha/2, 1-alpha/2) parameter order
    for n, alpha, r in [(2, 0.8, 1.0), (3, 1.5, 2.0), (2, 0.3, 0.7)]:
        for g_over_r in (1.02, 1.3, 2.0, 5.0, 40.0):
            gamma = g_over_r * r
            ref = _exit_mass_by_quadrature(gamma, r, n, alpha)
            got = exit_radius_cdf(gamma, r, alpha)
            assert abs(got - ref) <= 1e-9, (n, alpha, g_over_r)


def test_exit_radius_cdf_arcsine_closed_form():
    # alpha = 1 reduces to F(gamma) = 1 - (2/pi) arcsin(r/gamma)
    r = 1.5
    for g in (1.6, 2.0, 3.0, 10.0):
        ref = 1.0 - (2.0 / math.pi) * math.asin(r / g)
        assert abs(exit_radius_cdf(g, r, 1.0) - ref) < 1e-13


def test_exit_radius_cdf_endpoints_and_normalization():
    assert exit_radius_cdf(1.0, 1.0, 0.9) == 0.0
    assert exit_radius_cdf(np.inf, 1.0, 0.9) == 1.0
    # the tail is polynomial, (r/gamma)^alpha, so the horizon at which the
    # CDF reaches 1 - 1e-8 scales like r * 10^(9/alpha)
    rng = np.random.default_rng(12)
    for _ in range(200):
        alpha = rng.uniform(ALPHA_MIN, ALPHA_MAX)
        r = rng.uniform(0.05, 20.0)
        horizon = r * 10.0 ** (9.0 / alpha)
        assert exit_radius_cdf(horizon, r, alpha) >= 1.0 - 1e-8


def test_exit_radius_cdf_monotone_and_validated():
    g = np.linspace(1.0, 6.0, 200)
    F = exit_radius_cdf(g, 1.0, 1.3)
    assert np.all(np.diff(F) > 0)
    with pytest.raises(ValueError):
        exit_radius_cdf(0.99, 1.0, 1.3)
    with pytest.raises(ValueError):
        exit_radius_cdf(2.0, -1.0, 1.3)
    with pytest.raises(ValueError):
        exit_radius_cdf(2.0, 1.0, 2.5)


# ---------------------------------------------------------------------------
# interior weight and zeta


def test_interior_radial_weight_dual_route_and_shape():
    s = np.linspace(1e-4, 1.0 - 1e-4, 400)
    for n, alpha in [(2, 0.4), (3, 1.0), (10, 1.6)]:
        w = interior_radial_weight(s, n, alpha)
        p = BetaParams((n - alpha) / 2.0, alpha / 2.0)
        ref = beta(p.a, p.b) - inc_beta(s * s, p)
        assert np.max(np.abs(w - ref)) <= 1e-10 * beta(p.a, p.b)
        # near s = 0 the drop is below one ulp of the full Beta mass, so only
        # require weak decrease there and strict decrease away from zero
        assert np.all(np.diff(w) <= 0)
        assert np.all(np.diff(w[s > 0.1]) < 0)
        assert w[0] > 0.999 * beta(p.a, p.b)
        # tail decays like (1 - s^2)^(alpha/2), slow when alpha is small
        assert w[-1] < 0.25 * beta(p.a, p.b)
        assert w[-1] < 1.5 * beta(p.a, p.b) * (1.0 - s[-1] ** 2) ** (alpha / 2.0) / (
            (alpha / 2.0) * beta(alpha / 2.0, (n - alpha) / 2.0)
        )
    with pytest.raises(ValueError):
        # alpha < n is required for the weight to be defined
        interior_radial_weight(0.5, 1, 1.2)
    with pytest.raises(ValueError):
        interior_radial_weight(1.0, 3, 1.0)


def test_zeta_center_scaling():
    k = make_constants(2, 0.8)
    z1 = zeta_center(BallDomain(np.zeros(2), 1.0), k)
    z3 = zeta_center(BallDomain(np.ones(2), 3.0), k)
    assert abs(z3 - 3.0**0.8 * z1) < 1e-14


def test_zeta_general_agrees_at_center():
    # zeta(x) = int_ball Q_r(x, y) dy; at the center it is the closed-form
    # zeta_unit.  Monte Carlo with y uniform on the unit disk.
    k = make_constants(2, 1.2)
    ball = BallDomain(np.zeros(2), 1.0)
    rng = np.random.default_rng(3)
    m = 200_000
    rad = np.sqrt(rng.uniform(size=m))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=m)
    y = rad[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    q = math.pi * green_function(ball, np.zeros(2), y[rad > 0], k)
    val, stderr = q.mean(), q.std(ddof=1) / math.sqrt(q.size)
    assert abs(val - k.zeta_unit) < 3.5 * stderr
    assert stderr < 0.01
