"""Quadrature reference and the benchmark case registry.

The quadrature is the deterministic yardstick the solver tests lean on,
so it gets its own independent checks here: closed-form solutions on the
disk, the kernel mass identities (f = 1 integrates the Green mass, g = 1
integrates the exit kernel to one), and one asymmetric problem with no
closed form cross-checked against the Monte Carlo engine.
"""

import math

import numpy as np
import pytest

from fracwos.engine import ProblemSpec, WalkConfig, _walk, estimate_point, run_path
from fracwos.geometry import BallDomain, LShapeDomain
from fracwos.kernels import make_constants
from fracwos.oracle import (
    ExactCase,
    _signed_power,
    ball_solution_quadrature,
    constant_source,
    exact_registry,
    make_case,
)

_CASE_NAMES = (
    "disk_constant_source",
    "disk_inverse_cubic",
    "ball10_constant_source",
    "lshape_gaussian",
    "stripe_oscillatory",
    "hexagon_oscillatory",
    "annulus_oscillatory",
)


def _batch(x):
    return np.atleast_2d(np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# registry structure


def test_registry_lists_all_cases():
    reg = exact_registry(1.2)
    assert tuple(c.name for c in reg) == _CASE_NAMES
    for case in reg:
        assert isinstance(case, ExactCase)
        assert case.alpha == 1.2
        prob = case.problem()
        assert prob.n == case.n == case.domain.n
        # every f and g must evaluate on a small batch of interior points
        pts = case.domain.random_interior(4, seed=1)
        if case.f is not None:
            assert np.asarray(case.f(pts)).shape == (4,)
        assert np.asarray(case.g(pts)).shape == (4,)


def test_registry_exact_solutions_present_where_expected():
    reg = {c.name: c for c in exact_registry()}
    for name in ("disk_constant_source", "disk_inverse_cubic",
                 "ball10_constant_source", "lshape_gaussian"):
        assert reg[name].u_exact is not None
    for name in ("stripe_oscillatory", "hexagon_oscillatory",
                 "annulus_oscillatory"):
        assert reg[name].u_exact is None
    assert reg["ball10_constant_source"].n == 10


def test_unknown_case_name():
    with pytest.raises(KeyError):
        make_case("no_such_case")


def test_case_is_its_own_problem_spec():
    case = make_case("disk_inverse_cubic", 1.5)
    assert isinstance(case, ProblemSpec)
    assert case.problem() is case
    cfg, k, x0 = WalkConfig(1e-4, 2000, seed=3), make_constants(2, 1.5), np.array([0.3, -0.2])
    plain = ProblemSpec(case.n, case.alpha, case.f, case.g, case.domain)
    assert estimate_point(case, cfg, k, x0) == estimate_point(plain, cfg, k, x0)
    assert estimate_point(case, cfg, k, x0) == estimate_point(case.problem(), cfg, k, x0)


@pytest.mark.parametrize("alpha", [0.01, 2.5])
def test_cases_refuse_alpha_outside_the_kernel_range_when_built(alpha):
    with pytest.raises(ValueError, match=rf"alpha={alpha} outside the supported range"):
        make_case("disk_inverse_cubic", alpha)
    with pytest.raises(ValueError, match=rf"alpha={alpha} outside the supported range"):
        exact_registry(alpha)


@pytest.mark.parametrize("name", _CASE_NAMES)
def test_cases_check_alpha_before_using_it(name):
    # a case's own constants read alpha; a pole of their Gamma or a string
    # must be refused by the alpha checks, not by math or by an operator
    with pytest.raises(ValueError, match=r"alpha=-2.0 outside the supported range"):
        make_case(name, -2.0)
    with pytest.raises(ValueError, match="alpha must be a real number, got '1'"):
        make_case(name, "1")


def test_fields_and_registry_paths_do_not_depend_on_the_batch():
    # a point's f, g and u_exact bits must not depend on the rows it is
    # evaluated with, or run_path (one row) would not replay a path walked
    # in a wavefront; rows carry bits below numpy's 2^-52 uniform lattice
    rng = np.random.default_rng(2718)
    for name in _CASE_NAMES:
        case = make_case(name, 1.5)
        pts = rng.uniform(-1.2, 1.2, (2000, case.n))
        pts += 1e-3 * rng.standard_normal(pts.shape)
        for field in (case.f, case.g, case.u_exact):
            if field is None:
                continue
            whole = field(pts)
            for size in (1, 2, 3, 7, 16, 100):
                parts = np.concatenate([field(pts[a:a + size])
                                        for a in range(0, len(pts), size)])
                assert np.array_equal(parts, whole), (name, size)
    # the two registry sources with a linear phase, walked from a point of
    # each: every seventh path alone equals its score in the wavefront
    cfg = WalkConfig(epsilon=1e-4, num_paths=400, seed=5)
    for name, x0 in (("hexagon_oscillatory", (0.3, 0.1)),
                     ("stripe_oscillatory", (0.5, 0.1))):
        case = make_case(name, 1.5)
        prob, k, x0 = case.problem(), make_constants(2, 1.5), np.array(x0)
        scores = np.empty(cfg.num_paths)
        for pairs, score, *_ in _walk(prob, cfg, k, x0[None, :]):
            scores[pairs] = score
        for i in range(0, cfg.num_paths, 7):
            assert run_path(prob, cfg, k, x0, i).score == scores[i], (name, i)


# ---------------------------------------------------------------------------
# closed-form values of the registered solutions


def test_disk_constant_source_values():
    case = make_case("disk_constant_source", 1.2)
    # u(x) = (1 - |x|^2)^(alpha/2)
    got = case.u_exact(np.array([[0.5, 0.0]]))[0]
    assert got == pytest.approx(0.75**0.6, rel=1e-15)
    assert case.u_exact(np.array([[1.0, 0.0]]))[0] == 0.0
    assert case.u_exact(np.array([[1.5, 0.0]]))[0] == 0.0
    # the source is the constant 2^alpha Gamma(1+alpha/2)^2 in two dimensions
    f0 = case.f(np.zeros((1, 2)))[0]
    assert f0 == pytest.approx(2.0**1.2 * math.gamma(1.6) ** 2, rel=1e-15)


def test_disk_inverse_cubic_values():
    case = make_case("disk_inverse_cubic", 0.8)
    got = case.u_exact(np.array([[0.3, 0.0]]))[0]
    assert got == pytest.approx(1.09 ** (-1.5), rel=1e-15)
    # at the origin the hypergeometric factor is 1
    assert case.f(np.zeros((1, 2)))[0] == pytest.approx(math.gamma(2.8), rel=1e-14)
    # g is the global solution, so it is defined arbitrarily far out
    far = case.g(np.array([[100.0, 0.0]]))[0]
    assert far == pytest.approx((1.0 + 1e4) ** -1.5, rel=1e-14)


def test_lshape_gaussian_values():
    case = make_case("lshape_gaussian", 1.0)
    assert case.u_exact(np.array([[0.5, -0.5]]))[0] == pytest.approx(
        math.exp(-0.5), rel=1e-15
    )
    assert case.f(np.zeros((1, 2)))[0] == pytest.approx(
        2.0 * math.gamma(1.5), rel=1e-14
    )


def test_constant_source_helper():
    # n = 2, alpha = 1: 2 * Gamma(1.5)^2 = pi / 2
    assert constant_source(2, 1.0) == pytest.approx(math.pi / 2.0, rel=1e-15)
    n, alpha = 10, 1.6
    expect = (
        2.0**alpha
        * math.gamma(1.0 + alpha / 2.0)
        * math.gamma((n + alpha) / 2.0)
        / math.gamma(n / 2.0)
    )
    assert constant_source(n, alpha) == 1.0 / make_constants(n, alpha).zeta_unit
    assert constant_source(n, alpha) == pytest.approx(expect, rel=1e-14)


def test_signed_power_of_negative_base():
    assert _signed_power(-8.0, 1.0 / 3.0) == pytest.approx(-2.0, rel=1e-15)
    assert _signed_power(0.0, 0.4) == 0.0
    got = _signed_power(np.array([-0.25, 0.25]), 0.5)
    assert np.allclose(got, [-0.5, 0.5])


# ---------------------------------------------------------------------------
# quadrature vs closed forms


@pytest.mark.parametrize("alpha", [0.4, 1.0, 1.6])
@pytest.mark.parametrize("name", ["disk_constant_source", "disk_inverse_cubic"])
def test_quadrature_reproduces_exact_disk_solutions(name, alpha):
    # points keep a margin from the boundary; close to it the resolution
    # ladder refuses to certify 1e-8 and raises instead (tested separately)
    case = make_case(name, alpha)
    prob = case.problem()
    pts = case.domain.random_interior(5, seed=77, margin=0.2)
    for x in pts:
        got = ball_solution_quadrature(prob, x)
        assert abs(got - case.u_exact(_batch(x))[0]) <= 1e-6


def test_quadrature_takes_one_point():
    case = make_case("disk_constant_source", 1.0)
    want = ball_solution_quadrature(case, np.array([0.3, 0.1]))
    assert ball_solution_quadrature(case, [0.3, 0.1]) == want
    assert want == pytest.approx(case.u_exact(np.array([[0.3, 0.1]]))[0], abs=1e-6)
    for batch in (np.array([[0.3, 0.1]]), [[0.3, 0.1], [0.0, 0.2]]):
        with pytest.raises(ValueError, match=r"needs one point of shape \(2,\)"):
            ball_solution_quadrature(case, batch)
    with pytest.raises(ValueError, match=r"expected points in R\^2"):
        ball_solution_quadrature(case, np.full((1, 1, 2), 0.1))


def test_quadrature_raises_rather_than_returning_unconverged():
    case = make_case("disk_inverse_cubic", 1.0)
    with pytest.raises(RuntimeError, match="did not converge"):
        ball_solution_quadrature(case.problem(), np.array([0.995, 0.0]))


def test_quadrature_center_value_is_green_mass():
    # with f = 1 and g = 0 the value at the center is the unit-ball Green
    # mass zeta_unit (times r^alpha, here r = 1)
    for n in (2, 3):
        for alpha in (0.7, 1.3):
            k = make_constants(n, alpha)
            prob = ProblemSpec(
                n,
                alpha,
                lambda x: np.ones(_batch(x).shape[0]),
                lambda x: np.zeros(_batch(x).shape[0]),
                BallDomain(np.zeros(n), 1.0),
            )
            got = ball_solution_quadrature(prob, np.zeros(n))
            assert abs(got - k.zeta_unit) <= 1e-9, (n, alpha)


def test_quadrature_exterior_mass_identity():
    # with f = 0 and g = 1 the representation integrates the exit kernel,
    # which has total mass one from every interior point
    for n in (2, 3):
        prob = ProblemSpec(
            n,
            1.1,
            None,
            lambda x: np.ones(_batch(x).shape[0]),
            BallDomain(np.zeros(n), 1.0),
        )
        for x in (np.zeros(n), 0.55 * np.eye(n)[0], -0.3 * np.eye(n)[1]):
            got = ball_solution_quadrature(prob, x)
            assert abs(got - 1.0) <= 1e-9, (n, x)


def test_quadrature_scaled_and_shifted_ball():
    # constant source on a radius-2 ball centered off the origin; at the
    # center the value is 2^alpha * zeta_unit * f
    n, alpha = 2, 0.9
    k = make_constants(n, alpha)
    center = np.array([1.5, -0.5])
    prob = ProblemSpec(
        n,
        alpha,
        lambda x: np.ones(_batch(x).shape[0]),
        lambda x: np.zeros(_batch(x).shape[0]),
        BallDomain(center, 2.0),
    )
    got = ball_solution_quadrature(prob, center)
    assert abs(got - 2.0**alpha * k.zeta_unit) <= 1e-9


def test_quadrature_agrees_with_monte_carlo_asymmetric_3d():
    # no closed form: gaussian bump source away from the center plus an
    # off-axis inverse-quadratic exterior field
    n, alpha = 3, 1.3

    def f(x):
        x = _batch(x)
        return np.exp(-2.0 * np.sum((x - np.array([0.2, 0.1, -0.3])) ** 2, axis=1))

    def g(x):
        x = _batch(x)
        return 1.0 / (1.0 + np.sum((x - np.array([0.5, 0.0, 0.0])) ** 2, axis=1))

    prob = ProblemSpec(n, alpha, f, g, BallDomain(np.zeros(n), 1.0))
    x = np.array([0.1, -0.4, 0.2])
    ref = ball_solution_quadrature(prob, x, radial_pts=32, angular_pts=32)
    est = estimate_point(
        prob,
        WalkConfig(epsilon=1e-4, num_paths=8000, seed=13),
        make_constants(n, alpha),
        x,
    )
    assert abs(est.mean - ref) <= max(4.0 * est.stderr, 1e-3)


# ---------------------------------------------------------------------------
# quadrature input validation


def test_quadrature_rejects_bad_inputs():
    disk = make_case("disk_constant_source", 1.0).problem()
    with pytest.raises(ValueError):
        ball_solution_quadrature(disk, np.array([1.2, 0.0]))
    lshape = make_case("lshape_gaussian", 1.0).problem()
    with pytest.raises(TypeError):
        ball_solution_quadrature(lshape, np.array([0.5, -0.5]))
    ball10 = make_case("ball10_constant_source", 1.0).problem()
    with pytest.raises(ValueError):
        ball_solution_quadrature(ball10, np.zeros(10))
