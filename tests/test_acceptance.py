"""Acceptance gate: ten end-to-end checks of the solver stack.

Run with -v to get one pass/fail line per criterion.  Every tolerance,
seed, and point set is frozen; all randomness flows through the addressed
counter-based streams, so each criterion is a deterministic computation
whose pass margin was verified when it was frozen.

 1. exact-solution reproduction on the unit disk (homogeneous data)
 2. same with non-homogeneous exterior data and a hypergeometric source
 3. ten-dimensional ball at the center, plus the analytic mass identity
 4. L-shaped domain against a manufactured Gaussian solution
 5. Monte Carlo error rate ~ N^(-1/2) over a path ladder
 6. exit/interior sampler laws (KS at 1%, 1e5 draws) and the alpha=1 median
 7. ball quadrature agrees with closed forms and the Monte Carlo engine,
    and pins the quadratic bump profile against the linear-gap impostor
 8. walk length diagnostics: analytic bound and monotonicity
 9. shell-stopping bias shrinks with epsilon at the expected rate
10. special function round trips and multiprecision reference values
"""

import json
import math
import pathlib

import numpy as np
from beta_reference import BetaParams, beta, inc_beta
from scipy.special import betaincinv, hyp1f1, hyp2f1
from zeta_reference import gauss_jacobi_rule, zeta_unit_quadrature

from fracwos import sampling
from fracwos.engine import (
    ProblemSpec,
    WalkConfig,
    error_metric,
    estimate_field,
    estimate_point,
    step_bound,
)
from fracwos.geometry import BallDomain
from fracwos.kernels import (
    exit_radius_cdf,
    interior_radial_weight,
    make_constants,
)
from fracwos.oracle import (
    ball_solution_quadrature,
    constant_source,
    make_case,
)

_DATA = pathlib.Path(__file__).parent / "data"
# asymptotic two-sided critical value of sqrt(N) * D_N at the 1% level
_KS_1PCT = 1.6276


def _const_field(c):
    def field(x):
        return np.full(np.atleast_2d(x).shape[0], c)

    return field


def _zero_field(x):
    return np.zeros(np.atleast_2d(x).shape[0])


def _walk(num_paths, seed, epsilon=1e-6):
    return WalkConfig(epsilon=epsilon, num_paths=num_paths, seed=seed)


def _hits_within_3_sigma(case, pts, num_paths, walk_seed):
    prob = case.problem()
    k = make_constants(case.n, case.alpha)
    exact = case.u_exact(pts)
    hits = 0
    for est, ux in zip(estimate_field(prob, _walk(num_paths, walk_seed), k, pts), exact):
        tol = max(3.0 * est.stderr, 1e-9)
        hits += abs(est.mean - ux) <= tol
    return int(hits)


def _ks_sqrtn_d(u_sorted):
    n = u_sorted.shape[0]
    k = np.arange(1, n + 1)
    d = max(np.max(k / n - u_sorted), np.max(u_sorted - (k - 1) / n))
    return d * math.sqrt(n)


def _interior_radial_cdf(s_sorted, n, alpha, m=96):
    # CDF of the density s^(alpha-1) w(s) / Z on (0,1); substituting
    # t = s*tau reduces every partial integral to one Gauss-Jacobi rule
    tau, wt = gauss_jacobi_rule(m, alpha - 1.0)
    grid = np.clip(s_sorted[:, None] * tau[None, :], 1e-300, 1.0 - 1e-16)
    part = s_sorted**alpha * np.sum(wt[None, :] * interior_radial_weight(grid, n, alpha), axis=1)
    full = interior_radial_weight(np.clip(tau, 1e-300, 1.0 - 1e-16), n, alpha)
    return part / float(np.sum(wt * full))


def test_criterion_01_disk_homogeneous_reproduction():
    """Unit disk, zero exterior data: mean within 3 stderr at >= 9/10 points."""
    for alpha in (0.4, 0.8, 1.2, 1.6):
        case = make_case("disk_constant_source", alpha)
        pts = case.domain.random_interior(10, seed=101, margin=0.05)
        hits = _hits_within_3_sigma(case, pts, num_paths=100_000, walk_seed=0)
        assert hits >= 9, f"alpha={alpha}: only {hits}/10 inside 3 stderr"


def test_criterion_02_disk_nonhomogeneous_reproduction():
    """Globally supported solution with heavy-tail exterior data, same gate."""
    for alpha in (0.4, 0.8, 1.2, 1.6):
        case = make_case("disk_inverse_cubic", alpha)
        pts = case.domain.random_interior(10, seed=101, margin=0.05)
        hits = _hits_within_3_sigma(case, pts, num_paths=100_000, walk_seed=0)
        assert hits >= 9, f"alpha={alpha}: only {hits}/10 inside 3 stderr"


def test_criterion_03_ten_dimensional_center():
    """10-d ball at the center, plus the Green-mass identity for n = 2..10.

    From the center every path exits in one step and the constant source
    makes all scores equal, so stderr collapses to summation rounding; the
    absolute floor 1e-9 keeps the gate meaningful there.  The closed-form
    zeta_unit is checked against an independent quadrature of the radial
    Green density (tests/zeta_reference.py)."""
    for alpha in (0.8, 1.6):
        case = make_case("ball10_constant_source", alpha)
        k = make_constants(10, alpha)
        est = estimate_point(case.problem(), _walk(100_000, 0), k, np.zeros(10))
        tol = max(3.0 * est.stderr, 1e-9)
        assert abs(est.mean - 1.0) <= tol, f"alpha={alpha}: dev {est.mean - 1.0}"
        assert est.mean_steps == 1.0
    for n in range(2, 11):
        for alpha in (0.8, 1.6):
            k = make_constants(n, alpha)
            assert abs(k.zeta_unit * constant_source(n, alpha) - 1.0) <= 1e-9
            assert abs(k.zeta_unit / zeta_unit_quadrature(n, alpha) - 1.0) <= 1e-9


def test_criterion_04_lshape_gaussian():
    """L-shaped domain with a re-entrant corner against exp(-|x|^2)."""
    case = make_case("lshape_gaussian", 1.0)
    pts = case.domain.random_interior(10, seed=101, margin=0.05)
    hits = _hits_within_3_sigma(case, pts, num_paths=100_000, walk_seed=0)
    assert hits >= 9, f"only {hits}/10 inside 3 stderr"


def test_criterion_05_monte_carlo_rate():
    """Aggregate error decays like N^(-1/2): fitted slope in [-0.65, -0.35]."""
    case = make_case("disk_constant_source", 1.0)
    prob = case.problem()
    k = make_constants(2, 1.0)
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, -0.7], [-0.3, 0.4], [0.2, 0.2]])
    exact = case.u_exact(pts)
    ladder = (100, 1_000, 10_000, 100_000)
    errs = []
    for N in ladder:
        per_seed = []
        for seed in (0, 1, 2):
            means = [e.mean for e in estimate_field(prob, _walk(N, seed), k, pts)]
            per_seed.append(error_metric(means, exact)[0])
        errs.append(float(np.mean(per_seed)))
    slope = float(np.polyfit(np.log10(ladder), np.log10(errs), 1)[0])
    assert -0.65 <= slope <= -0.35, f"slope {slope}, errors {errs}"


def test_criterion_06_sampler_laws():
    """KS at the 1% level for both jump laws on the (n, alpha) grid, drawn
    through the samplers the walk runs: exit radii from one stream each,
    interior radii from three words of each of N path streams."""
    N = 100_000
    paths = np.arange(N)
    idx = 0
    for n in (2, 3, 10):
        for alpha in (0.4, 1.0, 1.6):
            u_e = sampling.StreamBatch(123, [2000 + idx]).uniforms([0], N)[0]
            gam = sampling.exit_radius_from_uniform(1.0, alpha, u_e)
            u = np.sort(exit_radius_cdf(np.sort(gam), 1.0, alpha))
            d_e = _ks_sqrtn_d(u)
            assert d_e < _KS_1PCT, f"exit law n={n} alpha={alpha}: {d_e}"

            batch = sampling.StreamBatch(456, paths, 1000 + idx)
            s = sampling.interior_radius_from_uniforms(
                n, alpha, *batch.uniforms(paths, 3).T)
            ui = np.sort(_interior_radial_cdf(np.sort(s), n, alpha))
            d_i = _ks_sqrtn_d(ui)
            assert d_i < _KS_1PCT, f"interior law n={n} alpha={alpha}: {d_i}"
            idx += 1
    # at alpha = 1 the exit CDF is arcsine-type with median exactly r*sqrt(2)
    u_m = sampling.StreamBatch(9, [4]).uniforms([0], N)[0]
    med = float(np.median(sampling.exit_radius_from_uniform(2.0, 1.0, u_m)))
    assert abs(med / (2.0 * math.sqrt(2.0)) - 1.0) <= 5e-3


def test_criterion_07_quadrature_equivalence():
    """Deterministic quadrature matches closed forms, the engine, and the
    quadratic bump profile (1-|x|^2)^(alpha/2) rather than the linear-gap
    variant (1-|x|)^(alpha/2)."""
    worst = 0.0
    for name, alpha in (("disk_constant_source", 1.2), ("disk_inverse_cubic", 0.8)):
        case = make_case(name, alpha)
        pts = case.domain.random_interior(10, seed=55, margin=0.2)
        for x in pts:
            got = ball_solution_quadrature(case.problem(), x)
            worst = max(worst, abs(got - case.u_exact(np.atleast_2d(x))[0]))
    assert worst <= 1e-6, f"quadrature vs closed form: {worst}"

    for name, alpha in (("disk_constant_source", 1.2), ("disk_inverse_cubic", 0.8)):
        case = make_case(name, alpha)
        k = make_constants(2, alpha)
        for x in (np.array([0.3, -0.2]), np.array([-0.1, 0.5])):
            ref = ball_solution_quadrature(case.problem(), x)
            est = estimate_point(case.problem(), _walk(20_000, 5), k, x)
            assert abs(est.mean - ref) <= 3.0 * est.stderr, (name, x)

    # discrimination in 2d, by quadrature
    alpha = 1.2
    case = make_case("disk_constant_source", alpha)
    x = np.array([0.55, 0.0])
    got = ball_solution_quadrature(case.problem(), x)
    quadratic = (1.0 - 0.55**2) ** (alpha / 2.0)
    linear = (1.0 - 0.55) ** (alpha / 2.0)
    assert abs(got - quadratic) <= 1e-6
    assert abs(got - linear) >= 0.1

    # and in 10d, by the engine
    case10 = make_case("ball10_constant_source", 0.8)
    k10 = make_constants(10, 0.8)
    x10 = np.zeros(10)
    x10[0] = 0.3
    est = estimate_point(case10.problem(), _walk(100_000, 3), k10, x10)
    quadratic10 = (1.0 - 0.09) ** 0.4
    linear10 = (1.0 - 0.3) ** 0.4
    assert abs(est.mean - quadratic10) <= 3.0 * est.stderr
    assert abs(est.mean - linear10) >= 20.0 * est.stderr


def test_criterion_08_step_diagnostics():
    """Empirical walk length stays under the analytic bound and grows with
    both the start radius and the exponent."""
    for n in (2, 3, 10):
        for alpha in (0.4, 1.0, 1.6):
            for eps in (1e-2, 1e-4):
                prob = ProblemSpec(n, alpha, None, _zero_field,
                                   BallDomain(np.zeros(n), 1.0))
                k = make_constants(n, alpha)
                x0 = np.zeros(n)
                x0[0] = 0.5
                est = estimate_point(prob, _walk(20_000, 1, epsilon=eps), k, x0)
                bound = step_bound(n, alpha, 1.0, eps)[2]
                assert est.mean_steps <= bound, (n, alpha, eps)

    prob = ProblemSpec(2, 1.0, None, _zero_field, BallDomain(np.zeros(2), 1.0))
    k = make_constants(2, 1.0)
    radial = [
        estimate_point(prob, _walk(100_000, 2), k, np.array([r0, 0.0])).mean_steps
        for r0 in (0.0, 0.3, 0.6, 0.85)
    ]
    assert all(b >= a for a, b in zip(radial, radial[1:])), radial

    by_alpha = []
    for alpha in (0.4, 0.8, 1.2, 1.6):
        prob = ProblemSpec(2, alpha, None, _zero_field, BallDomain(np.zeros(2), 1.0))
        k = make_constants(2, alpha)
        by_alpha.append(
            estimate_point(prob, _walk(100_000, 2), k, np.array([0.5, 0.0])).mean_steps
        )
    assert all(b >= a for a, b in zip(by_alpha, by_alpha[1:])), by_alpha


def test_criterion_09_shell_bias_rate():
    """Shell-stopping bias at a fixed off-center start shrinks monotonically
    through epsilon = 1e-1, 1e-2, 1e-3 with log-log slope in alpha +- 0.3.

    The ball is shifted so the start x0 = 0 is off-center: started at the
    center every walk exits in one jump and no shell bias exists at all.
    With vanishing exterior data the bias is the product of the shell-hit
    probability and the solution's boundary growth, which decays like
    epsilon itself, so the rate window is centered by taking alpha = 1.1."""
    alpha = 1.1
    center = np.array([0.55, 0.0])
    case_f = _const_field(constant_source(2, alpha))
    prob = ProblemSpec(2, alpha, case_f, _zero_field, BallDomain(center, 1.0))
    k = make_constants(2, alpha)
    u0 = (1.0 - 0.55**2) ** (alpha / 2.0)
    biases = []
    for eps in (1e-1, 1e-2, 1e-3):
        per_seed = [
            estimate_point(prob, WalkConfig(epsilon=eps, num_paths=1_000_000,
                                            seed=seed), k, np.zeros(2)).mean - u0
            for seed in (7, 8, 9)
        ]
        biases.append(float(np.mean(per_seed)))
    mags = np.abs(biases)
    assert mags[0] > mags[1] > mags[2], biases
    slope = float(np.polyfit(np.log10([1e-1, 1e-2, 1e-3]), np.log10(mags), 1)[0])
    assert alpha - 0.3 <= slope <= alpha + 0.3, f"slope {slope}, biases {biases}"


def test_criterion_10_special_function_accuracy():
    """Beta round trips to 1e-10 and hypergeometrics against 60-digit
    references.  The inverse is scipy's betaincinv, which builds the
    exit-radius table at alpha != 1 and checks it.

    The round trip is measured in the value domain, started from an
    abscissa: u = I_x(a,b), x' = I^(-1)(u), |I_(x')(a,b) - u| <= 1e-10.
    Started from arbitrary u the comparison is ill-posed wherever the
    quantile saturates at a representable endpoint, and the abscissa-space
    gap |x' - x| blows up like 1/density near the endpoints, so neither of
    those is a fair accuracy metric."""
    rng = np.random.default_rng(11)
    worst_u = 0.0
    worst_x = 0.0
    for _ in range(300):
        p = BetaParams(float(rng.uniform(0.05, 5.0)), float(rng.uniform(0.05, 5.0)))
        x = float(rng.uniform(1e-6, 1.0 - 1e-6))
        full = beta(p.a, p.b)
        u = inc_beta(x, p) / full
        x2 = betaincinv(p.a, p.b, u)
        u2 = inc_beta(x2, p) / full
        worst_u = max(worst_u, abs(u2 - u))
        # abscissa-space comparison where the density is not vanishing
        dens = x ** (p.a - 1.0) * (1.0 - x) ** (p.b - 1.0) / full
        if dens > 1e-2:
            worst_x = max(worst_x, abs(x2 - x) * dens)
    assert worst_u <= 1e-10, worst_u
    assert worst_x <= 1e-8, worst_x

    ref = json.loads((_DATA / "hyp_reference.json").read_text(encoding="utf-8"))
    worst2 = max(
        abs(hyp2f1(e["a"], e["b"], e["c"], e["z"]) - float(e["value"]))
        / max(1.0, abs(float(e["value"])))
        for e in ref["hyp2f1"]
    )
    worst1 = max(
        abs(hyp1f1(e["a"], e["c"], e["z"]) - float(e["value"]))
        / max(1.0, abs(float(e["value"])))
        for e in ref["hyp1f1"]
    )
    assert worst2 <= 1e-10, worst2
    assert worst1 <= 1e-10, worst1
