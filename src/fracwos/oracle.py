"""Deterministic references: one-ball quadrature and the named test cases.

ball_solution_quadrature evaluates the exact single-ball representation

    u(x) = int_ball Q_r(x, y) f(y) dy + int_{|z|>r} P_r(x, z) g(z) dz

by tensor quadrature, giving a Monte-Carlo-free value to compare the
solver against.  The interior integral runs in x-centered polar
coordinates, which turns the |y - x|^(alpha-n) point singularity into a
one-dimensional sigma^(alpha-1) endpoint factor handled by a tanh-sinh
rule; the exterior integral maps (r, inf) to (0, 1) by t = r/|z| and the
algebraic weight t^(alpha-1) (1-t)^(-alpha/2) is absorbed exactly into a
Gauss-Jacobi rule.

The registry lists the seven benchmark problems used throughout the
tests: two disks with exact solutions, the 10-dimensional ball, the
L-shaped domain with a Gaussian solution, and three qualitative cases
(stripe, hexagon, annulus) with homogeneous exterior data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.special as sc

from .engine import ConstantField, ProblemSpec, _FieldEval
from .geometry import (
    AnnulusDomain,
    BallDomain,
    BoxDomain,
    HexagonDomain,
    LShapeDomain,
    _dot,
)
from .kernels import _check_alpha, make_constants

__all__ = ["CASE_NAMES", "ExactCase", "ball_solution_quadrature", "constant_source",
           "exact_registry", "make_case"]

_QUAD_TOL = 1e-8
# doubling ladder caps; the 3D tensor grows with the cube of the level
_MAX_DOUBLINGS = {2: 5, 3: 3}


# ---------------------------------------------------------------------------
# quadrature rules


def _tanh_sinh(npts: int):
    """Symmetric tanh-sinh rule for int_0^1 F dsigma with endpoint
    singularities.

    Returns (sigma, one_minus_sigma, weight); both gap arrays are computed
    directly from the transform so nodes can sit within 1e-276 of an
    endpoint without rounding to it.  T = 6 keeps exp(-pi*sinh T) above
    the subnormal range."""
    T = 6.0
    half = max(8, npts // 2)
    h = T / half
    tau = h * np.arange(-half, half + 1)
    u = 0.5 * np.pi * np.sinh(tau)
    au = np.abs(u)
    e = np.exp(-2.0 * au)
    gap_far = e / (1.0 + e)  # distance to the endpoint the node crowds
    sigma = np.where(u < 0, gap_far, 1.0 - gap_far)
    one_minus = np.where(u < 0, 1.0 - gap_far, gap_far)
    # dsigma/dtau = (pi/4) cosh(tau) sech^2(u), written without overflow
    sech2 = 4.0 * e / (1.0 + e) ** 2
    weight = h * 0.25 * np.pi * np.cosh(tau) * sech2
    return sigma, one_minus, weight


def _jacobi_rule_01(m: int, expo_right: float, expo_left: float):
    """Nodes/weights with weight (1-t)^expo_right * t^expo_left on (0,1)."""
    x, w = sc.roots_jacobi(m, expo_right, expo_left)
    return 0.5 * (1.0 + x), w * 2.0 ** (-(expo_right + expo_left + 1.0))


def _angular_nodes(n: int, angular_pts: int):
    """Directions on S^(n-1), n in {2, 3}, in the local frame whose first
    axis points along x: a list of (cosine against that axis, unit vector,
    weight).  The circle takes equal angles; the sphere a Gauss-Legendre
    rule in the cosine times equal azimuths."""
    phi = 2.0 * np.pi * np.arange(angular_pts) / angular_pts
    wphi = 2.0 * np.pi / angular_pts
    if n == 2:
        return [(np.cos(p), np.array([np.cos(p), np.sin(p)]), wphi) for p in phi]
    cg, wg = sc.roots_legendre(angular_pts)
    nodes = []
    for c, wc in zip(cg, wg):
        s = np.sqrt(max(0.0, 1.0 - c * c))
        for p in phi:
            nodes.append((c, np.array([c, s * np.cos(p), s * np.sin(p)]), wc * wphi))
    return nodes


def _householder_frame(direction):
    """Orthogonal matrix mapping e1 to `direction` (unit vector)."""
    n = direction.shape[0]
    e1 = np.zeros(n)
    e1[0] = 1.0
    v = direction - e1
    vv = v @ v
    if vv < 1e-30:
        return np.eye(n)
    return np.eye(n) - 2.0 * np.outer(v, v) / vv


# ---------------------------------------------------------------------------
# the two integrals


def _interior_integral(f, center, xi, rot, r, n, alpha, kc, radial_pts, angular_pts):
    """int_ball Q_r(x, y) f(y) dy in x-centered coordinates.

    Along a ray of direction cosine c (against the x axis) the chord
    length is Qp = -xi*c + sqrt(r^2 - xi^2(1-c^2)) and
    r^2 - |y|^2 = (Qp - q)(q - Q2) factors exactly, so the Green bracket
    stays cancellation-free up to the boundary."""
    sig, gap1, wde = _tanh_sinh(radial_pts)
    a_half = alpha / 2.0
    b_half = (n - alpha) / 2.0
    r2mx2 = r * r - xi * xi
    sig_pow = sig ** (alpha - 1.0)

    x_world = center + xi * rot[:, 0]
    total = 0.0
    for c, e_local, w_ang in _angular_nodes(n, angular_pts):
        root = np.sqrt(r * r - xi * xi * (1.0 - c * c))
        qp = -xi * c + root
        q2 = -(xi * c + root)
        q = qp * sig
        r2my2 = (qp * gap1) * (q - q2)
        big_d = r2mx2 * r2my2
        big_e = (r * r) * q * q
        bracket = kc.beta_full * sc.betainc(a_half, b_half, big_d / (big_d + big_e))
        e_world = rot @ e_local
        # q runs along the chord from the evaluation point, not the center
        y = x_world[None, :] + q[:, None] * e_world[None, :]
        vals = kc.c_hat * (qp**alpha) * sig_pow * bracket * f(y)
        total += w_ang * float(np.sum(wde * vals))
    return total


def _exterior_integral(g, center, xi, rot, r, n, alpha, kc, radial_pts, angular_pts):
    """int_{|z|>r} P_r(x, z) g(z) dz via t = r/|z|.

    The radial weight t^(alpha-1) (1-t)^(-alpha/2) is exact Gauss-Jacobi;
    the remaining factor is smooth because |x - z| >= r - |x| > 0."""
    t, wt = _jacobi_rule_01(radial_pts, -alpha / 2.0, alpha - 1.0)
    pre = kc.c_tilde * (r * r - xi * xi) ** (alpha / 2.0) * r ** (n - alpha)
    smooth_t = (1.0 + t) ** (-alpha / 2.0)

    total = 0.0
    for c, e_local, w_ang in _angular_nodes(n, angular_pts):
        # t^2 |x - z|^2 = (r - t xi c)^2 + (t xi)^2 (1 - c^2), never zero
        dden = (r - t * xi * c) ** 2 + (t * xi) ** 2 * (1.0 - c * c)
        e_world = rot @ e_local
        z = center[None, :] + (r / t)[:, None] * e_world[None, :]
        vals = smooth_t * g(z) / dden ** (n / 2.0)
        total += w_ang * float(np.sum(wt * vals))
    return pre * total


def ball_solution_quadrature(
    problem: ProblemSpec, x, radial_pts: int = 64, angular_pts: int = 64
) -> float:
    """Deterministic solution value at x for a problem posed on a ball.

    Doubles both resolutions until two consecutive values agree to 1e-8
    and returns the finer one; raises if the ladder cap is hit first.
    Supports n in {2, 3}."""
    dom = problem.domain
    if not isinstance(dom, BallDomain):
        raise TypeError("ball_solution_quadrature needs a BallDomain problem")
    if problem.n not in _MAX_DOUBLINGS:
        raise ValueError("tensor quadrature is implemented for n in {2, 3}")
    pts, single = dom._coerce(x)
    if not single:
        raise ValueError(f"ball_solution_quadrature needs one point of shape ({dom.n},)")
    x = pts[0]
    if not dom.contains(x):
        raise ValueError("evaluation point must lie strictly inside the ball")

    rel = x - dom.center
    xi = float(np.linalg.norm(rel))
    rot = _householder_frame(rel / xi) if xi > 0 else np.eye(problem.n)
    kc = make_constants(problem.n, problem.alpha)
    f = _FieldEval(problem.f) if problem.f is not None else None
    g = _FieldEval(problem.g)
    r = dom.radius

    prev = None
    for level in range(_MAX_DOUBLINGS[problem.n] + 1):
        rp = radial_pts << level
        ap = angular_pts << level
        val = 0.0
        if f is not None:
            val += _interior_integral(
                f, dom.center, xi, rot, r, problem.n, problem.alpha, kc, rp, ap
            )
        val += _exterior_integral(
            g, dom.center, xi, rot, r, problem.n, problem.alpha, kc, rp, ap
        )
        if prev is not None and abs(val - prev) < _QUAD_TOL:
            return val
        prev = val
    raise RuntimeError(
        "ball solution quadrature did not converge to 1e-8 within the ladder cap"
    )


# ---------------------------------------------------------------------------
# benchmark registry


@dataclass(frozen=True)
class ExactCase(ProblemSpec):
    """A named benchmark problem, itself a ProblemSpec checked when it is
    built, with its exact solution when one exists."""

    name: str
    u_exact: Optional[Callable]

    def problem(self) -> ProblemSpec:
        return self


def _r2(x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return np.sum(x * x, axis=1)


_ZERO = ConstantField(0.0)
# the phases of the stripe's and the hexagon's oscillatory sources
_C1 = np.array([np.pi / 3.0, -np.pi / 4.0])
_C2 = np.array([-np.pi / 2.0, 2.0 * np.pi / 3.0])
# the unit balls whose case is the bump solution with a constant source
_BUMP_DIMS = {"disk_constant_source": 2, "ball10_constant_source": 10}


def _gaussian(x):
    """exp(-|x|^2): lshape_gaussian's solution, and the CLI's `gaussian`."""
    return np.exp(-_r2(x))


def _inverse_cubic(x):
    """(1 + |x|^2)^(-3/2): disk_inverse_cubic's solution, and the CLI's
    `inverse_cubic`."""
    return (1.0 + _r2(x)) ** -1.5


def _signed_power(base, p: float):
    """Fractional power extended to negative bases as sign(b)*|b|^p."""
    base = np.asarray(base, dtype=float)
    return np.sign(base) * np.abs(base) ** p


def _bump_power(alpha: float):
    def u(x):
        return np.maximum(0.0, 1.0 - _r2(x)) ** (alpha / 2.0)

    return u


def constant_source(n: int, alpha: float) -> float:
    """The constant f whose solution on the unit ball with g = 0 is
    (1 - |x|^2)^(alpha/2): 1 / KernelConstants.zeta_unit."""
    return 1.0 / make_constants(n, alpha).zeta_unit


def make_case(name: str, alpha: float = 1.0) -> ExactCase:
    """Build one benchmark case at the given exponent."""
    _check_alpha(alpha)  # before the case's own constants read it
    if name in _BUMP_DIMS:
        # radially symmetric bump solution on the unit ball; the source is
        # the constant constant_source(n, alpha) and g vanishes (at n = 10,
        # the solution the cited constant source belongs to)
        n = _BUMP_DIMS[name]
        return ExactCase(
            n, alpha, ConstantField(constant_source(n, alpha)), _ZERO,
            BallDomain(np.zeros(n), 1.0), name, _bump_power(alpha),
        )
    if name == "disk_inverse_cubic":
        # u(x) = (1 + |x|^2)^(-3/2) globally; the source on the disk is
        # Gamma(2+alpha) 2F1((2+alpha)/2, (3+alpha)/2; 1; -|x|^2)
        c = math.gamma(2.0 + alpha)

        def f(x, c=c, alpha=alpha):
            return c * sc.hyp2f1((2.0 + alpha) / 2.0, (3.0 + alpha) / 2.0, 1.0, -_r2(x))

        return ExactCase(2, alpha, f, _inverse_cubic, BallDomain(np.zeros(2), 1.0), name,
                         _inverse_cubic)
    if name == "lshape_gaussian":
        # u(x) = exp(-|x|^2) manufactured on the L-shaped domain
        c = 2.0**alpha * math.gamma(1.0 + alpha / 2.0)

        def f(x, c=c, alpha=alpha):
            return c * sc.hyp1f1((2.0 + alpha) / 2.0, 1.0, -_r2(x))

        return ExactCase(2, alpha, f, _gaussian, LShapeDomain(), name, _gaussian)
    if name == "stripe_oscillatory":
        # qualitative: mixed-frequency source on [-5,5]x[-0.5,0.5], g = 0;
        # the fractional powers of signed bases use sign(b)*|b|^p
        amp = 2.0**alpha * math.gamma(1.0 + alpha / 2.0)

        def f(x, amp=amp, alpha=alpha):
            x = np.atleast_2d(np.asarray(x, dtype=float))
            osc = _signed_power(np.cos(_dot(x, _C2)), alpha / 3.0) + _signed_power(
                np.sin(_dot(x, _C1)), alpha / 2.0
            )
            return amp * osc * np.cos(-_r2(x))

        return ExactCase(2, alpha, f, _ZERO, BoxDomain([-5.0, -0.5], [5.0, 0.5]), name, None)
    if name == "hexagon_oscillatory":
        # qualitative: regular hexagon inscribed in [-1,1]^2, g = 0
        def f(x, alpha=alpha):
            x = np.atleast_2d(np.asarray(x, dtype=float))
            return (
                np.sin(_dot(x, _C1)) ** 2
                + np.cos(_dot(x, _C2)) ** 2
                - (alpha * x[:, 0] * x[:, 1]) ** 3
            )

        return ExactCase(2, alpha, f, _ZERO, HexagonDomain(1.0), name, None)
    if name == "annulus_oscillatory":
        # qualitative: annulus 0.3 < |x|^2 < 1, g = 0
        def f(x):
            x = np.atleast_2d(np.asarray(x, dtype=float))
            x1, x2 = x[:, 0], x[:, 1]
            return np.cos(x2 * x2 - 2.0 * x1 * x2) - np.sin(x1 * x1 + 2.0 * x1 * x2)

        return ExactCase(2, alpha, f, _ZERO, AnnulusDomain(math.sqrt(0.3), 1.0), name, None)
    raise KeyError(f"unknown case name: {name}")


CASE_NAMES = (
    "disk_constant_source",
    "disk_inverse_cubic",
    "ball10_constant_source",
    "lshape_gaussian",
    "stripe_oscillatory",
    "hexagon_oscillatory",
    "annulus_oscillatory",
)


def exact_registry(alpha: float = 1.0) -> list[ExactCase]:
    """All benchmark cases, instantiated at the given exponent."""
    return [make_case(name, alpha) for name in CASE_NAMES]
