"""Closed-form ball kernels of the fractional Laplacian and their constants.

For the operator (-Delta)^(alpha/2), 0 < alpha < 2, on a ball of radius r
the exit position of the underlying jump process and the expected
occupation of the interior are both explicit:

* exit (Poisson) kernel, supported OUTSIDE the closed ball:
      P_r(x, z) = C~ * ((r^2-|x|^2)/(|z|^2-r^2))^(alpha/2) * |x-z|^(-n)
* interior Green function (alpha < n branch), written through the
  incomplete Beta:
      Q_r(x, y) = C^ * |y-x|^(alpha-n)
                  * [B((n-alpha)/2, alpha/2) - B(rho*; (n-alpha)/2, alpha/2)]
      rho*(x, y) = r^2|x-y|^2 / ((r^2-|x|^2)(r^2-|y|^2) + r^2|x-y|^2)
  (coordinates center-relative).  The bracket is evaluated on the
  complement, B_full * I_{1-rho*}(alpha/2, (n-alpha)/2), because 1-rho*
  has a cancellation-free closed form D/(D+E).

From the center the jump distance gamma has the exact CDF

      F(gamma) = 1 - I_{r^2/gamma^2}(alpha/2, 1 - alpha/2),  gamma >= r,

and the interior (source) sample has radial density s^(alpha-1) w(s)/Z
on (0,1) with w(s) = B_full - B(s^2; (n-alpha)/2, alpha/2).  The weight
zeta multiplying the source sample scales exactly like r^alpha:
zeta(center) = r^alpha * zeta_unit, where zeta_unit, the mean exit time
from the center of the unit ball (Getoor 1961), has the closed form

      zeta_unit = Gamma(n/2) / (2^alpha Gamma(1+alpha/2) Gamma((n+alpha)/2)).

The kernel functions take the ball as a geometry.BallDomain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sc

from .geometry import BallDomain

__all__ = [
    "ALPHA_MIN",
    "ALPHA_MAX",
    "KernelConstants",
    "make_constants",
    "poisson_kernel",
    "green_function",
    "exit_radius_cdf",
    "interior_radial_weight",
    "zeta_center",
]

# Public supported order range.  Outside it sin(pi*alpha/2) and
# Gamma(alpha/2)^2 degenerate fast enough that double precision gives no
# useful guarantees, so we refuse rather than return garbage.
ALPHA_MIN = 0.05
ALPHA_MAX = 1.95


def _check_real(value, name):
    """ValueError naming name unless value is a Python or numpy real, not a bool;
    a float passes before any numpy type is read, so a cold first call is cheap."""
    if not isinstance(value, float) and (
            isinstance(value, bool) or not isinstance(value, (int, np.integer, np.floating))):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def _check_integer(value, name):
    """ValueError naming name unless value is a Python or numpy integer, not a
    bool or a float, even an integral one; an int passes before numpy is read."""
    if type(value) is not int and (
            isinstance(value, bool) or not isinstance(value, (int, np.integer))):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_alpha(alpha: float) -> float:
    _check_real(alpha, "alpha")
    alpha = float(alpha)
    if not ALPHA_MIN <= alpha <= ALPHA_MAX:
        raise ValueError(
            f"alpha={alpha} outside the supported range [{ALPHA_MIN}, {ALPHA_MAX}]"
        )
    return alpha


@dataclass(frozen=True)
class KernelConstants:
    """Precomputed constants of the ball kernels for one (n, alpha)."""

    n: int
    alpha: float
    c_tilde: float  # Gamma(n/2) sin(pi alpha/2) / pi^(n/2+1)
    c_hat: float  # Gamma(n/2) / (2^alpha pi^(n/2) Gamma(alpha/2)^2)
    beta_full: float  # B((n-alpha)/2, alpha/2)
    zeta_unit: float  # Gamma(n/2) / (2^alpha Gamma(1+alpha/2) Gamma((n+alpha)/2))


def make_constants(n: int, alpha: float) -> KernelConstants:
    """Evaluate all kernel constants for dimension n and order alpha.

    Requires n >= 2: with alpha < 2 that keeps alpha < n, the branch on
    which the Beta form of the Green function is valid.
    """
    _check_integer(n, "n")
    n = int(n)
    if n < 2:
        raise ValueError("kernel constants require dimension n >= 2")
    alpha = _check_alpha(alpha)
    # scalars on math, not numpy or scipy: a cold set-up pays for each
    # first call into those, and this runs once per (n, alpha)
    half_n, a = 0.5 * n, 0.5 * alpha
    log_pi, log_gamma_half_n = math.log(math.pi), math.lgamma(half_n)
    c_tilde = math.exp(log_gamma_half_n - (half_n + 1.0) * log_pi) * math.sin(math.pi * a)
    c_hat = math.exp(log_gamma_half_n - alpha * math.log(2.0) - half_n * log_pi
                     - 2.0 * math.lgamma(a))
    beta_full = math.exp(math.lgamma(half_n - a) + math.lgamma(a) - log_gamma_half_n)
    zeta_unit = math.exp(log_gamma_half_n - alpha * math.log(2.0) - math.lgamma(1.0 + a)
                         - math.lgamma(half_n + a))
    return KernelConstants(
        n=n,
        alpha=alpha,
        c_tilde=c_tilde,
        c_hat=c_hat,
        beta_full=beta_full,
        zeta_unit=zeta_unit,
    )


def _center_relative(ball: BallDomain, pts):
    pts, single = ball._coerce(pts)
    return pts - ball.center[None, :], single


def poisson_kernel(ball: BallDomain, x, z, k: KernelConstants):
    """Exit-position density P_r(x, z): x strictly inside, z strictly outside."""
    xt, x_single = _center_relative(ball, x)
    zt, z_single = _center_relative(ball, z)
    r2 = ball.radius**2
    x2 = np.sum(xt * xt, axis=1)
    z2 = np.sum(zt * zt, axis=1)
    if np.any(x2 >= r2):
        raise ValueError("poisson_kernel: x must lie strictly inside the ball")
    if np.any(z2 <= r2):
        raise ValueError("poisson_kernel: z must lie strictly outside the ball")
    diff2 = np.sum((xt - zt) ** 2, axis=1)
    val = k.c_tilde * ((r2 - x2) / (z2 - r2)) ** (k.alpha / 2.0) * diff2 ** (-k.n / 2.0)
    return float(val[0]) if (x_single and z_single) else val


def green_function(ball: BallDomain, x, y, k: KernelConstants):
    """Occupation (Green) density Q_r(x, y) for x != y strictly inside the ball."""
    xt, x_single = _center_relative(ball, x)
    yt, y_single = _center_relative(ball, y)
    r2 = ball.radius**2
    x2 = np.sum(xt * xt, axis=1)
    y2 = np.sum(yt * yt, axis=1)
    if np.any(x2 >= r2) or np.any(y2 >= r2):
        raise ValueError("green_function: both points must lie strictly inside")
    diff2 = np.sum((xt - yt) ** 2, axis=1)
    if np.any(diff2 == 0.0):
        raise ValueError("green_function: singular at x == y")
    big_d = (r2 - x2) * (r2 - y2)
    big_e = r2 * diff2
    one_minus_rho = big_d / (big_d + big_e)
    bracket = k.beta_full * sc.betainc(k.alpha / 2.0, (k.n - k.alpha) / 2.0, one_minus_rho)
    val = k.c_hat * diff2 ** ((k.alpha - k.n) / 2.0) * bracket
    return float(val[0]) if (x_single and y_single) else val


def exit_radius_cdf(gamma, r: float, alpha: float):
    """P(jump distance <= gamma) from the center of a ball of radius r.

    F(gamma) = 1 - I_{r^2/gamma^2}(alpha/2, 1-alpha/2).  The parameter
    order matters: integrating the radial jump density
    (s^2 - r^2)^(-alpha/2) / s under t = r^2/s^2 yields the incomplete
    Beta integrand t^(alpha/2 - 1) (1-t)^(-alpha/2), i.e. first parameter
    alpha/2, and with it the stable tail P(gamma > G) ~ G^(-alpha).  The
    tests pin this down against a direct Poisson-kernel quadrature.

    Evaluated in two directions.  Near gamma = r the complement argument
    1 - r^2/gamma^2 is small and I_{1-x}(1-alpha/2, alpha/2) keeps full
    relative accuracy where F is small.  In the far tail that argument
    rounds to within one ulp of 1 (for gamma/r > 1e8 it cannot represent
    the true gap at all), which would inflate 1 - F by orders of
    magnitude, so there we form x = (r/gamma)^2 directly, which never
    underflows relative precision, and return 1 - I_x(alpha/2, 1-alpha/2).
    """
    if not r > 0:
        raise ValueError("ball radius must be positive")
    alpha = _check_alpha(alpha)
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < r):
        raise ValueError("exit_radius_cdf requires gamma >= r")
    ratio = r / gamma  # exactly 0 at gamma = inf
    x = ratio * ratio
    with np.errstate(invalid="ignore"):
        one_minus_x = ((gamma - r) / gamma) * ((gamma + r) / gamma)
    near = one_minus_x <= 0.5  # False for the nan produced at gamma = inf
    out = np.where(
        near,
        sc.betainc(1.0 - alpha / 2.0, alpha / 2.0, np.where(near, one_minus_x, 0.5)),
        1.0 - sc.betainc(alpha / 2.0, 1.0 - alpha / 2.0, np.where(near, 0.5, x)),
    )
    return float(out) if out.ndim == 0 else out


def interior_radial_weight(s, n: int, alpha: float):
    """w(s) = B((n-alpha)/2, alpha/2) - B(s^2; (n-alpha)/2, alpha/2), s in (0,1).

    The normalized radial density of the interior sample is
    s^(alpha-1) w(s) / Z with Z = int_0^1 s^(alpha-1) w(s) ds.
    """
    alpha = _check_alpha(alpha)
    if alpha >= n:
        raise ValueError("interior radial weight requires alpha < n")
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0) or np.any(s >= 1.0):
        raise ValueError("interior_radial_weight requires s in the open (0, 1)")
    beta_full = sc.beta((n - alpha) / 2.0, alpha / 2.0)
    out = beta_full * sc.betainc(alpha / 2.0, (n - alpha) / 2.0, 1.0 - s * s)
    return float(out) if out.ndim == 0 else out


def zeta_center(ball: BallDomain, k: KernelConstants) -> float:
    """Green mass of the ball seen from its center: radius^alpha * zeta_unit."""
    return ball.radius**k.alpha * k.zeta_unit

