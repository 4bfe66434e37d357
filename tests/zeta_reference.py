"""Independent quadrature reference for the unit-ball Green mass zeta_unit.

The package computes zeta_unit from its closed form (a ratio of Gamma
functions).  This module integrates the radial Green density instead,

    zeta_unit = 2^(1-alpha) / Gamma(alpha/2)^2 * int_0^1 s^(alpha-1) w(s) ds,

with Gauss-Jacobi quadrature for the weight s^(alpha-1) on a doubling
ladder; successive doublings are Richardson-extrapolated (the raw rule
converges like m^-(2+alpha) because of the (1-s^2)^(alpha/2) endpoint
behavior, and pushing m past ~10^4 only accumulates node noise).  The
tests compare the closed form against it, so the identities they check do
not reduce to a formula compared with itself.
"""

from functools import lru_cache

import numpy as np
import scipy.special as sc
from scipy.special import gammaln

_ZETA_TOL = 1e-10
_ZETA_MAX_POINTS = 8192


@lru_cache(maxsize=128)
def _gauss_jacobi_cached(m: int, exponent: float):
    # roots_jacobi targets int_{-1}^{1} (1-t)^p (1+t)^q f(t) dt; map to
    # int_0^1 s^exponent f(s) ds via s = (1+t)/2, picking p=0, q=exponent.
    t, w = sc.roots_jacobi(m, 0.0, exponent)
    nodes = 0.5 * (t + 1.0)
    weights = w / 2.0 ** (exponent + 1.0)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_jacobi_rule(m: int, exponent: float):
    """Nodes and weights for int_0^1 s**exponent q(s) ds, exact for deg(q) <= 2m-1.

    Returns a pair of read-only arrays (nodes, weights), nodes strictly
    inside (0, 1), weights positive.
    """
    if m < 1:
        raise ValueError("gauss_jacobi_rule requires m >= 1")
    if not exponent > -1:
        raise ValueError("gauss_jacobi_rule requires exponent > -1")
    return _gauss_jacobi_cached(int(m), float(exponent))


def _zeta_integrand(s, n, alpha, beta_full):
    # w(s) on the quadrature nodes, complement form (exact at both ends)
    return beta_full * sc.betainc(alpha / 2.0, (n - alpha) / 2.0, 1.0 - s * s)


def _zeta_unit_quadrature(n: int, alpha: float, beta_full: float, quad_points: int) -> float:
    pref = np.exp(-(alpha - 1.0) * np.log(2.0) - 2.0 * gammaln(alpha / 2.0))
    m = int(quad_points)
    vals = []
    extraps = []
    while m <= _ZETA_MAX_POINTS:
        s, w = gauss_jacobi_rule(m, alpha - 1.0)
        vals.append(pref * float(np.sum(w * _zeta_integrand(s, n, alpha, beta_full))))
        if len(vals) >= 3:
            d1 = vals[-2] - vals[-3]
            d2 = vals[-1] - vals[-2]
            if d1 != 0.0 and 0.0 < d2 / d1 < 0.9:
                ratio = d2 / d1
                extraps.append(vals[-1] + d2 * ratio / (1.0 - ratio))
            else:
                extraps.append(vals[-1])
            if len(extraps) >= 2 and abs(extraps[-1] - extraps[-2]) < _ZETA_TOL:
                return extraps[-1]
        if len(vals) >= 2 and abs(vals[-1] - vals[-2]) < _ZETA_TOL:
            return vals[-1] if not extraps else extraps[-1]
        m *= 2
    raise RuntimeError(
        f"zeta quadrature did not converge to {_ZETA_TOL} within {_ZETA_MAX_POINTS} points"
    )


def zeta_unit_quadrature(n: int, alpha: float, quad_points: int = 64) -> float:
    """zeta_unit(n, alpha) by the Gauss-Jacobi + Richardson ladder.

    Raises RuntimeError where the ladder does not settle to 1e-10 within
    8192 nodes (it fails at a few small alpha for n = 2 and 3, e.g.
    (n, alpha) = (2, 0.25))."""
    beta_full = float(sc.beta((n - alpha) / 2.0, alpha / 2.0))
    return _zeta_unit_quadrature(n, alpha, beta_full, quad_points)
