"""Reference transforms of the walk's uniforms through scipy's betaincinv.

The package inverts the exit law x = I^(-1)(u; alpha/2, 1 - alpha/2) in
closed form at alpha = 1 and with a certified Chebyshev table elsewhere
(sampling._exit_table), and reads that inverse twice per step: for the
exit radius and for the variate X of the interior radius.  These are the
same transforms with betaincinv at every alpha, kept so that the table has
something independent to be checked against and the golden stream a run
whose step counts it must repeat.
"""

import numpy as np
import scipy.special as sc

from fracwos.sampling import _MIN_INV_BETA


def exit_radius_from_uniform(r, alpha: float, u):
    """Map uniforms in (0,1) to jump distances through betaincinv."""
    x = sc.betaincinv(alpha / 2.0, 1.0 - alpha / 2.0, u)
    x = np.maximum(x, _MIN_INV_BETA)
    return r / np.sqrt(x)


def interior_radius_from_uniforms(n: int, alpha: float, ux, ut, uv):
    """sampling.interior_radius_from_uniforms with X and 1 - X each from
    betaincinv: 1 - X = I^(-1)(1 - ux; 1 - alpha/2, alpha/2)."""
    a = alpha / 2.0
    x = sc.betaincinv(a, 1.0 - a, ux)
    one_minus_x = sc.betaincinv(1.0 - a, a, 1.0 - ux)
    t = np.minimum(one_minus_x + x * ut ** (2.0 / (n - 2.0 + alpha)), 1.0)
    return np.sqrt(t) * uv ** (1.0 / alpha)
