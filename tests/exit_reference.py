"""Reference exit-radius transform: scipy's betaincinv at every alpha.

The package inverts the exit law with betaincinv at alpha = 1 only, and
with a certified Chebyshev table elsewhere (sampling._exit_table).  This is
the transform it replaced, gamma = r / sqrt(max(I^(-1)(u; alpha/2,
1 - alpha/2), 1e-300)), kept so that the golden stream stays a byte-level
pin of the walk and the table has something independent to be checked
against.
"""

import numpy as np
import scipy.special as sc

from fracwos.sampling import _MIN_INV_BETA


def exit_radius_from_uniform(r, alpha: float, u):
    """Map uniforms in (0,1) to jump distances through betaincinv."""
    x = sc.betaincinv(alpha / 2.0, 1.0 - alpha / 2.0, u)
    x = np.maximum(x, _MIN_INV_BETA)
    return r / np.sqrt(x)
