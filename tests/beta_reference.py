"""The complete and unregularized incomplete Beta functions, for the tests.

The package calls scipy's regularized ``betainc`` and ``betaincinv``
directly.  The tests check the kernels' radial laws and scipy's inverse
against these contract-checked forms: ``inc_beta`` is the UNregularized
incomplete Beta B(x; a, b), which differs from ``betainc`` by a factor
B(a, b).
"""

from dataclasses import dataclass

import numpy as np
import scipy.special as sc


@dataclass(frozen=True)
class BetaParams:
    """Shape parameters (a, b) of the Beta integrals, both > 0."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError(f"Beta parameters must be positive, got {self.a}, {self.b}")


def _as_params(p) -> tuple[float, float]:
    if isinstance(p, BetaParams):
        return p.a, p.b
    a, b = p
    if not (a > 0 and b > 0):
        raise ValueError(f"Beta parameters must be positive, got {a}, {b}")
    return float(a), float(b)


def beta(a, b):
    """Complete Beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a <= 0) or np.any(b <= 0):
        raise ValueError("beta requires positive arguments")
    out = sc.beta(a, b)
    return float(out) if out.ndim == 0 else out


def inc_beta(x, p):
    """Unregularized incomplete Beta B(x; a, b) = int_0^x t^(a-1)(1-t)^(b-1) dt."""
    a, b = _as_params(p)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > 1):
        raise ValueError("inc_beta requires x in [0, 1]")
    out = sc.betainc(a, b, x) * sc.beta(a, b)
    return float(out) if out.ndim == 0 else out
