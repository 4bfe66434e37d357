"""Special functions backing the fractional kernels and manufactured sources.

Everything here is a thin, contract-checked wrapper over scipy.special.
The wrappers exist so the rest of the package has one audited place for
the conventions that actually bite:

* ``inc_beta`` is the UNregularized incomplete Beta B(x; a, b); scipy's
  ``betainc`` is regularized, so the two differ by a factor B(a, b).
* ``hyp2f1``/``hyp1f1`` are only guaranteed on the nonpositive real axis
  (z in [-40, 0]), which is the range the manufactured source terms use;
  both are validated against frozen 60-digit series references.

All functions accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.special as sc

__all__ = [
    "BetaParams",
    "beta",
    "inc_beta",
    "hyp2f1",
    "hyp1f1",
]


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


def hyp2f1(a, b, c, z):
    """Gauss hypergeometric 2F1(a, b; c; z) for real z <= 0.

    scipy's implementation already applies the standard linear
    transformations on the left half line; we restrict the domain to the
    validated box rather than re-deriving them.
    """
    if c <= 0 and float(c).is_integer():
        raise ValueError("hyp2f1: c must not be a nonpositive integer")
    z = np.asarray(z, dtype=float)
    if np.any(z > 0):
        raise ValueError("hyp2f1 is only supported for z <= 0")
    out = sc.hyp2f1(a, b, c, z)
    return float(out) if out.ndim == 0 else out


def hyp1f1(a, c, z):
    """Confluent hypergeometric 1F1(a; c; z) for real z <= 0.

    For z < 0 the defining series alternates; scipy evaluates via the
    Kummer transform 1F1(a; c; z) = e^z 1F1(c-a; c; -z) in that regime,
    which keeps every term positive.  Validated against the frozen
    references in tests/data.
    """
    if c <= 0 and float(c).is_integer():
        raise ValueError("hyp1f1: c must not be a nonpositive integer")
    z = np.asarray(z, dtype=float)
    if np.any(z > 0):
        raise ValueError("hyp1f1 is only supported for z <= 0")
    out = sc.hyp1f1(a, c, z)
    return float(out) if out.ndim == 0 else out

