"""Hypergeometric functions backing the manufactured sources of the oracle.

Both are thin, contract-checked wrappers over scipy.special, only
guaranteed on the nonpositive real axis (z in [-40, 0]), which is the range
the manufactured source terms use; both are validated against frozen
60-digit series references.

All functions accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import numpy as np
import scipy.special as sc

__all__ = ["hyp2f1", "hyp1f1"]


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

