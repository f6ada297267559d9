"""Pathwise calculus for fractional Brownian motion with H > 1/2.

Fractional operators and Young integration (:mod:`fbmld.fracops`), exact fBm
sampling through the covariance or the Volterra kernel (:mod:`fbmld.fbm`),
Cameron-Martin controls (:mod:`fbmld.cmspace`), a pathwise Euler solver for
Young-driven SDEs (:mod:`fbmld.sde`), and rate-function / Laplace-principle /
importance-sampling machinery (:mod:`fbmld.ldp`), with a JSON-config
experiment runner (:mod:`fbmld.cli`).
"""

__version__ = "0.1.0"

from .errors import (DimensionError, DomainError, FbmldError, InfeasibleError,
                     NumericError)
from .gridfn import GridFn

__all__ = [
    "__version__",
    "GridFn",
    "FbmldError",
    "DomainError",
    "DimensionError",
    "NumericError",
    "InfeasibleError",
]
