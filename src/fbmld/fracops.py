"""Fractional operators, Young integral engines, and path norms.

All operators act on uniform-grid ``GridFn`` samples with the same product
midpoint discipline: function data is frozen at cell midpoints while the
singular kernel factor ((t-s)^(alpha-1), (t-s)^(-alpha), t^(-alpha)) is
integrated in closed form over each cell.  The singularity is therefore never
sampled, and the rules are exact whenever the frozen factor is constant.

Sign conventions: the right-sided operators drop the complex unit factors
(-1)^alpha of the defining formulas and return real magnitudes; the pairing
in ``young_frac`` restores the product of those factors as an overall -1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, NumericError
from .gridfn import GridFn

__all__ = [
    "HolderReport",
    "gauss_2f1",
    "frac_integral",
    "weyl_derivative",
    "young_rs",
    "young_frac",
    "norms",
]


# ---------------------------------------------------------------------------
# Gauss hypergeometric function
# ---------------------------------------------------------------------------

# power series term cap
_SERIES_MAX_TERMS = 100_000


def _f21_series(a: float, b: float, c: float, x: np.ndarray) -> np.ndarray:
    """Power series of F(a, b, c; x) elementwise, for x in [0, 1).

    The sum stops once the largest term falls below 1e-16 of the largest
    partial sum.  This is the package's one 2F1 series: the Volterra kernel
    and :func:`gauss_2f1` both call it.
    """
    out = np.ones_like(x)
    term = np.ones_like(x)
    for k in range(_SERIES_MAX_TERMS):
        term = term * ((a + k) * (b + k) / ((c + k) * (k + 1.0))) * x
        out += term
        if np.max(np.abs(term)) <= 1e-16 * np.max(np.abs(out)):
            return out
    raise NumericError(
        f"2F1 series did not converge within {_SERIES_MAX_TERMS} terms "
        f"(a={a}, b={b}, c={c})"
    )


def gauss_2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric function F(a, b, c; z) for z <= 1/2.

    For z < 0 the Pfaff transformation
    ``F(a,b,c;z) = (1-z)^(-a) F(a, c-b, c; z/(z-1))``
    maps the series argument into [0, 1), where :func:`_f21_series` sums it.

    Raises
    ------
    DomainError
        if ``c`` is a non-positive integer or ``z > 1/2``.
    NumericError
        if the series has not converged after 100 000 terms.
    """
    if c <= 0 and float(c).is_integer():
        raise DomainError(f"c must not be a non-positive integer, got {c}")
    if not np.isfinite(z) or z > 0.5:
        raise DomainError(f"argument z must satisfy z <= 1/2, got {z}")

    prefactor = 1.0
    if z < 0.0:
        prefactor = (1.0 - z) ** (-a)
        b, z = c - b, z / (z - 1.0)
    return prefactor * float(_f21_series(a, b, c, np.array([z]))[0])


# ---------------------------------------------------------------------------
# product-midpoint building blocks
#
# Uniform grids make every kernel moment a function of the lag k - j alone,
# so the quadratures reduce to short convolutions.
# ---------------------------------------------------------------------------

def _convolve_lags(coeff: np.ndarray, data: np.ndarray) -> np.ndarray:
    """out[k] = sum_{l=1..k} coeff[l] * data[k-l] for k = 0..len(coeff)-1.

    ``coeff`` is indexed from lag 0 (coeff[0] unused, must be 0); ``data``
    has one row per cell and arbitrary trailing dimension.
    """
    out = np.empty((len(coeff), data.shape[1]))
    for i in range(data.shape[1]):
        out[:, i] = np.convolve(coeff, data[:, i])[: len(coeff)]
    return out


def _cell_moments(n: int, power: float, offset: float = 0.0) -> np.ndarray:
    """Exact cell integrals of (tau - s)^(power-1) by lag, power in (0, 1].

    ``m[l] = integral over the cell at lag l of (tau - s)^(power-1) ds`` where
    tau sits ``offset`` cells past the cell's right node (offset=0: tau on the
    node grid; offset=1/2: tau at cell midpoints); m[0] = 0.  The closed form
    handles the cell touching tau.
    """
    dt = 1.0 / n
    ell = np.arange(n + 1, dtype=float)
    upper = np.maximum(ell + offset, 0.0) ** power
    lower = np.maximum(ell - 1.0 + offset, 0.0) ** power
    m = dt ** power * (upper - lower) / power
    m[0] = 0.0
    return m


def _quotient_weights(n: int, alpha: float, offset: float) -> np.ndarray:
    """Cell weights of the difference quotient against (tau - s)^(-alpha).

    Each lag's moment divided by the distance (l - 1/2 + offset) dt from tau
    to that cell's midpoint, where the quotient (f(tau) - f(s)) / (tau - s)
    is frozen; w[0] = 0.
    """
    dt = 1.0 / n
    w = _cell_moments(n, 1.0 - alpha, offset)
    w[1:] /= (np.arange(1, n + 1) - 0.5 + offset) * dt
    return w


def _weyl_left_core(values: np.ndarray, n: int, alpha: float,
                    at_midpoints: bool) -> np.ndarray:
    """D^alpha_{0+} f on (0, 1], real convention, per component.

    ``values`` is the (n+1, dim) node array.  Returns the derivative at the
    interior nodes t_1..t_n (``at_midpoints=False``, shape (n, dim)) or at
    all cell midpoints (``at_midpoints=True``, shape (n, dim)).  Evaluation
    point k sees the full cells at lags 1..k through
    :func:`_quotient_weights`; a midpoint also sees its half cell.
    """
    dt = 1.0 / n
    f_mid = 0.5 * (values[:-1] + values[1:])
    # points tau_k = (k + offset) dt: nodes k = 1..n, or midpoints k = 0..n-1
    offset, first, pts = (0.5, 0, f_mid) if at_midpoints else (0.0, 1, values[1:])
    coeff = _quotient_weights(n, alpha, offset)
    rows = slice(first, first + n)
    integral = pts * np.cumsum(coeff)[rows, None] - _convolve_lags(coeff, f_mid)[rows]
    if at_midpoints:                                     # half cell [t_k, tau_k)
        slope = (values[1:] - values[:-1]) / dt
        integral += slope * ((0.5 * dt) ** (1.0 - alpha) / (1.0 - alpha))
    tau = (np.arange(first, first + n) + offset) * dt
    return (pts / tau[:, None] ** alpha + alpha * integral) / math.gamma(1.0 - alpha)


# ---------------------------------------------------------------------------
# public operators
# ---------------------------------------------------------------------------

def frac_integral(f: GridFn, alpha: float, side: str = "left") -> GridFn:
    """Riemann-Liouville fractional integral I^alpha of order alpha in (0, 1].

    ``side="left"`` gives I^alpha_{0+} (vanishing at t=0), ``side="right"``
    gives I^alpha_{1-} (vanishing at t=1, real convention).  Cell data is the
    midpoint interpolant; the kernel (t-s)^(alpha-1) is integrated exactly
    per cell, so the result is exact for piecewise-constant integrands.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if side not in ("left", "right"):
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")

    n = f.n_steps
    vals = f.values if side == "left" else f.values[::-1]
    f_mid = 0.5 * (vals[:-1] + vals[1:])
    out = _convolve_lags(_cell_moments(n, alpha), f_mid) / math.gamma(alpha)
    if side == "right":
        out = out[::-1]
    return GridFn(n, out)


def weyl_derivative(f: GridFn, alpha: float, side: str = "left") -> GridFn:
    """Weyl (Marchaud-form) fractional derivative of order alpha in (0, 1).

    Computes the boundary term f(t)/(t-a)^alpha plus alpha times the
    singular increment integral on the interior nodes.  The formula is only
    defined a.e. on (0, 1): the endpoint node where it is singular (t=0 on
    the left, t=1 on the right) is filled by one-sided continuation and
    should be excluded from error metrics.

    Right-sided derivatives are returned in the real convention, without the
    complex factor (-1)^alpha of the defining formula.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if side not in ("left", "right"):
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")

    n = f.n_steps
    vals = f.values if side == "left" else f.values[::-1]
    interior = _weyl_left_core(vals, n, alpha, at_midpoints=False)
    out = np.vstack([interior[:1], interior])            # flagged node continued
    if side == "right":
        out = out[::-1]
    return GridFn(n, out)


def young_rs(f: GridFn, g: GridFn) -> GridFn:
    """Running Riemann-Stieltjes integral of f against g, midpoint-frozen.

    ``out(t_k) = sum_{j<k} (f(t_j) + f(t_{j+1}))/2 (g(t_{j+1}) - g(t_j))``:
    f is frozen at cell midpoints like every operator in this module, which
    makes the sum the exact Young integral of the piecewise-linear
    interpolants of f and g.  In particular ``young_rs(f, f)`` obeys the
    chain rule ``(f(1)^2 - f(0)^2)/2`` to rounding.  The left-point sum of
    the Euler scheme differs from it by half the discrete cross-variation
    ``sum_j df_j dg_j``, which vanishes like n^(1-2H) on fBm data.

    Dimension rules: scalar f integrates against every component of g;
    ``f.dim == g.dim`` contracts to the scalar sum of componentwise
    integrals; ``f.dim == m * g.dim`` acts as a row-major (m, d) matrix.
    """
    if f.n_steps != g.n_steps:
        raise DimensionError(
            f"grid mismatch: f has {f.n_steps} steps, g has {g.n_steps}"
        )
    dg = g.increments()                                  # (n, d)
    fv = f.midpoint_values()                             # (n, f.dim)
    d = g.dim
    if f.dim == 1:
        summand = fv * dg
    elif f.dim == d:
        summand = np.sum(fv * dg, axis=1, keepdims=True)
    elif f.dim % d == 0:
        m = f.dim // d
        summand = np.einsum("kij,kj->ki", fv.reshape(-1, m, d), dg)
    else:
        raise DimensionError(
            f"cannot pair f.dim={f.dim} with g.dim={d}"
        )
    out = np.vstack([np.zeros((1, summand.shape[1])), np.cumsum(summand, axis=0)])
    return GridFn(f.n_steps, out)


def _rough_holder_estimate(f: GridFn) -> float:
    """Crude grid-level Holder exponent from increment growth across lags.

    Compares the largest increment at lag 1 and lag 4; a lambda-Holder path
    scales by ~4^lambda.  Heuristic only, used for warnings.
    """
    vals = f.values
    top1 = float(np.linalg.norm(vals[1:] - vals[:-1], axis=1).max())
    top4 = float(np.linalg.norm(vals[4:] - vals[:-4], axis=1).max())
    if top1 == 0.0 or top4 == 0.0:
        return 1.0
    return min(1.0, max(0.05, math.log(top4 / top1) / math.log(4.0)))


def young_frac(f: GridFn, g: GridFn, alpha: float) -> float:
    """Young integral of f dg over [0,1] via fractional integration by parts.

    Evaluates ``(-1)^alpha * integral of D^alpha_{0+} f times
    D^(1-alpha)_{1-} g_{1-}``, with ``g_{1-}(t) = g(t) - g(1)``.  Both Weyl
    derivatives are taken at cell midpoints; the outer integrand's t^(-alpha)
    singularity at 0 is removed by freezing ``t^alpha * integrand`` per cell
    against the exact moments of t^(-alpha).  The two complex unit factors of
    the right-sided operator and the pairing combine to the real overall
    sign -1.

    Requires matching dims; vector inputs are contracted componentwise.
    Regularity is checked heuristically and warned about, never enforced.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if f.n_steps != g.n_steps:
        raise DimensionError(
            f"grid mismatch: f has {f.n_steps} steps, g has {g.n_steps}"
        )
    if f.dim != g.dim:
        raise DimensionError(f"dim mismatch: f.dim={f.dim}, g.dim={g.dim}")

    lam_f = _rough_holder_estimate(f)
    mu_g = _rough_holder_estimate(g)
    if lam_f <= alpha:
        warnings.warn(
            f"f looks rougher (~{lam_f:.2f}) than alpha={alpha}; the "
            "integration-by-parts quadrature may be inaccurate",
            stacklevel=2,
        )
    if mu_g <= 1.0 - alpha:
        warnings.warn(
            f"g looks rougher (~{mu_g:.2f}) than 1-alpha={1 - alpha}; the "
            "integration-by-parts quadrature may be inaccurate",
            stacklevel=2,
        )

    n = f.n_steps
    g_shift = g.values - g.values[-1]
    dl = _weyl_left_core(f.values, n, alpha, at_midpoints=True)
    dr = _weyl_left_core(g_shift[::-1], n, 1.0 - alpha, at_midpoints=True)[::-1]

    tau = (np.arange(n) + 0.5) / n
    outer_moments = _cell_moments(n, 1.0 - alpha)[1:]
    regularized = tau[:, None] ** alpha * dl * dr
    return float(-np.sum(regularized.sum(axis=1) * outer_moments))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HolderReport:
    """Sup, Holder, and W^{alpha,infty} norms of a grid path."""

    sup_norm: float
    holder_norm: float
    holder_exponent: float
    w_alpha_norm: float
    alpha: float


# the exact O(n^2) Holder scan strides its base index above this many steps
_HOLDER_SCAN_LIMIT = 4096


def norms(f: GridFn, lam: float, alpha: float) -> HolderReport:
    """Path norms: sup over nodes, exact pairwise Holder scan at exponent
    ``lam``, and the W^{alpha,infty} norm with the product-midpoint rule.

    The Holder scan is O(n^2); above ``_HOLDER_SCAN_LIMIT`` steps it strides
    the base index (the lag axis stays exact) to bound the cost.
    """
    if not 0.0 < lam < 1.0:
        raise DomainError(f"lambda must lie in (0, 1), got {lam}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    n = f.n_steps
    vals = f.values
    sup_norm = float(np.linalg.norm(vals, axis=1).max())

    stride = max(1, math.ceil(n / _HOLDER_SCAN_LIMIT))
    dt = 1.0 / n
    holder = 0.0
    base = vals[::stride]
    base_idx = np.arange(0, n + 1, stride)
    for ell in range(1, n + 1):
        hi = base_idx + ell
        keep = hi <= n
        if not keep.any():
            break
        diff = np.linalg.norm(vals[hi[keep]] - base[keep], axis=1)
        holder = max(holder, float(diff.max()) / (ell * dt) ** lam)

    # W^{alpha,infty}: sup_t |f(t)| + int_0^t |f(t)-f(s)| (t-s)^(-alpha-1) ds
    f_mid = 0.5 * (vals[:-1] + vals[1:])
    coeff = _quotient_weights(n, alpha, 0.0)
    w_best = float(np.linalg.norm(vals[0]))
    acc = np.zeros(n)                                    # integral at t_k, k=1..n
    for ell in range(1, n + 1):
        diff = np.linalg.norm(vals[ell:] - f_mid[: n + 1 - ell], axis=1)
        acc[ell - 1 :] += coeff[ell] * diff
    w_all = np.linalg.norm(vals[1:], axis=1) + acc
    w_best = max(w_best, float(w_all.max()))
    return HolderReport(
        sup_norm=sup_norm,
        holder_norm=holder,
        holder_exponent=lam,
        w_alpha_norm=w_best,
        alpha=alpha,
    )
