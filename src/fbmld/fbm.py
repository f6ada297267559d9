"""Fractional Brownian motion: covariance, Volterra kernel, exact samplers.

Two samplers validate each other: the Cholesky sampler draws from the exact
law through the Schur factor of the increments' Toeplitz covariance (O(n^2)
setup), while the Volterra synthesis
``B^H(t_k) = sum_j k_H(t_k, s_j) dB_j`` is O(n^2), carries a small midpoint
quadrature bias, and exposes the driving Brownian increments that Girsanov
reweighting needs.  Components are sampled independently (the covariance is
diagonal across components) and d <= 4 is enforced.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import blas, rng
from .errors import DomainError, NumericError
from .fracops import _f21_series
from .gridfn import GridFn, write_csv

__all__ = [
    "FbmBatch",
    "volterra_c",
    "covariance",
    "kernel_k",
    "kernel_table",
    "covariance_quadrature",
    "volterra_variance_bias",
    "sample_cholesky",
    "sample_volterra",
    "export_paths_csv",
    "export_increments",
    "load_increments",
]

FORMAT_VERSION = 1

MAX_DIM = 4                  # fBm components are sampled independently; d <= 4
MAX_CHOLESKY_STEPS = 4096    # memory budget: the factor is n x n doubles


# ---------------------------------------------------------------------------
# covariance and kernel
# ---------------------------------------------------------------------------

def _check_hurst(hurst: float):
    if not 0.0 < hurst < 1.0:
        raise DomainError(f"hurst must lie in (0, 1), got {hurst}")


def _check_grid(n_steps: int, hurst: float, dim: int = 1,
                n_paths: int = 1) -> None:
    """The one precondition of both samplers and of the kernel tables."""
    _check_hurst(hurst)
    if n_steps < 1:
        raise DomainError(f"n_steps must be >= 1, got {n_steps}")
    if not 1 <= dim <= MAX_DIM:
        raise DomainError(f"dim must be in 1..{MAX_DIM}, got {dim}")
    if n_paths < 1:
        raise DomainError(f"n_paths must be >= 1, got {n_paths}")


def volterra_c(hurst: float) -> float:
    """Normalising constant c_H of the Volterra kernel."""
    _check_hurst(hurst)
    return math.sqrt(
        2.0 * hurst * math.gamma(1.5 - hurst) * math.gamma(hurst + 0.5)
        / math.gamma(2.0 - 2.0 * hurst)
    )


def covariance(s, t, hurst: float):
    """fBm covariance (1/2)(s^2H + t^2H - |t-s|^2H) per component."""
    _check_hurst(hurst)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s < 0) or np.any(s > 1) or np.any(t < 0) or np.any(t > 1):
        raise DomainError("covariance arguments must lie in [0, 1]")
    h2 = 2.0 * hurst
    out = 0.5 * (s ** h2 + t ** h2 - np.abs(t - s) ** h2)
    return float(out) if out.ndim == 0 else out


def kernel_k(t: float, s: float, hurst: float) -> float:
    """Volterra kernel k_H(t, s) relating fBm to its driving BM.

    ``k_H(t,s) = c_H / Gamma(H+1/2) * (t-s)^(H-1/2)
    * F(H-1/2, 1/2-H, H+1/2; 1 - t/s)`` for 0 < s <= t, and 0 for s > t
    (the indicator of the full kernel).  Evaluated by the same function as
    :func:`kernel_table`, machine-accurate for every 0 < s <= t.
    """
    _check_hurst(hurst)
    if s <= 0.0:
        raise DomainError(f"kernel is singular at s <= 0, got s={s}")
    if t > 1.0 or s > 1.0:
        raise DomainError("kernel arguments must lie in (0, 1]")
    if s > t:
        return 0.0
    return float(_kernel_values(t, np.array([s]), hurst)[0])


# -- kernel evaluation ------------------------------------------------------
#
# With rho = s/t in (0, 1], the Pfaff transform turns the kernel's 2F1 into
# G(x) = F(H-1/2, 2H, H+1/2; x) at x = 1 - rho.  The direct series converges
# geometrically for x <= 1/2; for x > 1/2 (s << t, where the series needs
# O(t/s) terms) the z -> 1-z connection formula reduces G to a closed-form
# power plus one series in rho <= 1/2.  Both branches are machine-accurate.

def _kernel_hyp_factor(hurst: float, rho: np.ndarray,
                       scaled: bool = False) -> np.ndarray:
    """G(1 - rho); the kernel's full hypergeometric factor is rho^(H-1/2)
    times it.  With ``scaled``, rho^(2H-1) G(1 - rho): the far branch's
    power of rho then cancels, so the value stays finite as rho -> 0."""
    h = hurst
    a, b, c = h - 0.5, 2.0 * h, h + 0.5
    x = 1.0 - rho
    out = np.empty_like(rho)
    near = x <= 0.5
    if near.any():
        out[near] = _f21_series(a, b, c, x[near])
        if scaled:
            out[near] *= rho[near] ** (2.0 * h - 1.0)
    far = ~near
    if far.any():
        r = rho[far]
        c1 = math.gamma(c) * math.gamma(1.0 - 2.0 * h) / math.gamma(0.5 - h)
        c2 = (math.gamma(c) * math.gamma(2.0 * h - 1.0)
              / (math.gamma(h - 0.5) * math.gamma(2.0 * h)))
        tail = _f21_series(1.0, 0.5 - h, 2.0 - 2.0 * h, r)
        if scaled:
            out[far] = c1 * x[far] ** (0.5 - h) * r ** (2.0 * h - 1.0) \
                + c2 * tail
        else:
            out[far] = c1 * x[far] ** (0.5 - h) \
                + c2 * r ** (1.0 - 2.0 * h) * tail
    return out


def _kernel_values(t, s: np.ndarray, hurst: float) -> np.ndarray:
    """k_H(t, s) elementwise for 0 < s <= t <= 1.

    ``t`` is a scalar or an array of the shape of ``s``.  This is the one
    evaluator of k_H: the scalar kernel, its rows and the table all call it.
    """
    if hurst == 0.5:
        return np.ones_like(s)
    pref = volterra_c(hurst) / math.gamma(hurst + 0.5)
    rho = s / t
    with np.errstate(divide="ignore"):
        return pref * (t - s) ** (hurst - 0.5) \
            * (rho ** (hurst - 0.5) * _kernel_hyp_factor(hurst, rho))


def _kernel_row(t: float, s: np.ndarray, hurst: float) -> np.ndarray:
    """k_H(t, s_j) for an array of s values in (0, 1]; 0 where s > t."""
    out = np.zeros_like(s)
    mask = s <= t
    out[mask] = _kernel_values(t, s[mask], hurst)
    return out


# Rows of kernel_table filled per evaluator call, so a build's temporaries grow
# like 64 n rather than like the n^2 / 2 entries of the whole triangle.
_TABLE_BLOCK_ROWS = 64


def _build_kernel_table(n_steps: int, hurst: float) -> np.ndarray:
    """The (n+1, n) table of :func:`kernel_table`, built afresh."""
    _check_grid(n_steps, hurst)
    n = n_steps
    table = np.zeros((n + 1, n))
    for lo in range(1, n + 1, _TABLE_BLOCK_ROWS):
        hi = min(lo + _TABLE_BLOCK_ROWS, n + 1)
        # rows lo..hi-1, cells with s_j < t_k, i.e. j <= k - 1
        r, c = np.tril_indices(hi - lo, lo - 1, hi - 1)
        table[lo + r, c] = _kernel_values((lo + r) / n, (c + 0.5) / n, hurst)
    return table


@functools.lru_cache(maxsize=16)
def kernel_table(n_steps: int, hurst: float) -> np.ndarray:
    """Kernel matrix K[k, j] = k_H(t_k, s_j) on the shared midpoint grid.

    Rows index nodes t_k = k/n, columns index cell midpoints
    s_j = (j + 1/2)/n; entries with s_j > t_k are zero.  Cached per
    (n_steps, hurst); the returned array is read-only.
    """
    table = _build_kernel_table(n_steps, hurst)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=16)
def _increment_table(n_steps: int, hurst: float) -> np.ndarray:
    """The kernel table's row differences D[k] = K[k+1] - K[k], (n, n).

    ``D @ dB`` gives the fBm increments directly.  D is lower triangular,
    cached per (n_steps, hurst) and read-only; it is built without
    :func:`kernel_table`'s cache, so a run that forms only increments
    holds one n x n table.
    """
    table = np.diff(_build_kernel_table(n_steps, hurst), axis=0)
    table.setflags(write=False)
    return table


def covariance_quadrature(s: float, t: float, hurst: float, n_steps: int) -> float:
    """Quadrature of ``int_0^1 K_H(t,u) K_H(s,u) du`` on n midpoint cells.

    The integrand blows up like u^(-|2H-1|) at the origin (and, for
    H < 1/2, at the upper endpoint min(s, t) as well), so uniform midpoint
    sampling in u cannot meet tight tolerances.  Substituting u = w^p with
    p = 1/(1 - |2H-1|) flattens the singularity; midpoint cells in w then
    resolve the integral to ~1e-5 at 512 nodes.  The result reproduces the
    covariance R_H(s, t), within 1e-3 at 256 nodes for H in (0, 0.9999].
    It needs one node, and for H < 1/2 two: one in each half.
    """
    _check_hurst(hurst)
    if n_steps < (2 if hurst < 0.5 else 1):
        raise DomainError(f"covariance_quadrature cannot use {n_steps} nodes "
                          f"at hurst={hurst}")
    m = min(s, t)
    if m <= 0.0:
        return 0.0
    if hurst == 0.5:
        return m
    a = hurst - 0.5
    c = volterra_c(hurst) / math.gamma(hurst + 0.5)
    if hurst > 0.5:
        # k_H(r, u) = c (r - u)^a rho^(-a) [rho^(2a) G(1 - rho)], rho = u / r,
        # the bracket finite as u -> 0.  With u = w^p, p = 1/(2 - 2H), the
        # two rho^(-a) cancel the Jacobian p w^(p-1); near H = 1, w^p
        # underflows and w^(p-1) with it, so each node's powers and
        # Jacobian are summed as logarithms, as below
        p = 1.0 / (2.0 - 2.0 * hurst)
        wmax = m ** (1.0 / p)
        w = (np.arange(n_steps) + 0.5) * (wmax / n_steps)
        log_u = p * np.log(w)
        u = np.exp(log_u)
        log_f = math.log(p) + (p - 1.0) * np.log(w)
        g = c * c
        for r in (s, t):
            log_rho = log_u - math.log(r)
            log_f += a * (np.log(r - u) - log_rho)
            g = g * _kernel_hyp_factor(hurst, np.exp(log_rho), scaled=True)
        return float(np.sum(g * np.exp(log_f))) * (wmax / n_steps)
    # H < 1/2: k_H(r, u) = c (r - u)^a (u / r)^a G(1 - u / r), a = H - 1/2,
    # blows up as u -> 0 and, where r = m, as u -> m.  Each half of [0, m]
    # puts its singular end at distance w^p from u, p = 1/(2H).  At small H
    # w^p underflows and the powers overflow, so each node's powers and
    # Jacobian are summed as logarithms, where log w^p = p log w is exact.
    p = 0.5 / hurst
    wmax = (0.5 * m) ** (1.0 / p)
    total = 0.0
    for n, mirrored in ((n_steps // 2, False), (n_steps - n_steps // 2, True)):
        w = (np.arange(n) + 0.5) * (wmax / n)
        log_end = p * np.log(w)
        u = m - np.exp(log_end) if mirrored else np.exp(log_end)
        log_f = math.log(p) + (p - 1.0) * np.log(w)
        g = c * c
        for r in (s, t):
            log_lag = log_end if mirrored and r == m else np.log(r - u)
            log_rho = np.log(u / r) if mirrored else log_end - math.log(r)
            log_f += a * (log_lag + log_rho)
            g = g * _kernel_hyp_factor(hurst, u / r)
        total += float(np.sum(g * np.exp(log_f))) * (wmax / n)
    return total


def volterra_variance_bias(n_steps: int, hurst: float) -> float:
    """Deterministic Var[B^H_1] shortfall of the Volterra midpoint synthesis.

    The sampler's terminal variance is the plain midpoint sum of k(1,.)^2;
    comparing it with the refined quadrature of the same integral isolates
    the quadrature bias from Monte Carlo noise.
    """
    k_row = kernel_table(n_steps, hurst)[n_steps]
    refined = covariance_quadrature(1.0, 1.0, hurst, max(2 * n_steps, 1024))
    return abs(float(np.sum(k_row ** 2) / n_steps) - refined)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FbmBatch:
    """Sampled fBm paths plus the noise that generated them.

    ``values`` stacks the paths as (n_paths, n_steps + 1, dim); every path
    starts at zero.  ``bm_increments`` has shape (n_paths, n_steps, dim): for
    the Volterra sampler these are the genuine Brownian increments (standard
    normals scaled by sqrt(1/n)) that drive the kernel synthesis, and the
    Girsanov machinery consumes them; for the Cholesky sampler they hold the
    i.i.d. normal draws (same scaling) as a seed-reproducibility surrogate.
    A Volterra batch synthesises ``values`` from ``bm_increments`` on their
    first read and keeps them, so a caller that reads only the increments
    never pays for the kernel product; ``n_paths`` reads ``bm_increments``.
    Equality is identity.
    """

    hurst: float
    n_steps: int
    dim: int
    bm_increments: np.ndarray
    seed: int
    sampler: str

    @functools.cached_property
    def values(self) -> np.ndarray:
        return _synthesise(kernel_table(self.n_steps, self.hurst),
                           self.bm_increments)

    @property
    def n_paths(self) -> int:
        return self.bm_increments.shape[0]

    def path(self, i: int) -> GridFn:
        return GridFn(self.n_steps, self.values[i])


@dataclass(frozen=True, eq=False)
class _CholeskyBatch(FbmBatch):
    """A Cholesky batch: its values come from the covariance factor, not
    from ``bm_increments``, so they are a field, which shadows the Volterra
    synthesis."""

    values: np.ndarray = field()


def _synthesise(table: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """``sum_j table[k, j] noise[p, j, i]`` as one 2-D GEMM, shape (P, rows, d).

    The noise is laid out as (P*d, n) rows, so the reshapes copy nothing
    when d = 1.  The GEMM runs on one BLAS thread, so its bits and its
    cost do not depend on the core count or on whether other cores are free.
    """
    n_paths, n_steps, dim = noise.shape
    flat = noise.transpose(0, 2, 1).reshape(n_paths * dim, n_steps)
    with blas.one_thread():
        out = flat @ table.T
    return out.reshape(n_paths, dim, -1).transpose(0, 2, 1)


def _fgn_autocovariance(n_steps: int, hurst: float) -> np.ndarray:
    """gamma(k) = Cov(B_{t_1} - B_{t_0}, B_{t_(k+1)} - B_{t_k}), k < n.

    ``gamma(k) = 1/2 n^(-2H) ((k+1)^2H - 2 k^2H + |k-1|^2H)``.  For k >= 1
    the bracket is formed as ``k^2H (expm1(2H log1p(1/k)) +
    expm1(2H log1p(-1/k)))``, which keeps the relative error near 1e-12
    where the plain sum of powers cancels to 1e-9.
    """
    h2 = 2.0 * hurst
    k = np.arange(1, n_steps, dtype=float)
    with np.errstate(divide="ignore"):          # log1p(-1) = -inf at k = 1
        bracket = k ** h2 * (np.expm1(h2 * np.log1p(1.0 / k))
                             + np.expm1(h2 * np.log1p(-1.0 / k)))
    return np.concatenate(([2.0], bracket)) * (0.5 * float(n_steps) ** -h2)


def _schur_factor(gamma: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor U (U^T U = T) of the Toeplitz matrix T with
    first row ``gamma``, by the Schur algorithm in O(n^2).

    Row k of U is the first row of T's two-row generator after k hyperbolic
    rotations, each one numpy vector step, in the mixed form that is stable
    for positive definite T (Bojanczyk, Brent, de Hoog & Sweet, 1995).  A
    reflection coefficient with |rho| >= 1 means T is not positive definite
    and raises :class:`NumericError`.
    """
    n = len(gamma)
    upper = np.zeros((n, n))
    upper[0] = gamma / math.sqrt(gamma[0])
    # the generator's second row; entry k is rotated to zero at step k
    lower = upper[0].copy()
    for k in range(1, n):
        rho = lower[k] / upper[k - 1, k - 1]
        if not abs(rho) < 1.0:
            raise NumericError(f"Toeplitz matrix is not positive definite: "
                               f"reflection coefficient {rho} at step {k}")
        shrink = math.sqrt((1.0 - rho) * (1.0 + rho))
        row, tail = upper[k, k:], lower[k:]
        # the previous row shifted one column right, rotated against the tail
        np.subtract(upper[k - 1, k - 1:n - 1], rho * tail, out=row)
        row /= shrink
        tail *= shrink
        tail -= rho * row
    return upper


def sample_cholesky(n_steps: int, hurst: float, dim: int, n_paths: int,
                    seed: int) -> FbmBatch:
    """Exact-law fBm sampling from the Cholesky factor of the covariance.

    The increments on the uniform grid are stationary, so their covariance
    is the Toeplitz matrix of :func:`_fgn_autocovariance`, whose factor
    ``L_G = U^T`` comes from :func:`_schur_factor` in O(n^2).  Each path
    and component takes its increments as ``L_G xi`` from the counter-based
    normals of :func:`rng.normal_block` and sums them over time.  The
    partial-sum matrix is lower triangular, so ``cumsum(L_G)`` is the
    Cholesky factor of R_H on t_1..t_n: the paths are ``L xi``.  No step
    depends on the core count.
    """
    _check_grid(n_steps, hurst, dim, n_paths)
    if n_steps > MAX_CHOLESKY_STEPS:
        raise DomainError(
            f"n_steps={n_steps} exceeds the Cholesky budget {MAX_CHOLESKY_STEPS}"
        )
    upper = _schur_factor(_fgn_autocovariance(n_steps, hurst))
    xi = rng.normal_block(seed, 0, n_paths, (n_steps, dim))
    increments = _synthesise(upper.T, xi)
    del upper
    # a zero first row gives every path its exact zero start
    values = np.zeros((n_paths, n_steps + 1, dim))
    np.cumsum(increments, axis=1, out=values[:, 1:])
    xi /= math.sqrt(n_steps)
    return _CholeskyBatch(hurst=hurst, n_steps=n_steps, dim=dim,
                          bm_increments=xi, seed=seed, sampler="cholesky",
                          values=values)


def sample_volterra(n_steps: int, hurst: float, dim: int, n_paths: int,
                    seed: int, first_index: int = 0) -> FbmBatch:
    """fBm synthesis from Brownian increments through the Volterra kernel.

    ``B^H(t_k) = sum_{j<k} k_H(t_k, s_j) dB_j`` with s_j the cell midpoints;
    the increments dB_j are retained exactly (Girsanov weights need them).
    Terminal variance carries the deterministic midpoint bias reported by
    :func:`volterra_variance_bias`.

    Path ``i`` of the batch draws the normals of path ``first_index + i``
    (:func:`rng.normal_block`), so the batch for ``first_index=lo`` holds
    rows ``lo .. lo+n_paths-1`` of any larger batch with the same seed: its
    increments bitwise, its values up to the rounding of the matrix product.
    """
    _check_grid(n_steps, hurst, dim, n_paths)
    increments = rng.normal_block(seed, first_index, n_paths, (n_steps, dim))
    increments /= math.sqrt(n_steps)
    return FbmBatch(hurst=hurst, n_steps=n_steps, dim=dim,
                    bm_increments=increments, seed=seed, sampler="volterra")


# ---------------------------------------------------------------------------
# batch export
# ---------------------------------------------------------------------------

def export_paths_csv(batch: FbmBatch, fh) -> None:
    """One row per node; columns are t then path{p}_c{i} in path-major order.

    The two leading comment lines carry the format version and the batch
    metadata needed to regenerate the file.
    """
    cols = ["t"] + [
        f"path{p}_c{i}" for p in range(batch.n_paths) for i in range(batch.dim)
    ]
    t = np.arange(batch.n_steps + 1) / batch.n_steps
    flat = batch.values.transpose(1, 0, 2).reshape(batch.n_steps + 1, -1)
    write_csv(fh, np.column_stack([t, flat]), cols, comments=(
        f"fbmld-paths v{FORMAT_VERSION}",
        f"sampler={batch.sampler} hurst={batch.hurst!r} n_steps={batch.n_steps} "
        f"dim={batch.dim} n_paths={batch.n_paths} seed={batch.seed}"))


def export_increments(batch: FbmBatch, path: str) -> None:
    """Binary of the driving increments: an uncompressed npz with a metadata
    record.  Compression would save about 4% on Gaussian doubles at twenty
    times the write time."""
    meta = json.dumps({
        "format": "fbmld-increments",
        "version": FORMAT_VERSION,
        "sampler": batch.sampler,
        "hurst": batch.hurst,
        "n_steps": batch.n_steps,
        "dim": batch.dim,
        "n_paths": batch.n_paths,
        "seed": batch.seed,
    }, sort_keys=True)
    np.savez(path, meta=np.frombuffer(meta.encode(), dtype=np.uint8),
                        increments=batch.bm_increments)


def load_increments(path: str) -> tuple[dict, np.ndarray]:
    """(metadata, increments) of an :func:`export_increments` file; the
    increments' shape must be the (n_paths, n_steps, dim) it records."""
    with np.load(path) as data:
        if "meta" not in data or "increments" not in data:
            raise DomainError(f"increments file {path} lacks a record")
        meta = json.loads(bytes(data["meta"]).decode())
        if meta.get("format") != "fbmld-increments" or meta.get("version") != FORMAT_VERSION:
            raise DomainError(f"unrecognised increments file {path}")
        inc = data["increments"]
    shape = tuple(meta.get(key) for key in ("n_paths", "n_steps", "dim"))
    if inc.shape != shape:
        raise DomainError(f"increments of shape {inc.shape} in {path}, "
                          f"whose metadata gives {shape}")
    return meta, inc
