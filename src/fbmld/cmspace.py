"""Cameron-Martin controls: L^2 densities, the kernel map, norms, projections.

A control is stored by its density, never by its path, so the Cameron-Martin
norm is exactly the discrete L^2 norm and no kernel inversion enters the main
workflows.  Densities live on the shared midpoint abscissae: ``cells[j]`` is
the canonical representative v'(s_j) at the midpoint of cell j
(j = 0..n-1).  This makes ``int k v' ds`` and the sampler's ``int k dB``
share identical abscissae, and makes projections exact cell masks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .fbm import _check_hurst, _synthesise, kernel_table, volterra_c
from .fracops import _cell_moments, _convolve_lags
from .gridfn import GridFn, write_csv

__all__ = [
    "CmControl",
    "control_from_callable",
    "zero_control",
    "cm_norm",
    "project",
    "materialize_from_derivative",
    "export_control_csv",
    "import_control_csv",
]

CSV_VERSION = 1
_MIDPOINT_TOL = 1e-12        # largest |s_mid - (j + 1/2)/n| a file row may hold


@dataclass(frozen=True, eq=False)
class CmControl:
    """A Cameron-Martin element h = K_H v' stored by its L^2 density v'.

    ``cells`` (n_steps, dim) holds v' at the cell midpoints (see module
    docstring); a 1-D array is one column.  They are copied, finite and
    read-only.  The materialized path is computed lazily and cached.
    Equality is identity.
    """

    hurst: float
    cells: np.ndarray

    def __post_init__(self):
        _check_hurst(self.hurst)
        cells = np.array(self.cells, dtype=float)
        if cells.ndim == 1:
            cells = cells[:, None]
        if cells.ndim != 2 or not cells.shape[1]:
            raise DimensionError(f"cells must have shape (n_steps, dim >= 1), "
                                 f"got {cells.shape}")
        if len(cells) < 1:
            raise DomainError(f"n_steps must be >= 1, got {len(cells)}")
        if not np.all(np.isfinite(cells)):
            raise DomainError("control cells must be finite")
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)

    @property
    def n_steps(self) -> int:
        return self.cells.shape[0]

    @property
    def dim(self) -> int:
        return self.cells.shape[1]

    @functools.cached_property
    def path(self) -> GridFn:
        """Materialized path v = K_H v' on the nodes, cached.

        The direct quadrature ``v(t_k) = sum_j k_H(t_k, s_j) v'(s_j) ds``
        (any H), as the Volterra sampler's product on the same cached
        :func:`fbmld.fbm.kernel_table`, so a tilt by v is exactly a shift of
        the sampled Brownian increments by v' ds.  Its increments are the
        control's dv in the skeleton; the rate searches and the Monte Carlo
        form dv from the table's row differences, equal up to rounding.
        """
        n = self.n_steps
        return GridFn(n, _synthesise(kernel_table(n, self.hurst),
                                     self.cells[None] / n)[0])


def control_from_callable(fn, n_steps: int, hurst: float) -> CmControl:
    """Control whose density samples ``fn`` at the midpoints (j+1/2)/n."""
    return CmControl(hurst, fn(_midpoints(n_steps)))


def zero_control(hurst: float, n_steps: int, dim: int = 1) -> CmControl:
    return CmControl(hurst, np.zeros((n_steps, dim)))


def _midpoints(n_steps: int) -> np.ndarray:
    return (np.arange(n_steps) + 0.5) / n_steps


# ---------------------------------------------------------------------------
# the operator K_H and its cousins
# ---------------------------------------------------------------------------

def _apply_kh_composition(cells: np.ndarray, hurst: float) -> GridFn:
    """K_H v' by the H > 1/2 factorisation, the tests' oracle for
    ``CmControl.path``; ``cells`` is (n, d).

    c_H I^1(psi I^(H-1/2)(psi^(-1) v')) with psi(u) = u^(H-1/2), the inner
    fractional integral by a midpoint product rule and the outer one by
    trapezoid.
    """
    if hurst <= 0.5:
        raise DomainError("composition route requires hurst > 1/2")
    n = len(cells)
    return _cumtrapz(_derivative_nodes(cells, n, hurst), n)


def cm_norm(ctrl: CmControl) -> float:
    """Cameron-Martin norm = discrete L^2 norm of the density."""
    return math.sqrt(float(np.sum(ctrl.cells ** 2)) / ctrl.n_steps)


def project(ctrl: CmControl, t: float) -> CmControl:
    """Orthogonal projection pi_t: density multiplied by the [0, t] indicator.

    Cells are kept when their midpoint lies in [0, t]; projections are
    idempotent, monotone under composition, and never increase the norm.
    """
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"projection time must lie in [0, 1], got {t}")
    cells = ctrl.cells.copy()
    cells[_midpoints(ctrl.n_steps) > t] = 0.0
    return CmControl(ctrl.hurst, cells)


def _derivative_nodes(cells: np.ndarray, n: int, hurst: float) -> np.ndarray:
    """h'(t_k) for h = K_H v', H > 1/2, from cell-layout density samples.

    ``h'(t) = c_H t^(H-1/2) / Gamma(H-1/2) * int_0^t (t-s)^(H-3/2) s^(1/2-H)
    v'(s) ds``; the regular factor s^(1/2-H) v'(s) is frozen at the cell
    midpoints against exact cell moments of (t-s)^(H-3/2).
    """
    order = hurst - 0.5
    weighted = _midpoints(n)[:, None] ** (-order) * cells
    out = _convolve_lags(_cell_moments(n, order), weighted)
    t = np.arange(n + 1) / n
    pref = volterra_c(hurst) / math.gamma(order)
    return pref * t[:, None] ** order * out


def _cumtrapz(node_vals: np.ndarray, n: int) -> GridFn:
    inc = 0.5 * (node_vals[:-1] + node_vals[1:]) / n
    vals = np.vstack([np.zeros((1, node_vals.shape[1])), np.cumsum(inc, axis=0)])
    return GridFn(n, vals)


def materialize_from_derivative(ctrl: CmControl) -> GridFn:
    """The control path the solvers consume; the same as ``ctrl.path``."""
    return ctrl.path


# ---------------------------------------------------------------------------
# CSV interface
# ---------------------------------------------------------------------------

def export_control_csv(ctrl: CmControl, fh) -> None:
    """Rows (s_mid, v' components); header records hurst and n_steps."""
    write_csv(fh, np.column_stack([_midpoints(ctrl.n_steps), ctrl.cells]),
              ["s_mid"] + [f"vdot_c{i}" for i in range(ctrl.dim)],
              comments=(f"fbmld-control v{CSV_VERSION}",
                        f"hurst={ctrl.hurst!r} n_steps={ctrl.n_steps} dim={ctrl.dim}"))


def import_control_csv(fh) -> CmControl:
    header = fh.readline().strip()
    if not header.startswith("# fbmld-control"):
        raise DomainError("not a fbmld control file")
    meta = fh.readline().strip().lstrip("# ").split()
    fields = dict(item.partition("=")[::2] for item in meta)
    try:
        hurst = float(fields["hurst"])
        n_steps, dim = int(fields["n_steps"]), int(fields["dim"])
    except (KeyError, ValueError):
        raise DomainError(f"control file header {' '.join(meta)!r} lacks a "
                          "valid hurst, n_steps or dim") from None
    fh.readline()                                    # column header
    rows = [line.strip().split(",") for line in fh if line.strip()]
    if len(rows) != n_steps:
        raise DimensionError(f"control file announces n_steps={n_steps} "
                             f"but has {len(rows)} rows")
    for i, row in enumerate(rows, 1):
        if len(row) != dim + 1:
            raise DimensionError(f"control file announces dim={dim} but row "
                                 f"{i} has {len(row) - 1} density columns")
    try:
        table = np.array([list(map(float, row)) for row in rows])
    except ValueError as exc:
        raise DomainError(f"control file holds a value that is not a "
                          f"number: {exc}") from None
    table = table.reshape(n_steps, dim + 1)
    off = np.flatnonzero(~(np.abs(table[:, 0] - _midpoints(n_steps))
                           <= _MIDPOINT_TOL))            # NaN is off too
    if off.size:
        j = int(off[0])
        raise DomainError(f"control file row {j + 1} has s_mid="
                          f"{float(table[j, 0])!r}, not its cell midpoint "
                          f"{(j + 0.5) / n_steps!r} on n_steps={n_steps}")
    return CmControl(hurst, table[:, 1:])
