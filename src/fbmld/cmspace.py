"""Cameron-Martin controls: L^2 densities, the kernel map, norms, projections.

A control is stored by its density, never by its path, so the Cameron-Martin
norm is exactly the discrete L^2 norm and no kernel inversion enters the main
workflows.  Densities live on the shared midpoint abscissae: the density
``GridFn`` is in *cell layout*, ``values[j]`` being the canonical
representative v'(s_j) at the midpoint of cell j (j = 0..n-1, ``values[n]``
is padding that no quadrature reads).  This makes ``int k v' ds`` and the
sampler's ``int k dB`` share identical abscissae, and makes projections exact
cell masks.
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
    "control_from_cells",
    "control_from_callable",
    "zero_control",
    "apply_kh",
    "cm_norm",
    "project",
    "materialize_from_derivative",
    "export_control_csv",
    "import_control_csv",
]

CSV_VERSION = 1


@dataclass(frozen=True)
class CmControl:
    """A Cameron-Martin element h = K_H v' stored by its L^2 density v'.

    ``density`` is in cell layout (see module docstring).  The materialized
    path is computed lazily through the kernel quadrature and cached;
    equality compares ``hurst`` and ``density`` only.
    """

    hurst: float
    density: GridFn

    def __post_init__(self):
        _check_hurst(self.hurst)

    @property
    def n_steps(self) -> int:
        return self.density.n_steps

    @property
    def dim(self) -> int:
        return self.density.dim

    def cell_values(self) -> np.ndarray:
        """Density samples v'(s_j) at the cell midpoints, shape (n, dim)."""
        return self.density.values[:-1]

    @functools.cached_property
    def path(self) -> GridFn:
        """Materialized path K_H v' (kernel quadrature route), cached.

        Its increments are the control's dv in the skeleton and, one block
        per column, in the rate searches' block map; the importance-sampling
        tilt adds the same dv as a shift of the Brownian increments.
        """
        return apply_kh(self.density, self.hurst)


def control_from_cells(hurst: float, cells: np.ndarray) -> CmControl:
    """Control from density samples at the cell midpoints, shape (n,) or (n, d)."""
    cells = np.asarray(cells, dtype=float)
    if cells.ndim == 1:
        cells = cells[:, None]
    padded = np.vstack([cells, cells[-1:]])
    return CmControl(hurst=hurst, density=GridFn(cells.shape[0], padded))


def control_from_callable(fn, n_steps: int, hurst: float) -> CmControl:
    """Control whose density samples ``fn`` at the midpoints (j+1/2)/n."""
    s = (np.arange(n_steps) + 0.5) / n_steps
    vals = np.asarray(fn(s), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    return control_from_cells(hurst, vals)


def zero_control(hurst: float, n_steps: int, dim: int = 1) -> CmControl:
    return control_from_cells(hurst, np.zeros((n_steps, dim)))


# ---------------------------------------------------------------------------
# the operator K_H and its cousins
# ---------------------------------------------------------------------------

def apply_kh(density: GridFn, hurst: float) -> GridFn:
    """Materialize v = K_H v' on the nodes from a cell-layout density.

    The direct quadrature ``v(t_k) = sum_j k_H(t_k, s_j) v'(s_j) ds`` (any
    H), as the sampler's product on the same cached
    :func:`fbmld.fbm.kernel_table`, so a tilt by v is exactly a shift of the
    sampled Brownian increments by v' ds.
    """
    n = density.n_steps
    cells = density.values[:-1]
    return GridFn(n, _synthesise(kernel_table(n, hurst), cells[None] / n)[0])


def _apply_kh_composition(density: GridFn, hurst: float) -> GridFn:
    """K_H v' by the H > 1/2 factorisation, the tests' oracle for apply_kh.

    c_H I^1(psi I^(H-1/2)(psi^(-1) v')) with psi(u) = u^(H-1/2), the inner
    fractional integral by a midpoint product rule and the outer one by
    trapezoid.
    """
    if hurst <= 0.5:
        raise DomainError("composition route requires hurst > 1/2")
    n = density.n_steps
    return _cumtrapz(_derivative_nodes(density.values[:-1], n, hurst), n)


def cm_norm(ctrl: CmControl) -> float:
    """Cameron-Martin norm = discrete L^2 norm of the density."""
    cells = ctrl.cell_values()
    return math.sqrt(float(np.sum(cells ** 2)) / ctrl.n_steps)


def project(ctrl: CmControl, t: float) -> CmControl:
    """Orthogonal projection pi_t: density multiplied by the [0, t] indicator.

    Cells are kept when their midpoint lies in [0, t]; projections are
    idempotent, monotone under composition, and never increase the norm.
    """
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"projection time must lie in [0, 1], got {t}")
    cells = ctrl.cell_values().copy()
    mids = (np.arange(ctrl.n_steps) + 0.5) / ctrl.n_steps
    cells[mids > t] = 0.0
    return control_from_cells(ctrl.hurst, cells)


def _derivative_nodes(cells: np.ndarray, n: int, hurst: float) -> np.ndarray:
    """h'(t_k) for h = K_H v', H > 1/2, from cell-layout density samples.

    ``h'(t) = c_H t^(H-1/2) / Gamma(H-1/2) * int_0^t (t-s)^(H-3/2) s^(1/2-H)
    v'(s) ds``; the regular factor s^(1/2-H) v'(s) is frozen at the cell
    midpoints against exact cell moments of (t-s)^(H-3/2).
    """
    order = hurst - 0.5
    s = (np.arange(n) + 0.5) / n
    weighted = s[:, None] ** (-order) * cells
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
    mids = (np.arange(ctrl.n_steps) + 0.5) / ctrl.n_steps
    write_csv(fh, np.column_stack([mids, ctrl.cell_values()]),
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
    rows = [list(map(float, line.split(","))) for line in fh if line.strip()]
    cells = np.asarray(rows)[:, 1:]
    if cells.shape[0] != n_steps:
        raise DimensionError(
            f"control file announces n_steps={n_steps} but has {cells.shape[0]} rows"
        )
    if cells.shape[1] != dim:
        raise DimensionError(
            f"control file announces dim={dim} but has {cells.shape[1]} density columns"
        )
    return control_from_cells(hurst, cells)
