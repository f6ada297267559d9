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
from .fbm import _synthesise, kernel_table, volterra_c
from .fracops import _cell_moments, _convolve_lags, _weyl_left_core
from .gridfn import GridFn

__all__ = [
    "CmControl",
    "control_from_cells",
    "control_from_callable",
    "zero_control",
    "apply_kh",
    "cm_norm",
    "project",
    "materialize_from_derivative",
    "inverse_kh",
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
        if not 0.0 < self.hurst < 1.0:
            raise DomainError(f"hurst must lie in (0, 1), got {self.hurst}")

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

        Its increments are the control's dv wherever a solver consumes one:
        the skeleton, the rate searches and the importance-sampling tilt.
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

def apply_kh(density: GridFn, hurst: float, method: str = "kernel") -> GridFn:
    """Materialize v = K_H v' on the nodes from a cell-layout density.

    ``method="kernel"`` does the direct quadrature
    ``v(t_k) = sum_j k_H(t_k, s_j) v'(s_j) ds`` (any H) as the sampler's
    product on the same cached :func:`fbmld.fbm.kernel_table`, so a tilt by
    v is exactly a shift of the sampled Brownian increments by v' ds.
    ``method="composition"`` uses the H > 1/2 factorisation
    c_H I^1(psi I^(H-1/2)(psi^(-1) v')) with psi(u) = u^(H-1/2), the inner
    fractional integral by a midpoint product rule and the outer one by
    trapezoid; it is an independent cross-check of the kernel route and
    nothing else uses it.
    """
    n = density.n_steps
    cells = density.values[:-1]
    if method == "kernel":
        return GridFn(n, _synthesise(kernel_table(n, hurst), cells[None] / n)[0])
    if method == "composition":
        if hurst <= 0.5:
            raise DomainError("composition route requires hurst > 1/2")
        return _cumtrapz(_derivative_nodes(cells, n, hurst), n)
    raise DomainError(f"unknown method {method!r}")


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


def inverse_kh(path: GridFn, hurst: float) -> np.ndarray:
    """Recover density cells from a path: validation round-trip only.

    Implements ``g(t) = c_H^(-1) t^(H-1/2) D^(H-1/2)_{0+}(psi^(-1) h')(t)``
    for H > 1/2 with h' taken as the path's cell slopes.  Accuracy is
    limited by the numerical differentiation; the main workflows never
    invert K_H.
    """
    if hurst <= 0.5:
        raise DomainError("inverse_kh requires hurst > 1/2")
    n = path.n_steps
    order = hurst - 0.5
    slopes = np.diff(path.values, axis=0) * n        # h' at cell midpoints
    t_nodes = np.arange(1, n + 1) / n
    # psi^(-1) h' at the nodes, by averaging adjacent cell values
    interior = 0.5 * (slopes[:-1] + slopes[1:])
    node_vals = np.vstack([interior, slopes[-1:]]) * t_nodes[:, None] ** (-order)
    node_vals = np.vstack([node_vals[:1], node_vals])   # t=0 continuation
    deriv = _weyl_left_core(node_vals, n, order, at_midpoints=True)
    s = (np.arange(n) + 0.5) / n
    return s[:, None] ** order * deriv / volterra_c(hurst)


# ---------------------------------------------------------------------------
# CSV interface
# ---------------------------------------------------------------------------

def export_control_csv(ctrl: CmControl, fh) -> None:
    """Rows (s_mid, v' components); header records hurst and n_steps."""
    fh.write(f"# fbmld-control v{CSV_VERSION}\n")
    fh.write(f"# hurst={ctrl.hurst!r} n_steps={ctrl.n_steps} dim={ctrl.dim}\n")
    fh.write(",".join(["s_mid"] + [f"vdot_c{i}" for i in range(ctrl.dim)]) + "\n")
    mids = (np.arange(ctrl.n_steps) + 0.5) / ctrl.n_steps
    for j, row in enumerate(ctrl.cell_values()):
        fh.write(",".join([f"{mids[j]:.17g}"] + [f"{v:.17g}" for v in row]) + "\n")


def import_control_csv(fh) -> CmControl:
    header = fh.readline().strip()
    if not header.startswith("# fbmld-control"):
        raise DomainError("not a fbmld control file")
    meta = fh.readline().strip().lstrip("# ").split()
    fields = dict(item.split("=") for item in meta)
    hurst = float(fields["hurst"])
    n_steps = int(fields["n_steps"])
    fh.readline()                                    # column header
    rows = [list(map(float, line.split(","))) for line in fh if line.strip()]
    cells = np.asarray(rows)[:, 1:]
    if cells.shape[0] != n_steps:
        raise DimensionError(
            f"control file announces n_steps={n_steps} but has {cells.shape[0]} rows"
        )
    return control_from_cells(hurst, cells)
