"""Vector-valued functions sampled on the uniform grid of [0, 1].

``GridFn`` is the universal path representation: node ``k`` of ``n_steps + 1``
sits at ``t_k = k / n_steps``.  Values are immutable after construction and
all operations that consume a ``GridFn`` are pure, so instances can be shared
freely across parallel workers.  Equality is identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError


@dataclass(frozen=True, eq=False)
class GridFn:
    """Samples of an R^dim-valued function at the nodes k/n_steps.

    ``values`` has shape ``(n_steps + 1, dim)`` and must be finite.
    """

    n_steps: int
    values: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        if self.n_steps < 1:
            raise DomainError(f"n_steps must be >= 1, got {self.n_steps}")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2 or vals.shape[0] != self.n_steps + 1:
            raise DimensionError(
                f"values must have shape ({self.n_steps + 1}, dim), got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise DomainError("GridFn values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "dim", vals.shape[1])

    # -- grid geometry -----------------------------------------------------

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) / self.n_steps

    def midpoint_values(self) -> np.ndarray:
        """Linear interpolation of the node samples at cell midpoints."""
        return 0.5 * (self.values[:-1] + self.values[1:])

    def increments(self) -> np.ndarray:
        return np.diff(self.values, axis=0)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zeros(n_steps: int, dim: int = 1) -> GridFn:
        return GridFn(n_steps, np.zeros((n_steps + 1, dim)))

    @staticmethod
    def from_callable(fn, n_steps: int) -> GridFn:
        """Sample ``fn`` at the nodes; fn maps a time array to values."""
        t = np.arange(n_steps + 1) / n_steps
        vals = np.asarray(fn(t), dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        return GridFn(n_steps, vals)


def write_csv(fh, table, columns, comments=()) -> None:
    """``# `` comment lines, the column header, then one row per line.

    Every value is written with 17 significant digits, so ``float()`` reads
    back each float64 bit for bit.
    """
    for line in comments:
        fh.write(f"# {line}\n")
    np.savetxt(fh, np.asarray(table, dtype=float), fmt="%.17g", delimiter=",",
               header=",".join(columns), comments="")
