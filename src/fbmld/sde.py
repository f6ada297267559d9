"""Pathwise Euler solver for Young-driven SDEs and the control skeleton.

The Euler step ``X_{k+1} = X_k + b(X_k) dt + sigma(X_k) (g_{k+1} - g_k)`` is
left-point.  Its noise sum differs from the midpoint-frozen Young engine
``fracops.young_rs(sigma(X), g)`` by half the discrete cross-variation
``sum_k (sigma(X_{k+1}) - sigma(X_k)) (g_{k+1} - g_k)``, which vanishes
like n^(1-2H) for H > 1/2.  Coefficients come from a registry of
built-in families with recorded Lipschitz constants, which keeps the
well-posedness constants truthful and testable; user-supplied callables are
deliberately not accepted.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from .cmspace import CmControl
from .errors import DimensionError, DomainError, NumericError
from .fracops import HolderReport, norms
from .gridfn import GridFn

__all__ = [
    "CoefficientSet",
    "get_coefficients",
    "registry_names",
    "NormReport",
    "solve_young",
    "skeleton",
    "controlled_path",
    "norm_report",
]


# ---------------------------------------------------------------------------
# coefficient registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """Drift b(t, x) and diffusion sigma(t, x) with regularity metadata.

    ``drift`` maps (t, X) with X of shape (batch, m) to (batch, m).
    ``diffusion`` returns the diagonal s of sigma: a scalar or an array
    broadcastable to (batch, min(m, d)), with sigma_ij = s_i for
    i = j < min(m, d) and 0 otherwise -- the ``eye(m, d)`` embedding, so
    state rows past d get no noise and driver components past m are
    ignored.  Every registry family is diagonal.
    The metadata records the Lipschitz constants in the well-posedness
    assumptions: ``lipschitz_drift`` (L) and ``lipschitz_sigma`` (M).
    Registry entries satisfy those assumptions analytically; a
    finite-difference spot check lives in the test suite.  ``affine``
    marks families whose drift is affine in x and whose diffusion does not
    depend on x: their Euler states are affine in the noise increments,
    which lets the control searches evaluate skeletons by one cached
    linear map (``ldp._SkeletonObjective``).
    ``drift_jac`` and ``diffusion_jac`` are the elementwise derivatives
    db_i/dx_i and ds_i/dx_i, shaped like ``drift`` and ``diffusion``, of
    families whose drift acts per component; the control searches' adjoint
    gradients read them.  They are None for a drift that mixes components
    (``rotation``).  Registry families do not depend on t.  A set
    compares and hashes by identity, so a cache can key on the set itself.
    """

    name: str
    m: int
    d: int
    drift: callable
    diffusion: callable
    lipschitz_drift: float
    lipschitz_sigma: float
    affine: bool = False
    drift_jac: callable | None = None
    diffusion_jac: callable | None = None
    params: dict = field(default_factory=dict)

    def admissible_alpha(self, hurst: float) -> tuple[float, float]:
        """Open interval (1 - H, 1/2) of admissible alpha at this H: the
        upper end min(1/2, lambda, gamma / (1 + gamma)) is 1/2, as registry
        families do not depend on t (lambda = 1) and their sigma' is
        Lipschitz (gamma = 1)."""
        return 1.0 - hurst, 0.5


def _entry_zero(m, d):
    return dict(
        drift=lambda t, x: 0.0 * x,
        diffusion=lambda t, x: 0.0,
        drift_jac=lambda t, x: np.zeros_like(x),
        diffusion_jac=lambda t, x: 0.0,
        lipschitz_drift=0.0, lipschitz_sigma=0.0, affine=True,
    )


def _entry_constant(m, d, scale=1.0, drift_const=0.0):
    return dict(
        drift=lambda t, x: np.full_like(x, drift_const),
        diffusion=lambda t, x: scale,
        drift_jac=lambda t, x: np.zeros_like(x),
        diffusion_jac=lambda t, x: 0.0,
        lipschitz_drift=0.0, lipschitz_sigma=0.0, affine=True,
    )


def _entry_linear_drift(m, d, rate=1.0, scale=0.0):
    return dict(
        drift=lambda t, x: -rate * x,
        diffusion=lambda t, x: scale,
        drift_jac=lambda t, x: np.full_like(x, -rate),
        diffusion_jac=lambda t, x: 0.0,
        lipschitz_drift=abs(rate), lipschitz_sigma=0.0, affine=True,
    )


def _entry_linear_sigma(m, d):
    if m != d:
        raise DomainError("linear_sigma requires m == d")
    return dict(
        drift=lambda t, x: 0.0 * x,
        diffusion=lambda t, x: x,
        drift_jac=lambda t, x: np.zeros_like(x),
        diffusion_jac=lambda t, x: np.ones_like(x),
        lipschitz_drift=0.0, lipschitz_sigma=1.0,
    )


def _entry_tanh(m, d, drift_scale=1.0, sigma_base=1.0, sigma_scale=0.5):
    if m != d:
        raise DomainError("tanh requires m == d")
    return dict(
        drift=lambda t, x: drift_scale * np.tanh(x),
        diffusion=lambda t, x: sigma_base + sigma_scale * np.tanh(x),
        drift_jac=lambda t, x: drift_scale * (1.0 - np.tanh(x) ** 2),
        diffusion_jac=lambda t, x: sigma_scale * (1.0 - np.tanh(x) ** 2),
        lipschitz_drift=abs(drift_scale), lipschitz_sigma=abs(sigma_scale),
    )


def _entry_rotation(m, d, omega=1.0, scale=1.0):
    if m != 2:
        raise DomainError("rotation requires m == 2")
    gen = omega * np.array([[0.0, -1.0], [1.0, 0.0]])
    return dict(
        drift=lambda t, x: x @ gen.T,
        diffusion=lambda t, x: scale,
        lipschitz_drift=abs(omega), lipschitz_sigma=0.0, affine=True,
    )


# name -> build function, which takes m, d and then the family's
# parameters, with their defaults, as keywords
_REGISTRY = {
    "zero": _entry_zero,
    "constant": _entry_constant,
    "linear_drift": _entry_linear_drift,
    "linear_sigma": _entry_linear_sigma,
    "tanh": _entry_tanh,
    "rotation": _entry_rotation,
}


def registry_names() -> list[str]:
    return sorted(_REGISTRY)


def get_coefficients(name: str, m: int = 1, d: int = 1, **params) -> CoefficientSet:
    """Build a registry coefficient set for state dim m and noise dim d,
    checking and recording its parameters as :func:`ldp.get_functional`
    does."""
    if name not in _REGISTRY:
        raise DomainError(f"unknown coefficient family {name!r}; "
                          f"choose from {registry_names()}")
    build = _REGISTRY[name]
    reads = dict(list(inspect.signature(build).parameters.items())[2:])
    unread = sorted(set(params) - set(reads))
    if unread:
        raise DomainError(f"coefficient family {name!r} takes no parameter "
                          f"{unread}; it reads {sorted(reads)}")
    params = {key: params.get(key, arg.default) for key, arg in reads.items()}
    return CoefficientSet(name=name, m=m, d=d, params=params,
                          **build(m, d, **params))


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

# the Euler solver raises once any state component exceeds this magnitude
_OVERFLOW_GUARD = 1e12


def _raise_on_overflow(states: np.ndarray) -> None:
    """Raise NumericError if a state of steps 1..n leaves the overflow guard.

    ``states`` is (P, n+1, m); the message names the first offending step.
    NaN counts as an overflow.
    """
    # axis 0 first: one reduction over (0, 2) walks the array far slower;
    # the initial values let a batch of no paths pass
    hi = states[:, 1:].max(axis=0, initial=-np.inf).max(axis=1)
    lo = states[:, 1:].min(axis=0, initial=np.inf).min(axis=1)
    bad = ~((hi <= _OVERFLOW_GUARD) & (lo >= -_OVERFLOW_GUARD))
    if bad.any():
        raise NumericError(f"state overflow beyond {_OVERFLOW_GUARD:g} "
                           f"at step {int(np.argmax(bad)) + 1}")


def solve_increments(x0: np.ndarray, coeffs: CoefficientSet,
                     increments: np.ndarray) -> np.ndarray:
    """Batched Euler core: increments (P, n, d) -> states (P, n+1, m).

    Pure function; the batch axis vectorises Monte Carlo samples and
    control-search batches alike.  Three routes give bitwise the batched
    Euler loop's states, each adding ``x + (b dt + s dg)``: state-free
    coefficients (Lipschitz constants 0: ``zero`` and ``constant``;
    registry coefficients never depend on t) take one ``np.cumsum`` of the
    steps known up front; one row with m = d = 1 is stepped in Python
    floats, free of numpy's per-call cost; every other batch runs the
    loop.  Either way the states run to the end, inf and NaN included,
    and one :func:`_raise_on_overflow` check names the first bad step.
    """
    n_paths, n, d = increments.shape
    if d != coeffs.d:
        raise DimensionError(f"driver dim {d} != coefficient d {coeffs.d}")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != coeffs.m:
        raise DimensionError(f"x0 has dim {x0.size}, expected m={coeffs.m}")
    dt = 1.0 / n
    r = min(coeffs.m, d)
    out = np.empty((n_paths, n + 1, coeffs.m))
    out[:, 0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        if coeffs.lipschitz_drift == 0.0 and coeffs.lipschitz_sigma == 0.0:
            b_dt = coeffs.drift(0.0, x0[None]) * dt
            # s dg + b dt in place: no (P, n, m) temporary
            np.multiply(coeffs.diffusion(0.0, x0[None]), increments[:, :, :r],
                        out=out[:, 1:, :r])
            out[:, 1:, :r] += b_dt[:, :r]
            out[:, 1:, r:] = b_dt[:, r:]
            np.cumsum(out, axis=1, out=out)
        elif n_paths == 1 and coeffs.m == d == 1:
            b, s, x, xs = coeffs.drift, coeffs.diffusion, float(x0[0]), []
            for k, dg in enumerate(increments[0, :, 0].tolist()):
                t = k * dt
                x = x + (b(t, x) * dt + s(t, x) * dg)
                xs.append(x)
            out[0, 1:, 0] = xs
        else:
            x = np.broadcast_to(x0, (n_paths, coeffs.m)).copy()
            for k in range(n):
                t = k * dt
                step = coeffs.drift(t, x) * dt
                step[:, :r] += coeffs.diffusion(t, x) * increments[:, k, :r]
                x = x + step
                out[:, k + 1] = x
    _raise_on_overflow(out)
    return out


def solve_young(x0, coeffs: CoefficientSet, driver: GridFn) -> GridFn:
    """Euler solution of dX = b dt + sigma dg for a pathwise driver g."""
    states = solve_increments(x0, coeffs, driver.increments()[None])
    return GridFn(driver.n_steps, states[0])


def controlled_path(x0, coeffs: CoefficientSet, ctrl: CmControl, eps: float,
                    fbm_path: GridFn) -> GridFn:
    """Solution of the controlled SDE dX = b dt + sigma dv + sqrt(eps) sigma dB^H.

    The combined driver increments are dv + sqrt(eps) dB^H, so eps = 0
    reduces bitwise to the deterministic skeleton.
    """
    if eps < 0.0:
        raise DomainError(f"eps must be >= 0, got {eps}")
    if fbm_path.n_steps != ctrl.n_steps or fbm_path.dim != ctrl.dim:
        raise DimensionError("control and fBm path live on different grids")
    inc = ctrl.path.increments() + math.sqrt(eps) * fbm_path.increments()
    states = solve_increments(x0, coeffs, inc[None])
    return GridFn(ctrl.n_steps, states[0])


def skeleton(x0, coeffs: CoefficientSet, ctrl: CmControl) -> GridFn:
    """Deterministic skeleton: the controlled equation driven by v alone.

    This is the solution map evaluated at the control (zero-noise limit).
    """
    zero_fbm = GridFn.zeros(ctrl.n_steps, ctrl.dim)
    return controlled_path(x0, coeffs, ctrl, 0.0, zero_fbm)


# ---------------------------------------------------------------------------
# a-priori norm reporting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormReport:
    """Norms of a solution, and of its driver, at the a-priori exponents."""

    solution: HolderReport
    driver_holder: float | None


def _check_admissible(coeffs: CoefficientSet, hurst: float,
                      alpha: float, delta: float) -> None:
    lo, hi = coeffs.admissible_alpha(hurst)
    if not lo < alpha < hi:
        raise DomainError(
            f"alpha={alpha} outside the admissible interval ({lo}, {hi}) "
            f"for {coeffs.name!r} at hurst={hurst}"
        )
    if not 0.0 < delta < alpha - (1.0 - hurst):
        raise DomainError(
            f"delta={delta} outside (0, alpha-(1-H)) = (0, {alpha - (1 - hurst)})"
        )


def norm_report(sol: GridFn, alpha: float, delta: float,
                coeffs: CoefficientSet, hurst: float,
                driver: GridFn | None = None) -> NormReport:
    """Solution norms at the a-priori exponents of the well-posedness bounds.

    Reports ||X||_inf and ||X||_{1-alpha} (as a HolderReport, with the
    W^{alpha,infty} norm at exponent alpha) and, when the driver is given,
    its (1-alpha+delta)-Holder norm.  Boundary alpha/delta are rejected, not
    clamped.
    """
    _check_admissible(coeffs, hurst, alpha, delta)
    rep = norms(sol, 1.0 - alpha, alpha)
    drv = None
    if driver is not None:
        drv = norms(driver, 1.0 - alpha + delta, alpha).holder_norm
    return NormReport(solution=rep, driver_holder=drv)
