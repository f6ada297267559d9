"""Rate functions, Laplace-principle checks, and rare-event sampling.

Controls are deterministic (open loop): piecewise-constant densities on
``n_ctrl`` equal blocks of [0, 1].  For the rate function this is exactly the
class the variational formula quantifies over; for the Laplace comparison it
yields a one-sided (upper) bound on the infimum over adapted controls, and
results are reported as such.

Tail probabilities accumulate in log space throughout.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.optimize

from . import blas, fbm, rng
from .cmspace import CmControl, control_from_cells
from .errors import DimensionError, DomainError, NumericError
from .fbm import sample_volterra
from .sde import _OVERFLOW_GUARD, CoefficientSet, solve_increments

__all__ = [
    "StateFunctional",
    "get_functional",
    "functional_names",
    "RateConfig",
    "RateResult",
    "rate_minimize",
    "VariationalResult",
    "laplace_variational",
    "LaplaceMcResult",
    "LAPLACE_MIN_SAMPLES",
    "laplace_mc",
    "girsanov_weight",
    "ProbEstimate",
    "is_probability",
    "scaling_table",
]


# ---------------------------------------------------------------------------
# events and bounded functionals: one registry of state functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateFunctional:
    """A registry entry with its parameters: a functional of solved states.

    ``fn_grad(states, x0, flow)`` maps solved states (B, n+1, m) to
    ``(values, steps, c)``.  Each row's value reads one state: the last one,
    or the first step of largest norm.  ``steps`` (B,) is that state's index
    in ``states`` and c (B, m) the value's derivative with respect to it, 0
    where a norm is 0; at a clip c takes the interior side, the unclipped
    branch's derivative on the closed interval [0, cap], so a search that
    starts on the cap moves off it.  A :attr:`terminal` entry reads only
    ``states[:, -1]``, so it also takes the terminal slice (B, 1, m).
    ``role`` is ``"event"``, whose value is <= 0 where the event holds (in
    its natural units), or ``"functional"``, a bounded h with values in
    [inf_h, sup_h]; the searches and estimators raise DomainError for an
    entry of the other role.  :meth:`bind` supplies x0 and, for an entry
    that reads it, the zero-noise flow.
    """

    name: str
    params: dict
    role: str
    terminal: bool
    fn_grad: callable
    inf_h: float | None = None
    sup_h: float | None = None
    flow: bool = False

    def bind(self, coeffs: CoefficientSet, x0, n_steps: int, solve=None):
        """``states -> (values, steps, c)`` for the states of ``coeffs``
        from ``x0`` on ``n_steps`` steps.  An entry that reads the
        zero-noise flow solves it here, once, on zero increments, by
        ``solve`` (increments (1, n, d) -> states) if given."""
        x0 = np.asarray(x0, dtype=float).reshape(-1)
        flow = None
        if self.flow:
            solve = solve or functools.partial(solve_increments, x0, coeffs)
            flow = solve(np.zeros((1, n_steps, coeffs.d)))[0]
        return lambda states: self.fn_grad(states, x0, flow)


# name -> (role, terminal, flow, builder); a builder takes the entry's
# parameters, with their defaults, as keywords, checks them, and returns
# fn_grad and, for a functional, (inf_h, sup_h)
_REGISTRY = {}


def _entry(name: str, role: str, terminal: bool, flow: bool = False):
    def register(build):
        _REGISTRY[name] = (role, terminal, flow, build)
        return build
    return register


def _check_cap(cap: float) -> None:
    if not cap >= 0.0:                                # NaN fails it too
        raise DomainError(f"cap must be >= 0, got {cap}")


@_entry("terminal_exceedance", "event", terminal=True)
def _terminal_exceedance(a=0.0):
    """X^1_1 >= a, for any real a."""
    def fn_grad(states, x0, flow):
        return a - states[:, -1, 0], _last(states), \
            _first_component(states, -1.0)
    return fn_grad, None


@_entry("sup_exceedance", "event", terminal=False, flow=True)
def _sup_exceedance(a=0.0):
    """max_t |X_t - phi_t| >= a, phi the zero-noise flow."""
    def fn_grad(states, x0, flow):
        # np.linalg.norm(states - flow, axis=2).max(axis=1) bitwise, with
        # one temporary: the square root commutes with the max
        dev = states - flow
        dev *= dev
        rows, steps, top = _largest(dev.sum(axis=2))
        return (a - top, steps,
                -_unit(states[rows, steps] - flow[steps], top))
    return fn_grad, None


@_entry("terminal_target", "event", terminal=True)
def _terminal_target(y=0.0, r=0.0):
    """|X_1 - y| <= r, with y a scalar or m entries."""
    if not r > 0.0:
        raise DomainError("terminal_target needs radius r > 0")
    y = np.atleast_1d(np.asarray(y, dtype=float))

    def fn_grad(states, x0, flow):
        if y.size not in (1, states.shape[2]):
            raise DimensionError(f"terminal_target y holds {y.size} entries; "
                                 f"it needs 1 or m = {states.shape[2]}")
        dev = states[:, -1, :] - y
        norm = np.linalg.norm(dev, axis=1)
        return norm - r, _last(states), _unit(dev, norm)
    return fn_grad, None


@_entry("sup_norm_capped", "functional", terminal=False)
def _sup_norm_capped(cap=1.0):
    """min(max_t |X_t|, cap)."""
    _check_cap(cap)

    def fn_grad(states, x0, flow):
        # np.linalg.norm(states, axis=2).max(axis=1), square root last
        rows, steps, top = _largest(np.square(states).sum(axis=2))
        c = _unit(states[rows, steps], top) * (top <= cap)[:, None]
        return np.minimum(top, cap), steps, c
    return fn_grad, (0.0, cap)


@_entry("terminal_rise_capped", "functional", terminal=True)
def _terminal_rise_capped(cap=1.0):
    """X^1_1 - x0^1 clipped to [0, cap]."""
    _check_cap(cap)

    def fn_grad(states, x0, flow):
        rise = states[:, -1, 0] - x0[0]
        return (np.clip(rise, 0.0, cap), _last(states),
                _first_component(states, (rise >= 0.0) & (rise <= cap)))
    return fn_grad, (0.0, cap)


@_entry("terminal_shortfall", "functional", terminal=True)
def _terminal_shortfall(cap=1.0, target=1.0):
    """target - (X^1_1 - x0^1) clipped to [0, cap]."""
    _check_cap(cap)

    def fn_grad(states, x0, flow):
        short = target - (states[:, -1, 0] - x0[0])
        return (np.clip(short, 0.0, cap), _last(states),
                _first_component(states, np.where(
                    (short >= 0.0) & (short <= cap), -1.0, 0.0)))
    return fn_grad, (0.0, cap)


@_entry("constant", "functional", terminal=True)
def _constant(level=1.0):
    """h = level."""
    def fn_grad(states, x0, flow):
        return (np.full(len(states), level), _last(states),
                _first_component(states, 0.0))
    return fn_grad, (level, level)


def functional_names(role: str | None = None) -> list[str]:
    """The registry's names, or those of one role."""
    return sorted(name for name, entry in _REGISTRY.items()
                  if role in (None, entry[0]))


def get_functional(name: str, role: str | None = None,
                   **params) -> StateFunctional:
    """The registry entry ``name`` with its parameters.

    A parameter the entry does not read raises, as in
    :func:`sde.get_coefficients`, and ``params`` records every parameter
    the entry reads, defaults included.  ``role``, if given, must be the
    entry's: ``"event"`` or ``"functional"``.
    """
    if name not in _REGISTRY:
        raise DomainError(f"unknown {role or 'entry'} {name!r}; "
                          f"choose from {functional_names(role)}")
    entry_role, terminal, flow, build = _REGISTRY[name]
    if role not in (None, entry_role):
        raise DomainError(f"{name!r} has role {entry_role!r}, not {role!r}; "
                          f"choose from {functional_names(role)}")
    reads = inspect.signature(build).parameters
    unread = sorted(set(params) - set(reads))
    if unread:
        raise DomainError(f"{name!r} takes no parameter {unread}; "
                          f"it reads {sorted(reads)}")
    params = {key: params.get(key, arg.default) for key, arg in reads.items()}
    fn_grad, bounds = build(**params)
    inf_h, sup_h = bounds or (None, None)
    return StateFunctional(name, params, entry_role, terminal, fn_grad,
                           inf_h, sup_h, flow)


def _require_role(entry: StateFunctional, role: str) -> None:
    if entry.role != role:
        raise DomainError(f"{entry.name!r} has role {entry.role!r}, "
                          f"not {role!r}")


def _last(states: np.ndarray) -> np.ndarray:
    """The index of the last state, for each row of ``states``."""
    return np.full(len(states), states.shape[1] - 1)


def _first_component(states: np.ndarray, slope) -> np.ndarray:
    """Derivatives (B, m) that are ``slope`` on component 0 and 0 elsewhere."""
    c = np.zeros((len(states), states.shape[2]))
    c[:, 0] = slope
    return c


def _unit(v: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """``v / norm`` row by row, and 0 where the norm is 0."""
    out = np.zeros_like(v)
    np.divide(v, norm[:, None], out=out, where=norm[:, None] > 0.0)
    return out


def _largest(sq: np.ndarray):
    """``(rows, steps, sqrt(max))`` of squared norms (B, n+1): the first
    step of each row's largest entry, ties to the first, and its root."""
    rows = np.arange(len(sq))
    steps = sq.argmax(axis=1)
    return rows, steps, np.sqrt(sq[rows, steps])


# ---------------------------------------------------------------------------
# control parametrisation and batched objectives
# ---------------------------------------------------------------------------

# Optimizer constants of the control-space searches.
_PENALTY_WEIGHTS = (1e1, 1e2, 1e3, 1e4, 1e5)   # one L-BFGS-B stage per weight
_MAXITER = 150              # L-BFGS-B iterations per stage (per start)
_FEASIBILITY_TOL = 1e-3     # largest residual a feasible result may keep
# Feasibility polish: one ladder of scales, then rounds that each split the
# bracket at 31 interior scales; 32^8 = 2^40 shrinks it to 2^-40 of its width.
_POLISH_LADDER = 1.05 ** np.arange(9.0)     # 1, 1.05, ..., 1.05^8
_POLISH_POINTS = 31
_POLISH_ROUNDS = 8


@dataclass(frozen=True)
class RateConfig:
    """Control family and start seed of the control-space searches."""

    hurst: float
    n_steps: int = 256
    n_ctrl: int = 32
    seed: int = 0

    def __post_init__(self):
        if not 0.5 < self.hurst < 1.0:
            raise DomainError("rate computations require hurst in (1/2, 1)")
        if not 1 <= self.n_ctrl <= 64:
            raise DomainError("n_ctrl must lie in 1..64")
        if self.n_steps % self.n_ctrl != 0:
            raise DomainError("n_steps must be a multiple of n_ctrl")


def expand_blocks(theta: np.ndarray, n_ctrl: int, n_steps: int,
                  d: int) -> np.ndarray:
    """Block coefficients (n_ctrl*d,) -> cell density samples (n_steps, d)."""
    blocks = theta.reshape(n_ctrl, d)
    return np.repeat(blocks, n_steps // n_ctrl, axis=0)


def control_from_blocks(theta: np.ndarray, cfg: RateConfig, d: int) -> CmControl:
    return control_from_cells(
        cfg.hurst, expand_blocks(np.asarray(theta, dtype=float),
                                 cfg.n_ctrl, cfg.n_steps, d))


@functools.lru_cache(maxsize=8)
def _block_path_map(n_ctrl: int, n_steps: int, hurst: float) -> np.ndarray:
    """Linear map from block coefficients to skeleton driver paths.

    Column b holds the path v = K_H v' of the unit density that is 1 on
    block b; shape (n_steps + 1, n_ctrl).  Components do not mix, so the
    path of block coefficients (n_ctrl, d) is this map applied to each
    component column, and one materialization of the n_ctrl block
    indicators, one per density column, gives every column.
    """
    indicators = np.repeat(np.eye(n_ctrl), n_steps // n_ctrl, axis=0)
    out = control_from_cells(hurst, indicators).path.values
    out.setflags(write=False)
    return out


# The affine route never runs the Euler loop whose 1e12 overflow guard
# names the first bad step.  A batch in which some row's bound on |states|
# reaches half the guard is solved by that loop instead, which raises
# exactly where it would have; the factor two leaves room for the rounding
# between bound and states.
_BOUND_LIMIT = 0.5 * _OVERFLOW_GUARD


def _affine_map(coeffs: CoefficientSet, x0: np.ndarray, columns: np.ndarray,
                rows: int):
    """The affine map of an affine family's Euler states, on ``rows`` steps.

    Input (j, i), row ``j * d + i`` of R, drives component i by
    ``columns[:, j]``; ``columns`` is (n, k).  The states driven by
    ``sum_(j, i) z_(j, i) columns[:, j] e_i`` are ``Z + z @ R``: Z the
    zero-increment states and each input's response its states minus Z,
    solved in blocks of ``_CHUNK`` inputs.  Returns the read-only
    ``(Z, max|Z|, R, r_max)``: Z (rows, m) and R (one flat row per input)
    on the last ``rows`` steps, and their largest entries over every step
    and component, so every state is bounded by
    ``max|Z| + |z| @ r_max``.  None when one of these solves overflows:
    every batch then goes through the Euler loop, which raises its own
    message.
    """
    n, d = columns.shape[0], coeffs.d
    n_inputs = columns.shape[1] * d
    r_kept, r_abs = [], []
    try:
        zero = solve_increments(x0, coeffs, np.zeros((1, n, d)))[0]
        for lo in range(0, n_inputs, _CHUNK):
            inputs = np.arange(lo, min(lo + _CHUNK, n_inputs))
            inc = np.zeros((inputs.size, n, d))
            inc[np.arange(inputs.size), :, inputs % d] = \
                columns[:, inputs // d].T
            resp = solve_increments(x0, coeffs, inc)
            del inc
            resp -= zero
            r_kept.append(resp[:, -rows:].reshape(inputs.size, -1))
            r_abs.append(np.abs(resp).max(axis=(1, 2)))
            del resp
    except NumericError:
        return None
    kept = zero[-rows:].copy()
    r, r_max = np.concatenate(r_kept), np.concatenate(r_abs)
    for a in (kept, r, r_max):
        a.setflags(write=False)
    return kept, float(np.abs(zero).max()), r, r_max


class _LinearDrive:
    """Euler states driven linearly by inputs through a path table.

    Inputs z (B, k, d), or flat (B, k d), drive the solver by the
    increments ``np.diff(table @ z) * scale`` of the (n+1, k) path
    ``table``: input (j, i) moves driver component i along column j.  The
    searches' table is the block path map and their inputs the block
    coefficients; the Monte Carlo's is the kernel table and its inputs the
    Brownian increments.  For an affine family the states are affine in
    z, and with ``rows`` the drive keeps their :func:`_affine_map` on the
    last ``rows`` steps, so a batch is one product.  A batch whose bound
    could reach the overflow guard, every batch when the build
    overflowed, and every batch of other families or without ``rows``, is
    solved by the Euler loop.  ``n_solves`` counts the rows passed to
    ``solve_increments``, the build's k d + 1 included.
    """

    def __init__(self, coeffs: CoefficientSet, x0: np.ndarray,
                 table: np.ndarray, rows: int | None = None):
        self.coeffs, self.x0, self.table = coeffs, x0, table
        self.n_solves = 0
        self.affine = None
        if coeffs.affine and rows:
            self.n_solves = table.shape[1] * coeffs.d + 1
            self.affine = _affine_map(coeffs, x0, np.diff(table, axis=0),
                                      rows)

    def solve(self, inc: np.ndarray) -> np.ndarray:
        self.n_solves += len(inc)
        return solve_increments(self.x0, self.coeffs, inc)

    def increments(self, z: np.ndarray, scale: float = 1.0,
                   shift: np.ndarray | None = None) -> np.ndarray:
        """Driver increments (B, n, d) of the inputs z + ``shift`` (k, d):
        the path is linear in the inputs, so the shift's path is added."""
        values = fbm._synthesise(self.table,
                                 z.reshape(len(z), -1, self.coeffs.d))
        if shift is not None:
            values += fbm._synthesise(self.table, shift[None])
        inc = np.diff(values, axis=1)
        del values
        inc *= scale
        return inc

    def states(self, z: np.ndarray, scale: float = 1.0,
               shift: np.ndarray | None = None) -> np.ndarray:
        """States of the inputs z + ``shift``: (B, rows, m) from the affine
        map, (B, n+1, m) from the Euler loop.

        A shift enters the affine map as its base ``Z + scale shift @ R``,
        with the bound raised by ``scale |shift| @ r_max``.
        """
        if self.affine is not None:
            x, x_abs, r, r_abs = self.affine
            flat = z.reshape(len(z), -1)
            with blas.one_thread():
                if shift is not None:
                    shift = shift.reshape(-1)
                    x = x + scale * (shift @ r).reshape(x.shape)
                    x_abs = x_abs + scale * (np.abs(shift) @ r_abs)
                bound = x_abs + scale * (np.abs(flat) @ r_abs)
                if np.all(bound < _BOUND_LIMIT):      # NaN fails it too
                    states = flat @ r
                    states *= scale
                    states = states.reshape((len(z),) + x.shape)
                    states += x
                    return states
        return self.solve(self.increments(z, scale, shift))


class _SkeletonObjective:
    """Objective evaluations over the block-control family.

    Evaluates ``0.5 ||vdot||^2 + weight * g(theta)`` where g is either the
    squared positive violation (penalty mode) or a bounded functional, with
    its exact gradient, from one skeleton per evaluation.  :meth:`map_batch`
    is the one place that evaluates skeletons, through the
    :class:`_LinearDrive` of the block path map, which keeps an affine
    family's map on every step, or with ``terminal`` (g reads only the
    terminal state) on the terminal one.  ``n_solves`` counts the rows
    passed to ``solve_increments``, ``n_evals`` the skeletons evaluated.
    """

    def __init__(self, coeffs: CoefficientSet, x0, cfg: RateConfig,
                 terminal: bool = False):
        self.coeffs = coeffs
        self.x0 = np.asarray(x0, dtype=float).reshape(-1)
        self.cfg = cfg
        self.path_map = _block_path_map(cfg.n_ctrl, cfg.n_steps, cfg.hurst)
        self.n_params = cfg.n_ctrl * coeffs.d
        self.n_evals = 0
        self.drive = _LinearDrive(coeffs, self.x0, self.path_map,
                                  1 if terminal else cfg.n_steps + 1)

    @property
    def n_solves(self) -> int:
        return self.drive.n_solves

    @functools.cached_property
    def inc_map(self) -> np.ndarray:
        """The increments of the block path map, for the adjoint gradient."""
        return np.diff(self.path_map, axis=0)

    def norm_sq(self, thetas: np.ndarray) -> np.ndarray:
        return np.sum(thetas ** 2, axis=-1) / self.cfg.n_ctrl

    def map_batch(self, thetas: np.ndarray, fn) -> np.ndarray:
        """fn over the skeleton states of each row of thetas: a (B, 1, m)
        terminal slice from a terminal affine map, else (B, n+1, m)."""
        self.n_evals += len(thetas)
        return fn(self.drive.states(thetas))

    def value_and_grad(self, theta: np.ndarray, g, weight: float):
        """The objective at theta and its exact gradient, from one skeleton.

        ``g`` maps states to ``(values, steps, c)``, as a bound
        :class:`StateFunctional` does: g reads the state at
        one step, and c is its derivative there.  The gradient of g is then
        that of ``c . X_step``, from :meth:`_state_grad`.
        """
        states = self.map_batch(theta[None], lambda states: states)
        (value,), (step,), (c,) = g(states)
        # the step on the full grid: a terminal slice holds the last state
        step += self.cfg.n_steps + 1 - states.shape[1]
        return (0.5 * self.norm_sq(theta[None])[0] + weight * value,
                theta / self.cfg.n_ctrl
                + weight * self._state_grad(theta, states[0], step, c))

    def _state_grad(self, theta: np.ndarray, states: np.ndarray, step: int,
                    c: np.ndarray) -> np.ndarray:
        """Gradient in theta of ``c . X_step`` for the skeleton ``states``.

        With an affine map it is the map's response at that step times c,
        exact whichever route solved the states.  Otherwise it is the
        adjoint of the Euler recursion, componentwise since sigma is
        diagonal and ``drift_jac`` acts per component: with
        ``a_k = 1 + b'(x_k) dt + s'(x_k) dv_k`` and
        ``lam_k = a_(k+1) ... a_(step-1)``, the gradient is
        ``M^T (s(x_k) lam_k) * c`` over k < step, M the increments of the
        block path map.  A family with no ``drift_jac`` (rotation) and no
        map raises NumericError.
        """
        co, n_ctrl = self.coeffs, self.cfg.n_ctrl
        if self.drive.affine is not None:
            kept, resp = self.drive.affine[0], self.drive.affine[2]
            row = step - (self.cfg.n_steps + 1 - len(kept))
            return resp[:, row * co.m:(row + 1) * co.m] @ c
        if co.drift_jac is None:
            raise NumericError(
                f"{co.name!r} has no elementwise drift Jacobian and its "
                "affine map overflowed, so the search has no gradient")
        r = min(co.m, co.d)
        inc_map = self.inc_map[:step]
        dv = inc_map @ theta.reshape(n_ctrl, co.d)[:, :r]
        # registry coefficients never depend on t
        x = states[:step]
        a = 1.0 + co.drift_jac(0.0, x[1:])[:, :r] * (1.0 / self.cfg.n_steps) \
            + co.diffusion_jac(0.0, x[1:]) * dv[1:]
        lam = np.ones((step, r))
        lam[:-1] = np.cumprod(a[::-1], axis=0)[::-1]
        grad = np.zeros((n_ctrl, co.d))
        grad[:, :r] = inc_map.T @ (co.diffusion(0.0, x) * lam) * c[:r]
        return grad.ravel()


def _starts(cfg: RateConfig, n_params: int, d: int) -> list[np.ndarray]:
    """Multi-start points: zero, seeded random signs, and a smooth bump."""
    zero = np.zeros(n_params)
    rad = rng.stream(cfg.seed, 1).choice([-1.0, 1.0], size=n_params)
    centers = (np.arange(cfg.n_ctrl) + 0.5) / cfg.n_ctrl
    bump = np.exp(-0.5 * ((centers - 0.5) / 0.2) ** 2)
    bump = np.tile(bump[:, None], (1, d)).ravel() / bump.max()
    return [zero, rad, bump]


def _descend(obj: _SkeletonObjective, g, weights):
    """L-BFGS-B from every start, one stage per weight, each from the last.

    Minimizes ``obj.value_and_grad(., g, weight)`` on one BLAS thread and
    returns, per start, the last stage's ``OptimizeResult`` and the
    iterations summed over the stages.
    """
    runs = []
    with blas.one_thread():
        for theta in _starts(obj.cfg, obj.n_params, obj.coeffs.d):
            iters = 0
            for weight in weights:
                res = scipy.optimize.minimize(
                    obj.value_and_grad, theta, args=(g, weight),
                    jac=True, method="L-BFGS-B", options={"maxiter": _MAXITER})
                theta, iters = res.x, iters + int(res.nit)
            runs.append((res, iters))
    return runs


@dataclass(frozen=True)
class RateResult:
    """Rate-function estimate with the minimizing control candidate.

    ``value`` is 0.5 * cm_norm(control)^2 when the event constraint is met
    within tolerance, and an upper bound on the discrete optimum by
    construction; an infeasibility report carries value = inf rather than a
    fake number.
    """

    value: float
    control: CmControl
    block_values: np.ndarray
    residual: float
    feasible: bool
    diagnostics: dict = field(repr=False)


def rate_minimize(coeffs: CoefficientSet, x0, event: StateFunctional,
                  cfg: RateConfig) -> RateResult:
    """Minimize 0.5 ||vdot||^2 subject to the skeleton hitting the event.

    Exterior quadratic penalty with stage-escalated weights and L-BFGS
    descent on exact gradients (:meth:`_SkeletonObjective.value_and_grad`:
    the affine map's response, or the adjoint of the Euler recursion),
    with the penalty's chain rule ``2 max(v, 0) dv``; multi-start (zero,
    random signs, smooth bump).  After the stages a scalar feasibility
    polish rescales the control onto the constraint when that costs little.
    Returns the best feasible candidate, or an infeasibility report with
    value = inf when no start meets the tolerance.  Each entry of the
    diagnostics' ``starts`` records whether its last L-BFGS-B stage
    converged, and that stage's message.  ``n_solves`` in the
    diagnostics counts every row passed to ``solve_increments``, the
    zero-noise flow of a ``sup_exceedance`` event included; ``n_evals``
    counts every skeleton the search evaluated.  The two agree, flow
    aside, except for affine families, whose ``n_solves`` is the
    n_ctrl * d + 1 rows of the one affine-map build.
    """
    _require_role(event, "event")
    obj = _SkeletonObjective(coeffs, x0, cfg, terminal=event.terminal)
    g = event.bind(coeffs, obj.x0, cfg.n_steps, obj.drive.solve)
    per_start, thetas = [], []
    runs = _descend(obj, _penalty(g), _PENALTY_WEIGHTS)
    for start_idx, (res, iters) in enumerate(runs):
        theta, residual = _feasibility_polish(obj, g, res.x)
        thetas.append(theta)
        per_start.append({
            "start": start_idx,
            "value": float(0.5 * obj.norm_sq(theta[None])[0]),
            "residual": float(residual), "iterations": iters,
            "feasible": bool(residual <= _FEASIBILITY_TOL),
            "converged": bool(res.success), "message": str(res.message),
        })

    diag = {
        "n_steps": cfg.n_steps,
        "penalty_schedule": list(_PENALTY_WEIGHTS),
        "starts": per_start,
        "n_solves": obj.n_solves,
        "n_evals": obj.n_evals,
        "restarts": len(per_start),
        "iterations": sum(s["iterations"] for s in per_start),
    }
    feas = [s for s in per_start if s["feasible"]]
    chosen = min(feas, key=lambda s: (s["value"], s["start"])) if feas else \
        min(per_start, key=lambda s: (s["residual"], s["start"]))
    theta = thetas[chosen["start"]]
    return RateResult(
        value=chosen["value"] if feas else math.inf,
        control=control_from_blocks(theta, cfg, coeffs.d),
        block_values=theta.reshape(cfg.n_ctrl, coeffs.d),
        residual=chosen["residual"], feasible=bool(feas), diagnostics=diag,
    )


def _penalty(g):
    """The squared positive violation of a bound event ``g``, in the same
    form, with the chain rule ``2 max(v, 0) dv``."""
    def penalty(states):
        v, steps, c = g(states)
        pos = np.maximum(v, 0.0)
        return pos ** 2, steps, 2.0 * pos[:, None] * c

    return penalty


def _feasibility_polish(obj, g, theta):
    """Scale the control up to strict feasibility when that is cheap.

    Exterior penalties stop slightly infeasible; for outward-monotone events
    a small scalar rescaling lands on the constraint and makes the value a
    genuine upper bound.  Returns ``(theta, residual)``: theta unchanged
    if it is feasible, zero, or infeasible at every scale up to 1.05^8, else
    its smallest feasible scale, bracketed by _POLISH_ROUNDS ladder rounds
    of one ``map_batch`` call each, with the residual recomputed there.
    ``g`` is the bound event; only its values are read.
    """
    r = obj.map_batch(_POLISH_LADDER[:, None] * theta, g)[0]
    residual = max(0.0, float(r[0]))
    hit = np.flatnonzero(r <= 0.0)
    if residual <= 0.0 or not hit.size or np.allclose(theta, 0.0):
        return theta, residual
    lo, hi = _POLISH_LADDER[hit[0] - 1], _POLISH_LADDER[hit[0]]
    for _ in range(_POLISH_ROUNDS):
        scales = np.linspace(lo, hi, _POLISH_POINTS + 2)
        r = obj.map_batch(scales[1:-1, None] * theta, g)[0]
        k = 1 + np.argmax(np.append(r, 0.0) <= 0.0)   # hi itself is feasible
        lo, hi = scales[k - 1], scales[k]
    theta = hi * theta
    return theta, max(0.0, float(obj.map_batch(theta[None], g)[0][0]))


@dataclass(frozen=True)
class VariationalResult:
    """The deterministic side of the Laplace check and its minimiser.

    ``value`` is the least objective over the starts, and ``control`` and
    ``block_values`` that start's block control: the importance-sampling
    tilt :func:`laplace_mc` takes.  Each entry of the diagnostics'
    ``starts`` records its value, its L-BFGS-B iterations, whether the
    search converged, and its message.
    """

    value: float
    control: CmControl
    block_values: np.ndarray
    diagnostics: dict = field(repr=False)


def laplace_variational(coeffs: CoefficientSet, x0, h: StateFunctional,
                        cfg: RateConfig) -> VariationalResult:
    """Deterministic side of the variational representation.

    Minimizes ``h(skeleton(v)) + 0.5 ||vdot||^2`` over the block-control
    family on exact gradients, from ``h``'s ``fn_grad``.  Restricting to
    deterministic controls makes this an upper bound for the infimum over
    adapted controls.  A start that did not converge keeps its best value
    so far and records ``converged: False`` in the diagnostics.
    """
    _require_role(h, "functional")
    obj = _SkeletonObjective(coeffs, x0, cfg, terminal=h.terminal)
    runs = _descend(obj, h.bind(coeffs, obj.x0, cfg.n_steps, obj.drive.solve),
                    (1.0,))
    starts = [{"start": i, "value": float(res.fun), "iterations": iters,
               "converged": bool(res.success), "message": str(res.message)}
              for i, (res, iters) in enumerate(runs)]
    best = min(starts, key=lambda s: (s["value"], s["start"]))
    theta = runs[best["start"]][0].x
    return VariationalResult(
        value=best["value"], control=control_from_blocks(theta, cfg, coeffs.d),
        block_values=theta.reshape(cfg.n_ctrl, coeffs.d),
        diagnostics={"starts": starts})


# ---------------------------------------------------------------------------
# Monte Carlo side
# ---------------------------------------------------------------------------

# Paths per Monte Carlo chunk, and inputs per block of an affine-map build:
# memory scales with this, not with n_samples.  A constant rather than a
# setting, so the chunk boundaries (and with them every result bit) never
# depend on how a run is configured.
_CHUNK = 2048
LAPLACE_MIN_SAMPLES = 1000


@functools.lru_cache(maxsize=4)
def _mc_drive(coeffs: CoefficientSet, x0: tuple, n_steps: int, hurst: float,
              terminal: bool) -> _LinearDrive:
    """The Monte Carlo's :class:`_LinearDrive`, over the cached kernel table.

    Its inputs are the Brownian increments, and it keeps an affine map only
    for a ``terminal`` entry, on the terminal step.  Keyed by the
    coefficient set itself, x0, the grid and ``terminal``, so the Monte
    Carlo of one run builds the map once for every eps and tilt.
    """
    return _LinearDrive(coeffs, np.array(x0), fbm.kernel_table(n_steps, hurst),
                        1 if terminal else None)


class _McMean(NamedTuple):
    """What :func:`_mc_log_mean` returns: the log mean of Y, se(mean) /
    mean, the number of nonzero Y, the effective sample size (sum Y)^2 /
    sum Y^2 and the largest Y's share of sum Y."""

    log_mean: float
    rel_se: float
    n_nonzero: int
    ess: float
    max_share: float


def _mc_log_mean(coeffs: CoefficientSet, x0: np.ndarray, eps: float,
                 n_samples: int, seed: int, hurst: float, n_steps: int,
                 log_y, ctrl: CmControl | None = None,
                 terminal: bool = False) -> _McMean:
    """Monte Carlo mean of a path score Y >= 0, in log space.

    Solves the SDE on the Volterra paths of ``seed``, one chunk of
    ``_CHUNK`` paths alive at a time, by the :func:`_mc_drive`, whose
    inputs are the Brownian increments and whose scale is sqrt(eps);
    ``log_y(states)`` gives each path's log Y, -inf where Y = 0.
    With ``terminal`` (log_y reads only the terminal state) an affine
    family's states are the (P, 1, m) terminal slice, one product per
    chunk, and the fBm values are never synthesised.  A nonzero tilt
    ``ctrl`` (the measure tilt eps^(-1/2) v) is the Girsanov shift of the
    Brownian increments by vdot ds / sqrt(eps), so the driver gains dv; it
    adds each path's Girsanov log weight, on the unshifted increments, to
    its log Y.  None or the zero control is crude Monte Carlo, with no
    shift and no weight.  The moments come from the nonzero Y in path
    order, so the error bar stays finite where the squared mean would
    underflow; see :class:`_McMean`.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    shift = None
    if ctrl is not None:
        if ctrl.n_steps != n_steps or ctrl.dim != coeffs.d:
            raise DimensionError(
                "tilt control does not match the sampling grid")
        if np.any(ctrl.cell_values()):
            if ctrl.hurst != hurst:
                raise DomainError(
                    f"tilt is for hurst {ctrl.hurst}, not {hurst}")
            shift = ctrl.cell_values() / (n_steps * math.sqrt(eps))
    drive = _mc_drive(coeffs, tuple(map(float, x0)), n_steps, hurst,
                      terminal)
    scores = np.empty(n_samples)
    for lo in range(0, n_samples, _CHUNK):
        hi = min(lo + _CHUNK, n_samples)
        batch = sample_volterra(n_steps, hurst, coeffs.d, hi - lo, seed,
                                first_index=lo)
        states = drive.states(batch.bm_increments, math.sqrt(eps), shift)
        scores[lo:hi] = log_y(states)
        if shift is not None:
            scores[lo:hi] += girsanov_weight(ctrl, eps, batch.bm_increments)[1]
        del batch, states
    if not np.all(scores < math.inf):                 # NaN fails it too
        raise NumericError("path scores have a NaN or +inf log value")
    nonzero = scores[scores > -math.inf]
    if not nonzero.size:
        return _McMean(-math.inf, math.nan, 0, 0.0, math.nan)
    log_n = math.log(n_samples)
    log_s1, log_s2 = _logsumexp(nonzero), _logsumexp(2.0 * nonzero)
    log_m1 = log_s1 - log_n
    rel_var = math.exp(log_s2 - log_n - 2.0 * log_m1) - 1.0
    return _McMean(log_m1, math.sqrt(max(rel_var, 0.0) / n_samples),
                   nonzero.size, math.exp(2.0 * log_s1 - log_s2),
                   math.exp(float(nonzero.max()) - log_s1))


def _logsumexp(x: np.ndarray) -> float:
    m = float(np.max(x))
    if not np.isfinite(m):
        return m
    return m + math.log(float(np.sum(np.exp(x - m))))


@dataclass(frozen=True)
class LaplaceMcResult:
    """Laplace functional estimate with its standard error and the
    health of the path scores e^(-h/eps) w: how many are nonzero, their
    effective sample size and the largest one's share of their sum."""

    value: float
    std_err: float
    n_samples: int
    n_hits: int
    ess: float
    max_weight_share: float


def laplace_mc(coeffs: CoefficientSet, x0, h: StateFunctional, eps: float,
               n_samples: int, seed: int, ctrl: CmControl | None = None, *,
               hurst: float, n_steps: int) -> LaplaceMcResult:
    """Monte Carlo Laplace functional -eps log E exp(-h(X^eps)/eps).

    The exponential average is taken in log space by :func:`_mc_log_mean`,
    so the output is always inside [inf h, sup h]; the standard error comes
    from the delta method.  ``ctrl`` tilts the sampling measure as in
    :func:`is_probability`; the CLI passes the
    :func:`laplace_variational` minimiser.  None, or the zero control, is
    crude Monte Carlo.
    """
    _require_role(h, "functional")
    if not 0.0 < eps <= 1.0:
        raise DomainError(f"eps must lie in (0, 1], got {eps}")
    if n_samples < LAPLACE_MIN_SAMPLES:
        raise DomainError(
            f"laplace_mc needs n_samples >= {LAPLACE_MIN_SAMPLES}")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    g = h.bind(coeffs, x0, n_steps)
    mc = _mc_log_mean(coeffs, x0, eps, n_samples, seed, hurst, n_steps,
                      lambda states: -g(states)[0] / eps, ctrl,
                      h.terminal)
    return LaplaceMcResult(value=-eps * mc.log_mean, std_err=eps * mc.rel_se,
                           n_samples=n_samples, n_hits=mc.n_nonzero,
                           ess=mc.ess, max_weight_share=mc.max_share)


def girsanov_weight(ctrl: CmControl, eps: float, bm_increments: np.ndarray):
    """Radon-Nikodym weights of the control tilt on driving-BM increments.

    ``exp(-(1/sqrt(eps)) sum_j vdot(s_j) . dB_j - (1/(2 eps)) ||vdot||^2)``
    evaluated on the discrete L^2 pairing shared with the Volterra sampler.
    ``bm_increments`` is a (P, n, d) batch; returns the (P,) arrays
    (weight, log_weight).  The log weight is the overflow-safe
    representation.
    """
    if eps <= 0.0:
        raise DomainError(f"eps must be > 0, got {eps}")
    inc = np.asarray(bm_increments, dtype=float)
    cells = ctrl.cell_values()
    if inc.shape[1:] != (ctrl.n_steps, ctrl.dim):
        raise DimensionError("bm_increments do not match the control grid")
    ito = np.einsum("jd,pjd->p", cells, inc)
    norm_sq = float(np.sum(cells ** 2)) / ctrl.n_steps
    log_w = -ito / math.sqrt(eps) - norm_sq / (2.0 * eps)
    with np.errstate(over="ignore"):
        w = np.exp(log_w)
    return w, log_w


@dataclass(frozen=True)
class ProbEstimate:
    """Probability estimate with Monte Carlo standard error, and the
    health of the weights of the hits: their effective sample size and
    the largest one's share of their sum (0 and NaN without hits)."""

    p_hat: float
    std_err: float
    n_hits: int
    n_samples: int
    ess: float = 0.0
    max_weight_share: float = math.nan
    flagged: bool = False
    note: str = ""


def is_probability(coeffs: CoefficientSet, x0, event: StateFunctional,
                   eps: float, n_samples: int, seed: int, ctrl: CmControl,
                   *, hurst: float, n_steps: int) -> ProbEstimate:
    """Importance-sampled probability of the event under the small-noise SDE.

    Samples fBm through the Volterra map, shifts the driver by the control
    (the measure tilt eps^(-1/2) v), solves the controlled SDE, and averages
    indicator times Girsanov weight through :func:`_mc_log_mean`, so memory
    does not grow with ``n_samples``.  Pass the zero control for crude
    Monte Carlo; :func:`scaling_table` tilts by the rate minimizer.
    """
    _require_role(event, "event")
    if eps <= 0.0:
        raise DomainError(f"eps must be > 0, got {eps}")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    g = event.bind(coeffs, x0, n_steps)
    mc = _mc_log_mean(
        coeffs, x0, eps, n_samples, seed, hurst, n_steps,
        lambda states: np.where(g(states)[0] <= 0.0, 0.0, -math.inf),
        ctrl, event.terminal)
    if mc.n_nonzero == 0:
        return ProbEstimate(0.0, 0.0, 0, n_samples, flagged=True,
                            note="no hits; consider a larger tilt or eps")
    p_hat = math.exp(mc.log_mean)
    return ProbEstimate(p_hat, p_hat * mc.rel_se, mc.n_nonzero, n_samples,
                        mc.ess, mc.max_share)


def scaling_table(coeffs: CoefficientSet, x0, event: StateFunctional,
                  eps_list, n_samples: int, seed: int, *, n_steps: int,
                  cfg: RateConfig) -> list[dict]:
    """Small-noise scaling study: rows (eps, p_hat, -eps log p_hat, I, gap).

    The rate value I is computed once, by :func:`rate_minimize` under
    ``cfg``; its block control, spread onto the ``n_steps`` sampling grid,
    tilts every eps row, each sampled at ``cfg.hurst`` with an independently
    derived seed.
    ``eps_list`` must decrease so the gap column can be read as a
    convergence record.
    """
    eps_list = list(eps_list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise DomainError("eps_list must be strictly decreasing")
    if eps_list and eps_list[-1] <= 0.0:
        raise DomainError(f"every eps must be > 0, got {eps_list[-1]}")
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    rate = rate_minimize(coeffs, x0, event, cfg)
    if not rate.feasible:
        raise NumericError("rate minimization infeasible; no tilt available")
    tilt = control_from_cells(cfg.hurst, expand_blocks(
        rate.block_values, cfg.n_ctrl, n_steps, coeffs.d))
    rows = []
    for i, eps in enumerate(eps_list):
        est = is_probability(coeffs, x0, event, eps, n_samples,
                             rng.mix64(seed, i), ctrl=tilt,
                             hurst=cfg.hurst, n_steps=n_steps)
        neg = -eps * math.log(est.p_hat) if est.p_hat > 0 else math.inf
        rows.append({
            "eps": eps,
            "p_hat": est.p_hat,
            "std_err": est.std_err,
            "neg_eps_log_p": neg,
            "rate_value": rate.value,
            "gap": neg - rate.value,
            "ess": est.ess,
            "max_weight_share": est.max_weight_share,
        })
    return rows
