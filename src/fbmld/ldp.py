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
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import blas, fbm, rng
from .cmspace import CmControl
from .errors import DimensionError, DomainError, InfeasibleError, NumericError
from .fbm import sample_volterra
from .sde import (_OVERFLOW_GUARD, CoefficientSet, _read_params,
                  solve_increments)

__all__ = [
    "StateFunctional",
    "get_functional",
    "functional_names",
    "RateConfig",
    "RateResult",
    "rate_minimize",
    "VariationalResult",
    "laplace_variational",
    "McEstimate",
    "LAPLACE_MIN_SAMPLES",
    "laplace_mc",
    "girsanov_weight",
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

    A parameter the entry does not read raises, and ``params`` records
    every parameter the entry reads, defaults included, by the reader of
    :func:`sde.get_coefficients`.  ``role``, if given, must be the entry's:
    ``"event"`` or ``"functional"``.
    """
    if name not in _REGISTRY:
        raise DomainError(f"unknown {role or 'entry'} {name!r}; "
                          f"choose from {functional_names(role)}")
    entry_role, terminal, flow, build = _REGISTRY[name]
    if role not in (None, entry_role):
        raise DomainError(f"{name!r} has role {entry_role!r}, not {role!r}; "
                          f"choose from {functional_names(role)}")
    params = _read_params(build, params, repr(name))
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
_PENALTY_WEIGHTS = (1e1, 1e2, 1e3, 1e4, 1e5)   # one L-BFGS stage per weight
_MAXITER = 150              # L-BFGS iterations per stage (per start)
# L-BFGS (:func:`_lbfgs`), with the default tolerances of L-BFGS-B
_LBFGS_PAIRS = 10           # correction pairs kept
_GTOL = 1e-5                # stop when max|g| is at most this
_EPS = float(np.finfo(float).eps)
_FTOL = 1e7 * _EPS          # stop when f falls by at most this, relative
_MAXLS = 20                 # trials per line search
# dcsrch's constants: sufficient decrease and curvature, the interval's
# relative width, the extrapolation range and the largest step
_WOLFE = (1e-3, 0.9)
_XTOL = 0.1
_EXTRAPOLATE = (1.1, 4.0)
_STEP_MAX = 1e10
_CONVERGED_GRADIENT = "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"
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
        if self.n_steps < 1:
            raise DomainError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.n_steps % self.n_ctrl != 0:
            raise DomainError("n_steps must be a multiple of n_ctrl")


def control_from_blocks(theta: np.ndarray, cfg: RateConfig, d: int) -> CmControl:
    """The control of block coefficients theta (n_ctrl*d,): each block's
    density repeated on its cfg.n_steps // cfg.n_ctrl cells."""
    blocks = np.asarray(theta, dtype=float).reshape(cfg.n_ctrl, d)
    return CmControl(cfg.hurst,
                     np.repeat(blocks, cfg.n_steps // cfg.n_ctrl, axis=0))


def _block_increment_map(n_ctrl: int, n_steps: int, hurst: float) -> np.ndarray:
    """Linear map from block coefficients to skeleton driver increments.

    Column b holds the increments dv of the path v = K_H v' of the unit
    density that is 1 on block b, shape (n_steps, n_ctrl): the sum of the
    increment table's columns on block b, times ds.  Components do not
    mix, so the increments of block coefficients (n_ctrl, d) are this map
    applied to each component column.
    """
    table = fbm._increment_table(n_steps, hurst)
    return table.reshape(n_steps, n_ctrl, -1).sum(axis=2) / n_steps


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
    """Euler states driven linearly by inputs through an increment table.

    Inputs z (B, k, d), or flat (B, k d), drive the solver by the
    increments ``(table @ z) * scale`` of the (n, k) increment ``table``:
    input (j, i) moves driver component i by column j.  The searches'
    table is the block increment map and their inputs the block
    coefficients; the Monte Carlo's is the kernel's increment table and its
    inputs the Brownian increments, tilted ones included.  For an affine
    family the states are affine in z, and with ``rows`` the drive keeps
    their :func:`_affine_map` on the last ``rows`` steps, so a batch is
    one product.  A batch whose bound
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
            self.affine = _affine_map(coeffs, x0, table, rows)

    def solve(self, inc: np.ndarray) -> np.ndarray:
        self.n_solves += len(inc)
        return solve_increments(self.x0, self.coeffs, inc)

    def increments(self, z: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """Driver increments (B, n, d) of the inputs z."""
        inc = fbm._synthesise(self.table, z.reshape(len(z), -1, self.coeffs.d))
        inc *= scale
        return inc

    def states(self, z: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """States of z: (B, rows, m) by the affine map, else (B, n+1, m)."""
        if self.affine is not None:
            x, x_abs, r, r_abs = self.affine
            flat = z.reshape(len(z), -1)
            with blas.one_thread():
                bound = x_abs + scale * (np.abs(flat) @ r_abs)
                if np.all(bound < _BOUND_LIMIT):      # NaN fails it too
                    states = flat @ r
                    states *= scale
                    states = states.reshape((len(z),) + x.shape)
                    states += x
                    return states
        return self.solve(self.increments(z, scale))


class _SkeletonObjective:
    """Objective evaluations over the block-control family.

    Evaluates ``0.5 ||vdot||^2 + weight * g(theta)`` where g is either the
    squared positive violation (penalty mode) or a bounded functional, with
    its exact gradient, from one skeleton per evaluation.  :meth:`map_batch`
    is the one place that evaluates skeletons, through the
    :class:`_LinearDrive` of the block increment map, which keeps an affine
    family's map on every step, or with ``terminal`` (g reads only the
    terminal state) on the terminal one.  ``n_solves`` counts the rows
    passed to ``solve_increments``, ``n_evals`` the skeletons evaluated.
    """

    def __init__(self, coeffs: CoefficientSet, x0, cfg: RateConfig,
                 terminal: bool = False):
        self.coeffs = coeffs
        self.x0 = np.asarray(x0, dtype=float).reshape(-1)
        self.cfg = cfg
        self.n_params = cfg.n_ctrl * coeffs.d
        self.n_evals = 0
        table = _block_increment_map(cfg.n_ctrl, cfg.n_steps, cfg.hurst)
        self.drive = _LinearDrive(coeffs, self.x0, table,
                                  1 if terminal else cfg.n_steps + 1)

    @property
    def n_solves(self) -> int:
        return self.drive.n_solves

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
        ``M^T (s(x_k) lam_k) * c`` over k < step, M the block increment map
        of the drive.  A family with no ``drift_jac`` (rotation) and no
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
        inc_map = self.drive.table[:step]
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
    """L-BFGS from every start, one stage per weight, each from the last.

    Minimizes ``obj.value_and_grad(., g, weight)`` by :func:`_lbfgs` on one
    BLAS thread and returns, per start, the last stage's :class:`_Minimum`
    and the iterations summed over the stages.
    """
    runs = []
    with blas.one_thread():
        for theta in _starts(obj.cfg, obj.n_params, obj.coeffs.d):
            iters = 0
            for weight in weights:
                res = _lbfgs(obj.value_and_grad, theta, (g, weight))
                theta, iters = res.x, iters + res.nit
            runs.append((res, iters))
    return runs


class _Minimum(NamedTuple):
    """What :func:`_lbfgs` returns: the last accepted point, its value, the
    iterations taken, whether a convergence test stopped the search, and
    why it stopped."""

    x: np.ndarray
    fun: float
    nit: int
    success: bool
    message: str


def _lbfgs(fun, x, args=()) -> _Minimum:
    """Minimize ``fun(x, *args) -> (value, gradient)`` from x by L-BFGS.

    The direction is the two-loop recursion over the last _LBFGS_PAIRS
    pairs (s, y), scaled by s.y / y.y of the newest, or the steepest
    descent -g while none is held; the first step's length is 1 / |d|,
    later ones start at 1.  Steps come from the Moré–Thuente search of
    :func:`_line_search`.  The search stops as L-BFGS-B does without
    bounds: at x if max|g| <= _GTOL, and after an accepted step on
    ``_MAXITER`` iterations (STOP), max|g| <= _GTOL or a decrease of f of
    at most _FTOL relative (CONVERGENCE).  A failed line search restarts
    from -g with the pairs cleared; one that fails with none held stops
    (ABNORMAL) at the last accepted point.  A pair with
    s.y <= eps * |s.g| is not kept.
    """
    x = np.asarray(x, dtype=float)
    f, g = fun(x, *args)
    if np.max(np.abs(g)) <= _GTOL:
        return _Minimum(x, f, 0, True, _CONVERGED_GRADIENT)
    pairs, nit = [], 0                  # pairs: (s, y, 1 / s.y), oldest first
    while True:
        d = -g
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ d))
            d -= alphas[-1] * y
        if pairs:
            s, y, rho = pairs[-1]
            d *= 1.0 / (rho * (y @ y))
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            d += (alpha - rho * (y @ d)) * s
        slope = float(g @ d)
        step = 1.0 / math.sqrt(d @ d) if nit == 0 else 1.0
        found = _line_search(fun, args, x, d, f, slope, step) \
            if slope < 0.0 else None                  # NaN fails it too
        if found is None:
            if not pairs:
                return _Minimum(x, f, nit, False,
                                "ABNORMAL: LINE SEARCH FAILED")
            pairs.clear()
            continue
        step, x_new, f_new, g_new = found
        nit += 1
        s, y = step * d, g_new - g
        x, f_old, f, g = x_new, f, f_new, g_new
        if nit >= _MAXITER:
            return _Minimum(x, f, nit, False,
                            "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT")
        if np.max(np.abs(g)) <= _GTOL:
            return _Minimum(x, f, nit, True, _CONVERGED_GRADIENT)
        if f_old - f <= _FTOL * max(abs(f_old), abs(f), 1.0):
            return _Minimum(x, f, nit, True, "CONVERGENCE: RELATIVE "
                            "REDUCTION OF F <= FACTR*EPSMCH")
        sy = float(s @ y)
        if sy > _EPS * -slope * step:
            pairs.append((s, y, 1.0 / sy))
            del pairs[:-_LBFGS_PAIRS]


def _line_search(fun, args, x, d, f0, slope, step):
    """The Moré–Thuente search (ACM TOMS 20, 1994) of MINPACK-2's dcsrch.

    Searches ``fun(x + t d, *args) -> (value, gradient)`` over steps t in
    [0, _STEP_MAX], from the value f0 and the slope < 0 at t = 0 and the
    first trial ``step``.  Ends at the first trial that meets the strong
    Wolfe conditions with _WOLFE = (ftol, gtol), or at which dcsrch warns
    that the interval cannot shrink (rounding, xtol, or a step at a
    bound): ``(t, x, value, gradient)`` of that trial.  None after
    _MAXLS trials with no end.
    """
    ftol, gtol = _WOLFE
    decrease = ftol * slope
    bracketed, stage_one = False, True
    stx = sty = 0.0
    fx = fy = f0
    gx = gy = slope
    width, width1 = _STEP_MAX, 2.0 * _STEP_MAX
    lo, hi = 0.0, step * (1.0 + _EXTRAPOLATE[1])
    for _ in range(_MAXLS):
        point = x + step * d
        f, grad = fun(point, *args)
        gp = float(grad @ d)
        test = f0 + step * decrease
        if stage_one and f <= test and gp >= 0.0:
            stage_one = False
        if (bracketed and (step <= lo or step >= hi
                           or hi - lo <= _XTOL * hi)
                or (step == _STEP_MAX and f <= test and gp <= decrease)
                or (step == 0.0 and (f > test or gp >= decrease))
                or (f <= test and abs(gp) <= gtol * -slope)):
            return step, point, f, grad
        if stage_one and fx >= f > test:
            # the modified function f(t) - t ftol slope until a step of
            # sufficient decrease is found, as dcsrch's first stage does
            stx, fxm, gxm, sty, fym, gym, step, bracketed = _cstep(
                stx, fx - stx * decrease, gx - decrease,
                sty, fy - sty * decrease, gy - decrease,
                step, f - step * decrease, gp - decrease, bracketed, lo, hi)
            fx, gx = fxm + stx * decrease, gxm + decrease
            fy, gy = fym + sty * decrease, gym + decrease
        else:
            stx, fx, gx, sty, fy, gy, step, bracketed = _cstep(
                stx, fx, gx, sty, fy, gy, step, f, gp, bracketed, lo, hi)
        if bracketed:
            if abs(sty - stx) >= 0.66 * width1:
                step = stx + 0.5 * (sty - stx)
            width1, width = width, abs(sty - stx)
            lo, hi = min(stx, sty), max(stx, sty)
        else:
            lo = step + _EXTRAPOLATE[0] * (step - stx)
            hi = step + _EXTRAPOLATE[1] * (step - stx)
        step = min(max(step, 0.0), _STEP_MAX)
        if bracketed and (step <= lo or step >= hi or hi - lo <= _XTOL * hi):
            step = stx
    return None


def _cstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, bracketed, lo, hi):
    """One safeguarded step of MINPACK-2's dcstep.

    (stx, fx, dx) is the best trial so far, (sty, fy, dy) the other end of
    the interval, and (stp, fp, dp) the newest trial: steps, values and
    slopes.  Returns the updated ends, the next trial step, by a cubic,
    quadratic or secant fit kept inside [lo, hi], and whether a minimizer
    is now bracketed.
    """
    sgnd = dp * math.copysign(1.0, dx)
    if fp > fx:
        # a higher value: the minimum is bracketed; the cubic step if it
        # is closer to stx than the quadratic one, else their mean
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * math.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp < stx:
            gamma = -gamma
        p, q = (gamma - dx) + theta, ((gamma - dx) + gamma) + dp
        stpc = stx + p / q * (stp - stx)
        stpq = stx + dx / ((fx - fp) / (stp - stx) + dx) / 2.0 * (stp - stx)
        stpf = stpc if abs(stpc - stx) < abs(stpq - stx) else \
            stpc + (stpq - stpc) / 2.0
        bracketed = True
    elif sgnd < 0.0:
        # a lower value and slopes of opposite sign: bracketed; the cubic
        # step if it is farther from stp than the secant one
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * math.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp > stx:
            gamma = -gamma
        p, q = (gamma - dp) + theta, ((gamma - dp) + gamma) + dx
        stpc = stp + p / q * (stx - stp)
        stpq = stp + dp / (dp - dx) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        bracketed = True
    elif abs(dp) < abs(dx):
        # a lower value, same signs, a shrinking slope: the cubic step
        # only if the cubic rises in the step's direction or its minimum
        # lies beyond stp
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * math.sqrt(max(0.0, (theta / s) ** 2 - (dx / s) * (dp / s)))
        if stp > stx:
            gamma = -gamma
        p, q = (gamma - dp) + theta, (gamma + (dx - dp)) + gamma
        r = p / q
        if r < 0.0 and gamma != 0.0:
            stpc = stp + r * (stx - stp)
        else:
            stpc = hi if stp > stx else lo
        stpq = stp + dp / (dp - dx) * (stx - stp)
        if bracketed:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            edge = stp + 0.66 * (sty - stp)
            stpf = min(edge, stpf) if stp > stx else max(edge, stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = max(lo, min(hi, stpf))
    elif bracketed:
        # a lower value, same signs, a slope that does not shrink: the
        # cubic step towards sty
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        s = max(abs(theta), abs(dy), abs(dp))
        gamma = s * math.sqrt((theta / s) ** 2 - (dy / s) * (dp / s))
        if stp > sty:
            gamma = -gamma
        p, q = (gamma - dp) + theta, ((gamma - dp) + gamma) + dy
        stpf = stp + p / q * (sty - stp)
    else:
        stpf = hi if stp > stx else lo
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if sgnd < 0.0:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, bracketed


@dataclass(frozen=True, eq=False)
class RateResult:
    """Rate-function estimate with the minimizing control candidate.

    ``value`` is 0.5 * cm_norm(control)^2 when the event constraint is met
    within tolerance, and an upper bound on the discrete optimum by
    construction; an infeasibility report carries value = inf rather than a
    fake number.
    """

    value: float
    control: CmControl
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
    diagnostics' ``starts`` records whether its last L-BFGS stage
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


@dataclass(frozen=True, eq=False)
class VariationalResult:
    """The deterministic side of the Laplace check and its minimiser.

    ``value`` is the least objective over the starts, and ``control`` that
    start's block control: the importance-sampling tilt :func:`laplace_mc`
    takes.  Each entry of the diagnostics' ``starts`` records its value,
    its L-BFGS iterations, whether the search converged, and its message.
    """

    value: float
    control: CmControl
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
    """The Monte Carlo's :class:`_LinearDrive`, on the increment table.

    Its inputs are the Brownian increments, and it keeps an affine map only
    for a ``terminal`` entry, on the terminal step.  Keyed by the
    coefficient set itself, x0, the grid and ``terminal``, so the Monte
    Carlo of one run builds the map once for every eps and tilt.
    """
    table = fbm._increment_table(n_steps, hurst)
    return _LinearDrive(coeffs, np.array(x0), table, 1 if terminal else None)


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
                 n_samples: int, seed: int, log_y, ctrl: CmControl,
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
    Brownian increments by vdot ds / sqrt(eps), so the driver gains dv:
    each chunk takes its Girsanov log weights on the unshifted increments,
    adds them to log Y, and shifts the increments in place.  Paths are
    sampled on the control's grid and Hurst index; the zero control is
    crude Monte Carlo, with no shift and no weight.
    The moments come from the nonzero Y in path order, so the error bar
    stays finite where the squared mean would underflow; see :class:`_McMean`.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    if ctrl.dim != coeffs.d:
        raise DimensionError(f"tilt control has dim {ctrl.dim}, but the "
                             f"coefficients have d = {coeffs.d}")
    n_steps, hurst = ctrl.n_steps, ctrl.hurst
    shift = None
    if np.any(ctrl.cells):
        shift = ctrl.cells / (n_steps * math.sqrt(eps))
    drive = _mc_drive(coeffs, tuple(map(float, x0)), n_steps, hurst,
                      terminal)
    scores = np.empty(n_samples)
    for lo in range(0, n_samples, _CHUNK):
        hi = min(lo + _CHUNK, n_samples)
        inc = sample_volterra(n_steps, hurst, coeffs.d, hi - lo, seed,
                              first_index=lo).bm_increments
        if shift is not None:
            log_w = girsanov_weight(ctrl, eps, inc)[1]
            inc += shift
        scores[lo:hi] = log_y(drive.states(inc, math.sqrt(eps)))
        if shift is not None:
            scores[lo:hi] += log_w
        del inc
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
class McEstimate:
    """A Monte Carlo estimate with its standard error and the health of
    its nonzero path scores (the hits): how many there are, their
    effective sample size and the largest one's share of their sum.
    ``value`` is the Laplace functional of :func:`laplace_mc` or the
    probability p_hat of :func:`is_probability`."""

    value: float
    std_err: float
    n_samples: int
    n_hits: int
    ess: float
    max_weight_share: float


def laplace_mc(coeffs: CoefficientSet, x0, h: StateFunctional, eps: float,
               n_samples: int, seed: int, ctrl: CmControl) -> McEstimate:
    """Monte Carlo Laplace functional -eps log E exp(-h(X^eps)/eps).

    The exponential average is taken in log space by :func:`_mc_log_mean`,
    so the output is always inside [inf h, sup h]; the standard error comes
    from the delta method.  ``ctrl`` tilts the sampling measure, and sets
    its grid and Hurst index, as in :func:`is_probability`; the CLI passes
    the :func:`laplace_variational` minimiser.  The zero control is crude
    Monte Carlo.
    """
    _require_role(h, "functional")
    if not 0.0 < eps <= 1.0:
        raise DomainError(f"eps must lie in (0, 1], got {eps}")
    if n_samples < LAPLACE_MIN_SAMPLES:
        raise DomainError(
            f"laplace_mc needs n_samples >= {LAPLACE_MIN_SAMPLES}")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    g = h.bind(coeffs, x0, ctrl.n_steps)
    mc = _mc_log_mean(coeffs, x0, eps, n_samples, seed,
                      lambda states: -g(states)[0] / eps, ctrl, h.terminal)
    return McEstimate(-eps * mc.log_mean, eps * mc.rel_se, n_samples,
                      mc.n_nonzero, mc.ess, mc.max_share)


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
    if inc.shape[1:] != (ctrl.n_steps, ctrl.dim):
        raise DimensionError("bm_increments do not match the control grid")
    ito = np.einsum("jd,pjd->p", ctrl.cells, inc)
    norm_sq = float(np.sum(ctrl.cells ** 2)) / ctrl.n_steps
    log_w = -ito / math.sqrt(eps) - norm_sq / (2.0 * eps)
    with np.errstate(over="ignore"):
        w = np.exp(log_w)
    return w, log_w


def is_probability(coeffs: CoefficientSet, x0, event: StateFunctional,
                   eps: float, n_samples: int, seed: int,
                   ctrl: CmControl) -> McEstimate:
    """Importance-sampled probability of the event under the small-noise SDE.

    Samples fBm on the control's grid and Hurst index, shifts it by the
    control (the measure tilt eps^(-1/2) v), solves the controlled SDE,
    and averages indicator times Girsanov weight through
    :func:`_mc_log_mean`, so memory does not grow with ``n_samples``.  The
    zero control is crude Monte Carlo; :func:`scaling_table` tilts by the
    rate minimizer.
    """
    _require_role(event, "event")
    if eps <= 0.0:
        raise DomainError(f"eps must be > 0, got {eps}")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    g = event.bind(coeffs, x0, ctrl.n_steps)
    mc = _mc_log_mean(
        coeffs, x0, eps, n_samples, seed,
        lambda states: np.where(g(states)[0] <= 0.0, 0.0, -math.inf),
        ctrl, event.terminal)
    if mc.n_nonzero == 0:
        return McEstimate(0.0, 0.0, n_samples, 0, 0.0, math.nan)
    p_hat = math.exp(mc.log_mean)
    return McEstimate(p_hat, p_hat * mc.rel_se, n_samples, mc.n_nonzero,
                      mc.ess, mc.max_share)


def scaling_table(coeffs: CoefficientSet, x0, event: StateFunctional,
                  eps_list, n_samples: int, seed: int, *,
                  cfg: RateConfig) -> list[dict]:
    """Small-noise scaling study: rows (eps, p_hat, -eps log p_hat, I, gap).

    The rate value I is computed once, by :func:`rate_minimize` under
    ``cfg``; its control tilts every eps row, so each row samples the model
    whose rate it reports, on ``cfg``'s grid and Hurst index, with an
    independently derived seed.
    ``eps_list`` must decrease so the gap column can be read as a
    convergence record.  Raises :class:`InfeasibleError` when no start of
    the search is feasible, so I = +inf and there is no tilt.
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
        raise InfeasibleError("rate minimization infeasible; no tilt available")
    rows = []
    for i, eps in enumerate(eps_list):
        est = is_probability(coeffs, x0, event, eps, n_samples,
                             rng.mix64(seed, i), rate.control)
        neg = -eps * math.log(est.value) if est.value > 0 else math.inf
        rows.append({
            "eps": eps,
            "p_hat": est.value,
            "std_err": est.std_err,
            "neg_eps_log_p": neg,
            "rate_value": rate.value,
            "gap": neg - rate.value,
            "ess": est.ess,
            "max_weight_share": est.max_weight_share,
        })
    return rows
