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
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from . import blas, fbm, rng
from .cmspace import CmControl, control_from_cells
from .errors import DimensionError, DomainError, NumericError
from .fbm import sample_volterra
from .sde import _OVERFLOW_GUARD, CoefficientSet, solve_increments

__all__ = [
    "EventSpec",
    "EVENT_READS",
    "RateConfig",
    "RateResult",
    "BoundedFunctional",
    "get_functional",
    "functional_names",
    "rate_minimize",
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
# events
# ---------------------------------------------------------------------------

# the EventSpec fields each event kind reads
EVENT_READS = {"terminal_exceedance": {"a"}, "sup_exceedance": {"a"},
               "terminal_target": {"y", "r"}}


@dataclass(frozen=True)
class EventSpec:
    """Target event for rate/probability computations.

    kinds: ``terminal_exceedance`` (X^1_1 >= a), ``sup_exceedance``
    (max_t |X_t - phi_t| >= a with phi the zero-noise flow), and
    ``terminal_target`` (|X_1 - y| <= r).  ``a <= 0`` is allowed and makes
    the exceedance events trivially full.
    """

    kind: str
    a: float = 0.0
    y: float | np.ndarray = 0.0
    r: float = 0.0

    def __post_init__(self):
        if self.kind not in EVENT_READS:
            raise DomainError(f"unknown event kind {self.kind!r}")
        if self.kind == "terminal_target" and self.r <= 0.0:
            raise DomainError("terminal_target needs radius r > 0")

    @property
    def terminal(self) -> bool:
        """True when the event reads the terminal state X_1 alone."""
        return self.kind in ("terminal_exceedance", "terminal_target")

    def violation_fn(self, coeffs: CoefficientSet, x0, n_steps: int):
        """Batch map from solved states (B, n+1, m) to constraint violations.

        Violations are in the event's natural units; values <= 0 mean the
        event holds.  A :attr:`terminal` event reads only ``states[:, -1]``,
        so it also takes the terminal slice (B, 1, m).  ``sup_exceedance``
        solves the zero-noise flow once, here, on zero increments.
        """
        if self.kind == "terminal_exceedance":
            return lambda states: self.a - states[:, -1, 0]
        if self.kind == "terminal_target":
            y = np.atleast_1d(np.asarray(self.y, dtype=float))
            return lambda states: np.linalg.norm(
                states[:, -1, :] - y, axis=1) - self.r
        phi = solve_increments(x0, coeffs, np.zeros((1, n_steps, coeffs.d)))[0]

        def sup_violation(states):
            # np.linalg.norm(states - phi, axis=2).max(axis=1) bitwise, with
            # one temporary: the square root commutes with the max
            dev = states - phi
            dev *= dev
            return self.a - np.sqrt(dev.sum(axis=2).max(axis=1))

        return sup_violation


# ---------------------------------------------------------------------------
# bounded functionals for the Laplace checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundedFunctional:
    """A bounded path functional h with recorded bounds."""

    name: str
    fn: callable                   # (states (B, n+1, m), x0) -> (B,)
    inf_h: float
    sup_h: float
    params: dict

    @property
    def terminal(self) -> bool:
        """True for the registry functionals that read ``states[:, -1]``
        alone; their ``fn`` also takes the terminal slice (B, 1, m)."""
        return self.name in _TERMINAL_FUNCTIONALS


def _h_sup_norm_capped(params):
    cap = params.setdefault("cap", 1.0)
    return dict(
        # np.linalg.norm(states, axis=2).max(axis=1), square root last
        fn=lambda states, x0: np.minimum(
            np.sqrt(np.square(states).sum(axis=2).max(axis=1)), cap),
        inf_h=0.0, sup_h=cap,
    )


def _h_terminal_rise_capped(params):
    cap = params.setdefault("cap", 1.0)
    return dict(
        fn=lambda states, x0: np.clip(states[:, -1, 0] - x0[0], 0.0, cap),
        inf_h=0.0, sup_h=cap,
    )


def _h_terminal_shortfall(params):
    cap = params.setdefault("cap", 1.0)
    target = params.setdefault("target", 1.0)
    return dict(
        fn=lambda states, x0: np.clip(
            target - (states[:, -1, 0] - x0[0]), 0.0, cap),
        inf_h=0.0, sup_h=cap,
    )


def _h_constant(params):
    level = params.setdefault("level", 1.0)
    return dict(
        fn=lambda states, x0: np.full(states.shape[0], level),
        inf_h=level, sup_h=level,
    )


_FUNCTIONALS = {
    "sup_norm_capped": _h_sup_norm_capped,
    "terminal_rise_capped": _h_terminal_rise_capped,
    "terminal_shortfall": _h_terminal_shortfall,
    "constant": _h_constant,
}
_TERMINAL_FUNCTIONALS = frozenset(
    {"terminal_rise_capped", "terminal_shortfall", "constant"})


def functional_names() -> list[str]:
    return sorted(_FUNCTIONALS)


def get_functional(name: str, **params) -> BoundedFunctional:
    if name not in _FUNCTIONALS:
        raise DomainError(f"unknown functional {name!r}; "
                          f"choose from {functional_names()}")
    defaults = {}
    _FUNCTIONALS[name](defaults)
    unread = sorted(set(params) - set(defaults))
    if unread:
        raise DomainError(f"functional {name!r} takes no parameter {unread}; "
                          f"it reads {sorted(defaults)}")
    spec = _FUNCTIONALS[name](params)
    return BoundedFunctional(name=name, params=params, **spec)


# ---------------------------------------------------------------------------
# control parametrisation and batched objectives
# ---------------------------------------------------------------------------

# Optimizer constants of the control-space searches.
_PENALTY_WEIGHTS = (1e1, 1e2, 1e3, 1e4, 1e5)   # one L-BFGS-B stage per weight
_MAXITER = 150              # L-BFGS-B iterations per stage (per start)
_FD_STEP = 1e-5             # relative central-difference step
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
def _block_increment_map(n_ctrl: int, n_steps: int, hurst: float) -> np.ndarray:
    """Linear map from block coefficients to skeleton driver increments.

    Column b holds the dv increments of the unit density that is 1 on block
    b; shape (n_steps, n_ctrl).  Components do not mix, so the increments of
    block coefficients (n_ctrl, d) are this map applied to each component
    column, and one materialization of the n_ctrl block indicators, one
    per density column, gives every column.
    """
    indicators = np.repeat(np.eye(n_ctrl), n_steps // n_ctrl, axis=0)
    out = control_from_cells(hurst, indicators).path.increments()
    out.setflags(write=False)
    return out


# The affine routes never run the Euler loop whose 1e12 overflow guard
# names the first bad step.  A batch in which some row's bound on |states|
# reaches half the guard is solved by that loop instead, which raises
# exactly where it would have; the factor two leaves room for the rounding
# between bound and states.
_BOUND_LIMIT = 0.5 * _OVERFLOW_GUARD


def _affine_states(affine_map, z: np.ndarray, scale: float = 1.0):
    """States ``x + scale * z @ R`` as (B, rows, m), or None.

    ``affine_map`` is ``(x, max|X|, R, r_max)`` of an affine map
    ``X + scale * sum_j z_j R_j``: the kept rows x (rows, m) of the base
    states X and X's largest entry, each input's response on those rows
    (R, one flat row per input) and its largest response over every step
    and component (r_max).  So every state of every step is bounded by
    ``max|X| + scale * |z| @ r_max``, and None means that bound reached
    ``_BOUND_LIMIT`` (or is NaN) for some row.
    """
    x, x_abs, r, r_abs = affine_map
    with blas.one_thread():
        bound = x_abs + scale * (np.abs(z) @ r_abs)
        if not np.all(bound < _BOUND_LIMIT):
            return None
        flat = z @ r
    flat *= scale
    states = flat.reshape((len(z),) + x.shape)
    states += x
    return states


def _affine_map(coeffs: CoefficientSet, x0: np.ndarray, columns: np.ndarray,
                rows: int, dv: np.ndarray | None = None):
    """The :func:`_affine_states` map of an affine family's Euler states.

    Input (j, i), row ``j * d + i`` of R, drives component i by
    ``columns[:, j]``; ``columns`` is (n, k).  The states driven by ``dv +
    sum_(j, i) z_(j, i) columns[:, j] e_i`` are then ``X + z @ R``, with X
    the states driven by ``dv`` alone (zero increments if None).  Each
    input's response is its states minus the zero-increment states,
    solved in blocks of ``_CHUNK`` inputs; it does not depend on ``dv``.
    Returns ``(X, max|X|, R, max_k |R(k)|)`` on the last ``rows`` steps,
    the maxima over every step, or None when one of these solves
    overflows: every batch then goes through the Euler loop, which raises
    its own message.
    """
    n, d = columns.shape[0], coeffs.d
    n_inputs = columns.shape[1] * d
    r_kept, r_abs = [], []
    try:
        zero = solve_increments(x0, coeffs, np.zeros((1, n, d)))[0]
        free = zero if dv is None else \
            solve_increments(x0, coeffs, dv[None])[0]
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
    return free[-rows:].copy(), np.abs(free).max(), np.concatenate(r_kept), \
        np.concatenate(r_abs)


class _SkeletonObjective:
    """Batched objective evaluations over the block-control family.

    Evaluates ``0.5 ||vdot||^2 + weight * g(theta)`` where g is either the
    squared positive violation (penalty mode) or a bounded functional, with
    the skeletons for a whole finite-difference stencil evaluated in one
    batch.  :meth:`map_batch` is the one place that evaluates skeletons.
    For an affine family (``coeffs.affine``) the skeleton states are
    affine in theta, ``X_free + theta @ G``; the objective builds the
    :func:`_affine_map` of the block increment map once, keeping every
    step, or with ``terminal`` (g reads only the terminal state) just the
    terminal one, and every batch is then one GEMM.  Other families, and
    an affine one whose build overflows, run the Euler loop per batch.
    ``n_solves`` counts the rows passed to ``solve_increments``,
    ``n_evals`` the skeletons evaluated.
    """

    def __init__(self, coeffs: CoefficientSet, x0, cfg: RateConfig,
                 terminal: bool = False):
        self.coeffs = coeffs
        self.x0 = np.asarray(x0, dtype=float).reshape(-1)
        self.cfg = cfg
        self.inc_map = _block_increment_map(cfg.n_ctrl, cfg.n_steps, cfg.hurst)
        self.n_params = cfg.n_ctrl * coeffs.d
        self.n_solves = 0
        self.n_evals = 0
        self.affine_map = None
        if coeffs.affine:
            self.n_solves += self.n_params + 1
            self.affine_map = _affine_map(
                coeffs, self.x0, self.inc_map,
                1 if terminal else cfg.n_steps + 1)

    def _drivers(self, thetas: np.ndarray) -> np.ndarray:
        """Skeleton driver increments (B, n_steps, d) of block coefficients."""
        blocks = thetas.reshape(len(thetas), self.cfg.n_ctrl, self.coeffs.d)
        return fbm._synthesise(self.inc_map, blocks)

    def _solve(self, inc: np.ndarray) -> np.ndarray:
        self.n_solves += len(inc)
        return solve_increments(self.x0, self.coeffs, inc)

    def norm_sq(self, thetas: np.ndarray) -> np.ndarray:
        return np.sum(thetas ** 2, axis=-1) / self.cfg.n_ctrl

    def map_batch(self, thetas: np.ndarray, fn) -> np.ndarray:
        """fn over the skeleton states for each row of thetas.

        With an affine map this is ``fn(thetas @ G + X_free)``, the states
        a (B, 1, m) terminal slice on the terminal route and (B, n+1, m)
        otherwise; a batch that could reach the overflow guard is solved by
        the Euler loop instead, which raises its own message.  Without one
        every batch is solved by the Euler loop.
        """
        self.n_evals += len(thetas)
        if self.affine_map is not None:
            states = _affine_states(self.affine_map, thetas)
            if states is not None:
                return fn(states)
        return fn(self._solve(self._drivers(thetas)))

    def value_and_grad(self, theta: np.ndarray, g, weight: float):
        """Central finite differences of the full objective, batched."""
        k = self.n_params
        h = _FD_STEP * np.maximum(1.0, np.abs(theta))
        stencil = np.tile(theta, (2 * k + 1, 1))
        rows = np.arange(k)
        stencil[1 + rows, rows] += h
        stencil[1 + k + rows, rows] -= h
        obj = 0.5 * self.norm_sq(stencil) + weight * self.map_batch(stencil, g)
        grad = (obj[1 : 1 + k] - obj[1 + k :]) / (2.0 * h)
        return obj[0], grad


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


def rate_minimize(coeffs: CoefficientSet, x0, event: EventSpec,
                  cfg: RateConfig) -> RateResult:
    """Minimize 0.5 ||vdot||^2 subject to the skeleton hitting the event.

    Exterior quadratic penalty with stage-escalated weights and L-BFGS
    descent on central finite-difference gradients; multi-start (zero,
    random signs, smooth bump).  After the stages a scalar feasibility
    polish rescales the control onto the constraint when that costs little.
    Returns the best feasible candidate, or an infeasibility report with
    value = inf when no start meets the tolerance.  ``n_solves`` in the
    diagnostics counts every row passed to ``solve_increments``, the
    zero-noise flow of a ``sup_exceedance`` event included; ``n_evals``
    counts every skeleton the search evaluated.  The two agree, flow
    aside, except for affine families, whose ``n_solves`` is the
    n_ctrl * d + 1 rows of the one affine-map build.
    """
    obj = _SkeletonObjective(coeffs, x0, cfg, terminal=event.terminal)
    viol = event.violation_fn(coeffs, obj.x0, cfg.n_steps)
    # violation_fn solved one skeleton row: a sup_exceedance event's flow
    obj.n_solves += int(event.kind == "sup_exceedance")

    per_start, thetas = [], []
    runs = _descend(obj, lambda states: np.maximum(viol(states), 0.0) ** 2,
                    _PENALTY_WEIGHTS)
    for start_idx, (res, iters) in enumerate(runs):
        theta, residual = _feasibility_polish(obj, viol, res.x)
        thetas.append(theta)
        per_start.append({
            "start": start_idx,
            "value": float(0.5 * obj.norm_sq(theta[None])[0]),
            "residual": float(residual), "iterations": iters,
            "feasible": bool(residual <= _FEASIBILITY_TOL),
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


def _feasibility_polish(obj, viol, theta):
    """Scale the control up to strict feasibility when that is cheap.

    Exterior penalties stop slightly infeasible; for outward-monotone events
    a small scalar rescaling lands on the constraint and makes the value a
    genuine upper bound.  Returns ``(theta, residual)``: theta unchanged
    if it is feasible, zero, or infeasible at every scale up to 1.05^8, else
    its smallest feasible scale, bracketed by _POLISH_ROUNDS ladder rounds
    of one ``map_batch`` call each, with the residual recomputed there.
    """
    r = obj.map_batch(_POLISH_LADDER[:, None] * theta, viol)
    residual = max(0.0, float(r[0]))
    hit = np.flatnonzero(r <= 0.0)
    if residual <= 0.0 or not hit.size or np.allclose(theta, 0.0):
        return theta, residual
    lo, hi = _POLISH_LADDER[hit[0] - 1], _POLISH_LADDER[hit[0]]
    for _ in range(_POLISH_ROUNDS):
        scales = np.linspace(lo, hi, _POLISH_POINTS + 2)
        r = obj.map_batch(scales[1:-1, None] * theta, viol)
        k = 1 + np.argmax(np.append(r, 0.0) <= 0.0)   # hi itself is feasible
        lo, hi = scales[k - 1], scales[k]
    theta = hi * theta
    return theta, max(0.0, float(obj.map_batch(theta[None], viol)[0]))


def laplace_variational(coeffs: CoefficientSet, x0, h: BoundedFunctional,
                        cfg: RateConfig) -> float:
    """Deterministic side of the variational representation.

    Minimizes ``h(skeleton(v)) + 0.5 ||vdot||^2`` over the block-control
    family.  Restricting to deterministic controls makes this an upper bound
    for the infimum over adapted controls; non-convergence is flagged via a
    warning and the best value so far is returned.
    """
    obj = _SkeletonObjective(coeffs, x0, cfg, terminal=h.terminal)
    runs = _descend(obj, lambda states: h.fn(states, obj.x0), (1.0,))
    if not any(res.success for res, _ in runs):
        warnings.warn("laplace_variational: optimizer did not converge; "
                      "returning best value so far", stacklevel=2)
    return min(float(res.fun) for res, _ in runs)


# ---------------------------------------------------------------------------
# Monte Carlo side
# ---------------------------------------------------------------------------

# Paths per Monte Carlo chunk, and inputs per block of an affine-map build:
# memory scales with this, not with n_samples.  A constant rather than a
# setting, so the chunk boundaries (and with them every result bit) never
# depend on how a run is configured.
_CHUNK = 2048
LAPLACE_MIN_SAMPLES = 1000


def _full_states(batch, x0: np.ndarray, coeffs: CoefficientSet, eps: float,
                 dv: np.ndarray | None) -> np.ndarray:
    """Euler states (P, n+1, m) driven by sqrt(eps) dB^H + dv.

    The fBm values are the sampler's kernel product, synthesised here for
    the diff alone rather than read from ``batch.values``, which would keep
    them while the states are scored.
    """
    values = fbm._synthesise(fbm.kernel_table(batch.n_steps, batch.hurst),
                             batch.bm_increments)
    inc = np.diff(values, axis=1)
    del values
    inc *= math.sqrt(eps)
    if dv is not None:
        inc += dv
    return solve_increments(x0, coeffs, inc)


def _mc_log_mean(coeffs: CoefficientSet, x0: np.ndarray, eps: float,
                 n_samples: int, seed: int, hurst: float, n_steps: int,
                 log_y, dv: np.ndarray | None = None, terminal: bool = False):
    """Monte Carlo mean of a path score Y >= 0, in log space.

    Solves the SDE on the Volterra paths of ``seed``, driven by their fBm
    increments times sqrt(eps) plus the control increments ``dv`` if given,
    one chunk of ``_CHUNK`` paths alive at a time; ``log_y(batch, states)``
    gives each path's log Y, -inf where Y = 0.  Returns ``(log mean,
    se(mean) / mean, number of nonzero Y)`` from the first two moments of
    the nonzero Y in path order, so the error bar stays finite where the
    squared mean would underflow.

    With ``terminal`` (log_y reads only the terminal state) and an affine
    family, the terminal states are linear in the Brownian increments:
    each chunk is one product ``bm_increments.reshape(P, n d) @ R`` on the
    terminal :func:`_affine_map` of the kernel table's ``np.diff``, the
    fBm increments one unit Brownian increment makes, built once per call,
    and ``log_y`` gets the (P, 1, m) terminal slice.  The fBm values are
    then never synthesised.  A chunk whose bound could reach the overflow
    guard, every chunk when the map build overflows, and every chunk of
    other families and events, is solved in full by the Euler loop.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    route = None
    if terminal and coeffs.affine:
        route = _affine_map(
            coeffs, x0, np.diff(fbm.kernel_table(n_steps, hurst), axis=0), 1,
            dv)
    scores = np.empty(n_samples)
    for lo in range(0, n_samples, _CHUNK):
        hi = min(lo + _CHUNK, n_samples)
        batch = sample_volterra(n_steps, hurst, coeffs.d, hi - lo, seed,
                                first_index=lo)
        states = None
        if route is not None:
            states = _affine_states(
                route, batch.bm_increments.reshape(hi - lo, -1),
                math.sqrt(eps))
        if states is None:
            states = _full_states(batch, x0, coeffs, eps, dv)
        scores[lo:hi] = log_y(batch, states)
        del batch, states
    if not np.all(scores < math.inf):                 # NaN fails it too
        raise NumericError("path scores have a NaN or +inf log value")
    nonzero = scores[scores > -math.inf]
    if not nonzero.size:
        return -math.inf, math.nan, 0
    log_n = math.log(n_samples)
    log_m1 = _logsumexp(nonzero) - log_n
    log_m2 = _logsumexp(2.0 * nonzero) - log_n
    rel_var = math.exp(log_m2 - 2.0 * log_m1) - 1.0
    return log_m1, math.sqrt(max(rel_var, 0.0) / n_samples), nonzero.size


def _logsumexp(x: np.ndarray) -> float:
    m = float(np.max(x))
    if not np.isfinite(m):
        return m
    return m + math.log(float(np.sum(np.exp(x - m))))


@dataclass(frozen=True)
class LaplaceMcResult:
    value: float
    std_err: float
    n_samples: int

    def __iter__(self):
        return iter((self.value, self.std_err))


def laplace_mc(coeffs: CoefficientSet, x0, h: BoundedFunctional, eps: float,
               n_samples: int, seed: int, *, hurst: float,
               n_steps: int) -> LaplaceMcResult:
    """Monte Carlo Laplace functional -eps log E exp(-h(X^eps)/eps).

    The exponential average is taken in log space by :func:`_mc_log_mean`,
    so the output is always inside [inf h, sup h]; the standard error comes
    from the delta method.
    """
    if not 0.0 < eps <= 1.0:
        raise DomainError(f"eps must lie in (0, 1], got {eps}")
    if n_samples < LAPLACE_MIN_SAMPLES:
        raise DomainError(
            f"laplace_mc needs n_samples >= {LAPLACE_MIN_SAMPLES}")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    log_mean, rel_se, _ = _mc_log_mean(
        coeffs, x0, eps, n_samples, seed, hurst, n_steps,
        lambda batch, states: -h.fn(states, x0) / eps, terminal=h.terminal)
    return LaplaceMcResult(value=-eps * log_mean, std_err=eps * rel_se,
                           n_samples=n_samples)


def girsanov_weight(ctrl: CmControl, eps: float, bm_increments: np.ndarray):
    """Radon-Nikodym weights of the control tilt on driving-BM increments.

    ``exp(-(1/sqrt(eps)) sum_j vdot(s_j) . dB_j - (1/(2 eps)) ||vdot||^2)``
    evaluated on the discrete L^2 pairing shared with the Volterra sampler.
    ``bm_increments`` is (n, d) for one path or (P, n, d) for a batch;
    returns (weight, log_weight), arrays in the batch case.  The log weight
    is the overflow-safe representation.
    """
    if eps <= 0.0:
        raise DomainError(f"eps must be > 0, got {eps}")
    inc = np.asarray(bm_increments, dtype=float)
    single = inc.ndim == 2
    if single:
        inc = inc[None]
    cells = ctrl.cell_values()
    if inc.shape[1] != ctrl.n_steps or inc.shape[2] != ctrl.dim:
        raise DimensionError("bm_increments do not match the control grid")
    ito = np.einsum("jd,pjd->p", cells, inc)
    norm_sq = float(np.sum(cells ** 2)) / ctrl.n_steps
    log_w = -ito / math.sqrt(eps) - norm_sq / (2.0 * eps)
    with np.errstate(over="ignore"):
        w = np.exp(log_w)
    if single:
        return float(w[0]), float(log_w[0])
    return w, log_w


@dataclass(frozen=True)
class ProbEstimate:
    """Probability estimate with Monte Carlo standard error."""

    p_hat: float
    std_err: float
    n_hits: int
    n_samples: int
    flagged: bool = False
    note: str = ""

    def __iter__(self):
        return iter((self.p_hat, self.std_err))


def is_probability(coeffs: CoefficientSet, x0, event: EventSpec, eps: float,
                   n_samples: int, seed: int, ctrl: CmControl,
                   *, hurst: float, n_steps: int) -> ProbEstimate:
    """Importance-sampled probability of the event under the small-noise SDE.

    Samples fBm through the Volterra map, shifts the driver by the control
    (the measure tilt eps^(-1/2) v), solves the controlled SDE, and averages
    indicator times Girsanov weight through :func:`_mc_log_mean`, so memory
    does not grow with ``n_samples``.  Pass the zero control for crude
    Monte Carlo; :func:`scaling_table` tilts by the rate minimizer.
    """
    if eps <= 0.0:
        raise DomainError(f"eps must be > 0, got {eps}")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if ctrl.n_steps != n_steps or ctrl.dim != coeffs.d:
        raise DimensionError("tilt control does not match the sampling grid")

    dv = None                                 # crude MC, any hurst
    if np.any(ctrl.cell_values()):
        if ctrl.hurst != hurst:
            raise DomainError(f"tilt is for hurst {ctrl.hurst}, not {hurst}")
        dv = ctrl.path.increments()
    viol = event.violation_fn(coeffs, x0, n_steps)

    def log_y(batch, states):
        log_w = girsanov_weight(ctrl, eps, batch.bm_increments)[1]
        return np.where(viol(states) <= 0.0, log_w, -math.inf)

    log_p, rel_se, n_hits = _mc_log_mean(coeffs, x0, eps, n_samples, seed,
                                         hurst, n_steps, log_y, dv,
                                         event.terminal)
    if n_hits == 0:
        return ProbEstimate(0.0, 0.0, 0, n_samples, flagged=True,
                            note="no hits; consider a larger tilt or eps")
    p_hat = math.exp(log_p)
    return ProbEstimate(p_hat, p_hat * rel_se, n_hits, n_samples)


def scaling_table(coeffs: CoefficientSet, x0, event: EventSpec,
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
        })
    return rows
