import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import optimize

from fbmld import cmspace as cm
from fbmld import fbm, ldp, rng, sde
from fbmld.errors import DimensionError, DomainError, NumericError

HURST = 0.6
ADDITIVE = sde.get_coefficients("constant")
SMALL_CFG = ldp.RateConfig(hurst=HURST, n_steps=128, n_ctrl=16, seed=3)


def qp_oracle(a, cfg):
    """Reproducing-kernel least-norm solution over the same block family."""
    n, nc = cfg.n_steps, cfg.n_ctrl
    krow = fbm.kernel_table(n, cfg.hurst)[n]
    w = 1.0 / nc
    c_b = krow.reshape(nc, n // nc).sum(axis=1) / n
    s = float(np.sum(c_b ** 2) / w)
    return a * a / (2.0 * s), a * (c_b / w) / s


# ---------------------------------------------------------------------------
# events and functionals
# ---------------------------------------------------------------------------

def test_event_validation():
    with pytest.raises(DomainError):
        ldp.EventSpec("first_passage", a=1.0)
    with pytest.raises(DomainError):
        ldp.EventSpec("terminal_target", y=0.0, r=0.0)
    ldp.EventSpec("terminal_exceedance", a=-1.0)   # trivially full is fine


def test_event_violations_semantics():
    states = np.zeros((2, 5, 1))
    states[0, -1, 0] = 2.0
    states[1, -1, 0] = 0.5
    v = ldp.EventSpec("terminal_exceedance", a=1.0).violation_fn(
        ADDITIVE, [0.0], 4)(states)
    assert v[0] <= 0.0 < v[1]
    v = ldp.EventSpec("terminal_target", y=2.0, r=0.25).violation_fn(
        ADDITIVE, [0.0], 4)(states)
    assert v[0] <= 0.0 < v[1]
    v = ldp.EventSpec("sup_exceedance", a=1.0).violation_fn(
        ADDITIVE, [0.0], 4)(states)
    assert v[0] <= 0.0 < v[1]


def test_functionals_bounded_and_unknown():
    states = rng.stream(1, 0).standard_normal((50, 9, 1)) * 10
    for name in ldp.functional_names():
        h = ldp.get_functional(name)
        vals = h.fn(states, np.zeros(1))
        assert np.all(vals >= h.inf_h - 1e-12)
        assert np.all(vals <= h.sup_h + 1e-12)
    with pytest.raises(DomainError):
        ldp.get_functional("entropy")


def test_functionals_reject_unread_parameters():
    with pytest.raises(DomainError, match="targte"):
        ldp.get_functional("terminal_shortfall", targte=2.0)
    with pytest.raises(DomainError, match="cap"):
        ldp.get_functional("constant", cap=2.0)
    h = ldp.get_functional("terminal_shortfall", target=2.0)
    assert h.params == {"cap": 1.0, "target": 2.0}


# ---------------------------------------------------------------------------
# girsanov weights
# ---------------------------------------------------------------------------

def test_girsanov_zero_control_weight_one():
    w, logw = ldp.girsanov_weight(cm.zero_control(HURST, 32), 0.5,
                                  np.zeros((32, 1)))
    assert w == 1.0 and logw == 0.0


def test_girsanov_martingale_mean_small():
    n = 128
    cells = rng.stream(9, 0).standard_normal(n)
    cells /= math.sqrt(float(np.sum(cells ** 2)) / n)
    ctrl = cm.control_from_cells(HURST, cells)
    batch = fbm.sample_volterra(n, HURST, 1, 4000, seed=21)
    w, logw = ldp.girsanov_weight(ctrl, 1.0, batch.bm_increments)
    assert abs(w.mean() - 1.0) <= 4 * w.std() / math.sqrt(4000)
    # log weights center on -||vdot||^2 / (2 eps)
    assert abs(logw.mean() + 0.5) <= 4 * logw.std() / math.sqrt(4000)


def test_girsanov_shape_checks():
    ctrl = cm.zero_control(HURST, 32)
    with pytest.raises(DimensionError):
        ldp.girsanov_weight(ctrl, 1.0, np.zeros((16, 1)))
    with pytest.raises(DomainError):
        ldp.girsanov_weight(ctrl, 0.0, np.zeros((32, 1)))


# ---------------------------------------------------------------------------
# rate minimization
# ---------------------------------------------------------------------------

def test_rate_config_fields_and_n_ctrl_range():
    assert [f.name for f in dataclasses.fields(ldp.RateConfig)] == \
        ["hurst", "n_steps", "n_ctrl", "seed"]
    for n_ctrl in (0, -8, 65):
        with pytest.raises(DomainError):
            ldp.RateConfig(hurst=HURST, n_steps=64, n_ctrl=n_ctrl)


@pytest.mark.parametrize("n_ctrl, n_steps, d", [(8, 64, 1), (4, 32, 3)])
def test_block_increment_map_matches_unit_controls(monkeypatch, n_ctrl,
                                                   n_steps, d):
    # the increments map_batch hands the Euler route for unit theta column
    # (b, i) are the dv of the unit control on block b, component i; an
    # n_ctrl-column kernel product rounds differently from a one-column one.
    # linear_sigma is not affine, so map_batch solves every batch it sees.
    cfg = ldp.RateConfig(hurst=0.7, n_steps=n_steps, n_ctrl=n_ctrl)
    assert ldp._block_increment_map(n_ctrl, n_steps, 0.7).shape == \
        (n_steps, n_ctrl)
    coeffs = sde.get_coefficients("linear_sigma", m=d, d=d)
    obj = ldp._SkeletonObjective(coeffs, np.zeros(d), cfg)
    monkeypatch.setattr(ldp, "solve_increments", lambda x0, co, inc: inc)
    k = n_ctrl * d
    got = obj.map_batch(np.eye(k), lambda inc: inc)
    for col in range(k):
        unit = ldp.control_from_blocks(np.eye(k)[col], cfg, d)
        want = unit.path.increments()
        np.testing.assert_allclose(got[col], want, rtol=0, atol=1e-15,
                                   err_msg=str(col))


AFFINE_CASES = [
    ("zero", 1, 1, {}, [0.4]),
    ("constant", 1, 1, {"scale": 1.3, "drift_const": 0.4}, [0.7]),
    ("linear_drift", 2, 3, {"rate": 2.0, "scale": 0.7}, [0.3, -0.5]),
    ("rotation", 2, 2, {"omega": 1.5, "scale": 0.8}, [0.6, -0.2]),
]


@pytest.mark.parametrize("name, m, d, params, x0", AFFINE_CASES,
                         ids=[case[0] for case in AFFINE_CASES])
def test_affine_map_batch_matches_euler(name, m, d, params, x0):
    # X_free + theta @ G against the Euler solve of the same drivers
    cfg = ldp.RateConfig(hurst=0.7, n_steps=64, n_ctrl=8)
    co = sde.get_coefficients(name, m=m, d=d, **params)
    obj = ldp._SkeletonObjective(co, x0, cfg)
    assert obj.affine_map is not None
    thetas = rng.stream(5, 0).standard_normal((9, obj.n_params))
    got = obj.map_batch(thetas, lambda states: states)
    want = sde.solve_increments(x0, co, obj._drivers(thetas))
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-12 * np.abs(want).max())
    assert (obj.n_solves, obj.n_evals) == (obj.n_params + 1, 9)


def test_affine_map_batch_overflow_names_the_euler_step():
    # on the full route and on the terminal one (a terminal fn) alike, the
    # bound sends the batch to the Euler loop, which raises its own message
    cfg = ldp.RateConfig(hurst=0.7, n_steps=64, n_ctrl=8)
    co = sde.get_coefficients("rotation", m=2, d=2)   # Euler loop: not state-free
    thetas = np.zeros((2, cfg.n_ctrl * 2))
    thetas[1, 2 * 3] = 1e16                  # block 3, first component
    messages = []
    for terminal in (False, True):
        obj = ldp._SkeletonObjective(co, [0.6, -0.2], cfg, terminal=terminal)
        with pytest.raises(NumericError, match="step") as err:
            obj.map_batch(thetas, lambda states: states[:, -1, 0])
        messages.append(str(err.value))
    with pytest.raises(NumericError) as err:
        sde.solve_increments(obj.x0, co, obj._drivers(thetas))
    assert messages == [str(err.value)] * 2


@pytest.mark.parametrize("terminal", [True, False], ids=["terminal", "full"])
def test_affine_map_build_overflow_takes_the_euler_route(terminal):
    # rate -42: the unit responses of the early blocks pass the guard, so
    # there is no map, and a batch the loop solves cleanly still gets solved
    cfg = ldp.RateConfig(hurst=0.7, n_steps=64, n_ctrl=8)
    co = sde.get_coefficients("linear_drift", rate=-42.0, scale=1.0)
    obj = ldp._SkeletonObjective(co, [0.0], cfg, terminal=terminal)
    assert obj.affine_map is None
    thetas = 1e-3 * np.eye(obj.n_params)[3:4]
    got = obj.map_batch(thetas, lambda states: states)
    want = sde.solve_increments(obj.x0, co, obj._drivers(thetas))
    assert np.array_equal(got, want)


def test_event_and_functional_terminal_flags():
    assert ldp.EventSpec("terminal_exceedance", a=1.0).terminal
    assert ldp.EventSpec("terminal_target", y=1.0, r=0.1).terminal
    assert not ldp.EventSpec("sup_exceedance", a=1.0).terminal
    flags = {name: ldp.get_functional(name).terminal
             for name in ldp.functional_names()}
    assert flags == {"constant": True, "sup_norm_capped": False,
                     "terminal_rise_capped": True, "terminal_shortfall": True}


@pytest.mark.parametrize("name, m, d, params, x0", AFFINE_CASES,
                         ids=[case[0] for case in AFFINE_CASES])
def test_terminal_map_batch_matches_full_states(name, m, d, params, x0):
    # thetas @ G_T + x_T against the Euler solve of the same drivers, for
    # the raw terminal slice, a terminal event and a terminal functional
    cfg = ldp.RateConfig(hurst=0.7, n_steps=64, n_ctrl=8)
    co = sde.get_coefficients(name, m=m, d=d, **params)
    obj = ldp._SkeletonObjective(co, x0, cfg, terminal=True)
    assert obj.affine_map[0].shape == (1, m)
    assert obj.affine_map[2].shape == (obj.n_params, m)
    thetas = rng.stream(5, 0).standard_normal((9, obj.n_params))
    full = sde.solve_increments(x0, co, obj._drivers(thetas))
    atol = 1e-12 * np.abs(full).max()
    got = obj.map_batch(thetas, lambda states: states)
    assert got.shape == (9, 1, m)
    np.testing.assert_allclose(got, full[:, -1:], rtol=0, atol=atol)
    ev = ldp.EventSpec("terminal_target", y=np.ones(m), r=0.5)
    viol = ev.violation_fn(co, obj.x0, cfg.n_steps)
    h = ldp.get_functional("terminal_rise_capped", cap=5.0)
    for fn in (viol, lambda states: h.fn(states, obj.x0)):
        np.testing.assert_allclose(obj.map_batch(thetas, fn), fn(full),
                                   rtol=0, atol=atol)
    assert (obj.n_solves, obj.n_evals) == (obj.n_params + 1, 27)


@pytest.mark.parametrize("terminal", [True, False], ids=["terminal", "full"])
def test_affine_map_batch_over_the_bound_takes_the_euler_route(terminal):
    # a bound between the limit and the guard: the Euler loop solves the
    # batch (counted in n_solves) and nothing overflows
    cfg = ldp.RateConfig(hurst=0.7, n_steps=64, n_ctrl=8)
    co = sde.get_coefficients("rotation", m=2, d=2)
    obj = ldp._SkeletonObjective(co, [0.6, -0.2], cfg, terminal=terminal)
    g_abs = obj.affine_map[3]
    thetas = np.zeros((2, obj.n_params))
    thetas[1, 6] = 0.75 * sde._OVERFLOW_GUARD / g_abs[6]
    solves = obj.n_solves
    got = obj.map_batch(thetas, lambda states: states[:, -1])
    assert obj.n_solves == solves + 2
    want = sde.solve_increments(obj.x0, co, obj._drivers(thetas))[:, -1]
    assert np.array_equal(got, want)


def test_unregistered_functional_takes_the_full_route():
    # terminal follows from the registry name; any other name, even one
    # whose fn reads only X_1, is handed the full states
    h = ldp.BoundedFunctional(
        name="custom", fn=lambda states, x0: states[:, 1:, 0].max(axis=1),
        inf_h=0.0, sup_h=1.0, params={})
    assert not h.terminal
    cfg = ldp.RateConfig(hurst=0.7, n_steps=64, n_ctrl=8)
    co = sde.get_coefficients("constant")
    obj = ldp._SkeletonObjective(co, [0.0], cfg, terminal=h.terminal)
    assert obj.map_batch(np.zeros((1, obj.n_params)),
                         lambda states: states).shape == (1, 65, 1)


@pytest.mark.parametrize("family", ["constant", "tanh"])
def test_n_evals_counts_map_batch_rows(monkeypatch, family):
    rows = []
    map_batch = ldp._SkeletonObjective.map_batch
    monkeypatch.setattr(
        ldp._SkeletonObjective, "map_batch",
        lambda self, th, fn: rows.append(len(th)) or map_batch(self, th, fn))
    co = sde.get_coefficients(family)
    cfg = ldp.RateConfig(hurst=HURST, n_steps=32, n_ctrl=4, seed=3)
    res = ldp.rate_minimize(co, [0.0], ldp.EventSpec("terminal_exceedance",
                                                     a=0.5), cfg)
    assert res.feasible
    assert sum(rows) == res.diagnostics["n_evals"]
    # the affine route solves its map once; the Euler route every row
    want = cfg.n_ctrl + 1 if co.affine else sum(rows)
    assert res.diagnostics["n_solves"] == want


def test_feasibility_polish_lands_on_the_constraint(monkeypatch):
    ev = ldp.EventSpec("terminal_exceedance", a=1.0)
    obj = ldp._SkeletonObjective(ADDITIVE, [0.0], SMALL_CFG)
    viol = ev.violation_fn(ADDITIVE, obj.x0, SMALL_CFG.n_steps)
    theta_star = qp_oracle(1.0, SMALL_CFG)[1]      # terminal state exactly a
    calls = []
    solve = obj.map_batch
    monkeypatch.setattr(obj, "map_batch",
                        lambda th, fn: calls.append(len(th)) or solve(th, fn))
    theta, residual = ldp._feasibility_polish(obj, viol, 0.9 * theta_star)
    # one call for the ladder, one per round, one for the final residual
    assert len(calls) == ldp._POLISH_ROUNDS + 2
    assert residual == 0.0
    assert solve(theta[None], viol)[0] <= 0.0
    assert solve((1.0 - 1e-9) * theta[None], viol)[0] > 0.0
    # no scale up to 1.05^8 rescues half the optimal control
    theta0 = 0.5 * theta_star
    theta, residual = ldp._feasibility_polish(obj, viol, theta0)
    assert np.array_equal(theta, theta0)
    assert residual == pytest.approx(0.5, rel=1e-9)


@pytest.mark.parametrize("event", [
    ldp.EventSpec("terminal_exceedance", a=0.5),
    ldp.EventSpec("sup_exceedance", a=0.5),
    ldp.EventSpec("terminal_target", y=0.5, r=0.1),
], ids=lambda ev: ev.kind)
def test_n_solves_counts_every_skeleton_row(monkeypatch, event):
    # count rows through every module attribute bound to solve_increments,
    # as a tracer that wraps the function from outside the package does
    rows = []
    solve = sde.solve_increments

    def counted(x0, coeffs, increments):
        rows.append(len(increments))
        return solve(x0, coeffs, increments)

    for name, module in list(sys.modules.items()):
        if name == "fbmld" or name.startswith("fbmld."):
            for attr, value in list(vars(module).items()):
                if value is solve:
                    monkeypatch.setattr(module, attr, counted)
    cfg = ldp.RateConfig(hurst=HURST, n_steps=32, n_ctrl=4, seed=3)
    res = ldp.rate_minimize(ADDITIVE, [0.0], event, cfg)
    assert res.feasible
    assert sum(rows) == res.diagnostics["n_solves"]


def test_rate_minimize_additive_oracle():
    ev = ldp.EventSpec("terminal_exceedance", a=1.0)
    res = ldp.rate_minimize(ADDITIVE, [0.0], ev, cfg=SMALL_CFG)
    val_star, theta_star = qp_oracle(1.0, SMALL_CFG)
    assert res.feasible
    assert res.residual <= ldp._FEASIBILITY_TOL
    assert abs(res.value - 0.5) <= 0.025
    assert abs(res.value - val_star) <= 0.01
    l2 = np.linalg.norm(res.block_values[:, 0] - theta_star) \
        / np.linalg.norm(theta_star)
    assert l2 <= 0.05
    assert res.value == pytest.approx(0.5 * cm.cm_norm(res.control) ** 2,
                                      rel=1e-12)


def test_rate_minimize_trivial_event_zero_control():
    ev = ldp.EventSpec("terminal_exceedance", a=0.0)
    res = ldp.rate_minimize(ADDITIVE, [0.0], ev, cfg=SMALL_CFG)
    assert res.feasible
    assert res.value == 0.0
    assert np.abs(res.block_values).max() == 0.0


def test_rate_minimize_quadratic_scaling():
    ev1 = ldp.EventSpec("terminal_exceedance", a=0.5)
    ev2 = ldp.EventSpec("terminal_exceedance", a=1.0)
    r1 = ldp.rate_minimize(ADDITIVE, [0.0], ev1, cfg=SMALL_CFG)
    r2 = ldp.rate_minimize(ADDITIVE, [0.0], ev2, cfg=SMALL_CFG)
    assert abs(r2.value / r1.value - 4.0) <= 0.4


def test_rate_minimize_richer_family_does_not_worsen():
    ev = ldp.EventSpec("terminal_exceedance", a=1.0)
    r8 = ldp.rate_minimize(ADDITIVE, [0.0], ev,
                           cfg=ldp.RateConfig(hurst=HURST, n_steps=128,
                                              n_ctrl=8, seed=3))
    r16 = ldp.rate_minimize(ADDITIVE, [0.0], ev, cfg=SMALL_CFG)
    assert r16.value <= r8.value * 1.02


def test_rate_minimize_infeasible_reports_inf():
    ev = ldp.EventSpec("terminal_target", y=1e6, r=1.0)
    cfg = ldp.RateConfig(hurst=HURST, n_steps=64, n_ctrl=8, seed=3)
    res = ldp.rate_minimize(ADDITIVE, [0.0], ev, cfg=cfg)
    assert not res.feasible
    assert res.value == math.inf
    assert res.residual > ldp._FEASIBILITY_TOL


def test_rate_minimize_nontrivial_coefficients_feasible():
    co = sde.get_coefficients("tanh")
    ev = ldp.EventSpec("terminal_exceedance", a=0.5)
    res = ldp.rate_minimize(co, [0.0], ev, cfg=SMALL_CFG)
    assert res.feasible
    assert 0.0 < res.value < 5.0


def test_rate_minimize_n_ctrl_override():
    ev = ldp.EventSpec("terminal_exceedance", a=1.0)
    res = ldp.rate_minimize(ADDITIVE, [0.0], ev,
                            cfg=dataclasses.replace(SMALL_CFG, n_ctrl=8))
    assert res.block_values.shape == (8, 1)


# ---------------------------------------------------------------------------
# multiplicative noise: geometric fBm against an exact discrete oracle
# ---------------------------------------------------------------------------

GEOMETRIC_LEVEL = 0.5          # the event X_1 >= x0 e^0.5 with x0 = 1
GEOMETRIC_GRIDS = [(64, 8), (128, 16), (256, 32)]


def geometric_oracle(cfg):
    """Discrete rate of X_1 >= e^level for dX = X dB^H, x0 = 1, by SLSQP.

    The Euler skeleton is X_n = prod_k (1 + dv_k) with dv = M theta, so the
    event is sum_k log(1 + (M theta)_k) >= level; the problem is smooth and
    settled independently of the penalty search.
    """
    M = ldp._block_increment_map(cfg.n_ctrl, cfg.n_steps, cfg.hurst)
    nc = cfg.n_ctrl
    res = optimize.minimize(
        lambda th: 0.5 * th @ th / nc, np.full(nc, GEOMETRIC_LEVEL / M.sum()),
        jac=lambda th: th / nc, method="SLSQP",
        options={"ftol": 1e-15, "maxiter": 1000},
        constraints=[{"type": "ineq",
                      "fun": lambda th: np.sum(np.log1p(M @ th)) - GEOMETRIC_LEVEL,
                      "jac": lambda th: M.T @ (1.0 / (1.0 + M @ th))}])
    assert res.success
    return res.fun


@pytest.fixture(scope="module")
def geometric_rates():
    """(rate_minimize value, oracle value) on each grid of GEOMETRIC_GRIDS."""
    co = sde.get_coefficients("linear_sigma")
    ev = ldp.EventSpec("terminal_exceedance", a=math.exp(GEOMETRIC_LEVEL))
    out = []
    for n, nc in GEOMETRIC_GRIDS:
        cfg = ldp.RateConfig(hurst=0.7, n_steps=n, n_ctrl=nc, seed=0)
        res = ldp.rate_minimize(co, [1.0], ev, cfg)
        assert res.feasible
        out.append((res.value, geometric_oracle(cfg)))
    return out


def test_geometric_rate_matches_the_discrete_oracle(geometric_rates):
    for value, oracle in geometric_rates:
        assert value == pytest.approx(oracle, rel=1e-8)


def test_geometric_rates_fall_toward_the_continuum_value(geometric_rates):
    # X_1 = x0 exp(B^H_1) in the continuum and Var B^H_1 = 1, so the rate
    # tends to level^2 / 2 = 0.125 from above as the grid refines
    values = [value for value, _ in geometric_rates]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] > GEOMETRIC_LEVEL ** 2 / 2


# ---------------------------------------------------------------------------
# laplace
# ---------------------------------------------------------------------------

def test_laplace_variational_trivial_functionals():
    h0 = ldp.get_functional("constant", level=0.0)
    assert ldp.laplace_variational(ADDITIVE, [0.0], h0, cfg=SMALL_CFG) == 0.0
    hc = ldp.get_functional("constant", level=0.7)
    assert ldp.laplace_variational(ADDITIVE, [0.0], hc,
                                   cfg=SMALL_CFG) == pytest.approx(0.7)


def test_laplace_variational_matches_scan_oracle():
    # additive case reduces to a 1-d problem: inf_z { h(z) + z^2/2 }
    zs = np.arange(-3.0, 3.0, 1e-4)
    for name in ("terminal_shortfall", "terminal_rise_capped"):
        h = ldp.get_functional(name)
        if name == "terminal_shortfall":
            hz = np.clip(1.0 - zs, 0.0, 1.0)
        else:
            hz = np.clip(zs, 0.0, 1.0)
        scan = float(np.min(hz + zs ** 2 / 2.0))
        val = ldp.laplace_variational(ADDITIVE, [0.0], h, cfg=SMALL_CFG)
        assert abs(val - scan) <= 0.01, name


def test_laplace_mc_constant_exact_and_guards():
    hc = ldp.get_functional("constant", level=0.7)
    r = ldp.laplace_mc(ADDITIVE, [0.0], hc, 0.3, 1000, seed=5,
                       hurst=HURST, n_steps=64)
    assert r.value == pytest.approx(0.7, abs=1e-12)
    assert r.std_err == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(DomainError):
        ldp.laplace_mc(ADDITIVE, [0.0], hc, 1.5, 1000, seed=5,
                       hurst=HURST, n_steps=64)
    with pytest.raises(DomainError):
        ldp.laplace_mc(ADDITIVE, [0.0], hc, 0.3, 10, seed=5,
                       hurst=HURST, n_steps=64)


def test_laplace_mc_sandwich_always():
    h = ldp.get_functional("terminal_shortfall")
    for eps in (1.0, 0.25, 0.05):
        r = ldp.laplace_mc(ADDITIVE, [0.0], h, eps, 1000, seed=8,
                           hurst=HURST, n_steps=64)
        assert h.inf_h <= r.value <= h.sup_h


def test_laplace_mc_deterministic():
    h = ldp.get_functional("terminal_shortfall")
    a = ldp.laplace_mc(ADDITIVE, [0.0], h, 0.25, 1000, seed=9,
                       hurst=HURST, n_steps=64)
    b = ldp.laplace_mc(ADDITIVE, [0.0], h, 0.25, 1000, seed=9,
                       hurst=HURST, n_steps=64)
    assert a.value == b.value and a.std_err == b.std_err


# ---------------------------------------------------------------------------
# is_probability and scaling_table
# ---------------------------------------------------------------------------

def test_is_probability_sure_event():
    # all samples hit once eps is small against the threshold, and the
    # zero-tilt weights are exactly one, so p_hat is exactly 1
    ev = ldp.EventSpec("terminal_exceedance", a=-1.0)
    est = ldp.is_probability(ADDITIVE, [0.0], ev, 0.01, 500,
                             seed=1, ctrl=cm.zero_control(HURST, 64),
                             hurst=HURST, n_steps=64)
    assert est.p_hat == 1.0
    assert est.std_err == pytest.approx(0.0, abs=1e-12)
    assert est.n_hits == 500


def test_is_probability_zero_hits_flagged():
    ev = ldp.EventSpec("terminal_exceedance", a=50.0)
    est = ldp.is_probability(ADDITIVE, [0.0], ev, 0.01, 300,
                             seed=1, ctrl=cm.zero_control(HURST, 64),
                             hurst=HURST, n_steps=64)
    assert est.flagged and est.p_hat == 0.0 and "tilt" in est.note


@pytest.mark.parametrize("tilt", [0.0, 0.5])
def test_is_probability_crude_matches_gaussian(tilt):
    # the exact discrete value: B^H_1 of the sampler is Gaussian with
    # variance sigma_n^2 = sum_j k(1, s_j)^2 / n, and IS is unbiased for it
    n, a, eps = 256, 0.5, 0.25
    ev = ldp.EventSpec("terminal_exceedance", a=a)
    ctrl = cm.control_from_cells(HURST, np.full((n, 1), tilt))
    est = ldp.is_probability(ADDITIVE, [0.0], ev, eps, 4000, seed=44,
                             ctrl=ctrl, hurst=HURST, n_steps=n)
    sigma_n = math.sqrt(float(np.sum(fbm.kernel_table(n, HURST)[n] ** 2)) / n)
    p_ref = 0.5 * math.erfc(a / (math.sqrt(eps) * sigma_n) / math.sqrt(2.0))
    assert abs(est.p_hat - p_ref) <= 3 * est.std_err


def test_tilt_is_girsanov_shift_of_sampled_increments():
    # the tilted driver is the sampler's own kernel product applied to the
    # Brownian increments shifted by vdot ds / sqrt(eps)
    n, eps, seed = 64, 0.25, 5
    ctrl = cm.control_from_cells(HURST, rng.stream(seed, 1).standard_normal(n))
    batch = fbm.sample_volterra(n, HURST, 1, 50, seed)
    inc = ctrl.path.increments()[None] \
        + math.sqrt(eps) * np.diff(batch.values, axis=1)
    states = sde.solve_increments(np.zeros(1), ADDITIVE, inc)
    shifted = batch.bm_increments[:, :, 0] \
        + ctrl.cell_values()[:, 0] / (n * math.sqrt(eps))
    want = math.sqrt(eps) * shifted @ fbm.kernel_table(n, HURST).T
    np.testing.assert_allclose(states[:, :, 0], want, rtol=0, atol=1e-12)


def test_is_probability_rejects_a_tilt_for_another_hurst():
    # a unit-density tilt built at H = 0.9 shifts paths sampled at H = 0.6
    # by the wrong kernel; p_hat was biased by ~75 standard errors
    n = 64
    ev = ldp.EventSpec("terminal_exceedance", a=1.0)
    tilt = cm.control_from_cells(0.9, np.ones((n, 1)))
    with pytest.raises(DomainError, match="hurst"):
        ldp.is_probability(ADDITIVE, [0.0], ev, 0.25, 4000, seed=1,
                           ctrl=tilt, hurst=HURST, n_steps=n)
    # the zero control tilts nothing, whatever hurst it was built for
    est = ldp.is_probability(ADDITIVE, [0.0], ev, 0.25, 100, seed=1,
                             ctrl=cm.zero_control(0.9, n), hurst=HURST,
                             n_steps=n)
    assert est.n_samples == 100


@pytest.mark.parametrize("eps", [0.0, -0.1])
def test_is_probability_rejects_nonpositive_eps(eps):
    ev = ldp.EventSpec("terminal_exceedance", a=0.5)
    with pytest.raises(DomainError, match="eps"):
        ldp.is_probability(ADDITIVE, [0.0], ev, eps, 100, seed=1,
                           ctrl=cm.zero_control(HURST, 64),
                           hurst=HURST, n_steps=64)


@pytest.mark.parametrize("n_samples", [0, -5])
def test_is_probability_rejects_fewer_than_one_sample(n_samples):
    ev = ldp.EventSpec("terminal_exceedance", a=0.5)
    with pytest.raises(DomainError, match="n_samples"):
        ldp.is_probability(ADDITIVE, [0.0], ev, 0.25, n_samples, seed=1,
                           ctrl=cm.zero_control(HURST, 64),
                           hurst=HURST, n_steps=64)


def test_is_probability_grid_mismatch():
    ev = ldp.EventSpec("terminal_exceedance", a=0.5)
    with pytest.raises(DimensionError):
        ldp.is_probability(ADDITIVE, [0.0], ev, 0.25, 100, seed=1,
                           ctrl=cm.zero_control(HURST, 32),
                           hurst=HURST, n_steps=64)


def test_is_probability_unpacks_as_pair():
    ev = ldp.EventSpec("terminal_exceedance", a=-1.0)
    p, se = ldp.is_probability(ADDITIVE, [0.0], ev, 0.01, 100, seed=1,
                               ctrl=cm.zero_control(HURST, 64),
                               hurst=HURST, n_steps=64)
    assert p == 1.0 and se == 0.0


def test_scaling_table_structure_and_determinism(monkeypatch):
    ev = ldp.EventSpec("terminal_exceedance", a=0.5)
    kwargs = dict(n_steps=128, cfg=SMALL_CFG)
    rows = ldp.scaling_table(ADDITIVE, [0.0], ev, [0.5, 0.25], 1000, 77,
                             **kwargs)
    rows2 = ldp.scaling_table(ADDITIVE, [0.0], ev, [0.5, 0.25], 1000, 77,
                              **kwargs)
    assert rows == rows2
    assert [r["eps"] for r in rows] == [0.5, 0.25]
    for r in rows:
        assert r["gap"] == pytest.approx(r["neg_eps_log_p"] - r["rate_value"])
    with pytest.raises(DomainError):
        ldp.scaling_table(ADDITIVE, [0.0], ev, [0.25, 0.5], 1000, 77,
                          **kwargs)
    with pytest.raises(DomainError, match="eps"):
        ldp.scaling_table(ADDITIVE, [0.0], ev, [0.5, -0.1], 1000, 77,
                          **kwargs)
    # rejected before the rate search, which this call must not reach
    monkeypatch.setattr(ldp, "rate_minimize", None)
    with pytest.raises(DomainError, match="n_samples"):
        ldp.scaling_table(ADDITIVE, [0.0], ev, [0.5, 0.25], 0, 77,
                          **kwargs)


# ---------------------------------------------------------------------------
# chunked estimators
# ---------------------------------------------------------------------------

N_CHUNKED = 2 * ldp._CHUNK + 17        # two full chunks and a ragged tail


def test_laplace_mc_chunked_matches_one_batch():
    n, eps, seed = 32, 0.25, 6
    h = ldp.get_functional("terminal_shortfall")
    r = ldp.laplace_mc(ADDITIVE, [0.0], h, eps, N_CHUNKED, seed,
                       hurst=HURST, n_steps=n)
    batch = fbm.sample_volterra(n, HURST, 1, N_CHUNKED, seed)
    states = sde.solve_increments(
        np.zeros(1), ADDITIVE, math.sqrt(eps) * np.diff(batch.values, axis=1))
    y = np.exp(-h.fn(states, np.zeros(1)) / eps)
    value = -eps * math.log(y.mean())
    std_err = eps * y.std() / (y.mean() * math.sqrt(N_CHUNKED))
    assert r.n_samples == N_CHUNKED
    assert r.value == pytest.approx(value, rel=1e-12)
    assert r.std_err == pytest.approx(std_err, rel=1e-9)


def test_is_probability_chunked_matches_one_batch():
    n, eps, seed = 32, 0.1, 8
    ev = ldp.EventSpec("terminal_exceedance", a=0.6)
    ctrl = cm.control_from_cells(HURST, np.full((n, 1), 0.4))
    est = ldp.is_probability(ADDITIVE, [0.0], ev, eps, N_CHUNKED, seed,
                             ctrl=ctrl, hurst=HURST, n_steps=n)
    batch = fbm.sample_volterra(n, HURST, 1, N_CHUNKED, seed)
    dv = ctrl.path.increments()
    inc = dv[None] + math.sqrt(eps) * np.diff(batch.values, axis=1)
    states = sde.solve_increments(np.zeros(1), ADDITIVE, inc)
    hits = ev.violation_fn(ADDITIVE, [0.0], n)(states) <= 0.0
    w, _ = ldp.girsanov_weight(ctrl, eps, batch.bm_increments)
    y = np.where(hits, w, 0.0)
    assert est.n_hits == int(hits.sum()) and 0 < est.n_hits < N_CHUNKED
    assert est.p_hat == pytest.approx(y.mean(), rel=1e-12)
    assert est.std_err == pytest.approx(y.std() / math.sqrt(N_CHUNKED),
                                        rel=1e-9)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_mc_core_rejects_nan_and_plus_inf_scores(bad):
    # -inf is a zero score; NaN or +inf in any chunk is a numeric failure
    def log_y(batch, states):
        out = np.zeros(len(states))
        out[-1] = bad
        return out

    with pytest.raises(NumericError):
        ldp._mc_log_mean(ADDITIVE, np.zeros(1), 0.25, ldp._CHUNK + 3, 1,
                         HURST, 16, log_y)


def _cells(n, d, seed=2):
    return 0.6 * rng.stream(seed, 1).standard_normal((n, d))


@pytest.mark.parametrize("tilted", [False, True], ids=["crude", "tilted"])
@pytest.mark.parametrize("name, m, d, params, x0", AFFINE_CASES,
                         ids=[case[0] for case in AFFINE_CASES])
def test_terminal_mc_states_match_full_states(name, m, d, params, x0,
                                              tilted):
    n, eps = 32, 0.25
    co = sde.get_coefficients(name, m=m, d=d, **params)
    dv = cm.control_from_cells(HURST, _cells(n, d)).path.increments() \
        if tilted else None
    seen = {True: [], False: []}
    for terminal, states in seen.items():
        ldp._mc_log_mean(
            co, np.asarray(x0, dtype=float), eps, ldp._CHUNK + 5, 4, HURST,
            n, lambda batch, s: states.append(s) or np.zeros(len(s)), dv,
            terminal)
    term, full = np.concatenate(seen[True]), np.concatenate(seen[False])
    assert term.shape == (ldp._CHUNK + 5, 1, m)
    np.testing.assert_allclose(term[:, 0], full[:, -1], rtol=0,
                               atol=1e-12 * np.abs(full).max())


@pytest.mark.parametrize("tilted", [False, True], ids=["crude", "tilted"])
@pytest.mark.parametrize("name, m, d, params, x0", AFFINE_CASES,
                         ids=[case[0] for case in AFFINE_CASES])
def test_terminal_estimators_match_full_route(monkeypatch, name, m, d,
                                              params, x0, tilted):
    # the full-state route is what every chunk takes when the terminal map
    # is unavailable
    n, eps, n_samples, seed = 32, 0.25, 1500, 6
    co = sde.get_coefficients(name, m=m, d=d, **params)
    # the zero family's states stay at x0: its event is sure, and p_hat is
    # the mean Girsanov weight
    ev = ldp.EventSpec("terminal_exceedance",
                       a=x0[0] + (0.0 if name == "zero" else 0.3))
    h = ldp.get_functional("terminal_shortfall")
    cells = _cells(n, d) if tilted else np.zeros((n, d))
    ctrl = cm.control_from_cells(HURST, cells)

    def run():
        est = ldp.is_probability(co, x0, ev, eps, n_samples, seed, ctrl,
                                 hurst=HURST, n_steps=n)
        lap = ldp.laplace_mc(co, x0, h, eps, n_samples, seed, hurst=HURST,
                             n_steps=n)
        return est, lap

    got = run()
    monkeypatch.setattr(ldp, "_affine_map", lambda *args: None)
    want = run()
    assert got[0].n_hits == want[0].n_hits
    assert 0 < got[0].n_hits < n_samples or name == "zero"
    for a, b in zip(got, want):
        assert tuple(a) == pytest.approx(tuple(b), rel=1e-12, abs=0)


@pytest.mark.parametrize("rate, eps", [(-40.0, 1.0), (-34.0, 64.0)],
                         ids=["map_overflows", "chunk_bound"])
def test_terminal_mc_overflow_names_the_euler_step(monkeypatch, rate, eps):
    # rate -40: the unit responses of the terminal map overflow, so every
    # chunk is solved in full; rate -34: the map builds, but the chunk's
    # bound reaches the limit.  Both raise the Euler loop's message.
    n = 64
    co = sde.get_coefficients("linear_drift", rate=rate, scale=1.0)
    ev = ldp.EventSpec("terminal_exceedance", a=1.0)
    ctrl = cm.zero_control(HURST, n)
    built = ldp._affine_map(co, np.zeros(1),
                            np.diff(fbm.kernel_table(n, HURST), axis=0), 1)
    assert (built is None) == (rate == -40.0)
    messages = []
    for full in (False, True):
        if full:
            monkeypatch.setattr(ldp, "_affine_map", lambda *a: None)
        with pytest.raises(NumericError, match="step") as err:
            ldp.is_probability(co, [0.0], ev, eps, 3000, seed=1, ctrl=ctrl,
                               hurst=HURST, n_steps=n)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_terminal_mc_chunks_over_the_bound_are_solved_in_full():
    # rate -32 at eps 64: the first chunk's bound reaches the limit and it
    # is solved in full, the second is not; neither overflows
    n = 64
    co = sde.get_coefficients("linear_drift", rate=-32.0, scale=1.0)
    widths = []
    ldp._mc_log_mean(co, np.zeros(1), 64.0, 3000, 1, HURST, n,
                     lambda batch, s: widths.append(s.shape[1])
                     or np.zeros(len(s)), terminal=True)
    assert widths == [n + 1, 1]


def test_terminal_mc_route_skips_the_synthesis(monkeypatch):
    calls = []
    synthesise = fbm._synthesise
    monkeypatch.setattr(fbm, "_synthesise",
                        lambda t, z: calls.append(1) or synthesise(t, z))
    ev = ldp.EventSpec("terminal_exceedance", a=0.5)
    est = ldp.is_probability(ADDITIVE, [0.0], ev, 0.25, 3000, seed=1,
                             ctrl=cm.zero_control(HURST, 64), hurst=HURST,
                             n_steps=64)
    assert est.n_hits > 0 and not calls


# (event, functional) pairs for the terminal route and the full-state route
ROUTES = {
    "terminal": (ldp.EventSpec("terminal_exceedance", a=0.5),
                 "terminal_shortfall"),
    "path": (ldp.EventSpec("sup_exceedance", a=0.5), "sup_norm_capped"),
}


def test_is_probability_memory_scales_with_chunk():
    # the unchunked estimator held four or more (P, n+1, d) arrays at once;
    # the chunked one must stay below the size of a single such array, on
    # the terminal route and on the full-state route alike
    n, n_paths = 128, 8 * ldp._CHUNK
    ctrl = cm.control_from_cells(HURST, np.full((n, 1), 0.5))
    fbm.kernel_table(n, HURST)                    # keep the cached build out
    for route, (ev, _) in ROUTES.items():
        tracemalloc.start()
        try:
            est = ldp.is_probability(ADDITIVE, [0.0], ev, 0.25, n_paths,
                                     seed=3, ctrl=ctrl, hurst=HURST,
                                     n_steps=n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.n_samples == n_paths and est.n_hits > 0, route
        assert peak < n_paths * (n + 1) * 1 * 8, (route, peak)


def test_estimators_hold_one_chunk_at_a_time():
    # one chunk's fBm values, Brownian increments, driver increments and
    # states are four (_CHUNK, n+1) arrays; any array kept from the previous
    # chunk while the next is drawn and solved pushes the peak past five
    n, n_paths = 128, 8 * ldp._CHUNK
    chunk_array = ldp._CHUNK * (n + 1) * 8
    ctrl = cm.control_from_cells(HURST, np.full((n, 1), 0.5))
    fbm.kernel_table(n, HURST)                    # keep the cached build out
    for route, (ev, functional) in ROUTES.items():
        h = ldp.get_functional(functional)
        runs = {
            "is_probability": lambda: ldp.is_probability(
                ADDITIVE, [0.0], ev, 0.25, n_paths, seed=3, ctrl=ctrl,
                hurst=HURST, n_steps=n),
            "laplace_mc": lambda: ldp.laplace_mc(
                ADDITIVE, [0.0], h, 0.25, n_paths, seed=3, hurst=HURST,
                n_steps=n),
        }
        for name, run in runs.items():
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4.5 * chunk_array, (route, name,
                                              peak / chunk_array)
