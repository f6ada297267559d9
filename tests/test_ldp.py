import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import optimize

from conftest import central_difference
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
        ldp.get_functional("first_passage", a=1.0)
    with pytest.raises(DomainError):
        ldp.get_functional("terminal_target", y=0.0, r=0.0)
    ldp.get_functional("terminal_exceedance", a=-1.0)  # trivially full is fine


def test_event_violations_semantics():
    states = np.zeros((2, 5, 1))
    states[0, -1, 0] = 2.0
    states[1, -1, 0] = 0.5
    v = ldp.get_functional("terminal_exceedance", a=1.0).bind(
        ADDITIVE, [0.0], 4)(states)[0]
    assert v[0] <= 0.0 < v[1]
    v = ldp.get_functional("terminal_target", y=2.0, r=0.25).bind(
        ADDITIVE, [0.0], 4)(states)[0]
    assert v[0] <= 0.0 < v[1]
    v = ldp.get_functional("sup_exceedance", a=1.0).bind(
        ADDITIVE, [0.0], 4)(states)[0]
    assert v[0] <= 0.0 < v[1]


def test_functionals_bounded_and_unknown():
    states = rng.stream(1, 0).standard_normal((50, 9, 1)) * 10
    for name in ldp.functional_names("functional"):
        h = ldp.get_functional(name)
        vals = h.bind(ADDITIVE, np.zeros(1), 8)(states)[0]
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


def test_functionals_reject_a_negative_cap():
    # h must stay inside its bounds [0, cap]; cap = 0 is h = 0
    states = rng.stream(1, 0).standard_normal((5, 9, 1))
    for name in ("sup_norm_capped", "terminal_rise_capped",
                 "terminal_shortfall"):
        for cap in (-1.0, -0.5, math.nan):
            with pytest.raises(DomainError, match="cap must be >= 0"):
                ldp.get_functional(name, cap=cap)
        h = ldp.get_functional(name, cap=0.0)
        assert (h.inf_h, h.sup_h) == (0.0, 0.0)
        assert not h.bind(ADDITIVE, [0.0], 8)(states)[0].any()


ROLE_MISTAKES = {
    "rate_minimize": lambda h: ldp.rate_minimize(ADDITIVE, [0.0], h, SMALL_CFG),
    "is_probability": lambda h: ldp.is_probability(
        ADDITIVE, [0.0], h, 0.5, 100, 3, cm.zero_control(HURST, 32),
        hurst=HURST, n_steps=32),
    "scaling_table": lambda h: ldp.scaling_table(
        ADDITIVE, [0.0], h, [0.5], 100, 3, n_steps=32, cfg=SMALL_CFG),
    "laplace_variational": lambda h: ldp.laplace_variational(
        ADDITIVE, [0.0], h, SMALL_CFG),
    "laplace_mc": lambda h: ldp.laplace_mc(
        ADDITIVE, [0.0], h, 0.5, 1000, 3, hurst=HURST, n_steps=32),
}


@pytest.mark.parametrize("call", sorted(ROLE_MISTAKES))
def test_searches_and_estimators_check_the_role(call):
    # an event's violation is no bounded h, and h <= 0 is no event
    wrong = "event" if call.startswith("laplace") else "functional"
    for name in ldp.functional_names(wrong):
        h = ldp.get_functional(name, **({"r": 0.1} if name == "terminal_target"
                                        else {}))
        with pytest.raises(DomainError, match=f"has role '{wrong}'"):
            ROLE_MISTAKES[call](h)


def test_terminal_target_needs_one_or_m_entries():
    co = sde.get_coefficients("rotation", m=2, d=2)
    cfg = ldp.RateConfig(hurst=0.75, n_steps=32, n_ctrl=4)
    ev = ldp.get_functional("terminal_target", y=[1.0, 0.5, 0.2], r=0.05)
    with pytest.raises(DimensionError, match="holds 3 entries"):
        ldp.rate_minimize(co, [0.0, 0.0], ev, cfg)
    with pytest.raises(DimensionError, match="holds 3 entries"):
        ev.bind(co, [0.0, 0.0], 4)(np.zeros((1, 5, 2)))
    for y in (1.0, [1.0, 0.5]):
        ev = ldp.get_functional("terminal_target", y=y, r=0.05)
        assert ev.bind(co, [0.0, 0.0], 4)(np.zeros((1, 5, 2)))[0][0] > 0.0


# ---------------------------------------------------------------------------
# girsanov weights
# ---------------------------------------------------------------------------

def test_girsanov_zero_control_weight_one():
    w, logw = ldp.girsanov_weight(cm.zero_control(HURST, 32), 0.5,
                                  np.zeros((3, 32, 1)))
    assert np.all(w == 1.0) and np.all(logw == 0.0)


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
    for shape in ((1, 16, 1), (1, 32, 2), (32, 1)):
        with pytest.raises(DimensionError):
            ldp.girsanov_weight(ctrl, 1.0, np.zeros(shape))
    with pytest.raises(DomainError):
        ldp.girsanov_weight(ctrl, 0.0, np.zeros((1, 32, 1)))


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
    assert ldp._block_path_map(n_ctrl, n_steps, 0.7).shape == \
        (n_steps + 1, n_ctrl)
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
    assert obj.drive.affine is not None
    thetas = rng.stream(5, 0).standard_normal((9, obj.n_params))
    got = obj.map_batch(thetas, lambda states: states)
    want = sde.solve_increments(x0, co, obj.drive.increments(thetas))
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
        sde.solve_increments(obj.x0, co, obj.drive.increments(thetas))
    assert messages == [str(err.value)] * 2


@pytest.mark.parametrize("terminal", [True, False], ids=["terminal", "full"])
def test_affine_map_build_overflow_takes_the_euler_route(terminal):
    # rate -42: the unit responses of the early blocks pass the guard, so
    # there is no map, and a batch the loop solves cleanly still gets solved
    cfg = ldp.RateConfig(hurst=0.7, n_steps=64, n_ctrl=8)
    co = sde.get_coefficients("linear_drift", rate=-42.0, scale=1.0)
    obj = ldp._SkeletonObjective(co, [0.0], cfg, terminal=terminal)
    assert obj.drive.affine is None
    thetas = 1e-3 * np.eye(obj.n_params)[3:4]
    got = obj.map_batch(thetas, lambda states: states)
    want = sde.solve_increments(obj.x0, co, obj.drive.increments(thetas))
    assert np.array_equal(got, want)


def test_event_and_functional_terminal_flags():
    assert ldp.get_functional("terminal_exceedance", a=1.0).terminal
    assert ldp.get_functional("terminal_target", y=1.0, r=0.1).terminal
    assert not ldp.get_functional("sup_exceedance", a=1.0).terminal
    flags = {name: ldp.get_functional(name).terminal
             for name in ldp.functional_names("functional")}
    assert flags == {"constant": True, "sup_norm_capped": False,
                     "terminal_rise_capped": True, "terminal_shortfall": True}


def test_terminal_entries_read_the_terminal_slice():
    # every registry entry that says it is terminal gives the same values
    # and c on full states (B, n+1, m) and on their terminal slice
    # (B, 1, m), at a step n further on in the full states
    n, co = 8, sde.get_coefficients("constant", m=2, d=2)
    states = 2.0 * rng.stream(4, 0).standard_normal((16, n + 1, 2))
    x0 = np.array([0.3, -0.2])
    valid = {"terminal_target": {"y": [0.5, -0.5], "r": 1.5}}
    checked = []
    for name in ldp.functional_names():
        entry = ldp.get_functional(name, **valid.get(name, {}))
        if not entry.terminal:
            continue
        g = entry.bind(co, x0, n)
        full, last = g(states), g(states[:, -1:])
        assert np.array_equal(full[0], last[0]), name
        assert np.array_equal(full[1], last[1] + n), name
        assert np.array_equal(full[2], last[2]), name
        checked.append(name)
    assert len(checked) == 5, checked


@pytest.mark.parametrize("name, m, d, params, x0", AFFINE_CASES,
                         ids=[case[0] for case in AFFINE_CASES])
def test_terminal_map_batch_matches_full_states(name, m, d, params, x0):
    # thetas @ G_T + x_T against the Euler solve of the same drivers, for
    # the raw terminal slice, a terminal event and a terminal functional
    cfg = ldp.RateConfig(hurst=0.7, n_steps=64, n_ctrl=8)
    co = sde.get_coefficients(name, m=m, d=d, **params)
    obj = ldp._SkeletonObjective(co, x0, cfg, terminal=True)
    assert obj.drive.affine[0].shape == (1, m)
    assert obj.drive.affine[2].shape == (obj.n_params, m)
    thetas = rng.stream(5, 0).standard_normal((9, obj.n_params))
    full = sde.solve_increments(x0, co, obj.drive.increments(thetas))
    atol = 1e-12 * np.abs(full).max()
    got = obj.map_batch(thetas, lambda states: states)
    assert got.shape == (9, 1, m)
    np.testing.assert_allclose(got, full[:, -1:], rtol=0, atol=atol)
    ev = ldp.get_functional("terminal_target", y=np.ones(m), r=0.5)
    viol = ev.bind(co, obj.x0, cfg.n_steps)
    h = ldp.get_functional("terminal_rise_capped", cap=5.0).bind(
        co, obj.x0, cfg.n_steps)
    for fn in (lambda states: viol(states)[0], lambda states: h(states)[0]):
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
    g_abs = obj.drive.affine[3]
    thetas = np.zeros((2, obj.n_params))
    thetas[1, 6] = 0.75 * sde._OVERFLOW_GUARD / g_abs[6]
    solves = obj.n_solves
    got = obj.map_batch(thetas, lambda states: states[:, -1])
    assert obj.n_solves == solves + 2
    want = sde.solve_increments(obj.x0, co,
                                obj.drive.increments(thetas))[:, -1]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("family", ["constant", "tanh"])
def test_n_evals_counts_map_batch_rows(monkeypatch, family):
    rows = []
    map_batch = ldp._SkeletonObjective.map_batch
    monkeypatch.setattr(
        ldp._SkeletonObjective, "map_batch",
        lambda self, th, fn: rows.append(len(th)) or map_batch(self, th, fn))
    co = sde.get_coefficients(family)
    cfg = ldp.RateConfig(hurst=HURST, n_steps=32, n_ctrl=4, seed=3)
    res = ldp.rate_minimize(
        co, [0.0], ldp.get_functional("terminal_exceedance", a=0.5), cfg)
    assert res.feasible
    assert sum(rows) == res.diagnostics["n_evals"]
    # the affine route solves its map once; the Euler route every row
    want = cfg.n_ctrl + 1 if co.affine else sum(rows)
    assert res.diagnostics["n_solves"] == want


def test_feasibility_polish_lands_on_the_constraint(monkeypatch):
    ev = ldp.get_functional("terminal_exceedance", a=1.0)
    obj = ldp._SkeletonObjective(ADDITIVE, [0.0], SMALL_CFG)
    viol = ev.bind(ADDITIVE, obj.x0, SMALL_CFG.n_steps)
    theta_star = qp_oracle(1.0, SMALL_CFG)[1]      # terminal state exactly a
    calls = []
    solve = obj.map_batch
    monkeypatch.setattr(obj, "map_batch",
                        lambda th, fn: calls.append(len(th)) or solve(th, fn))
    theta, residual = ldp._feasibility_polish(obj, viol, 0.9 * theta_star)
    # one call for the ladder, one per round, one for the final residual
    assert len(calls) == ldp._POLISH_ROUNDS + 2
    assert residual == 0.0
    assert solve(theta[None], viol)[0][0] <= 0.0
    assert solve((1.0 - 1e-9) * theta[None], viol)[0][0] > 0.0
    # no scale up to 1.05^8 rescues half the optimal control
    theta0 = 0.5 * theta_star
    theta, residual = ldp._feasibility_polish(obj, viol, theta0)
    assert np.array_equal(theta, theta0)
    assert residual == pytest.approx(0.5, rel=1e-9)


@pytest.mark.parametrize("event", [
    ldp.get_functional("terminal_exceedance", a=0.5),
    ldp.get_functional("sup_exceedance", a=0.5),
    ldp.get_functional("terminal_target", y=0.5, r=0.1),
], ids=lambda ev: ev.name)
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
    ev = ldp.get_functional("terminal_exceedance", a=1.0)
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
    ev = ldp.get_functional("terminal_exceedance", a=0.0)
    res = ldp.rate_minimize(ADDITIVE, [0.0], ev, cfg=SMALL_CFG)
    assert res.feasible
    assert res.value == 0.0
    assert np.abs(res.block_values).max() == 0.0


def test_rate_minimize_quadratic_scaling():
    ev1 = ldp.get_functional("terminal_exceedance", a=0.5)
    ev2 = ldp.get_functional("terminal_exceedance", a=1.0)
    r1 = ldp.rate_minimize(ADDITIVE, [0.0], ev1, cfg=SMALL_CFG)
    r2 = ldp.rate_minimize(ADDITIVE, [0.0], ev2, cfg=SMALL_CFG)
    assert abs(r2.value / r1.value - 4.0) <= 0.4


def test_rate_minimize_richer_family_does_not_worsen():
    ev = ldp.get_functional("terminal_exceedance", a=1.0)
    r8 = ldp.rate_minimize(ADDITIVE, [0.0], ev,
                           cfg=ldp.RateConfig(hurst=HURST, n_steps=128,
                                              n_ctrl=8, seed=3))
    r16 = ldp.rate_minimize(ADDITIVE, [0.0], ev, cfg=SMALL_CFG)
    assert r16.value <= r8.value * 1.02


def test_rate_minimize_infeasible_reports_inf():
    ev = ldp.get_functional("terminal_target", y=1e6, r=1.0)
    cfg = ldp.RateConfig(hurst=HURST, n_steps=64, n_ctrl=8, seed=3)
    res = ldp.rate_minimize(ADDITIVE, [0.0], ev, cfg=cfg)
    assert not res.feasible
    assert res.value == math.inf
    assert res.residual > ldp._FEASIBILITY_TOL


def test_rate_minimize_nontrivial_coefficients_feasible():
    co = sde.get_coefficients("tanh")
    ev = ldp.get_functional("terminal_exceedance", a=0.5)
    res = ldp.rate_minimize(co, [0.0], ev, cfg=SMALL_CFG)
    assert res.feasible
    assert 0.0 < res.value < 5.0


def test_rate_minimize_n_ctrl_override():
    ev = ldp.get_functional("terminal_exceedance", a=1.0)
    res = ldp.rate_minimize(ADDITIVE, [0.0], ev,
                            cfg=dataclasses.replace(SMALL_CFG, n_ctrl=8))
    assert res.block_values.shape == (8, 1)


# ---------------------------------------------------------------------------
# exact gradients
# ---------------------------------------------------------------------------

GRAD_CASES = AFFINE_CASES + [
    ("linear_drift", 3, 2, {"rate": -1.5, "scale": 0.9}, [0.2, 0.1, -0.3]),
    ("linear_sigma", 2, 2, {}, [1.0, 0.5]),
    ("tanh", 2, 2, {"drift_scale": 1.2, "sigma_scale": 0.6}, [0.2, -0.4]),
]
GRAD_IDS = ["zero", "constant", "linear_drift", "rotation", "linear_drift_m3",
            "linear_sigma", "tanh"]
GRAD_TARGETS = ["terminal_exceedance", "terminal_target", "sup_exceedance",
                "sup_norm_capped", "terminal_rise_capped",
                "terminal_shortfall", "constant"]
# each case on every route it has: the terminal map (terminal targets only)
# and the full map of an affine family, and the Euler route (the map forced
# to None) for every family with a drift_jac
GRAD_RUNS = [
    pytest.param(case, route, target, id=f"{case_id}-{route}-{target}")
    for case, case_id in zip(GRAD_CASES, GRAD_IDS)
    for route in ("terminal", "full", "euler")
    for target in GRAD_TARGETS
    if (sde.get_coefficients(case[0], m=case[1], d=case[2]).affine
        or route == "euler")
    and not (case[0] == "rotation" and route == "euler")
    and not (route == "terminal" and target.startswith("sup_"))]


def _gradient_target(name, co, x0, states, n_steps):
    """(g, margin) for the skeleton ``states`` (n+1, m).

    Events come in penalty form, as ``rate_minimize`` searches them, and
    functionals through ``fn_grad``; their parameters are set from the
    states so that g is smooth near theta, ``margin`` away from its nearest
    kink (a hinge, a clip, a norm at 0, or an argmax tie).
    """
    x1, rise = states[-1], states[-1, 0] - x0[0]
    if name in ldp.functional_names("event"):
        phi = sde.solve_increments(x0, co, np.zeros((1, n_steps, co.d)))[0]
        dev = np.sort(np.linalg.norm(states - phi, axis=1))
        event, margin = {
            "terminal_exceedance": (
                ldp.get_functional("terminal_exceedance", a=x1[0] + 1.0), 1.0),
            "terminal_target": (
                ldp.get_functional("terminal_target", y=x1 + 1.0, r=0.5), 0.5),
            "sup_exceedance": (
                ldp.get_functional("sup_exceedance", a=dev[-1] + 1.0),
                dev[-1] - dev[-2]),
        }[name]
        g = ldp._penalty(event.bind(co, x0, n_steps))
        return g, margin
    norms = np.sort(np.linalg.norm(states, axis=1))
    h, margin = {
        "sup_norm_capped": (dict(cap=norms[-1] + 1.0), norms[-1] - norms[-2]),
        "terminal_rise_capped": (dict(cap=abs(rise) + 1.0), abs(rise)),
        "terminal_shortfall": (dict(target=rise + 0.5, cap=1.0), 0.5),
        "constant": (dict(level=0.7), 1.0),
    }[name]
    return ldp.get_functional(name, **h).bind(co, x0, n_steps), margin


@pytest.mark.parametrize("case, route, target", GRAD_RUNS)
def test_exact_gradient_matches_central_differences(case, route, target):
    name, m, d, params, x0 = case
    cfg = ldp.RateConfig(hurst=0.7, n_steps=32, n_ctrl=4)
    co = sde.get_coefficients(name, m=m, d=d, **params)
    x0 = np.asarray(x0, dtype=float)
    theta = 0.6 * rng.stream(23, 0).standard_normal(cfg.n_ctrl * d)
    probe = ldp._SkeletonObjective(co, x0, cfg)
    states = sde.solve_increments(x0, co,
                                  probe.drive.increments(theta[None]))[0]
    g, margin = _gradient_target(target, co, x0, states, cfg.n_steps)
    # zero's states never move, so its kinks cannot be crossed
    assert name == "zero" or margin > 1e-3, margin
    obj = ldp._SkeletonObjective(co, x0, cfg, terminal=route == "terminal")
    if route == "euler":
        obj.drive.affine = None
    assert (obj.drive.affine is None) == (route == "euler")
    grad = obj.value_and_grad(theta, g, 3.0)[1]
    fd = central_difference(lambda th: obj.value_and_grad(th, g, 3.0)[0],
                            theta)
    assert np.abs(grad - fd).max() <= 1e-6 * np.abs(fd).max()


def test_gradient_of_the_affine_map_holds_over_the_bound():
    # a batch the bound sends to the Euler loop still takes its gradient
    # from the map's response at the terminal step
    cfg = ldp.RateConfig(hurst=0.7, n_steps=64, n_ctrl=8)
    co = sde.get_coefficients("rotation", m=2, d=2)
    obj = ldp._SkeletonObjective(co, [0.6, -0.2], cfg, terminal=True)
    theta = np.zeros(obj.n_params)
    theta[6] = 0.75 * sde._OVERFLOW_GUARD / obj.drive.affine[3][6]
    g = ldp._penalty(ldp.get_functional("terminal_target", y=[1.0, 0.5],
                                        r=0.05).bind(co, obj.x0, cfg.n_steps))
    solves = obj.n_solves
    value, grad = obj.value_and_grad(theta, g, 1.0)
    assert obj.n_solves == solves + 1
    states = sde.solve_increments(obj.x0, co,
                                  obj.drive.increments(theta[None]))
    v, _, c = g(states)
    resp = obj.drive.affine[2]
    assert value == 0.5 * obj.norm_sq(theta[None])[0] + v[0]
    np.testing.assert_allclose(grad, theta / cfg.n_ctrl + resp @ c[0],
                               rtol=1e-12)


def test_rotation_without_a_map_has_no_gradient():
    # rotation's drift mixes components: no drift_jac, so its gradient
    # needs the map, which a scale of 1e13 overflows in the build here
    cfg = ldp.RateConfig(hurst=0.7, n_steps=64, n_ctrl=8)
    co = sde.get_coefficients("rotation", m=2, d=2, scale=1e13)
    ev = ldp.get_functional("terminal_exceedance", a=1.0)
    assert ldp._SkeletonObjective(co, [0.0, 0.0], cfg).drive.affine is None
    with pytest.raises(NumericError, match="rotation.*no gradient"):
        ldp.rate_minimize(co, [0.0, 0.0], ev, cfg)


def test_kinks_take_the_interior_side():
    # a clip uses the unclipped branch on the closed interval [0, cap]
    x0 = np.zeros(1)
    cap = 0.5
    for name, slope, terminal_state in [
            ("terminal_shortfall", -1.0, lambda v: 1.0 - v),
            ("terminal_rise_capped", 1.0, lambda v: v)]:
        h = ldp.get_functional(name, cap=cap)
        # states whose clipped quantity sits at 0, at cap, and just outside
        for q, want in [(0.0, slope), (cap, slope), (-1e-12, 0.0),
                        (cap + 1e-12, 0.0)]:
            states = np.array([[[0.0], [terminal_state(q)]]])
            value, step, c = h.bind(ADDITIVE, x0, 1)(states)
            assert value[0] == np.clip(q, 0.0, cap) and step[0] == 1
            assert c[0, 0] == want, (name, q)
    h = ldp.get_functional("sup_norm_capped", cap=cap)
    for norm, want in [(cap, 1.0), (cap + 1e-12, 0.0), (0.0, 0.0)]:
        states = np.array([[[0.0, 0.0], [0.6 * norm, 0.8 * norm],
                            [0.0, 0.0]]])
        value, step, c = h.bind(ADDITIVE, x0, 2)(states)
        assert step[0] == (1 if norm else 0)      # a tie takes the first
        np.testing.assert_array_equal(c[0], [0.6 * want, 0.8 * want])
    # argmax ties and zero norms of the events
    ev = ldp.get_functional("sup_exceedance", a=1.0).bind(ADDITIVE, [0.0], 3)
    v, step, c = ev(np.array([[[0.0], [2.0], [-2.0], [2.0]]]))
    assert (v[0], step[0], c[0, 0]) == (-1.0, 1, -1.0)
    v, step, c = ev(np.zeros((1, 4, 1)))
    assert (v[0], step[0], c[0, 0]) == (1.0, 0, 0.0)
    ev = ldp.get_functional("terminal_target", y=[1.0, 2.0], r=0.5).bind(
        ADDITIVE, [0.0], 3)
    v, step, c = ev(np.array([[[1.0, 2.0]]]))
    assert (v[0], step[0]) == (-0.5, 0) and not c.any()


def test_zero_start_on_the_cap_moves_off_it():
    # the laplace_tanh problem's zero start has shortfall exactly cap; its
    # interior-side gradient pushes every block up, off the cap
    h = ldp.get_functional("terminal_shortfall", target=1.0)
    cfg = ldp.RateConfig(hurst=0.75, n_steps=64, n_ctrl=8)
    obj = ldp._SkeletonObjective(sde.get_coefficients("tanh"), [0.0], cfg,
                                 terminal=True)
    value, grad = obj.value_and_grad(
        np.zeros(obj.n_params), h.bind(obj.coeffs, obj.x0, cfg.n_steps), 1.0)
    assert value == 1.0 and np.all(grad < 0.0)


@pytest.mark.parametrize("n_steps", [256, 512])
def test_laplace_tanh_search_converges_from_every_start(n_steps):
    # on finite differences every start ended "ABNORMAL" at n = 512
    h = ldp.get_functional("terminal_shortfall", target=1.0)
    cfg = ldp.RateConfig(hurst=0.75, n_steps=n_steps, n_ctrl=32, seed=7)
    obj = ldp._SkeletonObjective(sde.get_coefficients("tanh"), [0.0], cfg,
                                 terminal=True)
    runs = ldp._descend(obj, h.bind(obj.coeffs, obj.x0, cfg.n_steps), (1.0,))
    assert [res.success for res, _ in runs] == [True] * 3, \
        [res.message for res, _ in runs]


def test_laplace_tanh_variational_value_holds():
    # the laplace_tanh benchmark problem, whose skeletons are one-row tanh
    # solves; the value the batched Euler loop gave for them
    h = ldp.get_functional("terminal_shortfall", target=1.0)
    cfg = ldp.RateConfig(hurst=0.75, n_steps=256, n_ctrl=32, seed=7)
    value = ldp.laplace_variational(sde.get_coefficients("tanh"), [0.0], h,
                                    cfg).value
    assert abs(value - 0.1453438596736661) <= 1e-12


def test_rate_starts_record_convergence():
    res = ldp.rate_minimize(ADDITIVE, [0.0],
                            ldp.get_functional("terminal_exceedance", a=1.0),
                            SMALL_CFG)
    for start in res.diagnostics["starts"]:
        assert start["converged"] is True
        assert start["message"].startswith("CONVERGENCE")


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
    M = np.diff(ldp._block_path_map(cfg.n_ctrl, cfg.n_steps, cfg.hurst),
                axis=0)
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
    ev = ldp.get_functional("terminal_exceedance", a=math.exp(GEOMETRIC_LEVEL))
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


GEOMETRIC_RATE_128 = 0.1265465     # the discrete rate on the 128/16 grid


@pytest.fixture(scope="module")
def geometric_scaling():
    """scaling_table rows of X_1 >= e^0.5 for dX = X dB^H at 128/16, and a
    crude (zero-control) estimate at eps 0.1 on its own seed."""
    co = sde.get_coefficients("linear_sigma")
    ev = ldp.get_functional("terminal_exceedance", a=math.exp(GEOMETRIC_LEVEL))
    cfg = ldp.RateConfig(hurst=0.7, n_steps=128, n_ctrl=16, seed=0)
    rows = ldp.scaling_table(co, [1.0], ev, [0.25, 0.1, 0.05], 20_000, 61,
                             n_steps=128, cfg=cfg)
    crude = ldp.is_probability(co, [1.0], ev, 0.1, 20_000, 62,
                               cm.zero_control(0.7, 128), hurst=0.7,
                               n_steps=128)
    return rows, crude


def test_geometric_tilt_agrees_with_crude_monte_carlo(geometric_scaling):
    rows, crude = geometric_scaling
    tilted = rows[1]
    assert tilted["eps"] == 0.1 and crude.n_hits > 500
    joint = math.hypot(crude.std_err, tilted["std_err"])
    assert abs(crude.p_hat - tilted["p_hat"]) <= 3.0 * joint


def test_geometric_scaling_falls_toward_the_rate(geometric_scaling):
    rows, _ = geometric_scaling
    assert rows[0]["rate_value"] == pytest.approx(GEOMETRIC_RATE_128,
                                                  rel=1e-6)
    neg = [r["neg_eps_log_p"] for r in rows]
    assert all(b < a for a, b in zip(neg, neg[1:])), neg
    assert all(v > r["rate_value"] for v, r in zip(neg, rows)), neg


# ---------------------------------------------------------------------------
# laplace
# ---------------------------------------------------------------------------

def test_laplace_variational_trivial_functionals():
    h0 = ldp.get_functional("constant", level=0.0)
    assert ldp.laplace_variational(ADDITIVE, [0.0], h0,
                                   cfg=SMALL_CFG).value == 0.0
    hc = ldp.get_functional("constant", level=0.7)
    assert ldp.laplace_variational(ADDITIVE, [0.0], hc,
                                   cfg=SMALL_CFG).value == pytest.approx(0.7)


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
        val = ldp.laplace_variational(ADDITIVE, [0.0], h, cfg=SMALL_CFG).value
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


def test_laplace_variational_returns_its_minimiser():
    h = ldp.get_functional("terminal_shortfall")
    res = ldp.laplace_variational(ADDITIVE, [0.0], h, SMALL_CFG)
    starts = res.diagnostics["starts"]
    assert [s["start"] for s in starts] == [0, 1, 2]
    assert res.value == min(s["value"] for s in starts)
    assert all(s["converged"] and s["message"] and s["iterations"] > 0
               for s in starts)
    assert res.block_values.shape == (SMALL_CFG.n_ctrl, 1)
    # the value is the objective at the control it returns
    terminal = sde.skeleton([0.0], ADDITIVE, res.control).path.values[-1]
    objective = h.bind(ADDITIVE, [0.0], SMALL_CFG.n_steps)(
        terminal[None, None])[0][0] + 0.5 * cm.cm_norm(res.control) ** 2
    assert objective == pytest.approx(res.value, abs=1e-9)


def test_laplace_variational_records_non_convergence(monkeypatch):
    # pytest turns warnings into errors: the search must emit none
    monkeypatch.setattr(ldp, "_MAXITER", 1)
    h = ldp.get_functional("terminal_shortfall")
    res = ldp.laplace_variational(ADDITIVE, [0.0], h, SMALL_CFG)
    starts = res.diagnostics["starts"]
    assert len(starts) == 3
    for s in starts:
        assert s["converged"] is False and s["iterations"] == 1
        assert isinstance(s["message"], str) and s["message"]
    assert res.value == min(s["value"] for s in starts)


# The additive criterion-10 problem: X_1 = sqrt(eps) B^H_1 on the grid, so
# X_1 ~ N(0, eps sigma_n^2) with sigma_n^2 = sum_j K[n, j]^2 / n, and the
# Laplace value is a one-dimensional integral.
ORACLE_N, ORACLE_HURST = 256, 0.6
ORACLE_H = ldp.get_functional("terminal_shortfall", target=1.0, cap=1.0)


def _exact_laplace(eps):
    from scipy import integrate, special

    k = fbm.kernel_table(ORACLE_N, ORACLE_HURST)[ORACLE_N]
    sd = math.sqrt(eps * float(np.sum(k ** 2)) / ORACLE_N)
    # h = 1 below 0, 1 - x on [0, 1] and 0 above 1
    mid, _ = integrate.quad(
        lambda x: math.exp(-(1.0 - x) / eps - 0.5 * (x / sd) ** 2)
        / (sd * math.sqrt(2.0 * math.pi)), 0.0, 1.0, epsabs=0.0,
        epsrel=1e-12)
    mean = 0.5 * math.exp(-1.0 / eps) + mid \
        + 0.5 * special.erfc(1.0 / (sd * math.sqrt(2.0)))
    return -eps * math.log(mean)


def test_exact_laplace_oracle_values():
    got = [_exact_laplace(eps) for eps in (0.5, 0.2, 0.1, 0.05)]
    assert got == pytest.approx([0.599828, 0.576389, 0.548093, 0.526882],
                                abs=1e-6)


ORACLE_EPS = (0.5, 0.2, 0.1, 0.05)


def _oracle_mc(eps, ctrl):
    return ldp.laplace_mc(ADDITIVE, [0.0], ORACLE_H, eps, 10_000,
                          rng.mix64(18, ORACLE_EPS.index(eps)), ctrl,
                          hurst=ORACLE_HURST, n_steps=ORACLE_N)


def test_crude_laplace_mc_matches_the_exact_additive_value():
    # crude Monte Carlo is itself a rare-event estimator at small eps: at
    # 0.05 a handful of the 10k paths carry the mean, its delta-method
    # error bar means nothing, and the health fields say so
    for eps in (0.5, 0.2):
        r = _oracle_mc(eps, None)
        assert abs(r.value - _exact_laplace(eps)) <= 3.0 * r.std_err, (eps, r)
        assert r.ess > 500.0, (eps, r)
    r = _oracle_mc(0.05, None)
    assert r.ess < 100.0 and r.max_weight_share > 0.1, r


def test_tilted_laplace_mc_matches_the_exact_additive_value():
    ctrl = ldp.laplace_variational(ADDITIVE, [0.0], ORACLE_H, ldp.RateConfig(
        hurst=ORACLE_HURST, n_steps=ORACLE_N, n_ctrl=16, seed=3)).control
    assert np.any(ctrl.cell_values())
    for eps in (0.5, 0.05):
        r = _oracle_mc(eps, ctrl)
        assert abs(r.value - _exact_laplace(eps)) <= 3.0 * r.std_err, (eps, r)
        assert r.ess > 500.0, (eps, r)


@pytest.mark.parametrize("family, n", [("constant", 64), ("tanh", 32)],
                         ids=["terminal_route", "euler_route"])
def test_laplace_mc_zero_control_is_the_crude_estimator(family, n):
    co = sde.get_coefficients(family)
    h = ldp.get_functional("terminal_shortfall")
    crude = ldp.laplace_mc(co, [0.0], h, 0.25, 1500, 9, hurst=HURST,
                           n_steps=n)
    zero = ldp.laplace_mc(co, [0.0], h, 0.25, 1500, 9,
                          cm.zero_control(HURST, n), hurst=HURST, n_steps=n)
    assert [float(v).hex() for v in dataclasses.astuple(zero)] == \
        [float(v).hex() for v in dataclasses.astuple(crude)]


def test_laplace_mc_checks_the_tilt():
    h = ldp.get_functional("terminal_shortfall")
    with pytest.raises(DimensionError, match="grid"):
        ldp.laplace_mc(ADDITIVE, [0.0], h, 0.5, 1000, 3,
                       cm.zero_control(HURST, 16), hurst=HURST, n_steps=32)
    tilt = cm.control_from_cells(0.7, np.full((32, 1), 0.5))
    with pytest.raises(DomainError, match="hurst"):
        ldp.laplace_mc(ADDITIVE, [0.0], h, 0.5, 1000, 3, tilt, hurst=HURST,
                       n_steps=32)


def test_health_fields_flag_a_mis_aimed_tilt():
    # the laplace_tanh benchmark problem at its smoke-test size: the
    # negated minimiser pushes the paths away from where e^(-h/eps) is
    # large, so fewer weights carry the mean
    co = sde.get_coefficients("tanh")
    h = ldp.get_functional("terminal_shortfall", target=1.0)
    cfg = ldp.RateConfig(hurst=0.75, n_steps=64, n_ctrl=8, seed=7)
    aimed = ldp.laplace_variational(co, [0.0], h, cfg)
    wrong = ldp.control_from_blocks(-aimed.block_values.ravel(), cfg, 1)
    for i, eps in enumerate((0.5, 0.2, 0.1)):
        got = {name: ldp.laplace_mc(co, [0.0], h, eps, 2000,
                                    rng.mix64(7, i), ctrl, hurst=0.75,
                                    n_steps=64)
               for name, ctrl in (("aimed", aimed.control),
                                  ("wrong", wrong))}
        assert got["wrong"].ess < got["aimed"].ess, eps
        assert got["wrong"].max_weight_share > \
            got["aimed"].max_weight_share, eps
        for r in got.values():
            assert r.n_hits == 2000 and 1.0 <= r.ess <= 2000.0
            assert 1.0 / 2000 <= r.max_weight_share <= 1.0


# ---------------------------------------------------------------------------
# is_probability and scaling_table
# ---------------------------------------------------------------------------

def test_is_probability_sure_event():
    # all samples hit once eps is small against the threshold, and the
    # zero-tilt weights are exactly one, so p_hat is exactly 1
    ev = ldp.get_functional("terminal_exceedance", a=-1.0)
    est = ldp.is_probability(ADDITIVE, [0.0], ev, 0.01, 500,
                             seed=1, ctrl=cm.zero_control(HURST, 64),
                             hurst=HURST, n_steps=64)
    assert est.p_hat == 1.0
    assert est.std_err == pytest.approx(0.0, abs=1e-12)
    assert est.n_hits == 500
    assert est.ess == pytest.approx(500.0, rel=1e-12)
    assert est.max_weight_share == pytest.approx(1.0 / 500, rel=1e-12)


def test_is_probability_zero_hits_flagged():
    ev = ldp.get_functional("terminal_exceedance", a=50.0)
    est = ldp.is_probability(ADDITIVE, [0.0], ev, 0.01, 300,
                             seed=1, ctrl=cm.zero_control(HURST, 64),
                             hurst=HURST, n_steps=64)
    assert est.flagged and est.p_hat == 0.0 and "tilt" in est.note


@pytest.mark.parametrize("tilt", [0.0, 0.5])
def test_is_probability_crude_matches_gaussian(tilt):
    # the exact discrete value: B^H_1 of the sampler is Gaussian with
    # variance sigma_n^2 = sum_j k(1, s_j)^2 / n, and IS is unbiased for it
    n, a, eps = 256, 0.5, 0.25
    ev = ldp.get_functional("terminal_exceedance", a=a)
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
    ev = ldp.get_functional("terminal_exceedance", a=1.0)
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
    ev = ldp.get_functional("terminal_exceedance", a=0.5)
    with pytest.raises(DomainError, match="eps"):
        ldp.is_probability(ADDITIVE, [0.0], ev, eps, 100, seed=1,
                           ctrl=cm.zero_control(HURST, 64),
                           hurst=HURST, n_steps=64)


@pytest.mark.parametrize("n_samples", [0, -5])
def test_is_probability_rejects_fewer_than_one_sample(n_samples):
    ev = ldp.get_functional("terminal_exceedance", a=0.5)
    with pytest.raises(DomainError, match="n_samples"):
        ldp.is_probability(ADDITIVE, [0.0], ev, 0.25, n_samples, seed=1,
                           ctrl=cm.zero_control(HURST, 64),
                           hurst=HURST, n_steps=64)


def test_is_probability_grid_mismatch():
    ev = ldp.get_functional("terminal_exceedance", a=0.5)
    with pytest.raises(DimensionError):
        ldp.is_probability(ADDITIVE, [0.0], ev, 0.25, 100, seed=1,
                           ctrl=cm.zero_control(HURST, 32),
                           hurst=HURST, n_steps=64)


def test_scaling_table_structure_and_determinism(monkeypatch):
    ev = ldp.get_functional("terminal_exceedance", a=0.5)
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


def test_scaling_table_builds_one_monte_carlo_response_map(monkeypatch):
    # one build for the search's block map, one for the three eps rows
    builds = []
    affine_map = ldp._affine_map
    monkeypatch.setattr(ldp, "_affine_map",
                        lambda *args: builds.append(args[2].shape)
                        or affine_map(*args))
    ldp._mc_drive.cache_clear()
    ev = ldp.get_functional("terminal_exceedance", a=0.5)
    cfg = ldp.RateConfig(hurst=HURST, n_steps=64, n_ctrl=8, seed=3)
    rows = ldp.scaling_table(ADDITIVE, [0.0], ev, [0.5, 0.25, 0.1], 1000, 4,
                             n_steps=64, cfg=cfg)
    assert builds == [(64, 8), (64, 64)]
    info = ldp._mc_drive.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    for r in rows:
        assert 1.0 <= r["ess"] <= 1000.0 and 0.0 < r["max_weight_share"] < 1.0


def test_monte_carlo_drive_is_the_callers_coefficient_set():
    # the drive cache keys on the set itself: ADDITIVE with its noise
    # doubled and its params unchanged is no registry build, and is sampled
    # with its own diffusion, not with the drive of ADDITIVE
    doubled = dataclasses.replace(ADDITIVE, diffusion=lambda t, x: 2.0)
    h = ldp.get_functional("terminal_shortfall")
    base, got, want = [
        ldp.laplace_mc(co, [0.0], h, 0.25, 1000, 3, hurst=HURST, n_steps=32)
        for co in (ADDITIVE, doubled,
                   sde.get_coefficients("constant", scale=2.0))]
    assert got.value == pytest.approx(want.value, rel=1e-12)
    assert got.value != pytest.approx(base.value, rel=1e-3)


# ---------------------------------------------------------------------------
# chunked estimators
# ---------------------------------------------------------------------------

N_CHUNKED = 2 * ldp._CHUNK + 17        # two full chunks and a ragged tail


def test_laplace_mc_chunked_matches_one_batch():
    # crude on the additive family, and tilted on tanh, whose chunks take
    # the Euler loop with the Brownian increments shifted by the tilt
    n, eps, seed = 32, 0.25, 6
    h = ldp.get_functional("terminal_shortfall")
    batch = fbm.sample_volterra(n, HURST, 1, N_CHUNKED, seed)
    tilt = cm.control_from_cells(HURST, _cells(n, 1))
    for co, ctrl in [(ADDITIVE, None), (sde.get_coefficients("tanh"), tilt)]:
        r = ldp.laplace_mc(co, [0.0], h, eps, N_CHUNKED, seed, ctrl,
                           hurst=HURST, n_steps=n)
        inc = math.sqrt(eps) * np.diff(batch.values, axis=1)
        w = 1.0
        if ctrl is not None:
            inc += ctrl.path.increments()
            w = ldp.girsanov_weight(ctrl, eps, batch.bm_increments)[0]
        states = sde.solve_increments(np.zeros(1), co, inc)
        y = np.exp(-h.bind(co, np.zeros(1), n)(states)[0] / eps) * w
        value = -eps * math.log(y.mean())
        std_err = eps * y.std() / (y.mean() * math.sqrt(N_CHUNKED))
        assert r.n_samples == N_CHUNKED
        assert r.value == pytest.approx(value, rel=1e-12), co.name
        assert r.std_err == pytest.approx(std_err, rel=1e-9), co.name


def test_is_probability_chunked_matches_one_batch():
    n, eps, seed = 32, 0.1, 8
    ev = ldp.get_functional("terminal_exceedance", a=0.6)
    ctrl = cm.control_from_cells(HURST, np.full((n, 1), 0.4))
    est = ldp.is_probability(ADDITIVE, [0.0], ev, eps, N_CHUNKED, seed,
                             ctrl=ctrl, hurst=HURST, n_steps=n)
    batch = fbm.sample_volterra(n, HURST, 1, N_CHUNKED, seed)
    dv = ctrl.path.increments()
    inc = dv[None] + math.sqrt(eps) * np.diff(batch.values, axis=1)
    states = sde.solve_increments(np.zeros(1), ADDITIVE, inc)
    hits = ev.bind(ADDITIVE, [0.0], n)(states)[0] <= 0.0
    w, _ = ldp.girsanov_weight(ctrl, eps, batch.bm_increments)
    y = np.where(hits, w, 0.0)
    assert est.n_hits == int(hits.sum()) and 0 < est.n_hits < N_CHUNKED
    assert est.p_hat == pytest.approx(y.mean(), rel=1e-12)
    assert est.std_err == pytest.approx(y.std() / math.sqrt(N_CHUNKED),
                                        rel=1e-9)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_mc_core_rejects_nan_and_plus_inf_scores(bad):
    # -inf is a zero score; NaN or +inf in any chunk is a numeric failure
    def log_y(states):
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
    ctrl = cm.control_from_cells(HURST, _cells(n, d)) if tilted else None
    seen = {True: [], False: []}
    for terminal, states in seen.items():
        ldp._mc_log_mean(
            co, np.asarray(x0, dtype=float), eps, ldp._CHUNK + 5, 4, HURST,
            n, lambda s: states.append(s) or np.zeros(len(s)), ctrl,
            terminal)
    term, full = np.concatenate(seen[True]), np.concatenate(seen[False])
    assert term.shape == (ldp._CHUNK + 5, 1, m)
    np.testing.assert_allclose(term[:, 0], full[:, -1], rtol=0,
                               atol=1e-12 * np.abs(full).max())


@pytest.fixture
def without_affine_map(monkeypatch):
    """A call that makes the affine-map builder fail from then on, as an
    overflowing build does; the Monte Carlo drives are dropped then and at
    teardown, so none built with or before the patch serves a later run."""
    def patch():
        monkeypatch.setattr(ldp, "_affine_map", lambda *args: None)
        ldp._mc_drive.cache_clear()

    yield patch
    ldp._mc_drive.cache_clear()


@pytest.mark.parametrize("tilted", [False, True], ids=["crude", "tilted"])
@pytest.mark.parametrize("name, m, d, params, x0", AFFINE_CASES,
                         ids=[case[0] for case in AFFINE_CASES])
def test_terminal_estimators_match_full_route(without_affine_map, name, m,
                                              d, params, x0, tilted):
    # the full-state route is what every chunk takes when the terminal map
    # is unavailable
    n, eps, n_samples, seed = 32, 0.25, 1500, 6
    co = sde.get_coefficients(name, m=m, d=d, **params)
    # the zero family's states stay at x0: its event is sure, and p_hat is
    # the mean Girsanov weight
    ev = ldp.get_functional("terminal_exceedance",
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
    without_affine_map()
    want = run()
    assert got[0].n_hits == want[0].n_hits
    assert 0 < got[0].n_hits < n_samples or name == "zero"
    for attr, a, b in zip(("p_hat", "value"), got, want):
        assert (getattr(a, attr), a.std_err) == pytest.approx(
            (getattr(b, attr), b.std_err), rel=1e-12, abs=0)


@pytest.mark.parametrize("rate, eps", [(-40.0, 1.0), (-34.0, 64.0)],
                         ids=["map_overflows", "chunk_bound"])
def test_terminal_mc_overflow_names_the_euler_step(without_affine_map, rate,
                                                   eps):
    # rate -40: the unit responses of the terminal map overflow, so every
    # chunk is solved in full; rate -34: the map builds, but the chunk's
    # bound reaches the limit.  Both raise the Euler loop's message.
    n = 64
    co = sde.get_coefficients("linear_drift", rate=rate, scale=1.0)
    ev = ldp.get_functional("terminal_exceedance", a=1.0)
    ctrl = cm.zero_control(HURST, n)
    built = ldp._affine_map(co, np.zeros(1),
                            np.diff(fbm.kernel_table(n, HURST), axis=0), 1)
    assert (built is None) == (rate == -40.0)
    messages = []
    for full in (False, True):
        if full:
            without_affine_map()
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
                     lambda s: widths.append(s.shape[1])
                     or np.zeros(len(s)), terminal=True)
    assert widths == [n + 1, 1]


def test_terminal_mc_route_skips_the_synthesis(monkeypatch):
    calls = []
    synthesise = fbm._synthesise
    monkeypatch.setattr(fbm, "_synthesise",
                        lambda t, z: calls.append(1) or synthesise(t, z))
    ev = ldp.get_functional("terminal_exceedance", a=0.5)
    est = ldp.is_probability(ADDITIVE, [0.0], ev, 0.25, 3000, seed=1,
                             ctrl=cm.zero_control(HURST, 64), hurst=HURST,
                             n_steps=64)
    assert est.n_hits > 0 and not calls


# (event, functional) pairs for the terminal route and the full-state route
ROUTES = {
    "terminal": (ldp.get_functional("terminal_exceedance", a=0.5),
                 "terminal_shortfall"),
    "path": (ldp.get_functional("sup_exceedance", a=0.5), "sup_norm_capped"),
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
