import dataclasses
import math
import warnings

import numpy as np
import pytest

from conftest import central_difference
from fbmld import cmspace as cm
from fbmld import fbm, rng, sde
from fbmld.errors import DimensionError, DomainError, NumericError
from fbmld.gridfn import GridFn


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_registry_lists_built_in_families():
    names = sde.registry_names()
    for expected in ("zero", "constant", "linear_drift", "linear_sigma",
                     "tanh", "rotation"):
        assert expected in names
    with pytest.raises(DomainError):
        sde.get_coefficients("heston")


def test_registry_rejects_unread_parameters():
    with pytest.raises(DomainError, match="scael"):
        sde.get_coefficients("constant", scael=3.0)
    for name in ("zero", "linear_sigma"):
        with pytest.raises(DomainError, match="scale"):
            sde.get_coefficients(name, scale=1.0)
    co = sde.get_coefficients("constant", scale=3.0)
    assert co.params == {"scale": 3.0, "drift_const": 0.0}


@pytest.mark.parametrize("name,kwargs", [
    ("zero", {}),
    ("constant", {}),
    ("linear_drift", {"rate": 2.0}),
    ("linear_sigma", {}),
    ("tanh", {}),
    ("rotation", {"m": 2, "d": 2}),
])
def test_registry_lipschitz_metadata_spot_check(name, kwargs):
    # finite-difference probe: |b(t,x)-b(t,y)| <= 1.01 L |x-y| on random pairs
    m = kwargs.pop("m", 1)
    d = kwargs.pop("d", 1)
    co = sde.get_coefficients(name, m=m, d=d, **kwargs)
    gen = rng.stream(13, 0)
    for _ in range(50):
        t = gen.uniform()
        x = gen.standard_normal((1, m)) * 3
        y = gen.standard_normal((1, m)) * 3
        bgap = np.linalg.norm(co.drift(t, x) - co.drift(t, y))
        sgap = np.linalg.norm(co.diffusion(t, x) - co.diffusion(t, y))
        gap = np.linalg.norm(x - y)
        assert bgap <= 1.01 * co.lipschitz_drift * gap + 1e-12
        assert sgap <= 1.01 * co.lipschitz_sigma * gap + 1e-12


@pytest.mark.parametrize("name, m, d, kwargs", [
    ("zero", 1, 1, {}),
    ("constant", 1, 1, {"scale": 1.3, "drift_const": 0.4}),
    ("linear_drift", 2, 3, {"rate": 2.0, "scale": 0.7}),
    ("linear_sigma", 2, 2, {}),
    ("tanh", 2, 2, {"drift_scale": 1.2, "sigma_scale": 0.6}),
])
def test_registry_jacobians_match_central_differences(name, m, d, kwargs):
    # drift_jac and diffusion_jac are the diagonal of each Jacobian, shaped
    # like drift and diffusion; the off-diagonal entries are 0
    co = sde.get_coefficients(name, m=m, d=d, **kwargs)
    gen = rng.stream(17, 0)
    for _ in range(20):
        x = gen.standard_normal(m) * 3
        for fn, jac in ((co.drift, co.drift_jac),
                        (co.diffusion, co.diffusion_jac)):
            got = jac(0.0, x[None])
            assert np.shape(got) == np.shape(fn(0.0, x[None]))
            diag = np.broadcast_to(got, (1, m))[0]
            for i in range(m):
                fd = central_difference(
                    lambda z: np.broadcast_to(fn(0.0, z[None]), (1, m))[0, i],
                    x)
                np.testing.assert_allclose(fd, np.eye(m)[i] * diag[i],
                                           rtol=1e-6, atol=1e-8)


def test_rotation_drift_mixes_components_and_has_no_jacobian():
    co = sde.get_coefficients("rotation", m=2, d=2, omega=1.5)
    assert co.drift_jac is None and co.diffusion_jac is None
    fd = central_difference(lambda z: co.drift(0.0, z[None])[0, 0],
                            np.array([0.3, -0.7]))
    np.testing.assert_allclose(fd, [0.0, -1.5], atol=1e-8)


def test_affine_flag_marks_affine_drift_and_state_free_sigma():
    flags = {name: sde.get_coefficients(name, m=2, d=2).affine
             for name in sde.registry_names()}
    assert flags == {"zero": True, "constant": True, "linear_drift": True,
                     "rotation": True, "tanh": False, "linear_sigma": False}


def test_admissible_alpha_interval():
    co = sde.get_coefficients("tanh")
    lo, hi = co.admissible_alpha(0.75)
    assert lo == 0.25 and hi == 0.5


# ---------------------------------------------------------------------------
# solver closed forms
# ---------------------------------------------------------------------------

def test_ode_exponential_decay():
    n = 512
    co = sde.get_coefficients("linear_drift", rate=1.0, scale=0.0)
    sol = sde.solve_young([1.0], co, GridFn.zeros(n, 1))
    assert abs(sol.values[-1, 0] - math.exp(-1.0)) <= 2.0 / n


def test_additive_telescopes_exactly():
    n = 256
    co = sde.get_coefficients("constant")
    g = GridFn.from_callable(lambda t: np.sin(3 * t) + 0.2 * t, n)
    sol = sde.solve_young([0.5], co, g)
    ref = 0.5 + g.values - g.values[0]
    assert np.abs(sol.values - ref).max() <= 1e-12


def test_geometric_young_chain_rule():
    co = sde.get_coefficients("linear_sigma")
    errs = []
    for n in (2048, 4096):
        g = GridFn.from_callable(lambda t: np.sin(2 * np.pi * t), n)
        sol = sde.solve_young([1.0], co, g)
        ref = math.exp(g.values[-1, 0] - g.values[0, 0])
        errs.append(abs(sol.values[-1, 0] - ref) / ref)
    assert errs[-1] <= 5e-3
    assert 0.4 <= errs[1] / errs[0] <= 0.6


def test_driver_grid_mismatch():
    co = sde.get_coefficients("constant")
    with pytest.raises(DimensionError):
        sde.solve_young([0.0], co, GridFn.zeros(64, 2))


def test_overflow_guard_reports_step():
    co = sde.get_coefficients("linear_sigma")
    g = GridFn.from_callable(lambda t: 200.0 * t, 64)
    with pytest.raises(NumericError, match="step"):
        sde.solve_young([1.0], co, g)


def _sigma_matrix(co, x):
    """sigma(x) of a registry family as its full (batch, m, d) matrix."""
    batch, m, d = x.shape[0], co.m, co.d
    if co.name == "zero":
        return np.zeros((1, m, d))
    if co.name in ("constant", "linear_drift", "rotation"):
        return co.params["scale"] * np.eye(m, d)[None]
    if co.name == "linear_sigma":
        diag = x
    else:
        diag = co.params["sigma_base"] + co.params["sigma_scale"] * np.tanh(x)
    out = np.zeros((batch, m, d))
    out[:, np.arange(m), np.arange(m)] = diag
    return out


def _matrix_euler(x0, co, increments):
    """Euler loop with a matrix-valued sigma, stepped by np.matmul."""
    n_paths, n, _ = increments.shape
    dt = 1.0 / n
    out = np.empty((n_paths, n + 1, co.m))
    x = np.broadcast_to(np.asarray(x0, dtype=float), (n_paths, co.m)).copy()
    out[:, 0] = x
    for k in range(n):
        step = co.drift(k * dt, x) * dt
        step = step + np.matmul(_sigma_matrix(co, x),
                                increments[:, k, :, None])[:, :, 0]
        x = x + step
        out[:, k + 1] = x
    return out


@pytest.mark.parametrize("name,m,d,params", [
    ("zero", 1, 1, {}),
    ("constant", 1, 1, {"scale": 1.3, "drift_const": 0.4}),
    ("linear_drift", 1, 1, {"rate": 2.0, "scale": 0.7}),
    ("linear_sigma", 1, 1, {}),
    ("tanh", 1, 1, {}),
    ("rotation", 2, 2, {"omega": 1.5, "scale": 0.8}),   # rotation needs m = 2
    ("tanh", 2, 2, {"sigma_scale": 0.9}),
    ("tanh", 3, 3, {}),
    ("linear_sigma", 2, 2, {}),
    ("linear_sigma", 3, 3, {}),
    ("constant", 3, 1, {"scale": 1.3, "drift_const": 0.4}),   # m > d
    ("rotation", 2, 1, {"omega": 1.5, "scale": 0.8}),
    ("constant", 1, 2, {"scale": 1.3, "drift_const": 0.4}),   # d > m
    ("linear_drift", 2, 3, {"rate": 2.0, "scale": 0.7}),
])
def test_diagonal_diffusion_matches_matrix_euler(name, m, d, params):
    # the registry returns sigma's diagonal; the full eye(m, d)-embedded
    # matrix stepped by matmul must give bitwise the same states
    co = sde.get_coefficients(name, m=m, d=d, **params)
    x0 = np.linspace(0.3, 0.9, m)
    inc = 0.3 * rng.stream(29, 0).standard_normal((5, 64, d))
    states = sde.solve_increments(x0, co, inc)
    np.testing.assert_array_equal(states, _matrix_euler(x0, co, inc))


def test_state_free_cumsum_overflow_names_the_loop_step():
    co = sde.get_coefficients("constant", scale=1.0, drift_const=0.5)
    # a nonzero Lipschitz constant sends the same coefficients to the loop
    loop = dataclasses.replace(co, lipschitz_drift=1.0)
    inc = np.zeros((3, 64, 1))
    inc[1, 20, 0] = 3e12                      # the state leaves at step 21
    messages = []
    for coeffs in (co, loop):
        with pytest.raises(NumericError, match="step 21") as err:
            sde.solve_increments([0.0], coeffs, inc)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("name, m", [("linear_sigma", 1), ("rotation", 2),
                                     ("tanh", 1)])
def test_diverging_loop_batch_names_the_first_step(name, m):
    # increments of +-1e80 from step 10 take one row past the guard at step
    # 11; the loop runs on (linear_sigma's states reach inf, then NaN)
    # without a warning, and the one check after it names step 11.  The
    # diverging row alone takes the scalar one-row route when m = 1.
    co = sde.get_coefficients(name, m=m, d=m)
    inc = np.zeros((2, 64, m))
    inc[1, 10:] = 1e80 * (-1.0) ** np.arange(54)[:, None]
    for batch in (inc, inc[1:]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="at step 11$"):
                sde.solve_increments(np.ones(m), co, batch)


# every registry family with m = d = 1, with parameters
SCALAR_FAMILIES = {
    "zero": {},
    "constant": {"scale": 1.3, "drift_const": 0.4},
    "linear_drift": {"rate": 2.0, "scale": 0.7},
    "linear_sigma": {},
    "tanh": {"drift_scale": 0.8, "sigma_scale": 0.9},
}


@pytest.mark.parametrize("name", list(SCALAR_FAMILIES))
def test_one_row_matches_its_row_in_a_batch(name):
    # m = d = 1: a state-dependent family solves one row in Python floats
    # and a batch by the batched loop; both keep x + (b dt + s dg)
    co = sde.get_coefficients(name, **SCALAR_FAMILIES[name])
    inc = 0.3 * rng.stream(31, 0).standard_normal((3, 256, 1))
    batch = sde.solve_increments([0.4], co, inc)
    for i in range(len(inc)):
        row = sde.solve_increments([0.4], co, inc[i:i + 1])
        assert row.shape == (1, 257, 1)
        assert np.abs(row[0] - batch[i]).max() <= 1e-14
        np.testing.assert_array_equal(row[0], batch[i])


# ---------------------------------------------------------------------------
# skeleton / controlled reductions
# ---------------------------------------------------------------------------

@pytest.fixture
def control_75():
    return cm.control_from_callable(lambda s: np.cos(np.pi * s), 256, 0.75)


def test_zero_control_skeleton_solves_ode(control_75):
    n, hurst = 256, 0.75
    co = sde.get_coefficients("linear_drift", rate=1.0, scale=1.0, d=1)
    sol = sde.skeleton([1.0], co, cm.zero_control(hurst, n))
    t = sol.times
    assert np.abs(sol.values[:, 0] - np.exp(-t)).max() <= 2.0 / n


def test_skeleton_additive_shifts_by_control_path(control_75):
    co = sde.get_coefficients("constant")
    sol = sde.skeleton([0.3], co, control_75)
    ref = 0.3 + fbm.kernel_table(256, 0.75) @ control_75.cells / 256
    assert np.abs(sol.values - ref).max() <= 1e-12


def test_eps_zero_reduction_bitwise(control_75):
    co = sde.get_coefficients("tanh")
    fpath = fbm.sample_volterra(256, 0.75, 1, 1, seed=3).path(0)
    sk = sde.skeleton([0.1], co, control_75)
    cp = sde.controlled_path([0.1], co, control_75, 0.0, fpath)
    np.testing.assert_array_equal(sk.values, cp.values)


def test_zero_control_reduction_bitwise(control_75):
    co = sde.get_coefficients("tanh")
    fpath = fbm.sample_volterra(256, 0.75, 1, 1, seed=3).path(0)
    zero = cm.zero_control(0.75, 256)
    cp = sde.controlled_path([0.1], co, zero, 0.3, fpath)
    sn = sde.solve_increments([0.1], co,
                              math.sqrt(0.3) * fpath.increments()[None])[0]
    np.testing.assert_array_equal(cp.values, sn)


def test_controlled_additive_closed_form(control_75):
    co = sde.get_coefficients("constant")
    fpath = fbm.sample_volterra(256, 0.75, 1, 1, seed=4).path(0)
    eps = 0.36
    cp = sde.controlled_path([0.0], co, control_75, eps, fpath)
    ref = control_75.path.values + math.sqrt(eps) * fpath.values
    assert np.abs(cp.values - ref).max() <= 1e-12


def test_skeleton_lipschitz_in_control():
    # sup-distance of skeletons controlled by the control-space distance,
    # with a stable constant across shrinking perturbations
    n, hurst = 256, 0.75
    co = sde.get_coefficients("tanh")
    base = cm.control_from_callable(lambda s: np.sin(2 * np.pi * s), n, hurst)
    bump = rng.stream(71, 0).standard_normal((n, 1))
    bump /= math.sqrt(float(np.sum(bump ** 2)) / n)
    ratios = []
    sol0 = sde.skeleton([0.2], co, base)
    for delta in (0.1, 0.05, 0.025):
        pert = cm.CmControl(hurst,
                                     base.cells + delta * bump)
        sol1 = sde.skeleton([0.2], co, pert)
        gap = np.abs(sol1.values - sol0.values).max()
        ratios.append(gap / delta)
    assert max(ratios) <= 2.0 * min(ratios)


# ---------------------------------------------------------------------------
# norm reports
# ---------------------------------------------------------------------------

def test_norm_report_values_and_rejections():
    hurst = 0.75
    co = sde.get_coefficients("linear_sigma")
    g = fbm.sample_cholesky(256, hurst, 1, 1, seed=9).path(0)
    sol = sde.solve_young([1.0], co, g)
    rep = sde.norm_report(sol, 0.35, 0.05, co, hurst=hurst, driver=g)
    assert rep.solution.sup_norm > 0
    assert rep.driver_holder is not None and rep.driver_holder > 0
    for alpha, delta in [(0.5, 0.05), (0.25, 0.01), (0.2, 0.01),
                         (0.35, 0.2), (0.35, 0.0)]:
        with pytest.raises(DomainError):
            sde.norm_report(sol, alpha, delta, co, hurst=hurst)


def test_solution_holder_norm_stable_under_refinement():
    # numerical echo of (1-alpha)-Holder continuity of solutions
    hurst, alpha = 0.75, 0.35
    co = sde.get_coefficients("tanh")
    vals = {}
    for n in (256, 512):
        g = fbm.sample_cholesky(512, hurst, 1, 1, seed=31).path(0)
        if n != 512:
            g = GridFn(n, g.values[:: 512 // n])
        sol = sde.solve_young([0.2], co, g)
        vals[n] = sde.norm_report(sol, alpha, 0.05, co,
                                  hurst=hurst).solution.holder_norm
    assert abs(vals[512] - vals[256]) <= 0.1 * vals[256]

