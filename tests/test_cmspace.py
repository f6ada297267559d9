import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmld import cmspace as cm
from fbmld import fracops as fo
from fbmld import rng
from fbmld.errors import DimensionError, DomainError


def random_control(seed, n=256, hurst=0.75, dim=1, scale=1.0):
    cells = scale * rng.stream(seed, 0).standard_normal((n, dim))
    return cm.control_from_cells(hurst, cells)


# ---------------------------------------------------------------------------
# apply_kh
# ---------------------------------------------------------------------------

def test_apply_kh_zero_density():
    ctrl = cm.zero_control(0.75, 64)
    assert np.abs(ctrl.path.values).max() == 0.0


def test_apply_kh_brownian_case_is_cumulative_integral():
    n = 128
    ctrl = cm.control_from_callable(lambda s: 1.5 * np.ones_like(s), n, 0.5)
    v = cm.apply_kh(ctrl.density, 0.5)
    assert np.abs(v.values[:, 0] - 1.5 * v.times).max() <= 1.0 / n


def test_apply_kh_routes_agree():
    n, hurst = 512, 0.75
    ctrl = cm.control_from_callable(lambda s: np.cos(2 * np.pi * s), n, hurst)
    v_kernel = cm.apply_kh(ctrl.density, hurst)
    v_comp = cm._apply_kh_composition(ctrl.density, hurst)
    assert np.abs(v_kernel.values - v_comp.values).max() <= 5e-3


def test_apply_kh_composition_needs_high_hurst():
    ctrl = cm.zero_control(0.4, 32)
    with pytest.raises(DomainError):
        cm._apply_kh_composition(ctrl.density, 0.4)


def test_path_starts_at_zero_and_obeys_growth_bound():
    ctrl = random_control(41, n=256, hurst=0.8)
    path = ctrl.path
    assert np.all(path.values[0] == 0.0)
    bound = path.times ** 0.8 * cm.cm_norm(ctrl) + 1e-2
    assert np.all(np.abs(path.values[:, 0]) <= bound)


# ---------------------------------------------------------------------------
# cm_norm
# ---------------------------------------------------------------------------

def test_cm_norm_unit_density():
    assert cm.cm_norm(cm.control_from_cells(0.75, np.ones(64))) == 1.0


def test_cm_norm_two_components():
    ctrl = cm.control_from_cells(0.75, np.ones((64, 2)))
    assert cm.cm_norm(ctrl) == pytest.approx(math.sqrt(2.0), rel=1e-15)


@settings(max_examples=25, deadline=None)
@given(st.one_of(st.just(0.0), st.floats(1e-6, 10), st.floats(-10, -1e-6)))
def test_cm_norm_absolute_homogeneity(c):
    ctrl = random_control(42, n=64)
    scaled = cm.control_from_cells(ctrl.hurst, c * ctrl.cell_values())
    assert cm.cm_norm(scaled) == pytest.approx(abs(c) * cm.cm_norm(ctrl),
                                               rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------

def test_project_endpoints():
    ctrl = random_control(43)
    np.testing.assert_array_equal(cm.project(ctrl, 1.0).cell_values(),
                                  ctrl.cell_values())
    assert np.abs(cm.project(ctrl, 0.0).cell_values()).max() == 0.0


def test_project_idempotent_and_contractive():
    ctrl = random_control(44)
    once = cm.project(ctrl, 0.37)
    twice = cm.project(once, 0.37)
    np.testing.assert_array_equal(once.cell_values(), twice.cell_values())
    assert cm.cm_norm(once) <= cm.cm_norm(ctrl)
    # equality iff nothing is truncated
    assert cm.cm_norm(cm.project(ctrl, 1.0)) == cm.cm_norm(ctrl)
    assert cm.cm_norm(once) < cm.cm_norm(ctrl)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_project_family_monotone(s, t):
    s, t = min(s, t), max(s, t)
    ctrl = random_control(45, n=64)
    via_t = cm.project(cm.project(ctrl, t), s)
    direct = cm.project(ctrl, s)
    np.testing.assert_array_equal(via_t.cell_values(), direct.cell_values())


# ---------------------------------------------------------------------------
# composition route (the independent cross-check of the kernel route)
# ---------------------------------------------------------------------------

def test_composition_route_zero():
    ctrl = cm.zero_control(0.75, 64)
    v = cm._apply_kh_composition(ctrl.density, 0.75)
    assert np.abs(v.values).max() == 0.0


@settings(max_examples=15, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3))
def test_composition_route_linear_exactly(a, b):
    c1 = random_control(46, n=64)
    c2 = random_control(47, n=64)
    combo = cm.control_from_cells(
        0.75, a * c1.cell_values() + b * c2.cell_values())
    comp = lambda c: cm._apply_kh_composition(c.density, 0.75).values
    np.testing.assert_allclose(comp(combo), a * comp(c1) + b * comp(c2),
                               rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# embedding and injectivity
# ---------------------------------------------------------------------------

def test_holder_embedding_on_random_controls():
    hurst = 0.75
    worst_holder, worst_sup = 0.0, 0.0
    for i in range(30):
        cells = rng.stream(48, i).standard_normal(256)
        ctrl = cm.control_from_cells(hurst, cells)
        nrm = cm.cm_norm(ctrl)
        rep = fo.norms(ctrl.path, hurst, 0.35)
        worst_holder = max(worst_holder, rep.holder_norm / nrm)
        worst_sup = max(worst_sup, rep.sup_norm / nrm)
    assert worst_holder <= 1.05
    assert worst_sup <= 1.05


def test_discrete_injectivity_contrapositive():
    # paths agreeing to 1e-10 force densities agreeing to 1e-8: checked via
    # the contrapositive on perturbed pairs, plus the exact-equality case
    base = random_control(49, n=128)
    for i, scale in enumerate((1e-2, 1e-4)):
        bump = rng.stream(50, i).standard_normal((128, 1)) * scale
        other = cm.control_from_cells(base.hurst, base.cell_values() + bump)
        norm_gap = cm.cm_norm(
            cm.control_from_cells(base.hurst,
                                  base.cell_values() - other.cell_values()))
        path_gap = np.abs(base.path.values - other.path.values).max()
        if norm_gap > 1e-8:
            assert path_gap > 1e-10
    twin = cm.control_from_cells(base.hurst, base.cell_values())
    assert np.abs(base.path.values - twin.path.values).max() == 0.0


# ---------------------------------------------------------------------------
# CSV interface
# ---------------------------------------------------------------------------

def test_control_csv_roundtrip():
    ctrl = random_control(51, n=32, dim=2)
    buf = io.StringIO()
    cm.export_control_csv(ctrl, buf)
    buf.seek(0)
    back = cm.import_control_csv(buf)
    assert back.hurst == ctrl.hurst
    np.testing.assert_array_equal(back.cell_values(), ctrl.cell_values())


def test_control_csv_rejects_foreign_files():
    with pytest.raises(DomainError):
        cm.import_control_csv(io.StringIO("x,y\n1,2\n"))


def _control_file(meta: str, rows: str) -> io.StringIO:
    return io.StringIO(f"# fbmld-control v1\n# {meta}\ns_mid,vdot_c0\n{rows}")


def test_control_csv_checks_columns_against_dim():
    rows = "0.25,1.0\n0.75,2.0\n"
    back = cm.import_control_csv(_control_file("hurst=0.75 n_steps=2 dim=1", rows))
    np.testing.assert_array_equal(back.cell_values()[:, 0], [1.0, 2.0])
    with pytest.raises(DimensionError, match="dim=2"):
        cm.import_control_csv(_control_file("hurst=0.75 n_steps=2 dim=2", rows))


@pytest.mark.parametrize("meta", [
    "n_steps=2 dim=1",                       # no hurst
    "hurst=0.75 dim=1",                      # no n_steps
    "hurst=0.75 n_steps=2",                  # no dim
    "hurst=0.75 n_steps=four dim=1",
    "hurst=high n_steps=2 dim=1",
    "hurst=0.75 n_steps=2 dim",
])
def test_control_csv_rejects_bad_header_fields(meta):
    with pytest.raises(DomainError, match="header"):
        cm.import_control_csv(_control_file(meta, "0.25,1.0\n0.75,2.0\n"))
