import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmld import fbm
from fbmld import fracops as fo
from fbmld.errors import DimensionError, DomainError, NumericError
from fbmld.gridfn import GridFn

from conftest import random_gridfn


def grid_const(c, n=512, dim=1):
    return GridFn(n, np.full((n + 1, dim), float(c)))


# ---------------------------------------------------------------------------
# gauss_2f1
# ---------------------------------------------------------------------------

def series_2f1(a, b, c, z, terms=200):
    """Independent plain-series oracle, only valid for |z| < 1."""
    total, term = 1.0, 1.0
    for k in range(terms):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        total += term
    return total


def test_2f1_at_zero_is_one():
    assert fo.gauss_2f1(0.25, -0.25, 1.25, 0.0) == 1.0


def test_2f1_zero_parameter_is_one():
    assert fo.gauss_2f1(0.0, 2.3, 1.7, 0.45) == 1.0


def test_2f1_log_identity_at_minus_one():
    # oracle: F(1,1,2;z) = -log(1-z)/z, cross-checked by the direct series
    # at z = 1/2 before trusting it at the Pfaff-mapped point z = -1
    assert abs(series_2f1(1, 1, 2, 0.5) - (-math.log(0.5) / 0.5)) < 1e-12
    ln2 = math.log(2.0)
    assert abs(fo.gauss_2f1(1.0, 1.0, 2.0, -1.0) - ln2) <= 1e-15 * ln2


@pytest.mark.parametrize("hurst", [0.3, 0.55, 0.75, 0.95])
def test_f21_series_matches_mpmath_on_the_kernel_parameters(hurst):
    # the kernel's near set (H-1/2, 2H, H+1/2) and tail set (1, 1/2-H, 2-2H)
    # on the series argument range [0, 1/2] the kernel uses
    x = np.linspace(0.0, 0.5, 101)
    for a, b, c in [(hurst - 0.5, 2.0 * hurst, hurst + 0.5),
                    (1.0, 0.5 - hurst, 2.0 - 2.0 * hurst)]:
        got = fo._f21_series(a, b, c, x)
        with mpmath.workdps(40):
            want = np.array([float(mpmath.hyp2f1(a, b, c, xi)) for xi in x])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_2f1_symmetric_in_a_b():
    # exact at the series level (the terms are symmetric in a and b); the
    # Pfaff branch for z < 0 breaks the symmetry of the computation, not of
    # the value, so only rounding separates the two there
    for a, b, c, z in [(0.7, 1.1, 2.2, 0.4), (0.25, -0.25, 1.25, 0.5)]:
        assert fo.gauss_2f1(a, b, c, z) == fo.gauss_2f1(b, a, c, z)
    for a, b, c, z in [(0.25, -0.25, 1.25, -3.0), (-0.3, 0.9, 0.6, -17.0)]:
        assert fo.gauss_2f1(a, b, c, z) == pytest.approx(
            fo.gauss_2f1(b, a, c, z), rel=1e-12)


def test_2f1_domain_errors():
    with pytest.raises(DomainError):
        fo.gauss_2f1(0.5, 0.5, 0.0, 0.1)
    with pytest.raises(DomainError):
        fo.gauss_2f1(0.5, 0.5, -2.0, 0.1)
    with pytest.raises(DomainError):
        fo.gauss_2f1(0.5, 0.5, 1.0, 0.75)


def test_2f1_term_cap_raises_numeric_error():
    # z -> z/(z-1) lands within 1e-9 of 1, beyond the 100 000-term cap
    with pytest.raises(NumericError):
        fo.gauss_2f1(0.25, -0.25, 1.25, -1e9)


@settings(max_examples=30, deadline=None)
@given(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9), st.floats(0.6, 3.0),
       st.floats(-20.0, 0.5))
def test_2f1_matches_plain_series_in_radius(a, b, c, z):
    got = fo.gauss_2f1(a, b, c, z)
    if -0.6 < z <= 0.5:
        assert got == pytest.approx(series_2f1(a, b, c, z), rel=1e-10, abs=1e-12)
    assert np.isfinite(got)


# ---------------------------------------------------------------------------
# frac_integral
# ---------------------------------------------------------------------------

def test_frac_integral_order_one_is_integration():
    f = grid_const(1.0, n=512)
    out = fo.frac_integral(f, 1.0, "left")
    assert np.abs(out.values[:, 0] - f.times).max() <= 1.0 / 512


def test_frac_integral_half_order_closed_form():
    n = 512
    f = grid_const(1.0, n=n)
    out = fo.frac_integral(f, 0.5, "left")
    ref = f.times ** 0.5 / math.gamma(1.5)     # t^alpha / Gamma(alpha+1)
    assert np.abs(out.values[:, 0] - ref).max() <= 2e-3


def test_frac_integral_left_vanishes_at_zero_right_at_one():
    f = random_gridfn(3, 128)
    left = fo.frac_integral(f, 0.6, "left")
    right = fo.frac_integral(f, 0.6, "right")
    assert left.values[0, 0] == 0.0
    assert right.values[-1, 0] == 0.0


@settings(max_examples=20, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3))
def test_frac_integral_linear_exactly(a, b):
    f1 = random_gridfn(11, 64)
    f2 = random_gridfn(12, 64)
    combo = fo.frac_integral(a * f1 + b * f2, 0.4, "left")
    parts = a * fo.frac_integral(f1, 0.4, "left") + \
        b * fo.frac_integral(f2, 0.4, "left")
    np.testing.assert_allclose(combo.values, parts.values, rtol=0, atol=1e-12)


def test_frac_integral_alpha_range():
    f = grid_const(1.0, n=16)
    for bad in (0.0, 1.5, -0.2):
        with pytest.raises(DomainError):
            fo.frac_integral(f, bad, "left")
    with pytest.raises(DomainError):
        fo.frac_integral(f, 0.5, "middle")


# ---------------------------------------------------------------------------
# weyl_derivative
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("offset", [0.0, 0.5])
@pytest.mark.parametrize("power", [0.1, 0.3, 0.55, 0.8, 1.0])
def test_cell_moments_sum_to_the_exact_integral(power, offset):
    # lags 1..k cover [0, t_k], and tau = t_k + offset dt
    n = 64
    partial = np.cumsum(fo._cell_moments(n, power, offset))
    k = np.arange(n + 1)
    exact = (((k + offset) / n) ** power - (offset / n) ** power) / power
    assert partial[0] == 0.0
    np.testing.assert_allclose(partial[1:], exact[1:], rtol=1e-12, atol=0.0)


def test_weyl_constant_closed_form():
    n, alpha, c = 512, 0.3, 2.5
    f = grid_const(c, n=n)
    out = fo.weyl_derivative(f, alpha, "left")
    t = f.times[1:]
    ref = c * t ** (-alpha) / math.gamma(1.0 - alpha)
    rel = np.abs(out.values[1:, 0] - ref) / np.abs(ref)
    assert rel.max() <= 1e-2


def test_weyl_zero_function_is_zero():
    f = GridFn.zeros(64)
    for side in ("left", "right"):
        assert np.abs(fo.weyl_derivative(f, 0.45, side).values).max() == 0.0


def test_weyl_roundtrip_inverts_frac_integral():
    n, alpha = 1024, 0.4
    f = GridFn.from_callable(lambda t: np.sin(2 * np.pi * t), n)
    rt = fo.weyl_derivative(fo.frac_integral(f, alpha, "left"), alpha, "left")
    flag = fo.flagged_node("left", n)
    keep = np.arange(n + 1) != flag
    assert np.abs(rt.values[keep, 0] - f.values[keep, 0]).max() <= 5e-2


def test_weyl_roundtrip_error_shrinks_with_refinement():
    alpha = 0.4
    errs = []
    for n in (256, 512, 1024):
        f = GridFn.from_callable(lambda t: np.sin(2 * np.pi * t), n)
        rt = fo.weyl_derivative(fo.frac_integral(f, alpha, "left"), alpha, "left")
        errs.append(np.abs(rt.values[1:, 0] - f.values[1:, 0]).max())
    assert errs[1] / errs[0] <= 0.75
    assert errs[2] / errs[1] <= 0.75


def test_weyl_flagged_nodes_are_continuations():
    f = random_gridfn(5, 64)
    left = fo.weyl_derivative(f, 0.3, "left")
    right = fo.weyl_derivative(f, 0.3, "right")
    assert left.values[0, 0] == left.values[1, 0]
    assert right.values[-1, 0] == right.values[-2, 0]
    assert fo.flagged_node("left", 64) == 0
    assert fo.flagged_node("right", 64) == 64


def test_weyl_alpha_range():
    f = grid_const(1.0, n=16)
    for bad in (0.0, 1.0, -0.1):
        with pytest.raises(DomainError):
            fo.weyl_derivative(f, bad, "left")


# ---------------------------------------------------------------------------
# young_rs
# ---------------------------------------------------------------------------

def test_young_rs_constant_integrand_telescopes():
    # telescoping is exact in exact arithmetic; cumulative summation leaves
    # rounding at the last-bit level
    g = random_gridfn(21, 256)
    out = fo.young_rs(grid_const(1.0, 256), g)
    np.testing.assert_allclose(
        out.values, g.values - g.values[0], rtol=0, atol=1e-13)


def test_young_rs_smooth_square():
    # the midpoint-frozen sum telescopes to the exact chain rule
    # (f(1)^2 - f(0)^2) / 2, so only rounding is left
    n = 512
    f = GridFn.from_callable(lambda t: t ** 2, n)
    out = fo.young_rs(f, f)
    assert abs(out.values[-1, 0] - 0.5) <= 1e-12


def test_young_rs_constant_driver_is_zero():
    f = random_gridfn(22, 128)
    out = fo.young_rs(f, grid_const(3.3, 128))
    assert np.abs(out.values).max() == 0.0


def test_young_rs_dot_and_matrix_modes():
    n = 64
    g = random_gridfn(23, n, dim=2)
    f_vec = random_gridfn(24, n, dim=2)
    dot = fo.young_rs(f_vec, g)
    assert dot.dim == 1
    expect = sum(
        fo.young_rs(f_vec.component(i), g.component(i)).values
        for i in range(2)
    )
    np.testing.assert_allclose(dot.values, expect, atol=1e-14)

    f_mat = random_gridfn(25, n, dim=4)       # rows of a (2, 2) matrix
    out = fo.young_rs(f_mat, g)
    assert out.dim == 2


def test_young_rs_dimension_errors():
    with pytest.raises(DimensionError):
        fo.young_rs(random_gridfn(1, 32, dim=3), random_gridfn(2, 32, dim=2))
    with pytest.raises(DimensionError):
        fo.young_rs(random_gridfn(1, 32), random_gridfn(2, 64))


# ---------------------------------------------------------------------------
# young_frac
# ---------------------------------------------------------------------------

def test_young_frac_constant_integrand():
    n = 1024
    g = random_gridfn(31, n)
    val = fo.young_frac(grid_const(1.0, n), g, 0.3)
    assert abs(val - (g.values[-1, 0] - g.values[0, 0])) <= 1e-3


def test_young_frac_zero_integrand():
    g = random_gridfn(32, 256)
    assert fo.young_frac(GridFn.zeros(256), g, 0.3) == 0.0


def test_young_frac_alpha_independence_smooth(smooth_pair):
    f, g = smooth_pair
    vals = [fo.young_frac(f, g, a) for a in (0.3, 0.4)]
    assert abs(vals[0] - vals[1]) <= 5e-3


def test_young_frac_agrees_with_rs_on_smooth(smooth_pair):
    f, g = smooth_pair
    rs = fo.young_rs(f, g).values[-1, 0]
    assert abs(fo.young_frac(f, g, 0.35) - rs) <= 1e-3


def test_young_frac_engines_on_fbm_pairs():
    """Cross-validation on rough paths, and the left-point offset.

    young_rs is the midpoint-frozen (trapezoid) sum, i.e. the exact Young
    integral of the piecewise-linear interpolants of the sampled data; the
    left-point sum of the Euler scheme differs from it by exactly half the
    discrete cross-variation sum(df dg) ~ n^(1-2H), which at n = 1024,
    H = 0.75 reaches the low 1e-3 range.  young_frac reproduces the
    trapezoid value to ~2e-4 on these pairs, inside the 5e-4 bound here;
    the acceptance suite asserts the 1e-3 criterion on 20 pairs.
    """
    n, hurst, alpha = 1024, 0.75, 0.35
    batch = fbm.sample_cholesky(n, hurst, 1, 20, seed=2024)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(10):
            f, g = batch.path(2 * i), batch.path(2 * i + 1)
            df = np.diff(f.values[:, 0])
            dg = np.diff(g.values[:, 0])
            cross = 0.5 * float(np.sum(df * dg))
            left = float(np.sum(f.values[:-1, 0] * dg))
            got = fo.young_frac(f, g, alpha)
            rs = fo.young_rs(f, g).values[-1, 0]
            # the left-point gap is exactly the half cross-variation
            assert abs(rs - left - cross) <= 1e-12
            # the two Young engines agree on rough paths
            assert abs(got - rs) <= 5e-4


def test_young_frac_roughness_warning():
    n = 256
    rough = random_gridfn(33, n, smooth=False)
    g = random_gridfn(34, n)
    with pytest.warns(UserWarning, match="rougher"):
        fo.young_frac(rough, g, 0.95)


@settings(max_examples=15, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2))
def test_young_engines_linear_in_f(a, b):
    f1, f2 = random_gridfn(35, 128), random_gridfn(36, 128)
    g = random_gridfn(37, 128)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        combo = fo.young_frac(a * f1 + b * f2, g, 0.4)
        parts = a * fo.young_frac(f1, g, 0.4) + b * fo.young_frac(f2, g, 0.4)
    assert combo == pytest.approx(parts, rel=1e-9, abs=1e-11)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_norms_constant_path():
    rep = fo.norms(grid_const(-2.0, 64), 0.5, 0.3)
    assert rep.sup_norm == 2.0
    assert rep.holder_norm == 0.0


def test_norms_linear_path_holder_scan():
    # exhaustive oracle on a 16-node grid: for f(t)=t the pair ratio is
    # (t_k - t_j)^(1-lambda), maximised at the widest pair -> exactly 1
    n, lam = 16, 0.5
    f = GridFn.from_callable(lambda t: t, n)
    t = f.times
    best = max(
        abs(t[k] - t[j]) / (t[k] - t[j]) ** lam
        for k in range(n + 1) for j in range(k)
    )
    rep = fo.norms(f, lam, 0.3)
    assert rep.holder_norm == pytest.approx(best, rel=1e-12)
    assert rep.holder_norm == pytest.approx(1.0, rel=1e-12)


def test_norms_fbm_trend_reported():
    # lambda below H stays bounded, lambda above H grows with n; the trend
    # is reported, not asserted
    hurst = 0.75
    rows = []
    for n in (256, 512, 1024):
        path = fbm.sample_cholesky(n, hurst, 1, 1, seed=99).path(0)
        below = fo.norms(path, hurst - 0.05, 0.3).holder_norm
        above = fo.norms(path, hurst + 0.05, 0.3).holder_norm
        rows.append((n, below, above))
        assert np.isfinite(below) and np.isfinite(above)
    print("\nholder-norm trend (n, below-H, above-H):")
    for row in rows:
        print(f"  n={row[0]:5d}  {row[1]:.4f}  {row[2]:.4f}")


def test_norms_w_alpha_positive_and_exceeds_sup():
    f = random_gridfn(41, 256)
    rep = fo.norms(f, 0.5, 0.3)
    assert rep.w_alpha_norm >= rep.sup_norm - 1e-12


def test_norms_stride_fallback_large_grid():
    n = 8192
    f = GridFn.from_callable(lambda t: t, n)
    rep = fo.norms(f, 0.5, 0.3)
    assert rep.holder_norm == pytest.approx(1.0, rel=1e-10)


def test_norms_domain_errors():
    f = grid_const(1.0, 16)
    with pytest.raises(DomainError):
        fo.norms(f, 1.0, 0.3)
    with pytest.raises(DomainError):
        fo.norms(f, 0.5, 0.0)
