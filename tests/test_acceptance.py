"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they execute (they are also embedded in assertion messages).

Status notes
------------
* Criterion 3 is asserted exactly as stated.  ``young_rs`` freezes f at
  cell midpoints, so it is the exact Young integral of the piecewise-linear
  interpolants, and the criterion measures the quadrature error of the
  integration-by-parts engine ``young_frac`` (~2e-4 across the 20 fBm
  pairs).  A left-point sum would sit half the discrete cross-variation
  sum(df dg) ~ n^(1-2H) away, ~2e-3 at n=1024, H=0.75; test_fracops.py
  pins that offset exactly.
* Criterion 9's "final gap <= 0.08" is asserted against the criterion's own
  Gaussian-tail oracle (-eps log Phibar(a/sqrt(eps)) at eps=0.04, = 0.6026),
  which the stated tolerance is consistent with.  Reading "gap" as
  ``-eps log p - I`` instead is mathematically unattainable: that number is
  eps(log(a/sqrt(eps)) + log(2 pi)/2) + o(eps) = 0.1026 at eps = 0.04.  A
  strict-xfail companion test documents the unattainable reading.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from fbmld import cli
from fbmld import cmspace as cm
from fbmld import fbm
from fbmld import fracops as fo
from fbmld import ldp, rng, sde
from fbmld.gridfn import GridFn

HURST_ADD = 0.6          # additive-case experiments (Var[B^H_1] = 1 for all H;
                         # H near 1/2 keeps the Volterra quadrature bias tiny)
ADDITIVE = sde.get_coefficients("constant")
RATE_CFG = ldp.RateConfig(hurst=HURST_ADD, n_steps=256, n_ctrl=32, seed=3)


def report(num, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def gaussian_tail(z):
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@pytest.fixture(scope="module")
def additive_rate():
    event = ldp.get_functional("terminal_exceedance", a=1.0)
    return ldp.rate_minimize(ADDITIVE, [0.0], event, cfg=RATE_CFG)


def retile(ctrl, n_steps):
    """The block control ``ctrl`` of a RATE_CFG search on ``n_steps`` cells."""
    blocks = ctrl.cells[::RATE_CFG.n_steps // RATE_CFG.n_ctrl]
    cells = np.repeat(blocks, n_steps // RATE_CFG.n_ctrl, axis=0)
    return cm.CmControl(HURST_ADD, cells)


# ---------------------------------------------------------------------------

def test_criterion_01_covariance_reconstruction():
    import time
    t0 = time.time()
    probes = [0.2, 0.4, 0.6, 0.8, 1.0]
    worst = 0.0
    for hurst in (0.6, 0.75, 0.9):
        for s in probes:
            for t in probes:
                err = abs(fbm.covariance_quadrature(s, t, hurst, 512)
                          - fbm.covariance(s, t, hurst))
                worst = max(worst, err)
    elapsed = time.time() - t0
    line = report(1, worst <= 1e-3 and elapsed <= 10.0,
                  f"max |quad - R_H| = {worst:.2e} (<= 1e-3), "
                  f"runtime {elapsed:.1f}s (<= 10s)")
    assert worst <= 1e-3, line
    assert elapsed <= 10.0, line


def test_criterion_02_sampler_law():
    n_paths, hurst = 10_000, 0.75
    chol = fbm.sample_cholesky(64, hurst, 1, n_paths, seed=2024)
    var = float(chol.values[:, -1, 0].var())
    se_var = math.sqrt(2.0 / n_paths)
    cov = float(np.cov(chol.values[:, 32, 0], chol.values[:, -1, 0])[0, 1])
    r = fbm.covariance(0.5, 1.0, hurst)
    se_cov = math.sqrt((fbm.covariance(0.5, 0.5, hurst) * 1.0 + r ** 2)
                       / n_paths)
    ok_chol = abs(var - 1.0) <= 3 * se_var and abs(cov - r) <= 3 * se_cov

    volt = fbm.sample_volterra(128, hurst, 1, n_paths, seed=2024)
    bias = fbm.volterra_variance_bias(128, hurst)
    var_v = float(volt.values[:, -1, 0].var())
    cov_v = float(np.cov(volt.values[:, 64, 0], volt.values[:, -1, 0])[0, 1])
    table = fbm.kernel_table(128, hurst)
    bias_cov = abs(float(np.sum(table[64] * table[128]) / 128) - r)
    ok_volt = (abs(var_v - 1.0) <= 4 * se_var + bias and bias <= 2e-2
               and abs(cov_v - r) <= 4 * se_cov + bias_cov)

    line = report(2, ok_chol and ok_volt,
                  f"cholesky var {var:.4f} (3SE {3 * se_var:.4f}), "
                  f"cov {cov:.4f} vs {r:.4f} (3SE {3 * se_cov:.4f}); "
                  f"volterra var {var_v:.4f} (4SE+bias "
                  f"{4 * se_var + bias:.4f}), cov {cov_v:.4f} "
                  f"(4SE+bias {4 * se_cov + bias_cov:.4f}), "
                  f"var bias {bias:.4f} (<= 2e-2)")
    assert ok_chol, line
    assert ok_volt, line


def test_criterion_03_young_engine_cross_validation():
    # the stated tolerance; young_rs is the midpoint-frozen sum (see the
    # module docstring), so the gap is young_frac's quadrature error
    n, hurst, alpha = 1024, 0.75, 0.35
    batch = fbm.sample_cholesky(n, hurst, 1, 40, seed=2024)
    diffs = []
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(20):
            f, g = batch.path(2 * i), batch.path(2 * i + 1)
            yf = fo.young_frac(f, g, alpha)
            yr = fo.young_rs(f, g).values[-1, 0]
            diffs.append(abs(yf - yr))
    worst = max(diffs)
    n_over = sum(d > 1e-3 for d in diffs)
    line = report(3, worst <= 1e-3,
                  f"max |young_frac - young_rs| = {worst:.2e} over 20 fBm "
                  f"pairs ({n_over} exceed 1e-3); the gap is the "
                  f"integration-by-parts engine's quadrature error")
    assert worst <= 1e-3, line


def test_criterion_04_solver_closed_forms():
    n = 4096
    co = sde.get_coefficients("linear_sigma")
    g = GridFn.from_callable(lambda t: np.sin(2 * np.pi * t), n)
    sol = sde.solve_young([1.0], co, g)
    ref = math.exp(g.values[-1, 0] - g.values[0, 0])
    rel = abs(sol.values[-1, 0] - ref) / ref

    co_ode = sde.get_coefficients("linear_drift", rate=1.0, scale=0.0)
    ode = sde.solve_young([1.0], co_ode, GridFn.zeros(n, 1))
    ode_err = abs(ode.values[-1, 0] - math.exp(-1.0))

    co_add = sde.get_coefficients("constant")
    g2 = GridFn.from_callable(lambda t: np.cos(3 * t) - 1.0, 512)
    add = sde.solve_young([0.5], co_add, g2)
    add_err = np.abs(add.values - (0.5 + g2.values - g2.values[0])).max()

    ok = rel <= 5e-3 and ode_err <= 2.0 / n and add_err <= 1e-12
    line = report(4, ok,
                  f"linear-sigma rel err {rel:.2e} (<= 5e-3), ODE err "
                  f"{ode_err:.2e} (<= {2.0 / n:.2e}), additive err "
                  f"{add_err:.1e} (exact at nodes)")
    assert ok, line


def test_criterion_05_holder_embedding():
    hurst, n = 0.75, 256
    worst = 0.0
    for i in range(100):
        cells = rng.stream(505, i).standard_normal(n)
        ctrl = cm.CmControl(hurst, cells)
        ratio = fo.norms(ctrl.path, hurst, 0.35).holder_norm / cm.cm_norm(ctrl)
        worst = max(worst, ratio)
    line = report(5, worst <= 1.05,
                  f"max holder_norm(K_H vdot, H) / cm_norm over 100 controls "
                  f"= {worst:.4f} (<= 1.05)")
    assert worst <= 1.05, line


def test_criterion_06_rate_function_oracle(additive_rate):
    value = additive_rate.value
    res2 = ldp.rate_minimize(ADDITIVE, [0.0],
                             ldp.get_functional("terminal_exceedance", a=2.0),
                             cfg=RATE_CFG)
    ratio = res2.value / value
    ok = 0.475 <= value <= 0.525 and abs(ratio - 4.0) <= 0.4
    line = report(6, ok,
                  f"rate value {value:.4f} in [0.475, 0.525] (analytic 0.5); "
                  f"a doubling scales by {ratio:.3f} (4 within 10%)")
    assert 0.475 <= value <= 0.525, line
    assert abs(ratio - 4.0) <= 0.4, line


def test_criterion_07_girsanov_martingale():
    n, n_paths = 256, 10_000
    cells = rng.stream(707, 0).standard_normal(n)
    cells /= math.sqrt(float(np.sum(cells ** 2)) / n)    # unit norm
    ctrl = cm.CmControl(HURST_ADD, cells)
    batch = fbm.sample_volterra(n, HURST_ADD, 1, n_paths, seed=707)
    w, _ = ldp.girsanov_weight(ctrl, 1.0, batch.bm_increments)
    se = float(w.std()) / math.sqrt(n_paths)
    ok = abs(float(w.mean()) - 1.0) <= 3 * se
    line = report(7, ok,
                  f"mean importance weight {w.mean():.4f}, |dev| "
                  f"{abs(w.mean() - 1.0):.4f} <= 3 SE = {3 * se:.4f}")
    assert ok, line


def test_criterion_08_rare_event_is(additive_rate):
    n_steps, eps, n_samples = 1024, 0.04, 10_000
    event = ldp.get_functional("terminal_exceedance", a=1.0)
    tilt = retile(additive_rate.control, n_steps)
    est = ldp.is_probability(ADDITIVE, [0.0], event, eps, n_samples,
                             seed=2025, ctrl=tilt)
    p_true = gaussian_tail(5.0)
    dev = abs(est.p_hat - p_true) / est.std_err
    ok_is = dev <= 3.0

    zero = cm.zero_control(HURST_ADD, n_steps)
    ev5 = ldp.get_functional("terminal_exceedance", a=0.5)
    tilt5 = retile(
        ldp.rate_minimize(ADDITIVE, [0.0], ev5, cfg=RATE_CFG).control,
        n_steps)
    crude = ldp.is_probability(ADDITIVE, [0.0], ev5, 0.25, n_samples,
                               seed=31, ctrl=zero)
    issam = ldp.is_probability(ADDITIVE, [0.0], ev5, 0.25, n_samples,
                               seed=32, ctrl=tilt5)
    joint = math.hypot(crude.std_err, issam.std_err)
    dev2 = abs(crude.p_hat - issam.p_hat) / joint
    ok_agree = dev2 <= 3.0
    line = report(8, ok_is and ok_agree,
                  f"IS {est.p_hat:.3e} vs Phibar(5) {p_true:.3e}: "
                  f"{dev:.2f} SE (<= 3) with {n_samples} samples; crude vs "
                  f"IS at eps=0.25: {dev2:.2f} joint SE (<= 3)")
    assert ok_is, line
    assert ok_agree, line


@pytest.fixture(scope="module")
def scaling_rows():
    import time
    t0 = time.time()
    event = ldp.get_functional("terminal_exceedance", a=1.0)
    rows = ldp.scaling_table(ADDITIVE, [0.0], event, [0.25, 0.1, 0.04],
                             10_000, seed=40,
                             cfg=dataclasses.replace(RATE_CFG, n_steps=1024))
    return rows, time.time() - t0


def test_criterion_09_ldp_scaling(scaling_rows):
    rows, elapsed = scaling_rows
    gaps = [r["gap"] for r in rows]
    monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
    final = rows[-1]
    oracle = -final["eps"] * math.log(
        gaussian_tail(1.0 / math.sqrt(final["eps"])))
    dev = abs(final["neg_eps_log_p"] - oracle)
    ok = monotone and dev <= 0.08 and elapsed <= 300.0
    line = report(9, ok,
                  f"-eps log p = {[round(r['neg_eps_log_p'], 4) for r in rows]}"
                  f" -> 0.5, gaps {[round(g, 4) for g in gaps]} decreasing; "
                  f"final vs Gaussian-tail oracle {oracle:.4f}: dev "
                  f"{dev:.4f} (<= 0.08); runtime {elapsed:.0f}s (<= 300s)")
    assert monotone, line
    assert dev <= 0.08, line
    assert elapsed <= 300.0, line


@pytest.mark.xfail(
    strict=True,
    reason="gap-to-rate-value reading of criterion 9: the criterion's own "
    "Gaussian-tail oracle gives -eps log Phibar(a/sqrt(eps)) - a^2/2 = "
    "0.1026 at eps = 0.04 > 0.08; see decisions ledger",
)
def test_criterion_09_strict_gap_reading(scaling_rows):
    rows, _ = scaling_rows
    assert rows[-1]["gap"] <= 0.08


def test_criterion_10_laplace_sandwich_and_trend():
    h = ldp.get_functional("terminal_shortfall", target=1.0, cap=1.0)
    variational = ldp.laplace_variational(ADDITIVE, [0.0], h,
                                          cfg=RATE_CFG).value
    rows = [ldp.laplace_mc(ADDITIVE, [0.0], h, eps, 20_000,
                           seed=rng.mix64(10, i),
                           ctrl=cm.zero_control(HURST_ADD, 256))
            for i, eps in enumerate((0.5, 0.2, 0.1))]
    values = [r.value for r in rows]
    oks = [h.inf_h <= v <= h.sup_h for v in values]
    last = rows[-1]
    gaps = [abs(v - variational) for v in values]
    trend = all(b < a for a, b in zip(gaps, gaps[1:]))
    final_ok = gaps[-1] <= 3 * last.std_err + 0.1
    # the 3-SE gate means something only while the crude estimate rests on
    # enough effective paths
    healthy = all(r.ess >= 100 for r in rows)
    ok = all(oks) and trend and final_ok and healthy
    line = report(10, ok,
                  f"laplace_mc {['%.4f' % v for v in values]} within "
                  f"[{h.inf_h}, {h.sup_h}], trending to variational "
                  f"{variational:.4f}; final gap {gaps[-1]:.4f} <= "
                  f"3 SE + 0.1 = {3 * last.std_err + 0.1:.4f}; ess "
                  f"{['%.0f' % r.ess for r in rows]}, max weight share "
                  f"{['%.4f' % r.max_weight_share for r in rows]}")
    assert all(oks), line
    assert trend, line
    assert final_ok, line
    assert healthy, line


def test_criterion_11_determinism(tmp_path):
    base = {
        "sample": {"command": "sample", "sampler": "cholesky", "hurst": 0.75,
                   "n_steps": 64, "d": 2, "n_paths": 8, "seed": 5},
        "solve": {"command": "solve", "hurst": 0.75, "n_steps": 128,
                  "coefficient": "tanh", "x0": [0.2], "seed": 5},
        "rate": {"command": "rate", "hurst": 0.6, "n_steps": 128,
                 "n_ctrl": 16, "coefficient": "constant", "x0": [0.0],
                 "event": {"kind": "terminal_exceedance", "a": 1.0},
                 "seed": 5},
        "ldp-scaling": {"command": "ldp-scaling", "hurst": 0.6,
                        "n_steps": 128, "n_ctrl": 16,
                        "coefficient": "constant", "x0": [0.0],
                        "n_samples": 1000, "eps_list": [0.5, 0.25],
                        "event": {"kind": "terminal_exceedance", "a": 0.5},
                        "seed": 5},
        "laplace-check": {"command": "laplace-check", "hurst": 0.6,
                          "n_steps": 64, "n_ctrl": 16,
                          "coefficient": "constant", "x0": [0.0],
                          "n_samples": 1000, "eps_list": [0.5],
                          "functional": {"name": "terminal_shortfall"},
                          "seed": 5},
        "validate-ops": {"command": "validate-ops", "hurst": 0.75, "seed": 5},
    }
    volatile = ("wall_time_s", "created_unix")

    def run_once(name, cfg, tag):
        cfg = dict(cfg)
        cfg["output_dir"] = str(tmp_path / f"{name}-{tag}")
        path = tmp_path / f"{name}-{tag}.json"
        path.write_text(json.dumps(cfg))
        assert cli.run(str(path)) == cli.EXIT_OK
        out = {}
        for p in sorted((tmp_path / f"{name}-{tag}").iterdir()):
            data = p.read_bytes()
            if p.name == "manifest.json":
                m = json.loads(data)
                for k in volatile:
                    m.pop(k, None)
                m["config"].pop("output_dir", None)
                m.pop("config_hash", None)
                data = json.dumps(m, sort_keys=True).encode()
            out[p.name] = data
        return out

    mismatches = []
    for name, cfg in base.items():
        a = run_once(name, cfg, "a")
        b = run_once(name, cfg, "b")
        if a != b:
            mismatches.append(name)
    ok = not mismatches
    line = report(11, ok,
                  "all six workflows byte-identical under fixed seed"
                  + ("" if ok else f"; MISMATCH: {mismatches}"))
    assert ok, line
