import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmld import fbm, rng
from fbmld.errors import DomainError, NumericError


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------

def test_covariance_at_one_one():
    assert fbm.covariance(1.0, 1.0, 0.75) == 1.0


def test_covariance_vanishes_at_zero():
    for t in (0.1, 0.5, 1.0):
        assert fbm.covariance(t, 0.0, 0.8) == 0.0


def test_covariance_half_is_min():
    assert fbm.covariance(0.3, 0.7, 0.5) == pytest.approx(0.3, abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.05, 0.95))
def test_covariance_symmetric_with_power_diagonal(s, t, hurst):
    assert fbm.covariance(s, t, hurst) == fbm.covariance(t, s, hurst)
    assert fbm.covariance(t, t, hurst) == pytest.approx(t ** (2 * hurst),
                                                        abs=1e-15)


def test_covariance_domain_errors():
    with pytest.raises(DomainError):
        fbm.covariance(0.5, 1.5, 0.7)
    with pytest.raises(DomainError):
        fbm.covariance(0.5, 0.5, 1.0)


@pytest.mark.parametrize("sampler", ["volterra", "cholesky"])
@pytest.mark.parametrize("n_steps, dim, n_paths, match", [
    (0, 1, 2, "n_steps must be >= 1"),
    (-3, 1, 2, "n_steps must be >= 1"),
    (8, 1, 0, "n_paths must be >= 1"),
    (8, 1, -1, "n_paths must be >= 1"),
    (8, 5, 2, "dim must be in 1..4"),
], ids=["no_steps", "negative_steps", "no_paths", "negative_paths", "dim_5"])
def test_samplers_reject_empty_grids_and_batches(sampler, n_steps, dim,
                                                 n_paths, match):
    sample = getattr(fbm, f"sample_{sampler}")
    with pytest.raises(DomainError, match=match):
        sample(n_steps, 0.7, dim, n_paths, 3)


@pytest.mark.parametrize("build", [
    fbm.kernel_table, fbm._increment_table, fbm.volterra_variance_bias])
def test_kernel_tables_reject_an_empty_grid(build):
    with pytest.raises(DomainError, match="n_steps must be >= 1"):
        build(0, 0.7)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def mp_kernel(t, s, hurst):
    """k_H(t, s) from mpmath's 2F1 at 40 digits: the independent reference."""
    with mpmath.workdps(40):
        h, t, s = mpmath.mpf(hurst), mpmath.mpf(t), mpmath.mpf(s)
        c_h = mpmath.sqrt(2 * h * mpmath.gamma(1.5 - h) * mpmath.gamma(h + 0.5)
                          / mpmath.gamma(2 - 2 * h))
        return float(c_h / mpmath.gamma(h + 0.5) * (t - s) ** (h - 0.5)
                     * mpmath.hyp2f1(h - 0.5, 0.5 - h, h + 0.5, 1 - t / s))


def test_kernel_brownian_case_is_one():
    for t, s in [(0.9, 0.1), (0.5, 0.49), (1.0, 0.0001)]:
        assert fbm.kernel_k(t, s, 0.5) == 1.0


def test_kernel_indicator_and_domain():
    assert fbm.kernel_k(0.9, 0.99, 0.75) == 0.0
    with pytest.raises(DomainError):
        fbm.kernel_k(0.9, 0.0, 0.75)
    with pytest.raises(DomainError):
        fbm.kernel_k(1.2, 0.5, 0.75)


def test_kernel_normalising_constant_brownian():
    assert fbm.volterra_c(0.5) == pytest.approx(1.0, rel=1e-14)


def test_kernel_table_matches_scalar_kernel():
    n, hurst = 64, 0.75
    table = fbm.kernel_table(n, hurst)
    mids = (np.arange(n) + 0.5) / n
    for k in (3, 17, 64):
        for j in (0, k // 2, k - 1):
            assert table[k, j] == pytest.approx(
                mp_kernel(k / n, mids[j], hurst), rel=1e-13)
    assert np.all(table[0] == 0.0)
    # strictly upper cells are zero (the kernel's indicator)
    for k in range(n + 1):
        assert np.all(table[k, k:] == 0.0)


def test_kernel_table_low_hurst_matches_scalar():
    n, hurst = 32, 0.3
    table = fbm.kernel_table(n, hurst)
    mids = (np.arange(n) + 0.5) / n
    for k in (5, 32):
        j = k - 1
        assert table[k, j] == pytest.approx(
            mp_kernel(k / n, mids[j], hurst), rel=1e-13)


@pytest.mark.parametrize("hurst", [0.3, 0.6, 0.75, 0.9])
def test_kernel_table_matches_row_loop(hurst):
    # the vectorised build against the one-row-at-a-time reference; the
    # 2F1 series may run a few more terms over the whole table at once
    n = 96
    table = fbm.kernel_table(n, hurst)
    s = (np.arange(n) + 0.5) / n
    ref = np.zeros((n + 1, n))
    for k in range(1, n + 1):
        ref[k, :k] = fbm._kernel_row(k / n, s[:k], hurst)
    np.testing.assert_allclose(table, ref, rtol=1e-14, atol=0.0)
    assert np.array_equal(table == 0.0, ref == 0.0)
    assert not table.flags.writeable


def test_kernel_table_brownian_branch():
    n = 16
    table = fbm.kernel_table(n, 0.5)
    assert np.array_equal(table, np.tril(np.ones((n + 1, n)), -1))
    s = (np.arange(n) + 0.5) / n
    for k in range(1, n + 1):
        assert np.array_equal(table[k, :k], fbm._kernel_row(k / n, s[:k], 0.5))


def test_covariance_reconstruction_spot():
    # the identity int K_H(t,.) K_H(s,.) = R_H behind the derived-BM
    # construction, at a cheaper resolution than the acceptance gate
    # at H = 0.001, w^p underflows on both halves of [0, 1/2]
    for hurst in (0.6, 0.75, 0.9, 0.3, 0.05, 0.001, 0.5):
        err = abs(fbm.covariance_quadrature(0.5, 1.0, hurst, 256)
                  - fbm.covariance(0.5, 1.0, hurst))
        assert err <= 1e-3, (hurst, err)


@pytest.mark.parametrize("hurst", [0.997, 0.999])
def test_covariance_quadrature_near_one(hurst):
    # u = w^p underflows at the first nodes once p = 1/(2 - 2H) is large
    err = abs(fbm.covariance_quadrature(1.0, 0.5, hurst, 256)
              - fbm.covariance(1.0, 0.5, hurst))
    assert err <= 1e-3, err


def test_covariance_quadrature_edges_and_node_counts():
    # no mass below min(s, t) = 0
    assert fbm.covariance_quadrature(0.0, 0.7, 0.75, 16) == 0.0
    # every node count it can use, and none that it cannot: H < 1/2 puts
    # one node in each half of [0, min(s, t)]
    assert math.isfinite(fbm.covariance_quadrature(0.5, 1.0, 0.75, 1))
    assert math.isfinite(fbm.covariance_quadrature(0.5, 1.0, 0.3, 2))
    for n_nodes, hurst in ((0, 0.75), (0, 0.5), (1, 0.3)):
        with pytest.raises(DomainError, match="cannot use"):
            fbm.covariance_quadrature(0.5, 1.0, hurst, n_nodes)


@pytest.mark.parametrize("hurst", [0.3, 0.6, 0.75, 0.9])
def test_kernel_matches_mpmath(hurst):
    # includes s << t, where a plain 2F1 series needs O(t/s) terms
    for t, s in [(1.0, 0.5), (0.75, 0.7), (0.5, 0.01), (1.0, 1e-4),
                 (1.0, 1e-5), (1.0, 5e-6)]:
        assert fbm.kernel_k(t, s, hurst) == pytest.approx(
            mp_kernel(t, s, hurst), rel=1e-13), (t, s)
    n = 64
    table = fbm.kernel_table(n, hurst)
    for k, j in [(1, 0), (17, 0), (17, 16), (64, 0), (64, 31), (64, 63)]:
        assert table[k, j] == pytest.approx(
            mp_kernel(k / n, (j + 0.5) / n, hurst), rel=1e-13), (k, j)


def test_kernel_table_build_memory():
    # the build fills row blocks, so its temporaries stay well below the
    # several copies of the lower triangle a one-call build allocates
    n, hurst = 512, 0.7
    fbm.kernel_table.cache_clear()
    tracemalloc.start()
    try:
        table = fbm.kernel_table(n, hurst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * table.nbytes, peak / table.nbytes


# ---------------------------------------------------------------------------
# covariance matrix
# ---------------------------------------------------------------------------

def test_cov_matrix_invariants():
    t = np.arange(1, 33) / 32
    ent = fbm.covariance(t[:, None], t, 0.7)
    assert np.array_equal(ent, ent.T)
    assert np.abs(np.diag(ent) - t ** 1.4).max() <= 1e-12
    # PSD after jitter: factorisation succeeds
    np.linalg.cholesky(ent + 1e-12 * np.eye(32))


def test_covariance_matches_its_plain_expression_bitwise():
    # exponents 0.5 and 1 are the ones numpy's power special-cases
    for n, hurst in [(64, 0.25), (50, 0.5), (96, 0.75), (33, 0.9)]:
        t = np.arange(1, n + 1) / n
        s, t = t[:, None], t[None, :]
        h2 = 2.0 * hurst
        want = 0.5 * (s ** h2 + t ** h2 - np.abs(t - s) ** h2)
        assert np.array_equal(fbm.covariance(s, t, hurst), want)
    assert type(fbm.covariance(0.5, 1.0, 0.75)) is float
    t = np.arange(1, 9) / 8
    got = fbm.covariance(t, 0.5, 0.75)
    assert got.shape == (8,)
    assert np.array_equal(got, [fbm.covariance(x, 0.5, 0.75) for x in t])


def test_cholesky_build_memory():
    # the Schur factor is filled row by row in place and no covariance
    # grid is built, so the factor is the only n x n array at the peak
    n = 1024
    fbm.sample_cholesky(16, 0.75, 1, 1, seed=0)     # keep first-call costs out
    tracemalloc.start()
    try:
        fbm.sample_cholesky(n, 0.75, 1, 4, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * n * 8, peak / (n * n * 8)


@pytest.mark.parametrize("hurst", [0.3, 0.6, 0.75, 0.95])
def test_fgn_autocovariance_matches_mpmath(hurst):
    # the plain sum of powers cancels near k = n (2.1e-9 at H = 0.3)
    n = 2048
    got = fbm._fgn_autocovariance(n, hurst)
    with mpmath.workdps(40):
        h2 = mpmath.mpf(2 * hurst)
        scale = mpmath.mpf(n) ** -h2 / 2
        want = np.array([
            float(scale * ((k + 1) ** h2 - 2 * mpmath.mpf(k) ** h2
                           + abs(k - 1) ** h2)) for k in range(n)])
    rel = np.abs(got / want - 1.0).max()
    assert rel <= 1e-11, rel


@pytest.mark.parametrize("hurst", [0.3, 0.6, 0.75, 0.95])
def test_schur_factor_reproduces_the_covariance_grid(hurst):
    # the partial sums of the increments' factor are the factor of R_H on
    # t_1..t_n, with no jitter
    n = 512
    upper = fbm._schur_factor(fbm._fgn_autocovariance(n, hurst))
    assert np.array_equal(upper, np.triu(upper))
    assert np.all(np.diag(upper) > 0.0)
    chol = np.cumsum(upper.T, axis=0)
    t = np.arange(1, n + 1) / n
    cov = fbm.covariance(t[:, None], t, hurst)
    assert np.abs(chol @ chol.T - cov).max() <= 1e-13


def test_schur_factor_rejects_an_indefinite_sequence():
    with pytest.raises(NumericError, match="reflection coefficient 1.5"):
        fbm._schur_factor(np.array([1.0, 1.5, 0.0]))


_SAMPLE_DIGESTS = """
import hashlib, os
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from fbmld import fbm
for hurst in (0.3, 0.75, 0.95):
    values = fbm.sample_cholesky(2048, hurst, 1, 64, 7).values
    print(hashlib.sha256(values.tobytes()).hexdigest())
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs to compare with one")
def test_cholesky_bits_do_not_depend_on_the_core_count():
    # the child pins itself to one CPU before numpy starts its BLAS threads
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run([sys.executable, "-c", _SAMPLE_DIGESTS], env=env,
                           capture_output=True, text=True, check=True)
    here = [hashlib.sha256(fbm.sample_cholesky(2048, hurst, 1, 64, 7)
                           .values.tobytes()).hexdigest()
            for hurst in (0.3, 0.75, 0.95)]
    assert child.stdout.split() == here


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_cholesky_law_small_batch():
    batch = fbm.sample_cholesky(64, 0.75, 1, 4000, seed=7)
    assert batch.values.shape == (4000, 65, 1)
    assert np.all(batch.values[:, 0] == 0.0)
    var = batch.values[:, -1, 0].var()
    se = math.sqrt(2.0 / 4000)
    assert abs(var - 1.0) <= 5 * se


def test_cholesky_budget_and_dim_guards():
    with pytest.raises(DomainError):
        fbm.sample_cholesky(8192, 0.75, 1, 1, seed=0)
    with pytest.raises(DomainError):
        fbm.sample_cholesky(16, 0.75, 5, 1, seed=0)


def test_sampler_determinism_bitwise():
    for sampler in (fbm.sample_cholesky, fbm.sample_volterra):
        a = sampler(32, 0.7, 2, 6, seed=11)
        b = sampler(32, 0.7, 2, 6, seed=11)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.bm_increments, b.bm_increments)
        c = sampler(32, 0.7, 2, 6, seed=12)
        assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_samplers_match_explicit_product(dim):
    # the GEMM synthesis against a per-path, per-component matrix-vector
    # reference; only d = 1 is exercised elsewhere at scale
    n, hurst, n_paths, seed = 24, 0.7, 5, 13
    xi = rng.normal_block(seed, 0, n_paths, (n, dim))

    vol = fbm.sample_volterra(n, hurst, dim, n_paths, seed)
    table = fbm.kernel_table(n, hurst)
    assert vol.values.shape == (n_paths, n + 1, dim)
    np.testing.assert_array_equal(vol.bm_increments, xi / math.sqrt(n))
    for p in range(n_paths):
        for i in range(dim):
            ref = table @ vol.bm_increments[p, :, i]
            np.testing.assert_allclose(vol.values[p, :, i], ref,
                                       rtol=0.0, atol=1e-12)

    chol_batch = fbm.sample_cholesky(n, hurst, dim, n_paths, seed)
    t = np.arange(1, n + 1) / n
    cov = fbm.covariance(t[:, None], t, hurst)
    chol = np.linalg.cholesky(cov)
    assert chol_batch.values.shape == (n_paths, n + 1, dim)
    assert np.all(chol_batch.values[:, 0] == 0.0)
    np.testing.assert_array_equal(chol_batch.bm_increments, xi / math.sqrt(n))
    for p in range(n_paths):
        for i in range(dim):
            np.testing.assert_allclose(chol_batch.values[p, 1:, i],
                                       chol @ xi[p, :, i],
                                       rtol=0.0, atol=1e-12)


def test_volterra_values_synthesised_on_first_read(monkeypatch):
    calls = []
    synthesise = fbm._synthesise
    monkeypatch.setattr(fbm, "_synthesise",
                        lambda t, z: calls.append(1) or synthesise(t, z))
    batch = fbm.sample_volterra(32, 0.7, 2, 5, seed=4)
    assert batch.n_paths == 5 and not calls
    values = batch.values
    assert len(calls) == 1 and batch.values is values
    assert np.array_equal(values, synthesise(fbm.kernel_table(32, 0.7),
                                             batch.bm_increments))


@pytest.mark.parametrize("dim", [1, 2])
def test_volterra_first_index_selects_rows(dim):
    n, hurst, seed = 32, 0.65, 21
    full = fbm.sample_volterra(n, hurst, dim, 40, seed)
    for lo, hi in [(0, 7), (7, 40), (13, 14)]:
        part = fbm.sample_volterra(n, hurst, dim, hi - lo, seed,
                                   first_index=lo)
        assert np.array_equal(part.bm_increments, full.bm_increments[lo:hi])
        np.testing.assert_allclose(part.values, full.values[lo:hi],
                                   rtol=0.0, atol=1e-13)


def test_volterra_brownian_case_is_cumsum():
    batch = fbm.sample_volterra(64, 0.5, 2, 3, seed=3)
    expect = np.cumsum(batch.bm_increments, axis=1)
    np.testing.assert_allclose(batch.values[:, 1:], expect, atol=1e-14)


def test_volterra_variance_bias_within_budget():
    bias = fbm.volterra_variance_bias(128, 0.75)
    assert bias <= 2e-2


def test_volterra_small_batch_variance():
    batch = fbm.sample_volterra(128, 0.7, 1, 4000, seed=17)
    var = batch.values[:, -1, 0].var()
    se = math.sqrt(2.0 / 4000)
    bias = fbm.volterra_variance_bias(128, 0.7)
    assert abs(var - 1.0) <= 5 * se + bias


def test_increment_stationarity():
    # E|B_t - B_s|^2 = d |t-s|^(2H), probed on a modest batch
    hurst, d = 0.7, 2
    batch = fbm.sample_cholesky(64, hurst, d, 4000, seed=23)
    t_idx, s_idx = 48, 16
    diff = batch.values[:, t_idx] - batch.values[:, s_idx]
    sq = np.sum(diff ** 2, axis=1)
    expect = d * abs((t_idx - s_idx) / 64.0) ** (2 * hurst)
    se = sq.std() / math.sqrt(len(sq))
    assert abs(sq.mean() - expect) <= 4 * se


def test_path_accessor_roundtrip():
    batch = fbm.sample_volterra(16, 0.6, 2, 3, seed=2)
    p = batch.path(1)
    assert p.n_steps == 16 and p.dim == 2
    np.testing.assert_array_equal(p.values, batch.values[1])


# ---------------------------------------------------------------------------
# export formats
# ---------------------------------------------------------------------------

def test_paths_csv_format():
    batch = fbm.sample_volterra(8, 0.6, 2, 2, seed=5)
    buf = io.StringIO()
    fbm.export_paths_csv(batch, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# fbmld-paths v1"
    assert "hurst=0.6" in lines[1] and "seed=5" in lines[1]
    assert lines[2].split(",")[:3] == ["t", "path0_c0", "path0_c1"]
    assert len(lines) == 3 + 9
    # 17-significant-digit numbers survive a parse round trip
    val = float(lines[4].split(",")[1])
    assert val == batch.values[0, 1, 0]


def test_increments_binary_roundtrip(tmp_path):
    batch = fbm.sample_volterra(16, 0.8, 1, 4, seed=9)
    path = tmp_path / "inc.npz"
    fbm.export_increments(batch, str(path))
    meta, inc = fbm.load_increments(str(path))
    assert meta["hurst"] == 0.8 and meta["seed"] == 9
    assert meta["version"] == fbm.FORMAT_VERSION
    np.testing.assert_array_equal(inc, batch.bm_increments)


def test_load_increments_checks_the_shape_and_the_records(tmp_path):
    batch = fbm.sample_volterra(8, 0.8, 1, 5, seed=9)
    path = tmp_path / "inc.npz"
    fbm.export_increments(batch, str(path))
    with np.load(path) as data:
        meta, inc = data["meta"], data["increments"]
    np.savez(path, meta=meta, increments=inc[:3])       # n_paths says 5
    with pytest.raises(DomainError, match="metadata"):
        fbm.load_increments(str(path))
    np.savez(path, meta=meta, increments=inc[:, :, 0])  # no dim axis
    with pytest.raises(DomainError, match="metadata"):
        fbm.load_increments(str(path))
    np.savez(path, increments=inc)
    with pytest.raises(DomainError, match="record"):
        fbm.load_increments(str(path))
    np.savez(path, meta=meta)
    with pytest.raises(DomainError, match="record"):
        fbm.load_increments(str(path))
    record = json.loads(bytes(meta).decode())
    for foreign in ({"format": "fbmld-paths"}, {"version": 2}):
        text = json.dumps({**record, **foreign}).encode()
        np.savez(path, meta=np.frombuffer(text, dtype=np.uint8),
                 increments=inc)
        with pytest.raises(DomainError, match="unrecognised"):
            fbm.load_increments(str(path))
