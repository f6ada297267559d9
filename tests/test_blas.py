import numpy as np
import pytest

from fbmld import blas, fbm


def _counts():
    return [get() for get, _ in blas._bundled_openblas()]


def test_one_thread_pins_and_restores():
    if not blas._bundled_openblas():
        pytest.skip("numpy and scipy link no bundled OpenBLAS")
    before = _counts()
    with blas.one_thread():
        assert _counts() == [1] * len(before)
    assert _counts() == before


def test_one_thread_restores_after_an_error():
    before = _counts()
    with pytest.raises(RuntimeError):
        with blas.one_thread():
            raise RuntimeError("inside")
    assert _counts() == before


def test_nested_one_thread_probes_once(monkeypatch):
    probes = []
    probe = blas._bundled_openblas
    monkeypatch.setattr(blas, "_bundled_openblas",
                        lambda: probes.append(1) or probe())
    with blas.one_thread():
        with blas.one_thread():
            pass
    assert len(probes) == 1
    with blas.one_thread():
        pass
    assert len(probes) == 2


def test_nested_one_thread_restores_at_the_outermost_exit():
    if not blas._bundled_openblas():
        pytest.skip("numpy and scipy link no bundled OpenBLAS")
    before = _counts()
    with pytest.raises(RuntimeError):
        with blas.one_thread():
            with blas.one_thread():
                assert _counts() == [1] * len(before)
            assert _counts() == [1] * len(before)
            with blas.one_thread():
                raise RuntimeError("inside")
    assert _counts() == before
    assert blas._depth == 0


def test_synthesis_is_the_single_thread_product():
    # a threaded GEMM splits the work differently and can change the last
    # bits; the synthesis must give the one-thread bits on any core count
    table = fbm.kernel_table(512, 0.6)
    noise = np.random.default_rng(3).standard_normal((600, 512, 1))
    with blas.one_thread():
        want = noise[:, :, 0] @ table.T
    got = fbm._synthesise(table, noise)
    assert np.array_equal(got[:, :, 0], want)
