import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fbmld import blas, fbm, rng
from fbmld.errors import DomainError

SHAPE = (17, 2)


def _block(seed, b):
    """Block ``b`` of ``seed``, drawn from an explicitly built generator."""
    key = rng.mix64(seed, b) | 1 << 64
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(
        (rng._BLOCK,) + SHAPE)


def test_normal_block_rows_are_rows_of_their_blocks():
    got = rng.normal_block(4, 0, 3 * rng._BLOCK + 5, SHAPE)
    assert got.shape == (3 * rng._BLOCK + 5,) + SHAPE
    blocks = np.concatenate([_block(4, b) for b in range(4)])
    np.testing.assert_array_equal(got, blocks[:len(got)])


def test_normal_block_rows_do_not_depend_on_the_split():
    whole = rng.normal_block(4, 0, 2000, SHAPE)
    # a mid-block start, a ragged tail inside one block, and one call
    # against one call per 100 rows
    np.testing.assert_array_equal(rng.normal_block(4, 1000, 777, SHAPE),
                                  whole[1000:1777])
    np.testing.assert_array_equal(rng.normal_block(4, 513, 9, SHAPE),
                                  whole[513:522])
    np.testing.assert_array_equal(
        np.concatenate([rng.normal_block(4, lo, 100, SHAPE)
                        for lo in range(0, 2000, 100)]), whole)


def test_normal_block_rows_do_not_depend_on_the_thread_count(monkeypatch):
    got = {}
    for workers in (1, 2, 4):
        pool = ThreadPoolExecutor(workers)
        monkeypatch.setattr(rng, "_POOL", pool)
        got[workers] = rng.normal_block(9, 300, 1500, SHAPE)
        pool.shutdown()
    np.testing.assert_array_equal(got[1], got[2])
    np.testing.assert_array_equal(got[1], got[4])


@pytest.mark.parametrize("draw", [
    lambda: rng.normal_block(4, -5, 2, SHAPE),
    lambda: rng.normal_block(4, -1, 1, SHAPE),
    lambda: fbm.sample_volterra(8, 0.7, 1, 2, 1, first_index=-5),
])
def test_negative_first_index_raises(draw):
    # mix64 would wrap block -1 to the key of block 2^64 - 1
    with pytest.raises(DomainError, match="first_index must be >= 0"):
        draw()


def test_blocks_have_their_own_key_space():
    # ldp._starts draws its random start from rng.stream(seed, 1)
    first = rng.normal_block(7, rng._BLOCK, 1, SHAPE)[0]
    assert not np.array_equal(first, rng.stream(7, 1).standard_normal(SHAPE))


def test_pool_workers_run_numpy_alone(monkeypatch):
    # keys are derived, and BLAS pinned, on the calling thread only:
    # one_thread's depth count is not atomic, and a traced public function
    # keeps one span stack
    seen = {"one_thread": set(), "mix64": set(), "draw": set()}

    def record(name, fn):
        def wrapped(*args, **kwargs):
            seen[name].add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(blas, "one_thread", record("one_thread", blas.one_thread))
    monkeypatch.setattr(rng, "mix64", record("mix64", rng.mix64))
    monkeypatch.setattr(rng, "_draw", record("draw", rng._draw))
    rng.normal_block(5, 100, 4 * rng._BLOCK, SHAPE)
    fbm.sample_cholesky(16, 0.7, 1, 3 * rng._BLOCK, 5)
    caller = {threading.get_ident()}
    assert seen["one_thread"] == caller
    assert seen["mix64"] == caller
    # the blocks were drawn on the pool, not inline
    assert seen["draw"] and not seen["draw"] & caller


@pytest.mark.parametrize("n_streams", [0, 1, rng._BLOCK])
def test_one_block_or_none_is_drawn_inline(monkeypatch, n_streams):
    monkeypatch.setattr(rng, "_POOL", None)
    got = rng.normal_block(4, rng._BLOCK, n_streams, SHAPE)
    np.testing.assert_array_equal(got, _block(4, 1)[:n_streams])
