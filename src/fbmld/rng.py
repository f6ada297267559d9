"""Counter-based random streams, drawn by aligned blocks of paths.

Keys come from ``mix64``, the SplitMix64 output stage (Steele, Lea, Flood
2014), so each is a pure 64-bit function of a base seed and an index.
:func:`stream` gives index ``i`` the Philox generator keyed by
``mix64(seed, i)``, with Philox's high key word 0.

The Monte Carlo normals come from :func:`normal_block`, which keys one
Philox generator per block of ``_BLOCK`` paths, not one per path (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011): path ``i`` is
row ``i % _BLOCK`` of block ``b = i // _BLOCK``, keyed by
``mix64(seed, b) | 1 << 64``.  The high key word 1 keeps the blocks out of
the key space of :func:`stream`, so no stream draws a block's numbers.

The blocks of one call are drawn on ``_POOL``, one thread per core this
process may run on.  A worker runs only numpy's draw, which releases the
GIL; every key is derived on the calling thread.  A path's numbers are a
pure function of ``(seed, path index)``: they do not depend on the thread
count, on the order in which blocks are drawn, or on how the paths are
split across calls.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF
# paths per Philox key of normal_block
_BLOCK = 256
_POOL = ThreadPoolExecutor(len(os.sched_getaffinity(0)))


def mix64(seed: int, index: int) -> int:
    """SplitMix64 mix of a base seed and a stream index."""
    z = (int(seed) + (int(index) + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def stream(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based generator for stream ``index``."""
    return np.random.Generator(np.random.Philox(key=mix64(seed, index)))


def _draw(key: int, skip: int, rows: np.ndarray) -> None:
    """Fill ``rows`` with the normals of block ``key`` after its first
    ``skip`` rows.  A prefix of a Philox ziggurat draw is the same numbers
    as a shorter draw, so a ragged tail is bitwise the block's first rows."""
    gen = np.random.Generator(np.random.Philox(key=key))
    if skip:
        gen.standard_normal((skip,) + rows.shape[1:])
    gen.standard_normal(out=rows)


def normal_block(seed: int, first_index: int, n_streams: int, shape) -> np.ndarray:
    """Standard normals for paths ``first_index .. first_index+n_streams-1``.

    Returns an array of shape ``(n_streams, *shape)`` whose row ``i`` is row
    ``(first_index + i) % _BLOCK`` of the block of ``first_index + i``: a
    draw of shape ``(_BLOCK, *shape)`` from the Philox generator keyed by
    ``mix64(seed, b) | 1 << 64``.  Each block writes straight into its rows
    of the result; a call that covers more than one block draws them on
    ``_POOL``.  A path's row is the same for any split into calls and any
    thread count.
    """
    shape = tuple(shape)
    out = np.empty((n_streams,) + shape)
    jobs = []
    lo = 0
    while lo < n_streams:
        b, skip = divmod(first_index + lo, _BLOCK)
        hi = min(n_streams, lo + _BLOCK - skip)
        jobs.append((mix64(seed, b) | 1 << 64, skip, out[lo:hi]))
        lo = hi
    if len(jobs) == 1:
        _draw(*jobs[0])
    else:
        for done in [_POOL.submit(_draw, *job) for job in jobs]:
            done.result()
    return out
