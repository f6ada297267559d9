"""Counter-based random streams with order-independent per-path derivation.

Every Monte Carlo path ``i`` draws from its own Philox generator keyed by
``mix64(seed, i)``.  The mixing function is the SplitMix64 output stage
(Steele, Lea, Flood 2014), so stream derivation is a pure 64-bit function of
``(seed, i)``: results do not depend on the order in which paths are drawn,
or on how work is chunked across workers.
"""

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF


def mix64(seed: int, index: int) -> int:
    """SplitMix64 mix of a base seed and a stream index."""
    z = (int(seed) + (int(index) + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def stream(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based generator for stream ``index``."""
    return np.random.Generator(np.random.Philox(key=mix64(seed, index)))


def normal_block(seed: int, first_index: int, n_streams: int, shape) -> np.ndarray:
    """Standard normals for streams ``first_index .. first_index+n_streams-1``.

    Returns an array of shape ``(n_streams, *shape)``.  Stream ``i`` always
    produces the same block regardless of batching: row ``i`` is
    ``stream(seed, first_index + i).standard_normal(shape)``.  One Philox
    and one Generator serve every row; each row rekeys the Philox to
    ``mix64(seed, first_index + i)`` and restarts it from a zero counter
    with an empty output buffer, which is the state ``stream`` starts in.
    """
    out = np.empty((n_streams,) + tuple(shape))
    bits = np.random.Philox(key=0)
    gen = np.random.Generator(bits)
    fresh = bits.state            # zero counter, empty buffer, no spare uint32
    key = fresh["state"]["key"]   # (low, high) 64-bit words; high stays 0
    for i in range(n_streams):
        key[0] = mix64(seed, first_index + i)
        bits.state = fresh
        out[i] = gen.standard_normal(shape)
    return out
