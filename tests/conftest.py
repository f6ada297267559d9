import numpy as np
import pytest

from fbmld import rng
from fbmld.gridfn import GridFn


@pytest.fixture
def smooth_pair():
    """A smooth (f, g) pair on a 512-step grid."""
    n = 512
    f = GridFn.from_callable(lambda t: np.sin(2 * np.pi * t), n)
    g = GridFn.from_callable(lambda t: np.cos(2 * np.pi * t) + t, n)
    return f, g


def random_gridfn(seed: int, n_steps: int, dim: int = 1,
                  smooth: bool = True) -> GridFn:
    """Seeded random path: a short Fourier sum (smooth) or random walk."""
    gen = rng.stream(seed, 0)
    t = np.arange(n_steps + 1) / n_steps
    if smooth:
        vals = np.zeros((n_steps + 1, dim))
        for k in range(1, 5):
            amp = gen.standard_normal(dim) / k
            phase = gen.uniform(0, 2 * np.pi, dim)
            vals += amp * np.sin(2 * np.pi * k * t[:, None] + phase)
        return GridFn(n_steps, vals)
    steps = gen.standard_normal((n_steps, dim)) / np.sqrt(n_steps)
    vals = np.vstack([np.zeros((1, dim)), np.cumsum(steps, axis=0)])
    return GridFn(n_steps, vals)


def central_difference(f, x) -> np.ndarray:
    """Central-difference gradient of a scalar function f at the vector x.

    The test suite's one finite-difference oracle: coordinate i moves by
    ``1e-6 * max(1, |x_i|)`` each way.
    """
    x = np.asarray(x, dtype=float)
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    grad = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h[i]
        grad[i] = (f(x + e) - f(x - e)) / (2.0 * h[i])
    return grad
