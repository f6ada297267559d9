import io

import numpy as np
import pytest

from fbmld.errors import DimensionError, DomainError
from fbmld.gridfn import GridFn, write_csv


def test_shape_and_dim_inference():
    f = GridFn(4, np.arange(5.0))
    assert f.dim == 1
    assert f.values.shape == (5, 1)
    assert np.allclose(f.times, [0, 0.25, 0.5, 0.75, 1.0])


def test_rejects_nonfinite_and_bad_shape():
    with pytest.raises(DomainError):
        GridFn(4, np.array([0.0, 1.0, np.nan, 0.0, 0.0]))
    with pytest.raises(DimensionError):
        GridFn(4, np.zeros((3, 1)))
    with pytest.raises(DomainError):
        GridFn(0, np.zeros((1, 1)))


def test_values_are_immutable():
    f = GridFn.zeros(8, 2)
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


def test_midpoint_values_interpolate():
    f = GridFn.from_callable(lambda t: t, 10)
    assert np.allclose(f.midpoint_values()[:, 0], (np.arange(10) + 0.5) / 10)


def test_write_csv_round_trips_every_bit():
    table = np.array([[-0.0, np.inf, 5e-324, 1.0 / 3.0],
                      [-np.inf, 0.1, 1e308, -2.5]])
    buf = io.StringIO()
    write_csv(buf, table, ["a", "b", "c", "d"], comments=("fbmld-test v1",))
    lines = buf.getvalue().splitlines()
    assert lines[:2] == ["# fbmld-test v1", "a,b,c,d"]
    back = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    assert back.tobytes() == table.tobytes()      # -0.0 keeps its sign bit
