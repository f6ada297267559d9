import numpy as np

from fbmld import rng


def test_normal_block_rows_are_their_streams():
    # one rekeyed generator serves every row: each row must still be the
    # row its own stream draws, also after a call on other streams
    shape = (17, 2)
    rng.normal_block(4, 100, 3, (9,))
    block = rng.normal_block(4, 5, 6, shape)
    assert block.shape == (6,) + shape
    for i in range(6):
        np.testing.assert_array_equal(
            block[i], rng.stream(4, 5 + i).standard_normal(shape))
    # batching does not change a stream's rows
    np.testing.assert_array_equal(rng.normal_block(4, 7, 2, shape), block[2:4])
