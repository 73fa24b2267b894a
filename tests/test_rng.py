import numpy as np
import pytest

from renewalsim.rng import PHI, mix, splitmix64, stream_keys, uniforms

MASK64 = (1 << 64) - 1


@pytest.mark.parametrize("seed, prefix", [
    (0, ()), (20190814, ()), (20190814, (3, 0)), (-7, (1,)), (2**63 + 5, (2, 4)),
])
def test_uniforms_match_scalar_splitmix64(seed, prefix):
    keys = stream_keys(seed, *prefix, count=7)
    assert keys.tolist() == [mix(seed, *prefix, i) for i in range(7)]
    for k in (0, 1, 2, 201, 2**40 + 3):
        expected = [(splitmix64((mix(seed, *prefix, i) + k * PHI) & MASK64) >> 11) / 2**53
                    for i in range(7)]
        assert uniforms(keys, k).tolist() == expected


def test_draw_index_broadcasts_against_keys():
    keys = stream_keys(11, count=3)
    table = uniforms(keys[:, None], np.arange(5))
    for k in range(5):
        assert table[:, k].tolist() == uniforms(keys, k).tolist()
    assert ((table >= 0) & (table < 1)).all()


@pytest.mark.parametrize("start", [0, 1, 1023, 1024, 1025])
def test_keys_from_an_offset_are_a_slice(start):
    seed, prefix, count = 20190814, (3,), 2100
    keys = stream_keys(seed, *prefix, start=start, count=count)
    assert keys.tolist() == stream_keys(seed, *prefix, count=count)[start:].tolist()
    assert keys.tolist() == [mix(seed, *prefix, i) for i in range(start, count)]
