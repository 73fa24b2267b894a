import numpy as np
import pytest

from renewalsim import rng
from renewalsim.rng import PHI, derive_stream, mix, splitmix64, stream_keys, uniforms

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
        assert float(uniforms(mix(seed, *prefix, 0), k)) == expected[0]  # one key, one draw


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


@pytest.mark.parametrize("head_len, buffered", [
    pytest.param(0, False, id="0"), pytest.param(16, False, id="16"), pytest.param(32, True, id="32-memoryview"),
])
def test_derived_stream_is_the_counter_stream(head_len, buffered):
    # the head, its end, then the first block, the second (four times as long) and into the third;
    # a buffered head is a memoryview slice of a float64 buffer holding more than the head
    key = mix(20190814, 7)
    draws = np.arange(head_len + 5 * rng.FIRST_BLOCK + 50)
    expected = uniforms(key, draws).tolist()
    head = memoryview(uniforms(key, draws))[:head_len] if buffered else expected[:head_len]
    uniform = derive_stream(key, head)
    assert [uniform() for _ in draws] == expected


def test_long_derived_stream_holds_at_most_one_capped_block(monkeypatch):
    sizes = []

    def recording(keys, k):
        sizes.append(np.size(k))
        return uniforms(keys, k)

    key = mix(3, 1)
    n = 50_000
    expected = uniforms(key, np.arange(n)).tolist()
    monkeypatch.setattr(rng, "uniforms", recording)
    uniform = derive_stream(key, expected[:16])
    assert [uniform() for _ in range(n)] == expected
    assert sizes[0] == rng.FIRST_BLOCK
    assert all(b == min(4 * a, rng.MAX_BLOCK) for a, b in zip(sizes, sizes[1:]))
    assert max(sizes) == rng.MAX_BLOCK
    assert sum(sizes) < n + rng.MAX_BLOCK
