import math

import numpy as np
import pytest

from condlab import rng


def test_substream_determinism_and_separation():
    assert rng.substream(1, 2, 3) == rng.substream(1, 2, 3)
    assert rng.substream(1, 2, 3) != rng.substream(1, 2, 4)
    assert rng.substream(1, 2, 3) != rng.substream(1, 3, 2)
    assert rng.substream(1) != rng.substream(2)
    # negative seeds wrap into the 64-bit space deterministically
    assert rng.substream(-1) == rng.substream(2**64 - 1)


def test_substream_broadcasts_over_index_arrays():
    keys = rng.substream(7, 0, np.arange(5))
    singles = np.array([rng.substream(7, 0, i) for i in range(5)])
    assert np.array_equal(keys, singles)


def test_uniforms_open_interval():
    u = rng.uniforms(rng.substream(8), 10**5)
    assert u.min() > 0.0
    assert u.max() <= 1.0
    assert abs(u.mean() - 0.5) < 0.01


def test_normals_shape_and_determinism():
    keys = rng.substream(9, np.arange(4))
    z = rng.standard_normals(keys, 7)
    assert z.shape == (4, 7)
    assert np.array_equal(z, rng.standard_normals(keys, 7))
    # a longer draw from the same key extends the same stream
    z10 = rng.standard_normals(keys, 10)
    assert np.array_equal(z10[:, :6], z[:, :6])


def test_normal_matrix_row_major_layout():
    key = rng.substream(10)
    flat = rng.standard_normals(key, 12)
    mat = rng.normal_matrix(key, 3, 4)
    assert np.array_equal(mat.reshape(-1), flat)


def test_normals_pass_basic_moment_checks():
    z = rng.standard_normals(rng.substream(11), 10**6)
    assert abs(z.mean()) <= 0.01
    assert abs(z.var() - 1.0) <= 0.01
    # symmetry and tail sanity
    assert abs((z > 0).mean() - 0.5) <= 0.01
    assert 0.02 < (np.abs(z) > 2.0).mean() < 0.07


_M64 = (1 << 64) - 1
KEY_SHAPES = ((), (1,), (7,), (1000,), (3, 5))
COUNTS = (1, 2, 3, 16, 49, 100, 101)


def _splitmix(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _M64
    return z ^ (z >> 31)


def _uniform(key, k):
    """Uniform k of stream ``key``, one Python integer operation at a time."""
    return ((_splitmix((key + k * 0x9E3779B97F4A7C15) & _M64) >> 11) + 1.0) * 2.0**-53


def _normal(key, j):
    """Draw j of stream ``key``: Box-Muller on uniforms 2p+1 and 2p+2, p = j // 2."""
    p = j // 2
    radius = math.sqrt(-2.0 * math.log(_uniform(key, 2 * p + 1)))
    angle = (2.0 * math.pi) * _uniform(key, 2 * p + 2)
    return radius * (math.cos(angle) if j % 2 == 0 else math.sin(angle))


def _normals_interleaved(key, count):
    """Box-Muller over one interleaved array of uniforms, read strided."""
    pairs = (count + 1) // 2
    u = rng.uniforms(key, 2 * pairs)
    radius = np.sqrt(-2.0 * np.log(u[..., 0::2]))
    angle = (2.0 * np.pi) * u[..., 1::2]
    out = np.empty(u.shape)
    out[..., 0::2] = radius * np.cos(angle)
    out[..., 1::2] = radius * np.sin(angle)
    return out[..., :count]


@pytest.mark.parametrize("shape", KEY_SHAPES)
def test_draws_match_splitmix_box_muller_oracle(shape):
    path = (np.arange(math.prod(shape)).reshape(shape),) if shape else (3,)
    keys = rng.substream(12, *path)
    assert np.shape(keys) == shape
    longest = rng.standard_normals(keys, max(COUNTS))
    for count in COUNTS:
        z = rng.standard_normals(keys, count)
        assert z.shape == shape + (count,)
        # bitwise: the stream's prefix, and the interleaved formula's bits
        assert z.tobytes() == np.ascontiguousarray(longest[..., :count]).tobytes()
        assert z.tobytes() == np.ascontiguousarray(_normals_interleaved(keys, count)).tobytes()
    # integers exactly; numpy's log, cos and sin may differ from libm in the last bit
    flat_keys = np.reshape(keys, -1)
    flat_z = longest.reshape(len(flat_keys), -1)
    flat_u = rng.uniforms(keys, 2 * max(COUNTS)).reshape(len(flat_keys), -1)
    for i in range(0, len(flat_keys), 97):
        key = int(flat_keys[i])
        assert [_uniform(key, k + 1) for k in range(flat_u.shape[1])] == flat_u[i].tolist()
        for j, x in enumerate(flat_z[i]):
            assert abs(x - _normal(key, j)) <= 8.0 * np.finfo(float).eps * abs(x)


def test_substream_matches_splitmix_oracle():
    def key(seed, *path):
        k = _splitmix((seed + 0x9E3779B97F4A7C15) & _M64)
        for part in path:
            k = _splitmix(k ^ ((part * 0x9E3779B97F4A7C15 + 0x1D8E4E27C47D124F) & _M64))
        return k

    assert int(rng.substream(12)) == key(12)
    assert int(rng.substream(-1, 5)) == key(_M64, 5)
    keys = rng.substream(12, 4, np.arange(6))
    assert keys.tolist() == [key(12, 4, i) for i in range(6)]
