"""Deterministic counter-based random streams.

Every random quantity in this package is addressed, not drawn: a stream key
is derived by hashing a (seed, index, index, ...) path with the SplitMix64
finalizer, and the k-th variate of a stream is a pure function of
(key, k).  Experiments therefore reproduce bit-for-bit for a fixed seed no
matter how trials are chunked or reordered.

Normals come from Box-Muller on open-interval uniforms, so log() never sees
zero.  All integer arithmetic is uint64 with wraparound; numpy arrays (not
scalars) are used throughout because numpy warns on scalar overflow.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = (1 << 64) - 1


def _finalize(z):
    """The SplitMix64 finalizer of a uint64 array, in place with one scratch
    buffer; a scalar comes back as a new 0-d array."""
    z = np.asarray(z, dtype=np.uint64)
    t = np.empty_like(z)
    with np.errstate(over="ignore"):  # uint64 wraparound is the point
        for shift, mix in ((30, _MIX1), (27, _MIX2), (31, None)):
            np.right_shift(z, np.uint64(shift), out=t)
            z ^= t
            if mix is not None:
                z *= mix
    return z


def is_whole(value, least=None):
    """Whether ``value`` is an integer, not a bool, and at least ``least``
    when that is given: what a seed, a count or a size must be.  A float or
    a string is not, even when it holds a whole number."""
    return (isinstance(value, Integral) and not isinstance(value, bool)
            and (least is None or value >= least))


def substream(seed, *path):
    """Derive a stream key from a seed and an index path.

    Path parts may be ints or integer arrays; arrays broadcast, so
    ``substream(seed, 3, np.arange(T))`` yields one key per trial.
    """
    with np.errstate(over="ignore"):
        key = _finalize(np.asarray(int(seed) & _MASK, dtype=np.uint64) + _GOLDEN)
        for part in path:
            part = np.asarray(part)
            if part.dtype.kind not in "iu":
                raise TypeError("substream indices must be integers")
            part = part.astype(np.uint64)
            key = _finalize(key ^ (part * _GOLDEN + np.uint64(0x1D8E4E27C47D124F)))
    return key[()]


def _uniforms_at(key, counters):
    """The floats in (0, 1] at the given uint64 counters of each key, shape
    ``key.shape + counters.shape``."""
    with np.errstate(over="ignore"):
        bits = _finalize(np.asarray(key, dtype=np.uint64)[..., None] + counters * _GOLDEN)
    bits >>= np.uint64(11)
    u = bits.astype(np.float64)
    u += 1.0
    u *= 2.0**-53
    return u


def uniforms(key, count):
    """``count`` floats in (0, 1] with 53-bit resolution per key.

    Returns shape ``key.shape + (count,)``.
    """
    return _uniforms_at(key, np.arange(1, count + 1, dtype=np.uint64))


def standard_normals(key, count):
    """``count`` N(0,1) draws per key via Box-Muller, shape ``key.shape + (count,)``.

    Pair p takes its radius from uniform 2p+1 and its angle from uniform
    2p+2 of the stream; each set is drawn as one contiguous array.
    """
    pairs = (count + 1) // 2
    odd = np.arange(1, 2 * pairs, 2, dtype=np.uint64)
    radius = _uniforms_at(key, odd)
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = _uniforms_at(key, odd + np.uint64(1))
    angle *= 2.0 * np.pi
    out = np.empty(radius.shape[:-1] + (2 * pairs,))
    np.multiply(radius, np.cos(angle), out=out[..., 0::2])
    np.multiply(radius, np.sin(angle, out=angle), out=out[..., 1::2])
    return out[..., :count]


def normal_matrix(key, rows, cols):
    """A rows-by-cols matrix of N(0,1) draws, row-major; batched over key shape."""
    z = standard_normals(key, rows * cols)
    return z.reshape(np.shape(key) + (rows, cols))
