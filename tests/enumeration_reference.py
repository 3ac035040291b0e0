"""The elementwise sign-vector search, kept as the oracle for ``norms._best_signs``.

Every sign vector is scored by the elementwise sum of its row images in
row order, and the first maximum in index order wins.  ``norms`` screens
the quadratic pairs with one GEMM and rescores only the near-maximal sign
vectors this way, so both must pick the same sign vectors, bit for bit.
"""

import numpy as np


def half_images(cols, img):
    """``img`` plus cols @ z for every sign pattern, z_j = -1 at its set bits j."""
    for j in range(cols.shape[-1]):
        img = np.concatenate((img + cols[..., j, None], img - cols[..., j, None]), axis=-1)
    return img


def best_signs(t, s, chunk_elements=1 << 16):
    """Sign vectors z, z_0 = +1, maximizing ||t z||_s over a (b, n, m) stack.

    Index high * 2^l + low sets z_{j+1} = -1 at its set bits j; the images
    of the l low and m-1-l high signs are formed once and summed a chunk at
    a time.  The first maximum in index order wins.
    """
    b, n, m = t.shape
    low = (m - 1) // 2
    lsize, hsize = 1 << low, 1 << (m - 1 - low)
    cols = min(hsize, max(1, chunk_elements // lsize))
    batch = max(1, chunk_elements // (cols * lsize))
    power = np.abs if s == 1.0 else np.square
    best, index = np.full(b, -1.0), np.zeros(b, dtype=np.int64)
    acc, term = np.empty((2, min(b, batch), cols, lsize))
    for b0 in range(0, b, batch):
        part, sl = t[b0:b0 + batch], slice(b0, b0 + batch)
        lo = half_images(part[..., 1:1 + low], part[..., :1])
        hi = half_images(part[..., 1 + low:], np.zeros_like(part[..., :1]))
        sums, tmp = acc[:len(part)], term[:len(part)]
        for c0 in range(0, hsize, cols):
            h = hi[:, :, c0:c0 + cols, None]
            power(np.add(h[:, 0], lo[:, 0, None, :], out=sums), out=sums)
            for i in range(1, n):
                sums += power(np.add(h[:, i], lo[:, i, None, :], out=tmp), out=tmp)
            flat = sums.reshape(len(part), -1)
            k = np.argmax(flat, axis=1)
            val = flat[np.arange(len(part)), k]
            better = val > best[sl]
            np.copyto(best[sl], val, where=better)
            np.copyto(index[sl], c0 * lsize + k, where=better)
    bits = (index[:, None] >> np.arange(m - 1)) & 1
    return np.concatenate((np.ones((b, 1)), 1.0 - 2.0 * bits), axis=1)
