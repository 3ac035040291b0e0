import numpy as np
import pytest

from condlab import empirical, rng


def gaussian(seed, *path, shape):
    """Seeded N(0,1) array for tests; path keeps draws independent."""
    key = rng.substream(seed, *path)
    flat = rng.standard_normals(key, int(np.prod(shape)))
    return flat.reshape(shape)


def conditioned(seed, n, kappa):
    """A seeded n x n matrix with singular values logspace(0, -log10 kappa),
    so ||A||_2 = 1 and kappa_2(A) = kappa up to rounding."""
    u, _ = np.linalg.qr(gaussian(seed, 0, shape=(n, n)))
    v, _ = np.linalg.qr(gaussian(seed, 1, shape=(n, n)))
    return (u * np.logspace(0.0, -np.log10(kappa), n)) @ v.T


def clear_memos():
    """Empty the estimator's operand and direction memos."""
    empirical._operands.clear()
    empirical._draws.clear()


@pytest.fixture(autouse=True)
def cold_memos():
    # every test starts from empty memos, so no result depends on test order
    clear_memos()


@pytest.fixture
def gauss():
    return gaussian
