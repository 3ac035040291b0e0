import numpy as np
import pytest
from hypothesis import settings

from condlab import empirical, rng

# Hypothesis draws the same examples on every run, so a failure reproduces;
# each test keeps its own max_examples
settings.register_profile("condlab", derandomize=True)
settings.load_profile("condlab")


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
    """Empty the estimator's operand and draw caches."""
    empirical._operands.cache_clear()
    empirical._draws.cache_clear()


@pytest.fixture(autouse=True)
def cold_memos():
    # every test starts from empty caches, so no result depends on test order
    clear_memos()


@pytest.fixture
def gauss():
    return gaussian
