import os
import tracemalloc

import numpy as np
import pytest

from ccakit.planted import PlantedParams, generate_planted


@pytest.fixture(autouse=True)
def no_unreaped_child():
    """Fail a test that leaves a child process unreaped, exited or still running."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)  # reaps one exited child
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left child process {pid} unreaped" if pid
                else "the test left a child process running")


@pytest.fixture
def small_instance():
    """Well-conditioned planted instance with a clear eigengap."""
    params = PlantedParams(n=400, p1=12, p2=15, correlations=(0.9, 0.6, 0.3))
    return generate_planted(params, seed=7)


@pytest.fixture
def rank1_instance():
    """Rank-1-focused instance with lam1=0.9, lam2=0.3."""
    params = PlantedParams(n=500, p1=8, p2=8, correlations=(0.9, 0.3))
    return generate_planted(params, seed=11)


@pytest.fixture
def rank3_pair():
    """A rank-3 500x20 X and a Gaussian 500x20 Y: at lam = 0, X's Gram spans 3 directions."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((500, 3)) @ rng.standard_normal((3, 20))
    return X, rng.standard_normal((500, 20))


def random_orthogonal(k, rng):
    from scipy.linalg import qr

    return qr(rng.standard_normal((k, k)))[0]


def peak_bytes(fn):
    """(fn(), the peak bytes traced during the call above what was held before it).

    tracemalloc sees only allocations made through Python's allocators, not the LAPACK
    workspace that ``np.linalg`` routines allocate, so a bound measured with it on a path
    through them is a lower bound on the true peak."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - before


class CountingArray(np.ndarray):
    """Dense view that counts the n-sized products taken with it, either side."""

    products = 0

    def __matmul__(self, other):
        CountingArray.products += 1
        return np.asarray(self) @ other

    def __rmatmul__(self, other):
        CountingArray.products += 1
        return other @ np.asarray(self)
