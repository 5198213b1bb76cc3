import os
import tracemalloc

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


def random_orthogonal(k, rng):
    from scipy.linalg import qr

    return qr(rng.standard_normal((k, k)))[0]


def peak_bytes(fn):
    """(fn(), the peak bytes traced during the call above what was held before it)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - before
