import multiprocessing
import os

import numpy as np
import pytest

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def data_path(name: str) -> str:
    return os.path.join(DATA_DIR, name)


def sample_nonempty_pairs(rng, count):
    """Random (rho, r1, r2) with both coverage caps non-empty.

    Both caps are non-empty iff (rho-1)/2 <= r2/r1 <= 2/(rho-1).
    """
    rho = rng.uniform(1.01, 2.99, size=count)
    r1 = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=count))
    lo = (rho - 1.0) / 2.0
    hi = 2.0 / (rho - 1.0)
    ratio = lo + rng.uniform(0.0, 1.0, size=count) * (hi - lo)
    return rho, r1, r1 * ratio


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Fail a test that leaves worker processes running after it."""
    yield
    leaked = multiprocessing.active_children()
    for child in leaked:
        child.terminate()
        child.join(5)
    assert not leaked, f"worker processes left running: {leaked}"
