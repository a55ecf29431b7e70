import multiprocessing
import os

import numpy as np
import pytest

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def simd_extensions():
    """numpy's SIMD Extensions entry (baseline, found, not found) for this
    process, or None where np.show_config takes no mode."""
    try:
        return np.show_config(mode="dicts")["SIMD Extensions"]
    except (TypeError, KeyError):
        return None


def pytest_report_header(config):
    # arccos bits, and so some pinned results, depend on numpy's SIMD path
    simd = simd_extensions()
    return f"numpy {np.__version__}" + ("" if simd is None else f", SIMD Extensions {simd}")


def pytest_terminal_summary(terminalreporter, config):
    # -q hides the report header; the path still goes into the log
    if config.option.verbose < 0:
        terminalreporter.write_line(pytest_report_header(config))


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
