import multiprocessing

import pytest

from kissbound import SearchConfig, certify, emit_certificate, rho_geometry, sweep_rho
from kissbound import _parallel
from kissbound.certifier import _GridScan
from kissbound.density import _sweep_loops


@pytest.fixture
def pool_requests(monkeypatch):
    """Replace the fork context's Pool with an in-process fake and record
    the process count each pool asks for; no process is started."""
    requests = []

    class FakePool:
        def __init__(self, processes=None, initializer=None, initargs=()):
            requests.append(processes)
            if initializer is not None:
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def imap(self, func, items, chunksize=1):
            return map(func, items)

    monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool", FakePool)
    monkeypatch.setattr(_parallel, "_FUNC", None)
    return requests


def test_certify_asks_for_no_more_processes_than_slabs(pool_requests):
    slabs = _GridScan(rho_geometry(1.755), 0.01).slabs
    wide = certify(1.755, 0.01, 14.5, workers=10_000)
    assert pool_requests == [slabs]
    assert emit_certificate(wide) == emit_certificate(certify(1.755, 0.01, 14.5, workers=1))


def test_sweep_asks_for_no_more_processes_than_loops(pool_requests):
    cfg = SearchConfig(grid_step=0.15, max_iterations=400)
    geoms = [rho_geometry(1.74 + 0.01 * i) for i in range(5)]
    loops = _sweep_loops(geoms, cfg, 10_000)
    wide = sweep_rho(1.74, 1.78, 0.01, cfg, workers=10_000)
    assert pool_requests == [len(loops)] == [5]
    alone = sweep_rho(1.74, 1.78, 0.01, cfg, workers=1)
    assert wide == alone
    assert [(r.iterations, r.evaluations) for r in wide] == [
        (r.iterations, r.evaluations) for r in alone
    ]


@pytest.mark.parametrize("workers, items", [(1, 5), (4, 1), (3, 0)])
def test_single_process_work_starts_no_pool(pool_requests, workers, items):
    with _parallel.ordered_map(lambda v: v * v, range(items), workers) as results:
        assert list(results) == [v * v for v in range(items)]
    assert pool_requests == []
