"""Process fan-out shared by certify and sweep_rho: the worker count, and
one ordered map that owns its pool's size and teardown."""

from __future__ import annotations

import contextlib
import os

import numpy as np

from .errors import DomainError

_FUNC = None  # the mapped function, set in each pool worker by the initializer


def resolve_workers(workers: int | None) -> int:
    """Worker count: the given one, else KISSBOUND_THREADS, else all cores."""
    if workers is None:
        env = os.environ.get("KISSBOUND_THREADS")
        if not env:
            return os.cpu_count() or 1
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise DomainError(f"KISSBOUND_THREADS must be a positive integer, got {env!r}")
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)):
        raise DomainError(f"worker count must be an integer, got {workers!r}")
    if workers < 1:
        raise DomainError(f"worker count must be positive, got {workers!r}")
    return workers


def _install(func) -> None:
    global _FUNC
    _FUNC = func


def _call(item):
    return _FUNC(item)


@contextlib.contextmanager
def ordered_map(func, items, workers: int):
    """Yield an iterator of func(item), in item order: in this process when
    min(workers, len(items)) <= 1, else on a fork pool of exactly that many
    processes taking one item at a time.  The workers inherit func through
    fork, so tables bound to it are never pickled; only items and results
    are.  The pool ends with the with block."""
    processes = min(workers, len(items))
    if processes <= 1:
        yield map(func, items)
        return
    import multiprocessing  # here: graph, highdim and an in-process sweep never fork
    with multiprocessing.get_context("fork").Pool(processes, _install, (func,)) as pool:
        yield pool.imap(_call, items, chunksize=1)
