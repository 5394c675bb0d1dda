"""Fixtures shared by the test modules."""

import pytest

from skelpool import model as M


@pytest.fixture(autouse=True)
def one_blas_thread(monkeypatch):
    """Block sizes and thread counts of a blocked eval forward as with BLAS
    pinned to one thread, as the benchmark runs it, whatever BLAS runs on."""
    monkeypatch.setattr(M, "_blas_threads", lambda: 1)


@pytest.fixture
def eval_threads(monkeypatch):
    """`eval_threads(n)` makes a blocked eval forward score its blocks on up to n
    threads, through a pool of its own that is shut down when the test ends."""
    used = []

    def use(n: int) -> None:
        if used and M._POOL is not None:
            M._POOL.shutdown()
        monkeypatch.setattr(M, "_eval_workers", lambda: n)
        monkeypatch.setattr(M, "_POOL", None)
        used.append(n)

    yield use
    if used and M._POOL is not None:
        M._POOL.shutdown()
