import itertools

import pytest

from bitsense import montecarlo


class _InProcessPool:
    """Stands in for a fork pool: runs ``starmap`` in this process."""

    def __init__(self, calls: list, workers: int):
        self.calls = calls
        self.workers = workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, func, tasks):
        tasks = list(tasks)
        self.calls.append((self.workers, len(tasks)))
        return list(itertools.starmap(func, tasks))


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace the engine's fork pool with an in-process one.  The list
    returned holds ``(workers, tasks)`` for each pool run, in order."""
    calls = []

    class Context:
        def Pool(self, workers):
            return _InProcessPool(calls, workers)

    monkeypatch.setattr(montecarlo, "get_context", lambda method: Context())
    return calls
