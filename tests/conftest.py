import os

import pytest

from bitsense import montecarlo


@pytest.fixture
def fake_pool(monkeypatch):
    """Run the engine's real fork runner with `os.fork` deleted, so it runs
    every share in this process and starts none.  The list returned holds
    ``(shares, tasks)`` for each run of more than one share, in order."""
    calls = []
    fork_map = montecarlo._fork_map

    def recorded(shares):
        if len(shares) > 1:
            calls.append((len(shares), sum(map(len, shares))))
        return fork_map(shares)

    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(montecarlo, "_fork_map", recorded)
    return calls


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` makes the engine see n usable CPUs, so the cap of
    `montecarlo._worker_count` is the same on any host."""

    def pin(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return pin
