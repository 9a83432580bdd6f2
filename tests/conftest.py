import pytest

from bitsense import montecarlo


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace the engine's fork runner with an in-process one.  The list
    returned holds ``(workers, tasks)`` for each run of more than one
    share, in order."""
    calls = []

    def run_in_process(shares):
        if len(shares) > 1:
            calls.append((len(shares), sum(map(len, shares))))
        return [[montecarlo._run_sweep_trials(*task) for task in share] for share in shares]

    monkeypatch.setattr(montecarlo, "_fork_map", run_in_process)
    return calls
