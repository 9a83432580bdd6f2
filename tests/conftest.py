import pytest

from bitsense import montecarlo


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace the engine's fork runner with an in-process one.  The list
    returned holds ``(workers, tasks)`` for each parallel run, in order."""
    calls = []

    def run_in_process(tasks, workers):
        calls.append((workers, len(tasks)))
        return [montecarlo._run_sweep_trials(*task) for task in tasks]

    monkeypatch.setattr(montecarlo, "_fork_map", run_in_process)
    return calls
