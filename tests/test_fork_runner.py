"""The engine's fork runner (`montecarlo._fork_map`) and its default
worker count.

Failure paths run in a fresh interpreter under a timeout, so a runner that
hangs or leaves a child behind fails the test instead of the test session.
"""

import hashlib
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

import bitsense
from bitsense.cli import main
from bitsense.model import Hypothesis, ModelParams
from bitsense.montecarlo import RunConfig, simulate_sweep
from test_cli import RECORDED_JSON_SHA256

SRC = str(Path(bitsense.__file__).resolve().parents[1])

#: Shared start of every scenario script: a tiny config, and the pid of
#: the process that runs share 0.
PREAMBLE = """\
import os, sys
import numpy as np
from bitsense import montecarlo
from bitsense.model import Hypothesis, ModelParams

PARENT = os.getpid()
params = ModelParams(n=4, num_sensors=1, sigma_s2=1.0, r=0.5, sigma2=1e-4)
config = montecarlo.RunConfig(params, master_seed=1, trials=8)
real_run = montecarlo._run_sweep_trials


def no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
"""


def run_script(body: str, preamble: str = PREAMBLE) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("BITSENSE_WORKERS", None)
    return subprocess.run(
        [sys.executable, "-c", preamble + textwrap.dedent(body)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


FAILURES = {
    # The parent's share raises while its child blocks writing 8 MB, far
    # past a pipe's buffer: the parent must close the pipe, not wait.
    "parent-raises": (
        """
        def run(params, key, hypothesis, start, stop):
            if os.getpid() == PARENT:
                raise ValueError("parent")
            return [np.zeros(1 << 20, dtype=np.int64)]
        """,
        ValueError,
        "parent",
    ),
    "child-raises": (
        """
        def run(params, key, hypothesis, start, stop):
            if os.getpid() != PARENT:
                raise ValueError("x")
            return real_run(params, key, hypothesis, start, stop)
        """,
        ValueError,
        "x",
    ),
    "child-raises-what-will-not-pickle": (
        """
        def run(params, key, hypothesis, start, stop):
            if os.getpid() != PARENT:
                raise ValueError(lambda: 0)
            return real_run(params, key, hypothesis, start, stop)
        """,
        RuntimeError,
        "worker 1 failed: ValueError(<function",
    ),
    "child-exits-without-a-result": (
        """
        def run(params, key, hypothesis, start, stop):
            if os.getpid() != PARENT:
                os._exit(3)
            return real_run(params, key, hypothesis, start, stop)
        """,
        RuntimeError,
        "worker 1 (pid ",
    ),
}


@pytest.mark.parametrize("scenario", sorted(FAILURES))
def test_a_failed_share_is_raised_and_every_child_reaped(scenario):
    patch, error, text = FAILURES[scenario]
    body = textwrap.dedent(patch) + f"""
montecarlo._run_sweep_trials = run
try:
    montecarlo.simulate_sweep([config], Hypothesis.H1, workers=2)
except {error.__name__} as exc:
    print(f"raised {{exc}}")
else:
    print("no error")
print("reaped" if no_child_left() else "child left")
"""
    done = run_script(body)
    lines = done.stdout.splitlines()
    assert done.returncode == 0, done.stderr
    assert len(lines) == 2 and lines[0].startswith(f"raised {text}"), done.stdout
    assert lines[1] == "reaped"


def test_children_never_repeat_buffered_output():
    body = """
    print("out line")
    print("err line", file=sys.stderr)
    serial = montecarlo.simulate_sweep([config], Hypothesis.H1, workers=1)
    forked = montecarlo.simulate_sweep([config], Hypothesis.H1, workers=3)
    assert forked[0].tolist() == serial[0].tolist() and no_child_left()
    """
    done = run_script(body)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "out line\n"
    assert done.stderr == "err line\n"


def h1_config(trials: int) -> RunConfig:
    params = ModelParams(n=20, num_sensors=3, sigma_s2=1.0, r=0.5, sigma2=1e-4)
    return RunConfig(params, master_seed=7, trials=trials)


class TestDefaultWorkerCount:
    """Unset BITSENSE_WORKERS: one worker per 2**19 normals, up to the
    usable CPUs (four here)."""

    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        monkeypatch.delenv("BITSENSE_WORKERS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})

    def test_a_large_draw_takes_one_worker_per_share(self, fake_pool):
        # 20000 trials x 80 normals = 1.6M draws: three workers
        simulate_sweep([h1_config(20000)], Hypothesis.H1)
        assert fake_pool == [(3, 3)]

    def test_a_small_draw_stays_serial(self, fake_pool):
        simulate_sweep([h1_config(2000)], Hypothesis.H1)
        assert fake_pool == []

    def test_a_process_that_cannot_fork_stays_serial(self, fake_pool, monkeypatch):
        monkeypatch.delattr(os, "fork")
        simulate_sweep([h1_config(20000)], Hypothesis.H1)
        assert fake_pool == []

    def test_a_process_with_other_threads_stays_serial(self, fake_pool):
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            simulate_sweep([h1_config(20000)], Hypothesis.H1)
        finally:
            release.set()
            waiter.join()
        assert fake_pool == []

    def test_an_explicit_count_is_honoured(self, fake_pool, monkeypatch):
        simulate_sweep([h1_config(20000)], Hypothesis.H1, workers=2)
        monkeypatch.setenv("BITSENSE_WORKERS", "2")
        simulate_sweep([h1_config(3)], Hypothesis.H1)
        assert fake_pool == [(2, 2), (2, 2)]


@pytest.mark.parametrize("workers", ["2", "3"])
def test_forked_roc_json_matches_the_recorded_sha256s(tmp_path, monkeypatch, workers):
    monkeypatch.setenv("BITSENSE_WORKERS", workers)
    out = tmp_path / "out"
    argv = ["roc", "--preset", "fig3", "--trials", "300", "--seed", "5", "--format", "json"]
    assert main(argv + ["--out", str(out)]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.iterdir()
        if path.name != "manifest.json"
    }
    assert digests == RECORDED_JSON_SHA256


def test_building_the_cli_does_not_import_multiprocessing():
    # the engine's forks need no multiprocessing, and its import costs start-up
    code = """
        import sys
        from bitsense import cli
        cli.build_parser()
        print("multiprocessing" in sys.modules)
        """
    done = run_script(code, preamble="")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
