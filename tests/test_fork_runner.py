"""The engine's fork runner (`montecarlo._fork_map`) and its default
worker count.

Failure paths run in a fresh interpreter under a timeout, so a runner that
hangs or leaves a child behind fails the test instead of the test session.
"""

import contextlib
import hashlib
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

import bitsense
from bitsense import montecarlo
from bitsense.cli import main
from bitsense.model import Hypothesis, ModelParams
from bitsense.montecarlo import RunConfig, simulate_sweep
from test_cli import RECORDED_JSON_SHA256

SRC = str(Path(bitsense.__file__).resolve().parents[1])

#: Shared start of every scenario script: three usable CPUs, so that
#: ``workers=3`` makes three shares on any host, a tiny config, and the
#: pid of the process that runs share 0.
PREAMBLE = """\
import os, sys
import numpy as np
from bitsense import montecarlo
from bitsense.model import Hypothesis, ModelParams

os.sched_getaffinity = lambda pid: {0, 1, 2}
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
        def run(*task):
            if os.getpid() == PARENT:
                raise ValueError("parent")
            return [np.zeros(1 << 20, dtype=np.int64)]
        """,
        ValueError,
        "parent",
    ),
    "child-raises": (
        """
        def run(*task):
            if os.getpid() != PARENT:
                raise ValueError("x")
            return real_run(*task)
        """,
        ValueError,
        "x",
    ),
    "child-raises-what-will-not-pickle": (
        """
        def run(*task):
            if os.getpid() != PARENT:
                raise ValueError(lambda: 0)
            return real_run(*task)
        """,
        RuntimeError,
        "worker 1 failed: ValueError(<function",
    ),
    "child-exits-without-a-result": (
        """
        def run(*task):
            if os.getpid() != PARENT:
                os._exit(3)
            return real_run(*task)
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


def test_an_roc_sweep_reaps_every_child():
    body = """
    configs = [
        montecarlo.RunConfig(ModelParams(n=4, num_sensors=N, sigma_s2=1.0, r=0.5, sigma2=1e-4), 1, 8)
        for N in (1, 2, 3)
    ]
    serial = montecarlo.estimate_sweep(configs, workers=1)
    forked = montecarlo.estimate_sweep(configs, workers=3)
    for a, b in zip(serial, forked):
        assert a.pfa.tolist() == b.pfa.tolist() and a.pd.tolist() == b.pd.tolist()
    print("reaped" if no_child_left() else "child left")
    """
    done = run_script(body)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "reaped\n"


def test_a_forked_roc_share_sends_the_same_bytes_at_any_trial_count():
    # each child's pickled result is one count histogram per config and
    # hypothesis, so 8 and 4000 trials send results of one size
    body = """
    import pickle
    sizes = []
    loads = pickle.loads
    pickle.loads = lambda data: (sizes.append(len(data)), loads(data))[1]
    configs = [
        montecarlo.RunConfig(ModelParams(n=4, num_sensors=N, sigma_s2=1.0, r=0.5, sigma2=1e-4), 1, trials)
        for trials in (8, 4000)
        for N in (1, 2)
    ]
    montecarlo.estimate_sweep(configs[:2], workers=3)
    small, sizes[:] = sizes[:], []
    montecarlo.estimate_sweep(configs[2:], workers=3)
    assert len(small) == 2 and sizes == small, (small, sizes)
    print("reaped" if no_child_left() else "child left")
    """
    done = run_script(body)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "reaped\n"


def h1_config(trials: int) -> RunConfig:
    params = ModelParams(n=20, num_sensors=3, sigma_s2=1.0, r=0.5, sigma2=1e-4)
    return RunConfig(params, master_seed=7, trials=trials)


class TestDefaultWorkerCount:
    """Unset BITSENSE_WORKERS: one worker per 2**19 normals, up to the
    usable CPUs (four here)."""

    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch, cpus):
        monkeypatch.delenv("BITSENSE_WORKERS", raising=False)
        cpus(4)

    def test_a_large_draw_takes_one_worker_per_share(self, fake_pool):
        # 20000 trials x 80 normals = 1.6M draws: three workers
        simulate_sweep([h1_config(20000)], Hypothesis.H1)
        assert fake_pool == [(3, 3)]

    def test_a_small_draw_stays_serial(self, fake_pool):
        simulate_sweep([h1_config(2000)], Hypothesis.H1)
        assert fake_pool == []

    def test_a_process_that_cannot_fork_stays_serial(self, monkeypatch):
        (serial,) = simulate_sweep([h1_config(20000)], Hypothesis.H1, workers=1)
        monkeypatch.delattr(os, "fork")
        ranges = ranges_run_in_process(monkeypatch)
        (y,) = simulate_sweep([h1_config(20000)], Hypothesis.H1)
        assert y.tolist() == serial.tolist()
        # the sizing still gives three shares; this process runs all of them
        assert ranges == [(0, 6666), (6666, 13333), (13333, 20000)]

    def test_a_process_with_other_threads_stays_serial(self, monkeypatch):
        (serial,) = simulate_sweep([h1_config(20000)], Hypothesis.H1, workers=1)
        with a_live_thread(monkeypatch):
            (y,) = simulate_sweep([h1_config(20000)], Hypothesis.H1)
        assert y.tolist() == serial.tolist()

    def test_an_explicit_count_is_honoured(self, fake_pool):
        simulate_sweep([h1_config(20000)], Hypothesis.H1, workers=2)
        assert fake_pool == [(2, 2)]

    def test_an_explicit_count_splits_off_no_share_without_trials(
        self, fake_pool, monkeypatch, cpus
    ):
        # eight workers on eight CPUs, groups of 5 and 2 trials: five shares,
        # each with a trial of the larger group; the smaller group's range
        # may be empty
        cpus(8)
        configs = [h1_config(5), h1_config(2)]
        serial = simulate_sweep(configs, Hypothesis.H1, workers=1)
        ranges = ranges_run_in_process(monkeypatch)
        pooled = simulate_sweep(configs, Hypothesis.H1, workers=8)
        assert fake_pool == [(5, 10)]
        shares = [ranges[k : k + 2] for k in range(0, len(ranges), 2)]
        assert len(shares) == 5 and all(any(a < b for a, b in share) for share in shares)
        assert [y.tolist() for y in pooled] == [y.tolist() for y in serial]

    def test_an_explicit_count_beside_another_thread_forks_nothing(self, monkeypatch):
        (serial,) = simulate_sweep([h1_config(2000)], Hypothesis.H1, workers=1)
        with a_live_thread(monkeypatch):
            (y,) = simulate_sweep([h1_config(2000)], Hypothesis.H1, workers=2)
        assert y.tolist() == serial.tolist()


class TestOneCap:
    """Every count, from ``workers=``, BITSENSE_WORKERS or the default, is
    at most max(2, usable CPUs): a huge count forks no child per trial,
    and a 2-worker run still splits on one CPU."""

    def test_a_huge_count_runs_on_the_usable_cpus(self, fake_pool, cpus):
        cpus(2)
        montecarlo.simulate_statistics(h1_config(20), Hypothesis.H1, workers=64)
        assert fake_pool == [(2, 2)]

    def test_a_huge_count_runs_a_sweep_on_the_usable_cpus(self, fake_pool, cpus):
        cpus(2)
        montecarlo.estimate_sweep([h1_config(20)], workers=64)
        # one group per hypothesis, each split into two ranges
        assert fake_pool == [(2, 4)]

    @pytest.mark.parametrize("workers", [64, 2])
    def test_one_cpu_still_splits_in_two(self, fake_pool, cpus, workers):
        cpus(1)
        serial = montecarlo.simulate_statistics(h1_config(20), Hypothesis.H1, workers=1)
        pooled = montecarlo.simulate_statistics(h1_config(20), Hypothesis.H1, workers=workers)
        assert fake_pool == [(2, 2)]
        assert pooled.tolist() == serial.tolist()


def test_shares_tile_a_trial_count_a_float_cannot_hold(monkeypatch):
    # float bounds (np.linspace) ended 2**53 + 1 trials at 2**53, a trial short
    trials, shares = 2**53 + 1, []

    def fork_map(split):
        shares.extend(split)
        return [[[np.zeros(0, np.int64)] for _ in share] for share in split]

    monkeypatch.setattr(montecarlo, "_fork_map", fork_map)
    montecarlo.simulate_statistics(h1_config(trials), Hypothesis.H1, workers=2)
    assert [task[3:5] for share in shares for task in share] == [
        (0, 2**52), (2**52, trials)
    ]


def ranges_run_in_process(monkeypatch) -> list[tuple[int, int]]:
    """The trial ranges `_run_sweep_trials` runs in this process, in order."""
    ranges = []
    real_run = montecarlo._run_sweep_trials

    def run(*task):
        ranges.append(task[3:5])
        return real_run(*task)

    monkeypatch.setattr(montecarlo, "_run_sweep_trials", run)
    return ranges


@contextlib.contextmanager
def a_live_thread(monkeypatch):
    """Run the block beside a second Python thread, with `os.fork` raising."""

    def fork():
        raise AssertionError("forked beside a live thread")

    monkeypatch.setattr(os, "fork", fork)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        yield
    finally:
        release.set()
        waiter.join()


@pytest.mark.parametrize("workers", ["2", "3"])
def test_forked_roc_json_matches_the_recorded_sha256s(tmp_path, monkeypatch, cpus, workers):
    # four usable CPUs, so the engine's cap keeps each count on any host
    cpus(4)
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
