"""The fork runner when a fork is refused, and the sweeps that must not fork."""

import hashlib
import os

import pytest

from bitsense.model import Hypothesis, ModelParams
from bitsense.montecarlo import RunConfig, simulate_sweep
from test_cli import RECORDED_JSON_SHA256, RECORDED_VALIDATE_SHA256
from test_fork_runner import run_script


def test_a_refused_fork_is_raised_and_every_child_and_fd_released():
    body = """
    import errno

    real_fork = os.fork
    forks = []


    def fork():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, "fork refused")
        return real_fork()


    def open_fds():
        return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


    before = open_fds()
    os.fork = fork
    try:
        montecarlo.simulate_sweep([config], Hypothesis.H1, workers=3)
    except BlockingIOError as exc:
        print(f"raised errno {exc.errno == errno.EAGAIN}")
    else:
        print("no error")
    print("reaped" if no_child_left() else "child left")
    print("fds kept" if open_fds() == before else f"fds {before} -> {open_fds()}")
    """
    done = run_script(body)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["raised errno True", "reaped", "fds kept"]


def test_one_share_forks_nothing(monkeypatch):
    def fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", fork)
    params = ModelParams(n=4, num_sensors=1, sigma_s2=1.0, r=0.5, sigma2=1e-4)
    (y,) = simulate_sweep([RunConfig(params, master_seed=1, trials=8)], Hypothesis.H1, workers=1)
    assert len(y) == 8
    assert simulate_sweep([], Hypothesis.H0, workers=2) == []


def run_cli_without_fork(argv: list[str], workers: str | None = None):
    """`bitsense <argv>` in a fresh interpreter that has no `os.fork`."""
    setup = f"os.environ['BITSENSE_WORKERS'] = {workers!r}" if workers else ""
    body = f"""
    import os, sys
    del os.fork
    {setup}
    from bitsense.cli import main
    sys.exit(main({argv!r}))
    """
    return run_script(body, preamble="")


def test_validate_runs_its_two_worker_replay_where_nothing_can_fork(tmp_path):
    report = tmp_path / "report.json"
    done = run_cli_without_fork(["validate", "--quick", "--seed", "11", "--out", str(report)])
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(report.read_bytes()).hexdigest() == RECORDED_VALIDATE_SHA256


def test_an_explicit_workers_env_var_runs_in_process_where_nothing_can_fork(tmp_path):
    out = tmp_path / "out"
    argv = ["roc", "--preset", "fig3", "--trials", "300", "--seed", "5", "--format", "json"]
    done = run_cli_without_fork(argv + ["--out", str(out)], workers="2")
    assert done.returncode == 0, done.stderr
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.iterdir()
        if path.name != "manifest.json"
    }
    assert digests == RECORDED_JSON_SHA256
