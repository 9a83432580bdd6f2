"""CLI error paths: an output path that is a file or lies below one, a
validate run too small for its replay, a config line with no '=', a
config too large for memory, and a size no array can hold."""

import pytest

from bitsense import detector, montecarlo
from bitsense.cli import main


@pytest.mark.parametrize("command", ["roc", "theory"])
def test_an_out_path_that_is_a_file_is_an_io_error(tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("kept\n")
    assert main([command, "--preset", "fig2", "--trials", "20", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"io error: [Errno 17] File exists: {str(out)!r}\n"
    assert captured.out == ""
    assert out.read_text() == "kept\n"


def test_validate_fails_on_an_out_below_a_file_before_any_check(tmp_path, capsys, monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    calls = []
    simulate = montecarlo.simulate_statistics

    def spy(*args, **kwargs):
        calls.append(args)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "simulate_statistics", spy)
    assert main(["validate", "--quick", "--out", str(taken / "r.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"io error: [Errno 17] File exists: {str(taken)!r}\n"
    assert "PASS" not in captured.out
    assert calls == []
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize("trials", ["1", "0"])
def test_validate_refuses_too_few_trials_for_its_two_worker_replay(
    tmp_path, capsys, monkeypatch, trials
):
    # one trial makes one share, so the "1 vs 2 workers" replay would fork
    # nothing and still print PASS
    calls = []
    monkeypatch.setattr(montecarlo, "simulate_statistics", lambda *args: calls.append(args))
    report = tmp_path / "r.json"
    assert main(["validate", "--trials", trials, "--out", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: --trials must be >= 2 for the 1- vs 2-worker replay, got {trials}\n"
    )
    assert captured.out == ""
    assert calls == []
    assert not report.exists()


def test_a_config_line_without_an_equals_sign_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n 20\n")
    assert main(["roc", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {cfg}:1: expected 'key = value', got 'n 20'\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "error, message",
    [
        (MemoryError("Unable to allocate 22.4 GiB"), "Unable to allocate 22.4 GiB"),
        (MemoryError(), "out of memory"),
    ],
)
def test_a_config_too_large_for_memory_is_a_usage_error(
    tmp_path, capsys, monkeypatch, error, message
):
    # n = 3e9 really does run out of memory building the threshold grid;
    # raising here keeps the test from allocating on a host that overcommits
    def out_of_memory(params):
        raise error

    monkeypatch.setattr(detector, "sweep_thresholds", out_of_memory)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("n = 3000000000\nr = 0.3\n")
    assert main(["theory", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["roc", "--preset", "fig3", "--trials", str(10**30)], "trials must be at most"),
        (["roc", "--preset", "fig3", "--trials", str(2**63 - 1)], "trials must be at most"),
        (["validate", "--trials", str(2**61)], "trials must be at most"),
        (["roc", "--config", "n_2_60.cfg"], "8 (num_sensors + 1) n must be <="),
        (["theory", "--config", "n_2_60.cfg"], "8 (num_sensors + 1) n must be <="),
        (["roc", "--config", "n_1e22.cfg"], "8 (num_sensors + 1) n must be <="),
        (["theory", "--config", "n_1e22.cfg"], "8 (num_sensors + 1) n must be <="),
    ],
    ids=[
        "roc-trials-1e30", "roc-trials-2**63-1", "validate-trials-2**61",
        "roc-n-2**60", "theory-n-2**60", "roc-n-1e22", "theory-n-1e22",
    ],
)
def test_a_size_no_array_can_hold_is_a_usage_error(tmp_path, capsys, monkeypatch, argv, message):
    # numpy died on each of these (a cast error, an array too big, a
    # maximum size exceeded) or ran on with wrapped share bounds
    monkeypatch.chdir(tmp_path)
    (tmp_path / "n_2_60.cfg").write_text(f"n = {2**60}\nr = 0.3\n")
    (tmp_path / "n_1e22.cfg").write_text(f"n = {10**22}\nr = 0.3\n")
    out = ["--out", "report.json" if argv[0] == "validate" else "out"]
    assert main(argv + out) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["n_1e22.cfg", "n_2_60.cfg"]
