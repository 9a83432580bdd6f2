"""CLI error paths: an output path that is a file, and a config line with no '='."""

import pytest

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


def test_a_config_line_without_an_equals_sign_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n 20\n")
    assert main(["roc", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {cfg}:1: expected 'key = value', got 'n 20'\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()
