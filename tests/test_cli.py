import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bitsense
import bitsense.signal
from bitsense.cli import (
    CURVE_HEADER,
    DEFAULT_MASTER_SEED,
    ConfigError,
    expand_preset,
    main,
    parse_config_file,
)

FULL_CONFIG = """
# custom run; noise_std is the noise standard deviation (sigma)
n = 12
num_sensors = 2
sigma_s2 = 1.0
r = 0.4          # lag-1 covariance
noise_std = 0.01
trials = 250
seed = 7
mode = paper
label = custom-run
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigFile:
    def test_full_config_round_trip(self, tmp_path):
        label, config = parse_config_file(write_config(tmp_path, FULL_CONFIG))
        assert label == "custom-run"
        assert config.params.n == 12
        assert config.params.num_sensors == 2
        assert config.params.r == 0.4
        assert config.params.sigma2 == pytest.approx(1e-4)
        assert config.trials == 250
        assert config.master_seed == 7
        assert config.theory_mode.value == "paper"

    def test_defaults_fill_in(self, tmp_path):
        label, config = parse_config_file(
            write_config(tmp_path, "n = 8\nr = 0.2\n", name="tiny.cfg")
        )
        assert label == "tiny"
        assert config.params.num_sensors == 1
        assert config.params.sigma_s2 == 1.0
        assert config.trials == 20000
        assert config.master_seed == DEFAULT_MASTER_SEED
        assert len(config.thresholds) == 9  # (8-1)*1 + 2

    def test_explicit_thresholds(self, tmp_path):
        _, config = parse_config_file(
            write_config(tmp_path, "n = 8\nr = 0.2\nthresholds = 0.5, 2.5, 4.5\n")
        )
        assert config.thresholds.tolist() == [0.5, 2.5, 4.5]

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_file(write_config(tmp_path, "n = 8\nr = 0.2\nbogus = 1\n"))

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ConfigError, match="missing required key"):
            parse_config_file(write_config(tmp_path, "n = 8\n"))

    def test_bad_value(self, tmp_path):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_file(write_config(tmp_path, "n = eight\nr = 0.2\n"))

    def test_zero_trials_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="trials"):
            parse_config_file(write_config(tmp_path, "n = 8\nr = 0.2\ntrials = 0\n"))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config_file("/nonexistent/path.cfg")


class TestPresets:
    def test_fig2_expansion(self):
        labeled = expand_preset("fig2", master_seed=1)
        assert [label for label, _ in labeled] == ["fig2_r0.1", "fig2_r0.3", "fig2_r0.5"]
        for (_, config), r in zip(labeled, (0.1, 0.3, 0.5)):
            assert config.params.n == 20
            assert config.params.num_sensors == 1
            assert config.params.r == r
            assert config.params.sigma2 == pytest.approx(1e-4)
            assert config.trials == 20000

    def test_fig3_expansion(self):
        labeled = expand_preset("fig3", master_seed=1)
        assert [label for label, _ in labeled] == ["fig3_N1", "fig3_N2", "fig3_N3"]
        for (_, config), num_sensors in zip(labeled, (1, 2, 3)):
            assert config.params.r == 0.5
            assert config.params.num_sensors == num_sensors

    def test_trials_override(self):
        labeled = expand_preset("fig2", master_seed=1, trials=500)
        assert all(config.trials == 500 for _, config in labeled)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            expand_preset("fig9", master_seed=1)


class TestRocCommand:
    def test_preset_run_writes_curves_and_manifest(self, tmp_path):
        out = tmp_path / "fig2"
        rc = main(
            ["roc", "--preset", "fig2", "--out", str(out), "--trials", "300", "--seed", "5"]
        )
        assert rc == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["fig2_r0.1.csv", "fig2_r0.3.csv", "fig2_r0.5.csv", "manifest.json"]

        text = (out / "fig2_r0.5.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == CURVE_HEADER
        assert len(lines) == 1 + 2 * 21  # both theory modes, 21 thresholds each

        modes = {line.split(",")[-1] for line in lines[1:]}
        assert modes == {"consistent", "paper"}

        # r = 0.5 puts the paper-literal H1 variance below zero: those rows
        # carry nan in pd_theory instead of a patched number
        paper_rows = [line for line in lines[1:] if line.endswith(",paper")]
        assert all(row.split(",")[4] == "nan" for row in paper_rows)
        consistent_rows = [line for line in lines[1:] if line.endswith(",consistent")]
        assert all(row.split(",")[4] != "nan" for row in consistent_rows)

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifact_version"]
        assert "philox" in manifest["rng_scheme"]
        assert "noise_std" in manifest["noise_interpretation"]
        assert [c["label"] for c in manifest["configs"]] == [
            "fig2_r0.1",
            "fig2_r0.3",
            "fig2_r0.5",
        ]
        assert manifest["per_hypothesis_trials"] == {"H0": 900, "H1": 900}
        assert {o["file"] for o in manifest["outputs"]} == set(names) - {"manifest.json"}

    def test_rerun_reproduces_csv_bytes(self, tmp_path):
        args = ["roc", "--preset", "fig2", "--trials", "200", "--seed", "9"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("fig2_r0.1.csv", "fig2_r0.3.csv", "fig2_r0.5.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_manifest_checksums_match_files(self, tmp_path):
        import hashlib

        out = tmp_path / "run"
        assert main(["roc", "--preset", "fig3", "--out", str(out), "--trials", "100"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for entry in manifest["outputs"]:
            digest = hashlib.sha256((out / entry["file"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_config_file_run_with_trials_flag(self, tmp_path):
        cfg = write_config(tmp_path, "n = 6\nr = 0.3\ntrials = 50\nseed = 3\n", "mini.cfg")
        out = tmp_path / "mini"
        assert main(["roc", "--config", str(cfg), "--out", str(out), "--trials", "80"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["configs"][0]["trials"] == 80
        assert (out / "mini.csv").exists()

    def test_json_format(self, tmp_path):
        out = tmp_path / "j"
        cfg = write_config(tmp_path, "n = 5\nr = 0.3\ntrials = 40\n")
        assert main(["roc", "--config", str(cfg), "--out", str(out), "--format", "json"]) == 0
        rows = json.loads((out / "run.json").read_text())
        assert {row["mode"] for row in rows} == {"consistent", "paper"}
        assert all(set(row) == {"eta", "pfa_emp", "pd_emp", "pfa_theory", "pd_theory", "pfa_exact", "mode"} for row in rows)

    def test_zero_trials_config_is_a_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "n = 8\nr = 0.2\ntrials = 0\n")
        rc = main(["roc", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "trials" in capsys.readouterr().err

    def test_zero_trials_override_is_a_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "n = 8\nr = 0.2\ntrials = 40\n")
        rc = main(["roc", "--config", str(cfg), "--trials", "0", "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "trials" in err

    def test_nine_significant_digit_floats(self, tmp_path):
        out = tmp_path / "fmt"
        cfg = write_config(tmp_path, "n = 20\nr = 0.5\ntrials = 64\nseed = 2\n")
        assert main(["roc", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "run.csv").read_text().strip().split("\n")[1:]
        for line in lines:
            for cell in line.split(",")[:-1]:
                if cell != "nan":
                    # cells are exactly the %.9g rendering of their value
                    assert cell == f"{float(cell):.9g}"


class TestTheoryCommand:
    def test_json_payload_values(self, tmp_path):
        out = tmp_path / "theory"
        rc = main(
            ["theory", "--preset", "fig3", "--out", str(out), "--format", "json"]
        )
        assert rc == 0
        payload = json.loads((out / "fig3_N3_theory.json").read_text())
        assert payload["scalars"]["p"] == pytest.approx(0.6666482912, abs=1e-6)
        assert payload["scalars"]["rho"] == pytest.approx(0.5 / 1.0001, abs=1e-9)
        h0 = payload["moments"]["H0_consistent"]
        assert (h0["mean"], h0["variance"]) == (28.5, 14.25)
        h1_paper = payload["moments"]["H1_paper"]
        assert h1_paper["variance"] < 0
        paper_rows = [row for row in payload["rows"] if row["mode"] == "paper"]
        assert all(row["h1_variance_flag"] == "NEGATIVE" for row in paper_rows)
        assert all(row["pd_theory"] is None for row in paper_rows)
        ok_rows = [row for row in payload["rows"] if row["mode"] == "consistent"]
        assert all(row["h1_variance_flag"] == "ok" for row in ok_rows)

    def test_csv_contains_scalars_and_moment_lines(self, tmp_path):
        out = tmp_path / "theory_csv"
        cfg = write_config(tmp_path, "n = 20\nr = 0.5\n")
        assert main(["theory", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "run_theory.csv").read_text()
        assert text.splitlines()[0].startswith("# p = 0.666648291")
        assert "# moments H0_consistent: mean = 9.5, variance = 4.75" in text
        assert "eta,mode,pfa_theory,pd_theory,h1_variance_flag" in text
        assert ",paper," in text and ",NEGATIVE" in text


class TestValidateCommand:
    def test_quick_suite_passes(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = main(["validate", "--quick", "--out", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["all_passed"] is True
        assert {c["name"] for c in report["checks"]} == {
            "empirical-h0-vs-exact-binomial",
            "h1-mean-vs-arcsine",
            "determinism-serial-vs-parallel",
        }
        out = capsys.readouterr().out
        assert out.count("PASS") == 3

    def test_biased_quantizer_trips_the_binomial_canary(self, tmp_path, monkeypatch):
        # a wrong quantizer convention must not survive the oracle suite
        def biased_quantize(x):
            bits = (np.asarray(x) >= -0.003).astype(np.uint8)
            return int(bits) if bits.ndim == 0 else bits

        monkeypatch.setattr(bitsense.signal, "quantize", biased_quantize)
        report_path = tmp_path / "report.json"
        rc = main(["validate", "--quick", "--out", str(report_path)])
        assert rc == 1
        report = json.loads(report_path.read_text())
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert "empirical-h0-vs-exact-binomial" in failed

    @pytest.mark.parametrize("seed", [7, 123456789])
    def test_a_source_at_the_wrong_correlation_fails_only_the_h1_mean(
        self, tmp_path, monkeypatch, fake_pool, seed
    ):
        # the engine draws its H1 source at r = 0.3 where the suite says 0.5;
        # H0 draws never read the source, so the H0 check still passes
        factor_covariance = bitsense.signal.factor_covariance

        def wrong_source(params):
            return factor_covariance(dataclasses.replace(params, r=0.3))

        monkeypatch.setattr(bitsense.signal, "factor_covariance", wrong_source)
        report_path = tmp_path / "report.json"
        argv = ["validate", "--quick", "--seed", str(seed), "--out", str(report_path)]
        assert main(argv) == 1
        checks = json.loads(report_path.read_text())["checks"]
        assert {c["name"]: c["passed"] for c in checks} == {
            "empirical-h0-vs-exact-binomial": True,
            "h1-mean-vs-arcsine": False,
            "determinism-serial-vs-parallel": True,
        }

    @pytest.mark.parametrize("trials", [2, 3])
    def test_the_h1_mean_passes_two_and_three_trials_at_every_seed(
        self, tmp_path, monkeypatch, fake_pool, trials
    ):
        # the consistent variance bounds Var(Y | H1) from above at N = 1; the
        # sample variance of 2 or 3 trials is often far below it
        monkeypatch.delenv("BITSENSE_WORKERS", raising=False)
        report_path = tmp_path / "report.json"
        argv = ["validate", "--trials", str(trials), "--out", str(report_path), "--seed"]
        failed = [seed for seed in range(200) if main(argv + [str(seed)]) != 0]
        assert failed == []


class TestUsageErrors:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_preset_name(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["roc", "--preset", "fig9", "--out", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_preset_and_config_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "roc",
                    "--preset",
                    "fig2",
                    "--config",
                    "x.cfg",
                    "--out",
                    str(tmp_path),
                ]
            )
        assert excinfo.value.code == 2

    def test_missing_out(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["roc", "--preset", "fig2"])
        assert excinfo.value.code == 2


def test_building_the_cli_does_not_import_scipy(tmp_path):
    # numpy is the only runtime dependency: scipy would cost most of start-up.
    # Nothing loads numpy.polynomial (and its LAPACK-backed leggauss) that
    # `import numpy` did not: numpy 1.x imports it eagerly, numpy 2 only on
    # first use.
    src = str(Path(bitsense.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    report = tmp_path / "report.json"
    for run in ("cli.build_parser()", f"cli.main(['validate', '--quick', '--out', {str(report)!r}])"):
        code = (
            "import sys\n"
            "import numpy\n"
            "numpy_only = set(sys.modules)\n"
            "from bitsense import cli\n"
            f"{run}\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "new = set(sys.modules) - numpy_only\n"
            "print(sorted(m for m in new if m.startswith('numpy.polynomial')))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.splitlines()[-2:] == ["[]", "[]"]
    assert json.loads(report.read_text())["all_passed"]


class TestOverrides:
    def test_seed_overrides_a_config_file(self, tmp_path):
        cfg = write_config(tmp_path, "n = 8\nr = 0.3\ntrials = 60\n", "noseed.cfg")
        assert main(["roc", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["roc", "--config", str(cfg), "--seed", "7", "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "noseed.csv").read_bytes() != (tmp_path / "b" / "noseed.csv").read_bytes()
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest["configs"][0]["master_seed"] == 7
        out = tmp_path / "t"
        assert main(["theory", "--config", str(cfg), "--seed", "7", "--out", str(out), "--format", "json"]) == 0
        assert json.loads((out / "noseed_theory.json").read_text())["params"]["master_seed"] == 7

    @pytest.mark.parametrize("command", ["roc", "theory"])
    def test_bad_seed_override_is_a_usage_error(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, "n = 8\nr = 0.3\ntrials = 60\n")
        rc = main([command, "--config", str(cfg), "--seed", "-1", "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "master_seed" in err

    @pytest.mark.parametrize(
        "source, name",
        [(["--preset", "fig2"], "fig2_r0.1_theory.json"), (["--config", "c.cfg"], "c_theory.json")],
    )
    def test_theory_echoes_the_trials_override(self, tmp_path, monkeypatch, source, name):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, "n = 8\nr = 0.3\ntrials = 50\n", "c.cfg")
        argv = ["theory", *source, "--trials", "9", "--out", "out", "--format", "json"]
        assert main(argv) == 0
        payload = json.loads((tmp_path / "out" / name).read_text())
        assert payload["params"]["trials"] == 9


#: sha256 of CLI outputs, recorded before the theory tables, the CSV writer
#: and the config resolver were each merged into one implementation.  A
#: deliberate, versioned output change re-records these.  Recorded on
#: x86_64 Linux (glibc 2.36) with Python 3.11.7 and numpy 2.4.6: the JSON
#: floats come from math.erfc and the roc CSV from numpy's
#: Generator.standard_normal, whose stream numpy does not promise to keep
#: across versions, so a mismatch on another platform or numpy may be a
#: library change rather than a change in this code.
RECORDED_SHA256 = {
    "fig3_N1_theory.csv": "488c6cb8a656c9a4025afb9fcb02570719407c762672ae1b013f814bcf6cf053",
    "fig3_N1_theory.json": "1a8af4f70ebff25b66eaef09eaeb72a3909bae2b37d559a443889879a07cd786",
    "fig3_N2_theory.csv": "5744e9f898620bf0090af9b47583683cd2d9aaf343e7d8024f2ffa71df0304fd",
    "fig3_N2_theory.json": "3009d78ec1828bdaacd473c4cb4db6ce2f35a420e81c109fcc7a6d3e232b3bc8",
    "fig3_N3_theory.csv": "23211744cfa2a191bb01685ebd31dc999de03ac9eb50e7d8183969ff6b0f5409",
    "fig3_N3_theory.json": "2f35ccf30802c0b03c020f17c422f5bd118dd0cef8b4cb01e14382970d73bcce",
    "flat_theory.csv": "3d5167e67f0e12481e216f5468fd6cca6b310c42ec171ad2db1e01d006a146b6",
    "flat_theory.json": "135f38b4cc0c3601475296a4d96f046d9cf723618d80eff1683358bf100d21df",
    "neg.csv": "96216e659bdf2311b25c47176be4e04128614ced6e42b8f4d39242996b2f3026",
}


def test_output_bytes_match_the_recorded_sha256s(tmp_path):
    import hashlib

    neg = write_config(tmp_path, "n = 12\nnum_sensors = 3\nr = -0.3\ntrials = 300\n", "neg.cfg")
    flat = write_config(tmp_path, "n = 20\nnum_sensors = 2\nr = 0\nmode = paper\n", "flat.cfg")
    out = tmp_path / "out"
    for argv in (
        ["theory", "--preset", "fig3"],
        ["theory", "--preset", "fig3", "--format", "json"],
        ["roc", "--config", str(neg)],
        ["theory", "--config", str(flat)],
        ["theory", "--config", str(flat), "--format", "json"],
    ):
        assert main(argv + ["--out", str(out)]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.iterdir()
        if path.name != "manifest.json"
    }
    assert digests == RECORDED_SHA256


class TestConfigChecks:
    """Every preset, config file and override goes through one builder and
    one check; bad values end in `error:` and exit 2, with nothing written."""

    def run_config(self, tmp_path, body, *extra):
        cfg = write_config(tmp_path, "n = 8\nr = 0.3\ntrials = 40\n" + body, "c.cfg")
        return main(["roc", "--config", str(cfg), "--out", str(tmp_path / "out"), *extra])

    @pytest.mark.parametrize("value", ["-0.01", "0", "nan", "inf", "1e200", "1e-200"])
    def test_bad_noise_std_is_a_usage_error(self, tmp_path, capsys, value):
        assert self.run_config(tmp_path, f"noise_std = {value}\n") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "noise_std" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("label", ["../escaped", "", ".", "..", "a/b", "a\\b", "a\0b"])
    def test_label_must_be_a_plain_file_name(self, tmp_path, capsys, label):
        assert self.run_config(tmp_path, f"label = {label}\n") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "label" in err
        assert [p.name for p in tmp_path.iterdir()] == ["c.cfg"]

    @pytest.mark.parametrize("command", ["roc", "theory"])
    @pytest.mark.parametrize("value", ["nan", "0.5, inf", "-inf, 2.5"])
    def test_non_finite_thresholds_are_a_usage_error(self, tmp_path, capsys, command, value):
        cfg = write_config(tmp_path, f"n = 8\nr = 0.3\ntrials = 40\nthresholds = {value}\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "thresholds must be finite" in err

    def test_bad_mode_names_both_modes(self, tmp_path, capsys):
        assert self.run_config(tmp_path, "mode = papr\n") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'paper'" in err and "'consistent'" in err

    def test_trials_override_is_applied_before_the_check(self, tmp_path):
        cfg = write_config(tmp_path, "n = 8\nr = 0.3\ntrials = 0\n", "zero.cfg")
        out = tmp_path / "out"
        assert main(["roc", "--config", str(cfg), "--trials", "5", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["configs"][0]["trials"] == 5


#: sha256 of roc outputs through the preset and config-file paths with both
#: --trials and --seed overrides, recorded before presets, config files and
#: overrides were merged into one builder.  Same platform caveats as
#: RECORDED_SHA256.
RECORDED_OVERRIDE_SHA256 = {
    "fig2_r0.1.csv": "4d1f8c3dc08e67fbcca646a3ff8ec35fe98d40514a666980d467237e6299ddf8",
    "fig2_r0.3.csv": "a8744c4507d3a726523b25a5b030ca2e975b6b1b83b69ed33e37090864fc63b4",
    "fig2_r0.5.csv": "214af090342f7da8efa5cd642b217ed5fab5c70f938a4841d5c3d2c62a0f0250",
    "over.csv": "1f73343ec9e1bcda64d6d2f48bd3b2ead22e1ec81ec1f97b636720d260927d82",
}


def test_override_outputs_match_the_recorded_sha256s(tmp_path):
    import hashlib

    over = write_config(tmp_path, "n = 8\nr = 0.3\ntrials = 60\nseed = 3\n", "over.cfg")
    out = tmp_path / "out"
    for argv in (
        ["roc", "--preset", "fig2", "--trials", "300", "--seed", "5"],
        ["roc", "--config", str(over), "--seed", "7", "--trials", "90"],
    ):
        assert main(argv + ["--out", str(out)]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.iterdir()
        if path.name != "manifest.json"
    }
    assert digests == RECORDED_OVERRIDE_SHA256


#: sha256 of `roc --preset fig3 --trials 300 --seed 5`, recorded before the
#: three configs shared one draw pass per hypothesis.  Same platform
#: caveats as RECORDED_SHA256.
RECORDED_SWEEP_SHA256 = {
    "fig3_N1.csv": "214af090342f7da8efa5cd642b217ed5fab5c70f938a4841d5c3d2c62a0f0250",
    "fig3_N2.csv": "dd2718fb440ccf524befd3b83c4fd7fe9a2fdd2c7dd43b4a76553465a5d426e1",
    "fig3_N3.csv": "186f704b41e29e3f00cb024a221dc0b70d3e04804652dd4d44dc59bbb7b604ca",
}


def test_shared_draw_sweep_matches_the_recorded_sha256s(tmp_path):
    import hashlib

    out = tmp_path / "out"
    argv = ["roc", "--preset", "fig3", "--trials", "300", "--seed", "5", "--out", str(out)]
    assert main(argv) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.iterdir()
        if path.name != "manifest.json"
    }
    assert digests == RECORDED_SWEEP_SHA256


class TestValidateChecks:
    def test_binomial_check_passes_where_one_firing_broke_the_normal_band(self, tmp_path):
        # at seed 123456789 one pooled H0 trial in 10000 has Y = 0, more
        # than a normal band at q = 2**-19 allowed
        report_path = tmp_path / "report.json"
        argv = ["validate", "--quick", "--seed", "123456789", "--out", str(report_path)]
        assert main(argv) == 0
        assert json.loads(report_path.read_text())["all_passed"] is True

    @pytest.mark.parametrize(
        "extra", [["--trials", "0"], ["--seed", "-1"], ["--out", "."]]
    )
    def test_bad_input_fails_before_any_check(self, tmp_path, monkeypatch, capsys, extra):
        monkeypatch.chdir(tmp_path)
        assert main(["validate", "--quick", "--out", "report.json", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "PASS" not in captured.out and "FAIL" not in captured.out
        assert list(tmp_path.iterdir()) == []


#: sha256 of `roc --preset fig3 --trials 300 --seed 5 --format json`,
#: recorded before `roc` and the library's `compare_theory` (retired in
#: 0.4.0) shared one row builder; `cli._curve_blocks`, now the one join,
#: writes the same bytes.  The paper-mode rows carry `"pd_theory": null`.
#: Same platform caveats as RECORDED_SHA256.
RECORDED_JSON_SHA256 = {
    "fig3_N1.json": "d2c90014dd9611df5cd9f64e41df1707f0636de12aa0caec40d91f1e31686f5f",
    "fig3_N2.json": "153610bccbf9a7f6b6a0a68e3e70db7773741500db87cdcf9905bd41b8b8ca62",
    "fig3_N3.json": "e4508a518ee6de086f70e2d9f6663b60e01dd7f87509aaea9ee7a99bd666c744",
}


def test_roc_json_matches_the_recorded_sha256s(tmp_path):
    import hashlib

    out = tmp_path / "out"
    argv = ["roc", "--preset", "fig3", "--trials", "300", "--seed", "5", "--format", "json"]
    assert main(argv + ["--out", str(out)]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.iterdir()
        if path.name != "manifest.json"
    }
    assert digests == RECORDED_JSON_SHA256


#: sha256 of `roc --config` and `theory --config`, in CSV and JSON, on a
#: long record (n = 300, N = 2, r = -0.5, 50 trials, seed 5): 600
#: thresholds and a downward test.  Each manifest is masked at its
#: wall-clock time.  Recorded before the tables were built as columns.
#: Same platform caveats as RECORDED_SHA256.
RECORDED_LONG_SHA256 = {
    "csv/long.csv": "d5ed00de5bd115e0e90352aff7461ed3baf9172c492b384d7f05cad3b2acf966",
    "csv/long_theory.csv": "5752a01da76bf0df338a777352ecb52355d86c5287e604e33aa1fc4d7c2a6388",
    "csv/manifest.json": "f92498feafd5753608755580d32198d74c5ac6dde0f589a0a305a6ed0d054897",
    "json/long.json": "f1cccab91524034579cf0e9815ef7f24e19ff5b5bdb056d8cc0705f4fbd409e8",
    "json/long_theory.json": "0dea15952161ecd7e74c9e43c44e5125cc1cd50cdc2d594509ddd7717bc47841",
    "json/manifest.json": "79f6868d97bd1028f0db6df7b9dac0e1dc6493554a63dc1ae17042df2a189421",
}


def test_long_record_outputs_match_the_recorded_sha256s(tmp_path):
    import hashlib
    import re

    text = "n = 300\nnum_sensors = 2\nr = -0.5\ntrials = 50\nseed = 5\n"
    cfg = write_config(tmp_path, text, "long.cfg")
    digests = {}
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        for command in ("roc", "theory"):
            assert main([command, "--config", str(cfg), "--format", fmt, "--out", str(out)]) == 0
        for path in out.iterdir():
            text = re.sub(r'"wall_clock_s": [^,\n]+', '"wall_clock_s": null', path.read_text())
            digests[f"{fmt}/{path.name}"] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == RECORDED_LONG_SHA256


#: sha256 of the `validate --quick --seed 11` report and of the
#: `roc --preset fig3 --trials 300 --seed 5` manifest with its wall-clock
#: time masked.  The manifest's was recorded before the empirical rates
#: and the exact H0 oracle read one count-threshold rule, and carries each
#: CSV's sha256; the report's when validate's first check became the H1
#: mean against the arcsine law (0.3.0).  Same platform caveats as
#: RECORDED_SHA256.
RECORDED_VALIDATE_SHA256 = "0d108508015cb46802fe5a4907d366f6f847d3b960cfd9114a676e3c9650f10a"
RECORDED_MASKED_MANIFEST_SHA256 = "5b1e5ee97aa6ed11f11f1e086487679aa66f963f203e13715da8d15fcdc5b8df"


def test_validate_report_matches_the_recorded_sha256(tmp_path):
    import hashlib

    report = tmp_path / "report.json"
    assert main(["validate", "--quick", "--seed", "11", "--out", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == RECORDED_VALIDATE_SHA256


def test_roc_manifest_matches_the_recorded_sha256_but_for_its_wall_clock(tmp_path):
    import hashlib
    import re

    out = tmp_path / "out"
    argv = ["roc", "--preset", "fig3", "--trials", "300", "--seed", "5", "--out", str(out)]
    assert main(argv) == 0
    text = (out / "manifest.json").read_text()
    masked = re.sub(r'"wall_clock_s": [^,\n]+', '"wall_clock_s": null', text)
    assert hashlib.sha256(masked.encode()).hexdigest() == RECORDED_MASKED_MANIFEST_SHA256


def test_roc_json_rows_follow_the_csv_columns_with_one_oracle_per_config(tmp_path, monkeypatch):
    calls = []
    exact_h0_rates = bitsense.montecarlo.exact_h0_rates

    def counted(config):
        calls.append(config)
        return exact_h0_rates(config)

    monkeypatch.setattr(bitsense.montecarlo, "exact_h0_rates", counted)
    out = tmp_path / "out"
    argv = ["roc", "--preset", "fig3", "--trials", "30", "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    assert len(calls) == 3
    for config in calls:
        rows = json.loads((out / f"fig3_N{config.params.num_sensors}.json").read_text())
        assert {tuple(row) for row in rows} == {tuple(CURVE_HEADER.split(","))}
        exact = exact_h0_rates(config).tolist()
        for mode in ("consistent", "paper"):
            assert [row["pfa_exact"] for row in rows if row["mode"] == mode] == exact


@pytest.mark.parametrize("command", ["roc", "theory"])
def test_model_warnings_go_to_stderr_once_per_config(tmp_path, capsys, command):
    cfg = write_config(tmp_path, "n = 20\nr = 0\ntrials = 40\n", "flat1.cfg")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        "warning: flat1: r = 0: no correlation between consecutive samples; "
        "the agreement detector is uninformative (ROC on the diagonal)\n"
    )
    assert "warning:" not in captured.out
    assert all("warning:" not in path.read_text() for path in out.iterdir())


def test_presets_without_warnings_print_none(tmp_path, capsys):
    assert main(["theory", "--preset", "fig3", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


def test_cli_presets_resolve_through_expand_preset(tmp_path, monkeypatch):
    import bitsense.cli

    calls = []

    def spy(name, **kwargs):
        calls.append((name, kwargs))
        return expand_preset(name, **kwargs)

    monkeypatch.setattr(bitsense.cli, "expand_preset", spy)
    assert main(["theory", "--preset", "fig3", "--seed", "4", "--out", str(tmp_path)]) == 0
    assert calls == [("fig3", {"master_seed": 4, "trials": None})]
    assert [c.master_seed for _, c in expand_preset("fig2", master_seed=None)] == [
        DEFAULT_MASTER_SEED
    ] * 3


#: The public names `bitsense` exports (submodules aside) since 0.4.0, as
#: the README's "Public surface" lists them.
PUBLIC_NAMES = [
    "AgreementProb", "BidiagonalFactor", "DetectorDirection", "DimensionMismatchError",
    "Hypothesis", "ModelParams", "NonPositiveDefiniteError", "RNG_SCHEME", "RocCurve",
    "RocSource", "RunConfig", "RunManifest", "TheoryMode", "TheoryMoments",
    "ValidationReport", "agreement_prob", "decide", "estimate_rates", "estimate_sweep",
    "exact_h0_rates", "exact_h0_tail", "exact_hybrid_curve", "factor_covariance",
    "gaussian_rates", "moments", "observe", "orthant_prob_closed", "q_function", "quantize",
    "reconstruct_covariance", "require_valid", "sample_signal", "seed_for_trial",
    "simulate_statistics", "simulate_sweep", "statistic", "sweep_thresholds", "validate",
]


def test_public_surface_is_unchanged():
    import types

    names = [
        name
        for name, value in vars(bitsense).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(names) == PUBLIC_NAMES


def test_a_repeated_config_key_is_a_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "n = 3\nr = 0.3\nn = 4\ntrials = 40\n", "twice.cfg")
    with pytest.raises(ConfigError, match=r"twice.cfg:3: duplicate key 'n'$"):
        parse_config_file(cfg)
    assert main(["roc", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:3: duplicate key 'n'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["", "abc", "1.5"])
@pytest.mark.parametrize("command", ["roc", "validate"])
def test_a_bad_workers_env_var_fails_before_any_output(
    tmp_path, monkeypatch, capsys, command, value
):
    monkeypatch.setenv("BITSENSE_WORKERS", value)
    out = tmp_path / "out"
    argv = (
        ["roc", "--preset", "fig3", "--trials", "20", "--out", str(out)]
        if command == "roc"
        else ["validate", "--quick", "--trials", "20", "--out", str(out / "report.json")]
    )
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: BITSENSE_WORKERS must be an integer, got {value!r}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_theory_ignores_the_workers_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("BITSENSE_WORKERS", "abc")
    assert main(["theory", "--preset", "fig2", "--out", str(tmp_path / "t")]) == 0
    assert len(list((tmp_path / "t").iterdir())) == 3


def test_json_manifest_checksums_match_files(tmp_path):
    import hashlib

    out = tmp_path / "run"
    argv = ["roc", "--preset", "fig3", "--trials", "30", "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert [entry["file"] for entry in manifest["outputs"]] == [
        "fig3_N1.json", "fig3_N2.json", "fig3_N3.json"
    ]
    for entry in manifest["outputs"]:
        digest = hashlib.sha256((out / entry["file"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]


#: stdout of `validate --quick --trials 200 --seed 11`, recorded when
#: validate's first check became the H1 mean against the arcsine law
#: (0.3.0).  Same platform caveats as RECORDED_SHA256.
RECORDED_VALIDATE_STDOUT = (
    "PASS empirical-h0-vs-exact-binomial: most binding threshold eta=8.5: 698 of 1000 "
    "fired, exact rate 0.676, two-sided binomial p = 0.149 (level 1.97e-11; 1000 pooled "
    "H0 trials)\n"
    "PASS h1-mean-vs-arcsine: mean of 200 serial H1 trials 12.645, arcsine mean (n-1)Np "
    "12.6663: z = -0.147, two-sided p = 0.883 (level 1.97e-11; variance p(1-p)(n-1)N = "
    "4.222)\n"
    "PASS determinism-serial-vs-parallel: H1 statistics identical for 1 and 2 workers\n"
    "wrote {out}\n"
)


def test_stdout_names_every_file_written_in_order(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["roc", "--preset", "fig3", "--trials", "30", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "".join(
        f"wrote {out / name}\n"
        for name in ("fig3_N1.csv", "fig3_N2.csv", "fig3_N3.csv", "manifest.json")
    )
    for fmt in ("csv", "json"):
        assert main(["theory", "--preset", "fig3", "--format", fmt, "--out", str(out)]) == 0
        assert capsys.readouterr().out == "".join(
            f"wrote {out / f'fig3_N{n}_theory.{fmt}'}\n" for n in (1, 2, 3)
        )
    report = tmp_path / "v" / "report.json"
    argv = ["validate", "--quick", "--trials", "200", "--seed", "11", "--out", str(report)]
    assert main(argv) == 0
    assert capsys.readouterr().out == RECORDED_VALIDATE_STDOUT.format(out=report)


def test_validate_runs_one_two_worker_pool_at_any_trial_count(tmp_path, monkeypatch, fake_pool):
    monkeypatch.delenv("BITSENSE_WORKERS", raising=False)
    main(["validate", "--trials", "3", "--out", str(tmp_path / "report.json")])
    assert fake_pool == [(2, 2)]


def test_validate_makes_three_engine_calls_of_seven_times_its_trial_count(
    tmp_path, monkeypatch, fake_pool, cpus
):
    # benchmarks/ reads validate's trial count (7 x 40) through these calls:
    # one pooled H0 sample of 5 x 40, then the 1- vs 2-worker H1 replay
    calls = []
    simulate = bitsense.montecarlo.simulate_statistics

    def counted(config, hypothesis, workers=None):
        calls.append((config.trials, hypothesis, workers))
        return simulate(config, hypothesis, workers)

    monkeypatch.setattr(bitsense.montecarlo, "simulate_statistics", counted)
    cpus(4)
    monkeypatch.setenv("BITSENSE_WORKERS", "3")
    argv = ["validate", "--quick", "--trials", "40", "--out", str(tmp_path / "report.json")]
    assert main(argv) == 0
    h0, h1 = bitsense.Hypothesis.H0, bitsense.Hypothesis.H1
    assert calls == [(200, h0, 3), (40, h1, 1), (40, h1, 2)]


def test_the_workers_env_var_is_capped_at_the_usable_cpus(tmp_path, monkeypatch, fake_pool, cpus):
    import hashlib

    seen = []
    count = bitsense.montecarlo._worker_count

    def spy(workers, draws):
        seen.append(workers)
        return count(workers, draws)

    monkeypatch.setattr(bitsense.montecarlo, "_worker_count", spy)
    cpus(2)
    monkeypatch.setenv("BITSENSE_WORKERS", "64")
    out = tmp_path / "out"
    argv = ["roc", "--preset", "fig3", "--trials", "300", "--seed", "5", "--format", "json"]
    assert main(argv + ["--out", str(out)]) == 0
    # the CLI passes the count on as given; the engine caps it at two shares
    assert seen == [64]
    assert fake_pool == [(2, 4)]
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.iterdir()
        if path.name != "manifest.json"
    }
    assert digests == RECORDED_JSON_SHA256


@pytest.mark.parametrize("command", ["roc", "theory"])
def test_a_non_utf8_config_is_a_usage_error(tmp_path, capsys, command):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"n = 8\nr = 0.3\nlabel = caf\xe9\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {cfg}: ") and "utf-8" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["roc", "theory"])
def test_a_byte_order_mark_is_ignored(tmp_path, command):
    body = b"n = 8\nr = 0.3\ntrials = 40\nlabel = run\n"
    outputs = []
    for name, data in (("plain", body), ("bom", b"\xef\xbb\xbf" + body)):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_bytes(data)
        out = tmp_path / name
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"})
    assert outputs[0] == outputs[1] and outputs[0]


def test_a_manifest_label_is_refused_for_json(tmp_path, capsys):
    cfg = write_config(tmp_path, "n = 8\nr = 0.3\ntrials = 40\nlabel = manifest\n")
    out = tmp_path / "out"
    assert main(["roc", "--config", str(cfg), "--format", "json", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "manifest" in captured.err
    assert captured.out == ""
    assert not out.exists()
    assert main(["roc", "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.csv", "manifest.json"]
