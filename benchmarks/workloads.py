"""The benchmark's workloads: the CLI calls of one pass and the checks on their output.

A workload turns a seed into the argv lists of one pass (writing any
config file it needs) and checks the files that pass left behind.  The
checks, for every seed:

- the manifest's sha256 matches each curve file it lists;
- every `pfa_exact` value agrees with scipy's binomial tail to within
  1e-12 beyond the CSV's 9-significant-digit rounding;
- the manifest's trial counts are the workload's;
- `validate` exits 0 and its report has `all_passed`.

At REFERENCE_SEED and full size, the sha256 of every CSV must also equal
the value in reference.json, recorded from the code this benchmark was
written against (the repository's byte-identical output contract).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from scipy import stats

#: bitsense's own default master seed; the warm-up pass of every run uses it.
REFERENCE_SEED = 123456789

REFERENCE_FILE = Path(__file__).with_name("reference.json")

#: Allowed |pfa_exact - oracle| on top of the CSV's rounding.
ORACLE_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Monte Carlo trials per pass, H0 and H1 over all configs.
    trials: int
    #: Distinct run configs per pass, the base of the *_per_config counts.
    configs: int
    #: (work dir, seed) -> argv lists of one pass; may write input files.
    prepare: Callable[[Path, int], list[list[str]]]
    #: (output dir, exit codes, seed) -> problems found; empty means correct.
    check: Callable[[Path, list[int], int], list[str]]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_reference(name: str) -> dict[str, str]:
    return json.loads(REFERENCE_FILE.read_text())[name]


def pfa_exact_oracle(m: int, eta: float, r: float) -> float:
    """P(detector fires | H0) for Y ~ Binomial(m, 1/2), from scipy."""
    if r < 0:
        return float(stats.binom.cdf(math.floor(eta), m, 0.5))
    return float(stats.binom.sf(math.ceil(eta) - 1, m, 0.5))


def _rounding(x: float) -> float:
    """Half a unit in the 9th significant digit of x (the CSV format)."""
    if x == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 8)


def check_curve_csv(path: Path, config: dict) -> list[str]:
    """Row count, threshold grid and pfa_exact oracle for one roc CSV."""
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    thresholds = config["thresholds"]
    if len(rows) != 2 * len(thresholds):
        return [f"{path.name}: {len(rows)} rows, expected {2 * len(thresholds)}"]
    m = (config["n"] - 1) * config["num_sensors"]
    problems = []
    for row, eta in zip(rows, thresholds + thresholds):
        if float(row["eta"]) != eta:
            return [f"{path.name}: eta {row['eta']} where {eta} was expected"]
        oracle = pfa_exact_oracle(m, eta, config["r"])
        got = float(row["pfa_exact"])
        if not abs(got - oracle) <= ORACLE_TOL + _rounding(oracle):
            problems.append(
                f"{path.name}: eta={eta} pfa_exact {got!r} vs binom oracle {oracle!r}"
            )
    return problems


def check_roc_outputs(out: Path, trials: int, curve_files: list[str]) -> list[str]:
    """Manifest hashes, trial count and oracle column of a `roc` output dir."""
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {entry["file"]: entry["sha256"] for entry in manifest["outputs"]}
    problems = []
    if sorted(listed) != sorted(curve_files):
        problems.append(f"manifest lists {sorted(listed)}, expected {sorted(curve_files)}")
    for name, digest in listed.items():
        if sha256(out / name) != digest:
            problems.append(f"{name}: sha256 differs from the manifest")
    counted = manifest["per_hypothesis_trials"]
    if counted["H0"] + counted["H1"] != trials:
        problems.append(f"manifest counts {counted} trials, expected {trials} in all")
    for config in manifest["configs"]:
        problems += check_curve_csv(out / f"{config['label']}.csv", config)
    return problems


def _reference_problems(out: Path, reference: dict[str, str]) -> list[str]:
    return [
        f"{name}: sha256 differs from reference.json"
        for name, digest in reference.items()
        if not (out / name).is_file() or sha256(out / name) != digest
    ]


def _exit_problems(codes: list[int]) -> list[str]:
    return [f"exit code {code}" for code in codes if code != 0]


def fig3_roc(trials: int = 20000) -> Workload:
    """`roc --preset fig3`: N in {1, 2, 3}, r=0.5, n=20."""
    files = ["fig3_N1.csv", "fig3_N2.csv", "fig3_N3.csv"]
    reference = "fig3-roc" if trials == 20000 else None

    def prepare(work: Path, seed: int) -> list[list[str]]:
        out = str(work / "out")
        return [["roc", "--preset", "fig3", "--trials", str(trials), "--seed", str(seed), "--out", out]]

    def check(out: Path, codes: list[int], seed: int) -> list[str]:
        problems = _exit_problems(codes) or check_roc_outputs(out, 6 * trials, files)
        if seed == REFERENCE_SEED and reference:
            problems += _reference_problems(out, load_reference(reference))
        return problems

    return Workload(
        name="fig3-roc",
        why=(
            "roc --preset fig3, 120k trials: the per-trial engine (stream build, "
            "observe, statistic) does almost all the work; oracle and theory table "
            "are negligible"
        ),
        trials=6 * trials,
        configs=3,
        prepare=prepare,
        check=check,
    )


def long_record(n: int = 300, trials: int = 2000) -> Workload:
    """`roc --config` and `theory --config` on one N=2, r=-0.5 record."""
    label = "long_record"
    reference = "long-record" if (n, trials) == (300, 2000) else None

    def prepare(work: Path, seed: int) -> list[list[str]]:
        work.mkdir(parents=True, exist_ok=True)
        config = work / f"{label}.cfg"
        config.write_text(
            f"n = {n}\nnum_sensors = 2\nr = -0.5\nnoise_std = 0.01\n"
            f"trials = {trials}\nseed = {seed}\nlabel = {label}\n"
        )
        out = str(work / "out")
        return [
            ["roc", "--config", str(config), "--out", out],
            ["theory", "--config", str(config), "--out", out],
        ]

    def check(out: Path, codes: list[int], seed: int) -> list[str]:
        problems = _exit_problems(codes) or check_roc_outputs(
            out, 2 * trials, [f"{label}.csv"]
        )
        theory = out / f"{label}_theory.csv"
        rows = [line for line in theory.read_text().splitlines() if not line.startswith("#")]
        if len(rows) != 1 + 2 * (2 * (n - 1) + 2):
            problems.append(f"{theory.name}: {len(rows) - 1} table rows")
        if seed == REFERENCE_SEED and reference:
            problems += _reference_problems(out, load_reference(reference))
        return problems

    return Workload(
        name="long-record",
        why=(
            "roc and theory on one n=300, N=2, r=-0.5 config: the cubic-cost exact H0 "
            "oracle and 600-threshold theory tables dominate; the only LESS_IS_H1 run"
        ),
        trials=2 * trials,
        configs=1,
        prepare=prepare,
        check=check,
    )


def validate_quick(trials: int = 2000) -> Workload:
    """`validate --quick`: quadratures, 5 H0 runs, H1 serial and on 2 workers."""

    def prepare(work: Path, seed: int) -> list[list[str]]:
        out = str(work / "out" / "report.json")
        return [["validate", "--quick", "--trials", str(trials), "--seed", str(seed), "--out", out]]

    def check(out: Path, codes: list[int], seed: int) -> list[str]:
        problems = _exit_problems(codes)
        report = json.loads((out / "report.json").read_text())
        if not report.get("all_passed"):
            failed = [c["name"] for c in report.get("checks", []) if not c.get("passed")]
            problems.append(f"validate report: all_passed is false ({failed})")
        return problems

    return Workload(
        name="validate-quick",
        why=(
            "validate --quick: quadratures, H0-heavy trials and the only use of the "
            "2-worker fork pool, so H1-only gains or dearer pool start-up show here"
        ),
        trials=7 * trials,
        configs=1,
        prepare=prepare,
        check=check,
    )


WORKLOADS = {w.name: w for w in (fig3_roc(), long_record(), validate_quick())}

