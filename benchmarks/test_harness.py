"""Tests of the benchmark harness itself.

Run from the repository root:  python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "fig3-roc": workloads.fig3_roc(trials=60),
    "long-record": workloads.long_record(n=12, trials=60),
    "validate-quick": workloads.validate_quick(trials=300),
}


@pytest.fixture(scope="module")
def bitsense():
    return run.import_bitsense(ROOT / "src")


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap on
    # [3, 4], and c [9, 12], which runs past root's end; a has child d [2, 3].
    start = [0.0, 1.0, 3.0, 9.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    got = spans.self_times(start, end, parent)
    # root covers the union [1, 6] and the clipped [9, 10]: 10 - 5 - 1.
    assert got == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])


def test_tracer_records_nested_spans_and_restores_the_package(bitsense, tmp_path):
    original = bitsense.signal.observe
    tracer = spans.Tracer()
    tracer.current_pass = 0
    calls = TINY["fig3-roc"].prepare(tmp_path, 5)
    with spans.installed(tracer, bitsense):
        assert bitsense.signal.observe is not original
        assert bitsense.cli.main(calls[0]) == 0
    assert bitsense.signal.observe is original
    totals = spans.per_pass_totals(tracer)[0]
    assert totals["signal.observe"]["calls"] == 360
    assert totals[spans.SERIAL]["calls"] == 6
    assert tracer.counters[0, "montecarlo.trials"] == 360
    root = totals[spans.ROOT]
    assert sum(row["self_s"] for row in totals.values()) == pytest.approx(root["s"])


def _tiny_roc_output(bitsense, tmp_path) -> Path:
    workload = TINY["fig3-roc"]
    calls = workload.prepare(tmp_path, 11)
    assert [bitsense.cli.main(argv) for argv in calls] == [0]
    out = tmp_path / "out"
    assert workload.check(out, [0], 11) == []
    return out


def test_gate_fails_when_a_csv_byte_changes(bitsense, tmp_path):
    out = _tiny_roc_output(bitsense, tmp_path)
    path = out / "fig3_N2.csv"
    data = bytearray(path.read_bytes())
    i = data.index(b"\n") + 1  # first digit of the first data row's eta
    data[i : i + 1] = b"7" if data[i : i + 1] != b"7" else b"8"
    path.write_bytes(bytes(data))
    problems = TINY["fig3-roc"].check(out, [0], 11)
    assert any("sha256 differs from the manifest" in p for p in problems)


def test_gate_fails_on_a_wrong_pfa_exact_even_with_a_matching_manifest(bitsense, tmp_path):
    out = _tiny_roc_output(bitsense, tmp_path)
    path = out / "fig3_N1.csv"
    lines = path.read_text().splitlines()
    fields = lines[5].split(",")
    fields[5] = repr(float(fields[5]) + 1e-8)
    lines[5] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    manifest = json.loads((out / "manifest.json").read_text())
    for entry in manifest["outputs"]:
        entry["sha256"] = workloads.sha256(out / entry["file"])
    (out / "manifest.json").write_text(json.dumps(manifest))
    problems = TINY["fig3-roc"].check(out, [0], 11)
    assert len(problems) == 1 and "binom oracle" in problems[0]


def test_gate_compares_reference_hashes_at_the_reference_seed(bitsense, tmp_path):
    out = _tiny_roc_output(bitsense, tmp_path)
    good = {p.name: workloads.sha256(p) for p in out.glob("*.csv")}
    assert workloads._reference_problems(out, good) == []
    (out / "fig3_N3.csv").write_bytes((out / "fig3_N3.csv").read_bytes() + b"\n")
    assert workloads._reference_problems(out, good) == [
        "fig3_N3.csv: sha256 differs from reference.json"
    ]


def test_reference_covers_every_csv_of_the_full_size_roc_workloads():
    reference = json.loads(workloads.REFERENCE_FILE.read_text())
    assert sorted(reference["fig3-roc"]) == ["fig3_N1.csv", "fig3_N2.csv", "fig3_N3.csv"]
    assert sorted(reference["long-record"]) == ["long_record.csv", "long_record_theory.csv"]


def test_benchmark_json_names_the_workloads_run_py_knows():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why


def _units(metrics: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_workload_runs_at_a_tiny_size(bitsense, name, tmp_path):
    workload = TINY[name]
    tracer = spans.Tracer()
    warmup, timed = run.run_passes(bitsense, workload, 21, 0.0, tmp_path, tracer)
    assert [p.problems for p in [warmup] + timed] == [[]] * (1 + len(timed))
    assert [p.traced for p in timed] == [False, True]

    layers, table = run.per_layer(workload, timed, tracer)
    assert _units(layers) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert layers["montecarlo.trials"]["value"] == workload.trials
    self_sum = sum(row["self_s"] for row in table.values())
    unattributed = layers["trace.unattributed_s"]["value"]
    assert self_sum + unattributed == pytest.approx(layers["trace.wall_s"]["value"])
    assert 0 <= unattributed < 0.05

    metrics = run.end_to_end(workload, timed, [1.0, 2.0, 3.0])
    assert _units(metrics) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert metrics["setup_s"]["value"] == 2.0


def test_run_refuses_a_tree_without_the_bitsense_source(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "fig3-roc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
