"""bitsense benchmark: end-to-end timings of one CLI workload, or its per-layer trace.

Run from the repository root:

    python3 benchmarks/run.py --workload fig3-roc --seed 7 --seconds 25 --trace 0

Workloads (workloads.py): fig3-roc, long-record, validate-quick.  Every
run drives the public entry point `bitsense.cli.main([...])` in this
process, on the bitsense under this checkout's src/, with
BITSENSE_WORKERS unset (validate starts its own 2-worker pool).

A run goes through these steps:

1. With --trace 0, set-up is timed first: SETUP_SAMPLES fresh
   interpreters each import bitsense and build the CLI parser, and
   setup_s is their median.
2. One warm-up pass runs at the reference seed; its CSV bytes must
   equal reference.json.
3. Passes at --seed follow for --seconds.  Each pass runs
   the workload's CLI calls into an emptied output directory, and every
   pass's outputs are checked (workloads.py).  Timed passes must also
   write the same bytes as the first timed pass.

End-to-end metrics (--trace 0), over the timed passes:
  wall_s        median wall seconds of one pass, warm
  trials_per_s  median Monte Carlo trials per wall second (H0 + H1, all configs)
  setup_s       median seconds from a fresh interpreter to a built CLI parser
  peak_rss_mb   peak resident memory of this process (pool workers excluded)
error_rate (failed passes / attempted passes) is printed on its own line;
in the result it is the `failed` and `attempted` pair.

With --trace 1, untraced and traced passes alternate.  Traced passes
wrap bitsense's public functions from outside (spans.py) and report
per-layer metrics as means per traced pass.  The tracing overhead is
traced minus untraced wall time.  The self times of all layers add up to
the traced wall time; the rest is printed as trace.unattributed_s.  The
spans are written to .bench_run/spans-<workload>.csv.  Spans inside
forked pool workers are not collected; their time appears only in
montecarlo.pool_s.

The last line of standard output is the JSON result.  The exit code is 0
when every pass was correct, 1 when one was not, and 2 when there is no
bitsense source to run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from spans import POOL, ROOT, SERIAL, WORKERS_ENV, Tracer, installed, per_pass_totals
from workloads import REFERENCE_SEED, WORKLOADS, Workload

SETUP_SAMPLES = 5
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import bitsense; from bitsense import cli; cli.build_parser()"
)


@dataclass
class Pass:
    wall: float
    traced: bool
    problems: list[str]
    digests: dict[str, str]


def environment() -> dict:
    import numpy
    import scipy

    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "bitsense_workers": max(1, int(os.environ.get(WORKERS_ENV, "1"))),
        "cpu_model": "unknown",
        "caches": {},
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        info["caches"][f"L{level}{suffix}"] = size
    return info


def measure_setup(src: Path, root: Path) -> list[float]:
    """Seconds from a fresh interpreter to `import bitsense` and a built parser."""
    env = {k: v for k, v in os.environ.items() if k != WORKERS_ENV}
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(src)],
            cwd=root,
            env=env,
            check=True,
            timeout=120,
        )
        samples.append(perf_counter() - started)
    return samples


def import_bitsense(src: Path):
    sys.path.insert(0, str(src))
    import bitsense
    import bitsense.cli

    where = Path(bitsense.__file__).resolve().parent
    if where != (src / "bitsense").resolve():
        raise ImportError(f"bitsense imported from {where}, not from {src}")
    return bitsense


def _digests(out: Path) -> dict[str, str]:
    """sha256 of every output file but the manifest, which holds a wall clock."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def one_pass(bitsense, workload: Workload, calls, out: Path, seed: int, tracer=None) -> Pass:
    """Run the pass's CLI calls (timed), then check what they wrote (untimed)."""
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    codes = []
    problems = []
    started = perf_counter()
    try:
        with redirect_stdout(io.StringIO()):
            if tracer is None:
                for argv in calls:
                    codes.append(bitsense.cli.main(argv))
            else:
                with installed(tracer, bitsense):
                    for argv in calls:
                        codes.append(bitsense.cli.main(argv))
    except Exception:  # a crash fails this pass; the run goes on and reports it
        problems.append("raised:\n" + traceback.format_exc())
    wall = perf_counter() - started
    digests = {}
    if not problems:
        try:
            problems += workload.check(out, codes, seed)
            digests = _digests(out)
        except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
            problems.append(f"outputs unreadable: {exc!r}")
    if tracer is not None:
        tracer.add("cli.bytes_written", sum(p.stat().st_size for p in out.rglob("*") if p.is_file()))
    return Pass(wall, tracer is not None, problems, digests)


def run_passes(bitsense, workload: Workload, seed: int, seconds: float, work: Path, tracer=None):
    """Warm-up pass at REFERENCE_SEED, then passes at `seed` for `seconds`.

    A pass starts only if, at the length of the pass before it, it ends
    by the deadline; the first timed pass always runs.  With a tracer,
    untraced and traced passes alternate, starting untraced, and at least
    one traced pass runs.
    """
    out = work / "out"
    warmup = one_pass(bitsense, workload, workload.prepare(work, REFERENCE_SEED), out, REFERENCE_SEED)
    calls = workload.prepare(work, seed)
    timed: list[Pass] = []
    deadline = perf_counter() + seconds
    while True:
        traced = tracer is not None and len(timed) % 2 == 1
        if traced:
            tracer.current_pass = len(timed)
        timed.append(one_pass(bitsense, workload, calls, out, seed, tracer if traced else None))
        if timed[-1].digests != timed[0].digests and not timed[-1].problems:
            timed[-1].problems.append("outputs differ from the first timed pass")
        fits = perf_counter() + timed[-1].wall <= deadline
        if not fits and (tracer is None or len(timed) >= 2):
            return warmup, timed


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: Workload, timed: list[Pass], setup: list[float]) -> dict:
    walls = [p.wall for p in timed]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": _metric(statistics.median(walls), "s"),
        "trials_per_s": _metric(statistics.median(workload.trials / w for w in walls), "1/s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(peak_kib / 1024.0, "MB"),
    }


def per_layer(workload: Workload, timed: list[Pass], tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics (means per traced pass) and the full per-span table."""
    ids = [i for i, p in enumerate(timed) if p.traced]
    totals = per_pass_totals(tracer)
    k = len(ids)

    def mean(name: str, field: str) -> float:
        return sum(totals[i][name][field] for i in ids) / k

    def counter(name: str) -> float:
        return sum(tracer.counters[i, name] for i in ids) / k

    traced_wall = sum(timed[i].wall for i in ids) / k
    untraced = [p.wall for p in timed if not p.traced]
    untraced_wall = sum(untraced) / len(untraced)
    table = {
        name: {field: mean(name, field) for field in ("calls", "s", "self_s")}
        for name in tracer.names
    }
    metrics = {
        "montecarlo.simulate_statistics.self_s": _metric(mean(SERIAL, "self_s"), "s"),
        "montecarlo.simulate_statistics.calls": _metric(
            mean(SERIAL, "calls") + mean(POOL, "calls"), "count"
        ),
        "montecarlo.pool.calls": _metric(mean(POOL, "calls"), "count"),
        "montecarlo.trials": _metric(counter("montecarlo.trials"), "count"),
        "signal.observe.s": _metric(mean("signal.observe", "s"), "s"),
        "signal.observe.calls": _metric(mean("signal.observe", "calls"), "count"),
        "signal.factor_covariance.calls": _metric(mean("signal.factor_covariance", "calls"), "count"),
        "detector.statistic.s": _metric(mean("detector.statistic", "s"), "s"),
        "detector.statistic.calls": _metric(mean("detector.statistic", "calls"), "count"),
        "montecarlo.estimate_rates.calls_per_config": _metric(
            mean("montecarlo.estimate_rates", "calls") / workload.configs, "count"
        ),
        "analytic.exact_h0_tail.s": _metric(mean("analytic.exact_h0_tail", "s"), "s"),
        "analytic.exact_h0_tail.calls": _metric(mean("analytic.exact_h0_tail", "calls"), "count"),
        "montecarlo.exact_h0_rates.s": _metric(mean("montecarlo.exact_h0_rates", "s"), "s"),
        "montecarlo.exact_h0_rates.calls_per_config": _metric(
            mean("montecarlo.exact_h0_rates", "calls") / workload.configs, "count"
        ),
        "montecarlo.compare_theory.calls": _metric(mean("montecarlo.compare_theory", "calls"), "count"),
        "analytic.gaussian_tail.calls": _metric(mean("analytic.gaussian_tail", "calls"), "count"),
        "analytic.moments.calls": _metric(mean("analytic.moments", "calls"), "count"),
        "analytic.orthant_prob_quadrature.calls": _metric(
            mean("analytic.orthant_prob_quadrature", "calls"), "count"
        ),
        "cli.main.self_s": _metric(mean(ROOT, "self_s"), "s"),
        "cli.bytes_written": _metric(counter("cli.bytes_written"), "bytes"),
        "montecarlo.validate.calls": _metric(mean("montecarlo.validate", "calls"), "count"),
        "trace.wall_s": _metric(traced_wall, "s"),
        "trace.untraced_wall_s": _metric(untraced_wall, "s"),
        "trace.overhead_s": _metric(traced_wall - untraced_wall, "s"),
        "trace.unattributed_s": _metric(
            traced_wall - sum(row["self_s"] for row in table.values()), "s"
        ),
    }
    return metrics, table


def print_layer_table(table: dict, metrics: dict, traced_passes: int) -> None:
    print(f"{'layer':40s} {'calls/pass':>12s} {'s/pass':>10s} {'self s/pass':>12s}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:40s} {row['calls']:12.1f} {row['s']:10.4f} {row['self_s']:12.4f}")
    self_sum = sum(row["self_s"] for row in table.values())
    value = {name: m["value"] for name, m in metrics.items()}
    print(
        f"self times {self_sum:.4f} s + unattributed {value['trace.unattributed_s']:.6f} s"
        f" = traced wall {value['trace.wall_s']:.4f} s (mean of {traced_passes} traced passes)"
    )
    for name in ("montecarlo.estimate_rates", "montecarlo.compare_theory"):
        print(f"{name}.self_s {table.get(name, {}).get('self_s', 0.0):.6f} s")
    for name in ("analytic.gaussian_tail", "analytic.orthant_prob_quadrature"):
        print(f"{name}.s {table.get(name, {}).get('s', 0.0):.6f} s")
    print(
        f"montecarlo.pool_s {table.get(POOL, {}).get('s', 0.0):.6f} s"
        " (spans inside forked pool workers are not collected; their time is only here)"
    )
    print(
        f"tracing overhead {value['trace.overhead_s']:.4f} s = traced {value['trace.wall_s']:.4f}"
        f" - untraced {value['trace.untraced_wall_s']:.4f} s"
    )


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "bitsense" / "cli.py").is_file():
        print(f"error: no bitsense source under {src}", file=sys.stderr)
        return 2
    os.environ.pop(WORKERS_ENV, None)
    workload = WORKLOADS[args.workload]
    seed = args.seed % 2**64

    setup = [] if args.trace else measure_setup(src, root)
    bitsense = import_bitsense(src)
    print("environment " + json.dumps(environment()))

    runs = root / ".bench_run"
    work = runs / f"{workload.name}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        warmup, timed = run_passes(bitsense, workload, seed, args.seconds, work, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = [warmup] + timed
    failed = sum(1 for p in passes if p.problems)
    for i, p in enumerate(passes):
        for problem in p.problems:
            print(f"pass {i} ({'warm-up' if i == 0 else 'timed'}): {problem}", file=sys.stderr)

    print(
        f"{workload.name} seed {seed}: warm-up {warmup.wall:.4f} s, then {len(timed)} passes (s):"
        f" {' '.join(f'{p.wall:.4f}' + ('t' if p.traced else '') for p in timed)}"
    )
    if tracer is None:
        metrics = end_to_end(workload, timed, setup)
        print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup)}")
    else:
        metrics, table = per_layer(workload, timed, tracer)
        print_layer_table(table, metrics, sum(p.traced for p in timed))
        spans_path = runs / f"spans-{workload.name}.csv"
        tracer.write_csv(spans_path)
        print(f"{len(tracer.start)} spans written to {spans_path.relative_to(root)}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"error_rate {failed / len(passes):.6g} ({failed} of {len(passes)} passes failed)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(passes),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
