"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them live) and asserts
both the statistical claim and its runtime budget.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

from bitsense.analytic import agreement_prob
from bitsense.cli import DEFAULT_MASTER_SEED, expand_preset, main
from bitsense.detector import decide, statistic
from bitsense.model import DetectorDirection, Hypothesis, ModelParams
from bitsense.montecarlo import (
    RunConfig,
    estimate_rates,
    exact_h0_rates,
    simulate_statistics,
)
from test_analytic import orthant_prob_quadrature


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def combined_stderr(pa, pb, trials):
    return math.sqrt(pa * (1 - pa) / trials + pb * (1 - pb) / trials)


def test_a1_exact_h0_oracle_agreement():
    """Empirical Pfa averaged over 5 seeds tracks the exact binomial tail."""
    started = time.perf_counter()
    params = ModelParams(n=20, num_sensors=1, sigma_s2=1.0, r=0.5, sigma2=1e-4)
    trials = 20000
    seeds = [101, 102, 103, 104, 105]

    runs = []
    thresholds = None
    for seed in seeds:
        config = RunConfig(params=params, master_seed=seed, trials=trials)
        thresholds = config.thresholds
        stats = np.sort(simulate_statistics(config, Hypothesis.H0))
        runs.append((trials - np.searchsorted(stats, thresholds, side="left")) / trials)
    pfa_avg = np.mean(runs, axis=0)

    config = RunConfig(params=params, master_seed=seeds[0], trials=trials)
    exact = exact_h0_rates(config)
    bands = 3.0 * np.sqrt(exact * (1.0 - exact) / trials)
    devs = np.abs(pfa_avg - exact)
    within = bool(np.all(devs <= bands + 1e-15))

    j = int(np.where(thresholds == 13.5)[0][0])  # fires at count >= 14
    spot_ok = abs(exact[j] - 0.031784) <= 1e-6

    elapsed = time.perf_counter() - started
    report(
        "A1",
        within and spot_ok and elapsed < 10.0,
        f"max |avg_pfa - exact| - band = {(devs - bands).max():.2e} over "
        f"{len(thresholds)} thresholds x 5 seeds; spot q(14) = {exact[j]:.6f}; "
        f"runtime {elapsed:.1f}s (< 10s)",
    )


def test_a2_orthant_closed_form_vs_quadrature():
    """Arcsine closed form agrees with the quadrature oracle on the grid."""
    started = time.perf_counter()
    worst = 0.0
    for rho in (-0.49, -0.25, 0.0, 0.1, 0.25, 0.49):
        for sigma2 in (1e-4, 1e-2, 1.0):
            c = 1.0 + sigma2
            closed = 0.5 + math.asin(rho) / math.pi
            quad = 2.0 * orthant_prob_quadrature(c, rho * c, c)
            worst = max(worst, abs(closed - quad))
    elapsed = time.perf_counter() - started
    report(
        "A2",
        worst <= 1e-6 and elapsed < 5.0,
        f"max |closed - 2*quadrature| = {worst:.2e} (tol 1e-6); "
        f"runtime {elapsed:.2f}s (< 5s)",
    )


def _pd_at_nearest_pfa(curve, target=0.1):
    j = curve.index_nearest_pfa(target)
    return float(curve.pd[j]), float(curve.pfa[j])


def test_a3_single_sensor_correlation_ordering():
    """More source correlation means better detection at Pfa ~ 0.1."""
    started = time.perf_counter()
    labeled = expand_preset("fig2", master_seed=DEFAULT_MASTER_SEED)
    results = {}
    trials = None
    for _label, config in labeled:
        trials = config.trials
        curve = estimate_rates(config)
        results[config.params.r] = _pd_at_nearest_pfa(curve)

    gaps_ok = True
    details = []
    for hi, lo in ((0.5, 0.3), (0.3, 0.1)):
        pd_hi, _ = results[hi]
        pd_lo, _ = results[lo]
        need = 3.0 * combined_stderr(pd_hi, pd_lo, trials)
        gaps_ok &= (pd_hi - pd_lo) > need
        details.append(f"Pd(r={hi})={pd_hi:.3f} > Pd(r={lo})={pd_lo:.3f} (gap need {need:.3f})")

    elapsed = time.perf_counter() - started
    report(
        "A3",
        gaps_ok and elapsed < 30.0,
        "; ".join(details) + f"; runtime {elapsed:.1f}s (< 30s)",
    )


def test_a4_sensor_count_ordering():
    """More sensors means better detection at Pfa ~ 0.1.

    Known red, kept faithful.  The nearest-Pfa read-out compares two
    operating points: exact Pfa 0.1279 for N=2 (Y >= 23 of 38) and
    0.0924 for N=3 (Y >= 34 of 57).  With one source realization shared
    by all sensors and noise std 1e-2, sensor bit rows are ~99.7%
    identical, so the true gain between those two points is ~0.005
    (measured 0.7439 vs 0.7393 at 1e6 trials), while the 3-sigma rule at
    20000 trials demands > ~0.013.  At equal Pfa 0.1 the gap is ~0.025
    (0.736 vs 0.761, randomised read-out, 200k trials).  The ordering
    itself is real and the N=1 -> N=2 leg passes by a wide margin.
    """
    started = time.perf_counter()
    labeled = expand_preset("fig3", master_seed=DEFAULT_MASTER_SEED)
    results = {}
    trials = None
    for _label, config in labeled:
        trials = config.trials
        curve = estimate_rates(config)
        results[config.params.num_sensors] = _pd_at_nearest_pfa(curve)

    gaps_ok = True
    details = []
    for hi, lo in ((3, 2), (2, 1)):
        pd_hi, _ = results[hi]
        pd_lo, _ = results[lo]
        need = 3.0 * combined_stderr(pd_hi, pd_lo, trials)
        gaps_ok &= (pd_hi - pd_lo) > need
        details.append(f"Pd(N={hi})={pd_hi:.3f} > Pd(N={lo})={pd_lo:.3f} (gap need {need:.3f})")

    elapsed = time.perf_counter() - started
    report(
        "A4",
        gaps_ok and elapsed < 60.0,
        "; ".join(details)
        + f"; runtime {elapsed:.1f}s (< 60s)"
        + " [nearest-Pfa read-out: N=2 at exact Pfa 0.128, N=3 at 0.092, where"
        " the true N=3 vs N=2 gap is ~0.005; at equal Pfa 0.1 it is ~0.025;"
        " see README and docstring]",
    )


def test_a5_h1_moment_audit():
    """Monte Carlo H1 mean matches p(n-1); deviations from the printed
    alternatives are quantified, not hidden."""
    params = ModelParams(n=20, num_sensors=1, sigma_s2=1.0, r=0.5, sigma2=1e-4)
    p = agreement_prob(params).p
    config = RunConfig(params=params, master_seed=2468, trials=100000)
    stats = simulate_statistics(config, Hypothesis.H1)

    mean = float(stats.mean())
    stderr = float(stats.std(ddof=1)) / math.sqrt(config.trials)
    target_consistent = p * 19
    target_paper = 2 * p * 19
    mean_ok = abs(mean - target_consistent) <= 3 * stderr

    var_emp = float(stats.var(ddof=1))
    var_indep = p * (1 - p) * 19
    excess = var_emp - var_indep  # adjacent-pair covariance, reported only

    report(
        "A5",
        mean_ok,
        f"MC mean {mean:.4f} within 3*stderr ({3 * stderr:.4f}) of p(n-1) = "
        f"{target_consistent:.4f}; paper-literal mean 2p(n-1) = {target_paper:.4f} "
        f"deviates by {abs(mean - target_paper):.4f}; empirical variance "
        f"{var_emp:.4f} vs independent-pair {var_indep:.4f} "
        f"(adjacent-pair covariance excess {excess:+.4f}, reported not asserted)",
    )


def test_a6_reverse_direction_detector():
    """Negative correlation with the downward test still beats chance."""
    params = ModelParams(n=20, num_sensors=1, sigma_s2=1.0, r=-0.3, sigma2=1e-4)
    config = RunConfig(params=params, master_seed=9, trials=20000)
    assert config.direction is DetectorDirection.LESS_IS_H1
    curve = estimate_rates(config)
    j = curve.index_nearest_pfa(0.1)
    pd, pfa = float(curve.pd[j]), float(curve.pfa[j])
    need = 3.0 * combined_stderr(pd, pfa, config.trials)
    report(
        "A6",
        pd - pfa >= need,
        f"at pfa={pfa:.4f}: pd={pd:.4f}, margin over diagonal {pd - pfa:.4f} "
        f">= 3*stderr = {need:.4f}",
    )


def test_a7_determinism_serial_vs_parallel(tmp_path, monkeypatch):
    """Same seed, serial and maximally parallel: byte-identical CSVs."""
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"

    monkeypatch.setenv("BITSENSE_WORKERS", "1")
    assert main(["roc", "--preset", "fig3", "--out", str(serial_dir)]) == 0

    monkeypatch.setenv("BITSENSE_WORKERS", str(os.cpu_count() or 2))
    assert main(["roc", "--preset", "fig3", "--out", str(parallel_dir)]) == 0

    names = ["fig3_N1.csv", "fig3_N2.csv", "fig3_N3.csv"]
    identical = all(
        (serial_dir / name).read_bytes() == (parallel_dir / name).read_bytes()
        for name in names
    )
    report(
        "A7",
        identical,
        f"3 curve files byte-identical across worker counts "
        f"(parallel workers = {os.cpu_count() or 2})",
    )


def _criterion_transcription(bits, eta):
    # direct reading of the double-sum decision rule
    total = 0
    for i in range(len(bits[0]) - 1):
        for k in range(len(bits)):
            total += 1 if bits[k][i + 1] == bits[k][i] else 0
    return 1 if total >= eta else 0


def test_a8_brute_force_detector_equivalence():
    """decide(statistic(...)) equals the transcribed double-sum rule on
    every bit matrix of the small shapes."""
    checked = 0
    for n, num_sensors in ((3, 1), (4, 1), (3, 2)):
        m = (n - 1) * num_sensors
        etas = [x / 2 for x in range(-2, 2 * m + 3)]  # integers and half-integers
        for flat in itertools.product((0, 1), repeat=n * num_sensors):
            bits = np.array(flat, dtype=np.uint8).reshape(num_sensors, n)
            nested = bits.tolist()
            y = statistic(bits)
            for eta in etas:
                expected = _criterion_transcription(nested, eta)
                got = decide(y, eta, DetectorDirection.GREATER_IS_H1)
                assert got == expected, (bits, eta)
                checked += 1
    report("A8", True, f"{checked} (matrix, threshold) cases, zero mismatches")
