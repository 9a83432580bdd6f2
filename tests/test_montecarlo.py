import ctypes
import json
import math
import re
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bitsense import montecarlo, signal
from bitsense.analytic import (
    H1_VARIANCE_NEGATIVE,
    H1_VARIANCE_OK,
    H1_VARIANCE_ZERO,
    TheoryMode,
    agreement_prob,
    exact_h0_tail,
    gaussian_rates,
    moments,
)
from bitsense.cli import CURVE_HEADER, _curve_blocks, _json_rows, main, parse_config_file
from bitsense.curves import RocCurve
from bitsense.detector import firing_mass, sweep_thresholds, upper_counts
from bitsense.model import DetectorDirection, Hypothesis, ModelParams
from bitsense.montecarlo import (
    RunConfig,
    config_to_dict,
    estimate_sweep,
    exact_h0_rates,
    seed_for_trial,
    simulate_statistics,
    simulate_sweep,
)
from bitsense.signal import draw_width, factor_covariance, observe


def make_config(n=20, num_sensors=1, r=0.5, trials=20000, master_seed=42, **kw):
    params = ModelParams(n=n, num_sensors=num_sensors, sigma_s2=1.0, r=r, sigma2=1e-4)
    return RunConfig(params=params, master_seed=master_seed, trials=trials, **kw)


def reference_statistics(config, hypothesis, start, stop):
    """One trial at a time: a fresh seed_for_trial stream, drawn as two
    calls (source, then noise rows), then the scalar source recurrence,
    quantizer and count."""
    params = config.params
    N, n = params.num_sensors, params.n
    f = factor_covariance(params)
    out = []
    for t in range(start, stop):
        rng = seed_for_trial(config.master_seed, hypothesis, t)
        if hypothesis is Hypothesis.H0:
            x = params.noise_std * rng.standard_normal((N, n))
        else:
            g = rng.standard_normal(n)
            s = f.diag * g
            s[1:] += f.subdiag * g[:-1]
            x = s + params.noise_std * rng.standard_normal((N, n))
        bits = (x >= 0).astype(np.uint8)
        out.append(int(np.sum(bits[:, 1:] == bits[:, :-1])))
    return out


def chunk_rows(params, hypothesis):
    return montecarlo.CHUNK_BYTES // (8 * draw_width(params, hypothesis))


class TestRunConfig:
    def test_default_thresholds_are_the_sweep_grid(self):
        config = make_config()
        assert np.array_equal(config.thresholds, sweep_thresholds(config.params))

    def test_zero_trials_rejected(self):
        problems = make_config(trials=0).violations()
        assert any("trials" in p for p in problems)

    def test_non_increasing_thresholds_rejected(self):
        problems = make_config(thresholds=[1.0, 1.0, 2.0]).violations()
        assert any("strictly increasing" in p for p in problems)

    @pytest.mark.parametrize(
        "kwargs, problem",
        [
            (dict(num_sensors=True), "num_sensors must be an integer >= 1, got True"),
            (dict(trials=True), "trials must be an integer >= 1, got True"),
            (dict(master_seed=True), "master_seed must fit in 64 bits, got True"),
        ],
    )
    def test_a_bool_is_not_a_count_or_a_seed(self, kwargs, problem):
        config = make_config(**kwargs)
        assert config.violations() == [problem]
        with pytest.raises(ValueError, match=problem):
            estimate_sweep([config])[0]

    @pytest.mark.parametrize("thresholds, shape", [([[0.5, 1.5, 2.5]], (1, 3)), (0.5, ())])
    def test_thresholds_must_be_one_dimensional(self, thresholds, shape):
        problem = f"thresholds must be one-dimensional, got shape {shape}"
        config = make_config(trials=10, thresholds=thresholds)
        assert config.violations() == [problem]
        with pytest.raises(ValueError, match=re.escape(problem)):
            estimate_sweep([config])[0]

    def test_invalid_params_propagate(self):
        config = make_config(r=0.9)
        assert any("positive definite" in p for p in config.violations())
        with pytest.raises(ValueError):
            estimate_sweep([config])[0]

    def test_direction(self):
        assert make_config(r=0.5).direction is DetectorDirection.GREATER_IS_H1
        assert make_config(r=-0.3).direction is DetectorDirection.LESS_IS_H1
        assert make_config(r=0.0).direction is DetectorDirection.GREATER_IS_H1


class TestValues:
    """Configs and curves compare by value and keep their own arrays."""

    def test_equal_configs_compare_equal(self):
        config = make_config(trials=10)
        assert config == make_config(trials=10) and config in [make_config(trials=10)]
        # the grid's origin is not part of the value
        assert config == make_config(trials=10, thresholds=sweep_thresholds(config.params))
        assert config != replace(config, thresholds=[0.5, 1.5])
        assert config != replace(config, trials=11)

    def test_a_config_keeps_its_own_copy_of_the_thresholds(self):
        thresholds = np.array([0.5, 1.5, 2.5])
        config = make_config(trials=10, thresholds=thresholds)
        thresholds[0] = 9.0
        assert config.thresholds.tolist() == [0.5, 1.5, 2.5]
        assert config.violations() == []
        with pytest.raises(ValueError, match="read-only"):
            config.thresholds[0] = 9.0

    def test_equal_curves_compare_equal(self):
        curve = estimate_sweep([make_config(trials=10)], workers=1)[0]
        again = estimate_sweep([make_config(trials=10)], workers=1)[0]
        assert curve == again and curve in [again]
        assert curve != replace(curve, pd=1.0 - curve.pd)

    def test_a_curve_keeps_its_own_copy_of_its_rates(self):
        pfa = np.array([0.5, 0.25])
        curve = RocCurve(eta=[0.5, 1.5], pfa=pfa, pd=[0.75, 0.5])
        pfa[0] = 0.0
        assert curve.pfa.tolist() == [0.5, 0.25]
        with pytest.raises(ValueError, match="read-only"):
            curve.pd[0] = 0.0


class TestSeedForTrial:
    def test_replay_is_identical(self):
        a = seed_for_trial(99, Hypothesis.H0, 7).standard_normal(8)
        b = seed_for_trial(99, Hypothesis.H0, 7).standard_normal(8)
        assert np.array_equal(a, b)

    def test_hypothesis_tag_changes_the_stream(self):
        a = seed_for_trial(99, Hypothesis.H0, 7).standard_normal(4)
        b = seed_for_trial(99, Hypothesis.H1, 7).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_trial_index_changes_the_stream(self):
        a = seed_for_trial(99, Hypothesis.H0, 7).standard_normal(4)
        b = seed_for_trial(99, Hypothesis.H0, 8).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_master_seed_changes_the_stream(self):
        a = seed_for_trial(99, Hypothesis.H0, 7).standard_normal(4)
        b = seed_for_trial(100, Hypothesis.H0, 7).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_the_trial_index_is_word_2_exactly_up_to_2_64(self):
        for t in (2**53 + 1, 2**63, 2**64 - 1):
            counter = seed_for_trial(1, Hypothesis.H1, t).bit_generator.state["state"]["counter"]
            assert counter.tolist() == [0, 0, t, 1]
        for t in (-1, 2**64):
            with pytest.raises(OverflowError):
                seed_for_trial(1, Hypothesis.H0, t)

    def test_batch_of_streams_is_collision_free(self):
        # first raw output of 20000 H0 streams: all pairwise distinct
        firsts = {
            int(seed_for_trial(5, Hypothesis.H0, t).bit_generator.random_raw(1)[0])
            for t in range(20000)
        }
        assert len(firsts) == 20000

    def test_engine_uses_the_same_streams(self):
        config = make_config(trials=16)
        stats = simulate_statistics(config, Hypothesis.H1)
        for t in (0, 5, 15):
            rng = seed_for_trial(config.master_seed, Hypothesis.H1, t)
            bits = observe(config.params, Hypothesis.H1, rng)
            assert int(np.sum(bits[:, 1:] == bits[:, :-1])) == stats[t]


class TestChunkedEngine:
    @pytest.mark.parametrize("hypothesis", [Hypothesis.H0, Hypothesis.H1])
    def test_partial_last_chunk_matches_per_trial_streams(self, hypothesis):
        config = make_config(num_sensors=2, r=-0.3)
        trials = 2 * chunk_rows(config.params, hypothesis) + 7
        config = replace(config, trials=trials)
        stats = simulate_statistics(config, hypothesis, workers=1)
        assert stats.tolist() == reference_statistics(config, hypothesis, 0, trials)

    @pytest.mark.parametrize("hypothesis", [Hypothesis.H0, Hypothesis.H1])
    def test_nonzero_start_matches_per_trial_streams(self, hypothesis):
        # a pool worker runs the engine on a trial range that starts and
        # ends off the chunk grid
        config = make_config(num_sensors=3, trials=1)
        rows = chunk_rows(config.params, hypothesis)
        start, stop = rows - 5, 2 * rows + 3
        key = montecarlo._philox_key(config.master_seed)
        stats = montecarlo._run_sweep_trials([config.params], key, hypothesis, start, stop)[0]
        assert stats.tolist() == reference_statistics(config, hypothesis, start, stop)

    @pytest.mark.parametrize("hypothesis", [Hypothesis.H0, Hypothesis.H1])
    def test_row_wider_than_the_buffer_cap_runs_one_trial_per_chunk(self, hypothesis):
        config = make_config(n=16400, num_sensors=2, r=0.4, trials=3)
        assert chunk_rows(config.params, hypothesis) == 0  # engine clamps to 1
        stats = simulate_statistics(config, hypothesis, workers=1)
        assert stats.tolist() == reference_statistics(config, hypothesis, 0, 3)


class TestDeterminism:
    def test_identical_config_identical_curve(self):
        config = make_config(trials=2000)
        a = estimate_sweep([config])[0]
        b = estimate_sweep([config])[0]
        assert np.array_equal(a.pfa, b.pfa)
        assert np.array_equal(a.pd, b.pd)

    def test_worker_count_does_not_change_results(self):
        config = make_config(trials=4000)
        serial = simulate_statistics(config, Hypothesis.H1, workers=1)
        parallel = simulate_statistics(config, Hypothesis.H1, workers=3)
        assert np.array_equal(serial, parallel)


class TestEstimateRates:
    def test_curve_shape_and_endpoints(self):
        config = make_config(trials=2000)
        curve = estimate_sweep([config])[0]
        assert curve.trials_used == 2000
        assert (curve.pfa[0], curve.pd[0]) == (1.0, 1.0)  # eta below min count
        assert (curve.pfa[-1], curve.pd[-1]) == (0.0, 0.0)  # eta above max count

    def test_monotone_in_threshold(self):
        curve = estimate_sweep([make_config(trials=2000)])[0]
        assert np.all(np.diff(curve.pfa) <= 0)
        assert np.all(np.diff(curve.pd) <= 0)

    def test_pfa_matches_exact_binomial_at_spot_threshold(self):
        config = make_config()  # seed 42, 20000 trials
        curve = estimate_sweep([config])[0]
        j = int(np.where(config.thresholds == 13.5)[0][0])  # fires at count >= 14
        q = 16664 / 524288
        band = 3.0 * math.sqrt(q * (1 - q) / config.trials)
        assert abs(curve.pfa[j] - q) <= band

    def test_zero_correlation_roc_sits_on_the_diagonal(self):
        config = make_config(r=0.0, master_seed=3)
        curve = estimate_sweep([config])[0]
        bands = 3.0 * np.sqrt(curve.pfa * (1.0 - curve.pfa) / config.trials)
        assert np.all(np.abs(curve.pd - curve.pfa) <= bands + 1e-15)

    def test_negative_r_curve_grows_with_threshold(self):
        # downward test: firing set is {count <= eta}
        config = make_config(r=-0.3, trials=2000, master_seed=9)
        curve = estimate_sweep([config])[0]
        assert (curve.pfa[0], curve.pd[0]) == (0.0, 0.0)
        assert (curve.pfa[-1], curve.pd[-1]) == (1.0, 1.0)
        assert np.all(np.diff(curve.pfa) >= 0)

    def test_pfa_converges_to_exact_tail_with_many_trials(self):
        config = make_config(trials=200000, master_seed=1)
        stats = np.sort(simulate_statistics(config, Hypothesis.H0))
        pfa = (config.trials - np.searchsorted(stats, config.thresholds, "left")) / config.trials
        exact = exact_h0_rates(config)
        bands = 3.0 * np.sqrt(exact * (1.0 - exact) / config.trials)
        assert np.all(np.abs(pfa - exact) <= bands + 1e-15)


class TestExactRates:
    def test_exact_rates_start_at_one_and_end_at_zero(self):
        config = make_config(trials=1)
        exact = exact_h0_rates(config)
        assert exact[0] == 1.0
        assert exact[-1] == 0.0
        assert np.all(np.diff(exact) < 0)

    def test_reverse_direction_rates(self):
        config = make_config(r=-0.3, trials=1)
        exact = exact_h0_rates(config)
        assert exact[0] == 0.0
        assert exact[-1] == 1.0

    @pytest.mark.parametrize("r", [0.3, -0.3])
    @pytest.mark.parametrize("n, num_sensors", [(20, 1), (300, 2)])
    def test_rates_match_the_scalar_tail_formulas(self, r, n, num_sensors):
        # thresholds below 0, non-integers, integers and above m; at
        # m = 598 the far tails are where 1 - P(Y >= k) cancels
        m = (n - 1) * num_sensors
        thresholds = [-3.0, -0.5, 0.0, 0.25, 1.0, 7.5, 9.0, 9.999, 18.5, 19.0, 19.5]
        thresholds += [m / 2 - 0.5, m / 2, m - 1.5, m - 1, m, m + 0.5, m + 1, m + 12.0]
        thresholds = sorted(set(thresholds))
        config = make_config(n=n, num_sensors=num_sensors, r=r, trials=1, thresholds=thresholds)
        for eta, rate in zip(thresholds, exact_h0_rates(config)):
            if r > 0:
                expected = exact_h0_tail(config.params, math.ceil(eta))
            else:
                expected = 1.0 - exact_h0_tail(config.params, math.floor(eta) + 1)
            assert rate == expected, eta

    def test_thousands_of_pairs_stay_fast_and_exact(self):
        # m = 6000: one linear table; re-summing per threshold took hours
        config = make_config(n=3001, num_sensors=2, trials=1, thresholds=np.arange(6002.0))
        tail = exact_h0_rates(config)
        assert len(tail) == 6002
        assert tail[0] == 1.0
        assert tail[-1] == 0.0
        assert np.all(np.diff(tail) <= 0)
        assert tail[3000] > 0.5 > tail[3001]


class TestCompareTheory:
    """The empirical, theory and exact columns `roc` joins, each read
    from its own builder."""

    def test_empirical_h0_column_tracks_exact_oracle(self):
        config = make_config()  # seed 42, 20000 trials
        pairs = zip(estimate_sweep([config])[0].pfa.tolist(), exact_h0_rates(config).tolist())
        for emp, exact in pairs:
            band = 3.0 * math.sqrt(exact * (1 - exact) / config.trials)
            assert abs(emp - exact) <= band + 1e-15

    def test_gaussian_h0_column_is_close_to_exact(self):
        # quality of the CLT approximation at n=20, N=1
        config = make_config(trials=200)
        pfa, _, _ = gaussian_rates(config.params, TheoryMode.CONSISTENT, config.thresholds)
        pairs = zip(pfa, exact_h0_rates(config).tolist())
        assert max(abs(theory - exact) for theory, exact in pairs) <= 0.02

    def test_paper_literal_negative_variance_is_flagged_per_row(self):
        config = make_config(trials=200)
        _, pd, flag = gaussian_rates(config.params, TheoryMode.PAPER_LITERAL, config.thresholds)
        assert flag == H1_VARIANCE_NEGATIVE
        assert pd == [None] * len(config.thresholds)

    def test_consistent_mode_rows_carry_values(self):
        config = make_config(trials=200)
        _, pd, flag = gaussian_rates(config.params, TheoryMode.CONSISTENT, config.thresholds)
        assert flag == H1_VARIANCE_OK == "ok"
        pairs = zip(estimate_sweep([config])[0].pd.tolist(), pd)
        assert all(math.isfinite(abs(emp - theory)) for emp, theory in pairs)
        assert agreement_prob(config.params).p == pytest.approx(0.6666482912, abs=1e-6)

    def test_zero_correlation_paper_mode_reports_zero_variance(self):
        config = make_config(r=0.0, trials=200)
        _, _, flag = gaussian_rates(config.params, TheoryMode.PAPER_LITERAL, config.thresholds)
        assert flag == H1_VARIANCE_ZERO
        # the two modes genuinely disagree on the H1 mean at r = 0 and the
        # report keeps each mode's numbers rather than hiding one
        paper = moments(config.params, Hypothesis.H1, TheoryMode.PAPER_LITERAL)
        consistent = moments(config.params, Hypothesis.H1, TheoryMode.CONSISTENT)
        assert paper.mean == 19.0
        assert consistent.mean == 9.5

    def test_reuses_precomputed_empirical_curve(self):
        config = make_config(trials=500)
        empirical = estimate_sweep([config])[0]
        for block in _curve_blocks(config, empirical):
            assert block["pfa_emp"] == empirical.pfa.tolist()
            assert block["pd_emp"] == empirical.pd.tolist()


def test_config_to_dict_echoes_everything_needed_for_replay():
    config = make_config(trials=123, master_seed=77)
    echo = config_to_dict(config, label="unit")
    assert echo["label"] == "unit"
    assert echo["n"] == 20
    assert echo["num_sensors"] == 1
    assert echo["sigma_s2"] == 1.0
    assert echo["r"] == 0.5
    assert echo["noise_std"] == pytest.approx(1e-2)
    assert echo["sigma2"] == pytest.approx(1e-4)
    assert echo["trials"] == 123
    assert echo["master_seed"] == 77
    assert echo["theory_mode"] == "consistent"
    assert echo["thresholds"] == config.thresholds.tolist()


@pytest.mark.parametrize(
    "text, flags",
    [
        # paper-mode H1 variance is negative: the tables flag it, pd_theory None
        ("n = 20\nr = 0.5\n", {"paper": "NEGATIVE", "consistent": "ok"}),
        # downward test at non-integer thresholds
        (
            "n = 12\nnum_sensors = 3\nr = -0.3\nthresholds = -1, 2.5, 7, 10.25, 40\n",
            {"paper": "ok", "consistent": "ok"},
        ),
        # paper-mode H1 variance is exactly 0: a step, flagged ZERO
        ("n = 20\nnum_sensors = 2\nr = 0\n", {"paper": "ZERO", "consistent": "ok"}),
    ],
)
def test_theory_roc_compare_theory_and_theory_table_agree(tmp_path, text, flags):
    cfg = tmp_path / "cross.cfg"
    cfg.write_text(text + "trials = 20\n")
    _, config = parse_config_file(cfg)
    assert main(["theory", "--config", str(cfg), "--out", str(tmp_path), "--format", "json"]) == 0
    table = json.loads((tmp_path / "cross_theory.json").read_text())["rows"]
    empirical = estimate_sweep([config])[0]
    library_flag = {"ok": "ok", "NEGATIVE": "negative-variance", "ZERO": "zero-variance"}
    joined = _json_rows(_curve_blocks(config, empirical))
    for mode in TheoryMode:
        rows = [row for row in table if row["mode"] == mode.value]
        roc = [row for row in joined if row["mode"] == mode.value]
        pfa, pd, rates_flag = gaussian_rates(config.params, mode, config.thresholds)
        assert [row["eta"] for row in rows] == config.thresholds.tolist()
        assert {row["h1_variance_flag"] for row in rows} == {flags[mode.value]}
        assert rates_flag == library_flag[flags[mode.value]]
        assert [row["pfa_theory"] for row in rows] == [row["pfa_theory"] for row in roc] == pfa
        assert [row["pd_theory"] for row in rows] == [row["pd_theory"] for row in roc] == pd
        if flags[mode.value] == "NEGATIVE":
            assert all(row["pd_theory"] is None for row in rows)


class TestThresholdRules:
    @pytest.mark.parametrize("thresholds", [[math.nan], [0.5, math.inf], [-math.inf, 2.5]])
    def test_non_finite_thresholds_are_violations(self, thresholds):
        config = make_config(trials=50, thresholds=thresholds)
        assert "thresholds must be finite" in config.violations()
        with pytest.raises(ValueError, match="thresholds must be finite"):
            estimate_sweep([config])[0]

    @pytest.mark.parametrize("num_sensors", [1, 3])
    def test_exact_h0_tail_matches_exact_h0_rates(self, num_sensors):
        config = make_config(n=9, num_sensors=num_sensors, trials=50)
        grid = np.arange(-2, config.params.pairs_total + 3) + 0.5
        config = replace(config, thresholds=grid)
        tails = [exact_h0_tail(config.params, eta) for eta in grid]
        assert tails == exact_h0_rates(config).tolist()


def sweep_config(n, num_sensors, r, sigma_s2, sigma2, trials, master_seed):
    params = ModelParams(n=n, num_sensors=num_sensors, sigma_s2=sigma_s2, r=r, sigma2=sigma2)
    return RunConfig(params=params, master_seed=master_seed, trials=trials)


#: Sweeps that mix sensor counts, both signs of r, source and noise
#: powers, and seeds, trial counts and record lengths interleaved.  Few
#: seeds and trial counts, so configs often share a draw pass.
sweeps = st.lists(
    st.builds(
        sweep_config,
        n=st.sampled_from([2, 3, 7, 20]),
        num_sensors=st.integers(1, 4),
        r=st.sampled_from([-0.45, -0.2, 0.0, 0.3, 0.5]),
        sigma_s2=st.sampled_from([1.0, 1.7]),
        sigma2=st.sampled_from([1e-4, 0.09, 2.0]),
        trials=st.sampled_from([1, 13, 60]),
        master_seed=st.sampled_from([1, 2, 3]),
    ),
    min_size=1,
    max_size=6,
)

#: Sweeps of few seeds, trial counts, record lengths and noise powers, so
#: configs often share a sensor family, n and sigma2, yet differ in N, r
#: and sigma_s2, which under H1 split a family.
family_sweeps = st.lists(
    st.builds(
        sweep_config,
        n=st.sampled_from([3, 20]),
        num_sensors=st.integers(1, 4),
        r=st.sampled_from([-0.45, 0.3, 0.5]),
        sigma_s2=st.sampled_from([1.0, 1.7]),
        sigma2=st.sampled_from([1e-4, 2.0]),
        trials=st.sampled_from([13, 40]),
        master_seed=st.sampled_from([1, 2]),
    ),
    min_size=2,
    max_size=6,
)

#: A fixed mixed sweep: one group of seed 5 and 130 trials with N = 1, 2
#: and 4 and both signs of r; between its members, configs of another seed,
#: another n and other trial counts at seed 5, which form groups of their own.
MIXED_SWEEP = [
    sweep_config(20, 1, 0.5, 1.0, 1e-4, 130, 5),
    sweep_config(20, 3, -0.3, 1.0, 1e-4, 130, 6),
    sweep_config(20, 4, -0.2, 1.7, 0.09, 130, 5),
    sweep_config(7, 2, -0.45, 1.0, 2.0, 150, 5),
    sweep_config(20, 2, 0.5, 1.0, 1e-4, 41, 5),
    sweep_config(20, 2, 0.5, 1.0, 1e-4, 130, 5),
]


class TestSweepEngine:
    @pytest.mark.parametrize("hypothesis", [Hypothesis.H0, Hypothesis.H1])
    @settings(max_examples=60, deadline=None)
    @given(configs=sweeps)
    def test_sweep_equals_one_run_per_config(self, hypothesis, configs):
        swept = simulate_sweep(configs, hypothesis, workers=1)
        alone = [simulate_statistics(c, hypothesis, workers=1) for c in configs]
        assert [y.tolist() for y in swept] == [y.tolist() for y in alone]

    @pytest.mark.parametrize("hypothesis", [Hypothesis.H0, Hypothesis.H1])
    def test_pool_and_small_chunks_keep_every_config_apart(self, hypothesis, monkeypatch):
        # 7-row chunks: chunk edges and pool splits fall inside every group
        alone = [reference_statistics(c, hypothesis, 0, c.trials) for c in MIXED_SWEEP]
        widest = max(draw_width(c.params, hypothesis) for c in MIXED_SWEEP)
        monkeypatch.setattr(montecarlo, "CHUNK_BYTES", 8 * widest * 7)
        for workers in (1, 2):
            swept = simulate_sweep(MIXED_SWEEP, hypothesis, workers=workers)
            assert [y.tolist() for y in swept] == alone

    @pytest.mark.parametrize("hypothesis", [Hypothesis.H0, Hypothesis.H1])
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(configs=family_sweeps)
    def test_every_family_member_equals_its_reference(self, fake_pool, hypothesis, configs):
        alone = [reference_statistics(c, hypothesis, 0, c.trials) for c in configs]
        for workers in (1, 2):
            swept = simulate_sweep(configs, hypothesis, workers=workers)
            assert [y.tolist() for y in swept] == alone

    def test_a_sweep_equals_each_config_run_alone(self):
        for swept, config in zip(estimate_sweep(MIXED_SWEEP), MIXED_SWEEP):
            alone = estimate_sweep([config])[0]
            assert swept.trials_used == alone.trials_used == config.trials
            assert swept.eta.tolist() == alone.eta.tolist()
            assert swept.pfa.tolist() == alone.pfa.tolist()
            assert swept.pd.tolist() == alone.pd.tolist()

    def test_each_seed_draws_each_trial_once(self, resets):
        simulate_sweep(MIXED_SWEEP, Hypothesis.H1, workers=1)
        # each (seed, trials) group draws its trials once: three configs
        # share the seed-5 130-trial pass
        assert len(resets) == 130 + 130 + 150 + 41

    def test_an_roc_sweep_draws_each_trial_once_per_hypothesis(self, resets):
        estimate_sweep(MIXED_SWEEP, workers=1)
        assert len(resets) == 2 * (130 + 130 + 150 + 41)


class TestHistogramSweep:
    """An ROC sweep reduces each config's counts to a histogram inside the
    engine; its rates are those of the per-trial counts."""

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        configs=st.lists(
            st.builds(
                sweep_config,
                n=st.integers(2, 12),
                num_sensors=st.integers(1, 4),
                r=st.sampled_from([-0.45, -0.2, 0.0, 0.3, 0.5]),
                sigma_s2=st.just(1.0),
                sigma2=st.sampled_from([1e-4, 2.0]),
                trials=st.sampled_from([1, 2, 7, 13]),
                master_seed=st.sampled_from([1, 2]),
            ),
            min_size=1,
            max_size=4,
        ),
        workers=st.integers(1, 3),
        chunk_bytes=st.sampled_from([1, 1000, montecarlo.CHUNK_BYTES]),
    )
    def test_rates_are_the_firing_mass_of_the_per_trial_counts(
        self, fake_pool, cpus, monkeypatch, configs, workers, chunk_bytes
    ):
        # 1000-byte chunks hold 2-20 trials, so chunk edges fall inside shares
        cpus(3)
        monkeypatch.setattr(montecarlo, "CHUNK_BYTES", chunk_bytes)
        curves = estimate_sweep(configs, workers=workers)
        for hypothesis, rates in (
            (Hypothesis.H0, [c.pfa for c in curves]),
            (Hypothesis.H1, [c.pd for c in curves]),
        ):
            for config, y, rate in zip(configs, simulate_sweep(configs, hypothesis), rates):
                upper = upper_counts(y, config.params.pairs_total)
                expected = firing_mass(upper, config.thresholds, config.direction) / len(y)
                assert rate.tolist() == expected.tolist()

    def test_memory_stays_flat_in_the_trial_count(self, monkeypatch):
        # 16 KiB chunks; as per-trial int64s, the two hypotheses' 10000
        # trials alone would take 156 KiB, above the bound
        monkeypatch.setattr(montecarlo, "CHUNK_BYTES", 16 * 1024)
        config = make_config(n=4, trials=10000, master_seed=3)
        bound = 128 * 1024
        assert 2 * config.trials * 8 > bound
        estimate_sweep([config], workers=1)  # once-per-process lookups first
        tracemalloc.start()
        try:
            estimate_sweep([config], workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


class CountingWords:
    """A Philox's counter words that record (word 2, word 3) at each
    write to word 2, the engine's reset of one trial's stream."""

    def __init__(self, words, seen):
        self.words, self.seen = words, seen

    def __setitem__(self, i, value):
        self.words[i] = value
        if i == 2:
            self.seen.append((value, self.words[3]))


@pytest.fixture
def resets(monkeypatch):
    """(trial index, hypothesis tag) of every trial stream the engine
    resets, in order.  The draw-route check runs first, so its own reset
    through `_counter_views` is never counted, whatever ran before."""
    montecarlo._normal_fill()
    seen = []
    views = montecarlo._counter_views

    def counting(bitgen):
        words, pos = views(bitgen)
        return CountingWords(words, seen), pos

    monkeypatch.setattr(montecarlo, "_counter_views", counting)
    return seen


@pytest.fixture
def engine_rows(monkeypatch):
    """Every row of normals the engine hands the quantizer, in order."""
    rows = []
    observe = signal.observe_draws

    def recording(params, hypothesis, draws, factor=None):
        rows.extend(draws.tolist())
        return observe(params, hypothesis, draws, factor=factor)

    monkeypatch.setattr(signal, "observe_draws", recording)
    return rows


def reference_rows(config, hypothesis, start, stop):
    width = draw_width(config.params, hypothesis)
    return [
        seed_for_trial(config.master_seed, hypothesis, t).standard_normal(width).tolist()
        for t in range(start, stop)
    ]


def run_trials(config, hypothesis, start, stop):
    key = montecarlo._philox_key(config.master_seed)
    return montecarlo._run_sweep_trials([config.params], key, hypothesis, start, stop)


WIDE = make_config(n=300, num_sensors=2, r=-0.5, trials=60, master_seed=1)

#: numpy's ziggurat_nor_r: a normal draw past it took the ziggurat's tail
#: branch, which reads more words from the stream than a fast-path draw.
ZIGGURAT_TAIL = 3.6541528853610088


class TestTrialReset:
    """The engine resets one Philox in place to each trial's stream; every
    row it draws must be the row `seed_for_trial` draws."""

    @pytest.mark.parametrize("hypothesis", [Hypothesis.H0, Hypothesis.H1])
    @pytest.mark.parametrize("start", [2**62, 2**64 - 3])
    def test_rows_at_the_top_of_the_trial_index_range(self, engine_rows, hypothesis, start):
        config = make_config(n=12, num_sensors=3, master_seed=9)
        [y] = run_trials(config, hypothesis, start, start + 3)
        assert engine_rows == reference_rows(config, hypothesis, start, start + 3)
        assert y.tolist() == reference_statistics(config, hypothesis, start, start + 3)

    @pytest.mark.parametrize("hypothesis", [Hypothesis.H0, Hypothesis.H1])
    def test_a_clean_trial_follows_one_that_ended_mid_block(self, engine_rows, hypothesis):
        # 600 or 900 normals a trial, 150 or ~225 Philox blocks: 54 or 36
        # rows a chunk, and the last trial of the first chunk ends inside a block
        chunk = chunk_rows(WIDE.params, hypothesis)
        assert chunk < WIDE.trials
        last = seed_for_trial(WIDE.master_seed, hypothesis, chunk - 1)
        last.standard_normal(draw_width(WIDE.params, hypothesis))
        assert last.bit_generator.state["buffer_pos"] < 4
        run_trials(WIDE, hypothesis, 0, WIDE.trials)
        assert engine_rows == reference_rows(WIDE, hypothesis, 0, WIDE.trials)

    @pytest.mark.parametrize("hypothesis", [Hypothesis.H0, Hypothesis.H1])
    def test_rows_through_the_two_worker_runner(self, fake_pool, engine_rows, hypothesis):
        config = make_config(n=20, num_sensors=3, r=-0.3, trials=25, master_seed=4)
        [y] = simulate_sweep([config], hypothesis, workers=2)
        assert fake_pool == [(2, 2)]
        assert engine_rows == reference_rows(config, hypothesis, 0, config.trials)
        assert y.tolist() == reference_statistics(config, hypothesis, 0, config.trials)

    @pytest.mark.parametrize("hypothesis", [Hypothesis.H0, Hypothesis.H1])
    def test_rows_through_and_after_a_ziggurat_tail_draw(
        self, fake_pool, engine_rows, hypothesis
    ):
        config = make_config(n=20, num_sensors=3, master_seed=2, trials=100)
        rows = reference_rows(config, hypothesis, 0, config.trials)
        t, i = next(
            (t, i)
            for t, row in enumerate(rows)
            for i, x in enumerate(row[:-1])  # not the row's last draw
            if abs(x) > ZIGGURAT_TAIL
        )
        run_trials(config, hypothesis, max(0, t - 1), t + 2)
        assert engine_rows == rows[max(0, t - 1) : t + 2]
        engine_rows.clear()
        [y] = simulate_sweep([replace(config, trials=t + 2)], hypothesis, workers=2)
        assert fake_pool == [(2, 2)]
        assert engine_rows == rows[: t + 2]
        assert y.tolist() == reference_statistics(config, hypothesis, 0, t + 2)


@pytest.fixture
def fresh_fill():
    """`montecarlo._normal_fill` with its once-per-process cache cleared
    before the test and again after it, so no other test sees its lookup."""
    montecarlo._normal_fill.cache_clear()
    yield montecarlo._normal_fill
    montecarlo._normal_fill.cache_clear()


class TestNormalFill:
    def test_the_probe_takes_the_ziggurat_tail(self):
        probe = seed_for_trial(0, Hypothesis.H1, 17).standard_normal(256)
        assert abs(probe[83]) > ZIGGURAT_TAIL

    # the same signature and another law, or no such routine at all
    @pytest.mark.parametrize("other", ["random_standard_exponential_fill", None])
    def test_a_routine_that_draws_otherwise_or_is_missing_is_refused(
        self, fresh_fill, monkeypatch, engine_rows, other
    ):
        lib = ctypes.PyDLL(np.random._generator.__file__)
        routines = {"random_standard_normal_fill": getattr(lib, other)} if other else {}
        monkeypatch.setattr(ctypes, "PyDLL", lambda path: SimpleNamespace(**routines))
        with pytest.raises(RuntimeError, match=re.escape(f"numpy {np.__version__}")):
            simulate_statistics(make_config(trials=5), Hypothesis.H0, workers=1)
        assert engine_rows == []

    def test_a_reset_route_that_loses_its_word_3_writes_is_refused(
        self, fresh_fill, monkeypatch, engine_rows
    ):
        views = montecarlo._counter_views

        class LosingWord3:
            def __init__(self, words):
                self.words = words

            def __setitem__(self, i, value):
                if i != 3:
                    self.words[i] = value

        def losing(bitgen):
            words, pos = views(bitgen)
            return LosingWord3(words), pos

        monkeypatch.setattr(montecarlo, "_counter_views", losing)
        with pytest.raises(RuntimeError, match=re.escape(f"numpy {np.__version__}")):
            simulate_statistics(make_config(trials=5), Hypothesis.H1, workers=1)
        assert engine_rows == []

    def test_the_routine_is_looked_up_once_per_process(self, fresh_fill, monkeypatch, fake_pool):
        opened = []
        pydll = ctypes.PyDLL

        def opening(path):
            opened.append(path)
            return pydll(path)

        monkeypatch.setattr(ctypes, "PyDLL", opening)
        for seed in (1, 2, 3):
            simulate_statistics(make_config(trials=5, master_seed=seed), Hypothesis.H1, workers=1)
        [y] = simulate_sweep([make_config(trials=25)], Hypothesis.H0, workers=2)
        assert fake_pool == [(2, 2)]
        assert opened == [np.random._generator.__file__]
        assert y.tolist() == reference_statistics(make_config(trials=25), Hypothesis.H0, 0, 25)


class TestCounterViews:
    def test_the_views_write_the_generators_own_state(self):
        bitgen = np.random.Philox(key=np.array([3, 4], dtype=np.uint64))
        words, pos = montecarlo._counter_views(bitgen)
        # the constructor leaves the fresh stream the engine starts each task from
        assert (list(words), pos.value) == ([0, 0, 0, 0], 4)
        state = bitgen.state
        assert (state["buffer"].tolist(), state["has_uint32"]) == ([0, 0, 0, 0], 0)
        words[2], words[3], pos.value = 11, 1, 2
        state = bitgen.state
        assert state["state"]["counter"].tolist() == [0, 0, 11, 1]
        assert state["state"]["key"].tolist() == [3, 4]
        assert state["buffer_pos"] == 2

    def test_an_unknown_layout_raises_before_any_pointer_is_followed(
        self, fresh_fill, monkeypatch, engine_rows
    ):
        zeroed = ctypes.create_string_buffer(64)  # NULL pointers, buffer_pos 0
        address = ctypes.addressof(zeroed)

        class StandIn(np.random.Philox):
            # following the NULL counter pointer would raise ValueError
            ctypes = property(lambda self: SimpleNamespace(state_address=address))

        monkeypatch.setattr(np.random, "Philox", StandIn)
        with pytest.raises(RuntimeError, match=re.escape(f"numpy {np.__version__}")):
            simulate_statistics(make_config(trials=5), Hypothesis.H0, workers=1)
        assert engine_rows == []

    def test_an_engine_task_sets_no_philox_state(self, fresh_fill, monkeypatch):
        sets = []
        philox = np.random.Philox

        class Counting(philox):
            @property
            def state(self):
                return philox.state.__get__(self)

            @state.setter
            def state(self, value):
                sets.append(value)
                philox.state.__set__(self, value)

        monkeypatch.setattr(np.random, "Philox", Counting)
        fresh_fill()  # the once-per-process check sets its one probe state
        assert len(sets) == 1
        for trials in (1, 3, WIDE.trials):  # 60 trials span two chunks
            sets.clear()
            run_trials(WIDE, Hypothesis.H1, 0, trials)
            assert sets == []


class TestGridFollowsParams:
    """A default threshold grid follows params through `replace`; a grid
    the caller gave is kept."""

    def test_replaced_params_get_their_own_grid(self):
        config = make_config(n=20, trials=50)
        wider = replace(config, params=replace(config.params, num_sensors=3))
        assert len(wider.thresholds) == 59  # (20 - 1) * 3 + 2
        assert np.array_equal(wider.thresholds, sweep_thresholds(wider.params))
        assert wider.violations() == []

    def test_default_grid_is_carried_through_other_replacements(self):
        config = replace(replace(make_config(n=20), master_seed=1), trials=10)
        wider = replace(config, params=replace(config.params, num_sensors=2))
        assert np.array_equal(wider.thresholds, sweep_thresholds(wider.params))

    def test_explicit_grid_survives_a_params_change(self):
        config = make_config(n=20, trials=50, thresholds=[0.5, 3.5, 9.5])
        moved = replace(config, params=replace(config.params, num_sensors=3))
        assert moved.thresholds.tolist() == [0.5, 3.5, 9.5]

    def test_replaced_grid_survives_a_later_params_change(self):
        custom = replace(make_config(n=20, trials=50), thresholds=[1.5, 2.5])
        moved = replace(custom, params=replace(custom.params, n=30, num_sensors=2))
        assert moved.thresholds.tolist() == [1.5, 2.5]

    def test_echo_and_repr_are_unchanged(self):
        one = RunConfig(
            params=ModelParams(n=3, num_sensors=1, sigma_s2=1.0, r=0.5, sigma2=1e-4),
            master_seed=3,
            trials=50,
        )
        two = replace(one, params=replace(one.params, num_sensors=2))
        # recorded from a freshly built N = 2 config before the grid followed params
        assert json.dumps(config_to_dict(two, label="w")) == (
            '{"n": 3, "num_sensors": 2, "sigma_s2": 1.0, "r": 0.5, "noise_std": 0.01, '
            '"sigma2": 0.0001, "trials": 50, "master_seed": 3, "theory_mode": "consistent", '
            '"thresholds": [-0.5, 0.5, 1.5, 2.5, 3.5, 4.5], "label": "w"}'
        )
        assert repr(two) == (
            "RunConfig(params=ModelParams(n=3, num_sensors=2, sigma_s2=1.0, r=0.5, "
            "sigma2=0.0001), master_seed=3, trials=50, thresholds=array([-0.5,  0.5,  "
            "1.5,  2.5,  3.5,  4.5]), theory_mode=<TheoryMode.CONSISTENT: 'consistent'>)"
        )


@settings(max_examples=60, deadline=None)
@given(
    r=st.floats(-0.5, 0.5, allow_subnormal=False).filter(lambda r: r != 0),
    n=st.integers(2, 30),
    num_sensors=st.integers(1, 3),
)
def test_every_direction_reader_follows_the_sign_of_r(r, n, num_sensors):
    params = ModelParams(n=n, num_sensors=num_sensors, sigma_s2=1.0, r=r, sigma2=1e-4)
    expected = DetectorDirection.LESS_IS_H1 if r < 0 else DetectorDirection.GREATER_IS_H1
    # an upward test fires less often as the threshold rises, a downward one more
    pfa, _, _ = gaussian_rates(params, TheoryMode.CONSISTENT, [-0.5, params.pairs_total + 0.5])
    theory = DetectorDirection.GREATER_IS_H1 if pfa[0] > pfa[1] else DetectorDirection.LESS_IS_H1
    assert RunConfig(params=params, master_seed=1).direction is expected
    assert theory is expected


@pytest.mark.parametrize(
    "text",
    [
        "n = 20\nr = 0.5\n",
        "n = 12\nnum_sensors = 3\nr = -0.3\n",
        "n = 20\nnum_sensors = 2\nr = 0\n",
        "n = 20\nr = 0.5\nmode = paper\n",
    ],
)
def test_compare_theory_rows_are_the_roc_rows_of_their_mode(tmp_path, text):
    cfg = tmp_path / "join.cfg"
    cfg.write_text(text + "trials = 40\n")
    _, config = parse_config_file(cfg)
    empirical = estimate_sweep([config])[0]
    rows = _json_rows(_curve_blocks(config, empirical))
    exact = exact_h0_rates(config).tolist()
    assert all(list(row) == CURVE_HEADER.split(",") for row in rows)
    for mode in TheoryMode:
        pfa, pd, _ = gaussian_rates(config.params, mode, config.thresholds)
        columns = dict(
            eta=config.thresholds.tolist(), pfa_emp=empirical.pfa.tolist(),
            pd_emp=empirical.pd.tolist(), pfa_theory=pfa, pd_theory=pd, pfa_exact=exact,
        )
        block = [row for row in rows if row["mode"] == mode.value]
        assert [row["pfa_exact"] for row in block] == exact
        assert [
            {key: value for key, value in row.items() if key != "mode"} for row in block
        ] == [dict(zip(columns, row)) for row in zip(*columns.values())]


def test_library_calls_ignore_the_workers_env_var(monkeypatch):
    config = make_config(trials=10)
    serial = simulate_statistics(config, Hypothesis.H0, workers=1)
    monkeypatch.setenv("BITSENSE_WORKERS", "abc")
    assert np.array_equal(simulate_statistics(config, Hypothesis.H0), serial)


@pytest.mark.parametrize("workers", [0, -1])
def test_an_explicit_worker_count_below_one_runs_serially(workers):
    config = make_config(trials=200)
    serial = simulate_statistics(config, Hypothesis.H1, workers=1)
    assert np.array_equal(simulate_statistics(config, Hypothesis.H1, workers=workers), serial)
    curve, serial_curve = estimate_sweep([config], workers)[0], estimate_sweep([config], 1)[0]
    assert np.array_equal(curve.pfa, serial_curve.pfa)
    assert np.array_equal(curve.pd, serial_curve.pd)


@pytest.mark.parametrize("workers", [2.5, True, "2"])
def test_a_worker_count_that_is_not_an_int_is_refused(cpus, workers):
    cpus(4)  # with 2 CPUs the cap turned 2.5 into 2 and ran
    message = re.escape(f"workers must be None or an integer, got {workers!r}")
    with pytest.raises(ValueError, match=message):
        estimate_sweep([make_config(trials=20)], workers=workers)[0]


@pytest.mark.parametrize("value", ["0", "-2"])
def test_zero_or_negative_workers_env_var_runs_serially(tmp_path, monkeypatch, fake_pool, value):
    """The CLI passes the variable's count to the engine, which runs a count
    below 1 in this process with the serial run's bytes."""
    seen = []
    count = montecarlo._worker_count

    def spy(workers, draws):
        seen.append(workers)
        return count(workers, draws)

    monkeypatch.setattr(montecarlo, "_worker_count", spy)
    argv = ["roc", "--preset", "fig3", "--trials", "300", "--seed", "5", "--out"]
    monkeypatch.setenv("BITSENSE_WORKERS", "1")
    assert main(argv + [str(tmp_path / "serial")]) == 0
    monkeypatch.setenv("BITSENSE_WORKERS", value)
    assert main(argv + [str(tmp_path / "env")]) == 0
    assert seen == [1, int(value)]
    assert fake_pool == []
    names = sorted(path.name for path in (tmp_path / "serial").glob("*.csv"))
    assert names == ["fig3_N1.csv", "fig3_N2.csv", "fig3_N3.csv"]
    for name in names:
        assert (tmp_path / "env" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


class TestOneTaskList:
    """Serial and pooled runs share one task list; the in-process pool
    starts no processes."""

    @pytest.mark.parametrize("hypothesis", [Hypothesis.H0, Hypothesis.H1])
    def test_a_mixed_sweep_runs_one_pool_for_every_group(self, fake_pool, hypothesis):
        serial = simulate_sweep(MIXED_SWEEP, hypothesis, workers=1)
        assert fake_pool == []
        pooled = simulate_sweep(MIXED_SWEEP, hypothesis, workers=2)
        # four (seed, trials) groups, each split into two ranges
        assert fake_pool == [(2, 8)]
        assert [y.tolist() for y in pooled] == [y.tolist() for y in serial]

    @pytest.mark.parametrize("workers", [2, 5, 50])
    def test_a_tiny_run_still_uses_the_pool(self, fake_pool, cpus, workers):
        # three trials make at most three shares, one trial or more in each
        cpus(4)
        config = make_config(trials=3)
        serial = simulate_statistics(config, Hypothesis.H1, workers=1)
        pooled = simulate_statistics(config, Hypothesis.H1, workers=workers)
        assert fake_pool == [(min(workers, 3),) * 2]
        assert pooled.tolist() == serial.tolist()

    def test_an_roc_sweep_forks_once_for_both_hypotheses(self, fake_pool):
        serial = estimate_sweep(MIXED_SWEEP, workers=1)
        assert fake_pool == []
        pooled = estimate_sweep(MIXED_SWEEP, workers=2)
        # four (seed, trials) groups per hypothesis, each split into two ranges
        assert fake_pool == [(2, 16)]
        for a, b in zip(pooled, serial):
            assert a.pfa.tolist() == b.pfa.tolist() and a.pd.tolist() == b.pd.tolist()

    def test_the_fig3_preset_forks_once(self, fake_pool, cpus, monkeypatch, tmp_path):
        cpus(4)
        monkeypatch.setenv("BITSENSE_WORKERS", "2")
        argv = ["roc", "--preset", "fig3", "--trials", "300", "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        # N = 1, 2, 3 share one group per hypothesis
        assert fake_pool == [(2, 4)]

    def test_an_empty_sweep_makes_no_pool(self, fake_pool):
        assert simulate_sweep([], Hypothesis.H0, workers=2) == []
        assert fake_pool == []
