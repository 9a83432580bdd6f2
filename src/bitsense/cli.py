"""Command-line front end: preset and custom ROC runs, theory tables, self-checks.

Subcommands
-----------
roc       Run the Monte Carlo engine and write per-config curve files plus
          a replayable manifest.
theory    Write the analytic table (agreement probability, both modes'
          moments, Gaussian Pfa/Pd per threshold).
validate  Run the built-in oracle suite and write a pass/fail report.

Exit codes: 0 ok, 1 check failure, 2 usage/config/IO error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from itertools import repeat
from pathlib import Path

import numpy as np

from . import analytic, detector, montecarlo
from .analytic import TheoryMode
from .curves import RocCurve
from .model import Hypothesis, ModelParams, validate
from .montecarlo import RunConfig, RunManifest

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

DEFAULT_MASTER_SEED = 123456789

#: Shared manifest note resolving the noise-level convention: config files
#: and presets specify the noise standard deviation (noise_std); the engine
#: works with its square sigma2.
NOISE_NOTE = "configs declare noise_std (standard deviation); engine uses sigma2 = noise_std**2"

CURVE_HEADER = "eta,pfa_emp,pd_emp,pfa_theory,pd_theory,pfa_exact,mode"
THEORY_HEADER = "eta,mode,pfa_theory,pd_theory,h1_variance_flag"

#: The theory table's spelling of the library's H1 variance flags.
_THEORY_FLAGS = {
    analytic.H1_VARIANCE_OK: "ok",
    analytic.H1_VARIANCE_NEGATIVE: "NEGATIVE",
    analytic.H1_VARIANCE_ZERO: "ZERO",
}

#: Named experiment presets in config-file keys: single sensor across
#: correlation levels, and a fixed correlation across network sizes.
#: Every other value comes from _CONFIG_DEFAULTS, as for a config file.
PRESETS = {
    "fig2": [dict(label=f"fig2_r{r}", n=20, r=r) for r in (0.1, 0.3, 0.5)],
    "fig3": [dict(label=f"fig3_N{N}", n=20, r=0.5, num_sensors=N) for N in (1, 2, 3)],
}


class ConfigError(Exception):
    """Bad config file, bad parameter values, or unusable output target."""


def _csv_text(header: str, blocks: list[dict], comments=()) -> str:
    """Comment lines, the header, then each block's rows in the header's column order.

    A block maps a column to a list of floats (9 significant digits, None
    as nan) or to `repeat` of a string; one format string writes a row.
    """
    lines = [*comments, header]
    for block in blocks:
        table = [
            [math.nan if x is None else x for x in v] if isinstance(v, list) else v
            for v in map(block.get, header.split(","))
        ]
        row = ",".join("%.9g" if isinstance(v, list) else "%s" for v in table)
        lines += (row % cells for cells in zip(*table))
    return "\n".join(lines) + "\n"


def _json_rows(blocks: list[dict]) -> list[dict]:
    """Each block's rows as dicts in the block's column order (see `_csv_text`)."""
    return [dict(zip(block, row)) for block in blocks for row in zip(*block.values())]


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _write(path: Path, text: str) -> dict:
    """Write ``text`` byte for byte, print ``wrote <path>``, return its manifest entry."""
    data = text.encode()
    path.write_bytes(data)
    print(f"wrote {path}")
    return {"file": path.name, "sha256": hashlib.sha256(data).hexdigest()}


def _theory_mode(text: str) -> TheoryMode:
    try:
        return TheoryMode(text)
    except ValueError:
        raise ConfigError(
            f"unknown theory mode {text!r}; choose 'paper' or 'consistent'"
        ) from None


#: Config-file keys and the converter each value's text goes through.
_CONFIG_KEYS = {
    "n": int,
    "num_sensors": int,
    "sigma_s2": float,
    "r": float,
    "noise_std": float,
    "trials": int,
    "seed": int,
    "mode": _theory_mode,
    "thresholds": lambda text: np.array([float(v) for v in text.split(",")]),
    "label": str,
}

#: Converted values of every key but n, r and label; thresholds None is
#: the canonical half-integer sweep.
_CONFIG_DEFAULTS = dict(
    num_sensors=1,
    sigma_s2=1.0,
    noise_std=1e-2,
    trials=RunConfig.trials,
    seed=DEFAULT_MASTER_SEED,
    mode=RunConfig.theory_mode,
    thresholds=None,
)


def _build(values: dict, **overrides) -> tuple[str, RunConfig]:
    """The only way user values become a labeled, checked RunConfig.

    ``values`` are converted values in config-file keys; the overrides
    that are not None go over them, and both go over _CONFIG_DEFAULTS.
    """
    given = {key: value for key, value in overrides.items() if value is not None}
    v = {**_CONFIG_DEFAULTS, **values, **given}
    label, noise_std = v["label"], v["noise_std"]
    if label in ("", ".", "..") or any(c in label for c in "/\\\0"):
        raise ConfigError(f"label must be a plain file name, got {label!r}")
    if not (noise_std > 0 and 0 < noise_std * noise_std < math.inf):
        raise ConfigError(
            f"noise_std must be > 0 with a nonzero, finite square, got {noise_std!r}"
        )
    params = ModelParams(
        n=v["n"],
        num_sensors=v["num_sensors"],
        sigma_s2=v["sigma_s2"],
        r=v["r"],
        sigma2=noise_std**2,
    )
    config = RunConfig(
        params=params,
        master_seed=v["seed"],
        trials=v["trials"],
        thresholds=v["thresholds"],
        theory_mode=v["mode"],
    )
    problems = config.violations()
    if problems:
        raise ConfigError("; ".join(problems))
    return label, config


def expand_preset(
    name: str,
    *,
    master_seed: int | None,
    trials: int | None = None,
) -> list[tuple[str, RunConfig]]:
    """Resolve a preset name into labeled RunConfigs; a None seed or trial
    count keeps the preset's default."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return [_build(entry, seed=master_seed, trials=trials) for entry in PRESETS[name]]


def _read_config_file(path) -> dict:
    """A config file's converted values in config-file keys; the label
    defaults to the file's stem."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(
                f"{path}:{lineno}: unknown key {key!r}; known keys: {sorted(_CONFIG_KEYS)}"
            )
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    for required in ("n", "r"):
        if required not in values:
            raise ConfigError(f"{path}: missing required key {required!r}")
    values.setdefault("label", Path(path).stem)
    return values


def parse_config_file(path) -> tuple[str, RunConfig]:
    """Read a flat key = value config file (# starts a comment).

    Required keys: n, r.  Optional keys with defaults: num_sensors=1,
    sigma_s2=1.0, noise_std=0.01, trials=20000, seed, mode=consistent,
    thresholds (comma list; default is the canonical half-integer sweep),
    label (default the file's stem).
    """
    return _build(_read_config_file(path))


def _curve_blocks(config: RunConfig, empirical: RocCurve) -> list[dict]:
    """The one join of the sweep's curve at ``config``'s thresholds, the Gaussian
    theory and the exact H0 rates: a block per theory mode (consistent, then
    paper) keyed in CURVE_HEADER's order, the CSV's and the JSON's alike.  A
    paper-literal H1 variance below zero leaves pd_theory None (nan in CSV).
    """
    shared = (empirical.eta.tolist(), empirical.pfa.tolist(), empirical.pd.tolist())
    exact = montecarlo.exact_h0_rates(config).tolist()
    blocks = []
    for mode in (TheoryMode.CONSISTENT, TheoryMode.PAPER_LITERAL):
        pfa, pd, _ = analytic.gaussian_rates(config.params, mode, empirical.eta)
        columns = (*shared, pfa, pd, exact, repeat(mode.value))
        blocks.append(dict(zip(CURVE_HEADER.split(","), columns)))
    return blocks


def _resolve_configs(args) -> list[tuple[str, RunConfig]]:
    """Labeled configs of a roc or theory call.

    --trials and --seed, when given, go over a preset's and a config
    file's values alike, before the one check.  Each config's model
    warnings go to stderr, never into an artifact.
    """
    if args.preset:
        labeled = expand_preset(args.preset, master_seed=args.seed, trials=args.trials)
    else:
        labeled = [_build(_read_config_file(args.config), trials=args.trials, seed=args.seed)]
    for label, config in labeled:
        for text in validate(config.params).warnings:
            print(f"warning: {label}: {text}", file=sys.stderr)
    return labeled


def _workers() -> int | None:
    """BITSENSE_WORKERS as a worker count, None if unset; read before any
    output.  `montecarlo._worker_count` caps it, as it caps every count."""
    text = os.environ.get("BITSENSE_WORKERS")
    if text is None:
        return None
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"BITSENSE_WORKERS must be an integer, got {text!r}") from None


def cmd_roc(args) -> int:
    started = time.perf_counter()
    workers = _workers()
    labeled = _resolve_configs(args)
    if args.format == "json" and any(label == "manifest" for label, _ in labeled):
        raise ConfigError("label 'manifest' would overwrite manifest.json; choose another label")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    # one draw pass per master seed and hypothesis serves every config
    curves = montecarlo.estimate_sweep([config for _, config in labeled], workers)
    outputs = []
    config_dicts = []
    for (label, config), empirical in zip(labeled, curves):
        blocks = _curve_blocks(config, empirical)
        csv = args.format == "csv"
        text = _csv_text(CURVE_HEADER, blocks) if csv else _json_text(_json_rows(blocks))
        outputs.append(_write(out_dir / f"{label}.{args.format}", text))
        config_dicts.append(montecarlo.config_to_dict(config, label=label))

    trials_total = sum(c["trials"] for c in config_dicts)
    manifest = RunManifest(
        artifact_version=montecarlo.ARTIFACT_VERSION,
        rng_scheme=montecarlo.RNG_SCHEME,
        noise_interpretation=NOISE_NOTE,
        configs=tuple(config_dicts),
        per_hypothesis_trials={"H0": trials_total, "H1": trials_total},
        wall_clock_s=round(time.perf_counter() - started, 3),
        outputs=tuple(outputs),
    )
    _write(out_dir / "manifest.json", _json_text(manifest.to_dict()))
    return EXIT_OK


def cmd_theory(args) -> int:
    labeled = _resolve_configs(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    for label, config in labeled:
        params = config.params
        agreement = analytic.agreement_prob(params)
        scalars = {"p": agreement.p, "rho": agreement.rho}
        moment_block = {}
        eta = config.thresholds.tolist()
        blocks = []
        for mode in TheoryMode:
            for hyp in Hypothesis:
                m = analytic.moments(params, hyp, mode)
                moment_block[f"{hyp.name}_{mode.value}"] = {"mean": m.mean, "variance": m.variance}
            pfa, pd, flag = analytic.gaussian_rates(params, mode, config.thresholds)
            columns = (eta, repeat(mode.value), pfa, pd, repeat(_THEORY_FLAGS[flag]))
            blocks.append(dict(zip(THEORY_HEADER.split(","), columns)))

        if args.format == "json":
            payload = {
                "params": montecarlo.config_to_dict(config, label=label),
                "scalars": scalars,
                "moments": moment_block,
                "rows": _json_rows(blocks),
            }
            text = _json_text(payload)
        else:
            comments = [f"# {name} = {value:.9g}" for name, value in scalars.items()]
            comments += [
                f"# moments {name}: mean = {m['mean']:.9g}, variance = {m['variance']:.9g}"
                for name, m in moment_block.items()
            ]
            text = _csv_text(THEORY_HEADER, blocks, comments)
        _write(out_dir / f"{label}_theory.{args.format}", text)
    return EXIT_OK


def _check(name: str, passed: bool, detail: str) -> dict:
    status = "PASS" if passed else "FAIL"
    print(f"{status} {name}: {detail}")
    return {"name": name, "passed": bool(passed), "detail": detail}


def run_validation_suite(trials: int, master_seed: int, workers: int | None) -> list[dict]:
    """Built-in oracle suite: Monte Carlo H0 on ``workers`` vs the exact
    binomial, the serial H1 mean vs the arcsine law, and a 1- vs 2-worker
    determinism replay."""
    suite = dict(label="validate", n=20, r=0.5)
    _, config = _build(suite, trials=trials, seed=master_seed)
    checks = []

    # Empirical H0 firings against the exact binomial tail q at every
    # threshold.  In one pooled sample of 5 * trials the firing count K is
    # Binomial(5 * trials, q); a threshold fails when K's exact two-sided
    # p-value is below 2*Phi(-3*sqrt(5)) ~ 1.97e-11, the level of a 3-sigma
    # band on a trials-sized run's rate.  The test is exact because at the
    # end thresholds q = 2**-19, where a normal band is narrower than one
    # firing.  `analytic._binomial_tails` is within 1e-8 (relative) of the
    # exact tails, so only a p that close to the level could flip.
    level = 2.0 * analytic.q_function(3.0 * math.sqrt(5.0))
    pooled = 5 * trials
    _, pool = _build(suite, trials=pooled, seed=master_seed)
    stats = montecarlo.simulate_statistics(pool, Hypothesis.H0, workers)
    upper = detector.upper_counts(stats, pool.params.pairs_total)
    fired = detector.firing_mass(upper, pool.thresholds, pool.direction)
    exact = montecarlo.exact_h0_rates(config)
    tables = (analytic._binomial_tails(pooled, q) for q in exact.tolist())
    tails = [min(cdf[k], sf[k]) for k, (cdf, sf) in zip(fired.tolist(), tables)]
    p = np.minimum(1.0, 2.0 * np.array(tails))
    j = int(np.argmin(p))
    checks.append(
        _check(
            "empirical-h0-vs-exact-binomial",
            bool(p[j] >= level),
            f"most binding threshold eta={config.thresholds[j]}: {fired[j]} of "
            f"{pooled} fired, exact rate {exact[j]:.3g}, two-sided binomial "
            f"p = {p[j]:.3g} (level {level:.3g}; {pooled} pooled H0 trials)",
        )
    )

    # The replay's serial H1 draws: their mean against the arcsine law's
    # (n-1)Np, two-sided at the H0 check's level (fails at |z| > 6.708).
    # The consistent variance p(1-p)(n-1)N leaves out the negative
    # correlation of adjacent agreements, so at N = 1, this config, it
    # bounds Var(Y | H1) from above and the test can only be conservative.
    y_serial = montecarlo.simulate_statistics(config, Hypothesis.H1, workers=1)
    h1 = analytic.moments(config.params, Hypothesis.H1)
    mean = float(np.mean(y_serial))
    z = (mean - h1.mean) / math.sqrt(h1.variance / trials)
    p_mean = 2.0 * analytic.q_function(abs(z))
    checks.append(
        _check(
            "h1-mean-vs-arcsine",
            p_mean >= level,
            f"mean of {trials} serial H1 trials {mean:.6g}, arcsine mean (n-1)Np "
            f"{h1.mean:.6g}: z = {z:.3g}, two-sided p = {p_mean:.3g} (level "
            f"{level:.3g}; variance p(1-p)(n-1)N = {h1.variance:.4g})",
        )
    )

    # Determinism: identical statistics serially and with two workers.
    y_parallel = montecarlo.simulate_statistics(config, Hypothesis.H1, workers=2)
    same = bool(np.array_equal(y_serial, y_parallel))
    checks.append(
        _check(
            "determinism-serial-vs-parallel",
            same,
            "H1 statistics identical for 1 and 2 workers"
            if same
            else "statistics differ between worker counts",
        )
    )
    return checks


def cmd_validate(args) -> int:
    workers = _workers()
    trials = 2000 if args.quick else 20000
    if args.trials is not None:
        trials = args.trials
    if trials < 2:
        raise ConfigError(f"--trials must be >= 2 for the 1- vs 2-worker replay, got {trials}")
    out_path = Path(args.out)
    if out_path.is_dir():
        raise ConfigError(f"--out {out_path} is a directory; give the report's file path")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    checks = run_validation_suite(trials, args.seed, workers)
    all_passed = all(c["passed"] for c in checks)
    report = {
        "all_passed": all_passed,
        "trials": trials,
        "master_seed": args.seed,
        "checks": checks,
    }
    _write(out_path, _json_text(report))
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitsense",
        description="One-bit spectrum sensing: agreement-count detector toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, func in (
        ("roc", "Monte Carlo ROC curves + manifest", cmd_roc),
        ("theory", "analytic moments and Pfa/Pd table", cmd_theory),
    ):
        p = sub.add_parser(name, help=help_text)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--preset", choices=sorted(PRESETS), help="named experiment")
        src.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--trials", type=int, default=None, help="override trial count")
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help=f"override master seed (presets default to {DEFAULT_MASTER_SEED})",
        )
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.set_defaults(func=func)

    p_val = sub.add_parser("validate", help="built-in oracle suite")
    p_val.add_argument("--out", default="validation_report.json")
    p_val.add_argument("--quick", action="store_true", help="2000-trial subset")
    p_val.add_argument("--trials", type=int, default=None)
    p_val.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a config too large for this host, e.g. a huge n
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
