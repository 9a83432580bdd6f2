"""Deterministic Monte Carlo engine for empirical false-alarm/detection rates.

Every trial draws from its own counter-based random stream derived purely
from (master_seed, hypothesis, trial index), so a trial's statistic never
depends on execution order or on how trials are split across workers.
Results are bit-identical serial and parallel.
"""

from __future__ import annotations

import os
import pickle
import threading
from dataclasses import asdict, dataclass, field

import numpy as np

from . import analytic, detector, signal
from .analytic import (  # the H1_VARIANCE_* flags are also importable from here
    H1_VARIANCE_NEGATIVE,
    H1_VARIANCE_OK,
    H1_VARIANCE_ZERO,
    TheoryMode,
)
from .curves import RocCurve, RocSource
from .model import DetectorDirection, Hypothesis, ModelParams, _direction_of, validate

#: Stream derivation contract, recorded in every manifest.  Philox4x64-10
#: keyed by the master seed (via SeedSequence expansion to 128 bits); the
#: 256-bit counter holds the trial index in word 2 and the hypothesis tag
#: in word 3.  Philox increments only the block counter in word 0 while
#: generating, so distinct (trial, hypothesis) streams can never overlap.
#: Each trial consumes draws signal-first, then noise row-major.  So at
#: one master seed and hypothesis, a config's draws for a trial are a
#: prefix of any wider config's draws for it, whatever either's n, N or
#: r, and `simulate_sweep` draws them once for all configs that share a
#: seed and a trial count.
RNG_SCHEME = (
    "philox4x64-10; key=seedseq(master_seed).state[2]; "
    "counter=[0, 0, trial_index, hypothesis]; draws=signal,noise-rows"
)

#: Environment variable overriding the worker count (default: one worker
#: per DRAWS_PER_WORKER normals a call draws, up to the usable CPUs; see
#: `simulate_sweep`).
WORKERS_ENV = "BITSENSE_WORKERS"

ARTIFACT_VERSION = "0.1.0"


@dataclass(frozen=True)
class RunConfig:
    """One Monte Carlo experiment: model, trial count, seed, thresholds.

    ``thresholds`` None is the sweep grid of ``params``, and it follows
    ``params`` through ``dataclasses.replace``; a caller's grid is kept.
    """

    params: ModelParams
    master_seed: int
    trials: int = 20000
    thresholds: np.ndarray | None = None
    theory_mode: TheoryMode = TheoryMode.CONSISTENT
    #: The params a default grid was built for; `replace` carries it along.
    _grid_params: ModelParams | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        built_for = self._grid_params
        if self.thresholds is None or (
            built_for not in (None, self.params)
            and np.array_equal(self.thresholds, detector.sweep_thresholds(built_for))
        ):
            object.__setattr__(self, "thresholds", detector.sweep_thresholds(self.params))
            object.__setattr__(self, "_grid_params", self.params)
        else:
            object.__setattr__(
                self, "thresholds", np.asarray(self.thresholds, dtype=float)
            )

    def violations(self) -> list[str]:
        problems = list(validate(self.params).violations)
        if not isinstance(self.trials, int) or self.trials < 1:
            problems.append(f"trials must be an integer >= 1, got {self.trials!r}")
        if len(self.thresholds) == 0:
            problems.append("thresholds must be non-empty")
        elif not np.all(np.isfinite(self.thresholds)):
            problems.append("thresholds must be finite")
        elif len(self.thresholds) >= 2 and not np.all(np.diff(self.thresholds) > 0):
            problems.append("thresholds must be strictly increasing")
        if not isinstance(self.master_seed, int) or not 0 <= self.master_seed < 2**64:
            problems.append(f"master_seed must fit in 64 bits, got {self.master_seed!r}")
        return problems

    def require_valid(self) -> None:
        problems = self.violations()
        if problems:
            raise ValueError("invalid run config: " + "; ".join(problems))

    @property
    def direction(self) -> DetectorDirection:
        """Test direction; r = 0 falls back to the upward convention.

        At r = 0 E[Y] is the same under both hypotheses, so the sign of r
        gives no direction, but the model must still be simulatable.  With
        one sensor the ROC then sits on the diagonal.  With N >= 2 the
        shared source inflates Var(Y | H1) about N-fold, and the upward
        test sits above the diagonal.
        """
        return _direction_of(self.params.r)


#: Upper bound on the engine's per-chunk normal buffer.  Every array the
#: chunk math makes is about this size or smaller, so memory stays flat
#: at any trial count.
CHUNK_BYTES = 256 * 1024


def _philox_key(master_seed: int) -> np.ndarray:
    return np.random.SeedSequence(master_seed).generate_state(2, np.uint64)


def _trial_counter(trial_index: int, hyp_tag: int) -> list[int]:
    """Initial Philox counter words of one trial's stream (see RNG_SCHEME)."""
    return [0, 0, trial_index, hyp_tag]


def seed_for_trial(
    master_seed: int, hypothesis: Hypothesis, trial_index: int
) -> np.random.Generator:
    """Independent random stream for one trial (see RNG_SCHEME).

    The mapping is pure and injective over (hypothesis, trial_index), so
    trial t produces identical draws no matter when or where it runs.
    """
    counter = _trial_counter(trial_index, hypothesis.value)
    bitgen = np.random.Philox(counter=counter, key=_philox_key(master_seed))
    return np.random.Generator(bitgen)


def _run_sweep_trials(
    params: list[ModelParams],
    key: np.ndarray,
    hypothesis: Hypothesis,
    start: int,
    stop: int,
) -> list[np.ndarray]:
    """Statistics of trials [start, stop) for each params[i].

    The key is the Philox key of the one master seed all params share.
    One Philox is reset to each trial's fresh-stream state in turn, which
    draws exactly what `seed_for_trial` would.  A trial's normals fill
    one row of a chunk buffer as wide as the widest params; each params
    then runs the source, quantizer and count over its own prefix of the
    rows (see RNG_SCHEME).
    """
    widths = [signal.draw_width(p, hypothesis) for p in params]
    factors = [
        signal.factor_covariance(p) if hypothesis is Hypothesis.H1 else None
        for p in params
    ]
    widest = max(widths)
    chunk = max(1, CHUNK_BYTES // (8 * widest))
    draws = np.empty((min(chunk, stop - start), widest))
    bitgen = np.random.Philox(key=key)
    rng = np.random.Generator(bitgen)
    # A fresh stream's state: buffer_pos 4 means the first draw starts a
    # new block.  Python ints make the per-trial state assignment cheaper
    # than the numpy scalars it is read back as.
    state = bitgen.state
    state["state"]["key"] = key.tolist()
    state["buffer"] = state["buffer"].tolist()
    hyp_tag = hypothesis.value
    outs = [np.empty(stop - start, dtype=np.int64) for _ in params]
    for lo in range(start, stop, chunk):
        rows = draws[: min(chunk, stop - lo)]
        for t, row in enumerate(rows, lo):
            state["state"]["counter"] = _trial_counter(t, hyp_tag)
            bitgen.state = state
            rng.standard_normal(out=row)
        for p, width, factor, out in zip(params, widths, factors, outs):
            bits = signal.observe_draws(p, hypothesis, rows[:, :width], factor=factor)
            out[lo - start : lo - start + len(rows)] = detector.agreement_counts(bits)
    return outs


def _workers_from_env() -> int | None:
    """BITSENSE_WORKERS as an integer, None if unset; anything else raises."""
    text = os.environ.get(WORKERS_ENV)
    if text is None:
        return None
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{WORKERS_ENV} must be an integer, got {text!r}") from None


#: Normals one worker draws before another is worth forking: ~12 ms of
#: drawing at ~22 ns a normal, two to three times a fork's ~4-5 ms.
DRAWS_PER_WORKER = 2**19


def _default_worker_cap() -> int:
    """The most workers the default count may use: the usable CPUs, but 1
    where this process cannot fork or runs other threads, whose locks a
    forked child would inherit held and never see released."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _run_share(
    tasks: list[tuple], w: int, workers: int, write_fd: int, inherited: list[int]
) -> None:
    """A forked child's whole life: close the ``inherited`` read ends, run
    tasks w, w + workers, ..., pickle ``(ok, results or exception)`` into
    ``write_fd`` and leave through ``os._exit``, which flushes none of
    the parent's stdio buffers and runs none of its exit handlers.  What
    will not pickle is sent as a RuntimeError naming it."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            payload = (True, [_run_sweep_trials(*t) for t in tasks[w::workers]])
        except BaseException as exc:
            payload = (False, exc)
        try:
            data = pickle.dumps(payload)
        except Exception as exc:  # a result or an exception that will not pickle
            cause = exc if payload[0] else payload[1]
            data = pickle.dumps((False, RuntimeError(f"worker {w} failed: {cause!r}")))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _fork_map(tasks: list[tuple], workers: int) -> list[list[np.ndarray]]:
    """`_run_sweep_trials(*task)` for every task, in task order.

    Task j runs in process j % workers: this process runs share 0 and
    ``workers - 1`` forked children run the others, each sending its
    results back through its own pipe.  A child's exception is raised
    here.  Every pipe not yet read is closed before the children are
    reaped, so a child blocked writing a large result gets a broken
    pipe and exits instead of hanging the wait.
    """
    pids: list[int] = []
    unread: dict[int, int] = {}  # worker -> read end of its pipe
    try:
        for w in range(1, workers):
            unread[w], write_fd = os.pipe()
            try:
                if (pid := os.fork()) == 0:
                    _run_share(tasks, w, workers, write_fd, list(unread.values()))
                pids.append(pid)
            finally:  # the child never gets here: _run_share does not return
                os.close(write_fd)
        shares = [[_run_sweep_trials(*t) for t in tasks[0::workers]]]
        for w, pid in enumerate(pids, 1):
            with os.fdopen(unread.pop(w), "rb") as pipe:
                data = pipe.read()
            if not data:
                raise RuntimeError(f"worker {w} (pid {pid}) exited without a result")
            ok, result = pickle.loads(data)
            if not ok:
                raise result
            shares.append(result)
    finally:
        for fd in unread.values():
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)
    parts: list = [None] * len(tasks)
    for w, share in enumerate(shares):
        parts[w::workers] = share
    return parts


def simulate_sweep(
    configs: list[RunConfig], hypothesis: Hypothesis, workers: int | None = None
) -> list[np.ndarray]:
    """Per-trial statistics of each config, in input order.

    Configs that share a master seed and a trial count form a group,
    drawn in one pass: a trial's stream depends only on the seed, the
    hypothesis and the trial index, so each config reads its prefix of
    every trial's draws and equals a run of that config alone.  Each
    group's trials are split into ``workers`` ranges, some possibly
    empty; one task list holds every group's ranges.  One worker runs
    it in process; more run it through `_fork_map`.  Each config's
    statistics are its group's parts joined in order, so the result is
    identical for any worker count.

    ``workers`` defaults to the BITSENSE_WORKERS environment variable.
    If that is unset too, the count follows the work: one worker per
    DRAWS_PER_WORKER normals the call draws (each group's trials times
    its widest draw), at least one and at most the usable CPUs, so a
    large library call forks too; pass ``workers=1`` or set
    BITSENSE_WORKERS=1 to keep it in process.  The default is serial
    where the process cannot fork or runs other threads.  A count below
    1, from either source, is serial.
    """
    for config in configs:
        config.require_valid()
    groups: dict[tuple[int, int], list[int]] = {}
    for i, config in enumerate(configs):
        groups.setdefault((config.master_seed, config.trials), []).append(i)
    if workers is None:
        workers = _workers_from_env()
    if workers is None:
        draws = sum(
            trials * max(signal.draw_width(configs[i].params, hypothesis) for i in members)
            for (_, trials), members in groups.items()
        )
        workers = min(_default_worker_cap(), draws // DRAWS_PER_WORKER)
    workers = max(1, workers)
    tasks = []
    for (seed, trials), members in groups.items():
        params = [configs[i].params for i in members]
        bounds = np.linspace(0, trials, workers + 1, dtype=int).tolist()
        key = _philox_key(seed)
        tasks += [(params, key, hypothesis, a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    if workers == 1 or not tasks:
        parts = [_run_sweep_trials(*task) for task in tasks]
    else:
        parts = _fork_map(tasks, workers)
    results: list[np.ndarray] = [None] * len(configs)
    for g, members in enumerate(groups.values()):
        for i, *columns in zip(members, *parts[g * workers : (g + 1) * workers]):
            results[i] = np.concatenate(columns)
    return results


def simulate_statistics(
    config: RunConfig, hypothesis: Hypothesis, workers: int | None = None
) -> np.ndarray:
    """Per-trial detection statistics, ordered by trial index (see
    `simulate_sweep`)."""
    return simulate_sweep([config], hypothesis, workers)[0]


def _sweep_rates(
    configs: list[RunConfig], hypothesis: Hypothesis, workers: int | None
) -> list[np.ndarray]:
    """Each config's firing rate per threshold under one hypothesis."""
    return [
        detector.firing_mass(
            detector.upper_counts(y, c.params.pairs_total), c.thresholds, c.direction
        )
        / len(y)
        for c, y in zip(configs, simulate_sweep(configs, hypothesis, workers))
    ]


def estimate_sweep(
    configs: list[RunConfig], workers: int | None = None
) -> list[RocCurve]:
    """Empirical ROC of each config, in input order (see `simulate_sweep`).

    Each hypothesis's statistics are reduced to rates before the next
    hypothesis is drawn, so only one hypothesis's statistics are held.
    """
    pfa = _sweep_rates(configs, Hypothesis.H0, workers)
    pd = _sweep_rates(configs, Hypothesis.H1, workers)
    return [
        RocCurve(
            eta=c.thresholds,
            pfa=a,
            pd=b,
            source=RocSource.EMPIRICAL,
            trials_used=c.trials,
        )
        for c, a, b in zip(configs, pfa, pd)
    ]


def estimate_rates(config: RunConfig, workers: int | None = None) -> RocCurve:
    """Empirical ROC from `trials` H0 trials and `trials` H1 trials.

    Both hypotheses are always simulated in one run so pfa and pd at each
    threshold come from the same config.
    """
    return estimate_sweep([config], workers)[0]


def exact_h0_rates(config: RunConfig) -> np.ndarray:
    """Exact binomial firing probability under H0 at every threshold.

    One exact tail table serves every threshold.  The upward test reads
    P(Y >= ceil(eta)) straight off it, correct to the last float digit.
    The downward test takes 1 - P(Y >= floor(eta) + 1), which loses all
    probability below about 1e-16 to cancellation: small lower-tail
    values lose digits or flush to 0.
    """
    tail = analytic._exact_h0_tail_table(config.params.pairs_total)
    return detector.firing_mass(tail, config.thresholds, config.direction)


def exact_hybrid_curve(config: RunConfig, empirical: RocCurve) -> RocCurve:
    """Exact H0 tail paired with the empirical detection rate."""
    return RocCurve(
        eta=config.thresholds,
        pfa=exact_h0_rates(config),
        pd=empirical.pd,
        source=RocSource.EXACT_H0_HYBRID,
        trials_used=empirical.trials_used,
    )


def _joined_rows(
    config: RunConfig, empirical: RocCurve, mode: TheoryMode, exact: np.ndarray
) -> tuple[str, list[dict]]:
    """Empirical, Gaussian-theory and exact H0 rates, one row per threshold.

    Returns the mode's H1 variance flag and rows keyed in the CSV column
    order, ``pd_theory`` None where that variance is negative.  ``exact``
    is ``exact_h0_rates(config)``, so a join over both modes computes it once.
    """
    pfa, pd, flag = analytic.gaussian_rates(config.params, mode, config.thresholds)
    keys = ("eta", "pfa_emp", "pd_emp", "pfa_theory", "pd_theory", "pfa_exact")
    columns = zip(
        config.thresholds.tolist(), empirical.pfa.tolist(), empirical.pd.tolist(),
        pfa, pd, exact.tolist(),
    )
    return flag, [dict(zip(keys, row)) for row in columns]


@dataclass(frozen=True)
class ComparisonRow:
    """One threshold's empirical, Gaussian-theory, and exact-oracle rates.

    ``pd_theory`` is None when the configured mode's H1 variance is
    negative; ``h1_flag`` states why.  The ``dev_*`` fields are the
    per-cell absolute deviations.
    """

    eta: float
    pfa_emp: float
    pfa_theory: float
    pfa_exact: float
    pd_emp: float
    pd_theory: float | None
    h1_flag: str = H1_VARIANCE_OK

    @property
    def dev_pfa_emp_exact(self) -> float:
        return abs(self.pfa_emp - self.pfa_exact)

    @property
    def dev_pfa_theory_exact(self) -> float:
        return abs(self.pfa_theory - self.pfa_exact)

    @property
    def dev_pd_emp_theory(self) -> float | None:
        if self.pd_theory is None:
            return None
        return abs(self.pd_emp - self.pd_theory)


@dataclass(frozen=True)
class TheoryComparison:
    config: RunConfig
    agreement_p: float
    rows: tuple[ComparisonRow, ...]


def compare_theory(
    config: RunConfig,
    empirical: RocCurve | None = None,
    workers: int | None = None,
) -> TheoryComparison:
    """Join empirical rates, Gaussian theory, and exact H0 tails per threshold.

    The H0 theory column is mode-independent.  For the H1 column the
    configured theory mode applies; a negative paper-literal variance is
    surfaced as a per-row flag rather than an exception so the rest of
    the table stays usable.
    """
    config.require_valid()
    if empirical is None:
        empirical = estimate_rates(config, workers)
    flag, rows = _joined_rows(config, empirical, config.theory_mode, exact_h0_rates(config))
    rows = tuple(ComparisonRow(**row, h1_flag=flag) for row in rows)
    p = analytic.agreement_prob(config.params).p
    return TheoryComparison(config=config, agreement_p=p, rows=rows)


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to replay a run bit-exactly, plus audit context."""

    artifact_version: str
    rng_scheme: str
    noise_interpretation: str
    configs: tuple[dict, ...]
    per_hypothesis_trials: dict
    wall_clock_s: float
    outputs: tuple[dict, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return asdict(self)


def config_to_dict(config: RunConfig, label: str | None = None) -> dict:
    """Flat echo of a RunConfig, sufficient for bit-exact replay."""
    d = {
        "n": config.params.n,
        "num_sensors": config.params.num_sensors,
        "sigma_s2": config.params.sigma_s2,
        "r": config.params.r,
        "noise_std": config.params.noise_std,
        "sigma2": config.params.sigma2,
        "trials": config.trials,
        "master_seed": config.master_seed,
        "theory_mode": config.theory_mode.value,
        "thresholds": config.thresholds.tolist(),
    }
    if label is not None:
        d["label"] = label
    return d
