"""Deterministic Monte Carlo engine for empirical false-alarm/detection rates.

Every trial draws from its own counter-based random stream derived purely
from (master_seed, hypothesis, trial index), so a trial's statistic never
depends on execution order or on how trials are split across workers.
Results are bit-identical serial and parallel.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import threading
from dataclasses import dataclass, field, fields

import numpy as np

from . import analytic, detector, signal
from .analytic import TheoryMode
from .curves import RocCurve, RocSource, _equal_by_value, _read_only
from .model import (
    DetectorDirection, Hypothesis, ModelParams, _direction_of, _is_int, _require_member, validate
)

#: Stream derivation contract, recorded in every manifest.  Philox4x64-10
#: keyed by the master seed (via SeedSequence expansion to 128 bits); the
#: 256-bit counter holds the trial index in word 2 and the hypothesis tag
#: in word 3.  Philox increments only the block counter in word 0 while
#: generating, so distinct (trial, hypothesis) streams can never overlap.
#: Each trial consumes draws signal-first, then noise row-major.  So at
#: one master seed and hypothesis, a config's draws for a trial are a
#: prefix of any wider config's draws for it, whatever either's n, N or
#: r, and `_simulate` draws them once for all configs that share a seed,
#: a trial count and a hypothesis.
RNG_SCHEME = (
    "philox4x64-10; key=seedseq(master_seed).state[2]; "
    "counter=[0, 0, trial_index, hypothesis]; draws=signal,noise-rows"
)

ARTIFACT_VERSION = "0.1.0"


@dataclass(frozen=True)
class RunConfig:
    """One Monte Carlo experiment: model, trial count, seed, thresholds.

    ``thresholds`` None is the sweep grid of ``params``, and it follows
    ``params`` through ``dataclasses.replace``; a caller's grid is kept,
    as a read-only copy.  Configs compare by value.
    """

    params: ModelParams
    master_seed: int
    trials: int = 20000
    thresholds: np.ndarray | None = None
    theory_mode: TheoryMode = TheoryMode.CONSISTENT
    #: The params a default grid was built for; `replace` carries it along.
    _grid_params: ModelParams | None = field(default=None, repr=False, compare=False)

    __eq__ = _equal_by_value

    def __post_init__(self):
        built_for, thresholds = self._grid_params, self.thresholds
        if thresholds is None or (
            built_for not in (None, self.params)
            and np.array_equal(thresholds, detector.sweep_thresholds(built_for))
        ):
            thresholds = detector.sweep_thresholds(self.params)
            object.__setattr__(self, "_grid_params", self.params)
        object.__setattr__(self, "thresholds", _read_only(thresholds))

    def violations(self) -> list[str]:
        problems = list(validate(self.params).violations)
        if not _is_int(self.trials) or self.trials < 1:
            problems.append(f"trials must be an integer >= 1, got {self.trials!r}")
        problems += detector.threshold_violations(self.thresholds)
        if not _is_int(self.master_seed) or not 0 <= self.master_seed < 2**64:
            problems.append(f"master_seed must fit in 64 bits, got {self.master_seed!r}")
        if not isinstance(self.theory_mode, TheoryMode):
            problems.append(f"theory_mode must be a TheoryMode, got {self.theory_mode!r}")
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
#: chunk math makes is about this size or smaller.  An ROC sweep keeps
#: only a count histogram per config besides, so its memory is flat in the
#: trial count; the per-trial API keeps one int64 per trial per config.
CHUNK_BYTES = 256 * 1024


def _philox_key(master_seed: int) -> np.ndarray:
    return np.random.SeedSequence(master_seed).generate_state(2, np.uint64)


def seed_for_trial(
    master_seed: int, hypothesis: Hypothesis, trial_index: int
) -> np.random.Generator:
    """Independent random stream for one trial (see RNG_SCHEME).

    The mapping is pure and injective over (hypothesis, trial_index), so
    trial t produces identical draws no matter when or where it runs.  A
    hypothesis that is not a Hypothesis raises ValueError, and a
    trial_index outside [0, 2**64) OverflowError.
    """
    _require_member(hypothesis, Hypothesis, "hypothesis")
    counter = np.array([0, 0, trial_index, hypothesis.value], dtype=np.uint64)
    bitgen = np.random.Philox(counter=counter, key=_philox_key(master_seed))
    return np.random.Generator(bitgen)


class _PhiloxState(ctypes.Structure):
    """numpy's C ``philox_state``, as `_normal_fill` checks it."""

    _fields_ = [
        ("counter", ctypes.POINTER(ctypes.c_uint64 * 4)), ("key", ctypes.c_void_p),
        ("buffer_pos", ctypes.c_int), ("buffer", ctypes.c_uint64 * 4),
        ("has_uint32", ctypes.c_int), ("uinteger", ctypes.c_uint32)
    ]


def _counter_views(bitgen: np.random.Philox) -> tuple:
    """Writable views of a Philox's four counter words and its buffer_pos,
    valid while it lives, in the layout `_normal_fill` checks."""
    c = _PhiloxState.from_address(bitgen.ctypes.state_address)
    pos = ctypes.c_int.from_address(ctypes.addressof(c) + _PhiloxState.buffer_pos.offset)
    return c.counter.contents, pos


@functools.cache
def _normal_fill():
    """numpy's C ``random_standard_normal_fill``, looked up and checked once per process on
    the route `_run_sweep_trials` draws by, or RuntimeError.  A probe state set on a throwaway
    Philox through the `state` setter must read back through `_PhiloxState`, pointer-free
    fields first; reset in place by `_counter_views` (counter words 0-3, buffer_pos 4) to H1
    trial 17 of seed 0, it must fill the normals `seed_for_trial` draws (draw 83: tail)."""
    key, lib = _philox_key(0), ctypes.PyDLL(np.random._generator.__file__)
    bitgen = np.random.Philox(key=key)
    probe = {"buffer": [5, 6, 7, 8], "buffer_pos": 3, "has_uint32": 1, "uinteger": 9}
    bitgen.state = {**bitgen.state, **probe, "state": {"counter": [1, 2, 3, 4], "key": key}}
    c = _PhiloxState.from_address(bitgen.ctypes.state_address)
    read = (list(c.buffer), c.buffer_pos, c.has_uint32, c.uinteger)
    if read != tuple(probe.values()) or list(c.counter.contents) != [1, 2, 3, 4]:
        raise RuntimeError(f"numpy {np.__version__}'s Philox state is not laid out as expected")
    row, expected = np.zeros(256), seed_for_trial(0, Hypothesis.H1, 17).standard_normal(256)
    counter, pos = _counter_views(bitgen)
    counter[0], counter[1], counter[2], counter[3], pos.value = 0, 0, 17, Hypothesis.H1.value, 4
    if fill := getattr(lib, "random_standard_normal_fill", None):
        fill.restype = None  # PyDLL, which keeps the GIL, and no argtypes: a cheaper call
        fill(bitgen.ctypes.bit_generator, ctypes.c_ssize_t(256), row.ctypes)
    if not fill or not np.array_equal(row, expected):
        raise RuntimeError(f"numpy {np.__version__}: no random_standard_normal_fill as expected")
    return fill


def _run_sweep_trials(
    params: list[ModelParams],
    key: np.ndarray,
    hypothesis: Hypothesis,
    start: int,
    stop: int,
    histograms: bool = False,
) -> list[np.ndarray]:
    """Statistics of trials [start, stop) for each params[i], or with
    ``histograms`` their counts at Y = 0..m+1 (m = params[i].pairs_total).

    The key is the Philox key of the one master seed all params share.  A fresh
    Philox (counter 0, buffer_pos 4) is reset in place to each trial's stream
    (words 0 and 2 and buffer_pos, through `_counter_views`) and drawn by
    `_normal_fill`, which checks that route once per process against
    `seed_for_trial`.  A trial's normals fill one row of a chunk buffer as wide
    as the widest params (see RNG_SCHEME).  Params that differ only in N form a
    family: the same n and sigma2, and under H1 the same source.  A member's
    bits are the first N sensors of its family's widest member, so each family
    runs the source, quantizer and count once, and a member with N sensors
    reads column N - 1 of the running per-sensor counts.
    """
    h1 = hypothesis is Hypothesis.H1
    families: dict[tuple, list[int]] = {}
    for i, p in enumerate(params):
        source = (p.sigma_s2, p.r) if h1 else ()
        families.setdefault((p.n, p.sigma2, *source), []).append(i)
    passes = []
    for members in families.values():
        wide = max((params[i] for i in members), key=lambda p: p.num_sensors)
        factor = signal.factor_covariance(wide) if h1 else None
        columns = [(i, params[i].num_sensors - 1) for i in members]
        passes.append((wide, signal.draw_width(wide, hypothesis), factor, columns))
    widest = max(width for _, width, _, _ in passes)
    chunk = max(1, CHUNK_BYTES // (8 * widest))
    fill, draws = _normal_fill(), np.empty((min(chunk, stop - start), widest))
    bitgen = np.random.Philox(key=key)
    counter, pos = _counter_views(bitgen)
    counter[3] = hypothesis.value
    state, count, row = bitgen.ctypes.bit_generator, ctypes.c_ssize_t(widest), ctypes.c_void_p()
    addresses = range(draws.ctypes.data, draws.ctypes.data + draws.nbytes, 8 * widest)
    outs = [np.zeros(p.pairs_total + 2 if histograms else stop - start, np.int64) for p in params]
    for lo in range(start, stop, chunk):
        rows = draws[: min(chunk, stop - lo)]
        for t, row.value in zip(range(lo, lo + len(rows)), addresses):
            # buffer_pos 4: the first draw starts a new block, at word 0 + 1
            counter[0], counter[2], pos.value = 0, t, 4
            fill(state, count, row)
        at = slice(lo - start, lo - start + len(rows))
        for wide, width, factor, columns in passes:
            bits = signal.observe_draws(wide, hypothesis, rows[:, :width], factor=factor)
            counts = detector.sensor_counts(bits)
            for i, column in columns:
                if histograms:
                    outs[i] += np.bincount(counts[:, column], minlength=len(outs[i]))
                else:
                    outs[i][at] = counts[:, column]
    return outs


#: Normals one worker draws before another is worth forking: 10-35 ms of
#: drawing (~20 ns a normal in bulk, ~55 ns in 20-normal trials), 1-10 times
#: a fork on a 2-core Xeon: 3-4 ms in a 33 MB process, 7-10 ms in a ~100 MB
#: one (os.fork, the child's start to its first write, its exit to reaped).
DRAWS_PER_WORKER = 2**19


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _worker_count(workers: int | None, draws: int) -> int:
    """The number of workers a sweep of ``draws`` normals runs on, and the
    one cap on a count: ``workers``, or if None one per DRAWS_PER_WORKER
    normals up to the usable CPUs, kept in [1, max(2, usable CPUs)], so a
    2-worker run still splits on one CPU.  Forking is `_fork_map`'s rule.
    A ``workers`` that is neither None nor an int raises ValueError.
    """
    if workers is not None and not _is_int(workers):
        raise ValueError(f"workers must be None or an integer, got {workers!r}")
    cpus = _usable_cpus()
    if workers is None:
        workers = min(cpus, draws // DRAWS_PER_WORKER)
    return max(1, min(workers, max(2, cpus)))


def _run_share(share: list[tuple], w: int, write_fd: int, inherited: list[int]) -> None:
    """A forked child's whole life: close the ``inherited`` read ends, run
    worker w's ``share`` of tasks, pickle its result list or its exception
    into ``write_fd`` and leave through ``os._exit``, which flushes none
    of the parent's stdio buffers and runs none of its exit handlers.
    What will not pickle is sent as a RuntimeError naming it."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            result = [_run_sweep_trials(*t) for t in share]
        except BaseException as exc:
            result = exc
        try:
            data = pickle.dumps(result)
        except Exception as exc:  # a result or an exception that will not pickle
            cause = result if isinstance(result, BaseException) else exc
            data = pickle.dumps(RuntimeError(f"worker {w} failed: {cause!r}"))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _fork_map(shares: list[list[tuple]]) -> list[list[list[np.ndarray]]]:
    """`_run_sweep_trials(*task)` for every task of every share: one
    result list per share, in task order.

    This process runs share 0 and one forked child runs each other
    share, sending its results back through its own pipe, so a single
    share forks nothing.  A histogram task's result is m + 2 counts a
    config at any trial count; a per-trial task's is one int64 a trial.
    Where this process cannot fork or runs other threads, whose locks a
    forked child would inherit held and never see released, it runs
    every share itself, in order.  A child's exception is raised here.
    Every pipe not yet read is closed before the children are reaped, so
    a child blocked writing a large result gets a broken pipe and exits
    instead of hanging the wait.
    """
    local = 1 if hasattr(os, "fork") and threading.active_count() == 1 else len(shares)
    pids: list[int] = []
    unread: dict[int, int] = {}  # worker -> read end of its pipe
    try:
        for w, share in enumerate(shares[local:], 1):
            unread[w], write_fd = os.pipe()
            try:
                if (pid := os.fork()) == 0:
                    _run_share(share, w, write_fd, list(unread.values()))
                pids.append(pid)
            finally:  # the child never gets here: _run_share does not return
                os.close(write_fd)
        parts = [[_run_sweep_trials(*t) for t in share] for share in shares[:local]]
        for w, pid in enumerate(pids, 1):
            with os.fdopen(unread.pop(w), "rb") as pipe:
                data = pipe.read()
            if not data:
                raise RuntimeError(f"worker {w} (pid {pid}) exited without a result")
            result = pickle.loads(data)
            if isinstance(result, BaseException):
                raise result
            parts.append(result)
    finally:
        for fd in unread.values():
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)
    return parts


def _simulate(
    jobs: list[tuple[RunConfig, Hypothesis]], workers: int | None, histograms: bool = False
) -> list[np.ndarray]:
    """Per-trial statistics of each (config, hypothesis) job, in input order,
    or with ``histograms`` each job's counts at Y = 0..m+1.

    Jobs that share a master seed, a trial count and a hypothesis form a
    group, drawn in one pass: a trial's stream depends only on the seed,
    the hypothesis and the trial index, so each config reads its prefix
    of every trial's draws and equals a run of that config alone.  The
    call makes one share per worker, but no more than its largest group
    has trials, so every share has trials; share w holds range w of each
    group's trials, and one `_fork_map` call runs the shares.  Each job's
    statistics are its group's ranges joined in order, and its histogram
    the sum of theirs, so the result is identical for any worker count.
    `_worker_count` sets the count, at most ``max(2, usable CPUs)``, from
    ``workers`` or, if it is None, from the call's normals (each group's
    trials times its widest draw).
    """
    for config, hypothesis in jobs:
        config.require_valid()
        _require_member(hypothesis, Hypothesis, "hypothesis")
    groups: dict[tuple[int, int, Hypothesis], list[int]] = {}
    for i, (config, hypothesis) in enumerate(jobs):
        groups.setdefault((config.master_seed, config.trials, hypothesis), []).append(i)
    draws = sum(
        trials * max(signal.draw_width(jobs[i][0].params, hypothesis) for i in members)
        for (_, trials, hypothesis), members in groups.items()
    )
    workers = min(_worker_count(workers, draws), max((t for _, t, _ in groups), default=1))
    shares: list[list[tuple]] = [[] for _ in range(workers)]
    for (seed, trials, hypothesis), members in groups.items():
        params = [jobs[i][0].params for i in members]
        bounds = np.linspace(0, trials, workers + 1, dtype=int).tolist()
        key = _philox_key(seed)
        for share, a, b in zip(shares, bounds[:-1], bounds[1:]):
            share.append((params, key, hypothesis, a, b, histograms))
    parts = _fork_map(shares)
    join = sum if histograms else np.concatenate
    results: list[np.ndarray] = [None] * len(jobs)
    for g, members in enumerate(groups.values()):
        for k, i in enumerate(members):
            results[i] = join([part[g][k] for part in parts])
    return results


def simulate_sweep(
    configs: list[RunConfig], hypothesis: Hypothesis, workers: int | None = None
) -> list[np.ndarray]:
    """Per-trial statistics of each config under one hypothesis, in input
    order (see `_simulate`)."""
    return _simulate([(c, hypothesis) for c in configs], workers)


def simulate_statistics(
    config: RunConfig, hypothesis: Hypothesis, workers: int | None = None
) -> np.ndarray:
    """Per-trial detection statistics, ordered by trial index (see
    `simulate_sweep`)."""
    return simulate_sweep([config], hypothesis, workers)[0]


def estimate_sweep(
    configs: list[RunConfig], workers: int | None = None
) -> list[RocCurve]:
    """Empirical ROC of each config, in input order.

    One `_simulate` call draws both hypotheses for every config, so a
    sweep forks at most once, and reduces each to a count histogram inside
    the engine, so memory stays flat at any trial count.  Each histogram's
    upper table gives its firing rate per threshold.
    """
    jobs = [(c, h) for h in (Hypothesis.H0, Hypothesis.H1) for c in configs]
    rates = [
        detector.firing_mass(detector._upper_table(histogram), c.thresholds, c.direction)
        / c.trials
        for (c, _), histogram in zip(jobs, _simulate(jobs, workers, histograms=True))
    ]
    return [
        RocCurve(
            eta=c.thresholds,
            pfa=a,
            pd=b,
            source=RocSource.EMPIRICAL,
            trials_used=c.trials,
        )
        for c, a, b in zip(configs, rates[: len(configs)], rates[len(configs) :])
    ]


def estimate_rates(config: RunConfig, workers: int | None = None) -> RocCurve:
    """Empirical ROC from `trials` H0 trials and `trials` H1 trials.

    Both hypotheses are always simulated in one run so pfa and pd at each
    threshold come from the same config.
    """
    return estimate_sweep([config], workers)[0]


def exact_h0_rates(config: RunConfig) -> np.ndarray:
    """Exact binomial firing probability under H0 at every threshold.

    One upper tail table (`analytic._binomial_tails`) serves every
    threshold.  The upward test reads P(Y >= ceil(eta)) off it: correct
    to the last float digit up to 4096 pairs, above that within 1e-8
    (relative) wherever it exceeds 1e-290.  The downward test takes
    1 - P(Y >= floor(eta) + 1), which loses all probability below about
    1e-16 to cancellation.  Raises ValueError for a config that
    `RunConfig.require_valid` rejects.
    """
    config.require_valid()
    _, tail = analytic._binomial_tails(config.params.pairs_total, 0.5)
    return detector.firing_mass(tail, config.thresholds, config.direction)


def _require_same_grid(config: RunConfig, empirical: RocCurve) -> None:
    """Raise ValueError unless ``empirical`` was read at ``config``'s thresholds."""
    if not np.array_equal(empirical.eta, config.thresholds):
        curve, grid = (
            f"{g.size} thresholds {np.array2string(g, threshold=6, edgeitems=2)}"
            for g in (empirical.eta, config.thresholds)
        )
        raise ValueError(f"the empirical curve's {curve} are not the config's {grid}")


def exact_hybrid_curve(config: RunConfig, empirical: RocCurve) -> RocCurve:
    """Exact H0 tail paired with the empirical detection rate."""
    _require_same_grid(config, empirical)
    return RocCurve(
        eta=config.thresholds,
        pfa=exact_h0_rates(config),
        pd=empirical.pd,
        source=RocSource.EXACT_H0_HYBRID,
        trials_used=empirical.trials_used,
    )


def _joined_columns(
    config: RunConfig, empirical: RocCurve, modes: tuple[TheoryMode, ...]
) -> list[tuple[str, dict[str, list]]]:
    """Empirical, Gaussian-theory and exact H0 rates as columns, per mode.

    Returns, for each mode, its H1 variance flag and the columns in the
    CSV order, ``pd_theory`` all None where that variance is negative.
    """
    _require_same_grid(config, empirical)
    keys = ("eta", "pfa_emp", "pd_emp", "pfa_theory", "pd_theory", "pfa_exact")
    shared = (config.thresholds, empirical.pfa, empirical.pd, exact_h0_rates(config))
    eta, pfa_emp, pd_emp, exact = (a.tolist() for a in shared)
    joined = []
    for mode in modes:
        pfa, pd, flag = analytic.gaussian_rates(config.params, mode, config.thresholds)
        joined.append((flag, dict(zip(keys, (eta, pfa_emp, pd_emp, pfa, pd, exact)))))
    return joined


def compare_theory(
    config: RunConfig,
    empirical: RocCurve | None = None,
    workers: int | None = None,
) -> tuple[str, dict[str, list]]:
    """Join empirical rates, Gaussian theory, and exact H0 tails per threshold.

    Returns the configured theory mode's ``(h1_flag, columns)`` from
    `_joined_columns`, the columns in the ``roc`` CSV's order.  A negative
    paper-literal H1 variance shows as the flag with ``pd_theory`` all
    None, so the rest of the table stays usable.  ``empirical`` None runs
    `estimate_rates` on ``workers``.
    """
    config.require_valid()
    if empirical is None:
        empirical = estimate_rates(config, workers)
    return _joined_columns(config, empirical, (config.theory_mode,))[0]


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
        """The fields by name; ``json`` writes the tuples as lists."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def config_to_dict(config: RunConfig, label: str | None = None) -> dict:
    """Flat echo of a RunConfig, sufficient for bit-exact replay; a config
    that breaks `RunConfig.require_valid` raises ValueError."""
    config.require_valid()
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
