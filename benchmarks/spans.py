"""Span recorder that times bitsense's layers from outside the package.

`installed` swaps a wrapper in for each public function listed in TRACED,
in the module namespace where its callers look it up, and puts the
originals back on exit; nothing under src/ is edited.  Each wrapped call
records one span: name, start, end, parent span and workload-pass id.
Spans are kept in flat in-memory arrays and written out once, at the end.

A layer's self time is its span's duration minus the union of the
intervals its child spans cover, so the self times of every span in a
pass add up to the duration of the pass's root spans (the `cli.main`
calls).

`simulate_statistics` calls that ask for more than one worker are
recorded as `montecarlo.pool`.  The fork pool's workers stop recording as
soon as they start, so spans inside them are never collected: their
whole time appears only as the parent's `montecarlo.pool` span
(`montecarlo.pool_s`), fork and start-up included.
"""

from __future__ import annotations

import functools
import os
import weakref
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: (module, function) pairs wrapped during a traced pass.  `model.validate`
#: is wrapped as `montecarlo.validate`, the name RunConfig looks up.
TRACED = (
    ("cli", "main"),
    ("montecarlo", "estimate_rates"),
    ("montecarlo", "exact_h0_rates"),
    ("montecarlo", "compare_theory"),
    ("montecarlo", "validate"),
    ("signal", "observe"),
    ("signal", "factor_covariance"),
    ("detector", "statistic"),
    ("analytic", "exact_h0_tail"),
    ("analytic", "gaussian_tail"),
    ("analytic", "moments"),
    ("analytic", "orthant_prob_quadrature"),
)

#: bitsense's documented worker-count variable (README, "CLI").
WORKERS_ENV = "BITSENSE_WORKERS"

SERIAL = "montecarlo.simulate_statistics"
POOL = "montecarlo.pool"
ROOT = "cli.main"


class Tracer:
    """In-memory span store; span i lives at index i of every array."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.pass_id = array("i")
        #: (pass id, counter name) -> total, for counts that are not spans.
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.current_pass = -1
        self.recording = True
        self._stack = [-1]
        ref = weakref.ref(self)
        os.register_at_fork(after_in_child=lambda: _stop(ref()))

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, counter: str, value: float) -> None:
        self.counters[self.current_pass, counter] += value

    def wrap(self, name: str, fn):
        """`fn` with one span recorded per call while recording is on."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.pass_id.append(self.current_pass)
            self.end.append(0.0)
            self._stack.append(sid)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                self._stack.pop()

        return traced

    def write_csv(self, path) -> None:
        names = self.names
        with open(path, "w") as fh:
            fh.write("span,name,start,end,parent,pass\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{names[self.name[i]]},{self.start[i]!r},{self.end[i]!r},"
                    f"{self.parent[i]},{self.pass_id[i]}\n"
                )


def _stop(tracer: Tracer | None) -> None:
    if tracer is not None:
        tracer.recording = False


def _requested_workers(workers) -> int:
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    return max(1, workers)


@contextmanager
def installed(tracer: Tracer, package):
    """Wrap every TRACED function of `package` (bitsense) for the duration.

    A listed function the package no longer has is skipped; its layer
    then reports zero calls.
    """
    montecarlo = package.montecarlo
    originals = [
        (getattr(package, mod), fn, getattr(getattr(package, mod), fn))
        for mod, fn in TRACED
        if hasattr(getattr(package, mod), fn)
    ]
    simulate = montecarlo.simulate_statistics
    serial = tracer.wrap(SERIAL, simulate)
    pooled = tracer.wrap(POOL, simulate)

    @functools.wraps(simulate)
    def simulate_statistics(config, hypothesis, workers=None):
        tracer.add("montecarlo.trials", config.trials)
        wanted = _requested_workers(workers)
        return (pooled if wanted > 1 else serial)(config, hypothesis, workers)

    try:
        for module, fn, original in originals:
            layer = module.__name__.rsplit(".", 1)[-1]
            setattr(module, fn, tracer.wrap(f"{layer}.{fn}", original))
        montecarlo.simulate_statistics = simulate_statistics
        yield tracer
    finally:
        for module, fn, original in originals:
            setattr(module, fn, original)
        montecarlo.simulate_statistics = simulate


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    `parent[i]` is the index of span i's parent, or -1 for a root.
    Children are clipped to their parent's interval before the union.
    """
    n = len(start)
    children = defaultdict(list)
    for i in range(n):
        if parent[i] >= 0:
            children[parent[i]].append(i)
    out = [end[i] - start[i] for i in range(n)]
    for p, kids in children.items():
        lo_p, hi_p = start[p], end[p]
        covered = 0.0
        reach = lo_p
        for k in sorted(kids, key=start.__getitem__):
            lo = max(start[k], reach)
            hi = min(end[k], hi_p)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[p] -= covered
    return out


def per_pass_totals(tracer: Tracer) -> dict[int, dict[str, dict[str, float]]]:
    """pass id -> span name -> {"calls", "s" (inclusive), "self_s"}."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    out: dict[int, dict[str, dict[str, float]]] = defaultdict(
        lambda: defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    )
    names = tracer.names
    for i in range(len(selfs)):
        row = out[tracer.pass_id[i]][names[tracer.name[i]]]
        row["calls"] += 1
        row["s"] += tracer.end[i] - tracer.start[i]
        row["self_s"] += selfs[i]
    return out
