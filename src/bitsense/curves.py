"""ROC curve container: the empirical operating points of a Monte Carlo sweep."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import detector


def _read_only(values) -> np.ndarray:
    """A read-only float copy, which no later write by the caller reaches."""
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


def _equal_by_value(a, b) -> bool:
    """``==`` of a dataclass by value: its compared array fields through
    `np.array_equal`, the others through ``==``."""
    if type(a) is not type(b):
        return NotImplemented
    pairs = ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a) if f.compare)
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in pairs)


@dataclass(frozen=True)
class RocCurve:
    """Operating points (eta, pfa, pd), ordered by increasing threshold.

    ``trials_used`` is each hypothesis's trial count in the sweep the curve
    was read from.  Curves compare by value and hold read-only array copies.
    """

    eta: np.ndarray
    pfa: np.ndarray
    pd: np.ndarray
    trials_used: int = 0

    __eq__ = _equal_by_value

    def __post_init__(self):
        for name in ("eta", "pfa", "pd"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        problems = detector.threshold_violations(self.eta)
        if problems:
            raise ValueError("invalid thresholds: " + problems[0])
        if not (self.eta.shape == self.pfa.shape == self.pd.shape):
            raise ValueError("eta, pfa, pd must have equal length")

    def __len__(self) -> int:
        return len(self.eta)

    def index_nearest_pfa(self, target: float) -> int:
        """Index of the operating point whose pfa is closest to ``target``."""
        return int(np.argmin(np.abs(self.pfa - target)))
