"""ROC curve container shared by the theory and Monte Carlo layers."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class RocSource(enum.Enum):
    EMPIRICAL = "empirical"
    THEORY_PAPER_LITERAL = "theory-paper-literal"
    THEORY_CONSISTENT = "theory-consistent"
    EXACT_H0_HYBRID = "exact-h0-hybrid"


@dataclass(frozen=True)
class RocCurve:
    """Operating points (eta, pfa, pd), ordered by increasing threshold.

    ``trials_used`` is 0 for purely analytic curves.
    """

    eta: np.ndarray
    pfa: np.ndarray
    pd: np.ndarray
    source: RocSource
    trials_used: int = 0

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "pfa", np.asarray(self.pfa, dtype=float))
        object.__setattr__(self, "pd", np.asarray(self.pd, dtype=float))
        if not (len(eta) == len(self.pfa) == len(self.pd)):
            raise ValueError("eta, pfa, pd must have equal length")
        if len(eta) >= 2 and not np.all(np.diff(eta) > 0):
            raise ValueError("thresholds must be strictly increasing")

    def __len__(self) -> int:
        return len(self.eta)

    def index_nearest_pfa(self, target: float) -> int:
        """Index of the operating point whose pfa is closest to ``target``."""
        return int(np.argmin(np.abs(self.pfa - target)))
