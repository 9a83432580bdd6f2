"""Agreement-count statistic and the threshold decision rule.

The detector thresholds the number Y of consecutive-in-time bit
agreements, the paper's statistic; thresholds are defined on that
integer count.  The likelihood ratio is not a function of Y, so this is
not the likelihood-ratio test: at n = 4, N = 1, r = 0.5, sigma_s2 = 1
and noise std 1e-2 the sign patterns ++-- and +--- both have Y = 2, but
H1/H0 likelihood ratios 1.467 and 1.200 (see README, "Model").
"""

from __future__ import annotations

import numpy as np

from .model import DetectorDirection, ModelParams, _require_member


class DimensionMismatchError(ValueError):
    """Bit matrix does not have at least 1 sensor and 2 time samples."""


def statistic(bits) -> int:
    """Count of consecutive-in-time agreements per sensor, summed over sensors.

    Accepts an (N, n) array of {0,1} entries, or a length-n vector for a
    single sensor.  The count lies in [0, (n-1)*N].
    """
    arr = np.atleast_2d(np.asarray(bits))
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 2:
        raise DimensionMismatchError(
            f"need at least 1 sensor and 2 samples, got shape {np.asarray(bits).shape}"
        )
    if not ((arr == 0) | (arr == 1)).all():
        raise DimensionMismatchError("bit matrix entries must all be 0 or 1")
    return int(sensor_counts(arr)[-1])


def sensor_counts(bits: np.ndarray) -> np.ndarray:
    """Running `statistic` over sensors of an (..., N, n) bit array.

    Column k of the (..., N) int64 result counts the agreements of
    sensors 0..k, so it is the statistic of the first k + 1 sensors.
    Unchecked: shape and 0/1 entries are the caller's responsibility.
    """
    return np.cumsum(np.sum(bits[..., 1:] == bits[..., :-1], axis=-1), axis=-1)


def decide(y_count: int, eta: float, direction: DetectorDirection) -> int:
    """Threshold decision: 1 declares signal present.

    Upward direction fires on y_count >= eta (ties included), downward on
    y_count <= eta; any other direction raises ValueError.
    """
    _require_member(direction, DetectorDirection, "direction")
    if direction is DetectorDirection.GREATER_IS_H1:
        return int(y_count >= eta)
    return int(y_count <= eta)


def _upper_table(histogram: np.ndarray) -> np.ndarray:
    """The one rule from counts to an upper table: mass at counts >= k, per k."""
    return np.cumsum(histogram[::-1])[::-1]


def upper_counts(counts: np.ndarray, m: int) -> np.ndarray:
    """Number of counts >= k for k = 0..m+1, for integer counts in 0..m."""
    return _upper_table(np.bincount(counts, minlength=m + 2))


def firing_mass(upper: np.ndarray, thresholds, direction: DetectorDirection) -> np.ndarray:
    """Mass of the integer counts `decide` fires at, per threshold.

    ``upper[k]`` is the mass of counts >= k for k = 0..m+1, so ``upper[0]``
    is the total and ``upper[m+1]`` is 0.  The upward test fires at
    Y >= ceil(eta); the downward test fires at Y <= floor(eta), the total
    less the mass at Y >= floor(eta) + 1.  Thresholds outside [0, m+1]
    read the ends of the table.  Any other direction raises ValueError.
    """
    _require_member(direction, DetectorDirection, "direction")
    last = len(upper) - 1
    if direction is DetectorDirection.GREATER_IS_H1:
        return upper[np.clip(np.ceil(thresholds), 0, last).astype(np.intp)]
    return upper[0] - upper[np.clip(np.floor(thresholds) + 1, 0, last).astype(np.intp)]


def sweep_thresholds(params: ModelParams) -> np.ndarray:
    """Canonical threshold grid -0.5, 0.5, ..., (n-1)N + 0.5.

    Half-integers hit every achievable operating point of the integer
    statistic exactly once (ties at the threshold are unreachable), and
    the two endpoints give the degenerate (1,1) and (0,0) ROC corners.
    """
    return np.arange(params.pairs_total + 2, dtype=float) - 0.5


def threshold_violations(thresholds: np.ndarray) -> list[str]:
    """The one rule for a threshold grid: one-dimensional, non-empty,
    finite and strictly increasing.  Names the first part broken, if any."""
    if thresholds.ndim != 1:
        return [f"thresholds must be one-dimensional, got shape {thresholds.shape}"]
    if len(thresholds) == 0:
        return ["thresholds must be non-empty"]
    if not np.all(np.isfinite(thresholds)):
        return ["thresholds must be finite"]
    if not np.all(np.diff(thresholds) > 0):
        return ["thresholds must be strictly increasing"]
    return []
