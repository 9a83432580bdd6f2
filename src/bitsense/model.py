"""Parameter container and validation for the one-bit sensing model.

A length-``n`` zero-mean Gaussian source with tridiagonal Toeplitz
covariance (``sigma_s2`` on the diagonal, lag-1 covariance ``r`` on the
first off-diagonals, zero elsewhere) is observed by ``num_sensors``
sensors through independent additive Gaussian noise of variance
``sigma2`` followed by a one-bit quantizer.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass


class Hypothesis(enum.Enum):
    """Noise-only (H0) versus signal-plus-noise (H1)."""

    H0 = 0
    H1 = 1


class DetectorDirection(enum.Enum):
    """Orientation of the count-threshold test.

    Positive lag-1 correlation makes consecutive bits agree more often
    than under noise alone, so large agreement counts indicate H1.
    Negative correlation reverses the test.
    """

    GREATER_IS_H1 = "greater"
    LESS_IS_H1 = "less"


def _direction_of(r: float) -> DetectorDirection:
    """The one sign-of-r rule: downward for r < 0, else the upward convention."""
    return DetectorDirection.LESS_IS_H1 if r < 0 else DetectorDirection.GREATER_IS_H1


def _require_member(value, kind: type[enum.Enum], name: str) -> None:
    """The one rule for an enum argument: raise ValueError unless ``value``
    is a member of ``kind``."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")


def _is_int(value) -> bool:
    """The one rule for a count or a seed: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _too_large(params) -> bool:
    """The one size rule: a trial's (N + 1) n float64 draws, more than its
    threshold grid holds, fit in no array where 8 (N + 1) n > sys.maxsize."""
    n, num_sensors = params.n, params.num_sensors
    return _is_int(n) and _is_int(num_sensors) and 8 * (num_sensors + 1) * n > sys.maxsize


class NonPositiveDefiniteError(ValueError):
    """A covariance that must be positive definite is not."""


@dataclass(frozen=True)
class ModelParams:
    """Full parameterization of the signal/noise/sensor model.

    Attributes
    ----------
    n : int
        Samples per sensor (>= 2; the agreement statistic needs at least
        one consecutive pair).
    num_sensors : int
        Number of sensors observing the shared source (>= 1).
    sigma_s2 : float
        Source variance (> 0, unitless power).
    r : float
        Lag-1 source covariance; may be negative or zero.
    sigma2 : float
        Noise variance per sensor sample (> 0).
    """

    n: int
    num_sensors: int
    sigma_s2: float
    r: float
    sigma2: float

    @property
    def pairs_total(self) -> int:
        """Consecutive-sample pairs counted by the statistic: (n-1)*N."""
        return (self.n - 1) * self.num_sensors

    @property
    def noise_std(self) -> float:
        return math.sqrt(self.sigma2)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(params: ModelParams) -> ValidationReport:
    """Check model invariants; failures are reported, never raised.

    Positive definiteness of the n x n source covariance is checked via
    the closed condition sigma_s2 >= 2|r|: the eigenvalues are
    sigma_s2 + 2 r cos(k pi / (n+1)), k = 1..n, all strictly positive
    under the condition for every finite n (|cos| < 1 on the grid), so
    the check is O(1) and independent of n.  An n and N so large that one
    trial's (N + 1) n draws cannot be an array (`_too_large`) are refused.
    ``r = 0`` is accepted but flagged.  With one sensor the bits are then
    iid fair coins under both hypotheses and the agreement detector is
    uninformative.  With N >= 2 sensors E[Y] is still the same under both
    hypotheses, but the shared source makes the sensors' bit rows nearly
    identical under H1, so Var(Y | H1) is about N times Var(Y | H0) and
    the test is weakly informative through the variance alone.
    """
    violations = []
    warnings = []

    if not _is_int(params.n) or params.n < 2:
        violations.append(f"n must be an integer >= 2, got {params.n!r}")
    if not _is_int(params.num_sensors) or params.num_sensors < 1:
        violations.append(
            f"num_sensors must be an integer >= 1, got {params.num_sensors!r}"
        )
    if _too_large(params):
        violations.append(
            f"8 (num_sensors + 1) n must be <= {sys.maxsize} for one trial's draws to fit "
            f"in an array, got n={params.n!r}, num_sensors={params.num_sensors!r}"
        )
    if not (params.sigma_s2 > 0 and math.isfinite(params.sigma_s2)):
        violations.append(f"sigma_s2 must be finite and > 0, got {params.sigma_s2!r}")
    if not (params.sigma2 > 0 and math.isfinite(params.sigma2)):
        violations.append(f"sigma2 must be finite and > 0, got {params.sigma2!r}")
    if not math.isfinite(params.r):
        violations.append(f"r must be finite, got {params.r!r}")
    elif params.sigma_s2 > 0 and params.sigma_s2 < 2.0 * abs(params.r):
        violations.append(
            "source covariance not positive definite: requires "
            f"sigma_s2 >= 2|r|, got sigma_s2={params.sigma_s2!r}, r={params.r!r}"
        )
    if params.r == 0 and params.num_sensors == 1:
        warnings.append(
            "r = 0: no correlation between consecutive samples; "
            "the agreement detector is uninformative (ROC on the diagonal)"
        )
    elif params.r == 0:
        warnings.append(
            "r = 0: no correlation between consecutive samples; the shared "
            "source still inflates Var(Y | H1) about N-fold, so the agreement "
            "detector is only weakly informative (same mean under H0 and H1)"
        )

    return ValidationReport(tuple(violations), tuple(warnings))


def require_valid(params: ModelParams) -> ValidationReport:
    """Raise ValueError listing every violated invariant, if any."""
    report = validate(params)
    if not report.ok:
        raise ValueError("invalid model parameters: " + "; ".join(report.violations))
    return report
