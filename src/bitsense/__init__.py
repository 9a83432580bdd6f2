"""One-bit spectrum sensing toolkit.

Correlated Gaussian source generation, one-bit quantization, the
agreement-count detection statistic for single sensors and sensor
networks, closed-form and exact performance probabilities, and a
deterministic Monte Carlo ROC engine.
"""

from .analytic import (
    AgreementProb,
    TheoryMode,
    TheoryMoments,
    agreement_prob,
    exact_h0_tail,
    gaussian_rates,
    moments,
    orthant_prob_closed,
    q_function,
)
from .curves import RocCurve
from .detector import (
    DimensionMismatchError,
    decide,
    statistic,
    sweep_thresholds,
)
from .model import (
    DetectorDirection,
    Hypothesis,
    ModelParams,
    NonPositiveDefiniteError,
    ValidationReport,
    require_valid,
    validate,
)
from .montecarlo import (
    RNG_SCHEME,
    RunConfig,
    RunManifest,
    estimate_sweep,
    exact_h0_rates,
    seed_for_trial,
    simulate_statistics,
    simulate_sweep,
)
from .signal import (
    BidiagonalFactor,
    factor_covariance,
    observe,
    quantize,
    reconstruct_covariance,
    sample_signal,
)

__version__ = "0.5.0"
