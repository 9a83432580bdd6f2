"""Probability machinery for the agreement-count detector.

Covers the conditional agreement probability of consecutive one-bit
samples under H1 (the arcsine closed form of the Gaussian orthant
integral), the Q-function, theory moments of the statistic under both
hypotheses, the Gaussian-approximation ROC, and an exact binomial H0
tail that serves as oracle for the approximations.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import detector
from .model import (
    DetectorDirection,
    Hypothesis,
    ModelParams,
    NonPositiveDefiniteError,
    _direction_of,
    _require_member,
    require_valid,
)

_SQRT2 = math.sqrt(2.0)


class TheoryMode(enum.Enum):
    """Which H1 moment formulas the Gaussian approximation uses.

    PAPER_LITERAL keeps the printed formulas mean = 2p(n-1)N and
    variance = 2p(1-2p)(n-1)N even though that variance is negative
    whenever p > 1/2.  CONSISTENT uses the independent-Bernoulli
    approximation mean = p(n-1)N, variance = p(1-p)(n-1)N, which is the
    operational default; the residual covariance between adjacent
    agreement indicators (they share a bit) is deliberately ignored and
    quantified empirically instead.
    """

    PAPER_LITERAL = "paper"
    CONSISTENT = "consistent"


@dataclass(frozen=True)
class AgreementProb:
    """P(consecutive bits agree | H1), with its normalized correlation.

    ``rho`` is r / (sigma_s2 + sigma2), the correlation of the two noisy
    analog samples whose signs are compared.
    """

    p: float
    rho: float


@dataclass(frozen=True)
class TheoryMoments:
    mean: float
    variance: float


def _cov2_correlation(c11: float, c12: float, c22: float) -> float:
    """Correlation of a 2x2 covariance; raises unless positive definite."""
    if not (c11 > 0 and c22 > 0 and c11 * c22 - c12 * c12 > 0):
        raise NonPositiveDefiniteError(
            f"2x2 covariance [[{c11}, {c12}], [{c12}, {c22}]] is not positive definite"
        )
    return c12 / math.sqrt(c11 * c22)


def orthant_prob_closed(c11: float, c12: float, c22: float) -> float:
    """P(z1 >= 0, z2 >= 0) for a zero-mean bivariate Gaussian, closed form.

    Equal to 1/4 + arcsin(rho) / (2 pi) (Sheppard).  The tests check it
    against a quadrature of the same integral that never touches the
    arcsine identity.
    """
    rho = _cov2_correlation(c11, c12, c22)
    return 0.25 + math.asin(rho) / (2.0 * math.pi)


def agreement_prob(params: ModelParams) -> AgreementProb:
    """Conditional agreement probability p of consecutive bits under H1.

    The two noisy samples being compared are jointly Gaussian with
    common variance sigma_s2 + sigma2 and covariance r; p is twice their
    positive-orthant probability, i.e. 1/2 + arcsin(rho)/pi in closed
    form.  Raises ValueError for params that `model.validate` rejects.
    """
    require_valid(params)
    c = params.sigma_s2 + params.sigma2
    return AgreementProb(p=2.0 * orthant_prob_closed(c, params.r, c), rho=params.r / c)


def q_function(x: float) -> float:
    """Standard normal upper-tail probability Q(x) = P(Z >= x).

    Evaluated as erfc(x / sqrt(2)) / 2; relative error is at the few-ulp
    level across |x| <= 8.
    """
    return 0.5 * math.erfc(x / _SQRT2)


def moments(
    params: ModelParams,
    hypothesis: Hypothesis,
    mode: TheoryMode = TheoryMode.CONSISTENT,
) -> TheoryMoments:
    """Mean and variance of the agreement count under a hypothesis.

    H0: mean (n-1)N/2 and variance (n-1)N/4 in both modes; under H0 the
    agreement indicators are iid fair coins, so these match the exact
    binomial.  H1 differs by mode (see :class:`TheoryMode`); the
    paper-literal variance goes negative for p > 1/2 and is returned
    as-is so the inconsistency stays visible.  Raises ValueError for
    params that `model.validate` rejects and for a hypothesis or mode that
    is not a member of its enum.
    """
    require_valid(params)
    _require_member(hypothesis, Hypothesis, "hypothesis")
    _require_member(mode, TheoryMode, "mode")
    m = params.pairs_total
    if hypothesis is Hypothesis.H0:
        return TheoryMoments(0.5 * m, 0.25 * m)
    p = agreement_prob(params).p
    if mode is TheoryMode.PAPER_LITERAL:
        return TheoryMoments(2.0 * p * m, 2.0 * p * (1.0 - 2.0 * p) * m)
    return TheoryMoments(p * m, p * (1.0 - p) * m)


def _gaussian_tails(thresholds: np.ndarray, mean: float, var: float, direction) -> list[float]:
    """P(decide H1) for a N(mean, var) statistic at each threshold, in order: Q of the
    standardised gap in ``direction``, or at var 0 `detector.decide` on the mean."""
    if var == 0.0:
        return [float(detector.decide(mean, eta, direction)) for eta in thresholds.tolist()]
    gap = thresholds - mean if direction is DetectorDirection.GREATER_IS_H1 else mean - thresholds
    return list(map(q_function, (gap / math.sqrt(var)).tolist()))


H1_VARIANCE_OK = "ok"
H1_VARIANCE_NEGATIVE = "negative-variance"
H1_VARIANCE_ZERO = "zero-variance"


def gaussian_rates(params: ModelParams, mode: TheoryMode, thresholds):
    """Gaussian-approximation Pfa and Pd per threshold, plus the H1 flag.

    Returns ``(pfa, pd, h1_flag)``: lists of floats in threshold order,
    with every ``pd`` entry None when the mode's H1 variance is negative,
    and ``h1_flag`` one of the ``H1_VARIANCE_*`` constants.  Each tail is
    `_gaussian_tails`' in ``RunConfig.direction``: downward for r < 0, else
    upward.  At r = 0 the consistent mode is the chance diagonal, which is
    exact for one sensor only: with N >= 2 the shared source inflates
    Var(Y | H1) about N-fold, which neither mode models.  Raises ValueError
    for params that `model.validate` rejects and for a grid that breaks
    `detector.threshold_violations`.
    """
    m0 = moments(params, Hypothesis.H0, mode)
    m1 = moments(params, Hypothesis.H1, mode)
    thresholds = np.asarray(thresholds, dtype=float)
    problems = detector.threshold_violations(thresholds)
    if problems:
        raise ValueError("invalid thresholds: " + problems[0])
    direction = _direction_of(params.r)
    pfa = _gaussian_tails(thresholds, m0.mean, m0.variance, direction)
    if m1.variance < 0:
        return pfa, [None] * len(thresholds), H1_VARIANCE_NEGATIVE
    flag = H1_VARIANCE_ZERO if m1.variance == 0 else H1_VARIANCE_OK
    return pfa, _gaussian_tails(thresholds, m1.mean, m1.variance, direction), flag


#: Fair coins up to this many trials are summed in integers, whose work
#: grows as n**2 (on a 2-core Xeon: 14 ms at 4096, 5 s at 1e5).
_EXACT_MAX = 4096


def _binomial_tails(n: int, q: float) -> tuple[np.ndarray, np.ndarray]:
    """P(X <= k) and P(X >= k) for k = 0..n+1, X ~ Binomial(n, q).

    A fair coin with n <= _EXACT_MAX sums comb(n, k) down from k = n by
    comb(n, k-1) = comb(n, k) * k / (n-k+1) in integers and rounds each
    entry once by int/int true division, which CPython rounds correctly;
    P(X <= k) = P(X >= n-k).  Otherwise the pmf, a cumulative sum of
    log((n-j)/(j+1)) plus the log odds, is normalised over the window
    |j - nq| <= d where Bernstein's bound exp(-d**2 / (2 (nq(1-q) + d/3)))
    is e**-760, so every term left out is 0 in float64; its tails are
    within 1e-8 (relative) of the exact ones wherever they exceed 1e-290,
    for n up to 1e6.  q in {0, 1} is a point mass.  Both tables lie in
    [0, 1] and are monotone, with P(X >= 0) = P(X <= n) = 1.0 and
    P(X >= n+1) = 0.0.
    """
    if q == 0.5 and n <= _EXACT_MAX:
        denominator = 1 << n
        upper = np.empty(n + 2)
        upper[n + 1] = 0.0
        coefficient, suffix = 1, 0
        for k in range(n, -1, -1):
            suffix += coefficient
            upper[k] = suffix / denominator
            coefficient = coefficient * k // (n - k + 1)
        return np.append(upper[n::-1], 1.0), upper
    if q in (0.0, 1.0):
        lo, hi, pmf = round(q * n), round(q * n) + 1, np.ones(1)
    else:
        d = 760.0 / 3.0 + math.sqrt((760.0 / 3.0) ** 2 + 1520.0 * n * q * (1.0 - q))
        lo, hi = max(0, round(n * q - d) - 1), min(n, round(n * q + d) + 1) + 1
        j = np.arange(lo, hi - 1)
        log_pmf = np.cumsum(np.log((n - j) / (j + 1.0)))
        log_pmf = np.append(0.0, log_pmf) + np.arange(hi - lo) * (math.log(q) - math.log1p(-q))
        pmf = np.exp(log_pmf - log_pmf.max())
        pmf /= pmf.sum()
    lower, upper = np.zeros(n + 2), np.zeros(n + 2)
    lower[lo : hi - 1] = np.minimum(np.cumsum(pmf[:-1]), 1.0)
    lower[hi - 1 :] = 1.0
    upper[lo + 1 : hi] = np.minimum(np.cumsum(pmf[:0:-1])[::-1], 1.0)
    upper[: lo + 1] = 1.0
    return lower, upper


def exact_h0_tail(params: ModelParams, eta: float) -> float:
    """Exact P(Y >= eta | H0) as a Binomial((n-1)N, 1/2) upper tail.

    Under H0 all bits are iid fair coins, so the (n-1)N consecutive-pair
    agreement indicators are iid Bernoulli(1/2) and the count is exactly
    binomial.  The integer count reaches a threshold eta at ceil(eta),
    read by `detector.firing_mass` as in ``montecarlo.exact_h0_rates``.
    Correct to the last float digit up to 4096 pairs, and above that
    within 1e-8 (relative) wherever it exceeds 1e-290 (`_binomial_tails`).
    eta = -inf gives 1.0 and +inf gives 0.0; a NaN eta, or params that
    `model.validate` rejects, raise ValueError.
    """
    require_valid(params)
    if math.isnan(eta):
        raise ValueError("eta is NaN: the tail has no threshold to read")
    _, table = _binomial_tails(params.pairs_total, 0.5)
    return float(detector.firing_mass(table, [eta], DetectorDirection.GREATER_IS_H1)[0])
