"""Probability machinery for the agreement-count detector.

Covers the conditional agreement probability of consecutive one-bit
samples under H1 (in two independent evaluation paths: an arcsine closed
form and numerical quadrature of the Gaussian orthant integral), the
Q-function, theory moments of the statistic under both hypotheses, the
Gaussian-approximation ROC, and an exact binomial H0 tail that serves as
oracle for the approximations.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import detector
from .curves import RocCurve, RocSource
from .model import (
    DetectorDirection,
    Hypothesis,
    ModelParams,
    NonPositiveDefiniteError,
    _direction_of,
    _require_member,
    require_valid,
)

# Orthant quadrature: integration domain is truncated at 10 standard
# deviations (discarded tail mass < 8e-24), split into these panels, and
# the rules' error estimate must come in below this bound.
_QUAD_EDGES = (0.0, 1.0, 2.0, 5.0, 10.0)
_QUAD_MAX_ERR = 1e-9

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


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


class AgreementMethod(enum.Enum):
    CLOSED_FORM = "closed-form"
    QUADRATURE = "quadrature"


class NegativeVarianceError(ValueError):
    """The paper-literal H1 variance is negative; refused, never patched."""


@dataclass(frozen=True)
class AgreementProb:
    """P(consecutive bits agree | H1), with its normalized correlation.

    ``rho`` is r / (sigma_s2 + sigma2), the correlation of the two noisy
    analog samples whose signs are compared.
    """

    p: float
    rho: float
    method: AgreementMethod

    @property
    def p_prime(self) -> float:
        """P(second bit is 1 | first bit is 0, H1) = 1 - p."""
        return 1.0 - self.p


@dataclass(frozen=True)
class TheoryMoments:
    mean: float
    variance: float
    hypothesis: Hypothesis
    mode: TheoryMode


def _cov2_correlation(c11: float, c12: float, c22: float) -> float:
    """Correlation of a 2x2 covariance; raises unless positive definite."""
    if not (c11 > 0 and c22 > 0 and c11 * c22 - c12 * c12 > 0):
        raise NonPositiveDefiniteError(
            f"2x2 covariance [[{c11}, {c12}], [{c12}, {c22}]] is not positive definite"
        )
    return c12 / math.sqrt(c11 * c22)


def orthant_prob_closed(c11: float, c12: float, c22: float) -> float:
    """P(z1 >= 0, z2 >= 0) for a zero-mean bivariate Gaussian, closed form.

    Equal to 1/4 + arcsin(rho) / (2 pi).  Must stay cross-validated
    against :func:`orthant_prob_quadrature`, the independent evaluation
    of the same integral.
    """
    rho = _cov2_correlation(c11, c12, c22)
    return 0.25 + math.asin(rho) / (2.0 * math.pi)


@functools.lru_cache(maxsize=None)
def _orthant_rules(depth: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Nodes t and weights w * phi(t) / 2 of the 32- and 64-node composite
    rules, with [0, 1] split at 2**-1, ..., 2**-depth.  Built on first use
    and kept: building them at import would slow every start-up."""
    inner = tuple(2.0**-k for k in range(depth, 0, -1))
    edges = np.array((0.0, *inner, *_QUAD_EDGES[1:]))
    half = np.diff(edges)[:, None] / 2.0
    mid = edges[:-1, None] + half
    rules = []
    for nodes, weights in map(np.polynomial.legendre.leggauss, (32, 64)):
        t = (mid + half * nodes).ravel()
        density = (0.5 * _INV_SQRT_2PI) * np.exp(-0.5 * t * t)
        rules.append((t, (half * weights).ravel() * density))
    return tuple(rules)


def orthant_prob_quadrature(c11: float, c12: float, c22: float) -> float:
    """P(z1 >= 0, z2 >= 0) by numerical integration, to within 1e-9.

    The orthant probability is scale-invariant, so standardize and
    condition on z1 = t: z2 | z1=t is normal with mean rho*t and variance
    1 - rho^2, reducing the double integral to

        int_0^inf phi(t) * Phi(slope t) dt,  slope = rho / sqrt(1 - rho^2).

    Composite Gauss-Legendre rules of 32 and 64 nodes per panel integrate
    it on panels ending at 0, 1, 2, 5 and 10 (the truncated tail is
    < 8e-24); the 64-node sum is returned if the two differ by <= 1e-9.
    Phi(slope t) steps over a width of ~1/|slope| near 0, so for
    |slope| > 1 the panel [0, 1] is split at 2**-k for k = 1..ceil(log2
    |slope|) + 2, which keeps the value within 1e-16 of the closed form
    up to rho = 1 - 1e-12.  One ``np.dot`` per rule fixes the last bit.
    This path never touches the arcsine identity, so it is a genuine
    oracle for the closed form.
    """
    rho = _cov2_correlation(c11, c12, c22)
    slope = rho / math.sqrt((1.0 - rho) * (1.0 + rho))
    depth = math.ceil(math.log2(abs(slope))) + 2 if abs(slope) > 1.0 else 0
    coarse, value = (
        float(np.dot(weights, [math.erfc(x) for x in (t * (-slope / _SQRT2)).tolist()]))
        for t, weights in _orthant_rules(depth)
    )
    error = abs(coarse - value)
    if error > _QUAD_MAX_ERR:
        raise ArithmeticError(f"orthant quadrature did not converge: error estimate {error:.3g}")
    return value


def agreement_prob(
    params: ModelParams,
    method: AgreementMethod = AgreementMethod.CLOSED_FORM,
) -> AgreementProb:
    """Conditional agreement probability p of consecutive bits under H1.

    The two noisy samples being compared are jointly Gaussian with
    common variance sigma_s2 + sigma2 and covariance r; p is twice their
    positive-orthant probability, i.e. 1/2 + arcsin(rho)/pi in closed
    form.  ``method`` selects the evaluation path.  Raises ValueError for
    params that `model.validate` rejects and a method that is not an
    :class:`AgreementMethod`.
    """
    require_valid(params)
    _require_member(method, AgreementMethod, "method")
    c = params.sigma_s2 + params.sigma2
    if method is AgreementMethod.CLOSED_FORM:
        orthant = orthant_prob_closed(c, params.r, c)
    else:
        orthant = orthant_prob_quadrature(c, params.r, c)
    return AgreementProb(p=2.0 * orthant, rho=params.r / c, method=method)


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
        return TheoryMoments(0.5 * m, 0.25 * m, hypothesis, mode)
    p = agreement_prob(params).p
    if mode is TheoryMode.PAPER_LITERAL:
        return TheoryMoments(2.0 * p * m, 2.0 * p * (1.0 - 2.0 * p) * m, hypothesis, mode)
    return TheoryMoments(p * m, p * (1.0 - p) * m, hypothesis, mode)


def _gaussian_tails(thresholds: np.ndarray, mean: float, var: float, direction) -> list[float]:
    """`gaussian_tail` at every threshold of a float array, in order."""
    if var == 0.0:
        return [float(detector.decide(mean, eta, direction)) for eta in thresholds.tolist()]
    gap = thresholds - mean if direction is DetectorDirection.GREATER_IS_H1 else mean - thresholds
    return list(map(q_function, (gap / math.sqrt(var)).tolist()))


def gaussian_tail(eta: float, mean: float, var: float, direction: DetectorDirection) -> float:
    """P(decide H1) for a Gaussian statistic, honoring the test direction.

    A zero variance (paper-literal mode at r = 0) degenerates to a point
    mass at the mean: the tail is the detector's own decision on it.
    eta = +-inf gives 0.0 or 1.0 at a finite var.  A NaN eta or mean, a NaN
    or negative var, a var > 0 at which (eta - mean) / sqrt(var) is NaN
    (inf - inf or inf / inf), or a direction that is not a DetectorDirection
    raise ValueError.
    """
    _require_member(direction, DetectorDirection, "direction")
    for name, value in (("eta", eta), ("mean", mean)):
        if math.isnan(value):
            raise ValueError(f"{name} is NaN: the tail is undefined")
    if not var >= 0:
        raise ValueError(f"var must be >= 0, got {var!r}")
    if var > 0 and math.isnan((float(eta) - float(mean)) / math.sqrt(var)):
        raise ValueError(f"eta {eta!r}, mean {mean!r} and var {var!r}: the tail is undefined")
    return _gaussian_tails(np.array([eta], dtype=float), mean, var, direction)[0]


H1_VARIANCE_OK = "ok"
H1_VARIANCE_NEGATIVE = "negative-variance"
H1_VARIANCE_ZERO = "zero-variance"


def gaussian_rates(params: ModelParams, mode: TheoryMode, thresholds):
    """Gaussian-approximation Pfa and Pd per threshold, plus the H1 flag.

    Returns ``(pfa, pd, h1_flag)``: lists of floats in threshold order,
    with every ``pd`` entry None when the mode's H1 variance is negative,
    and ``h1_flag`` one of the ``H1_VARIANCE_*`` constants.  Each tail is
    `gaussian_tail`'s in ``RunConfig.direction``: downward for r < 0, else
    upward.  Raises ValueError for params that `model.validate` rejects
    and for a grid that breaks `detector.threshold_violations`.
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


def theory_roc(
    params: ModelParams,
    mode: TheoryMode,
    thresholds,
) -> RocCurve:
    """Gaussian-approximation ROC: Pfa and Pd at every threshold.

    Pfa = Q((eta - mean_H0)/sd_H0) and Pd = Q((eta - mean_H1)/sd_H1) for
    an upward test; for r < 0 the tails flip to lower-tail
    probabilities.  r = 0 has no defined direction; the upward
    convention is used, under which both modes reduce to the chance
    diagonal.  That is exact for one sensor only: with N >= 2 the shared
    source inflates Var(Y | H1) about N-fold, which neither mode models,
    and the empirical ROC lies above the diagonal.  Raises
    :class:`NegativeVarianceError` in paper-literal mode when p > 1/2,
    and ValueError for a grid that breaks `detector.threshold_violations`.
    """
    pfa, pd, flag = gaussian_rates(params, mode, thresholds)
    if flag == H1_VARIANCE_NEGATIVE:
        variance = moments(params, Hypothesis.H1, mode).variance
        p = agreement_prob(params).p
        raise NegativeVarianceError(
            f"H1 variance {variance:.6g} < 0 in paper-literal mode "
            f"(p = {p:.6g} > 1/2); use TheoryMode.CONSISTENT"
        )
    source = (
        RocSource.THEORY_PAPER_LITERAL
        if mode is TheoryMode.PAPER_LITERAL
        else RocSource.THEORY_CONSISTENT
    )
    return RocCurve(eta=thresholds, pfa=pfa, pd=pd, source=source, trials_used=0)


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
