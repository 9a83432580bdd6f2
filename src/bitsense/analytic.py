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

# Positive halves (nodes ascending, then weights) of numpy's 32- and 64-point
# Gauss-Legendre rules on [-1, 1]; mirrored about 0, each is its full rule.
_LEGENDRE_HALVES = (
    ((0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
      0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
      0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
      0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816),
     (0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
      0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
      0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
      0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506)),
    ((0.02435029266342443, 0.07299312178779904, 0.12146281929612054, 0.16964442042399283,
      0.21742364374000708, 0.2646871622087674, 0.31132287199021097, 0.3572201583376681,
      0.4022701579639916, 0.4463660172534641, 0.48940314570705296, 0.5312794640198946,
      0.571895646202634, 0.6111553551723933, 0.6489654712546573, 0.6852363130542333,
      0.7198818501716109, 0.7528199072605319, 0.7839723589433414, 0.8132653151227975,
      0.8406292962525803, 0.8659993981540928, 0.8893154459951141, 0.9105221370785028,
      0.9295691721319396, 0.9464113748584028, 0.9610087996520538, 0.973326827789911,
      0.983336253884626, 0.9910133714767443, 0.9963401167719552, 0.9993050417357722),
     (0.048690957009139814, 0.04857546744150351, 0.048344762234802996, 0.04799938859645842,
      0.04754016571483042, 0.046968182816210076, 0.04628479658131447, 0.045491627927418184,
      0.044590558163756566, 0.04358372452932355, 0.04247351512365361, 0.041262563242623576,
      0.039953741132720544, 0.03855015317861564, 0.03705512854024009, 0.0354722132568823,
      0.033805161837141794, 0.032057928354851495, 0.030234657072402554, 0.028339672614259535,
      0.02637746971505491, 0.0243527025687112, 0.02227017380838297, 0.020134823153530088,
      0.017951715775697284, 0.01572603047602503, 0.01346304789671786, 0.011168139460131028,
      0.008846759826363397, 0.006504457968978502, 0.004147033260564499, 0.00178328072169414)),
)


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
    for nodes, weights in _LEGENDRE_HALVES:
        t = (mid + half * np.concatenate((np.negative(nodes[::-1]), nodes))).ravel()
        density = (0.5 * _INV_SQRT_2PI) * np.exp(-0.5 * t * t)
        rules.append((t, (half * np.concatenate((weights[::-1], weights))).ravel() * density))
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
