"""Correlated Gaussian source, additive noise, and the one-bit quantizer.

The source covariance is tridiagonal Toeplitz, so it admits an exact
lower-bidiagonal factorization computable in O(n); sampling is then one
O(n) sparse multiply per draw instead of a dense Cholesky solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Hypothesis, ModelParams, NonPositiveDefiniteError, _require_member


@dataclass(frozen=True)
class BidiagonalFactor:
    """Lower-bidiagonal L with L @ L.T equal to the source covariance.

    ``diag`` holds d_1..d_n (> 0), ``subdiag`` holds e_1..e_{n-1}.
    """

    diag: np.ndarray
    subdiag: np.ndarray

    @property
    def n(self) -> int:
        return len(self.diag)

    def matrix(self) -> np.ndarray:
        """Dense n x n L, for audits and small-n checks."""
        L = np.diag(self.diag)
        idx = np.arange(self.n - 1)
        L[idx + 1, idx] = self.subdiag
        return L

    def apply(self, g: np.ndarray) -> np.ndarray:
        """L @ g along the last axis of ``g``, in O(n) per vector.

        Componentwise: s_1 = d_1 g_1 and s_i = e_{i-1} g_{i-1} + d_i g_i.
        """
        s = self.diag * g
        s[..., 1:] += self.subdiag * g[..., :-1]
        return s


def factor_covariance(params: ModelParams) -> BidiagonalFactor:
    """O(n) bidiagonal factorization of the tridiagonal Toeplitz covariance.

    Recurrence: d_1 = sqrt(sigma_s2), e_i = r / d_i,
    d_{i+1} = sqrt(sigma_s2 - e_i**2).  A non-positive radicand means the
    covariance is not positive definite (possible only when validation
    was bypassed, since sigma_s2 >= 2|r| keeps every radicand positive).
    """
    n = params.n
    d = np.empty(n)
    e = np.empty(n - 1)
    v = params.sigma_s2  # running radicand d_i**2
    for i in range(n):
        if v <= 0:
            raise NonPositiveDefiniteError(
                f"covariance factorization failed at index {i}: "
                f"radicand {v:.6g} <= 0 (sigma_s2={params.sigma_s2}, r={params.r})"
            )
        d[i] = np.sqrt(v)
        if i < n - 1:
            e[i] = params.r / d[i]
            v = params.sigma_s2 - e[i] ** 2
    return BidiagonalFactor(diag=d, subdiag=e)


def reconstruct_covariance(factor: BidiagonalFactor) -> np.ndarray:
    """Dense L @ L.T, for verifying the factorization against its target."""
    L = factor.matrix()
    return L @ L.T


def sample_signal(
    factor: BidiagonalFactor,
    rng: np.random.Generator,
    size: int | None = None,
) -> np.ndarray:
    """Draw source vectors s = L g with g iid standard normal.

    Each draw costs O(n).  Returns shape (n,) for ``size=None``, else
    (size, n).
    """
    n = factor.n
    shape = (n,) if size is None else (size, n)
    return factor.apply(rng.standard_normal(shape))


def quantize(x):
    """One-bit indicator of the sign: 1 for x >= 0, else 0.

    Accepts scalars or arrays; an array comes back as a uint8 view, not a copy.
    """
    bits = (np.asarray(x) >= 0).view(np.uint8)
    if bits.ndim == 0:
        return int(bits)
    return bits


def draw_width(params: ModelParams, hypothesis: Hypothesis) -> int:
    """Standard normals one measurement consumes: N·n noise, plus n source
    draws under H1; any other hypothesis raises ValueError."""
    _require_member(hypothesis, Hypothesis, "hypothesis")
    noise = params.num_sensors * params.n
    return noise + params.n if hypothesis is Hypothesis.H1 else noise


def observe_draws(
    params: ModelParams,
    hypothesis: Hypothesis,
    draws: np.ndarray,
    factor: BidiagonalFactor | None = None,
) -> np.ndarray:
    """One-bit measurement matrices from pre-drawn standard normals.

    ``draws`` has shape (..., draw_width) and each row is laid out as the
    stream is consumed: under H1 the n source draws first, then the N
    noise rows; under H0 only the noise rows.  Returns uint8 bits of
    shape (..., N, n).  Callers are expected to pass validated params;
    any other hypothesis raises ValueError.
    """
    _require_member(hypothesis, Hypothesis, "hypothesis")
    N, n = params.num_sensors, params.n
    noise = (params.noise_std * draws[..., -N * n :]).reshape(*draws.shape[:-1], N, n)
    if hypothesis is Hypothesis.H0:
        # scaled, not sign-tested: validate's canary, a -0.003 quantizer offset,
        # is 0.3 noise SDs here, which validate catches, but 0.003 SDs of raw draws
        return quantize(noise)
    if factor is None:
        factor = factor_covariance(params)
    noise += factor.apply(draws[..., :n])[..., np.newaxis, :]
    return quantize(noise)


def observe(
    params: ModelParams,
    hypothesis: Hypothesis,
    rng: np.random.Generator,
    factor: BidiagonalFactor | None = None,
) -> np.ndarray:
    """One draw of the N x n one-bit measurement matrix.

    Under H0 every bit is the quantized sign of independent noise.  Under
    H1 a single source realization is shared by all sensors, each adding
    independent noise.  The stream is consumed signal-first, then noise
    row-major; that fixed layout is what makes per-trial streams
    replayable.  Callers are expected to pass validated params.
    """
    draws = rng.standard_normal(draw_width(params, hypothesis))
    return observe_draws(params, hypothesis, draws, factor=factor)
