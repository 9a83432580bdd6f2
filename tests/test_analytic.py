import dataclasses
import functools
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from bitsense.analytic import (
    H1_VARIANCE_NEGATIVE,
    H1_VARIANCE_OK,
    H1_VARIANCE_ZERO,
    _EXACT_MAX,
    _SQRT2,
    _binomial_tails,
    _cov2_correlation,
    TheoryMode,
    agreement_prob,
    exact_h0_tail,
    gaussian_rates,
    moments,
    orthant_prob_closed,
    q_function,
)
from bitsense.curves import RocCurve, RocSource
from bitsense.detector import decide, firing_mass, sweep_thresholds
from bitsense.model import DetectorDirection, Hypothesis, ModelParams, NonPositiveDefiniteError
from bitsense.montecarlo import (
    RunConfig,
    config_to_dict,
    exact_h0_rates,
    seed_for_trial,
    simulate_statistics,
)
from bitsense.signal import draw_width, observe, observe_draws


def make_params(n=20, num_sensors=1, sigma_s2=1.0, r=0.5, sigma2=1e-4):
    return ModelParams(n=n, num_sensors=num_sensors, sigma_s2=sigma_s2, r=r, sigma2=sigma2)


# The arcsine law's oracle: a composite Gauss-Legendre quadrature of the
# Gaussian orthant integral that never touches the arcsine identity.  Its
# integration domain is truncated at 10 standard deviations (discarded
# tail mass < 8e-24), split into these panels, and the rules' error
# estimate must come in below this bound.
_QUAD_EDGES = (0.0, 1.0, 2.0, 5.0, 10.0)
_QUAD_MAX_ERR = 1e-9

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


# Frozen oracle values.  The orthant value is the quadrature evaluation of
# the bivariate normal positive quadrant for covariance
# [[1.0001, 0.5], [0.5, 1.0001]] (cross-checked below against a plain 2-D
# Simpson rule); the agreement probability is twice it.
ORTHANT_PRESET = 0.3333241456
P_PRESET = 0.6666482912
Q_AT_ONE = 0.15865525393145707


def orthant_simpson(c11, c12, c22, m=801):
    """Plain 2-D composite Simpson over the truncated quadrant.

    Third, fully independent evaluation path used to sanity-check the
    quadrature oracle itself at moderate correlations.
    """
    s1, s2 = math.sqrt(c11), math.sqrt(c22)
    det = c11 * c22 - c12 * c12
    x = np.linspace(0.0, 10.0 * s1, m)
    y = np.linspace(0.0, 10.0 * s2, m)
    X, Y = np.meshgrid(x, y, indexing="ij")
    density = np.exp(-0.5 * (c22 * X * X - 2 * c12 * X * Y + c11 * Y * Y) / det)
    density /= 2.0 * math.pi * math.sqrt(det)
    w = np.ones(m)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((np.outer(w, w) * density).sum() * (x[1] - x[0]) * (y[1] - y[0]) / 9.0)


def normal_cdf_series(x):
    """Taylor-series standard normal CDF, independent of erf/erfc.

    Phi(x) = 1/2 + phi(x) * sum_k x^(2k+1) / (1*3*...*(2k+1)); adequate
    for moderate |x| where no tail cancellation occurs.
    """
    term = x
    total = 0.0
    k = 0
    while abs(term) > 1e-18:
        total += term
        k += 1
        term *= x * x / (2 * k + 1)
        if k > 500:
            raise RuntimeError("series did not converge")
    return 0.5 + math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi) * total


class TestOrthant:
    def test_independent_components(self):
        assert orthant_prob_closed(1.0, 0.0, 1.0) == 0.25
        assert abs(orthant_prob_quadrature(1.0, 0.0, 1.0) - 0.25) <= 1e-9

    def test_half_correlation_is_exactly_one_third(self):
        # arcsin(1/2) = pi/6, so the orthant is 1/4 + 1/12 = 1/3
        assert orthant_prob_closed(1.0, 0.5, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_preset_covariance(self):
        value = orthant_prob_quadrature(1.0001, 0.5, 1.0001)
        assert value == pytest.approx(ORTHANT_PRESET, abs=1e-8)

    def test_comonotone_limit(self):
        value = orthant_prob_quadrature(1.0, 0.99999, 1.0)
        assert abs(value - 0.5) <= 2e-3

    def test_quadrature_against_simpson(self):
        for cov in [(1.0001, 0.5, 1.0001), (1.0, -0.45, 1.0), (2.0, 0.98, 2.0)]:
            assert orthant_prob_quadrature(*cov) == pytest.approx(
                orthant_simpson(*cov), abs=1e-8
            )

    def test_closed_vs_quadrature_grid(self):
        # +-0.999 and +-(1 - 1e-12) need the panels split toward 0
        near_one = (0.999, 1.0 - 1e-12)
        for rho in (-0.49, -0.25, 0.0, 0.1, 0.25, 0.49, *near_one, *(-x for x in near_one)):
            for sigma2 in (1e-4, 1e-2, 1.0):
                c = 1.0 + sigma2
                closed = orthant_prob_closed(c, rho * c, c)
                quad = orthant_prob_quadrature(c, rho * c, c)
                assert abs(closed - quad) <= 1e-12, rho

    def test_not_positive_definite(self):
        with pytest.raises(NonPositiveDefiniteError):
            orthant_prob_quadrature(1.0, 1.1, 1.0)
        with pytest.raises(NonPositiveDefiniteError):
            orthant_prob_closed(1.0, 1.0, 1.0)
        with pytest.raises(NonPositiveDefiniteError):
            orthant_prob_closed(-1.0, 0.0, 1.0)


def stored_legendre_rules():
    """The full rules `_orthant_rules` builds from the stored halves."""
    for nodes, weights in _LEGENDRE_HALVES:
        full_nodes = np.concatenate((np.negative(nodes[::-1]), nodes))
        yield full_nodes, np.concatenate((weights[::-1], weights))


def test_the_stored_legendre_rules_are_symmetric_32_and_64_point_rules():
    assert [len(nodes) for nodes, _ in stored_legendre_rules()] == [32, 64]
    for nodes, weights in stored_legendre_rules():
        assert len(weights) == len(nodes)
        assert np.all(np.diff(nodes) > 0) and -1.0 < nodes[0] and nodes[-1] < 1.0
        assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
        assert np.all(weights > 0)


def test_the_stored_legendre_rules_are_numpys_leggauss():
    # not to the bit: leggauss solves an eigenproblem through the LAPACK
    # build, and another root path moved weights by up to ~900 ulps
    for nodes, weights in stored_legendre_rules():
        want_nodes, want_weights = np.polynomial.legendre.leggauss(len(nodes))
        np.testing.assert_allclose(nodes, want_nodes, rtol=1e-12, atol=0)
        np.testing.assert_allclose(weights, want_weights, rtol=1e-12, atol=0)


def test_the_stored_legendre_rules_integrate_every_monomial_they_should():
    # a d-point Gauss rule is exact for every polynomial of degree <= 2d - 1
    for nodes, weights in stored_legendre_rules():
        for k in range(2 * len(nodes)):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(float(np.dot(weights, nodes**k)) - exact) <= 1e-14, (len(nodes), k)


def test_the_quadrature_does_not_call_leggauss(monkeypatch):
    def refuse(degree):
        raise AssertionError(f"leggauss({degree}) called")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    _orthant_rules.cache_clear()
    quad = orthant_prob_quadrature(1.0, 0.999, 1.0)
    assert abs(quad - orthant_prob_closed(1.0, 0.999, 1.0)) <= 1e-12


class TestAgreementProb:
    def test_uncorrelated_pair_is_fair(self):
        result = agreement_prob(make_params(r=0.0))
        assert result.p == 0.5
        assert result.rho == 0.0

    def test_preset_value_and_rho(self):
        result = agreement_prob(make_params())
        assert result.rho == pytest.approx(0.5 / 1.0001, abs=1e-12)
        assert result.p == pytest.approx(P_PRESET, abs=1e-6)

    def test_reads_params_alone_and_holds_p_and_rho(self):
        result = agreement_prob(make_params())
        assert [field.name for field in dataclasses.fields(result)] == ["p", "rho"]
        with pytest.raises(TypeError):
            agreement_prob(make_params(), "closed-form")

    def test_perfect_correlation_limit(self):
        # rho -> 1- drives the agreement probability to 1
        assert 2.0 * orthant_prob_closed(1.0, 1.0 - 1e-9, 1.0) > 1.0 - 1e-4

    @settings(max_examples=80)
    @given(
        sigma_s2=st.floats(0.1, 10.0),
        ratio=st.floats(1e-6, 1.0),
        sigma2=st.floats(1e-6, 10.0),
    )
    def test_sign_symmetry(self, sigma_s2, ratio, sigma2):
        r = ratio * sigma_s2 / 2.0
        plus = agreement_prob(make_params(sigma_s2=sigma_s2, r=r, sigma2=sigma2)).p
        minus = agreement_prob(make_params(sigma_s2=sigma_s2, r=-r, sigma2=sigma2)).p
        assert plus + minus == pytest.approx(1.0, abs=1e-12)
        assert plus > 0.5 > minus

    def test_strictly_increasing_in_r(self):
        grid = np.linspace(-0.5, 0.5, 21)
        values = [agreement_prob(make_params(r=r)).p for r in grid]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestQFunction:
    def test_center(self):
        assert q_function(0.0) == 0.5

    def test_far_tail(self):
        assert q_function(8.0) < 1e-15

    def test_unit_value_against_series_oracle(self):
        oracle = 1.0 - normal_cdf_series(1.0)
        assert q_function(1.0) == pytest.approx(oracle, rel=1e-13)
        assert q_function(1.0) == pytest.approx(Q_AT_ONE, rel=1e-12)

    def test_series_oracle_on_a_grid(self):
        for x in (-2.5, -1.0, -0.3, 0.7, 1.5, 3.0):
            assert q_function(x) == pytest.approx(1.0 - normal_cdf_series(x), rel=1e-12)

    @given(st.floats(-8.0, 8.0))
    def test_complement_identity(self, x):
        assert q_function(x) + q_function(-x) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_decreasing(self):
        xs = np.linspace(-8, 8, 100)
        qs = [q_function(x) for x in xs]
        assert all(a > b for a, b in zip(qs, qs[1:]))


def binomial_moments(m):
    """Mean/variance of Binomial(m, 1/2) from the pmf, exact arithmetic."""
    pmf = [Fraction(math.comb(m, k), 2**m) for k in range(m + 1)]
    mean = sum(k * w for k, w in enumerate(pmf))
    var = sum((k - mean) ** 2 * w for k, w in enumerate(pmf))
    return float(mean), float(var)


class TestMoments:
    def test_h0_single_sensor(self):
        m = moments(make_params(), Hypothesis.H0)
        assert (m.mean, m.variance) == (9.5, 4.75)

    def test_h0_three_sensors(self):
        m = moments(make_params(num_sensors=3), Hypothesis.H0)
        assert (m.mean, m.variance) == (28.5, 14.25)

    def test_h0_matches_exact_binomial_for_all_sizes(self):
        for n in (2, 3, 5, 20):
            for num_sensors in (1, 2, 3):
                params = make_params(n=n, num_sensors=num_sensors)
                m = moments(params, Hypothesis.H0)
                exact_mean, exact_var = binomial_moments(params.pairs_total)
                assert m.mean == pytest.approx(exact_mean, abs=1e-12)
                assert m.variance == pytest.approx(exact_var, abs=1e-12)

    def test_h0_is_mode_independent(self):
        for mode in TheoryMode:
            m = moments(make_params(), Hypothesis.H0, mode)
            assert (m.mean, m.variance) == (9.5, 4.75)

    def test_h1_consistent(self):
        m = moments(make_params(), Hypothesis.H1, TheoryMode.CONSISTENT)
        assert m.mean == pytest.approx(P_PRESET * 19, abs=1e-4)
        assert m.variance == pytest.approx(P_PRESET * (1 - P_PRESET) * 19, abs=1e-4)
        assert m.mean == pytest.approx(12.666, abs=1e-3)
        assert m.variance == pytest.approx(4.222, abs=1e-3)

    def test_h1_paper_literal_keeps_negative_variance(self):
        m = moments(make_params(), Hypothesis.H1, TheoryMode.PAPER_LITERAL)
        assert m.mean == pytest.approx(2 * P_PRESET * 19, abs=1e-4)
        assert m.variance < 0

    def test_h1_paper_literal_positive_for_negative_r(self):
        m = moments(make_params(r=-0.3), Hypothesis.H1, TheoryMode.PAPER_LITERAL)
        assert m.variance > 0

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            moments(make_params(), Hypothesis.H1, "paper")


class TestTheoryRoc:
    def test_pfa_half_at_h0_mean(self):
        pfa, _, _ = gaussian_rates(make_params(), TheoryMode.CONSISTENT, [9.5])
        assert pfa[0] == 0.5

    def test_pd_half_at_h1_mean(self):
        params = make_params()
        mean = moments(params, Hypothesis.H1, TheoryMode.CONSISTENT).mean
        _, pd, _ = gaussian_rates(params, TheoryMode.CONSISTENT, [mean])
        assert pd[0] == 0.5

    def test_a_model_that_validate_rejects_is_refused(self):
        # sigma_s2 < 2|r|: the source covariance is not positive definite
        with pytest.raises(ValueError, match="not positive definite"):
            gaussian_rates(make_params(r=0.6), TheoryMode.CONSISTENT, [9.5, 12.5])

    def test_paper_literal_refuses_negative_variance(self):
        _, pd, flag = gaussian_rates(make_params(), TheoryMode.PAPER_LITERAL, [9.5])
        assert flag == H1_VARIANCE_NEGATIVE
        assert pd == [None]

    def test_paper_literal_works_for_negative_r(self):
        # p < 1/2 keeps the printed variance positive; tails flip downward
        pfa, _, flag = gaussian_rates(make_params(r=-0.3), TheoryMode.PAPER_LITERAL, [9.5])
        assert flag == H1_VARIANCE_OK
        assert pfa[0] == pytest.approx(0.5)

    def test_reverse_direction_flips_tail_orientation(self):
        params = make_params(r=-0.3)
        thresholds = [5.0, 9.5, 14.0]
        pfa, _, _ = gaussian_rates(params, TheoryMode.CONSISTENT, thresholds)
        assert np.all(np.diff(pfa) > 0)  # lower-tail: grows with eta

    def test_zero_correlation_consistent_is_diagonal(self):
        params = make_params(r=0.0)
        pfa, pd, _ = gaussian_rates(params, TheoryMode.CONSISTENT, [3.0, 9.5, 16.0])
        assert pd == pytest.approx(pfa)

    def test_zero_correlation_paper_literal_is_degenerate_step(self):
        # paper-literal H1 variance is exactly 0 at r = 0: point mass at (n-1)N
        params = make_params(r=0.0)
        _, pd, flag = gaussian_rates(params, TheoryMode.PAPER_LITERAL, [9.5, 18.9, 19.1])
        assert flag == H1_VARIANCE_ZERO
        assert pd == [1.0, 1.0, 0.0]


class TestExactH0Tail:
    def test_lower_extreme(self):
        assert exact_h0_tail(make_params(), 0) == 1.0

    def test_spot_value(self):
        # sum_{k=14}^{19} C(19, k) = 16664 over 2^19
        params = make_params()
        assert exact_h0_tail(params, 14) == 16664 / 524288
        assert exact_h0_tail(params, 14) == pytest.approx(0.031784, abs=1e-6)

    def test_median_symmetry(self):
        # Bin(19, 1/2) is symmetric about 9.5: P(Y >= 10) is exactly 1/2
        assert exact_h0_tail(make_params(), 10) == 0.5

    def test_upper_extreme(self):
        params = make_params()
        assert exact_h0_tail(params, 19) == 1 / 524288
        assert exact_h0_tail(params, 20) == 0.0

    @settings(max_examples=40)
    @given(n=st.integers(2, 12), num_sensors=st.integers(1, 3))
    def test_monotone_from_one_to_zero(self, n, num_sensors):
        params = make_params(n=n, num_sensors=num_sensors)
        m = params.pairs_total
        tails = [exact_h0_tail(params, eta) for eta in range(0, m + 2)]
        assert tails[0] == 1.0
        assert tails[-1] == 0.0
        assert all(a >= b for a, b in zip(tails, tails[1:]))

    def test_matches_fraction_oracle(self):
        params = make_params(n=6, num_sensors=2)  # m = 10
        m = params.pairs_total
        for eta in range(m + 2):
            oracle = Fraction(sum(math.comb(m, k) for k in range(eta, m + 1)), 2**m)
            assert exact_h0_tail(params, eta) == float(oracle)

    def test_bit_identical_to_pascal_reference_for_every_m_up_to_600(self):
        # Pascal's rule by addition shares nothing with the multiplicative
        # recurrence; the reference rounds through Fraction.  The full
        # table is checked at every m; exact_h0_tail, which builds a table
        # per call, at every eta for small m and at the edges beyond.
        row = [1]
        for m in range(1, 601):
            row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
            suffix = list(itertools.accumulate(reversed(row)))[::-1] + [0]
            expected = [float(Fraction(s, 2**m)) for s in suffix]
            assert _binomial_tails(m, 0.5)[1].tolist() == expected, m
            params = make_params(n=m + 1)
            etas = range(m + 2) if m <= 40 else (1, 2, m // 2, m - 1, m)
            for eta in etas:
                assert exact_h0_tail(params, eta) == expected[eta], (m, eta)
            assert exact_h0_tail(params, -1) == 1.0
            assert exact_h0_tail(params, m + 5) == 0.0

    def test_nan_threshold_is_an_error(self):
        with pytest.raises(ValueError):
            exact_h0_tail(make_params(), float("nan"))

    def test_infinite_thresholds_read_the_ends_of_the_table(self):
        assert exact_h0_tail(make_params(), -math.inf) == 1.0
        assert exact_h0_tail(make_params(), math.inf) == 0.0


@pytest.mark.parametrize("n", [200, 10_000, 100_000])
def test_binomial_tails_match_scipy(n):
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(n)
    qs = [0.0, 2.0**-19, 0.5, 0.9, 1.0 - 2.0**-19, 1.0, *rng.random(4).tolist()]
    for q in qs:
        spread = math.sqrt(n * q * (1.0 - q))
        ks = np.unique(np.clip(np.rint(n * q + spread * np.arange(-40, 41, 4)), 0, n))
        ks = np.union1d(ks, [0, 1, n - 1, n]).astype(np.int64)
        lower, upper = (table[ks] for table in _binomial_tails(n, q))
        for mine, exact in (
            (lower, special.bdtr(ks, n, q)),
            (upper, special.bdtrc(ks - 1, n, q)),
        ):
            big = exact > 1e-290
            assert np.all(np.abs(mine[big] - exact[big]) <= 1e-8 * exact[big]), q
            assert np.all(mine[~big] <= 1e-290), q


@pytest.mark.parametrize("n", [5000, 30_000])
def test_fair_coin_tails_above_the_exact_cutoff_are_within_1e_9_of_big_ints(n):
    # The reference steps comb(n, k) upward and sums prefixes, the other
    # way round from the exact path, and rounds each entry once.
    assert n > _EXACT_MAX
    total, prefix, coefficient = 2**n, 0, 1
    lower_exact, upper_exact = [], [1.0]
    for k in range(n + 1):
        prefix += coefficient
        lower_exact.append(prefix / total)
        upper_exact.append((total - prefix) / total)
        coefficient = coefficient * (n - k) // (k + 1)
    lower, upper = _binomial_tails(n, 0.5)
    for mine, exact in ((lower, np.append(lower_exact, 1.0)), (upper, np.array(upper_exact))):
        big = exact > 1e-290
        assert np.all(np.abs(mine[big] - exact[big]) <= 1e-9 * exact[big])
        assert np.all(mine[~big] <= 1e-290)


@pytest.mark.parametrize(
    "n, q",
    [
        (200, 0.5), (4096, 0.5), (4097, 0.5), (100_000, 0.5), (5000, 2.0**-19),
        (10_000, 1.0 - 2.0**-19), (100_000, 0.3), (50, 0.0), (50, 1.0), (1, 0.7),
    ],
)
def test_binomial_tables_are_monotone_in_the_unit_interval_with_exact_ends(n, q):
    lower, upper = _binomial_tails(n, q)
    assert len(lower) == len(upper) == n + 2
    for table in (lower, upper):
        assert np.all((table >= 0.0) & (table <= 1.0))
    assert np.all(np.diff(lower) >= 0.0) and np.all(np.diff(upper) <= 0.0)
    assert upper[0] == lower[n] == lower[n + 1] == 1.0
    assert upper[n + 1] == 0.0


def test_a_million_pair_exact_h0_tail_builds_in_under_a_second():
    params = make_params(n=1_000_001)
    start = time.perf_counter()
    tail = exact_h0_tail(params, 500_000.5)
    assert time.perf_counter() - start < 1.0
    assert 0.49 < tail < 0.5


def test_zero_variance_tail_is_the_detector_decision():
    # paper mode at r = 0: the H1 mean is m = 19 and its variance 0, so each
    # Pd is the upward test's own decision on the mean, a tie firing
    params = make_params(n=20, num_sensors=1, r=0.0)
    _, pd, flag = gaussian_rates(params, TheoryMode.PAPER_LITERAL, [18.5, 19.0, 19.5])
    assert moments(params, Hypothesis.H1, TheoryMode.PAPER_LITERAL).mean == 19.0
    assert flag == H1_VARIANCE_ZERO
    assert pd == [1.0, 1.0, 0.0]


def test_negative_paper_variance_gives_a_none_pd_per_threshold():
    pfa, pd, flag = gaussian_rates(make_params(), TheoryMode.PAPER_LITERAL, [8.5, 9.5, 10.5])
    assert flag == H1_VARIANCE_NEGATIVE
    assert pd == [None, None, None]
    assert len(pfa) == 3 and pfa[1] == 0.5


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 60),
    num_sensors=st.integers(1, 4),
    r=st.one_of(st.just(0.0), st.floats(-0.45, 0.45)),
    sigma2=st.floats(1e-4, 1.0),
    mode=st.sampled_from(TheoryMode),
    off_grid=st.lists(st.floats(-20.0, 300.0), min_size=1, max_size=40, unique=True),
)
@example(n=20, num_sensors=2, r=0.0, sigma2=1e-4, mode=TheoryMode.PAPER_LITERAL, off_grid=[19.0])
@example(n=20, num_sensors=1, r=-0.3, sigma2=1e-4, mode=TheoryMode.PAPER_LITERAL, off_grid=[9.5])
def test_gaussian_rates_are_the_scalar_tails_to_the_last_bit(
    n, num_sensors, r, sigma2, mode, off_grid
):
    params = make_params(n=n, num_sensors=num_sensors, r=r, sigma2=sigma2)
    direction = DetectorDirection.LESS_IS_H1 if r < 0 else DetectorDirection.GREATER_IS_H1
    sign = 1.0 if direction is DetectorDirection.GREATER_IS_H1 else -1.0
    m0, m1 = (moments(params, h, mode) for h in (Hypothesis.H0, Hypothesis.H1))

    def tail(eta, m):
        if m.variance == 0:
            return float(decide(m.mean, eta, direction))
        return q_function(sign * (eta - m.mean) / math.sqrt(m.variance))

    for thresholds in (sweep_thresholds(params), sorted(off_grid)):
        pfa, pd, _ = gaussian_rates(params, mode, thresholds)
        assert pfa == [tail(eta, m0) for eta in thresholds]
        expected = [None] * len(thresholds)
        if m1.variance >= 0:
            expected = [tail(eta, m1) for eta in thresholds]
        assert pd == expected


@pytest.mark.parametrize(
    "thresholds, rule",
    [
        ([math.nan], "finite"),
        ([9.5, math.inf], "finite"),
        ([[9.5, 12.5]], "one-dimensional"),
        (9.5, "one-dimensional"),
        ([], "non-empty"),
        ([12.5, 9.5], "strictly increasing"),
    ],
    ids=["nan", "inf", "2-D", "scalar", "empty", "decreasing"],
)
def test_theory_refuses_a_grid_that_breaks_the_one_threshold_rule(thresholds, rule):
    params = make_params(r=0.4)
    message = f"thresholds must be {rule}"
    with pytest.raises(ValueError, match=message):
        gaussian_rates(params, TheoryMode.CONSISTENT, thresholds)
    assert any(message in v for v in RunConfig(params, 1, thresholds=thresholds).violations())


def curve_at(eta) -> RocCurve:
    eta = np.asarray(eta, dtype=float)
    zeros = np.zeros_like(eta)
    return RocCurve(eta=eta, pfa=zeros, pd=zeros, source=RocSource.EMPIRICAL)


@pytest.mark.parametrize(
    "build, rule",
    [
        (lambda: curve_at([math.nan]), "thresholds must be finite"),
        (lambda: curve_at([[1.0, 2.0]]), "thresholds must be one-dimensional"),
        (lambda: curve_at([]), "thresholds must be non-empty"),
        (lambda: curve_at([-math.inf, 1.0]), "thresholds must be finite"),
        (
            lambda: exact_h0_rates(RunConfig(make_params(n=4), 1, thresholds=[0.5, math.nan, 3.5])),
            "thresholds must be finite",
        ),
        (
            lambda: exact_h0_rates(RunConfig(make_params(n=4), 1, thresholds=[3.5, 0.5])),
            "thresholds must be strictly increasing",
        ),
        (lambda: exact_h0_rates(RunConfig(make_params(n=1), 1)), "n must be an integer >= 2"),
        (lambda: exact_h0_tail(make_params(n=1), 0.5), "n must be an integer >= 2"),
        (lambda: exact_h0_tail(make_params(n=-3), 0.5), "n must be an integer >= 2"),
        (
            lambda: moments(make_params(r=0.9), Hypothesis.H1),
            "source covariance not positive definite",
        ),
        (lambda: agreement_prob(make_params(r=0.9)), "source covariance not positive definite"),
        (
            lambda: RocCurve(eta=[0.5, 1.5], pfa=[1.0], pd=[1.0, 0.0], source=RocSource.EMPIRICAL),
            "eta, pfa, pd must have equal length",
        ),
        (
            lambda: RocCurve(eta=[0.5, 1.5], pfa=0.5, pd=[1.0, 0.0], source=RocSource.EMPIRICAL),
            "eta, pfa, pd must have equal length",
        ),
        (
            lambda: config_to_dict(RunConfig(make_params(), 1, theory_mode="consistent")),
            "theory_mode must be a TheoryMode, got 'consistent'",
        ),
        (
            lambda: config_to_dict(RunConfig(make_params(), 1, trials=0)),
            "trials must be an integer >= 1, got 0",
        ),
        (
            lambda: config_to_dict(RunConfig(make_params(), -1)),
            "master_seed must fit in 64 bits, got -1",
        ),
        (lambda: moments(make_params(), "H0"), "hypothesis must be a Hypothesis, got 'H0'"),
        (lambda: moments(make_params(), 0), "hypothesis must be a Hypothesis, got 0"),
        (
            lambda: moments(make_params(), Hypothesis.H1, "consistent"),
            "mode must be a TheoryMode, got 'consistent'",
        ),
        (
            lambda: decide(5, 5.5, "greater"),
            "direction must be a DetectorDirection, got 'greater'",
        ),
        (
            lambda: firing_mass(np.array([10, 7, 3, 0]), [1.5], "greater"),
            "direction must be a DetectorDirection, got 'greater'",
        ),
        (lambda: draw_width(make_params(), "H1"), "hypothesis must be a Hypothesis, got 'H1'"),
        (
            lambda: observe(make_params(), "H1", np.random.default_rng(0)),
            "hypothesis must be a Hypothesis, got 'H1'",
        ),
        (
            lambda: observe_draws(make_params(), "H0", np.zeros(20)),
            "hypothesis must be a Hypothesis, got 'H0'",
        ),
        (
            lambda: simulate_statistics(RunConfig(make_params(), 1, trials=10), "H1"),
            "hypothesis must be a Hypothesis, got 'H1'",
        ),
        (lambda: seed_for_trial(1, "H1", 0), "hypothesis must be a Hypothesis, got 'H1'"),
    ],
    ids=[
        "curve-nan", "curve-2-D", "curve-empty", "curve-inf",
        "exact-rates-nan", "exact-rates-decreasing", "exact-rates-n=1",
        "exact-tail-n=1", "exact-tail-n=-3", "moments-not-pd", "agreement-not-pd",
        "curve-short-pfa", "curve-scalar-pfa",
        "echo-mode-str", "echo-trials=0", "echo-seed=-1",
        "moments-hypothesis-str", "moments-hypothesis-int", "moments-mode-str",
        "decide-direction-str", "firing-mass-direction-str",
        "draw-width-hypothesis-str", "observe-hypothesis-str", "observe-draws-hypothesis-str",
        "simulate-hypothesis-str", "seed-for-trial-hypothesis-str",
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_every_public_edge_refuses_what_its_rule_refuses(build, rule):
    with pytest.raises(ValueError, match=rule):
        build()


@settings(max_examples=150, deadline=None)
@given(
    grid=st.one_of(
        hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4)),
        st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=8, unique=True).map(sorted),
        st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=8).map(
            lambda xs: sorted(xs, reverse=True)
        ),
    )
)
@example(grid=[math.nan])
@example(grid=[9.5, math.inf])
@example(grid=[-math.inf, 1.0])
@example(grid=[[9.5, 12.5]])
@example(grid=[])
@example(grid=[9.5, 9.5])
@example(grid=[12.5, 9.5])
@example(grid=[9.5, 12.5])
def test_curves_configs_and_theory_refuse_the_same_grids(grid):
    params = make_params(r=0.4)
    problems = RunConfig(params, 1, thresholds=grid).violations()
    expected = [f"invalid thresholds: {p}" for p in problems[:1]]
    for build in (curve_at, lambda g: gaussian_rates(params, TheoryMode.CONSISTENT, g)):
        try:
            build(grid)
            refused = []
        except ValueError as exc:
            refused = [str(exc)]
        assert refused == expected


def test_negative_variance_message_is_unchanged():
    # a negative paper-literal variance is a flag and None pd, and the
    # variance and p that show why are one call each
    params = make_params()
    _, pd, flag = gaussian_rates(params, TheoryMode.PAPER_LITERAL, [9.5, 10.5])
    assert (flag, pd) == (H1_VARIANCE_NEGATIVE, [None, None])
    variance = moments(params, Hypothesis.H1, TheoryMode.PAPER_LITERAL).variance
    assert (f"{variance:.6g}", f"{agreement_prob(params).p:.6g}") == ("-8.44328", "0.666648")
