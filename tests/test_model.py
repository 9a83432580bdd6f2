import math

import pytest
from hypothesis import given, strategies as st

from bitsense.model import (
    DetectorDirection,
    Hypothesis,
    ModelParams,
    _direction_of,
    require_valid,
    validate,
)


def make_params(n=20, num_sensors=1, sigma_s2=1.0, r=0.5, sigma2=1e-4):
    return ModelParams(n=n, num_sensors=num_sensors, sigma_s2=sigma_s2, r=r, sigma2=sigma2)


def test_reference_experiment_parameters_validate():
    # every parameter set used by the shipped presets must be accepted
    for r in (0.1, 0.3, 0.5):
        for num_sensors in (1, 2, 3):
            report = validate(make_params(r=r, num_sensors=num_sensors))
            assert report.ok, report.violations


def test_boundary_lag1_covariance_is_accepted():
    # sigma_s2 = 2|r| keeps every eigenvalue sigma_s2 + 2r cos(k pi/(n+1))
    # strictly positive for finite n, so the boundary is valid
    assert validate(make_params(r=0.5)).ok
    assert validate(make_params(r=-0.5)).ok


def test_too_large_lag1_covariance_is_rejected():
    report = validate(make_params(r=0.6))
    assert not report.ok
    assert any("positive definite" in v for v in report.violations)


def test_zero_correlation_is_ok_with_warning():
    report = validate(make_params(r=0.0))
    assert report.ok
    assert len(report.warnings) == 1
    assert "uninformative" in report.warnings[0]


def test_zero_correlation_warning_depends_on_sensor_count():
    # one sensor: Y has the same law under both hypotheses; two or more:
    # the shared source inflates Var(Y | H1), so Y is not uninformative
    (single,) = validate(make_params(r=0.0, num_sensors=1)).warnings
    assert "uninformative" in single and "diagonal" in single
    (network,) = validate(make_params(r=0.0, num_sensors=2)).warnings
    assert "uninformative" not in network
    assert "Var(Y | H1)" in network


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=1),
        dict(n=0),
        dict(num_sensors=0),
        dict(sigma_s2=0.0),
        dict(sigma_s2=-1.0),
        dict(sigma2=0.0),
        dict(sigma2=-0.5),
        dict(r=math.nan),
        dict(sigma_s2=math.inf),
        dict(num_sensors=True),
    ],
)
def test_invalid_parameters_are_reported(kwargs):
    report = validate(make_params(**kwargs))
    assert not report.ok


def test_require_valid_raises_with_all_violations():
    with pytest.raises(ValueError) as excinfo:
        require_valid(make_params(n=1, sigma2=0.0))
    message = str(excinfo.value)
    assert "n must be" in message
    assert "sigma2" in message


def test_pairs_total():
    assert make_params(n=20, num_sensors=1).pairs_total == 19
    assert make_params(n=20, num_sensors=3).pairs_total == 57
    assert make_params(n=3, num_sensors=2).pairs_total == 4


def test_direction_from_correlation():
    # the one sign-of-r rule; r = 0 takes the upward convention
    assert _direction_of(0.3) is DetectorDirection.GREATER_IS_H1
    assert _direction_of(-0.3) is DetectorDirection.LESS_IS_H1
    assert _direction_of(0.0) is DetectorDirection.GREATER_IS_H1


def test_hypothesis_tags():
    assert Hypothesis.H0.value == 0
    assert Hypothesis.H1.value == 1
    assert len(Hypothesis) == 2


@given(
    sigma_s2=st.floats(0.1, 10.0),
    ratio=st.floats(0.0, 1.0),
    sign=st.sampled_from([-1.0, 1.0]),
    n=st.integers(2, 60),
    num_sensors=st.integers(1, 4),
)
def test_validate_accepts_whole_admissible_region(sigma_s2, ratio, sign, n, num_sensors):
    r = sign * ratio * sigma_s2 / 2.0
    params = ModelParams(
        n=n, num_sensors=num_sensors, sigma_s2=sigma_s2, r=r, sigma2=1e-4
    )
    assert validate(params).ok
