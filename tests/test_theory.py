"""Sample-complexity bound, risk bound, and the empirical risk-gap chain."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peerlearn import (
    BernoulliContextModel,
    BoundInputs,
    InvalidInputsError,
    ParameterSet,
    risk_gap_chain,
    empirical_risk_gap,
    risk_bound,
    sample_complexity,
    sample_complexity_real,
)


def make_inputs(**overrides) -> BoundInputs:
    base = dict(n_nodes=2, n_params=10, delta=0.1,
                likelihood_log_range=2.0, separation_rate=0.5, lambda_max=0.3)
    base.update(overrides)
    return BoundInputs(**base)


class TestSampleComplexity:
    def test_worked_example(self):
        assert sample_complexity(make_inputs()) == 969

    def test_matches_formula(self):
        value = sample_complexity_real(make_inputs())
        assert value == pytest.approx(32.0 * math.log(200.0) / (0.25 * 0.7), rel=1e-12)

    def test_infinite_rate_sentinel(self):
        assert sample_complexity(make_inputs(separation_rate=math.inf)) == 1

    @pytest.mark.parametrize("overflowing", [
        dict(separation_rate=1e-200),
        dict(separation_rate=1e-160),
        dict(likelihood_log_range=1e308),
    ], ids=["rate-squared-underflows", "quotient-overflows", "numerator-overflows"])
    def test_overflow_is_infinite_and_raises(self, overflowing):
        inputs = make_inputs(**overflowing)
        assert sample_complexity_real(inputs) == math.inf
        with pytest.raises(InvalidInputsError, match="overflows a float"):
            sample_complexity(inputs)

    def test_huge_rate_needs_one_sample(self):
        # The squared rate overflows to inf, so the bound falls to 0.
        assert sample_complexity(make_inputs(separation_rate=1e200)) == 1

    def test_doubling_params_adds_log_two_term(self):
        base = sample_complexity_real(make_inputs())
        doubled = sample_complexity_real(make_inputs(n_params=20))
        increment = 16.0 * 2.0 * math.log(2.0) / (0.25 * 0.7)
        assert doubled - base == pytest.approx(increment, rel=1e-12)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(delta=0.0),
            dict(delta=1.0),
            dict(delta=1.5),
            dict(likelihood_log_range=0.0),
            dict(separation_rate=0.0),
            dict(lambda_max=1.0),
            dict(lambda_max=-0.1),
            dict(n_nodes=0),
        ],
    )
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(InvalidInputsError):
            make_inputs(**bad)

    @settings(max_examples=80, deadline=None)
    @given(
        n_nodes=st.integers(1, 50),
        n_params=st.integers(1, 50),
        delta=st.floats(0.01, 0.99),
        log_range=st.floats(0.1, 5.0),
        rate=st.floats(0.05, 3.0),
        lam=st.floats(0.0, 0.95),
        bump=st.floats(0.01, 0.5),
    )
    def test_monotonicity(self, n_nodes, n_params, delta, log_range, rate, lam, bump):
        base = BoundInputs(n_nodes, n_params, delta, log_range, rate, lam)
        value = sample_complexity_real(base)
        # Nonincreasing in confidence and separation, nondecreasing in the rest.
        assert sample_complexity_real(
            BoundInputs(n_nodes, n_params, min(0.999, delta + bump),
                        log_range, rate, lam)) <= value
        assert sample_complexity_real(
            BoundInputs(n_nodes, n_params, delta, log_range, rate + bump, lam)) <= value
        assert sample_complexity_real(
            BoundInputs(n_nodes + 1, n_params, delta, log_range, rate, lam)) >= value
        assert sample_complexity_real(
            BoundInputs(n_nodes, n_params + 1, delta, log_range, rate, lam)) >= value
        assert sample_complexity_real(
            BoundInputs(n_nodes, n_params, delta, log_range + bump, rate, lam)) >= value
        assert sample_complexity_real(
            BoundInputs(n_nodes, n_params, delta, log_range, rate,
                        min(0.99, lam + bump * 0.05))) >= value


class TestRiskBound:
    def test_direct_substitutions(self):
        assert risk_bound(1.0, 0.04) == pytest.approx(0.1, abs=1e-15)
        assert risk_bound(2.0, 0.25) == pytest.approx(0.5, abs=1e-15)

    def test_zero_radius(self):
        assert risk_bound(1.0, 0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(InvalidInputsError):
            risk_bound(-1.0, 0.1)


def label_risk(xs, y):
    return np.broadcast_to(float(y), np.shape(xs)).astype(float)


class TestEmpiricalRiskGap:
    def test_identical_estimates_give_zero(self):
        truth = np.array([0.8, 0.4])
        models = [BernoulliContextModel(0, truth, [0, 1])]
        theta = ParameterSet(np.array([truth, [0.5, 0.5]]))
        gap = empirical_risk_gap(models, theta, 0, [0], label_risk,
                                 mc_samples=200, seed=1)
        assert gap == 0.0

    def test_bernoulli_hand_value(self):
        # Risk r(x, y) = y, so the expected risk is the success probability
        # and the gap between 0.9 and 0.5 is exactly 0.4.
        truth = np.array([0.9])
        models = [BernoulliContextModel(0, truth, [0])]
        theta = ParameterSet(np.array([[0.9], [0.5]]))
        gap = empirical_risk_gap(models, theta, 0, [1], label_risk,
                                 mc_samples=100, seed=2)
        assert gap == pytest.approx(0.4, abs=1e-12)

    def test_chain_ordering_with_wrong_estimates(self):
        truth = np.array([0.7, 0.35])
        models = [
            BernoulliContextModel(0, truth, [0]),
            BernoulliContextModel(1, truth, [0, 1]),
        ]
        theta = ParameterSet(np.array([truth, [0.5, 0.6], [0.25, 0.8]]))
        for wrong in ([1, 1], [2, 2], [1, 2]):
            chain = risk_gap_chain(models, theta, 0, wrong, label_risk,
                                    label_risk_bound=1.0, mc_samples=800, seed=3)
            assert chain["risk_gap"] <= chain["l1_bound"] + 1e-12
            assert chain["l1_bound"] <= chain["pinsker_bound"] + 1e-12
            assert chain["pinsker_bound"] <= chain["jensen_bound"] + 1e-12

    def test_chain_collapses_at_optimum(self):
        truth = np.array([0.7, 0.35])
        models = [BernoulliContextModel(0, truth, [0, 1])]
        theta = ParameterSet(np.array([truth, [0.5, 0.6]]))
        chain = risk_gap_chain(models, theta, 0, [0], label_risk,
                                label_risk_bound=1.0, mc_samples=100, seed=4)
        assert chain["risk_gap"] == 0.0
        assert chain["jensen_bound"] == 0.0
