"""Log-space belief vectors: priors, Bayes step, consensus merge, estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peerlearn import (
    BeliefVector,
    BernoulliContextModel,
    DimensionMismatchError,
    ParameterSet,
    WeightMismatchError,
    ZeroLikelihoodError,
    bayesian_update,
    consensus_update,
    map_estimate,
    uniform_prior,
)
from peerlearn.beliefs import LOG_FLOOR


def belief_from_probs(probs) -> BeliefVector:
    return BeliefVector(np.log(np.asarray(probs, dtype=float)), normalized=True)


class TestUniformPrior:
    def test_four_points(self):
        prior = uniform_prior(4)
        np.testing.assert_allclose(prior.log_weights, np.log(0.25))

    def test_degenerate_single_point(self):
        assert uniform_prior(1).log_weights[0] == 0.0

    def test_masses_sum_to_one(self):
        assert abs(uniform_prior(10).probabilities().sum() - 1.0) < 1e-12

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            uniform_prior(0)


class TestBayesianUpdate:
    def setup_method(self):
        self.model = BernoulliContextModel(0, true_probs=[0.9], visible=[0])
        self.theta = ParameterSet(np.array([[0.9], [0.5]]))

    def test_hand_computed_posterior(self):
        post = bayesian_update(uniform_prior(2), self.model, self.theta, 0, 1)
        np.testing.assert_allclose(post.probabilities(), [9 / 14, 5 / 14], atol=1e-12)

    def test_constant_likelihood_keeps_prior(self):
        theta = ParameterSet(np.array([[0.7], [0.7 + 2e-12]]))
        prior = belief_from_probs([0.3, 0.7])
        post = bayesian_update(prior, self.model, theta, 0, 1)
        np.testing.assert_allclose(post.probabilities(), [0.3, 0.7], atol=1e-9)

    def test_point_mass_prior_stays_point_mass(self):
        prior = BeliefVector(np.array([0.0, LOG_FLOOR]), normalized=True)
        post = bayesian_update(prior, self.model, self.theta, 0, 0)
        assert map_estimate(post) == 0
        assert post.probabilities()[1] < 1e-250

    def test_all_zero_likelihood_raises(self):
        # Both parameters put probability 1 on label 1 in context 0, so the
        # observed label 0 has zero likelihood everywhere.
        model = BernoulliContextModel(0, true_probs=[0.9, 0.5], visible=[0])
        theta = ParameterSet(np.array([[1.0, 0.3], [1.0, 0.7]]))
        with pytest.raises(ZeroLikelihoodError):
            bayesian_update(uniform_prior(2), model, theta, 0, 0)

    def test_order_invariance_over_batches(self, rng):
        theta = ParameterSet(np.array([[0.8], [0.4], [0.2]]))
        samples = [(0, int(rng.integers(0, 2))) for _ in range(30)]
        def run(seq):
            belief = uniform_prior(3)
            for x, y in seq:
                belief = bayesian_update(belief, self.model, theta, x, y)
            return belief.probabilities()
        shuffled = list(samples)
        rng.shuffle(shuffled)
        np.testing.assert_allclose(run(samples), run(shuffled), atol=1e-9)

    def test_output_is_normalized(self):
        post = bayesian_update(uniform_prior(2), self.model, self.theta, 0, 1)
        assert post.is_normalized()


class TestConsensusUpdate:
    def test_idempotent_on_identical_inputs(self):
        b = belief_from_probs([0.6, 0.3, 0.1])
        merged = consensus_update([(b, 0.2), (b, 0.5), (b, 0.3)])
        np.testing.assert_allclose(merged.probabilities(), [0.6, 0.3, 0.1], atol=1e-12)

    def test_symmetric_pair_averages_to_uniform(self):
        merged = consensus_update(
            [(belief_from_probs([0.8, 0.2]), 0.5), (belief_from_probs([0.2, 0.8]), 0.5)]
        )
        np.testing.assert_allclose(merged.probabilities(), [0.5, 0.5], atol=1e-12)

    def test_one_hot_weights_select_input(self):
        a = belief_from_probs([0.9, 0.1])
        b = belief_from_probs([0.3, 0.7])
        merged = consensus_update([(a, 0.0), (b, 1.0)])
        np.testing.assert_allclose(merged.probabilities(), [0.3, 0.7], atol=1e-12)

    def test_rejects_bad_weight_sum(self):
        a = belief_from_probs([0.5, 0.5])
        with pytest.raises(WeightMismatchError):
            consensus_update([(a, 0.7), (a, 0.7)])

    def test_rejects_negative_weight(self):
        a = belief_from_probs([0.5, 0.5])
        with pytest.raises(WeightMismatchError):
            consensus_update([(a, 1.5), (a, -0.5)])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            consensus_update(
                [(belief_from_probs([0.5, 0.5]), 0.5),
                 (belief_from_probs([0.2, 0.3, 0.5]), 0.5)]
            )

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_shift_invariance(self, data):
        # Adding any constant to one input's log weights cancels exactly.
        m = data.draw(st.integers(2, 8))
        k = data.draw(st.integers(1, 5))
        logs = [
            np.array(data.draw(st.lists(
                st.floats(-30, 30), min_size=m, max_size=m)))
            for _ in range(k)
        ]
        raw_w = np.array(data.draw(st.lists(
            st.floats(0.01, 1.0), min_size=k, max_size=k)))
        weights = raw_w / raw_w.sum()
        shifts = [data.draw(st.floats(-100, 100)) for _ in range(k)]
        plain = consensus_update(
            [(BeliefVector(lw), w) for lw, w in zip(logs, weights)]
        )
        shifted = consensus_update(
            [(BeliefVector(lw + c), w) for lw, c, w in zip(logs, shifts, weights)]
        )
        np.testing.assert_allclose(
            plain.probabilities(), shifted.probabilities(), atol=1e-12
        )

    def test_normalization_preserved(self, rng):
        for _ in range(25):
            k = int(rng.integers(1, 6))
            inputs = [
                (BeliefVector(rng.normal(size=5)), w)
                for w in rng.dirichlet(np.ones(k))
            ]
            assert consensus_update(inputs).is_normalized()


class TestMapEstimate:
    def test_unique_maximum(self):
        assert map_estimate(belief_from_probs([0.1, 0.7, 0.2])) == 1

    def test_tie_breaks_to_lowest_index(self):
        assert map_estimate(belief_from_probs([0.5, 0.5])) == 0

    def test_uniform_returns_zero(self):
        assert map_estimate(uniform_prior(10)) == 0


class TestFloorClamp:
    def test_clamp_flag_fires_below_floor(self):
        deep = BeliefVector(np.array([0.0, LOG_FLOOR - 100.0]))
        merged = consensus_update([(deep, 1.0)])
        assert merged.clamped
        assert np.all(np.isfinite(merged.log_weights))

    def test_entries_never_minus_infinity(self):
        merged = consensus_update([(BeliefVector(np.array([0.0, -np.inf])), 1.0)])
        assert np.all(np.isfinite(merged.log_weights))
