"""Log-space beliefs: the reference prior and Bayes step, the discrete
engine's merge (one product by the weights, then the normalization kernel),
the kernel against the reference normalization, and the engine's estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from peerlearn import (
    BernoulliContextModel,
    ParameterSet,
    Scenario,
    ZeroLikelihoodError,
    run_trial,
    validate_weight_matrix,
)
from peerlearn.beliefs import LOG_FLOOR, row_normalize

from helpers import (
    BeliefVector,
    bayesian_update,
    discrete_engine_merge,
    normalized_belief,
    uniform_prior,
)


def belief_from_probs(probs) -> BeliefVector:
    return BeliefVector(np.log(np.asarray(probs, dtype=float)), normalized=True)


def is_normalized(belief: BeliefVector) -> bool:
    return bool(abs(logsumexp(belief.log_weights)) <= 1e-9)


def merged_probs(logs, weights) -> np.ndarray:
    return np.exp(discrete_engine_merge(logs, weights)[0])


def engine_estimates(points, truth, n_rounds=200) -> np.ndarray:
    """The discrete engine's estimate per round for one node that sees context 0."""
    scenario = Scenario(graph=validate_weight_matrix([[1.0]]), engine="discrete",
                        models=[BernoulliContextModel(0, truth, [0])], n_rounds=n_rounds,
                        trials=1, master_seed=5, theta_set=ParameterSet(np.array(points)))
    return run_trial(scenario, 0).estimate_history[:, 0]


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
        assert np.argmax(post.log_weights) == 0
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
        assert is_normalized(post)


class TestConsensusUpdate:
    def test_idempotent_on_identical_inputs(self):
        logs = np.log([0.6, 0.3, 0.1])
        merged = merged_probs([logs] * 3, [0.2, 0.5, 0.3])
        np.testing.assert_allclose(merged, [0.6, 0.3, 0.1], atol=1e-12)

    def test_symmetric_pair_averages_to_uniform(self):
        merged = merged_probs([np.log([0.8, 0.2]), np.log([0.2, 0.8])], [0.5, 0.5])
        np.testing.assert_allclose(merged, [0.5, 0.5], atol=1e-12)

    def test_one_hot_weights_select_input(self):
        merged = merged_probs([np.log([0.9, 0.1]), np.log([0.3, 0.7])], [0.0, 1.0])
        np.testing.assert_allclose(merged, [0.3, 0.7], atol=1e-12)

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
        plain = merged_probs(logs, weights)
        shifted = merged_probs([lw + c for lw, c in zip(logs, shifts)], weights)
        np.testing.assert_allclose(plain, shifted, atol=1e-12)

    def test_normalization_preserved(self, rng):
        for _ in range(25):
            k = int(rng.integers(1, 6))
            logs = [rng.normal(size=5) for _ in range(k)]
            merged, _ = discrete_engine_merge(logs, rng.dirichlet(np.ones(k)))
            assert abs(logsumexp(merged)) <= 1e-9


class TestMapEstimate:
    """The engine's estimate is the argmax of the belief, ties to the lowest index."""

    def test_unique_maximum(self):
        # Every label is 1, whose likelihood is largest at index 1.
        estimates = engine_estimates([[0.1], [0.7], [0.4]], truth=[1.0])
        assert np.all(estimates == 1)

    def test_tie_breaks_to_lowest_index(self):
        # Indices 1 and 2 agree on the only visible context, so their
        # beliefs are equal in every round; the truth makes them the maximum.
        estimates = engine_estimates([[0.3, 0.1], [0.8, 0.2], [0.8, 0.9]], truth=[0.8, 0.5])
        assert 2 not in estimates
        assert estimates[-1] == 1

    def test_uniform_returns_zero(self):
        estimates = engine_estimates([[0.8, 0.1], [0.8, 0.5], [0.8, 0.9]], truth=[0.8, 0.5])
        assert np.all(estimates == 0)


class TestFloorClamp:
    def test_clamp_flag_fires_below_floor(self):
        merged, fired = discrete_engine_merge([np.array([0.0, LOG_FLOOR - 100.0])], [1.0])
        assert fired
        assert np.all(np.isfinite(merged))

    def test_entries_never_minus_infinity(self):
        merged, _ = discrete_engine_merge([np.array([0.0, -np.inf])], [1.0])
        assert np.all(np.isfinite(merged))


class TestNormalizationKernel:
    """The kernel of the discrete engine's Bayes step and merge, against the reference."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_reference_normalization(self, data):
        m = data.draw(st.integers(1, 12))
        entries = st.one_of(st.floats(-1500.0, 50.0), st.sampled_from([-np.inf, LOG_FLOOR]))
        row = np.array(data.draw(st.lists(entries, min_size=m, max_size=m)))
        offset = data.draw(st.sampled_from([0.0, -750.0, 690.0, 1e6, -1e6]))
        row = row + offset
        rows = row[None, None].copy()
        fired = row_normalize(rows, np.empty_like(rows), rows.max(axis=-1, keepdims=True))
        reference = normalized_belief(row)
        np.testing.assert_allclose(rows[0, 0], reference.log_weights, rtol=0, atol=1e-12)
        assert bool(fired[0]) == reference.clamped

    def test_each_trial_normalizes_as_it_would_alone(self):
        # (N, T, M) rows: trial 1 falls below the floor at one node only, and
        # trial 2 holds a NaN, which must not hide trial 1's clamp.
        rows = np.random.default_rng(0).uniform(-5.0, 0.0, (2, 3, 4))
        rows[1, 1, 2] = -900.0
        rows[0, 2, 1] = np.nan
        alone = [rows[:, t:t + 1].copy() for t in range(3)]
        fired = row_normalize(rows, np.empty_like(rows), rows.max(axis=-1, keepdims=True))
        assert fired.tolist() == [False, True, False]
        for t, trial in enumerate(alone):
            assert row_normalize(trial, np.empty_like(trial),
                                 trial.max(axis=-1, keepdims=True)).tolist() == [fired[t]]
            np.testing.assert_array_equal(rows[:, t:t + 1], trial)
