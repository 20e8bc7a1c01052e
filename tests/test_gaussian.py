"""The reference conjugate update, the gaussian engine's merge (packed
``(P, h)`` rows mixed by the weights, then the moments kernel), and the
discrete engine's merge of Gaussian log densities on a grid, checked
against each other and against the closed-form merge."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from peerlearn import gaussian

from helpers import (
    GaussianBelief,
    discrete_engine_merge,
    gaussian_bayes_update,
    gaussian_consensus,
)

PRIOR_MEAN = np.zeros(3)
PRIOR_VAR = np.full(3, 0.5)
NOISE_VAR = 0.64


def diagonal_prior(mean, variances) -> GaussianBelief:
    return GaussianBelief(np.asarray(mean, dtype=float), np.diag(1.0 / np.asarray(variances)))


def reference_prior() -> GaussianBelief:
    return diagonal_prior(PRIOR_MEAN, PRIOR_VAR)


def gaussian_engine_merge(beliefs, weights) -> np.ndarray:
    """The gaussian engine's merge: each belief packed as a state row, the
    rows mixed by the weights as one row of a round's weight matrix."""
    return np.asarray(weights) @ np.stack([gaussian._pack(b.mean, b.precision) for b in beliefs])


def engine_moments(row: np.ndarray):
    """The mean and the variance diagonal of one packed state, from the engine's kernel."""
    means, variances, positive = gaussian._moments(row[:, None])
    assert positive.all()
    return means[:, 0], variances[:, 0]


def grid_merge(beliefs, weights, points):
    """The discrete engine's merge of the beliefs' log densities on ``points``."""
    return discrete_engine_merge([b.log_density(points) for b in beliefs], weights)


class TestBeliefType:
    """The gaussian engine's belief: one packed ``(P, h)`` state row and its moments."""

    def test_rejects_indefinite_precision(self):
        row = gaussian._pack(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert not gaussian._moments(row[:, None])[2].any()

    def test_covariance_inverts_precision(self, rng):
        root = rng.normal(size=(3, 3))
        precision = root @ root.T + 3 * np.eye(3)
        mean = rng.normal(size=3)
        engine_mean, variances = engine_moments(gaussian._pack(mean, precision))
        covariance = np.linalg.inv(precision)
        np.testing.assert_allclose(variances, np.diag(covariance), atol=1e-10)
        np.testing.assert_allclose(engine_mean, mean, atol=1e-10)


class TestBayesUpdate:
    def test_reference_one_sample_precision(self):
        post = gaussian_bayes_update(reference_prior(), [1.0, 0.0], 1.0, NOISE_VAR)
        aug = np.array([1.0, 1.0, 0.0])
        expected = np.diag([2.0, 2.0, 2.0]) + np.outer(aug, aug) / NOISE_VAR
        np.testing.assert_allclose(post.precision, expected, atol=1e-12)
        expected_mean = np.linalg.solve(expected, aug / NOISE_VAR)
        np.testing.assert_allclose(post.mean, expected_mean, atol=1e-12)

    def test_uninformative_observation_keeps_prior(self):
        post = gaussian_bayes_update(reference_prior(), [0.4, -0.2], 3.0, 1e12)
        np.testing.assert_allclose(post.mean, PRIOR_MEAN, atol=1e-6)
        np.testing.assert_allclose(post.precision, np.diag(1.0 / PRIOR_VAR), atol=1e-6)

    def test_repeated_sample_matches_batched_statistics(self):
        x, y, n = np.array([0.3, -0.7]), 1.4, 6
        belief = reference_prior()
        for _ in range(n):
            belief = gaussian_bayes_update(belief, x, y, NOISE_VAR)
        aug = np.concatenate(([1.0], x))
        precision = np.diag(1.0 / PRIOR_VAR) + n * np.outer(aug, aug) / NOISE_VAR
        mean = np.linalg.solve(precision, aug * (n * y / NOISE_VAR))
        np.testing.assert_allclose(belief.precision, precision, atol=1e-9)
        np.testing.assert_allclose(belief.mean, mean, atol=1e-9)

    def test_information_never_decreases_along_observation(self, rng):
        for _ in range(20):
            prior = diagonal_prior(rng.normal(size=3), rng.uniform(0.1, 2.0, 3))
            x = rng.normal(size=2)
            post = gaussian_bayes_update(prior, x, float(rng.normal()), 0.5)
            aug = np.concatenate(([1.0], x))
            assert aug @ post.precision @ aug >= aug @ prior.precision @ aug - 1e-12

    def test_rejects_bad_noise(self):
        with pytest.raises(ValueError):
            gaussian_bayes_update(reference_prior(), [0.0, 0.0], 0.0, 0.0)


class TestConsensus:
    def test_identical_inputs_are_fixed_point(self, rng):
        root = rng.normal(size=(3, 3))
        belief = GaussianBelief(rng.normal(size=3), root @ root.T + 2 * np.eye(3))
        merged = gaussian_engine_merge([belief, belief], [0.3, 0.7])
        np.testing.assert_allclose(merged, gaussian._pack(belief.mean, belief.precision),
                                   atol=1e-10)
        np.testing.assert_allclose(engine_moments(merged)[0], belief.mean, atol=1e-10)

    def test_equal_precisions_average_means(self):
        precision = np.diag([2.0, 5.0])
        a = GaussianBelief(np.array([1.0, -1.0]), precision)
        b = GaussianBelief(np.array([3.0, 5.0]), precision)
        merged = gaussian_engine_merge([a, b], [0.5, 0.5])
        np.testing.assert_allclose(merged, gaussian._pack([2.0, 2.0], precision), atol=1e-12)
        np.testing.assert_allclose(engine_moments(merged)[0], [2.0, 2.0], atol=1e-12)

    def test_scalar_reference_case(self):
        a = GaussianBelief(np.array([0.0]), np.array([[1.0]]))
        b = GaussianBelief(np.array([2.0]), np.array([[3.0]]))
        mean, variance = engine_moments(gaussian_engine_merge([a, b], [0.5, 0.5]))
        assert variance[0] == pytest.approx(0.5, abs=1e-12)
        assert mean[0] == pytest.approx(1.5, abs=1e-12)


class TestDiscretizedOracle:
    """The discrete engine's merge on a grid against the closed form and the gaussian engine."""

    def test_scalar_merge_argmax_near_closed_form(self):
        a = GaussianBelief(np.array([0.0]), np.array([[1.0]]))
        b = GaussianBelief(np.array([2.0]), np.array([[3.0]]))
        grid = np.linspace(-10.0, 10.0, 4001)[:, None]
        merged, _ = grid_merge([a, b], [0.5, 0.5], grid)
        peak = grid[np.argmax(merged), 0]
        assert abs(peak - 1.5) <= (20.0 / 4000.0) + 1e-12

    def test_identical_inputs_match_discretized_input(self):
        belief = GaussianBelief(np.array([0.4]), np.array([[2.0]]))
        grid = np.linspace(-8.0, 8.0, 1001)[:, None]
        merged, _ = grid_merge([belief, belief], [0.5, 0.5], grid)
        direct = np.exp(belief.log_density(grid))
        direct /= direct.sum()
        np.testing.assert_allclose(np.exp(merged), direct, atol=1e-9)

    def test_moments_match_closed_form_merge(self):
        a = GaussianBelief(np.array([0.0]), np.array([[1.0]]))
        b = GaussianBelief(np.array([2.0]), np.array([[3.0]]))
        step = 20.0 / 4000.0
        grid = np.linspace(-10.0, 10.0, 4001)
        merged, _ = grid_merge([a, b], [0.5, 0.5], grid[:, None])
        probs = np.exp(merged)
        mean = float(probs @ grid)
        second = float(probs @ grid**2)
        engine_mean, engine_variance = engine_moments(gaussian_engine_merge([a, b], [0.5, 0.5]))
        assert mean == pytest.approx(engine_mean[0], abs=10 * step**2)
        assert second - mean**2 == pytest.approx(engine_variance[0], abs=10 * step**2)

    def test_pointwise_density_match_small_3d(self, rng):
        # Gaussian closure: grid values of the discrete merge equal the
        # closed-form density, normalized over the same points.
        beliefs = []
        for _ in range(2):
            root = rng.normal(size=(3, 3))
            beliefs.append(
                GaussianBelief(rng.normal(size=3), root @ root.T + 2 * np.eye(3))
            )
        weights = [0.3, 0.7]
        points = rng.uniform(-4, 4, size=(500, 3))
        merged, _ = grid_merge(beliefs, weights, points)
        closed = gaussian_consensus(list(zip(beliefs, weights)))
        np.testing.assert_allclose(engine_moments(gaussian_engine_merge(beliefs, weights))[0],
                                   closed.mean, atol=1e-10)
        log_direct = closed.log_density(points)
        direct = np.exp(log_direct - log_direct.max())
        direct /= direct.sum()
        np.testing.assert_allclose(np.exp(merged) / direct, 1.0, atol=1e-6)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_closed_form_on_drawn_beliefs(self, data):
        # The grid merge's log-beliefs are the merged density's, normalized
        # over the same points.
        dim = data.draw(st.sampled_from([1, 2]))
        count = data.draw(st.integers(1, 4))
        beliefs = []
        for _ in range(count):
            mean = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim))
            root = np.zeros((dim, dim))
            root[np.diag_indices(dim)] = data.draw(
                st.lists(st.floats(0.5, 2.0), min_size=dim, max_size=dim))
            root[np.tril_indices(dim, -1)] = data.draw(
                st.lists(st.floats(-1.0, 1.0), min_size=dim * (dim - 1) // 2,
                         max_size=dim * (dim - 1) // 2))
            beliefs.append(GaussianBelief(np.array(mean), root @ root.T + 0.1 * np.eye(dim)))
        raw = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=count, max_size=count)))
        weights = raw / raw.sum()
        axis = np.linspace(-4.0, 4.0, 201 if dim == 1 else 41)
        grid = np.stack(np.meshgrid(*[axis] * dim), axis=-1).reshape(-1, dim)
        merged, fired = grid_merge(beliefs, weights, grid)
        log_direct = gaussian_consensus(list(zip(beliefs, weights))).log_density(grid)
        np.testing.assert_allclose(merged, log_direct - logsumexp(log_direct), rtol=0, atol=1e-9)
        assert not fired
