"""Weight-matrix validation, stationary vectors, spectra, mixing bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peerlearn import (
    GraphError,
    NotStochasticError,
    NotStronglyConnectedError,
    PeriodicError,
    spectral_gap,
    stationary_distribution,
    validate_weight_matrix,
    verify_mixing_bound,
)

from helpers import random_weight_matrix, reference_weight_verdict

W_EXAMPLE = [[0.9, 0.1], [0.6, 0.4]]
W_SYMMETRIC = [[0.25, 0.75], [0.75, 0.25]]


@st.composite
def raw_weight_matrices(draw):
    """Positive weights on 0/1 patterns of 1 to 12 nodes, normalized by row; some defective.

    Sparse patterns leave nodes unreachable, and edges allowed only from
    one class of nodes to the next make cycles whose lengths share a
    factor. A row left without an edge gets every allowed one; then one row
    may be emptied, get a negative entry or get a sum that is off.
    """
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    allowed = np.ones((n, n), dtype=bool)
    classes = draw(st.integers(1, 4))
    if classes > 1:
        label = rng.integers(0, classes, n)
        allowed = (label[:, None] + 1) % classes == label[None, :]
    loops = draw(st.sampled_from(["drawn", "none", "all"]))
    if loops != "drawn":
        np.fill_diagonal(allowed, loops == "all")
    pattern = allowed & (rng.random((n, n)) < draw(st.sampled_from([0.1, 0.25, 0.5, 0.9])))
    empty = ~pattern.any(axis=1)
    pattern[empty] = allowed[empty]
    if loops == "all":
        np.fill_diagonal(pattern, True)
    w = pattern * rng.uniform(0.1, 1.0, (n, n))
    sums = w.sum(axis=1, keepdims=True)
    w = np.divide(w, sums, out=np.zeros_like(w), where=sums > 0.0)
    i, j = rng.integers(0, n, 2)
    defect = draw(st.sampled_from(["none"] * 9 + ["empty", "negative", "off-sum"]))
    if defect == "empty":
        w[i] = 0.0
    elif defect == "negative":
        w[i, j] = -rng.uniform(1e-12, 1.0)
    elif defect == "off-sum":
        w[i] *= draw(st.sampled_from([1.0 + 1e-8, 1.0 - 1e-8, 1.0 + 1e-10, 2.0]))
    return w


def _described(error):
    """An error as its type, text and attributes; None for no error."""
    return None if error is None else (type(error), str(error), vars(error))


def _outcome(raw):
    """What ``validate_weight_matrix`` does with ``raw``, as ``_described``."""
    try:
        validate_weight_matrix(raw)
    except GraphError as exc:
        return _described(exc)
    return None


class TestValidation:
    def test_accepts_reference_matrix(self):
        w = validate_weight_matrix(W_EXAMPLE)
        assert w.n_nodes == 2
        np.testing.assert_allclose(w.weights, W_EXAMPLE)

    def test_rejects_disconnected_identity(self):
        with pytest.raises(NotStronglyConnectedError):
            validate_weight_matrix([[1.0, 0.0], [0.0, 1.0]])

    def test_rejects_bad_row_sum(self):
        with pytest.raises(NotStochasticError) as info:
            validate_weight_matrix([[0.5, 0.6], [0.5, 0.5]])
        assert info.value.row == 0

    def test_rejects_negative_entry(self):
        with pytest.raises(NotStochasticError):
            validate_weight_matrix([[1.2, -0.2], [0.5, 0.5]])

    def test_rejects_periodic_two_cycle(self):
        with pytest.raises(PeriodicError) as info:
            validate_weight_matrix([[0.0, 1.0], [1.0, 0.0]])
        assert info.value.period == 2

    def test_accepts_aperiodic_cycle_mix(self):
        # 3-cycle plus a 2-cycle chord: gcd(3, 2) = 1, no self-loops.
        w = np.array([
            [0.0, 1.0, 0.0],
            [0.5, 0.0, 0.5],
            [1.0, 0.0, 0.0],
        ])
        validate_weight_matrix(w)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            validate_weight_matrix([[0.5, 0.5]])

    @pytest.mark.parametrize("raw", [np.empty((0, 0)), np.empty(0)], ids=["0x0", "flat"])
    def test_rejects_empty(self, raw):
        with pytest.raises(ValueError, match="empty|square"):
            validate_weight_matrix(raw)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            validate_weight_matrix([[np.inf, 0.0], [0.5, 0.5]])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(raw_weight_matrices())
    def test_agrees_with_the_oracle(self, w):
        assert _outcome(w) == _described(reference_weight_verdict(w))

    @pytest.mark.parametrize("raw, expected", [
        ([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
         (PeriodicError, "chain is periodic with period 3", {"period": 3})),
        ([[0.5, 0.5], [0.0, 1.0]],
         (NotStronglyConnectedError, "nodes [1] are unable to reach node 0; "
          "the directed graph is not strongly connected", {"unreachable": [1]})),
        ([[0.5, 0.6], [1.2, -0.2]],
         (NotStochasticError, "row 0: sums to 1.1, expected 1", {"row": 0})),
        ([[1.0]], None),
    ], ids=["three-cycle", "unable-to-reach", "first-bad-row", "one-node"])
    def test_pinned_outcomes(self, raw, expected):
        assert _outcome(raw) == expected
        assert _described(reference_weight_verdict(np.array(raw))) == expected
        if expected is None:
            assert spectral_gap(validate_weight_matrix(raw)).lambda_max == 0.0

    def test_weights_are_immutable(self):
        w = validate_weight_matrix(W_EXAMPLE)
        with pytest.raises(ValueError):
            w.weights[0, 0] = 0.5


class TestStationary:
    def test_reference_matrix(self):
        w = validate_weight_matrix(W_EXAMPLE)
        np.testing.assert_allclose(
            stationary_distribution(w), [6.0 / 7.0, 1.0 / 7.0], atol=1e-10
        )

    def test_doubly_stochastic_is_uniform(self, rng):
        # Convex combinations of permutation matrices are doubly stochastic;
        # including the identity and a full cycle keeps the chain valid.
        for n in (2, 3, 5):
            perms = [np.eye(n), np.eye(n)[(np.arange(n) + 1) % n]]
            perms += [np.eye(n)[rng.permutation(n)] for _ in range(3)]
            mix = rng.dirichlet(np.ones(len(perms)))
            doubly = sum(c * p for c, p in zip(mix, perms))
            w = validate_weight_matrix(doubly)
            np.testing.assert_allclose(
                stationary_distribution(w), np.full(n, 1.0 / n), atol=1e-9
            )

    def test_symmetric_two_node(self):
        w = validate_weight_matrix(W_SYMMETRIC)
        np.testing.assert_allclose(stationary_distribution(w), [0.5, 0.5], atol=1e-10)

    def test_fixed_point_and_normalization(self, rng):
        # N = 100 is beyond every graph the tests and benchmark build (N <= 64).
        for n in [*rng.integers(2, 9, size=20), 100]:
            w = random_weight_matrix(rng, int(n))
            v = stationary_distribution(w)
            assert abs(v.sum() - 1.0) < 1e-9
            assert np.all(v > 0)
            assert np.max(np.abs(v @ w.weights - v)) < 1e-8


class TestSpectralGap:
    def test_reference_matrix(self):
        summary = spectral_gap(validate_weight_matrix(W_EXAMPLE))
        assert summary.lambda_max == pytest.approx(0.3, abs=1e-12)

    def test_symmetric_matrix_uses_modulus(self):
        # Eigenvalues are {1, -0.5}; the subdominant modulus is 0.5.
        summary = spectral_gap(validate_weight_matrix(W_SYMMETRIC))
        assert summary.lambda_max == pytest.approx(0.5, abs=1e-12)

    def test_mixing_bound_value(self):
        summary = spectral_gap(validate_weight_matrix(W_EXAMPLE))
        expected = 4.0 * math.log(2.0) / 0.7
        assert summary.mixing_bound == pytest.approx(expected, rel=1e-12)
        assert summary.mixing_bound == pytest.approx(3.9608, abs=5e-5)

    def test_relabeling_invariance(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            w = random_weight_matrix(rng, n)
            perm = rng.permutation(n)
            p = np.eye(n)[perm]
            relabeled = validate_weight_matrix(p @ w.weights @ p.T)
            assert spectral_gap(relabeled).lambda_max == pytest.approx(
                spectral_gap(w).lambda_max, abs=1e-9
            )

    def test_rejects_a_chain_periodic_in_floats(self):
        # The self-loop makes the pattern aperiodic, but the subdominant
        # eigenvalue -1 + 1e-300 has modulus 1.0 in floats.
        w = validate_weight_matrix([[1e-300, 1.0], [1.0, 0.0]])
        with pytest.raises(GraphError, match="modulus is 1.0, not below 1"):
            spectral_gap(w)

    def test_lambda_in_valid_range(self, rng):
        for _ in range(30):
            w = random_weight_matrix(rng, int(rng.integers(2, 11)))
            lam = spectral_gap(w).lambda_max
            assert 0.0 <= lam < 1.0


class TestMixingBound:
    def test_reference_matrix_horizon_100(self):
        w = validate_weight_matrix(W_EXAMPLE)
        report = verify_mixing_bound(w, 100)
        assert report.all_within()
        assert np.all(report.partial_sums <= 3.9609)

    def test_rank_one_matrix_already_mixed(self):
        # Both rows equal the stationary vector, so every power matches it.
        w = validate_weight_matrix([[0.7, 0.3], [0.7, 0.3]])
        report = verify_mixing_bound(w, 25)
        assert np.all(report.partial_sums < 1e-12)

    def test_symmetric_matrix_horizon_50(self):
        w = validate_weight_matrix(W_SYMMETRIC)
        report = verify_mixing_bound(w, 50)
        bound = 4.0 * math.log(2.0) / 0.5
        assert report.bound == pytest.approx(bound, rel=1e-12)
        assert report.spectral.lambda_max == pytest.approx(0.5, abs=1e-12)
        assert np.all(report.partial_sums <= bound)

    def test_matches_bruteforce_matrix_powers(self, rng):
        w = random_weight_matrix(rng, 4)
        horizon = 17
        report = verify_mixing_bound(w, horizon)
        v = stationary_distribution(w)
        expected = np.zeros(4)
        for k in range(1, horizon + 1):
            power_k = np.linalg.matrix_power(w.weights, k)
            expected += np.abs(power_k - v[None, :]).sum(axis=1)
        np.testing.assert_allclose(report.partial_sums, expected, atol=1e-9)

    def test_partial_sums_monotone_and_bounded(self, rng):
        # Monotonicity in the horizon plus the bound, over many random graphs.
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 11))
            w = random_weight_matrix(rng, n)
            short = verify_mixing_bound(w, 20)
            longer = verify_mixing_bound(w, 60)
            assert np.all(longer.partial_sums >= short.partial_sums - 1e-12)
            assert short.all_within() and longer.all_within()
            checked += 1

    def test_rejects_bad_horizon(self):
        w = validate_weight_matrix(W_EXAMPLE)
        with pytest.raises(ValueError):
            verify_mixing_bound(w, 0)
