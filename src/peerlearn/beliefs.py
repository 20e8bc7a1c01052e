"""Log-space belief vectors over a finite parameter set.

Implements the per-node belief machinery: uniform priors, the local
Bayesian posterior step, the weighted log-geometric-mean consensus merge,
and the argmax estimator. All arithmetic stays in natural-log space with
log-sum-exp normalization so that products over thousands of rounds never
underflow.

BeliefVector is a value type and every operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

LOG_FLOOR = -700.0

_NORM_TOL = 1e-9


class ZeroLikelihoodError(ValueError):
    """Every likelihood underflowed; the model does not support the label."""


class WeightMismatchError(ValueError):
    """Consensus weights are negative or do not sum to 1."""


class DimensionMismatchError(ValueError):
    """Consensus inputs do not share the same parameter set size."""


@dataclass
class BeliefVector:
    """Probability distribution over parameter indices, stored as logs.

    ``clamped`` records whether the floating floor fired during the
    normalization that produced this vector.
    """

    log_weights: np.ndarray
    normalized: bool = False
    clamped: bool = False

    @property
    def size(self) -> int:
        return self.log_weights.shape[0]

    def probabilities(self) -> np.ndarray:
        logs = self.log_weights
        if not self.normalized:
            logs = logs - logsumexp(logs)
        return np.exp(logs)

    def is_normalized(self, tol: float = _NORM_TOL) -> bool:
        return bool(abs(logsumexp(self.log_weights)) <= tol)


def _normalized_belief(raw_logs: np.ndarray) -> BeliefVector:
    """Clamp at the floating floor, then log-sum-exp normalize."""
    clipped = np.maximum(raw_logs, LOG_FLOOR)
    fired = bool(np.any(raw_logs < LOG_FLOOR))
    logs = clipped - logsumexp(clipped)
    return BeliefVector(log_weights=logs, normalized=True, clamped=fired)


def uniform_prior(n_params: int) -> BeliefVector:
    """Normalized belief placing mass 1/M on each of M parameters."""
    if n_params < 1:
        raise ValueError("parameter set must contain at least one point")
    logs = np.full(n_params, -np.log(n_params))
    return BeliefVector(log_weights=logs, normalized=True)


def bayesian_update(prior, model, theta_set, x, y) -> BeliefVector:
    """Posterior proportional to likelihood(y; theta, x) times the prior.

    ``model`` supplies per-parameter log likelihoods for the observed
    (x, y) pair over ``theta_set``. Raises ``ZeroLikelihoodError`` when no
    parameter assigns the label positive density.
    """
    log_lik = model.log_likelihood_matrix(theta_set.points, [x], [y])[0]
    combined = prior.log_weights + log_lik
    if not np.any(combined > -np.inf) or np.any(np.isnan(combined)):
        raise ZeroLikelihoodError(
            "every likelihood underflowed; model/support mismatch for the label"
        )
    return _normalized_belief(combined)


def consensus_update(publics) -> BeliefVector:
    """Weighted geometric mean of public beliefs, renormalized.

    ``publics`` is a sequence of (BeliefVector, weight) pairs; the output
    log-mass is the weight-averaged log-mass of the inputs. Constant
    shifts of any input's log weights cancel in the normalization, so
    unnormalized inputs are merged identically to normalized ones.
    """
    if not publics:
        raise DimensionMismatchError("consensus requires at least one input belief")
    vectors = [b for b, _ in publics]
    weights = np.array([w for _, w in publics], dtype=float)
    size = vectors[0].size
    if any(v.size != size for v in vectors):
        raise DimensionMismatchError("input beliefs cover different parameter sets")
    if np.any(weights < 0.0):
        raise WeightMismatchError("consensus weights must be nonnegative")
    if abs(weights.sum() - 1.0) > _NORM_TOL:
        raise WeightMismatchError(f"weights sum to {weights.sum()!r}, expected 1")
    stacked = np.stack([v.log_weights for v in vectors])
    return _normalized_belief(weights @ stacked)


def map_estimate(belief: BeliefVector) -> int:
    """Argmax parameter index; ties break deterministically to the lowest index."""
    return int(np.argmax(belief.log_weights))
