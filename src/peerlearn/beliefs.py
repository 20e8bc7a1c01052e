"""Log-space belief vectors over a finite parameter set.

Implements the weighted log-geometric-mean consensus merge and the one
normalization kernel that the merge and the discrete round engine share:
clamp at the floating floor, then log-sum-exp normalize. All arithmetic
stays in natural-log space so that products over thousands of rounds
never underflow.

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


def row_normalize(log_rows: np.ndarray, scratch: np.ndarray, peak: np.ndarray) -> np.ndarray:
    """Clamp at the floor and log-sum-exp normalize each row of ``log_rows`` in place.

    ``log_rows`` is ``(T, N, M)``; ``peak`` is each row's maximum before
    clamping, and ``scratch`` is a buffer of the rows' shape. Returns, per
    trial, whether the floor fired.
    """
    fired = log_rows.min(axis=(1, 2)) < LOG_FLOOR
    np.maximum(log_rows, LOG_FLOOR, out=log_rows)
    peak = np.maximum(peak, LOG_FLOOR)  # the clamped rows' maximum
    np.exp(np.subtract(log_rows, peak, out=scratch), out=scratch)
    log_rows -= peak + np.log(scratch.sum(axis=-1, keepdims=True))
    return fired


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
    rows = (weights @ stacked)[None, None]
    fired = row_normalize(rows, np.empty_like(rows), rows.max(axis=-1, keepdims=True))
    return BeliefVector(log_weights=rows[0, 0], normalized=True, clamped=bool(fired[0]))
