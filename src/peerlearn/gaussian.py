"""Conjugate-Gaussian beliefs for distributed linear regression.

Beliefs are kept in information form (mean plus precision matrix): the
consensus merge is additive in the precision, so no repeated inversions
are needed. Positive definiteness is enforced by a symmetric
factorization at every construction; a failure is a hard error because it
always indicates a scenario bug.

The discretized consensus oracle evaluates the same merge through the
discrete belief engine on a grid and exists to certify the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .beliefs import BeliefVector, WeightMismatchError, consensus_update
from .models import ParameterSet

_SYMMETRY_TOL = 1e-10
_WEIGHT_TOL = 1e-9


class SingularPrecisionError(ValueError):
    """A precision matrix failed the positive-definite factorization."""


@dataclass(frozen=True)
class GaussianBelief:
    """Gaussian distribution over parameters in mean/precision form."""

    mean: np.ndarray
    precision: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        precision = np.asarray(self.precision, dtype=float)
        if mean.ndim != 1 or precision.shape != (mean.size, mean.size):
            raise ValueError("mean must be a vector and precision a matching square matrix")
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean must be finite")
        if np.max(np.abs(precision - precision.T)) > _SYMMETRY_TOL * max(
            1.0, float(np.max(np.abs(precision)))
        ):
            raise SingularPrecisionError("precision matrix is not symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "precision", precision)
        # The factorization doubles as the positive-definiteness gate.
        object.__setattr__(self, "_chol", _factor(precision))
        mean.setflags(write=False)
        precision.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.mean.size

    def covariance(self) -> np.ndarray:
        return cho_solve(self._chol, np.eye(self.dim))

    def log_density(self, points: np.ndarray) -> np.ndarray:
        """Log density at each row of ``points``."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        centered = pts - self.mean[None, :]
        quad = np.einsum("si,ij,sj->s", centered, self.precision, centered)
        logdet = 2.0 * float(np.sum(np.log(np.diag(self._chol[0]))))
        return 0.5 * (logdet - self.dim * math.log(2.0 * math.pi) - quad)


def _factor(precision: np.ndarray):
    try:
        return cho_factor(precision, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SingularPrecisionError(f"precision is not positive definite: {exc}") from exc


def from_mean_covariance_diag(mean, variance_diag) -> GaussianBelief:
    """Build a belief from a mean vector and a diagonal covariance."""
    variances = np.asarray(variance_diag, dtype=float)
    if np.any(variances <= 0):
        raise SingularPrecisionError("covariance diagonal must be positive")
    return GaussianBelief(mean=np.asarray(mean, dtype=float),
                          precision=np.diag(1.0 / variances))


def gaussian_consensus(beliefs) -> GaussianBelief:
    """Merge (belief, weight) pairs: precisions average, means solve the blend.

    The merged precision is the weighted sum of input precisions and the
    merged mean solves it against the weighted sum of precision-weighted
    means, which is the closed form of the log-geometric-mean merge for
    Gaussian inputs.
    """
    if not beliefs:
        raise WeightMismatchError("consensus requires at least one belief")
    weights = np.array([w for _, w in beliefs], dtype=float)
    if np.any(weights < 0):
        raise WeightMismatchError("consensus weights must be nonnegative")
    if abs(weights.sum() - 1.0) > _WEIGHT_TOL:
        raise WeightMismatchError(f"weights sum to {weights.sum()!r}, expected 1")
    dim = beliefs[0][0].dim
    if any(b.dim != dim for b, _ in beliefs):
        raise ValueError("beliefs have mismatched dimensions")
    precision = np.zeros((dim, dim))
    shift = np.zeros(dim)
    for belief, weight in beliefs:
        precision += weight * belief.precision
        shift += weight * (belief.precision @ belief.mean)
    mean = cho_solve(_factor(precision), shift)
    return GaussianBelief(mean=mean, precision=precision)


def discretized_consensus_oracle(beliefs, weights, grid: ParameterSet) -> BeliefVector:
    """Run the consensus merge through the discrete engine on a grid.

    Evaluates every input Gaussian on the grid points, forms discrete
    belief vectors, and applies the discrete consensus merge. Used to
    certify that the closed-form merge matches the log-averaging rule.
    """
    discretized = [
        BeliefVector(log_weights=b.log_density(grid.points)) for b in beliefs
    ]
    return consensus_update(list(zip(discretized, weights)))
