"""Directed communication graphs with row-stochastic confidence weights.

Validates that a weight matrix describes a strongly connected, aperiodic
network, computes its unique stationary distribution and second-largest
eigenvalue modulus, and checks the mixing bound 4*log(N)/(1 - lambda_max)
against brute-force partial sums of |W^k - v|.

All types are immutable after construction and all operations are pure
functions, so they are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ROW_SUM_TOL = 1e-9


class GraphError(ValueError):
    """Base class for weight-matrix validation failures."""


class NotStochasticError(GraphError):
    """A row is not a probability vector (bad sum or negative entry)."""

    def __init__(self, row: int, detail: str):
        self.row = row
        super().__init__(f"row {row}: {detail}")


class NotStronglyConnectedError(GraphError):
    """The positivity pattern of W is not strongly connected."""

    def __init__(self, unreachable: list[int], direction: str):
        self.unreachable = unreachable
        super().__init__(
            f"nodes {unreachable} are {direction} node 0; "
            "the directed graph is not strongly connected"
        )


class PeriodicError(GraphError):
    """The chain is periodic (gcd of cycle lengths exceeds 1)."""

    def __init__(self, period: int):
        self.period = period
        super().__init__(f"chain is periodic with period {period}")


@dataclass(frozen=True)
class WeightMatrix:
    """Row-stochastic confidence matrix over a directed graph.

    Entry ``weights[i, j]`` is the confidence node i places in node j;
    it is positive exactly when j is an in-neighbor of i (self-loops
    allowed). Every row sums to 1 within ``ROW_SUM_TOL``.
    """

    n_nodes: int
    weights: np.ndarray

    def __post_init__(self):
        self.weights.setflags(write=False)


@dataclass(frozen=True)
class SpectralSummary:
    """Stationary distribution, subdominant eigenvalue modulus and mixing bound."""

    stationary: np.ndarray
    lambda_max: float
    mixing_bound: float

    def __post_init__(self):
        self.stationary.setflags(write=False)


@dataclass(frozen=True)
class MixingBoundReport:
    """Partial sums of |W^k - v| per node against the mixing bound.

    ``spectral`` is the summary the bound was taken from.
    """

    spectral: SpectralSummary
    horizon: int
    partial_sums: np.ndarray
    bound: float
    within_bound: np.ndarray

    def all_within(self) -> bool:
        return bool(np.all(self.within_bound))


def _levels(adjacency: np.ndarray) -> np.ndarray:
    """Breadth-first distance of each node from node 0, -1 where it is unreachable."""
    level = np.full(adjacency.shape[0], -1)
    level[0] = 0
    queue = [0]
    for u in queue:  # the queue grows as it is read
        fresh = np.flatnonzero(adjacency[u] & (level < 0))
        level[fresh] = level[u] + 1
        queue.extend(fresh.tolist())
    return level


def validate_weight_matrix(raw) -> WeightMatrix:
    """Validate a raw square matrix as a usable confidence matrix.

    Accepts the matrix iff every row is stochastic within ``ROW_SUM_TOL``,
    the directed graph of positive entries is strongly connected, and the
    chain is aperiodic. Raises ``NotStochasticError``,
    ``NotStronglyConnectedError`` or ``PeriodicError`` otherwise, naming
    the first offending row or the offending structure. Breadth-first levels
    from node 0 on the graph and its transpose find unreachable nodes; the
    period is the gcd of ``level[u] + 1 - level[v]`` over the edges u -> v.
    """
    w = np.array(raw, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"weight matrix must be square, got shape {w.shape}")
    if w.size == 0:
        raise ValueError("weight matrix is empty")
    if not np.isfinite(w).all():
        raise ValueError("weight matrix contains non-finite entries")
    negative = w < 0.0
    sums = w.sum(axis=1)
    bad = negative.any(axis=1) | (np.abs(sums - 1.0) > ROW_SUM_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        if negative[i].any():
            j = int(np.argmax(negative[i]))
            raise NotStochasticError(i, f"negative entry {w[i, j]!r} at column {j}")
        raise NotStochasticError(i, f"sums to {float(sums[i])!r}, expected 1")

    adjacency = w > 0.0
    level = _levels(adjacency)
    unreachable = np.flatnonzero(level < 0).tolist()
    if unreachable:
        raise NotStronglyConnectedError(unreachable, "unreachable from")
    unreachable = np.flatnonzero(_levels(adjacency.T) < 0).tolist()
    if unreachable:
        raise NotStronglyConnectedError(unreachable, "unable to reach")
    rows, cols = np.nonzero(adjacency)
    period = math.gcd(*(level[rows] + 1 - level[cols]).tolist())
    if period != 1:
        raise PeriodicError(period)
    return WeightMatrix(n_nodes=w.shape[0], weights=w)


def stationary_distribution(w: WeightMatrix) -> np.ndarray:
    """Unique probability vector v with v W = v, by one linear solve.

    The system is ``(W^T - I) v = 0`` with its last equation replaced by
    ``sum(v) = 1``. It is nonsingular for a validated W: W is irreducible,
    so the eigenvalue 1 is simple and ``W^T - I`` has rank N - 1. Its rows
    add up to zero, and that is their only dependency, so the first N - 1
    rows are independent; the all-ones row lies outside their span, which
    is orthogonal to v while ``1 . v = 1``.
    """
    n = w.n_nodes
    system = w.weights.T - np.eye(n)
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    v = np.linalg.solve(system, rhs)
    return v / v.sum()


def spectral_gap(w: WeightMatrix) -> SpectralSummary:
    """Stationary distribution plus the second-largest eigenvalue modulus.

    The weight matrix is generally non-symmetric, so eigenvalues may be
    complex; ``lambda_max`` is the largest modulus after excluding the
    single eigenvalue at 1, or 0 on one node. The mixing bound is
    4*log(N)/(1 - lambda_max); ``GraphError`` if ``lambda_max`` rounds to 1.
    """
    stationary = stationary_distribution(w)
    eigenvalues = np.linalg.eigvals(w.weights)
    perron = int(np.argmin(np.abs(eigenvalues - 1.0)))
    others = np.delete(eigenvalues, perron)
    lambda_max = float(np.max(np.abs(others), initial=0.0))
    if lambda_max >= 1.0:
        raise GraphError(f"second-largest eigenvalue modulus is {lambda_max!r}, not below 1")
    mixing_bound = 4.0 * math.log(w.n_nodes) / (1.0 - lambda_max)
    return SpectralSummary(
        stationary=stationary, lambda_max=lambda_max, mixing_bound=mixing_bound
    )


def verify_mixing_bound(w: WeightMatrix, horizon: int) -> MixingBoundReport:
    """Brute-force check of the mixing bound up to ``horizon`` steps.

    For each node i, accumulates sum_{k=1..horizon} sum_j |W^k_{ij} - v_j|
    and reports whether it stays below 4*log(N)/(1 - lambda_max).
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    summary = spectral_gap(w)
    v = summary.stationary
    power = np.eye(w.n_nodes)
    partial = np.zeros(w.n_nodes)
    for _ in range(horizon):
        power = power @ w.weights
        partial += np.abs(power - v[None, :]).sum(axis=1)
    within = partial <= summary.mixing_bound + 1e-12
    return MixingBoundReport(
        spectral=summary,
        horizon=horizon,
        partial_sums=partial,
        bound=summary.mixing_bound,
        within_bound=within,
    )
