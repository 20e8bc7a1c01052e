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


def _reachable(adjacency: np.ndarray, start: int) -> np.ndarray:
    """Boolean reachability from ``start`` by depth-first search."""
    n = adjacency.shape[0]
    seen = np.zeros(n, dtype=bool)
    stack = [start]
    seen[start] = True
    while stack:
        u = stack.pop()
        for v in np.flatnonzero(adjacency[u]):
            if not seen[v]:
                seen[v] = True
                stack.append(int(v))
    return seen


def _period(adjacency: np.ndarray) -> int:
    """Period of a strongly connected directed graph.

    Breadth-first levels from node 0; the gcd of (level[u] + 1 - level[v])
    over all edges u -> v is the gcd of all cycle lengths through node 0,
    which equals the period of the chain.
    """
    n = adjacency.shape[0]
    level = np.full(n, -1, dtype=int)
    level[0] = 0
    queue = [0]
    while queue:
        u = queue.pop(0)
        for v in np.flatnonzero(adjacency[u]):
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(int(v))
    g = 0
    rows, cols = np.nonzero(adjacency)
    for u, v in zip(rows, cols):
        g = math.gcd(g, int(level[u]) + 1 - int(level[v]))
    return abs(g) if g != 0 else 0


def validate_weight_matrix(raw) -> WeightMatrix:
    """Validate a raw square matrix as a usable confidence matrix.

    Accepts the matrix iff every row is stochastic within ``ROW_SUM_TOL``,
    the directed graph of positive entries is strongly connected, and the
    chain is aperiodic. Raises ``NotStochasticError``,
    ``NotStronglyConnectedError`` or ``PeriodicError`` otherwise, naming
    the offending row or structure.
    """
    w = np.array(raw, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"weight matrix must be square, got shape {w.shape}")
    if w.size == 0:
        raise ValueError("weight matrix is empty")
    if not np.all(np.isfinite(w)):
        raise ValueError("weight matrix contains non-finite entries")
    n = w.shape[0]
    for i in range(n):
        if np.any(w[i] < 0.0):
            j = int(np.flatnonzero(w[i] < 0.0)[0])
            raise NotStochasticError(i, f"negative entry {w[i, j]!r} at column {j}")
        row_sum = float(w[i].sum())
        if abs(row_sum - 1.0) > ROW_SUM_TOL:
            raise NotStochasticError(i, f"sums to {row_sum!r}, expected 1")

    adjacency = w > 0.0
    forward = _reachable(adjacency, 0)
    if not forward.all():
        raise NotStronglyConnectedError(
            [int(i) for i in np.flatnonzero(~forward)], "unreachable from"
        )
    backward = _reachable(adjacency.T, 0)
    if not backward.all():
        raise NotStronglyConnectedError(
            [int(i) for i in np.flatnonzero(~backward)], "unable to reach"
        )

    # Any self-loop makes the chain aperiodic; otherwise fall back to the
    # gcd of cycle lengths.
    if not np.any(np.diag(w) > 0.0):
        period = _period(adjacency)
        if period != 1:
            raise PeriodicError(period)

    return WeightMatrix(n_nodes=n, weights=w)


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
    single eigenvalue at 1. The mixing bound is 4*log(N)/(1 - lambda_max)
    with the natural logarithm; ``GraphError`` if ``lambda_max`` rounds to 1.
    """
    stationary = stationary_distribution(w)
    eigenvalues = np.linalg.eigvals(w.weights)
    if w.n_nodes == 1:
        lambda_max = 0.0
    else:
        perron = int(np.argmin(np.abs(eigenvalues - 1.0)))
        others = np.delete(eigenvalues, perron)
        lambda_max = float(np.max(np.abs(others)))
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
