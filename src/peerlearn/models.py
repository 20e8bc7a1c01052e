"""Parameter sets, per-node likelihood models, and the separation table.

Three built-in model families cover every in-scope experiment:

* ``BernoulliContextModel`` -- binary labels whose success probability is
  one coordinate of the parameter vector, selected by the observed
  context index. A node's instance distribution is uniform over the
  contexts it can see, so nodes with partial visibility cannot separate
  parameters that agree on their visible coordinates.
* ``CategoricalContextModel`` -- same structure with a full probability
  row per context.
* ``LinearGaussianModel`` -- regression labels y = <theta, [1, x]> + noise
  with per-coordinate uniform instance ranges and a coordinate mask, so a
  node only excites the parameter directions it observes.

The two context families share one implementation: each maps a parameter
vector to an (n_contexts, K) label table, and a sample's likelihood is
one entry of it.

The expected KL to the truth is Monte Carlo over the instance
distribution, and all of one node's expectations share the same instance
draws: ``instance_support`` reduces them to the distinct instances and
their shares of the draws, a context family's by counting its drawn
indices. The conditional KL is exact and evaluated once per distinct
instance, then weighted by its share, so a context family's cost is
bounded by its number of contexts, not by the number of draws.

Model instances carry their own sampling methods but no generator state.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

DUPLICATE_TOL = 1e-12
ARGMIN_TIE_TOL = 1e-6


class UnboundedKLError(ValueError):
    """Supports mismatch: the truth puts mass where a likelihood has none."""

    def __init__(self, node: int, point: int):
        self.node, self.point = node, point
        super().__init__(f"node {node}: parameter {point} lacks support for the truth")


class NotGloballyLearnableError(ValueError):
    """No parameter is optimal for every node simultaneously."""


def _libm(function, values: np.ndarray) -> np.ndarray:
    """``function`` of each value, a ``math`` function and so the C library's."""
    return np.fromiter(map(function, memoryview(values)), float, values.size)


@np.errstate(over="ignore", invalid="ignore")  # a ratio past the range is inf, inf - inf NaN
def _rel_entr(x, y) -> np.ndarray:
    """``x log(x / y)``, the KL term, elementwise by the rule of ``scipy.special.rel_entr``.

    NaN in either argument gives NaN. Where ``x <= 0`` or ``y <= 0`` the
    term is 0 if ``x == 0 and y >= 0``, else +inf. A ratio ``x / y`` in
    ``(0.5, 2)`` takes ``log1p((x - y) / y)``, one in ``(DBL_MIN, inf)``
    takes ``log(x / y)``, and one that underflows or overflows takes
    ``log(x) - log(y)``. The logs come from ``math``, which calls the C
    library's ``log`` and ``log1p`` as scipy does (numpy's own may take
    SIMD routes that round otherwise); numpy's quotients, differences and
    products round as IEEE 754 requires, so the terms are scipy's to the bit.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    terms = np.where((x == 0.0) & (y >= 0.0), 0.0, np.inf)
    terms[np.isnan(x) | np.isnan(y)] = np.nan
    positive = (x > 0.0) & (y > 0.0)
    x, y = x[positive], y[positive]
    ratio = x / y
    near = (0.5 < ratio) & (ratio < 2.0)
    far = ~near & ~((sys.float_info.min < ratio) & (ratio < math.inf))
    mid = ~(near | far)
    logs = np.empty(ratio.shape)
    logs[near] = _libm(math.log1p, (x[near] - y[near]) / y[near])
    logs[mid] = _libm(math.log, ratio[mid])
    logs[far] = _libm(math.log, x[far]) - _libm(math.log, y[far])
    terms[positive] = x * logs
    return terms


@functools.cache
def _projection(d: int) -> np.ndarray:
    """The duplicate search's fixed projection: weights in irrational ratios, ``sum|w| = 1/4``."""
    w = np.sqrt(np.arange(2.0, d + 2.0))
    w /= 4.0 * w.sum()
    w.setflags(write=False)  # shared by every call
    return w


@np.errstate(over="ignore")  # a far pair's difference may overflow; inf is no duplicate
def _closest_duplicate(pts: np.ndarray) -> tuple[int, int] | None:
    """The closest pair ``(a, b)``, ``a < b``, of points within ``DUPLICATE_TOL``, or None.

    Two points are duplicates when every coordinate's computed difference
    is at most ``DUPLICATE_TOL`` in magnitude, and the closest pair has the
    least such L-inf gap, ties going to the lowest ``(a, b)``. The points
    are sorted by one projection ``s = pts @ w`` with ``sum|w| = 1/4``, so
    ``s`` cannot overflow. A duplicate pair's projections differ by at most
    ``window``: its share of the tolerance plus the rounding of both dot
    products, with slack for the rounding of the window itself. So a pair
    ``k`` places apart in sort order is compared only where the projections
    ``k`` places apart lie within the window; the sweep goes on with
    ``k + 1`` from the positions still within it and stops when none is.
    Time is O(M log M) plus the pairs compared, memory O(M).
    """
    m, d = pts.shape
    s = pts @ _projection(d)
    order = np.argsort(s, kind="stable")
    s = s[order]
    reach = float(np.abs(pts).max()) if d else 0.0
    window = 0.25 * (DUPLICATE_TOL + 2.0 * (d + 1) * 2.0**-53 * reach) * (1.0 + 1e-9)
    found = []
    k, start = 1, np.flatnonzero(s[1:] - s[:-1] <= window)
    while start.size:
        a, b = order[start], order[start + k]
        gaps = np.abs(pts[a] - pts[b]).max(axis=1, initial=0.0)
        hit = np.flatnonzero(gaps <= DUPLICATE_TOL)
        if hit.size:
            gaps, low, high = gaps[hit], np.minimum(a[hit], b[hit]), np.maximum(a[hit], b[hit])
            j = np.lexsort((high, low, gaps))[0]
            found.append((gaps[j], int(low[j]), int(high[j])))
        k += 1
        start = start[start < m - k]
        start = start[s[start + k] - s[start] <= window]
    return min(found)[1:] if found else None


@dataclass(frozen=True)
class ParameterSet:
    """Finite set of candidate parameter vectors with stable indices.

    The points must be finite and pairwise farther apart than
    ``DUPLICATE_TOL`` in L-inf; ``_closest_duplicate`` names the pair that
    is not, by a sort-based search linear in memory.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("parameter points must form a 2-D array (M, d)")
        if pts.shape[0] < 2:
            raise ValueError("parameter set needs at least two points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("parameter points must be finite")
        pair = _closest_duplicate(pts)
        if pair is not None:
            raise ValueError(f"duplicate parameter points at indices {pair[0]} and {pair[1]}")
        object.__setattr__(self, "points", pts)
        pts.setflags(write=False)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


class LikelihoodModel:
    """Per-node observation model: instance law, label law, and likelihoods.

    Subclasses implement sampling, the closed-form conditional KL to the
    truth and ``log_likelihood_matrix``, from which ``log_likelihood_codes``
    has a default. ``thetas`` arguments are (M, param_dim) candidate arrays.
    """

    node_id: int
    param_dim: int

    def sample_instances(self, rng: np.random.Generator, size: int):
        raise NotImplementedError

    def sample_labels(self, rng: np.random.Generator, xs):
        raise NotImplementedError

    def log_likelihood_matrix(self, thetas: np.ndarray, xs, ys) -> np.ndarray:
        """Log likelihoods for a whole sample batch, shape (len(xs), M)."""
        raise NotImplementedError

    def log_likelihood_codes(self, thetas: np.ndarray):
        """``log_likelihood_matrix`` in two steps, with ``thetas`` bound: ``(encode, gather)``.

        ``encode(xs, ys)`` gives one code per sample, here the row ``[x, y]``,
        and ``gather(codes, out=None)`` their ``(len(codes), M)`` log likelihoods.
        """
        def gather(codes, out=None):
            out = np.empty((len(codes), len(thetas))) if out is None else out
            out[...] = self.log_likelihood_matrix(thetas, codes[:, :-1], codes[:, -1])
            return out
        return (lambda xs, ys: np.column_stack([xs, ys])), gather

    def kl_to_truth(self, thetas: np.ndarray, xs) -> np.ndarray:
        """Conditional KL(truth || likelihood(theta)) per (theta, instance)."""
        raise NotImplementedError

    def likelihood_bounds(self, thetas: np.ndarray) -> tuple[float, float] | None:
        """(alpha, L) with 0 < alpha <= likelihood <= L over the set, or None."""
        return None

    def validate_parameters(self, thetas: np.ndarray) -> None:
        """Reject parameter vectors the family cannot interpret."""
        if thetas.shape[1] != self.param_dim:
            raise ValueError(
                f"node {self.node_id}: parameters have dimension {thetas.shape[1]}, "
                f"expected {self.param_dim}"
            )


class ContextModel(LikelihoodModel):
    """Discrete labels whose law depends only on a context index.

    ``true_table`` is the (n_contexts, K) label law; ``visible`` lists the
    context indices this node draws uniformly at random. A family maps its
    parameter vectors to (M, n_contexts, K) label tables in ``_tables``.
    """

    def __init__(self, node_id: int, true_table, visible):
        self.node_id = node_id
        table = np.asarray(true_table, dtype=float)
        if table.ndim != 2 or not (table >= 0).all():  # NaN fails the comparison
            raise ValueError("true_table must be a nonnegative (contexts, labels) matrix")
        if not (np.abs(table.sum(axis=1) - 1.0) <= 1e-9).all():
            raise ValueError("every true_table row must sum to 1")
        self.true_table = table
        self.n_contexts, self.n_labels = table.shape
        self.visible = np.asarray(sorted(set(int(i) for i in visible)), dtype=int)
        if self.visible.size == 0:
            raise ValueError("a node must observe at least one context")
        if self.visible[0] < 0 or self.visible[-1] >= self.n_contexts:
            raise ValueError("visible context index out of range")

    def _tables(self, thetas) -> np.ndarray:
        raise NotImplementedError

    def _log_tables(self, thetas) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self._tables(thetas))

    def sample_instances(self, rng, size):
        return self.visible[rng.integers(0, self.visible.size, size=size)]

    def sample_labels(self, rng, xs):
        cdf = np.cumsum(self.true_table[xs], axis=1)
        u = rng.random(len(xs))
        return (u[:, None] > cdf).sum(axis=1).astype(np.int64)

    def log_likelihood_codes(self, thetas):
        """Codes ``x * K + y`` (narrowest unsigned type) index an (n_contexts * K, M) log table.

        ``encode`` raises ``ValueError`` unless ``0 <= x < n_contexts`` and
        ``0 <= y < K``; the gather clips codes rather than checking them, so
        they must come from ``encode``.
        """
        table = np.ascontiguousarray(self._log_tables(thetas).reshape(len(thetas), -1).T)
        code_type = np.min_scalar_type(len(table) - 1)

        def encode(xs, ys):
            xs, ys = np.asarray(xs), np.asarray(ys)
            if (xs.min(initial=0) < 0 or xs.max(initial=0) >= self.n_contexts
                    or ys.min(initial=0) < 0 or ys.max(initial=0) >= self.n_labels):
                raise ValueError(f"node {self.node_id}: a sample lies outside "
                                 f"{self.n_contexts} contexts and {self.n_labels} labels")
            return (xs * self.n_labels + ys).astype(code_type)

        return encode, functools.partial(table.take, axis=0, mode="clip")

    def log_likelihood_matrix(self, thetas, xs, ys):
        encode, gather = self.log_likelihood_codes(thetas)
        return gather(encode(xs, ys))

    def kl_to_truth(self, thetas, xs):
        tables = self._tables(thetas)
        kl = np.empty((len(thetas), len(xs)))
        # Per context, so the rule's temporaries hold one context's cells.
        for i, x in enumerate(xs):
            kl[:, i] = _rel_entr(self.true_table[x], tables[:, x]).sum(axis=1)
        return kl

    def likelihood_bounds(self, thetas):
        """None when some visible label has probability 0: the log-ratio is unbounded."""
        values = self._tables(thetas)[:, self.visible]
        low = float(values.min())
        return None if low == 0.0 else (low, float(values.max()))

    def validate_parameters(self, thetas):
        super().validate_parameters(thetas)
        tables = self._tables(thetas)
        if tables.min() < 0 or np.abs(tables.sum(axis=2) - 1.0).max() > 1e-9:
            raise ValueError(
                f"node {self.node_id}: parameters must give a label distribution per context"
            )


class BernoulliContextModel(ContextModel):
    """Binary labels with per-context success probabilities.

    ``true_probs`` is the success probability per context; a parameter
    vector holds one success probability per context.
    """

    def __init__(self, node_id: int, true_probs, visible):
        probs = np.asarray(true_probs, dtype=float)
        if probs.ndim != 1:
            raise ValueError("true_probs must be a vector")
        bad = np.flatnonzero(~((probs >= 0) & (probs <= 1)))  # NaN fails both comparisons
        if bad.size:
            raise ValueError(f"true_probs[{bad[0]}] must lie in [0, 1]")
        super().__init__(node_id, self._tables(probs[None])[0], visible)
        self.param_dim = self.n_contexts

    def _tables(self, thetas):
        return np.concatenate([1.0 - thetas[..., None], thetas[..., None]], axis=2)

    def _log_tables(self, thetas):
        with np.errstate(divide="ignore"):
            return np.stack([np.log1p(-thetas), np.log(thetas)], axis=2)

    def sample_labels(self, rng, xs):
        return (rng.random(len(xs)) < self.true_table[xs, 1]).astype(np.int64)


class CategoricalContextModel(ContextModel):
    """Labels in {0..K-1} with a probability row per context.

    Parameter vectors are row-major flattenings of (n_contexts, K) tables
    whose rows each sum to 1.
    """

    def __init__(self, node_id: int, true_table, visible):
        super().__init__(node_id, true_table, visible)
        self.param_dim = self.n_contexts * self.n_labels

    def _tables(self, thetas):
        return thetas.reshape(thetas.shape[0], self.n_contexts, self.n_labels)


def augment(xs) -> np.ndarray:
    """Regression design rows ``[1, x]``: a leading 1 on the last axis."""
    xs = np.asarray(xs, dtype=float)
    return np.concatenate([np.ones(xs.shape[:-1] + (1,)), xs], axis=-1)


class LinearGaussianModel(LikelihoodModel):
    """Regression labels y = <theta, [1, x]> + Gaussian noise.

    ``ranges`` gives a uniform sampling interval per instance coordinate;
    coordinates outside ``observed`` are pinned to zero, which is how a
    node with a deficient instance space is expressed. Gaussian densities
    are unbounded below, so no (alpha, L) likelihood bounds are declared.
    """

    def __init__(self, node_id: int, true_theta, ranges, observed, noise_std: float):
        self.node_id = node_id
        self.true_theta = np.asarray(true_theta, dtype=float)
        self.ranges = np.asarray(ranges, dtype=float).reshape(-1, 2)
        self.observed = sorted(set(int(i) for i in observed))
        if any(i < 0 or i >= self.ranges.shape[0] for i in self.observed):
            raise ValueError("observed coordinate index out of range")
        if not all(lo < hi and math.isfinite(hi - lo) for lo, hi in self.ranges.tolist()):
            raise ValueError("every range must have low < high and a finite width")
        if not noise_std > 0:
            raise ValueError("noise_std must be positive")
        self.noise_std = float(noise_std)
        self.noise_var = self.noise_std**2
        if not 0.0 < self.noise_var < math.inf:
            raise ValueError("noise_std's square, the noise variance, must be positive and finite")
        self.instance_dim = self.ranges.shape[0]
        if self.true_theta.shape != (self.instance_dim + 1,):
            raise ValueError("true_theta must have length instance_dim + 1")
        if not np.isfinite(self.true_theta).all():
            raise ValueError("true_theta must be finite")
        self.param_dim = self.instance_dim + 1

    def sample_instances(self, rng, size):
        xs = np.zeros((size, self.instance_dim))
        for j in self.observed:
            lo, hi = self.ranges[j]
            xs[:, j] = rng.uniform(lo, hi, size=size)
        return xs

    def sample_labels(self, rng, xs):
        means = augment(xs) @ self.true_theta
        return means + self.noise_std * rng.standard_normal(len(means))

    def log_likelihood_matrix(self, thetas, xs, ys):
        residuals = (np.asarray(ys)[:, None] - augment(xs) @ thetas.T) / self.noise_std
        return -0.5 * residuals**2 - math.log(self.noise_std * math.sqrt(2.0 * math.pi))

    def kl_to_truth(self, thetas, xs):
        proj = augment(xs) @ (thetas - self.true_theta[None, :]).T
        return proj.T**2 / (2.0 * self.noise_var)


@dataclass(frozen=True)
class SeparationTable:
    """Per-node KL geometry of a parameter set.

    ``kl_to_truth[j, a]`` is node j's expected KL from the truth to
    parameter a. ``local_optima[j]`` holds node j's KL-minimizing indices,
    ``global_optima`` their intersection, and ``separation_rate`` the
    minimum, over a globally optimal a and any other b, of the
    stationary-weighted KL gap ``sum_j v_j (kl_to_truth[j, b] -
    kl_to_truth[j, a])``; it is +inf when every parameter is globally
    optimal.
    """

    kl_to_truth: np.ndarray
    local_optima: tuple[tuple[int, ...], ...]
    global_optima: tuple[int, ...]
    separation_rate: float


def instance_support(model, mc_samples: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """A node's distinct Monte Carlo instances, ascending, and their shares of the draws.

    A context model's indices into ``visible`` are counted: 8 bytes a draw, no sort.
    """
    rng = np.random.default_rng([int(seed), int(model.node_id)])
    if isinstance(model, ContextModel):  # the indices that ``sample_instances`` draws
        counts = np.bincount(rng.integers(0, model.visible.size, size=mc_samples),
                             minlength=model.visible.size)
        return model.visible[counts > 0], counts[counts > 0] / mc_samples
    xs, counts = np.unique(model.sample_instances(rng, mc_samples), axis=0, return_counts=True)
    return xs, counts / mc_samples


def separation_table(models, theta_set: ParameterSet, stationary,
                     mc_samples: int = 2000, seed: int = 0) -> SeparationTable:
    """Expected KL to the truth per (node, parameter), and the separation rate.

    Each node's expectations share one set of instance draws. The rate's
    pairwise minimum splits into the weighted vector ``V = v @ kl``: it is
    the least ``V`` over non-optimal parameters minus the greatest over
    the global optima, so memory stays linear in the parameter count.
    Raises ``NotGloballyLearnableError`` when no parameter minimizes every
    node's expected KL simultaneously. The parameters are not checked
    against the models here: callers pass a set that ``parse_config`` or
    ``Scenario.validate`` has checked.
    """
    stationary = np.asarray(stationary, dtype=float)
    if len(models) != stationary.shape[0]:
        raise ValueError("stationary vector length must match the number of models")
    n_nodes, n_params = len(models), theta_set.n_points
    kl = np.empty((n_nodes, n_params))
    for j, model in enumerate(models):
        xs, shares = instance_support(model, mc_samples, seed)
        kl[j] = model.kl_to_truth(theta_set.points, xs) @ shares
        unbounded = np.flatnonzero(np.isinf(kl[j]))
        if unbounded.size:
            raise UnboundedKLError(j, int(unbounded[0]))

    near_min = kl <= kl.min(axis=1, keepdims=True) + ARGMIN_TIE_TOL
    local = tuple(tuple(int(i) for i in np.flatnonzero(row)) for row in near_min)
    optimal = near_min.all(axis=0)
    if not optimal.any():
        raise NotGloballyLearnableError(
            "no parameter is optimal for every node; per-node optima are "
            + ", ".join(str(list(ix)) for ix in local)
        )

    weighted = stationary @ kl
    rate = math.inf if optimal.all() else float(weighted[~optimal].min() - weighted[optimal].max())
    return SeparationTable(
        kl_to_truth=kl,
        local_optima=local,
        global_optima=tuple(int(i) for i in np.flatnonzero(optimal)),
        separation_rate=rate,
    )


def assumption_bounds(models, theta_set: ParameterSet) -> tuple[float, float] | None:
    """Network-wide likelihood bounds (alpha, L), or None if any family is unbounded."""
    bounds = [model.likelihood_bounds(theta_set.points) for model in models]
    if None in bounds:
        return None
    return min(low for low, _ in bounds), max(high for _, high in bounds)
