"""Shared scenario builders and the reference oracles for the test suite."""

import csv
import io
import json
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial import cKDTree
from scipy.special import logsumexp, rel_entr

from peerlearn import (
    BernoulliContextModel,
    GraphError,
    LinearGaussianModel,
    NotStochasticError,
    NotStronglyConnectedError,
    ParameterSet,
    PeriodicError,
    Scenario,
    WeightMatrix,
    ZeroLikelihoodError,
    make_regression_test_set,
    node_stream,
    validate_weight_matrix,
)
from peerlearn.beliefs import LOG_FLOOR, row_normalize
from peerlearn.graph import ROW_SUM_TOL
from peerlearn.models import DUPLICATE_TOL, augment

REGRESSION_THETA = [-0.3, 0.5, 0.8]
REGRESSION_RANGES = [[-1.0, 1.0], [-1.5, 1.5]]
REGRESSION_NOISE_STD = 0.8
REGRESSION_W = [[0.9, 0.1], [0.6, 0.4]]


def peak_bytes(fn) -> int:
    """Peak traced allocation while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def trial_samples(scenario: Scenario, trial: int = 0):
    """Each node's instances and labels, one per round, in the order the engines draw them.

    A node's stream is keyed by (master seed, trial, node); it yields all
    of the trial's instances first, then all of its labels.
    """
    instances, labels = [], []
    for node, model in enumerate(scenario.models):
        rng = node_stream(scenario.master_seed, trial, node)
        instances.append(model.sample_instances(rng, scenario.n_rounds))
        labels.append(model.sample_labels(rng, instances[-1]))
    return instances, labels


def random_weight_matrix(rng, n_nodes: int) -> WeightMatrix:
    """Random strongly connected aperiodic row-stochastic matrix.

    A directed ring plus self-loops guarantees both properties; extra
    random edges vary the spectrum.
    """
    w = rng.uniform(0.0, 1.0, (n_nodes, n_nodes)) * (rng.random((n_nodes, n_nodes)) < 0.4)
    for i in range(n_nodes):
        w[i, (i + 1) % n_nodes] = rng.uniform(0.2, 1.0)
        w[i, i] = rng.uniform(0.2, 1.0)
    w /= w.sum(axis=1, keepdims=True)
    return validate_weight_matrix(w)


def reference_weight_verdict(w: np.ndarray) -> GraphError | None:
    """The error ``validate_weight_matrix`` raises on a finite square ``w``, or None.

    Rows are checked one by one, a negative entry before the sum. The
    closure of ``(I + A)^(N-1)`` gives reachability, and the period is the
    gcd of the k <= 3N with ``(A^k)[0, 0] > 0``: every simple cycle has a
    closed walk through node 0 of length at most 2N - 2 that meets it, and
    that walk once more round the cycle is at most 3N - 2 long.
    """
    n = len(w)
    for i in range(n):
        for j in range(n):
            if w[i, j] < 0.0:
                return NotStochasticError(i, f"negative entry {w[i, j]!r} at column {j}")
        row_sum = float(w[i].sum())
        if abs(row_sum - 1.0) > ROW_SUM_TOL:
            return NotStochasticError(i, f"sums to {row_sum!r}, expected 1")
    edges = (w > 0.0).astype(np.int64)
    closure = np.eye(n, dtype=np.int64)
    for _ in range(n - 1):
        closure = np.minimum(closure @ (np.eye(n, dtype=np.int64) + edges), 1)
    if not closure[0].all():
        return NotStronglyConnectedError(np.flatnonzero(closure[0] == 0).tolist(), "unreachable from")
    if not closure[:, 0].all():
        return NotStronglyConnectedError(np.flatnonzero(closure[:, 0] == 0).tolist(), "unable to reach")
    walks, period = np.eye(n, dtype=np.int64), 0
    for k in range(1, 3 * n + 1):
        walks = np.minimum(walks @ edges, 1)
        if walks[0, 0]:
            period = math.gcd(period, k)
    return None if period == 1 else PeriodicError(period)


def in_neighbors(graph: WeightMatrix, node: int) -> np.ndarray:
    """Indices j with weights[node, j] > 0, including the node itself if looped."""
    return np.flatnonzero(graph.weights[node] > 0.0)


@dataclass
class BeliefVector:
    """Probability distribution over parameter indices, stored as logs.

    ``clamped`` records whether the floor fired in the normalization that
    produced the vector.
    """

    log_weights: np.ndarray
    normalized: bool = False
    clamped: bool = False

    def probabilities(self) -> np.ndarray:
        logs = self.log_weights
        if not self.normalized:
            logs = logs - logsumexp(logs)
        return np.exp(logs)


@dataclass(frozen=True)
class GaussianBelief:
    """Gaussian distribution over parameters in mean/precision form."""

    mean: np.ndarray
    precision: np.ndarray

    @property
    def dim(self) -> int:
        return self.mean.size

    def covariance(self) -> np.ndarray:
        return cho_solve(cho_factor(self.precision, lower=True), np.eye(self.dim))

    def log_density(self, points: np.ndarray) -> np.ndarray:
        """Log density at each row of ``points``."""
        centered = np.atleast_2d(np.asarray(points, dtype=float)) - self.mean[None, :]
        quad = np.einsum("si,ij,sj->s", centered, self.precision, centered)
        logdet = 2.0 * float(np.sum(np.log(np.diag(cho_factor(self.precision, lower=True)[0]))))
        return 0.5 * (logdet - self.dim * math.log(2.0 * math.pi) - quad)


def gaussian_consensus(beliefs) -> GaussianBelief:
    """Closed-form merge of (belief, weight) pairs: precisions average, means solve the blend.

    The merged precision is the weighted sum of the input precisions and
    the merged mean solves it against the weighted sum of the shifts
    (precision times mean): the log-geometric-mean merge of Gaussians.
    """
    dim = beliefs[0][0].dim
    precision = np.zeros((dim, dim))
    shift = np.zeros(dim)
    for belief, weight in beliefs:
        precision += weight * belief.precision
        shift += weight * (belief.precision @ belief.mean)
    return GaussianBelief(mean=cho_solve(cho_factor(precision, lower=True), shift),
                          precision=precision)


def normalized_belief(raw_logs) -> BeliefVector:
    """The reference normalization: clamp at the floor, then scipy's log-sum-exp.

    The oracles normalize with this, not with the engine's kernel
    ``peerlearn.beliefs.row_normalize``, so that they stay independent of
    the code they certify.
    """
    raw_logs = np.asarray(raw_logs, dtype=float)
    clipped = np.maximum(raw_logs, LOG_FLOOR)
    fired = bool(np.any(raw_logs < LOG_FLOOR))
    logs = clipped - logsumexp(clipped)
    return BeliefVector(log_weights=logs, normalized=True, clamped=fired)


def uniform_prior(n_params: int) -> BeliefVector:
    """Normalized belief placing mass 1/M on each of M parameters."""
    if n_params < 1:
        raise ValueError("parameter set must contain at least one point")
    return BeliefVector(log_weights=np.full(n_params, -np.log(n_params)), normalized=True)


def bayesian_update(prior: BeliefVector, model, theta_set, x, y) -> BeliefVector:
    """Posterior proportional to likelihood(y; theta, x) times the prior.

    Raises ``ZeroLikelihoodError`` when no parameter assigns the label
    positive density.
    """
    log_lik = model.log_likelihood_matrix(theta_set.points, [x], [y])[0]
    combined = prior.log_weights + log_lik
    if not np.any(combined > -np.inf) or np.any(np.isnan(combined)):
        raise ZeroLikelihoodError(
            "every likelihood underflowed; model/support mismatch for the label"
        )
    return normalized_belief(combined)


def reference_consensus(publics) -> BeliefVector:
    """Weighted geometric mean of (belief, weight) pairs, through the reference normalization."""
    weights = np.array([w for _, w in publics], dtype=float)
    return normalized_belief(weights @ np.stack([b.log_weights for b, _ in publics]))


def discrete_engine_merge(logs, weights):
    """One node's merge as the discrete round loop runs it: the product of its
    weight row with the publics' log-beliefs, then the normalization kernel.

    Returns the merged log-belief and whether the floor fired.
    """
    rows = np.matmul(np.asarray(weights, dtype=float)[None], np.stack(logs)[None])
    fired = row_normalize(rows, np.empty_like(rows), rows.max(axis=-1, keepdims=True))
    return rows[0, 0], bool(fired[0])


def gaussian_bayes_update(prior: GaussianBelief, x, y: float, noise_var: float) -> GaussianBelief:
    """Conjugate posterior after observing label ``y`` at instance ``x``.

    The instance is augmented with a leading 1 for the intercept. The
    precision gains the scaled outer product of the augmented instance and
    the mean solves the updated normal equations.
    """
    if noise_var <= 0:
        raise ValueError("noise_var must be positive")
    aug = np.concatenate(([1.0], np.asarray(x, dtype=float).ravel()))
    if aug.size != prior.dim:
        raise ValueError(f"instance of dimension {aug.size - 1} does not match belief")
    precision = prior.precision + np.outer(aug, aug) / noise_var
    shift = prior.precision @ prior.mean + aug * (y / noise_var)
    mean = cho_solve(cho_factor(precision, lower=True), shift)
    return GaussianBelief(mean=mean, precision=precision)


def three_node_bernoulli():
    """3-node network where only the network as a whole identifies the truth.

    Each node sees two of three contexts, Theta has 10 points, and for
    every node there is a decoy agreeing with the truth on exactly its
    visible contexts, so no node can identify the optimum alone while the
    intersection of local optima is the single true parameter (index 0).
    """
    graph = validate_weight_matrix(
        [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]]
    )
    star = [0.9, 0.1, 0.9]
    points = np.array(
        [
            star,
            [0.9, 0.1, 0.1],
            [0.1, 0.1, 0.9],
            [0.9, 0.9, 0.9],
            [0.1, 0.9, 0.9],
            [0.9, 0.9, 0.1],
            [0.1, 0.1, 0.1],
            [0.1, 0.9, 0.1],
            [0.3, 0.7, 0.3],
            [0.2, 0.8, 0.2],
        ]
    )
    theta_set = ParameterSet(points)
    models = [
        BernoulliContextModel(0, star, [0, 1]),
        BernoulliContextModel(1, star, [1, 2]),
        BernoulliContextModel(2, star, [0, 2]),
    ]
    return graph, theta_set, models


def regression_models():
    type1 = LinearGaussianModel(0, REGRESSION_THETA, REGRESSION_RANGES, [0],
                                REGRESSION_NOISE_STD)
    type2 = LinearGaussianModel(1, REGRESSION_THETA, REGRESSION_RANGES, [1],
                                REGRESSION_NOISE_STD)
    return [type1, type2]


def regression_scenario(n_rounds=2000, trials=1, master_seed=11,
                        cooperative=True, test_seed=99, test_size=1000) -> Scenario:
    """The two-node distributed linear-regression setup."""
    test_set = make_regression_test_set(
        test_size, REGRESSION_RANGES, REGRESSION_THETA, REGRESSION_NOISE_STD, test_seed
    )
    return Scenario(
        graph=validate_weight_matrix(REGRESSION_W),
        engine="gaussian",
        models=regression_models(),
        n_rounds=n_rounds,
        trials=trials,
        master_seed=master_seed,
        prior_mean=np.zeros(3),
        prior_variance_diag=np.full(3, 0.5),
        noise_var=REGRESSION_NOISE_STD**2,
        cooperative=cooperative,
        test_set=test_set,
    )


def covering_grid_world():
    """2-node Bernoulli world whose parameter set is a grid in a continuum.

    Each node sees one of two contexts; the truth (0.65, 0.35) is a grid
    point, every grid slice through it is one node's local optimum set,
    and their intersection is the single true index.
    """
    graph = validate_weight_matrix([[0.9, 0.1], [0.6, 0.4]])
    axis = np.array([0.2, 0.35, 0.5, 0.65, 0.8])
    points = np.array([[a, b] for a in axis for b in axis])
    theta_set = ParameterSet(points)
    star_index = int(np.argmax((points[:, 0] == 0.65) & (points[:, 1] == 0.35)))
    truth = points[star_index]
    models = [
        BernoulliContextModel(0, truth, [0]),
        BernoulliContextModel(1, truth, [1]),
    ]
    return graph, theta_set, models, star_index


def reference_closest_duplicate(points) -> tuple[int, int] | None:
    """The closest pair within ``DUPLICATE_TOL`` in L-inf, lowest indices on ties, by k-d tree."""
    points = np.asarray(points, dtype=float)
    pairs = cKDTree(points).query_pairs(DUPLICATE_TOL, p=np.inf, output_type="ndarray")
    if not len(pairs):
        return None
    gaps = np.abs(points[pairs[:, 0]] - points[pairs[:, 1]]).max(axis=1)
    a, b = pairs[np.lexsort((pairs[:, 1], pairs[:, 0], gaps))[0]]
    return int(a), int(b)


def pairwise_separation_rate(kl, stationary, global_optima) -> float:
    """Brute-force separation rate over every (optimal a, other b) pair.

    The minimum of ``sum_j v_j (kl[j, b] - kl[j, a])`` over a in
    ``global_optima`` and b outside it; +inf when there is no such b.
    """
    kl = np.asarray(kl, dtype=float)
    others = [b for b in range(kl.shape[1]) if b not in global_optima]
    if not others:
        return float("inf")
    gaps = kl[:, None, others] - kl[:, list(global_optima), None]
    return float(np.einsum("j,jab->ab", np.asarray(stationary, dtype=float), gaps).min())


def per_sample_kl_mean(true_table, tables, xs) -> np.ndarray:
    """Mean over the draws ``xs`` of KL(true_table[x] || tables[a, x]), per parameter a.

    The sample-by-sample form of a context family's expected KL; ``tables``
    holds each parameter's (n_contexts, K) label table.
    """
    true_table = np.asarray(true_table, dtype=float)
    tables = np.asarray(tables, dtype=float)
    return rel_entr(true_table[xs][None, :, :], tables[:, xs, :]).sum(axis=2).mean(axis=1)


def _label_tables(model, points) -> np.ndarray:
    """A context family's (n_contexts, K) label table of each parameter in ``points``."""
    if isinstance(model, BernoulliContextModel):
        return np.stack([1.0 - points, points], axis=-1)
    return points.reshape(points.shape[:-1] + (model.n_contexts, model.n_labels))


def exact_expected_kl(model, points) -> np.ndarray:
    """A context family's expected KL(truth || likelihood(theta)) per row theta of ``points``.

    The closed form of what ``separation_table`` estimates by Monte Carlo:
    the instance is uniform over the node's visible contexts, so the
    expectation is the mean over those contexts of each label table's KL.
    """
    tables = _label_tables(model, np.asarray(points, dtype=float))[:, model.visible]
    return rel_entr(model.true_table[model.visible], tables).sum(axis=2).mean(axis=1)


def _per_draw_kl(model, points, psi, xs) -> np.ndarray:
    """KL(likelihood(theta) || likelihood(psi)) per (row theta of ``points``, draw).

    From each point's (n_contexts, K) label table for the context families,
    from the closed form ``(a . (theta - psi))^2 / (2 s^2)`` with ``a = [1, x]``
    for the linear-Gaussian family.
    """
    if isinstance(model, LinearGaussianModel):
        design = np.column_stack([np.ones(len(xs)), xs])
        return (design @ (points - psi).T).T ** 2 / (2.0 * model.noise_std**2)
    return rel_entr(_label_tables(model, points)[:, xs], _label_tables(model, psi)[xs]).sum(axis=2)


def per_draw_covering_distances(phi, points, models, mc_samples: int, seed: int) -> np.ndarray:
    """Covering distance of each psi in ``phi``, averaged draw by draw.

    The least, over the rows theta of ``points``, of the node average of the
    mean KL(likelihood(theta) || likelihood(psi)) over each node's
    ``mc_samples`` draws from the stream ``default_rng([seed, node_id])``.
    The set covers ``phi`` at radius r when every distance is at most r.
    """
    points = np.asarray(points, dtype=float)
    draws = [m.sample_instances(np.random.default_rng([seed, m.node_id]), mc_samples)
             for m in models]
    return np.array([
        sum(_per_draw_kl(m, points, psi, xs).mean(axis=1) for m, xs in zip(models, draws)).min()
        / len(models)
        for psi in np.asarray(phi, dtype=float)
    ])


def risk_gap_chain(models, points, optimal_index: int, estimates, risk_fn,
                   label_risk_bound: float = 1.0, *, mc_samples: int, seed: int) -> dict:
    """The network-average risk gap and its bounds, for context families, draw by draw.

    Node j compares the optimal parameter with ``estimates[j]`` over ``mc_samples``
    draws from ``default_rng([seed, node_id])``; ``|risk_fn(xs, y)|`` must be at most
    ``label_risk_bound``. Returns ``risk_gap`` and its L1, Pinsker and Jensen bounds:
    each link of gap <= l1 <= pinsker <= jensen holds draw by draw, so the averages
    keep the ordering.
    """
    points = np.asarray(points, dtype=float)
    optimal = points[optimal_index]
    gaps, l1_terms, pinsker_sqrts, kl_means = [], [], [], []
    for model, estimate in zip(models, estimates):
        xs = model.sample_instances(np.random.default_rng([seed, model.node_id]), mc_samples)
        estimated = points[int(estimate)]
        risks = np.stack([risk_fn(xs, y) for y in range(model.n_labels)], axis=1)
        rows = [_label_tables(model, point)[xs] for point in (optimal, estimated)]
        gaps.append(abs((rows[0] * risks).sum(axis=1).mean()
                        - (rows[1] * risks).sum(axis=1).mean()))
        l1_terms.append(np.abs(rows[0] - rows[1]).sum(axis=1).mean())
        kls = _per_draw_kl(model, optimal[None, :], estimated, xs)[0]
        pinsker_sqrts.append(np.sqrt(2.0 * kls).mean())
        kl_means.append(kls.mean())
    return {
        "risk_gap": float(np.mean(gaps)),
        "l1_bound": float(label_risk_bound * np.mean(l1_terms)),
        "pinsker_bound": float(label_risk_bound * np.mean(pinsker_sqrts)),
        "jensen_bound": float(label_risk_bound * math.sqrt(2.0 * np.mean(kl_means))),
    }


def recursion_residual(scenario: Scenario, result) -> float:
    """Worst residual of criterion 4's log-belief recursion identity in trial 0's ``result``.

    With ``L[r]`` the log-likelihoods (node, parameter) of round r's
    samples, the identity says that ``log q_n - sum_{k=1..n} W^k L[n-k]`` is
    constant across parameters for each node. Returns the largest spread of
    that residual over the parameters, divided by n, over nodes and rounds n.
    """
    weights = scenario.graph.weights
    log_lik = np.stack([
        model.log_likelihood_matrix(scenario.theta_set.points, xs, ys)
        for model, xs, ys in zip(scenario.models, *trial_samples(scenario))
    ], axis=1)  # (rounds, nodes, params)
    powers = [weights]
    for _ in range(1, scenario.n_rounds):
        powers.append(powers[-1] @ weights)
    worst = 0.0
    for n in range(1, scenario.n_rounds + 1):
        accumulated = sum(powers[k - 1] @ log_lik[n - k] for k in range(1, n + 1))
        residual = result.belief_history[n - 1] - accumulated
        worst = max(worst, float((residual.max(axis=1) - residual.min(axis=1)).max()) / n)
    return worst


def floor_clamp_scenario(n_rounds=400, trials=1, cooperative=True) -> Scenario:
    """2-node Bernoulli world in which the -700 log-belief floor fires.

    One candidate puts probability 1e-300 on the label the truth emits
    almost always, so its log-belief falls below the floor in the second
    round and is clamped in every round after that.
    """
    truth = [0.999999]
    return Scenario(
        graph=validate_weight_matrix([[0.9, 0.1], [0.6, 0.4]]),
        engine="discrete",
        models=[BernoulliContextModel(i, truth, [0]) for i in range(2)],
        n_rounds=n_rounds,
        trials=trials,
        master_seed=3,
        theta_set=ParameterSet(np.array([truth, [1e-300], [0.5]])),
        cooperative=cooperative,
    )


def discrete_oracle(scenario: Scenario):
    """Per-node loop over the reference discrete belief operations.

    The reference the batched discrete engine is checked against: returns
    the log-belief and estimate histories of trial 0 and its clamp-event
    count, which counts, per round, the Bayes step and the merge step in
    which the floor fired for some node. An isolated node merges with
    itself alone, so both of its steps normalize as in a cooperative run.
    """
    graph, theta_set = scenario.graph, scenario.theta_set
    instances, labels = trial_samples(scenario)
    weights = graph.weights if scenario.cooperative else np.eye(graph.n_nodes)
    privates = [uniform_prior(theta_set.n_points)] * graph.n_nodes
    beliefs, estimates, clamp_events = [], [], 0
    for k in range(scenario.n_rounds):
        publics = [
            bayesian_update(q, model, theta_set, instances[i][k], labels[i][k])
            for i, (q, model) in enumerate(zip(privates, scenario.models))
        ]
        privates = [
            reference_consensus([(publics[j], weights[i, j]) for j in np.flatnonzero(weights[i])])
            for i in range(graph.n_nodes)
        ]
        clamp_events += any(p.clamped for p in publics) + any(q.clamped for q in privates)
        beliefs.append([q.log_weights for q in privates])
        estimates.append([int(np.argmax(q.log_weights)) for q in privates])
    return np.array(beliefs), np.array(estimates), clamp_events


def isin_success(results, global_optima):
    """Per-trial ``success``, ``empirical_error`` and ``first_all_success_round``, by ``np.isin``.

    The reference for the engine's table of optimal indices: a trial
    succeeds when every node's final estimate is globally optimal, and the
    first all-success round is the first in which every node of every trial
    holds a globally optimal estimate (None if there is none).
    """
    optima = list(global_optima)
    success = [bool(np.isin(r.estimate_history[-1], optima).all()) for r in results]
    every = np.isin(np.stack([r.estimate_history for r in results]), optima).all(axis=(0, 2))
    first = int(np.argmax(every)) if every.any() else None
    return success, success.count(False) / len(results), first


def gaussian_oracle(scenario: Scenario, central=False):
    """Per-node loop over the conjugate Bayes update and the public merge.

    The reference the batched gaussian engine is checked against: returns
    the mean, variance-diagonal and test-MSE histories of trial 0. With
    ``central`` a single node applies every node's sample each round.
    """
    instances, labels = trial_samples(scenario)
    prior = GaussianBelief(mean=np.asarray(scenario.prior_mean, dtype=float),
                           precision=np.diag(1.0 / np.asarray(scenario.prior_variance_diag)))
    graph, noise_var = scenario.graph, scenario.noise_var
    x_test, y_test = scenario.test_set
    aug_test = np.hstack([np.ones((len(y_test), 1)), x_test])
    privates = [prior] * (1 if central else graph.n_nodes)
    means, variances, mses = [], [], []
    for k in range(scenario.n_rounds):
        if central:
            for i in range(graph.n_nodes):
                privates[0] = gaussian_bayes_update(
                    privates[0], instances[i][k], labels[i][k], noise_var
                )
        else:
            publics = [
                gaussian_bayes_update(q, instances[i][k], labels[i][k], noise_var)
                for i, q in enumerate(privates)
            ]
            privates = publics if not scenario.cooperative else [
                gaussian_consensus(
                    [(publics[j], graph.weights[i, j]) for j in in_neighbors(graph, i)]
                )
                for i in range(graph.n_nodes)
            ]
        means.append([q.mean for q in privates])
        variances.append([np.diag(q.covariance()) for q in privates])
        mses.append([np.mean((aug_test @ q.mean - y_test) ** 2) for q in privates])
    return np.array(means), np.array(variances), np.array(mses)


def lapack_moments(precision, shift):
    """The gaussian engine's moments as it computed them before its entry-wise kernel.

    LAPACK's Cholesky factorization is the positive-definiteness gate and
    raises ``np.linalg.LinAlgError`` unless every precision in the batch
    passes; then the inverse gives the means ``P^-1 h`` and the variance
    diagonals. ``precision`` is ``(..., d, d)`` and ``shift`` ``(..., d)``.
    """
    np.linalg.cholesky(precision)
    covariance = np.linalg.inv(precision)
    return (np.einsum("...ab,...b->...a", covariance, shift),
            np.diagonal(covariance, axis1=-2, axis2=-1))


def reference_increments(xs, ys, noise_var: float) -> np.ndarray:
    """The gaussian engine's packed increments by its former formula, with the column of ones.

    ``xs`` is ``(d - 1, ..., S)`` and ``ys`` (labels over ``s^2``) ``(..., S)``.
    With the augmented instance ``a = [1, x]``, the precision entry ``(i, j)``
    sums ``(a_i a_j) / s^2`` and the shift entry ``i`` sums ``a_i (y / s^2)``
    over the S samples in order. Entries follow ``gaussian._pack``: the lower
    triangle row by row, then the shift, one array per entry.
    """
    aug = augment(np.moveaxis(xs, 0, -1))  # (..., S, d)
    dim = aug.shape[-1]
    products = [aug[..., i] * aug[..., j] / noise_var for i in range(dim) for j in range(i + 1)]
    products += [aug[..., i] * ys for i in range(dim)]
    entries = []
    for product in products:
        entry = product[..., 0].copy()
        for s in range(1, product.shape[-1]):
            entry += product[..., s]
        entries.append(entry)
    return np.stack(entries)


def reference_test_set_mse(moments, means) -> np.ndarray:
    """The test MSE ``m G m - 2 b m + c`` with its quadratic term from ``einsum``."""
    gram, cross, energy = moments
    return np.einsum("...a,ab,...b->...", means, gram, means) - 2.0 * (means @ cross) + energy


def reference_metrics_bytes(report, scenario, fmt: str) -> bytes:
    """The metrics file ``peerlearn run`` writes, built one value at a time.

    The oracle for the chunked writer: every float through ``f"{x:.12g}"``,
    rows through ``csv.writer`` or, for JSON, one ``json.dump`` of every row.
    """

    def fmt_value(value) -> str:
        return f"{float(value):.12g}"

    rows = []
    for t, result in enumerate(report.trial_results):
        probs = None if result.belief_history is None else np.exp(result.belief_history)
        for k in range(scenario.n_rounds):
            for i in range(scenario.graph.n_nodes):
                row = [str(t), str(k), str(i)]
                if report.engine == "discrete":
                    row.append(str(int(result.estimate_history[k, i])))
                    row += [fmt_value(p) for p in probs[k, i]]
                else:
                    row += [fmt_value(v) for v in result.mean_history[k, i]]
                    row += [fmt_value(v) for v in result.variance_diag_history[k, i]]
                    mse = result.mse_history
                    row.append("" if mse is None else fmt_value(mse[k, i]))
                rows.append(row)
    if report.engine == "discrete":
        n_params = scenario.theta_set.n_points
        columns = ["trial", "round", "node", "estimate_index"] + [
            f"belief_{m}" for m in range(n_params)
        ]
    else:
        dim = len(scenario.prior_mean)
        columns = ["trial", "round", "node"] + [f"mu_{m}" for m in range(dim)] + [
            f"sigma_{m}" for m in range(dim)
        ] + ["mse"]
    handle = io.StringIO(newline="\n")
    if fmt == "csv":
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    else:
        json.dump({"columns": columns, "rows": rows}, handle, separators=(",", ":"))
        handle.write("\n")
    return handle.getvalue().encode()
