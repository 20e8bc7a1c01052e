"""Quantities the benchmark checks peerlearn's outputs against.

Each function is written from the paper's formulas and the documented
update rules, not from the program's code, so that a fault in the program
shows as a disagreement. Only the random draws come from the program (its
public ``node_stream`` and model sampling methods): the checks are about the
learning arithmetic, not about the random number generator.
"""

from __future__ import annotations

import math

import numpy as np

LOG_FLOOR = -700.0


def lambda_max(weights) -> float:
    """Second-largest eigenvalue modulus of a primitive row-stochastic matrix."""
    moduli = np.sort(np.abs(np.linalg.eigvals(np.asarray(weights, dtype=float))))
    return float(moduli[-2]) if moduli.size > 1 else 0.0


def sample_bound(n_nodes: int, n_params: int, delta: float, log_range: float,
                 separation_rate: float, lam: float) -> int:
    """The paper's ``ceil(16 log(L/alpha) log(NM/delta) / (K^2 (1 - lambda_max)))``."""
    real = 16.0 * log_range * math.log(n_nodes * n_params / delta) / (
        separation_rate**2 * (1.0 - lam)
    )
    return max(1, math.ceil(real))


def bernoulli_log_range(points, visible_per_node) -> float:
    """``log(L/alpha)`` for Bernoulli likelihoods over the contexts the nodes see."""
    points = np.asarray(points, dtype=float)
    probs = np.concatenate([points[:, sorted(v)].ravel() for v in visible_per_node])
    values = np.concatenate([probs, 1.0 - probs])
    return math.log(values.max() / values.min())


def draw_samples(node_stream, models, master_seed: int, trial: int, n_rounds: int):
    """Each node's ``(instances, labels)`` for one trial, drawn as the program does.

    A node's substream yields all of its instances first, then all labels.
    """
    samples = []
    for node, model in enumerate(models):
        rng = node_stream(master_seed, trial, node)
        xs = model.sample_instances(rng, n_rounds)
        samples.append((xs, model.sample_labels(rng, xs)))
    return samples


def _augment(xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    return np.hstack([np.ones((xs.shape[0], 1)), xs])


def batch_posterior_mean(prior_mean, prior_variance_diag, noise_var, samples) -> np.ndarray:
    """Closed-form posterior mean ``(P0 + A'A/s2)^-1 (P0 m0 + A'y/s2)`` over all samples."""
    design = np.vstack([_augment(xs) for xs, _ in samples])
    labels = np.concatenate([ys for _, ys in samples])
    prior_precision = np.diag(1.0 / np.asarray(prior_variance_diag, dtype=float))
    precision = prior_precision + design.T @ design / noise_var
    shift = prior_precision @ np.asarray(prior_mean, dtype=float) + design.T @ labels / noise_var
    return np.linalg.solve(precision, shift)


def predictor_mse(mean, x_test, y_test) -> float:
    """Mean squared residual of the linear predictor on the test set."""
    residual = _augment(x_test) @ mean - np.asarray(y_test)
    return float(np.mean(residual**2))


def unrolled_cooperative_means(weights, prior_mean, prior_variance_diag, noise_var,
                               samples) -> np.ndarray:
    """Final node means of the cooperative information-form recursion, unrolled.

    A round adds each node's sample to its precision ``P`` and shift ``h``,
    then mixes with ``W``: ``X_k = W (X_{k-1} + dX_k)``. Unrolled over ``K``
    rounds, ``X_K = W^K X_0 + sum_k W^(K-k+1) dX_k``; the mean is ``P^-1 h``.
    """
    weights = np.asarray(weights, dtype=float)
    n_nodes = weights.shape[0]
    n_rounds = len(samples[0][1])
    aug = np.stack([_augment(xs) for xs, _ in samples], axis=1)  # (K, N, d)
    ys = np.stack([ys for _, ys in samples], axis=1)  # (K, N)
    d_precision = aug[..., :, None] * aug[..., None, :] / noise_var
    d_shift = aug * ys[..., None] / noise_var

    powers = np.empty((n_rounds + 1, n_nodes, n_nodes))
    powers[0] = np.eye(n_nodes)
    for j in range(1, n_rounds + 1):
        powers[j] = powers[j - 1] @ weights
    # Round k (1-based) is mixed K - k + 1 times.
    mix = powers[n_rounds:0:-1]

    prior_precision = np.diag(1.0 / np.asarray(prior_variance_diag, dtype=float))
    prior_shift = prior_precision @ np.asarray(prior_mean, dtype=float)
    row_sums = powers[n_rounds].sum(axis=1)
    precision = row_sums[:, None, None] * prior_precision + np.einsum(
        "kij,kjab->iab", mix, d_precision
    )
    shift = row_sums[:, None] * prior_shift + np.einsum("kij,kja->ia", mix, d_shift)
    return np.linalg.solve(precision, shift[..., None])[..., 0]


def _clamp_normalize(rows: np.ndarray) -> np.ndarray:
    rows = np.maximum(rows, LOG_FLOOR)
    peak = rows.max(axis=-1, keepdims=True)
    return rows - (peak + np.log(np.exp(rows - peak).sum(axis=-1, keepdims=True)))


def discrete_log_beliefs(weights, points, samples) -> np.ndarray:
    """Final log-beliefs ``(N, M)`` of the cooperative discrete rule for one trial.

    Every round each node adds the Bernoulli log-likelihood of its sample to
    its log-belief (the Bayes step), clamps at the -700 floor and normalizes
    with log-sum-exp; then every node takes the ``W``-weighted sum of the
    round's public log-beliefs (the log-linear merge), clamps and normalizes.
    The prior is uniform.
    """
    weights = np.asarray(weights, dtype=float)
    points = np.asarray(points, dtype=float)
    n_nodes, n_params = weights.shape[0], points.shape[0]
    with np.errstate(divide="ignore"):
        log_p, log_q = np.log(points), np.log1p(-points)
    beliefs = np.full((n_nodes, n_params), -math.log(n_params))
    n_rounds = len(samples[0][1])
    for k in range(n_rounds):
        public = np.empty_like(beliefs)
        for i, (xs, ys) in enumerate(samples):
            table = log_p if ys[k] == 1 else log_q
            public[i] = beliefs[i] + table[:, xs[k]]
        public = _clamp_normalize(public)
        beliefs = _clamp_normalize(weights @ public)
    return beliefs
