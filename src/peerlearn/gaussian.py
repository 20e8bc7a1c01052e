"""The gaussian engine: the conjugate linear-Gaussian rule in information form.

``samples`` draws a group of trials and ``run`` takes it as one batch. One
entry-major layout, one contiguous array per entry, runs from the samples
to the moments.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from . import sim
from .models import augment

# Rounds per batch: their packed increments, and then their states, share one
# array, and one entry-wise factorization gates them and gives their moments.
_CHUNK_ROUNDS = 128


@np.errstate(over="ignore")  # overflow reaches the state, which ``run`` gates
def samples(scenario: sim.Scenario, trials) -> tuple[np.ndarray, np.ndarray]:
    """Instances ``x (d - 1, K, T, N)`` and labels over ``s^2``, ``(K, T, N)``: entry-major."""
    ys = np.empty((scenario.n_rounds, len(trials), scenario.graph.n_nodes))
    xs = np.empty((len(scenario.prior_mean) - 1,) + ys.shape)
    for t, trial in enumerate(trials):
        for i, (instances, labels) in enumerate(sim._draw_trial_samples(scenario, trial)):
            xs[:, :, t, i], ys[:, t, i] = instances.T, labels
    ys /= scenario.noise_var
    return xs, ys


def _increments(xs: np.ndarray, ys: np.ndarray, noise_var: float) -> np.ndarray:
    """Precision and shift increments of a node's samples in each round, summed and packed.

    ``xs`` holds the instances ``(d - 1, ..., S)`` and ``ys`` the labels over
    ``s^2``, ``(..., S)``, with ``s^2 = noise_var``. A sample ``(x, y / s^2)``
    with ``a = [1, x]`` adds ``a a^T / s^2`` to a node's precision and
    ``a y / s^2`` to its shift (precision times mean). The first axis holds
    the precision's lower triangle row by row, then the ``d`` shift entries:
    the layout of the engine's state, one contiguous array per entry. Each
    entry sums the S samples in order. The intercept's factor is the scalar
    1.0, and ``1.0 * v`` is ``v``.
    """
    dim = len(xs) + 1
    packed = np.empty((dim * (dim + 3) // 2,) + ys.shape[:-1])
    for s in range(ys.shape[-1]):
        a, y = [1.0, *xs[..., s]], ys[..., s]
        terms = chain((a[i] * a[j] / noise_var for i in range(dim) for j in range(i + 1)),
                      (a_i * y for a_i in a))
        for entry, term in zip(packed, terms):
            if s:
                entry += term
            else:
                entry[...] = term
    return packed


def _pack(mean, precision) -> np.ndarray:
    """One state: the precision's lower triangle row by row, then the shift ``P m``."""
    precision = np.asarray(precision, dtype=float)
    return np.concatenate([precision[np.tril_indices(len(precision))],
                           precision @ np.asarray(mean, dtype=float)])


@np.errstate(divide="ignore", invalid="ignore")  # only where a PD flag is False
def _moments(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Means, variance diagonals and PD flags of a batch of ``(P, h)`` states.

    ``entries`` is entry-major, ``(d(d+1)/2 + d, ...)``: along its first
    axis runs the state layout of ``_pack``, and each entry is one
    contiguous array over the batch. The means ``P^-1 h`` and the variances
    ``diag(P^-1)`` come back as ``(d, ...)`` and the flags as ``(...)``.
    The Cholesky factor ``P = L L^T`` is built entry by entry with ufunc
    arithmetic over the batch. A state is positive definite exactly when
    every pivot is ``> 0``, which a NaN pivot fails; where a flag is False
    the moments are meaningless. The means take one forward and one back
    substitution with ``L``; the variances are the column sums of squares
    of ``L^-1``. Each state's arithmetic is the same whatever else shares
    its batch.
    """
    dim = (math.isqrt(8 * len(entries) + 9) - 3) // 2
    starts = [i * (i + 1) // 2 for i in range(dim + 1)]  # of the lower triangle's rows
    precision = [entries[starts[i]:starts[i + 1]] for i in range(dim)]  # P_ij, j <= i
    shift = entries[starts[dim]:]

    low = [[None] * (i + 1) for i in range(dim)]  # low[i][j] = L_ij over the batch
    positive = np.ones(entries.shape[1:], dtype=bool)
    for j in range(dim):
        pivot = precision[j][j].copy()
        for k in range(j):
            pivot -= low[j][k] * low[j][k]
        positive &= pivot > 0
        low[j][j] = np.sqrt(pivot, out=pivot)
        for i in range(j + 1, dim):
            entry = precision[i][j].copy()
            for k in range(j):
                entry -= low[i][k] * low[j][k]
            entry /= low[j][j]
            low[i][j] = entry

    forward = []  # L y = h
    for i in range(dim):
        entry = shift[i].copy()
        for k in range(i):
            entry -= low[i][k] * forward[k]
        entry /= low[i][i]
        forward.append(entry)
    means = np.empty(shift.shape)  # L^T m = y
    for i in reversed(range(dim)):
        means[i] = forward[i]
        for k in range(i + 1, dim):
            means[i] -= low[k][i] * means[k]
        means[i] /= low[i][i]

    variances = np.empty_like(means)
    for c in range(dim):
        column = [None] * c + [1.0 / low[c][c]]  # column c of L^-1, down from its diagonal
        variances[c] = column[c] * column[c]
        for i in range(c + 1, dim):
            entry = low[i][c] * column[c]
            for k in range(c + 1, i):
                entry += low[i][k] * column[k]
            entry /= -low[i][i]
            column.append(entry)
            variances[c] += entry * entry
    return means, variances, positive


@np.errstate(over="ignore", invalid="ignore")  # the finiteness gate reports these
def run(scenario: sim.Scenario, samples, merge: bool, stage: int = 1) -> list[sim.TrialResult]:
    """The conjugate round engine in information form, batched over (trial, node).

    ``samples`` are ``x (d - 1, K, T, N, S)`` and ``y / s^2 (K, T, N, S)``:
    each round a node takes its own sample (S = 1) or, centrally, every
    node's. State is the precision ``P`` and the shift ``h = P m``, packed
    as in ``_pack``. Each round adds the packed sample increments (the Bayes
    update), then, if ``merge``, mixes in-neighbors with one product by the
    graph weights per trial: for Gaussian beliefs the log-geometric-mean
    rule is linear in ``(P, h)``. Per ``_CHUNK_ROUNDS`` rounds the engine
    forms the batch's ``E = d(d+1)/2 + d`` increments, entry-major
    ``(E, K, T, N)``, and runs the recursion on ``(T, N, E)`` views, each
    round's state written over its spent increments, where the next round
    reads it; without a merge, the recursion is one running sum over the
    batch. Then it gates the states, which must be finite (the inputs may
    overflow), and computes the moments from the same array with
    ``_moments``, whose Cholesky pivots are the positive-definiteness gate.
    The test MSE, which overflows on finite but huge means, must be finite
    too. ``stage`` places the gates' failures in the run (see ``sim._gate``).
    """
    xs, ys = samples
    n_rounds, n_trials, n_nodes, _ = ys.shape
    dim = len(xs) + 1
    precision = np.diag(1.0 / np.asarray(scenario.prior_variance_diag, dtype=float))
    state = np.empty((n_trials, n_nodes, dim * (dim + 3) // 2))
    state[...] = _pack(scenario.prior_mean, precision)
    scratch, weights = np.empty_like(state), scenario.graph.weights  # C order: a faster matmul
    means = np.empty((n_trials, n_rounds, n_nodes, dim))
    variances = np.empty_like(means)
    for start in range(0, n_rounds, _CHUNK_ROUNDS):
        rounds = slice(start, start + _CHUNK_ROUNDS)
        batch = _increments(xs[:, rounds], ys[rounds], scenario.noise_var)
        if merge:
            for increment in batch.transpose(1, 2, 3, 0):
                np.add(state, increment, out=scratch)
                # Barrier: the merge only ever sees this round's publics.
                np.matmul(weights, scratch, out=increment)
                state = increment
            del increment
        else:  # the recursion is a running sum, summed round after round
            batch[:, 0] += state.transpose(2, 0, 1)
            np.add.accumulate(batch, axis=1, out=batch)
            state = batch[:, -1].transpose(1, 2, 0)
        finite = np.isfinite(batch).all(axis=0)
        if not finite.all():
            k = start + int(np.argmin(finite.all(axis=(1, 2))))
            raise sim._gate(ValueError(f"round {k}: precision or shift is not finite; "
                                       "an input overflows"), stage, start, 0, k)
        batch_means, batch_variances, positive = _moments(batch)
        if not positive.all():
            k = start + int(np.argmin(positive.all(axis=(1, 2))))
            ratio = np.max(scenario.prior_variance_diag) / scenario.noise_var
            raise sim._gate(sim.SingularPrecisionError(
                f"round {k}", "precision is not positive definite; the state is ill-conditioned: "
                f"1/noise_std^2 is {ratio:.3g} times the least prior precision"),
                stage, start, 1, k)
        means[:, rounds] = batch_means.transpose(2, 1, 3, 0)
        variances[:, rounds] = batch_variances.transpose(2, 1, 3, 0)
        # The state is a view into the batch: copied out, it lets the spent
        # batch go before the next one forms.
        state = state.copy()
        del batch, batch_means, batch_variances

    mse = [None] * n_trials
    if scenario.test_set is not None:
        moments = _test_set_moments(scenario.test_set)
        # The MSE runs per trial so that its BLAS calls never see the batch size.
        mse = [_test_set_mse(moments, means[t]) for t in range(n_trials)]
        finite = np.all([np.isfinite(curve).all(axis=1) for curve in mse], axis=0)
        if not finite.all():
            k = int(np.argmin(finite))
            raise sim._gate(ValueError(f"round {k}: test MSE is not finite; an input overflows"),
                            stage, n_rounds, 2, k)
    return [
        sim.TrialResult(
            final_estimates=means[t, -1].copy(),
            mean_history=means[t],
            variance_diag_history=variances[t],
            mse_history=mse[t],
        )
        for t in range(n_trials)
    ]


def _test_set_moments(test_set) -> tuple[np.ndarray, np.ndarray, float]:
    """The test set's Gram matrix ``G``, cross vector ``b`` and energy ``c``, all per point."""
    x_test, y_test = test_set
    aug = augment(x_test)
    gram = aug.T @ aug / len(y_test)
    cross = aug.T @ y_test / len(y_test)
    energy = y_test @ y_test / len(y_test)
    return gram, cross, energy


def _test_set_mse(moments, means: np.ndarray) -> np.ndarray:
    """Test MSE of each mean from the test set's moments: ``m G m - 2 b m + c``.

    The quadratic term sums ``(m_a G_ab) m_b`` from 0, ``a`` outer and ``b``
    inner: the order, and so the bits, of ``einsum("...a,ab,...b->...")``.
    """
    gram, cross, energy = moments
    entries = range(len(gram))
    quadratic = sum(means[..., a] * gram[a, b] * means[..., b] for a in entries for b in entries)
    return quadratic - 2.0 * (means @ cross) + energy

