"""The discrete engine: the log-linear rule over a finite parameter set.

``run`` takes a group of trials as one batch. Each (trial, node) stream is
drawn once, each sample kept as its model's code (``log_likelihood_codes``).
State is the log-beliefs ``(N, T, M)``: each round gathers every node's
log-likelihoods by code straight into its ``(T, M)`` block of the publics,
adds the privates (the Bayes update) and normalizes; if the scenario is
cooperative, one product of the weights with the state as ``(N, T·M)``
takes each node's weighted log-geometric mean of its in-neighbors. Either
way the result is normalized again, each normalization's scratch the
other, spent buffer. All arithmetic stays in natural-log space, so products
over thousands of rounds never underflow.

``row_normalize`` is the one normalization: clamp at ``LOG_FLOOR``, then
log-sum-exp. The floor's work (the clamp, the clamped maxima and the
per-trial flags) is done only when some cell lies below it, and a trial's
``clamp_events`` counts the normalizations in which it fired. The row
maxima come from one ``np.maximum.reduceat`` over the contiguous state,
split at every row's first cell, into one ``(N, T, 1)`` buffer. On narrow
rows that costs less than ``max(axis=-1)``, and a maximum is the same bits
in any order, NaN, -inf and signed zeros included. Row sums stay with the
pairwise ``sum(axis=-1)``, whose order ``np.add.reduceat`` does not keep.
Rows of ``_ROW_BUFFER_MIN`` cells or more get a ufunc buffer of their
width, so a row's maximum is not copied across rows; no bit depends on the
buffer. ``success`` looks each trial's final estimates up in a boolean
table over the parameter indices (``optimal``).
"""

from __future__ import annotations

import numpy as np

from . import sim

LOG_FLOOR = -700.0
_ROW_BUFFER_MIN = 256  # narrower rows keep numpy's default ufunc buffer


class ZeroLikelihoodError(ValueError):
    """Every likelihood underflowed; the model does not support the label."""


def row_normalize(log_rows: np.ndarray, scratch: np.ndarray, peak: np.ndarray,
                  clamp_events: np.ndarray | None = None) -> np.ndarray:
    """Clamp at the floor and log-sum-exp normalize each row of ``log_rows`` in place.

    ``log_rows`` is ``(N, T, M)``; ``peak`` is each row's maximum before
    clamping, and ``scratch`` is a buffer of the rows' shape. Returns, per
    trial, whether the floor fired, and adds those flags to
    ``clamp_events``, a ``(T,)`` counter, if one is given. The clamp, the
    clamped maxima and the per-trial check run only if one pass over all
    rows finds a cell below the floor, or a NaN; otherwise every row's
    maximum is at or above the floor already.
    """
    if log_rows.min() >= LOG_FLOOR:  # per-trial reductions are slow on narrow rows
        fired = np.zeros(log_rows.shape[1], dtype=bool)
    else:
        fired = log_rows.min(axis=(0, 2)) < LOG_FLOOR
        np.maximum(log_rows, LOG_FLOOR, out=log_rows)
        peak = np.maximum(peak, LOG_FLOOR)  # the clamped rows' maximum
        if clamp_events is not None:
            clamp_events += fired
    np.exp(np.subtract(log_rows, peak, out=scratch), out=scratch)
    shift = scratch.sum(axis=-1, keepdims=True)
    np.log(shift, out=shift)
    shift += peak
    log_rows -= shift
    return fired


def run(scenario: sim.Scenario, trials, global_optima=None) -> list[sim.TrialResult]:
    """The engine on ``trials`` of ``scenario``, batched over (trial, node)."""
    n_trials, n_rounds = len(trials), scenario.n_rounds
    n_nodes, n_params = scenario.graph.n_nodes, scenario.theta_set.n_points
    codecs = [model.log_likelihood_codes(scenario.theta_set.points) for model in scenario.models]
    codes = []  # per node, (T, K, ...): each sample as its code
    for t, trial in enumerate(trials):
        for i, sample in enumerate(sim._draw_trial_samples(scenario, trial)):
            code = codecs[i][0](*sample)
            if t == 0:
                codes.append(np.empty((n_trials,) + code.shape, code.dtype))
            codes[i][t] = code
    gathers = [gather for _, gather in codecs]

    private = np.full((n_nodes, n_trials, n_params), -np.log(n_params))
    public = np.empty_like(private)
    row_starts = np.arange(0, private.size, n_params)
    peak = np.empty((n_nodes, n_trials, 1))
    estimates = np.empty((n_trials, n_rounds, n_nodes), dtype=np.min_scalar_type(-n_params))
    beliefs = np.empty(estimates.shape + (n_params,)) if scenario.record_beliefs else None
    clamp_events = np.zeros(n_trials, dtype=np.int64)
    bufsize = np.getbufsize()
    np.setbufsize(bufsize if n_params < _ROW_BUFFER_MIN else min(bufsize, n_params // 16 * 16))
    try:
        for k in range(n_rounds):
            for i, gather in enumerate(gathers):
                gather(codes[i][:, k], out=public[i])
            public += private
            np.maximum.reduceat(public.reshape(-1), row_starts, out=peak.reshape(-1))
            if not np.isfinite(peak).all():
                raise sim._gate(ZeroLikelihoodError(
                    f"round {k}: every likelihood underflowed for some node"), k)
            row_normalize(public, private, peak, clamp_events)
            # Barrier: the merge only ever sees this round's publics.
            if scenario.cooperative:
                np.matmul(scenario.graph.weights, public.reshape(n_nodes, -1),
                          out=private.reshape(n_nodes, -1))
            else:
                private, public = public, private
            np.maximum.reduceat(private.reshape(-1), row_starts, out=peak.reshape(-1))
            row_normalize(private, public, peak, clamp_events)
            estimates[:, k] = private.argmax(axis=-1).T  # argmax copies a transposed view
            if beliefs is not None:
                beliefs[:, k] = private.transpose(1, 0, 2)
    finally:
        np.setbufsize(bufsize)

    success = [None] * n_trials
    if global_optima is not None:
        success = optimal(global_optima, n_params).take(estimates[:, -1]).all(axis=1).tolist()
    return [
        sim.TrialResult(
            final_estimates=estimates[t, -1].copy(),
            success=success[t],
            estimate_history=estimates[t],
            belief_history=None if beliefs is None else beliefs[t],
            clamp_events=int(clamp_events[t]),
        )
        for t in range(n_trials)
    ]


def optimal(global_optima, n_params: int) -> np.ndarray:
    """Whether each of ``n_params`` parameter indices is among ``global_optima``."""
    table = np.zeros(n_params, dtype=bool)
    table[list(global_optima)] = True
    return table
