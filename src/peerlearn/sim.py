"""Synchronous round-based simulation of the peer-to-peer learning loop.

Each round every node draws one (instance, label) pair from its own
substream, performs its local Bayesian (or conjugate-Gaussian) update to
produce a public belief, and only after a full-round barrier merges its
in-neighbors' public beliefs through the weighted consensus rule, then
records its estimate.

There is one engine per belief family, and each runs a group of trials
(every run takes its trials in groups) as one batch, with its state held as
arrays over nodes and trials: node-major log-beliefs for the discrete
engine; for the gaussian one, the precision's lower triangle and the shift,
entry-major, one array per entry. The round loop carries only the recursion
(Bayes step, merge); tables and buffers come before it. The gaussian engine
takes the rounds in batches: each forms its own packed increments from the
samples and runs the recursion, one add and one product by the graph
weights per round, or without a merge one running sum over the batch. Then
an entry-wise Cholesky factorization of the batch, whose pivots are the
positive-definiteness gate, gives the means and variances.

Randomness is counter-based: every (master_seed, trial, node) triple keys
an independent Philox stream, and each stream is drawn once per run: all
rounds' instances, then all their labels. Results are therefore a pure
function of the scenario and master seed, independent of how many trials
share a batch.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import beliefs as bel
from .graph import SpectralSummary, WeightMatrix, spectral_gap
from .models import (LinearGaussianModel, ParameterSet, SeparationTable, assumption_bounds,
                     augment, separation_table)
from .theory import BoundInputs, InvalidInputsError, sample_complexity

ENGINES = ("discrete", "gaussian")
BOUND_OVERRIDES = ("likelihood_log_range", "separation_rate")
_ROW_BUFFER_MIN = 256  # narrower discrete rows keep numpy's default ufunc buffer

# Gaussian rounds per batch: their packed increments, and then their states,
# share one array, and one entry-wise factorization gates them and gives
# their moments.
_CHUNK_ROUNDS = 128


class ScenarioError(ValueError):
    """A scenario rule fails at ``field``, as ``n_rounds``, ``prior_mean[0]`` or ``models[1]``."""

    def __init__(self, field: str, message: str):
        self.field, self.message = field, message
        super().__init__(f"{field}: {message}")


class SingularPrecisionError(ScenarioError):
    """A prior variance, or the state of the round that ``field`` names, is singular."""


def _check(ok: bool, field: str, message: str, error=ScenarioError) -> None:
    if not ok:
        raise error(field, message)


@dataclass
class Scenario:
    """Full description of one simulated experiment."""

    graph: WeightMatrix
    engine: str
    models: list
    n_rounds: int
    trials: int
    master_seed: int
    theta_set: ParameterSet | None = None
    prior_mean: np.ndarray | None = None
    prior_variance_diag: np.ndarray | None = None
    noise_var: float | None = None
    cooperative: bool = True
    test_set: tuple[np.ndarray, np.ndarray] | None = None
    record_beliefs: bool = True
    delta: float = 0.1
    kl_mc_samples: int = 2000
    bound_overrides: dict = field(default_factory=dict)

    def validate(self) -> None:
        """Check the scenario; a failed rule raises ``ScenarioError`` at its field."""
        _check(self.engine in ENGINES, "engine", "expected 'discrete' or 'gaussian'")
        _check(self.n_rounds >= 1, "n_rounds", "must be >= 1")
        _check(self.trials >= 1, "trials", "must be >= 1")
        _check(self.master_seed >= 0, "master_seed", "must be >= 0")
        _check(self.master_seed <= 2**64 - 1, "master_seed", f"must be <= {2**64 - 1}")
        _check(self.delta > 0.0, "delta", "must be > 0.0")
        _check(self.delta < 1.0, "delta", "must be < 1.0")
        _check(self.kl_mc_samples >= 1, "kl_mc_samples", "must be >= 1")
        for key, value in self.bound_overrides.items():
            _check(key in BOUND_OVERRIDES, f"bound_overrides.{key}", "unknown key")
            _check(math.isfinite(value), f"bound_overrides.{key}", "must be finite")
            _check(value > 0.0, f"bound_overrides.{key}", "must be > 0.0")
        _check(len(self.models) == self.graph.n_nodes, "models",
               f"{len(self.models)} models for {self.graph.n_nodes} graph nodes")
        if self.engine == "discrete":
            _check(self.theta_set is not None, "theta_set",
                   "discrete engine requires a parameter set")
            _check(self.test_set is None, "test_set",  # the config walk checks it first
                   "test sets apply to the gaussian engine only")
            _check(self.prior_mean is None and self.prior_variance_diag is None, "prior",
                   "the prior applies to the gaussian engine only")
        else:  # ``prior`` is the pair prior_mean and prior_variance_diag
            _check(self.prior_mean is not None and self.prior_variance_diag is not None, "prior",
                   "gaussian engine requires this key")
            dim = self.models[0].param_dim
            for i, model in enumerate(self.models):
                _check(isinstance(model, LinearGaussianModel), f"models[{i}].family",
                       "the gaussian engine requires 'linear_gaussian' models")
                _check(model.param_dim == dim, f"models[{i}]", f"param_dim is not {dim}")
            _check(np.shape(self.prior_mean) == (dim,), "prior_mean",
                   f"expected {dim} entries, one per true_theta entry")
            # The config walk needs true_theta and noise_std to build a linear_gaussian model.
            _check(self.noise_var is not None and 0.0 < self.noise_var < math.inf, "noise_var",
                   "the gaussian engine requires it positive and finite")
            if self.test_set is not None:
                x, y = map(np.shape, self.test_set)
                _check(len(x) == 2 and x[0] >= 1 and x[1] == dim - 1 and y == x[:1], "test_set",
                       f"expected x of shape (n, {dim - 1}) with n >= 1, and y of shape (n,)")
                _check(all(np.isfinite(a).all() for a in self.test_set), "test_set",
                       "its inputs and labels must be finite")
        if self.theta_set is not None:
            try:
                for model in self.models:
                    model.validate_parameters(self.theta_set.points)
            except ValueError as exc:
                raise ScenarioError("theta_set.points", str(exc)) from exc
        if self.prior_mean is None and self.prior_variance_diag is None:
            return
        mean = np.asarray(self.prior_mean, dtype=float)
        variances = np.asarray(self.prior_variance_diag, dtype=float)
        _check(mean.ndim == 1, "prior_mean", "expected a vector")
        _check(variances.shape == mean.shape, "prior_variance_diag",
               "length must match prior.mean")
        for i, (m, v) in enumerate(zip(mean.tolist(), variances.tolist())):
            _check(math.isfinite(m), f"prior_mean[{i}]", "must be finite")
            message = ("must be finite" if not math.isfinite(v) else "must be > 0.0" if v <= 0.0
                       else None if math.isfinite(1.0 / v) else "its reciprocal must be finite")
            _check(message is None, f"prior_variance_diag[{i}]", message, SingularPrecisionError)
            _check(math.isfinite(m * (1.0 / v)), f"prior_mean[{i}]",
                   "times its prior precision it overflows a float")


@dataclass
class TrialResult:
    """Outcome of one seeded trial.

    ``final_estimates`` holds parameter indices, in the narrowest signed
    type that holds M - 1 (discrete), or posterior means (gaussian).
    ``success`` is defined only when the globally optimal index set was supplied.
    """

    final_estimates: np.ndarray
    success: bool | None = None
    estimate_history: np.ndarray | None = None
    belief_history: np.ndarray | None = None
    mean_history: np.ndarray | None = None
    variance_diag_history: np.ndarray | None = None
    mse_history: np.ndarray | None = None
    clamp_events: int = 0


@dataclass
class ExperimentReport:
    """Aggregate over independent trials of one scenario.

    ``bound_inputs`` are the inputs ``sample_bound`` was computed from,
    with ``scenario.bound_overrides`` applied; ``sample_bound_reason`` says
    why a discrete run has no bound. Of the central baseline the run keeps
    only its mean test-MSE curve. ``trial_results`` is empty when the
    trials' results went to a consumer instead (see ``run_experiment``); the
    aggregates, ``clamp_events`` per trial among them, are there either way.
    """

    engine: str
    trials: int
    spectral: SpectralSummary
    trial_results: list
    empirical_error: float | None = None
    clamp_events: list | None = None
    separation: SeparationTable | None = None
    bound_inputs: BoundInputs | None = None
    sample_bound: int | None = None
    sample_bound_reason: str | None = None
    assumption_violated: bool | None = None
    first_all_success_round: int | None = None
    mean_mse_curves: np.ndarray | None = None
    final_mse_per_node: np.ndarray | None = None
    baseline_mse_curve: np.ndarray | None = None
    baseline_final_mse: float | None = None
    runtime_seconds: float = 0.0


def node_stream(master_seed: int, trial: int, node: int) -> np.random.Generator:
    """Counter-based substream for one node within one trial."""
    key = np.random.SeedSequence((int(master_seed), int(trial), int(node)))
    return np.random.Generator(np.random.Philox(key))


def _draw_trial_samples(scenario: Scenario, trial: int):
    """Each node's ``(instances, labels)`` for all rounds of a trial, from its own stream."""
    for node, model in enumerate(scenario.models):
        rng = node_stream(scenario.master_seed, trial, node)
        xs = model.sample_instances(rng, scenario.n_rounds)
        yield xs, model.sample_labels(rng, xs)


def make_regression_test_set(size: int, ranges, true_theta, noise_std: float,
                             seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed evaluation set with every coordinate drawn from its own range."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed),))))
    ranges = np.asarray(ranges, dtype=float).reshape(-1, 2)
    xs = np.empty((size, len(ranges)))
    for j, (lo, hi) in enumerate(ranges):
        xs[:, j] = rng.uniform(lo, hi, size=size)
    ys = augment(xs) @ np.asarray(true_theta, dtype=float) + noise_std * rng.standard_normal(size)
    return xs, ys


def run_trial(scenario: Scenario, trial_index: int, global_optima=None) -> TrialResult:
    """Execute one full synchronous trial, deterministic in (scenario, trial)."""
    scenario.validate()
    if scenario.engine == "discrete":
        return _discrete_rounds(scenario, [trial_index], global_optima)[0]
    xs, ys = _gaussian_samples(scenario, [trial_index])
    return _gaussian_rounds(scenario, (xs[..., None], ys[..., None]),
                           merge=scenario.cooperative)[0]


# A group of trials holds about this many bytes of samples and histories.
# ``run_experiment`` hands each group to its consumer before the next runs, so
# a consumer that keeps none holds one group at a time; a larger trial runs alone.
_GROUP_BYTES = 2**22


def _trial_groups(scenario: Scenario):
    """The trials in the fewest near-equal consecutive groups of about ``_GROUP_BYTES``.

    Yields one range at a time. Per (round, node), a discrete trial holds
    its M beliefs if they are recorded, else one float for its code and
    estimate; a gaussian one holds 3d + 1 floats: the d - 1 instance entries
    and the label, the d means, the d variances and the test MSE.
    """
    if scenario.engine == "gaussian":
        floats = 3 * len(scenario.prior_mean) + 1
    else:
        floats = scenario.theta_set.n_points if scenario.record_beliefs else 1
    trial_bytes = 8 * floats * scenario.n_rounds * scenario.graph.n_nodes
    n_groups = -(-scenario.trials // max(1, _GROUP_BYTES // trial_bytes))
    for g in range(n_groups):
        yield range(scenario.trials * g // n_groups, scenario.trials * (g + 1) // n_groups)


def _discrete_rounds(scenario: Scenario, trials, global_optima=None) -> list[TrialResult]:
    """The log-linear round engine over a finite parameter set, batched over (trial, node).

    Each (trial, node) stream is drawn once, each sample kept as its model's
    code (``log_likelihood_codes``). State is the log-beliefs ``(N, T, M)``:
    each round gathers every node's log-likelihoods by code straight into
    its ``(T, M)`` block of the publics, adds the privates (the Bayes
    update) and normalizes; if the scenario is cooperative, one product with
    the graph weights over ``(T, N, M)`` views takes each node's weighted
    log-geometric mean of its in-neighbors. Either way the result is
    normalized again, each normalization's scratch the other, spent buffer;
    a trial's ``clamp_events`` counts those in which the floor fired. Rows of
    ``_ROW_BUFFER_MIN`` cells or more get a ufunc buffer of their width, so a
    row's maximum is not copied across rows; no bit depends on the buffer.

    The row maxima each normalization needs come from one
    ``np.maximum.reduceat`` over the contiguous state, split at every row's
    first cell (``_row_maxima``), into one ``(N, T, 1)`` buffer. On narrow
    rows that costs less than ``max(axis=-1)``, and a maximum is the same
    bits in any order, NaN, -inf and signed zeros included. Only maxima
    are taken so: ``np.add.reduceat`` adds a row in another order than the
    pairwise ``sum(axis=-1)`` and moves the sums' last bits, so row sums
    stay with ``sum``. ``success`` looks each trial's final estimates up in
    a boolean table over the parameter indices (``_optimal``).
    """
    n_trials, n_rounds = len(trials), scenario.n_rounds
    n_nodes, n_params = scenario.graph.n_nodes, scenario.theta_set.n_points
    codecs = [model.log_likelihood_codes(scenario.theta_set.points) for model in scenario.models]
    codes = []  # per node, (T, K, ...): each sample as its code
    for t, trial in enumerate(trials):
        for i, sample in enumerate(_draw_trial_samples(scenario, trial)):
            code = codecs[i][0](*sample)
            if t == 0:
                codes.append(np.empty((n_trials,) + code.shape, code.dtype))
            codes[i][t] = code
    gathers = [gather for _, gather in codecs]

    private = np.full((n_nodes, n_trials, n_params), -np.log(n_params))
    public = np.empty_like(private)
    private_t, public_t = private.transpose(1, 0, 2), public.transpose(1, 0, 2)  # (T, N, M)
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
            _row_maxima(public, row_starts, peak)
            if not np.isfinite(peak).all():
                raise _gate(bel.ZeroLikelihoodError(
                    f"round {k}: every likelihood underflowed for some node"), k)
            bel.row_normalize(public, private, peak, clamp_events)
            # Barrier: the merge only ever sees this round's publics.
            if scenario.cooperative:
                np.matmul(scenario.graph.weights, public_t, out=private_t)
            else:
                private, public, private_t, public_t = public, private, public_t, private_t
            _row_maxima(private, row_starts, peak)
            bel.row_normalize(private, public, peak, clamp_events)
            estimates[:, k] = private.argmax(axis=-1).T  # argmax copies a transposed view
            if beliefs is not None:
                beliefs[:, k] = private_t
    finally:
        np.setbufsize(bufsize)

    success = [None] * n_trials
    if global_optima is not None:
        success = _optimal(global_optima, n_params).take(estimates[:, -1]).all(axis=1).tolist()
    return [
        TrialResult(
            final_estimates=estimates[t, -1].copy(),
            success=success[t],
            estimate_history=estimates[t],
            belief_history=None if beliefs is None else beliefs[t],
            clamp_events=int(clamp_events[t]),
        )
        for t in range(n_trials)
    ]


def _row_maxima(state: np.ndarray, row_starts: np.ndarray, peak: np.ndarray) -> np.ndarray:
    """Each row's maximum of a contiguous ``(N, T, M)`` state, into ``peak``, ``(N, T, 1)``.

    One ``np.maximum.reduceat`` over the flat state, split at ``row_starts``,
    the first cell of every row.
    """
    np.maximum.reduceat(state.reshape(-1), row_starts, out=peak.reshape(-1))
    return peak


def _optimal(global_optima, n_params: int) -> np.ndarray:
    """Whether each of ``n_params`` parameter indices is among ``global_optima``."""
    table = np.zeros(n_params, dtype=bool)
    table[list(global_optima)] = True
    return table


@np.errstate(over="ignore")  # overflow reaches the state, which _gaussian_rounds gates
def _gaussian_samples(scenario: Scenario, trials) -> tuple[np.ndarray, np.ndarray]:
    """Instances ``x (d - 1, K, T, N)`` and labels over ``s^2``, ``(K, T, N)``: entry-major."""
    ys = np.empty((scenario.n_rounds, len(trials), scenario.graph.n_nodes))
    xs = np.empty((len(scenario.prior_mean) - 1,) + ys.shape)
    for t, trial in enumerate(trials):
        for i, (instances, labels) in enumerate(_draw_trial_samples(scenario, trial)):
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
def _gaussian_rounds(scenario: Scenario, samples, merge: bool,
                     stage: int = 1) -> list[TrialResult]:
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
    too. ``stage`` places the gates' failures in the run (see ``_gate``).
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
        else:  # the recursion is a running sum, summed round after round
            batch[:, 0] += state.transpose(2, 0, 1)
            np.add.accumulate(batch, axis=1, out=batch)
            state = batch[:, -1].transpose(1, 2, 0)
        finite = np.isfinite(batch).all(axis=0)
        if not finite.all():
            k = start + int(np.argmin(finite.all(axis=(1, 2))))
            raise _gate(ValueError(f"round {k}: precision or shift is not finite; "
                                   "an input overflows"), stage, start, 0, k)
        batch_means, batch_variances, positive = _moments(batch)
        if not positive.all():
            k = start + int(np.argmin(positive.all(axis=(1, 2))))
            ratio = np.max(scenario.prior_variance_diag) / scenario.noise_var
            raise _gate(SingularPrecisionError(
                f"round {k}", "precision is not positive definite; the state is ill-conditioned: "
                f"1/noise_std^2 is {ratio:.3g} times the least prior precision"),
                stage, start, 1, k)
        means[:, rounds] = batch_means.transpose(2, 1, 3, 0)
        variances[:, rounds] = batch_variances.transpose(2, 1, 3, 0)

    mse = [None] * n_trials
    if scenario.test_set is not None:
        moments = _test_set_moments(scenario.test_set)
        # The MSE runs per trial so that its BLAS calls never see the batch size.
        mse = [_test_set_mse(moments, means[t]) for t in range(n_trials)]
        finite = np.all([np.isfinite(curve).all(axis=1) for curve in mse], axis=0)
        if not finite.all():
            k = int(np.argmin(finite))
            raise _gate(ValueError(f"round {k}: test MSE is not finite; an input overflows"),
                        stage, n_rounds, 2, k)
    return [
        TrialResult(
            final_estimates=means[t, -1].copy(),
            mean_history=means[t],
            variance_diag_history=variances[t],
            mse_history=mse[t],
        )
        for t in range(n_trials)
    ]


def _gate(error: ValueError, *order) -> ValueError:
    """``error``, from a failed gate, marked with the place of its check in a run.

    A gate fails per trial, and a run of every trial as one batch reports the
    failure it meets first: the least ``order``. That is ``(round,)`` for the
    discrete engine, and ``(stage, first round of the batch, check, round)``
    for the gaussian one: the central baseline (stage 0) runs before the
    network (stage 1), the finiteness check (0) before the
    positive-definiteness check (1), and the test MSE (2) after the last batch.
    """
    error.order = order
    return error


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


def sample_bound(
    scenario: Scenario, spectral: SpectralSummary
) -> tuple[SeparationTable, BoundInputs | None, int | None, bool, str | None]:
    """The separation table and the sample bound that ``run`` and ``bound`` both report.

    Returns ``(table, inputs, n, assumption_violated, reason)``. The table
    is always built, so a scenario with no globally optimal parameter raises
    ``NotGloballyLearnableError`` whatever the overrides.
    ``scenario.bound_overrides`` may replace the separation rate and the
    likelihood log-range. The assumption fails when some likelihood family
    declares no bounds; ``inputs`` and ``n`` are then None, with ``reason``
    a path-qualified message, unless the log-range is overridden. So are
    they when the bound overflows a float.
    """
    table = separation_table(
        scenario.models,
        scenario.theta_set,
        spectral.stationary,
        mc_samples=scenario.kl_mc_samples,
        seed=scenario.master_seed,
    )
    overrides = scenario.bound_overrides
    bounds = assumption_bounds(scenario.models, scenario.theta_set)
    log_range = overrides.get("likelihood_log_range")
    if log_range is None and bounds is not None:
        log_range = abs(np.log(bounds[1] / bounds[0]))
        if not np.isfinite(log_range):  # the ratio overflows, as at bounds (1e-320, 1)
            log_range = np.log(bounds[1]) - np.log(bounds[0])
    if log_range is None:
        return table, None, None, True, ("scenario.bound.likelihood_log_range: likelihoods "
                                         "are unbounded; supply an explicit value")
    inputs = BoundInputs(
        n_nodes=scenario.graph.n_nodes,
        n_params=scenario.theta_set.n_points,
        delta=scenario.delta,
        likelihood_log_range=float(log_range),
        separation_rate=float(overrides.get("separation_rate", table.separation_rate)),
        lambda_max=spectral.lambda_max,
    )
    try:
        n = sample_complexity(inputs)
    except InvalidInputsError as exc:
        return table, None, None, bounds is None, f"scenario.bound: {exc}; supply explicit values"
    return table, inputs, n, bounds is None, None


def _set_up(scenario: Scenario) -> ExperimentReport:
    """A run's once-only part: validation, the spectral summary and, if discrete, the bound."""
    scenario.validate()
    report = ExperimentReport(engine=scenario.engine, trials=scenario.trials,
                              spectral=spectral_gap(scenario.graph), trial_results=[])
    if scenario.engine == "discrete":
        (report.separation, report.bound_inputs, report.sample_bound,
         report.assumption_violated, report.sample_bound_reason) = sample_bound(
            scenario, report.spectral)
        report.clamp_events = []
    return report


def _run_group(scenario: Scenario, trials, report: ExperimentReport):
    """The engines on one group of trials: its results, and its baselines' MSE curves or None."""
    if scenario.engine == "discrete":
        return _discrete_rounds(scenario, trials, report.separation.global_optima), None
    xs, ys = _gaussian_samples(scenario, trials)
    baselines = None
    if scenario.test_set is not None:  # one node fed every node's samples each round
        # Only the curves outlive this line, so the network pass runs without the rest.
        baselines = [r.mse_history[:, 0] for r in _gaussian_rounds(
            scenario, (xs[:, :, :, None], ys[:, :, None]), merge=False, stage=0)]
    results = _gaussian_rounds(scenario, (xs[..., None], ys[..., None]),
                               merge=scenario.cooperative)
    return results, baselines


class _Aggregates:
    """The report's aggregates over trials, accumulated group by group."""

    def __init__(self, report: ExperimentReport, scenario: Scenario):
        self.report, self.scenario = report, scenario
        self.failures = 0
        self.all_ok = True  # per round, once a discrete group is in
        self.curves = self.baseline_curve = 0.0

    def add(self, results: list, baselines: list | None) -> None:
        report = self.report
        if report.engine == "discrete":
            report.clamp_events += [r.clamp_events for r in results]
            self.failures += sum(r.success is False for r in results)
            optimal = _optimal(report.separation.global_optima,
                               report.separation.kl_to_truth.shape[1])
            self.all_ok &= np.all([optimal.take(r.estimate_history).all(axis=1)
                                   for r in results], axis=0)
        elif baselines is not None:
            # Summed in trial order from 0.0, group after group, and divided once, the
            # curves have the bits of np.mean(axis=0): 0.0 + x is x, and no MSE is -0.0.
            for result, baseline in zip(results, baselines):
                self.curves += result.mse_history
                self.baseline_curve += baseline

    def finish(self) -> None:
        report = self.report
        if report.engine == "discrete":
            report.empirical_error = self.failures / report.trials
            report.first_all_success_round = (int(np.argmax(self.all_ok))
                                              if self.all_ok.any() else None)
        elif self.scenario.test_set is not None:
            report.mean_mse_curves = self.curves / report.trials
            report.final_mse_per_node = report.mean_mse_curves[-1].copy()
            report.baseline_mse_curve = self.baseline_curve / report.trials
            report.baseline_final_mse = float(report.baseline_mse_curve[-1])


def run_experiment(scenario: Scenario, workers: int = 1, *, consume=None) -> ExperimentReport:
    """Run all trials with derived seeds and aggregate the results.

    A run sets up once (``_set_up``), then runs the engines on each group
    of ``_trial_groups`` (``_run_group``) and accumulates the aggregates
    group by group. Each group's results go to ``consume(trials, results)``,
    by default an append to ``report.trial_results``, and are dropped
    before the next group runs, so a consumer that keeps none holds one
    group at a time; ``runtime_seconds`` leaves out the time spent there.
    If a gate fails, the later groups still run their engines, but nothing
    more is consumed, and the failure raised is the one a single batch
    would meet first (``_gate``). ``workers`` is accepted for compatibility
    and has no effect. Gaussian runs with a test set first run the central
    baseline, of which they keep the test-MSE curve, then the network.
    """
    started = time.perf_counter()
    report = _set_up(scenario)
    consume = consume or (lambda trials, results: report.trial_results.extend(results))
    aggregates = _Aggregates(report, scenario)
    consuming = 0.0
    failure = None
    for trials in _trial_groups(scenario):
        try:
            results, baselines = _run_group(scenario, trials, report)
        except ValueError as exc:
            if getattr(exc, "order", None) is None:
                raise
            if failure is None or exc.order < failure.order:
                failure = exc
            continue
        if failure is None:
            aggregates.add(results, baselines)
            clock = time.perf_counter()
            consume(trials, results)
            consuming += time.perf_counter() - clock
        del results, baselines  # before the next group runs
    if failure is not None:
        raise failure
    aggregates.finish()
    report.runtime_seconds = time.perf_counter() - started - consuming
    return report
