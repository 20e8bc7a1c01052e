"""Synchronous round-based simulation of the peer-to-peer learning loop.

Each round every node draws one (instance, label) pair from its own
substream, performs its local Bayesian (or conjugate-Gaussian) update to
produce a public belief, and only after a full-round barrier merges its
in-neighbors' public beliefs through the weighted consensus rule, then
records its estimate.

There is one engine per belief family, and each runs all trials of an
experiment as one batch, with its state held as arrays over (trial, node):
log-beliefs for the discrete engine, precision and shift for the gaussian
one, packed into one row per node. The round loop carries only the
recursion (Bayes step, merge); per-run tables and buffers come before it.
The gaussian engine takes the rounds in batches: each forms its own packed
increments from the samples and runs the recursion, one in-place add and
one product by the graph weights per round. Then an entry-wise Cholesky
factorization of the batch, whose pivots are the positive-definiteness
gate, gives the means and variances.

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

import numpy as np

from . import beliefs as bel
from .graph import SpectralSummary, WeightMatrix, spectral_gap
from .models import ParameterSet, SeparationTable, assumption_bounds, augment, separation_table
from .theory import BoundInputs, InvalidInputsError, sample_complexity

ENGINES = ("discrete", "gaussian")

# Gaussian rounds per batch: their packed increments, and then their states,
# share one array, and one entry-wise factorization gates them and gives
# their moments.
_CHUNK_ROUNDS = 128


class SingularPrecisionError(ValueError):
    """A prior variance or a precision state cannot be a positive-definite precision."""


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
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if len(self.models) != self.graph.n_nodes:
            raise ValueError(
                f"{len(self.models)} models for {self.graph.n_nodes} graph nodes"
            )
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0 <= int(self.master_seed) < 2**64:
            raise ValueError("master_seed must fit in 64 bits")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.engine == "discrete":
            if self.theta_set is None:
                raise ValueError("discrete engine requires a parameter set")
            if self.test_set is not None:
                raise ValueError("test sets apply to the gaussian engine only")
            for model in self.models:
                model.validate_parameters(self.theta_set.points)
        else:
            if self.prior_mean is None or self.prior_variance_diag is None:
                raise ValueError("gaussian engine requires a prior mean and variance diagonal")
            dim = self.models[0].param_dim
            for name in ("prior_mean", "prior_variance_diag"):
                if np.shape(getattr(self, name)) != (dim,):
                    raise ValueError(f"{name} must be a vector of {dim} entries, "
                                     f"got shape {np.shape(getattr(self, name))}")
            if not np.isfinite(self.prior_mean).all():
                raise ValueError("prior_mean must be finite")
            variances = np.asarray(self.prior_variance_diag, dtype=float)
            with np.errstate(divide="ignore", over="ignore"):
                if not ((variances > 0) & np.isfinite(1.0 / variances)).all():
                    raise SingularPrecisionError(
                        "prior_variance_diag entries must be > 0 with a finite reciprocal")
            if self.noise_var is None or self.noise_var <= 0:
                raise ValueError("gaussian engine requires a positive noise variance")


@dataclass
class TrialResult:
    """Outcome of one seeded trial.

    ``final_estimates`` holds parameter indices (discrete) or posterior
    means (gaussian). ``success`` is defined only when the globally
    optimal index set was supplied.
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
    why a discrete run has no bound.
    """

    engine: str
    trials: int
    spectral: SpectralSummary
    trial_results: list
    baseline_results: list | None = None
    empirical_error: float | None = None
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
    xs = np.column_stack([rng.uniform(lo, hi, size=size) for lo, hi in ranges])
    ys = augment(xs) @ np.asarray(true_theta, dtype=float) + noise_std * rng.standard_normal(size)
    return xs, ys


def run_trial(scenario: Scenario, trial_index: int, global_optima=None) -> TrialResult:
    """Execute one full synchronous trial, deterministic in (scenario, trial)."""
    scenario.validate()
    if scenario.engine == "discrete":
        return _discrete_rounds(scenario, [trial_index], global_optima)[0]
    aug, ys = _gaussian_samples(scenario, [trial_index])
    return _gaussian_rounds(scenario, (aug[..., None, :], ys[..., None]),
                           merge=scenario.cooperative)[0]


def _discrete_rounds(scenario: Scenario, trials, global_optima=None) -> list[TrialResult]:
    """The log-linear round engine over a finite parameter set, batched over (trial, node).

    Each (trial, node) stream is drawn once, each sample kept as its model's
    code (``log_likelihood_codes``). State is the log-beliefs ``(T, N, M)``.
    Each round gathers every node's log-likelihoods by code into the publics,
    adds the privates (the Bayes update) and normalizes; if the scenario is
    cooperative, one product with the graph weights then takes each node's
    weighted log-geometric mean of its in-neighbors. The result is normalized
    again either way. A trial's ``clamp_events`` counts, over its rounds, each
    of these two normalizations in which the floor fired for some node.
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

    private = np.full((n_trials, n_nodes, n_params), -np.log(n_params))
    public, scratch = np.empty_like(private), np.empty_like(private)
    estimates = np.empty((n_trials, n_rounds, n_nodes), dtype=np.int64)
    beliefs = np.empty(estimates.shape + (n_params,)) if scenario.record_beliefs else None
    clamp_events = np.zeros(n_trials, dtype=np.int64)
    for k in range(n_rounds):
        for i, (_, gather) in enumerate(codecs):
            gather(codes[i][:, k], out=public[:, i])
        public += private
        peak = public.max(axis=-1, keepdims=True)
        if not np.all(np.isfinite(peak)):
            raise bel.ZeroLikelihoodError(f"round {k}: every likelihood underflowed for some node")
        clamp_events += bel.row_normalize(public, scratch, peak)
        # Barrier: the merge only ever sees this round's publics.
        if scenario.cooperative:
            np.matmul(scenario.graph.weights, public, out=private)
        else:
            private, public = public, private
        clamp_events += bel.row_normalize(private, scratch, private.max(axis=-1, keepdims=True))
        estimates[:, k] = np.argmax(private, axis=-1)
        if beliefs is not None:
            beliefs[:, k] = private

    star = None if global_optima is None else list(global_optima)
    return [
        TrialResult(
            final_estimates=estimates[t, -1].copy(),
            success=None if star is None else bool(np.isin(estimates[t, -1], star).all()),
            estimate_history=estimates[t],
            belief_history=None if beliefs is None else beliefs[t],
            clamp_events=int(clamp_events[t]),
        )
        for t in range(n_trials)
    ]


@np.errstate(over="ignore")  # overflow reaches the state, which _gaussian_rounds gates
def _gaussian_samples(scenario: Scenario, trials) -> tuple[np.ndarray, np.ndarray]:
    """Instances with a leading 1, ``a (K, T, N, d)``, and labels over ``s^2``, ``(K, T, N)``."""
    samples = [list(zip(*_draw_trial_samples(scenario, t))) for t in trials]
    aug = augment([instances for instances, _ in samples])  # (T, N, K, d)
    ys = np.array([labels for _, labels in samples]).transpose(2, 0, 1) / scenario.noise_var
    return np.ascontiguousarray(aug.transpose(2, 0, 1, 3)), ys


def _increments(aug: np.ndarray, ys: np.ndarray, noise_var: float) -> np.ndarray:
    """Precision and shift increments of a node's samples in each round, summed and packed.

    A sample ``(a, y / s^2)`` adds ``a a^T / s^2`` to a node's precision and
    ``a y / s^2`` to its shift (precision times mean), with ``s^2 = noise_var``.
    The last axis holds the precision's ``d*d`` entries row by row, then the
    ``d`` shift entries: the layout of the engine's state. Each entry is
    formed over the whole batch at once, summing the samples in order.
    """
    *batch, n_samples, dim = aug.shape
    packed = np.empty(batch + [dim * dim + dim])
    for i in range(dim):
        for j in range(i, dim):
            entry = aug[..., 0, i] * aug[..., 0, j] / noise_var
            for s in range(1, n_samples):
                entry += aug[..., s, i] * aug[..., s, j] / noise_var
            packed[..., i * dim + j] = packed[..., j * dim + i] = entry
        entry = aug[..., 0, i] * ys[..., 0]
        for s in range(1, n_samples):
            entry += aug[..., s, i] * ys[..., s]
        packed[..., dim * dim + i] = entry
    return packed


def _pack(mean, precision) -> np.ndarray:
    """One state row: the ``d*d`` precision entries row by row, then the shift ``P m``."""
    precision = np.asarray(precision, dtype=float)
    return np.concatenate([precision.ravel(), precision @ np.asarray(mean, dtype=float)])


@np.errstate(divide="ignore", invalid="ignore")  # only where a PD flag is False
def _moments(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Means, variance diagonals and PD flags of a batch of ``(P, h)`` states.

    ``entries`` is entry-major, ``(d*d + d, ...)``: along its first axis
    runs the state layout of ``_pack``, and each entry is one
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
    dim = math.isqrt(len(entries))
    precision = [entries[i * dim:(i + 1) * dim] for i in range(dim)]
    shift = entries[dim * dim:]

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
def _gaussian_rounds(scenario: Scenario, samples, merge: bool) -> list[TrialResult]:
    """The conjugate round engine in information form, batched over (trial, node).

    ``samples`` are ``a (K, T, N, S, d)`` and ``y / s^2 (K, T, N, S)``: each
    round a node takes its own sample (S = 1) or, centrally, every node's.
    State is the precision ``P`` and the shift ``h = P m``, packed as one
    ``(T, N, d*d + d)`` array. Each round adds the packed sample increments
    (the Bayes update), then, if ``merge``, mixes in-neighbors with one
    product by the graph weights into a second buffer, and the two swap:
    for Gaussian beliefs the log-geometric-mean rule is linear in
    ``(P, h)``. Per ``_CHUNK_ROUNDS`` rounds the engine forms the batch's
    increments, runs the recursion, each round's state overwriting its
    spent increments, then gates the state, which must be finite (the
    inputs may overflow), and computes the batch's moments with
    ``_moments``, whose Cholesky pivots are the positive-definiteness
    gate. The test MSE, which overflows on finite but huge means, must be
    finite too.
    """
    aug, ys = samples
    n_rounds, n_trials, n_nodes, _, dim = aug.shape
    state = np.empty((n_trials, n_nodes, dim * dim + dim))
    state[...] = _pack(scenario.prior_mean,
                       np.diag(1.0 / np.asarray(scenario.prior_variance_diag, dtype=float)))
    merged = np.empty_like(state)
    means = np.empty((n_trials, n_rounds, n_nodes, dim))
    variances = np.empty_like(means)
    for start in range(0, n_rounds, _CHUNK_ROUNDS):
        rounds = slice(start, start + _CHUNK_ROUNDS)
        batch = _increments(aug[rounds], ys[rounds], scenario.noise_var)
        for increment in batch:
            state += increment
            if merge:
                # Barrier: the merge only ever sees this round's publics.
                np.matmul(scenario.graph.weights, state, out=merged)
                state, merged = merged, state
            increment[...] = state
        entries = np.moveaxis(batch, -1, 0).copy()  # (d*d + d, K, T, N)
        finite = np.isfinite(entries).all(axis=0)
        if not finite.all():
            k = start + int(np.argmin(finite.all(axis=(1, 2))))
            raise ValueError(f"round {k}: precision or shift is not finite; an input overflows")
        batch_means, batch_variances, positive = _moments(entries)
        if not positive.all():
            k = start + int(np.argmin(positive.all(axis=(1, 2))))
            ratio = np.max(scenario.prior_variance_diag) / scenario.noise_var
            raise SingularPrecisionError(
                f"round {k}: precision is not positive definite; the state is ill-conditioned: "
                f"1/noise_std^2 is {ratio:.3g} times the least prior precision")
        means[:, rounds] = batch_means.transpose(2, 1, 3, 0)
        variances[:, rounds] = batch_variances.transpose(2, 1, 3, 0)

    # The MSE runs per trial so that its BLAS calls never see the batch size.
    moments = _test_set_moments(scenario.test_set)
    mse = [_test_set_mse(moments, means[t]) for t in range(n_trials)]
    if mse[0] is not None:
        finite = np.all([np.isfinite(curve).all(axis=1) for curve in mse], axis=0)
        if not finite.all():
            k = int(np.argmin(finite))
            raise ValueError(f"round {k}: test MSE is not finite; an input overflows")
    return [
        TrialResult(
            final_estimates=means[t, -1].copy(),
            mean_history=means[t],
            variance_diag_history=variances[t],
            mse_history=mse[t],
        )
        for t in range(n_trials)
    ]


def _test_set_moments(test_set) -> tuple[np.ndarray, np.ndarray, float] | None:
    """The test set's Gram matrix ``G``, cross vector ``b`` and energy ``c``, all per point."""
    if test_set is None:
        return None
    x_test, y_test = test_set
    aug = augment(x_test)
    gram = aug.T @ aug / len(y_test)
    cross = aug.T @ y_test / len(y_test)
    energy = y_test @ y_test / len(y_test)
    return gram, cross, energy


def _test_set_mse(moments, means: np.ndarray) -> np.ndarray | None:
    """Test MSE of each mean from the test set's moments: ``m G m - 2 b m + c``."""
    if moments is None:
        return None
    gram, cross, energy = moments
    return np.einsum("...a,ab,...b->...", means, gram, means) - 2.0 * (means @ cross) + energy


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


def run_experiment(scenario: Scenario, workers: int = 1) -> ExperimentReport:
    """Run all trials with derived seeds and aggregate the results.

    Both engines run all trials as one batch. ``workers`` is accepted for
    compatibility and has no effect. Gaussian runs with a test set also
    run the central baseline: one node fed every node's samples of the
    same trial, with the same update rule.
    """
    started = time.perf_counter()
    scenario.validate()
    spectral = spectral_gap(scenario.graph)

    separation = inputs = bound = violated = reason = baselines = None
    if scenario.engine == "discrete":
        separation, inputs, bound, violated, reason = sample_bound(scenario, spectral)
        results = _discrete_rounds(scenario, range(scenario.trials), separation.global_optima)
    else:
        aug, ys = _gaussian_samples(scenario, range(scenario.trials))
        results = _gaussian_rounds(scenario, (aug[..., None, :], ys[..., None]),
                                   merge=scenario.cooperative)
        if scenario.test_set is not None:
            baselines = _gaussian_rounds(scenario, (aug[:, :, None], ys[:, :, None]), merge=False)

    report = ExperimentReport(
        engine=scenario.engine,
        trials=scenario.trials,
        spectral=spectral,
        trial_results=results,
        baseline_results=baselines,
        separation=separation,
        bound_inputs=inputs,
        sample_bound=bound,
        sample_bound_reason=reason,
        assumption_violated=violated,
    )

    if scenario.engine == "discrete":
        report.empirical_error = sum(r.success is False for r in results) / scenario.trials
        all_ok = np.all([np.isin(r.estimate_history, separation.global_optima).all(axis=1)
                         for r in results], axis=0)  # per round
        report.first_all_success_round = int(np.argmax(all_ok)) if all_ok.any() else None
    elif scenario.test_set is not None:
        curves = np.stack([r.mse_history for r in results])
        report.mean_mse_curves = curves.mean(axis=0)
        report.final_mse_per_node = report.mean_mse_curves[-1].copy()
        curves = np.stack([r.mse_history[:, 0] for r in baselines])
        report.baseline_mse_curve = curves.mean(axis=0)
        report.baseline_final_mse = float(report.baseline_mse_curve[-1])

    report.runtime_seconds = time.perf_counter() - started
    return report
