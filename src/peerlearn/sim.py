"""Synchronous round-based simulation of the peer-to-peer learning loop.

Each round every node draws one (instance, label) pair from its own
substream, performs its local Bayesian (or conjugate-Gaussian) update to
produce a public belief, and only after a full-round barrier merges its
in-neighbors' public beliefs through the weighted consensus rule, then
records its estimate.

There is one engine per belief family, and each runs all trials of an
experiment as one batch, with its state held as arrays over (trial, node):
log-beliefs for the discrete engine, precision and shift for the gaussian
one. The round loop carries only the recursion (Bayes step, merge); per-run
tables and buffers come before it. The gaussian engine takes the rounds in
batches: each forms its own increments from the samples, then runs the
recursion, the positive-definiteness gate and the moments.

Randomness is counter-based: every (master_seed, trial, node) triple keys
an independent Philox stream, and each node consumes a fixed number of
draws per round (all instances first, then all labels). Results are
therefore a pure function of the scenario and master seed, independent of
how many trials share a batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import beliefs as bel
from . import gaussian as gau
from .graph import SpectralSummary, WeightMatrix, spectral_gap
from .models import ParameterSet, SeparationTable, assumption_bounds, separation_table
from .theory import BoundInputs, sample_complexity

ENGINES = ("discrete", "gaussian")

_CHUNK_ROUNDS = 128  # gaussian rounds whose moments are computed in one batch


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
    instances: list | None = None
    labels: list | None = None
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
    """Pre-draw each node's per-round samples; order is fixed per stream."""
    instances, labels = [], []
    for node, model in enumerate(scenario.models):
        rng = node_stream(scenario.master_seed, trial, node)
        xs = model.sample_instances(rng, scenario.n_rounds)
        ys = model.sample_labels(rng, xs)
        instances.append(xs)
        labels.append(ys)
    return instances, labels


def make_regression_test_set(size: int, ranges, true_theta, noise_std: float,
                             seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed evaluation set with every coordinate drawn from its own range."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed),))))
    ranges = np.asarray(ranges, dtype=float).reshape(-1, 2)
    xs = np.column_stack([rng.uniform(lo, hi, size=size) for lo, hi in ranges])
    theta = np.asarray(true_theta, dtype=float)
    aug = np.hstack([np.ones((size, 1)), xs])
    ys = aug @ theta + noise_std * rng.standard_normal(size)
    return xs, ys


def run_trial(scenario: Scenario, trial_index: int, global_optima=None,
              record_samples: bool = False) -> TrialResult:
    """Execute one full synchronous trial, deterministic in (scenario, trial)."""
    scenario.validate()
    if scenario.engine == "discrete":
        result = _discrete_rounds(scenario, [trial_index], global_optima)[0]
    else:
        aug, ys = _gaussian_samples(scenario, [trial_index])
        result = _gaussian_rounds(scenario, (aug[..., None, :], ys[..., None]),
                                  merge=scenario.cooperative)[0]
    if record_samples:
        result.instances, result.labels = _draw_trial_samples(scenario, trial_index)
    return result


def _discrete_rounds(scenario: Scenario, trials, global_optima=None) -> list[TrialResult]:
    """The log-linear round engine over a finite parameter set, batched over (trial, node).

    State is the log-beliefs ``(T, N, M)``. Each round adds every node's
    log-likelihood of its sample (the Bayes update, one gather from a
    per-run table) and normalizes; then, if the scenario is cooperative,
    one product with the graph weights takes each node's weighted
    log-geometric mean of its in-neighbors. The result is normalized again
    either way. A trial's ``clamp_events`` counts, over its rounds, each of
    these two normalizations in which the floor fired for some node.
    """
    n_trials, n_rounds = len(trials), scenario.n_rounds
    n_nodes, n_params = scenario.graph.n_nodes, scenario.theta_set.n_points
    draws = [_draw_trial_samples(scenario, t) for t in trials]
    instances = [np.stack([xs[i] for xs, _ in draws]) for i in range(n_nodes)]
    labels = [np.stack([ys[i] for _, ys in draws]) for i in range(n_nodes)]
    lookups = [model.log_likelihood_lookup(scenario.theta_set.points) for model in scenario.models]

    private = np.full((n_trials, n_nodes, n_params), -np.log(n_params))
    public, scratch = np.empty_like(private), np.empty_like(private)
    estimates = np.empty((n_trials, n_rounds, n_nodes), dtype=np.int64)
    beliefs = np.empty(estimates.shape + (n_params,)) if scenario.record_beliefs else None
    clamp_events = np.zeros(n_trials, dtype=np.int64)
    for k in range(n_rounds):
        for i, lookup in enumerate(lookups):
            np.add(private[:, i], lookup(instances[i][:, k], labels[i][:, k]), out=public[:, i])
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
    samples = [_draw_trial_samples(scenario, t) for t in trials]
    xs = np.array([instances for instances, _ in samples], dtype=float)  # (T, N, K, d-1)
    ys = np.array([labels for _, labels in samples]).transpose(2, 0, 1) / scenario.noise_var
    aug = np.concatenate([np.ones(xs.shape[:-1] + (1,)), xs], axis=-1)
    return np.ascontiguousarray(aug.transpose(2, 0, 1, 3)), ys


def _increments(aug: np.ndarray, ys: np.ndarray, noise_var: float):
    """Precision and shift increments of a node's samples in each round, summed.

    A sample ``(a, y / s^2)`` adds ``a a^T / s^2`` to a node's precision and
    ``a y / s^2`` to its shift (precision times mean), with ``s^2 = noise_var``.
    """
    d_precision = aug[..., :, None] * aug[..., None, :] / noise_var
    return d_precision.sum(axis=-3), (aug * ys[..., None]).sum(axis=-2)


@np.errstate(over="ignore", invalid="ignore")  # the finiteness gate reports these
def _gaussian_rounds(scenario: Scenario, samples, merge: bool) -> list[TrialResult]:
    """The conjugate round engine in information form, batched over (trial, node).

    ``samples`` are ``a (K, T, N, S, d)`` and ``y / s^2 (K, T, N, S)``: each
    round a node takes its own sample (S = 1) or, centrally, every node's.
    State is the precision ``P (T, N, d, d)`` and the shift ``h = P m``.
    Each round adds the sample increments (the Bayes update), then, if
    ``merge``, mixes in-neighbors with the graph weights: for Gaussian
    beliefs the log-geometric-mean rule is linear in ``(P, h)``. Per
    ``_CHUNK_ROUNDS`` rounds the engine forms the batch's increments, runs
    the recursion, each round's state overwriting its spent increments,
    then gates the state, which must be finite (the inputs may overflow,
    and the Cholesky factorization does not reject NaN) and positive
    definite, and computes the batch's moments.
    """
    aug, ys = samples
    n_rounds, n_trials, n_nodes, _, dim = aug.shape
    prior = gau.from_mean_covariance_diag(scenario.prior_mean, scenario.prior_variance_diag)
    precision = np.broadcast_to(prior.precision, (n_trials, n_nodes, dim, dim)).copy()
    shift = np.broadcast_to(prior.precision @ prior.mean, (n_trials, n_nodes, dim)).copy()
    means = np.empty((n_trials, n_rounds, n_nodes, dim))
    variances = np.empty_like(means)
    for start in range(0, n_rounds, _CHUNK_ROUNDS):
        rounds = slice(start, start + _CHUNK_ROUNDS)
        d_precision, d_shift = _increments(aug[rounds], ys[rounds], scenario.noise_var)
        for k in range(len(d_shift)):
            precision += d_precision[k]
            shift += d_shift[k]
            if merge:
                # Barrier: the merge only ever sees this round's publics.
                precision = np.einsum("ij,tjab->tiab", scenario.graph.weights, precision)
                shift = np.einsum("ij,tja->tia", scenario.graph.weights, shift)
            d_precision[k], d_shift[k] = precision, shift
        finite = np.isfinite(d_precision).all(axis=(-2, -1)) & np.isfinite(d_shift).all(axis=-1)
        if not finite.all():
            k = start + int(np.argmin(finite.all(axis=(1, 2))))
            raise ValueError(f"round {k}: precision or shift is not finite; an input overflows")
        try:
            np.linalg.cholesky(d_precision)
        except np.linalg.LinAlgError as exc:
            for k, precision in enumerate(d_precision, start):
                try:
                    np.linalg.cholesky(precision)
                except np.linalg.LinAlgError:
                    break
            raise gau.SingularPrecisionError(
                f"round {k}: precision is not positive definite"
            ) from exc
        covariance = np.linalg.inv(d_precision)
        means[:, rounds] = np.einsum("ktnab,ktnb->tkna", covariance, d_shift)
        variances[:, rounds] = np.diagonal(covariance, axis1=-2, axis2=-1).swapaxes(0, 1)

    # The MSE runs per trial so that its BLAS calls never see the batch size.
    return [
        TrialResult(
            final_estimates=means[t, -1].copy(),
            mean_history=means[t],
            variance_diag_history=variances[t],
            mse_history=_test_set_mse(scenario.test_set, means[t]),
        )
        for t in range(n_trials)
    ]


def _test_set_mse(test_set, means: np.ndarray) -> np.ndarray | None:
    """Test MSE of each mean via the Gram matrix: ``m G m - 2 b m + c``."""
    if test_set is None:
        return None
    x_test, y_test = test_set
    aug = np.hstack([np.ones((len(y_test), 1)), x_test])
    gram = aug.T @ aug / len(y_test)
    cross = aug.T @ y_test / len(y_test)
    energy = y_test @ y_test / len(y_test)
    return np.einsum("...a,ab,...b->...", means, gram, means) - 2.0 * (means @ cross) + energy


def central_baseline(scenario: Scenario, trial_index: int = 0) -> TrialResult:
    """One node fed every node's per-round samples, same update rule.

    Consumes exactly the substreams the distributed trial would, so the
    baseline sees the identical data, merged centrally.
    """
    scenario.validate()
    if scenario.engine != "gaussian":
        raise ValueError("the central baseline is defined for the gaussian engine")
    aug, ys = _gaussian_samples(scenario, [trial_index])
    return _gaussian_rounds(scenario, (aug[:, :, None], ys[:, :, None]), merge=False)[0]


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
    a path-qualified message, unless the log-range is overridden.
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
    return table, inputs, sample_complexity(inputs), bounds is None, None


def run_experiment(scenario: Scenario, workers: int = 1,
                   include_baseline: bool = True) -> ExperimentReport:
    """Run all trials with derived seeds and aggregate the results.

    Both engines run all trials as one batch. ``workers`` is accepted for
    compatibility and has no effect. ``include_baseline`` controls whether
    gaussian runs also compute the central reference curve.
    """
    started = time.perf_counter()
    scenario.validate()
    spectral = spectral_gap(scenario.graph)

    separation = inputs = bound = violated = reason = None
    baselines = None
    if scenario.engine == "discrete":
        separation, inputs, bound, violated, reason = sample_bound(scenario, spectral)
        results = _discrete_rounds(scenario, range(scenario.trials), separation.global_optima)
    else:
        aug, ys = _gaussian_samples(scenario, range(scenario.trials))
        results = _gaussian_rounds(scenario, (aug[..., None, :], ys[..., None]),
                                   merge=scenario.cooperative)
        if include_baseline and scenario.test_set is not None:
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
        failures = sum(1 for r in results if r.success is False)
        report.empirical_error = failures / scenario.trials
        star_mask = np.zeros(scenario.theta_set.n_points, dtype=bool)
        star_mask[list(separation.global_optima)] = True
        per_round_ok = np.stack(
            [star_mask[r.estimate_history].all(axis=1) for r in results]
        ).all(axis=0)
        hits = np.flatnonzero(per_round_ok)
        report.first_all_success_round = int(hits[0]) if hits.size else None
    else:
        if scenario.test_set is not None:
            curves = np.stack([r.mse_history for r in results])
            report.mean_mse_curves = curves.mean(axis=0)
            report.final_mse_per_node = report.mean_mse_curves[-1].copy()
            if baselines is not None:
                curves = np.stack([r.mse_history[:, 0] for r in baselines])
                report.baseline_mse_curve = curves.mean(axis=0)
                report.baseline_final_mse = float(report.baseline_mse_curve[-1])

    report.runtime_seconds = time.perf_counter() - started
    return report
