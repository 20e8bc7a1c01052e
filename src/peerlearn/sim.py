"""Synchronous round-based simulation of the peer-to-peer learning loop.

Each round every node draws one (instance, label) pair from its own
substream, performs its local Bayesian (or conjugate-Gaussian) update to
produce a public belief, and only after a full-round barrier merges its
in-neighbors' public beliefs through the weighted consensus rule, then
records its estimate.

Each belief family's engine has its own module, ``beliefs`` or ``gaussian``,
and runs a group of trials as one batch over trials and nodes.

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
from . import gaussian
from .graph import SpectralSummary, WeightMatrix, spectral_gap
from .models import (LinearGaussianModel, ParameterSet, SeparationTable, assumption_bounds,
                     augment, separation_table)
from .theory import BoundInputs, InvalidInputsError, sample_complexity

ENGINES = ("discrete", "gaussian")
BOUND_OVERRIDES = ("likelihood_log_range", "separation_rate")


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
            _check(self.noise_var is None
                   or any(isinstance(model, LinearGaussianModel) for model in self.models),
                   "noise_var", "only linear_gaussian models use it")
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
        return bel.run(scenario, [trial_index], global_optima)[0]
    xs, ys = gaussian.samples(scenario, [trial_index])
    return gaussian.run(scenario, (xs[..., None], ys[..., None]), merge=scenario.cooperative)[0]


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


def _run_group(scenario: Scenario, trials, report: ExperimentReport):
    """The engines on one group of trials: its results, and its baselines' MSE curves or None."""
    if scenario.engine == "discrete":
        return bel.run(scenario, trials, report.separation.global_optima), None
    xs, ys = gaussian.samples(scenario, trials)
    baselines = None
    if scenario.test_set is not None:  # one node fed every node's samples each round
        # Only the curves outlive this line, so the network pass runs without the rest.
        baselines = [r.mse_history[:, 0] for r in gaussian.run(
            scenario, (xs[:, :, :, None], ys[:, :, None]), merge=False, stage=0)]
    results = gaussian.run(scenario, (xs[..., None], ys[..., None]), merge=scenario.cooperative)
    return results, baselines


def run_experiment(scenario: Scenario, workers: int = 1, *, consume=None) -> ExperimentReport:
    """Run all trials with derived seeds and aggregate the results.

    A run validates the scenario and takes the spectral summary and, if
    discrete, the bound, once. Then it runs the engines on each group of
    ``_trial_groups`` (``_run_group``) and adds each trial to the totals:
    per round, the count of trials whose every node holds a global optimum
    (discrete), or the MSE curves (gaussian, with a test set). Each group's
    results go to ``consume(trials, results)``, by default an append to
    ``report.trial_results``, and are dropped before the next group runs,
    so a consumer that keeps none holds one group at a time;
    ``runtime_seconds`` leaves out the time spent there. If a gate fails,
    the later groups still run their engines, but nothing more is consumed,
    and the failure raised is the one a single batch would meet first
    (``_gate``). ``workers`` is accepted for compatibility and has no
    effect. Gaussian runs with a test set first run the central baseline,
    of which they keep the test-MSE curve, then the network.
    """
    started = time.perf_counter()
    scenario.validate()
    report = ExperimentReport(engine=scenario.engine, trials=scenario.trials,
                              spectral=spectral_gap(scenario.graph), trial_results=[])
    discrete = scenario.engine == "discrete"
    if discrete:
        (report.separation, report.bound_inputs, report.sample_bound,
         report.assumption_violated, report.sample_bound_reason) = sample_bound(
            scenario, report.spectral)
        report.clamp_events = []
    consume = consume or (lambda trials, results: report.trial_results.extend(results))
    # Summed trial by trial from zero, the curves have the bits of np.mean(axis=0) in any
    # grouping: 0.0 + x is x, and no MSE is -0.0. No name below outlives its group.
    optimal_count, curves, baseline_curve = 0, 0.0, 0.0
    consuming, failure = 0.0, None
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
            if discrete:
                report.clamp_events += [r.clamp_events for r in results]
                optimal = bel.optimal(report.separation.global_optima, scenario.theta_set.n_points)
                optimal_count = sum((optimal.take(r.estimate_history).all(axis=1)
                                     for r in results), optimal_count)
                del optimal
            elif baselines is not None:
                curves = sum((r.mse_history for r in results), curves)
                baseline_curve = sum(baselines, baseline_curve)
            clock = time.perf_counter()
            consume(trials, results)
            consuming += time.perf_counter() - clock
        del results, baselines  # before the next group runs
    if failure is not None:
        raise failure
    if discrete:  # integers divided: 1 - 47/50 is not 3/50 in floats
        report.empirical_error = (report.trials - int(optimal_count[-1])) / report.trials
        all_optimal = np.flatnonzero(optimal_count == report.trials)
        report.first_all_success_round = int(all_optimal[0]) if all_optimal.size else None
    elif scenario.test_set is not None:
        report.mean_mse_curves = curves / report.trials
        report.final_mse_per_node = report.mean_mse_curves[-1].copy()
        report.baseline_mse_curve = baseline_curve / report.trials
        report.baseline_final_mse = float(report.baseline_mse_curve[-1])
    report.runtime_seconds = time.perf_counter() - started - consuming
    return report
