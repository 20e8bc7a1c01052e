"""End-to-end acceptance suite.

Each criterion prints one pass/fail line; run with

    pytest tests/test_acceptance.py -v -s

Criterion 2b is expected to fail: in the pinned regression scenario the
type-2 node misses only the small coefficient (0.5 on a Unif[-1,1]
coordinate), which caps its excess test MSE over the central baseline at
its large-sample ceiling, 0.0791 on the pinned test set, structurally
below the 0.20 margin the criterion demands. The
test prints the measured margins next to each node's large-sample
ceiling, so the structural shortfall can be told from an engine fault.
"""

import math
import time

import numpy as np
import pytest

from peerlearn import (
    BoundInputs,
    ParameterSet,
    Scenario,
    assumption_bounds,
    gaussian,
    risk_bound,
    run_experiment,
    run_trial,
    sample_complexity,
    separation_table,
    spectral_gap,
    verify_mixing_bound,
)
from peerlearn.beliefs import row_normalize
from peerlearn.cli import main as cli_main

from helpers import (
    BeliefVector,
    GaussianBelief,
    covering_grid_world,
    per_draw_covering_distances,
    random_weight_matrix,
    recursion_residual,
    reference_consensus,
    regression_scenario,
    risk_gap_chain,
    three_node_bernoulli,
)

MASTER_SEED = 20260811
TEST_SET_SEED = 0


def report_line(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    return ok


# --------------------------------------------------------------------------
# Criterion 1: the sample-complexity bound holds empirically.
# --------------------------------------------------------------------------


def test_criterion_1_sample_complexity_bound():
    started = time.perf_counter()
    graph, theta_set, models = three_node_bernoulli()
    spectral = spectral_gap(graph)
    table = separation_table(models, theta_set, spectral.stationary,
                             mc_samples=4000, seed=123)
    assert table.global_optima == (0,)
    assert all(len(local) > 1 for local in table.local_optima)

    low, high = assumption_bounds(models, theta_set)
    bound_inputs = BoundInputs(
        n_nodes=3, n_params=10, delta=0.1,
        likelihood_log_range=abs(math.log(high / low)),
        separation_rate=table.separation_rate,
        lambda_max=spectral.lambda_max,
    )
    n_rounds = sample_complexity(bound_inputs)

    scenario = Scenario(graph=graph, engine="discrete", models=models,
                        n_rounds=n_rounds, trials=200, master_seed=MASTER_SEED,
                        theta_set=theta_set, record_beliefs=False, delta=0.1)
    report = run_experiment(scenario, workers=1)
    elapsed = time.perf_counter() - started

    ok_error = report.empirical_error <= 0.1
    ok_time = elapsed <= 60.0
    ok = report_line(
        "criterion 1 (sample-complexity bound)",
        ok_error and ok_time,
        f"n={n_rounds}, empirical error {report.empirical_error:.4f} <= 0.1, "
        f"runtime {elapsed:.1f}s <= 60s",
    )
    assert ok


# --------------------------------------------------------------------------
# Criterion 2: qualitative reproduction of the regression comparison.
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def regression_reports():
    started = time.perf_counter()
    cooperative = regression_scenario(
        n_rounds=2000, trials=20, master_seed=MASTER_SEED, test_seed=TEST_SET_SEED
    )
    coop = run_experiment(cooperative)
    isolated = regression_scenario(
        n_rounds=2000, trials=20, master_seed=MASTER_SEED,
        cooperative=False, test_seed=TEST_SET_SEED,
    )
    alone = run_experiment(isolated)
    elapsed = time.perf_counter() - started
    return coop, alone, elapsed


def test_criterion_2a_cooperative_matches_baseline(regression_reports):
    coop, _, _ = regression_reports
    gaps = coop.final_mse_per_node / coop.baseline_final_mse - 1.0
    ok = report_line(
        "criterion 2a (cooperative within 5% of baseline)",
        bool(np.all(np.abs(gaps) <= 0.05)),
        f"relative gaps {np.round(gaps, 4).tolist()}",
    )
    assert ok


def test_criterion_2b_noncooperative_margin(regression_reports):
    coop, alone, _ = regression_reports
    margins = alone.final_mse_per_node / coop.baseline_final_mse - 1.0
    ceilings = _masked_truth_margins(coop.baseline_final_mse)
    ok = report_line(
        "criterion 2b (each isolated node >= 20% above baseline)",
        bool(np.all(margins >= 0.20)),
        f"margins {np.round(margins, 4).tolist()}, "
        f"large-sample ceilings {np.round(ceilings, 4).tolist()}",
    )
    assert ok


def _masked_truth_margins(baseline_mse: float) -> np.ndarray:
    """Per node: test MSE of the truth with its unobserved coefficients zeroed.

    An isolated node never excites its unobserved coordinates, so its
    posterior mean there stays at the prior mean 0. Relative to the
    baseline, this is the margin it tends to as its observed coefficients
    are learnt exactly; finite-sample estimation error adds only O(1/n).
    A measured margin near its ceiling that still misses 20% is the
    scenario's structural limit, not an engine fault.
    """
    scenario = regression_scenario(n_rounds=1, test_seed=TEST_SET_SEED)
    x_test, y_test = scenario.test_set
    aug = np.hstack([np.ones((len(y_test), 1)), x_test])
    ceilings = []
    for model in scenario.models:
        theta = model.true_theta.copy()
        hidden = [j + 1 for j in range(model.instance_dim) if j not in model.observed]
        theta[hidden] = 0.0
        ceilings.append(np.mean((aug @ theta - y_test) ** 2) / baseline_mse - 1.0)
    return np.array(ceilings)


def test_criterion_2c_baseline_at_noise_floor(regression_reports):
    coop, _, elapsed = regression_reports
    in_window = 0.64 <= coop.baseline_final_mse <= 0.70
    in_budget = elapsed <= 30.0
    ok = report_line(
        "criterion 2c (baseline MSE in [0.64, 0.70])",
        in_window and in_budget,
        f"baseline {coop.baseline_final_mse:.4f}, runtime {elapsed:.1f}s <= 30s",
    )
    assert ok


# --------------------------------------------------------------------------
# Criterion 3: the gaussian engine's merge equals the discrete-grid merge.
# --------------------------------------------------------------------------


def test_criterion_3_consensus_oracle_equivalence():
    rng = np.random.default_rng(33)
    worst = 0.0

    grid_1d = ParameterSet(np.linspace(-10.0, 10.0, 4001)[:, None])
    for _ in range(50):
        beliefs = [
            GaussianBelief(rng.uniform(-3, 3, 1), rng.uniform(0.1, 5.0, (1, 1)))
            for _ in range(2)
        ]
        w = rng.uniform(0.1, 0.9)
        worst = max(worst, _oracle_log_gap(beliefs, [w, 1.0 - w], grid_1d))

    for _ in range(20):
        points = rng.uniform(-6.0, 6.0, size=(4001, 3))
        grid_3d = ParameterSet(points)
        beliefs = []
        for _ in range(2):
            root = rng.normal(size=(3, 3))
            beliefs.append(
                GaussianBelief(rng.uniform(-2, 2, 3), root @ root.T + 0.5 * np.eye(3))
            )
        w = rng.uniform(0.1, 0.9)
        worst = max(worst, _oracle_log_gap(beliefs, [w, 1.0 - w], grid_3d))

    ok = report_line(
        "criterion 3 (consensus oracle equivalence)",
        worst <= 1e-6,
        f"worst relative density error {worst:.3e} <= 1e-6 over 70 merges",
    )
    assert ok


def _oracle_log_gap(beliefs, weights, grid) -> float:
    """Largest log gap, over the grid, between the engine's merged Gaussian and the grid merge.

    The engine side packs each belief as a state row, mixes the rows by the
    weights as a round's merge does and takes the merged mean from the
    engine's moments; the merged precision is the weighted sum of the
    input precisions. The grid side merges the beliefs' log densities
    through the reference consensus.
    """
    merged = np.asarray(weights) @ np.stack([gaussian._pack(b.mean, b.precision) for b in beliefs])
    means, _, positive = gaussian._moments(merged[:, None])
    assert positive.all()
    precision = sum(w * b.precision for b, w in zip(beliefs, weights))
    log_direct = GaussianBelief(means[:, 0], precision).log_density(grid.points)
    log_direct = log_direct - _logsumexp(log_direct)
    oracle = reference_consensus(
        [(BeliefVector(b.log_density(grid.points)), w) for b, w in zip(beliefs, weights)])
    return float(np.max(np.abs(oracle.log_weights - log_direct)))


def _logsumexp(values: np.ndarray) -> float:
    peak = values.max()
    return peak + math.log(np.exp(values - peak).sum())


# --------------------------------------------------------------------------
# Criterion 4: the log-belief-ratio recursion identity.
# --------------------------------------------------------------------------


def test_criterion_4_log_belief_recursion_identity():
    graph, theta_set, models = three_node_bernoulli()
    n_rounds = 50
    scenario = Scenario(graph=graph, engine="discrete", models=models,
                        n_rounds=n_rounds, trials=1, master_seed=404,
                        theta_set=theta_set)
    worst = recursion_residual(scenario, run_trial(scenario, 0))

    ok = report_line(
        "criterion 4 (log-belief recursion identity)",
        worst <= 1e-9,
        f"worst pairwise residual {worst:.3e} <= 1e-9 over "
        f"{n_rounds} rounds x 3 nodes x all parameter pairs",
    )
    assert ok


# --------------------------------------------------------------------------
# Criterion 5: the mixing bound over random validated matrices.
# --------------------------------------------------------------------------


def test_criterion_5_mixing_bound_random_matrices():
    rng = np.random.default_rng(0)
    worst_ratio = 0.0
    for index in range(100):
        n = 2 + index % 9
        w = random_weight_matrix(rng, n)
        report = verify_mixing_bound(w, horizon=500)
        worst_ratio = max(worst_ratio, float(report.partial_sums.max() / report.bound))
        if not report.all_within():
            break
    ok = report_line(
        "criterion 5 (mixing bound, 100 random graphs, horizon 500)",
        worst_ratio <= 1.0,
        f"worst partial-sum/bound ratio {worst_ratio:.4f} <= 1",
    )
    assert ok


# --------------------------------------------------------------------------
# Criterion 6: the discrete engine's merge ignores per-input normalization
# constants.
# --------------------------------------------------------------------------


def test_criterion_6_shift_invariance_bulk():
    # Each merge is the discrete engine's: one product of the weights with
    # the public log-beliefs (one row of a round's weight matrix over one
    # trial's k publics), then the normalization kernel.
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 11))
        k = int(rng.integers(1, 7))
        logs = np.stack([rng.normal(scale=10.0, size=m) for _ in range(k)])
        weights = rng.dirichlet(np.ones(k))
        shifts = rng.uniform(-80.0, 80.0, size=k)
        probabilities = []
        for publics in (logs, logs + shifts[:, None]):
            rows = np.matmul(weights[None], publics[None])
            row_normalize(rows, np.empty_like(rows), rows.max(axis=-1, keepdims=True))
            probabilities.append(np.exp(rows))
        worst = max(worst, float(np.max(np.abs(probabilities[0] - probabilities[1]))))
    ok = report_line(
        "criterion 6 (consensus shift invariance, 1000 cases)",
        worst <= 1e-12,
        f"worst probability deviation {worst:.3e} <= 1e-12",
    )
    assert ok


# --------------------------------------------------------------------------
# Criterion 7: empirical risk gap under the covering-radius bound.
# --------------------------------------------------------------------------


def test_criterion_7_risk_gap_under_covering_bound():
    graph, theta_set, models, star_index = covering_grid_world()
    spectral = spectral_gap(graph)
    table = separation_table(models, theta_set, spectral.stationary,
                             mc_samples=2000, seed=7)
    assert table.global_optima == (star_index,)

    # Measured covering radius of the grid inside the ambient square.
    axis = np.linspace(0.2, 0.8, 41)
    phi = np.array([[a, b] for a in axis for b in axis])
    radius = per_draw_covering_distances(phi, theta_set.points, models, 400, 17).max()
    gap_bound = risk_bound(1.0, radius)

    def label_risk(xs, y):
        return np.broadcast_to(float(y), np.shape(xs)).astype(float)

    scenario = Scenario(graph=graph, engine="discrete", models=models,
                        n_rounds=400, trials=50, master_seed=MASTER_SEED,
                        theta_set=theta_set, record_beliefs=False)
    report = run_experiment(scenario)
    worst_gap = 0.0
    violations = 0
    for t, trial in enumerate(report.trial_results):
        gap = risk_gap_chain(models, theta_set.points, star_index,
                             trial.final_estimates, label_risk,
                             mc_samples=400, seed=900 + t)["risk_gap"]
        worst_gap = max(worst_gap, gap)
        violations += int(gap > gap_bound)

    ok = report_line(
        "criterion 7 (risk gap under covering bound, 50 trials)",
        violations == 0,
        f"radius {radius:.4f}, bound {gap_bound:.4f}, worst gap {worst_gap:.4f}, "
        f"violations {violations}",
    )
    assert ok


# --------------------------------------------------------------------------
# Criterion 8: byte-identical CSV output across worker counts.
# --------------------------------------------------------------------------


def test_criterion_8_worker_count_determinism(tmp_path):
    import json

    config = {
        "schema_version": 1,
        "scenario": {
            "engine": "gaussian",
            "graph": {"weights": [[0.9, 0.1], [0.6, 0.4]]},
            "n_rounds": 2000,
            "trials": 20,
            "master_seed": MASTER_SEED,
            "models": [
                {"family": "linear_gaussian", "observed": [0],
                 "ranges": [[-1, 1], [-1.5, 1.5]]},
                {"family": "linear_gaussian", "observed": [1],
                 "ranges": [[-1, 1], [-1.5, 1.5]]},
            ],
            "prior": {"mean": [0, 0, 0], "variance_diag": [0.5, 0.5, 0.5]},
            "true_theta": [-0.3, 0.5, 0.8],
            "noise_std": 0.8,
            "test_set": {"size": 1000, "ranges": [[-1, 1], [-1.5, 1.5]],
                         "seed": TEST_SET_SEED},
        },
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    out_serial = tmp_path / "serial"
    out_parallel = tmp_path / "parallel"
    assert cli_main(["run", str(config_path), "--out", str(out_serial),
                     "--workers", "1"]) == 0
    assert cli_main(["run", str(config_path), "--out", str(out_parallel),
                     "--workers", "4"]) == 0
    identical = (
        (out_serial / "metrics.csv").read_bytes()
        == (out_parallel / "metrics.csv").read_bytes()
    )
    ok = report_line(
        "criterion 8 (worker-count determinism)",
        identical,
        "metrics.csv byte-identical across 1 and 4 workers",
    )
    assert ok
