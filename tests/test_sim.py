"""Round engine: determinism, barriers, learning behavior, baselines."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peerlearn import (
    BeliefVector,
    BernoulliContextModel,
    CategoricalContextModel,
    LinearGaussianModel,
    ParameterSet,
    Scenario,
    SingularPrecisionError,
    ZeroLikelihoodError,
    consensus_update,
    make_regression_test_set,
    node_stream,
    run_experiment,
    run_trial,
    sim,
    validate_weight_matrix,
)

from helpers import (
    REGRESSION_THETA,
    REGRESSION_W,
    bayesian_update,
    discrete_oracle,
    floor_clamp_scenario,
    gaussian_oracle,
    in_neighbors,
    lapack_moments,
    peak_bytes,
    random_weight_matrix,
    recursion_residual,
    regression_scenario,
    three_node_bernoulli,
    trial_samples,
    uniform_prior,
)


def single_node_scenario(n_rounds=500, seed=7) -> Scenario:
    graph = validate_weight_matrix([[1.0]])
    theta = ParameterSet(np.array([[0.8], [0.3], [0.5]]))
    model = BernoulliContextModel(0, true_probs=[0.8], visible=[0])
    return Scenario(graph=graph, engine="discrete", models=[model],
                    n_rounds=n_rounds, trials=1, master_seed=seed,
                    theta_set=theta)


def categorical_scenario(n_rounds=60, cooperative=True, points=None) -> Scenario:
    """2-node world with 3 labels per context; each node sees one context."""
    truth = np.array([[0.6, 0.3, 0.1], [0.2, 0.2, 0.6]])
    if points is None:
        points = [truth.ravel(), [0.2, 0.5, 0.3, 0.2, 0.2, 0.6],
                  [0.6, 0.3, 0.1, 0.5, 0.3, 0.2], np.full(6, 1 / 3)]
    return Scenario(graph=validate_weight_matrix(REGRESSION_W), engine="discrete",
                    models=[CategoricalContextModel(i, truth, [i]) for i in range(2)],
                    n_rounds=n_rounds, trials=1, master_seed=9,
                    theta_set=ParameterSet(np.array(points)), cooperative=cooperative)


def intercept_grid_scenario(n_rounds=60, cooperative=True) -> Scenario:
    """Intercept-only regression on a grid: gaussian likelihoods on the discrete engine."""
    return Scenario(graph=validate_weight_matrix(REGRESSION_W), engine="discrete",
                    models=[LinearGaussianModel(i, [0.9], [], [], 0.6) for i in range(2)],
                    n_rounds=n_rounds, trials=1, master_seed=31,
                    theta_set=ParameterSet(np.linspace(-2.0, 2.0, 81)[:, None]),
                    cooperative=cooperative)


def assert_matches_discrete_oracle(scenario: Scenario) -> None:
    result = run_trial(scenario, 0)
    beliefs, estimates, clamp_events = discrete_oracle(scenario)
    np.testing.assert_allclose(result.belief_history, beliefs, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(result.estimate_history, estimates)
    assert result.clamp_events == clamp_events


def assert_matches_gaussian_oracle(scenario: Scenario) -> None:
    """Trial 0's pass, and the central baseline's on the same data, against the oracle."""
    report = run_experiment(scenario)
    runs = [
        (report.trial_results[0], gaussian_oracle(scenario)),
        (report.baseline_results[0], gaussian_oracle(scenario, central=True)),
    ]
    for batched, (means, variances, mses) in runs:
        np.testing.assert_allclose(batched.mean_history, means, rtol=0, atol=1e-12)
        np.testing.assert_allclose(batched.variance_diag_history, variances, rtol=0, atol=1e-12)
        np.testing.assert_allclose(batched.mse_history, mses, rtol=0, atol=1e-12)


class TestDiscreteEngine:
    def test_single_node_reduces_to_plain_bayes(self):
        result = run_trial(single_node_scenario(), 0, global_optima=(0,))
        assert result.success
        assert result.final_estimates[0] == 0

    @pytest.mark.parametrize("cooperative", [True, False])
    def test_batched_engine_matches_per_node_oracle(self, cooperative):
        graph, theta, models = three_node_bernoulli()
        worlds = [
            Scenario(graph=graph, engine="discrete", models=models, n_rounds=60,
                     trials=1, master_seed=5, theta_set=theta, cooperative=cooperative),
            floor_clamp_scenario(n_rounds=60, cooperative=cooperative),
            categorical_scenario(cooperative=cooperative),
            intercept_grid_scenario(cooperative=cooperative),
        ]
        for scenario in worlds:
            assert_matches_discrete_oracle(scenario)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(2, 4), cooperative=st.booleans())
    def test_engine_matches_oracle_on_random_graphs(self, seed, n_nodes, cooperative):
        rng = np.random.default_rng(seed)
        truth = rng.uniform(0.1, 0.9, 3)
        models = [
            BernoulliContextModel(i, truth, rng.choice(3, int(rng.integers(1, 4)), replace=False))
            for i in range(n_nodes)
        ]
        points = np.vstack([truth, rng.uniform(0.05, 0.95, (7, 3))])
        assert_matches_discrete_oracle(Scenario(
            graph=random_weight_matrix(rng, n_nodes), engine="discrete", models=models,
            n_rounds=40, trials=1, master_seed=seed, theta_set=ParameterSet(points),
            cooperative=cooperative))

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(2, 5), n_rounds=st.integers(1, 40))
    def test_recursion_identity_on_random_graphs(self, seed, n_nodes, n_rounds):
        # Criterion 4's identity. Probabilities in [0.05, 0.95] over at most 40
        # rounds keep every log-belief far above the floor, which would break it.
        rng = np.random.default_rng(seed)
        truth = rng.uniform(0.05, 0.95, 3)
        models = [
            BernoulliContextModel(i, truth, rng.choice(3, int(rng.integers(1, 4)), replace=False))
            for i in range(n_nodes)
        ]
        scenario = Scenario(
            graph=random_weight_matrix(rng, n_nodes), engine="discrete", models=models,
            n_rounds=n_rounds, trials=1, master_seed=seed,
            theta_set=ParameterSet(np.vstack([truth, rng.uniform(0.05, 0.95, (7, 3))])))
        result = run_trial(scenario, 0)
        assert result.clamp_events == 0
        assert recursion_residual(scenario, result) <= 1e-9

    def test_zero_likelihood_names_its_round(self):
        # Label 2 has probability 0.1 under the truth and 0 under every candidate.
        scenario = categorical_scenario(n_rounds=100, points=[[0.5, 0.5, 0.0, 0.2, 0.2, 0.6],
                                                              [0.9, 0.1, 0.0, 0.2, 0.2, 0.6]])
        rng = node_stream(scenario.master_seed, 0, 0)
        model = scenario.models[0]
        labels = model.sample_labels(rng, model.sample_instances(rng, scenario.n_rounds))
        first = int(np.flatnonzero(labels == 2)[0])
        assert first > 0
        with pytest.raises(ZeroLikelihoodError, match=rf"^round {first}: "):
            run_trial(scenario, 0)

    def test_recorded_samples_deterministic(self):
        scenario = single_node_scenario(n_rounds=40)
        # The oracles redraw the engine's samples: (seed, trial, node) fixes them.
        (xs_a, ys_a), (xs_b, ys_b) = trial_samples(scenario), trial_samples(scenario)
        np.testing.assert_array_equal(xs_a[0], xs_b[0])
        np.testing.assert_array_equal(ys_a[0], ys_b[0])
        first, second = run_trial(scenario, 0), run_trial(scenario, 0)
        np.testing.assert_array_equal(first.belief_history, second.belief_history)

    def test_no_clamping_in_benign_scenario(self):
        result = run_trial(single_node_scenario(n_rounds=200), 0)
        assert result.clamp_events == 0

    def test_symmetry_under_identical_streams(self, rng):
        # All nodes share the prior and see the same samples; with any
        # row-stochastic merge their trajectories stay identical.
        graph = random_weight_matrix(rng, 4)
        truth = np.array([0.75, 0.3])
        model = BernoulliContextModel(0, truth, [0, 1])
        theta = ParameterSet(np.array([truth, [0.4, 0.6], [0.2, 0.2]]))
        privates = [uniform_prior(3) for _ in range(4)]
        for _ in range(40):
            x = int(rng.integers(0, 2))
            y = int(rng.random() < truth[x])
            publics = [
                bayesian_update(q, model, theta, x, y) for q in privates
            ]
            privates = [
                consensus_update(
                    [(publics[j], graph.weights[i, j])
                     for j in in_neighbors(graph, i)]
                )
                for i in range(4)
            ]
            first = privates[0].log_weights
            for q in privates[1:]:
                np.testing.assert_allclose(q.log_weights, first, atol=1e-12)


class TestScenarioValidation:
    def test_model_count_must_match_graph(self):
        scenario = single_node_scenario()
        scenario.models = scenario.models * 2
        with pytest.raises(ValueError):
            scenario.validate()

    def test_discrete_engine_rejects_test_set(self):
        scenario = single_node_scenario()
        scenario.test_set = (np.zeros((3, 1)), np.zeros(3))
        with pytest.raises(ValueError):
            scenario.validate()

    def test_gaussian_engine_requires_prior(self):
        scenario = regression_scenario(n_rounds=5)
        scenario.prior_mean = None
        with pytest.raises(ValueError):
            scenario.validate()


def entry_major(precision: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """States ``(B, d, d)`` and ``(B, d)`` in the engine's entry-major layout, ``(d*d + d, B)``."""
    return np.concatenate([precision.reshape(len(shift), -1), shift], axis=1).T.copy()


class TestMomentsKernel:
    """``sim._moments``, the entry-wise Cholesky kernel, against the LAPACK oracle."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8),
           log_kappa=st.floats(0.0, 8.0))
    @example(seed=0, dim=8, log_kappa=8.0)
    @example(seed=1, dim=3, log_kappa=4.0)
    def test_matches_the_lapack_oracle(self, seed, dim, log_kappa):
        # SPD batches with eigenvalues from 1 down to 1/kappa, in random
        # bases and at scales from 1e-3 to 1e3. Two backward-stable paths
        # differ by about cond(P) * eps, relative to each state's moments.
        rng = np.random.default_rng(seed)
        batch = 16
        basis = np.linalg.qr(rng.normal(size=(batch, dim, dim)))[0]
        scale = 10.0 ** rng.uniform(-3.0, 3.0, (batch, 1, 1))

        def symmetric(eigenvalues):
            matrices = scale * (basis * eigenvalues) @ basis.swapaxes(1, 2)
            return (matrices + matrices.swapaxes(1, 2)) / 2

        eigenvalues = np.geomspace(1.0, 10.0 ** -log_kappa, dim)
        precision = symmetric(eigenvalues)
        shift = scale[..., 0] * rng.normal(size=(batch, dim))

        means, variances, positive = sim._moments(entry_major(precision, shift))
        assert positive.all()
        tolerance = 64 * np.linalg.cond(precision) * np.finfo(float).eps
        for got, want in zip((means.T, variances.T), lapack_moments(precision, shift)):
            error = np.abs(got - want).max(axis=1)
            assert np.all(error <= tolerance * np.abs(want).max(axis=1))
        # One state alone gets the same bits as in its batch.
        alone = sim._moments(entry_major(precision[:1], shift[:1]))
        np.testing.assert_array_equal(alone[0][:, 0], means[:, 0])
        np.testing.assert_array_equal(alone[1][:, 0], variances[:, 0])

        # The pivots reject an indefinite matrix (the smallest eigenvalue
        # negated), a singular one (a row and column zeroed) and a NaN entry.
        indefinite = symmetric(eigenvalues * np.r_[np.ones(dim - 1), -1.0])
        singular, with_nan = precision.copy(), precision.copy()
        for b, (r, c) in enumerate(rng.integers(0, dim, (batch, 2))):
            singular[b, r, :] = singular[b, :, r] = 0.0
            with_nan[b, r, c] = with_nan[b, c, r] = np.nan
        for defective in (indefinite, singular):
            with pytest.raises(np.linalg.LinAlgError):
                lapack_moments(defective[:1], shift[:1])
        for defective in (indefinite, singular, with_nan):
            assert not sim._moments(entry_major(defective, shift))[2].any()
        mixed = np.concatenate([precision[:1], singular[1:2], precision[2:3], with_nan[3:4]])
        flags = sim._moments(entry_major(mixed, shift[:4]))[2]
        np.testing.assert_array_equal(flags, [True, False, True, False])


class TestGaussianEngine:
    def test_cooperative_nodes_reach_truth(self):
        scenario = regression_scenario(n_rounds=2000, master_seed=11)
        result = run_trial(scenario, 0)
        for mean in result.final_estimates:
            assert np.linalg.norm(mean - REGRESSION_THETA) < 0.1

    def test_noncooperative_node_never_learns_hidden_coordinate(self):
        scenario = regression_scenario(n_rounds=800, cooperative=False)
        result = run_trial(scenario, 0)
        # Type-1 never excites coordinate 2 and type-2 never excites
        # coordinate 1: each node's mean and variance there stay exactly at
        # the prior, although both nodes share one batched state array.
        assert result.final_estimates[0][2] == 0.0
        assert result.variance_diag_history[-1, 0, 2] == pytest.approx(0.5, abs=1e-12)
        assert abs(result.final_estimates[0][2] - REGRESSION_THETA[2]) > 0.5
        assert result.final_estimates[1][1] == 0.0
        assert result.variance_diag_history[-1, 1, 1] == pytest.approx(0.5, abs=1e-12)
        # The observed coordinates do move away from the prior.
        assert result.final_estimates[0][1] != 0.0
        assert result.final_estimates[1][2] != 0.0

    @pytest.mark.parametrize("cooperative", [True, False])
    def test_batched_engine_matches_per_node_oracle(self, cooperative):
        assert_matches_gaussian_oracle(regression_scenario(n_rounds=300, cooperative=cooperative))

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(2, 4), dim=st.integers(2, 8),
           chunk=st.integers(2, 9))
    @example(seed=8, n_nodes=3, dim=8, chunk=5)
    def test_engine_matches_oracle_on_random_graphs(self, seed, n_nodes, dim, chunk):
        # 19 rounds: no batch size in 2..9 divides them, so the last batch is short.
        rng = np.random.default_rng(seed)
        theta, ranges = rng.uniform(-1.0, 1.0, dim), [[-1.0, 1.0]] * (dim - 1)
        models = [
            LinearGaussianModel(i, theta, ranges, np.flatnonzero(rng.random(dim - 1) < 0.6), 0.7)
            for i in range(n_nodes)
        ]
        scenario = Scenario(
            graph=random_weight_matrix(rng, n_nodes), engine="gaussian", models=models,
            n_rounds=19, trials=1, master_seed=seed, prior_mean=rng.normal(size=dim),
            prior_variance_diag=rng.uniform(0.2, 2.0, dim), noise_var=0.49,
            test_set=make_regression_test_set(30, ranges, theta, 0.7, seed))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "_CHUNK_ROUNDS", chunk)
            for cooperative in (True, False):
                assert_matches_gaussian_oracle(
                    dataclasses.replace(scenario, cooperative=cooperative))

    @pytest.mark.parametrize("merge", [True, False])
    def test_pd_gate_names_the_failing_round(self, monkeypatch, merge):
        monkeypatch.setattr(sim, "_CHUNK_ROUNDS", 4)
        # Every sample is zero but one at round 5, one round past the first
        # batch; the negative noise variance makes its increment -100 e0 e0^T,
        # so that round's precision is indefinite, for either node after a merge.
        scenario = dataclasses.replace(regression_scenario(n_rounds=12, trials=2),
                                       noise_var=-0.01)
        aug, ys = np.zeros((12, 2, 2, 1, 3)), np.zeros((12, 2, 2, 1))
        aug[5, 1, 0, 0, 0] = 1.0
        with pytest.raises(SingularPrecisionError,
                           match=r"^round 5: precision is not positive definite; the state is "
                                 r"ill-conditioned: 1/noise_std\^2 is -50 times the least prior "
                                 r"precision$"):
            sim._gaussian_rounds(scenario, (aug, ys), merge=merge)

    def test_peak_does_not_grow_with_the_round_count(self):
        # d = 6 and two trials: the traced peak less the output moments is
        # about 0.58 MB at 250 and at 1,000 rounds, mostly one 128-round
        # batch's packed states, their entry-major copy and its factor.
        # Increments held for every round, (K, T, N, d, d), would take 2 MB
        # at 1,000 rounds.
        dim = 6
        theta, ranges = np.linspace(-0.5, 0.5, dim), [[-1.0, 1.0]] * (dim - 1)
        for n_rounds in (250, 1000):
            scenario = Scenario(
                graph=validate_weight_matrix(REGRESSION_W), engine="gaussian",
                models=[LinearGaussianModel(i, theta, ranges, [2 * i, 2 * i + 1, 4], 0.5)
                        for i in range(2)],
                n_rounds=n_rounds, trials=2, master_seed=3, prior_mean=np.zeros(dim),
                prior_variance_diag=np.ones(dim), noise_var=0.25,
                test_set=make_regression_test_set(20, ranges, theta, 0.5, 1))
            reports = []
            peak = peak_bytes(lambda: reports.append(run_experiment(scenario)))
            outputs = sum(
                history.nbytes
                for result in reports[0].trial_results + reports[0].baseline_results
                for history in (result.mean_history, result.variance_diag_history,
                                result.mse_history)
            )
            assert peak - outputs < 2**20

    def test_moments_do_not_depend_on_the_round_batch(self, monkeypatch):
        # 7 does not divide 300, so the last batch is a short one.
        scenario = regression_scenario(n_rounds=300, trials=3)
        default = run_experiment(scenario)
        monkeypatch.setattr(sim, "_CHUNK_ROUNDS", 7)
        small = run_experiment(scenario)
        pairs = zip(default.trial_results + default.baseline_results,
                    small.trial_results + small.baseline_results)
        for a, b in pairs:
            np.testing.assert_array_equal(a.mean_history, b.mean_history)
            np.testing.assert_array_equal(a.variance_diag_history, b.variance_diag_history)
            np.testing.assert_array_equal(a.mse_history, b.mse_history)

    def test_central_baseline_approaches_noise_floor(self):
        scenario = regression_scenario(n_rounds=1500)
        baseline = run_experiment(scenario).baseline_results[0]
        assert 0.55 <= baseline.mse_history[-1, 0] <= 0.75

    def test_mse_requires_test_set(self):
        scenario = regression_scenario(n_rounds=10)
        scenario.test_set = None
        result = run_trial(scenario, 0)
        assert result.mse_history is None


class TestDeterminism:
    def test_equal_seeds_bit_identical(self):
        scenario = regression_scenario(n_rounds=120, trials=3)
        first = run_experiment(scenario)
        second = run_experiment(scenario)
        for a, b in zip(first.trial_results, second.trial_results):
            np.testing.assert_array_equal(a.mean_history, b.mean_history)
            np.testing.assert_array_equal(a.mse_history, b.mse_history)

    def test_worker_count_does_not_change_results(self):
        scenario = regression_scenario(n_rounds=100, trials=4)
        serial = run_experiment(scenario, workers=1)
        parallel = run_experiment(scenario, workers=4)
        for a, b in zip(serial.trial_results, parallel.trial_results):
            np.testing.assert_array_equal(a.mean_history, b.mean_history)
            np.testing.assert_array_equal(a.mse_history, b.mse_history)

    def test_trial_rows_do_not_depend_on_batch_size(self):
        # Batched BLAS calls may pick kernels by batch size; a trial run
        # alone must still reproduce its rows in a 20-trial batch bit for
        # bit, baseline included.
        scenario = regression_scenario(n_rounds=300, trials=20)
        report = run_experiment(scenario)
        for t in range(scenario.trials):
            lone = run_trial(scenario, t)
            batched = report.trial_results[t]
            np.testing.assert_array_equal(lone.mean_history, batched.mean_history)
            np.testing.assert_array_equal(
                lone.variance_diag_history, batched.variance_diag_history
            )
            np.testing.assert_array_equal(lone.mse_history, batched.mse_history)
            # Trial t's baseline, last in a batch of t + 1 trials.
            shorter = run_experiment(dataclasses.replace(scenario, trials=t + 1))
            central, pooled = shorter.baseline_results[t], report.baseline_results[t]
            np.testing.assert_array_equal(central.mean_history, pooled.mean_history)
            np.testing.assert_array_equal(
                central.variance_diag_history, pooled.variance_diag_history
            )
            np.testing.assert_array_equal(central.mse_history, pooled.mse_history)

    def test_discrete_trial_rows_do_not_depend_on_batch_size(self):
        # Each trial's rows must be the same bits alone as in a 20-trial
        # batch, also where the log-belief floor fires.
        graph, theta, models = three_node_bernoulli()
        floor_world = floor_clamp_scenario(n_rounds=400, trials=20)
        worlds = [
            Scenario(graph=graph, engine="discrete", models=models, n_rounds=120,
                     trials=20, master_seed=21, theta_set=theta),
            floor_world,
        ]
        for scenario in worlds:
            report = run_experiment(scenario)
            for t in range(scenario.trials):
                lone = run_trial(scenario, t, global_optima=report.separation.global_optima)
                batched = report.trial_results[t]
                np.testing.assert_array_equal(lone.belief_history, batched.belief_history)
                np.testing.assert_array_equal(lone.estimate_history, batched.estimate_history)
                assert lone.success == batched.success
                assert lone.clamp_events == batched.clamp_events
            if scenario is floor_world:
                # The floor fires in every round after the first.
                assert [r.clamp_events for r in report.trial_results] == [399] * 20

    def test_different_seeds_differ(self):
        base = regression_scenario(n_rounds=50, master_seed=1)
        other = regression_scenario(n_rounds=50, master_seed=2)
        a = run_trial(base, 0)
        b = run_trial(other, 0)
        assert not np.array_equal(a.mean_history, b.mean_history)


class TestExperimentAggregation:
    def test_single_trial_matches_trial_result(self):
        graph, theta, models = three_node_bernoulli()
        scenario = Scenario(graph=graph, engine="discrete", models=models,
                            n_rounds=120, trials=1, master_seed=21,
                            theta_set=theta)
        report = run_experiment(scenario)
        lone = run_trial(scenario, 0, global_optima=report.separation.global_optima)
        np.testing.assert_array_equal(
            report.trial_results[0].final_estimates, lone.final_estimates
        )
        assert report.trial_results[0].success == lone.success
        assert report.empirical_error in (0.0, 1.0)

    def test_learnable_network_reports_zero_error(self):
        graph, theta, models = three_node_bernoulli()
        scenario = Scenario(graph=graph, engine="discrete", models=models,
                            n_rounds=400, trials=5, master_seed=77,
                            theta_set=theta, record_beliefs=False)
        report = run_experiment(scenario)
        assert report.separation.global_optima == (0,)
        assert report.empirical_error == 0.0
        assert report.sample_bound is not None
        assert report.first_all_success_round is not None
        assert report.first_all_success_round < 400

    def test_gaussian_report_tracks_mse_and_baseline(self):
        scenario = regression_scenario(n_rounds=150, trials=2)
        report = run_experiment(scenario)
        assert report.mean_mse_curves.shape == (150, 2)
        assert report.baseline_mse_curve.shape == (150,)
        assert report.final_mse_per_node.shape == (2,)
        assert report.baseline_final_mse > 0


class TestEngineCrossCheck:
    def test_discrete_grid_tracks_gaussian_posterior(self):
        # Intercept-only regression: replay the gaussian engine's samples
        # through the discrete engine on a fine grid seeded with the
        # discretized prior; the argmax must track the posterior mean.
        truth = [0.9]
        noise_std = 0.6
        graph = validate_weight_matrix([[0.9, 0.1], [0.6, 0.4]])
        models = [
            LinearGaussianModel(0, truth, [], [], noise_std),
            LinearGaussianModel(1, truth, [], [], noise_std),
        ]
        scenario = Scenario(
            graph=graph, engine="gaussian", models=models, n_rounds=150,
            trials=1, master_seed=31, prior_mean=np.zeros(1),
            prior_variance_diag=np.array([0.5]), noise_var=noise_std**2,
        )
        gaussian_run = run_trial(scenario, 0)
        instances, labels = trial_samples(scenario)

        step = 0.002
        grid_axis = np.arange(-2.0, 2.0 + step / 2, step)
        grid = ParameterSet(grid_axis[:, None])
        prior_logs = -0.5 * grid_axis**2 / 0.5
        privates = [BeliefVector(prior_logs.copy()) for _ in range(2)]
        for k in range(scenario.n_rounds):
            publics = [
                bayesian_update(
                    privates[i], models[i], grid, instances[i][k], labels[i][k],
                )
                for i in range(2)
            ]
            privates = [
                consensus_update(
                    [(publics[j], graph.weights[i, j])
                     for j in in_neighbors(graph, i)]
                )
                for i in range(2)
            ]
            for i in range(2):
                peak = grid_axis[int(np.argmax(privates[i].log_weights))]
                assert abs(peak - gaussian_run.mean_history[k, i, 0]) <= step
