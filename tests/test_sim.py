"""Round engine: determinism, barriers, learning behavior, baselines."""

import dataclasses
import weakref
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from peerlearn import (
    BernoulliContextModel,
    CategoricalContextModel,
    LinearGaussianModel,
    ParameterSet,
    Scenario,
    ScenarioError,
    SingularPrecisionError,
    ZeroLikelihoodError,
    make_regression_test_set,
    node_stream,
    run_experiment,
    run_trial,
    separation_table,
    sim,
    spectral_gap,
    validate_weight_matrix,
)
from peerlearn import beliefs, gaussian

from helpers import (
    REGRESSION_NOISE_STD,
    REGRESSION_THETA,
    REGRESSION_W,
    BeliefVector,
    bayesian_update,
    covering_grid_world,
    discrete_oracle,
    exact_expected_kl,
    floor_clamp_scenario,
    gaussian_oracle,
    in_neighbors,
    isin_success,
    lapack_moments,
    peak_bytes,
    random_weight_matrix,
    recursion_residual,
    reference_consensus,
    reference_increments,
    reference_test_set_mse,
    regression_models,
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


def index_edge_scenario(n_params, n_rounds=4, trials=1) -> Scenario:
    """2-node Bernoulli world of ``n_params`` points whose truth is the last one.

    The truth, 0.95, wins once the labels are mostly 1, and the first
    point, 1e-300, falls below the log-belief floor from the second round.
    """
    points = np.concatenate([[1e-300], np.linspace(0.05, 0.3, n_params - 2), [0.95]])
    return Scenario(graph=validate_weight_matrix(REGRESSION_W), engine="discrete",
                    models=[BernoulliContextModel(i, [0.95], [0]) for i in range(2)],
                    n_rounds=n_rounds, trials=trials, master_seed=13,
                    theta_set=ParameterSet(points[:, None]))


def many_label_scenario(n_labels, n_rounds=20) -> Scenario:
    """2-node categorical world of one context whose last label has probability 0.9."""
    def table(last):
        return np.append(np.full(n_labels - 1, (1.0 - last) / (n_labels - 1)), last)
    return Scenario(graph=validate_weight_matrix(REGRESSION_W), engine="discrete",
                    models=[CategoricalContextModel(i, [table(0.9)], [0]) for i in range(2)],
                    n_rounds=n_rounds, trials=1, master_seed=17,
                    theta_set=ParameterSet(np.array([table(0.9), table(0.5), table(1 / n_labels)])))


def twin_optima_scenario(n_rounds, trials=12) -> Scenario:
    """2-node Bernoulli world with two global optima, at indices 2 and 3.

    No node sees context 2, so the truth (index 3) and its twin (index 2),
    which differ there only, tie. Over 20 rounds some trials end on a decoy;
    over 80 every trial ends on the twin, the lower index of the tie.
    """
    truth = [0.7, 0.3, 0.5]
    points = [[0.5, 0.3, 0.5], [0.7, 0.5, 0.5], [0.7, 0.3, 0.9], truth, [0.5, 0.5, 0.2]]
    return Scenario(graph=validate_weight_matrix(REGRESSION_W), engine="discrete",
                    models=[BernoulliContextModel(i, truth, [i]) for i in range(2)],
                    n_rounds=n_rounds, trials=trials, master_seed=5,
                    theta_set=ParameterSet(np.array(points)))


def bits(values: np.ndarray) -> np.ndarray:
    """The float64 cells' bit patterns, so that NaN and the sign of zero compare too."""
    return np.ascontiguousarray(values).view(np.int64)


def assert_matches_discrete_oracle(scenario: Scenario):
    """Trial 0 against the per-node oracle, whose estimates are int64; returns the trial."""
    result = run_trial(scenario, 0)
    beliefs, estimates, clamp_events = discrete_oracle(scenario)
    np.testing.assert_allclose(result.belief_history, beliefs, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(result.estimate_history, estimates)
    assert result.clamp_events == clamp_events
    return result


def histories(result) -> tuple:
    """A gaussian trial's mean, variance and test-MSE histories, none of them missing."""
    found = (result.mean_history, result.variance_diag_history, result.mse_history)
    assert all(history is not None for history in found)
    return found


def central_baselines(scenario: Scenario, trials) -> list:
    """The central baseline's full results, through the kernel ``run_experiment`` calls."""
    xs, ys = gaussian.samples(scenario, trials)
    return gaussian.run(scenario, (xs[:, :, :, None], ys[:, :, None]), merge=False, stage=0)


def assert_matches_gaussian_oracle(scenario: Scenario) -> None:
    """Trial 0's pass, and the central baseline's on the same data, against the oracle."""
    report = run_experiment(scenario)
    central = central_baselines(scenario, [0])[0]
    runs = [
        (report.trial_results[0], gaussian_oracle(scenario)),
        (central, gaussian_oracle(scenario, central=True)),
    ]
    for batched, expected in runs:
        for history, oracle in zip(histories(batched), expected):
            np.testing.assert_allclose(history, oracle, rtol=0, atol=1e-12)


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

    @pytest.mark.parametrize("width", [1, 10, 255, 256, 4096])
    def test_row_maxima_match_max_bit_for_bit(self, width):
        # Node-major (N, T, M) states: a row of -inf, a row with a NaN, a row
        # whose maximum is -0.0 and a row of both zeros, among random rows.
        state = np.random.default_rng(width).uniform(-900.0, 5.0, (3, 4, width))
        state[0, 1] = -np.inf
        state[1, 2, width // 2] = np.nan
        state[2, 0] = -np.abs(state[2, 0])
        state[2, 0, -1] = -0.0
        state[2, 3, ::2], state[2, 3, 1::2] = 0.0, -0.0
        peak = np.empty((3, 4, 1))
        row_starts = np.arange(0, state.size, width)
        np.maximum.reduceat(state.reshape(-1), row_starts, out=peak.reshape(-1))
        np.testing.assert_array_equal(bits(peak), bits(state.max(axis=-1, keepdims=True)))
        assert np.isnan(peak[1, 2, 0]) and peak[0, 1, 0] == -np.inf
        assert np.signbit(peak[2, 0, 0]) and peak[2, 0, 0] == 0.0

    @pytest.mark.parametrize("cooperative", [True, False])
    @pytest.mark.parametrize("width", [2, 10, 255, 256, 4096])  # a parameter set has 2 or more
    def test_each_normalization_gets_its_rows_maxima(self, monkeypatch, width, cooperative):
        # The engine passes each normalization the maxima of the rows it
        # normalizes, below the floor too (index_edge_scenario's first point).
        # An isolated world swaps its buffers each round, so its second
        # normalization alternates between them.
        scenario = index_edge_scenario(width, n_rounds=12, trials=3)
        scenario.cooperative = cooperative
        normalize, buffers = sim.bel.row_normalize, []

        def checked(log_rows, scratch, peak, *rest):
            np.testing.assert_array_equal(bits(peak), bits(log_rows.max(axis=-1, keepdims=True)))
            buffers.append(log_rows.ctypes.data)
            return normalize(log_rows, scratch, peak, *rest)

        monkeypatch.setattr(sim.bel, "row_normalize", checked)
        results = beliefs.run(scenario, range(scenario.trials))
        assert len(buffers) == 2 * scenario.n_rounds
        assert len(set(buffers[1::2])) == (1 if cooperative else 2)
        assert all(r.clamp_events > 0 for r in results)

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

    @pytest.mark.parametrize("n_params, estimate_type", [
        (128, np.int8), (129, np.int16), (32_768, np.int16), (32_769, np.int32)])
    def test_estimates_at_the_edges_of_their_type(self, n_params, estimate_type):
        # Estimates take the narrowest signed type that holds M - 1.
        result = assert_matches_discrete_oracle(index_edge_scenario(n_params))
        assert result.estimate_history.dtype == estimate_type
        assert (result.estimate_history == n_params - 1).any()
        assert result.clamp_events > 0

    @pytest.mark.parametrize("n_labels, code_type", [(256, np.uint8), (257, np.uint16)])
    def test_codes_at_the_edge_of_their_type(self, n_labels, code_type):
        # One context, so a sample's code is its label: 256 codes fit in uint8.
        scenario = many_label_scenario(n_labels)
        encode, gather = scenario.models[0].log_likelihood_codes(scenario.theta_set.points)
        instances, labels = trial_samples(scenario)
        codes = encode(instances[0], labels[0])
        assert codes.dtype == code_type
        assert codes.max() == n_labels - 1
        np.testing.assert_array_equal(codes, labels[0])
        np.testing.assert_array_equal(gather(codes), gather(codes.astype(np.int64)))
        assert_matches_discrete_oracle(scenario)

    def test_peak_grows_by_two_bytes_per_node_round(self):
        # Without recorded beliefs, what grows with the round count is one
        # uint8 sample code and one int8 estimate per (trial, round, node),
        # about 2.3 bytes measured. Both as int64 took about 16; each sample
        # as an int64 instance and label, with a second copy of both, about 40.
        graph, theta_set, models = three_node_bernoulli()
        n_trials, peaks = 20, []
        for n_rounds in (200, 400):
            scenario = Scenario(graph=graph, engine="discrete", models=models,
                                n_rounds=n_rounds, trials=n_trials, master_seed=1,
                                theta_set=theta_set, record_beliefs=False, kl_mc_samples=50)
            peaks.append(peak_bytes(lambda: run_experiment(scenario)))
        assert (peaks[1] - peaks[0]) / (n_trials * 200 * len(models)) < 4

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
                reference_consensus(
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

    def test_discrete_engine_rejects_an_unused_noise_var(self):
        scenario = single_node_scenario()
        scenario.noise_var = 0.64
        with pytest.raises(ScenarioError, match="^noise_var: only linear_gaussian models use it$"):
            scenario.validate()
        scenario = intercept_grid_scenario()  # linear_gaussian models on the discrete engine
        scenario.noise_var = 0.36
        scenario.validate()

    def test_gaussian_engine_requires_prior(self):
        scenario = regression_scenario(n_rounds=5)
        scenario.prior_mean = None
        with pytest.raises(ValueError):
            scenario.validate()

    @pytest.mark.parametrize("mean, variances, error, match", [
        ([0.0, 0.0, 0.0], [0.5, 0.0, 0.5], SingularPrecisionError,
         r"^prior_variance_diag\[1\]: must be > 0\.0$"),
        ([0.0, 0.0, 0.0], [0.5, -1.0, 0.5], SingularPrecisionError,
         r"^prior_variance_diag\[1\]: must be > 0\.0$"),
        ([0.0, 0.0], [0.5, 0.5], ValueError,
         r"^prior_mean: expected 3 entries, one per true_theta entry$"),
        ([0.0, np.nan, 0.0], [0.5, 0.5, 0.5], ValueError, r"^prior_mean\[1\]: must be finite$"),
        ([0.0, 0.0, 0.0], [0.5, 0.5], ValueError,
         r"^prior_variance_diag: length must match prior\.mean$"),
        ([1e308, 0.0, 0.0], [0.5, 0.5, 0.5], ValueError,
         r"^prior_mean\[0\]: times its prior precision it overflows a float$"),
        ([0.0, 0.0, 0.0], [np.inf, 0.5, 0.5], SingularPrecisionError,
         r"^prior_variance_diag\[0\]: must be finite$"),
    ], ids=["zero-variance", "negative-variance", "short-prior", "nan-mean", "short-variance",
            "shift-overflow", "infinite-variance"])
    def test_gaussian_prior_is_checked_at_validate_time(self, mean, variances, error, match):
        # A programmatic scenario never goes through the config parser, so
        # the prior the engine packs is checked here, field by field.
        scenario = dataclasses.replace(regression_scenario(n_rounds=5),
                                       prior_mean=np.array(mean),
                                       prior_variance_diag=np.array(variances))
        with pytest.raises(error, match=match):
            scenario.validate()
        with pytest.raises(error, match=match):
            run_experiment(scenario)

    @pytest.mark.parametrize("models, match", [
        # Three contexts: a param_dim of 3, the prior's length, but no regression model.
        ([BernoulliContextModel(i, [0.8, 0.3, 0.5], [0]) for i in range(2)],
         r"^models\[0\]\.family: the gaussian engine requires 'linear_gaussian' models$"),
        ([regression_models()[0],
          LinearGaussianModel(1, [-0.3, 0.5], [[-1.0, 1.0]], [0], REGRESSION_NOISE_STD)],
         r"^models\[1\]: param_dim is not 3$"),
    ], ids=["bernoulli", "other-dimension"])
    def test_gaussian_models_are_checked_at_validate_time(self, models, match):
        # The engine would stack every node's samples, and fail inside numpy.
        scenario = dataclasses.replace(regression_scenario(n_rounds=5), models=models)
        with pytest.raises(ValueError, match=match):
            scenario.validate()
        with pytest.raises(ValueError, match=match):
            run_experiment(scenario)

    @pytest.mark.parametrize("noise_var", [np.nan, np.inf, 0.0, None])
    def test_gaussian_noise_is_checked_at_validate_time(self, noise_var):
        # A NaN noise variance failed in the engine, and an infinite one ran,
        # every node ending at the prior's test MSE.
        scenario = dataclasses.replace(regression_scenario(n_rounds=5), noise_var=noise_var)
        match = "^noise_var: the gaussian engine requires it positive and finite$"
        with pytest.raises(ScenarioError, match=match):
            scenario.validate()
        with pytest.raises(ScenarioError, match=match):
            run_experiment(scenario)

    @pytest.mark.parametrize("columns, labels, size", [(3, 10, 10), (2, 9, 10), (2, 0, 0)],
                             ids=["three-columns", "one-label-short", "empty"])
    def test_test_set_shape_is_checked_at_validate_time(self, columns, labels, size):
        # Either mismatch died inside numpy, in einsum or in matmul.
        scenario = dataclasses.replace(regression_scenario(n_rounds=5),
                                       test_set=(np.zeros((size, columns)), np.zeros(labels)))
        match = r"^test_set: expected x of shape \(n, 2\) with n >= 1, and y of shape \(n,\)$"
        with pytest.raises(ScenarioError, match=match):
            scenario.validate()
        with pytest.raises(ScenarioError, match=match):
            run_experiment(scenario)

    @pytest.mark.parametrize("changes, field, message", [
        ({"engine": "continuous"}, "engine", "expected 'discrete' or 'gaussian'"),
        ({"n_rounds": 0}, "n_rounds", "must be >= 1"),
        ({"trials": 0}, "trials", "must be >= 1"),
        ({"master_seed": -1}, "master_seed", "must be >= 0"),
        ({"master_seed": 2**64}, "master_seed", "must be <= 18446744073709551615"),
        ({"delta": 0.0}, "delta", "must be > 0.0"),
        ({"delta": np.nan}, "delta", "must be > 0.0"),
        ({"delta": 1.0}, "delta", "must be < 1.0"),
        ({"kl_mc_samples": 0}, "kl_mc_samples", "must be >= 1"),
        ({"bound_overrides": {"separation_rat": 0.5}}, "bound_overrides.separation_rat",
         "unknown key"),
        ({"bound_overrides": {"separation_rate": -1.0}}, "bound_overrides.separation_rate",
         "must be > 0.0"),
        ({"bound_overrides": {"likelihood_log_range": 0.0}},
         "bound_overrides.likelihood_log_range", "must be > 0.0"),
        ({"bound_overrides": {"likelihood_log_range": np.inf}},
         "bound_overrides.likelihood_log_range", "must be finite"),
        ({"bound_overrides": {"separation_rate": np.nan}}, "bound_overrides.separation_rate",
         "must be finite"),
        ({"prior_mean": np.zeros(3), "prior_variance_diag": np.ones(3)}, "prior",
         "the prior applies to the gaussian engine only"),
    ], ids=["engine", "n-rounds", "trials", "negative-seed", "seed-past-64-bits", "delta-zero",
            "delta-nan", "delta-one", "kl-mc-samples", "override-misspelt",
            "override-negative-rate", "override-zero-log-range", "override-infinite",
            "override-nan", "discrete-prior"])
    def test_field_rule_raises_at_its_field(self, changes, field, message):
        # The CLI reports each at the config path of ``field``; a misspelt
        # override was ignored, and the bound used the computed value, as was
        # a discrete scenario's prior.
        graph, theta, models = three_node_bernoulli()
        scenario = Scenario(graph=graph, models=models, theta_set=theta, **{
            "engine": "discrete", "n_rounds": 5, "trials": 1, "master_seed": 1, **changes})
        with pytest.raises(ScenarioError) as info:
            scenario.validate()
        assert (type(info.value), info.value.field, info.value.message) == (
            ScenarioError, field, message)

    @pytest.mark.parametrize("part", [0, 1], ids=["input", "label"])
    def test_test_set_must_be_finite(self, part):
        # A NaN label ran and failed at round 0, blaming an overflow.
        scenario = regression_scenario(n_rounds=5)
        test_set = [array.copy() for array in scenario.test_set]
        test_set[part].flat[3] = np.nan
        scenario.test_set = tuple(test_set)
        match = "^test_set: its inputs and labels must be finite$"
        with pytest.raises(ScenarioError, match=match):
            scenario.validate()
        with pytest.raises(ScenarioError, match=match):
            run_experiment(scenario)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_kl_mc_samples_must_be_positive(self, samples):
        # With no draws the separation table is all zeros: every parameter
        # would read as globally optimal and the sample bound as 1.
        graph, theta, models = three_node_bernoulli()
        scenario = Scenario(graph=graph, engine="discrete", models=models, n_rounds=5,
                            trials=1, master_seed=1, theta_set=theta, kl_mc_samples=samples)
        with pytest.raises(ValueError, match="^kl_mc_samples: must be >= 1$"):
            run_experiment(scenario)


def entry_major(precision: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """States ``(B, d, d)`` and ``(B, d)`` in the engine's layout, ``(d(d+1)/2 + d, B)``.

    The precision's lower triangle row by row, then the shift, one row per entry.
    """
    rows, columns = np.tril_indices(shift.shape[1])
    return np.concatenate([precision[:, rows, columns], shift], axis=1).T.copy()


class TestMomentsKernel:
    """``gaussian._moments``, the entry-wise Cholesky kernel, against the LAPACK oracle."""

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

        means, variances, positive = gaussian._moments(entry_major(precision, shift))
        assert positive.all()
        tolerance = 64 * np.linalg.cond(precision) * np.finfo(float).eps
        for got, want in zip((means.T, variances.T), lapack_moments(precision, shift)):
            error = np.abs(got - want).max(axis=1)
            assert np.all(error <= tolerance * np.abs(want).max(axis=1))
        # One state alone gets the same bits as in its batch.
        alone = gaussian._moments(entry_major(precision[:1], shift[:1]))
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
            assert not gaussian._moments(entry_major(defective, shift))[2].any()
        mixed = np.concatenate([precision[:1], singular[1:2], precision[2:3], with_nan[3:4]])
        flags = gaussian._moments(entry_major(mixed, shift[:4]))[2]
        np.testing.assert_array_equal(flags, [True, False, True, False])


# Any float, with the edge cases drawn often: signed zeros, subnormals, infinities, NaN.
_EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.inf, -np.inf,
                     np.nan]))


def float_bits(values: np.ndarray) -> np.ndarray:
    """The bit patterns of float64 values, so that NaN compares by payload and zeros by sign."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestExactKernels:
    """The gaussian engine's increments and test MSE against the formulas they replaced."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), dim=st.integers(1, 6), n_samples=st.sampled_from([1, 2, 3]),
           batch=st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(1, 3)))
    def test_increments_match_the_augmented_formula(self, data, dim, n_samples, batch):
        # No column of ones is stored: the intercept's entries are 1/s^2, x_j/s^2
        # and y/s^2, because 1.0 * v is v, bit for bit, whatever v is.
        xs = data.draw(arrays(np.float64, (dim - 1,) + batch + (n_samples,),
                              elements=_EDGE_FLOATS), label="xs")
        ys = data.draw(arrays(np.float64, batch + (n_samples,), elements=_EDGE_FLOATS),
                       label="ys")
        noise_var = data.draw(st.floats(allow_nan=False, allow_infinity=False,
                                        allow_subnormal=True).filter(bool), label="noise_var")
        with np.errstate(all="ignore"):
            got = gaussian._increments(xs, ys, noise_var)
            want = reference_increments(xs, ys, noise_var)
        assert got.shape == (dim * (dim + 3) // 2,) + batch
        np.testing.assert_array_equal(float_bits(got), float_bits(want))

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_test_set_mse_matches_einsum(self, dim):
        # A whole group's means (T, K, N, d) and one trial's (K, N, d), at
        # scales from 1e-3 to 1e3, with zeros of both signs, infinities and NaN.
        rng = np.random.default_rng(dim)
        x_test = rng.uniform(-1.5, 1.5, (25, dim - 1))
        moments = gaussian._test_set_moments((x_test, rng.normal(size=25)))
        means = rng.normal(size=(3, 300, 2, dim)) * 10.0 ** rng.integers(-3, 4, (3, 300, 2, 1))
        cells = rng.choice(means.size, 40, replace=False)
        means.flat[cells] = np.resize([0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan], 40)
        with np.errstate(all="ignore"):
            for batch in (means, means[1]):
                np.testing.assert_array_equal(
                    float_bits(gaussian._test_set_mse(moments, batch)),
                    float_bits(reference_test_set_mse(moments, batch)))


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
    @example(seed=4, n_nodes=2, dim=1, chunk=3)  # intercept only: a (30, 0) test set
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
            patch.setattr(gaussian, "_CHUNK_ROUNDS", chunk)
            for cooperative in (True, False):
                assert_matches_gaussian_oracle(
                    dataclasses.replace(scenario, cooperative=cooperative))

    @pytest.mark.parametrize("merge", [True, False])
    def test_pd_gate_names_the_failing_round(self, monkeypatch, merge):
        monkeypatch.setattr(gaussian, "_CHUNK_ROUNDS", 4)
        # Every sample is zero. The negative noise variance makes each round's
        # increment -100 e0 e0^T (the intercept's entry is 1/s^2), so P_00,
        # 1/0.0018 at the prior, is 555.6 - 100 (k + 1) after round k: round 5,
        # one round past the first batch, is the first indefinite one, for
        # either node after a merge. The largest prior variance stays 0.5.
        scenario = dataclasses.replace(regression_scenario(n_rounds=12, trials=2),
                                       noise_var=-0.01,
                                       prior_variance_diag=np.array([0.0018, 0.5, 0.5]))
        xs, ys = np.zeros((2, 12, 2, 2, 1)), np.zeros((12, 2, 2, 1))
        with pytest.raises(SingularPrecisionError,
                           match=r"^round 5: precision is not positive definite; the state is "
                                 r"ill-conditioned: 1/noise_std\^2 is -50 times the least prior "
                                 r"precision$"):
            gaussian.run(scenario, (xs, ys), merge=merge)

    def test_peak_does_not_grow_with_the_round_count(self):
        # d = 6 and two trials: the traced peak less what the run holds (the
        # report's histories, and the samples, d floats per trial, round and
        # node) is about 0.35 MB at 250 and at 1,000 rounds, mostly one
        # 128-round batch's packed states and their factor. Increments held
        # for every round, (K, T, N, d, d), would take 2 MB at 1,000 rounds.
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
            kept = sum(
                history.nbytes
                for result in reports[0].trial_results
                for history in (result.mean_history, result.variance_diag_history,
                                result.mse_history)
                if history is not None
            )
            samples = dim * 8 * scenario.trials * n_rounds * len(scenario.models)
            assert peak - kept - samples < 2**20

    def test_moments_do_not_depend_on_the_round_batch(self, monkeypatch):
        # 7 does not divide 300, so the last batch is a short one.
        scenario = regression_scenario(n_rounds=300, trials=3)
        trials = range(scenario.trials)
        default = run_experiment(scenario).trial_results + central_baselines(scenario, trials)
        monkeypatch.setattr(gaussian, "_CHUNK_ROUNDS", 7)
        small = run_experiment(scenario).trial_results + central_baselines(scenario, trials)
        for a, b in zip(default, small, strict=True):
            for history_a, history_b in zip(histories(a), histories(b)):
                np.testing.assert_array_equal(history_a, history_b)

    def test_central_baseline_approaches_noise_floor(self):
        scenario = regression_scenario(n_rounds=1500)
        baseline = central_baselines(scenario, [0])[0]
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
        assert list(sim._trial_groups(scenario)) == [range(20)]  # one batch
        report = run_experiment(scenario)
        pooled = central_baselines(scenario, range(scenario.trials))
        for t in range(scenario.trials):
            lone = run_trial(scenario, t)
            for a, b in zip(histories(lone), histories(report.trial_results[t])):
                np.testing.assert_array_equal(a, b)
            # Trial t's baseline, last in a batch of t + 1 trials.
            central = central_baselines(scenario, range(t + 1))[t]
            for a, b in zip(histories(central), histories(pooled[t])):
                np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            report.baseline_mse_curve,
            np.stack([r.mse_history[:, 0] for r in pooled]).mean(axis=0))

    @pytest.mark.parametrize("world", ["gaussian", "discrete"])
    def test_report_does_not_depend_on_the_trial_groups(self, monkeypatch, world):
        # The aggregates, summed group by group in trial order and divided
        # once, are the bits of one batch's; so are the trials' results,
        # consumed or kept by the default consumer.
        if world == "gaussian":
            scenario = regression_scenario(n_rounds=200, trials=7)
        else:
            scenario = floor_clamp_scenario(n_rounds=60, trials=7)
        whole = run_experiment(scenario)
        monkeypatch.setattr(sim, "_GROUP_BYTES", 1)  # one trial a group
        kept = run_experiment(scenario)
        consumed = []
        monkeypatch.setattr(sim, "_trial_groups",
                            lambda scenario: [range(0, 1), range(1, 4), range(4, 7)])
        grouped = run_experiment(scenario,
                                 consume=lambda trials, results: consumed.extend(results))
        assert grouped.trial_results == [] and consumed
        if world == "gaussian":  # the mean over one stack of every trial's curve
            np.testing.assert_array_equal(
                whole.mean_mse_curves,
                np.stack([r.mse_history for r in whole.trial_results]).mean(axis=0))
            np.testing.assert_array_equal(
                whole.baseline_mse_curve,
                np.stack([r.mse_history[:, 0]
                          for r in central_baselines(scenario, range(7))]).mean(axis=0))
        for name in ("empirical_error", "first_all_success_round", "clamp_events",
                     "mean_mse_curves", "final_mse_per_node", "baseline_mse_curve",
                     "baseline_final_mse", "sample_bound"):
            np.testing.assert_array_equal(getattr(grouped, name), getattr(whole, name))
            np.testing.assert_array_equal(getattr(kept, name), getattr(whole, name))
        for results in (consumed, kept.trial_results):
            for a, b in zip(results, whole.trial_results, strict=True):
                for field in dataclasses.fields(a):
                    np.testing.assert_array_equal(getattr(a, field.name), getattr(b, field.name))

    def test_discrete_trial_rows_do_not_depend_on_batch_size(self):
        # Each trial's rows must be the same bits alone as in a 20-trial
        # batch, also where the log-belief floor fires.
        graph, theta, models = three_node_bernoulli()
        floor_world = floor_clamp_scenario(n_rounds=400, trials=20)
        worlds = [
            Scenario(graph=graph, engine="discrete", models=models, n_rounds=120,
                     trials=20, master_seed=21, theta_set=theta),
            floor_world,
            # 129 points: int16 estimates, index 128 among them.
            index_edge_scenario(129, n_rounds=30, trials=20),
            # 256 points: rows wide enough for a buffer of their own width.
            index_edge_scenario(256, n_rounds=30, trials=20),
        ]
        for scenario in worlds:
            assert list(sim._trial_groups(scenario)) == [range(20)]  # one batch
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

    def test_discrete_bits_do_not_depend_on_the_buffer_size(self):
        # From _ROW_BUFFER_MIN cells the round loop runs with a ufunc buffer
        # of the row width. Buffering only chunks elementwise ops, so no bit
        # may move with the caller's buffer size, on either side of the rule.
        default = np.getbufsize()
        for n_params in (beliefs._ROW_BUFFER_MIN - 1, beliefs._ROW_BUFFER_MIN):
            for cooperative in (True, False):
                scenario = index_edge_scenario(n_params, n_rounds=30, trials=3)
                scenario.cooperative = cooperative
                runs = []
                for size in (16, default, 16384):
                    np.setbufsize(size)
                    try:
                        runs.append(beliefs.run(scenario, range(3)))
                        assert np.getbufsize() == size
                    finally:
                        np.setbufsize(default)
                assert all(r.clamp_events > 0 for r in runs[0])
                for results in runs[1:]:
                    for a, b in zip(runs[0], results):
                        np.testing.assert_array_equal(a.estimate_history, b.estimate_history)
                        np.testing.assert_array_equal(a.belief_history, b.belief_history)
                        assert a.clamp_events == b.clamp_events

    def test_buffer_size_is_restored_when_a_run_raises(self):
        # 300 candidates, none of which emits label 2; the truth does.
        points = np.column_stack([np.linspace(0.1, 0.9, 300), np.linspace(0.9, 0.1, 300),
                                  np.zeros(300)])
        scenario = Scenario(
            graph=validate_weight_matrix(REGRESSION_W), engine="discrete",
            models=[CategoricalContextModel(i, [[0.45, 0.45, 0.1]], [0]) for i in range(2)],
            n_rounds=100, trials=1, master_seed=9, theta_set=ParameterSet(points))
        default = np.getbufsize()
        np.setbufsize(16384)
        try:
            with pytest.raises(ZeroLikelihoodError):
                run_trial(scenario, 0)
            assert np.getbufsize() == 16384
        finally:
            np.setbufsize(default)

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

    def test_an_error_without_a_gate_order_stops_the_run_at_once(self, monkeypatch):
        groups = []

        def failing(scenario, trials, report):
            groups.append(trials)
            raise ValueError("not a gate")

        monkeypatch.setattr(sim, "_GROUP_BYTES", 1)
        monkeypatch.setattr(sim, "_run_group", failing)
        scenario = twin_optima_scenario(20)
        assert len(list(sim._trial_groups(scenario))) == scenario.trials
        with pytest.raises(ValueError, match="^not a gate$"):
            run_experiment(scenario)
        assert groups == [range(0, 1)]

    @pytest.mark.parametrize("one_trial_groups", [False, True])
    @pytest.mark.parametrize("n_rounds", [20, 80])
    def test_success_flags_match_the_isin_oracle(self, monkeypatch, n_rounds, one_trial_groups):
        scenario = twin_optima_scenario(n_rounds)
        if one_trial_groups:
            monkeypatch.setattr(sim, "_GROUP_BYTES", 1)
            results = []
            report = run_experiment(scenario,
                                    consume=lambda trials, group: results.extend(group))
        else:
            report = run_experiment(scenario)
            results = report.trial_results
        assert report.separation.global_optima == (2, 3)
        success, error, first = isin_success(results, report.separation.global_optima)
        assert [r.success for r in results] == success
        assert report.empirical_error == error
        assert report.first_all_success_round == first
        # Both outcomes occur: failed trials over 20 rounds, a round from
        # which every trial succeeds over 80.
        assert (0.0 < error < 1.0, first is not None) == (n_rounds == 20, n_rounds == 80)

    @pytest.mark.parametrize("world", ["discrete", "gaussian"])
    def test_a_group_is_released_before_the_next_one_runs(self, monkeypatch, world):
        # A name left bound in the run loop (a loop variable, say) would keep the
        # last group's arrays alive while the next group runs, which no output shows.
        if world == "gaussian":
            scenario = regression_scenario(n_rounds=50, trials=3)
        else:
            scenario = floor_clamp_scenario(n_rounds=30, trials=3)
        refs, checked = [], []
        run_group = sim._run_group

        def released(scenario, trials, report):
            assert all(ref() is None for ref in refs), f"a group is alive at {trials}"
            checked.append(len(refs))
            return run_group(scenario, trials, report)

        def consume(trials, results):
            for result in results:
                for array in (result.estimate_history, result.belief_history,
                              result.mean_history, result.variance_diag_history,
                              result.mse_history):
                    if array is not None:
                        refs.append(weakref.ref(array if array.base is None else array.base))

        monkeypatch.setattr(sim, "_GROUP_BYTES", 1)  # one trial a group
        monkeypatch.setattr(sim, "_run_group", released)
        run_experiment(scenario, consume=consume)
        assert len(checked) == scenario.trials and all(checked[1:])

    def test_gaussian_report_tracks_mse_and_baseline(self):
        scenario = regression_scenario(n_rounds=150, trials=2)
        report = run_experiment(scenario)
        assert report.mean_mse_curves.shape == (150, 2)
        assert report.baseline_mse_curve.shape == (150,)
        assert report.final_mse_per_node.shape == (2,)
        assert report.baseline_final_mse > 0


def test_readme_library_example():
    # The fenced python block under "Library example" in README.md runs as written.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## Library example", 1)[1].split("```python\n", 1)[1]
    namespace = {}
    exec(compile(example.split("```", 1)[0], "README.md", "exec"), namespace)
    report = namespace["report"]
    assert report.final_mse_per_node.shape == (2,)
    assert 0.64 <= report.baseline_final_mse <= 0.70


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
                reference_consensus(
                    [(publics[j], graph.weights[i, j])
                     for j in in_neighbors(graph, i)]
                )
                for i in range(2)
            ]
            for i in range(2):
                peak = grid_axis[int(np.argmax(privates[i].log_weights))]
                assert abs(peak - gaussian_run.mean_history[k, i, 0]) <= step


class TestLearningRates:
    """The engines learn at the rates of the paper's analysis, against exact expectations.

    In the log-linear rule the log-belief ratio ``r_i(t; theta) = log b_i(theta*)
    - log b_i(theta)`` obeys ``r(t) = W (r(t - 1) + l(t))``, so while the floor
    does not fire ``r_i(t) / t`` tends to ``V(theta) - V(theta*)`` with
    ``V = v @ KL``, v the stationary vector. In the gaussian engine
    ``P(t) = W (P(t - 1) + A(t))``, so ``t diag(P_i(t)^-1)`` tends to
    ``diag(F^-1)`` with ``F = sum_j v_j E[a_j a_j^T] / s^2``. Both need a
    world whose v is not uniform, or a weighting error would not show.
    """

    STATIONARY = np.array([6.0, 1.0]) / 7.0  # of REGRESSION_W, by hand: 0.1 v_0 = 0.6 v_1

    def test_discrete_log_ratios_grow_at_the_separation_rate(self):
        graph, theta_set, models, star = covering_grid_world()
        np.testing.assert_array_equal(graph.weights, REGRESSION_W)
        scenario = Scenario(graph=graph, engine="discrete", models=models, n_rounds=600,
                            trials=60, master_seed=23, theta_set=theta_set)
        report = run_experiment(scenario)
        assert sum(report.clamp_events) == 0  # the rate holds only before the floor fires
        rate = self.STATIONARY @ [exact_expected_kl(m, theta_set.points) for m in models]
        others = np.arange(theta_set.n_points) != star
        expected = (rate - rate[star])[others]

        window = np.arange(150, scenario.n_rounds)
        centred = window - window.mean()
        logs = np.stack([r.belief_history[window] for r in report.trial_results])  # (T, K, N, M)
        ratios = logs[..., star, None] - logs[..., others]
        slopes = np.einsum("k,tkna->tna", centred, ratios) / (centred @ centred)
        mean, spread = slopes.mean(axis=0), slopes.std(axis=0, ddof=1)
        z = (mean - expected) / (spread / np.sqrt(scenario.trials))
        bound = NormalDist().inv_cdf(1.0 - 0.001 / (2 * z.size))  # Bonferroni, 0.1% in all
        assert np.abs(z).max() < bound
        np.testing.assert_allclose(mean, np.broadcast_to(expected, mean.shape), rtol=0.15)

    def test_gaussian_precision_grows_at_the_information_rate(self):
        scenario = regression_scenario(n_rounds=4000, trials=4)
        report = run_experiment(scenario)
        second_moments = []  # E[a a^T] with a = [1, x], x uniform on the observed ranges
        for model in scenario.models:
            seen = np.isin(np.arange(model.instance_dim), model.observed)
            low, high = model.ranges.T
            centre = np.concatenate([[1.0], np.where(seen, (low + high) / 2, 0.0)])
            spread = np.concatenate([[0.0], np.where(seen, (high - low) ** 2 / 12, 0.0)])
            second_moments.append(np.outer(centre, centre) + np.diag(spread))
        information = np.tensordot(self.STATIONARY, second_moments, axes=1) / scenario.noise_var
        expected = np.diag(np.linalg.inv(information))
        np.testing.assert_allclose(expected, [0.64, 2.24, 5.973], rtol=1e-3)
        scaled = np.mean([r.variance_diag_history[-1] for r in report.trial_results], axis=0)
        np.testing.assert_allclose(scenario.n_rounds * scaled,
                                   np.broadcast_to(expected, scaled.shape), rtol=0.03)

    def test_separation_table_weights_the_exact_expectations_by_v(self):
        # Two nodes that see two of three contexts each, on a W whose v is
        # (0.6, 0.4), by hand: 0.2 v_0 = 0.3 v_1. Each decoy matches the truth
        # on one node's contexts; node 0's decoy sets the rate, 0.4 * 0.879,
        # where uniform weights would read 0.5 * 0.879.
        graph = validate_weight_matrix([[0.8, 0.2], [0.3, 0.7]])
        star = [0.9, 0.1, 0.9]
        models = [BernoulliContextModel(0, star, [0, 1]), BernoulliContextModel(1, star, [1, 2])]
        points = np.array([star, [0.9, 0.1, 0.1], [0.1, 0.1, 0.9], [0.3, 0.7, 0.3], [0.1, 0.9, 0.1]])
        draws = 200_000
        table = separation_table(models, ParameterSet(points), spectral_gap(graph).stationary,
                                 mc_samples=draws, seed=11)
        exact = np.stack([exact_expected_kl(m, points) for m in models])
        # A node's estimate averages two equally likely contexts' KLs over
        # its draws, so its standard error is half their gap over sqrt(draws).
        gaps = np.stack([np.subtract(*(exact_expected_kl(BernoulliContextModel(j, star, [x]),
                                                         points) for x in m.visible))
                         for j, m in enumerate(models)])
        error = np.abs(gaps) / (2 * np.sqrt(draws)) + 1e-12  # plus rounding, for equal KLs
        assert np.all(np.abs(table.kl_to_truth - exact) <= 5 * error)
        assert table.global_optima == (0,)
        v = np.array([0.6, 0.4])
        weighted = v @ exact
        assert weighted[0] == 0.0
        rate_error = 5 * np.sqrt(v**2 @ error**2).max()
        assert abs(table.separation_rate - weighted[1:].min()) <= rate_error
        assert abs(0.5 * exact[:, 1:].sum(axis=0).min() - weighted[1:].min()) > 10 * rate_error
