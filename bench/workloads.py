"""The benchmark's workloads: seeded inputs, the sequence of calls, and checks.

A workload turns the benchmark seed into a config document (the only input
the program receives), runs peerlearn's CLI or library entry points on it,
and checks the outputs against computations in ``reference`` or against
properties the method must have. ``execute`` is the timed sequence;
``check`` runs afterwards, untimed, and raises ``CheckFailed``.

Calls go through module attributes (``cli.main``, ``sim.run_experiment``)
so that the tracer's wrappers, when installed, see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from pathlib import Path

import numpy as np

import reference as ref
from peerlearn import cli, models, sim, theory
from peerlearn import graph as graph_module


class CheckFailed(Exception):
    """An output disagrees with an independent computation or a required property."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Workload:
    """One set of seeded inputs and the calls a user makes on them."""

    name: str
    tag: int
    full: dict
    smoke: dict
    # Where the CLI writes metrics.csv, for workloads that call ``peerlearn run``.
    out_dir: Path | None = None

    def __init__(self, seed: int, workdir: Path, size: dict | None = None):
        self.seed = seed
        self.size = dict(self.full if size is None else size)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.rng = np.random.default_rng([self.tag, seed])
        self.config = self.make_config()
        self.config_path = self.workdir / "config.json"
        self.config_bytes = json.dumps(self.config).encode()
        self.config_path.write_bytes(self.config_bytes)

    @property
    def scenario_config(self) -> dict:
        return self.config["scenario"]

    @property
    def node_rounds(self) -> int:
        """Node-rounds of one execution's cooperative network."""
        raise NotImplementedError

    def make_config(self) -> dict:
        raise NotImplementedError

    def setup(self):
        """Parse the config and build the scenario, as the CLI does before any round."""
        return cli.build_scenario(cli.parse_config(self.config_bytes))

    def execute(self) -> dict:
        raise NotImplementedError

    def check(self, out: dict) -> None:
        raise NotImplementedError


class RegressionCLI(Workload):
    """``peerlearn run`` on the paper's two-node linear-regression comparison."""

    name = "regression-cli"
    tag = 1
    full = {"rounds": 2000, "trials": 20, "test_size": 1000}
    smoke = {"rounds": 300, "trials": 3, "test_size": 200}
    weights = [[0.9, 0.1], [0.6, 0.4]]
    ranges = [[-1.0, 1.0], [-1.5, 1.5]]
    columns = ["trial", "round", "node", "mu_0", "mu_1", "mu_2",
               "sigma_0", "sigma_1", "sigma_2", "mse"]

    def __init__(self, seed, workdir, size=None):
        super().__init__(seed, workdir, size)
        self.out_dir = self.workdir / "out"
        self._expected = None
        self._verified_csv = None

    @property
    def node_rounds(self) -> int:
        return self.size["trials"] * self.size["rounds"] * len(self.weights)

    def make_config(self) -> dict:
        return {
            "schema_version": 1,
            "scenario": {
                "engine": "gaussian",
                "graph": {"weights": self.weights},
                "n_rounds": self.size["rounds"],
                "trials": self.size["trials"],
                "master_seed": int(self.rng.integers(2**63)),
                "models": [
                    {"family": "linear_gaussian", "observed": [0], "ranges": self.ranges},
                    {"family": "linear_gaussian", "observed": [1], "ranges": self.ranges},
                ],
                "prior": {"mean": [0.0, 0.0, 0.0], "variance_diag": [0.5, 0.5, 0.5]},
                "true_theta": [-0.3, 0.5, 0.8],
                "noise_std": 0.8,
                "test_set": {"size": self.size["test_size"], "ranges": self.ranges,
                             "seed": int(self.rng.integers(2**31))},
            },
            "output": {"format": "csv"},
        }

    def execute(self) -> dict:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["run", str(self.config_path), "--out", str(self.out_dir)])
        return {"exit_code": code, "stdout": stdout.getvalue()}

    @property
    def expected(self) -> dict:
        """Closed-form baseline MSE per trial and trial 0's unrolled means."""
        if self._expected is None:
            self._expected = self._compute_expected()
        return self._expected

    def _compute_expected(self) -> dict:
        scenario = self.setup()
        sc = self.scenario_config
        ts = sc["test_set"]
        x_test, y_test = sim.make_regression_test_set(
            ts["size"], ts["ranges"], sc["true_theta"], sc["noise_std"], ts["seed"]
        )
        noise_var = sc["noise_std"] ** 2
        baseline = []
        for trial in range(sc["trials"]):
            samples = ref.draw_samples(sim.node_stream, scenario.models, sc["master_seed"],
                                       trial, sc["n_rounds"])
            mean = ref.batch_posterior_mean(sc["prior"]["mean"], sc["prior"]["variance_diag"],
                                            noise_var, samples)
            baseline.append(ref.predictor_mse(mean, x_test, y_test))
            if trial == 0:
                trial0_means = ref.unrolled_cooperative_means(
                    self.weights, sc["prior"]["mean"], sc["prior"]["variance_diag"],
                    noise_var, samples,
                )
        return {"baseline_mse": np.array(baseline), "trial0_means": trial0_means}

    def check(self, out: dict) -> None:
        _require(out["exit_code"] == 0, f"peerlearn run exited {out['exit_code']}")
        summary = json.loads((self.out_dir / "summary.json").read_text())
        _require(json.loads(out["stdout"]) == summary, "stdout does not echo summary.json")
        expected = self.expected
        baseline = summary["baseline_final_mse"]
        closed_form = float(expected["baseline_mse"].mean())
        _require(abs(baseline - closed_form) <= 1e-9 * closed_form,
                 f"baseline final MSE {baseline!r} is not the closed form {closed_form!r}")
        per_node = np.asarray(summary["final_mse_per_node"])
        excess = per_node / closed_form - 1.0
        _require(bool(np.all(np.abs(excess) <= 0.05)),
                 f"cooperative MSE is {excess} relative to the baseline, beyond 5%")

        csv_bytes = (self.out_dir / "metrics.csv").read_bytes()
        digest = hashlib.sha256(csv_bytes).hexdigest()
        if self._verified_csv is None:
            self._verified_csv = digest, self.final_rows(csv_bytes)
        # Identical bytes pass the same checks, so later executions only
        # have to reproduce the first one's file.
        _require(digest == self._verified_csv[0], "metrics.csv differs from the first execution's")
        final = self._verified_csv[1]
        csv_mean = final[:, :, -1].mean(axis=0)
        _require(np.all(np.abs(per_node - csv_mean) <= 1e-11 * np.abs(csv_mean)),
                 f"final_mse_per_node {per_node} is not the CSV's last-round mean {csv_mean}")
        gap = float(np.max(np.abs(final[0, :, 3:6] - expected["trial0_means"])))
        _require(gap <= 1e-9, f"trial 0 final means are {gap:.3g} from the unrolled recursion")

    def final_rows(self, csv_bytes: bytes) -> np.ndarray:
        """Check the layout of metrics.csv; return the last round's rows ``(T, N, columns)``."""
        trials, rounds, nodes = self.size["trials"], self.size["rounds"], len(self.weights)
        lines = csv_bytes.decode().splitlines()
        _require(lines[0].split(",") == self.columns, f"metrics.csv header is {lines[0]!r}")
        _require(len(lines) - 1 == trials * rounds * nodes,
                 f"metrics.csv has {len(lines) - 1} rows, expected {trials * rounds * nodes}")
        table = np.array([line.split(",") for line in lines[1:]], dtype=float)
        index = np.indices((trials, rounds, nodes)).reshape(3, -1).T
        _require(np.array_equal(table[:, :3], index),
                 "metrics.csv rows are not ordered by (trial, round, node)")
        return table[table[:, 1] == rounds - 1].reshape(trials, nodes, -1)


class _DiscreteWorkload(Workload):
    """Shared checks of the discrete-engine workloads."""

    weights: list

    def __init__(self, seed, workdir, size=None):
        super().__init__(seed, workdir, size)
        self._trial0_estimates = None

    @property
    def points(self) -> np.ndarray:
        return np.asarray(self.scenario_config["parameters"]["points"], dtype=float)

    @property
    def visible(self) -> list:
        return [m["visible"] for m in self.scenario_config["models"]]

    def formula_bound(self, separation_rate: float) -> int:
        points = self.points
        return ref.sample_bound(
            len(self.weights), points.shape[0], self.scenario_config["delta"],
            ref.bernoulli_log_range(points, self.visible), separation_rate,
            ref.lambda_max(self.weights),
        )

    def record_trial0(self, out: dict):
        """Trial 0 rerun alone with beliefs recorded: (final log-beliefs, estimates)."""
        scenario = dataclasses.replace(out["scenario"], record_beliefs=True)
        result = sim.run_trial(scenario, 0)
        return result.belief_history[-1], result.estimate_history

    def check_trial0(self, out: dict) -> None:
        """Trial 0's log-beliefs against the reference recursion, once per run.

        Every execution's trial 0 must then reproduce the checked estimates.
        """
        if self._trial0_estimates is None:
            beliefs, estimates = self.record_trial0(out)
            scenario = out["scenario"]
            samples = ref.draw_samples(sim.node_stream, scenario.models, scenario.master_seed,
                                       0, scenario.n_rounds)
            reference = ref.discrete_log_beliefs(self.weights, self.points, samples)
            gap = float(np.max(np.abs(beliefs - reference)))
            _require(gap <= 1e-9, f"trial 0 final log-beliefs are {gap:.3g} from the reference")
            self._trial0_estimates = estimates
        _require(np.array_equal(out["report"].trial_results[0].estimate_history,
                                self._trial0_estimates),
                 "trial 0's estimates differ from those of the checked rerun")


class BernoulliBound(_DiscreteWorkload):
    """The sample-complexity guarantee: run for the program's own bound."""

    name = "bernoulli-bound"
    tag = 2
    full = {"trials": 50, "kl_mc_samples": 20000}
    smoke = {"trials": 4, "kl_mc_samples": 2000}
    weights = [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]]
    truth = [0.9, 0.1, 0.9]
    # The truth first; each node has a decoy that agrees with it on the
    # node's visible contexts, so only the network identifies index 0.
    candidates = [
        [0.9, 0.1, 0.9], [0.9, 0.1, 0.1], [0.1, 0.1, 0.9], [0.9, 0.9, 0.9],
        [0.1, 0.9, 0.9], [0.9, 0.9, 0.1], [0.1, 0.1, 0.1], [0.1, 0.9, 0.1],
        [0.3, 0.7, 0.3], [0.2, 0.8, 0.2],
    ]

    def __init__(self, seed, workdir, size=None):
        super().__init__(seed, workdir, size)
        self.n_rounds = None

    @property
    def node_rounds(self) -> int:
        return self.size["trials"] * self.n_rounds * len(self.weights)

    def make_config(self) -> dict:
        return {
            "schema_version": 1,
            "scenario": {
                "engine": "discrete",
                "graph": {"weights": self.weights},
                # Replaced by the sample bound before the run.
                "n_rounds": 1,
                "trials": self.size["trials"],
                "master_seed": int(self.rng.integers(2**63)),
                "delta": 0.1,
                "kl_mc_samples": self.size["kl_mc_samples"],
                "models": [
                    {"family": "bernoulli", "true_probs": self.truth, "visible": visible}
                    for visible in ([0, 1], [1, 2], [0, 2])
                ],
                "parameters": {"points": self.candidates},
            },
        }

    def execute(self) -> dict:
        scenario = self.setup()
        scenario.record_beliefs = False
        spectral = graph_module.spectral_gap(scenario.graph)
        table = models.separation_table(scenario.models, scenario.theta_set,
                                        spectral.stationary,
                                        mc_samples=scenario.kl_mc_samples,
                                        seed=scenario.master_seed)
        low, high = models.assumption_bounds(scenario.models, scenario.theta_set)
        n_rounds = theory.sample_complexity(theory.BoundInputs(
            n_nodes=scenario.graph.n_nodes,
            n_params=scenario.theta_set.n_points,
            delta=scenario.delta,
            likelihood_log_range=abs(np.log(high / low)),
            separation_rate=table.separation_rate,
            lambda_max=spectral.lambda_max,
        ))
        scenario.n_rounds = n_rounds
        report = sim.run_experiment(scenario, workers=1)
        self.n_rounds = n_rounds
        return {"scenario": scenario, "n_rounds": n_rounds, "report": report}

    def check(self, out: dict) -> None:
        report, n_rounds = out["report"], out["n_rounds"]
        _require(report.sample_bound == n_rounds,
                 f"run reports sample bound {report.sample_bound}, the library gave {n_rounds}")
        formula = self.formula_bound(report.separation.separation_rate)
        _require(n_rounds == formula, f"sample bound {n_rounds} is not the formula's {formula}")
        _require(report.empirical_error <= self.scenario_config["delta"],
                 f"empirical error {report.empirical_error} exceeds delta")
        _require(report.separation.global_optima == (0,),
                 f"global optima {report.separation.global_optima}, expected (0,)")
        self.check_trial0(out)


class FineGrid(_DiscreteWorkload):
    """The covering side: a fine parameter grid, ``bound`` then a short run."""

    name = "fine-grid"
    tag = 3
    full = {"grid": 64, "rounds": 2000, "trials": 4}
    smoke = {"grid": 8, "rounds": 100, "trials": 2}
    weights = [[0.8, 0.2], [0.3, 0.7]]

    def __init__(self, seed, workdir, size=None):
        super().__init__(seed, workdir, size)
        self._rejection_checked = False

    @property
    def node_rounds(self) -> int:
        return self.size["trials"] * self.size["rounds"] * len(self.weights)

    def make_config(self) -> dict:
        axis = np.linspace(0.02, 0.98, self.size["grid"])
        points = [[a, b] for a in axis.tolist() for b in axis.tolist()]
        self.truth_index = int(self.rng.integers(len(points)))
        # The pair of points the duplicate check must tell apart.
        self.near_pair = [int(i) for i in self.rng.choice(len(points), size=2, replace=False)]
        return {
            "schema_version": 1,
            "scenario": {
                "engine": "discrete",
                "graph": {"weights": self.weights},
                "n_rounds": self.size["rounds"],
                "trials": self.size["trials"],
                "master_seed": int(self.rng.integers(2**63)),
                "delta": 0.1,
                "models": [
                    {"family": "bernoulli", "true_probs": points[self.truth_index],
                     "visible": [node]}
                    for node in range(2)
                ],
                "parameters": {"points": points},
            },
        }

    def execute(self) -> dict:
        scenario = self.setup()
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["bound", str(self.config_path)])
        scenario.record_beliefs = False
        report = sim.run_experiment(scenario, workers=1)
        return {"scenario": scenario, "bound_exit_code": code,
                "bound_stdout": stdout.getvalue(), "report": report}

    def check(self, out: dict) -> None:
        _require(out["bound_exit_code"] == 0,
                 f"peerlearn bound exited {out['bound_exit_code']}")
        printed = json.loads(out["bound_stdout"])["n"]
        report = out["report"]
        _require(report.separation.global_optima == (self.truth_index,),
                 f"global optima {report.separation.global_optima}, "
                 f"expected ({self.truth_index},)")
        formula = self.formula_bound(report.separation.separation_rate)
        _require(printed == report.sample_bound == formula,
                 f"bound prints n={printed}, run reports {report.sample_bound}, "
                 f"the formula gives {formula}")
        if not self._rejection_checked:
            self.check_near_duplicate_rejected()
            self._rejection_checked = True
        self.check_trial0(out)

    def check_near_duplicate_rejected(self) -> None:
        points = self.points
        a, b = self.near_pair
        points[b] = points[a] + np.array([5e-14, -5e-14])
        try:
            models.ParameterSet(points)
        except ValueError:
            return
        raise CheckFailed(f"ParameterSet accepted points {a} and {b}, 5e-14 apart")


WORKLOADS = {w.name: w for w in (RegressionCLI, BernoulliBound, FineGrid)}
