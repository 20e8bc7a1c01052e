"""Command-line entry point: config parsing, subcommands, exit codes.

A config is a JSON document checked against a strict schema in one pass,
which builds the scenario as it goes: the weight matrix, one likelihood
model per node, the parameter set, the prior, the test set. Unknown and
repeated keys, wrong types and every constructor's objection are reported
at the path of the field they concern. Then ``Scenario.validate`` checks
every rule on a scenario field's value, and a ``ScenarioError`` is
reported at its field's config path. Every subcommand parses the whole
config first, so all three reject the same configs at parse time with the
same message. Subcommands:

* ``run`` -- execute the configured experiment, write per-round metrics
  (CSV or JSON) plus a summary JSON, echo the summary to stdout.
* ``bound`` -- print the sample-complexity inputs and the resulting
  round count as a single JSON object.
* ``check-graph`` -- print the weight-matrix verdict: stationary vector,
  subdominant eigenvalue modulus, mixing bound and partial-sum residuals.

Exit codes: 0 success, 2 validation error, 3 runtime error. Diagnostics
go to stderr only.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import (GraphError, NotStochasticError, spectral_gap, validate_weight_matrix,
                    verify_mixing_bound)
from .models import (
    BernoulliContextModel,
    CategoricalContextModel,
    LinearGaussianModel,
    NotGloballyLearnableError,
    ParameterSet,
    UnboundedKLError,
)
from .output import MetricsWriter, _jsonable, _summary_dict
from .sim import (BOUND_OVERRIDES, ENGINES, Scenario, ScenarioError, make_regression_test_set,
                  run_experiment, sample_bound)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


class ConfigError(Exception):
    """Base class for configuration failures."""


class ConfigSyntaxError(ConfigError):
    """The config is not valid JSON; message carries the position."""


class ConfigValidationError(ConfigError):
    """A validated field is missing, unknown, or out of range."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigValidationError(path, message)


class _RepeatedKeyObject(dict):
    """A JSON object that repeats ``key``; ``json`` would keep its last value."""

    def __init__(self, pairs, key: str):
        super().__init__(pairs)
        self.key = key


def _json_object(pairs: list) -> dict:
    """``json.loads``'s ``object_pairs_hook``: marks an object that repeats a key."""
    obj = dict(pairs)
    if len(obj) == len(pairs):
        return obj
    keys = [key for key, _ in pairs]
    return _RepeatedKeyObject(pairs, next(k for i, k in enumerate(keys) if k in keys[:i]))


def _check_keys(obj, path: str, required: set, optional: set) -> None:
    _require(isinstance(obj, dict), path, "expected an object")
    if isinstance(obj, _RepeatedKeyObject):
        raise ConfigValidationError(f"{path}.{obj.key}", "duplicate key")
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigValidationError(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise ConfigValidationError(path, f"missing required key {key!r}")


def _number(value, path: str) -> float:
    # One number, or an element of a list that ``_finite_numbers`` turned down.
    # JSON gives exact ints and floats; a bool is neither.
    if type(value) is not float and type(value) is not int:
        raise ConfigValidationError(path, "expected a number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigValidationError(path, "must be finite")
    return value


def _integer(value, path: str, minimum=None) -> int:
    _require(type(value) is int, path, "expected an integer")
    if minimum is not None:
        _require(value >= minimum, path, f"must be >= {minimum}")
    return value


_NUMBER_TYPES = {float, int}


def _finite_numbers(values: list) -> bool:
    """Whether ``values`` is a non-empty list of finite JSON numbers: the whole-list check.

    One sweep over the element types and one sum. A bool is no number, an
    int beyond the float range stops the float sum with OverflowError, and
    NaN or an infinity leaves it non-finite. So, rarely, does an overflow
    of finite values: False only sends the caller to the per-element walk,
    which names the first defect or, finding none, converts as well.
    """
    if not values or not set(map(type, values)) <= _NUMBER_TYPES:
        return False
    try:
        return math.isfinite(sum(values, 0.0))
    except OverflowError:
        return False


def _number_list(value, path: str) -> list:
    _require(isinstance(value, list) and len(value) > 0, path, "expected a non-empty array")
    if _finite_numbers(value):
        return list(map(float, value))
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _integer_list(value, path: str) -> list:
    _require(isinstance(value, list), path, "expected an array")
    return [_integer(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _matrix(value, path: str) -> np.ndarray:
    _require(isinstance(value, list) and len(value) > 0, path, "expected a non-empty array")
    if set(map(type, value)) == {list} and len(set(map(len, value))) == 1:
        flat = list(itertools.chain.from_iterable(value))
        if _finite_numbers(flat):
            return np.array(flat, dtype=float).reshape(len(value), -1)
    rows = [_number_list(row, f"{path}[{i}]") for i, row in enumerate(value)]
    width = len(rows[0])
    for i, row in enumerate(rows):
        _require(len(row) == width, f"{path}[{i}]", "ragged matrix row")
    return np.array(rows)


def _ranges(value, path: str) -> np.ndarray:
    rows = _matrix(value, path)
    for i, row in enumerate(rows.tolist()):
        _require(len(row) == 2, f"{path}[{i}]", "expected a [low, high] pair")
        _require(row[0] < row[1], f"{path}[{i}]", "low bound must be below high")
        _require(math.isfinite(row[1] - row[0]), f"{path}[{i}]", "its width overflows a float")
    return rows


_MODEL_KEYS = {
    "bernoulli": {"family", "true_probs", "visible"},
    "categorical": {"family", "true_table", "visible"},
    "linear_gaussian": {"family", "observed", "ranges"},
}


def _model(entry, path: str, node_id: int, true_theta, noise_std):
    """Check one ``models`` entry and build its likelihood model."""
    _require(isinstance(entry, dict), path, "expected an object")
    family = entry.get("family")
    _require(isinstance(family, str) and family in _MODEL_KEYS, f"{path}.family",
             f"expected one of {sorted(_MODEL_KEYS)}")
    _check_keys(entry, path, _MODEL_KEYS[family], set())
    try:  # a ConfigValidationError is no ValueError, so only the constructors' land here
        if family == "linear_gaussian":
            observed = _integer_list(entry["observed"], f"{path}.observed")
            ranges = _ranges(entry["ranges"], f"{path}.ranges")
            for key, value in (("true_theta", true_theta), ("noise_std", noise_std)):
                _require(value is not None, f"scenario.{key}",
                         "linear_gaussian models require this key")
            return LinearGaussianModel(node_id, true_theta, ranges, observed, noise_std)
        if family == "bernoulli":
            truth = _number_list(entry["true_probs"], f"{path}.true_probs")
        else:
            truth = _matrix(entry["true_table"], f"{path}.true_table")
        visible = _integer_list(entry["visible"], f"{path}.visible")
        context_model = BernoulliContextModel if family == "bernoulli" else CategoricalContextModel
        return context_model(node_id, truth, visible)
    except ValueError as exc:
        raise ConfigValidationError(path, str(exc)) from exc


# The Scenario fields whose config paths differ; ``theta_set.points`` is ``parameters.points``.
_CONFIG_FIELDS = {"theta_set": "parameters", "prior_mean": "prior.mean",
                  "prior_variance_diag": "prior.variance_diag", "noise_var": "noise_std",
                  "bound_overrides": "bound"}

_SCENARIO_REQUIRED = {"engine", "graph", "n_rounds", "trials", "master_seed", "models"}
_SCENARIO_OPTIONAL = {
    "cooperative", "delta", "kl_mc_samples", "mixing_horizon", "parameters",
    "prior", "true_theta", "noise_std", "test_set", "bound",
}


def _scenario(raw, path: str = "scenario") -> tuple[Scenario, int]:
    """Check the scenario block and build its ``Scenario``; also returns the mixing horizon."""
    _check_keys(raw, path, _SCENARIO_REQUIRED, _SCENARIO_OPTIONAL)
    engine = raw["engine"]
    _require(engine in ENGINES, f"{path}.engine", "expected 'discrete' or 'gaussian'")

    _check_keys(raw["graph"], f"{path}.graph", {"weights"}, set())
    weights = _matrix(raw["graph"]["weights"], f"{path}.graph.weights")
    try:
        graph = validate_weight_matrix(weights)
    except NotStochasticError as exc:
        raise ConfigValidationError(f"{path}.graph.weights[{exc.row}]", str(exc)) from exc
    except ValueError as exc:
        raise ConfigValidationError(f"{path}.graph.weights", str(exc)) from exc

    n_rounds = _integer(raw["n_rounds"], f"{path}.n_rounds")
    trials = _integer(raw["trials"], f"{path}.trials")
    master_seed = _integer(raw["master_seed"], f"{path}.master_seed")
    cooperative = raw.get("cooperative", True)
    _require(isinstance(cooperative, bool), f"{path}.cooperative", "expected a boolean")
    delta = _number(raw.get("delta", 0.1), f"{path}.delta")
    kl_mc_samples = _integer(raw.get("kl_mc_samples", 2000), f"{path}.kl_mc_samples")
    mixing_horizon = _integer(raw.get("mixing_horizon", 100), f"{path}.mixing_horizon",
                              minimum=1)

    # What the constructors below need; Scenario.validate checks the same for library callers.
    if engine == "discrete":
        _require("test_set" not in raw, f"{path}.test_set",
                 "test sets apply to the gaussian engine only")
    else:
        for key in ("true_theta", "noise_std"):
            _require(key in raw, f"{path}.{key}", "gaussian engine requires this key")

    true_theta = noise_std = None
    if "true_theta" in raw:
        true_theta = _number_list(raw["true_theta"], f"{path}.true_theta")
    if "noise_std" in raw:
        noise_std = _number(raw["noise_std"], f"{path}.noise_std")
        _require(noise_std > 0.0, f"{path}.noise_std", "must be > 0.0")
        _require(0.0 < noise_std * noise_std < math.inf, f"{path}.noise_std",
                 "its square, the noise variance, must be positive and finite")

    entries = raw["models"]
    _require(isinstance(entries, list), f"{path}.models", "expected an array")
    models = [_model(entry, f"{path}.models[{i}]", i, true_theta, noise_std)
              for i, entry in enumerate(entries)]
    if engine == "discrete" and true_theta is not None:  # as Scenario.validate checks noise_var
        _require(any(isinstance(model, LinearGaussianModel) for model in models),
                 f"{path}.true_theta", "only linear_gaussian models use it")

    theta_set = None
    if "parameters" in raw:
        _check_keys(raw["parameters"], f"{path}.parameters", {"points"}, set())
        points_path = f"{path}.parameters.points"
        points = _matrix(raw["parameters"].pop("points"), points_path)  # frees its lists
        try:
            theta_set = ParameterSet(points)
        except ValueError as exc:
            raise ConfigValidationError(points_path, str(exc)) from exc

    prior = {}
    if "prior" in raw:
        _check_keys(raw["prior"], f"{path}.prior", {"mean", "variance_diag"}, set())
        prior = {key: np.array(_number_list(raw["prior"][key], f"{path}.prior.{key}"))
                 for key in ("mean", "variance_diag")}

    test_set = None
    if "test_set" in raw:
        ts_path = f"{path}.test_set"
        _check_keys(raw["test_set"], ts_path, {"size", "ranges", "seed"}, set())
        size = _integer(raw["test_set"]["size"], f"{ts_path}.size", minimum=1)
        ranges = _ranges(raw["test_set"]["ranges"], f"{ts_path}.ranges")
        seed = _integer(raw["test_set"]["seed"], f"{ts_path}.seed", minimum=0)
        dim = len(true_theta)
        _require(len(ranges) == dim - 1, f"{ts_path}.ranges",
                 f"expected {dim - 1} rows, one per input coordinate of true_theta")
        with np.errstate(over="ignore", invalid="ignore"):
            test_set = make_regression_test_set(size, ranges, true_theta, noise_std, seed)
        _require(bool(np.isfinite(test_set[1]).all()), ts_path,
                 "its labels overflow; true_theta or the ranges are too large")

    bound = {}
    if "bound" in raw:
        _check_keys(raw["bound"], f"{path}.bound", set(), set(BOUND_OVERRIDES))
        bound = {key: _number(value, f"{path}.bound.{key}") for key, value in raw["bound"].items()}

    scenario = Scenario(
        graph=graph,
        engine=engine,
        models=models,
        n_rounds=n_rounds,
        trials=trials,
        master_seed=master_seed,
        theta_set=theta_set,
        prior_mean=prior.get("mean"),
        prior_variance_diag=prior.get("variance_diag"),
        noise_var=None if noise_std is None else noise_std**2,
        cooperative=cooperative,
        test_set=test_set,
        delta=delta,
        kl_mc_samples=kl_mc_samples,
        bound_overrides=bound,
    )
    try:
        scenario.validate()
    except ScenarioError as exc:
        head = exc.field.split("[")[0].split(".")[0]
        field = _CONFIG_FIELDS.get(head, head) + exc.field[len(head):]
        raise ConfigValidationError(f"{path}.{field}", exc.message) from exc
    return scenario, mixing_horizon


@dataclass
class ConfigDocument:
    """A validated config: its scenario, ``check-graph``'s default horizon and the output."""

    scenario: Scenario
    mixing_horizon: int
    output: dict


def parse_config(text) -> ConfigDocument:
    """Parse a JSON config document, validating it and building its scenario."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigSyntaxError(f"config is not valid UTF-8: {exc}") from exc
    try:
        raw = json.loads(text, object_pairs_hook=_json_object)
    except json.JSONDecodeError as exc:
        raise ConfigSyntaxError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ConfigSyntaxError("config cannot be decoded: it nests too deeply") from exc
    except ValueError as exc:  # an integer past the digit limit of int()
        raise ConfigSyntaxError(
            f"config cannot be decoded: an integer has more than {sys.get_int_max_str_digits()}"
            " digits; set PYTHONINTMAXSTRDIGITS to raise the limit") from exc
    del text  # freed before the scenario is built: only the tree is read from here on

    _check_keys(raw, "config", {"schema_version", "scenario"}, {"output"})
    version = _integer(raw["schema_version"], "config.schema_version")
    _require(version == SCHEMA_VERSION, "config.schema_version",
             f"expected {SCHEMA_VERSION}")
    scenario, mixing_horizon = _scenario(raw["scenario"])

    output = raw.get("output", {})
    _check_keys(output, "output", set(), {"directory", "format"})
    directory = output.get("directory", "peerlearn-out")
    _require(isinstance(directory, str) and directory, "output.directory",
             "expected a non-empty string")
    fmt = output.get("format", "csv")
    _require(fmt in ("csv", "json"), "output.format", "expected 'csv' or 'json'")
    return ConfigDocument(
        scenario=scenario,
        mixing_horizon=mixing_horizon,
        output={"directory": directory, "format": fmt},
    )


def build_scenario(doc: ConfigDocument) -> Scenario:
    """A copy of the document's scenario, for the caller to adjust and run."""
    return dataclasses.replace(doc.scenario)


def cmd_run(doc: ConfigDocument, out_dir=None, fmt=None, seed=None, trials=None) -> int:
    """Run the configured experiment and write metrics plus a summary.

    The trials run in the groups ``run_experiment`` picks, each group's rows
    written before the next group runs. The metrics and the summary go to
    partial files, which replace ``metrics.<fmt>`` and ``summary.json`` once
    both are written; a failed run removes them and the directories it made,
    and leaves any other file as it was.
    """
    scenario = build_scenario(doc)
    if seed is not None:
        scenario.master_seed = seed
    if trials is not None:
        scenario.trials = trials
    directory = Path(out_dir if out_dir is not None else doc.output["directory"])
    fmt = fmt if fmt is not None else doc.output["format"]
    targets = [directory / f"metrics.{fmt}", directory / "summary.json"]
    partials = [path.with_name(path.name + ".partial") for path in targets]
    made = list(itertools.takewhile(lambda p: not p.exists(), (directory, *directory.parents)))
    try:
        directory.mkdir(parents=True, exist_ok=True)  # an unusable path fails before the run
        with open(partials[0], "wb") as handle:
            writer = MetricsWriter(handle, scenario, fmt)
            report = run_experiment(scenario, consume=writer.write)
            writer.finish()
        summary = _summary_dict(report, scenario)
        with open(partials[1], "w") as handle:
            handle.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        for partial, target in zip(partials, targets):
            os.replace(partial, target)
    except BaseException:
        for remove in (*(path.unlink for path in partials), *(path.rmdir for path in made)):
            with contextlib.suppress(OSError):
                remove()
        raise
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_bound(doc: ConfigDocument) -> int:
    """Print the sample-complexity inputs and result as one JSON object."""
    scenario = doc.scenario
    spectral = spectral_gap(scenario.graph)  # first, as check-graph and run meet it
    _require(scenario.theta_set is not None, "scenario.parameters",
             "the sample-complexity bound requires a parameter set")
    _, inputs, n, assumption_violated, reason = sample_bound(scenario, spectral)
    if inputs is None:
        raise ConfigError(reason)
    payload = {key: _jsonable(value) for key, value in dataclasses.asdict(inputs).items()}
    payload.update(n=n, assumption_violated=assumption_violated)
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_check_graph(doc: ConfigDocument, horizon=None) -> int:
    """Print the graph verdict with stationary, spectral and mixing data."""
    graph = doc.scenario.graph
    horizon = horizon if horizon is not None else doc.mixing_horizon
    report = verify_mixing_bound(graph, horizon)
    summary = report.spectral
    payload = {
        "valid": True,
        "n_nodes": graph.n_nodes,
        "stationary": _jsonable(summary.stationary),
        "lambda_max": _jsonable(summary.lambda_max),
        "mixing_bound": _jsonable(summary.mixing_bound),
        "horizon": report.horizon,
        "partial_sums": _jsonable(report.partial_sums),
        "within_bound": [bool(b) for b in report.within_bound],
    }
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def _bounded_int(minimum: int, maximum: int | None = None):
    """An argparse type: an integer in ``[minimum, maximum]``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peerlearn",
        description="Decentralized belief-consensus learning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the configured experiment")
    run_p.add_argument("config", help="path to a JSON config")
    run_p.add_argument("--seed", type=_bounded_int(0, 2**64 - 1), default=None,
                       help="override master_seed")
    run_p.add_argument("--trials", type=_bounded_int(1), default=None,
                       help="override trial count")
    run_p.add_argument("--out", default=None, help="override output directory")
    run_p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="override metrics format")
    run_p.add_argument("--workers", type=_bounded_int(1), default=1,
                       help="accepted for compatibility; has no effect, because "
                            "each group of trials runs as one batch")

    bound_p = sub.add_parser("bound", help="print the sample-complexity bound")
    bound_p.add_argument("config", help="path to a JSON config")

    check_p = sub.add_parser("check-graph", help="validate the weight matrix")
    check_p.add_argument("config", help="path to a JSON config")
    check_p.add_argument("--horizon", type=_bounded_int(1), default=None,
                         help="override the mixing-bound check horizon")
    return parser


def _path_qualified(exc: Exception) -> str:
    """A config failure's message, led by the config path it concerns.

    The parameter set fails against the models only at the separation table,
    and the weights only at their spectrum; neither message names a path.
    """
    if isinstance(exc, GraphError):
        return f"scenario.graph.weights: {exc}"
    if isinstance(exc, UnboundedKLError):
        return f"scenario.parameters.points[{exc.point}]: {exc}"
    if isinstance(exc, NotGloballyLearnableError):
        return f"scenario.parameters.points: {exc}"
    return str(exc)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "rb") as handle:
            doc = parse_config(handle.read())
        if args.command == "run":
            return cmd_run(doc, out_dir=args.out, fmt=args.format,
                           seed=args.seed, trials=args.trials)
        if args.command == "bound":
            return cmd_bound(doc)
        return cmd_check_graph(doc, horizon=args.horizon)
    except (ConfigError, GraphError, NotGloballyLearnableError, UnboundedKLError) as exc:
        print(f"error: {_path_qualified(exc)}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, RuntimeError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RUNTIME


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
