"""Config schema, subcommands, exit codes, metrics serialization."""

import ast
import contextlib
import copy
import errno
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peerlearn import (
    BernoulliContextModel,
    ParameterSet,
    Scenario,
    ScenarioError,
    run_experiment,
    validate_weight_matrix,
)
from peerlearn import cli, output, sim
from peerlearn.cli import (
    ConfigSyntaxError,
    ConfigValidationError,
    build_scenario,
    main,
    parse_config,
)

from helpers import (
    floor_clamp_scenario,
    peak_bytes,
    reference_metrics_bytes,
    three_node_bernoulli,
)


def discrete_config(**scenario_overrides):
    scenario = {
        "engine": "discrete",
        "graph": {"weights": [[0.9, 0.1], [0.6, 0.4]]},
        "n_rounds": 30,
        "trials": 2,
        "master_seed": 42,
        "models": [
            {"family": "bernoulli", "true_probs": [0.8, 0.3], "visible": [0]},
            {"family": "bernoulli", "true_probs": [0.8, 0.3], "visible": [1]},
        ],
        "parameters": {
            "points": [[0.8, 0.3], [0.8, 0.6], [0.2, 0.3], [0.5, 0.5]]
        },
    }
    scenario.update(scenario_overrides)
    return {"schema_version": 1, "scenario": scenario}


def gaussian_config(**scenario_overrides):
    scenario = {
        "engine": "gaussian",
        "graph": {"weights": [[0.9, 0.1], [0.6, 0.4]]},
        "n_rounds": 40,
        "trials": 2,
        "master_seed": 7,
        "models": [
            {"family": "linear_gaussian", "observed": [0],
             "ranges": [[-1, 1], [-1.5, 1.5]]},
            {"family": "linear_gaussian", "observed": [1],
             "ranges": [[-1, 1], [-1.5, 1.5]]},
        ],
        "prior": {"mean": [0, 0, 0], "variance_diag": [0.5, 0.5, 0.5]},
        "true_theta": [-0.3, 0.5, 0.8],
        "noise_std": 0.8,
        "test_set": {"size": 200, "ranges": [[-1, 1], [-1.5, 1.5]], "seed": 5},
    }
    scenario.update(scenario_overrides)
    return {"schema_version": 1, "scenario": scenario}


def categorical_config(**scenario_overrides):
    truth = [0.6, 0.3, 0.1, 0.2, 0.2, 0.6]
    return discrete_config(
        n_rounds=33,
        models=[
            {"family": "categorical", "true_table": [truth[:3], truth[3:]], "visible": [0]},
            {"family": "categorical", "true_table": [truth[:3], truth[3:]], "visible": [1]},
        ],
        parameters={"points": [truth, [0.2, 0.5, 0.3, 0.2, 0.2, 0.6],
                               [0.6, 0.3, 0.1, 0.5, 0.25, 0.25]]},
        **scenario_overrides,
    )


def write_metrics(report, scenario, path, fmt, groups=None):
    """Write the report's metrics to ``path`` as ``peerlearn run`` would, in ``groups`` of trials."""
    with open(path, "wb") as handle:
        writer = output.MetricsWriter(handle, scenario, fmt)
        for trials in groups or [range(report.trials)]:
            writer.write(trials, report.trial_results[trials.start:trials.stop])
        writer.finish()


@pytest.fixture(params=[False, True], ids=["default-groups", "one-trial-groups"])
def one_trial_groups(request, monkeypatch):
    """Runs the test at the default group budget and at one trial per group."""
    if request.param:
        monkeypatch.setattr(sim, "_GROUP_BYTES", 1)
    return request.param


# An allocation the host cannot satisfy, as numpy words it and bare; raised, never made.
OUT_OF_MEMORY = [
    (MemoryError("Unable to allocate 7.11 PiB for an array with shape (1000000000000000,) "
                 "and data type float64"),
     "Unable to allocate 7.11 PiB for an array with shape (1000000000000000,) "
     "and data type float64"),
    (MemoryError(), "MemoryError"),
]


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _paths(node, prefix=()):
    """``(path, value)`` for every node below ``node`` in a JSON document.

    A path is a tuple of keys and indices.
    """
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield prefix + (key,), child
        yield from _paths(child, prefix + (key,))


def _scaled(value, factor):
    """``value * factor`` with the sign and type of ``value``; integers stay below 40."""
    if type(value) is float:
        return value * factor
    magnitude = min(39, max(1, round(abs(value) * factor)))
    return magnitude if value > 0 else -magnitude if value < 0 else 0


_HUGE_OR_TINY = st.floats(1e-320, 1e300, allow_subnormal=True)
_WRONG_TYPES = ["text", "", True, None, {}, [], [[]], {"key": 1}]


@st.composite
def config_mutants(draw):
    """A valid config of this module with one to three mutations.

    A mutation scales a number by a factor in [1e-3, 1e3], keeping its
    sign and type, replaces it by one in +-[1e-320, 1e300] or by a small
    integer, replaces any node by a value of the wrong type, empties,
    shortens or lengthens an array (mismatching its dimensions), makes a
    matrix row ragged, or deletes a key or element. Three mutations in four
    scale a number, so that many mutants stay valid and reach the engines.
    Runs stay at 8 rounds and 50 Monte Carlo samples, and integers below
    40, so an example takes milliseconds.
    """
    doc = draw(st.sampled_from([
        discrete_config, gaussian_config, categorical_config,
        lambda: discrete_config(bound={"likelihood_log_range": 2.0, "separation_rate": 0.5}),
    ]))()
    doc["scenario"].update(n_rounds=8, kl_mc_samples=50)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        numbers = [path for path, value in paths if type(value) in (int, float)]
        scale = bool(numbers) and draw(st.integers(0, 3)) > 0
        path = draw(st.sampled_from(numbers if scale else [path for path, _ in paths]))
        parent, key = doc, path[-1]
        for step in path[:-1]:
            parent = parent[step]
        value = parent[key]
        kinds = ["wrong-type", "delete"]
        if type(value) in (int, float):
            kinds += ["number", "integer"]
        if isinstance(value, list):
            kinds += ["empty", "shorter", "longer"]
            if value and all(isinstance(row, list) and row for row in value):
                kinds.append("ragged")
        kind = "scale" if scale else draw(st.sampled_from(kinds))
        if kind == "scale":
            parent[key] = _scaled(value, 10.0 ** draw(st.floats(-3.0, 3.0)))
        elif kind == "number":
            parent[key] = draw(st.one_of(_HUGE_OR_TINY, _HUGE_OR_TINY.map(lambda x: -x)))
        elif kind == "integer":
            parent[key] = draw(st.integers(-3, 40))
        elif kind == "wrong-type":
            parent[key] = copy.deepcopy(draw(st.sampled_from(_WRONG_TYPES)))
        elif kind == "delete":
            del parent[key]
        elif kind == "empty":
            parent[key] = []
        elif kind == "shorter":
            parent[key] = value[:-1]
        elif kind == "longer":
            parent[key] = value + copy.deepcopy(value[-1:])
        else:
            row = draw(st.integers(0, len(value) - 1))
            value[row] = value[row][:-1] if draw(st.booleans()) else value[row] * 2
    return doc


def _no_constant(name):
    raise ValueError(f"stdout holds the non-JSON constant {name}")


def run_subcommands(doc):
    """Each subcommand's ``(exit code, stdout, stderr)`` on ``doc``, and the metrics run wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        config = write_config(Path(tmp), doc)
        out_dir = Path(tmp) / "out"
        outcomes = {}
        for argv in (["run", config, "--out", str(out_dir)], ["bound", config],
                     ["check-graph", config]):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)  # a traceback fails the calling test here
            outcomes[argv[0]] = code, stdout.getvalue(), stderr.getvalue()
        metrics = out_dir / "metrics.csv"
        return outcomes, metrics.read_text() if metrics.exists() else None


class TestConfigFuzz:
    """Mutated configs: clean exits, never a traceback, and subcommands that agree."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(config_mutants())
    def test_mutants_exit_cleanly(self, doc):
        outcomes, metrics = run_subcommands(doc)
        for command, (code, out, err) in outcomes.items():
            assert code in (0, 2, 3)
            if code:
                assert out == ""
                assert err.endswith("\n") and err.count("\n") == 1
                if code == 2:
                    assert re.match(r"error: (config|scenario|output)\b[\w.\[\]]*: ", err)
                continue
            assert err == ""
            assert out.count("\n") == 1
            assert isinstance(json.loads(out, parse_constant=_no_constant), dict)
            if command == "run":
                cells = re.split(r"[,\n]", metrics.lower())
                assert not {"nan", "inf", "-inf"} & set(cells)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(config_mutants())
    def test_subcommands_reject_alike_at_parse_time(self, doc):
        # All three parse the whole config first. Only run and bound build
        # the separation table and the bound, so only they can fail there.
        outcomes, _ = run_subcommands(doc)
        graph_code, _, graph_err = outcomes["check-graph"]
        for command in ("run", "bound"):
            code, _, err = outcomes[command]
            if graph_code == 2:
                assert (code, err) == (2, graph_err)
            elif code == 2:
                assert re.match(r"error: scenario\.(parameters|bound)\b", err), err


_MATRIX_FIELDS = [
    ("scenario.graph.weights", [[0.9, 0.1], [0.6, 0.4]],
     lambda value: discrete_config(graph={"weights": value})),
    ("scenario.parameters.points", [[0.8, 0.3], [0.8, 0.6], [0.2, 0.3], [0.5, 0.5]],
     lambda value: discrete_config(parameters={"points": value})),
    ("scenario.models[0].ranges", [[-1, 1], [-1.5, 1.5]],
     lambda value: gaussian_config(models=[
         {"family": "linear_gaussian", "observed": [0], "ranges": value},
         {"family": "linear_gaussian", "observed": [1], "ranges": [[-1, 1], [-1.5, 1.5]]}])),
]


def _cell(value):
    """Plant ``value`` in row 1, column 0."""
    def plant(matrix):
        matrix[1][0] = value
    return plant


def _row(change):
    """Replace row 1 by ``change(row 1)``."""
    def plant(matrix):
        matrix[1] = change(matrix[1])
    return plant


def _defect_after_ragged_row(matrix):
    matrix[0] = matrix[0][:1]
    matrix[1][1] = True


# Each leaves the whole-array path; the per-element walk names it as it always has.
_MATRIX_DEFECTS = [
    ("bool", _cell(True), "[1][0]: expected a number"),
    ("int-beyond-float", _cell(10**400), "[1][0]: must be finite"),
    ("nan", _cell(math.nan), "[1][0]: must be finite"),
    ("infinity", _cell(-math.inf), "[1][0]: must be finite"),
    ("ragged-row", _row(lambda row: row[:1]), "[1]: ragged matrix row"),
    ("empty-row", _row(lambda row: []), "[1]: expected a non-empty array"),
    ("number-row", _row(lambda row: 0.5), "[1]: expected a non-empty array"),
    ("defect-after-ragged-row", _defect_after_ragged_row, "[1][1]: expected a number"),
]

_LIST_DEFECTS = [
    ("bool", [0.8, True], "[1]: expected a number"),
    ("int-beyond-float", [0.8, 10**400], "[1]: must be finite"),
    ("ints-beyond-float-that-cancel", [10**400, -(10**400)], "[0]: must be finite"),
    ("nan", [math.nan, 0.3], "[0]: must be finite"),
    ("infinity", [0.8, math.inf], "[1]: must be finite"),
    ("nested", [0.8, [0.3]], "[1]: expected a number"),
    ("empty", [], ": expected a non-empty array"),
]


def _number_defects():
    """A config and its error line per defect planted in a number matrix or list."""
    for path, valid, build in _MATRIX_FIELDS:
        for name, plant, suffix in _MATRIX_DEFECTS:
            matrix = copy.deepcopy(valid)
            plant(matrix)
            yield pytest.param(build(matrix), path + suffix, id=f"{path}-{name}")
    path = "scenario.models[0].true_probs"
    for name, value, suffix in _LIST_DEFECTS:
        payload = discrete_config(models=[
            {"family": "bernoulli", "true_probs": value, "visible": [0]},
            {"family": "bernoulli", "true_probs": [0.8, 0.3], "visible": [1]}])
        yield pytest.param(payload, path + suffix, id=f"{path}-{name}")


class TestParseConfig:
    @pytest.mark.parametrize("command", ["run", "bound", "check-graph"])
    @pytest.mark.parametrize("payload, message", _number_defects())
    def test_number_defect_exits_2_at_its_element(self, tmp_path, capsys, command, payload,
                                                  message):
        assert main([command, write_config(tmp_path, payload)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("extra", [[], [[1.5e308, 1.5e308]]], ids=["whole-array", "walk"])
    def test_numbers_read_alike_on_both_paths(self, extra):
        # Finite numbers whose sum overflows take the per-element walk.
        points = [[0.1, 2**53 + 1], [-(2**64) - 3, 10**300], [1e-320, -0.0], *extra]
        doc = parse_config(json.dumps(discrete_config(
            models=[{"family": "linear_gaussian", "observed": [0], "ranges": [[-1, 1]]}] * 2,
            true_theta=[0.1, 0.2], noise_std=0.8, parameters={"points": points})))
        expected = [[float(v) for v in row] for row in points]
        assert doc.scenario.theta_set.points.tolist() == expected
        assert np.signbit(doc.scenario.theta_set.points[2, 1])

    @pytest.mark.parametrize("command", ["run", "bound", "check-graph"])
    @pytest.mark.parametrize("repeat, message", [
        (('"trials": 2', '"trials": 2, "trials": 3'), "scenario.trials: duplicate key"),
        (('"visible": [1]', '"visible": [1], "visible": [0]'),
         "scenario.models[1].visible: duplicate key"),
        (('"schema_version": 1', '"schema_version": 1, "schema_version": 1'),
         "config.schema_version: duplicate key"),
    ], ids=["scenario", "model", "top-level"])
    def test_duplicate_key_exits_2_naming_it(self, tmp_path, capsys, command, repeat, message):
        text = json.dumps(discrete_config())
        assert repeat[0] in text
        config = tmp_path / "config.json"
        config.write_text(text.replace(*repeat, 1))
        assert main([command, str(config)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_bad_row_sum_names_the_row(self):
        payload = discrete_config(graph={"weights": [[0.5, 0.6], [0.5, 0.5]]})
        with pytest.raises(ConfigValidationError) as info:
            parse_config(json.dumps(payload))
        assert info.value.path == "scenario.graph.weights[0]"

    def test_out_of_range_delta_names_the_path(self):
        with pytest.raises(ConfigValidationError) as info:
            parse_config(json.dumps(discrete_config(delta=1.5)))
        assert info.value.path == "scenario.delta"

    def test_unknown_key_rejected_with_path(self):
        payload = discrete_config()
        payload["scenario"]["surprise"] = 1
        with pytest.raises(ConfigValidationError) as info:
            parse_config(json.dumps(payload))
        assert info.value.path == "scenario.surprise"

    def test_syntax_error_reports_position(self):
        with pytest.raises(ConfigSyntaxError) as info:
            parse_config(b'{"schema_version": 1,,}')
        assert "line" in str(info.value)

    @pytest.mark.parametrize("text, message", [
        (json.dumps(discrete_config()).replace('"master_seed": 42',
                                               '"master_seed": ' + "7" * 5000),
         r"config cannot be decoded: .*4300 digits"),
        ("[" * 100000 + "]" * 100000, r"config cannot be decoded: it nests too deeply$"),
    ], ids=["5000-digit-integer", "deep-nesting"])
    def test_undecodable_json_exits_2_on_every_subcommand(self, tmp_path, capsys, text, message):
        # Valid JSON that json.loads turns down with a ValueError or a RecursionError.
        config = tmp_path / "config.json"
        config.write_text(text)
        out = tmp_path / "out"
        errors = set()
        for argv in (["run", "--out", str(out)], ["bound"], ["check-graph"]):
            assert main([argv[0], str(config), *argv[1:]]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            errors.add(captured.err)
        [error] = errors
        assert re.match(f"error: {message}", error.rstrip("\n")), error
        assert not out.exists()

    def test_digit_limit_names_the_environment_variable(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(discrete_config()).replace(
            '"master_seed": 42', '"master_seed": ' + "7" * 5000))
        for argv in (["run", "--out", str(tmp_path / "out")], ["bound"], ["check-graph"]):
            assert main([argv[0], str(config), *argv[1:]]) == 2
            error = capsys.readouterr().err
            assert "PYTHONINTMAXSTRDIGITS" in error and "set_int_max_str_digits" not in error
        # With the limit lifted the integer decodes, and the range check names its path.
        src = Path(cli.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-m", "peerlearn.cli", "check-graph", str(config)], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": str(src), "PYTHONINTMAXSTRDIGITS": "0"})
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "error: scenario.master_seed: must be <= 18446744073709551615\n"

    def test_wrong_schema_version(self):
        payload = discrete_config()
        payload["schema_version"] = 2
        with pytest.raises(ConfigValidationError) as info:
            parse_config(json.dumps(payload))
        assert info.value.path == "config.schema_version"

    def test_missing_required_key(self):
        payload = discrete_config()
        del payload["scenario"]["n_rounds"]
        with pytest.raises(ConfigValidationError):
            parse_config(json.dumps(payload))

    @pytest.mark.parametrize("observed", [3, "0"], ids=["number", "string"])
    def test_non_array_observed_names_the_path(self, tmp_path, capsys, observed):
        payload = gaussian_config()
        payload["scenario"]["models"][0]["observed"] = observed
        with pytest.raises(ConfigValidationError) as info:
            parse_config(json.dumps(payload))
        assert info.value.path == "scenario.models[0].observed"
        assert main(["run", write_config(tmp_path, payload)]) == 2
        assert "scenario.models[0].observed" in capsys.readouterr().err

    def test_empty_observed_is_valid(self):
        payload = gaussian_config()
        payload["scenario"]["models"][0]["observed"] = []
        doc = parse_config(json.dumps(payload))
        assert doc.scenario.models[0].observed == []

    def test_gaussian_requires_prior(self):
        payload = gaussian_config()
        del payload["scenario"]["prior"]
        with pytest.raises(ConfigValidationError) as info:
            parse_config(json.dumps(payload))
        assert info.value.path == "scenario.prior"

    @pytest.mark.parametrize("command", ["run", "bound", "check-graph"])
    @pytest.mark.parametrize("payload, message", [
        (discrete_config(test_set={"size": 10, "ranges": [[-1, 1]], "seed": 0}),
         "scenario.test_set: test sets apply to the gaussian engine only"),
        (discrete_config(prior={"mean": [5, -3], "variance_diag": [1e-3, 1e-3]}),
         "scenario.prior: the prior applies to the gaussian engine only"),
        (gaussian_config(test_set={"size": 10, "ranges": [[-1, 1]] * 3, "seed": 0}),
         "scenario.test_set.ranges: expected 2 rows, one per input coordinate of true_theta"),
        (gaussian_config(prior={"mean": [0, 0], "variance_diag": [0.5, 0.5]}),
         "scenario.prior.mean: expected 3 entries, one per true_theta entry"),
        *[(gaussian_config(prior={"mean": [0, 0, 0], "variance_diag": bad}),
           "scenario.prior.variance_diag: expected a non-empty array")
          for bad in (5, "abc", {}, [])],
        (gaussian_config(models=[{"family": "bernoulli", "true_probs": [0.8, 0.3],
                                  "visible": [0]}] * 2),
         "scenario.models[0].family: the gaussian engine requires 'linear_gaussian' models"),
        (gaussian_config(prior={"mean": [0, 0, 0], "variance_diag": [1e-320, 0.5, 0.5]}),
         "scenario.prior.variance_diag[0]: its reciprocal must be finite"),
        *[(gaussian_config(prior={"mean": [mean, 0, 0], "variance_diag": [var, 0.5, 0.5]}),
           "scenario.prior.mean[0]: times its prior precision it overflows a float")
          for mean, var in ((1e308, 0.5), (1e300, 1e-300))],
        *[(gaussian_config(noise_std=bad),
           "scenario.noise_std: its square, the noise variance, must be positive and finite")
          for bad in (1e-200, 1e200)],
        *[(discrete_config(models=[{"family": bad, "true_probs": [0.8, 0.3], "visible": [0]}] * 2),
           "scenario.models[0].family: expected one of ['bernoulli', 'categorical', "
           "'linear_gaussian']") for bad in ({}, [])],
        (discrete_config(parameters={"points": [[0.8, 0.3], [1.0, 0.3]]}),
         "scenario.parameters.points[1]: node 0: parameter 1 lacks support for the truth"),
        (gaussian_config(true_theta=[-0.3, 1e300, 0.8],
                         test_set={"size": 10, "ranges": [[-1e300, 1e300], [-1.5, 1.5]],
                                   "seed": 0}),
         "scenario.test_set: its labels overflow; true_theta or the ranges are too large"),
        (discrete_config(models=[{"family": "bernoulli", "true_probs": [0.8, 0.3],
                                  "visible": [2]}] * 2),
         "scenario.models[0]: visible context index out of range"),
        (gaussian_config(models=[{"family": "linear_gaussian", "observed": [2],
                                  "ranges": [[-1, 1], [-1.5, 1.5]]}] * 2),
         "scenario.models[0]: observed coordinate index out of range"),
        (discrete_config(models=[{"family": "bernoulli", "true_probs": [0.8, 0.3],
                                  "visible": [0, -1]}] * 2),
         "scenario.models[0]: visible context index out of range"),
        (gaussian_config(models=[{"family": "linear_gaussian", "observed": [-1],
                                  "ranges": [[-1, 1], [-1.5, 1.5]]}] * 2),
         "scenario.models[0]: observed coordinate index out of range"),
        (discrete_config(models=[{"family": "bernoulli", "true_probs": [0.8, 1.5, -0.2],
                                  "visible": [0]}] * 2),
         "scenario.models[0]: true_probs[1] must lie in [0, 1]"),
        (discrete_config(parameters={"points": [[0.8, 0.3], [0.5, 0.5], [0.8, 0.3]]}),
         "scenario.parameters.points: duplicate parameter points at indices 0 and 2"),
        (discrete_config(parameters={"points": [[0.8, 0.3, 0.5], [0.5, 0.5, 0.5]]}),
         "scenario.parameters.points: node 0: parameters have dimension 3, expected 2"),
        (discrete_config(models=[{"family": "bernoulli", "true_probs": [0.8, 0.3],
                                  "visible": [0]}] * 3),
         "scenario.models: 3 models for 2 graph nodes"),
        (discrete_config(models=[{"family": "linear_gaussian", "observed": [0],
                                  "ranges": [[-1, 1], [-1.5, 1.5]]}] * 2,
                         true_theta=[-0.3, 0.5], noise_std=0.8,
                         parameters={"points": [[-0.3, 0.5, 0.8], [0.0, 0.5, 0.8]]}),
         "scenario.models[0]: true_theta must have length instance_dim + 1"),
        (discrete_config(models=[{"family": "categorical", "visible": [0],
                                  "true_table": [[0.6, 0.3, 0.2], [0.2, 0.2, 0.6]]}] * 2),
         "scenario.models[0]: every true_table row must sum to 1"),
        (discrete_config(delta=10**400), "scenario.delta: must be finite"),
        (gaussian_config(models=[{"family": "linear_gaussian", "observed": [0],
                                  "ranges": [[-1e308, 1e308], [-1.5, 1.5]]}] * 2),
         "scenario.models[0].ranges[0]: its width overflows a float"),
        (gaussian_config(test_set={"size": 10, "ranges": [[-1, 1], [-1e308, 1e308]],
                                   "seed": 0}),
         "scenario.test_set.ranges[1]: its width overflows a float"),
    ], ids=["discrete-test-set", "discrete-prior", "test-set-width", "prior-mean-length",
            *(f"variance-diag-{name}" for name in ("number", "string", "object", "empty")),
            "gaussian-bernoulli-models", "variance-diag-subnormal", "prior-shift-overflow",
            "prior-shift-over-tiny-variance", "noise-std-underflow",
            "noise-std-overflow", "family-object", "family-array", "parameter-lacks-support",
            "test-labels-overflow", "visible-out-of-range", "observed-out-of-range",
            "negative-visible", "negative-observed", "true-probs-out-of-range",
            "duplicate-points", "points-dimension", "model-count", "true-theta-length",
            "categorical-row-sum", "integer-beyond-float-range", "model-range-width-overflow",
            "test-range-width-overflow"])
    def test_config_defect_exits_2_at_its_path(self, tmp_path, capsys, command, payload,
                                               message):
        config = write_config(tmp_path, payload)
        if command == "check-graph" and message.startswith("scenario.parameters.points["):
            # The separation table finds this defect; check-graph does not build it.
            assert main([command, config]) == 0
            return
        assert main([command, config]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["run", "bound", "check-graph"])
    def test_weight_matrix_is_validated_once(self, tmp_path, monkeypatch, command):
        calls = []

        def counting(raw):
            calls.append(raw)
            return validate_weight_matrix(raw)

        monkeypatch.setattr(cli, "validate_weight_matrix", counting)
        config = write_config(tmp_path, discrete_config())
        argv = [command, config] + (["--out", str(tmp_path / "out")] if command == "run" else [])
        assert main(argv) == 0
        assert len(calls) == 1


def _without(payload, key):
    del payload["scenario"][key]
    return payload


@pytest.mark.parametrize("payload, message", [
    (discrete_config(models=[{"family": "bernoulli", "true_probs": [0.8, 0.3],
                              "visible": [0]}] * 3),
     "scenario.models: 3 models for 2 graph nodes"),
    (gaussian_config(prior={"mean": [0, 0], "variance_diag": [0.5, 0.5]}),
     "scenario.prior.mean: expected 3 entries, one per true_theta entry"),
    (gaussian_config(models=[{"family": "bernoulli", "true_probs": [0.8, 0.3],
                              "visible": [0]}] * 2),
     "scenario.models[0].family: the gaussian engine requires 'linear_gaussian' models"),
    (gaussian_config(prior={"mean": [0, 0, 0], "variance_diag": [1e-320, 0.5, 0.5]}),
     "scenario.prior.variance_diag[0]: its reciprocal must be finite"),
    *[(gaussian_config(prior={"mean": [mean, 0, 0], "variance_diag": [var, 0.5, 0.5]}),
       "scenario.prior.mean[0]: times its prior precision it overflows a float")
      for mean, var in ((1e308, 0.5), (1e300, 1e-300))],
    (discrete_config(parameters={"points": [[0.8, 0.3, 0.5], [0.5, 0.5, 0.5]]}),
     "scenario.parameters.points: node 0: parameters have dimension 3, expected 2"),
    (_without(gaussian_config(), "prior"), "scenario.prior: gaussian engine requires this key"),
    (_without(discrete_config(), "parameters"),
     "scenario.parameters: discrete engine requires a parameter set"),
    (discrete_config(n_rounds=0), "scenario.n_rounds: must be >= 1"),
    (discrete_config(trials=0), "scenario.trials: must be >= 1"),
    (discrete_config(master_seed=-1), "scenario.master_seed: must be >= 0"),
    (discrete_config(master_seed=2**64), "scenario.master_seed: must be <= 18446744073709551615"),
    (discrete_config(delta=0), "scenario.delta: must be > 0.0"),
    (discrete_config(delta=1), "scenario.delta: must be < 1.0"),
    (discrete_config(kl_mc_samples=0), "scenario.kl_mc_samples: must be >= 1"),
    (discrete_config(bound={"separation_rate": -1}),
     "scenario.bound.separation_rate: must be > 0.0"),
    (discrete_config(bound={"likelihood_log_range": 0}),
     "scenario.bound.likelihood_log_range: must be > 0.0"),
], ids=["model-count", "prior-mean-length", "gaussian-bernoulli-models",
        "variance-diag-subnormal", "prior-shift-overflow", "prior-shift-over-tiny-variance",
        "points-dimension", "gaussian-requires-prior", "discrete-requires-parameters",
        "n-rounds", "trials", "negative-seed", "seed-past-64-bits", "delta-zero", "delta-one",
        "kl-mc-samples", "bound-separation-rate", "bound-log-range"])
def test_scenario_rule_is_reported_at_its_config_path(payload, message):
    # Scenario.validate holds these rules; the config walk maps its field to the config path.
    with pytest.raises(ConfigValidationError) as info:
        parse_config(json.dumps(payload))
    assert str(info.value) == message
    assert info.value.path == message.split(": ")[0]
    assert isinstance(info.value.__cause__, ScenarioError)


@pytest.mark.parametrize("key, value", [("true_theta", [5.0, -3.0]), ("noise_std", 7.0)])
def test_a_discrete_config_rejects_gaussian_only_keys(key, value):
    # Only linear_gaussian models read them; a discrete world without one would ignore them.
    outcomes, metrics = run_subcommands(discrete_config(**{key: value}))
    line = f"error: scenario.{key}: only linear_gaussian models use it\n"
    assert outcomes == {command: (2, "", line) for command in ("run", "bound", "check-graph")}
    assert metrics is None
    model = {"family": "linear_gaussian", "observed": [0], "ranges": [[-1, 1]]}
    grid = discrete_config(models=[model] * 2, parameters={"points": [[0.9, 0.5], [0.2, 0.1]]},
                           true_theta=[0.9, 0.5], noise_std=0.6)
    assert parse_config(json.dumps(grid)).scenario.noise_var == 0.36


@pytest.mark.parametrize("command", ["run", "bound", "check-graph"])
def test_a_config_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"schema_version": 1, "scenario": "\xff"}')
    assert main([command, str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: config is not valid UTF-8: ")


def test_readme_states_the_whole_contract():
    # Every flag, every config key the walk accepts and every exit code is in README.md.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    subcommands = cli._build_parser()._subparsers._group_actions[0].choices
    flags = {option for parser in subcommands.values() for action in parser._actions
             for option in action.option_strings if option.startswith("--")} - {"--help"}
    keys = {"schema_version", "scenario", "output", "directory", "format", "weights", "points",
            "mean", "variance_diag", "size", "ranges", "seed", *sim.BOUND_OVERRIDES,
            *cli._SCENARIO_REQUIRED, *cli._SCENARIO_OPTIONAL, *cli._MODEL_KEYS,
            *itertools.chain(*cli._MODEL_KEYS.values())}
    assert sorted(subcommands) == ["bound", "check-graph", "run"]
    assert {flag for flag in flags | set(subcommands) if flag not in readme} == set()
    assert {key for key in keys if f'"{key}"' not in readme} == set()
    assert {code for code in ("`0`", "`2`", "`3`") if code not in readme} == set()


def test_import_loads_no_scipy():
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import peerlearn.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code, str(src)],
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


def test_the_library_imports_only_numpy_and_the_standard_library():
    # Every import statement, a function-level one too; relative imports stay in the package.
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "numpy" or top in sys.stdlib_module_names, (
                    f"{path.name}:{node.lineno} imports {name}")


class TestRunCommand:
    def test_discrete_run_writes_expected_shapes(self, tmp_path, capsys):
        config = write_config(tmp_path, discrete_config())
        out = tmp_path / "out"
        assert main(["run", config, "--out", str(out)]) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("trial,round,node,estimate_index,belief_0")
        assert len(lines) == 1 + 2 * 30 * 2  # header + trials*rounds*nodes
        summary = json.loads((out / "summary.json").read_text())
        assert "empirical_error" in summary
        stdout = capsys.readouterr().out
        assert json.loads(stdout)["empirical_error"] == summary["empirical_error"]

    def test_discrete_summary_counts_clamp_events_per_trial(self, tmp_path):
        # The floor-clamp world: the -700 floor fires in each round after the first.
        payload = discrete_config(
            n_rounds=45, master_seed=3,
            models=[{"family": "bernoulli", "true_probs": [0.999999], "visible": [0]}] * 2,
            parameters={"points": [[0.999999], [1e-300], [0.5]]})
        config = write_config(tmp_path, payload)
        assert main(["run", config, "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        report = run_experiment(build_scenario(parse_config(json.dumps(payload))))
        assert summary["clamp_events"] == [r.clamp_events for r in report.trial_results]
        assert min(summary["clamp_events"]) > 0
        gaussian = tmp_path / "gaussian"
        assert main(["run", write_config(tmp_path, gaussian_config(), "gaussian.json"),
                     "--out", str(gaussian)]) == 0
        assert "clamp_events" not in json.loads((gaussian / "summary.json").read_text())

    def test_gaussian_run_has_mu_sigma_mse_columns(self, tmp_path):
        config = write_config(tmp_path, gaussian_config())
        out = tmp_path / "out"
        assert main(["run", config, "--out", str(out)]) == 0
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == "trial,round,node,mu_0,mu_1,mu_2,sigma_0,sigma_1,sigma_2,mse"

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path, discrete_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", config, "--out", str(out_a)]) == 0
        assert main(["run", config, "--out", str(out_b)]) == 0
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()

    def test_seed_override_changes_metrics(self, tmp_path):
        config = write_config(tmp_path, discrete_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", config, "--out", str(out_a), "--seed", "1"]) == 0
        assert main(["run", config, "--out", str(out_b), "--seed", "2"]) == 0
        assert (out_a / "metrics.csv").read_bytes() != (out_b / "metrics.csv").read_bytes()

    def test_trials_override(self, tmp_path):
        config = write_config(tmp_path, discrete_config())
        out = tmp_path / "out"
        assert main(["run", config, "--out", str(out), "--trials", "1"]) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 1 + 1 * 30 * 2

    def test_json_metrics_format(self, tmp_path):
        config = write_config(tmp_path, discrete_config())
        out = tmp_path / "out"
        assert main(["run", config, "--out", str(out), "--format", "json"]) == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["columns"][0] == "trial"
        assert len(payload["rows"]) == 2 * 30 * 2

    def test_unwritable_output_exits_3(self, tmp_path, capsys, one_trial_groups):
        config = write_config(tmp_path, discrete_config())
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        code = main(["run", config, "--out", str(blocker / "nested")])
        assert code == 3
        assert capsys.readouterr().err

    @pytest.mark.parametrize("nested", [True, False], ids=["under-a-file", "a-file"])
    def test_unusable_output_fails_before_the_run(self, tmp_path, capsys, monkeypatch, nested,
                                                  one_trial_groups):
        # The error mkdir would raise after the run, raised before it.
        runs = []
        monkeypatch.setattr(cli, "run_experiment", lambda *args, **kwargs: runs.append(args))
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        out = blocker / "nested" if nested else blocker
        assert main(["run", write_config(tmp_path, discrete_config()), "--out", str(out)]) == 3
        code = errno.ENOTDIR if nested else errno.EEXIST
        assert capsys.readouterr().err == f"error: [Errno {code}] {os.strerror(code)}: '{out}'\n"
        assert runs == []

    @pytest.mark.parametrize("payload, what", [
        (gaussian_config(noise_std=1e-155), "precision or shift"),
        # A finite but huge mean keeps the state finite; its test MSE overflows.
        (gaussian_config(prior={"mean": [1e200, 0, 0], "variance_diag": [1, 0.5, 0.5]}),
         "test MSE"),
    ], ids=["label-over-noise-variance", "test-mse"])
    def test_overflow_in_the_engine_exits_3_at_its_round(self, tmp_path, capsys, payload, what,
                                                         one_trial_groups):
        # Every config passes validation; the engine overflows in round 0.
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, payload), "--out", str(out)]) == 3
        assert capsys.readouterr() == (
            "", f"error: round 0: {what} is not finite; an input overflows\n")
        assert not out.exists()

    def test_ill_conditioned_precision_exits_3_naming_the_cause(self, tmp_path, capsys,
                                                                one_trial_groups):
        # One sample adds about 7e25 to the precision where the prior leaves
        # 6e-17 on a coordinate, and a Cholesky pivot cancels below zero.
        payload = gaussian_config(
            noise_std=1.18e-13, prior={"mean": [0, 0, 0], "variance_diag": [0.5, 1.7e16, 0.5]})
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, payload), "--out", str(out)]) == 3
        assert capsys.readouterr() == (
            "", "error: round 0: precision is not positive definite; the state is "
                "ill-conditioned: 1/noise_std^2 is 1.22e+42 times the least prior precision\n")
        assert not out.exists()

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        payload = discrete_config(graph={"weights": [[1.0, 0.0], [0.0, 1.0]]})
        config = write_config(tmp_path, payload)
        assert main(["run", config]) == 2
        captured = capsys.readouterr()
        assert "strongly connected" in captured.err
        assert captured.out == ""  # diagnostics never reach stdout


class TestTrialGroups:
    """``peerlearn run`` in groups of trials: the split, the failure contract, the peak."""

    @pytest.mark.parametrize("trials, fit, sizes", [
        (20, 11, [10, 10]),  # regression-cli at the default budget
        (20, 18, [10, 10]),  # not 18 + 2, which would keep 90% of the peak
        (20, 9, [6, 7, 7]),
        (7, 1, [1] * 7),
        (5, 100, [5]),
    ])
    def test_groups_are_the_fewest_near_equal_that_fit(self, monkeypatch, trials, fit, sizes):
        scenario = build_scenario(parse_config(json.dumps(gaussian_config(
            n_rounds=2000, trials=trials))))
        trial_bytes = 8 * (3 * 3 + 1) * 2000 * 2
        monkeypatch.setattr(sim, "_GROUP_BYTES", fit * trial_bytes + trial_bytes - 1)
        groups = list(sim._trial_groups(scenario))
        assert [len(g) for g in groups] == sizes
        assert [t for g in groups for t in g] == list(range(trials))

    def test_default_budget_splits_regression_cli_in_two(self):
        scenario = build_scenario(parse_config(json.dumps(gaussian_config(
            n_rounds=2000, trials=20, test_set={"size": 1000, "ranges": [[-1, 1], [-1.5, 1.5]],
                                                "seed": 5}))))
        assert list(sim._trial_groups(scenario)) == [range(0, 10), range(10, 20)]

    @pytest.mark.parametrize("record_beliefs, sizes", [(True, [16, 17, 17]), (False, [50])])
    def test_discrete_trials_count_beliefs_only_when_recorded(self, record_beliefs, sizes):
        # bernoulli-bound's shape: 3 nodes, 10 points, 790 rounds, 50 trials. Unrecorded,
        # a trial holds one float per round and node, for its codes and estimates.
        graph, theta, models = three_node_bernoulli()
        scenario = Scenario(graph=graph, engine="discrete", models=models, n_rounds=790,
                            trials=50, master_seed=0, theta_set=theta,
                            record_beliefs=record_beliefs)
        assert [len(g) for g in sim._trial_groups(scenario)] == sizes

    def test_groups_come_one_at_a_time(self):
        # 240 bytes a trial fit 17,476 trials in a group: about 5.7e25 groups
        # of 10**30 trials, of which only the first two are built.
        points = [[0.8, 0.3], [0.8, 0.6], [0.2, 0.3]]
        scenario = build_scenario(parse_config(json.dumps(discrete_config(
            n_rounds=5, trials=10**30, parameters={"points": points}))))
        assert list(itertools.islice(sim._trial_groups(scenario), 2)) == [
            range(0, 17475), range(17475, 34951)]

    @staticmethod
    def _run_fails_leaving_the_output(tmp_path, capsys, existing, message):
        """A failing run into a new directory, or over existing files, changes nothing."""
        out = tmp_path / "nested" / "out"
        old = {}
        if existing:
            out.mkdir(parents=True)
            old = {"metrics.csv": b"old metrics\n", "summary.json": b"{}\n"}
            for name, data in old.items():
                (out / name).write_bytes(data)
        config = write_config(tmp_path, gaussian_config(trials=3))
        assert main(["run", config, "--out", str(out)]) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")
        if existing:
            assert {p.name: p.read_bytes() for p in out.iterdir()} == old
        else:
            assert not (tmp_path / "nested").exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["new-directory", "existing-files"])
    def test_failure_in_the_second_group_leaves_the_output_as_it_was(
            self, tmp_path, capsys, monkeypatch, existing):
        monkeypatch.setattr(sim, "_GROUP_BYTES", 1)
        run_group = sim._run_group
        message = "round 3: precision or shift is not finite; an input overflows"

        def failing(scenario, trials, *args):
            if trials.start == 1:
                raise sim._gate(ValueError(message), 1, 0, 0, 3)
            return run_group(scenario, trials, *args)

        monkeypatch.setattr(sim, "_run_group", failing)
        self._run_fails_leaving_the_output(tmp_path, capsys, existing, message)

    @pytest.mark.parametrize("error, message", OUT_OF_MEMORY, ids=["numpy", "bare"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new-directory", "existing-files"])
    def test_out_of_memory_exits_3_leaving_the_output_as_it_was(
            self, tmp_path, capsys, monkeypatch, existing, error, message):
        def failing(*args):
            raise error

        monkeypatch.setattr(sim, "_run_group", failing)
        self._run_fails_leaving_the_output(tmp_path, capsys, existing, message)

    @pytest.mark.parametrize("existing", [False, True], ids=["new-directory", "existing-files"])
    def test_failure_writing_the_summary_leaves_the_output_as_it_was(
            self, tmp_path, capsys, monkeypatch, existing):
        # The disk fills up after the summary's first 11 bytes, once the metrics are written.
        disk_full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def full_disk_open(path, *args, **kwargs):
            handle = open(path, *args, **kwargs)
            if Path(path).name.startswith("summary.json"):
                def write(text):
                    type(handle).write(handle, text[:11])
                    handle.flush()
                    raise disk_full
                handle.write = write
            return handle

        monkeypatch.setattr(cli, "open", full_disk_open, raising=False)
        self._run_fails_leaving_the_output(tmp_path, capsys, existing, disk_full)

    def test_a_gate_failure_exits_3_as_one_batch_meets_it(self, tmp_path, capsys,
                                                            one_trial_groups):
        # 1/noise_std^2 is 1e308: every trial's precision overflows in round
        # 1, and trial 2's shift already in round 0, where a label passes 1.79.
        payload = gaussian_config(trials=3, noise_std=1e-154, true_theta=[0, 2, 0])
        del payload["scenario"]["test_set"]
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, payload), "--out", str(out)]) == 3
        assert capsys.readouterr() == (
            "", "error: round 0: precision or shift is not finite; an input overflows\n")
        assert not out.exists()

    @pytest.mark.parametrize("failing, message", [
        ({1: (1, 0, 0, 5), 2: (1, 0, 0, 2)}, "round 2"),  # an earlier round in the batch
        ({1: (1, 0, 1, 2), 2: (1, 0, 0, 100)}, "round 100"),  # the finiteness check first
        ({1: (1, 0, 0, 0), 3: (0, 128, 2, 9)}, "round 9"),  # the central baseline first
        ({1: (1, 0, 0, 5), 3: (1, 0, 0, 5)}, "round 5 in trial 1"),  # a tie: the first group
    ])
    def test_a_failure_is_the_one_a_single_batch_meets_first(self, monkeypatch, failing, message):
        monkeypatch.setattr(sim, "_GROUP_BYTES", 1)
        run_group = sim._run_group

        def gated(scenario, trials, *args):
            if trials.start in failing:
                order = failing[trials.start]
                raise sim._gate(ValueError(f"round {order[-1]} in trial {trials.start}"), *order)
            return run_group(scenario, trials, *args)

        monkeypatch.setattr(sim, "_run_group", gated)
        scenario = build_scenario(parse_config(json.dumps(gaussian_config(trials=4))))
        consumed = []
        with pytest.raises(ValueError, match=f"^{message}"):
            run_experiment(scenario, consume=lambda trials, results: consumed.append(trials))
        assert consumed == [range(0, 1)]  # nothing is consumed past a failure

    @pytest.mark.parametrize("engine", ["discrete", "gaussian"])
    def test_peak_does_not_grow_with_the_trial_count(self, tmp_path, monkeypatch, engine):
        # One trial per group and chunks of 272 cells: the traced peak is
        # about 0.35 MB at 2 and at 8 trials, one trial's beliefs, or samples
        # and histories, among it (0.2 and 0.1 MB). Holding every trial, it
        # grows to 1.8 MB (discrete) and 1.7 MB (gaussian) at 8 trials.
        monkeypatch.setattr(sim, "_GROUP_BYTES", 1)
        axis = np.linspace(0.05, 0.95, 8)
        grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        if engine == "discrete":
            payload = discrete_config(
                n_rounds=200, kl_mc_samples=50, parameters={"points": grid.tolist()},
                models=[{"family": "bernoulli", "true_probs": grid[20].tolist(), "visible": [j]}
                        for j in range(2)])
        else:
            payload = gaussian_config(n_rounds=600)
        monkeypatch.setattr(output, "_CHUNK_CELLS", 272)
        peaks = []
        for trials in (2, 8):
            payload["scenario"]["trials"] = trials
            config = write_config(tmp_path, payload, f"config-{trials}.json")
            argv = ["run", config, "--out", str(tmp_path / f"out-{trials}")]
            with contextlib.redirect_stdout(io.StringIO()):
                peaks.append(peak_bytes(lambda: main(argv)))
        assert peaks[1] < 1.2 * peaks[0]


class TestBoundCommand:
    @pytest.mark.parametrize("error, message", OUT_OF_MEMORY, ids=["numpy", "bare"])
    def test_out_of_memory_exits_3(self, tmp_path, capsys, monkeypatch, error, message):
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(sim, "separation_table", failing)
        assert main(["bound", write_config(tmp_path, discrete_config())]) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_worked_example(self, tmp_path, capsys):
        points = [[p] for p in np.linspace(0.05, 0.95, 10)]
        payload = discrete_config(
            parameters={"points": points},
            models=[
                {"family": "bernoulli", "true_probs": [0.5], "visible": [0]},
                {"family": "bernoulli", "true_probs": [0.5], "visible": [0]},
            ],
            delta=0.1,
            bound={"likelihood_log_range": 2.0, "separation_rate": 0.5},
        )
        config = write_config(tmp_path, payload)
        assert main(["bound", config]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 969
        assert out["n_nodes"] == 2
        assert out["n_params"] == 10
        assert out["lambda_max"] == pytest.approx(0.3)
        assert out["assumption_violated"] is False

    def test_not_globally_learnable_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, self.not_learnable())
        assert main(["bound", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scenario.parameters.points: ")
        assert "optimal for every node" in err

    def test_overflowing_bound(self, tmp_path, capsys):
        # The squared rate underflows, so the bound overflows: ``bound``
        # exits 2 at the overrides, and ``run`` reports no bound and why.
        config = write_config(tmp_path, discrete_config(bound={"separation_rate": 1e-200}))
        message = ("scenario.bound: the sample bound overflows a float at separation rate "
                   "1e-200 and likelihood log-range 1.38629; supply explicit values")
        assert main(["bound", config]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert main(["run", config, "--out", str(tmp_path / "out")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["sample_bound"] is None
        assert summary["sample_bound_reason"] == message

    def test_rate_override_does_not_make_a_world_learnable(self, tmp_path, capsys):
        # ``bound`` builds the separation table as ``run`` does, so both fail alike.
        config = write_config(tmp_path, self.not_learnable(bound={"separation_rate": 0.05}))
        assert main(["bound", config]) == 2
        captured = capsys.readouterr()
        assert "optimal for every node" in captured.err
        assert captured.out == ""
        assert main(["run", config, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == captured

    @staticmethod
    def not_learnable(**overrides):
        return discrete_config(
            models=[
                {"family": "bernoulli", "true_probs": [0.2], "visible": [0]},
                {"family": "bernoulli", "true_probs": [0.8], "visible": [0]},
            ],
            parameters={"points": [[0.2], [0.8]]},
            **overrides,
        )

    def test_infinite_rate_sentinel_yields_one(self, tmp_path, capsys):
        # Both parameters agree on the only visible context.
        payload = discrete_config(
            models=[
                {"family": "bernoulli", "true_probs": [0.3, 0.1], "visible": [0]},
                {"family": "bernoulli", "true_probs": [0.3, 0.1], "visible": [0]},
            ],
            parameters={"points": [[0.3, 0.1], [0.3, 0.9]]},
        )
        config = write_config(tmp_path, payload)
        assert main(["bound", config]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 1
        assert out["separation_rate"] == "inf"

    def test_computed_rate_without_overrides(self, tmp_path, capsys):
        config = write_config(tmp_path, discrete_config())
        assert main(["bound", config]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n"] >= 1
        assert out["separation_rate"] > 0
        assert out["likelihood_log_range"] == pytest.approx(np.log(0.8 / 0.2))

    def test_log_range_whose_likelihood_ratio_overflows(self, tmp_path, capsys):
        # The likelihood bounds are (1e-320, 1.0): their ratio overflows a
        # float, the difference of their logs does not.
        points = [[0.8, 0.3], [0.8, 0.6], [0.2, 1e-320], [0.5, 0.5]]
        config = write_config(tmp_path, discrete_config(parameters={"points": points}))
        assert main(["bound", config]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["likelihood_log_range"] == pytest.approx(736.827, abs=5e-4)
        assert main(["run", config, "--out", str(tmp_path / "out")]) == 0
        assert json.loads(capsys.readouterr().out)["sample_bound"] == printed["n"]

    @pytest.mark.parametrize("overrides", [
        {},
        {"separation_rate": 0.01},
        {"likelihood_log_range": 2.0},
        {"likelihood_log_range": 2.0, "separation_rate": 0.01},
    ], ids=["none", "separation_rate", "likelihood_log_range", "both"])
    def test_run_reports_the_same_bound(self, tmp_path, capsys, overrides):
        config = write_config(tmp_path, discrete_config(bound=overrides))
        assert main(["bound", config]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert main(["run", config, "--out", str(tmp_path / "out")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["sample_bound"] == printed["n"]
        assert summary["separation_rate"] == printed["separation_rate"]
        assert "sample_bound_reason" not in summary


    @pytest.mark.parametrize("scenario", [
        {
            "models": [
                {"family": "bernoulli", "true_probs": [0.0, 0.6], "visible": [0]},
                {"family": "bernoulli", "true_probs": [0.0, 0.6], "visible": [1]},
            ],
            "parameters": {"points": [[0.0, 0.6], [0.5, 0.6], [0.0, 0.3]]},
        },
        {
            "models": [
                {"family": "linear_gaussian", "observed": [0],
                 "ranges": [[-1, 1], [-1.5, 1.5]]},
                {"family": "linear_gaussian", "observed": [1],
                 "ranges": [[-1, 1], [-1.5, 1.5]]},
            ],
            "true_theta": [-0.3, 0.5, 0.8],
            "noise_std": 0.8,
            "parameters": {"points": [[-0.3, 0.5, 0.8], [0.0, 0.5, 0.8],
                                      [-0.3, 0.0, 0.8], [-0.3, 0.5, 0.0]]},
        },
    ], ids=["zero-probability", "linear-gaussian"])
    def test_unbounded_likelihoods(self, tmp_path, capsys, scenario):
        # ``bound`` needs the log-range and asks for it; ``run`` does not
        # need the bound, reports none and says why, with the same message.
        config = write_config(tmp_path, discrete_config(**scenario))
        assert main(["bound", config]) == 2
        captured = capsys.readouterr()
        message = ("scenario.bound.likelihood_log_range: likelihoods are unbounded; "
                   "supply an explicit value")
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert main(["run", config, "--out", str(tmp_path / "out")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["sample_bound"] is None
        assert summary["sample_bound_reason"] == message
        assert summary["assumption_violated"] is True
        assert summary["global_optima"] == [0]



class TestCheckGraphCommand:
    def test_reference_matrix(self, tmp_path, capsys):
        config = write_config(tmp_path, discrete_config())
        assert main(["check-graph", config]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is True
        np.testing.assert_allclose(out["stationary"], [0.857143, 0.142857], atol=1e-6)
        assert out["lambda_max"] == pytest.approx(0.3)
        assert all(out["within_bound"])

    def test_identity_graph_exits_2(self, tmp_path, capsys):
        payload = discrete_config(graph={"weights": [[1.0, 0.0], [0.0, 1.0]]})
        config = write_config(tmp_path, payload)
        assert main(["check-graph", config]) == 2
        err = capsys.readouterr().err
        assert "strongly connected" in err

    def test_second_reference_matrix(self, tmp_path, capsys):
        payload = discrete_config(graph={"weights": [[0.45, 0.55], [0.70, 0.30]]})
        config = write_config(tmp_path, payload)
        assert main(["check-graph", config, "--horizon", "50"]) == 0
        out = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(out["stationary"], [0.56, 0.44], atol=1e-9)
        assert out["lambda_max"] == pytest.approx(0.25)
        assert out["horizon"] == 50

    @pytest.mark.parametrize("existing", [False, True], ids=["new-directory", "existing-files"])
    @pytest.mark.parametrize("config", [discrete_config, gaussian_config])
    def test_chain_periodic_in_floats_exits_2_alike(self, tmp_path, capsys, config, existing):
        # Row 0 sums to 1.0 and its self-loop makes the pattern aperiodic, but
        # the subdominant eigenvalue -1 + 1e-300 has modulus 1.0 in floats.
        path = write_config(tmp_path, config(graph={"weights": [[1e-300, 1.0], [1.0, 0.0]]}))
        out = tmp_path / "nested" / "out"
        old = {}
        if existing:
            out.mkdir(parents=True)
            old = {"metrics.csv": b"old metrics\n", "summary.json": b"{}\n"}
            for name, data in old.items():
                (out / name).write_bytes(data)
        outcomes = []
        for argv in (["check-graph", path], ["bound", path], ["run", path, "--out", str(out)]):
            assert main(argv) == 2
            outcomes.append(capsys.readouterr())
        assert outcomes == [("", "error: scenario.graph.weights: second-largest eigenvalue "
                                 "modulus is 1.0, not below 1\n")] * 3
        if existing:
            assert {p.name: p.read_bytes() for p in out.iterdir()} == old
        else:
            assert not (tmp_path / "nested").exists()

    def test_missing_config_file_exits_runtime(self, tmp_path, capsys):
        assert main(["check-graph", str(tmp_path / "missing.json")]) == 3
        assert capsys.readouterr().err


class TestOverrideValidation:
    @pytest.mark.parametrize("command, flag, value", [
        ("run", "--seed", "-1"),
        ("run", "--seed", str(2**64)),
        ("run", "--seed", "abc"),
        ("run", "--trials", "0"),
        ("run", "--workers", "0"),
        ("run", "--workers", "-3"),
        ("check-graph", "--horizon", "0"),
    ])
    def test_out_of_range_flag_exits_2_naming_it(self, tmp_path, capsys, command, flag, value):
        config = write_config(tmp_path, discrete_config())
        with pytest.raises(SystemExit) as info:
            main([command, config, flag, value])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""


def _config_world(payload):
    return lambda: build_scenario(parse_config(json.dumps(payload)))


def _gaussian_without_test_set():
    payload = gaussian_config()
    del payload["scenario"]["test_set"]
    return payload


# Value cells in fixed notation, and in-range cells that '%.12g' rounds in a
# way a double cannot settle (ties), writes "-0" or writes in exponent notation.
_FIXED_CELLS = st.one_of(st.just(0.0), st.floats(1e-4, 999999999999.0),
                         st.floats(-999999999999.0, -1e-4))
_FLAGGED_CELLS = [123456789012.5, 0.0008271467107625, -0.0, 999999999999.5, -9.99999999999e-05]
_LABELLED_ROWS = {"csv": ("%d,%d,%d,{}\n", ",", ""), "json": ('["%d","%d","%d",{}]', '","', ",")}


def _labelled_row(fmt, n_values):
    """A metrics row template with label cells, and its row separator."""
    row, joint, sep = _LABELLED_ROWS[fmt]
    cells = joint.join(["%.12g"] * n_values)
    return row.format(f'"{cells}"' if fmt == "json" else cells), sep


def _many_nodes(config, n_nodes, **scenario_overrides):
    """``config``'s world on ``n_nodes`` nodes that all listen a little to each other."""
    payload = config(**scenario_overrides)
    models = payload["scenario"]["models"]
    weights = np.full((n_nodes, n_nodes), 0.04) + np.eye(n_nodes) * (1 - 0.04 * n_nodes)
    payload["scenario"].update(graph={"weights": weights.tolist()},
                               models=[models[j % 2] for j in range(n_nodes)])
    return payload


class TestMetricsWriter:
    """The chunked writer against the value-at-a-time oracle, and its memory."""

    worlds = {
        "bernoulli": _config_world(discrete_config()),
        "categorical": _config_world(categorical_config()),
        "floor-clamp": lambda: floor_clamp_scenario(n_rounds=45, trials=2),
        "gaussian": _config_world(gaussian_config()),
        # Variances fall below 1e-4 within each trial, and those chunks take the template.
        "gaussian-fallback-rows": _config_world(gaussian_config(noise_std=0.05)),
        "gaussian-no-test-set": _config_world(_gaussian_without_test_set()),
        # Label text that changes width inside a chunk: rounds 999 and 1000 share
        # one, as do nodes 9 and 10, and trials 9 and 10 are written by one group.
        "gaussian-1002-rounds": _config_world(gaussian_config(n_rounds=1002)),
        "gaussian-12-nodes": _config_world(
            _many_nodes(gaussian_config, 12, trials=12, n_rounds=10)),
        # Rounds 0-8 take the fast path, and each trial turns to the template later.
        "discrete-11-nodes": _config_world(
            _many_nodes(discrete_config, 11, trials=12, n_rounds=20)),
    }

    @pytest.mark.parametrize("grouped", [False, True], ids=["one-group", "group-per-trial"])
    @pytest.mark.parametrize("chunk_rows", [None, 7], ids=["default-chunks", "7-row-chunks"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("world", sorted(worlds))
    def test_bytes_equal_the_oracle(self, tmp_path, monkeypatch, world, fmt, chunk_rows, grouped):
        scenario = self.worlds[world]()
        report = run_experiment(scenario)
        assert scenario.trials > 1
        if chunk_rows is not None:
            # Chunks split a trial's rows, and the last one of each trial is short.
            n_cells = len(output._metric_columns(scenario)[1])
            monkeypatch.setattr(output, "_CHUNK_CELLS", chunk_rows * n_cells)
            assert (scenario.n_rounds * scenario.graph.n_nodes) % chunk_rows != 0
        target = tmp_path / f"metrics.{fmt}"
        groups = [range(t, t + 1) for t in range(scenario.trials)] if grouped else None
        write_metrics(report, scenario, target, fmt, groups)
        assert target.read_bytes() == reference_metrics_bytes(report, scenario, fmt)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    @example(float("inf"))
    @example(float("-inf"))
    @example(float("nan"))
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-2.225073858507201e-308)
    @example(0.1 + 0.2)
    @example(123456789012.5)
    def test_percent_template_formats_as_the_format_spec(self, x):
        assert "%.12g" % x == f"{x:.12g}"

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    @example(9.99999999999995e-05)
    @example(1e-4)
    @example(float(np.nextafter(1e-4, 0)))
    @example(float(np.nextafter(1e-4, 1)))
    @example(999999999999.5)
    @example(123456789012.5)
    @example(99999999999.99999)
    @example(1e11)
    @example(-0.0)
    @example(5e-324)
    @example(0.0008271467107625)  # y is a half; x lies above it, rint(y) rounds to even
    def test_fast_cells_read_as_the_percent_template(self, x):
        values = np.array([[x]])
        fast, slots = output._fixed_notation(values)
        if fast[0, 0]:
            unflagged = np.array([], np.intp), np.array([], "S19")
            assert output._render_fast(slots, np.zeros((1, 0), np.uint8), (),
                                       *unflagged) == b"%.12g" % x
        render = output._row_renderer("%d,%d,%d,%.12g\n", "", 1, 1)
        assert render(values, 0, 0) == b"0,0,0,%.12g\n" % x

    @pytest.mark.parametrize("x, fast", [
        (0.0, True), (1e-4, True), (9.99999999999995e-05, True), (99999999999.99999, True),
        (-3.25, True), (999999999999.0, True),
        (-0.0, False), (123456789012.5, False), (0.0008271467107625, False),
        (999999999999.5, False), (9.9e-05, False),
        (5e-324, False), (float("nan"), False), (float("-inf"), False),
    ])
    def test_fixed_notation_cells_take_the_fast_path(self, x, fast):
        # Out of range, -0.0 and digits that scale to a half take the template.
        assert output._fixed_notation(np.array([[x]]))[0][0, 0] == fast

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_flagged_cells_anywhere_on_the_canvas(self, data):
        rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 5))
        values = np.array(data.draw(st.lists(st.lists(_FIXED_CELLS, min_size=cols, max_size=cols),
                                             min_size=rows, max_size=rows)))
        for r, c in data.draw(st.lists(st.tuples(st.integers(0, rows - 1),
                                                 st.integers(0, cols - 1)), min_size=1)):
            values[r, c] = data.draw(st.sampled_from(_FLAGGED_CELLS))
        assert not output._fixed_notation(values)[0].all()
        n_nodes, n_rounds = data.draw(st.integers(1, 11)), data.draw(st.integers(rows, 12))
        start = data.draw(st.integers(0, n_rounds * n_nodes - rows))
        trial = data.draw(st.integers(0, 12))
        row, sep = _labelled_row(data.draw(st.sampled_from(["csv", "json"])), cols)
        render = output._row_renderer(row, sep, n_rounds, n_nodes)
        with mock.patch.object(output, "_render_fast", wraps=output._render_fast) as canvas:
            text = render(values, trial, start)
        assert canvas.call_count == 1
        cells = [[trial, *divmod(start + r, n_nodes), *values[r].tolist()] for r in range(rows)]
        assert text == (sep.join([row] * rows) % tuple(sum(cells, []))).encode()

    @pytest.mark.parametrize("row, sep, values, canvas", [
        # One exponent cell sends the chunk, its flagged cells too, to the template.
        (*_labelled_row("csv", 3), [[0.5, -0.0, 1.25], [123456789012.5, 1e-05, 2.0]], False),
        (*_labelled_row("json", 3), [[0.5, -0.0, 1.25], [123456789012.5, 1e-05, 2.0]], False),
        # A flagged cell takes its own column's %-format: '%d' writes -0.0 as "0".
        ("%d,%d,%d,%d,%.12g\n", "", [[-0.0, -0.0], [3.0, 0.0008271467107625]], True),
    ], ids=["exponent-csv", "exponent-json", "percent-d"])
    def test_flagged_cells_read_as_their_template(self, row, sep, values, canvas):
        # Trial 4's rows 1 and 2 on 2 nodes: round 0 at node 1, round 1 at node 0.
        cells = sum(([4, *divmod(1 + r, 2), *v] for r, v in enumerate(values)), [])
        render = output._row_renderer(row, sep, 3, 2)
        with mock.patch.object(output, "_render_fast", wraps=output._render_fast) as fast:
            text = render(np.array(values), 4, 1)
        assert text == (sep.join([row] * len(values)) % tuple(cells)).encode()
        assert fast.call_count == canvas

    @pytest.mark.parametrize("chunk_rows, kinds", [
        (None, {"mixed"}),
        (7, {"fast", "mixed", "template"}),
    ], ids=["default-chunks", "7-row-chunks"])
    def test_fallback_world_mixes_row_kinds(self, monkeypatch, chunk_rows, kinds):
        scenario = self.worlds["gaussian-fallback-rows"]()
        report = run_experiment(scenario)
        n_cells = len(output._metric_columns(scenario)[1])
        if chunk_rows is not None:
            monkeypatch.setattr(output, "_CHUNK_CELLS", chunk_rows * n_cells)
        seen = set()
        for _, _, chunk in output._metric_chunks(scenario, 0, report.trial_results, n_cells):
            fast = output._fixed_notation(chunk)[0].all(axis=1)
            seen.add("fast" if fast.all() else "template" if not fast.any() else "mixed")
        assert seen == kinds

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_does_not_grow_with_the_round_count(self, tmp_path, monkeypatch, fmt):
        # An 8x8 grid written in 16-row chunks: the peak is one chunk's (about
        # 110 KB traced) at 50 and at 200 rounds, while a whole trial's beliefs
        # (200 KB at 200 rounds) or every row's text grows with the round count.
        axis = np.linspace(0.05, 0.95, 8)
        grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        monkeypatch.setattr(output, "_CHUNK_CELLS", 16 * (4 + len(grid)))
        peaks = []
        for n_rounds in (50, 200):
            scenario = Scenario(
                graph=validate_weight_matrix([[0.8, 0.2], [0.3, 0.7]]),
                engine="discrete",
                models=[BernoulliContextModel(j, grid[20], [j]) for j in range(2)],
                n_rounds=n_rounds,
                trials=1,
                master_seed=5,
                theta_set=ParameterSet(grid),
                kl_mc_samples=50,
            )
            report = run_experiment(scenario)
            target = tmp_path / f"metrics.{fmt}"
            peaks.append(peak_bytes(lambda: write_metrics(report, scenario, target, fmt)))
        assert max(peaks) < 128 * 2**10
        assert peaks[1] < 1.2 * peaks[0]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_slot_chunks_read_as_the_percent_template(self, data):
        # One chunk holds a cell of each sign at every exponent X in [-4, 11],
        # with counts k of significant digits that run through 1..12 (every
        # cell at X = 11 is integer-valued), zeros, and flagged cells: -0.0,
        # ties, values just below 1e-4 and a carry to 1e12.
        shift, rng = data.draw(st.integers(0, 11)), np.random.default_rng(data.draw(st.integers(0)))
        cells = [0.0, 0.0]
        for i, (x, sign) in enumerate(itertools.product(range(-4, 12), "+-")):
            k = 1 + (i + shift) % 12
            digits = int(rng.integers(10 ** (k - 1), 10**k))
            cells.append(float(f"{sign}{digits + (digits % 10 == 0)}e{x - k + 1}"))
        cells += data.draw(st.lists(st.sampled_from(_FLAGGED_CELLS + [
            9.99999999999e-05, 999999999999.7, float(np.nextafter(1e12, 0))]), min_size=1))
        cols = data.draw(st.integers(2, 7))
        cells += [0.0] * (-len(cells) % cols)
        values = rng.permutation(cells).reshape(-1, cols)
        rows = len(values)
        row, sep = _labelled_row(data.draw(st.sampled_from(["csv", "json"])), cols)
        n_nodes = data.draw(st.integers(1, 11))
        start = data.draw(st.integers(0, n_nodes * 3))
        render = output._row_renderer(row, sep, -(-(start + rows) // n_nodes), n_nodes)
        with mock.patch.object(output, "_render_fast", wraps=output._render_fast) as canvas:
            text = render(values, 12, start)
        assert canvas.call_count == 1
        labelled = [[12, *divmod(start + r, n_nodes), *values[r].tolist()] for r in range(rows)]
        assert text == (sep.join([row] * rows) % tuple(sum(labelled, []))).encode()

    def test_peak_of_a_gaussian_chunk(self):
        # A full chunk of 819 rows x 7 value cells: about 0.51 MB traced for
        # its digits, slots, canvas and text. An index of 18 intp per cell
        # into its bytes took 1.3 MB.
        scenario = _config_world(gaussian_config(n_rounds=410, trials=1))()
        report = run_experiment(scenario)
        n_cells = len(output._metric_columns(scenario)[1])
        _, start, values = next(output._metric_chunks(scenario, 0, report.trial_results, n_cells))
        assert values.shape == (819, 7) and output._in_fixed_range(values).all()
        row = ",".join(output._metric_columns(scenario)[1]) + "\n"
        render = output._row_renderer(row, "", scenario.n_rounds, scenario.graph.n_nodes)
        assert peak_bytes(lambda: render(values, 0, start)) < 800_000
