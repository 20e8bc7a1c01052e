"""Tests of the benchmark itself: every check must reject a wrong output.

Run from the root of the repository:

    python3 -m pytest bench/tests -q

The workloads run at their ``smoke`` sizes, so the whole file takes seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(cls, tmp_path, seed=7):
    workload = cls(seed, tmp_path / cls.name, cls.smoke)
    return workload, workload.execute()


def edit_summary(workload, out, edit):
    """Change summary.json and the echoed stdout alike."""
    path = workload.out_dir / "summary.json"
    summary = json.loads(path.read_text())
    edit(summary)
    path.write_text(json.dumps(summary))
    out["stdout"] = json.dumps(summary)


def edit_csv(workload, edit):
    path = workload.out_dir / "metrics.csv"
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")


# --- regression-cli -------------------------------------------------------


def test_regression_outputs_pass(tmp_path):
    workload, out = smoke(workloads.RegressionCLI, tmp_path)
    workload.check(out)
    workload.check(workload.execute())


def test_regression_rejects_nonzero_exit(tmp_path):
    workload, out = smoke(workloads.RegressionCLI, tmp_path)
    out["exit_code"] = 3
    with pytest.raises(CheckFailed, match="exited 3"):
        workload.check(out)


def test_regression_rejects_baseline_off_by_1e6(tmp_path):
    workload, out = smoke(workloads.RegressionCLI, tmp_path)

    def shift(summary):
        summary["baseline_final_mse"] *= 1.0 + 1e-6

    edit_summary(workload, out, shift)
    with pytest.raises(CheckFailed, match="closed form"):
        workload.check(out)


def test_regression_rejects_cooperative_gap_beyond_5_percent(tmp_path):
    workload, out = smoke(workloads.RegressionCLI, tmp_path)
    baseline = float(workload.expected["baseline_mse"].mean())

    def inflate(summary):
        summary["final_mse_per_node"][1] = baseline * 1.06

    edit_summary(workload, out, inflate)
    with pytest.raises(CheckFailed, match="beyond 5%"):
        workload.check(out)


def test_regression_rejects_dropped_csv_row(tmp_path):
    workload, out = smoke(workloads.RegressionCLI, tmp_path)
    edit_csv(workload, lambda lines: lines.pop(5))
    with pytest.raises(CheckFailed, match="rows, expected"):
        workload.check(out)


def test_regression_rejects_rerun_with_other_bytes(tmp_path):
    workload, out = smoke(workloads.RegressionCLI, tmp_path)
    workload.check(out)

    def retouch(lines):
        lines[1] = lines[1][:-1] + ("0" if lines[1][-1] != "0" else "1")

    edit_csv(workload, retouch)
    with pytest.raises(CheckFailed, match="differs from the first"):
        workload.check(out)


def test_regression_rejects_summary_not_matching_csv(tmp_path):
    workload, out = smoke(workloads.RegressionCLI, tmp_path)

    def nudge(summary):
        summary["final_mse_per_node"][0] *= 1.0 + 1e-9

    edit_summary(workload, out, nudge)
    with pytest.raises(CheckFailed, match="last-round mean"):
        workload.check(out)


def test_regression_rejects_perturbed_final_mean(tmp_path):
    workload, out = smoke(workloads.RegressionCLI, tmp_path)
    rounds = workload.size["rounds"]

    def perturb(lines):
        row = 1 + (rounds - 1) * 2  # trial 0, last round, node 0
        cells = lines[row].split(",")
        assert cells[:3] == ["0", str(rounds - 1), "0"]
        cells[3] = repr(float(cells[3]) + 1e-6)
        lines[row] = ",".join(cells)

    edit_csv(workload, perturb)
    with pytest.raises(CheckFailed, match="unrolled recursion"):
        workload.check(out)


# --- bernoulli-bound ------------------------------------------------------


def test_bernoulli_outputs_pass(tmp_path):
    workload, out = smoke(workloads.BernoulliBound, tmp_path)
    workload.check(out)


def test_bernoulli_rejects_bound_not_the_formula(tmp_path):
    workload, out = smoke(workloads.BernoulliBound, tmp_path)
    out["n_rounds"] += 1
    out["report"].sample_bound += 1
    with pytest.raises(CheckFailed, match="not the formula"):
        workload.check(out)


def test_bernoulli_rejects_run_disagreeing_with_library_bound(tmp_path):
    workload, out = smoke(workloads.BernoulliBound, tmp_path)
    out["report"].sample_bound += 1
    with pytest.raises(CheckFailed, match="sample bound"):
        workload.check(out)


def test_bernoulli_rejects_error_above_delta(tmp_path):
    workload, out = smoke(workloads.BernoulliBound, tmp_path)
    out["report"].empirical_error = 0.11
    with pytest.raises(CheckFailed, match="exceeds delta"):
        workload.check(out)


def test_bernoulli_rejects_wrong_global_optima(tmp_path):
    workload, out = smoke(workloads.BernoulliBound, tmp_path)
    report = out["report"]
    report.separation = dataclasses.replace(report.separation, global_optima=(0, 1))
    with pytest.raises(CheckFailed, match="global optima"):
        workload.check(out)


def test_bernoulli_rejects_perturbed_log_belief(tmp_path, monkeypatch):
    workload, out = smoke(workloads.BernoulliBound, tmp_path)
    beliefs, estimates = workload.record_trial0(out)
    beliefs = beliefs.copy()
    beliefs[1, 4] += 1e-6
    monkeypatch.setattr(workload, "record_trial0", lambda _out: (beliefs, estimates))
    with pytest.raises(CheckFailed, match="log-beliefs"):
        workload.check(out)


def test_bernoulli_rejects_trial0_estimates_of_another_run(tmp_path):
    workload, out = smoke(workloads.BernoulliBound, tmp_path)
    workload.check(out)
    history = out["report"].trial_results[0].estimate_history
    history[0, 0] = 9 - history[0, 0]
    with pytest.raises(CheckFailed, match="estimates"):
        workload.check(out)


# --- fine-grid ------------------------------------------------------------


def test_fine_grid_outputs_pass(tmp_path):
    workload, out = smoke(workloads.FineGrid, tmp_path)
    workload.check(out)


def test_fine_grid_rejects_nonzero_bound_exit(tmp_path):
    workload, out = smoke(workloads.FineGrid, tmp_path)
    out["bound_exit_code"] = 2
    with pytest.raises(CheckFailed, match="bound exited 2"):
        workload.check(out)


def test_fine_grid_rejects_wrong_global_optimum(tmp_path):
    workload, out = smoke(workloads.FineGrid, tmp_path)
    report = out["report"]
    wrong = (workload.truth_index + 1) % report.separation.kl_to_truth.shape[1]
    report.separation = dataclasses.replace(report.separation, global_optima=(wrong,))
    with pytest.raises(CheckFailed, match="global optima"):
        workload.check(out)


def test_fine_grid_rejects_bound_disagreeing_with_run(tmp_path):
    workload, out = smoke(workloads.FineGrid, tmp_path)
    payload = json.loads(out["bound_stdout"])
    payload["n"] += 1
    out["bound_stdout"] = json.dumps(payload)
    with pytest.raises(CheckFailed, match="bound prints"):
        workload.check(out)


def test_fine_grid_rejects_accepted_near_duplicate(tmp_path, monkeypatch):
    workload, out = smoke(workloads.FineGrid, tmp_path)
    monkeypatch.setattr(workloads.models, "ParameterSet", lambda points: None)
    with pytest.raises(CheckFailed, match="accepted points"):
        workload.check(out)


def test_fine_grid_rejects_perturbed_log_belief(tmp_path, monkeypatch):
    workload, out = smoke(workloads.FineGrid, tmp_path)
    beliefs, estimates = workload.record_trial0(out)
    beliefs = beliefs.copy()
    beliefs[0, workload.truth_index] += 1e-6
    monkeypatch.setattr(workload, "record_trial0", lambda _out: (beliefs, estimates))
    with pytest.raises(CheckFailed, match="log-beliefs"):
        workload.check(out)


# --- spans ----------------------------------------------------------------


def test_self_times_subtract_children():
    tracer = spans.Tracer()
    tracer.spans = [
        spans.Span("sim.run_experiment", 0.0, 10.0, None, children=[1, 2]),
        spans.Span("graph.spectral_gap", 1.0, 2.0, 0),
        spans.Span("sim.run_trial", 3.0, 9.0, 0, children=[3]),
        spans.Span("models.sample_labels", 4.0, 8.0, 2),
    ]
    assert tracer.self_time(0) == pytest.approx(3.0)
    # The run_trial child is sim's own code, less its 4 s in models.
    assert tracer.layer_self_time(0) == pytest.approx(5.0)


def test_tracer_restores_the_program():
    from peerlearn import cli, models, sim

    originals = (cli.parse_config, sim.separation_table, models.separation_table,
                 vars(models.ParameterSet)["__post_init__"],
                 vars(models.BernoulliContextModel)["sample_labels"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.parse_config is not originals[0]
        assert sim.separation_table is not originals[1]
        assert sim.separation_table is models.separation_table
    finally:
        tracer.uninstall()
    assert (cli.parse_config, sim.separation_table, models.separation_table,
            vars(models.ParameterSet)["__post_init__"],
            vars(models.BernoulliContextModel)["sample_labels"]) == originals


# --- whole runs -----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_metric(name, trace, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    result = run.run(name, 3, 0.01, trace, workloads.WORKLOADS[name].smoke)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if trace:
        assert (tmp_path / f"trace-{name}-seed3.json").exists()
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    size = workloads.BernoulliBound.smoke
    metrics = run.run("bernoulli-bound", 3, 0.01, True, size)["metrics"]
    assert metrics["sim.run_trial_calls"]["value"] == size["trials"]
    assert metrics["graph.validate_weight_matrix_calls"]["value"] == 2
    assert metrics["cli.rows_written"]["value"] == 0

    size = workloads.RegressionCLI.smoke
    metrics = run.run("regression-cli", 3, 0.01, True, size)["metrics"]
    assert metrics["sim.run_trial_calls"]["value"] == 0
    assert metrics["cli.rows_written"]["value"] == size["trials"] * size["rounds"] * 2
    assert metrics["sim.node_rounds"]["value"] == size["trials"] * size["rounds"] * 2


def test_calibration_rescales_to_the_reference_speed():
    calibration = run.Calibration()
    assert calibration.sample() > 0
    reference = calibration.REFERENCE_S
    assert calibration.scale(reference, reference) == 1.0
    # A host twice as slow as the reference halves the rescaled time.
    assert calibration.scale(reference, 3 * reference) == 0.5


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "fine-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_workload_names_agree():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_same_seed_same_inputs(tmp_path):
    first = workloads.FineGrid(5, tmp_path / "a", workloads.FineGrid.smoke)
    again = workloads.FineGrid(5, tmp_path / "b", workloads.FineGrid.smoke)
    other = workloads.FineGrid(6, tmp_path / "c", workloads.FineGrid.smoke)
    assert first.config_bytes == again.config_bytes != other.config_bytes
    assert np.array_equal(first.points, other.points)
