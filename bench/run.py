"""peerlearn benchmark: three workloads timed end to end, and per module when traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload regression-cli --seed 1 --seconds 20 --trace 0

With ``--trace 0`` a run reports the end-to-end metrics ``run_s`` (median
time of one execution of the workload, set-up included), ``setup_s``
(median time to parse the config and build the scenario) and
``peak_mem_mb`` (tracemalloc peak of one execution, taken in its own
untimed pass). Both times are rescaled to a reference host speed by
``Calibration``; the wall-time medians go to standard error. With
``--trace 1`` it alternates untraced and traced executions and reports the
per-module metrics of ``spans.layer_metrics`` plus the tracing overhead.
Every execution's outputs are checked; an execution that raises, exits
nonzero or fails a check counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only if no execution failed. BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Before each timed execution, set-up alone is timed for at least this long
# (at least once), so that set-up samples span the same period as the
# executions.
SETUP_SECONDS = 0.2

WORKLOAD_NAMES = ("regression-cli", "bernoulli-bound", "fine-grid")


class Operations:
    """Counts executions attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, workload, execute):
        """One operation: ``execute()`` then the workload's checks, untimed.

        Returns the execution's wall time, or None if it failed.
        """
        self.attempted += 1
        try:
            started = time.perf_counter()
            out = execute()
            elapsed = time.perf_counter() - started
            workload.check(out)
        except Exception:  # an operation's failure is counted, not fatal
            self.failed += 1
            print(f"{workload.name}: operation {self.attempted} failed", file=sys.stderr)
            traceback.print_exc()
            return None
        return elapsed


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else float("nan")


def _peak_memory_mb(workload, ops: Operations) -> float:
    peaks = []

    def execute_under_tracemalloc():
        tracemalloc.start()
        try:
            out = workload.execute()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return out

    ops.run(workload, execute_under_tracemalloc)
    return peaks[0] / 1e6 if peaks else float("nan")


class Calibration:
    """A fixed job timed between operations, to correct for the host's speed.

    On a shared host the same work takes up to twice as long from one
    second or minute to the next, and CPU time follows wall time, so the
    slowdown is the processor's, not the scheduler's. The job is the
    benchmark's own code and does not change with peerlearn: an interpreter
    loop over a dict, then two passes over a 64 MiB array, about equal halves
    of its time. The workloads mix interpreter work with numpy passes over
    large arrays, and these two parts together track their slowdowns best
    of the jobs tried (see README.md). An operation's time is rescaled by
    ``REFERENCE_S`` over the job's mean time just before and just after it,
    which gives its time at the speed at which the job takes
    ``REFERENCE_S``. A change to peerlearn moves the rescaled time as much
    as the wall time.
    """

    # About the job's lowest time on the reference machine (Xeon, 2 CPUs,
    # Python 3.11.7, numpy 2.4.6, OpenBLAS on 1 thread).
    REFERENCE_S = 0.0190
    REPEATS = 3

    def __init__(self):
        import numpy as np

        self._array = np.ones(1 << 23)

    def _job(self) -> None:
        counts = {}
        for i in range(80_000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        for _ in range(2):
            self._array.sum()

    def sample(self) -> float:
        """Median time of ``REPEATS`` runs of the job."""
        times = []
        for _ in range(self.REPEATS):
            started = time.perf_counter()
            self._job()
            times.append(time.perf_counter() - started)
        return statistics.median(times)

    def scale(self, before: float, after: float) -> float:
        """Factor from wall time to time at the reference speed."""
        return self.REFERENCE_S / ((before + after) / 2)


def _setup_times(workload) -> list:
    times = []
    started = time.perf_counter()
    while not times or time.perf_counter() - started < SETUP_SECONDS:
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return times


def measure_end_to_end(workload, seconds: float, ops: Operations) -> dict:
    """The untraced run: memory pass (also the warm-up), then set-up and executions.

    Each batch of set-ups and each execution lies between two calibration
    samples; the metrics are medians of the rescaled times. The medians of
    the wall times go to standard error.
    """
    peak_mb = _peak_memory_mb(workload, ops)
    calibration = Calibration()
    setup_wall, run_wall, setup_times, run_times = [], [], [], []
    before = calibration.sample()
    started = time.perf_counter()
    while not run_wall or time.perf_counter() - started < seconds:
        setups = _setup_times(workload)
        between = calibration.sample()
        elapsed = ops.run(workload, workload.execute)
        after = calibration.sample()
        setup_wall += setups
        setup_times += [t * calibration.scale(before, between) for t in setups]
        run_wall.append(elapsed)
        if elapsed is not None:
            run_times.append(elapsed * calibration.scale(between, after))
        before = after
    print(f"{workload.name}: wall-time medians run_s={_median(run_wall):.6f} "
          f"setup_s={_median(setup_wall):.6f} over {len(run_wall)} executions",
          file=sys.stderr)
    return {
        "run_s": {"value": _median(run_times), "unit": "s"},
        "setup_s": {"value": _median(setup_times), "unit": "s"},
        "peak_mem_mb": {"value": peak_mb, "unit": "MB"},
    }


LAYER_UNITS = {
    "cli.rows_written": "count",
    "cli.bytes_written": "bytes",
    "sim.run_trial_calls": "count",
    "sim.node_rounds": "count",
    "sim.node_rounds_per_s": "1/s",
    "models.parameter_set_peak_mb": "MB",
    "models.separation_table_peak_mb": "MB",
    "models.sample_calls": "count",
    "graph.validate_weight_matrix_calls": "count",
    "graph.spectral_gap_calls": "count",
}


def measure_layers(workload, seconds: float, ops: Operations, trace_path: Path) -> dict:
    """The traced run: alternate untraced and traced executions after a warm-up."""
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    ops.run(workload, workload.execute)
    plain, traced, layers = [], [], []

    def traced_execution():
        tracer.install()
        try:
            return workload.execute()
        finally:
            tracer.uninstall()

    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        # Every other pair runs the traced execution first, so that neither
        # side always follows the other.
        for is_traced in (False, True) if len(traced) % 2 == 0 else (True, False):
            if is_traced:
                first = len(tracer.spans)
                traced.append(ops.run(workload, traced_execution))
                layers.append(layer_metrics(tracer, first))
            else:
                plain.append(ops.run(workload, workload.execute))
    trace_path.write_text(json.dumps({"workload": workload.name, "spans": tracer.records()}))

    metrics = {name: _median([m[name] for m in layers]) for name in layers[0]}
    metrics["sim.node_rounds"] = workload.node_rounds
    metrics["sim.node_rounds_per_s"] = workload.node_rounds / metrics["sim.engine_s"]
    metrics["cli.rows_written"], metrics["cli.bytes_written"] = _written(workload)
    metrics["trace.overhead_s"] = _median(traced) - _median(plain)
    return {name: {"value": value, "unit": LAYER_UNITS.get(name, "s")}
            for name, value in metrics.items()}


def _written(workload) -> tuple[int, int]:
    """Rows and bytes of the metrics file the workload's last execution wrote."""
    if workload.out_dir is None:
        return 0, 0
    data = (workload.out_dir / "metrics.csv").read_bytes()
    return data.count(b"\n") - 1, len(data)


def run(workload_name: str, seed: int, seconds: float, trace: bool, size=None) -> dict:
    import workloads

    workdir = OUT / f"{workload_name}-seed{seed}-pid{os.getpid()}"
    workload = workloads.WORKLOADS[workload_name](seed, workdir, size)
    ops = Operations()
    try:
        if trace:
            metrics = measure_layers(workload, seconds, ops,
                                     OUT / f"trace-{workload_name}-seed{seed}.json")
        else:
            metrics = measure_end_to_end(workload, seconds, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"correct": ops.failed == 0, "attempted": ops.attempted,
            "failed": ops.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "peerlearn" / "__init__.py").is_file():
        print(f"error: peerlearn sources not found under {SRC}", file=sys.stderr)
        return 2
    # Before numpy loads: BLAS on one thread, for steady timings.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
