"""Spans around the calls the benchmark's workloads make into peerlearn's modules.

``Tracer.install`` replaces a set of public functions and methods of the
``cli``, ``sim``, ``models`` and ``graph`` modules with wrappers that record
one span per call: name, start, end and the enclosing span. ``uninstall``
puts the originals back, so untraced executions run the program unwrapped.
Spans are kept in memory; the caller writes them out when the run ends.

The workloads run on one thread (the discrete engine with ``workers=1``),
so one stack of open spans is enough.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

# Spans whose allocation peak is recorded with tracemalloc. Only these are
# traced for memory, so the rest of a traced execution runs at full speed.
PEAK_SPANS = {"models.ParameterSet", "models.separation_table"}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    peak_bytes: int | None = None
    children: list = field(default_factory=list)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _targets():
    """(span name, owner, attribute) for every call the tracer wraps."""
    from peerlearn import cli, graph, models, sim

    targets = [
        ("cli.parse_config", cli, "parse_config"),
        ("cli.build_scenario", cli, "build_scenario"),
        ("cli.cmd_run", cli, "cmd_run"),
        ("cli.cmd_bound", cli, "cmd_bound"),
        ("sim.run_experiment", sim, "run_experiment"),
        ("sim.run_trial", sim, "run_trial"),
        ("models.separation_table", models, "separation_table"),
        ("graph.validate_weight_matrix", graph, "validate_weight_matrix"),
        ("graph.spectral_gap", graph, "spectral_gap"),
        ("models.ParameterSet", models.ParameterSet, "__post_init__"),
    ]
    for cls in (models.BernoulliContextModel, models.LinearGaussianModel):
        for method in ("sample_instances", "sample_labels", "log_likelihood_matrix"):
            targets.append((f"models.{method}", cls, method))
    return targets


class Tracer:
    """Records spans around calls into peerlearn while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "peerlearn" or name.startswith("peerlearn.")]
        for name, owner, attr in _targets():
            if isinstance(owner, type):
                # A method: patch the class that defines it.
                if attr in vars(owner):
                    original = vars(owner)[attr]
                    self._patch(owner, attr, original, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            # Modules that imported the function by name hold their own reference.
            for module in modules:
                if vars(module).get(attr) is original:
                    self._patch(module, attr, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, original):
        track_peak = name in PEAK_SPANS

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = Span(name=name, start=0.0, parent=parent)
            self.spans.append(span)
            if parent is not None:
                self.spans[parent].children.append(index)
            self._stack.append(index)
            tracing_memory = track_peak and not tracemalloc.is_tracing()
            if tracing_memory:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if tracing_memory:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()

        return wrapper

    def self_time(self, index: int) -> float:
        """Duration minus the time covered by the span's direct children."""
        span = self.spans[index]
        return span.duration - sum(self.spans[c].duration for c in span.children)

    def layer_self_time(self, index: int) -> float:
        """Time inside the span spent in its own layer's code.

        Children of the same layer count towards it, less the time their
        own calls into other layers take.
        """
        span = self.spans[index]
        total = span.duration
        for c in span.children:
            child = self.spans[c]
            total -= child.duration
            if child.layer == span.layer:
                total += self.layer_self_time(c)
        return total

    def records(self) -> list[dict]:
        """Spans as plain records, for writing out."""
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "peak_bytes": s.peak_bytes}
            for s in self.spans
        ]


def layer_metrics(tracer: Tracer, first: int = 0) -> dict:
    """Per-layer totals over the spans recorded from index ``first`` on."""
    indices = range(first, len(tracer.spans))

    def named(name):
        return [i for i in indices if tracer.spans[i].name == name]

    def total(*names):
        return sum(tracer.spans[i].duration for n in names for i in named(n))

    def peak_mb(name):
        peaks = [tracer.spans[i].peak_bytes or 0 for i in named(name)]
        return max(peaks, default=0) / 1e6

    return {
        "cli.parse_config_s": total("cli.parse_config"),
        "cli.build_scenario_s": total("cli.build_scenario"),
        "cli.write_s": sum(tracer.self_time(i) for i in named("cli.cmd_run")),
        "cli.bound_s": total("cli.cmd_bound"),
        "sim.run_experiment_s": total("sim.run_experiment"),
        "sim.engine_s": sum(tracer.layer_self_time(i) for i in named("sim.run_experiment")),
        "sim.run_trial_calls": len(named("sim.run_trial")),
        "models.parameter_set_s": total("models.ParameterSet"),
        "models.parameter_set_peak_mb": peak_mb("models.ParameterSet"),
        "models.separation_table_s": total("models.separation_table"),
        "models.separation_table_peak_mb": peak_mb("models.separation_table"),
        "models.sample_s": total("models.sample_instances", "models.sample_labels"),
        "models.sample_calls": len(named("models.sample_instances"))
        + len(named("models.sample_labels")),
        "models.log_likelihood_matrix_s": total("models.log_likelihood_matrix"),
        "graph.validate_weight_matrix_calls": len(named("graph.validate_weight_matrix")),
        "graph.spectral_gap_s": total("graph.spectral_gap"),
        "graph.spectral_gap_calls": len(named("graph.spectral_gap")),
    }
