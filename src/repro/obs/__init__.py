"""Unified observability layer: metrics registry + structured tracing.

``repro.obs`` gives every run the same two observation surfaces:

* :mod:`repro.obs.metrics` — a typed catalog every subsystem registers its
  counters/gauges/histograms into, with on-demand collection from the
  existing ``SimStats``/``RunResult``/``CompileResult`` objects;
* :mod:`repro.obs.tracing` — span-based wall-clock tracing of the
  compile → lower → simulate pipeline with per-epoch machine-time events
  and a JSON-lines timeline exporter (``repro trace``).

Speed is measured outside the program, by the repository benchmark
(``bench/``).

Everything here is disabled by default and purely observational: with no
tracer installed and no collection requested, simulated cycle counts are
bit-identical and the hot path is untouched.  See docs/observability.md.
"""

from .metrics import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    MetricSpec,
    MetricsRegistry,
    default_registry,
    diff_snapshots,
    format_snapshot,
    load_all,
    register,
)
from .tracing import (
    Tracer,
    current_tracer,
    disable_tracing,
    enable_tracing,
    read_jsonl,
    span,
    summarize_records,
    trace_scope,
)

__all__ = [
    "COUNTER",
    "GAUGE",
    "HISTOGRAM",
    "MetricSpec",
    "MetricsRegistry",
    "default_registry",
    "diff_snapshots",
    "format_snapshot",
    "load_all",
    "register",
    "Tracer",
    "current_tracer",
    "disable_tracing",
    "enable_tracing",
    "read_jsonl",
    "span",
    "summarize_records",
    "trace_scope",
]
