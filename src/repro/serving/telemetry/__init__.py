"""Opt-in, deterministic observability for the serving simulator.

Everything here runs on the engine's *simulated* clock — no wall time, no
randomness (DET001-clean) — so traces are as reproducible as the reports:
the same (backend, workload, config) triple always yields byte-identical
trace and metrics files, and macro-stepped decode emits the same stream
as simulating every iteration.

Modules
-------
``tracer``    :class:`Tracer` — structured lifecycle event stream
              (request phases, per-iteration device compute, KV moves).
``metrics``   :class:`MetricsRegistry` — fixed sim-interval gauge sampling
              (batch size, queue depth, free blocks, KV utilization).
``export``    :func:`chrome_trace` / :func:`validate_chrome_trace` —
              Perfetto-loadable Chrome trace-event JSON.
``analyze``   :func:`analyze_trace` / :func:`load_trace_file` — queueing
              breakdown, per-device busy/straggler attribution, KV
              pressure; reconciles exactly with the run's JSON report.

Usage::

    engine = ServingEngine(spec, backend, config=config)
    tracer, metrics = Tracer(), MetricsRegistry(interval=0.5)
    engine.enable_telemetry(tracer=tracer, metrics=metrics)
    report = engine.run(requests)
    tracer.write_jsonl("run.jsonl")
    json.dump(chrome_trace(tracer, metrics), open("run.trace.json", "w"))

or from the CLI: ``milo serve ... --trace-events run.trace.json
--metrics-out run.metrics.jsonl`` then ``milo analyze run.trace.json``.

Telemetry is off by default and every hook in the hot loops is guarded by
a ``tracer is not None`` / ``metrics is not None`` check (enforced by lint
rule OBS001), so the disabled path stays byte-identical and allocation
free.
"""

from .analyze import analyze_trace, load_metrics_file, load_trace_file
from .export import chrome_trace, validate_chrome_trace
from .metrics import METRICS_SCHEMA, MetricsRegistry
from .tracer import TRACE_SCHEMA, Tracer

__all__ = [
    "METRICS_SCHEMA",
    "TRACE_SCHEMA",
    "MetricsRegistry",
    "Tracer",
    "analyze_trace",
    "chrome_trace",
    "load_metrics_file",
    "load_trace_file",
    "validate_chrome_trace",
]
