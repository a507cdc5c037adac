"""Telemetry (:mod:`repro.serving.telemetry`) determinism and reconciliation.

Four properties are pinned here, mirroring the guarantees the package
docstring makes:

1. **Reference stream equivalence** — the engine loop, whose macro-stepped
   decode emits the events of the iterations it compresses, produces
   byte-for-byte the same trace and metrics streams as the reference loop
   that simulates every iteration (``engine_reference``), across every
   engine mode (chunked prefill, prefix sharing, cluster, overlap, dynamic
   re-placement, reject admission, on-demand growth).
2. **Disabled-path byte identity** — attaching no tracer/registry leaves
   the report byte-identical to a run with telemetry attached: hooks
   observe, never perturb.
3. **Chrome export validity** — :func:`chrome_trace` output passes the
   trace-event schema check (the same one CI runs on the uploaded
   artifact) and carries the raw exact-float stream round-trippable by
   :func:`load_trace_file`.
4. **Report reconciliation** — ``milo analyze`` totals match the run's
   JSON report float-for-float (latency summaries, sim time) or to within
   1e-9 (straggler ratio, accumulated in a different order by design).
"""

from __future__ import annotations

import json

import pytest

from repro.runtime.backends import MiLoBackend
from repro.serving import EngineConfig, ServingEngine, poisson_workload
from repro.serving.telemetry import (
    MetricsRegistry,
    Tracer,
    analyze_trace,
    chrome_trace,
    load_metrics_file,
    load_trace_file,
    validate_chrome_trace,
)

from engine_reference import ReferenceEngine

WORKLOADS = {
    "mixed": dict(num_requests=60, qps=30.0, seed=31, mean_new_tokens=48),
    "prefix_shared": dict(
        num_requests=60, qps=30.0, seed=23, mean_new_tokens=48,
        shared_prefix_tokens=32, prefix_groups=3,
    ),
    "single_token": dict(
        num_requests=40, qps=20.0, seed=24, mean_new_tokens=1, length_jitter=0.0,
    ),
}

CONFIGS = {
    "single": dict(),
    "chunked": dict(prefill_chunk=32),
    "cluster": dict(devices=4),
    "overlap": dict(devices=4, overlap=True),
    "replace": dict(devices=2, overlap=True, replacement_threshold=0.05),
    "reject": dict(admission="reject", max_batch_size=8),
}

#: On-demand growth under KV pressure: exercises grow/cow/preempt events.
ONDEMAND_CONFIG = dict(kv_policy="ondemand", reserve_gb=20.0, max_batch_size=256)
ONDEMAND_WORKLOAD = dict(
    num_requests=120, qps=40.0, seed=25,
    mean_prompt_tokens=512, mean_new_tokens=256,
)


def run_traced(
    config_kwargs, workload_kwargs, *, interval=0.25, engine_cls=ServingEngine, **overrides
):
    config = EngineConfig(**{**config_kwargs, **overrides})
    engine = engine_cls(MiLoBackend(), "mixtral-8x7b", config)
    tracer = Tracer()
    metrics = MetricsRegistry(interval=interval)
    engine.enable_telemetry(tracer=tracer, metrics=metrics)
    report = engine.run(poisson_workload(**workload_kwargs))
    return report, tracer, metrics


# ---------------------------------------------------------------------------
# 1. engine loop vs the reference loop: byte-identical streams
# ---------------------------------------------------------------------------


def assert_streams_match_reference(config_kwargs, workload_kwargs):
    engine = run_traced(config_kwargs, workload_kwargs)
    reference = run_traced(config_kwargs, workload_kwargs, engine_cls=ReferenceEngine)
    assert engine[1].to_jsonl() == reference[1].to_jsonl()
    assert engine[2].to_jsonl() == reference[2].to_jsonl()
    assert json.dumps(engine[0].to_dict(), sort_keys=True) == json.dumps(
        reference[0].to_dict(), sort_keys=True
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_streams_match_reference(workload, config):
    assert_streams_match_reference(CONFIGS[config], WORKLOADS[workload])


def test_ondemand_streams_match_reference():
    """Growth workloads: grow/cow/preempt events between macro-steps."""
    assert_streams_match_reference(ONDEMAND_CONFIG, ONDEMAND_WORKLOAD)


# ---------------------------------------------------------------------------
# 2. telemetry never perturbs the simulation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_disabled_path_report_byte_identical(config):
    plain = ServingEngine(
        MiLoBackend(), "mixtral-8x7b", EngineConfig(**CONFIGS[config])
    )
    bare = plain.run(poisson_workload(**WORKLOADS["mixed"]))
    traced, _, _ = run_traced(CONFIGS[config], WORKLOADS["mixed"])
    assert json.dumps(bare.to_dict(), sort_keys=True) == json.dumps(
        traced.to_dict(), sort_keys=True
    )


# ---------------------------------------------------------------------------
# event-stream semantics
# ---------------------------------------------------------------------------


def test_lifecycle_event_counts_match_report():
    report, tracer, _ = run_traced(CONFIGS["overlap"], WORKLOADS["mixed"])
    kinds = [e["kind"] for e in tracer.events]
    assert kinds.count("submit") == report.num_requests
    assert kinds.count("finish") == report.completed
    assert kinds.count("reject") == report.rejected
    assert kinds.count("iter") == report.iterations
    assert kinds.count("preempt") == report.preemptions


def test_ondemand_emits_preempt_grow_and_free_events():
    report, tracer, _ = run_traced(ONDEMAND_CONFIG, ONDEMAND_WORKLOAD)
    assert report.preemptions > 0  # the scenario must actually preempt
    kinds = [e["kind"] for e in tracer.events]
    assert kinds.count("preempt") == report.preemptions
    ops = [e["op"] for e in tracer.events if e["kind"] == "kv"]
    assert "grow" in ops and "free" in ops
    recomputed = sum(
        e["recomputed"] for e in tracer.events if e["kind"] == "preempt"
    )
    assert recomputed == report.recomputed_tokens


def test_prefix_sharing_emits_share_events_with_hits():
    report, tracer, _ = run_traced(CONFIGS["single"], WORKLOADS["prefix_shared"])
    shares = [
        e for e in tracer.events if e["kind"] == "kv" and e["op"] == "share"
    ]
    # The first request of each group populates the index (0 hits); later
    # arrivals map resident prefix blocks.
    assert shares and any(e["hit_blocks"] > 0 for e in shares)
    assert sum(e["hit_blocks"] for e in shares) == report.prefix_hit_blocks


def test_event_timestamps_monotonic_per_iteration():
    _, tracer, _ = run_traced(CONFIGS["overlap"], WORKLOADS["mixed"])
    iters = [e for e in tracer.events if e["kind"] == "iter"]
    assert [e["i"] for e in iters] == list(range(len(iters)))
    for prev, cur in zip(iters, iters[1:]):
        assert prev["t1"] <= cur["t0"]  # idle gaps allowed, overlap not
        assert cur["t0"] <= cur["t1"]


def test_metrics_sampling_grid_aligned():
    _, _, metrics = run_traced(CONFIGS["single"], WORKLOADS["mixed"], interval=0.25)
    rows = metrics.samples
    assert rows, "a multi-second sim must produce samples at 0.25s interval"
    times = [row["t"] for row in rows]
    assert times == sorted(times)
    for prev, cur in zip(rows, rows[1:]):
        # next sample falls past the grid line following the previous one.
        assert cur["t"] >= 0.25 * (int(prev["t"] / 0.25) + 1)
    for row in rows:
        assert 0.0 <= row["kv_utilization"] <= 1.0
        assert row["used_blocks"] + row["free_blocks"] > 0


def test_metrics_interval_must_be_positive():
    with pytest.raises(ValueError, match="interval must be positive"):
        MetricsRegistry(interval=0.0)


# ---------------------------------------------------------------------------
# 3. exports
# ---------------------------------------------------------------------------


def test_chrome_trace_validates_and_has_device_tracks():
    report, tracer, metrics = run_traced(CONFIGS["overlap"], WORKLOADS["mixed"])
    trace = chrome_trace(tracer, metrics)
    validate_chrome_trace(trace)  # must not raise
    events = trace["traceEvents"]
    slice_tids = {e["tid"] for e in events if e["ph"] == "X"}
    assert slice_tids == {1, 2, 3, 4}  # one track per device
    # async request spans open and close in pairs.
    begins = sum(1 for e in events if e["ph"] == "b")
    ends = sum(1 for e in events if e["ph"] == "e")
    assert begins == ends > 0
    counters = {e["name"] for e in events if e["ph"] == "C"}
    assert {"batch", "waiting", "free_blocks", "kv_utilization"} <= counters
    # the exact-float raw stream rides along for lossless re-analysis.
    assert trace["milo"]["events"] == tracer.events


def test_validate_chrome_trace_rejects_malformed():
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": []})
    with pytest.raises(ValueError):
        validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "name": "n", "ts": -1.0, "dur": 1.0}]}
        )


def test_jsonl_round_trip(tmp_path):
    _, tracer, metrics = run_traced(CONFIGS["cluster"], WORKLOADS["mixed"])
    trace_path = tmp_path / "run.jsonl"
    metrics_path = tmp_path / "run.metrics.jsonl"
    tracer.write_jsonl(str(trace_path))
    metrics.write_jsonl(str(metrics_path))
    events, samples, meta = load_trace_file(str(trace_path))
    assert events == tracer.events
    assert samples == []
    assert meta == tracer.meta
    assert load_metrics_file(str(metrics_path)) == metrics.samples


def test_chrome_trace_file_round_trip(tmp_path):
    _, tracer, metrics = run_traced(CONFIGS["overlap"], WORKLOADS["mixed"])
    path = tmp_path / "run.trace.json"
    path.write_text(json.dumps(chrome_trace(tracer, metrics)))
    events, samples, meta = load_trace_file(str(path))
    assert events == tracer.events
    assert samples == metrics.samples
    assert meta == tracer.meta


# ---------------------------------------------------------------------------
# 4. milo analyze reconciles with the report
# ---------------------------------------------------------------------------


def test_analyze_reconciles_with_report_exactly():
    report, tracer, metrics = run_traced(CONFIGS["overlap"], WORKLOADS["mixed"])
    res = analyze_trace(tracer.events, metrics.samples, tracer.meta)
    rep = report.to_dict()
    # Latency summaries accumulate in finish order == the engine's order, so
    # the floats are identical, not merely close.
    assert res["ttft_s"] == rep["ttft_s"]
    assert res["tpot_s"] == rep["tpot_s"]
    assert res["e2e_s"] == rep["e2e_s"]
    assert res["sim_time_s"] == rep["sim_time_s"]
    assert res["iterations"] == rep["iterations"]
    assert res["requests"]["finished"] == rep["completed"]
    assert res["requests"]["submitted"] == rep["num_requests"]
    # Straggler totals replay the same memoized floats in the same order.
    assert res["straggler"]["ratio"] == pytest.approx(
        rep["cluster"]["straggler_ratio"], abs=1e-9
    )
    assert res["overlap"]["hidden_s"] == pytest.approx(
        rep["overlap"]["hidden_comm_s"], abs=1e-9
    )
    assert len(res["devices"]) == 4
    assert res["kv"]["peak_utilization"] <= 1.0


def test_analyze_reconciles_preemption_run():
    report, tracer, metrics = run_traced(ONDEMAND_CONFIG, ONDEMAND_WORKLOAD)
    res = analyze_trace(tracer.events, metrics.samples, tracer.meta)
    rep = report.to_dict()
    assert res["ttft_s"] == rep["ttft_s"]
    assert res["e2e_s"] == rep["e2e_s"]
    assert res["requests"]["preemptions"] == rep["preemptions"]
    assert res["kv"]["grow_blocks"] > 0
    # every phase share is a fraction and they partition the total.
    shares = [res["phases"][p]["share"] for p in ("queued", "prefill", "decode")]
    assert all(0.0 <= s <= 1.0 for s in shares)
    assert sum(shares) == pytest.approx(1.0)


def test_analyze_single_token_requests_report_zero_tpot():
    report, tracer, _ = run_traced(CONFIGS["single"], WORKLOADS["single_token"])
    res = analyze_trace(tracer.events)
    assert res["tpot_s"] == report.to_dict()["tpot_s"]
    assert res["tpot_s"]["max"] == 0.0


# ---------------------------------------------------------------------------
# 5. milo analyze edge traces (PR 10)
# ---------------------------------------------------------------------------


DISAGG_CONFIG = dict(
    devices=3, prefill_devices=1, decode_devices=2,
    kv_policy="ondemand", block_size=8, max_batch_size=1000,
)
DISAGG_WORKLOAD = dict(num_requests=35, qps=60.0, seed=44, mean_new_tokens=96)


def run_traced_small_pools(config_kwargs, workload_kwargs, *, num_blocks=40, **overrides):
    config = EngineConfig(**{**config_kwargs, **overrides})
    engine = ServingEngine(MiLoBackend(), "mixtral-8x7b", config)
    for pool in engine.block_manager.pools:
        pool.num_blocks = num_blocks
    tracer = Tracer()
    engine.enable_telemetry(tracer=tracer)
    report = engine.run(poisson_workload(**workload_kwargs))
    return report, tracer


def test_analyze_empty_trace_is_all_zero():
    """An empty event stream (a run that served nothing) summarizes cleanly
    instead of crashing: zero counters, null latency summaries, no migration
    section."""
    res = analyze_trace([])
    assert res["sim_time_s"] == 0.0
    assert res["iterations"] == 0
    assert res["requests"] == {
        "submitted": 0, "finished": 0, "rejected": 0,
        "preempted_requests": 0, "preemptions": 0, "stranded": 0,
    }
    for section in ("ttft_s", "tpot_s", "e2e_s"):
        assert res[section] == {"p50": None, "p95": None, "mean": None, "max": None}
    for phase in ("queued", "prefill", "decode"):
        assert res["phases"][phase]["total_s"] == 0
        assert res["phases"][phase]["share"] == 0.0
    assert "migration" not in res
    assert res["kv"] == {"min_free_blocks": None, "cow_copies": 0, "grow_blocks": 0}


def test_analyze_only_rejected_trace():
    """A trace where every request was shed at admission: finished stays 0,
    latency summaries stay null, rejected counts every shed."""
    from repro.serving.request import Request, Sequence

    tracer = Tracer()
    for rid in range(5):
        request = Request(
            rid, arrival_time=rid * 0.1, prompt_tokens=16, max_new_tokens=8
        )
        tracer.submit(request)
        tracer.reject(Sequence(request), rid * 0.1)
    res = analyze_trace(tracer.events)
    assert res["requests"]["submitted"] == 5
    assert res["requests"]["rejected"] == 5
    assert res["requests"]["finished"] == 0
    assert res["ttft_s"]["p50"] is None
    assert res["e2e_s"]["mean"] is None
    # The Chrome export of the same stream validates too (instant events
    # only, no spans).
    validate_chrome_trace(chrome_trace(tracer))


def test_analyze_handoff_and_migration_spans_float_for_float():
    """The migration section reproduces the engine's stall accounting
    *exactly* — summed from the per-event ``s`` floats, not recomputed."""
    report, tracer = run_traced_small_pools(DISAGG_CONFIG, DISAGG_WORKLOAD)
    res = analyze_trace(tracer.events, meta=tracer.meta)
    migration = report.to_dict()["migration"]
    handoffs = [e for e in tracer.events if e["kind"] == "handoff"]
    rebalances = [e for e in tracer.events if e["kind"] == "migrate"]
    assert handoffs, "workload must actually exercise handoffs"
    assert res["migration"]["handoffs"] == migration["handoffs"] == len(handoffs)
    assert res["migration"]["handoff_s"] == migration["handoff_s"]
    assert res["migration"]["handoff_s"] == sum(e["s"] for e in handoffs)
    assert res["migration"]["handoff_blocks"] == sum(e["blocks"] for e in handoffs)
    assert res["migration"]["rebalances"] == migration["rebalances"] == len(rebalances)
    assert res["migration"]["rebalance_s"] == migration["rebalance_s"]
    assert res["migration"]["rebalance_s"] == sum(e["s"] for e in rebalances)
    # Every span is well-formed: t1 - t0 equals the priced stall exactly as
    # the engine computed it (t1 = t0 + s by construction).
    for event in handoffs + rebalances:
        assert event["t1"] == event["t0"] + event["s"]
        assert event["blocks"] > 0


def test_analyze_swap_spans_float_for_float():
    report, tracer = run_traced_small_pools(
        DISAGG_CONFIG, DISAGG_WORKLOAD, preempt_mode="swap"
    )
    res = analyze_trace(tracer.events, meta=tracer.meta)
    migration = report.to_dict()["migration"]
    outs = [e for e in tracer.events if e["kind"] == "swap" and e["op"] == "out"]
    ins = [e for e in tracer.events if e["kind"] == "swap" and e["op"] == "in"]
    assert outs, "workload must actually exercise swap preemption"
    assert res["migration"]["swaps"] == migration["swaps"] == len(outs)
    assert res["migration"]["swapped_blocks"] == sum(e["blocks"] for e in outs)
    assert res["migration"]["swap_in_s"] == migration["swap_in_s"]
    assert res["migration"]["swap_in_s"] == sum(e["s"] for e in ins)
    # Chrome export of a swap/handoff-bearing stream stays schema-valid.
    validate_chrome_trace(chrome_trace(tracer))


def test_analyze_colocated_trace_has_no_migration_section():
    """Colocated recompute traces predate PR 10 conceptually: analyze must
    not invent a migration section for them."""
    _, tracer, _ = run_traced(CONFIGS["cluster"], WORKLOADS["mixed"])
    res = analyze_trace(tracer.events, meta=tracer.meta)
    assert "migration" not in res
