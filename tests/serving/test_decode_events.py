"""Event-driven decode against the per-iteration loop it replaced.

The engine loop tracks decoding sequences through the scheduler's
``DecodeTracker``: per-device decode counts, the prefilling sequences walked
in batch order, and finish / KV block-boundary heaps over one shared
iteration counter from which ``generated_tokens`` is derived.  The
reference engine (``engine_reference``) keeps a verbatim copy of the loop
that counted, advanced and capacity-checked every running sequence on every
iteration, priced by the per-mode cost functions of ``cost_reference``
rather than the engine's ``CostModel``.  Over seeded random
configurations — on-demand and reserve allocation, a custom victim policy
that reads ``generated_tokens``, recompute and swap preemption, chunked
prefill, prefix partial-tail copy-on-write, 1-4 devices, overlap with
re-placement, and disaggregation with handoff-fallback preemption — both
must produce byte-identical reports, trace streams and metrics streams,
with telemetry and ``debug_checks`` off and on.
"""

from __future__ import annotations

import dataclasses
import functools
import json

import pytest

from repro.runtime.backends import MiLoBackend
from repro.serving import (
    BlockManager,
    ContinuousBatchingScheduler,
    EngineConfig,
    KVCacheExhausted,
    MetricsRegistry,
    OnDemandPolicy,
    Request,
    SchedulerConfig,
    SchedulingPolicy,
    ServingEngine,
    Tracer,
    poisson_workload,
)
from repro.serving.request import RequestState
from repro.serving.scheduler import DecodeTracker

from engine_reference import ReferenceEngine
from test_capacity_walk import draw_case

#: Cluster layouts the seeds cycle through: colocated on 1-4 devices (two
#: under the overlap cost model, one with drift re-placement) and both
#: disaggregated splits.
LAYOUTS = (
    dict(devices=1),
    dict(devices=2),
    dict(devices=3, overlap=True, replacement_threshold=0.02),
    dict(devices=4, overlap=True),
    dict(devices=3, prefill_devices=1, decode_devices=2),
    dict(devices=4, prefill_devices=1, decode_devices=3),
)
KV_POLICIES = ("ondemand", "reserve")
#: Seeds per (layout, KV policy) cycle; the custom victim policy alternates
#: cycle by cycle.
CYCLE = len(LAYOUTS) * len(KV_POLICIES)
FAST_SEEDS = range(2 * CYCLE)
SLOW_SEEDS = range(2 * CYCLE, 2 * CYCLE + 160)


class FewestTokensVictim(SchedulingPolicy):
    """Preempts the candidate that has generated the fewest tokens."""

    name = "fewest-tokens-victim"

    def __init__(self) -> None:
        self.choices = 0

    def select_victim(self, candidates, pool=None):
        if candidates:
            self.choices += 1
        return max(
            candidates,
            key=lambda seq: (-seq.generated_tokens, self.queue_key(seq)),
            default=None,
        )


def custom_policy(seed):
    return seed // CYCLE % 2 == 1


def run_draw(engine_cls, seed, telemetry):
    """Serialized report, trace and metrics streams, and event counts."""
    config, requests, pool_blocks = draw_case(seed, LAYOUTS, KV_POLICIES)
    config = dataclasses.replace(config, debug_checks=telemetry)
    engine = engine_cls(MiLoBackend(), "mixtral-8x7b", config)
    for pool in getattr(engine.block_manager, "pools", [engine.block_manager]):
        pool.num_blocks = pool_blocks
    policy = FewestTokensVictim() if custom_policy(seed) else None
    walk_preemptions = 0
    make_scheduler = engine.make_scheduler

    def counting_scheduler():
        scheduler = make_scheduler()
        if policy is not None:
            scheduler.policy = policy
        ensure_capacity = scheduler.ensure_capacity

        def counted():
            nonlocal walk_preemptions
            preempted = ensure_capacity()
            walk_preemptions += len(preempted)
            return preempted

        scheduler.ensure_capacity = counted
        return scheduler

    engine.make_scheduler = counting_scheduler
    tracer = metrics = None
    if telemetry:
        tracer = Tracer()
        metrics = MetricsRegistry(interval=0.1)
        engine.enable_telemetry(tracer=tracer, metrics=metrics)
    report = engine.run(requests)
    return (
        json.dumps(report.to_dict(), sort_keys=True),
        tracer.to_jsonl() if tracer is not None else None,
        metrics.to_jsonl() if metrics is not None else None,
        dict(
            report=report,
            handoff_fallbacks=report.preemptions - walk_preemptions,
            victim_choices=policy.choices if policy is not None else 0,
        ),
    )


@functools.lru_cache(maxsize=None)
def compare(seed, telemetry):
    new = run_draw(ServingEngine, seed, telemetry)
    reference = run_draw(ReferenceEngine, seed, telemetry)
    return new[:3] == reference[:3], new[3]


@pytest.mark.parametrize("telemetry", [False, True], ids=["bare", "telemetry"])
@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_event_driven_decode_matches_walk(seed, telemetry):
    identical, _ = compare(seed, telemetry)
    assert identical


@pytest.mark.slow
@pytest.mark.parametrize("telemetry", [False, True], ids=["bare", "telemetry"])
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_event_driven_decode_matches_walk_sweep(seed, telemetry):
    identical, _ = compare(seed, telemetry)
    assert identical


def test_fast_draws_cover_every_decode_event():
    """The fast seeds reach every membership change the tracker handles."""
    stats = [compare(seed, False)[1] for seed in FAST_SEEDS]
    reports = [s["report"] for s in stats]
    migrations = [r.migration or {} for r in reports]
    assert any(r.preemptions and r.kv_policy == "ondemand" for r in reports)
    assert any(m.get("swaps") for m in migrations)
    assert any(m.get("handoffs") for m in migrations)
    assert any(m.get("rebalances") for m in migrations)
    assert any((r.overlap or {}).get("replacements") for r in reports)
    assert any(r.prefix_cow_copies for r in reports)
    assert any(s["handoff_fallbacks"] for s in stats)
    assert any(s["victim_choices"] for s in stats)


# ---------------------------------------------------------------------------
# debug_checks audit of the event state
# ---------------------------------------------------------------------------


def decoding_scheduler():
    """An on-demand scheduler whose two sequences just entered decode."""
    pool = BlockManager(num_blocks=16, block_size=4)
    scheduler = ContinuousBatchingScheduler(
        pool, SchedulerConfig(), allocation=OnDemandPolicy(pool)
    )
    scheduler.debug_checks = True
    seqs = [scheduler.add_request(Request(i, 0.0, 5, 8)) for i in range(2)]
    scheduler.admit(0.0)
    scheduler.ensure_capacity()
    scheduler.decode.step(1, 0.1, None)  # prefill completes: both decode
    assert scheduler.ensure_capacity() == []
    return scheduler, seqs


def test_derived_generated_tokens_and_events():
    scheduler, (seq, _) = decoding_scheduler()
    tracker = scheduler.decode
    assert tracker.count == 2 and tracker.walked == []
    assert seq.generated_tokens == 1 and seq.finish_iteration == 8
    tracker.step(5, 0.5, None)
    assert seq.generated_tokens == 5  # derived, never written
    with pytest.raises(RuntimeError, match="tracker"):
        seq.advance(0.6)
    assert tracker.step(8, 0.8, None)
    assert seq.state is RequestState.FINISHED
    assert seq.generated_tokens == 8 and seq.decode_tracker is None
    assert len(scheduler.evict_finished()) == 2 and tracker.count == 0


@pytest.mark.parametrize(
    "corrupt, error, match",
    [
        (lambda tracker, seq: setattr(tracker, "count", tracker.count + 1),
         RuntimeError, "decode counts"),
        (lambda tracker, seq: tracker.home.__setitem__(0, 3), RuntimeError, "decode counts"),
        (lambda tracker, seq: tracker.walked.append(seq), RuntimeError, "walked"),
        (lambda tracker, seq: setattr(seq, "finish_iteration", 9), RuntimeError, "finishes"),
        (lambda tracker, seq: setattr(seq, "kv_writable_extent", 12),
         KVCacheExhausted, "writable extent"),
    ],
    ids=["count", "home", "walked", "finish", "boundary"],
)
def test_debug_checks_catch_corrupted_event_state(corrupt, error, match):
    scheduler, (seq, _) = decoding_scheduler()
    corrupt(scheduler.decode, seq)
    with pytest.raises(error, match=match):
        scheduler.ensure_capacity()


class Miscounting(DecodeTracker):
    """Counts every sequence that enters decode twice."""

    __slots__ = ()

    def start(self, seq):
        super().start(seq)
        self.count += 1


@pytest.mark.parametrize("kv_policy", ["reserve", "ondemand"])
def test_engine_audits_event_state_at_boundaries(kv_policy):
    engine = ServingEngine(
        MiLoBackend(), "mixtral-8x7b", EngineConfig(kv_policy=kv_policy)
    )
    make_scheduler = engine.make_scheduler

    def miscounting():
        scheduler = make_scheduler()
        scheduler.decode.__class__ = Miscounting
        return scheduler

    engine.make_scheduler = miscounting
    workload = poisson_workload(num_requests=8, qps=20.0, seed=3)
    with pytest.raises(RuntimeError, match="decode counts"):
        engine.run(workload)
