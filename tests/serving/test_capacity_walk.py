"""The on-demand capacity walk visits only sequences due at a block boundary.

``ContinuousBatchingScheduler.ensure_capacity`` skips every running sequence
whose next KV write stays inside its recorded
``Sequence.kv_writable_extent`` — a private, unregistered block it already
holds — and the engine re-reads the KV peaks only after the pool's
occupancy may have risen.  The reference here is the full walk: every
running sequence visited at every boundary, and the peaks re-read after
every iteration.  Over seeded random on-demand configurations (prefix
sharing with partial-tail copy-on-write, chunked prefill, recompute and
swap preemption, disaggregated handoff and rebalance) the two must
serialize byte-identically, and the event-driven walk must never call
``blocks_deficit`` more often.
"""

from __future__ import annotations

import functools
import itertools
import json

import numpy as np
import pytest

from repro.runtime.backends import MiLoBackend
from repro.serving import (
    BlockManager,
    ContinuousBatchingScheduler,
    EngineConfig,
    OnDemandPolicy,
    Request,
    SchedulerConfig,
    ServingEngine,
)
from repro.serving.cluster import ShardedBlockManager
from repro.serving.kv_cache import KVCacheExhausted

SEEDS = range(20)
NUM_REQUESTS = 30

#: Cluster layouts the seeds cycle through: colocated on 1-2 devices (one
#: under the overlap cost model) and two disaggregated splits.
LAYOUTS = (
    dict(devices=1),
    dict(devices=2),
    dict(devices=2, overlap=True),
    dict(devices=3, prefill_devices=1, decode_devices=2),
    dict(devices=4, prefill_devices=1, decode_devices=3),
)


class FullWalkScheduler(ContinuousBatchingScheduler):
    """Reference walk: every running sequence is due at every boundary."""

    def _capacity_due(self):
        return list(self.running)


class FullWalkEngine(ServingEngine):
    """Reference engine: full capacity walk, KV peaks read every iteration."""

    def make_scheduler(self):
        scheduler = super().make_scheduler()
        scheduler.__class__ = FullWalkScheduler
        return scheduler

    def run(self, requests):
        # A rise counter that moves on every read defeats the peak gate.
        manager = self.block_manager
        ticks = itertools.count()
        manager.__class__ = type(
            f"EverySample{type(manager).__name__}",
            (type(manager),),
            {"rises": property(lambda self: next(ticks), lambda self, value: None)},
        )
        return super().run(requests)


def draw_case(seed):
    """A seeded random on-demand engine config, request list and pool size."""
    rng = np.random.default_rng(seed)
    block_size = int(rng.choice([4, 8, 16]))
    config = EngineConfig(
        block_size=block_size,
        kv_policy="ondemand",
        max_batch_size=int(rng.choice([6, 32, 1000])),
        prefill_chunk=(None, 8, 24)[int(rng.integers(3))],
        preempt_mode=("recompute", "swap")[int(rng.integers(2))],
        **LAYOUTS[seed % len(LAYOUTS)],
    )
    # Never a multiple of the block size, so the prefix ends in a partial
    # tail block; a prompt that *is* the prefix maps that tail shared and
    # its first generated token copies it on write.
    prefix_tokens = int(rng.integers(1, 3)) * block_size + int(rng.integers(1, block_size))
    arrivals = np.cumsum(rng.exponential(1 / 60.0, size=NUM_REQUESTS)).tolist()
    requests = []
    for i, arrival in enumerate(arrivals):
        decode = int(rng.integers(1, 80))
        priority = int(rng.integers(2))
        group = int(rng.integers(-1, 3))
        if group < 0:
            prompt = int(rng.integers(1, 64))
            requests.append(Request(i, arrival, prompt, decode, priority))
            continue
        private = 0 if rng.random() < 0.5 else int(rng.integers(1, 40))
        requests.append(
            Request(
                i, arrival, prefix_tokens + private, decode, priority,
                prefix_id=group, prefix_tokens=prefix_tokens,
            )
        )
    largest = max(-(-r.total_tokens // block_size) for r in requests)
    pool_blocks = largest + int(rng.integers(0, 2 * largest))
    return config, requests, pool_blocks


def run_case(engine_cls, seed):
    """Serialized report and ``blocks_deficit`` call count of one draw."""
    config, requests, pool_blocks = draw_case(seed)
    engine = engine_cls(MiLoBackend(), "mixtral-8x7b", config)
    for pool in getattr(engine.block_manager, "pools", [engine.block_manager]):
        pool.num_blocks = pool_blocks
    calls = 0
    make_scheduler = engine.make_scheduler

    def counting_scheduler():
        scheduler = make_scheduler()
        deficit = scheduler.allocation.blocks_deficit

        def counted(seq, prefill_chunk=None):
            nonlocal calls
            calls += 1
            return deficit(seq, prefill_chunk)

        scheduler.allocation.blocks_deficit = counted
        return scheduler

    engine.make_scheduler = counting_scheduler
    report = engine.run(requests)
    return report, json.dumps(report.to_dict(), sort_keys=True), calls


@functools.lru_cache(maxsize=None)
def compare(seed):
    report, serialized, calls = run_case(ServingEngine, seed)
    _, reference, reference_calls = run_case(FullWalkEngine, seed)
    return report, serialized == reference, calls, reference_calls


@pytest.mark.parametrize("seed", SEEDS)
def test_boundary_walk_matches_full_walk(seed):
    report, identical, calls, reference_calls = compare(seed)
    assert identical
    assert calls <= reference_calls
    assert report.completed + report.rejected + report.stranded == NUM_REQUESTS


def test_random_draws_cover_every_kv_event():
    """The seeds exercise what the extent must survive, and the walk skips."""
    results = [compare(seed) for seed in SEEDS]
    reports = [report for report, *_ in results]
    migrations = [report.migration or {} for report in reports]
    assert any(report.prefix_cow_copies for report in reports)
    assert any(report.preemptions for report in reports)
    assert any(m.get("swaps") for m in migrations)
    assert any(m.get("handoffs") for m in migrations)
    assert any(m.get("rebalances") for m in migrations)
    calls = sum(c for *_, c, _ in results)
    reference_calls = sum(r for *_, r in results)
    assert calls * 2 < reference_calls


def on_demand_scheduler(num_blocks=16, block_size=4):
    pool = BlockManager(num_blocks=num_blocks, block_size=block_size)
    scheduler = ContinuousBatchingScheduler(
        pool, SchedulerConfig(max_batch_size=4), allocation=OnDemandPolicy(pool)
    )
    scheduler.debug_checks = True
    return scheduler


class TestWritableExtent:
    def test_recorded_at_boundaries_and_reset_on_release(self):
        scheduler = on_demand_scheduler()
        calls = []
        deficit = scheduler.allocation.blocks_deficit

        def recorded(seq, prefill_chunk=None):
            calls.append(seq.generated_tokens)
            return deficit(seq, prefill_chunk)

        scheduler.allocation.blocks_deficit = recorded
        seq = scheduler.add_request(Request(0, 0.0, prompt_tokens=5, max_new_tokens=8))
        scheduler.admit(0.0)
        assert seq.kv_writable_extent == 0  # nothing recorded before a boundary
        for now in range(8):
            scheduler.ensure_capacity()
            seq.advance(float(now))
        # Writes at tokens 5..12: due when the write leaves the extent —
        # first visit (token 5), then tokens 8 and 12 (new blocks).
        assert calls == [0, 3, 7]
        assert seq.is_finished
        scheduler.evict_finished()
        assert seq.kv_writable_extent == 0

    def test_kept_across_migration(self):
        manager = ShardedBlockManager([BlockManager(8, 4), BlockManager(8, 4)])
        scheduler = ContinuousBatchingScheduler(
            manager, SchedulerConfig(), allocation=OnDemandPolicy(manager)
        )
        scheduler.debug_checks = True
        seq = scheduler.add_request(Request(0, 0.0, prompt_tokens=5, max_new_tokens=8))
        scheduler.admit(0.0)
        scheduler.ensure_capacity()
        extent = seq.kv_writable_extent
        assert extent == 8
        src = seq.home_device
        manager.migrate(0, src, 1 - src)
        seq.home_device = 1 - src
        seq.advance(0.0)
        assert scheduler.ensure_capacity() == []  # audited, skipped
        assert seq.kv_writable_extent == extent

    def test_debug_checks_catch_a_stale_extent(self):
        # The whole prompt is the prefix: the tail block holding the write
        # position is registered in the prefix index.
        scheduler = on_demand_scheduler()
        request = Request(0, 0.0, 5, 8, prefix_id=0, prefix_tokens=5)
        seq = scheduler.add_request(request)
        scheduler.admit(0.0)
        seq.kv_writable_extent = 8  # claims the registered block is private
        with pytest.raises(KVCacheExhausted, match="skipped"):
            scheduler.ensure_capacity()
        scheduler.debug_checks = False
        scheduler.ensure_capacity()  # unaudited: the sequence is skipped
        assert scheduler.block_manager.prefix_hits(0, 5, share_partial=True) == 2


class TestBlockManagerQueries:
    def test_writable_in_place(self):
        pool = BlockManager(num_blocks=8, block_size=4)
        # Blocks 0-1 hold the 6-token prefix (registered), block 2 is private.
        pool.allocate_shared(1, 9, prefix_id=0, prefix_tokens=6, share_partial=True)
        assert not pool.writable_in_place(1, 2)  # registered, sole holder
        assert not pool.writable_in_place(1, 5)
        assert pool.writable_in_place(1, 8)
        assert not pool.writable_in_place(1, 12)  # past the table
        assert not pool.writable_in_place(2, 0)  # holds nothing
        pool.allocate_shared(2, 7, prefix_id=0, prefix_tokens=6, share_partial=True)
        assert not pool.writable_in_place(2, 6)  # shared
        assert pool.cow_copies == 0 and pool.prefix_hits(0, 6, True) == 2  # pure
        pool.ensure_writable(2, 6)
        assert pool.writable_in_place(2, 6)  # private copy

    def test_sharded_writable_in_place(self):
        manager = ShardedBlockManager([BlockManager(8, 4), BlockManager(8, 4)])
        manager.allocate(1, 6)
        src = manager.home_device(1)
        assert manager.writable_in_place(1, 5)
        manager.migrate(1, src, 1 - src)
        assert manager.writable_in_place(1, 5)
        assert not manager.writable_in_place(2, 0)

    def test_rises_move_only_when_occupancy_can_rise(self):
        pool = BlockManager(num_blocks=8, block_size=4)
        before = pool.rises
        pool.allocate_shared(1, 8, prefix_id=0, prefix_tokens=8)  # takes blocks
        assert pool.rises > before
        before = pool.rises
        pool.allocate_shared(2, 8, prefix_id=0, prefix_tokens=8)  # shares them
        assert pool.rises > before and pool.shared_blocks == 2
        before = pool.rises
        pool.free(2)
        pool.free(1)
        assert pool.rises == before
        manager = ShardedBlockManager([BlockManager(8, 4), BlockManager(8, 4)])
        before = manager.rises
        manager.allocate(1, 4)
        assert manager.rises > before
