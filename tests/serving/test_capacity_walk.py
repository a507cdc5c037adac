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
``blocks_deficit`` more often.  The engine grants an iteration's boundary
growth in bulk, one free-list take per device, whenever no copy-on-write or
preemption is due; the reference visits every sequence on its own
(``engine_reference.PerSequenceCapacityWalk``), so the bulk grant is checked
against an independent per-sequence walk.  ``TestBulkGrant`` pins the global
order of the bulk grant's trace events and its take count, at a loop
turn's start and inside a stretch.
"""

from __future__ import annotations

import copy
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
    poisson_workload,
)
from repro.serving.cluster import ShardedBlockManager
from repro.serving.kv_cache import KVCacheExhausted
from repro.serving.request import Sequence
from repro.serving.telemetry import Tracer

from engine_reference import PerSequenceCapacityWalk, ReferenceEngine

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


class FullWalkScheduler(PerSequenceCapacityWalk, ContinuousBatchingScheduler):
    """Reference walk: every running sequence is due at every boundary and
    is visited on its own (the per-sequence loop, not the bulk grant)."""

    def _capacity_due(self):
        return list(self.running)

    def grant_boundaries(self):
        # Decline every grant inside a stretch, so each boundary ends the
        # stretch and the next turn's walk visits every sequence.
        return False


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


def draw_case(seed, layouts=LAYOUTS, kv_policies=("ondemand",)):
    """A seeded random engine config, request list and pool size.

    The cluster layout and KV policy cycle with the seed (layout fastest);
    everything else is drawn from the seeded generator.
    """
    rng = np.random.default_rng(seed)
    block_size = int(rng.choice([4, 8, 16]))
    config = EngineConfig(
        block_size=block_size,
        kv_policy=kv_policies[seed // len(layouts) % len(kv_policies)],
        max_batch_size=int(rng.choice([6, 32, 1000])),
        prefill_chunk=(None, 8, 24)[int(rng.integers(3))],
        preempt_mode=("recompute", "swap")[int(rng.integers(2))],
        **layouts[seed % len(layouts)],
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


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(len(SEEDS), len(SEEDS) + 200))
def test_boundary_walk_matches_full_walk_long(seed):
    """The long sweep of the same comparison (weekly benchmark-smoke run)."""
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
        grow_due = scheduler.allocation.grow_due

        def recorded(due, prefill_chunk=None):
            calls.extend(seq.generated_tokens for seq in due)
            return grow_due(due, prefill_chunk)

        def walked(seq, prefill_chunk=None):
            raise AssertionError("a pool with room never falls back to the walk")

        scheduler.allocation.grow_due = recorded
        scheduler.allocation.blocks_deficit = walked
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

    def test_debug_checks_catch_an_extent_off_the_table_end(self):
        # A crossing at a nonzero extent is granted one fresh block without
        # reading the table; the audit checks that the extent ends it.
        scheduler = on_demand_scheduler()
        pool = scheduler.block_manager
        seq = scheduler.add_request(Request(0, 0.0, prompt_tokens=5, max_new_tokens=8))
        scheduler.admit(0.0)
        scheduler.ensure_capacity()  # extent 8: the end of the 2-block table
        seq.advance(0.0)  # prefill emits a token; decode writes from token 6
        tracker = scheduler.decode
        tracker.walked.remove(seq)
        tracker.start(seq)
        tracker.iteration = 2  # the write reaches the extent: a crossing
        pool.grow(0, 1)  # the table grows behind the policy's back
        with pytest.raises(KVCacheExhausted, match="extent 8 but holds 3 blocks"):
            scheduler.grant_boundaries()
        with pytest.raises(KVCacheExhausted, match="extent 8 but holds 3 blocks"):
            scheduler.ensure_capacity()
        scheduler.debug_checks = False
        assert scheduler.grant_boundaries()  # unaudited, the extent is trusted
        assert pool.blocks_held(0) == 4 and seq.kv_writable_extent == 12

    def test_debug_checks_catch_a_stale_home_device(self):
        # The bulk grant finds a sequence's table on its ``home_device``.
        manager = ShardedBlockManager([BlockManager(8, 4), BlockManager(8, 4)])
        scheduler = ContinuousBatchingScheduler(
            manager, SchedulerConfig(), allocation=OnDemandPolicy(manager)
        )
        scheduler.debug_checks = True
        seq = scheduler.add_request(Request(0, 0.0, prompt_tokens=5, max_new_tokens=8))
        scheduler.admit(0.0)
        home = seq.home_device
        assert manager.home_device(0) == home
        seq.home_device = 1 - home  # the scheduler's copy goes stale
        with pytest.raises(KVCacheExhausted, match="homed on device"):
            scheduler.ensure_capacity()
        with pytest.raises(KVCacheExhausted, match="homed on device"):
            scheduler.grant_boundaries()
        seq.home_device = home
        assert scheduler.ensure_capacity() == []


    def test_grow_due_declines_only_an_over_draw(self):
        # An over-draw declines the grant (the scheduler then walks), but a
        # crossing whose sequence holds no table is a broken invariant and
        # must surface at once, on a single pool and on a sharded one.
        for pool in (
            BlockManager(num_blocks=2, block_size=4),
            ShardedBlockManager([BlockManager(2, 4), BlockManager(2, 4)]),
        ):
            policy = OnDemandPolicy(pool)
            seq = Sequence(Request(0, 0.0, prompt_tokens=8, max_new_tokens=4))
            seq.kv_writable_extent = 8  # a crossing: the write opens block 2
            with pytest.raises(KVCacheExhausted, match="holds no blocks"):
                policy.grow_due([seq])
            pool.allocate(0, 8)  # both blocks of the home pool: no room to grow
            assert not policy.grow_due([seq])
            assert pool.blocks_held(0) == 2 and seq.kv_writable_extent == 8


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


def spy_growth(engine):
    """Count the growth work of every bulk grant and capacity walk of a run.

    ``bulk`` counts the bulk grants that took blocks, ``grants`` the
    sequences whose tables they grew, ``bulk_takes`` the devices they took
    from (each pool's ``rises`` bump once per grant that takes from it) and
    ``spread`` the grants that took on more than one device; ``visits`` and
    ``grows`` count the per-sequence walk's ``blocks_deficit`` and ``grow``
    calls, and ``in_stretch`` the scheduler's ``grant_boundaries`` calls
    inside a stretch.  Every bulk grant — at a loop turn's start
    (``ensure_capacity``) or inside a stretch (``grant_boundaries``), both
    through the scheduler's ``_grant`` and the block manager's
    ``grow_many`` — must take at most once per device.
    """
    counts = dict(
        bulk=0, grants=0, bulk_takes=0, spread=0, visits=0, grows=0, in_stretch=0
    )
    manager = engine.block_manager
    pools = getattr(manager, "pools", [manager])

    def counted(name, call):
        def wrapper(*args):
            counts[name] += 1
            return call(*args)

        return wrapper

    grow_many = manager.grow_many

    def spied_grow_many(due, plan):
        held = [manager.blocks_held(seq.request.request_id) for seq in due]
        rises = [pool.rises for pool in pools]
        allocs = [pool.physical_allocs for pool in pools]
        granted = grow_many(due, plan)
        takes = [pool.rises - before for pool, before in zip(pools, rises)]
        assert max(takes) <= 1, takes  # one bulk take per device
        grown = [
            manager.blocks_held(seq.request.request_id) - before
            for seq, before in zip(due, held)
        ]
        assert sum(grown) == sum(
            pool.physical_allocs - before for pool, before in zip(pools, allocs)
        )
        if sum(takes):
            counts["bulk"] += 1
            counts["grants"] += sum(1 for n in grown if n)
            counts["bulk_takes"] += sum(takes)
            counts["spread"] += sum(takes) > 1
        return granted

    manager.grow_many = spied_grow_many
    make_scheduler = engine.make_scheduler

    def spied_scheduler():
        scheduler = make_scheduler()
        allocation = scheduler.allocation
        allocation.blocks_deficit = counted("visits", allocation.blocks_deficit)
        allocation.grow = counted("grows", allocation.grow)
        scheduler.grant_boundaries = counted("in_stretch", scheduler.grant_boundaries)
        return scheduler

    engine.make_scheduler = spied_scheduler
    return counts


def placed(manager, seq_id, tokens, device):
    """Allocate ``tokens`` for ``seq_id`` on ``device`` of a sharded manager."""
    manager.admit_devices = (device,)
    manager.allocate(seq_id, tokens)
    manager.admit_devices = None


def due_sequence(seq_id, write_pos, extent, home):
    """A decoding sequence whose next write is at ``write_pos``."""
    seq = Sequence(Request(seq_id, 0.0, prompt_tokens=write_pos, max_new_tokens=64))
    seq.admit(0.0)
    seq.prefill_done = True
    seq.kv_writable_extent = extent
    seq.home_device = home
    return seq


class TestBulkGrant:
    """Boundary growth is granted with one free-list take per device."""

    @pytest.mark.parametrize("devices", [1, 4])
    def test_first_visit_growth_interleaved_with_crossings(self, devices):
        # On one device, in due order: a crossing, a first visit whose write
        # lies two blocks past its one-block table, another crossing, and
        # (on 4 pools) a crossing on another device in between.
        if devices == 1:
            manager = BlockManager(num_blocks=16, block_size=4)
            manager.allocate(0, 8)
            manager.allocate(1, 4)
            manager.allocate(2, 8)
            extra = []
        else:
            manager = ShardedBlockManager([BlockManager(16, 4) for _ in range(4)])
            for seq_id, tokens in ((0, 8), (1, 4), (2, 8)):
                placed(manager, seq_id, tokens, 2)
            placed(manager, 3, 8, 1)
            extra = [due_sequence(3, 8, 8, 1)]
        tracer = Tracer()
        for pool in getattr(manager, "pools", [manager]):
            pool.tracer = tracer
        home = manager.home_device(0)
        due = [
            due_sequence(0, 8, 8, home),
            *extra,
            due_sequence(1, 9, 0, home),  # first visit: blocks 1 and 2
            due_sequence(2, 8, 8, home),
        ]
        twin = copy.deepcopy(manager)
        twin_tracer = getattr(twin, "pools", [twin])[0].tracer
        assert OnDemandPolicy(manager).grow_due(due)
        for seq in due:
            seq_id = seq.request.request_id
            twin.grow(seq_id, 2 if seq_id == 1 else 1)
            assert seq.kv_writable_extent == 12
        for seq_id in range(len(due)):
            assert manager.block_table(seq_id) == twin.block_table(seq_id)
        for pool, twin_pool in zip(
            getattr(manager, "pools", [manager]), getattr(twin, "pools", [twin])
        ):
            assert pool._free == twin_pool._free
            assert pool.physical_allocs == twin_pool.physical_allocs
        grows = [e for e in tracer.events if e["op"] == "grow"]
        assert grows == [e for e in twin_tracer.events if e["op"] == "grow"]
        assert [e["seq"] for e in grows] == [seq.request.request_id for seq in due]
        assert manager.block_table(1)[1:] == (
            manager.block_table(0)[-1] + 1, manager.block_table(0)[-1] + 2
        )

    def test_an_over_draw_on_one_device_moves_nothing_anywhere(self):
        manager = ShardedBlockManager([BlockManager(4, 4) for _ in range(4)])
        for device in range(4):
            placed(manager, device, 8 if device < 3 else 16, device)
        due = [due_sequence(d, 8 if d < 3 else 16, 8 if d < 3 else 16, d) for d in range(4)]
        before = copy.deepcopy(
            [(pool._tables, pool._free, pool._ref) for pool in manager.pools]
        )
        rises = [pool.rises for pool in manager.pools]
        allocs = [pool.physical_allocs for pool in manager.pools]
        assert not OnDemandPolicy(manager).grow_due(due)  # device 3 is full
        assert [(pool._tables, pool._free, pool._ref) for pool in manager.pools] == before
        assert [pool.rises for pool in manager.pools] == rises
        assert [pool.physical_allocs for pool in manager.pools] == allocs
        assert [seq.kv_writable_extent for seq in due] == [8, 8, 8, 16]

    def test_grow_events_keep_global_order_across_devices(self):
        # Six equal requests admitted together on two colocated devices:
        # homes alternate 0, 1, 0, 1, ... in queue_key order, and every
        # sequence crosses its block boundaries in the same iterations.
        def run(engine_cls):
            config = EngineConfig(devices=2, kv_policy="ondemand", block_size=4)
            engine = engine_cls(MiLoBackend(), "mixtral-8x7b", config)
            tracer = Tracer()
            engine.enable_telemetry(tracer=tracer)
            counts = spy_growth(engine) if engine_cls is ServingEngine else None
            engine.run([Request(i, 0.0, 5, 12) for i in range(6)])
            return tracer, counts

        tracer, counts = run(ServingEngine)
        reference, _ = run(ReferenceEngine)
        assert counts["bulk"] == 3 and counts["grants"] == 18
        assert counts["spread"] == 3 and counts["visits"] == counts["grows"] == 0
        # Every crossing falls inside the one decode stretch.
        assert counts["in_stretch"] == 3
        assert tracer.to_jsonl() == reference.to_jsonl()
        grows = [e for e in tracer.events if e["kind"] == "kv" and e["op"] == "grow"]
        assert len(grows) == 18
        for first in range(0, 18, 6):
            boundary = grows[first:first + 6]
            assert [e["seq"] for e in boundary] == list(range(6))
            assert [e["device"] for e in boundary] == [0, 1] * 3
            # Each event carries the free count its own grow left behind.
            free = [e["free"] for e in boundary]
            assert free[2] == free[0] - 1 and free[4] == free[2] - 1
            assert free[3] == free[1] - 1 and free[5] == free[3] - 1

    def test_one_take_per_device_per_iteration_on_a_disagg_run(self):
        config = EngineConfig(
            devices=4, prefill_devices=1, decode_devices=3, kv_policy="ondemand",
            reserve_gb=17.0, max_batch_size=256,
        )
        engine = ServingEngine(MiLoBackend(), "mixtral-8x7b", config)
        counts = spy_growth(engine)
        report = engine.run(
            poisson_workload(
                num_requests=60, qps=5.0, seed=7, mean_prompt_tokens=1024,
                mean_new_tokens=512,
            )
        )
        assert report.completed == 60 and report.iterations == 875
        # Every boundary iteration of this run is granted in bulk (no walk):
        # 1794 growths in 642 iterations take the free lists 1137 times,
        # never more than once per device in one iteration.  562 boundary
        # iterations are granted inside a stretch instead of ending it.
        assert counts["visits"] == counts["grows"] == 0
        assert counts["bulk"] == 642 and counts["grants"] == 1794
        assert counts["bulk_takes"] == 1137 and counts["spread"] == 361
        assert counts["in_stretch"] == 562
