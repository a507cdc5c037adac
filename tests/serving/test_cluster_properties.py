"""Randomized op-sequence property tests for the paged KV allocators.

The serving layer now has three interacting subsystems (block identity,
allocation policies, prefix sharing) multiplied by per-device sharding.
Example-based tests cannot cover that state space, so this tier drives the
allocators — the single-device :class:`BlockManager` and the
:class:`ShardedBlockManager` over 2/4 (and uneven) pools — through thousands
of seeded random ``allocate`` / ``allocate_shared`` / ``grow`` / CoW /
``free`` steps, calling ``check_invariants()`` after *every* operation, plus
the cross-device invariant: a sequence's block table lives in exactly its
home pool, never references a block outside it, and no other pool knows the
sequence.  A multi-sequence ``grow_many`` grant (decoding crossings and planned
growth) is checked against successive
``grow`` calls on a twin manager (tables, free lists, refcounts,
``physical_allocs`` and, when a tracer is attached, the traced ``kv``
events must match — the episodes run both traced and untraced, since the
bulk take emits its per-grant events only when a tracer is attached), and a
``grow_many`` that over-draws, whose plan declines or that names an unknown
sequence must fail without touching the manager.  After every op, every pool's
``prefix_hits`` (the resident-run count) must equal the linear walk of the
prefix index it replaced (:func:`scan_prefix_hits`), for every prefix id,
with and without a shared partial tail.

CI runs the fixed fast-tier seeds on every push (``-m "not slow"``); the
weekly benchmark-smoke workflow runs the longer randomized sweep
(``-m slow``).  Every failure message includes the seed, so a red run is
replayable bit-for-bit.
"""

import collections
import copy

import numpy as np
import pytest

from repro.runtime.backends import MiLoBackend
from repro.serving import (
    BlockManager,
    EngineConfig,
    ServingEngine,
    ShardedBlockManager,
    Request,
    Tracer,
    poisson_workload,
)
from repro.serving.kv_cache import KVCacheExhausted
from repro.serving.request import Sequence

BLOCK_SIZE = 4

#: Pool layouts under test: a plain single-device pool and sharded managers
#: over even and deliberately uneven per-device pools.
LAYOUTS = {
    "single": (48,),
    "sharded2": (24, 24),
    "sharded4": (12, 12, 12, 12),
    "uneven3": (8, 22, 18),
}


def build_manager(layout):
    sizes = LAYOUTS[layout]
    if len(sizes) == 1:
        return BlockManager(num_blocks=sizes[0], block_size=BLOCK_SIZE)
    return ShardedBlockManager(
        [BlockManager(num_blocks=n, block_size=BLOCK_SIZE) for n in sizes]
    )


def pool_sizes(manager):
    if isinstance(manager, ShardedBlockManager):
        return [pool.num_blocks for pool in manager.pools]
    return [manager.num_blocks]


def pools_of(manager):
    return getattr(manager, "pools", [manager])


def attach_tracer(manager):
    """One tracer on every pool, as the engine attaches it."""
    tracer = Tracer()
    for pool in pools_of(manager):
        pool.tracer = tracer
    return tracer


def pool_state(manager):
    """Everything a grow may change, per pool, plus the home map."""
    return [
        (pool._tables, pool._free, pool._ref, pool.physical_allocs,
         pool._prefix_index, pool._shared_count)
        for pool in pools_of(manager)
    ] + [getattr(manager, "_home", None)]


def bulk_sequence(seq_id, blocks, home):
    """A sequence due for ``blocks`` blocks of growth on device ``home``.

    One block is asked for as a decoding crossing (the write position has
    reached a nonzero writable extent, the path that never calls the
    plan); two come from the grant's ``plan`` callback.
    """
    crossing = blocks == 1
    seq = Sequence(Request(seq_id, 0.0, BLOCK_SIZE if crossing else 1, 1))
    seq.kv_writable_extent = BLOCK_SIZE if crossing else 0
    seq.home_device = home
    return seq


def check_bulk_grow(manager, tracer, rng, live, unknown_id):
    """One multi-sequence ``grow_many`` grant against successive ``grow`` calls.

    The twin is a deep copy of the manager (its tracer, if any, included)
    taken just before the op; ``tracer`` is ``None`` on an untraced
    manager.  Returns how the op went: ``"grown"`` on one device,
    ``"spread"`` over several, or the injected fault — an ``"unknown"``
    sequence (must raise), a ``"declined"`` plan or an ``"overdraw"`` (must
    return ``False``) — which must leave the manager, its rise counter, the
    sequences' extents and the trace exactly as they were.
    """
    seq_ids = rng.choice(sorted(live), size=int(rng.integers(2, 5)))
    grants = [(int(seq_id), int(rng.integers(1, 3))) for seq_id in seq_ids]
    pos = int(rng.integers(0, len(grants)))
    fault = int(rng.integers(0, 8))
    need: dict[int, int] = {}
    for seq_id, blocks in grants:
        home = manager.home_device(seq_id)
        need[home] = need.get(home, 0) + blocks
    due = [
        bulk_sequence(seq_id, blocks, manager.home_device(seq_id))
        for seq_id, blocks in grants
    ]
    planned = {id(seq): blocks for seq, (_, blocks) in zip(due, grants)}
    if fault == 0:
        due.insert(pos, bulk_sequence(unknown_id, 1, 0))
        outcome, error = "unknown", KVCacheExhausted
    elif fault == 1:
        planned[id(due[pos])] = None  # a copy-on-write: the plan declines
        due[pos].kv_writable_extent = 0
        outcome, error = "declined", None
    elif any(blocks > manager.free_blocks_on(d) for d, blocks in need.items()):
        outcome, error = "overdraw", None
    else:
        outcome, error = "spread" if len(need) > 1 else "grown", None
    events = len(tracer.events) if tracer is not None else 0
    rises = manager.rises
    extents = [seq.kv_writable_extent for seq in due]

    def plan(seq):
        return planned[id(seq)]

    if outcome not in ("grown", "spread"):
        before = copy.deepcopy(pool_state(manager))
        if error is not None:
            with pytest.raises(error):
                manager.grow_many(due, plan)
        else:
            assert manager.grow_many(due, plan) is False
        assert pool_state(manager) == before
        assert manager.rises == rises
        assert [seq.kv_writable_extent for seq in due] == extents
        assert tracer is None or len(tracer.events) == events
        return outcome
    twin = copy.deepcopy(manager)
    twin_tracer = pools_of(twin)[0].tracer
    assert manager.grow_many(due, plan) is True
    for seq_id, blocks in grants:
        twin.grow(seq_id, blocks)
        live[seq_id] += blocks * BLOCK_SIZE
    assert pool_state(manager) == pool_state(twin)
    if tracer is not None:
        assert tracer.events[events:] == twin_tracer.events[events:]
        assert len(tracer.events) - events == len(grants)
    assert manager.rises - rises == len(need)  # one bulk take per device
    unique = collections.Counter(seq_id for seq_id, _ in grants)
    for seq, extent, (seq_id, blocks) in zip(due, extents, grants):
        if blocks == 1:
            assert seq.kv_writable_extent == extent + BLOCK_SIZE  # a crossing
        elif unique[seq_id] == 1:
            assert seq.kv_writable_extent == manager.blocks_held(seq_id) * BLOCK_SIZE
    return outcome


#: Prefix ids the random ``alloc_shared`` ops draw from.
PREFIX_IDS = range(3)
#: ``(prefix_tokens, share_partial)`` probes: a prefix region with a
#: partial tail block, shared and unshared, and one covering the longest
#: table the ops build (10 blocks), so a run count off in either direction
#: shows.
PREFIX_PROBES = ((21, False), (21, True), (40, False))


def scan_prefix_hits(pool, prefix_id, prefix_tokens, share_partial=False):
    """``BlockManager.prefix_hits`` as the linear walk of the prefix index
    it was before the pool kept each prefix's resident-run count, verbatim
    but for the receiver's name: the oracle for that count."""
    hits = 0
    for idx in range(pool._shareable_blocks(prefix_tokens, share_partial)):
        if (prefix_id, idx) not in pool._prefix_index:
            break
        hits += 1
    return hits


def assert_prefix_hits_match_scan(manager):
    """Every pool's resident-run ``prefix_hits`` equals the index walk."""
    for pool in pools_of(manager):
        for prefix_id in PREFIX_IDS:
            for prefix_tokens, share_partial in PREFIX_PROBES:
                assert pool.prefix_hits(prefix_id, prefix_tokens, share_partial) == (
                    scan_prefix_hits(pool, prefix_id, prefix_tokens, share_partial)
                ), (pool.device_index, prefix_id, prefix_tokens, share_partial)


def assert_cross_device_invariants(manager, live):
    """Sharding-specific partition checks on top of ``check_invariants``."""
    manager.check_invariants()
    assert_prefix_hits_match_scan(manager)
    sizes = pool_sizes(manager)
    for seq_id in live:
        home = manager.home_device(seq_id)
        assert 0 <= home < len(sizes)
        table = manager.block_table(seq_id)
        assert table, f"live sequence {seq_id} holds no blocks"
        # No block table ever references a block outside its home pool.
        assert all(0 <= block_id < sizes[home] for block_id in table)
        if isinstance(manager, ShardedBlockManager):
            assert manager.pools[home].block_table(seq_id) == table
            for d, pool in enumerate(manager.pools):
                if d != home:
                    assert pool.blocks_held(seq_id) == 0


def drive_random_ops(layout, seed, steps, traced=True):
    """One randomized episode; returns the number of mutating ops applied
    and a count of the ``grow_many`` ops' outcomes."""
    rng = np.random.default_rng(seed)
    manager = build_manager(layout)
    tracer = attach_tracer(manager) if traced else None
    live: dict[int, int] = {}  # seq_id -> tokens covered by its table
    next_id = 0
    applied = 0
    bulk: collections.Counter[str] = collections.Counter()
    note = f"layout={layout} seed={seed}"

    for step in range(steps):
        op = rng.choice(["alloc", "alloc_shared", "grow", "grow_many", "cow", "free"])
        try:
            if op == "alloc":
                tokens = int(rng.integers(1, 40))
                if manager.can_allocate(tokens):
                    manager.allocate(next_id, tokens)
                    live[next_id] = tokens
                    next_id += 1
                else:
                    with pytest.raises(KVCacheExhausted):
                        manager.allocate(next_id, tokens)
                applied += 1
            elif op == "alloc_shared":
                tokens = int(rng.integers(1, 40))
                prefix_id = int(rng.integers(0, 3))
                prefix_tokens = int(rng.integers(1, tokens + 1))
                share_partial = bool(rng.integers(0, 2))
                if manager.can_allocate_shared(
                    tokens, prefix_id, prefix_tokens, share_partial
                ):
                    manager.allocate_shared(
                        next_id, tokens, prefix_id, prefix_tokens, share_partial
                    )
                    live[next_id] = tokens
                    next_id += 1
                    applied += 1
            elif op == "grow" and live:
                seq_id = int(rng.choice(sorted(live)))
                blocks = int(rng.integers(1, 3))
                home_free = manager.free_blocks_on(manager.home_device(seq_id))
                if blocks <= home_free:
                    manager.grow(seq_id, blocks)
                    live[seq_id] += blocks * BLOCK_SIZE
                else:
                    with pytest.raises(KVCacheExhausted):
                        manager.grow(seq_id, blocks)
                applied += 1
            elif op == "grow_many" and live:
                bulk[check_bulk_grow(manager, tracer, rng, live, next_id + 1_000_000)] += 1
                applied += 1
            elif op == "cow" and live:
                seq_id = int(rng.choice(sorted(live)))
                held_tokens = manager.blocks_held(seq_id) * BLOCK_SIZE
                token_index = int(rng.integers(0, held_tokens))
                cost = manager.cow_cost(seq_id, token_index)
                assert cost in (0, 1)
                if cost <= manager.free_blocks_on(manager.home_device(seq_id)):
                    manager.ensure_writable(seq_id, token_index)
                    applied += 1
            elif op == "free" and live:
                seq_id = int(rng.choice(sorted(live)))
                manager.free(seq_id)
                del live[seq_id]
                applied += 1
        except AssertionError:
            raise
        except Exception as exc:  # pragma: no cover - diagnostic wrapper
            raise AssertionError(f"{note} step={step} op={op}: {exc!r}") from exc
        assert_cross_device_invariants(manager, live)

    for seq_id in sorted(live):
        manager.free(seq_id)
    manager.assert_no_leaks()
    assert manager.free_blocks == sum(pool_sizes(manager))
    return applied, bulk


class TestRandomOpSequences:
    """Seeded fast-tier episodes (run in CI on every push)."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_invariants_hold_after_every_op(self, layout, seed):
        applied, bulk = drive_random_ops(layout, seed=seed, steps=1200)
        # The episode must actually exercise the allocator, not no-op out,
        # and the bulk grow must both succeed and fail each way.
        assert applied > 400
        assert bulk["grown"] + bulk["spread"] > 15
        assert bulk["spread"] > 5 or layout == "single"
        assert bulk["unknown"] and bulk["declined"] and bulk["overdraw"]

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_untraced_bulk_grow_matches_successive_grows(self, layout, seed):
        applied, bulk = drive_random_ops(layout, seed=seed, steps=1200, traced=False)
        assert applied > 400
        assert bulk["grown"] + bulk["spread"] > 15
        assert bulk["spread"] > 5 or layout == "single"
        assert bulk["unknown"] and bulk["declined"] and bulk["overdraw"]


@pytest.mark.slow
class TestRandomOpSequencesLong:
    """The long randomized sweep (weekly benchmark-smoke workflow)."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("seed", range(2, 12))
    def test_long_episodes(self, layout, seed):
        drive_random_ops(layout, seed=seed, steps=5000)


class TestRandomEngineRuns:
    """End-to-end randomized property: whole engines drain leak-free."""

    @pytest.mark.parametrize("devices", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sharded_engine_drains_under_pressure(self, devices, seed):
        engine = ServingEngine(
            MiLoBackend(),
            "mixtral-8x7b",
            EngineConfig(
                block_size=8, kv_policy="ondemand", max_batch_size=1000, devices=devices
            ),
        )
        for pool in engine.block_manager.pools:
            pool.num_blocks = 30  # make every per-device pool bind
        workload = poisson_workload(
            25, qps=80.0, seed=seed, mean_prompt_tokens=48, mean_new_tokens=96,
            shared_prefix_tokens=32, prefix_groups=2,
        )
        report = engine.run(workload)
        # A request whose extent exceeds one shrunken per-device pool can
        # never run (KV is pinned to a home device) and is typed-rejected;
        # everything admissible completes.
        assert report.completed + report.rejected == 25
        assert report.completed >= 23
        assert report.preemptions > 0  # the pressure regime was reached
        cluster = report.to_dict()["cluster"]
        assert len(cluster["per_device"]) == devices
        for entry in cluster["per_device"]:
            assert 0 <= entry["kv_utilization_peak"] <= 1.0
        engine.block_manager.assert_no_leaks()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sharded_engine_matches_itself(self, seed):
        """Replay determinism under sharding (preemptions, homes and all)."""
        workload = poisson_workload(20, qps=60.0, seed=seed, mean_new_tokens=64)

        def run():
            engine = ServingEngine(
                MiLoBackend(),
                "mixtral-8x7b",
                EngineConfig(
                    block_size=8, kv_policy="ondemand", max_batch_size=1000,
                    devices=2, placement="frequency",
                ),
            )
            for pool in engine.block_manager.pools:
                pool.num_blocks = 40
            return engine.run(workload).to_dict()

        assert run() == run()
