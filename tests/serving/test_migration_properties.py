"""Randomized op-sequence property tests for elastic KV migration.

PR 10 adds three ways KV blocks move *between* pools mid-run: the
prefill→decode handoff of disaggregated serving, load-triggered decode-pool
rebalance migrations, and swap-to-host preemption with swap-in on resume.
Example-based tests cannot cover the interleavings, so this tier drives

* the :class:`ShardedBlockManager` through thousands of seeded random
  ``allocate`` / ``allocate_shared`` / ``grow`` / ``grow_many`` /
  ``migrate`` / ``free`` steps —
  including migrations and bulk grows that *must* fail (destination too
  full, pool over-drawn, unknown sequence) and must leave the manager
  untouched, and bulk grows checked against successive ``grow`` calls on a
  twin manager — calling ``check_invariants()`` plus the cross-device
  partition checks after every operation, and comparing every pool's
  ``prefix_hits`` with the prefix-index walk it replaced (a migration
  releases its source table, which may cut a prefix's resident run), and
* whole disaggregated engines (both preempt modes) through seeded random
  workloads under shrunken pools, checking request conservation, counter
  reconciliation (manager migration counters vs the report's migration
  section vs ``analyze_trace``) and replay determinism.

CI runs the fixed fast-tier seeds on every push (``-m "not slow"``); the
weekly benchmark-smoke workflow runs the longer randomized sweep
(``-m slow``).  Every failure message includes the seed, so a red run is
replayable bit-for-bit.
"""

import collections

import numpy as np
import pytest

from repro.runtime.backends import MiLoBackend
from repro.serving import (
    BlockManager,
    EngineConfig,
    RequestState,
    ServingEngine,
    ShardedBlockManager,
    Tracer,
    analyze_trace,
    poisson_workload,
)
from repro.serving.kv_cache import KVCacheExhausted
from repro.serving.request import Request, Sequence

from test_cluster_properties import (
    assert_prefix_hits_match_scan,
    attach_tracer,
    check_bulk_grow,
)

BLOCK_SIZE = 4

#: Sharded layouts under test (migration needs at least two pools).
LAYOUTS = {
    "sharded2": (24, 24),
    "sharded4": (12, 12, 12, 12),
    "uneven3": (8, 22, 18),
}


def build_manager(layout):
    sizes = LAYOUTS[layout]
    return ShardedBlockManager(
        [BlockManager(num_blocks=n, block_size=BLOCK_SIZE) for n in sizes]
    )


def assert_cross_device_invariants(manager, live):
    """Partition checks: every live table lives in exactly its home pool."""
    manager.check_invariants()
    sizes = [pool.num_blocks for pool in manager.pools]
    for seq_id in live:
        home = manager.home_device(seq_id)
        assert 0 <= home < len(sizes)
        table = manager.block_table(seq_id)
        assert table, f"live sequence {seq_id} holds no blocks"
        assert all(0 <= block_id < sizes[home] for block_id in table)
        assert manager.pools[home].block_table(seq_id) == table
        for d, pool in enumerate(manager.pools):
            if d != home:
                assert pool.blocks_held(seq_id) == 0
    assert_prefix_hits_match_scan(manager)


def drive_migration_ops(layout, seed, steps, traced=True):
    """One randomized episode; returns the number of migrations applied and
    a count of the ``grow_many`` ops' outcomes."""
    rng = np.random.default_rng(seed)
    manager = build_manager(layout)
    tracer = attach_tracer(manager) if traced else None
    num_devices = len(manager.pools)
    live: dict[int, int] = {}  # seq_id -> tokens covered by its table
    next_id = 0
    migrations = 0
    bulk: collections.Counter[str] = collections.Counter()
    note = f"layout={layout} seed={seed}"

    for step in range(steps):
        op = rng.choice(["alloc", "grow", "grow_many", "migrate", "free"])
        try:
            if op == "alloc" and rng.integers(0, 2):
                # A prefix sharer: its release by a migration or a free
                # drops shared references and may cut a prefix's run.
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
            elif op == "alloc":
                tokens = int(rng.integers(1, 40))
                if manager.can_allocate(tokens):
                    manager.allocate(next_id, tokens)
                    live[next_id] = tokens
                    next_id += 1
                else:
                    with pytest.raises(KVCacheExhausted):
                        manager.allocate(next_id, tokens)
            elif op == "grow" and live:
                seq_id = int(rng.choice(sorted(live)))
                blocks = int(rng.integers(1, 3))
                if blocks <= manager.free_blocks_on(manager.home_device(seq_id)):
                    manager.grow(seq_id, blocks)
                    live[seq_id] += blocks * BLOCK_SIZE
                else:
                    with pytest.raises(KVCacheExhausted):
                        manager.grow(seq_id, blocks)
            elif op == "grow_many" and live:
                bulk[check_bulk_grow(manager, tracer, rng, live, next_id + 1_000_000)] += 1
            elif op == "migrate" and live:
                seq_id = int(rng.choice(sorted(live)))
                src = manager.home_device(seq_id)
                dst = int(rng.integers(0, num_devices))
                held = manager.blocks_held(seq_id)
                before = manager.migrations
                if dst == src:
                    # Degenerate self-migration: a counted no-op is a bug.
                    assert manager.migrate(seq_id, src, dst) == held
                    assert manager.migrations == before
                    assert manager.home_device(seq_id) == src
                elif held <= manager.free_blocks_on(dst):
                    moved = manager.migrate(seq_id, src, dst)
                    assert moved == held
                    assert manager.home_device(seq_id) == dst
                    assert manager.blocks_held(seq_id) == held
                    assert manager.pools[src].blocks_held(seq_id) == 0
                    assert manager.migrations == before + 1
                    migrations += 1
                else:
                    # The destination cannot fit: the migration must fail
                    # atomically, leaving the source table untouched.
                    table_before = list(manager.block_table(seq_id))
                    with pytest.raises(KVCacheExhausted):
                        manager.migrate(seq_id, src, dst)
                    assert manager.home_device(seq_id) == src
                    assert list(manager.block_table(seq_id)) == table_before
                    assert manager.migrations == before
                # Migrating a sequence no pool knows must always fail.
                with pytest.raises(KVCacheExhausted):
                    manager.migrate(next_id + 1_000_000, src, dst)
            elif op == "free" and live:
                seq_id = int(rng.choice(sorted(live)))
                manager.free(seq_id)
                del live[seq_id]
        except AssertionError:
            raise
        except Exception as exc:  # pragma: no cover - diagnostic wrapper
            raise AssertionError(f"{note} step={step} op={op}: {exc!r}") from exc
        assert_cross_device_invariants(manager, live)

    for seq_id in sorted(live):
        manager.free(seq_id)
    manager.assert_no_leaks()
    return migrations, bulk


class TestRandomMigrationSequences:
    """Seeded fast-tier episodes (run in CI on every push)."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_invariants_hold_after_every_op(self, layout, seed):
        migrations, bulk = drive_migration_ops(layout, seed=seed, steps=1200)
        # The episode must actually move KV around, not no-op out, and
        # bulk grows over migrated tables must succeed and fail each way.
        assert migrations > 50
        assert bulk["spread"] > 5
        assert bulk["unknown"] and bulk["declined"] and bulk["overdraw"]

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_untraced_bulk_grow_over_migrated_tables(self, layout, seed):
        migrations, bulk = drive_migration_ops(layout, seed=seed, steps=1200, traced=False)
        assert migrations > 50
        assert bulk["spread"] > 5
        assert bulk["unknown"] and bulk["declined"] and bulk["overdraw"]


@pytest.mark.slow
class TestRandomMigrationSequencesLong:
    """The long randomized sweep (weekly benchmark-smoke workflow)."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("seed", range(2, 12))
    def test_long_episodes(self, layout, seed):
        drive_migration_ops(layout, seed=seed, steps=5000)


class TestSwapStateMachine:
    """Sequence-level swap_out/swap_in lifecycle properties."""

    def _running_sequence(self, generated=3):
        seq = Sequence(Request(0, arrival_time=0.0, prompt_tokens=16, max_new_tokens=8))
        seq.admit(0.0)
        seq.advance(0.1)  # completes prefill, emits token 1
        for i in range(generated - 1):
            seq.advance(0.2 + i * 0.1)
        return seq

    def test_swap_out_preserves_prefill_state(self):
        seq = self._running_sequence()
        written = seq.kv_tokens_written()
        swapped = seq.swap_out()
        assert swapped == written
        assert seq.swapped_tokens == written
        assert seq.state is RequestState.PREEMPTED
        assert seq.prefill_done  # unlike preempt(), nothing is discarded
        assert seq.generated_tokens == 3
        assert seq.preemptions == 1

    def test_swap_out_requires_running(self):
        seq = Sequence(Request(0, arrival_time=0.0, prompt_tokens=16, max_new_tokens=8))
        with pytest.raises(RuntimeError):
            seq.swap_out()
        running = self._running_sequence()
        running.swap_out()
        with pytest.raises(RuntimeError):
            running.swap_out()  # already parked

    def test_recompute_preempt_discards_what_swap_keeps(self):
        swapped = self._running_sequence()
        recomputed = self._running_sequence()
        swapped.swap_out()
        recomputed.preempt()
        assert swapped.prefill_done and not recomputed.prefill_done
        assert swapped.swapped_tokens > 0
        assert recomputed.swapped_tokens == 0


def _run_disagg(seed, preempt_mode, num_blocks=36, with_tracer=False):
    engine = ServingEngine(
        MiLoBackend(),
        "mixtral-8x7b",
        EngineConfig(
            block_size=8, kv_policy="ondemand", max_batch_size=1000,
            devices=3, prefill_devices=1, decode_devices=2,
            preempt_mode=preempt_mode,
        ),
    )
    for pool in engine.block_manager.pools:
        pool.num_blocks = num_blocks
    tracer = None
    if with_tracer:
        tracer = Tracer()
        engine.enable_telemetry(tracer)
    workload = poisson_workload(
        25, qps=70.0, seed=seed, mean_prompt_tokens=48, mean_new_tokens=96,
    )
    report = engine.run(workload)
    return engine, report, tracer


class TestRandomDisaggRuns:
    """End-to-end randomized properties of the disaggregated engine."""

    @pytest.mark.parametrize("preempt_mode", ["recompute", "swap"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_conservation_and_counter_reconciliation(self, seed, preempt_mode):
        engine, report, tracer = _run_disagg(seed, preempt_mode, with_tracer=True)
        out = report.to_dict()
        # Conservation: every request lands in exactly one terminal state.
        assert report.completed + report.rejected + report.stranded == 25
        assert report.completed >= 20
        migration = out["migration"]
        # The manager's own migration counters must equal the report's
        # handoff + rebalance accounting — nothing moves off the books.
        assert engine.block_manager.migrations == (
            migration["handoffs"] + migration["rebalances"]
        )
        assert engine.block_manager.migrated_blocks == (
            migration["handoff_blocks"] + migration["rebalanced_blocks"]
        )
        assert migration["handoffs"] > 0  # the regime was actually disagg
        if preempt_mode == "swap":
            assert migration["swaps"] == report.preemptions
            # Every swap eventually swapped back in (all requests completed
            # or were rejected; none stranded holding host-parked KV).
            assert migration["swap_in_s"] > 0 or migration["swaps"] == 0
            assert migration["recompute_equivalent_s"] >= 0.0
        else:
            assert migration["swaps"] == 0
            assert migration["swap_in_s"] == 0.0
        # Trace reconciliation: analyze sums the exact stall floats.
        summary = analyze_trace(tracer.events, meta=tracer.meta)
        observed = summary["migration"]
        for key in (
            "handoffs", "handoff_blocks", "handoff_s",
            "rebalances", "rebalanced_blocks", "rebalance_s",
            "swaps", "swapped_blocks", "swap_in_s",
        ):
            assert observed[key] == migration[key], key
        engine.block_manager.assert_no_leaks()
        # Pool-direction invariants, checked on the raw event stream: KV
        # only ever enters the cluster through the prefill pool, handoffs
        # only go prefill → decode, and rebalance migrations stay inside
        # the decode pool.  (A request *can* finish homed on a prefill
        # device — when every handoff attempt finds the decode pool full it
        # is preempted and retried, and the retry's prefill-completion
        # token may be its last — so per-request final homes are not the
        # invariant; per-move directions are.)
        prefill_pool = set(range(engine.config.prefill_devices))
        decode_pool = set(range(engine.config.prefill_devices, engine.config.devices))
        admitted_once: set[int] = set()
        for event in tracer.events:
            if event["kind"] == "handoff":
                assert event["src"] in prefill_pool
                assert event["dst"] in decode_pool
            elif event["kind"] == "migrate":
                assert event["src"] in decode_pool
                assert event["dst"] in decode_pool
            elif event["kind"] == "kv" and event["op"] == "alloc":
                # First admission always lands on the prefill pool; later
                # re-admissions may not (a swapped decode-phase sequence
                # resumes on its old decode home).
                if event["seq"] not in admitted_once:
                    assert event["device"] in prefill_pool
                    admitted_once.add(event["seq"])

    @pytest.mark.parametrize("preempt_mode", ["recompute", "swap"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_disagg_replay_determinism(self, seed, preempt_mode):
        """Same seed, same config → byte-identical report, twice over."""
        first = _run_disagg(seed, preempt_mode)[1].to_dict()
        second = _run_disagg(seed, preempt_mode)[1].to_dict()
        assert first == second


@pytest.mark.slow
class TestRandomDisaggRunsLong:
    """The long disagg sweep (weekly benchmark-smoke workflow)."""

    @pytest.mark.parametrize("preempt_mode", ["recompute", "swap"])
    @pytest.mark.parametrize("seed", range(2, 8))
    def test_long_episodes(self, seed, preempt_mode):
        engine, report, tracer = _run_disagg(
            seed, preempt_mode, num_blocks=30, with_tracer=True
        )
        assert report.completed + report.rejected + report.stranded == 25
        summary = analyze_trace(tracer.events, meta=tracer.meta)
        migration = report.to_dict()["migration"]
        assert summary["migration"]["handoff_s"] == migration["handoff_s"]
        engine.block_manager.assert_no_leaks()
