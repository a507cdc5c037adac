"""Tests for the paged KV-cache block manager and its memory accounting."""

import pytest

from repro.models import FULL_MODEL_SPECS
from repro.serving import BlockManager, KVCacheExhausted, blocks_for_budget, kv_block_bytes

MIXTRAL = FULL_MODEL_SPECS["mixtral-8x7b"]


class TestKVGeometry:
    def test_mixtral_kv_bytes_per_token(self):
        # 2 (K+V) * 32 layers * 8 kv heads * 128 head dim * 2 bytes = 128 KiB.
        assert MIXTRAL.kv_bytes_per_token == 131072

    def test_block_bytes_scale_with_block_size(self):
        assert kv_block_bytes(MIXTRAL, 16) == 16 * MIXTRAL.kv_bytes_per_token
        with pytest.raises(ValueError):
            kv_block_bytes(MIXTRAL, 0)

    def test_blocks_for_budget(self):
        one_block_gb = kv_block_bytes(MIXTRAL, 16) / 1024**3
        assert blocks_for_budget(MIXTRAL, 10 * one_block_gb, 16) == 10
        assert blocks_for_budget(MIXTRAL, 0.0, 16) == 0
        assert blocks_for_budget(MIXTRAL, -1.0, 16) == 0


class TestBlockManager:
    def test_blocks_needed_rounds_up(self):
        mgr = BlockManager(num_blocks=10, block_size=16)
        assert mgr.blocks_needed(1) == 1
        assert mgr.blocks_needed(16) == 1
        assert mgr.blocks_needed(17) == 2
        with pytest.raises(ValueError):
            mgr.blocks_needed(0)

    def test_allocate_and_free_roundtrip(self):
        mgr = BlockManager(num_blocks=10, block_size=16)
        taken = mgr.allocate(seq_id=1, num_tokens=40)  # 3 blocks
        assert taken == 3
        assert mgr.used_blocks == 3 and mgr.free_blocks == 7
        assert mgr.free(1) == 3
        assert mgr.used_blocks == 0 and mgr.free_blocks == 10

    def test_exhaustion_raises_typed_error(self):
        mgr = BlockManager(num_blocks=2, block_size=16)
        assert not mgr.can_allocate(33)
        with pytest.raises(KVCacheExhausted):
            mgr.allocate(seq_id=1, num_tokens=33)

    def test_double_allocate_and_unknown_free_raise(self):
        mgr = BlockManager(num_blocks=4, block_size=16)
        mgr.allocate(seq_id=1, num_tokens=16)
        with pytest.raises(KVCacheExhausted):
            mgr.allocate(seq_id=1, num_tokens=16)
        with pytest.raises(KVCacheExhausted):
            mgr.free(2)

    def test_leak_check(self):
        mgr = BlockManager(num_blocks=4, block_size=16)
        mgr.assert_no_leaks()
        mgr.allocate(seq_id=7, num_tokens=16)
        with pytest.raises(KVCacheExhausted, match="7"):
            mgr.assert_no_leaks()
        mgr.free(7)
        mgr.assert_no_leaks()

    def test_fits_at_all_vs_can_allocate(self):
        mgr = BlockManager(num_blocks=4, block_size=16)
        mgr.allocate(seq_id=1, num_tokens=48)  # 3 of 4 blocks
        assert mgr.fits_at_all(32)      # an empty pool could hold it
        assert not mgr.can_allocate(32)  # but not right now
        assert not mgr.fits_at_all(80)  # 5 blocks can never fit

    def test_max_sequences(self):
        mgr = BlockManager(num_blocks=12, block_size=16)
        assert mgr.max_sequences(48) == 4   # 3 blocks each
        assert mgr.max_sequences(17) == 6   # 2 blocks each
        assert mgr.max_sequences(1000) == 0

    def test_many_sequences_conserve_pool(self):
        mgr = BlockManager(num_blocks=100, block_size=8)
        for i in range(20):
            mgr.allocate(seq_id=i, num_tokens=8 * (1 + i % 3))
        assert mgr.used_blocks + mgr.free_blocks == mgr.num_blocks
        for i in range(20):
            mgr.free(i)
        assert mgr.free_blocks == 100
        assert mgr.outstanding_sequences == 0


class TestBlockIdentity:
    """Blocks are numbered, tabled per sequence, and partition the pool."""

    def test_block_tables_hold_distinct_ids(self):
        mgr = BlockManager(num_blocks=8, block_size=8)
        mgr.allocate(seq_id=1, num_tokens=24)  # 3 blocks
        mgr.allocate(seq_id=2, num_tokens=16)  # 2 blocks
        t1, t2 = mgr.block_table(1), mgr.block_table(2)
        assert len(t1) == 3 and len(t2) == 2
        assert len(set(t1) | set(t2)) == 5  # private allocations never alias
        assert all(0 <= b < 8 for b in t1 + t2)

    def test_grow_appends_to_the_table(self):
        mgr = BlockManager(num_blocks=8, block_size=8)
        mgr.allocate(seq_id=1, num_tokens=8)
        before = mgr.block_table(1)
        assert mgr.grow(1, 2) == 3
        after = mgr.block_table(1)
        assert after[: len(before)] == before  # existing mapping untouched
        mgr.check_invariants()

    def test_invariants_hold_after_every_operation(self):
        mgr = BlockManager(num_blocks=16, block_size=8)
        mgr.check_invariants()
        for i in range(4):
            mgr.allocate(seq_id=i, num_tokens=8 * (1 + i))
            mgr.check_invariants()
        mgr.grow(0, 2)
        mgr.check_invariants()
        for i in range(4):
            freed = mgr.free(i)
            assert freed > 0
            mgr.check_invariants()
        assert mgr.free_blocks == 16
        mgr.assert_no_leaks()

    def test_freed_ids_are_recycled(self):
        mgr = BlockManager(num_blocks=2, block_size=8)
        mgr.allocate(seq_id=1, num_tokens=16)
        mgr.free(1)
        mgr.allocate(seq_id=2, num_tokens=16)
        assert set(mgr.block_table(2)) == {0, 1}

    def test_pool_resize_rebuilds_free_list(self):
        mgr = BlockManager(num_blocks=4, block_size=8)
        mgr.num_blocks = 10
        assert mgr.free_blocks == 10
        mgr.allocate(seq_id=1, num_tokens=8)
        mgr.check_invariants()
        mgr.num_blocks = 5  # shrink around the single allocated block (id 0)
        assert mgr.free_blocks == 4
        mgr.check_invariants()
        with pytest.raises(KVCacheExhausted):
            mgr.num_blocks = 0  # would strand the allocated block
        mgr.free(1)
        mgr.num_blocks = 0
        assert mgr.free_blocks == 0


class TestPrefixSharing:
    """Shared prompt prefixes map the same physical blocks read-only."""

    def test_first_sharer_registers_then_second_hits(self):
        mgr = BlockManager(num_blocks=8, block_size=8)
        # 32 prefix tokens = 4 full blocks, prompt 40 -> 5 blocks total.
        fresh, hit_tokens = mgr.allocate_shared(1, 40, prefix_id=7, prefix_tokens=32)
        assert (fresh, hit_tokens) == (5, 0)
        fresh, hit_tokens = mgr.allocate_shared(2, 40, prefix_id=7, prefix_tokens=32)
        assert (fresh, hit_tokens) == (1, 32)  # only the private tail is new
        assert mgr.block_table(1)[:4] == mgr.block_table(2)[:4]
        assert mgr.block_table(1)[4] != mgr.block_table(2)[4]
        assert mgr.used_blocks == 6  # 4 shared + 2 private, not 10
        assert mgr.shared_blocks == 4
        assert mgr.shared_blocks_held(1) == 4
        assert mgr.prefix_hit_blocks == 4 and mgr.prefix_hit_tokens == 32
        mgr.check_invariants()

    def test_different_prefix_ids_do_not_alias(self):
        mgr = BlockManager(num_blocks=8, block_size=8)
        mgr.allocate_shared(1, 16, prefix_id=0, prefix_tokens=16)
        fresh, hit_tokens = mgr.allocate_shared(2, 16, prefix_id=1, prefix_tokens=16)
        assert (fresh, hit_tokens) == (2, 0)
        assert not set(mgr.block_table(1)) & set(mgr.block_table(2))

    def test_can_allocate_shared_accounts_resident_hits(self):
        mgr = BlockManager(num_blocks=6, block_size=8)
        mgr.allocate_shared(1, 40, prefix_id=3, prefix_tokens=32)  # all 5 blocks... 5 of 6
        # A plain allocation of 40 tokens (5 blocks) can no longer fit, but a
        # sharer needing only 1 fresh block can.
        assert not mgr.can_allocate(40)
        assert mgr.can_allocate_shared(40, prefix_id=3, prefix_tokens=32)
        assert not mgr.can_allocate_shared(40, prefix_id=9, prefix_tokens=32)

    def test_sharer_release_frees_only_private_blocks(self):
        mgr = BlockManager(num_blocks=8, block_size=8)
        mgr.allocate_shared(1, 40, prefix_id=0, prefix_tokens=32)
        mgr.allocate_shared(2, 40, prefix_id=0, prefix_tokens=32)
        assert mgr.free(2) == 1  # its private tail block only
        assert mgr.used_blocks == 5  # sharer 1 keeps prefix + tail
        assert mgr.shared_blocks == 0
        mgr.check_invariants()

    def test_index_evicted_with_last_holder(self):
        mgr = BlockManager(num_blocks=8, block_size=8)
        mgr.allocate_shared(1, 32, prefix_id=0, prefix_tokens=32)
        mgr.free(1)
        assert mgr.free_blocks == 8
        # The prefix no longer hits: its blocks went back to the free list.
        fresh, hit_tokens = mgr.allocate_shared(2, 32, prefix_id=0, prefix_tokens=32)
        assert (fresh, hit_tokens) == (4, 0)
        mgr.free(2)
        mgr.assert_no_leaks()

    def test_partial_tail_block_shared_only_on_request(self):
        mgr = BlockManager(num_blocks=8, block_size=8)
        # 20 prefix tokens: 2 full blocks + 1 partial.
        mgr.allocate_shared(1, 20, prefix_id=0, prefix_tokens=20, share_partial=True)
        fresh, hit_tokens = mgr.allocate_shared(
            2, 20, prefix_id=0, prefix_tokens=20, share_partial=True
        )
        assert fresh == 0
        assert hit_tokens == 20  # 2 full blocks (16) + 4 valid tokens of the tail
        assert mgr.block_table(1) == mgr.block_table(2)
        mgr.free(1)
        mgr.free(2)
        # Without share_partial the tail stays private per holder.
        mgr.allocate_shared(3, 20, prefix_id=1, prefix_tokens=20)
        fresh, hit_tokens = mgr.allocate_shared(4, 20, prefix_id=1, prefix_tokens=20)
        assert fresh == 1
        assert hit_tokens == 16
        assert mgr.block_table(3)[2] != mgr.block_table(4)[2]

    def test_filling_a_gap_extends_the_run_over_resident_entries(self):
        mgr = BlockManager(num_blocks=12, block_size=4)
        mgr.allocate_shared(1, 16, prefix_id=0, prefix_tokens=16)  # registers 0-3
        first = mgr.block_table(1)
        mgr.ensure_writable(1, 5)  # sole holder of block 1: un-registered in place
        assert mgr.prefix_hits(0, 16) == 1  # the gap at block 1 ends the run
        # A sharer of an 8-token prefix hits block 0 and registers a fresh
        # block 1; blocks 2 and 3 stayed resident, so the run now covers 4.
        fresh, hit_tokens = mgr.allocate_shared(2, 8, prefix_id=0, prefix_tokens=8)
        assert (fresh, hit_tokens) == (1, 4)
        assert mgr.prefix_hits(0, 16) == 4 and mgr.prefix_hits(0, 40) == 4
        mgr.check_invariants()
        fresh, hit_tokens = mgr.allocate_shared(3, 16, prefix_id=0, prefix_tokens=16)
        assert (fresh, hit_tokens) == (0, 16)
        assert mgr.block_table(3) == (first[0], mgr.block_table(2)[1], first[2], first[3])
        # A last-holder release cuts the run where the index loses an entry.
        mgr.free(2)
        assert mgr.prefix_hits(0, 16) == 4  # sequence 3 still holds block 1
        mgr.free(3)
        assert mgr.prefix_hits(0, 16) == 1
        mgr.check_invariants()
        mgr.free(1)
        assert mgr.prefix_hits(0, 16) == 0
        mgr.assert_no_leaks()

    def test_check_invariants_recounts_the_runs(self):
        mgr = BlockManager(num_blocks=8, block_size=4)
        mgr.allocate_shared(1, 16, prefix_id=0, prefix_tokens=16)
        mgr._prefix_run[0] = 3
        with pytest.raises(KVCacheExhausted, match="prefix runs"):
            mgr.check_invariants()

    def test_exhaustion_raises_before_mutation(self):
        mgr = BlockManager(num_blocks=3, block_size=8)
        mgr.allocate(1, 24)
        with pytest.raises(KVCacheExhausted):
            mgr.allocate_shared(2, 16, prefix_id=0, prefix_tokens=16)
        assert mgr.outstanding_sequences == 1
        mgr.check_invariants()

    def test_leak_check_covers_sharing(self):
        mgr = BlockManager(num_blocks=8, block_size=8)
        mgr.allocate_shared(1, 32, prefix_id=0, prefix_tokens=32)
        mgr.allocate_shared(2, 32, prefix_id=0, prefix_tokens=32)
        with pytest.raises(KVCacheExhausted, match="1, 2"):
            mgr.assert_no_leaks()
        mgr.free(1)
        mgr.free(2)
        mgr.assert_no_leaks()


class TestCopyOnWrite:
    def shared_pair(self):
        mgr = BlockManager(num_blocks=8, block_size=8)
        # Whole prompt is the prefix; tail block holds 4 of its 8 slots.
        mgr.allocate_shared(1, 20, prefix_id=0, prefix_tokens=20, share_partial=True)
        mgr.allocate_shared(2, 20, prefix_id=0, prefix_tokens=20, share_partial=True)
        return mgr

    def test_fork_then_diverge_leaves_sharer_intact(self):
        mgr = self.shared_pair()
        sharer_table = mgr.block_table(1)
        assert mgr.cow_cost(2, 20) == 1  # tail block is shared: a write copies
        consumed = mgr.ensure_writable(2, 20)
        assert consumed == 1 and mgr.cow_copies == 1
        assert mgr.block_table(1) == sharer_table  # sharer untouched
        assert mgr.block_table(2)[:2] == sharer_table[:2]  # full blocks still shared
        assert mgr.block_table(2)[2] != sharer_table[2]  # writer owns a copy
        # The original tail stays in the index: a third sharer still hits it.
        fresh, hit_tokens = mgr.allocate_shared(
            3, 20, prefix_id=0, prefix_tokens=20, share_partial=True
        )
        assert fresh == 0 and hit_tokens == 20
        mgr.check_invariants()

    def test_sole_holder_unregisters_in_place(self):
        mgr = BlockManager(num_blocks=8, block_size=8)
        mgr.allocate_shared(1, 20, prefix_id=0, prefix_tokens=20, share_partial=True)
        table = mgr.block_table(1)
        assert mgr.cow_cost(1, 20) == 0  # refcount 1: no copy needed
        assert mgr.ensure_writable(1, 20) == 0
        assert mgr.block_table(1) == table  # mutated in place
        assert mgr.cow_copies == 0
        # The diverged block left the index: a new sharer misses the tail.
        fresh, hit_tokens = mgr.allocate_shared(
            2, 20, prefix_id=0, prefix_tokens=20, share_partial=True
        )
        assert fresh == 1 and hit_tokens == 16
        mgr.check_invariants()

    def test_private_blocks_need_no_cow(self):
        mgr = BlockManager(num_blocks=4, block_size=8)
        mgr.allocate(1, 20)
        assert mgr.cow_cost(1, 20) == 0
        assert mgr.ensure_writable(1, 20) == 0

    def test_write_beyond_table_is_loud(self):
        mgr = BlockManager(num_blocks=4, block_size=8)
        mgr.allocate(1, 8)
        with pytest.raises(KVCacheExhausted, match="grow before writing"):
            mgr.ensure_writable(1, 8)

    def test_stats_reset(self):
        mgr = self.shared_pair()
        mgr.ensure_writable(2, 20)
        assert mgr.prefix_hit_blocks > 0 and mgr.cow_copies == 1
        mgr.reset_stats()
        assert mgr.prefix_hit_blocks == 0 and mgr.prefix_hit_tokens == 0
        assert mgr.cow_copies == 0 and mgr.physical_allocs == 0
