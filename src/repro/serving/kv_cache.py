"""Paged KV-cache: physical block pool + pluggable allocation policies.

The serving engine partitions the VRAM left over after the model weights
(:meth:`repro.runtime.backends.InferenceBackend.free_memory_gb`, which raises
the shared :class:`~repro.runtime.backends.OutOfMemoryError` when the weights
alone do not fit) into fixed-size *blocks* of ``block_size`` tokens of KV
state, vLLM-style.  A sequence holds ``ceil(tokens / block_size)`` blocks.

Two layers live here:

* :class:`BlockManager` — the **physical pool**: numbered blocks on a free
  list, a per-sequence *block table* mapping logical block slots to physical
  block ids, a per-block reference count, and a hash-keyed *prefix index*
  that lets sequences sharing a common prompt prefix map the same physical
  blocks read-only.  The first write into a still-shared block triggers
  copy-on-write (:meth:`BlockManager.ensure_writable`).
* :class:`AllocationPolicy` — the **decision layer** the scheduler talks to.
  :class:`ReservationPolicy` reserves a request's full ``prompt +
  max_new_tokens`` extent before admitting it, so a running sequence can
  never hit an out-of-blocks condition mid-decode (deterministic, trivially
  checkable, the PR 1 default).  :class:`OnDemandPolicy` allocates blocks
  only as KV state is actually written, which packs strictly more concurrent
  sequences into the same pool — the vLLM tradeoff — at the price of
  mid-decode exhaustion, which the scheduler resolves by preempting the
  lowest-precedence running sequence (recompute-on-resume).

Prefix sharing
--------------
A :class:`~repro.serving.request.Request` may declare that its first
``prefix_tokens`` prompt tokens are drawn from a shared prefix identified by
``prefix_id`` (e.g. one of K system prompts).  The prefix index keys each
*full* block of that region by ``(prefix_id, block_index)``, and the pool
keeps the length of each prefix's *resident run* (its index entries from
block 0 up to the first gap); admission maps the run's blocks read-only
(refcount++) instead of taking fresh ones, so K concurrent sequences with a
common prefix store its KV once.  A trailing partially-filled prefix block
is shared only when the whole prompt *is* the prefix (otherwise divergent
prompt tokens would land in it during prefill); the first divergent write
into such a block is copy-on-write: the writer gets a private copy, the
sharers keep the original.
Releasing a sharer (finish *or* preemption) only returns blocks whose
refcount drops to zero — preempting a sharer frees just its private blocks.

Either way, the pool is the quantity the paper's memory story improves: a
3-bit MiLo checkpoint leaves ~2x more free VRAM on a 40 GB A100 than a
16-bit one, which shows up here as a proportionally larger block pool and
therefore a larger sustainable batch — and deduplicated prefixes stretch
that pool further still.

Per-token KV footprint comes from
:attr:`repro.models.registry.FullModelSpec.kv_bytes_per_token`.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable

from ..models.registry import FullModelSpec
from .request import Request, Sequence

if TYPE_CHECKING:
    from .telemetry.tracer import Tracer

__all__ = [
    "KVCacheExhausted",
    "BlockManager",
    "AllocationPolicy",
    "ReservationPolicy",
    "OnDemandPolicy",
    "ALLOCATION_POLICIES",
    "make_allocation_policy",
    "kv_block_bytes",
    "blocks_for_budget",
]

_GB = 1024**3


class KVCacheExhausted(RuntimeError):
    """Raised when a block allocation exceeds the pool (engine bug, not OOM).

    Admission control checks :meth:`BlockManager.can_allocate` first, so in a
    correctly-behaving engine this never propagates to callers; it exists to
    make scheduler violations loud in tests rather than silently corrupting
    the accounting.
    """


def kv_block_bytes(spec: FullModelSpec, block_size: int) -> int:
    """Bytes of one KV block (``block_size`` tokens) for a full-size model."""
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    return spec.kv_bytes_per_token * block_size


def blocks_for_budget(spec: FullModelSpec, free_gb: float, block_size: int) -> int:
    """How many KV blocks fit in ``free_gb`` of leftover VRAM."""
    if free_gb <= 0:
        return 0
    return int(free_gb * _GB // kv_block_bytes(spec, block_size))


class BlockManager:
    """Fixed-pool paged allocator with block identity and prefix sharing.

    Every block has an id; free ids live on a stack (lowest id allocated
    first), allocated ids carry a refcount, and each sequence owns a block
    table listing the physical block backing each of its logical block
    slots.  Blocks registered in the prefix index are immutable while
    shared; writes into them go through :meth:`ensure_writable` (in-place
    un-registration at refcount 1, copy-on-write above).
    """

    def __init__(self, num_blocks: int, block_size: int) -> None:
        if num_blocks < 0:
            raise ValueError("num_blocks must be non-negative")
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.block_size = block_size
        self._num_blocks = num_blocks
        #: Stack of free block ids; pop() hands out the lowest id first.
        self._free: list[int] = list(range(num_blocks - 1, -1, -1))
        #: Refcount per allocated block id.
        self._ref: dict[int, int] = {}
        #: Per-sequence block table: seq_id -> [block_id, ...] in token order.
        self._tables: dict[int, list[int]] = {}
        #: (prefix_id, block_index) -> block id of a resident shareable block.
        self._prefix_index: dict[tuple[int, int], int] = {}
        #: Reverse map of the prefix index (block id -> key).
        self._prefix_key: dict[int, tuple[int, int]] = {}
        #: prefix_id -> length of the run of index entries resident from
        #: block 0 (``(prefix_id, 0)``, ``(prefix_id, 1)``, ...).  Kept at
        #: the three places the index changes, so :meth:`prefix_hits` never
        #: walks the index; prefix ids with an empty run are absent.
        self._prefix_run: dict[int, int] = {}
        #: Blocks with refcount > 1, maintained at the 1<->2 transitions so
        #: the per-iteration :attr:`shared_blocks` probe is O(1).
        self._shared_count = 0
        #: Bumped whenever :attr:`used_blocks` or :attr:`shared_blocks` may
        #: have risen (a take off the free list, or a refcount going from 1
        #: to 2), so peak trackers can skip re-reading them while it stands
        #: still.  A take counts once however many blocks it hands out — a
        #: :meth:`grow_many` bulk take is one rise — so only *changes* of
        #: the value mean anything, never its size.  Monotone; never reset.
        self.rises = 0
        #: Optional telemetry sink (attached by
        #: :meth:`~repro.serving.engine.ServingEngine.enable_telemetry`) and
        #: this pool's device index in a sharded cluster (stamped by
        #: :class:`~repro.serving.cluster.ShardedBlockManager`).  Every hook
        #: below is ``is not None``-guarded, so the disabled path costs one
        #: attribute test per pool *mutation* — never per block.
        self.tracer: Tracer | None = None
        self.device_index = 0
        self.reset_stats()

    def reset_stats(self) -> None:
        """Zero the cumulative sharing counters (per engine run)."""
        #: Physical blocks ever taken from the free list.
        self.physical_allocs = 0
        #: Admissions served from the prefix index instead of the free list.
        self.prefix_hit_blocks = 0
        #: Tokens of KV state those hits covered.
        self.prefix_hit_tokens = 0
        #: Copy-on-write block copies performed.
        self.cow_copies = 0

    # -- queries -----------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        return self._num_blocks

    @num_blocks.setter
    def num_blocks(self, value: int) -> None:
        """Resize the pool; allocated blocks must all fit the new range."""
        if value < 0:
            raise ValueError("num_blocks must be non-negative")
        if any(block_id >= value for block_id in self._ref):
            raise KVCacheExhausted(
                f"cannot shrink pool to {value} blocks: allocated ids exceed it"
            )
        self._num_blocks = value
        allocated = set(self._ref)
        self._free = [b for b in range(value - 1, -1, -1) if b not in allocated]

    def blocks_needed(self, num_tokens: int) -> int:
        """Blocks required to hold ``num_tokens`` tokens of KV state."""
        if num_tokens <= 0:
            raise ValueError("num_tokens must be positive")
        return -(-num_tokens // self.block_size)

    @property
    def used_blocks(self) -> int:
        """Physical blocks taken from the pool (shared blocks count once)."""
        return self._num_blocks - len(self._free)

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def shared_blocks(self) -> int:
        """Physical blocks currently mapped by more than one sequence."""
        return self._shared_count

    @property
    def outstanding_sequences(self) -> int:
        """Sequences currently holding blocks (0 after a clean engine run)."""
        return len(self._tables)

    def sequences(self) -> tuple[int, ...]:
        """Ids of the sequences currently holding blocks, in sorted order."""
        return tuple(sorted(self._tables))

    def home_device(self, seq_id: int) -> int:
        """Device index of this pool — always 0 for the single-device pool.

        The scheduler's placement-aware preemption math asks for a
        sequence's home device and the free blocks on it; a plain pool
        answers 0 / :attr:`free_blocks`, so the single-device scheduler
        reduces bit-for-bit to the pre-sharding behavior
        (:class:`~repro.serving.cluster.ShardedBlockManager` answers with
        real per-device state).
        """
        return 0

    def free_blocks_on(self, device: int) -> int:
        """Free blocks on one device — the whole pool for a single device."""
        if device != 0:
            raise KVCacheExhausted(f"single-device pool has no device {device}")
        return len(self._free)

    def blocks_held(self, seq_id: int) -> int:
        """Logical blocks in a sequence's table (0 if it holds none)."""
        table = self._tables.get(seq_id)
        return len(table) if table is not None else 0

    def shared_blocks_held(self, seq_id: int) -> int:
        """Blocks in a sequence's table that other sequences also map."""
        table = self._tables.get(seq_id)
        if not table:
            return 0
        return sum(1 for block_id in table if self._ref[block_id] > 1)

    def writable_in_place(self, seq_id: int, token_index: int) -> bool:
        """Whether a write at ``token_index`` needs no block and no bookkeeping.

        True when the token lies inside the sequence's table in a block it
        holds alone that is not in the prefix index — neither growth,
        copy-on-write nor un-registration is due.  A pure query.
        """
        table = self._tables.get(seq_id)
        idx = token_index // self.block_size
        if table is None or idx >= len(table):
            return False
        block_id = table[idx]
        return self._ref[block_id] == 1 and block_id not in self._prefix_key

    def block_table(self, seq_id: int) -> tuple[int, ...]:
        """The sequence's physical block ids, in token order (read-only view)."""
        return tuple(self._tables.get(seq_id, ()))

    def can_allocate(self, num_tokens: int) -> bool:
        return self.blocks_needed(num_tokens) <= self.free_blocks

    def pick_home(self, num_tokens: int) -> int | None:
        """Device an allocation of ``num_tokens`` would land on (0), if any."""
        return 0 if self.blocks_needed(num_tokens) <= len(self._free) else None

    def pick_shared_home(
        self, num_tokens: int, prefix_id: int, prefix_tokens: int, share_partial: bool
    ) -> int | None:
        """Device a prefix-sharing allocation would land on (0), if any."""
        fits = self.can_allocate_shared(num_tokens, prefix_id, prefix_tokens, share_partial)
        return 0 if fits else None

    def fits_at_all(self, num_tokens: int) -> bool:
        """Whether an empty pool could ever hold ``num_tokens`` tokens."""
        return self.blocks_needed(num_tokens) <= self._num_blocks

    def max_sequences(self, tokens_per_sequence: int) -> int:
        """Concurrent sequences of a given length an empty pool sustains."""
        needed = self.blocks_needed(tokens_per_sequence)
        return self._num_blocks // needed if needed else 0

    # -- prefix sharing ----------------------------------------------------------
    def _shareable_blocks(self, prefix_tokens: int, share_partial: bool) -> int:
        """Prefix-region blocks eligible for the index (full + optional tail)."""
        full = prefix_tokens // self.block_size
        partial = 1 if share_partial and prefix_tokens % self.block_size else 0
        return full + partial

    def prefix_hits(self, prefix_id: int, prefix_tokens: int, share_partial: bool = False) -> int:
        """Resident shareable blocks for this prefix, as a contiguous run from 0.

        Sharing stops at the first non-resident block so the covered tokens
        always form a prefix of the KV stream (a hit for block 2 without
        block 1 would be unusable).  The run's length is kept up to date as
        the index changes, so this is two lookups, not a walk of the index.
        """
        run = self._prefix_run.get(prefix_id, 0)
        shareable = self._shareable_blocks(prefix_tokens, share_partial)
        return run if run < shareable else shareable

    def _unregister(self, key: tuple[int, int]) -> None:
        """Drop ``key`` from the prefix index, cutting its prefix's run there."""
        block_id = self._prefix_index.pop(key)
        del self._prefix_key[block_id]
        prefix_id, idx = key
        runs = self._prefix_run
        if idx < runs.get(prefix_id, 0):
            if idx:
                runs[prefix_id] = idx
            else:
                del runs[prefix_id]

    def _hit_tokens(self, hits: int, prefix_tokens: int) -> int:
        """Tokens of valid prefix KV covered by ``hits`` leading blocks."""
        return min(hits * self.block_size, prefix_tokens)

    def can_allocate_shared(
        self,
        num_tokens: int,
        prefix_id: int,
        prefix_tokens: int,
        share_partial: bool = False,
    ) -> bool:
        """Whether the pool can admit ``num_tokens`` given resident prefix hits."""
        needed = self.blocks_needed(num_tokens)
        hits = min(self.prefix_hits(prefix_id, prefix_tokens, share_partial), needed)
        return needed - hits <= self.free_blocks

    def allocate_shared(
        self,
        seq_id: int,
        num_tokens: int,
        prefix_id: int,
        prefix_tokens: int,
        share_partial: bool = False,
        device: int | None = None,
    ) -> tuple[int, int]:
        """Build a block table mapping resident prefix blocks read-only.

        The first ``hits`` blocks (the prefix's resident run, capped by the
        shareable region and by ``needed``) are mapped by reference
        (refcount++); every later block — including the rest of the prefix
        region, which is registered in the index for future sharers — comes
        fresh off the free list in one take, with the ids and order of
        block-by-block takes.  A registration that fills the slot at the
        run's end extends the run over it and over every entry already
        resident past it.  Returns ``(fresh_blocks_taken, hit_tokens)``
        where ``hit_tokens`` counts the prefix KV tokens already resident.
        ``device`` is accepted for the sharded manager's signature; a
        single pool is device 0.
        """
        if seq_id in self._tables:
            raise KVCacheExhausted(f"sequence {seq_id} already holds blocks")
        needed = self.blocks_needed(num_tokens)
        shareable = min(self._shareable_blocks(prefix_tokens, share_partial), needed)
        hits = min(self.prefix_hits(prefix_id, prefix_tokens, share_partial), needed)
        fresh = needed - hits
        if fresh > self.free_blocks:
            raise KVCacheExhausted(
                f"need {fresh} blocks for sequence {seq_id} (after {hits} prefix "
                f"hits) but only {self.free_blocks}/{self._num_blocks} are free"
            )
        index = self._prefix_index
        table: list[int] = []
        if hits:
            ref = self._ref
            shared = 0
            for idx in range(hits):
                block_id = index[(prefix_id, idx)]
                count = ref[block_id] + 1
                ref[block_id] = count
                if count == 2:
                    shared += 1
                table.append(block_id)
            if shared:
                self._shared_count += shared
                self.rises += 1
        taken = self._take_free_blocks(fresh)
        if hits < shareable:
            # Hits stop at the run's end, so this registers its first
            # missing slot.  A broken chain may leave a later entry
            # resident; it is left alone and the block behind it stays
            # private.
            prefix_key = self._prefix_key
            for idx in range(hits, shareable):
                key = (prefix_id, idx)
                if key not in index:
                    block_id = taken[idx - hits]
                    index[key] = block_id
                    prefix_key[block_id] = key
            run = shareable
            while (prefix_id, run) in index:
                run += 1
            self._prefix_run[prefix_id] = run
        table += taken
        self._tables[seq_id] = table
        hit_tokens = self._hit_tokens(hits, prefix_tokens)
        self.prefix_hit_blocks += hits
        self.prefix_hit_tokens += hit_tokens
        if self.tracer is not None:
            self.tracer.kv(
                "share", seq_id, fresh, self.device_index, len(self._free),
                hit_blocks=hits,
            )
        return fresh, hit_tokens

    def cow_cost(self, seq_id: int, token_index: int) -> int:
        """Free blocks a write at ``token_index`` would consume (0 or 1).

        1 when the backing block is a still-shared prefix block (refcount >
        1): the writer needs a private copy.  0 for private blocks and for
        index-registered blocks held by a single sequence (un-registered and
        mutated in place, no copy).
        """
        table = self._tables.get(seq_id)
        if table is None:
            raise KVCacheExhausted(f"sequence {seq_id} holds no blocks")
        idx = token_index // self.block_size
        if idx >= len(table):
            return 0  # the write lands in a block growth has yet to append
        block_id = table[idx]
        return 1 if block_id in self._prefix_key and self._ref[block_id] > 1 else 0

    def ensure_writable(self, seq_id: int, token_index: int) -> int:
        """Make the block backing ``token_index`` privately writable.

        Copy-on-write: a still-shared prefix block is replaced in this
        sequence's table by a fresh private copy (sharers keep the original,
        which stays in the prefix index); a prefix block with refcount 1 is
        simply un-registered — its content is about to diverge from the pure
        prefix, so future admissions must not hit it.  Returns the free
        blocks consumed (1 for a copy, else 0).
        """
        table = self._tables.get(seq_id)
        if table is None:
            raise KVCacheExhausted(f"sequence {seq_id} holds no blocks")
        idx = token_index // self.block_size
        if idx >= len(table):
            raise KVCacheExhausted(
                f"sequence {seq_id} write at token {token_index} exceeds its "
                f"{len(table)}-block table (grow before writing)"
            )
        block_id = table[idx]
        key = self._prefix_key.get(block_id)
        if key is None:
            return 0  # already private
        if self._ref[block_id] == 1:
            # Sole holder: mutate in place, but drop it from the index first.
            self._unregister(key)
            return 0
        copy_id = self._take_free_block()
        self._ref[block_id] -= 1
        if self._ref[block_id] == 1:
            self._shared_count -= 1
        table[idx] = copy_id
        self.cow_copies += 1
        if self.tracer is not None:
            self.tracer.kv("cow", seq_id, 1, self.device_index, len(self._free))
        return 1

    # -- mutations ---------------------------------------------------------------
    def _take_free_block(self) -> int:
        if not self._free:
            raise KVCacheExhausted(
                f"no free blocks left in a {self._num_blocks}-block pool"
            )
        block_id = self._free.pop()
        self._ref[block_id] = 1
        self.physical_allocs += 1
        self.rises += 1
        return block_id

    def _take_free_blocks(self, n: int) -> list[int]:
        """Take ``n`` free blocks at once — the same ids in the same order
        ``n`` successive :meth:`_take_free_block` calls would return (the
        free list is a stack, so the bulk take slices its tail and reverses),
        without the per-block call overhead on the allocation hot path."""
        if n <= 0:
            return []
        free = self._free
        if n > len(free):
            raise KVCacheExhausted(
                f"no free blocks left in a {self._num_blocks}-block pool"
            )
        taken = free[-n:]
        del free[-n:]
        taken.reverse()
        ref = self._ref
        for block_id in taken:
            ref[block_id] = 1
        self.physical_allocs += n
        self.rises += 1
        return taken

    def allocate(self, seq_id: int, num_tokens: int, device: int | None = None) -> int:
        """Reserve private blocks for ``num_tokens`` tokens; returns blocks taken.

        ``device`` is accepted for the sharded manager's signature; a single
        pool is device 0.
        """
        if seq_id in self._tables:
            raise KVCacheExhausted(f"sequence {seq_id} already holds blocks")
        needed = self.blocks_needed(num_tokens)
        if needed > self.free_blocks:
            raise KVCacheExhausted(
                f"need {needed} blocks for sequence {seq_id} but only "
                f"{self.free_blocks}/{self._num_blocks} are free"
            )
        self._tables[seq_id] = self._take_free_blocks(needed)
        if self.tracer is not None:
            self.tracer.kv("alloc", seq_id, needed, self.device_index, len(self._free))
        return needed

    def adopt(self, seq_id: int, num_blocks: int) -> int:
        """Materialize ``num_blocks`` private blocks for an incoming migrant.

        The receiving half of a cross-device migration
        (:meth:`~repro.serving.cluster.ShardedBlockManager.migrate`): the
        sequence's KV state is being copied in from another device, so it
        gets exactly as many *private* blocks here as it held there — block
        identity never spans devices, so shared source blocks arrive as
        private copies.  Returns the blocks taken.
        """
        if seq_id in self._tables:
            raise KVCacheExhausted(f"sequence {seq_id} already holds blocks")
        if num_blocks <= 0:
            raise ValueError("num_blocks must be positive")
        if num_blocks > self.free_blocks:
            raise KVCacheExhausted(
                f"need {num_blocks} blocks to adopt sequence {seq_id} but only "
                f"{self.free_blocks}/{self._num_blocks} are free"
            )
        self._tables[seq_id] = self._take_free_blocks(num_blocks)
        if self.tracer is not None:
            self.tracer.kv(
                "adopt", seq_id, num_blocks, self.device_index, len(self._free)
            )
        return num_blocks

    def grow(self, seq_id: int, num_blocks: int) -> int:
        """Append private blocks to an existing table (on-demand growth)."""
        table = self._tables.get(seq_id)
        if table is None:
            raise KVCacheExhausted(f"sequence {seq_id} holds no blocks to grow")
        if num_blocks <= 0:
            raise ValueError("num_blocks must be positive")
        if num_blocks > self.free_blocks:
            raise KVCacheExhausted(
                f"need {num_blocks} more blocks for sequence {seq_id} but only "
                f"{self.free_blocks}/{self._num_blocks} are free"
            )
        table.extend(self._take_free_blocks(num_blocks))
        if self.tracer is not None:
            self.tracer.kv(
                "grow", seq_id, num_blocks, self.device_index, len(self._free)
            )
        return len(table)

    def grow_many(
        self, due: list[Sequence], plan: Callable[[Sequence], int | None]
    ) -> bool:
        """Grant the KV growth of every sequence in ``due`` in one bulk grant.

        See :func:`grow_pools`, which this single-device pool shares with
        :class:`~repro.serving.cluster.ShardedBlockManager`.
        """
        return grow_pools((self,), due, plan)

    def free(self, seq_id: int) -> int:
        """Release a sequence's table; returns blocks returned to the pool.

        Shared blocks only drop a reference — a sharer's release (finish or
        preemption) physically frees just the blocks it held alone, and a
        prefix block leaves the index (cutting its prefix's resident run)
        only when its last holder lets go.  One pass over the table returns
        the freed blocks to the free list in table order.
        """
        table = self._tables.pop(seq_id, None)
        if table is None:
            raise KVCacheExhausted(f"sequence {seq_id} holds no blocks")
        ref = self._ref
        free_list = self._free
        if self._shared_count == 0 and not self._prefix_key:
            # No block anywhere is shared or prefix-registered, so every
            # table entry holds the sole reference: skip the per-block
            # sharing checks and return the whole table to the free list in
            # one extend (same append order as the general loop).
            for block_id in table:
                del ref[block_id]
            free_list.extend(table)
            freed = len(table)
        else:
            prefix_key = self._prefix_key
            before = len(free_list)
            unshared = 0
            for block_id in table:
                count = ref[block_id] - 1
                if count:
                    ref[block_id] = count
                    if count == 1:
                        unshared += 1
                    continue
                del ref[block_id]
                key = prefix_key.get(block_id)
                if key is not None:
                    self._unregister(key)
                free_list.append(block_id)
            self._shared_count -= unshared
            freed = len(free_list) - before
        if self.tracer is not None:
            self.tracer.kv("free", seq_id, freed, self.device_index, len(free_list))
        return freed

    # -- invariants --------------------------------------------------------------
    def assert_no_leaks(self) -> None:
        """Raise if any sequence still holds blocks (used by engine teardown)."""
        if self._tables:
            held = ", ".join(str(s) for s in sorted(self._tables))
            raise KVCacheExhausted(f"KV blocks leaked by sequences: {held}")
        self.check_invariants()

    def check_invariants(self) -> None:
        """Structural self-check: free + allocated partition the pool exactly.

        Refcounts, the prefix index, the shared-block counter and each
        prefix's resident run are recounted from the tables and the index.
        Meant for tests to call after every mutation; raises
        :class:`KVCacheExhausted` on any violation.
        """
        free = set(self._free)
        allocated = set(self._ref)
        if len(free) != len(self._free):
            raise KVCacheExhausted("free list contains duplicate block ids")
        if free & allocated:
            raise KVCacheExhausted("block ids both free and allocated")
        if free | allocated != set(range(self._num_blocks)):
            raise KVCacheExhausted("free + allocated blocks do not cover the pool")
        if any(count <= 0 for count in self._ref.values()):
            raise KVCacheExhausted("allocated block with non-positive refcount")
        mapped: dict[int, int] = {}
        for table in self._tables.values():
            for block_id in table:
                mapped[block_id] = mapped.get(block_id, 0) + 1
        if mapped != self._ref:
            raise KVCacheExhausted("refcounts disagree with block-table references")
        for key, block_id in self._prefix_index.items():
            if self._prefix_key.get(block_id) != key:
                raise KVCacheExhausted("prefix index and reverse map disagree")
            if block_id not in self._ref:
                raise KVCacheExhausted("prefix index points at a free block")
        if self._shared_count != sum(1 for c in self._ref.values() if c > 1):
            raise KVCacheExhausted("shared-block counter disagrees with refcounts")
        runs: dict[int, int] = {}
        for prefix_id, _ in self._prefix_index:
            if prefix_id not in runs:
                run = 0
                while (prefix_id, run) in self._prefix_index:
                    run += 1
                if run:
                    runs[prefix_id] = run
        if runs != self._prefix_run:
            raise KVCacheExhausted(
                f"prefix runs {self._prefix_run} disagree with the index's {runs}"
            )


def grow_pools(
    pools: tuple[BlockManager, ...] | list[BlockManager],
    due: list[Sequence],
    plan: Callable[[Sequence], int | None],
) -> bool:
    """The bulk grant: one plan pass and one assignment pass over ``due``.

    *Plan.*  Each sequence's device is its ``home_device`` and its table is
    looked up there (a missing one raises :class:`KVCacheExhausted` before
    any block moves).  A decoding block crossing (a nonzero writable extent
    the write position has reached) needs exactly one fresh block and moves
    the extent to ``extent + block_size``; every other sequence gets what
    ``plan(seq)`` returns — a block count (its extent becomes the end of
    its grown table), 0 for nothing, or ``None`` to decline the whole grant.
    The growth is summed per device.  *Check.*  The grant is declined
    (``False``, nothing changed) when ``plan`` declines or some touched
    device's sum exceeds its free blocks.  *Assignment.*  In ``due`` order,
    each sequence's blocks are popped off its device's free list straight
    into its table, its ``grow`` event carries the free count left after
    its pops, and its new extent is recorded.  The outcome — tables, block
    ids, refcounts, :attr:`BlockManager.physical_allocs` and events — is
    that of successive :meth:`BlockManager.grow` calls in ``due`` order
    (the free list is a stack); each touched device counts one
    :attr:`BlockManager.rises` bump, and untouched pools are not visited.
    """
    block_size = pools[0].block_size
    need = [0] * len(pools)
    grants: list[tuple[Sequence, list[int], int, int, int]] = []
    for seq in due:
        request = seq.request
        extent = seq.kv_writable_extent
        if extent and request.prompt_tokens + seq.generated_tokens == extent:
            n = 1
            extent += block_size
        else:
            planned = plan(seq)
            if not planned:
                if planned is None:
                    return False  # a copy-on-write is due
                continue
            n = planned
            extent = 0  # set to the grown table's end below
        device = seq.home_device
        table = pools[device]._tables.get(request.request_id)
        if table is None:
            raise KVCacheExhausted(
                f"sequence {request.request_id} holds no blocks to grow"
            )
        if not extent:
            extent = (len(table) + n) * block_size
        need[device] += n
        grants.append((seq, table, device, n, extent))
    if not grants:
        return True
    for device, total in enumerate(need):
        if total > len(pools[device]._free):
            return False  # an over-draw: the walk preempts instead
    for seq, table, device, n, extent in grants:
        pool = pools[device]
        free = pool._free
        ref = pool._ref
        if n == 1:
            block_id = free.pop()
            ref[block_id] = 1
            table.append(block_id)
        else:
            taken = free[-n:]
            del free[-n:]
            taken.reverse()
            for block_id in taken:
                ref[block_id] = 1
            table += taken
        seq.kv_writable_extent = extent
        if pool.tracer is not None:
            pool.tracer.kv(
                "grow", seq.request.request_id, n, pool.device_index, len(free)
            )
    for device, total in enumerate(need):
        if total:
            pool = pools[device]
            pool.physical_allocs += total
            pool.rises += 1
    return True


class AllocationPolicy(abc.ABC):
    """Decides when KV blocks are taken from / returned to the physical pool.

    The scheduler consults the policy at three points: request intake
    (:meth:`fits_at_all`), admission (:meth:`admit_device` / :meth:`admit`) and
    iteration boundaries, which only a growing policy exercises.  At a
    boundary the scheduler first offers the policy every due sequence at
    once (:meth:`grow_due`): the policy plans each one's deficit and, when
    the plan needs no preemption, grants it in bulk.  Otherwise the
    scheduler walks the sequences one by one (:meth:`blocks_deficit`,
    preemption, :meth:`grow`).  :meth:`release` returns a sequence's blocks
    on finish *or* preemption.

    A growing policy may record :attr:`Sequence.kv_writable_extent` once a
    sequence's write block is secured; the scheduler then skips the
    sequence at boundaries until its next write leaves that extent.
    :meth:`admit` and :meth:`release` reset it, since both replace the
    block table.  A policy that never records an extent has every running
    sequence visited at every boundary.

    Requests carrying a ``prefix_id`` are admitted through the pool's
    prefix-sharing path in either policy; requests without one take the
    exact pre-sharing code path, so non-shared workloads reproduce the
    original accounting bit for bit.
    """

    #: Name surfaced in the serving report and on the CLI.
    name: str = "abstract"
    #: Whether sequences may need per-iteration growth (enables the
    #: scheduler's ensure-capacity/preemption path).
    grows: bool = False

    def __init__(self, pool: BlockManager) -> None:
        self.pool = pool

    def fits_at_all(self, request: Request) -> bool:
        """Whether the request could ever complete, even alone in the pool.

        Both policies need the full decoded extent to fit an empty pool — a
        request that cannot finish solo can never finish at all (sharing is
        ignored: residency of another sequence's blocks is not guaranteed).
        """
        return self.pool.fits_at_all(request.total_tokens)

    def _share_partial(self, seq: Sequence) -> bool:
        """Whether the trailing partial prefix block may be mapped read-only.

        Only when the whole prompt *is* the shared prefix: otherwise the
        sequence's own divergent prompt tokens land in that block during
        prefill, which would force an immediate copy.  The reservation
        policy never shares it (eager private copy) so it keeps its
        no-mid-decode-allocation invariant.
        """
        return False

    def _admit_tokens(self, seq: Sequence) -> int:
        """KV tokens the admission-time allocation must cover."""
        return seq.request.total_tokens

    def admit_device(self, seq: Sequence) -> int | None:
        """The device the pool would admit the sequence on now (``None``: no
        room).  Handing it to :meth:`admit` makes the admission pick once."""
        request = seq.request
        if request.prefix_id is None or seq.swapped_tokens:
            return self.pool.pick_home(self._admit_tokens(seq))
        return self.pool.pick_shared_home(
            self._admit_tokens(seq),
            request.prefix_id,
            request.prefix_tokens,
            self._share_partial(seq),
        )

    def admit(self, seq: Sequence, device: int | None = None) -> int:
        """Allocate the sequence's admission-time blocks; returns blocks taken.

        Prefix-carrying requests map resident shared blocks read-only and
        skip the covered prefill tokens (at least one prompt token is always
        recomputed, so the finishing iteration still emits the first token).
        A sequence re-admitted after swap-to-host (``swapped_tokens`` set)
        takes private blocks instead: its KV is restored wholesale from host
        memory, not rebuilt by a prefill pass, so mapping index blocks
        read-only (and skipping prefill it will not run) would misstate what
        the swap-in actually transfers.  ``device`` is :meth:`admit_device`'s
        answer when the caller has it (``None``: the pool picks).
        """
        request = seq.request
        seq.kv_writable_extent = 0
        if request.prefix_id is None or seq.swapped_tokens:
            return self.pool.allocate(request.request_id, self._admit_tokens(seq), device)
        fresh, hit_tokens = self.pool.allocate_shared(
            request.request_id,
            self._admit_tokens(seq),
            request.prefix_id,
            request.prefix_tokens,
            self._share_partial(seq),
            device,
        )
        seq.apply_prefix_hit(hit_tokens)
        return fresh

    def grow_due(self, due: list[Sequence], prefill_chunk: int | None = None) -> bool:
        """Secure the next write of every sequence in ``due`` without preemption.

        ``due`` is in precedence order.  Returns whether the writes were
        secured; ``False`` leaves every sequence and the pool untouched, and
        the scheduler then walks ``due`` one by one.  This base policy never
        plans, so a subclass that overrides only :meth:`blocks_deficit` and
        :meth:`grow` keeps the walk.
        """
        return False

    def blocks_deficit(self, seq: Sequence, prefill_chunk: int | None = None) -> int:
        """Extra blocks the sequence needs before its next iteration (0 here)."""
        return 0

    def grow(self, seq: Sequence, num_blocks: int) -> int:
        """Append blocks for a running sequence (on-demand only)."""
        raise KVCacheExhausted(f"{self.name} policy never grows allocations")

    def release(self, seq: Sequence) -> int:
        """Return all of a sequence's blocks to the pool."""
        seq.kv_writable_extent = 0
        return self.pool.free(seq.request.request_id)


class ReservationPolicy(AllocationPolicy):
    """PR 1 semantics: reserve the full decoded extent before admission.

    A running sequence can never exhaust the pool mid-decode, so the batch
    never shrinks involuntarily and replay is trivially deterministic — at
    the cost of holding ``max_new_tokens`` worth of blocks that are mostly
    unwritten.  Prefix sharing maps only *full* prefix blocks (the trailing
    partial block is copied eagerly), so no copy-on-write can ever be needed
    mid-decode and the invariant survives sharing.
    """

    name = "reserve"
    grows = False


class OnDemandPolicy(AllocationPolicy):
    """vLLM-style growth: allocate blocks as KV state is actually written.

    Admission takes blocks for the sequence's prefill extent plus one decode
    token; every later appended token grows the allocation one block at a
    time as it crosses block boundaries, or copies a still-shared prefix
    block the moment the sequence first writes into it (copy-on-write).
    When the pool runs dry the *scheduler* preempts the lowest-precedence
    running sequence (this policy only reports the deficit), frees its
    blocks, and requeues it for recompute-on-resume.
    """

    name = "ondemand"
    grows = True

    def _admit_tokens(self, seq: Sequence) -> int:
        # Prefill extent (prompt, plus recomputed tokens when resuming) + the
        # first appended token, so a fresh admission never deficits mid-prefill.
        # A swap-to-host resume arrives with its written KV intact: the
        # allocation must cover the restored tokens plus the next appended
        # one, or — for a victim swapped mid-prefill — the remaining prefill
        # writes, whichever extends further.
        if seq.swapped_tokens:
            return max(seq.kv_tokens_written(), seq.prefill_extent) + 1
        return seq.prefill_extent + 1

    def _share_partial(self, seq: Sequence) -> bool:
        # The *prefill extent*, not the prompt, must equal the prefix: a
        # sequence resuming from preemption re-prefills its generated tokens
        # (recompute_base > 0), and those divergent writes land in the tail
        # block — mapping it shared would poison the index for later hits.
        request = seq.request
        return (
            seq.prefill_extent == request.prefix_tokens
            and request.prefix_tokens % self.pool.block_size != 0
        )

    def grow_due(self, due: list[Sequence], prefill_chunk: int | None = None) -> bool:
        """Plan every due sequence's deficit and grant the growth in bulk.

        One :meth:`BlockManager.grow_many` call (:func:`grow_pools`) plans
        and grants it.  A decoding sequence crossing a block boundary is
        planned there without reading this policy: every visit records the
        extent as ``held * block_size`` (admission and release reset it to
        0, and a migration keeps the table's length), so a write at a
        nonzero extent needs exactly one fresh private block and moves the
        extent to ``extent + block_size`` (the scheduler's ``debug_checks``
        audit that identity).  Every other sequence gets what
        :meth:`blocks_deficit` would give it: no blocks mid-prefill chunk,
        ``blocks_needed(prompt + generated + 1) - held`` private blocks when
        the write starts a fresh block, else a zero deficit.  The grant is
        declined (``False``, nothing changed) when a write needs a
        copy-on-write block or some device's summed growth exceeds its free
        blocks — exactly the iterations at which the per-sequence walk would
        copy or preempt.  Otherwise the block ids are assigned in ``due``
        order, as successive :meth:`grow` calls would assign them, each
        zero-deficit visit then gets :meth:`blocks_deficit`'s prefix
        un-registration, and every visited sequence records its writable
        extent.
        """
        pool = self.pool
        block_size = pool.block_size
        in_place: list[tuple[Sequence, int, int]] = []

        def plan(seq: Sequence) -> int | None:
            if not seq.emits_token_this_iteration(prefill_chunk):
                return 0
            seq_id = seq.request.request_id
            write_pos = seq.request.prompt_tokens + seq.generated_tokens
            held = pool.blocks_held(seq_id)
            # blocks_needed(write_pos + 1) - held
            growth = write_pos // block_size + 1 - held
            if growth > 0:
                return growth
            if pool.cow_cost(seq_id, write_pos):
                return None
            in_place.append((seq, write_pos, held * block_size))
            return 0

        if not pool.grow_many(due, plan):
            return False
        for seq, write_pos, extent in in_place:
            pool.ensure_writable(seq.request.request_id, write_pos)
            seq.kv_writable_extent = extent
        return True

    def blocks_deficit(self, seq: Sequence, prefill_chunk: int | None = None) -> int:
        """Blocks the next emitting iteration needs (growth or one CoW copy).

        Not a pure query: when the write needs no blocks but targets a
        registered prefix block this sequence holds alone, the block is
        un-registered *here* — the scheduler only calls :meth:`grow` on a
        positive deficit, and the iteration boundary is the last point
        before the divergent write.  A zero deficit records the sequence's
        writable extent (the end of its table: the write block is now
        private, and later blocks always were, because only prefix-region
        blocks are ever registered), so the scheduler calls this at most
        once per boundary, and only for sequences whose next write lies past
        the recorded extent.
        """
        if not seq.emits_token_this_iteration(prefill_chunk):
            return 0  # mid-prefill chunks stay within the admission allocation
        tokens_after = seq.request.prompt_tokens + seq.generated_tokens + 1
        held = self.pool.blocks_held(seq.request.request_id)
        growth = max(0, self.pool.blocks_needed(tokens_after) - held)
        if growth:
            return growth  # the appended token lands in a fresh private block
        # The token lands in an existing block.  A still-shared prefix block
        # must be copied before the write (copy-on-write, costs one block); a
        # registered block held by this sequence alone costs nothing but must
        # leave the prefix index *now* — its content is about to diverge, and
        # the scheduler never calls ``grow`` on a zero deficit, so the free
        # un-registration happens here.
        write_pos = tokens_after - 1
        if self.pool.cow_cost(seq.request.request_id, write_pos):
            return 1
        self.pool.ensure_writable(seq.request.request_id, write_pos)
        seq.kv_writable_extent = held * self.pool.block_size
        return 0

    def grow(self, seq: Sequence, num_blocks: int) -> int:
        """Secure the deficit :meth:`blocks_deficit` reported.

        ``num_blocks`` is deliberately advisory: preemptions between the
        deficit computation and this call can shrink the real need (a
        victim's release may drop a shared block's last other holder, making
        the planned copy a free un-registration), so the executor re-derives
        boundary growth and falls back to :meth:`BlockManager.ensure_writable`
        for the copy-on-write case.  Either way the write block ends up
        private, so the sequence's writable extent becomes its whole table.
        """
        seq_id = seq.request.request_id
        tokens_after = seq.request.prompt_tokens + seq.generated_tokens + 1
        needed = self.pool.blocks_needed(tokens_after)
        growth = max(0, needed - self.pool.blocks_held(seq_id))
        if growth:
            self.pool.grow(seq_id, growth)
        else:
            # Deficit without boundary growth: the write needs copy-on-write
            # (a no-op if a preemption just dropped the block's last sharer).
            self.pool.ensure_writable(seq_id, tokens_after - 1)
        held = self.pool.blocks_held(seq_id)
        seq.kv_writable_extent = held * self.pool.block_size
        return held


#: CLI-selectable allocation policies, keyed by report/CLI name.
ALLOCATION_POLICIES: dict[str, type[AllocationPolicy]] = {
    ReservationPolicy.name: ReservationPolicy,
    OnDemandPolicy.name: OnDemandPolicy,
}


def make_allocation_policy(name: str, pool: BlockManager) -> AllocationPolicy:
    """Instantiate a named allocation policy over a physical block pool."""
    try:
        policy_cls = ALLOCATION_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown KV allocation policy {name!r}; known: {sorted(ALLOCATION_POLICIES)}"
        ) from None
    return policy_cls(pool)
