"""Multi-GPU serving: device groups, expert placement, sharded KV pools.

Three layers turn the single-device serving engine into an expert-parallel
cluster (the first open ROADMAP item after PR 3):

* :class:`DeviceGroup` — N :class:`~repro.kernels.device.DeviceSpec`\\ s with
  stable per-device names (``gpu0`` … ``gpuN-1``).
* :class:`ExpertPlacement` — assigns the model's routed experts to devices.
  ``balanced`` round-robins expert ids; ``frequency`` packs experts onto
  devices greedily by activation frequency (longest-processing-time first),
  using the paper's Fig. 3 routing skew
  (:func:`repro.analysis.expert_frequency.fig3_reference_frequencies`) so hot
  experts are spread instead of colliding.  Policies live in the
  :data:`PLACEMENT_POLICIES` registry, mirroring
  :data:`~repro.serving.kv_cache.ALLOCATION_POLICIES`.
* :class:`ShardedBlockManager` — one physical
  :class:`~repro.serving.kv_cache.BlockManager` pool per device.  A
  sequence's KV is *pinned to its home device* (attention reads it every
  iteration; migrating it would be a cross-device copy the simulator charges
  nowhere), chosen at admission as the least-loaded device that fits.
  Prefix-shared blocks are resident *per device*: sharing only deduplicates
  within a pool, so a prefix group spanning homes stores one copy per device
  that hosts a member — exactly the replication a real paged allocator pays.

Why placement interacts with routing skew (paper Fig. 3): the engine's
iteration cost is the *max* over per-device costs, each driven by the token
load of that device's resident experts.  Under skewed routing, round-robin
placement concentrates hot experts and produces a straggler device every
iteration; frequency-aware placement evens the expert mass and shrinks the
critical path — the capacity/queueing tradeoff this PR measures instead of
assuming.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable
from typing import Sequence as SequenceType

import numpy as np
import numpy.typing as npt

from ..kernels.device import DeviceSpec
from .kv_cache import BlockManager, KVCacheExhausted, grow_pools

if TYPE_CHECKING:
    from .request import Sequence

__all__ = [
    "DeviceGroup",
    "ExpertPlacement",
    "BalancedPlacement",
    "FrequencyPlacement",
    "LayeredExpertPlacement",
    "PLACEMENT_POLICIES",
    "make_expert_placement",
    "expert_migration_seconds",
    "split_tokens",
    "split_tokens_rows",
    "ShardedBlockManager",
]


@dataclass(frozen=True)
class DeviceGroup:
    """An ordered group of accelerators serving one model expert-parallel."""

    devices: tuple[DeviceSpec, ...]

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError("a DeviceGroup needs at least one device")

    @classmethod
    def replicate(cls, device: DeviceSpec, count: int) -> "DeviceGroup":
        """A homogeneous group of ``count`` copies of one device spec."""
        if count <= 0:
            raise ValueError("device count must be positive")
        return cls(devices=tuple(device for _ in range(count)))

    def __len__(self) -> int:
        return len(self.devices)

    @property
    def names(self) -> tuple[str, ...]:
        """Stable per-device names (``gpu0`` … ``gpuN-1``)."""
        return tuple(f"gpu{i}" for i in range(len(self.devices)))


class ExpertPlacement(abc.ABC):
    """Maps each routed expert (same layout every layer) to a device.

    Instances are built from the per-expert activation frequencies (Fig. 3)
    and expose the resulting ``assignment`` plus the per-device *mass* — the
    fraction of routed tokens each device's resident experts attract — which
    the engine uses to split every iteration's token load.
    """

    #: Name surfaced in the serving report and on the CLI.
    name: str = "abstract"

    def __init__(self, frequencies: SequenceType[float], num_devices: int) -> None:
        if num_devices <= 0:
            raise ValueError("num_devices must be positive")
        # len() rather than truthiness: numpy arrays (the natural output of
        # fig3_reference_frequencies / ExpertFrequencyProfile) are ambiguous.
        if len(frequencies) == 0:
            raise ValueError("frequencies must be non-empty")
        if any(f < 0 for f in frequencies):
            raise ValueError("frequencies must be non-negative")
        total = float(sum(frequencies))
        if total <= 0:
            raise ValueError("frequencies must sum to a positive value")
        self.num_devices = num_devices
        #: Normalized activation frequency per expert (sums to 1).
        self.frequencies = tuple(float(f) / total for f in frequencies)
        #: Device index per expert id.
        self.assignment: tuple[int, ...] = tuple(self._assign())
        mass = [0.0] * num_devices
        for expert, device in enumerate(self.assignment):
            if not 0 <= device < num_devices:
                raise ValueError(
                    f"{self.name} placement put expert {expert} on device {device}, "
                    f"outside [0, {num_devices})"
                )
            mass[device] += self.frequencies[expert]
        #: Fraction of routed tokens attracted by each device's experts.
        self.device_mass: tuple[float, ...] = tuple(mass)

    @abc.abstractmethod
    def _assign(self) -> list[int]:
        """Device index per expert id, in expert-id order."""

    def experts_on(self, device: int) -> int:
        """Number of routed experts resident on ``device``."""
        return sum(1 for d in self.assignment if d == device)

    @property
    def load_imbalance(self) -> float:
        """Max device mass over the perfectly-even mass (1.0 = balanced)."""
        return max(self.device_mass) * self.num_devices


class BalancedPlacement(ExpertPlacement):
    """Round-robin by expert id — even *counts*, frequency-blind.

    Under skewed routing the count-balanced layout is mass-imbalanced:
    whichever residue class the hot experts fall into becomes the straggler
    device, every iteration.
    """

    name = "balanced"

    def _assign(self) -> list[int]:
        return [e % self.num_devices for e in range(len(self.frequencies))]


class FrequencyPlacement(ExpertPlacement):
    """Greedy frequency-aware packing (longest-processing-time first).

    Experts are placed in decreasing activation frequency onto the device
    with the least accumulated mass (ties: lowest device index).  LPT is the
    classic 4/3-approximation to makespan scheduling, which is exactly what
    the engine's max-over-devices iteration cost computes.
    """

    name = "frequency"

    def _assign(self) -> list[int]:
        assignment = [0] * len(self.frequencies)
        mass = [0.0] * self.num_devices
        order = sorted(
            range(len(self.frequencies)), key=lambda e: (-self.frequencies[e], e)
        )
        for expert in order:
            device = min(range(self.num_devices), key=lambda d: (mass[d], d))
            assignment[expert] = device
            mass[device] += self.frequencies[expert]
        return assignment


#: CLI-selectable expert placement policies, keyed by report/CLI name.
PLACEMENT_POLICIES: dict[str, type[ExpertPlacement]] = {
    BalancedPlacement.name: BalancedPlacement,
    FrequencyPlacement.name: FrequencyPlacement,
}


class LayeredExpertPlacement:
    """Per-layer expert placements for the overlap-aware layered cost model.

    The paper's Fig. 3 heatmap shows routing skew *differs by layer* — which
    expert is hot, and how hot, changes with depth — so a single whole-model
    :class:`ExpertPlacement` is the wrong layout for most layers.  This
    container keeps one expert→device assignment per MoE layer, all seeded
    from the offline profile's placement (``base``, what a single-distribution
    profiling pass yields), and evaluates each layer's *effective* device
    mass under that layer's true routing frequencies (``layer_frequencies``).
    The gap between the two is what :meth:`repack_drifted` closes at run
    time.
    """

    def __init__(
        self,
        base: ExpertPlacement,
        layer_frequencies: SequenceType[SequenceType[float]],
    ) -> None:
        if len(layer_frequencies) == 0:
            raise ValueError("layer_frequencies must have one row per MoE layer")
        num_experts = len(base.frequencies)
        rows: list[tuple[float, ...]] = []
        for layer, row in enumerate(layer_frequencies):
            if len(row) != num_experts:
                raise ValueError(
                    f"layer {layer} has {len(row)} expert frequencies, "
                    f"expected {num_experts}"
                )
            total = float(sum(row))
            if total <= 0 or any(f < 0 for f in row):
                raise ValueError(
                    f"layer {layer} frequencies must be non-negative with a "
                    f"positive sum"
                )
            rows.append(tuple(float(f) / total for f in row))
        self.num_devices = base.num_devices
        #: Placement policy the per-layer assignments were seeded from.
        self.name = base.name
        #: True per-layer routing frequencies (normalized rows).
        self.layer_frequencies: tuple[tuple[float, ...], ...] = tuple(rows)
        #: Frequencies of the offline profile every layer was seeded from —
        #: the drift baseline.
        self.profile: tuple[float, ...] = base.frequencies
        #: Expert→device assignment per layer (seeded from the profile-built
        #: base placement, re-packed per layer as drift is detected).
        self.assignments: list[tuple[int, ...]] = [base.assignment] * len(rows)
        self._recompute_mass()

    @property
    def num_layers(self) -> int:
        return len(self.layer_frequencies)

    def _recompute_mass(self) -> None:
        masses: list[tuple[float, ...]] = []
        for assignment, truth in zip(self.assignments, self.layer_frequencies):
            mass = [0.0] * self.num_devices
            for expert, device in enumerate(assignment):
                mass[device] += truth[expert]
            masses.append(tuple(mass))
        #: Fraction of this layer's routed tokens each device attracts under
        #: the layer's *true* frequencies (not the profile the assignment was
        #: packed for) — the engine splits every layer's token load by this.
        self.layer_mass: tuple[tuple[float, ...], ...] = tuple(masses)

    def repack_drifted(
        self,
        measured: SequenceType[SequenceType[float]],
        threshold: float,
    ) -> int:
        """Re-run LPT packing for layers whose routing drifted past ``threshold``.

        ``measured`` holds one normalized frequency row per layer.  A layer
        is re-packed for its row when the total-variation distance between
        the row and the offline :attr:`profile` exceeds ``threshold``.
        Returns the number of ``(layer, expert)`` weight shards that changed
        device — the unit the engine prices migration in — so repeating a
        call with the same rows moves nothing.
        """
        if len(measured) != self.num_layers:
            raise ValueError(
                f"measured has {len(measured)} rows, expected {self.num_layers}"
            )
        moved = 0
        profile = self.profile
        for layer, row in enumerate(measured):
            drift = 0.5 * sum(abs(m - p) for m, p in zip(row, profile))
            if drift <= threshold:
                continue
            new_assignment = FrequencyPlacement(row, self.num_devices).assignment
            moved += sum(
                1 for a, b in zip(new_assignment, self.assignments[layer]) if a != b
            )
            self.assignments[layer] = new_assignment
        if moved:
            self._recompute_mass()
        return moved


def expert_migration_seconds(
    moved: int, bytes_per_expert_layer: float, interconnect_bandwidth: float
) -> float:
    """Time to move ``moved`` per-layer expert weight shards between devices.

    Dynamic re-placement is not free: every ``(layer, expert)`` shard that
    changes device crosses the interconnect once.  The engine adds this to
    the simulated clock at the iteration the re-placement triggers — the
    capacity/queueing cost that makes the replacement threshold a real
    tradeoff instead of a free knob.
    """
    if moved < 0:
        raise ValueError("moved must be non-negative")
    if interconnect_bandwidth <= 0:
        raise ValueError("interconnect_bandwidth must be positive")
    return moved * bytes_per_expert_layer / interconnect_bandwidth


def make_expert_placement(
    name: str, frequencies: SequenceType[float], num_devices: int
) -> ExpertPlacement:
    """Instantiate a named placement policy over expert frequencies."""
    try:
        placement_cls = PLACEMENT_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown expert placement {name!r}; known: {sorted(PLACEMENT_POLICIES)}"
        ) from None
    return placement_cls(frequencies, num_devices)


def split_tokens(total: int, shares: SequenceType[float]) -> list[int]:
    """Apportion ``total`` tokens over devices by share (largest remainder).

    Deterministic: exact quotas are floored, then the leftover tokens go to
    the devices with the largest fractional parts (ties: lowest index).  The
    result always sums to ``total``; with one device it is ``[total]``
    exactly, which keeps the single-device engine bit-for-bit.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if len(shares) == 1 and shares[0] == 1.0:
        # Single device owns everything: skip the float apportioning (the
        # general path floors float(total) back to total with remainder 0).
        return [total]
    quotas = [total * share for share in shares]
    floors = [int(q) for q in quotas]
    remainder = total - sum(floors)
    order = sorted(range(len(shares)), key=lambda d: (floors[d] - quotas[d], d))
    for d in order[:remainder]:
        floors[d] += 1
    return floors


def split_tokens_rows(total: int, mass: npt.NDArray[np.float64]) -> npt.NDArray[np.int64]:
    """:func:`split_tokens` of ``total`` over every row of a ``rows x devices``
    share matrix, in whole-array passes.

    Row ``r`` equals ``split_tokens(total, mass[r])`` exactly: ``total *
    mass`` is the same IEEE product per entry, truncation equals ``int()``
    on the non-negative quotas, the floors' integer row sums are exact in
    any order, and a stable argsort of ``floor - quota`` ranks each row's
    devices as the scalar sort does, ties to the lowest index.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    quotas = total * mass
    floors = quotas.astype(np.int64)
    devices = mass.shape[1]
    remainder = total - floors.sum(axis=1)
    # The scalar form bumps ``order[:remainder]``; a negative remainder
    # (floors overshooting on shares that sum past 1.0) slices from the end.
    bumped = np.where(remainder < 0, remainder + devices, remainder)
    # The inverse permutation of a row's order is each device's rank in it.
    rank = np.argsort(floors - quotas, axis=1, kind="stable").argsort(axis=1)
    floors += rank < bumped[:, None]
    if devices == 1:
        # The scalar single-device shortcut, exact past 2**53 too.
        floors[mass[:, 0] == 1.0, 0] = total
    return floors


class ShardedBlockManager:
    """Per-device KV block pools behind the single-pool interface.

    Presents the :class:`~repro.serving.kv_cache.BlockManager` surface the
    allocation policies and scheduler already speak, routing every
    per-sequence operation to the sequence's *home* pool.  Admission picks
    the home device: the least-loaded device (most free blocks, ties by
    index) among those with room — or, for prefix-carrying requests, the
    device with the most resident prefix blocks first, so sharers co-locate
    with their prefix instead of replicating it.

    Aggregate queries (``used_blocks``, ``free_blocks``, sharing stats) sum
    over pools; per-device queries carry an ``_on(device)`` suffix.  The
    scheduler's preemption math must use the per-device forms: freeing
    blocks on another device can never cover a deficit on this one.
    """

    def __init__(
        self,
        pools: SequenceType[BlockManager],
        device_names: SequenceType[str] | None = None,
    ) -> None:
        if not pools:
            raise ValueError("ShardedBlockManager needs at least one pool")
        block_sizes = {pool.block_size for pool in pools}
        if len(block_sizes) != 1:
            raise ValueError(f"pools disagree on block_size: {sorted(block_sizes)}")
        self.pools: list[BlockManager] = list(pools)
        for d, pool in enumerate(self.pools):
            # Telemetry KV events emitted by a pool carry its device index.
            pool.device_index = d
        self.block_size = self.pools[0].block_size
        if device_names is None:
            device_names = tuple(f"gpu{i}" for i in range(len(self.pools)))
        if len(device_names) != len(self.pools):
            raise ValueError("device_names must match the number of pools")
        self.device_names = tuple(device_names)
        #: seq_id -> device index of the pool holding its blocks.
        self._home: dict[int, int] = {}
        #: Restrict *new* admissions (home selection and the intake
        #: ``fits_at_all`` check) to these device indices; ``None`` (default)
        #: considers every pool.  A disaggregated scheduler points this at the
        #: prefill pool — or the decode pool while re-admitting a swapped-out
        #: decode-phase sequence — and :meth:`migrate` is how blocks cross the
        #: boundary afterwards.  Sequences already resident are unaffected.
        self.admit_devices: tuple[int, ...] | None = None
        #: Cumulative :meth:`migrate` calls / blocks moved (see ``reset_stats``).
        self.migrations = 0
        self.migrated_blocks = 0

    def _admissible(self) -> range | tuple[int, ...]:
        return range(len(self.pools)) if self.admit_devices is None else self.admit_devices

    # -- home selection ----------------------------------------------------------
    def _fitting_devices(self, needed_blocks: int) -> list[int]:
        return [
            d for d in self._admissible() if needed_blocks <= self.pools[d].free_blocks
        ]

    def pick_home(self, num_tokens: int) -> int | None:
        """Least-loaded device (most free blocks, ties by index) that fits."""
        needed = self.blocks_needed(num_tokens)
        fitting = self._fitting_devices(needed)
        if not fitting:
            return None
        return max(fitting, key=lambda d: (self.pools[d].free_blocks, -d))

    def pick_shared_home(
        self, num_tokens: int, prefix_id: int, prefix_tokens: int, share_partial: bool
    ) -> int | None:
        """Most resident prefix hits first, then least-loaded, then index.

        A device fits when its free blocks cover what the hits leave to
        take (:meth:`BlockManager.can_allocate_shared`); each pool's hits
        are read once.
        """
        needed = self.blocks_needed(num_tokens)
        best: tuple[int, int, int] | None = None
        choice: int | None = None
        for d in self._admissible():
            pool = self.pools[d]
            hits = pool.prefix_hits(prefix_id, prefix_tokens, share_partial)
            free = pool.free_blocks
            if needed - min(hits, needed) > free:
                continue
            key = (hits, free, -d)
            if best is None or key > best:
                best = key
                choice = d
        return choice

    def _home_pool(self, seq_id: int) -> BlockManager:
        device = self._home.get(seq_id)
        if device is None:
            raise KVCacheExhausted(f"sequence {seq_id} holds no blocks on any device")
        return self.pools[device]

    def home_device(self, seq_id: int) -> int:
        """Device index of the pool holding this sequence's KV."""
        device = self._home.get(seq_id)
        if device is None:
            raise KVCacheExhausted(f"sequence {seq_id} holds no blocks on any device")
        return device

    # -- aggregate queries (BlockManager surface) ---------------------------------
    @property
    def num_devices(self) -> int:
        return len(self.pools)

    @property
    def num_blocks(self) -> int:
        return sum(pool.num_blocks for pool in self.pools)

    @property
    def used_blocks(self) -> int:
        return sum(pool.used_blocks for pool in self.pools)

    @property
    def free_blocks(self) -> int:
        return sum(pool.free_blocks for pool in self.pools)

    @property
    def shared_blocks(self) -> int:
        return sum(pool.shared_blocks for pool in self.pools)

    @property
    def outstanding_sequences(self) -> int:
        return len(self._home)

    @property
    def physical_allocs(self) -> int:
        return sum(pool.physical_allocs for pool in self.pools)

    @property
    def prefix_hit_blocks(self) -> int:
        return sum(pool.prefix_hit_blocks for pool in self.pools)

    @property
    def prefix_hit_tokens(self) -> int:
        return sum(pool.prefix_hit_tokens for pool in self.pools)

    @property
    def cow_copies(self) -> int:
        return sum(pool.cow_copies for pool in self.pools)

    @property
    def rises(self) -> int:
        """Sum of the pools' monotone rise counters (see ``BlockManager.rises``)."""
        return sum(pool.rises for pool in self.pools)

    def num_blocks_on(self, device: int) -> int:
        return self.pools[device].num_blocks

    def used_blocks_on(self, device: int) -> int:
        return self.pools[device].used_blocks

    def free_blocks_on(self, device: int) -> int:
        """Free blocks of one device's pool (the preemption-deficit bound)."""
        return self.pools[device].free_blocks

    def blocks_needed(self, num_tokens: int) -> int:
        return self.pools[0].blocks_needed(num_tokens)

    def blocks_held(self, seq_id: int) -> int:
        device = self._home.get(seq_id)
        return self.pools[device].blocks_held(seq_id) if device is not None else 0

    def shared_blocks_held(self, seq_id: int) -> int:
        device = self._home.get(seq_id)
        return self.pools[device].shared_blocks_held(seq_id) if device is not None else 0

    def writable_in_place(self, seq_id: int, token_index: int) -> bool:
        device = self._home.get(seq_id)
        return device is not None and self.pools[device].writable_in_place(
            seq_id, token_index
        )

    def block_table(self, seq_id: int) -> tuple[int, ...]:
        device = self._home.get(seq_id)
        return self.pools[device].block_table(seq_id) if device is not None else ()

    def fits_at_all(self, num_tokens: int) -> bool:
        """A sequence must fit one *single* device's empty pool (KV is pinned).

        The pools' summed capacity is irrelevant: a block table can never
        span devices, so a request larger than every individual pool can
        never run even on an idle cluster.  Under an :attr:`admit_devices`
        restriction only the admissible pools count — a request that fits no
        admission-pool device can never be admitted.
        """
        return any(self.pools[d].fits_at_all(num_tokens) for d in self._admissible())

    def max_sequences(self, tokens_per_sequence: int) -> int:
        """Concurrent sequences of one length an empty *cluster* sustains."""
        return sum(pool.max_sequences(tokens_per_sequence) for pool in self.pools)

    def can_allocate(self, num_tokens: int) -> bool:
        return self.pick_home(num_tokens) is not None

    def can_allocate_shared(
        self,
        num_tokens: int,
        prefix_id: int,
        prefix_tokens: int,
        share_partial: bool = False,
    ) -> bool:
        return (
            self.pick_shared_home(num_tokens, prefix_id, prefix_tokens, share_partial)
            is not None
        )

    # -- mutations ----------------------------------------------------------------
    def allocate(self, seq_id: int, num_tokens: int, device: int | None = None) -> int:
        """Allocate on ``device``, or on :meth:`pick_home`'s choice when ``None``
        (admission hands over the device its fit test already picked)."""
        if seq_id in self._home:
            raise KVCacheExhausted(f"sequence {seq_id} already holds blocks")
        if device is None:
            device = self.pick_home(num_tokens)
        if device is None:
            raise KVCacheExhausted(
                f"no device can hold {self.blocks_needed(num_tokens)} blocks for "
                f"sequence {seq_id} (free per device: "
                f"{[pool.free_blocks for pool in self.pools]})"
            )
        taken = self.pools[device].allocate(seq_id, num_tokens)
        self._home[seq_id] = device
        return taken

    def allocate_shared(
        self,
        seq_id: int,
        num_tokens: int,
        prefix_id: int,
        prefix_tokens: int,
        share_partial: bool = False,
        device: int | None = None,
    ) -> tuple[int, int]:
        """Allocate on ``device``, or on :meth:`pick_shared_home`'s choice."""
        if seq_id in self._home:
            raise KVCacheExhausted(f"sequence {seq_id} already holds blocks")
        if device is None:
            device = self.pick_shared_home(
                num_tokens, prefix_id, prefix_tokens, share_partial
            )
        if device is None:
            raise KVCacheExhausted(
                f"no device can admit sequence {seq_id} "
                f"({self.blocks_needed(num_tokens)} blocks after prefix hits)"
            )
        result = self.pools[device].allocate_shared(
            seq_id, num_tokens, prefix_id, prefix_tokens, share_partial
        )
        self._home[seq_id] = device
        return result

    def grow(self, seq_id: int, num_blocks: int) -> int:
        return self._home_pool(seq_id).grow(seq_id, num_blocks)

    def grow_many(
        self, due: list[Sequence], plan: Callable[[Sequence], int | None]
    ) -> bool:
        """The sharded bulk grant: :func:`~repro.serving.kv_cache.grow_pools`
        over every pool, each sequence on its ``home_device`` — the
        scheduler's copy of this manager's home map."""
        return grow_pools(self.pools, due, plan)

    def cow_cost(self, seq_id: int, token_index: int) -> int:
        return self._home_pool(seq_id).cow_cost(seq_id, token_index)

    def ensure_writable(self, seq_id: int, token_index: int) -> int:
        return self._home_pool(seq_id).ensure_writable(seq_id, token_index)

    def free(self, seq_id: int) -> int:
        device = self._home.pop(seq_id, None)
        if device is None:
            raise KVCacheExhausted(f"sequence {seq_id} holds no blocks on any device")
        return self.pools[device].free(seq_id)

    def migrate(self, seq_id: int, src: int, dst: int) -> int:
        """Bulk-move a sequence's KV blocks from device ``src`` to ``dst``.

        The scheduler's prefill→decode handoff and decode-pool rebalance
        both land here.  The destination pool materializes the
        same number of *private* blocks the sequence held on the source, then
        the source table is released through the ordinary refcounted path —
        so shared prefix blocks merely drop one reference (their residency on
        the source, and every other holder's table, is untouched), while the
        migrant's copies on the destination are private (block identity never
        spans devices).  Raises :class:`KVCacheExhausted` if the destination
        cannot hold the table; the manager state is unchanged in that case.
        Returns the number of blocks now held on ``dst``.  The table keeps
        its length and every block of it is private, so a sequence's
        recorded writable extent stays valid across the move.
        """
        if self._home.get(seq_id) != src:
            raise KVCacheExhausted(
                f"sequence {seq_id} is not resident on device {src} "
                f"(home: {self._home.get(seq_id)})"
            )
        if dst < 0 or dst >= len(self.pools):
            raise KVCacheExhausted(f"no device {dst} in a {len(self.pools)}-pool cluster")
        if dst == src:
            return self.pools[src].blocks_held(seq_id)
        blocks = self.pools[src].blocks_held(seq_id)
        # Adopt-then-free: the transfer is priced by the caller, and a
        # destination that cannot fit must leave the source table intact.
        self.pools[dst].adopt(seq_id, blocks)
        self.pools[src].free(seq_id)
        self._home[seq_id] = dst
        self.migrations += 1
        self.migrated_blocks += blocks
        return blocks

    # -- stats / invariants -------------------------------------------------------
    def reset_stats(self) -> None:
        self.migrations = 0
        self.migrated_blocks = 0
        for pool in self.pools:
            pool.reset_stats()

    def assert_no_leaks(self) -> None:
        if self._home:
            held = ", ".join(
                f"{seq}@{self.device_names[d]}" for seq, d in sorted(self._home.items())
            )
            raise KVCacheExhausted(f"KV blocks leaked by sequences: {held}")
        for pool in self.pools:
            pool.assert_no_leaks()
        self.check_invariants()

    def check_invariants(self) -> None:
        """Per-pool structural checks plus the cross-device partition.

        Every sequence's block table must live in exactly its home pool and
        nowhere else, and every table in any pool must belong to a sequence
        homed there — i.e. the per-device pools partition the cluster's KV
        state cleanly, with no table referencing blocks outside its home.
        """
        for pool in self.pools:
            pool.check_invariants()
        seen: dict[int, int] = {}
        for d, pool in enumerate(self.pools):
            for seq_id in pool.sequences():
                if seq_id in seen:
                    raise KVCacheExhausted(
                        f"sequence {seq_id} holds blocks on both "
                        f"{self.device_names[seen[seq_id]]} and {self.device_names[d]}"
                    )
                seen[seq_id] = d
        if seen != self._home:
            raise KVCacheExhausted(
                f"home map disagrees with pool residency: homes={self._home}, "
                f"resident={seen}"
            )
