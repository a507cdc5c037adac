"""Discrete-event continuous-batching serving engine.

This is the request-level layer the paper's Table 7 stops short of: instead
of quoting the latency of one decode step per backend and batch size, it
drives those same step latencies as the *service times* of a discrete-event
simulation and measures what a client of an online system would see —
time-to-first-token (TTFT), time-per-output-token (TPOT) and sustained QPS
under a given arrival process.

How the clock maps to Table 7
-----------------------------
The engine holds one simulated clock (seconds).  At every iteration boundary
it forms a batch (securing KV capacity for running sequences, admitting
queued requests, evicting finished ones), counts the token rows the batch
contributes — a prefilling request contributes its whole prompt (or at most
``prefill_chunk`` of it), a decoding request contributes one token — and
advances the clock by ``backend.iteration_latency(spec, tokens).total``.
Each turn of the engine loop does the boundary work of whatever happened
(an arrival, a prefill chunk, a finish, a KV block boundary, a handoff),
prices the resulting batch once, and advances one *stretch* of iterations
at that price: a single iteration while a sequence prefills, otherwise
every pure-decode iteration up to the next finish or arrival (KV block
boundaries are granted inside the stretch; only one that needs a
copy-on-write or a preemption ends it), with the exact float additions of
stepping them one by one, in every engine mode.
For a pure decode batch of ``B`` sequences that quantity *is* the Table 7
cell for batch size ``B``; prefill iterations and kernels with a batch cap
(GPTQ's GeMV) reuse the same model through the chunked
:meth:`~repro.runtime.backends.InferenceBackend.iteration_latency`.  Nothing
reads wall time, so a (backend, workload, config) triple always reproduces
the identical report bit for bit.

Memory model
------------
At construction the engine asks the backend how much VRAM the full-size
checkpoint leaves free (:meth:`~repro.runtime.backends.InferenceBackend.free_memory_gb`
— which raises the shared typed
:class:`~repro.runtime.backends.OutOfMemoryError` if the weights alone do
not fit, exactly like Table 7's PyTorch-FP16 row), reserves a fixed
activation headroom, and turns the remainder into a paged KV block pool.
*How* that pool is spent is a pluggable
:class:`~repro.serving.kv_cache.AllocationPolicy` (``kv_policy``):
``"reserve"`` (default) reserves each request's full decoded extent up
front, ``"ondemand"`` allocates blocks as tokens are written and preempts
the lowest-precedence running sequence when the pool runs dry
(recompute-on-resume).  Either way admission flows from the same memory
accounting as the paper's "20.5 GB vs ~90 GB" story: quantized weights
leave more blocks, more blocks sustain a larger concurrent batch — and the
on-demand policy converts the *unwritten* tail of every reservation into
additional concurrency on top of that.

Requests that declare a shared prompt prefix (``Request.prefix_id`` /
``prefix_tokens``) are admitted through the pool's prefix index: resident
prefix blocks are mapped read-only instead of re-allocated (and their
prefill compute is skipped), so K sequences sharing a system prompt store
its KV once.  The report's ``prefix_cache`` section counts hit tokens and
blocks, the peak number of physically shared blocks, copy-on-write copies,
and the dedup ratio (logical blocks mapped per physical block allocated).

Multi-GPU (``devices > 1``)
---------------------------
The routed experts are sharded across N copies of the backend's device by an
:class:`~repro.serving.cluster.ExpertPlacement` (``balanced`` round-robin or
``frequency`` skew-aware packing) and the KV pool becomes a
:class:`~repro.serving.cluster.ShardedBlockManager` — one per-device pool,
sized from that device's *own* leftover VRAM (replicated weights + its
experts' share), each admission pinned to the least-loaded home device.
``devices=1`` reduces to the exact pre-sharding engine, byte for byte
(``tests/serving/test_golden_equivalence.py`` pins this).

The iteration cost is priced by one :class:`~repro.serving.cost.CostModel`
over the engine's pools × layers (colocated, ``--disagg`` and ``--overlap``
alike): every device runs its experts' share of the token load (split by
Fig. 3 routing-frequency mass, so skew creates stragglers) plus an
all-to-all term for tokens dispatched to remote experts.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:
    from .telemetry.metrics import MetricsRegistry
    from .telemetry.tracer import Tracer

from ..analysis.expert_frequency import (
    fig3_layer_frequencies,
    fig3_reference_frequencies,
)
from ..models.registry import FULL_MODEL_SPECS, FullModelSpec
from ..runtime.backends import InferenceBackend, OutOfMemoryError
from ..runtime.memory import build_inventory
from ..eval.reporting import summarize_latencies
from .cluster import (
    PLACEMENT_POLICIES,
    DeviceGroup,
    ExpertPlacement,
    ShardedBlockManager,
    expert_migration_seconds,
    make_expert_placement,
)
from .cost import CostModel, IterationCost, overlap_step_seconds
from .kv_cache import (
    ALLOCATION_POLICIES,
    BlockManager,
    blocks_for_budget,
    kv_block_bytes,
    make_allocation_policy,
)
from .request import Request, Sequence
from .scheduler import (
    ContinuousBatchingScheduler,
    FifoPriorityPolicy,
    KVMove,
    SchedulerConfig,
)

__all__ = [
    "EngineConfig",
    "ServingReport",
    "ServingEngine",
    "RunTotals",
    "REPORT_SCHEMA_KEYS",
    "expert_weight_fraction",
    "overlap_step_seconds",
]

#: Every key the serving report may contain, at any nesting level.  The
#: ``report_sha256`` regression gate hashes the report verbatim, so adding
#: a key anywhere changes the hash of every benchmark; RPT001 (milo lint)
#: rejects any key written in ``to_dict`` / ``_build_report`` / ``run`` or
#: a :class:`RunTotals` section builder that is not declared here, making
#: every schema change an explicit two-line diff (the write + this constant).
REPORT_SCHEMA_KEYS: frozenset[str] = frozenset(
    {
        # top level
        "backend",
        "model",
        # latency summary sections (ttft_s / tpot_s / e2e_s, built by
        # summarize_latencies — string constants live in repro.eval, so the
        # live-report exhaustiveness test guards them, not RPT001)
        "p50",
        "p95",
        "mean",
        "max",
        "device",
        "policy",
        "num_requests",
        "completed",
        "rejected",
        "iterations",
        "preemptions",
        "recomputed_tokens",
        "sim_time_s",
        "sustained_qps",
        "ttft_s",
        "tpot_s",
        "e2e_s",
        "batch",
        "kv_cache",
        "kv_utilization_peak",
        "prefix_cache",
        "completion_order",
        "requests",
        "stranded",
        "cluster",
        "overlap",
        # batch section
        "peak",
        "mean_tokens",
        # kv_cache section (and per-device pools)
        "kv",
        "scheduler",
        "num_blocks",
        "block_size",
        "peak_used_blocks",
        # prefix_cache section
        "hit_tokens",
        "hit_blocks",
        "shared_blocks_peak",
        "cow_copies",
        "dedup_ratio",
        # per-request records
        "request_id",
        "state",
        "arrival_s",
        "prompt_tokens",
        "new_tokens",
        "placement_epoch",
        # cluster section
        "devices",
        "placement",
        "straggler_ratio",
        "alltoall_tokens",
        "per_device",
        "experts",
        "expert_load_share",
        "kv_blocks",
        "kv_peak_used_blocks",
        # overlap section
        "efficiency",
        "hidden_comm_s",
        "overlap_ratio",
        "replacements",
        "migration_s",
        # migration section (disaggregation / swap preemption) + the
        # per-device "role" tag of disaggregated cluster sections
        "migration",
        "prefill_devices",
        "decode_devices",
        "handoffs",
        "handoff_blocks",
        "handoff_s",
        "rebalances",
        "rebalanced_blocks",
        "rebalance_s",
        "swaps",
        "swapped_blocks",
        "swap_in_s",
        "recompute_equivalent_s",
        "role",
    }
)

#: Distinct consecutive batch compositions the overlap mode serves before
#: its one dynamic re-placement decision per run: small enough that a
#: workload whose routing disagrees with the offline profile is re-placed
#: early in the run.
DRIFT_WINDOW = 16


@dataclass(slots=True)
class RunTotals:  # milo: hot-path
    """What the engine loop accumulated over a run, and the report sections
    built from it.

    The KV-movement fields (handoffs, rebalances, swap-ins) stay zero
    unless the run is disaggregated or swap-preempts.
    """

    #: Highest KV blocks in use per device (multi-device runs only).
    peak_used_per_device: list[int]
    clock: float = 0.0
    iterations: int = 0
    total_tokens: int = 0
    peak_batch: int = 0
    peak_used_blocks: int = 0
    peak_shared_blocks: int = 0
    #: Σ_iter slowest-device compute and Σ_iter loaded-device mean compute.
    straggler_max_s: float = 0.0
    straggler_mean_s: float = 0.0
    alltoall_tokens: int = 0
    hidden_comm_s: float = 0.0
    comm_total_s: float = 0.0
    migration_s: float = 0.0
    replacements: int = 0
    handoffs: int = 0
    handoff_blocks: int = 0
    handoff_s: float = 0.0
    rebalances: int = 0
    rebalanced_blocks: int = 0
    rebalance_s: float = 0.0
    swap_in_s: float = 0.0
    recompute_equivalent_s: float = 0.0

    def charge(self, cost: IterationCost, iterations: int) -> None:
        """Accumulate ``iterations`` consecutive iterations priced ``cost``.

        One sequential add per iteration into each float total: the exact
        operations of charging the iterations one at a time.
        """
        self.alltoall_tokens += cost.remote_tokens * iterations
        max_s = self.straggler_max_s
        mean_s = self.straggler_mean_s
        for _ in range(iterations):
            max_s += cost.max_compute
            mean_s += cost.mean_compute
        self.straggler_max_s = max_s
        self.straggler_mean_s = mean_s
        hidden, comm = cost.hidden, cost.comm
        if hidden is not None and comm is not None:
            hidden_s = self.hidden_comm_s
            comm_s = self.comm_total_s
            for _ in range(iterations):
                hidden_s += hidden
                comm_s += comm
            self.hidden_comm_s = hidden_s
            self.comm_total_s = comm_s

    def sample_kv(self, block_manager: BlockManager | ShardedBlockManager) -> None:
        """Raise the KV peaks to the pool's current occupancy."""
        used = block_manager.used_blocks
        if used > self.peak_used_blocks:
            self.peak_used_blocks = used
        shared = block_manager.shared_blocks
        if shared > self.peak_shared_blocks:
            self.peak_shared_blocks = shared
        peaks = self.peak_used_per_device
        if len(peaks) > 1:
            for d, peak in enumerate(peaks):
                u = block_manager.used_blocks_on(d)
                if u > peak:
                    peaks[d] = u

    def cluster_section(self, engine: ServingEngine) -> dict[str, Any]:
        """The report's ``cluster`` section (multi-device runs only)."""
        per_device = []
        for d, name in enumerate(engine.device_group.names):
            blocks = engine.block_manager.num_blocks_on(d)
            # Each pool spans the whole model on its own devices, so the
            # expert count and load share come from the pool-local placement.
            placement, local = engine._pool_placement(d)
            entry: dict[str, Any] = {"device": name}
            if engine._disagg:
                entry["role"] = "prefill" if d < engine.config.prefill_devices else "decode"
            peak = self.peak_used_per_device[d]
            entry.update(
                {
                    "experts": placement.experts_on(local),
                    "expert_load_share": round(placement.device_mass[local], 6),
                    "kv_blocks": blocks,
                    "kv_peak_used_blocks": peak,
                    "kv_utilization_peak": peak / blocks if blocks else 0.0,
                }
            )
            per_device.append(entry)
        # The skew baseline is the per-iteration mean over devices that
        # actually received token load: a device the placement left
        # expert-less is idle by construction, and `split_tokens` hands a
        # low-mass device zero tokens in a small batch — either way its 0.0
        # compute would deflate the mean and inflate the ratio with a
        # denominator artifact.  ``straggler_mean_s`` accumulates
        # Σ_iter (Σ_loaded compute / loaded), so max >= mean holds inside
        # every iteration and the ratio is always >= 1.0.
        return {
            "devices": len(engine.device_group),
            "placement": engine.placement.name,
            # Time lost to routing skew: the slowest device's compute over
            # the loaded-device mean compute (1.0 = no skew).
            "straggler_ratio": (
                self.straggler_max_s / self.straggler_mean_s
                if self.straggler_mean_s
                else 1.0
            ),
            # Token counts are whole numbers; the per-iteration remote counts
            # are accumulated as exact integers end-to-end.
            "alltoall_tokens": self.alltoall_tokens,
            "per_device": per_device,
        }

    def overlap_section(self, efficiency: float) -> dict[str, Any]:
        """The report's ``overlap`` section (``overlap=True`` runs only)."""
        return {
            "efficiency": efficiency,
            "hidden_comm_s": self.hidden_comm_s,
            "overlap_ratio": (
                self.hidden_comm_s / self.comm_total_s if self.comm_total_s else 0.0
            ),
            "replacements": self.replacements,
            "migration_s": self.migration_s,
        }

    def migration_section(
        self, config: EngineConfig, scheduler: ContinuousBatchingScheduler
    ) -> dict[str, Any]:
        """The report's ``migration`` section (disaggregated or swap-mode runs)."""
        return {
            "prefill_devices": config.prefill_devices,
            "decode_devices": config.decode_devices,
            "handoffs": self.handoffs,
            "handoff_blocks": self.handoff_blocks,
            "handoff_s": self.handoff_s,
            "rebalances": self.rebalances,
            "rebalanced_blocks": self.rebalanced_blocks,
            "rebalance_s": self.rebalance_s,
            "swaps": scheduler.swaps,
            "swapped_blocks": scheduler.swapped_blocks,
            "swap_in_s": self.swap_in_s,
            # What the swapped KV would have cost to re-prefill instead:
            # swap vs recompute directly comparable from one run.
            "recompute_equivalent_s": self.recompute_equivalent_s,
        }


def expert_weight_fraction(spec: FullModelSpec) -> float:
    """Fraction of the model's parameters held in routed-expert matrices.

    Expert parallelism shards exactly this fraction across the device group;
    everything else (attention, shared experts, embeddings, norms, router,
    LM head) is replicated on every device.  For Mixtral-8x7B the routed
    experts are ~96% of the checkpoint, which is why sharding them lets even
    the FP16 model fit a group of 40 GB devices that it OOMs individually.
    """
    inventory = build_inventory(spec)
    expert_params = sum(m * n for m, n in inventory.expert_shapes)
    return min(1.0, expert_params / (spec.params_billions * 1e9))


@dataclass(frozen=True)
class EngineConfig:
    """Sizing and policy knobs of the serving engine."""

    #: Tokens of KV state per paged block.
    block_size: int = 16
    #: Cap on concurrent sequences (on top of the KV-capacity limit).
    max_batch_size: int = 64
    #: ``"queue"`` or ``"reject"`` — see :class:`~repro.serving.scheduler.SchedulerConfig`.
    admission: str = "queue"
    #: VRAM held back for activations / workspace, in GB.
    reserve_gb: float = 1.0
    #: KV allocation policy: ``"reserve"`` (full-extent reservation, PR 1
    #: default) or ``"ondemand"`` (vLLM-style growth with preemption).
    kv_policy: str = "reserve"
    #: Sarathi-style chunked prefill: feed at most this many prompt tokens
    #: per iteration; ``None`` processes the whole prompt in one iteration.
    prefill_chunk: int | None = None
    #: Number of devices serving the model expert-parallel.  ``1`` (default)
    #: is the single-device engine, bit-for-bit; ``N > 1`` shards the KV
    #: block pool and the routed experts across N copies of the backend's
    #: device, with the iteration cost the max over per-device costs.
    devices: int = 1
    #: DistServe-style disaggregation: the first ``prefill_devices`` devices
    #: form the prefill pool and the remaining ``decode_devices`` the decode
    #: pool.  New requests are admitted onto (and charged to) the prefill
    #: pool; the iteration that completes prefill hands the sequence's KV
    #: blocks off to the least-loaded decode device, priced over the
    #: interconnect and charged to the clock.  Both fields must be set
    #: together and sum to ``devices``; ``0``/``0`` (default) is the
    #: colocated engine, bit-for-bit.
    prefill_devices: int = 0
    decode_devices: int = 0
    #: What a preemption does to the victim's KV: ``"recompute"`` (default)
    #: frees it and re-prefills on resume; ``"swap"`` parks it in host
    #: memory and restores it over ``host_bandwidth`` on re-admission (the
    #: report's ``migration`` section prices both, so the modes are directly
    #: comparable).  See :data:`~repro.serving.scheduler.PREEMPT_MODES`.
    preempt_mode: str = "recompute"
    #: Expert placement policy: ``"balanced"`` round-robin or ``"frequency"``
    #: (Fig. 3 skew-aware greedy packing) — see
    #: :data:`~repro.serving.cluster.PLACEMENT_POLICIES`.
    placement: str = "balanced"
    #: Per-expert routing frequencies driving expert load and the
    #: ``frequency`` placement; ``None`` uses the paper's Fig. 3 reference
    #: skew (:func:`~repro.analysis.expert_frequency.fig3_reference_frequencies`).
    #: Must have one entry per routed expert of the served model.
    expert_frequencies: tuple[float, ...] | None = None
    #: Overlap-aware layered cost model (multi-device only): each MoE layer
    #: gets its own expert placement and ``max(per-device compute)`` term,
    #: and the all-to-all of layer ``l`` overlaps with the compute of layer
    #: ``l + 1`` (``step = sum_l max-ish(compute_l, comm_{l-1})``, scaled by
    #: the device's ``overlap_efficiency``).  Off by default — the serial
    #: whole-model cost stays byte-identical to PR 6.
    overlap: bool = False
    #: Per-layer per-expert routing frequencies for the overlap cost model:
    #: ``num_layers`` rows of ``num_experts`` frequencies (the Fig. 3
    #: heatmap).  ``None`` uses the deterministic depth-varying model
    #: (:func:`~repro.analysis.expert_frequency.fig3_layer_frequencies`).
    #: Requires ``overlap=True``.
    layer_frequencies: tuple | None = None
    #: Total-variation drift threshold triggering dynamic expert
    #: re-placement: when a layer's true routing frequencies (the normalized
    #: ``layer_frequencies`` rows) drift more than this from the offline
    #: profile its placement was packed for, the layer is re-packed (LPT)
    #: once per run, after :data:`DRIFT_WINDOW` distinct batch compositions,
    #: and the moved expert weights are priced over the interconnect.
    #: ``None`` (default) disables re-placement.  Requires ``overlap=True``.
    replacement_threshold: float | None = None
    #: Run the KV pool's structural self-checks (``assert_no_leaks`` /
    #: ``check_invariants``) at the end of every run, and audit at every
    #: loop turn the decode tracker's event state, that each
    #: sequence the on-demand capacity walk skips writes into a private
    #: block it already holds, and that a skipped admission attempt would
    #: have done nothing.  On by default (and in every test); benchmarks
    #: turn it off — it never changes the report, only whether accounting
    #: bugs raise.
    debug_checks: bool = True

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.reserve_gb < 0:
            raise ValueError("reserve_gb must be non-negative")
        self.scheduler_config()  # validates the scheduler's knobs
        if self.kv_policy not in ALLOCATION_POLICIES:
            raise ValueError(
                f"kv_policy must be one of {sorted(ALLOCATION_POLICIES)}, got {self.kv_policy!r}"
            )
        if self.devices <= 0:
            raise ValueError("devices must be positive")
        if self.prefill_devices < 0 or self.decode_devices < 0:
            raise ValueError("prefill_devices/decode_devices must be non-negative")
        if (self.prefill_devices > 0) != (self.decode_devices > 0):
            raise ValueError(
                "disaggregation needs both pools: set prefill_devices and "
                "decode_devices together (or neither for the colocated engine)"
            )
        if self.prefill_devices and self.prefill_devices + self.decode_devices != self.devices:
            raise ValueError(
                f"prefill_devices + decode_devices must equal devices "
                f"({self.prefill_devices} + {self.decode_devices} != {self.devices})"
            )
        if self.placement not in PLACEMENT_POLICIES:
            raise ValueError(
                f"placement must be one of {sorted(PLACEMENT_POLICIES)}, "
                f"got {self.placement!r}"
            )
        if self.expert_frequencies is not None:
            # len() rather than truthiness: callers pass numpy arrays
            # straight from fig3_reference_frequencies / measured profiles.
            if len(self.expert_frequencies) == 0:
                raise ValueError("expert_frequencies must be non-empty when given")
            if any(f <= 0 for f in self.expert_frequencies):
                raise ValueError("expert_frequencies must all be positive")
        if self.overlap and self.devices <= 1:
            raise ValueError("overlap requires devices > 1 (there is no all-to-all to hide)")
        if self.overlap and self.prefill_devices:
            raise ValueError(
                "overlap and disaggregation are mutually exclusive: the layered "
                "overlap cost model assumes one placement spanning every device"
            )
        if self.layer_frequencies is not None:
            if not self.overlap:
                raise ValueError("layer_frequencies requires overlap=True")
            if len(self.layer_frequencies) == 0:
                raise ValueError("layer_frequencies must be non-empty when given")
        if self.replacement_threshold is not None:
            if not self.overlap:
                raise ValueError("replacement_threshold requires overlap=True")
            if not 0.0 < self.replacement_threshold < 1.0:
                raise ValueError(
                    "replacement_threshold must lie in (0, 1) — it is a "
                    "total-variation distance between frequency distributions"
                )

    def scheduler_config(self) -> SchedulerConfig:
        """The scheduler's share of these knobs (validated there)."""
        return SchedulerConfig(
            max_batch_size=self.max_batch_size,
            admission=self.admission,
            prefill_chunk=self.prefill_chunk,
            preempt_mode=self.preempt_mode,
        )


@dataclass
class ServingReport:
    """Aggregate + per-request results of one simulated serving run."""

    backend: str
    model: str
    device: str
    kv_policy: str
    scheduling_policy: str
    num_requests: int
    completed: int
    rejected: int
    #: Requests still in the waiting queue when the run ended — never
    #: admitted, never rejected.  0 for every in-tree scheduling policy
    #: (and then absent from :meth:`to_dict`, keeping historical reports
    #: byte-identical); a conservative custom policy can strand work, and
    #: ``completed + rejected + stranded == num_requests`` always holds.
    stranded: int
    iterations: int
    preemptions: int
    recomputed_tokens: int
    sim_time_s: float
    sustained_qps: float
    ttft: dict[str, float]
    tpot: dict[str, float]
    e2e: dict[str, float]
    peak_batch: int
    mean_batch_tokens: float
    kv_num_blocks: int
    kv_block_size: int
    kv_peak_used_blocks: int
    kv_utilization_peak: float
    prefix_hit_tokens: int
    prefix_hit_blocks: int
    prefix_shared_blocks_peak: int
    prefix_cow_copies: int
    prefix_dedup_ratio: float
    completion_order: list[int]
    requests: list[dict]
    #: Multi-GPU section: per-device KV utilization, expert counts, straggler
    #: ratio and all-to-all traffic.  ``None`` on a single-device engine, and
    #: then absent from :meth:`to_dict` — keeping single-device reports
    #: byte-identical to the pre-sharding engine.
    cluster: dict | None = None
    #: Overlap-mode section: hidden communication seconds, overlap ratio,
    #: dynamic re-placement count and migration stall.  ``None`` (and absent
    #: from :meth:`to_dict`) unless the engine ran with ``overlap=True`` —
    #: serial reports stay byte-identical.
    overlap: dict[str, Any] | None = None
    #: KV-movement section of disaggregated / swap-mode runs: prefill→decode
    #: handoffs, decode-pool rebalance migrations, and swap-to-host traffic
    #: with the recompute-equivalent cost for comparison.  ``None`` (and
    #: absent from :meth:`to_dict`) on a colocated recompute-mode engine —
    #: historical reports stay byte-identical.
    migration: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable view (the ``milo serve`` report schema)."""
        out = {
            "backend": self.backend,
            "model": self.model,
            "device": self.device,
            "policy": {"kv": self.kv_policy, "scheduler": self.scheduling_policy},
            "num_requests": self.num_requests,
            "completed": self.completed,
            "rejected": self.rejected,
            "iterations": self.iterations,
            "preemptions": self.preemptions,
            "recomputed_tokens": self.recomputed_tokens,
            "sim_time_s": self.sim_time_s,
            "sustained_qps": self.sustained_qps,
            "ttft_s": dict(self.ttft),
            "tpot_s": dict(self.tpot),
            "e2e_s": dict(self.e2e),
            "batch": {"peak": self.peak_batch, "mean_tokens": self.mean_batch_tokens},
            "kv_cache": {
                "num_blocks": self.kv_num_blocks,
                "block_size": self.kv_block_size,
                "peak_used_blocks": self.kv_peak_used_blocks,
            },
            "kv_utilization_peak": self.kv_utilization_peak,
            "prefix_cache": {
                "hit_tokens": self.prefix_hit_tokens,
                "hit_blocks": self.prefix_hit_blocks,
                "shared_blocks_peak": self.prefix_shared_blocks_peak,
                "cow_copies": self.prefix_cow_copies,
                "dedup_ratio": self.prefix_dedup_ratio,
            },
            "completion_order": list(self.completion_order),
            "requests": [dict(r) for r in self.requests],
        }
        if self.stranded:
            out["stranded"] = self.stranded
        if self.cluster is not None:
            out["cluster"] = dict(self.cluster)
        if self.overlap is not None:
            out["overlap"] = dict(self.overlap)
        if self.migration is not None:
            out["migration"] = dict(self.migration)
        return out


class ServingEngine:
    """Simulated online serving on top of one Table 7 inference backend."""

    def __init__(
        self,
        backend: InferenceBackend,
        spec: FullModelSpec | str,
        config: EngineConfig | None = None,
    ) -> None:
        if isinstance(spec, str):
            if spec not in FULL_MODEL_SPECS:
                raise KeyError(f"unknown full model spec {spec!r}")
            spec = FULL_MODEL_SPECS[spec]
        self.backend = backend
        self.spec = spec
        self.config = config or EngineConfig()

        if self.config.expert_frequencies is not None:
            if len(self.config.expert_frequencies) != spec.num_experts:
                raise ValueError(
                    f"expert_frequencies has {len(self.config.expert_frequencies)} "
                    f"entries but {spec.name} routes over {spec.num_experts} experts"
                )
            frequencies = tuple(float(f) for f in self.config.expert_frequencies)
        else:
            frequencies = tuple(fig3_reference_frequencies(spec.num_experts))
        self.device_group = DeviceGroup.replicate(backend.device, self.config.devices)
        self.placement = make_expert_placement(
            self.config.placement, frequencies, self.config.devices
        )
        # -- disaggregated prefill/decode pools -------------------------------
        #: Each pool serves the *whole* model on its own devices, so each
        #: gets its own expert placement spanning only that pool — a prefill
        #: device's weight footprint (and therefore KV pool) follows from the
        #: prefill placement, not the global colocated one.
        self._disagg = self.config.prefill_devices > 0
        placements: tuple[ExpertPlacement, ...] = (self.placement,)
        if self._disagg:
            placements = tuple(
                make_expert_placement(self.config.placement, frequencies, n)
                for n in (self.config.prefill_devices, self.config.decode_devices)
            )

        # -- overlap-aware layered cost model --------------------------------
        self._overlap = self.config.overlap
        rows: list[tuple[float, ...]] | None = None
        if self._overlap:
            if self.config.layer_frequencies is not None:
                rows = [tuple(float(f) for f in row) for row in self.config.layer_frequencies]
                if len(rows) != spec.num_layers:
                    raise ValueError(
                        f"layer_frequencies has {len(rows)} rows but {spec.name} "
                        f"has {spec.num_layers} MoE layers"
                    )
            else:
                rows = [
                    tuple(row)
                    for row in fig3_layer_frequencies(spec.num_layers, spec.num_experts)
                ]
            #: Bytes of one expert's weights in one layer — the unit of
            #: migration priced when re-placement moves a (layer, expert)
            #: shard across the interconnect.
            self._expert_layer_bytes = (
                backend.model_memory_gb(spec)
                * expert_weight_fraction(spec)
                * 1024**3
                / (spec.num_experts * spec.num_layers)
            )
        #: Prices every iteration; owns the latency and cost memos, the
        #: layered placement and its re-placement epoch.
        self.cost_model = CostModel(backend, spec, placements, rows)

        if self.config.devices == 1:
            # Single device: the exact pre-sharding construction (one global
            # free-memory check, one physical pool).
            free_gb = backend.free_memory_gb(spec)  # raises OutOfMemoryError on misfit
            kv_budget_gb = free_gb - self.config.reserve_gb
            num_blocks = blocks_for_budget(spec, kv_budget_gb, self.config.block_size)
            if num_blocks <= 0:
                raise OutOfMemoryError(
                    f"{backend.name}: {spec.name} weights fit but leave no VRAM for "
                    f"KV cache ({free_gb:.1f} GB free, {self.config.reserve_gb:.1f} GB reserved)",
                    backend=backend.name,
                    required_gb=backend.model_memory_gb(spec) + self.config.reserve_gb,
                    available_gb=backend.device.memory_gb,
                    device=self.device_group.names[0],
                )
            self.block_manager: BlockManager | ShardedBlockManager = BlockManager(
                num_blocks=num_blocks, block_size=self.config.block_size
            )
        else:
            # Expert parallelism: the routed experts are sharded by the
            # placement, everything else replicated, so each device's weight
            # footprint — and therefore its KV pool — depends on how many
            # experts it hosts.  Admission capacity is re-checked *per
            # device*: a global average can say "fits" while the device the
            # frequency placement loaded with extra experts has no room.
            total_weights_gb = backend.model_memory_gb(spec)
            expert_frac = expert_weight_fraction(spec)
            pools = []
            for d, name in enumerate(self.device_group.names):
                # Decode-pool misfits must name the decode device: its
                # pool-local placement decides how many experts it hosts,
                # and the error is actionable only if it points there.
                pool_placement, local = self._pool_placement(d)
                local_experts = pool_placement.experts_on(local)
                weights_gb = total_weights_gb * (
                    (1.0 - expert_frac) + expert_frac * local_experts / spec.num_experts
                )
                free_gb = backend.device.memory_gb - weights_gb
                kv_budget_gb = free_gb - self.config.reserve_gb
                num_blocks = blocks_for_budget(spec, kv_budget_gb, self.config.block_size)
                if num_blocks <= 0:
                    raise OutOfMemoryError(
                        f"{backend.name}: {name} hosts {local_experts}/{spec.num_experts} "
                        f"experts of {spec.name} ({weights_gb:.1f} GB of weights) and has "
                        f"no VRAM left for KV cache ({free_gb:.1f} GB free, "
                        f"{self.config.reserve_gb:.1f} GB reserved)",
                        backend=backend.name,
                        required_gb=weights_gb + self.config.reserve_gb,
                        available_gb=backend.device.memory_gb,
                        device=name,
                    )
                pools.append(
                    BlockManager(num_blocks=num_blocks, block_size=self.config.block_size)
                )
            self.block_manager = ShardedBlockManager(
                pools, device_names=self.device_group.names
            )

        #: Per-block KV transfer seconds: prefill→decode handoffs and
        #: rebalance migrations cross the interconnect; swap-to-host traffic
        #: crosses the host (PCIe) link.  Priced per paged block — the unit
        #: both the pools and the report account in.
        block_bytes = kv_block_bytes(spec, self.config.block_size)
        self._handoff_s_per_block = block_bytes / backend.device.interconnect_bandwidth
        self._swap_s_per_block = block_bytes / backend.device.host_bandwidth

        # -- telemetry (opt-in; see repro.serving.telemetry) ------------------
        #: Attached via :meth:`enable_telemetry`; ``None`` keeps every hook
        #: on the hot paths behind a single ``is not None`` test, so the
        #: disabled engine is byte-identical and near-free (goldens +
        #: BENCH_engine report_sha256 pin the former, the
        #: ``telemetry_overhead_frac`` benchmark gate the latter).
        self.tracer: Tracer | None = None
        self.metrics: MetricsRegistry | None = None


    def _pool_placement(self, d: int) -> tuple[ExpertPlacement, int]:
        """Placement of the pool serving global device ``d``, and ``d``'s
        index in it (disaggregated: devices ``0..P-1`` are the prefill pool,
        ``P..P+D-1`` the decode pool)."""
        for placement in self.cost_model.pools:
            if d < placement.num_devices:
                return placement, d
            d -= placement.num_devices
        raise IndexError("device index out of range")

    # -- capacity ----------------------------------------------------------------
    def max_batch_size(self, tokens_per_sequence: int) -> int:
        """Max concurrent sequences of a given total length this engine sustains.

        Sized for the reservation policy (each sequence pinning its full
        extent); the on-demand policy packs at least this many.
        """
        return min(
            self.config.max_batch_size,
            self.block_manager.max_sequences(tokens_per_sequence),
        )

    def make_scheduler(self) -> ContinuousBatchingScheduler:
        """Build the scheduler/policy stack (and pool split) for one run."""
        scheduler = ContinuousBatchingScheduler(
            self.block_manager,
            self.config.scheduler_config(),
            allocation=make_allocation_policy(self.config.kv_policy, self.block_manager),
            policy=FifoPriorityPolicy(),
            prefill_devices=self.config.prefill_devices,
        )
        scheduler.debug_checks = self.config.debug_checks
        return scheduler

    # -- telemetry ---------------------------------------------------------------
    def enable_telemetry(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        """Attach observability sinks (see :mod:`repro.serving.telemetry`).

        Pass a *fresh* :class:`~repro.serving.telemetry.Tracer` /
        :class:`~repro.serving.telemetry.MetricsRegistry` per ``run`` —
        events append across runs otherwise.  Passing ``None`` for both
        detaches telemetry and restores the byte-identical disabled path.
        """
        self.tracer = tracer
        self.metrics = metrics
        if tracer is not None:
            meta = tracer.meta
            meta.setdefault("model", self.spec.name)
            meta.setdefault("backend", self.backend.name)
            meta.setdefault("devices", list(self.device_group.names))
            meta.setdefault("block_size", self.config.block_size)
            meta.setdefault("overlap", self._overlap)
        block_manager = self.block_manager
        if isinstance(block_manager, ShardedBlockManager):
            for pool in block_manager.pools:
                pool.tracer = tracer
        else:
            block_manager.tracer = tracer

    def _sample_metrics(
        self,
        metrics: MetricsRegistry,
        scheduler: ContinuousBatchingScheduler,
        clock: float,
        iterations: int,
        batch: int,
    ) -> float:
        """Record one metrics sample; returns the next due time."""
        block_manager = self.block_manager
        num_devices = len(self.device_group)
        free_per_device = (
            [block_manager.free_blocks_on(d) for d in range(num_devices)]
            if num_devices > 1
            else None
        )
        metrics.sample(
            clock,
            iterations,
            batch=batch,
            waiting=len(scheduler.waiting),
            preemptions=scheduler.preemptions,
            placement_epoch=self.cost_model.epoch,
            used_blocks=block_manager.used_blocks,
            free_blocks=block_manager.free_blocks,
            free_per_device=free_per_device,
        )
        return metrics.next_due

    # -- simulation --------------------------------------------------------------
    def run(self, requests: Iterable[Request]) -> ServingReport:
        """Serve ``requests`` to completion and report client-visible metrics."""
        pending = sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
        scheduler = self.make_scheduler()
        scheduler.tracer = self.tracer
        self.block_manager.reset_stats()
        # Dynamic re-placement mutates the layered placement mid-run; every
        # run() starts from the pristine one (run-to-run determinism).
        self.cost_model.reset()
        totals = self._run(pending, scheduler)
        if self.tracer is not None:
            self.tracer.now = totals.clock  # strand events carry the final clock
        scheduler.drain_stranded()
        if self.config.debug_checks:
            self.block_manager.assert_no_leaks()
        return self._build_report(
            scheduler,
            totals,
            cluster=totals.cluster_section(self) if len(self.device_group) > 1 else None,
            overlap=(
                totals.overlap_section(self.cost_model.efficiency) if self._overlap else None
            ),
            migration=(
                totals.migration_section(self.config, scheduler)
                if self._disagg or self.config.preempt_mode == "swap"
                else None
            ),
            # Read only when a request finished, so never for an empty run.
            first_submitted=pending[0].arrival_time if pending else 0.0,
            num_submitted=len(pending),
        )

    def _transfer(self, kind: str, move: KVMove, clock: float, totals: RunTotals) -> float:
        """Price a KV move the scheduler made, ``kind`` ``"handoff"`` or
        rebalance ``"migrate"``: its blocks stall the clock, which is returned."""
        stall = move.blocks * self._handoff_s_per_block
        t1 = clock + stall
        if kind == "handoff":
            totals.handoffs += 1
            totals.handoff_blocks += move.blocks
            totals.handoff_s += stall
        else:
            totals.rebalances += 1
            totals.rebalanced_blocks += move.blocks
            totals.rebalance_s += stall
        tracer = self.tracer
        if tracer is not None:
            tracer.transfer(kind, move.seq, clock, t1, move.src, move.dst, move.blocks, stall)
            tracer.now = t1  # later KV events carry the advanced clock
        return t1

    def _run(
        self, pending: list[Request], scheduler: ContinuousBatchingScheduler
    ) -> RunTotals:
        """The engine loop: one priced stretch of iterations per turn.

        A turn does the boundary work in order — arrivals, the on-demand
        capacity walk, admission and swap-in — each only when its inputs
        may have changed, then loads and prices the batch once and
        advances one stretch at that cost, and finally steps the decode
        tracker with the prefill→decode handoff, eviction and the
        decode-pool rebalance, which the scheduler decides and makes and
        the loop only prices (:meth:`_transfer`).  ``admit`` is retried
        only after an arrival, eviction, preemption, handoff or rebalance
        since the last attempt: the only events that free blocks or requeue
        a sequence (a failed attempt's other inputs, ``may_join(running,
        config)`` and the prefix index, which gains entries only at
        admission, cannot change in between).  The tracker steps only while a sequence prefills or a
        finish is due; the KV peaks are re-read only after
        ``block_manager.rises`` moved.

        With a ``replacement_threshold``, the turns count distinct
        consecutive batch compositions; at the :data:`DRIFT_WINDOW`-th the
        run makes its one re-placement decision, priced after that turn's
        first iteration, and the loop stops counting.

        A stretch is one iteration while a sequence prefills or right after
        a dynamic re-placement moved experts.  Otherwise the batch is
        frozen up to the next finish (the stretch's last iteration), and
        the stretch ends there or at the first iteration that reaches the
        next arrival, repeating the exact float additions of stepping it
        one iteration at a time (bit-identical clock).  A KV block boundary
        does not end it: after the iteration that reaches one, the
        scheduler grants the crossings in bulk
        (:meth:`~repro.serving.scheduler.ContinuousBatchingScheduler.grant_boundaries`,
        the first step of the next turn's ``ensure_capacity``), and only a
        declined grant (copy-on-write or preemption due) ends the stretch
        so the next turn walks it.  Nothing else a turn start does can act
        there: no arrival is due, nothing finished and admission would
        retry nothing; occupancy only rises, so the KV peaks sampled after
        the stretch are its maxima.  Traced or not, a stretch advances
        through the same loop; with telemetry, each advanced segment (up to
        the stretch end, a due boundary or an arrival) is then replayed from
        its first clock with the same additions, emitting every iteration's
        ``iter`` event and due metrics sample before the segment's grant, so
        they read the KV state the iterations ran under and the grant's
        ``kv`` events follow them at the segment's last clock.
        """
        num_devices = len(self.device_group)
        totals = RunTotals([0] * num_devices)
        clock = 0.0
        next_arrival = 0
        n_pending = len(pending)
        iterations = 0
        total_tokens = 0
        chunk = scheduler.config.prefill_chunk
        grows = scheduler.allocation.grows
        multi = num_devices > 1
        disagg = self._disagg
        swap_mode = scheduler.config.preempt_mode == "swap"
        # Distinct compositions left before the re-placement decision (0:
        # decided, or re-placement is off), and the last one counted.
        threshold = self.config.replacement_threshold
        drift_left = DRIFT_WINDOW if threshold is not None else 0
        last_ckey = None
        cost_model = self.cost_model
        block_manager = self.block_manager
        running = scheduler.running
        waiting = scheduler.waiting
        tracker = scheduler.decode
        finish_heap = tracker.finish_heap
        boundary_heap = tracker.boundary_heap
        debug = self.config.debug_checks
        inf = float("inf")
        #: Arrival time of ``pending[next_arrival]`` (``inf`` when drained),
        #: kept in a local so the steady-state loops compare plain floats.
        next_at = pending[0].arrival_time if pending else inf
        tracer = self.tracer
        metrics = self.metrics
        #: Next due metrics sample time (``inf`` disables the clock compare).
        metrics_due = metrics.next_due if metrics is not None else inf
        telemetry = tracer is not None or metrics is not None
        #: ``block_manager.rises`` at the last peak sample.
        sampled_rises = -1
        #: Whether an event since the last ``admit`` may change its outcome.
        admit_dirty = False
        #: Disaggregated runs: sequences whose prefill just completed.
        started: list[Sequence] | None = [] if disagg else None

        while next_arrival < n_pending or scheduler.has_work:
            while next_at <= clock:
                scheduler.add_request(pending[next_arrival])
                next_arrival += 1
                next_at = pending[next_arrival].arrival_time if next_arrival < n_pending else inf
                admit_dirty = True
            if tracer is not None:
                tracer.now = clock  # events inside ensure_capacity/admit carry it
            if grows:
                # Running sequences secure the blocks their next token needs
                # (preempting the low-precedence tail if the pool is dry)
                # before any queued request may claim free blocks.
                if running and scheduler.ensure_capacity():
                    admit_dirty = True
            elif debug and running:
                tracker.audit(running)
            if admit_dirty:
                admit_dirty = False
                admitted = scheduler.admit(clock) if waiting else None
                if admitted and len(running) > totals.peak_batch:
                    totals.peak_batch = len(running)  # the batch grows only here
                if swap_mode and admitted:
                    for seq in admitted:
                        if not seq.swapped_tokens:
                            continue
                        # A re-admitted swap victim restores its parked KV
                        # over the host link before the batch may step (one
                        # serial PCIe link, charged to the clock).
                        blocks = block_manager.blocks_needed(seq.swapped_tokens)
                        stall = blocks * self._swap_s_per_block
                        resume_t0 = clock
                        clock += stall
                        totals.swap_in_s += stall
                        # What discarding instead would have cost: one
                        # re-prefill pass over the swapped tokens.
                        totals.recompute_equivalent_s += cost_model.latency(seq.swapped_tokens)
                        if tracer is not None:
                            tracer.swap_in(seq, resume_t0, clock, blocks, stall)
                            tracer.now = clock
                        seq.swapped_tokens = 0
            elif debug:
                scheduler.audit_skipped_admit()
            if not running:
                if next_arrival < n_pending:
                    clock = max(clock, next_at)  # idle: jump to the next arrival
                    continue
                break

            # Each decoding sequence contributes one token row; only the
            # walked (prefilling) sequences need counting one by one.
            tokens, home_key = tracker.load(chunk)
            cost = cost_model.cost(tokens, home_key)
            stall = 0.0
            if drift_left and (tokens, home_key) != last_ckey:
                last_ckey = (tokens, home_key)
                drift_left -= 1
                if not drift_left:
                    # Re-pack the layers whose true routing drifted from the
                    # profile; this turn is priced by the old layout.
                    assert threshold is not None and cost_model.layers is not None
                    moved = cost_model.repack(cost_model.layers.layer_frequencies, threshold)
                    if moved:
                        # The new epoch is stamped onto later admissions.
                        scheduler.placement_epoch = cost_model.epoch
                        stall = expert_migration_seconds(
                            moved, self._expert_layer_bytes,
                            self.backend.device.interconnect_bandwidth,
                        )
                        totals.migration_s += stall
                        totals.replacements += 1
            if stall or tracker.walked:
                # A re-placement reprices the next iteration (its stall lands
                # after this one); a prefill chunk changes every iteration.
                span = 1
            else:
                # Pure decode up to the next finish, the stretch's last
                # iteration (a stale heap top only shortens it).
                span = finish_heap[0][0] - iterations
            # The first iteration always runs (a swap-in stall may have
            # carried the clock past the next arrival), later ones only while
            # the clock is short of it.  After an iteration that brings the
            # boundary heap due, the scheduler grants the crossings in bulk
            # (what the next turn's ensure_capacity would do first) or
            # declines, which ends the stretch.
            step = cost.step
            done = 0
            while True:
                # Advance to the stretch's end or its next boundary; a
                # boundary already due (a swap-resumed admission can arm
                # one) is granted after one iteration.
                stop = span
                if boundary_heap and boundary_heap[0] - iterations < stop:
                    stop = boundary_heap[0] - iterations
                    if stop <= done:
                        stop = done + 1
                t1, first = clock, done  # the segment's start, for the replay
                # Conservative unchecked prefix: after k additions the
                # accumulated rounding error is far below one step, so
                # ``(next_at - clock)/step - 2`` iterations provably keep
                # ``clock < next_at`` throughout — run them without the
                # per-iteration comparison, then finish checked.
                n = stop - done
                if next_at is not inf and step > 0.0:
                    safe = int((next_at - clock) / step) - 2
                    if safe < n:
                        n = safe if safe > 1 else 1
                for _ in range(n):
                    clock += step
                done += n
                while done < stop and next_at > clock:
                    clock += step
                    done += 1
                if telemetry:
                    # Replay the segment's iterations from its first clock
                    # with the same additions (a stall comes only with a
                    # one-iteration stretch): each emits its iter event and
                    # due metrics sample, which read only state constant
                    # across the segment, before the grant below moves KV.
                    batch = len(running)
                    for i in range(iterations + first, iterations + done):
                        t0 = t1
                        t1 = t0 + step + stall
                        if tracer is not None:
                            tracer.iteration(
                                i, t0, t1, tokens, batch, cost if multi else None, stall
                            )
                        if t1 >= metrics_due:
                            metrics_due = self._sample_metrics(
                                metrics, scheduler, t1, i + 1, batch
                            )
                    if tracer is not None:
                        tracer.now = t1  # the grant's and the finishes' events carry it
                if done == span or next_at <= clock:
                    break
                tracker.iteration = iterations + done
                if not scheduler.grant_boundaries():
                    break
            clock += stall  # stalls come only with one-iteration stretches
            if multi:
                totals.charge(cost, done)
            iterations += done
            total_tokens += tokens * done
            rises = block_manager.rises  # a sum over pools when sharded
            if rises != sampled_rises:
                # Occupancy can only have risen if a block was taken or
                # newly shared since the last sample.
                sampled_rises = rises
                totals.sample_kv(block_manager)

            if tracker.walked or (finish_heap and finish_heap[0][0] <= iterations):
                finished_any = tracker.step(iterations, clock, chunk, tracer, started)
                for seq in started or ():
                    # Prefill just completed: the KV leaves the prefill pool
                    # before the next iteration (the handoff delays the
                    # second token), or the sequence is preempted.
                    admit_dirty = True
                    move = scheduler.handoff(seq)
                    if move is not None:
                        clock = self._transfer("handoff", move, clock, totals)
                if started:
                    started.clear()
                if finished_any:
                    scheduler.evict_finished()
                    admit_dirty = True  # freed blocks / batch slots
                    if disagg:
                        # Batch membership changed, so the decode pool's
                        # load may have skewed.
                        move = scheduler.rebalance()
                        if move is not None:
                            clock = self._transfer("migrate", move, clock, totals)
            else:
                tracker.iteration = iterations

        totals.clock = clock
        totals.iterations = iterations
        totals.total_tokens = total_tokens
        return totals

    # -- reporting ---------------------------------------------------------------
    def _build_report(
        self,
        scheduler: ContinuousBatchingScheduler,
        totals: RunTotals,
        cluster: dict | None = None,
        overlap: dict | None = None,
        migration: dict | None = None,
        *,
        first_submitted: float,
        num_submitted: int,
    ) -> ServingReport:
        finished = scheduler.finished
        records: list[dict] = []
        terminal = finished + scheduler.rejected + scheduler.stranded
        # Conservation: every submitted request must land in exactly one
        # terminal state — nothing may silently vanish from the report.
        assert len(terminal) == num_submitted, (
            f"request accounting leak: {len(scheduler.finished)} finished + "
            f"{len(scheduler.rejected)} rejected + {len(scheduler.stranded)} "
            f"stranded != {num_submitted} submitted"
        )
        multi_device = len(self.device_group) > 1
        # Summary lists keep *finish order* (their float reduction order is
        # pinned by the goldens), so the records are built in that order,
        # each latency property evaluated once for both, then stably sorted
        # by request id.
        ttfts: list[float] = []
        tpots: list[float] = []
        e2es: list[float] = []
        num_finished = len(finished)
        for i, seq in enumerate(terminal):
            ttft, tpot, e2e = seq.ttft, seq.tpot, seq.e2e_latency
            if i < num_finished:
                if ttft is not None:
                    ttfts.append(ttft)
                if tpot is not None:
                    tpots.append(tpot)
                if e2e is not None:
                    e2es.append(e2e)
            record = {
                "request_id": seq.request.request_id,
                "state": seq.state.value,
                "arrival_s": seq.request.arrival_time,
                "prompt_tokens": seq.request.prompt_tokens,
                "new_tokens": seq.generated_tokens,
                "ttft_s": ttft,
                "tpot_s": tpot,
                "e2e_s": e2e,
            }
            if multi_device:
                # Home of the request's KV (its last admission); rejected
                # requests never held blocks on any device.
                record["device"] = (
                    self.device_group.names[seq.home_device] if seq.is_finished else None
                )
                if self._overlap:
                    # Which cluster layout (re-placement epoch) served the
                    # request's last admission.
                    record["placement_epoch"] = (
                        seq.placement_epoch if seq.is_finished else None
                    )
            records.append(record)
        records.sort(key=itemgetter("request_id"))
        if finished:
            # The sustained-QPS window opens at the first *submitted* arrival
            # (not the first finished one): when early arrivals are rejected
            # or load-shed, the system was already accepting traffic, and
            # shrinking the window to the survivors overstates throughput.
            last_finish = max(s.finish_time for s in finished)
            makespan = max(last_finish - first_submitted, 1e-12)
            qps = len(finished) / makespan
        else:
            qps = 0.0
        return ServingReport(
            backend=self.backend.name,
            model=self.spec.name,
            device=self.backend.device.name,
            kv_policy=scheduler.allocation.name,
            scheduling_policy=scheduler.policy.name,
            num_requests=len(terminal),
            completed=len(finished),
            rejected=len(scheduler.rejected),
            stranded=len(scheduler.stranded),
            iterations=totals.iterations,
            preemptions=scheduler.preemptions,
            recomputed_tokens=scheduler.recomputed_tokens,
            sim_time_s=totals.clock,
            sustained_qps=qps,
            ttft=summarize_latencies(ttfts),
            tpot=summarize_latencies(tpots),
            e2e=summarize_latencies(e2es),
            peak_batch=totals.peak_batch,
            mean_batch_tokens=(
                totals.total_tokens / totals.iterations if totals.iterations else 0.0
            ),
            kv_num_blocks=self.block_manager.num_blocks,
            kv_block_size=self.block_manager.block_size,
            kv_peak_used_blocks=totals.peak_used_blocks,
            kv_utilization_peak=(
                totals.peak_used_blocks / self.block_manager.num_blocks
                if self.block_manager.num_blocks
                else 0.0
            ),
            prefix_hit_tokens=self.block_manager.prefix_hit_tokens,
            prefix_hit_blocks=self.block_manager.prefix_hit_blocks,
            prefix_shared_blocks_peak=totals.peak_shared_blocks,
            prefix_cow_copies=self.block_manager.cow_copies,
            prefix_dedup_ratio=(
                (self.block_manager.physical_allocs + self.block_manager.prefix_hit_blocks)
                / self.block_manager.physical_allocs
                if self.block_manager.physical_allocs
                else 1.0
            ),
            completion_order=[s.request.request_id for s in finished],
            requests=records,
            cluster=cluster,
            overlap=overlap,
            migration=migration,
        )
