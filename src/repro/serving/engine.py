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
experts' share), each admission pinned to the least-loaded home device.  The
iteration cost becomes the max over per-device costs: every device runs its
experts' share of the token load (split by Fig. 3 routing-frequency mass, so
skew creates stragglers) plus an all-to-all term for tokens dispatched to
remote experts.  ``devices=1`` reduces to the exact pre-sharding engine,
byte for byte (``tests/serving/test_golden_equivalence.py`` pins this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

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
    LayeredExpertPlacement,
    RoutingDriftTracker,
    ShardedBlockManager,
    expert_migration_seconds,
    make_expert_placement,
    split_tokens,
)
from .kv_cache import (
    ALLOCATION_POLICIES,
    BlockManager,
    blocks_for_budget,
    kv_block_bytes,
    make_allocation_policy,
)
from .request import Request, Sequence
from .scheduler import (
    ADMISSION_MODES,
    PREEMPT_MODES,
    ContinuousBatchingScheduler,
    FifoPriorityPolicy,
    SchedulerConfig,
    SchedulingPolicy,
)

__all__ = [
    "EngineConfig",
    "ServingReport",
    "ServingEngine",
    "REPORT_SCHEMA_KEYS",
    "expert_weight_fraction",
    "overlap_step_seconds",
]

#: Every key the serving report may contain, at any nesting level.  The
#: ``report_sha256`` regression gate hashes the report verbatim, so adding
#: a key anywhere changes the hash of every benchmark; RPT001 (milo lint)
#: rejects any key written in ``to_dict`` / ``_build_report`` /
#: ``_cluster_section`` / ``run`` that is not declared here, making every
#: schema change an explicit two-line diff (the write + this constant).
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

#: Batch-composition changes per drift-detection window of the overlap
#: mode's dynamic re-placement (a sliding window of measured routing).
#: Small enough that a workload whose routing disagrees with the offline
#: profile is re-placed early in the run, large enough that one odd batch
#: cannot trigger a migration storm.
DRIFT_WINDOW = 16

#: Totals handed from either engine loop to ``run``: (clock, iterations,
#: total_tokens, peak_batch, peak_used_blocks, peak_shared_blocks,
#: peak_used_per_device, straggler_max_s, straggler_mean_s,
#: alltoall_tokens, hidden_comm_s, comm_total_s, migration_s,
#: replacements, disagg_totals).  ``disagg_totals`` nests the KV-movement
#: accounting of disaggregated / swap-mode runs: (handoffs, handoff_blocks,
#: handoff_s, rebalances, rebalanced_blocks, rebalance_s, swap_in_s,
#: recompute_equivalent_s) — all zero whenever the run cannot move KV (the
#: fast path never does: disagg forces the general loop and reservation
#: allocation never preempts, so there is nothing to swap).  Both loops
#: MUST populate every slot identically — the fast/general
#: byte-equivalence tests hash reports built from these.
_RunTotals = tuple[
    float, int, int, int, int, int, list[int],
    float, float, int, float, float, float, int,
    tuple[int, int, float, int, int, float, float, float],
]


#: Home-independent half of one layered overlap iteration cost, memoized per
#: ``(tokens, placement_epoch)``: each layer's per-device token loads (an
#: int32 ``layers x devices`` array), each layer's critical-path compute (a
#: float64 array), the summed max and loaded-mean computes, and the
#: per-device compute sums trace events report.  Arrays keep the memo small:
#: a few hundred distinct token counts occur per thousand requests.
_OverlapSplit = tuple[np.ndarray, np.ndarray, float, float, tuple[float, ...]]


def overlap_step_seconds(
    compute_s: Iterable[float], comm_s: Iterable[float], efficiency: float
) -> tuple[float, float]:
    """Step time of one layered iteration with dispatch/combine overlap.

    ``compute_s[l]`` is layer ``l``'s critical-path compute and ``comm_s[l]``
    its all-to-all time; the communication of layer ``l`` overlaps with the
    compute of layer ``l + 1``, hiding ``efficiency * min(compute, comm)``
    seconds at each boundary.  Returns ``(step_seconds, hidden_seconds)``.

    At ``efficiency=0`` the result is bit-for-bit the serial layered cost
    ``sum_l (compute_s[l] + comm_s[l])`` — same accumulation order, and
    ``x - 0.0 == x`` exactly in IEEE arithmetic for the non-negative carries
    involved.  At ``efficiency=1`` every boundary degenerates to
    ``max(compute_l, comm_{l-1})``.  The hidden term never exceeds either
    operand, so the overlap step is monotonically <= the serial step for any
    efficiency in [0, 1] (``tests/serving/test_overlap.py`` pins both
    properties).
    """
    step = 0.0
    hidden_total = 0.0
    carry = 0.0  # the previous layer's combine still in flight
    for compute, comm in zip(compute_s, comm_s):
        hidden = efficiency * (compute if compute < carry else carry)
        step += compute + (carry - hidden)
        hidden_total += hidden
        carry = comm
    # The last layer's combine has no successor compute to hide under.
    step += carry
    return step, hidden_total


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
    #: re-placement: when a layer's measured routing frequencies drift more
    #: than this from the profile its placement was packed for, the layer is
    #: re-packed (LPT) and the moved expert weights are priced over the
    #: interconnect.  ``None`` (default) disables re-placement.  Requires
    #: ``overlap=True``.
    replacement_threshold: float | None = None
    #: Run the KV pool's structural self-checks (``assert_no_leaks`` /
    #: ``check_invariants``) at the end of every run, and audit at every
    #: boundary that each sequence the on-demand capacity walk skips writes
    #: into a private block it already holds.  On by default (and in every
    #: test); benchmarks turn it off — it never changes the report, only
    #: whether accounting bugs raise.
    debug_checks: bool = True
    #: Use the steady-state fast path (reservation allocation + default
    #: scheduling policy only): uneventful pure-decode iterations are
    #: compressed into a tight loop that repeats the exact per-iteration
    #: float operations, so reports stay bit-identical to the general
    #: per-iteration loop (``False`` forces that loop; used by the
    #: equivalence tests and as an escape hatch).
    fast_path: bool = True

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.reserve_gb < 0:
            raise ValueError("reserve_gb must be non-negative")
        if self.max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if self.admission not in ADMISSION_MODES:
            raise ValueError(
                f"admission must be one of {ADMISSION_MODES}, got {self.admission!r}"
            )
        if self.kv_policy not in ALLOCATION_POLICIES:
            raise ValueError(
                f"kv_policy must be one of {sorted(ALLOCATION_POLICIES)}, got {self.kv_policy!r}"
            )
        if self.prefill_chunk is not None and self.prefill_chunk <= 0:
            raise ValueError("prefill_chunk must be positive (or None to disable)")
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
        if self.preempt_mode not in PREEMPT_MODES:
            raise ValueError(
                f"preempt_mode must be one of {PREEMPT_MODES}, got {self.preempt_mode!r}"
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
        if self._disagg:
            self._prefill_pool = tuple(range(self.config.prefill_devices))
            self._decode_pool = tuple(
                range(self.config.prefill_devices, self.config.devices)
            )
            self._prefill_placement = make_expert_placement(
                self.config.placement, frequencies, self.config.prefill_devices
            )
            self._decode_placement = make_expert_placement(
                self.config.placement, frequencies, self.config.decode_devices
            )
        #: Interconnect time to dispatch one routed token to a remote expert
        #: and combine its output back (hidden activations cross twice, FP16).
        self._alltoall_s_per_token = (
            2 * spec.hidden_size * 2 / backend.device.interconnect_bandwidth
        )

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
                if self._disagg:
                    # Decode-pool misfits must name the decode device: its
                    # pool-local placement decides how many experts it hosts,
                    # and the error is actionable only if it points there.
                    pool_placement, local = self._pool_placement(d)
                    local_experts = pool_placement.experts_on(local)
                else:
                    local_experts = self.placement.experts_on(d)
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
            if self._disagg:
                # New admissions land on the prefill pool; the scheduler
                # re-steers this restriction per head (decode pool for
                # swapped decode-phase resumes) and restores it after.
                self.block_manager.admit_devices = self._prefill_pool

        #: Per-block KV transfer seconds: prefill→decode handoffs and
        #: rebalance migrations cross the interconnect; swap-to-host traffic
        #: crosses the host (PCIe) link.  Priced per paged block — the unit
        #: both the pools and the report account in.
        block_bytes = kv_block_bytes(spec, self.config.block_size)
        self._handoff_s_per_block = block_bytes / backend.device.interconnect_bandwidth
        self._swap_s_per_block = block_bytes / backend.device.host_bandwidth

        #: Memoized backend step latency per token-load (pure in the load for
        #: a fixed backend/spec, so it persists across runs).
        self._latency_cache: dict[int, float] = {}
        #: Memoized per-iteration cost beyond the single-int latency cache:
        #: keyed by the batch token count (single device) or by
        #: ``(tokens, per-device home token counts)`` (multi-device), holding
        #: the full ``(step, max_compute, mean_compute, remotes)`` result of
        #: the device loop.
        self._cost_cache: dict[object, tuple[Any, ...]] = {}
        #: Overlap mode: the home-independent per-layer split of each
        #: ``(tokens, placement_epoch)`` (see :meth:`_overlap_split`).
        self._split_cache: dict[tuple[int, int], _OverlapSplit] = {}

        # -- telemetry (opt-in; see repro.serving.telemetry) ------------------
        #: Attached via :meth:`enable_telemetry`; ``None`` keeps every hook
        #: on the hot paths behind a single ``is not None`` test, so the
        #: disabled engine is byte-identical and near-free (goldens +
        #: BENCH_engine report_sha256 pin the former, the
        #: ``telemetry_overhead_frac`` benchmark gate the latter).
        self.tracer: Tracer | None = None
        self.metrics: MetricsRegistry | None = None
        #: Memoized per-device compute tuples for iteration trace events —
        #: telemetry-only derived data, deliberately separate from
        #: ``_cost_cache`` so enabling tracing cannot perturb the report
        #: math's memo population order.
        self._telemetry_cost_cache: dict[object, tuple[float, ...]] = {}

        # -- overlap-aware layered cost model --------------------------------
        self._overlap = self.config.overlap
        self._drift: RoutingDriftTracker | None = None
        #: Bumped at every dynamic expert re-placement; part of the overlap
        #: cost memo key (a re-packed layer changes every iteration cost) and
        #: stamped onto sequences at admission via the scheduler.
        self._placement_epoch = 0
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
            #: Pristine per-layer profile rows, kept so repeated ``run()``
            #: calls can rebuild the layered placement dynamic re-placement
            #: may have mutated (run-to-run determinism).
            self._layer_rows = rows
            self.layered_placement = LayeredExpertPlacement(self.placement, rows)
            self._alltoall_s_per_layer_token = self._alltoall_s_per_token / spec.num_layers
            self._overlap_efficiency = min(
                1.0, max(0.0, backend.device.overlap_efficiency)
            )
            #: Bytes of one expert's weights in one layer — the unit of
            #: migration priced when re-placement moves a (layer, expert)
            #: shard across the interconnect.
            self._expert_layer_bytes = (
                backend.model_memory_gb(spec)
                * expert_weight_fraction(spec)
                * 1024**3
                / (spec.num_experts * spec.num_layers)
            )
            if self.config.replacement_threshold is not None:
                self._drift = RoutingDriftTracker(rows, window=DRIFT_WINDOW)

    def _pool_placement(self, d: int) -> tuple[ExpertPlacement, int]:
        """Pool-local placement serving global device ``d``, and its index in it.

        Disaggregated engines only: devices ``0..P-1`` belong to the prefill
        placement, ``P..P+D-1`` to the decode placement.
        """
        prefill = self.config.prefill_devices
        if d < prefill:
            return self._prefill_placement, d
        return self._decode_placement, d - prefill

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
        """Build the scheduler/policy stack for one run over this engine's pool."""
        scheduler = ContinuousBatchingScheduler(
            self.block_manager,
            SchedulerConfig(
                max_batch_size=self.config.max_batch_size,
                admission=self.config.admission,
                prefill_chunk=self.config.prefill_chunk,
                preempt_mode=self.config.preempt_mode,
            ),
            allocation=make_allocation_policy(self.config.kv_policy, self.block_manager),
            policy=FifoPriorityPolicy(),
        )
        scheduler.debug_checks = self.config.debug_checks
        if self._disagg:
            scheduler.prefill_pool = self._prefill_pool
            scheduler.decode_pool = self._decode_pool
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

    def _telemetry_per_device(
        self, tokens: int, home_key: tuple[int, ...]
    ) -> tuple[float, ...]:
        """Per-device compute seconds of one iteration, for trace events.

        Derived from the same memoized latencies the cost model reads, but
        kept in a separate telemetry-only memo: the report math's caches see
        the identical access pattern whether or not tracing is on.  The
        split depends only on the token count (device mass fixes the
        shares; ``home_key`` shifts communication, not compute), so the key
        is ``tokens``.  Under overlap the per-layer split memo the cost
        model already filled for this iteration holds the sums.
        """
        if self._overlap:
            return self._overlap_split(tokens)[4]
        pool_tokens: tuple[int, int] | None = None
        key: object
        if self._disagg:
            # Each pool splits its *own* token share by its own placement's
            # mass, so the split depends on the (prefill, decode) pool token
            # pair rather than the batch total.
            prefill = self.config.prefill_devices
            pool_tokens = (sum(home_key[:prefill]), sum(home_key[prefill:]))
            key = ("dg",) + pool_tokens
        else:
            key = tokens
        entry = self._telemetry_cost_cache.get(key)
        if entry is not None:
            return entry
        latency_cache = self._latency_cache
        backend = self.backend
        spec = self.spec
        if pool_tokens is not None:
            computes = []
            for placement, ptokens in zip(
                (self._prefill_placement, self._decode_placement), pool_tokens
            ):
                if not ptokens:
                    computes.extend([0.0] * len(placement.device_mass))
                    continue
                for load in split_tokens(ptokens, placement.device_mass):
                    if load:
                        compute = latency_cache.get(load)
                        if compute is None:
                            compute = backend.iteration_latency(spec, load).total
                            latency_cache[load] = compute
                        computes.append(compute)
                    else:
                        computes.append(0.0)
            entry = tuple(computes)
        else:
            computes = []
            for load in split_tokens(tokens, self.placement.device_mass):
                if load:
                    compute = latency_cache.get(load)
                    if compute is None:
                        compute = backend.iteration_latency(spec, load).total
                        latency_cache[load] = compute
                    computes.append(compute)
                else:
                    computes.append(0.0)
            entry = tuple(computes)
        if len(self._telemetry_cost_cache) >= 262144:
            self._telemetry_cost_cache.clear()
        self._telemetry_cost_cache[key] = entry
        return entry

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
            placement_epoch=self._placement_epoch,
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
        if self._overlap:
            # Dynamic re-placement mutates the layered placement mid-run;
            # rebuild it from the pristine profile so every run() starts from
            # the same state (run-to-run determinism), and drop the cost memo
            # whose epoch-tagged keys would otherwise alias across runs.
            if self._placement_epoch > 0:
                self.layered_placement = LayeredExpertPlacement(
                    self.placement, self._layer_rows
                )
                self._placement_epoch = 0
                self._cost_cache.clear()
                self._split_cache.clear()
                self._telemetry_cost_cache.clear()
            if self._drift is not None:
                self._drift.reset()
        # Both loops track decode progress through the scheduler's decode
        # tracker (finish and KV block-boundary events).  The fast path
        # additionally macro-steps the iterations between events, which
        # requires two properties the general loop does not: blocks move
        # only at admission/eviction (reservation allocation — no growth,
        # preemption or copy-on-write mid-decode), and the admission outcome
        # is a pure function of (waiting, running, pool) state (the default
        # policy), so a failed admit need not be retried until that state
        # changes.  Everything else takes the general per-iteration loop.
        # Both produce bit-identical reports (goldens + equivalence tests
        # pin this).
        if (
            self.config.fast_path
            and not self._disagg
            and not scheduler.allocation.grows
            and type(scheduler.policy) in (SchedulingPolicy, FifoPriorityPolicy)
        ):
            totals = self._run_fast(pending, scheduler)
        else:
            totals = self._run_general(pending, scheduler)
        (clock, iterations, total_tokens, peak_batch, peak_used_blocks,
         peak_shared_blocks, peak_used_per_device,
         straggler_max_s, straggler_mean_s, alltoall_tokens,
         hidden_comm_s, comm_total_s, migration_s, replacements,
         disagg_totals) = totals
        if self.tracer is not None:
            self.tracer.now = clock  # strand events carry the final clock
        scheduler.drain_stranded()
        if self.config.debug_checks:
            self.block_manager.assert_no_leaks()
        cluster = None
        if len(self.device_group) > 1:
            cluster = self._cluster_section(
                peak_used_per_device, straggler_max_s, straggler_mean_s, alltoall_tokens
            )
        overlap = None
        if self._overlap:
            overlap = {
                "efficiency": self._overlap_efficiency,
                "hidden_comm_s": hidden_comm_s,
                "overlap_ratio": (
                    hidden_comm_s / comm_total_s if comm_total_s else 0.0
                ),
                "replacements": replacements,
                "migration_s": migration_s,
            }
        migration = None
        if self._disagg or self.config.preempt_mode == "swap":
            (handoffs, handoff_blocks, handoff_s, rebalances, rebalanced_blocks,
             rebalance_s, swap_in_s, recompute_equivalent_s) = disagg_totals
            migration = {
                "prefill_devices": self.config.prefill_devices,
                "decode_devices": self.config.decode_devices,
                "handoffs": handoffs,
                "handoff_blocks": handoff_blocks,
                "handoff_s": handoff_s,
                "rebalances": rebalances,
                "rebalanced_blocks": rebalanced_blocks,
                "rebalance_s": rebalance_s,
                "swaps": scheduler.swaps,
                "swapped_blocks": scheduler.swapped_blocks,
                "swap_in_s": swap_in_s,
                # What the swapped KV would have cost to re-prefill instead:
                # swap vs recompute directly comparable from one run.
                "recompute_equivalent_s": recompute_equivalent_s,
            }
        return self._build_report(
            scheduler, clock, iterations, total_tokens, peak_batch, peak_used_blocks,
            peak_shared_blocks, cluster, overlap, migration,
            first_submitted=pending[0].arrival_time if pending else None,
            num_submitted=len(pending),
        )

    def _iteration_cost(
        self, tokens: int, home_key: tuple[int, ...] | None
    ) -> tuple[float, float, float, tuple[float, ...] | None]:
        """Memoized cost of one iteration over ``tokens`` batch token rows.

        The iteration costs the *max* over per-device costs: each device
        runs its resident experts' share of the token load (split by routing
        frequency mass — skew makes stragglers) plus the all-to-all dispatch
        of routed tokens whose home device is not the expert's.  One device
        degenerates to the whole batch at zero dispatch — the exact
        pre-sharding iteration latency.

        ``home_key`` is ``None`` on a single device (the cost depends only
        on the token count) and the tuple of per-device home token counts
        otherwise.  Returns ``(step, max_compute, mean_compute,
        remote_tokens)``: the clock advance, the slowest device's compute,
        the mean compute over devices that received load, and the
        iteration's total remote-routed token count as an *integer*
        (round-half-up of the exact rational Σ_d load_d·ept·(tokens -
        home_d)/tokens; ``None`` single-device) — everything the caller
        accumulates per iteration, so the memoized replay performs the
        identical float operations the un-memoized loop did.  The *step*
        math keeps the exact float remote term (the clock is pinned byte
        for byte by the goldens); only the traffic *accounting* is integral.
        """
        key = tokens if home_key is None else (tokens, home_key)
        entry = self._cost_cache.get(key)
        if entry is not None:
            return entry
        latency_cache = self._latency_cache
        if home_key is None:
            compute = latency_cache.get(tokens)
            if compute is None:
                compute = self.backend.iteration_latency(self.spec, tokens).total
                latency_cache[tokens] = compute
            entry = (compute, compute, compute, None)
        else:
            step = 0.0
            max_compute = 0.0
            iter_compute_s = 0.0
            iter_loaded = 0
            remote_numer = 0  # Σ_d load_d · ept · (tokens - home_d), exact int
            experts_per_token = self.spec.experts_per_token
            alltoall_s = self._alltoall_s_per_token
            for d, load in enumerate(split_tokens(tokens, self.placement.device_mass)):
                if load:
                    compute = latency_cache.get(load)
                    if compute is None:
                        compute = self.backend.iteration_latency(self.spec, load).total
                        latency_cache[load] = compute
                    # Straggler accounting covers only devices that received
                    # token load this iteration: `split_tokens` hands a
                    # low-mass device zero tokens in a small batch, and its
                    # 0.0 compute must not deflate the mean.
                    iter_compute_s += compute
                    iter_loaded += 1
                else:
                    compute = 0.0
                remote_int = load * experts_per_token * (tokens - home_key[d])
                remote_numer += remote_int
                remote = remote_int / tokens
                max_compute = max(max_compute, compute)
                step = max(step, compute + remote * alltoall_s)
            mean_compute = iter_compute_s / iter_loaded if iter_loaded else 0.0
            # Round-half-up of remote_numer / tokens: token counts are whole.
            remote_tokens = (2 * remote_numer + tokens) // (2 * tokens)
            entry = (step, max_compute, mean_compute, remote_tokens)
        if len(self._cost_cache) >= 262144:
            # Multi-device home mixes are unbounded in principle; keep the
            # memo's footprint flat on adversarial workloads.
            self._cost_cache.clear()
        self._cost_cache[key] = entry
        return entry

    def _iteration_cost_disagg(
        self, tokens: int, home_key: tuple[int, ...]
    ) -> tuple[float, float, float, int]:
        """Memoized cost of one disaggregated iteration.

        The prefill pool and the decode pool run *concurrently*: each pool
        splits its own token share (``home_key`` entries of its devices) by
        its own placement's mass, pays its own all-to-all for tokens routed
        to remote experts *within the pool*, and the iteration's step is the
        max over every device of both pools.  A pool with no tokens this
        iteration contributes nothing (its devices are idle).  Returns the
        same ``(step, max_compute, mean_compute, remote_tokens)`` tuple as
        :meth:`_iteration_cost`, with ``remote_tokens`` summed over pools
        (round-half-up per pool, exact-integer accounting end to end).

        Shares ``_cost_cache`` and the ``(tokens, home_key)`` key shape with
        the colocated cost — safe because one engine instance is either
        disaggregated or not for its whole lifetime.
        """
        key = (tokens, home_key)
        entry = self._cost_cache.get(key)
        if entry is not None:
            return entry
        latency_cache = self._latency_cache
        experts_per_token = self.spec.experts_per_token
        alltoall_s = self._alltoall_s_per_token
        prefill = self.config.prefill_devices
        step = 0.0
        max_compute = 0.0
        iter_compute_s = 0.0
        iter_loaded = 0
        remote_tokens = 0
        for placement, pool_home in (
            (self._prefill_placement, home_key[:prefill]),
            (self._decode_placement, home_key[prefill:]),
        ):
            pool_tokens = sum(pool_home)
            if not pool_tokens:
                continue
            remote_numer = 0
            for d, load in enumerate(split_tokens(pool_tokens, placement.device_mass)):
                if load:
                    compute = latency_cache.get(load)
                    if compute is None:
                        compute = self.backend.iteration_latency(self.spec, load).total
                        latency_cache[load] = compute
                    iter_compute_s += compute
                    iter_loaded += 1
                else:
                    compute = 0.0
                remote_int = load * experts_per_token * (pool_tokens - pool_home[d])
                remote_numer += remote_int
                remote = remote_int / pool_tokens
                max_compute = max(max_compute, compute)
                step = max(step, compute + remote * alltoall_s)
            remote_tokens += (2 * remote_numer + pool_tokens) // (2 * pool_tokens)
        mean_compute = iter_compute_s / iter_loaded if iter_loaded else 0.0
        entry = (step, max_compute, mean_compute, remote_tokens)
        if len(self._cost_cache) >= 262144:
            self._cost_cache.clear()
        self._cost_cache[key] = entry
        return entry

    def _iteration_cost_overlap(
        self, tokens: int, home_key: tuple[int, ...]
    ) -> tuple[float, float, float, int, float, float]:
        """Memoized layered cost of one iteration under the overlap model.

        Decomposes the whole-model iteration into ``num_layers`` MoE layers:
        layer ``l`` splits the batch by *its own* placement's device mass
        (Fig. 3 skew differs by layer), costs ``max_d compute_{l,d}`` on the
        critical path, and its all-to-all overlaps with layer ``l + 1``'s
        compute through :func:`overlap_step_seconds`.  Per-device compute at
        a given load is the whole-model latency divided by ``num_layers`` —
        so a layered run whose layers all split identically reproduces the
        serial device-loop costs exactly.

        Keyed by ``(tokens, home_key, placement_epoch)``: dynamic
        re-placement changes every layer cost, so epochs must not share memo
        entries.  A miss reuses the home-independent per-layer split of
        :meth:`_overlap_split` and recomputes only the dispatch terms.
        Returns ``(step, max_compute, mean_compute, remote_tokens, hidden_s,
        comm_s)`` — the serial tuple plus the iteration's hidden
        communication seconds and total (un-overlapped) communication
        seconds.
        """
        key = (tokens, home_key, self._placement_epoch)
        entry = self._cost_cache.get(key)
        if entry is not None:
            return entry
        loads, computes, max_compute_s, mean_compute_s, _ = self._overlap_split(tokens)
        experts_per_token = self.spec.experts_per_token
        # remote[l, d] = load * experts_per_token * (tokens - home_d) is
        # exact (the int32 loads widen to int64), and each quotient by
        # ``tokens`` is the correctly rounded double Python's int division
        # gives (both operands stay below 2**53), so every comm term is
        # bit-identical to the scalar per-device loop.
        remote = loads * np.array(
            [experts_per_token * (tokens - home) for home in home_key], dtype=np.int64
        )
        remote_numer = int(remote.sum())
        comms: list[float] = (
            (remote / tokens).max(axis=1) * self._alltoall_s_per_layer_token
        ).tolist()
        step, hidden_s = overlap_step_seconds(
            computes.tolist(), comms, self._overlap_efficiency
        )
        comm_s = 0.0
        for c in comms:
            comm_s += c
        # Mean remote tokens per layer, round-half-up — comparable to the
        # serial engine's once-per-iteration whole-model accounting.
        denom = self.spec.num_layers * tokens
        remote_tokens = (2 * remote_numer + denom) // (2 * denom)
        entry = (step, max_compute_s, mean_compute_s, remote_tokens, hidden_s, comm_s)
        if len(self._cost_cache) >= 262144:
            self._cost_cache.clear()
        self._cost_cache[key] = entry
        return entry

    def _overlap_split(self, tokens: int) -> _OverlapSplit:
        """Memoized home-independent half of the layered overlap cost.

        Each layer's per-device token split and compute depend only on the
        batch token count and the placement epoch, while the dispatch term
        also depends on the home mix; batches with equal token counts but
        different homes share this entry (see :data:`_OverlapSplit`).
        """
        key = (tokens, self._placement_epoch)
        entry = self._split_cache.get(key)
        if entry is not None:
            return entry
        latency_cache = self._latency_cache
        spec = self.spec
        backend = self.backend
        num_layers = spec.num_layers
        layer_loads: list[list[int]] = []
        computes: list[float] = []
        max_compute_s = 0.0
        mean_compute_s = 0.0
        per_device = [0.0] * len(self.device_group)
        for mass in self.layered_placement.layer_mass:
            layer_max = 0.0
            layer_sum = 0.0
            layer_loaded = 0
            loads = split_tokens(tokens, mass)
            for d, load in enumerate(loads):
                if load:
                    whole = latency_cache.get(load)
                    if whole is None:
                        whole = backend.iteration_latency(spec, load).total
                        latency_cache[load] = whole
                    compute = whole / num_layers
                    layer_sum += compute
                    layer_loaded += 1
                    if compute > layer_max:
                        layer_max = compute
                    per_device[d] += compute
            layer_loads.append(loads)
            computes.append(layer_max)
            max_compute_s += layer_max
            mean_compute_s += layer_sum / layer_loaded if layer_loaded else 0.0
        entry = (
            np.array(layer_loads, dtype=np.int32), np.array(computes),
            max_compute_s, mean_compute_s, tuple(per_device),
        )
        if len(self._split_cache) >= 262144:
            self._split_cache.clear()
        self._split_cache[key] = entry
        return entry

    def _observe_routing(
        self, tokens: int, scheduler: ContinuousBatchingScheduler
    ) -> float:
        """Feed one iteration's routing into the drift tracker; maybe re-place.

        Called once per *distinct* batch composition (the fast path's
        macro-stepped iterations repeat the same composition, so observing
        only on change keeps the two loops equivalent).  When the sliding
        window fills, compares measured per-layer frequencies against the
        profile each layer's placement was packed for and re-packs drifted
        layers, returning the migration stall (seconds) to add to the clock
        — 0.0 when nothing moved.
        """
        drift = self._drift
        drift.observe(tokens)
        if not drift.window_full:
            return 0.0
        measured = drift.measured()
        drift.reset()
        moved = self.layered_placement.repack_drifted(
            measured, self.config.replacement_threshold
        )
        if not moved:
            return 0.0
        self._placement_epoch += 1
        scheduler.placement_epoch = self._placement_epoch
        return expert_migration_seconds(
            moved, self._expert_layer_bytes, self.backend.device.interconnect_bandwidth
        )

    def _run_general(
        self, pending: list[Request], scheduler: ContinuousBatchingScheduler
    ) -> _RunTotals:
        """The per-iteration loop: correct for every policy combination.

        Every iteration is simulated explicitly, but its per-sequence work
        scales with events, not with the batch: decoding sequences are
        counted per home device and advanced through the scheduler's
        :class:`~repro.serving.scheduler.DecodeTracker` (finish and KV
        block-boundary heaps over one shared iteration counter), so only
        the prefilling sequences are walked.  The device cost loop is
        memoized, eviction skipped on iterations nothing finished,
        ``ensure_capacity`` skipped for non-growing allocation, and the KV
        peaks re-read only after the pool's occupancy may have risen.
        """
        clock = 0.0
        next_arrival = 0
        n_pending = len(pending)
        iterations = 0
        total_tokens = 0
        peak_batch = 0
        peak_used_blocks = 0
        peak_shared_blocks = 0
        num_devices = len(self.device_group)
        peak_used_per_device = [0] * num_devices
        straggler_max_s = 0.0
        straggler_mean_s = 0.0
        alltoall_tokens = 0
        hidden_comm_s = 0.0
        comm_total_s = 0.0
        migration_s = 0.0
        replacements = 0
        handoffs = 0
        handoff_blocks = 0
        handoff_s = 0.0
        rebalances = 0
        rebalanced_blocks = 0
        rebalance_s = 0.0
        swap_in_s = 0.0
        recompute_equivalent_s = 0.0
        chunk = scheduler.config.prefill_chunk
        grows = scheduler.allocation.grows
        multi = num_devices > 1
        overlap_mode = self._overlap
        disagg = self._disagg
        swap_mode = scheduler.config.preempt_mode == "swap"
        rebalance_pool = disagg and len(self._decode_pool) > 1
        drift = self._drift if overlap_mode else None
        last_ckey = None
        block_manager = self.block_manager
        tracker = scheduler.decode
        audit = self.config.debug_checks and not grows
        tracer = self.tracer
        metrics = self.metrics
        #: Next due metrics sample time (``inf`` disables the clock compare).
        metrics_due = metrics.next_due if metrics is not None else float("inf")
        iter_t0 = 0.0
        iter_stall = 0.0
        #: ``block_manager.rises`` at the last peak sample.
        sampled_rises = -1

        while next_arrival < n_pending or scheduler.has_work:
            while next_arrival < n_pending and pending[next_arrival].arrival_time <= clock:
                scheduler.add_request(pending[next_arrival])
                next_arrival += 1
            if tracer is not None:
                # Preemption and KV events inside ensure_capacity/admit
                # timestamp with the tracer clock.
                tracer.now = clock
            if grows:
                # Running sequences secure the blocks their next token needs
                # (preempting the low-precedence tail if the pool is dry)
                # before any queued request may claim free blocks.
                scheduler.ensure_capacity()
            elif audit:
                tracker.audit(scheduler.running)
            admitted = scheduler.admit(clock)
            if swap_mode and admitted:
                # Re-admitted swap victims restore their parked KV over the
                # host link before the batch may step; the stall is serial
                # (one PCIe link) and charged to the clock.
                for seq in admitted:
                    if seq.swapped_tokens:
                        blocks = block_manager.blocks_needed(seq.swapped_tokens)
                        stall = blocks * self._swap_s_per_block
                        resume_t0 = clock
                        clock += stall
                        swap_in_s += stall
                        # What discarding instead would have cost: one
                        # re-prefill pass over the swapped tokens.
                        lat = self._latency_cache.get(seq.swapped_tokens)
                        if lat is None:
                            lat = self.backend.iteration_latency(
                                self.spec, seq.swapped_tokens
                            ).total
                            self._latency_cache[seq.swapped_tokens] = lat
                        recompute_equivalent_s += lat
                        if tracer is not None:
                            tracer.swap_in(seq, resume_t0, clock, blocks, stall)
                            tracer.now = clock
                        seq.swapped_tokens = 0
            running = scheduler.running
            if not running:
                if next_arrival < n_pending:
                    # Idle: jump the clock to the next arrival.
                    clock = max(clock, pending[next_arrival].arrival_time)
                    continue
                break

            # Each decoding sequence contributes one token row; only the
            # walked (prefilling) sequences need counting one by one.
            walked = tracker.walked
            tokens = tracker.count
            if multi:
                home_tokens = tracker.home[:]
                for seq in walked:
                    t = seq.tokens_this_iteration(chunk)
                    tokens += t
                    home_tokens[seq.home_device] += t
                home_key = tuple(home_tokens)
                if overlap_mode:
                    (step, max_compute, mean_compute, remote_tokens,
                     hidden, comm) = self._iteration_cost_overlap(tokens, home_key)
                    hidden_comm_s += hidden
                    comm_total_s += comm
                elif disagg:
                    step, max_compute, mean_compute, remote_tokens = (
                        self._iteration_cost_disagg(tokens, home_key)
                    )
                else:
                    step, max_compute, mean_compute, remote_tokens = (
                        self._iteration_cost(tokens, home_key)
                    )
                alltoall_tokens += remote_tokens
                straggler_max_s += max_compute
                straggler_mean_s += mean_compute
            else:
                for seq in walked:
                    tokens += seq.tokens_this_iteration(chunk)
                step = self._iteration_cost(tokens, None)[0]
            if tracer is not None:
                iter_t0 = clock  # float addition is not invertible
            clock += step
            iterations += 1
            total_tokens += tokens
            if drift is not None:
                # One observation per distinct batch composition — the fast
                # path's macro-stepped iterations repeat the same (tokens,
                # home) key and never observe, so the two loops agree.
                ckey = (tokens, home_key)
                if ckey != last_ckey:
                    last_ckey = ckey
                    stall = self._observe_routing(tokens, scheduler)
                    if stall:
                        clock += stall
                        migration_s += stall
                        replacements += 1
                        if tracer is not None:
                            iter_stall = stall
            batch = len(running)
            if tracer is not None:
                if multi:
                    if overlap_mode:
                        tracer.iteration(
                            iterations - 1, iter_t0, clock, tokens, batch,
                            compute=self._telemetry_per_device(tokens, home_key),
                            max_compute=max_compute, mean_compute=mean_compute,
                            remote_tokens=remote_tokens,
                            hidden=hidden, comm=comm, stall=iter_stall,
                        )
                    else:
                        tracer.iteration(
                            iterations - 1, iter_t0, clock, tokens, batch,
                            compute=self._telemetry_per_device(tokens, home_key),
                            max_compute=max_compute, mean_compute=mean_compute,
                            remote_tokens=remote_tokens, stall=iter_stall,
                        )
                else:
                    tracer.iteration(iterations - 1, iter_t0, clock, tokens, batch)
                iter_stall = 0.0
                tracer.now = clock  # finish/KV-free events below carry it
            if metrics is not None and clock >= metrics_due:
                metrics_due = self._sample_metrics(
                    metrics, scheduler, clock, iterations, batch
                )
            if batch > peak_batch:
                peak_batch = batch
            rises = block_manager.rises
            if rises != sampled_rises:
                # Pool occupancy can only have risen since the last sample
                # if a block was taken or newly shared; otherwise no peak
                # can move and the aggregate reads are skipped.
                sampled_rises = rises
                used = block_manager.used_blocks
                if used > peak_used_blocks:
                    peak_used_blocks = used
                shared = block_manager.shared_blocks
                if shared > peak_shared_blocks:
                    peak_shared_blocks = shared
                if multi:
                    for d in range(num_devices):
                        u = block_manager.used_blocks_on(d)
                        if u > peak_used_per_device[d]:
                            peak_used_per_device[d] = u

            started: list[Sequence] | None = [] if disagg else None
            finished_any = tracker.step(iterations, clock, chunk, tracer, started)
            if started:
                # Sequences whose prefill just completed hand their KV off
                # the prefill pool before the next iteration (first token
                # already emitted — handoff delays the second).
                for seq in started:
                    req_id = seq.request.request_id
                    blocks = block_manager.blocks_held(req_id)
                    dst = -1
                    best_free = -1
                    for d in self._decode_pool:
                        free = block_manager.free_blocks_on(d)
                        if free >= blocks and free > best_free:
                            best_free = free
                            dst = d
                    if dst < 0:
                        # No decode device can hold the KV right now:
                        # preempt off the prefill device instead
                        # (preempt_mode decides recompute vs swap) and
                        # retry the whole admission later.
                        scheduler.preempt(seq)
                        continue
                    src = seq.home_device
                    block_manager.migrate(req_id, src, dst)
                    tracker.rehome(seq, dst)
                    stall = blocks * self._handoff_s_per_block
                    transfer_t0 = clock
                    clock += stall
                    handoffs += 1
                    handoff_blocks += blocks
                    handoff_s += stall
                    if tracer is not None:
                        tracer.handoff(
                            seq, transfer_t0, clock, src, dst, blocks, stall
                        )
                        tracer.now = clock
            if finished_any:
                scheduler.evict_finished()
                if rebalance_pool:
                    # Elasticity hook: batch membership changed, so the
                    # decode pool's load may have skewed — let the policy
                    # move (at most) one decode sequence per boundary.
                    move = scheduler.policy.select_rebalance(
                        running, block_manager, self._decode_pool
                    )
                    if move is not None:
                        mover, dst = move
                        src = mover.home_device
                        blocks = block_manager.migrate(
                            mover.request.request_id, src, dst
                        )
                        tracker.rehome(mover, dst)
                        stall = blocks * self._handoff_s_per_block
                        transfer_t0 = clock
                        clock += stall
                        rebalances += 1
                        rebalanced_blocks += blocks
                        rebalance_s += stall
                        if tracer is not None:
                            tracer.migrate(
                                mover, transfer_t0, clock, src, dst, blocks, stall
                            )
                            tracer.now = clock

        return (
            clock, iterations, total_tokens, peak_batch, peak_used_blocks,
            peak_shared_blocks, peak_used_per_device,
            straggler_max_s, straggler_mean_s, alltoall_tokens,
            hidden_comm_s, comm_total_s, migration_s, replacements,
            (handoffs, handoff_blocks, handoff_s, rebalances,
             rebalanced_blocks, rebalance_s, swap_in_s, recompute_equivalent_s),
        )

    def _run_fast(
        self, pending: list[Request], scheduler: ContinuousBatchingScheduler
    ) -> _RunTotals:
        """Event-driven loop for reservation allocation + the default policy.

        Rests on two invariants of that combination (asserted by ``run``):

        * KV blocks move only at admission and eviction — mid-decode there
          is no growth, preemption or copy-on-write, so peak trackers only
          need sampling when the batch membership changes;
        * a failed admission stays failed until an arrival or an eviction
          changes the (waiting, running, pool) state, so ``admit`` is only
          called when ``admit_dirty`` marks such a change.

        Decode progress is tracked by the scheduler's
        :class:`~repro.serving.scheduler.DecodeTracker`, as in the general
        loop: a sequence completing prefill at iteration ``i`` finishes at
        iteration ``i + max_new_tokens - 1`` exactly, so between finish
        events nothing per-sequence happens at all and uneventful stretches
        are compressed into a tight loop repeating the exact per-iteration
        float operations (bit-identical clock).
        """
        clock = 0.0
        next_arrival = 0
        n_pending = len(pending)
        iterations = 0
        total_tokens = 0
        peak_batch = 0
        peak_used_blocks = 0
        peak_shared_blocks = 0
        num_devices = len(self.device_group)
        peak_used_per_device = [0] * num_devices
        straggler_max_s = 0.0
        straggler_mean_s = 0.0
        alltoall_tokens = 0
        hidden_comm_s = 0.0
        comm_total_s = 0.0
        migration_s = 0.0
        replacements = 0
        chunk = scheduler.config.prefill_chunk
        multi = num_devices > 1
        overlap_mode = self._overlap
        drift = self._drift if overlap_mode else None
        last_ckey = None
        block_manager = self.block_manager
        running = scheduler.running
        tracker = scheduler.decode
        #: Decoding sequences per home device, and their finish events.
        home_decode = tracker.home
        finish_heap = tracker.finish_heap
        audit = self.config.debug_checks
        admit_dirty = False
        cost_cache = self._cost_cache
        waiting = scheduler.waiting
        inf = float("inf")
        #: Arrival time of ``pending[next_arrival]`` (``inf`` when drained),
        #: kept in a local so the steady-state loops compare plain floats.
        next_at = pending[0].arrival_time if pending else inf
        tracer = self.tracer
        metrics = self.metrics
        metrics_due = metrics.next_due if metrics is not None else inf
        iter_t0 = 0.0
        iter_stall = 0.0

        while next_arrival < n_pending or scheduler.has_work:
            while next_at <= clock:
                scheduler.add_request(pending[next_arrival])
                next_arrival += 1
                next_at = (
                    pending[next_arrival].arrival_time
                    if next_arrival < n_pending
                    else inf
                )
                admit_dirty = True
            if admit_dirty:
                admit_dirty = False
                if tracer is not None:
                    tracer.now = clock  # KV alloc/share events inside admit
                # `admit` with an empty queue is a no-op (the default policy
                # has no side effects there); most evictions at low load
                # find nothing waiting, so skip the call.
                admitted = scheduler.admit(clock) if waiting else None
                if admitted:
                    # Blocks move only at admission/eviction under
                    # reservation allocation, so peaks move only here.
                    batch = len(running)
                    if batch > peak_batch:
                        peak_batch = batch
                    used = block_manager.used_blocks
                    if used > peak_used_blocks:
                        peak_used_blocks = used
                    shared = block_manager.shared_blocks
                    if shared > peak_shared_blocks:
                        peak_shared_blocks = shared
                    if multi:
                        for d in range(num_devices):
                            u = block_manager.used_blocks_on(d)
                            if u > peak_used_per_device[d]:
                                peak_used_per_device[d] = u
            if not running:
                if next_arrival < n_pending:
                    # Idle: jump the clock to the next arrival.
                    clock = max(clock, next_at)
                    continue
                break
            if audit:
                tracker.audit(running)

            prefilling = tracker.walked
            tokens = tracker.count
            if prefilling:
                for seq in prefilling:
                    tokens += seq.tokens_this_iteration(chunk)
            if multi:
                if prefilling:
                    home_tokens = home_decode[:]
                    for seq in prefilling:
                        home_tokens[seq.home_device] += seq.tokens_this_iteration(chunk)
                else:
                    home_tokens = home_decode
                home_key = tuple(home_tokens)
                if overlap_mode:
                    key = (tokens, home_key, self._placement_epoch)
                    entry = cost_cache.get(key)
                    if entry is None:
                        entry = self._iteration_cost_overlap(tokens, home_key)
                    (step, max_compute, mean_compute, remote_tokens,
                     hidden, comm) = entry
                    hidden_comm_s += hidden
                    comm_total_s += comm
                else:
                    key = (tokens, home_key)
                    entry = cost_cache.get(key)
                    if entry is None:
                        entry = self._iteration_cost(*key)
                    step, max_compute, mean_compute, remote_tokens = entry
                alltoall_tokens += remote_tokens
                straggler_max_s += max_compute
                straggler_mean_s += mean_compute
            else:
                entry = cost_cache.get(tokens)
                if entry is None:
                    entry = self._iteration_cost(tokens, None)
                step = entry[0]
            if tracer is not None:
                iter_t0 = clock
            clock += step
            iterations += 1
            total_tokens += tokens
            if drift is not None:
                # Mirror of the general loop's per-composition observation.
                ckey = (tokens, home_key)
                if ckey != last_ckey:
                    last_ckey = ckey
                    stall = self._observe_routing(tokens, scheduler)
                    if stall:
                        clock += stall
                        migration_s += stall
                        replacements += 1
                        if tracer is not None:
                            iter_stall = stall
            if tracer is not None:
                ibatch = len(running)
                if multi:
                    if overlap_mode:
                        tracer.iteration(
                            iterations - 1, iter_t0, clock, tokens, ibatch,
                            compute=self._telemetry_per_device(tokens, home_key),
                            max_compute=max_compute, mean_compute=mean_compute,
                            remote_tokens=remote_tokens,
                            hidden=hidden, comm=comm, stall=iter_stall,
                        )
                    else:
                        tracer.iteration(
                            iterations - 1, iter_t0, clock, tokens, ibatch,
                            compute=self._telemetry_per_device(tokens, home_key),
                            max_compute=max_compute, mean_compute=mean_compute,
                            remote_tokens=remote_tokens, stall=iter_stall,
                        )
                else:
                    tracer.iteration(iterations - 1, iter_t0, clock, tokens, ibatch)
                iter_stall = 0.0
                tracer.now = clock  # finish/KV-free events below carry it
            if metrics is not None and clock >= metrics_due:
                metrics_due = self._sample_metrics(
                    metrics, scheduler, clock, iterations, len(running)
                )

            # Most explicit iterations here neither advance a prefill nor
            # reach a finish event; skip the tracker call on those.
            if tracker.walked or (finish_heap and finish_heap[0][0] <= iterations):
                if tracker.step(iterations, clock, chunk, tracer):
                    scheduler.evict_finished()
                    admit_dirty = True  # freed blocks / batch slots
                    continue
            else:
                tracker.iteration = iterations

            # -- steady-state macro step ---------------------------------------
            # Pure decode, nothing admitted or finished this iteration: the
            # batch is frozen until the next finish event or arrival, and
            # every iteration until then repeats the same float operations.
            if tracker.walked or not finish_heap:
                continue
            span = finish_heap[0][0] - iterations - 1
            if span <= 0:
                continue
            tokens = tracker.count
            if multi:
                home_key = tuple(home_decode)
                if drift is not None and (tokens, home_key) != last_ckey:
                    # The stretch starts on a batch composition the drift
                    # tracker has not observed (e.g. the last explicit
                    # iteration still carried prefill tokens).  Run one
                    # explicit iteration — it performs the observation —
                    # before compressing; the general loop observes at
                    # exactly that iteration too.
                    continue
                if overlap_mode:
                    key = (tokens, home_key, self._placement_epoch)
                    entry = cost_cache.get(key)
                    if entry is None:
                        entry = self._iteration_cost_overlap(tokens, home_key)
                    (step, max_compute, mean_compute, remote_tokens,
                     hidden, comm) = entry
                else:
                    key = (tokens, home_key)
                    entry = cost_cache.get(key)
                    if entry is None:
                        entry = self._iteration_cost(*key)
                    step, max_compute, mean_compute, remote_tokens = entry
            else:
                entry = cost_cache.get(tokens)
                if entry is None:
                    entry = self._iteration_cost(tokens, None)
                step = entry[0]
            done = 0
            if tracer is None and metrics is None:
                if multi:
                    if overlap_mode:
                        while done < span and next_at > clock:
                            alltoall_tokens += remote_tokens
                            straggler_max_s += max_compute
                            straggler_mean_s += mean_compute
                            hidden_comm_s += hidden
                            comm_total_s += comm
                            clock += step
                            done += 1
                    else:
                        while done < span and next_at > clock:
                            alltoall_tokens += remote_tokens
                            straggler_max_s += max_compute
                            straggler_mean_s += mean_compute
                            clock += step
                            done += 1
                else:
                    # Conservative unchecked prefix: after k additions the
                    # accumulated rounding error is far below one step, so
                    # ``(next_at - clock)/step - 2`` iterations provably keep
                    # ``clock < next_at`` throughout — run them without the
                    # per-iteration comparison, then finish checked.  The adds
                    # themselves stay the exact sequential ``clock += step`` the
                    # uncompressed loop performs (bit-identical clock).
                    bulk = span
                    if next_at is not inf and step > 0.0:
                        safe = int((next_at - clock) / step) - 2
                        if safe < bulk:
                            bulk = safe
                    if bulk > 0:
                        for _ in range(bulk):
                            clock += step
                        done = bulk
                    while done < span and next_at > clock:
                        clock += step
                        done += 1
            else:
                # Telemetry variant of the macro step: the identical float
                # accumulations in the identical order (bit-identical clock
                # and totals — the single-device checked loop performs the
                # same sequential ``clock += step`` adds the unchecked bulk
                # prefix does), plus one synthesized iter event and a due
                # check per compressed iteration, so the span stream matches
                # the general loop's byte for byte.
                ibatch = len(running)
                if multi:
                    pd = (
                        self._telemetry_per_device(tokens, home_key)
                        if tracer is not None
                        else None
                    )
                    if overlap_mode:
                        while done < span and next_at > clock:
                            alltoall_tokens += remote_tokens
                            straggler_max_s += max_compute
                            straggler_mean_s += mean_compute
                            hidden_comm_s += hidden
                            comm_total_s += comm
                            iter_t0 = clock
                            clock += step
                            done += 1
                            if tracer is not None:
                                tracer.iteration(
                                    iterations + done - 1, iter_t0, clock,
                                    tokens, ibatch, compute=pd,
                                    max_compute=max_compute,
                                    mean_compute=mean_compute,
                                    remote_tokens=remote_tokens,
                                    hidden=hidden, comm=comm,
                                )
                            if metrics is not None and clock >= metrics_due:
                                metrics_due = self._sample_metrics(
                                    metrics, scheduler, clock,
                                    iterations + done, ibatch,
                                )
                    else:
                        while done < span and next_at > clock:
                            alltoall_tokens += remote_tokens
                            straggler_max_s += max_compute
                            straggler_mean_s += mean_compute
                            iter_t0 = clock
                            clock += step
                            done += 1
                            if tracer is not None:
                                tracer.iteration(
                                    iterations + done - 1, iter_t0, clock,
                                    tokens, ibatch, compute=pd,
                                    max_compute=max_compute,
                                    mean_compute=mean_compute,
                                    remote_tokens=remote_tokens,
                                )
                            if metrics is not None and clock >= metrics_due:
                                metrics_due = self._sample_metrics(
                                    metrics, scheduler, clock,
                                    iterations + done, ibatch,
                                )
                else:
                    while done < span and next_at > clock:
                        iter_t0 = clock
                        clock += step
                        done += 1
                        if tracer is not None:
                            tracer.iteration(
                                iterations + done - 1, iter_t0, clock,
                                tokens, ibatch,
                            )
                        if metrics is not None and clock >= metrics_due:
                            metrics_due = self._sample_metrics(
                                metrics, scheduler, clock, iterations + done,
                                ibatch,
                            )
            iterations += done
            tracker.iteration = iterations
            total_tokens += tokens * done

        # The fast path never moves KV: disagg is excluded by ``run`` and
        # reservation allocation never preempts, so nothing is ever swapped.
        return (
            clock, iterations, total_tokens, peak_batch, peak_used_blocks,
            peak_shared_blocks, peak_used_per_device,
            straggler_max_s, straggler_mean_s, alltoall_tokens,
            hidden_comm_s, comm_total_s, migration_s, replacements,
            (0, 0, 0.0, 0, 0, 0.0, 0.0, 0.0),
        )

    def _cluster_section(
        self,
        peak_used_per_device: list[int],
        straggler_max_s: float,
        straggler_mean_s: float,
        alltoall_tokens: int,
    ) -> dict[str, Any]:
        """The report's ``cluster`` section (multi-device runs only)."""
        num_devices = len(self.device_group)
        per_device = []
        for d, name in enumerate(self.device_group.names):
            blocks = self.block_manager.num_blocks_on(d)
            if self._disagg:
                # Each pool spans the whole model on its own devices, so the
                # expert count and load share come from the pool-local
                # placement, tagged with the device's role.
                pool_placement, local = self._pool_placement(d)
                entry = {
                    "device": name,
                    "role": (
                        "prefill" if d < self.config.prefill_devices else "decode"
                    ),
                    "experts": pool_placement.experts_on(local),
                    "expert_load_share": round(pool_placement.device_mass[local], 6),
                }
            else:
                entry = {
                    "device": name,
                    "experts": self.placement.experts_on(d),
                    "expert_load_share": round(self.placement.device_mass[d], 6),
                }
            entry.update(
                {
                    "kv_blocks": blocks,
                    "kv_peak_used_blocks": peak_used_per_device[d],
                    "kv_utilization_peak": (
                        peak_used_per_device[d] / blocks if blocks else 0.0
                    ),
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
            "devices": num_devices,
            "placement": self.placement.name,
            # Time lost to routing skew: the slowest device's compute over
            # the loaded-device mean compute (1.0 = no skew).
            "straggler_ratio": (
                straggler_max_s / straggler_mean_s if straggler_mean_s else 1.0
            ),
            # Token counts are whole numbers; the per-iteration remote counts
            # are accumulated as exact integers end-to-end.
            "alltoall_tokens": alltoall_tokens,
            "per_device": per_device,
        }

    # -- reporting ---------------------------------------------------------------
    def _build_report(
        self,
        scheduler: ContinuousBatchingScheduler,
        clock: float,
        iterations: int,
        total_tokens: int,
        peak_batch: int,
        peak_used_blocks: int,
        peak_shared_blocks: int,
        cluster: dict | None = None,
        overlap: dict | None = None,
        migration: dict | None = None,
        *,
        first_submitted: float | None = None,
        num_submitted: int | None = None,
    ) -> ServingReport:
        finished = scheduler.finished
        records: list[dict] = []
        all_seqs: list[Sequence] = sorted(
            scheduler.finished + scheduler.rejected + scheduler.stranded,
            key=lambda s: s.request.request_id,
        )
        if num_submitted is not None:
            # Conservation: every submitted request must land in exactly one
            # terminal state — nothing may silently vanish from the report.
            assert (
                len(scheduler.finished) + len(scheduler.rejected) + len(scheduler.stranded)
                == num_submitted
            ), (
                f"request accounting leak: {len(scheduler.finished)} finished + "
                f"{len(scheduler.rejected)} rejected + {len(scheduler.stranded)} "
                f"stranded != {num_submitted} submitted"
            )
        multi_device = len(self.device_group) > 1
        for seq in all_seqs:
            record = {
                "request_id": seq.request.request_id,
                "state": seq.state.value,
                "arrival_s": seq.request.arrival_time,
                "prompt_tokens": seq.request.prompt_tokens,
                "new_tokens": seq.generated_tokens,
                "ttft_s": seq.ttft,
                "tpot_s": seq.tpot,
                "e2e_s": seq.e2e_latency,
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
        # Summary lists keep *finish order* (their float reduction order is
        # pinned by the goldens); evaluate each latency property once per
        # sequence instead of twice (filter + collect).
        ttfts: list[float] = []
        tpots: list[float] = []
        e2es: list[float] = []
        for s in finished:
            ttft = s.ttft
            if ttft is not None:
                ttfts.append(ttft)
            tpot = s.tpot
            if tpot is not None:
                tpots.append(tpot)
            e2e = s.e2e_latency
            if e2e is not None:
                e2es.append(e2e)
        if finished:
            # The sustained-QPS window opens at the first *submitted* arrival
            # (not the first finished one): when early arrivals are rejected
            # or load-shed, the system was already accepting traffic, and
            # shrinking the window to the survivors overstates throughput.
            if first_submitted is None:
                first_submitted = min(s.request.arrival_time for s in finished)
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
            num_requests=len(all_seqs),
            completed=len(finished),
            rejected=len(scheduler.rejected),
            stranded=len(scheduler.stranded),
            iterations=iterations,
            preemptions=scheduler.preemptions,
            recomputed_tokens=scheduler.recomputed_tokens,
            sim_time_s=clock,
            sustained_qps=qps,
            ttft=summarize_latencies(ttfts),
            tpot=summarize_latencies(tpots),
            e2e=summarize_latencies(e2es),
            peak_batch=peak_batch,
            mean_batch_tokens=(total_tokens / iterations) if iterations else 0.0,
            kv_num_blocks=self.block_manager.num_blocks,
            kv_block_size=self.block_manager.block_size,
            kv_peak_used_blocks=peak_used_blocks,
            kv_utilization_peak=(
                peak_used_blocks / self.block_manager.num_blocks
                if self.block_manager.num_blocks
                else 0.0
            ),
            prefix_hit_tokens=self.block_manager.prefix_hit_tokens,
            prefix_hit_blocks=self.block_manager.prefix_hit_blocks,
            prefix_shared_blocks_peak=peak_shared_blocks,
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
