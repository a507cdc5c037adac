"""Simulated online serving on top of the Table 7 inference backends.

The paper's end-to-end evaluation stops at the latency of one decode step
per backend and batch size; this package turns those step latencies into a
request-level serving system so memory savings can be read as *serving
capacity*: a continuous-batching scheduler (iteration-level batching à la
Orca), a paged KV-cache block pool over the backend's leftover VRAM, and a
deterministic discrete-event clock whose service times are exactly the
backends' :meth:`~repro.runtime.backends.InferenceBackend.iteration_latency`.

Memory and scheduling decisions are *policies*, not hard-wired behavior:

* :class:`AllocationPolicy` decides when KV blocks are taken from the
  physical :class:`BlockManager` pool.  :class:`ReservationPolicy` (default)
  reserves a request's full ``prompt + max_new_tokens`` extent before
  admission — deterministic, never exhausts mid-decode.
  :class:`OnDemandPolicy` allocates blocks as tokens are written
  (vLLM-style), packing strictly more concurrent sequences into the same
  pool; on exhaustion the scheduler preempts the lowest-precedence running
  sequence, frees its blocks and requeues it for recompute-on-resume.
* :class:`SchedulingPolicy` decides who goes first: admission order
  (strict priority, FIFO within a class), batch formation, and
  preemption-victim selection (:class:`FifoPriorityPolicy` is the default;
  with prefix sharing it prefers victims holding few shared blocks, since
  preempting a sharer frees only its private blocks).
* Sarathi-style chunked prefill (``EngineConfig.prefill_chunk``) feeds at
  most N prompt tokens per iteration, piggybacked with decode tokens, so a
  long prompt does not stall the whole batch.
* Prefix sharing / copy-on-write: requests declaring a shared prompt prefix
  (``Request.prefix_id`` / ``prefix_tokens``) map resident prefix blocks
  read-only through the :class:`BlockManager` prefix index (refcounted
  block identity, CoW on the first divergent write) and skip the covered
  prefill compute; the report's ``prefix_cache`` section counts hits,
  shared blocks, CoW copies and the dedup ratio.
* Multi-GPU expert parallelism (``EngineConfig.devices > 1``): the KV pool
  becomes a :class:`ShardedBlockManager` (one per-device pool, sequences
  pinned to a least-loaded home device) and the routed experts are placed
  by an :class:`ExpertPlacement` from the :data:`PLACEMENT_POLICIES`
  registry (``balanced`` round-robin vs ``frequency`` Fig. 3 skew-aware
  packing); the iteration cost is the max over per-device costs plus an
  all-to-all dispatch term, and the report gains a ``cluster`` section.
  One device reduces to the single-device engine byte-for-byte.
* Overlap-aware layered cost model (``EngineConfig.overlap``): the
  iteration cost decomposes per MoE layer — each layer gets its own expert
  placement (:class:`LayeredExpertPlacement`, Fig. 3 skew differs by
  depth), its own max-over-devices compute term, and its all-to-all
  overlaps with the next layer's compute
  (:func:`~repro.serving.cost.overlap_step_seconds`, scaled by the
  device's ``overlap_efficiency``).  A :class:`RoutingDriftTracker` window
  optionally re-packs drifted layers at run time
  (``EngineConfig.replacement_threshold``), pricing moved expert weights
  over the interconnect (:func:`expert_migration_seconds`); the report
  gains an ``overlap`` section.  With ``overlap=False`` (default) the
  serial whole-model cost model is untouched, byte for byte.  Every mode
  is priced by one :class:`~repro.serving.cost.CostModel` over the
  engine's pools × layers.
* Disaggregated prefill/decode serving (``EngineConfig.prefill_devices`` /
  ``decode_devices``, ``milo serve --disagg P:D``): the device group splits
  into a prefill pool and a decode pool, each spanning the whole model with
  its own pool-local expert placement.  New requests prefill on the prefill
  pool; the iteration that completes prefill hands the sequence's KV blocks
  to the least-loaded decode device
  (:meth:`ContinuousBatchingScheduler.handoff` over
  :meth:`ShardedBlockManager.migrate`), priced per block over the
  interconnect and charged to the deterministic clock.  A load-triggered
  :meth:`SchedulingPolicy.select_rebalance` hook
  (:meth:`ContinuousBatchingScheduler.rebalance`) keeps the decode pool
  even, and ``EngineConfig.preempt_mode='swap'`` (:data:`PREEMPT_MODES`)
  turns preemption into swap-to-host: the victim's KV parks in host memory
  and is restored over ``DeviceSpec.host_bandwidth`` on re-admission, with
  the recompute-equivalent cost reported alongside for comparison.  The
  report gains a ``migration`` section; disaggregation off reduces to the
  colocated engine byte-for-byte.
* Opt-in observability (:mod:`repro.serving.telemetry`): a :class:`Tracer`
  records structured lifecycle spans (request phases, per-iteration device
  compute, KV block moves) and a :class:`MetricsRegistry` samples
  scheduler/KV gauges on a sim-time interval, both exportable as raw JSONL
  or Perfetto-loadable Chrome trace-event JSON
  (:func:`chrome_trace`) and summarized by ``milo analyze``.  Everything
  runs on the simulated clock (DET001-clean), every iteration of a loop
  turn's stretch emits the event it would alone, and with telemetry disabled every hook
  sits behind one ``is not None`` test — reports stay byte-identical
  (goldens) at <5% overhead (``telemetry_overhead_frac`` benchmark gate).

Modules
-------
``request``
    :class:`Request` / :class:`Sequence` lifecycle (including the
    ``PREEMPTED`` state and recompute-on-resume) and per-request metrics
    (TTFT, TPOT, end-to-end latency).
``kv_cache``
    Physical paged :class:`BlockManager` pool — numbered blocks on a free
    list, per-sequence block tables, per-block refcounts, prefix index and
    copy-on-write — plus the :class:`AllocationPolicy` implementations over
    the VRAM the quantized weights leave free.
``scheduler``
    :class:`ContinuousBatchingScheduler` — composes an allocation policy
    with a :class:`SchedulingPolicy`; strict priority, FIFO within a class,
    no starvation, batch bounded by KV capacity, deficit-driven preemption.
``engine``
    :class:`ServingEngine` — the discrete-event loop and the
    :class:`ServingReport` with p50/p95 TTFT, TPOT, sustained QPS,
    preemption/recompute counters and peak KV utilization.
``workload``
    Seeded Poisson, replay-trace and JSONL trace-file workload loaders.
``cluster``
    :class:`DeviceGroup`, :class:`ExpertPlacement` policies and the
    :class:`ShardedBlockManager` per-device KV pools.
``telemetry``
    :class:`Tracer`, :class:`MetricsRegistry`, the Chrome trace-event
    exporter and the ``milo analyze`` trace summarizer.
"""

from .cluster import (
    PLACEMENT_POLICIES,
    BalancedPlacement,
    DeviceGroup,
    ExpertPlacement,
    FrequencyPlacement,
    LayeredExpertPlacement,
    RoutingDriftTracker,
    ShardedBlockManager,
    expert_migration_seconds,
    make_expert_placement,
    split_tokens,
    split_tokens_rows,
)
from .engine import (
    EngineConfig,
    ServingEngine,
    ServingReport,
    expert_weight_fraction,
    overlap_step_seconds,
)
from .kv_cache import (
    ALLOCATION_POLICIES,
    AllocationPolicy,
    BlockManager,
    KVCacheExhausted,
    OnDemandPolicy,
    ReservationPolicy,
    blocks_for_budget,
    kv_block_bytes,
    make_allocation_policy,
)
from .request import Request, RequestState, Sequence
from .telemetry import (
    MetricsRegistry,
    Tracer,
    analyze_trace,
    chrome_trace,
    validate_chrome_trace,
)
from .scheduler import (
    ADMISSION_MODES,
    PREEMPT_MODES,
    ContinuousBatchingScheduler,
    FifoPriorityPolicy,
    MissedAdmission,
    SchedulerConfig,
    SchedulingPolicy,
)
from .workload import TraceSchemaError, load_trace, poisson_workload, replay_workload

__all__ = [
    "Request",
    "RequestState",
    "Sequence",
    "BlockManager",
    "KVCacheExhausted",
    "AllocationPolicy",
    "ReservationPolicy",
    "OnDemandPolicy",
    "ALLOCATION_POLICIES",
    "make_allocation_policy",
    "kv_block_bytes",
    "blocks_for_budget",
    "ContinuousBatchingScheduler",
    "SchedulingPolicy",
    "FifoPriorityPolicy",
    "MissedAdmission",
    "ADMISSION_MODES",
    "PREEMPT_MODES",
    "SchedulerConfig",
    "EngineConfig",
    "ServingEngine",
    "ServingReport",
    "expert_weight_fraction",
    "DeviceGroup",
    "ExpertPlacement",
    "BalancedPlacement",
    "FrequencyPlacement",
    "LayeredExpertPlacement",
    "RoutingDriftTracker",
    "PLACEMENT_POLICIES",
    "make_expert_placement",
    "split_tokens",
    "split_tokens_rows",
    "ShardedBlockManager",
    "expert_migration_seconds",
    "overlap_step_seconds",
    "poisson_workload",
    "replay_workload",
    "load_trace",
    "TraceSchemaError",
    "Tracer",
    "MetricsRegistry",
    "analyze_trace",
    "chrome_trace",
    "validate_chrome_trace",
]
